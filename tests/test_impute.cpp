// Property suite for the IM strategy (core/im.cpp) and its population
// model (analytic/impute.hpp) — the probabilistic-certification contract:
//
//   * thresh=1.0 identity, 200 seeds: smoothed confidences are strictly
//     below 1, so a threshold of 1.0 never clears a check and IM is
//     *bitwise* identical to BL — full StrategyReport digest, every cost
//     figure and simulator timestamp — including composed with batching,
//     the row-at-a-time reference path (columnar off), and fault injection
//     with partial degradation;
//   * confidence calibration at a working threshold: pooled over many
//     seeds, the precision of the confident rows against the complete-data
//     ground truth (the clean twin re-materialized with R_m = 0) is at
//     least the threshold, rows that consumed an estimate carry a
//     confidence in [thresh, 1), and exact rows carry exactly 1;
//   * --jobs invariance: the bench-harness trial loop produces bitwise
//     identical per-trial IM digests at every thread count;
//   * executing IM without an oracle is a hard ImputeError — the
//     estimators live a layer above core and cannot be conjured there.
//
// The --impute spec grammar itself is fuzzed in test_parser_fuzz.cpp.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "isomer/analytic/impute.hpp"
#include "isomer/common/error.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/fault/fault_plan.hpp"
#include "isomer/workload/synth.hpp"

#include "harness.hpp"
#include "report_digest.hpp"

namespace isomer {
namespace {

using testing::report_digest_line;

ParamConfig small_config(std::size_t n_db, double miss_rate) {
  ParamConfig config;
  config.n_db = n_db;
  config.n_objects = {20, 40};  // scaled down; structure unchanged
  config.forced_missing_rate = miss_rate;
  return config;
}

/// The clean twin of a drawn sample: R_m forced to zero everywhere. The
/// injection draws happen after the whole entity universe is drawn, so the
/// twin materializes the identical entities, LOids and GOids — only the
/// value nulls differ (see bench/bench_impute.cpp).
SampleParams clean_twin(SampleParams sample) {
  for (auto& cls : sample.classes)
    for (auto& db : cls.dbs) db.extra_missing = 0;
  return sample;
}

// ---- thresh = 1.0 bitwise identity -----------------------------------

class ImThresholdOneIdentity : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(ImThresholdOneIdentity, ImIsBitwiseBlUnderEveryComposition) {
  Rng rng(GetParam());
  const std::size_t n_db = 2 + static_cast<std::size_t>(rng.uniform_int(0, 3));
  const double miss = rng.uniform_real(0.05, 0.35);
  const SampleParams sample = draw_sample(small_config(n_db, miss), rng);
  const SynthFederation synth = materialize_sample(sample);
  const ImputeModel model = ImputeModel::build(*synth.federation);

  // A deterministic outage plus message drops: at thresh=1.0 the filter
  // strips nothing, so the message sequence — and with it the per-attempt
  // fault RNG replay — is identical and even the faulted run must match.
  fault::FaultPlan plan;
  plan.seed = derive_stream(0x13B1'7F00ULL, GetParam());
  if (rng.bernoulli(0.4))
    plan.outages.push_back(
        fault::Outage{DbId{static_cast<std::uint16_t>(2)}, 0, fault::kForever});
  plan.drop_probability = 0.05;

  struct Variant {
    const char* label;
    bool columnar;
    bool batch;
    bool faults;
  };
  const Variant variants[] = {
      {"plain", true, false, false},
      {"row-at-a-time", false, false, false},
      {"batched", true, true, false},
      {"faulted", true, false, true},
      {"all-composed", false, true, true},
  };
  for (const Variant& v : variants) {
    StrategyOptions exec;
    exec.columnar = v.columnar;
    exec.batch.enabled = v.batch;
    if (v.faults) {
      exec.faults = &plan;
      exec.retry.max_retries = 8;
      exec.degrade = fault::DegradeMode::Partial;
    }
    const StrategyReport bl =
        execute_strategy(StrategyKind::BL, *synth.federation, synth.query,
                         exec);
    exec.impute = &model;
    exec.impute_threshold = 1.0;
    const StrategyReport im =
        execute_strategy(StrategyKind::IM, *synth.federation, synth.query,
                         exec);
    EXPECT_EQ(report_digest_line(v.label, im), report_digest_line(v.label, bl))
        << "seed " << GetParam();
    EXPECT_EQ(im.imputed_atoms, 0u) << v.label << " seed " << GetParam();
    for (const ResultRow& row : im.result.rows)
      EXPECT_EQ(row.confidence, 1.0)
          << v.label << " row " << row.entity.value() << " seed "
          << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImThresholdOneIdentity,
                         ::testing::Range<std::uint64_t>(1, 201));

// ---- confidence calibration ------------------------------------------

TEST(ImCalibration, ConfidentRowPrecisionReachesTheThreshold) {
  // Pooled over 40 seeds at R_m = 0.3 and the documented working threshold
  // (see bench_impute): among certain rows whose certification consumed an
  // estimate, the fraction actually in the complete-data answer is at least
  // the threshold, and the per-row confidence bounds hold exactly.
  constexpr double kThreshold = 0.5;
  std::uint64_t imputed = 0, imputed_correct = 0, imputed_atoms = 0;
  // Populations large enough for informative histograms (the 20-40-object
  // identity federations are deliberately starved; a calibration claim
  // needs the estimators to actually see a distribution).
  ParamConfig config = small_config(3, 0.30);
  config.n_objects = {150, 300};
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(derive_stream(0xCA11'B8A7ULL, seed));
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    const SynthFederation clean = materialize_sample(clean_twin(sample));
    std::set<std::uint64_t> truth;
    const QueryResult complete =
        reference_answer(*clean.federation, clean.query);
    for (const ResultRow& row : complete.rows)
      if (row.status == ResultStatus::Certain)
        truth.insert(row.entity.value());
    const ImputeModel model = ImputeModel::build(*synth.federation);

    StrategyOptions exec;
    exec.impute = &model;
    exec.impute_threshold = kThreshold;
    const StrategyReport report = execute_strategy(
        StrategyKind::IM, *synth.federation, synth.query, exec);
    imputed_atoms += report.imputed_atoms;
    for (const ResultRow& row : report.result.rows) {
      if (row.status != ResultStatus::Certain) continue;
      if (row.confidence >= 1.0) {
        EXPECT_EQ(row.confidence, 1.0);  // exact rows are exactly exact
        continue;
      }
      // An upgraded row's confidence is a product of cleared estimates,
      // each at or above the threshold — but the *row* commits only when
      // its whole condition decides, so the product itself must clear too.
      EXPECT_GE(row.confidence, kThreshold)
          << "seed " << seed << " row " << row.entity.value();
      ++imputed;
      if (truth.count(row.entity.value()) > 0) ++imputed_correct;
    }
  }
  ASSERT_GT(imputed_atoms, 0u) << "the model never cleared a check";
  ASSERT_GT(imputed, 0u) << "no row ever consumed an estimate";
  EXPECT_GE(static_cast<double>(imputed_correct),
            kThreshold * static_cast<double>(imputed))
      << "pooled precision " << imputed_correct << "/" << imputed
      << " fell below the confidence threshold";
}

// ---- --jobs invariance -----------------------------------------------

TEST(ImJobsDeterminism, TrialDigestsIdenticalAcrossJobCounts) {
  // The IM trial body — sample, model build, execution — through the bench
  // harness's parallel runner: trial i always draws from the stream
  // derive_stream(seed, i) and the model build is deterministic in the
  // federation contents, so every --jobs value must reproduce the same
  // per-trial report digests bitwise.
  constexpr int kSamples = 6;
  const auto run = [&](int jobs) {
    std::vector<std::string> digests(kSamples);
    bench::for_each_trial(kSamples, /*seed=*/77, jobs,
                          [&](std::size_t s, Rng& rng) {
      const SampleParams sample = draw_sample(small_config(3, 0.25), rng);
      const SynthFederation synth = materialize_sample(sample);
      const ImputeModel model = ImputeModel::build(*synth.federation);
      StrategyOptions exec;
      exec.impute = &model;
      exec.impute_threshold = 0.5;
      const StrategyReport report = execute_strategy(
          StrategyKind::IM, *synth.federation, synth.query, exec);
      digests[s] =
          report_digest_line("t" + std::to_string(s), report) +
          " imputed=" + std::to_string(report.imputed_atoms) +
          " declined=" + std::to_string(report.impute_declined);
    });
    return digests;
  };
  const std::vector<std::string> serial = run(1);
  for (const int jobs : {2, 4})
    EXPECT_EQ(run(jobs), serial) << "jobs=" << jobs;
}

// ---- error surface ----------------------------------------------------

TEST(ImErrors, ExecutingWithoutAnOracleThrows) {
  Rng rng(0x1111ULL);
  const SampleParams sample = draw_sample(small_config(3, 0.15), rng);
  const SynthFederation synth = materialize_sample(sample);
  StrategyOptions exec;  // impute oracle left null
  EXPECT_THROW((void)execute_strategy(StrategyKind::IM, *synth.federation,
                                      synth.query, exec),
               ImputeError);
}

}  // namespace
}  // namespace isomer
