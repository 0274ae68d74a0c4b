// Residual identity: the residual conditions the global site builds in one
// pass are structurally identical to the long way round — build the whole
// unsimplified condition tree (Pool per predicate, AND/OR in the query's
// shape), substitute every pooled check verdict, then simplify()
// (bench/residual_reference.hpp, the path bench_micro also times).
//
//  * certify(): the inputs a localized execution certifies are rebuilt one
//    public phase function at a time — run_local_query, the unsolved items,
//    plan_checks, run_checks following every follow-up plan — with the
//    variations the execution modes make to them: PL's eager phase O,
//    unreachable databases (their homes never run, checks sent to them
//    never answer) and IM's dispatch filter over the population model's
//    ImputeOracle::decide. For EVERY entity that shipped a row — certain,
//    maybe and eliminated alike — EntityPool's residual must equal the
//    reference, and certify() over the same inputs must carry it on every
//    maybe row.
//  * execute_strategy(): each mode's maybe rows must carry the reference
//    residual of their entity. Modes: plain BL and PL, batched shipping,
//    partial degradation under outages, a warm certificate cache, IM at
//    thresh=0.5 and thresh=1.0, and a disjunctive query shape.
//  * evaluate_global(): per object, each predicate's leaf or constant is
//    read off a single-predicate evaluation; combine_conditions() over them
//    must equal the unsimplified tree simplify()d, and every maybe row must
//    carry it.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "isomer/analytic/impute.hpp"
#include "isomer/core/cert_cache.hpp"
#include "isomer/core/certify.hpp"
#include "isomer/core/checks.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/fault/fault_plan.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/schema/translate.hpp"
#include "isomer/workload/synth.hpp"
#include "residual_reference.hpp"

namespace isomer {
namespace {

using bench::raw_combine;
using bench::reference_residual;

ParamConfig small_config(Rng& rng) {
  ParamConfig config;
  config.n_db = 2 + static_cast<std::size_t>(rng.uniform_int(0, 2));
  config.n_objects = {20, 40};  // scaled down; structure unchanged
  return config;
}

/// How a localized execution's certify() inputs differ from plain BL's.
struct ReplayMode {
  bool eager = false;        ///< PL: phase O over every root object first
  std::set<DbId> dead;       ///< unreachable databases
  const ImputeOracle* oracle = nullptr;  ///< IM's dispatch filter
  double threshold = 1.0;
};

/// What a localized execution hands to certify().
struct Replay {
  std::vector<LocalExecution> locals;
  std::vector<CheckVerdict> verdicts;
  ImputedConfidences imputed;
};

/// IM's first-round dispatch filter (core/im.cpp) over the public oracle:
/// a task or unadvised atom whose estimate is upgradable and clears the
/// threshold is stripped, its estimate riding as a local verdict (an
/// unadvised atom only when the estimate decides). Decided estimates keep
/// their least confidence per (item, predicate).
void impute_filter(const Federation& federation, const GlobalQuery& query,
                   DbId home, const ReplayMode& mode, CheckPlan& plan,
                   ImputedConfidences& imputed) {
  std::map<std::tuple<GOid, std::size_t, std::size_t>, bool> cleared;
  const auto impute = [&](GOid item, std::size_t predicate,
                          const ImputeOracle::Decision& decision) {
    plan.local_verdicts.push_back(
        CheckVerdict{item, predicate, decision.verdict});
    if (is_unknown(decision.verdict)) return;
    const auto [conf, inserted] =
        imputed.try_emplace(std::pair{item, predicate}, decision.confidence);
    if (!inserted) conf->second = std::min(conf->second, decision.confidence);
  };
  for (auto& [target, tasks] : plan.by_target)
    std::erase_if(tasks, [&](const CheckTask& task) {
      if (task.origin != task.item) return false;
      const auto key = std::tuple{task.item, task.predicate, task.step};
      auto it = cleared.find(key);
      if (it == cleared.end()) {
        const ImputeOracle::Decision decision = mode.oracle->decide(
            federation, query, task.item, task.predicate, task.step, home,
            false);
        it = cleared
                 .emplace(key, decision.upgradable &&
                                   decision.confidence >= mode.threshold)
                 .first;
        if (it->second) impute(task.origin, task.predicate, decision);
      }
      return it->second;
    });
  for (const UnsolvedItem& atom : plan.unadvised) {
    if (atom.origin != atom.item) continue;
    const auto key = std::tuple{atom.item, atom.predicate, atom.step};
    if (cleared.contains(key)) continue;
    const ImputeOracle::Decision decision = mode.oracle->decide(
        federation, query, atom.item, atom.predicate, atom.step, home, false);
    const bool impute_it = decision.upgradable &&
                           !is_unknown(decision.verdict) &&
                           decision.confidence >= mode.threshold;
    cleared.emplace(key, impute_it);
    if (impute_it) impute(atom.origin, atom.predicate, decision);
  }
}

/// A localized execution's certify() inputs, one public call at a time.
Replay replay(const Federation& federation, const GlobalQuery& query,
              const ReplayMode& mode) {
  Replay out;
  std::vector<CheckPlan> wave;
  const auto dispatch = [&](DbId home, CheckPlan plan) {
    if (mode.oracle != nullptr)
      impute_filter(federation, query, home, mode, plan, out.imputed);
    out.verdicts.insert(out.verdicts.end(), plan.local_verdicts.begin(),
                        plan.local_verdicts.end());
    wave.push_back(std::move(plan));
  };
  for (const DbId home : local_query_sites(federation.schema(), query)) {
    if (mode.dead.contains(home)) continue;  // never receives the query
    std::vector<UnsolvedItem> eager;
    if (mode.eager) {
      eager = unsolved_items_of_all_roots(federation, query, home, nullptr);
      dispatch(home, plan_checks(federation, query, home, eager));
    }
    LocalExecution exec = run_local_query(federation, query, home);
    std::vector<UnsolvedItem> items = unsolved_items_of_rows(exec.rows);
    if (!eager.empty()) {
      std::vector<UnsolvedItem> wave2;
      std::set_difference(items.begin(), items.end(), eager.begin(),
                          eager.end(), std::back_inserter(wave2));
      items = std::move(wave2);
    }
    dispatch(home, plan_checks(federation, query, home, items));
    out.locals.push_back(std::move(exec));
  }
  while (!wave.empty()) {
    std::vector<CheckPlan> next;
    for (const CheckPlan& plan : wave)
      for (const auto& [target, tasks] : plan.by_target) {
        // An unreachable target never answers, nor plans a follow-up.
        if (tasks.empty() || mode.dead.contains(target)) continue;
        CheckOutcome outcome = run_checks(federation, query, target, tasks);
        out.verdicts.insert(out.verdicts.end(), outcome.verdicts.begin(),
                            outcome.verdicts.end());
        out.verdicts.insert(out.verdicts.end(),
                            outcome.follow_up.local_verdicts.begin(),
                            outcome.follow_up.local_verdicts.end());
        next.push_back(std::move(outcome.follow_up));
      }
    wave = std::move(next);
  }
  return out;
}

/// A replayed certification's outcome.
struct Certified {
  std::map<GOid, Condition> reference;  ///< every entity's reference residual
  std::set<GOid> maybe;                 ///< the entities certify() left maybe
};

/// Checks the replayed certification entity by entity.
Certified check_certification(const Federation& federation,
                              const GlobalQuery& query, const Replay& in,
                              const std::string& label) {
  std::vector<const LocalExecution*> ordered;
  for (const LocalExecution& local : in.locals) ordered.push_back(&local);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const auto* a, const auto* b) { return a->db < b->db; });
  std::map<GOid, std::vector<const LocalRow*>> by_entity;
  for (const LocalExecution* local : ordered)
    for (const LocalRow& row : local->rows)
      by_entity[row.entity].push_back(&row);

  const VerdictIndex verdicts(in.verdicts);
  const ImputedConfidences* imputed =
      in.imputed.empty() ? nullptr : &in.imputed;
  EntityPool pool(query, verdicts, nullptr, imputed);
  Certified out;
  for (const auto& [entity, rows] : by_entity) {
    const Truth overall = pool.pool(rows);
    const Condition expected = reference_residual(query, rows, verdicts);
    EXPECT_EQ(pool.residual(), expected)
        << label << ": entity g" << entity.value() << " one-pass "
        << pool.residual() << " vs reference " << expected;
    EXPECT_EQ(expected.truth(), overall) << label;
    out.reference.emplace(entity, expected);
  }

  const QueryResult result = certify(federation, query, in.locals,
                                     in.verdicts, nullptr, nullptr, nullptr,
                                     imputed);
  for (const ResultRow& row : result.rows) {
    if (row.status != ResultStatus::Maybe) continue;
    EXPECT_EQ(row.condition, out.reference.at(row.entity))
        << label << ": certified maybe row g" << row.entity.value();
    out.maybe.insert(row.entity);
  }
  return out;
}

/// Runs `kind` and checks that each maybe row carries its entity's
/// reference residual. When `exact`, the execution's maybe rows must also
/// be exactly the replayed certification's; otherwise IM's discharge may
/// have decided some, and a degraded execution adds synthesized rows for
/// entities no live home reported.
void check_execution(StrategyKind kind, const Federation& federation,
                     const GlobalQuery& query, const StrategyOptions& options,
                     const Certified& certified, bool exact,
                     const std::string& label) {
  const QueryResult result =
      execute_strategy(kind, federation, query, options).result;
  std::set<GOid> maybe;
  for (const ResultRow& row : result.rows) {
    if (row.status != ResultStatus::Maybe) continue;
    maybe.insert(row.entity);
    const auto it = certified.reference.find(row.entity);
    if (it == certified.reference.end()) {
      EXPECT_NE(options.faults, nullptr)
          << label << ": maybe row g" << row.entity.value()
          << " of an entity no home reported";
      continue;
    }
    EXPECT_EQ(row.condition, it->second)
        << label << ": executed maybe row g" << row.entity.value();
  }
  if (exact) EXPECT_EQ(maybe, certified.maybe) << label;
}

/// Per-object residual identity of evaluate_global; returns the objects
/// compared.
std::size_t check_evaluate_global(const Federation& federation,
                                  const GlobalQuery& query,
                                  const std::string& label) {
  const GlobalSchema& schema = federation.schema();
  const MaterializedView view =
      materialize(federation, classes_involved(schema, query));
  const std::size_t n_preds = query.predicates.size();
  // Each predicate's per-object condition, read off a single-predicate
  // evaluation: absent = False, certain = True, maybe = its leaf.
  std::vector<std::map<GOid, Condition>> per_object(n_preds);
  for (std::size_t p = 0; p < n_preds; ++p) {
    GlobalQuery single;
    single.range_class = query.range_class;
    single.predicates = {query.predicates[p]};
    for (const ResultRow& row :
         evaluate_global(view, schema, single).rows) {
      if (row.status == ResultStatus::Certain) {
        per_object[p].emplace(row.entity, Condition::constant(Truth::True));
        continue;
      }
      EXPECT_EQ(row.condition.kind(), Condition::Kind::Leaf) << label;
      CondAtom atom = row.condition.atom();
      atom.predicate = p;
      per_object[p].emplace(row.entity, Condition::leaf(atom));
    }
  }

  std::map<GOid, Condition> reference;
  const auto& objects = view.extent(query.range_class).objects();
  for (const MaterializedObject& obj : objects) {
    std::vector<Condition> per_pred;
    for (std::size_t p = 0; p < n_preds; ++p) {
      const auto it = per_object[p].find(obj.id);
      per_pred.push_back(it == per_object[p].end()
                             ? Condition::constant(Truth::False)
                             : it->second);
    }
    const Condition expected = raw_combine(query, per_pred).simplify();
    EXPECT_EQ(combine_conditions(query, std::move(per_pred)), expected)
        << label << ": object g" << obj.id.value();
    reference.emplace(obj.id, expected);
  }
  for (const ResultRow& row : evaluate_global(view, schema, query).rows) {
    if (row.status != ResultStatus::Maybe) continue;
    EXPECT_EQ(row.condition, reference.at(row.entity))
        << label << ": evaluated maybe row g" << row.entity.value();
  }
  return objects.size();
}

class ResidualIdentity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ResidualIdentity, OnePassMatchesBuildSubstituteSimplify) {
  const std::uint64_t seed = GetParam();
  const std::string at = " seed " + std::to_string(seed);
  Rng rng(derive_stream(0x2E51'D0A1ULL, seed));
  const SampleParams sample = draw_sample(small_config(rng), rng);
  const SynthFederation synth = materialize_sample(sample);
  const Federation& federation = *synth.federation;
  const GlobalQuery& query = synth.query;

  // The disjunctive shape: each predicate loose or in one of two groups.
  GlobalQuery disjunctive = query;
  {
    std::vector<std::vector<std::size_t>> groups(2);
    for (std::size_t p = 0; p < disjunctive.predicates.size(); ++p) {
      const std::size_t pick = rng.index(3);
      if (pick < 2) groups[pick].push_back(p);
    }
    for (auto& group : groups)
      if (!group.empty()) disjunctive.disjuncts.push_back(group);
  }

  fault::FaultPlan plan;
  plan.seed = derive_stream(0x2E51'FA17ULL, seed);
  ReplayMode degraded;
  for (const DbId db : federation.db_ids())
    if (rng.bernoulli(0.3)) {
      plan.outages.push_back(fault::Outage{db, 0, fault::kForever});
      degraded.dead.insert(db);
    }
  const ImputeModel model = ImputeModel::build(federation);

  std::size_t entities = 0;
  const auto certified = [&](const GlobalQuery& q, const ReplayMode& mode,
                             const std::string& label) {
    Certified out = check_certification(
        federation, q, replay(federation, q, mode), label + at);
    entities += out.reference.size();
    return out;
  };
  const auto run = [&](const std::string& label, StrategyKind kind,
                       const GlobalQuery& q, const StrategyOptions& options,
                       const Certified& replayed, bool exact = true) {
    check_execution(kind, federation, q, options, replayed, exact,
                    label + at);
  };

  const Certified plain = certified(query, {}, "BL replay");
  run("BL", StrategyKind::BL, query, {}, plain);
  {
    StrategyOptions options;
    options.batch.enabled = true;
    options.batch.max_records = rng.index(4);
    run("BL batch", StrategyKind::BL, query, options, plain);
  }
  {
    CertCache cache;
    StrategyOptions options;
    options.cert_cache = &cache;
    (void)execute_strategy(StrategyKind::BL, federation, query,
                           options);  // cold: fills the cache
    run("BL certcache warm", StrategyKind::BL, query, options, plain);
  }
  run("PL", StrategyKind::PL, query, {},
      certified(query, ReplayMode{.eager = true}, "PL replay"));
  run("BL disjunctive", StrategyKind::BL, disjunctive, {},
      certified(disjunctive, {}, "BL disjunctive replay"));
  {
    StrategyOptions options;
    options.faults = &plan;
    options.retry.max_retries = 8;
    options.degrade = fault::DegradeMode::Partial;
    run("BL faults", StrategyKind::BL, query, options,
        certified(query, degraded, "BL faults replay"), false);
    ReplayMode eager = degraded;
    eager.eager = true;
    run("PL faults", StrategyKind::PL, query, options,
        certified(query, eager, "PL faults replay"), false);
  }
  for (const double threshold : {0.5, 1.0}) {
    const std::string label = "IM thresh=" + std::to_string(threshold);
    StrategyOptions options;
    options.impute = &model;
    options.impute_threshold = threshold;
    ReplayMode mode;
    mode.oracle = &model;
    mode.threshold = threshold;
    // IM's discharge leaves a maybe row exactly as certified unless the
    // estimates decide it, so every maybe row left carries the reference.
    run(label, StrategyKind::IM, query, options,
        certified(query, mode, label + " replay"), threshold == 1.0);
  }
  EXPECT_GT(entities, 0u);

  EXPECT_GT(check_evaluate_global(federation, query, "CA" + at), 0u);
  EXPECT_GT(
      check_evaluate_global(federation, disjunctive, "CA disjunctive" + at),
      0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResidualIdentity,
                         ::testing::Range<std::uint64_t>(1, 201));

}  // namespace
}  // namespace isomer
