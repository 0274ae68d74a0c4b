// Trace export: Chrome trace-event JSON and the ASCII Gantt chart.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>

#include "isomer/analytic/impute.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/obs/trace_export.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

using obs::TraceSession;
using obs::gantt_glyph;
using obs::to_chrome_json;
using obs::to_gantt;

void record(TraceSession& session, std::string site, std::string step,
            Phase phase, SimTime start, SimTime end) {
  obs::PhaseSpan span;
  span.site = std::move(site);
  span.step = std::move(step);
  span.phase = phase;
  span.start_ns = start;
  span.end_ns = end;
  session.record(std::move(span));
}

TraceSession sample_trace() {
  TraceSession trace;
  record(trace, "DB1", "eval", Phase::P, 0, 10);
  record(trace, "DB1->global", "rows", Phase::Transfer, 10, 14);
  record(trace, "global", "certify \"q\"", Phase::I, 14, 20);
  return trace;
}

StrategyOptions traced() {
  StrategyOptions options;
  options.record_trace = true;
  return options;
}

TEST(TraceExport, ChromeJsonShape) {
  const std::string json = to_chrome_json(sample_trace());
  EXPECT_EQ(json.front(), '[');
  // Thread-name metadata for every site lane.
  EXPECT_NE(json.find(R"("name":"thread_name")"), std::string::npos);
  EXPECT_NE(json.find(R"("name":"eval")"), std::string::npos);
  // Complete events with microsecond timestamps: 14 us start, 6 us dur.
  EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
  EXPECT_NE(json.find(R"("ts":0.014)"), std::string::npos);
  EXPECT_NE(json.find(R"("dur":0.006)"), std::string::npos);
  // Quotes in step names are escaped.
  EXPECT_NE(json.find(R"(certify \"q\")"), std::string::npos);
}

TEST(TraceExport, ChromeJsonIsWellBracketed) {
  const std::string json = to_chrome_json(sample_trace());
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

TEST(TraceExport, GanttRowsPerSite) {
  const std::string chart = to_gantt(sample_trace(), 40);
  // One row per site, phases rendered with their glyphs.
  EXPECT_NE(chart.find("DB1"), std::string::npos);
  EXPECT_NE(chart.find("global"), std::string::npos);
  EXPECT_NE(chart.find('P'), std::string::npos);
  EXPECT_NE(chart.find('I'), std::string::npos);
  EXPECT_NE(chart.find('-'), std::string::npos);
}

TEST(TraceExport, GanttEmptyTrace) {
  EXPECT_EQ(to_gantt(TraceSession{}), "(empty trace)\n");
}

TEST(TraceExport, EveryPhaseHasItsOwnGlyph) {
  std::set<char> seen;
  for (int p = 0; p <= static_cast<int>(Phase::Impute); ++p) {
    const auto phase = static_cast<Phase>(p);
    const char glyph = gantt_glyph(phase);
    EXPECT_NE(glyph, '?') << to_string(phase);
    EXPECT_TRUE(seen.insert(glyph).second)
        << to_string(phase) << " reuses '" << glyph << "'";
  }
}

TEST(TraceExport, RealStrategyTraceExports) {
  const paper::UniversityExample example = paper::make_university();
  for (const StrategyKind kind : kPaperStrategies) {
    const StrategyReport report =
        execute_strategy(kind, *example.federation, paper::q1(), traced());
    const std::string json = to_chrome_json(report.trace);
    EXPECT_GT(json.size(), 100u) << to_string(kind);
    const std::string chart = to_gantt(report.trace);
    EXPECT_NE(chart.find("global"), std::string::npos) << to_string(kind);
  }

  // IM below thresh=1.0 answers check atoms from the population model; its
  // Phase::Impute markers render with their own glyph.
  ParamConfig config;
  config.n_db = 3;
  config.n_objects = {150, 300};
  config.forced_missing_rate = 0.3;
  Rng rng(derive_stream(0xCA11'B8A7ULL, 1));
  const SynthFederation synth = materialize_sample(draw_sample(config, rng));
  const ImputeModel model = ImputeModel::build(*synth.federation);
  StrategyOptions options = traced();
  options.impute = &model;
  options.impute_threshold = 0.5;
  const StrategyReport im = execute_strategy(
      StrategyKind::IM, *synth.federation, synth.query, options);
  ASSERT_GT(im.imputed_atoms, 0u);
  EXPECT_GT(to_chrome_json(im.trace).size(), 100u);
  EXPECT_NE(to_gantt(im.trace).find(gantt_glyph(Phase::Impute)),
            std::string::npos)
      << to_gantt(im.trace);
}

TEST(TraceExport, GanttOrderReflectsPhaseOrder) {
  // In a BL trace the P glyphs at component sites precede the global I.
  const paper::UniversityExample example = paper::make_university();
  const StrategyReport report = execute_strategy(
      StrategyKind::BL, *example.federation, paper::q1(), traced());
  const std::string chart = to_gantt(report.trace, 60);
  const std::size_t first_p = chart.find('P');
  ASSERT_NE(first_p, std::string::npos);
  // The global row's I block sits to the right of the first P column.
  std::istringstream in(chart);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("global ", 0) == 0) {  // the site row, not a transfer lane
      const std::size_t i_pos = line.find('I');
      ASSERT_NE(i_pos, std::string::npos);
      break;
    }
  }
}

}  // namespace
}  // namespace isomer
