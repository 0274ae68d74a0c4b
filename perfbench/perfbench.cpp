// perfbench — the repository benchmark driver.
//
// One process runs one named workload on one host thread for a fixed wall
// time, checks every answer, and prints its metrics by name with their units;
// the last stdout line is a JSON summary. See README.md in this directory for
// the workloads, the metric definitions and why each workload exists.
//
//   perfbench --workload paper_sweep|large_extent|serve_repeat --seed N
//             --seconds S --trace 0|1 [--spans FILE] [--smoke 0|1]
//             [--corrupt-answer query|replay|fingerprint]
//
// Every workload is a fixed cycle of units (a paper trial, a query variant of
// a resident federation, a served federation) whose shapes come from a fixed
// stream and whose data come from the seed (see draw_shape). A run repeats
// whole cycles while another one fits in --seconds, and runs at least two.
// The simulated figures and work counts come from the first cycle, so they
// repeat exactly for a seed; every later cycle must reproduce the first one's
// fingerprints bitwise (the determinism self-check). Host figures are medians
// and percentiles over every execution of the run.
//
// --trace 1 is the separate traced run: each unit executes once plain and
// once inside spans (name, start, end, parent, query id) recorded from this
// file around the library's public calls, and every BL and CA query is also
// replayed layer by layer through the per-phase functions. Spans stay in
// memory and are written to --spans at exit.
//
// --smoke and --corrupt-answer exist for the benchmark's own test: --smoke 1
// runs two cycles of at most two units (one federation on large_extent), and
// --corrupt-answer corrupts the first checked answer of the given class, or
// the first fingerprint a repeated unit reproduces, so the correctness gate
// or the determinism self-check must trip.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "isomer/analytic/impute.hpp"
#include "isomer/core/cert_cache.hpp"
#include "isomer/core/certify.hpp"
#include "isomer/core/checks.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/schema/translate.hpp"
#include "isomer/serve/planner.hpp"
#include "isomer/serve/server.hpp"
#include "isomer/workload/arrivals.hpp"
#include "isomer/workload/params.hpp"
#include "isomer/workload/synth.hpp"

namespace {

using namespace isomer;
using Clock = std::chrono::steady_clock;

// ---- workload constants -------------------------------------------------
// Sized so that a 36 s untraced run holds two or three cycles of paper_sweep,
// two of large_extent and three or four of serve_repeat on a 4-core Xeon at
// 2.0 GHz (Release, one thread); see README.md.

// paper_sweep: trials per cycle. Chain length N_c is stratified over the
// cycle (trial i draws N_c = 1 + i mod 4, the default range), which keeps
// the drawn mix — and so every figure — balanced from seed to seed.
constexpr std::size_t kPaperTrials = 9;

// large_extent: resident federations, their N_c, the per-constituent extent
// size, and the query variants derived per federation.
constexpr int kLargeChain[] = {2, 1, 2};
constexpr std::pair<int, int> kLargeObjects{18000, 21000};
constexpr std::size_t kLargeVariants = 4;

// serve_repeat: federations per cycle (the bench_serve shape at its default
// 0.1 scale), pool size, clients and submissions per serve() run. The p95
// latency is the tail of a closed-loop queue whose completion order moves
// with the data; 48 submissions per run keep its seed-to-seed spread near
// 0.035 (16 gave 0.05-0.065).
constexpr std::size_t kServeFederations = 16;
constexpr std::size_t kServePool = 8;
constexpr std::size_t kServeClients = 8;
constexpr std::size_t kServeSubmissions = 48;

// Stream the per-unit Table-2 parameter sets are drawn from (see draw_shape),
// and the offsets of its per-unit query-pool and arrival sub-streams.
constexpr std::uint64_t kShapeStream = 0x1996'0602'1cdc'5a17ULL;
constexpr std::uint64_t kPoolStream = 1000;
constexpr std::uint64_t kArrivalStream = 2000;

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ---- spans --------------------------------------------------------------

/// One recorded call into a library layer.
struct Span {
  const char* name = "";
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  std::uint64_t query = 0;
};

/// In-memory span recorder; a disabled recorder records nothing.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  /// Runs `fn` inside a span and returns its duration in ms (measured even
  /// when disabled: the caller's timing and the span share one clock read).
  template <typename Fn>
  double time(const char* name, std::uint64_t query, Fn&& fn) {
    const int parent = current_;
    int id = -1;
    if (enabled_) {
      id = static_cast<int>(spans_.size());
      spans_.push_back(Span{name, 0, 0, parent, query});
      current_ = id;
    }
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    if (enabled_) {
      spans_[static_cast<std::size_t>(id)].start_ms = ms_between(epoch_, start);
      spans_[static_cast<std::size_t>(id)].end_ms = ms_between(epoch_, end);
      current_ = parent;
    }
    return ms_between(start, end);
  }

  void write(const std::string& path) const {
    if (path.empty()) return;
    std::ofstream out(path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ms\":" << s.start_ms << ",\"end_ms\":" << s.end_ms
          << ",\"parent\":" << s.parent << ",\"query\":" << s.query << "}\n";
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

 private:
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  int current_ = -1;
};

// ---- statistics ---------------------------------------------------------

/// Exact nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0;
  double sum = 0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// FNV-1a over a byte string.
std::uint64_t fnv1a(std::string_view data) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

/// Hash of an answer: every row's entity, status, tag and target values.
std::uint64_t answer_hash(const QueryResult& result) {
  std::ostringstream os;
  for (const ResultRow& row : result.rows) {
    os << row.entity.value() << '|' << to_string(row.status) << '|'
       << row.unavailable;
    for (const Value& value : row.targets) os << '|' << value;
    os << ';';
  }
  return fnv1a(os.str());
}

/// Every deterministic figure of one execution: simulated costs, wire,
/// logical work and the answer. Two executions of one query must agree.
std::uint64_t report_fingerprint(const StrategyReport& r) {
  std::ostringstream os;
  os << r.response_ns << ' ' << r.total_ns << ' ' << r.cpu_ns << ' '
     << r.disk_ns << ' ' << r.net_ns << ' ' << r.bytes_transferred << ' '
     << r.messages << ' ' << r.work.objects_scanned << ' '
     << r.work.objects_fetched << ' ' << r.work.comparisons << ' '
     << r.work.table_probes << ' ' << r.work.prim_slots << ' '
     << r.work.ref_slots << ' ' << r.cert_hits << ' ' << r.cert_misses << ' '
     << answer_hash(r.result);
  return fnv1a(os.str());
}

std::uint64_t serve_fingerprint(const serve::ServeReport& r) {
  std::ostringstream os;
  os << r.makespan << ' ' << r.total_busy_ns << ' ' << r.bytes_transferred
     << ' ' << r.messages << ' ' << r.completed << ' ' << r.rejected << ' '
     << r.max_queue_depth << ' ' << r.max_inflight << ' ' << r.cert_hits
     << ' ' << r.cert_misses;
  for (const serve::ServeOutcome& o : r.outcomes)
    os << ';' << o.arrival << ',' << o.start << ',' << o.completion << ','
       << o.pool_index << ',' << o.wire_bytes << ',' << o.messages << ','
       << answer_hash(o.result);
  return fnv1a(os.str());
}

// ---- the run ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30;
  bool trace = false;
  std::string spans_path;
  std::string corrupt;  ///< "", "query", "replay" or "fingerprint"
  bool smoke = false;   ///< two cycles of at most two units (self-test)
};

/// Everything one run measures. Host samples cover every execution; the
/// simulated figures, work counts and failure tallies the first cycle only.
struct Run {
  explicit Run(const Options& o)
      : options(o), start(Clock::now()), tracer(o.trace, start) {}

  const Options& options;
  Clock::time_point start;
  Tracer tracer;

  // Host time.
  std::vector<double> setup_ms;
  std::vector<double> query_ms;  ///< per query, or per serve() run
  double timed_ms = 0;           ///< Σ host time of the timed executions
  std::uint64_t timed_queries = 0;

  // Simulated figures over the first cycle.
  std::vector<double> sim_response_ms;
  std::vector<double> sim_total_ms;
  std::vector<double> sim_wire_kb;
  std::uint64_t sim_messages = 0;
  AccessMeter work;
  std::uint64_t work_queries = 0;

  // Correctness.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t determinism_mismatches = 0;
  bool corrupted = false;
  std::map<std::pair<std::size_t, std::size_t>, std::uint64_t> fingerprints;

  // Traced run: per-layer totals.
  struct Layer {
    double ms = 0;
    std::uint64_t calls = 0;
  };
  std::map<std::string, Layer> layers;
  std::map<std::string, std::vector<double>> strategy_ms;
  double plain_ms = 0, traced_ms = 0;  ///< trace overhead pairs
  std::uint64_t local_considered = 0, local_rows = 0;
  std::uint64_t check_tasks = 0, check_rounds = 0;
  std::uint64_t verdicts = 0, verdicts_decided = 0;
  std::uint64_t certify_rows_in = 0, certify_entities = 0,
                certify_certain = 0;
  std::uint64_t bl_replays = 0, ca_replays = 0;
  std::uint64_t materialized_objects = 0;
  std::uint64_t impute_objects = 0;
  std::uint64_t federation_objects = 0;
  std::vector<double> residual_ms;
  std::uint64_t cert_hits = 0, cert_misses = 0;
  std::vector<double> serve_host_ms_per_sub;
  std::vector<double> queue_wait_ms;
  std::size_t max_inflight = 0, max_queue_depth = 0;

  std::uint64_t next_query_id = 1;
  std::size_t cycles = 0;

  [[nodiscard]] double elapsed_s() const {
    return ms_between(start, Clock::now()) / 1e3;
  }

  void add_layer(const std::string& name, double ms) {
    Layer& layer = layers[name];
    layer.ms += ms;
    ++layer.calls;
  }

  /// Counts one checked answer; `class_` is "query" or "replay".
  void check(const char* class_, QueryResult answer,
             const QueryResult& expected) {
    ++attempted;
    if (!corrupted && options.corrupt == class_) {
      corrupted = true;
      if (answer.rows.empty())
        answer.rows.push_back(ResultRow{});
      else
        answer.rows.front().status =
            answer.rows.front().status == ResultStatus::Certain
                ? ResultStatus::Maybe
                : ResultStatus::Certain;
    }
    if (answer != expected) ++failed;
  }

  void fail_exception(const std::exception& e) {
    ++attempted;
    ++failed;
    std::fprintf(stderr, "perfbench: query threw: %s\n", e.what());
  }

  /// Records the fingerprint of execution `slot` of unit `unit`; a repeated
  /// unit must reproduce it, and a mismatch counts as a failure.
  void fingerprint(std::size_t unit, std::size_t slot, std::uint64_t value) {
    const auto [it, inserted] =
        fingerprints.try_emplace(std::pair{unit, slot}, value);
    if (inserted) return;
    if (!corrupted && options.corrupt == "fingerprint") {
      corrupted = true;
      value ^= 1;
    }
    if (it->second == value) return;
    ++determinism_mismatches;
    ++failed;
  }

  void add_sim(const StrategyReport& report) {
    sim_response_ms.push_back(to_milliseconds(report.response_ns));
    sim_total_ms.push_back(to_milliseconds(report.total_ns));
    sim_wire_kb.push_back(static_cast<double>(report.bytes_transferred) /
                          1e3);
    sim_messages += report.messages;
    work += report.work;
    ++work_queries;
  }
};

/// Runs one strategy as a timed query: plain in the untraced run; in the
/// traced run once plain and once inside a span, alternating which goes
/// first, so the pair yields the tracing overhead.
StrategyReport timed_execute(Run& run, StrategyKind kind,
                             const Federation& federation,
                             const GlobalQuery& query,
                             const StrategyOptions& exec, std::uint64_t qid) {
  StrategyReport report;
  const auto plain = [&] {
    const Clock::time_point t0 = Clock::now();
    report = execute_strategy(kind, federation, query, exec);
    return ms_between(t0, Clock::now());
  };
  const auto traced = [&] {
    return run.tracer.time("core.execute_strategy", qid, [&] {
      report = execute_strategy(kind, federation, query, exec);
    });
  };
  double ms = 0;
  if (!run.options.trace) {
    ms = plain();
  } else {
    const bool plain_first = qid % 2 == 0;
    double plain_ms = plain_first ? plain() : 0;
    ms = traced();
    if (!plain_first) plain_ms = plain();
    run.plain_ms += plain_ms;
    run.traced_ms += ms;
    run.strategy_ms["core.strategy." + std::string(to_string(kind))]
        .push_back(ms);
  }
  run.query_ms.push_back(ms);
  run.timed_ms += ms;
  ++run.timed_queries;
  return report;
}

// ---- layer-by-layer replays (traced run) ---------------------------------

/// BL, one public call at a time: local query per home, unsolved items,
/// check planning, check rounds following every follow-up plan, certify.
QueryResult replay_bl(Run& run, const Federation& federation,
                      const GlobalQuery& query, std::uint64_t qid) {
  Tracer& tr = run.tracer;
  double layers_ms = 0;
  std::vector<LocalExecution> locals;
  std::vector<CheckVerdict> verdicts;
  std::vector<CheckPlan> wave;
  const auto timed = [&](const char* name, const std::string& layer,
                         auto&& fn) {
    const double ms = tr.time(name, qid, fn);
    run.add_layer(layer, ms);
    layers_ms += ms;
  };
  for (const DbId home : local_query_sites(federation.schema(), query)) {
    LocalExecution exec;
    timed("core.run_local_query", "core.local_exec",
          [&] { exec = run_local_query(federation, query, home); });
    run.local_considered += exec.considered;
    run.local_rows += exec.rows.size();
    std::vector<UnsolvedItem> items;
    CheckPlan plan;
    timed("core.unsolved_items_of_rows", "core.plan_checks",
          [&] { items = unsolved_items_of_rows(exec.rows); });
    timed("core.plan_checks", "core.plan_checks",
          [&] { plan = plan_checks(federation, query, home, items); });
    verdicts.insert(verdicts.end(), plan.local_verdicts.begin(),
                    plan.local_verdicts.end());
    wave.push_back(std::move(plan));
    locals.push_back(std::move(exec));
  }
  while (true) {
    std::vector<CheckPlan> next;
    std::uint64_t tasks_this_round = 0;
    for (const CheckPlan& plan : wave) {
      for (const auto& [target, tasks] : plan.by_target) {
        if (tasks.empty()) continue;
        tasks_this_round += tasks.size();
        CheckOutcome outcome;
        timed("core.run_checks", "core.run_checks", [&] {
          outcome = run_checks(federation, query, target, tasks);
        });
        for (const CheckVerdict& v : outcome.verdicts) {
          ++run.verdicts;
          if (v.truth != Truth::Unknown) ++run.verdicts_decided;
        }
        verdicts.insert(verdicts.end(), outcome.verdicts.begin(),
                        outcome.verdicts.end());
        verdicts.insert(verdicts.end(),
                        outcome.follow_up.local_verdicts.begin(),
                        outcome.follow_up.local_verdicts.end());
        next.push_back(std::move(outcome.follow_up));
      }
    }
    if (tasks_this_round == 0) break;
    run.check_tasks += tasks_this_round;
    ++run.check_rounds;
    wave = std::move(next);
  }
  for (const LocalExecution& local : locals)
    run.certify_rows_in += local.rows.size();
  QueryResult result;
  CertifyStats stats;
  timed("core.certify", "core.certify", [&] {
    result = certify(federation, query, locals, verdicts, nullptr, &stats);
  });
  run.certify_entities += stats.entities;
  run.certify_certain += stats.certain;
  ++run.bl_replays;
  const std::vector<double>& bl = run.strategy_ms["core.strategy.BL"];
  run.residual_ms.push_back(bl.back() - layers_ms);
  return result;
}

/// CA, one public call at a time: classes, materialize, evaluate.
QueryResult replay_ca(Run& run, const Federation& federation,
                      const GlobalQuery& query, std::uint64_t qid) {
  Tracer& tr = run.tracer;
  std::vector<std::string> classes;
  MaterializedView view;
  QueryResult result;
  double layers_ms = tr.time("federation.classes_involved", qid, [&] {
    classes = classes_involved(federation.schema(), query);
  });
  const double mat_ms = tr.time("federation.materialize", qid, [&] {
    view = materialize(federation, classes);
  });
  run.add_layer("federation.materialize", mat_ms);
  for (const std::string& cls : classes)
    run.materialized_objects += view.extent(cls).size();
  const double eval_ms = tr.time("query.evaluate_global", qid, [&] {
    result = evaluate_global(view, federation.schema(), query);
  });
  run.add_layer("query.evaluate_global", eval_ms);
  layers_ms += mat_ms + eval_ms;
  ++run.ca_replays;
  const std::vector<double>& ca = run.strategy_ms["core.strategy.CA"];
  run.residual_ms.push_back(ca.back() - layers_ms);
  return result;
}

/// Executes one CA/BL/PL query, checks it against `reference`, and in the
/// traced run replays BL and CA layer by layer.
void run_checked_query(Run& run, StrategyKind kind,
                       const Federation& federation, const GlobalQuery& query,
                       const QueryResult& reference, std::size_t unit,
                       std::size_t slot, bool first_cycle,
                       const StrategyOptions& exec,
                       StrategyReport* keep = nullptr) {
  const std::uint64_t qid = run.next_query_id++;
  try {
    StrategyReport report =
        timed_execute(run, kind, federation, query, exec, qid);
    run.check("query", report.result, reference);
    run.fingerprint(unit, slot, report_fingerprint(report));
    if (first_cycle) run.add_sim(report);
    if (run.options.trace &&
        (kind == StrategyKind::BL || kind == StrategyKind::CA)) {
      QueryResult replayed;
      // The parent span of the replay's per-layer spans.
      run.tracer.time(kind == StrategyKind::BL ? "replay.BL" : "replay.CA",
                      qid, [&] {
                        replayed =
                            kind == StrategyKind::BL
                                ? replay_bl(run, federation, query, qid)
                                : replay_ca(run, federation, query, qid);
                      });
      run.check("replay", replayed, report.result);
      run.check("replay", replayed, reference);
    }
    if (keep != nullptr) *keep = std::move(report);
  } catch (const std::exception& e) {
    run.fail_exception(e);
  }
}

std::uint64_t count_objects(const SampleParams& sample) {
  std::uint64_t n = 0;
  for (const SampleParams::PerClass& cls : sample.classes)
    for (const SampleParams::PerDb& db : cls.dbs)
      n += static_cast<std::uint64_t>(db.n_objects);
  return n;
}

/// Draws unit `unit`'s Table-2 parameter set (object counts included) from a
/// fixed stream, then its data from the seed: every value, reference and
/// null. Each seed is an independent replication of one workload shape, so
/// run-to-run spread measures the code, not which random queries or extent
/// sizes a seed happened to draw.
SampleParams draw_shape(const ParamConfig& config, std::uint64_t seed,
                        std::size_t unit) {
  Rng shape(derive_stream(kShapeStream, unit));
  SampleParams sample = draw_sample(config, shape);
  sample.materialize_seed = derive_stream(seed, unit);
  return sample;
}

SynthFederation build_federation(Run& run, const SampleParams& sample) {
  SynthFederation synth;
  const double ms = run.tracer.time("workload.materialize_sample", 0,
                                    [&] { synth = materialize_sample(sample); });
  run.add_layer("workload.materialize", ms);
  run.federation_objects += count_objects(sample);
  return synth;
}

/// Runs whole cycles of `units` units while another cycle (as long as the
/// last one) still fits in --seconds. The untraced run always runs at least
/// two cycles, the second being the determinism self-check; the traced run
/// at least one. Whole cycles keep the mix of queries behind every host
/// percentile the same from run to run, however many cycles fit.
template <typename UnitFn>
void cycle_units(Run& run, std::size_t units, UnitFn&& unit_fn) {
  if (run.options.smoke) {
    for (std::size_t cycle = 0; cycle < 2; ++cycle, ++run.cycles)
      for (std::size_t unit = 0; unit < std::min<std::size_t>(units, 2); ++unit)
        unit_fn(unit, cycle == 0);
    return;
  }
  const std::size_t min_cycles = run.options.trace ? 1 : 2;
  double last_cycle_s = 0;
  for (std::size_t cycle = 0;
       cycle < min_cycles ||
       run.elapsed_s() + last_cycle_s <= run.options.seconds;
       ++cycle) {
    const double cycle_start = run.elapsed_s();
    for (std::size_t unit = 0; unit < units; ++unit) unit_fn(unit, cycle == 0);
    last_cycle_s = run.elapsed_s() - cycle_start;
    ++run.cycles;
  }
}

// ---- workloads ----------------------------------------------------------

/// The paper's experiment: fresh default-ParamConfig trials, each building
/// its federation and IM population model (setup), then CA, BL, PL and IM
/// at thresh=1.0 once each.
void paper_sweep(Run& run) {
  constexpr StrategyKind kKinds[] = {StrategyKind::CA, StrategyKind::BL,
                                     StrategyKind::PL};
  cycle_units(run, kPaperTrials, [&](std::size_t trial, bool first_cycle) {
    ParamConfig config;
    const int chain = 1 + static_cast<int>(trial % 4);
    config.n_classes = {chain, chain};
    const SampleParams sample = draw_shape(config, run.options.seed, trial);

    const Clock::time_point t0 = Clock::now();
    const SynthFederation synth = build_federation(run, sample);
    std::optional<ImputeModel> model;
    const double build_ms = run.tracer.time(
        "analytic.ImputeModel::build", 0,
        [&] { model.emplace(ImputeModel::build(*synth.federation)); });
    run.add_layer("analytic.impute_build", build_ms);
    run.impute_objects += model->stats().objects_scanned;
    run.setup_ms.push_back(ms_between(t0, Clock::now()));

    const Federation& fed = *synth.federation;
    const QueryResult reference = reference_answer(fed, synth.query);
    StrategyOptions exec;
    exec.record_trace = false;
    StrategyReport bl;
    for (std::size_t k = 0; k < 3; ++k)
      run_checked_query(run, kKinds[k], fed, synth.query, reference, trial, k,
                        first_cycle, exec,
                        kKinds[k] == StrategyKind::BL ? &bl : nullptr);

    // IM at thresh=1.0 must be bitwise BL: same answer, same costs.
    exec.impute = &*model;
    exec.impute_threshold = 1.0;
    try {
      const StrategyReport im = timed_execute(
          run, StrategyKind::IM, fed, synth.query, exec, run.next_query_id++);
      run.check("query", im.result, bl.result);
      ++run.attempted;
      if (report_fingerprint(im) != report_fingerprint(bl)) ++run.failed;
      run.fingerprint(trial, 3, report_fingerprint(im));
      if (first_cycle) run.add_sim(im);
    } catch (const std::exception& e) {
      run.fail_exception(e);
    }
  });
}

/// A few large resident federations built once; query variants rotate
/// across them so consecutive queries touch different federations.
void large_extent(Run& run) {
  constexpr StrategyKind kKinds[] = {StrategyKind::CA, StrategyKind::BL,
                                     StrategyKind::PL};
  struct Resident {
    SynthFederation synth;
    std::vector<GlobalQuery> variants;
    std::vector<std::optional<QueryResult>> references;
  };
  std::vector<Resident> feds;
  const std::size_t n_feds = run.options.smoke ? 1 : std::size(kLargeChain);
  for (std::size_t f = 0; f < n_feds; ++f) {
    ParamConfig config;
    config.n_classes = {kLargeChain[f], kLargeChain[f]};
    config.n_objects = kLargeObjects;
    const SampleParams sample = draw_shape(config, run.options.seed, f);
    Resident resident;
    const Clock::time_point t0 = Clock::now();
    resident.synth = build_federation(run, sample);
    run.setup_ms.push_back(ms_between(t0, Clock::now()));
    Rng pool_rng(derive_stream(kShapeStream, kPoolStream + f));
    resident.variants = workload::derive_query_pool(resident.synth.query,
                                                    kLargeVariants, pool_rng);
    resident.references.resize(kLargeVariants);
    feds.push_back(std::move(resident));
  }
  StrategyOptions exec;
  exec.record_trace = false;
  cycle_units(run, feds.size() * kLargeVariants,
              [&](std::size_t unit, bool first_cycle) {
                Resident& r = feds[unit % feds.size()];
                const std::size_t v = unit / feds.size();
                const Federation& fed = *r.synth.federation;
                // References are computed outside the timed phase.
                if (!r.references[v])
                  r.references[v] = reference_answer(fed, r.variants[v]);
                for (std::size_t k = 0; k < 3; ++k)
                  run_checked_query(run, kKinds[k], fed, r.variants[v],
                                    *r.references[v], unit, k, first_cycle,
                                    exec);
              });
}

/// Federations in the bench_serve shape, each served by a closed loop of
/// think-less clients over a hybrid-planned pool with batching and one
/// certificate cache per serving run.
void serve_repeat(Run& run) {
  cycle_units(run, kServeFederations,
              [&](std::size_t unit, bool first_cycle) {
    ParamConfig config;
    config.n_db = 4;
    const int chain = 3 + static_cast<int>(unit % 2);
    config.n_classes = {chain, chain};
    config.n_preds = {1, 3};
    config.n_targets = {1, 2};
    config.n_objects = {500, 600};
    const SampleParams sample = draw_shape(config, run.options.seed, unit);

    const Clock::time_point t0 = Clock::now();
    const SynthFederation synth = build_federation(run, sample);
    const Federation& fed = *synth.federation;
    Rng pool_rng(derive_stream(kShapeStream, kPoolStream + unit));
    const std::vector<GlobalQuery> queries =
        workload::derive_query_pool(synth.query, kServePool, pool_rng);
    serve::PlannerOptions planner;
    planner.mode = serve::PlanMode::Hybrid;
    planner.advisor.batch.enabled = true;
    std::vector<serve::ServeRequest> pool;
    const double plan_ms = run.tracer.time("serve.plan_pool", 0, [&] {
      pool = serve::plan_pool(fed, queries, planner);
    });
    run.add_layer("analytic.plan_pool", plan_ms);
    run.setup_ms.push_back(ms_between(t0, Clock::now()));

    std::vector<QueryResult> references;
    for (const GlobalQuery& query : queries)
      references.push_back(reference_answer(fed, query));

    serve::ServeSpec spec;
    spec.mode = serve::ArrivalMode::Closed;
    spec.clients = kServeClients;
    spec.think_ns = 0;
    spec.n_queries = kServeSubmissions;
    spec.site_inflight = 2;
    spec.queue_limit = 0;
    spec.seed = derive_stream(kShapeStream, kArrivalStream + unit);

    // One serving run: a fresh certificate cache and stats book each.
    const auto serve_once = [&](serve::ServeReport& report) {
      CertCache cache;
      SiteStatsBook book;
      serve::ServeOptions options;
      options.exec.record_trace = false;
      options.exec.batch.enabled = true;
      options.exec.cert_cache = &cache;
      options.stats_book = &book;
      report = serve::serve(fed, pool, spec, options);
    };

    try {
      // The traced run pairs each traced serve() run with an untraced
      // twin, alternating which goes first, for the tracing overhead.
      const auto twin = [&] {
        serve::ServeReport copy;
        const Clock::time_point twin_start = Clock::now();
        serve_once(copy);
        run.plain_ms += ms_between(twin_start, Clock::now());
      };
      if (run.options.trace && unit % 2 == 0) twin();
      serve::ServeReport report;
      const double ms = run.tracer.time("serve.serve", run.next_query_id++,
                                        [&] { serve_once(report); });
      if (run.options.trace) {
        if (unit % 2 == 1) twin();
        run.traced_ms += ms;
      }
      const auto n = static_cast<double>(report.outcomes.size());
      run.query_ms.push_back(ms / n);
      run.timed_ms += ms;
      run.timed_queries += report.completed;
      for (const serve::ServeOutcome& outcome : report.outcomes) {
        if (outcome.rejected) {
          ++run.attempted;
          ++run.failed;
          continue;
        }
        run.check("query", outcome.result, references[outcome.pool_index]);
      }
      run.fingerprint(unit, 0, serve_fingerprint(report));
      run.cert_hits += report.cert_hits;
      run.cert_misses += report.cert_misses;
      run.serve_host_ms_per_sub.push_back(ms / n);
      run.residual_ms.push_back(ms / n);
      run.max_inflight = std::max(run.max_inflight, report.max_inflight);
      run.max_queue_depth =
          std::max(run.max_queue_depth, report.max_queue_depth);
      if (first_cycle) {
        const double total_per_sub =
            to_milliseconds(report.total_busy_ns) /
            static_cast<double>(std::max<std::size_t>(report.completed, 1));
        for (const serve::ServeOutcome& outcome : report.outcomes) {
          if (outcome.rejected) continue;
          run.sim_response_ms.push_back(to_milliseconds(outcome.latency()));
          run.sim_total_ms.push_back(total_per_sub);
          run.sim_wire_kb.push_back(static_cast<double>(outcome.wire_bytes) /
                                    1e3);
          run.queue_wait_ms.push_back(to_milliseconds(outcome.queue_wait()));
        }
        run.sim_messages += report.messages;
        run.work_queries += report.completed;
      }
    } catch (const std::exception& e) {
      run.fail_exception(e);
    }
  });
}

// ---- output -------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> end_to_end(const Run& run) {
  return {
      {"setup_s", percentile(run.setup_ms, 0.5) / 1e3, "s"},
      {"query_ms_p50", percentile(run.query_ms, 0.5), "ms"},
      {"query_ms_p90", percentile(run.query_ms, 0.90), "ms"},
      {"queries_per_s",
       ratio(static_cast<double>(run.timed_queries), run.timed_ms / 1e3),
       "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_response_ms_mean", mean(run.sim_response_ms), "ms_sim"},
      {"sim_response_ms_p95", percentile(run.sim_response_ms, 0.95),
       "ms_sim"},
      {"sim_total_ms_mean", mean(run.sim_total_ms), "ms_sim"},
      {"sim_wire_kb_mean", mean(run.sim_wire_kb), "KB_sim"},
  };
}

/// Logical work per timed query over the first cycle. Printed by every run,
/// so the determinism check can compare it; per-layer metrics of the traced
/// run.
std::vector<Metric> work_counts(const Run& run) {
  const auto count = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), static_cast<double>(run.work_queries));
  };
  return {
      {"store.objects_scanned", count(run.work.objects_scanned), "count"},
      {"store.objects_fetched", count(run.work.objects_fetched), "count"},
      {"query.comparisons", count(run.work.comparisons), "count"},
      {"federation.goid_probes", count(run.work.table_probes), "count"},
      {"sim.messages", count(run.sim_messages), "count"},
  };
}

std::vector<Metric> per_layer(const Run& run) {
  const auto layer = [&](const std::string& name) {
    const auto it = run.layers.find(name);
    return it == run.layers.end() ? Run::Layer{} : it->second;
  };
  const auto per = [](double total, std::uint64_t n) {
    return ratio(total, static_cast<double>(n));
  };
  const auto layer_ms = [&](const std::string& name) { return layer(name).ms; };
  const auto layer_ms_per_call = [&](const std::string& name) {
    return per(layer(name).ms, layer(name).calls);
  };
  const auto strategy_p50 = [&](const char* kind) {
    const auto it = run.strategy_ms.find(std::string("core.strategy.") + kind);
    return it == run.strategy_ms.end() ? 0.0 : percentile(it->second, 0.5);
  };
  const double plain_qps =
      ratio(static_cast<double>(run.timed_queries), run.plain_ms);
  const double traced_qps =
      ratio(static_cast<double>(run.timed_queries), run.traced_ms);
  std::vector<Metric> metrics = work_counts(run);
  metrics.insert(metrics.end(), {
      {"workload.materialize_ms", layer_ms_per_call("workload.materialize"),
       "ms"},
      {"workload.objects",
       per(static_cast<double>(run.federation_objects),
           layer("workload.materialize").calls),
       "count"},
      {"analytic.impute_build_ms", layer_ms_per_call("analytic.impute_build"),
       "ms"},
      {"analytic.impute_build_objects_per_s",
       ratio(static_cast<double>(run.impute_objects),
             layer_ms("analytic.impute_build") / 1e3),
       "1/s"},
      {"analytic.plan_pool_ms", layer_ms_per_call("analytic.plan_pool"),
       "ms"},
      {"core.local_exec_ms", per(layer_ms("core.local_exec"), run.bl_replays),
       "ms"},
      {"core.local_exec_objects_per_s",
       ratio(static_cast<double>(run.local_considered),
             layer_ms("core.local_exec") / 1e3),
       "1/s"},
      {"core.local_exec_rows_per_considered",
       ratio(static_cast<double>(run.local_rows),
             static_cast<double>(run.local_considered)),
       "ratio"},
      {"federation.materialize_ms",
       per(layer_ms("federation.materialize"), run.ca_replays), "ms"},
      {"federation.materialize_objects_per_s",
       ratio(static_cast<double>(run.materialized_objects),
             layer_ms("federation.materialize") / 1e3),
       "1/s"},
      {"query.evaluate_global_ms",
       per(layer_ms("query.evaluate_global"), run.ca_replays), "ms"},
      {"core.plan_checks_ms", per(layer_ms("core.plan_checks"), run.bl_replays),
       "ms"},
      {"core.run_checks_ms", per(layer_ms("core.run_checks"), run.bl_replays),
       "ms"},
      {"core.check_tasks",
       per(static_cast<double>(run.check_tasks), run.bl_replays), "count"},
      {"core.check_rounds",
       per(static_cast<double>(run.check_rounds), run.bl_replays), "count"},
      {"core.check_decided_frac",
       ratio(static_cast<double>(run.verdicts_decided),
             static_cast<double>(run.verdicts)),
       "ratio"},
      {"core.certify_ms", per(layer_ms("core.certify"), run.bl_replays), "ms"},
      {"core.certify_rows_in",
       per(static_cast<double>(run.certify_rows_in), run.bl_replays), "count"},
      {"core.certify_certain_frac",
       ratio(static_cast<double>(run.certify_certain),
             static_cast<double>(run.certify_entities)),
       "ratio"},
      {"core.cert_cache_hit_frac",
       ratio(static_cast<double>(run.cert_hits),
             static_cast<double>(run.cert_hits + run.cert_misses)),
       "ratio"},
      {"sim.residual_ms", mean(run.residual_ms), "ms"},
      {"serve.host_ms_per_submission", mean(run.serve_host_ms_per_sub), "ms"},
      {"serve.queue_wait_ms_mean", mean(run.queue_wait_ms), "ms_sim"},
      {"serve.max_inflight", static_cast<double>(run.max_inflight), "count"},
      {"serve.max_queue_depth", static_cast<double>(run.max_queue_depth),
       "count"},
      {"core.strategy.CA.ms_p50", strategy_p50("CA"), "ms"},
      {"core.strategy.BL.ms_p50", strategy_p50("BL"), "ms"},
      {"core.strategy.PL.ms_p50", strategy_p50("PL"), "ms"},
      {"core.strategy.IM.ms_p50", strategy_p50("IM"), "ms"},
      {"trace.overhead_frac", plain_qps > 0 ? 1.0 - traced_qps / plain_qps : 0,
       "ratio"},
  });
  return metrics;
}

[[noreturn]] void usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_sweep|large_extent|serve_repeat --seed N --seconds S "
               "--trace 0|1 [--spans FILE] [--smoke 0|1] "
               "[--corrupt-answer query|replay|fingerprint]\n",
               message);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("bad --seed");
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(o.seconds > 0))
        usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("bad --trace");
      o.trace = value == "1";
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else if (flag == "--smoke") {
      if (value != "0" && value != "1") usage("bad --smoke");
      o.smoke = value == "1";
    } else if (flag == "--corrupt-answer") {
      if (value != "query" && value != "replay" && value != "fingerprint")
        usage("bad --corrupt-answer");
      o.corrupt = value;
    } else {
      usage("unknown flag");
    }
  }
  if (!have_workload) usage("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Run run(options);
  if (options.workload == "paper_sweep")
    paper_sweep(run);
  else if (options.workload == "large_extent")
    large_extent(run);
  else if (options.workload == "serve_repeat")
    serve_repeat(run);
  else
    usage("unknown workload");

  const std::vector<Metric> metrics =
      options.trace ? per_layer(run) : end_to_end(run);
  const double failed_frac = ratio(static_cast<double>(run.failed),
                                   static_cast<double>(run.attempted));
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d "
              "threads=1 wall_s=%.3f\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0, run.elapsed_s());
  const double p90 = percentile(run.query_ms, 0.90);
  const auto beyond_p90 = static_cast<std::size_t>(std::count_if(
      run.query_ms.begin(), run.query_ms.end(),
      [p90](double v) { return v > p90; }));
  std::printf("samples cycles=%zu query=%zu beyond_p90=%zu setup=%zu sim=%zu "
              "spans=%zu\n",
              run.cycles, run.query_ms.size(), beyond_p90, run.setup_ms.size(),
              run.sim_response_ms.size(), run.tracer.size());
  std::printf("correctness attempted=%llu failed=%llu failed_frac=%.6f "
              "determinism_mismatches=%llu\n",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed), failed_frac,
              static_cast<unsigned long long>(run.determinism_mismatches));
  std::printf("work");
  for (const Metric& m : work_counts(run))
    std::printf(" %s=%s", m.name.c_str(), json_number(m.value).c_str());
  std::printf("\n");
  for (const Metric& m : metrics)
    std::printf("metric %s = %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());

  const bool correct = run.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(run.attempted);
  json += ", \"failed\": " + std::to_string(run.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  run.tracer.write(options.spans_path);
  return correct ? 0 : 1;
}
