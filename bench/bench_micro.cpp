// Micro-benchmarks (google-benchmark) of the building blocks: extent scans,
// three-valued predicate evaluation, GOid-table probes, outerjoin
// materialization, signature screening, and the discrete-event engine.
// These measure the *wall-clock* cost of the library itself, not simulated
// time — useful when sizing full-scale (--paper) harness runs.
#include <benchmark/benchmark.h>

#include <map>
#include <unordered_map>

#include "isomer/analytic/impute.hpp"
#include "isomer/core/cert_cache.hpp"
#include "isomer/core/certify.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/federation/goid_table.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/query/kernels.hpp"
#include "isomer/obs/trace_session.hpp"
#include "isomer/sim/barrier.hpp"
#include "isomer/workload/synth.hpp"
#include "residual_reference.hpp"

namespace {

using namespace isomer;

SynthFederation make_synth(int objects, std::size_t n_db = 3) {
  Rng rng(1234);
  ParamConfig config;
  config.n_db = n_db;
  config.n_objects = {objects, objects};
  config.n_classes = {3, 3};
  config.n_preds = {2, 2};
  SampleParams sample = draw_sample(config, rng);
  return materialize_sample(sample);
}

void BM_ExtentScan(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  const ComponentDatabase& db = synth.federation->db(DbId{1});
  for (auto _ : state) {
    AccessMeter meter;
    benchmark::DoNotOptimize(db.scan("C1", &meter));
    benchmark::DoNotOptimize(meter.objects_scanned);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ExtentScan)->Arg(1000)->Arg(5000);

void BM_LocalQueryEvaluation(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    LocalExecution exec =
        run_local_query(*synth.federation, synth.query, DbId{1});
    benchmark::DoNotOptimize(exec.rows.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LocalQueryEvaluation)->Arg(1000)->Arg(5000);

/// n objects spread over two extents of one database, plus a deterministically
/// shuffled probe order, so the fetch loops below are cache-miss-bound like
/// navigation over a large federation.
ComponentDatabase make_fetch_db(std::int64_t n, std::vector<LOid>& probe_order) {
  ComponentSchema schema(DbId{1}, "DB1");
  schema.add_class("A").add_attribute("x", PrimType::Int);
  schema.add_class("B").add_attribute("x", PrimType::Int);
  ComponentDatabase db(std::move(schema));
  db.reserve("A", static_cast<std::size_t>(n / 2 + 1));
  db.reserve("B", static_cast<std::size_t>(n / 2 + 1));
  probe_order.clear();
  probe_order.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    probe_order.push_back(db.insert(i % 2 == 0 ? "A" : "B", {{"x", i}}));
  Rng rng(5);
  for (std::size_t i = probe_order.size(); i > 1; --i)
    std::swap(probe_order[i - 1], probe_order[rng.index(i)]);
  return db;
}

/// Point lookups through the database's dense slot table: a bounds check
/// plus one array index per LOid.
void BM_ObjectFetch(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<LOid> order;
  const ComponentDatabase db = make_fetch_db(n, order);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const LOid id : order) sum += db.fetch(id)->id().local;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ObjectFetch)->Arg(1'000'000);

/// The addressing the slot table replaced, kept as a reference: an
/// LOid -> extent hash map, then the extent's own LOid -> row hash map.
void BM_ObjectFetchReferenceMap(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<LOid> order;
  const ComponentDatabase db = make_fetch_db(n, order);
  struct RefExtent {
    const std::vector<Object>* objects;
    std::unordered_map<LOid, std::size_t> by_id;
  };
  RefExtent extents[2] = {{&db.extent("A").objects(), {}},
                          {&db.extent("B").objects(), {}}};
  std::unordered_map<LOid, RefExtent*> directory;
  directory.reserve(order.size());
  for (RefExtent& ext : extents) {
    ext.by_id.reserve(ext.objects->size());
    for (std::size_t row = 0; row < ext.objects->size(); ++row) {
      ext.by_id.emplace((*ext.objects)[row].id(), row);
      directory.emplace((*ext.objects)[row].id(), &ext);
    }
  }
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const LOid id : order) {
      const RefExtent& ext = *directory.find(id)->second;
      sum += (*ext.objects)[ext.by_id.find(id)->second].id().local;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ObjectFetchReferenceMap)->Arg(1'000'000);

void BM_GoidProbe(benchmark::State& state) {
  const SynthFederation synth = make_synth(2000);
  const GoidTable& goids = synth.federation->goids();
  const ComponentDatabase& db = synth.federation->db(DbId{1});
  std::vector<LOid> ids;
  for (const Object& obj : db.extent("C1").objects()) ids.push_back(obj.id());
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(goids.goid_of(ids[i++ % ids.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_GoidProbe);

void BM_Materialize(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  const auto classes =
      classes_involved(synth.federation->schema(), synth.query);
  for (auto _ : state) {
    MaterializedView view = materialize(*synth.federation, classes);
    benchmark::DoNotOptimize(view.extent(synth.query.range_class).size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Materialize)->Arg(1000)->Arg(5000);

void BM_SignatureBuild(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    SignatureIndex index = SignatureIndex::build(*synth.federation);
    benchmark::DoNotOptimize(index.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SignatureBuild)->Arg(1000);

void BM_SignatureScreen(benchmark::State& state) {
  const SynthFederation synth = make_synth(2000);
  const SignatureIndex index = SignatureIndex::build(*synth.federation);
  const ComponentDatabase& db = synth.federation->db(DbId{1});
  std::vector<LOid> ids;
  for (const Object& obj : db.extent("C2").objects()) ids.push_back(obj.id());
  const Value literal{std::int64_t{0}};
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.screen(ids[i++ % ids.size()], "p0", literal));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SignatureScreen);

// ---- Row vs columnar hot loops (docs/PERFORMANCE.md) -----------------------
//
// The pairs below isolate the two hot paths the columnar work targets:
// simple-predicate evaluation over a whole extent, and LOid -> GOid probes.
// Each pair runs the same logical work through the row-at-a-time path and
// the vectorized / batched path so their ratio is the speedup
// tools/check_bench_micro.py watches. All report an explicit objects_per_s
// or probes_per_s rate counter in the JSON output.

/// One class, one Real attribute, ~1/16 of rows null (the missing-data case).
ComponentDatabase make_scan_db(std::int64_t n) {
  ComponentSchema schema(DbId{1}, "DB1");
  schema.add_class("Scan").add_attribute("v", PrimType::Real);
  ComponentDatabase db(std::move(schema));
  db.reserve("Scan", static_cast<std::size_t>(n));
  Rng rng(99);
  for (std::int64_t i = 0; i < n; ++i) {
    if (rng.bernoulli(1.0 / 16.0))
      db.insert("Scan");  // v stays null
    else
      db.insert("Scan", {{"v", Value(rng.uniform_real(0.0, 1000.0))}});
  }
  return db;
}

/// The scan databases of every size the predicate-evaluation pair runs,
/// shared by both benchmarks and all built (columnar mirrors included) on
/// first use. Each benchmark reads the same memory whichever runs first, so
/// their ratio does not depend on benchmark order through heap placement.
const ComponentDatabase& scan_db(std::int64_t n) {
  static const std::map<std::int64_t, ComponentDatabase> dbs = [] {
    std::map<std::int64_t, ComponentDatabase> built;
    for (const std::int64_t size : {100'000, 1'000'000}) {
      const ComponentDatabase& db =
          built.emplace(size, make_scan_db(size)).first->second;
      (void)db.extent("Scan").columnar();
    }
    return built;
  }();
  return dbs.at(n);
}

void BM_PredicateEvalRow(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const ComponentDatabase& db = scan_db(n);
  const auto& objects = db.extent("Scan").objects();
  const Value literal{500.0};
  for (auto _ : state) {
    std::size_t trues = 0;
    for (const Object& obj : objects)
      trues += is_true(apply(CompOp::Lt, obj.value(0), literal)) ? 1u : 0u;
    benchmark::DoNotOptimize(trues);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["objects_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredicateEvalRow)->Arg(100'000)->Arg(1'000'000);

void BM_PredicateEvalColumnar(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const ComponentDatabase& db = scan_db(n);
  const ColumnarExtent& columnar = db.extent("Scan").columnar();
  const ColumnarExtent::Column& col = columnar.column(0);
  const Value literal{500.0};
  std::vector<Truth> truths(columnar.rows());
  for (auto _ : state) {
    eval_predicate_column(col, columnar.rows(), CompOp::Lt, literal,
                          truths.data());
    benchmark::DoNotOptimize(count_truth(truths, Truth::True));
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["objects_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_PredicateEvalColumnar)->Arg(100'000)->Arg(1'000'000);

/// n singleton entities plus a deterministically shuffled probe order, so
/// the probe loops below are cache-miss-bound like a real semijoin batch.
GoidTable make_goid_table(std::int64_t n, std::vector<LOid>& probe_order) {
  GoidTable goids;
  goids.reserve(static_cast<std::size_t>(n));
  probe_order.clear();
  probe_order.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const LOid id{DbId{1}, static_cast<std::uint32_t>(i + 1)};
    goids.register_entity("C", {id});
    probe_order.push_back(id);
  }
  Rng rng(5);
  for (std::size_t i = probe_order.size(); i > 1; --i)
    std::swap(probe_order[i - 1], probe_order[rng.index(i)]);
  return goids;
}

void BM_GoidProbeScalar(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<LOid> order;
  const GoidTable goids = make_goid_table(n, order);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const LOid id : order) sum += goids.goid_of(id)->value();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["probes_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoidProbeScalar)->Arg(100'000)->Arg(1'000'000);

void BM_GoidProbeBatch(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<LOid> order;
  const GoidTable goids = make_goid_table(n, order);
  std::vector<GOid> out(order.size());
  for (auto _ : state) {
    goids.goids_of(order, out.data());
    benchmark::DoNotOptimize(out.front().value() + out.back().value());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["probes_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoidProbeBatch)->Arg(100'000)->Arg(1'000'000);

/// The hash-map probe baseline: one big std::unordered_map, probed in the
/// same shuffled order. Kept as a benchmark (not production code) so the
/// dense per-database table's advantage stays measurable.
void BM_GoidProbeReferenceMap(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  std::vector<LOid> order;
  const GoidTable goids = make_goid_table(n, order);
  std::unordered_map<LOid, std::uint64_t> reference;
  reference.reserve(order.size());
  for (const LOid id : order) reference.emplace(id, goids.goid_of(id)->value());
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const LOid id : order) sum += reference.find(id)->second;
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["probes_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations() * n),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(BM_GoidProbeReferenceMap)->Arg(100'000)->Arg(1'000'000);

// ---- Global-site residual build (core/certify.hpp) --------------------------
//
// certify()'s per-entity pass builds each entity's residual condition
// already simplified (EntityPool). The reference is the path it replaced
// (bench/residual_reference.hpp, shared with tests/test_residual_identity):
// build the whole tree, substitute every pooled verdict, then simplify().
// Both run over the same synthetic per-entity statuses, shaped like the
// large federations' global site: one to three rows per entity, three
// conjunctive predicates, statuses True / Unknown at the root / Unknown at
// a nested item, half the nested items answered by a check verdict.

struct ResidualFixture {
  GlobalQuery query;
  std::vector<LocalRow> rows;  // entity-major
  std::vector<std::vector<const LocalRow*>> entities;
  std::vector<CheckVerdict> verdicts;
};

const ResidualFixture& residual_fixture() {
  static const ResidualFixture fixture = [] {
    constexpr std::uint64_t kEntities = 100'000;
    constexpr std::size_t kPreds = 3;
    ResidualFixture f;
    f.query.range_class = "C";
    f.query.predicates.resize(kPreds);
    Rng rng(21);
    std::vector<std::size_t> row_counts;
    for (std::uint64_t e = 0; e < kEntities; ++e)
      row_counts.push_back(1 + rng.index(3));
    for (std::uint64_t e = 0; e < kEntities; ++e)
      for (std::size_t r = 0; r < row_counts[e]; ++r) {
        LocalRow row;
        row.entity = GOid{e + 1};
        row.preds.resize(kPreds);
        for (std::size_t p = 0; p < kPreds; ++p) {
          PredStatus& status = row.preds[p];
          const double draw = rng.uniform_real(0.0, 1.0);
          if (draw < 0.55) {
            status.truth = Truth::True;
          } else if (draw < 0.75) {
            status = PredStatus{Truth::Unknown, row.entity, 0, true};
          } else {
            status = PredStatus{Truth::Unknown,
                                GOid{kEntities + 1 + rng.index(kEntities)}, 1,
                                false};
            if (rng.bernoulli(0.5))
              f.verdicts.push_back(CheckVerdict{
                  status.item, p,
                  rng.bernoulli(0.8) ? Truth::True : Truth::Unknown});
          }
        }
        f.rows.push_back(std::move(row));
      }
    std::size_t next = 0;
    for (std::uint64_t e = 0; e < kEntities; ++e) {
      f.entities.emplace_back();
      for (std::size_t r = 0; r < row_counts[e]; ++r)
        f.entities.back().push_back(&f.rows[next++]);
    }
    return f;
  }();
  return fixture;
}

void BM_ResidualBuild(benchmark::State& state) {
  const ResidualFixture& f = residual_fixture();
  const VerdictIndex verdicts(f.verdicts);
  EntityPool pool(f.query, verdicts);
  for (auto _ : state) {
    std::size_t maybe = 0;
    for (const auto& rows : f.entities) {
      maybe += is_unknown(pool.pool(rows)) ? 1u : 0u;
      benchmark::DoNotOptimize(pool.residual());
    }
    benchmark::DoNotOptimize(maybe);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.entities.size()));
}
BENCHMARK(BM_ResidualBuild);

void BM_ResidualBuildReference(benchmark::State& state) {
  const ResidualFixture& f = residual_fixture();
  const VerdictIndex verdicts(f.verdicts);
  for (auto _ : state) {
    std::size_t maybe = 0;
    for (const auto& rows : f.entities) {
      const Condition condition =
          bench::reference_residual(f.query, rows, verdicts);
      maybe += is_unknown(condition.truth()) ? 1u : 0u;
      benchmark::DoNotOptimize(condition);
    }
    benchmark::DoNotOptimize(maybe);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.entities.size()));
}
BENCHMARK(BM_ResidualBuildReference);

/// Full local query execution, row path vs columnar fast path, on the same
/// synthetic federation. The two are bitwise-identical in results and meter
/// (tests/test_columnar_parity.cpp); this pair measures the wall-clock gap.
void BM_LocalQueryRowVsColumnar(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(1)));
  const bool use_columnar = state.range(0) != 0;
  for (auto _ : state) {
    LocalExecution exec = run_local_query(*synth.federation, synth.query,
                                          DbId{1}, nullptr, use_columnar);
    benchmark::DoNotOptimize(exec.rows.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(1));
  state.counters["objects_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(1)),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_LocalQueryRowVsColumnar)
    ->Args({0, 20000})
    ->Args({1, 20000});

/// n shuffled (GOid, signature) certificate keys — probe order is
/// cache-miss-bound like a real repeated serving pool.
std::vector<std::pair<GOid, std::uint64_t>> make_cert_keys(std::int64_t n) {
  std::vector<std::pair<GOid, std::uint64_t>> keys;
  keys.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i)
    keys.emplace_back(GOid{static_cast<std::uint64_t>(i + 1)},
                      0xbf58476d1ce4e5b9ULL * static_cast<std::uint64_t>(i + 1));
  Rng rng(5);
  for (std::size_t i = keys.size(); i > 1; --i)
    std::swap(keys[i - 1], keys[rng.index(i)]);
  return keys;
}

/// Warm certificate-cache path: every lookup hits (the second serving wave
/// of bench_serve's panel 4). Paired with BM_CertCacheColdMisses below —
/// their ratio is the hit path's advantage over the miss+writeback path it
/// replaces, watched by tools/check_bench_micro.py.
void BM_CertCacheWarmHits(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto keys = make_cert_keys(n);
  CertCache cache;
  for (const auto& [goid, sig] : keys)
    cache.insert(goid, sig, /*epoch=*/1, Truth::True);
  for (auto _ : state) {
    std::uint64_t sum = 0;
    for (const auto& [goid, sig] : keys)
      sum += static_cast<std::uint64_t>(*cache.lookup(goid, sig, 1));
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CertCacheWarmHits)->Arg(100'000);

/// Cold certificate-cache path: every lookup misses and writes back — the
/// first wave's cost, including the table growth a fresh cache pays.
void BM_CertCacheColdMisses(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto keys = make_cert_keys(n);
  for (auto _ : state) {
    CertCache cache;
    std::uint64_t found = 0;
    for (const auto& [goid, sig] : keys) {
      found += cache.lookup(goid, sig, 1).has_value() ? 1u : 0u;
      cache.insert(goid, sig, 1, Truth::True);
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CertCacheColdMisses)->Arg(100'000);

/// ImputeModel::build — the IM strategy's population fit: one scan per
/// constituent extent plus the covariate pass (analytic/impute.hpp). The
/// model is an auxiliary replicated structure like the signature index, so
/// this is its uncharged maintenance cost; items are stored objects
/// scanned. Watched by tools/check_bench_micro.py: throughput must not
/// collapse superlinearly between the two extent sizes.
void BM_ImputeModelBuild(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(0)));
  std::uint64_t objects = 0;
  for (auto _ : state) {
    const ImputeModel model = ImputeModel::build(*synth.federation);
    objects = model.stats().objects_scanned;
    benchmark::DoNotOptimize(model.stats().estimators);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(objects));
}
BENCHMARK(BM_ImputeModelBuild)->Arg(1000)->Arg(5000);

void BM_SimulatorEventThroughput(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Resource resource(sim, "r");
    auto barrier = Barrier::create(10000, [] {});
    for (int i = 0; i < 10000; ++i) resource.use(10, barrier->arrival());
    sim.run();
    benchmark::DoNotOptimize(sim.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * 10000);
}
BENCHMARK(BM_SimulatorEventThroughput);

void BM_FullStrategyExecution(benchmark::State& state) {
  const SynthFederation synth = make_synth(static_cast<int>(state.range(1)));
  const auto kind = static_cast<StrategyKind>(state.range(0));
  StrategyOptions options;
  for (auto _ : state) {
    StrategyReport report =
        execute_strategy(kind, *synth.federation, synth.query, options);
    benchmark::DoNotOptimize(report.total_ns);
  }
}
BENCHMARK(BM_FullStrategyExecution)
    ->Args({static_cast<int>(StrategyKind::CA), 2000})
    ->Args({static_cast<int>(StrategyKind::BL), 2000})
    ->Args({static_cast<int>(StrategyKind::PL), 2000});

// Observability overhead: compares an execution with no TraceSession (the
// no-op path — a single pointer test per step) against one recording phase
// spans. Tracing *observes* the AccessMeter and simulated clock, it must
// never charge them, so the setup aborts the benchmark if the two paths'
// metered work, simulated times, or wire traffic diverge. Arg 0 selects
// untraced (0) or traced (1); Arg 1 is the strategy.
void BM_StrategyTraceOverhead(benchmark::State& state) {
  const SynthFederation synth = make_synth(2000);
  const auto kind = static_cast<StrategyKind>(state.range(1));
  StrategyOptions untraced;
  const StrategyReport baseline =
      execute_strategy(kind, *synth.federation, synth.query, untraced);
  obs::TraceSession probe_session;
  StrategyOptions traced = untraced;
  traced.trace_session = &probe_session;
  const StrategyReport probe =
      execute_strategy(kind, *synth.federation, synth.query, traced);
  if (!(probe.work == baseline.work)) {
    state.SkipWithError("tracing changed the execution's metered work");
    return;
  }
  if (probe.total_ns != baseline.total_ns ||
      probe.response_ns != baseline.response_ns ||
      probe.bytes_transferred != baseline.bytes_transferred ||
      probe.messages != baseline.messages) {
    state.SkipWithError("tracing changed the simulated cost figures");
    return;
  }
  if (probe_session.empty()) {
    state.SkipWithError("traced execution recorded no spans");
    return;
  }
  const bool trace_on = state.range(0) != 0;
  for (auto _ : state) {
    obs::TraceSession session;
    StrategyOptions options = untraced;
    if (trace_on) options.trace_session = &session;
    StrategyReport report =
        execute_strategy(kind, *synth.federation, synth.query, options);
    benchmark::DoNotOptimize(report.work.comparisons);
    benchmark::DoNotOptimize(session.size());
  }
}
BENCHMARK(BM_StrategyTraceOverhead)
    ->Args({0, static_cast<int>(StrategyKind::BL)})
    ->Args({1, static_cast<int>(StrategyKind::BL)})
    ->Args({0, static_cast<int>(StrategyKind::CA)})
    ->Args({1, static_cast<int>(StrategyKind::CA)});

}  // namespace

BENCHMARK_MAIN();
