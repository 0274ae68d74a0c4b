// Local execution: the translation-aware evaluator, row construction, and
// its consistency with the protocol-level LocalQuery derivation.
#include <gtest/gtest.h>

#include <memory>
#include <new>
#include <string>
#include <vector>

#include "isomer/core/local_exec.hpp"
#include "isomer/query/eval.hpp"
#include "isomer/schema/integrator.hpp"
#include "isomer/schema/translate.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

class LocalExecFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    example_ = paper::make_university();
    query_ = paper::q1();
  }
  const Federation& fed() { return *example_.federation; }
  paper::UniversityExample example_;
  GlobalQuery query_;
};

TEST_F(LocalExecFixture, RowsCarryGlobalizedTargets) {
  const LocalExecution exec = run_local_query(fed(), query_, DbId{1});
  for (const LocalRow& row : exec.rows) {
    ASSERT_EQ(row.targets.size(), 2u);
    // advisor.name is a primitive target; values arrive as strings.
    if (!row.targets[1].is_null())
      EXPECT_EQ(row.targets[1].kind(), ValueKind::String);
  }
}

TEST_F(LocalExecFixture, MeterAccountsScanAndNavigation) {
  const LocalExecution exec = run_local_query(fed(), query_, DbId{1});
  EXPECT_EQ(exec.meter.objects_scanned, 3u);  // the Student extent
  EXPECT_GT(exec.meter.objects_fetched, 0u);  // advisors, departments
  EXPECT_GT(exec.meter.comparisons, 0u);
  EXPECT_GT(exec.meter.table_probes, 0u);  // row entity lookups
}

TEST_F(LocalExecFixture, BufferPoolFetchesEachObjectOnce) {
  // Students s1 and s2 share no advisor, but each advisor's department is
  // d1 for both t1 and t3 — with the per-execution buffer pool d1 is read
  // from disk exactly once.
  const LocalExecution exec = run_local_query(fed(), query_, DbId{1});
  // Fetched: t1, t3, t2 (advisors) + d1 (department of t1 and t3; t2's is
  // null). 4 distinct objects.
  EXPECT_EQ(exec.meter.objects_fetched, 4u);
}

TEST_F(LocalExecFixture, ThrowsAtNonRootDatabase) {
  EXPECT_THROW((void)run_local_query(fed(), query_, DbId{3}), QueryError);
}

TEST_F(LocalExecFixture, LocallyCertainHelper) {
  LocalRow row;
  row.preds.push_back(PredStatus{Truth::True, GOid{}, 0, false});
  EXPECT_TRUE(row.locally_certain());
  row.preds.push_back(PredStatus{Truth::Unknown, GOid{1}, 1, false});
  EXPECT_FALSE(row.locally_certain());
}

TEST_F(LocalExecFixture, EvalGlobalPathReturnsGlobalRefs) {
  const Object* s1 = fed().db(DbId{1}).fetch(example_.ids.s1);
  const Value advisor = eval_global_path(
      fed(), DbId{1}, *s1, fed().schema().cls("Student"),
      PathExpr::parse("advisor"));
  EXPECT_EQ(advisor, Value(GlobalRef{example_.entity(example_.ids.t1)}));
  const Value missing = eval_global_path(
      fed(), DbId{1}, *s1, fed().schema().cls("Student"),
      PathExpr::parse("address.city"));
  EXPECT_TRUE(missing.is_null());
}

// The two views of local evaluation must agree: evaluating the derived
// LocalQuery's local predicates with the plain component-database evaluator
// gives the same truths as the translation-aware global evaluator, and the
// schema-stripped predicates are exactly those the global evaluator can
// never resolve beyond Unknown for *any* object of that database.
class LocalViewsAgree : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LocalViewsAgree, OnRandomWorkloads) {
  Rng rng(GetParam());
  ParamConfig config;
  config.n_objects = {20, 40};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);
  const Federation& fed = *synth.federation;
  const GlobalClass& range = fed.schema().cls(synth.query.range_class);

  for (const DbId db : fed.db_ids()) {
    const auto local = derive_local_query(fed.schema(), synth.query, db);
    ASSERT_TRUE(local.has_value());
    const ComponentDatabase& database = fed.db(db);

    // The global walk as the executors run it: bound once per database.
    std::vector<BoundPath> bound;
    for (const Predicate& pred : synth.query.predicates)
      bound.emplace_back(fed, db, range, pred.path);

    for (const Object& obj : database.extent(local->root_class).objects()) {
      // (a) local predicates agree with the global evaluator, on truth and
      // on the unsolved site (holder, step) when Unknown.
      for (std::size_t lp = 0; lp < local->local_predicates.size(); ++lp) {
        const std::size_t gp = local->local_predicate_origin[lp];
        const PredicateOutcome via_local =
            eval_predicate(database, obj, local->local_predicates[lp]);
        const LocalPredOutcome via_global =
            bound[gp].eval_predicate(obj, synth.query.predicates[gp]);
        EXPECT_EQ(via_local.truth, via_global.truth);
        EXPECT_EQ(via_global.truth,
                  eval_global_predicate_at(fed, db, obj, range,
                                           synth.query.predicates[gp], 0)
                      .truth);
        if (is_unknown(via_local.truth) && is_unknown(via_global.truth)) {
          ASSERT_TRUE(via_local.site.has_value());
          EXPECT_EQ(via_local.site->holder, via_global.holder);
          EXPECT_EQ(via_local.site->step, via_global.step);
        }
      }
      // (b) schema-stripped predicates are Unknown for every object here.
      for (const UnsolvedPredicate& unsolved : local->unsolved_predicates) {
        const Truth t =
            eval_global_predicate_at(fed, db, obj, range, unsolved.original, 0)
                .truth;
        EXPECT_EQ(t, Truth::Unknown);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LocalViewsAgree,
                         ::testing::Range<std::uint64_t>(300, 312));

// A target path crossing a set-valued reference whose members dangle: the
// walk skips a dangling member (charging nothing for it) and takes the first
// member whose continuation is non-null; a predicate over the same path is
// Unknown at the set's holder unless a live member decides it.
class DanglingSetFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    ComponentSchema schema(DbId{1}, "DB1");
    schema.add_class("Project").add_attribute("title", PrimType::String);
    schema.add_class("Prof")
        .add_attribute("name", PrimType::String)
        .add_attribute("projects", ComplexType{"Project", true});
    auto db = std::make_unique<ComponentDatabase>(std::move(schema));
    const LOid dangling{DbId{1}, 1'000'000};
    const LOid alpha = db->insert("Project", {{"title", "alpha"}});
    mixed_ = db->insert("Prof", {{"name", "Ada"},
                                 {"projects", LocalRefSet{{dangling, alpha}}}});
    dead_ = db->insert("Prof",
                       {{"name", "Bob"}, {"projects", LocalRefSet{{dangling}}}});

    IntegrationSpec spec;
    ClassSpec& prof = spec.add_class("Prof");
    prof.constituents = {{DbId{1}, "Prof"}};
    prof.identity_attribute = "name";
    ClassSpec& project = spec.add_class("Project");
    project.constituents = {{DbId{1}, "Project"}};
    project.identity_attribute = "title";
    GlobalSchema global = integrate({&db->schema()}, spec);
    GoidTable goids;
    goids.register_entity("Prof", {mixed_});
    goids.register_entity("Prof", {dead_});
    goids.register_entity("Project", {alpha});
    std::vector<std::unique_ptr<ComponentDatabase>> dbs;
    dbs.push_back(std::move(db));
    fed_ = std::make_unique<Federation>(std::move(global), std::move(dbs),
                                        std::move(goids));
  }

  const Object& obj(LOid id) { return *fed_->db(DbId{1}).fetch(id); }

  std::unique_ptr<Federation> fed_;
  LOid mixed_, dead_;
};

TEST_F(DanglingSetFixture, TargetSkipsDanglingMembers) {
  const GlobalClass& prof = fed_->schema().cls("Prof");
  const PathExpr path = PathExpr::parse("projects.title");
  const BoundPath target(*fed_, DbId{1}, prof, path);
  const ComponentDatabase& db = fed_->db(DbId{1});

  AccessMeter meter;
  EXPECT_EQ(target.eval_target(obj(mixed_), &meter), Value("alpha"));
  EXPECT_EQ(meter.objects_fetched, 1u) << "the dangling member is free";
  EXPECT_EQ(eval_path(db, obj(mixed_), path), Value("alpha"));

  AccessMeter dead_meter;
  EXPECT_TRUE(target.eval_target(obj(dead_), &dead_meter).is_null());
  EXPECT_EQ(dead_meter, AccessMeter{});
  EXPECT_TRUE(eval_path(db, obj(dead_), path).is_null());
}

TEST_F(DanglingSetFixture, PredicateStallsAtTheSetHolder) {
  const GlobalClass& prof = fed_->schema().cls("Prof");
  const Predicate pred{PathExpr::parse("projects.title"), CompOp::Eq,
                       Value("alpha")};
  const BoundPath bound(*fed_, DbId{1}, prof, pred.path);
  const ComponentDatabase& db = fed_->db(DbId{1});

  EXPECT_EQ(bound.eval_predicate(obj(mixed_), pred).truth, Truth::True);
  const LocalPredOutcome dead = bound.eval_predicate(obj(dead_), pred);
  EXPECT_EQ(dead.truth, Truth::Unknown);
  EXPECT_EQ(dead.holder, dead_);
  EXPECT_EQ(dead.step, 0u);
  const PredicateOutcome local = eval_predicate(db, obj(dead_), pred);
  ASSERT_TRUE(local.site.has_value());
  EXPECT_EQ(local.site->holder, dead.holder);
  EXPECT_EQ(local.site->step, dead.step);
}

// Bound evaluation. Executors resolve each path to local columns once per
// (query, database) — a BoundPath — and walk objects with integer indexing.
// These suites keep the names they had when that resolution lived in a
// per-class evaluation cache, and pin the same contract for the binding: it
// is observationally identical to resolving every step by name per object,
// in outcomes and in metering.
class CachedEvalAgrees : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CachedEvalAgrees, OnRandomFederations) {
  Rng rng(GetParam());
  ParamConfig config;
  config.n_objects = {20, 40};
  const SynthFederation synth = materialize_sample(draw_sample(config, rng));
  const Federation& fed = *synth.federation;
  const GlobalClass& range = fed.schema().cls(synth.query.range_class);

  for (const DbId db : fed.db_ids()) {
    const auto local = derive_local_query(fed.schema(), synth.query, db);
    ASSERT_TRUE(local.has_value());
    const ComponentDatabase& database = fed.db(db);
    std::vector<BoundPath> bound;
    for (const std::size_t gp : local->local_predicate_origin)
      bound.emplace_back(fed, db, range, synth.query.predicates[gp].path);
    AccessMeter by_name_meter, bound_meter;

    for (const Object& obj : database.extent(local->root_class).objects()) {
      for (std::size_t lp = 0; lp < local->local_predicates.size(); ++lp) {
        const Predicate& global = synth.query.predicates[
            local->local_predicate_origin[lp]];
        const PredicateOutcome by_name = eval_predicate(
            database, obj, local->local_predicates[lp], &by_name_meter);
        const LocalPredOutcome via_binding =
            bound[lp].eval_predicate(obj, global, &bound_meter);
        EXPECT_EQ(by_name.truth, via_binding.truth);
        if (is_unknown(by_name.truth)) {
          ASSERT_TRUE(by_name.site.has_value());
          EXPECT_EQ(by_name.site->holder, via_binding.holder);
          EXPECT_EQ(by_name.site->step, via_binding.step);
        }
        // Values: the bound walk returns the global form of the same value.
        EXPECT_EQ(fed.goids().globalize(eval_path(
                      database, obj, local->local_predicates[lp].path)),
                  bound[lp].eval_target(obj));
      }
    }
    // Byte-for-byte metering: every counter, not just comparisons.
    EXPECT_EQ(by_name_meter, bound_meter);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedEvalAgrees,
                         ::testing::Range<std::uint64_t>(500, 512));

TEST(CachedEval, MissingAttributeIsCachedNegatively) {
  Rng rng(42);
  ParamConfig config;
  config.n_objects = {10, 20};
  const SynthFederation synth = materialize_sample(draw_sample(config, rng));
  const Federation& fed = *synth.federation;
  const DbId db = fed.db_ids().front();
  const auto local = derive_local_query(fed.schema(), synth.query, db);
  ASSERT_TRUE(local.has_value());
  const GlobalClass& range = fed.schema().cls(synth.query.range_class);

  // A path no class defines binds its first step as missing: every object
  // is Unknown at itself, step 0, with nothing charged — what resolving the
  // name per object gives.
  const Predicate pred{PathExpr::parse("no_such_attribute"), CompOp::Eq,
                       Value{std::int64_t{1}}};
  const BoundPath bound(fed, db, range, pred.path);
  const ComponentDatabase& database = fed.db(db);
  AccessMeter by_name_meter, bound_meter;
  for (const Object& obj : database.extent(local->root_class).objects()) {
    const PredicateOutcome by_name =
        eval_predicate(database, obj, pred, &by_name_meter);
    const LocalPredOutcome via_binding =
        bound.eval_predicate(obj, pred, &bound_meter);
    EXPECT_EQ(by_name.truth, Truth::Unknown);
    EXPECT_EQ(via_binding.truth, Truth::Unknown);
    EXPECT_EQ(via_binding.holder, obj.id());
    EXPECT_EQ(via_binding.step, 0u);
    EXPECT_EQ(by_name.site, (UnsolvedSite{via_binding.holder, 0}));
  }
  EXPECT_EQ(by_name_meter, bound_meter);
  EXPECT_EQ(bound_meter, AccessMeter{});
}

TEST(CachedEval, CacheReuseAcrossRepeatedEvaluation) {
  // One binding and one buffer pool reused over two full passes: outcomes
  // match per-call name resolution on both passes, and the warm pool makes
  // the second pass fetch nothing from disk.
  Rng rng(7);
  ParamConfig config;
  config.n_objects = {10, 20};
  const SynthFederation synth = materialize_sample(draw_sample(config, rng));
  const Federation& fed = *synth.federation;
  const DbId db = fed.db_ids().front();
  const GlobalClass& range = fed.schema().cls(synth.query.range_class);
  const ComponentDatabase& database = fed.db(db);
  const std::string& root_class =
      range.constituents()[*range.constituent_in(db)].local_class;

  std::vector<BoundPath> bound;
  for (const Predicate& pred : synth.query.predicates)
    bound.emplace_back(fed, db, range, pred.path);
  FetchCache cache;
  for (int pass = 0; pass < 2; ++pass) {
    AccessMeter by_name_meter, bound_meter;
    for (const Object& obj : database.extent(root_class).objects()) {
      for (std::size_t p = 0; p < bound.size(); ++p) {
        const Predicate& pred = synth.query.predicates[p];
        const LocalPredOutcome by_name = eval_global_predicate_at(
            fed, db, obj, range, pred, 0, &by_name_meter);
        const LocalPredOutcome via_binding =
            bound[p].eval_predicate(obj, pred, &bound_meter, &cache);
        EXPECT_EQ(by_name.truth, via_binding.truth);
        EXPECT_EQ(by_name.holder, via_binding.holder);
        EXPECT_EQ(by_name.step, via_binding.step);
      }
    }
    EXPECT_EQ(by_name_meter.comparisons, bound_meter.comparisons);
    EXPECT_LE(bound_meter.objects_fetched, by_name_meter.objects_fetched);
    if (pass == 1) EXPECT_EQ(bound_meter.objects_fetched, 0u);
  }
}

TEST(CachedEval, AddressReusePoisoning) {
  // A binding must not borrow the PathExpr it was built from: trials build
  // their queries as temporaries, and a different path can be constructed
  // at the same address. The binding keeps evaluating the original path.
  Rng rng(7);
  ParamConfig config;
  config.n_objects = {10, 20};
  const SynthFederation synth = materialize_sample(draw_sample(config, rng));
  const Federation& fed = *synth.federation;
  const DbId db = fed.db_ids().front();
  const GlobalClass& range = fed.schema().cls(synth.query.range_class);
  const ComponentDatabase& database = fed.db(db);
  const std::string& root_class =
      range.constituents()[*range.constituent_in(db)].local_class;
  const Predicate& original = synth.query.predicates.front();

  alignas(PathExpr) unsigned char storage[sizeof(PathExpr)];
  PathExpr* path = new (storage) PathExpr(original.path);
  const BoundPath bound(fed, db, range, *path);
  path->~PathExpr();
  path = new (storage) PathExpr(PathExpr::parse("no_such_attribute.deeper"));

  for (const Object& obj : database.extent(root_class).objects()) {
    const LocalPredOutcome expected =
        eval_global_predicate_at(fed, db, obj, range, original, 0);
    const LocalPredOutcome actual = bound.eval_predicate(obj, original);
    EXPECT_EQ(expected.truth, actual.truth);
    EXPECT_EQ(expected.holder, actual.holder);
    EXPECT_EQ(expected.step, actual.step);
  }
  path->~PathExpr();
}

}  // namespace
}  // namespace isomer
