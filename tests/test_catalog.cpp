// Catalog serialization: round-trips, format details, and error handling.
#include <gtest/gtest.h>

#include "isomer/core/strategy.hpp"
#include "isomer/io/catalog.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

TEST(Catalog, RoundTripsTheUniversityFederation) {
  const paper::UniversityExample example = paper::make_university();
  const std::string text = save_catalog(*example.federation);
  const std::unique_ptr<Federation> reloaded = load_catalog(text);

  // Identical structure...
  EXPECT_EQ(reloaded->db_ids(), example.federation->db_ids());
  EXPECT_EQ(reloaded->goids().entity_count(),
            example.federation->goids().entity_count());
  // ...and a second save is byte-identical (canonical form).
  EXPECT_EQ(save_catalog(*reloaded), text);
}

TEST(Catalog, ReloadedFederationAnswersIdentically) {
  const paper::UniversityExample example = paper::make_university();
  const std::unique_ptr<Federation> reloaded =
      load_catalog(save_catalog(*example.federation));
  const GlobalQuery q1 = paper::q1();
  EXPECT_EQ(reference_answer(*reloaded, q1),
            reference_answer(*example.federation, q1));
  for (const StrategyKind kind : kPaperStrategies) {
    const StrategyReport a = execute_strategy(kind, *reloaded, q1);
    const StrategyReport b =
        execute_strategy(kind, *example.federation, q1);
    EXPECT_EQ(a.result, b.result) << to_string(kind);
    EXPECT_EQ(a.total_ns, b.total_ns)
        << to_string(kind) << ": identical data must cost identically";
  }
}

TEST(Catalog, PreservesLOidsExactly) {
  const paper::UniversityExample example = paper::make_university();
  const std::unique_ptr<Federation> reloaded =
      load_catalog(save_catalog(*example.federation));
  // Spot-check a few notable objects by their original identifiers.
  EXPECT_EQ(reloaded->db(DbId{1}).class_of(example.ids.s1), "Student");
  EXPECT_EQ(reloaded->db(DbId{2}).class_of(example.ids.a1p), "Address");
  EXPECT_EQ(reloaded->goids().goid_of(example.ids.s1),
            example.federation->goids().goid_of(example.ids.s1));
}

TEST(Catalog, PreservesValueKindsAndEscapes) {
  ComponentSchema schema(DbId{1}, "odd \"name\" with \\slashes");
  schema.add_class("T")
      .add_attribute("b", PrimType::Bool)
      .add_attribute("i", PrimType::Int)
      .add_attribute("r", PrimType::Real)
      .add_attribute("s", PrimType::String)
      .add_attribute("others", ComplexType{"T", true});
  auto db = std::make_unique<ComponentDatabase>(std::move(schema));
  const LOid first = db->insert("T", {{"b", true},
                                      {"i", -42},
                                      {"r", 0.1},
                                      {"s", "quote \" and \\ slash"}});
  const LOid second =
      db->insert("T", {{"others", LocalRefSet{{first}}}});

  GlobalSchema global;
  GlobalClass cls("T", {{DbId{1}, "T"}});
  for (const char* name : {"b", "i", "r", "s"}) {
    cls.mutable_def().add_attribute(
        name, db->schema().cls("T").attribute(
                  *db->schema().cls("T").find_attribute(name)).type);
  }
  cls.mutable_def().add_attribute("others", ComplexType{"T", true});
  cls.pad_local_names();
  for (std::size_t a = 0; a < cls.def().attribute_count(); ++a)
    cls.bind_local_attr(0, a, cls.def().attribute(a).name);
  global.add_class(std::move(cls));
  GoidTable goids;
  (void)goids.register_entity("T", {first});
  (void)goids.register_entity("T", {second});
  std::vector<std::unique_ptr<ComponentDatabase>> dbs;
  dbs.push_back(std::move(db));
  const Federation federation(std::move(global), std::move(dbs),
                              std::move(goids));

  const std::unique_ptr<Federation> reloaded =
      load_catalog(save_catalog(federation));
  const Object* obj = reloaded->db(DbId{1}).fetch(first);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->value(0), Value(true));
  EXPECT_EQ(obj->value(1), Value(-42));
  EXPECT_EQ(obj->value(2), Value(0.1));
  EXPECT_EQ(obj->value(3), Value("quote \" and \\ slash"));
  EXPECT_EQ(reloaded->db(DbId{1}).fetch(second)->value(4),
            Value(LocalRefSet{{first}}));
  EXPECT_EQ(reloaded->db(DbId{1}).schema().db_name(),
            "odd \"name\" with \\slashes");
}

TEST(Catalog, RoundTripsRandomFederations) {
  Rng rng(333);
  ParamConfig config;
  config.n_objects = {20, 40};
  for (int trial = 0; trial < 5; ++trial) {
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    const std::string text = save_catalog(*synth.federation);
    const std::unique_ptr<Federation> reloaded = load_catalog(text);
    EXPECT_EQ(save_catalog(*reloaded), text);
    EXPECT_EQ(reference_answer(*reloaded, synth.query),
              reference_answer(*synth.federation, synth.query));
  }
}

TEST(Catalog, FileRoundTrip) {
  const paper::UniversityExample example = paper::make_university();
  const std::string path = ::testing::TempDir() + "university.catalog";
  save_catalog_file(*example.federation, path);
  const std::unique_ptr<Federation> reloaded = load_catalog_file(path);
  EXPECT_EQ(save_catalog(*reloaded), save_catalog(*example.federation));
  EXPECT_THROW((void)load_catalog_file("/nonexistent/nope.catalog"),
               CatalogError);
}

TEST(Catalog, MalformedInputs) {
  EXPECT_THROW((void)load_catalog("bogus directive"), CatalogError);
  EXPECT_THROW((void)load_catalog("class \"X\"\n"), CatalogError)
      << "class outside a database";
  EXPECT_THROW((void)load_catalog("database 1 \"A\"\nobject \"X\" 1\n"),
               Error)
      << "object of an undeclared class";
  EXPECT_THROW((void)load_catalog("database 1 \"A\"\nclass \"C\"\n"
                                  "object \"C\" 7\n"),
               CatalogError)
      << "out-of-order object ids";
  EXPECT_THROW((void)load_catalog("global \"G\"\n"), CatalogError)
      << "global class without constituents";
  EXPECT_THROW((void)load_catalog("entity \"G\" nonsense\n"), CatalogError);
  EXPECT_THROW((void)load_catalog("database 1 \"A\nbroken"), CatalogError)
      << "unterminated string";
}

TEST(Catalog, HandEditedCatalogGetsFederationValidation) {
  // A catalog whose entity references a nonexistent object passes parsing
  // but fails the Federation constructor's integrity checks.
  const std::string text =
      "database 1 \"A\"\n"
      "class \"C\"\n"
      "  attr \"k\" int\n"
      "object \"C\" 1\n"
      "  \"k\" = int 5\n"
      "end database\n"
      "global \"C\"\n"
      "  attr \"k\" int\n"
      "  constituent 1 \"C\"\n"
      "    bind \"k\" \"k\"\n"
      "entity \"C\" 1:99\n";
  EXPECT_THROW((void)load_catalog(text), FederationError);
  // A local far past any allocated object, or a database the catalog never
  // declared, is refused before it reaches the GOid table.
  const std::string prefix = text.substr(0, text.rfind("entity"));
  EXPECT_THROW((void)load_catalog(prefix + "entity \"C\" 1:4000000000\n"),
               FederationError);
  EXPECT_THROW((void)load_catalog(prefix + "entity \"C\" 7:1\n"),
               FederationError);
}

}  // namespace
}  // namespace isomer
