// The dense LOid -> GOid table (one array per database indexed by
// LOid::local): agreement with a reference std::unordered_map under
// randomized registration (driving the arrays through several growths),
// the edges of the dense index (local 0, locals past the end, databases
// never registered, duplicates after growth), batch-probe equivalence with
// the scalar path, metering of batch probes, and the merged presence probe
// used by certification.
#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "isomer/common/error.hpp"
#include "isomer/common/rng.hpp"
#include "isomer/federation/goid_table.hpp"

namespace isomer {
namespace {

class GoidShards : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoidShards, AgreesWithReferenceMapAcrossGrowth) {
  Rng rng(GetParam());
  GoidTable table;
  std::unordered_map<LOid, GOid> reference;
  std::vector<LOid> keys;
  // Enough singleton entities to force every shard through multiple grows
  // (shards start at capacity 16 and split the keyspace 16 ways).
  const std::size_t n = 3000 + rng.index(2000);
  for (std::size_t i = 0; i < n; ++i) {
    const LOid id{DbId{static_cast<std::uint16_t>(1 + rng.index(4))},
                  static_cast<std::uint32_t>(i + 1)};
    const GOid entity = table.register_entity("C", {id});
    reference.emplace(id, entity);
    keys.push_back(id);
  }
  for (const auto& [id, entity] : reference) {
    const auto found = table.goid_of(id);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(*found, entity);
  }
  // Absent keys: same local ids in an unused database, and locals past the
  // allocated range.
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(
        table.goid_of({DbId{9}, static_cast<std::uint32_t>(i + 1)}));
    EXPECT_FALSE(table.goid_of(
        {DbId{1}, static_cast<std::uint32_t>(n + 1 + rng.index(1000))}));
  }

  // Batch probe == scalar probe, element for element, including misses.
  std::vector<LOid> probes = keys;
  probes.push_back({DbId{9}, 1});
  probes.push_back({DbId{1}, static_cast<std::uint32_t>(n + 7)});
  for (std::size_t i = probes.size(); i > 1; --i)
    std::swap(probes[i - 1], probes[rng.index(i)]);
  std::vector<GOid> out(probes.size());
  AccessMeter batch_meter;
  table.goids_of(probes, out.data(), &batch_meter);
  AccessMeter scalar_meter;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    const auto scalar = table.goid_of(probes[i], &scalar_meter);
    if (scalar.has_value())
      EXPECT_EQ(out[i], *scalar) << "probe " << i;
    else
      EXPECT_EQ(out[i], GOid{0}) << "probe " << i;
  }
  // One table probe per element, exactly what the scalar sequence charges.
  EXPECT_EQ(batch_meter.table_probes, probes.size());
  EXPECT_EQ(batch_meter.table_probes, scalar_meter.table_probes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoidShards,
                         ::testing::Range<std::uint64_t>(1, 9));

TEST(GoidShards, ReserveDoesNotChangeAnswers) {
  GoidTable plain, reserved;
  reserved.reserve(5000);
  for (std::uint32_t i = 1; i <= 5000; ++i) {
    const LOid id{DbId{1}, i};
    const GOid a = plain.register_entity("C", {id});
    const GOid b = reserved.register_entity("C", {id});
    EXPECT_EQ(a, b);
  }
  for (std::uint32_t i = 1; i <= 5000; ++i) {
    const LOid id{DbId{1}, i};
    EXPECT_EQ(plain.goid_of(id), reserved.goid_of(id));
  }
}

TEST(GoidShards, DuplicateAndCrossDbRulesSurviveSharding) {
  GoidTable table;
  const LOid a{DbId{1}, 1};
  const LOid b{DbId{2}, 1};
  table.register_entity("C", {a, b});
  EXPECT_THROW(table.register_entity("C", {a}), FederationError)
      << "an LOid may map to only one entity";
  EXPECT_THROW(table.register_entity("C", {{DbId{3}, 1}, {DbId{3}, 2}}),
               FederationError)
      << "at most one isomer per database";
}

TEST(GoidShards, PresentInMatchesLoidInLoop) {
  Rng rng(77);
  GoidTable table;
  std::vector<GOid> entities;
  for (std::uint32_t i = 1; i <= 500; ++i) {
    std::vector<LOid> isomers{{DbId{1}, i}};
    if (rng.bernoulli(0.5)) isomers.push_back({DbId{2}, i});
    if (rng.bernoulli(0.25)) isomers.push_back({DbId{3}, i});
    entities.push_back(table.register_entity("C", isomers));
  }
  const std::vector<DbId> homes{DbId{1}, DbId{2}, DbId{3}, DbId{4}};
  for (const GOid entity : entities) {
    AccessMeter merged_meter, loop_meter;
    const std::size_t merged = table.present_in(entity, homes, &merged_meter);
    std::size_t counted = 0;
    for (const DbId home : homes)
      if (table.loid_in(entity, home, &loop_meter)) ++counted;
    EXPECT_EQ(merged, counted);
    EXPECT_EQ(merged_meter.table_probes, loop_meter.table_probes)
        << "merged presence probe must charge exactly the per-home loop";
  }
}

TEST(GoidShards, LocalZeroIsAnOrdinaryIndex) {
  GoidTable table;
  const GOid zero = table.register_entity("C", {{DbId{1}, 0}});
  const GOid one = table.register_entity("C", {{DbId{1}, 1}});
  EXPECT_EQ(table.goid_of({DbId{1}, 0}), zero);
  EXPECT_EQ(table.goid_of({DbId{1}, 1}), one);
  EXPECT_FALSE(table.goid_of({DbId{2}, 0}));
  EXPECT_THROW(table.register_entity("C", {{DbId{1}, 0}}), FederationError);
}

TEST(GoidShards, LocalsPastTheEndAreUnmapped) {
  GoidTable table;
  table.register_entity("C", {{DbId{1}, 3}});
  EXPECT_FALSE(table.goid_of({DbId{1}, 2})) << "a hole below the end";
  EXPECT_FALSE(table.goid_of({DbId{1}, 4}));
  EXPECT_FALSE(table.goid_of({DbId{1}, 1'000'000}));
  EXPECT_FALSE(table.goid_of({DbId{1}, 0xFFFF'FFFFu}));
}

TEST(GoidShards, UnregisteredDatabasesAreUnmapped) {
  GoidTable table;
  EXPECT_FALSE(table.goid_of({DbId{1}, 1})) << "empty table";
  table.register_entity("C", {{DbId{1}, 1}, {DbId{5}, 1}});
  EXPECT_FALSE(table.goid_of({DbId{0}, 1}));
  EXPECT_FALSE(table.goid_of({DbId{3}, 1})) << "between registered dbs";
  EXPECT_FALSE(table.goid_of({DbId{6}, 1})) << "past the last db";
  EXPECT_FALSE(table.goid_of({DbId{0xFFFF}, 1}));
  EXPECT_TRUE(table.goid_of({DbId{5}, 1}));
}

TEST(GoidShards, DuplicateDetectedAfterGrowth) {
  GoidTable table;
  const GOid early = table.register_entity("C", {{DbId{1}, 5}});
  // Grow DB1's array well past its first size, then re-register.
  for (std::uint32_t i = 6; i < 5000; ++i)
    table.register_entity("C", {{DbId{1}, i}});
  EXPECT_THROW(table.register_entity("C", {{DbId{1}, 5}}), FederationError);
  EXPECT_THROW(table.register_entity("C", {{DbId{1}, 4999}}), FederationError);
  const GOid other = table.register_entity("C", {{DbId{2}, 1}});
  EXPECT_THROW(table.add_isomer(other, {DbId{1}, 5}), FederationError);
  EXPECT_EQ(table.goid_of({DbId{1}, 5}), early)
      << "a refused registration leaves the mapping alone";
  table.add_isomer(early, {DbId{3}, 70'000});
  EXPECT_EQ(table.goid_of({DbId{3}, 70'000}), early);
  EXPECT_THROW(table.add_isomer(other, {DbId{3}, 70'000}), FederationError);
}

TEST(GoidShards, ReserveAcrossDatabasesDoesNotChangeAnswers) {
  Rng rng(91);
  GoidTable plain, reserved;
  reserved.reserve(10);  // far below what registration needs
  std::vector<LOid> keys;
  for (std::uint32_t i = 1; i <= 3000; ++i) {
    const LOid id{DbId{static_cast<std::uint16_t>(1 + rng.index(3))},
                  static_cast<std::uint32_t>(i * (1 + rng.index(3)))};
    if (plain.goid_of(id)) continue;
    EXPECT_EQ(plain.register_entity("C", {id}),
              reserved.register_entity("C", {id}));
    keys.push_back(id);
  }
  for (const LOid& id : keys) EXPECT_EQ(plain.goid_of(id), reserved.goid_of(id));
  EXPECT_EQ(plain.entity_count(), reserved.entity_count());
}

TEST(GoidShards, BatchProbeAgreesAtTheEdges) {
  GoidTable table;
  table.register_entity("C", {{DbId{1}, 0}, {DbId{2}, 7}});
  table.register_entity("C", {{DbId{1}, 9}});
  const std::vector<LOid> probes{
      {DbId{1}, 0}, {DbId{1}, 9},  {DbId{1}, 10},      {DbId{1}, 1},
      {DbId{2}, 7}, {DbId{2}, 0},  {DbId{4}, 7},       {DbId{0}, 0},
      {DbId{1}, 9}, {DbId{9}, 99}, {DbId{1}, 0xFFFFu}, {DbId{2}, 7}};
  std::vector<GOid> out(probes.size());
  AccessMeter meter;
  table.goids_of(probes, out.data(), &meter);
  EXPECT_EQ(meter.table_probes, probes.size());
  for (std::size_t i = 0; i < probes.size(); ++i)
    EXPECT_EQ(out[i], table.goid_of(probes[i]).value_or(GOid{0}))
        << "probe " << i;
}

TEST(GoidShards, EntitiesOfHeterogeneousLookup) {
  GoidTable table;
  const GOid e = table.register_entity("Student", {{DbId{1}, 1}});
  // string_view / const char* lookups must find the same vector without
  // allocating a temporary std::string key.
  const std::string_view sv = "Student";
  EXPECT_EQ(table.entities_of(sv).size(), 1u);
  EXPECT_EQ(table.entities_of("Student").front(), e);
  EXPECT_TRUE(table.entities_of("Nobody").empty());
}

}  // namespace
}  // namespace isomer
