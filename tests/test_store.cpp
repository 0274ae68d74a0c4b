// Component databases: insertion, typing, lookups, metering, buffer pool.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isomer/common/error.hpp"
#include "isomer/store/database.hpp"

namespace isomer {
namespace {

ComponentDatabase make_db() {
  ComponentSchema schema(DbId{1}, "DB1");
  schema.add_class("Department").add_attribute("name", PrimType::String);
  schema.add_class("Teacher")
      .add_attribute("name", PrimType::String)
      .add_attribute("salary", PrimType::Real)
      .add_attribute("department", ComplexType{"Department"})
      .add_attribute("mentees", ComplexType{"Teacher", true});
  return ComponentDatabase(std::move(schema));
}

TEST(Store, InsertAssignsFreshLOids) {
  ComponentDatabase db = make_db();
  const LOid a = db.insert("Department", {{"name", "CS"}});
  const LOid b = db.insert("Department", {{"name", "EE"}});
  EXPECT_NE(a, b);
  EXPECT_EQ(a.db, DbId{1});
  EXPECT_EQ(db.extent("Department").size(), 2u);
  EXPECT_EQ(db.object_count(), 2u);
}

TEST(Store, UnsetAttributesAreNull) {
  ComponentDatabase db = make_db();
  const LOid t = db.insert("Teacher", {{"name", "Ann"}});
  const Object* obj = db.fetch(t);
  ASSERT_NE(obj, nullptr);
  EXPECT_EQ(obj->value(0), Value("Ann"));
  EXPECT_TRUE(obj->value(1).is_null());
  EXPECT_TRUE(obj->value(2).is_null());
}

TEST(Store, TypeChecking) {
  ComponentDatabase db = make_db();
  EXPECT_THROW(db.insert("Teacher", {{"name", 42}}), QueryError);
  EXPECT_THROW(db.insert("Teacher", {{"salary", "lots"}}), QueryError);
  EXPECT_THROW(db.insert("Teacher", {{"department", Value(1)}}), QueryError);
  // Ints are storable into real attributes.
  EXPECT_NO_THROW(db.insert("Teacher", {{"salary", 100}}));
  // Nulls are storable everywhere.
  EXPECT_NO_THROW(db.insert("Teacher", {{"name", Value::null()}}));
}

TEST(Store, MultiValuedTyping) {
  ComponentDatabase db = make_db();
  const LOid a = db.insert("Teacher", {{"name", "A"}});
  EXPECT_NO_THROW(
      db.insert("Teacher", {{"mentees", LocalRefSet{{a}}}}));
  EXPECT_THROW(
      db.insert("Teacher", {{"mentees", LocalRef{a}}}), QueryError)
      << "single ref not storable into a multi-valued attribute";
}

TEST(Store, UnknownClassAndAttribute) {
  ComponentDatabase db = make_db();
  EXPECT_THROW(db.insert("Nope", {}), SchemaError);
  EXPECT_THROW(db.insert("Teacher", {{"nope", 1}}), QueryError);
  EXPECT_THROW((void)db.extent("Nope"), SchemaError);
  EXPECT_FALSE(db.has_extent("Nope"));
  EXPECT_TRUE(db.has_extent("Teacher"));
}

TEST(Store, SetAttribute) {
  ComponentDatabase db = make_db();
  const LOid t = db.insert("Teacher", {{"name", "Ann"}});
  db.set_attribute(t, "salary", 12.5);
  EXPECT_EQ(db.fetch(t)->value(1), Value(12.5));
  EXPECT_THROW(db.set_attribute(t, "nope", 1), QueryError);
  EXPECT_THROW(db.set_attribute(LOid{DbId{1}, 999}, "name", "x"),
               FederationError);
}

TEST(Store, ClassOf) {
  ComponentDatabase db = make_db();
  const LOid t = db.insert("Teacher", {});
  EXPECT_EQ(db.class_of(t), "Teacher");
  EXPECT_THROW((void)db.class_of(LOid{DbId{1}, 999}), FederationError);
}

TEST(Store, FetchMetersSlots) {
  ComponentDatabase db = make_db();
  const LOid t = db.insert("Teacher", {{"name", "Ann"}});
  AccessMeter meter;
  ASSERT_NE(db.fetch(t, &meter), nullptr);
  EXPECT_EQ(meter.objects_fetched, 1u);
  EXPECT_EQ(meter.prim_slots, 2u);  // name, salary
  EXPECT_EQ(meter.ref_slots, 2u);   // department, mentees
}

TEST(Store, FetchMissReturnsNullAndChargesNothing) {
  ComponentDatabase db = make_db();
  AccessMeter meter;
  EXPECT_EQ(db.fetch(LOid{DbId{1}, 999}, &meter), nullptr);
  EXPECT_EQ(meter, AccessMeter{});
}

TEST(Store, ScanMetersWholeExtent) {
  ComponentDatabase db = make_db();
  db.insert("Department", {{"name", "CS"}});
  db.insert("Department", {{"name", "EE"}});
  AccessMeter meter;
  const auto& objects = db.scan("Department", &meter);
  EXPECT_EQ(objects.size(), 2u);
  EXPECT_EQ(meter.objects_scanned, 2u);
  EXPECT_EQ(meter.prim_slots, 2u);
  EXPECT_EQ(meter.ref_slots, 0u);
}

TEST(Store, DerefFollowsLocalRefsOnly) {
  ComponentDatabase db = make_db();
  const LOid d = db.insert("Department", {{"name", "CS"}});
  AccessMeter meter;
  EXPECT_NE(db.deref(Value(LocalRef{d}), &meter), nullptr);
  EXPECT_EQ(meter.objects_fetched, 1u);
  EXPECT_EQ(db.deref(Value(42), &meter), nullptr);
  EXPECT_EQ(db.deref(Value::null(), &meter), nullptr);
  EXPECT_EQ(db.deref(Value(GlobalRef{GOid{1}}), &meter), nullptr);
}

TEST(Store, FetchCacheSuppressesRepeatCharges) {
  ComponentDatabase db = make_db();
  const LOid t = db.insert("Teacher", {{"name", "Ann"}});
  AccessMeter meter;
  FetchCache cache;
  (void)db.fetch(t, &meter, &cache);
  (void)db.fetch(t, &meter, &cache);
  (void)db.fetch(t, &meter, &cache);
  EXPECT_EQ(meter.objects_fetched, 1u) << "repeat fetches hit the pool";
}

TEST(Store, ScanPopulatesFetchCache) {
  ComponentDatabase db = make_db();
  const LOid d = db.insert("Department", {{"name", "CS"}});
  AccessMeter meter;
  FetchCache cache;
  (void)db.scan("Department", &meter, &cache);
  const auto scanned = meter;
  (void)db.fetch(d, &meter, &cache);
  EXPECT_EQ(meter, scanned) << "scanned objects are already buffered";
}

// Slot-table addressing: every id that names no object here — a hole left
// by a throwing insert, a dangling reference far past the allocated range,
// LOid 0, another database's LOid — looks up as absent and charges nothing.
void expect_absent(ComponentDatabase& db, LOid id) {
  SCOPED_TRACE(to_string(id));
  AccessMeter meter;
  FetchCache cache;
  EXPECT_EQ(db.fetch(id), nullptr);
  EXPECT_EQ(db.fetch(id, &meter), nullptr);
  EXPECT_EQ(db.fetch(id, &meter, &cache), nullptr);
  EXPECT_EQ(db.deref(Value(LocalRef{id}), &meter), nullptr);
  EXPECT_EQ(db.deref(Value(LocalRef{id}), &meter, &cache), nullptr);
  EXPECT_EQ(meter, AccessMeter{});
  EXPECT_THROW((void)db.class_of(id), FederationError);
  EXPECT_THROW(db.set_attribute(id, "name", "x"), FederationError);
}

TEST(Store, ThrowingInsertLeavesAHole) {
  ComponentDatabase db = make_db();
  const LOid a = db.insert("Teacher", {{"name", "A"}});
  // Each throwing insert consumes an LOid before its checks fail.
  EXPECT_THROW(db.insert("Teacher", {{"nope", 1}}), QueryError);
  EXPECT_THROW(db.insert("Teacher", {{"name", 42}}), QueryError);
  const LOid c = db.insert("Teacher", {{"name", "C"}});
  EXPECT_EQ(c.local, a.local + 3);
  expect_absent(db, LOid{DbId{1}, a.local + 1});
  expect_absent(db, LOid{DbId{1}, a.local + 2});
  EXPECT_EQ(db.object_count(), 2u);
  EXPECT_EQ(db.extent("Teacher").size(), 2u);
  ASSERT_NE(db.fetch(c), nullptr);
  EXPECT_EQ(db.fetch(c)->id(), c);
  EXPECT_EQ(db.fetch(c)->value(0), Value("C"));
  EXPECT_EQ(db.class_of(c), "Teacher");
}

TEST(Store, DanglingAndForeignLOidsAreAbsent) {
  ComponentDatabase db = make_db();
  const LOid d = db.insert("Department", {{"name", "CS"}});
  // A catalog-style dangling reference with a huge local value.
  const LOid dangling{DbId{1}, 4'000'000'000u};
  const LOid t = db.insert(
      "Teacher", {{"department", LocalRef{dangling}},
                  {"mentees", LocalRefSet{{dangling, LOid{DbId{1}, 0}}}}});
  expect_absent(db, dangling);
  expect_absent(db, LOid{DbId{1}, 0});
  expect_absent(db, LOid{DbId{2}, d.local});  // same local, other database
  expect_absent(db, LOid{DbId{1}, t.local + 1});  // not allocated yet
  AccessMeter meter;
  EXPECT_EQ(db.deref(db.fetch(t)->value(2), &meter), nullptr);
  EXPECT_EQ(meter, AccessMeter{});
}

TEST(Store, SlotsAddressRowsAcrossInterleavedExtents) {
  ComponentDatabase db = make_db();
  std::vector<LOid> ids;
  for (int i = 0; i < 50; ++i)
    ids.push_back(i % 3 == 0 ? db.insert("Department",
                                         {{"name", std::to_string(i)}})
                             : db.insert("Teacher",
                                         {{"name", std::to_string(i)}}));
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const Object* obj = db.fetch(ids[i]);
    ASSERT_NE(obj, nullptr);
    EXPECT_EQ(obj->id(), ids[i]);
    EXPECT_EQ(obj->value(0), Value(std::to_string(i)));
    EXPECT_EQ(db.class_of(ids[i]), i % 3 == 0 ? "Department" : "Teacher");
  }
  db.set_attribute(ids[4], "salary", 3.5);
  EXPECT_EQ(db.fetch(ids[4])->value(1), Value(3.5));
}

TEST(Store, ScanBuffersOnlyItsOwnExtent) {
  ComponentDatabase db = make_db();
  const LOid d = db.insert("Department", {{"name", "CS"}});
  const LOid t = db.insert("Teacher", {{"name", "Ann"}});
  AccessMeter meter;
  FetchCache cache;
  (void)db.fetch(d, &meter, &cache);  // read before the scan: charged
  EXPECT_EQ(meter.objects_fetched, 1u);
  (void)db.scan("Department", &meter, &cache);
  (void)db.fetch(d, &meter, &cache);
  EXPECT_EQ(meter.objects_fetched, 1u);
  (void)db.fetch(t, &meter, &cache);  // another extent: still a disk read
  (void)db.fetch(t, &meter, &cache);
  EXPECT_EQ(meter.objects_fetched, 2u);
  EXPECT_EQ(meter.objects_scanned, 1u);
}

TEST(Store, FetchCacheServesOneDatabase) {
  ComponentDatabase db = make_db();
  ComponentSchema other_schema(DbId{2}, "DB2");
  other_schema.add_class("Department").add_attribute("name",
                                                     PrimType::String);
  ComponentDatabase other(std::move(other_schema));
  const LOid d = db.insert("Department", {{"name", "CS"}});
  const LOid e = other.insert("Department", {{"name", "EE"}});
  AccessMeter meter;
  FetchCache cache;
  (void)db.fetch(d, &meter, &cache);
  EXPECT_THROW((void)other.fetch(e, &meter, &cache), ContractViolation);
  EXPECT_THROW((void)other.scan("Department", &meter, &cache),
               ContractViolation);
}

TEST(Store, MeterAddition) {
  AccessMeter a, b;
  a.objects_scanned = 1;
  a.comparisons = 2;
  b.objects_fetched = 3;
  b.table_probes = 4;
  b.prim_slots = 5;
  a += b;
  EXPECT_EQ(a.objects_scanned, 1u);
  EXPECT_EQ(a.objects_fetched, 3u);
  EXPECT_EQ(a.comparisons, 2u);
  EXPECT_EQ(a.table_probes, 4u);
  EXPECT_EQ(a.prim_slots, 5u);
}

}  // namespace
}  // namespace isomer
