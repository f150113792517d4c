// Component databases: insertion, typing, lookups, metering, buffer pool.
#include <gtest/gtest.h>

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

TEST(Store, UnallocatedLOidsMissLikeUnknownOnes) {
  // The LOid directory is an array indexed by LOid::local; every id outside
  // it — another database's, the never-allocated local 0, one past the last
  // allocation — must miss exactly as an unknown key did in a hash map.
  ComponentDatabase db = make_db();
  const LOid d = db.insert("Department", {{"name", "CS"}});
  db.insert("Teacher", {{"department", LocalRef{d}}});
  const LOid unknown[] = {LOid{DbId{2}, d.local}, LOid{DbId{1}, 0},
                          LOid{DbId{1}, 3}, LOid{DbId{1}, 0xFFFFFFFFu}};
  for (const LOid id : unknown) {
    AccessMeter meter;
    FetchCache cache;
    EXPECT_EQ(db.fetch(id, &meter), nullptr) << to_string(id);
    EXPECT_EQ(db.fetch(id, &meter, &cache), nullptr) << to_string(id);
    EXPECT_EQ(db.deref(Value(LocalRef{id}), &meter, &cache), nullptr)
        << to_string(id);
    const ResolvedObject resolved = db.resolve(id, &meter, &cache);
    EXPECT_EQ(resolved.obj, nullptr) << to_string(id);
    EXPECT_EQ(resolved.cls, nullptr) << to_string(id);
    EXPECT_EQ(meter, AccessMeter{}) << to_string(id) << " was charged";
    EXPECT_THROW((void)db.class_of(id), FederationError) << to_string(id);
    EXPECT_THROW(db.set_attribute(id, "name", "x"), FederationError)
        << to_string(id);
  }
}

TEST(Store, FailedInsertsTakeNoLOid) {
  // An insert that throws stores nothing and must not take an LOid either:
  // every later object has to stay reachable under the id it was given.
  ComponentDatabase db = make_db();
  EXPECT_THROW(db.insert("Teacher", {{"name", 42}}), QueryError);
  EXPECT_THROW(db.insert("Teacher", {{"nope", 1}}), QueryError);
  EXPECT_THROW(db.insert("Nope", {}), SchemaError);
  const LOid a = db.insert("Teacher", {{"name", "Ann"}});
  EXPECT_EQ(a, (LOid{DbId{1}, 1}));
  ASSERT_NE(db.fetch(a), nullptr);
  EXPECT_EQ(db.fetch(a)->id(), a);
  EXPECT_EQ(db.fetch(a)->value(0), Value("Ann"));
  EXPECT_EQ(db.class_of(a), "Teacher");
  EXPECT_EQ(db.fetch(LOid{DbId{1}, 2}), nullptr) << "not allocated yet";

  EXPECT_THROW(db.insert("Department", {{"name", 1.5}}), QueryError);
  const LOid b = db.insert("Department", {{"name", "CS"}});
  EXPECT_EQ(b, (LOid{DbId{1}, 2}));
  ASSERT_NE(db.fetch(b), nullptr);
  EXPECT_EQ(db.fetch(b)->id(), b);
  EXPECT_EQ(db.fetch(b)->value(0), Value("CS"));
  EXPECT_EQ(db.class_of(b), "Department");
  EXPECT_EQ(db.fetch(a)->id(), a);
  EXPECT_EQ(db.class_of(a), "Teacher");
  EXPECT_EQ(db.fetch(LOid{DbId{1}, 3}), nullptr);
  EXPECT_EQ(db.object_count(), 2u);
}

TEST(Store, ResolveReturnsObjectAndClass) {
  ComponentDatabase db = make_db();
  const LOid d = db.insert("Department", {{"name", "CS"}});
  const LOid t = db.insert("Teacher", {{"name", "Ann"}});
  AccessMeter meter;
  const ResolvedObject resolved = db.resolve(t, &meter);
  ASSERT_NE(resolved.obj, nullptr);
  EXPECT_EQ(resolved.obj->id(), t);
  EXPECT_EQ(resolved.cls->name(), "Teacher");
  EXPECT_EQ(db.resolve(d).cls->name(), "Department");
  AccessMeter fetched;
  (void)db.fetch(t, &fetched);
  EXPECT_EQ(meter, fetched) << "resolve charges exactly what fetch does";
}

TEST(Store, FetchCacheSharedAcrossDatabasesChargesEachObjectOnce) {
  // Both databases allocate local 1; a cache shared between them must keep
  // the two objects apart by DbId.
  ComponentDatabase db1 = make_db();
  ComponentSchema schema(DbId{2}, "DB2");
  schema.add_class("Department").add_attribute("name", PrimType::String);
  ComponentDatabase db2(std::move(schema));
  const LOid a = db1.insert("Department", {{"name", "CS"}});
  const LOid b = db2.insert("Department", {{"name", "EE"}});
  ASSERT_EQ(a.local, b.local);
  AccessMeter meter;
  FetchCache cache;
  for (int round = 0; round < 3; ++round) {
    ASSERT_NE(db1.fetch(a, &meter, &cache), nullptr);
    ASSERT_NE(db2.resolve(b, &meter, &cache).obj, nullptr);
  }
  EXPECT_EQ(meter.objects_fetched, 2u);
  EXPECT_EQ(meter.prim_slots, 2u);
}

}  // namespace
}  // namespace isomer
