// The dense LOid -> GOid table (one array per DbId, indexed by
// LOid::local): agreement with a reference std::unordered_map under
// randomized registration (growing every database's array many times),
// misses for other databases, local 0 and ids past the end, batch-probe
// equivalence with the scalar path, metering of batch probes, and the
// merged presence probe used by certification.
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
  // Enough singleton entities to grow every database's array many times.
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

TEST(GoidShards, MissesAreChargedOneProbe) {
  GoidTable table;
  const GOid g = table.register_entity("C", {{DbId{2}, 3}});
  for (const LOid miss : {LOid{DbId{2}, 0}, LOid{DbId{2}, 2},
                          LOid{DbId{2}, 4}, LOid{DbId{1}, 3},
                          LOid{DbId{65535}, 3}}) {
    AccessMeter meter;
    EXPECT_FALSE(table.goid_of(miss, &meter)) << miss;
    EXPECT_EQ(meter.table_probes, 1u) << miss;
  }
  EXPECT_EQ(table.goid_of({DbId{2}, 3}), g);
  EXPECT_THROW(table.register_entity("C", {{DbId{1}, 0}}), FederationError)
      << "local 0 is never an allocated object";
  EXPECT_THROW(table.add_isomer(g, {DbId{1}, 0}), FederationError);
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
