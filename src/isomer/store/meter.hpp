// Access metering.
//
// The simulation charges time per byte read from disk, per byte shipped over
// the network, and per comparison (Table 1). The store and the query
// evaluator do not know those rates; they only count *what* they did into an
// AccessMeter — objects, attribute slots, comparisons, mapping-table probes —
// and the execution strategies convert counts into simulated time via
// sim::CostParams.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "isomer/common/ids.hpp"

namespace isomer {

/// Counters of physical work performed by a store / evaluator.
struct AccessMeter {
  std::uint64_t objects_scanned = 0;  ///< objects touched by extent scans
  std::uint64_t objects_fetched = 0;  ///< objects fetched by LOid lookup
  std::uint64_t comparisons = 0;      ///< predicate / join comparisons
  std::uint64_t table_probes = 0;     ///< GOid-mapping-table probes

  /// Attribute slots of every scanned/fetched object, split by kind so byte
  /// sizes can be derived (primitive slots average S_a bytes, reference
  /// slots store an OID). Multi-valued references count as one slot.
  std::uint64_t prim_slots = 0;
  std::uint64_t ref_slots = 0;

  AccessMeter& operator+=(const AccessMeter& other) noexcept {
    objects_scanned += other.objects_scanned;
    objects_fetched += other.objects_fetched;
    comparisons += other.comparisons;
    table_probes += other.table_probes;
    prim_slots += other.prim_slots;
    ref_slots += other.ref_slots;
    return *this;
  }

  friend bool operator==(const AccessMeter&, const AccessMeter&) = default;
};

/// Models a site's buffer pool within one unit of work (paper §4.1 gives
/// every component DBMS a memory): the first access to an object reads it
/// from disk and is charged to the meter; repeated accesses hit memory and
/// charge nothing. Pass one cache per logical execution (a local query, a
/// check batch) to the store's fetch/deref/scan.
///
/// ComponentDatabase allocates LOids densely from 1, so the pool is one
/// bitset per database indexed by LOid::local; a cache shared across
/// databases keeps their objects apart by DbId.
class FetchCache {
 public:
  /// True when `id` was not yet cached (caller must charge the read).
  bool admit(LOid id) {
    if (id.db.value() >= seen_.size()) seen_.resize(id.db.value() + 1u);
    std::vector<std::uint64_t>& bits = seen_[id.db.value()];
    const std::size_t word = id.local / 64;
    if (word >= bits.size()) bits.resize(std::max(word + 1, 2 * bits.size()));
    const std::uint64_t mask = std::uint64_t{1} << (id.local % 64);
    const bool fresh = (bits[word] & mask) == 0;
    bits[word] |= mask;
    return fresh;
  }

 private:
  std::vector<std::vector<std::uint64_t>> seen_;  ///< per DbId, per local
};

}  // namespace isomer
