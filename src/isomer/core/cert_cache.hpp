// Cross-query certificate cache.
//
// Assistant checking is the expensive half of the localized strategies:
// every unsolved (item, predicate) atom costs a remote round trip. But the
// verdict for an atom is a property of the *data*, not of the query that
// asked — two queries sharing a predicate over the same entity need the
// answer exactly once. The serving layer therefore keeps one CertCache per
// server: pooled verdicts are inserted at certification time keyed by
// (GOid, atom signature), and later submissions consult the cache before
// dispatching check requests, synthesizing local verdicts for hits.
//
// The atom signature is predicate_signature(pred) (the canonical printed
// predicate — query/condition.hpp) mixed with the unsolved step AND the
// dispatching home database (CertWriteback::key_signature): the same holder
// stalled at different steps keys distinct certificates, and because
// plan_checks never checks the home's own isomer, evidence gathered on one
// home's behalf is not interchangeable with another's.
//
// Coherence is by epoch: every entry is stamped with Federation::epoch() at
// insertion, and a lookup only hits when the stored epoch equals the
// caller's. Any mutation anywhere in the federation moves the epoch
// (store/extent.hpp version counters), so stale certificates turn into
// misses and are overwritten in place — the cache can serve wrong-epoch
// data for exactly zero probes.
//
// Layout: a key is a (GOid, 64-bit condition signature) pair, too sparse
// for an array, so the cache hashes it into 16 independent open-addressed
// shards (flat power-of-two slot arrays, linear probing, goid 0 the empty
// sentinel, growth at 7/8 load), shard chosen by the hash's top bits and
// slot by its low bits. Probes are NOT charged to any AccessMeter: like the
// signature index, the cache is a replicated auxiliary structure outside
// the paper's cost model — its benefit shows up as the check traffic it
// removes, never as hidden work it adds.
//
// The cache is deliberately not thread-safe; the serving loop is a
// deterministic single-threaded event simulation and each bench trial owns
// its own cache. See docs/CONDITIONS.md.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "isomer/common/ids.hpp"
#include "isomer/common/truth.hpp"

namespace isomer {

class CertCache {
 public:
  /// `max_entries` caps the resident certificate count (0 = unbounded, the
  /// --certcache=on setting). When an insert would push the total past the
  /// cap, the receiving shard is cleared first — a deterministic coarse
  /// eviction that depends only on the operation sequence.
  explicit CertCache(std::size_t max_entries = 0)
      : max_entries_(max_entries) {}

  struct Stats {
    std::uint64_t hits = 0;        ///< lookups answered from the cache
    std::uint64_t misses = 0;      ///< lookups with no current-epoch entry
    std::uint64_t insertions = 0;  ///< certificates stored (incl. updates)
    std::uint64_t stale = 0;       ///< misses that found a wrong-epoch entry
    std::uint64_t evicted = 0;     ///< entries dropped by the capacity cap
  };

  /// The pooled verdict cached for (item, signature) at `epoch`, or nullopt.
  /// A wrong-epoch entry is a miss (counted in stats().stale as well).
  [[nodiscard]] std::optional<Truth> lookup(GOid item,
                                            std::uint64_t signature,
                                            std::uint64_t epoch);

  /// Stores (or overwrites) the certificate for (item, signature).
  void insert(GOid item, std::uint64_t signature, std::uint64_t epoch,
              Truth truth);

  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t max_entries() const noexcept {
    return max_entries_;
  }

  /// Drops every certificate (counters are kept).
  void clear();

 private:
  struct Shard {
    struct Slot {
      std::uint64_t goid = 0;  ///< 0 = empty (real GOids start at 1)
      std::uint64_t signature = 0;
      std::uint64_t epoch = 0;
      Truth truth = Truth::Unknown;
    };
    std::vector<Slot> slots;
    std::size_t size = 0;
  };

  static constexpr std::size_t kShardBits = 4;
  static constexpr std::size_t kShardCount = std::size_t{1} << kShardBits;

  /// One well-mixed word per key (a splitmix finalizer): top bits pick the
  /// shard, low bits the slot.
  static std::uint64_t hash_key(GOid item, std::uint64_t signature) noexcept {
    std::uint64_t x =
        (item.value() * 0x9e3779b97f4a7c15ULL) ^ signature;
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  static std::size_t shard_of(std::uint64_t hash) noexcept {
    return static_cast<std::size_t>(hash >> (64 - kShardBits));
  }

  void grow_shard(Shard& shard, std::size_t min_capacity);

  std::array<Shard, kShardCount> shards_;
  std::size_t size_ = 0;
  std::size_t max_entries_ = 0;
  Stats stats_;
};

}  // namespace isomer
