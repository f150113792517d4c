// Cross-query certificate cache (core/cert_cache.hpp): accounting, epoch
// coherence against real extent mutation, equivalence of the sharded
// open-addressed layout with a reference map, and the end-to-end serving
// contract — a cached run answers every submission identically to a cold
// one while spending no more wire, and a warm second wave spends strictly
// less than the cold first one.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isomer/common/rng.hpp"
#include "isomer/core/cert_cache.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/obs/trace_session.hpp"
#include "isomer/serve/server.hpp"
#include "isomer/store/database.hpp"
#include "isomer/workload/arrivals.hpp"
#include "isomer/workload/paper_example.hpp"

namespace isomer {
namespace {

using serve::ServeOptions;
using serve::ServeReport;
using serve::ServeRequest;
using serve::ServeSpec;

TEST(CertCache, HitMissAndStaleAccounting) {
  CertCache cache;
  const GOid item{42};
  const std::uint64_t sig = 0xfeedULL;

  EXPECT_FALSE(cache.lookup(item, sig, 1).has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);

  cache.insert(item, sig, 1, Truth::True);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 1u);

  const auto hit = cache.lookup(item, sig, 1);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(is_true(*hit));
  EXPECT_EQ(cache.stats().hits, 1u);

  // Same item, different signature: a different atom, not a hit.
  EXPECT_FALSE(cache.lookup(item, sig ^ 1, 1).has_value());
  EXPECT_EQ(cache.stats().misses, 2u);

  // Wrong epoch: a miss that found a resident entry — counted stale too.
  EXPECT_FALSE(cache.lookup(item, sig, 2).has_value());
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_EQ(cache.stats().stale, 1u);

  // Refreshing the certificate overwrites in place: no growth, and the new
  // epoch hits while the old one is stale.
  cache.insert(item, sig, 2, Truth::False);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.stats().insertions, 2u);
  const auto refreshed = cache.lookup(item, sig, 2);
  ASSERT_TRUE(refreshed.has_value());
  EXPECT_TRUE(is_false(*refreshed));
  EXPECT_FALSE(cache.lookup(item, sig, 1).has_value());

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(item, sig, 2).has_value());
}

TEST(CertCache, ExtentMutationMovesTheEpochAndInvalidates) {
  // The full coherence chain: an insert anywhere bumps Extent::version(),
  // which moves ComponentDatabase::mutation_epoch() (and so
  // Federation::epoch()), which turns every certificate stamped with the
  // old epoch into a stale miss.
  ComponentSchema schema(DbId{1}, "DB1");
  schema.add_class("C").add_attribute("v", PrimType::Real);
  ComponentDatabase db(std::move(schema));
  db.insert("C", {{"v", Value(1.0)}});

  const std::uint64_t before = db.mutation_epoch();
  const std::uint64_t extent_before = db.extent("C").version();

  CertCache cache;
  cache.insert(GOid{1}, 0xabcULL, before, Truth::True);
  ASSERT_TRUE(cache.lookup(GOid{1}, 0xabcULL, before).has_value());

  db.insert("C", {{"v", Value(2.0)}});
  EXPECT_GT(db.extent("C").version(), extent_before);
  const std::uint64_t after = db.mutation_epoch();
  EXPECT_GT(after, before);

  // The certificate was derived from pre-mutation data: current-epoch
  // lookups must refuse it.
  EXPECT_FALSE(cache.lookup(GOid{1}, 0xabcULL, after).has_value());
  EXPECT_EQ(cache.stats().stale, 1u);

  // Re-certifying under the new epoch restores hits without growing.
  cache.insert(GOid{1}, 0xabcULL, after, Truth::True);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.lookup(GOid{1}, 0xabcULL, after).has_value());
}

TEST(CertCache, MatchesReferenceMapAcrossRandomOperations) {
  // The sharded open-addressed table must be observationally equal to the
  // obvious reference: a map keyed (goid, signature) holding (epoch, truth),
  // where a lookup hits iff the key exists at the same epoch. Keys are drawn
  // from a small universe so overwrites, epoch bumps and probe collisions
  // all happen; the cache is unbounded here (eviction is a capacity policy,
  // not part of the map contract).
  struct Entry {
    std::uint64_t epoch;
    Truth truth;
  };
  using RefKey = std::pair<std::uint64_t, std::uint64_t>;
  struct RefHash {
    std::size_t operator()(const RefKey& k) const noexcept {
      return std::hash<std::uint64_t>{}(k.first * 31 + k.second);
    }
  };
  constexpr Truth kTruths[] = {Truth::False, Truth::Unknown, Truth::True};

  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    Rng rng(derive_stream(515, seed));
    CertCache cache;
    std::unordered_map<RefKey, Entry, RefHash> reference;
    std::uint64_t expected_hits = 0, expected_misses = 0;
    for (int op = 0; op < 20'000; ++op) {
      const GOid item{1 + rng.index(64)};
      const std::uint64_t sig = 0x9e3779b97f4a7c15ULL * (1 + rng.index(8));
      const std::uint64_t epoch = 1 + rng.index(3);
      const RefKey key{item.value(), sig};
      if (rng.bernoulli(0.4)) {
        const Truth truth = kTruths[rng.index(3)];
        cache.insert(item, sig, epoch, truth);
        reference[key] = Entry{epoch, truth};
      } else {
        const auto got = cache.lookup(item, sig, epoch);
        const auto it = reference.find(key);
        if (it != reference.end() && it->second.epoch == epoch) {
          ++expected_hits;
          ASSERT_TRUE(got.has_value()) << "seed " << seed << " op " << op;
          ASSERT_EQ(*got, it->second.truth) << "seed " << seed << " op " << op;
        } else {
          ++expected_misses;
          ASSERT_FALSE(got.has_value()) << "seed " << seed << " op " << op;
        }
      }
    }
    EXPECT_EQ(cache.size(), reference.size()) << "seed " << seed;
    EXPECT_EQ(cache.stats().hits, expected_hits) << "seed " << seed;
    EXPECT_EQ(cache.stats().misses, expected_misses) << "seed " << seed;
  }
}

TEST(CertCache, CapacityCapEvictsDeterministically) {
  // The cap is enforced by clearing the receiving shard — coarse but a pure
  // function of the operation sequence. Filling far past the cap must
  // record evictions, keep the table bounded well below the inserted count,
  // and never corrupt surviving entries (every lookup is either a correct
  // hit or a miss; the reference-equivalence test covers exactness).
  CertCache cache(64);
  EXPECT_EQ(cache.max_entries(), 64u);
  for (std::uint64_t i = 1; i <= 1000; ++i)
    cache.insert(GOid{i}, i * 0xbf58476d1ce4e5b9ULL, 1, Truth::True);
  EXPECT_GT(cache.stats().evicted, 0u);
  EXPECT_LT(cache.size(), 200u);  // 64 + one shard's worth of slack at most
  std::uint64_t resident = 0;
  for (std::uint64_t i = 1; i <= 1000; ++i) {
    const auto got = cache.lookup(GOid{i}, i * 0xbf58476d1ce4e5b9ULL, 1);
    if (!got.has_value()) continue;
    ++resident;
    EXPECT_TRUE(is_true(*got));
  }
  EXPECT_EQ(resident, cache.size());

  // Replaying the identical sequence reproduces the identical cache.
  CertCache replay(64);
  for (std::uint64_t i = 1; i <= 1000; ++i)
    replay.insert(GOid{i}, i * 0xbf58476d1ce4e5b9ULL, 1, Truth::True);
  EXPECT_EQ(replay.size(), cache.size());
  EXPECT_EQ(replay.stats().evicted, cache.stats().evicted);
}

TEST(CertCache, TraceSpansNameHitsMissesAndDischarge) {
  // The cert.* markers the trace layer documents (docs/TRACING.md) must
  // actually reach an attached TraceSession: a cold cached run consults the
  // cache and misses (cert.miss/<n>) and certifies with the residual-atom
  // histogram (cert.discharge atoms=...); a warm replay hits (cert.hit/<n>).
  // Without a cache no Phase::Cert span may ever be recorded.
  const paper::UniversityExample example = paper::make_university();

  const auto run = [&](CertCache* cache, obs::TraceSession* session) {
    StrategyOptions options;
    options.cert_cache = cache;
    options.trace_session = session;
    return execute_strategy(StrategyKind::BL, *example.federation,
                            paper::q1(), options);
  };
  const auto count_steps = [](const obs::TraceSession& session,
                              const std::string& prefix) {
    std::size_t n = 0;
    for (const obs::PhaseSpan& span : session.spans())
      if (span.phase == Phase::Cert && span.step.rfind(prefix, 0) == 0) ++n;
    return n;
  };

  obs::TraceSession uncached_session;
  (void)run(nullptr, &uncached_session);
  for (const obs::PhaseSpan& span : uncached_session.spans())
    EXPECT_NE(span.phase, Phase::Cert)
        << "no cache attached, but recorded '" << span.step << "'";

  CertCache cache;
  obs::TraceSession cold_session;
  (void)run(&cache, &cold_session);
  EXPECT_GT(count_steps(cold_session, "cert.miss/"), 0u)
      << "cold run must record its cache misses";
  EXPECT_EQ(count_steps(cold_session, "cert.hit/"), 0u);
  ASSERT_EQ(count_steps(cold_session, "cert.discharge"), 1u);
  for (const obs::PhaseSpan& span : cold_session.spans())
    if (span.phase == Phase::Cert && span.step.rfind("cert.discharge", 0) == 0)
      EXPECT_NE(span.step.find("atoms="), std::string::npos) << span.step;

  obs::TraceSession warm_session;
  (void)run(&cache, &warm_session);
  EXPECT_GT(count_steps(warm_session, "cert.hit/"), 0u)
      << "warm run must record its cache hits";
  EXPECT_EQ(count_steps(warm_session, "cert.miss/"), 0u)
      << "a fully warmed run never misses";
}

// ---- Serving-layer contract -------------------------------------------------

// Open loop only: the arrival schedule and per-submission pool picks are
// pre-drawn from spec.seed, so submission i runs the SAME query in every
// run regardless of execution speed. A closed loop would not do — there the
// interleaving of client resubmissions depends on completion times, which
// the cache changes, so per-index comparisons would mix different queries.
ServeSpec open_spec(std::size_t n, std::uint64_t seed) {
  ServeSpec spec;
  spec.mode = serve::ArrivalMode::Open;
  spec.rate_qps = 200;
  spec.n_queries = n;
  spec.queue_limit = 0;
  spec.site_inflight = 2;
  spec.seed = seed;
  return spec;
}

TEST(CertCacheServe, CachedRunsAnswerIdenticallyAndSpendNoMoreWire) {
  // 50 seeds, each a different derived query pool and arrival schedule. For
  // every seed the same workload runs cold (no cache) and then twice through
  // one shared cache; every submission's QueryResult — rows AND statuses —
  // must be identical, the cached waves must not spend more wire than the
  // cold run, and across all seeds the cache must actually hit.
  const paper::UniversityExample example = paper::make_university();
  std::uint64_t total_hits = 0;
  Bytes cold_wire = 0, wave1_wire = 0, wave2_wire = 0;
  for (std::uint64_t seed = 0; seed < 50; ++seed) {
    Rng rng(derive_stream(616, seed));
    const std::vector<GlobalQuery> queries =
        workload::derive_query_pool(paper::q1(), 3, rng);
    std::vector<ServeRequest> pool;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      ServeRequest request;
      request.query = queries[i];
      request.kind = i % 2 == 0 ? StrategyKind::BL : StrategyKind::PL;
      request.predicted_cost_s = 1.0 + static_cast<double>(i);
      pool.push_back(std::move(request));
    }
    const ServeSpec spec = open_spec(8, seed);

    const ServeReport cold = serve::serve(*example.federation, pool, spec, {});
    EXPECT_EQ(cold.cert_hits, 0u) << "no cache, no hits";
    EXPECT_EQ(cold.cert_misses, 0u);

    CertCache cache;
    ServeOptions cached_options;
    cached_options.exec.cert_cache = &cache;
    const ServeReport wave1 =
        serve::serve(*example.federation, pool, spec, cached_options);
    const ServeReport wave2 =
        serve::serve(*example.federation, pool, spec, cached_options);

    ASSERT_EQ(wave1.outcomes.size(), cold.outcomes.size()) << "seed " << seed;
    ASSERT_EQ(wave2.outcomes.size(), cold.outcomes.size()) << "seed " << seed;
    for (std::size_t i = 0; i < cold.outcomes.size(); ++i) {
      ASSERT_EQ(wave1.outcomes[i].result, cold.outcomes[i].result)
          << "seed " << seed << " submission " << i;
      ASSERT_EQ(wave2.outcomes[i].result, cold.outcomes[i].result)
          << "seed " << seed << " submission " << i;
    }
    EXPECT_LE(wave1.bytes_transferred, cold.bytes_transferred)
        << "seed " << seed;
    EXPECT_LE(wave2.bytes_transferred, wave1.bytes_transferred)
        << "seed " << seed;
    // Σ per-submission cache accounting equals the report totals.
    std::uint64_t hit_sum = 0, miss_sum = 0;
    for (const serve::ServeOutcome& outcome : wave1.outcomes) {
      hit_sum += outcome.cert_hits;
      miss_sum += outcome.cert_misses;
    }
    EXPECT_EQ(hit_sum, wave1.cert_hits) << "seed " << seed;
    EXPECT_EQ(miss_sum, wave1.cert_misses) << "seed " << seed;

    total_hits += wave1.cert_hits + wave2.cert_hits;
    cold_wire += cold.bytes_transferred;
    wave1_wire += wave1.bytes_transferred;
    wave2_wire += wave2.bytes_transferred;
  }
  EXPECT_GT(total_hits, 0u) << "the cache never hit across 50 seeds";
  EXPECT_LT(wave2_wire, cold_wire)
      << "warm runs must beat cold ones somewhere across 50 seeds";
  EXPECT_LE(wave2_wire, wave1_wire);
}

TEST(CertCacheServe, WarmWaveSpendsStrictlyLessThanColdWave) {
  // The bench_serve panel's acceptance, asserted fault-free where it is
  // exact: the paper pool has maybe rows (Tony stalls on address/salary), so
  // a warm replay must strip at least one first-round check request.
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0},
                                       {paper::q1(), StrategyKind::PL, 2.0}};
  const ServeSpec spec = open_spec(10, 9);

  CertCache cache;
  ServeOptions options;
  options.exec.cert_cache = &cache;
  const ServeReport wave1 = serve::serve(*example.federation, pool, spec, options);
  const ServeReport wave2 = serve::serve(*example.federation, pool, spec, options);

  EXPECT_GT(wave1.cert_misses, 0u) << "cold wave must populate the cache";
  EXPECT_GT(wave2.cert_hits, wave1.cert_hits);
  EXPECT_EQ(wave2.cert_misses, 0u) << "a fully warmed wave never misses";
  EXPECT_LT(wave2.bytes_transferred, wave1.bytes_transferred);
  EXPECT_GT(cache.size(), 0u);

  // And the answers still match the cold reference exactly.
  const ServeReport cold = serve::serve(*example.federation, pool, spec, {});
  ASSERT_EQ(wave2.outcomes.size(), cold.outcomes.size());
  for (std::size_t i = 0; i < cold.outcomes.size(); ++i)
    EXPECT_EQ(wave2.outcomes[i].result, cold.outcomes[i].result) << i;
}

}  // namespace
}  // namespace isomer
