// Execution strategies (paper §3).
//
// | kind | phase order | description                                   |
// |------|-------------|-----------------------------------------------|
// | CA   | O -> I -> P | centralized: ship, outerjoin, evaluate        |
// | BL   | P -> O -> I | localized: evaluate, then check assistants of |
// |      |             | the local maybe results, certify globally     |
// | PL   | O -> P -> I | localized: check assistants of *all* objects  |
// |      |             | in parallel with local evaluation             |
// | BLS  |             | BL with signature-screened assistant checks   |
// | PLS  |             | PL with signature-screened assistant checks   |
//
// The signature variants implement the paper's §3/§5 extension: a
// replicated auxiliary structure of object signatures lets the home
// database discard assistants that provably violate an equality predicate
// without shipping them (Table 1's S_s, Table 2's R_ss).
//
// Every strategy executes inside the discrete-event simulator and returns
// both the logical answer and the simulated cost figures; on consistent
// federations all strategies return the same QueryResult.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "isomer/fault/fault_plan.hpp"
#include "isomer/federation/federation.hpp"
#include "isomer/federation/indexes.hpp"
#include "isomer/federation/signature.hpp"
#include "isomer/obs/trace_session.hpp"
#include "isomer/query/query.hpp"
#include "isomer/query/result.hpp"
#include "isomer/sim/cluster.hpp"
#include "isomer/sim/cost_params.hpp"

namespace isomer {

class CertCache;

enum class StrategyKind : unsigned char { CA, BL, PL, BLS, PLS, IM };

[[nodiscard]] std::string_view to_string(StrategyKind kind) noexcept;

/// The certifying strategies — every execution path that answers by
/// shipping evidence. IM (on-the-fly imputation, core/im.cpp) is deliberately
/// excluded: its answers are probabilistic below `thresh=1.0`, so the
/// strategy-equivalence suites that sweep these arrays must not include it.
inline constexpr StrategyKind kAllStrategies[] = {
    StrategyKind::CA, StrategyKind::BL, StrategyKind::PL, StrategyKind::BLS,
    StrategyKind::PLS};
inline constexpr StrategyKind kPaperStrategies[] = {
    StrategyKind::CA, StrategyKind::BL, StrategyKind::PL};

/// Batched shipment layer (core/exec_common.hpp: ShipmentBatcher).
/// Disabled by default; when enabled, same-(from,to,phase) shipments that
/// become ready at the same simulated instant coalesce into one wire frame
/// of kBatchHeaderBytes + the records' payload bytes, and the assistant
/// check requests degrade to semijoin GOid shipping
/// (CostParams::semijoin_task_bytes). With `enabled == false` every
/// execution is bitwise identical to a build without the batching layer.
struct BatchOptions {
  bool enabled = false;
  /// Flush a frame once it holds this many records (0 = unbounded: flush
  /// only when the simulated instant ends).
  std::size_t max_records = 0;
};

/// Abstract imputation oracle consumed by the IM strategy (core/im.cpp).
/// The concrete implementation — per-class per-attribute population
/// estimators with an MCAR/MAR mechanism model — is analytic/impute.hpp's
/// ImputeModel; core sees only this interface because the analytic library
/// links *against* core.
class ImputeOracle {
 public:
  virtual ~ImputeOracle() = default;

  /// Outcome of consulting the oracle for one first-round check atom.
  struct Decision {
    /// Whether the mechanism model allows upgrading this null at all
    /// (false e.g. when the data refute MCAR, or the model is stale).
    bool upgradable = false;
    /// The most likely pooled verdict — genuinely three-valued: Unknown
    /// predicts the protocol would come back undecided (e.g. a canonically
    /// null reference on the suffix), which still strips the traffic but
    /// upgrades nothing.
    Truth verdict = Truth::Unknown;
    /// The smoothed probability of `verdict` — strictly below 1, so a
    /// threshold of 1.0 never imputes.
    double confidence = 0.0;
  };

  /// Decide the unsolved suffix of query.predicates[predicate] starting at
  /// `step` on `item`, planned by home database `home`. `mar` selects the
  /// missing-at-random estimate (stratified by the learned covariate).
  [[nodiscard]] virtual Decision decide(const Federation& federation,
                                        const GlobalQuery& query, GOid item,
                                        std::size_t predicate,
                                        std::size_t step, DbId home,
                                        bool mar) const = 0;
};

struct StrategyOptions {
  CostParams costs{};
  NetworkTopology topology = NetworkTopology::SharedBus;
  /// Prebuilt signature index for BLS/PLS; when null the executor builds one
  /// on the fly (maintenance of the auxiliary structure is not charged to
  /// the query, matching the paper's treatment of the GOid tables).
  const SignatureIndex* signatures = nullptr;
  /// Optional extent indexes: the localized strategies answer their local
  /// queries from index candidates instead of scans where possible
  /// (federation/indexes.hpp). Not part of the paper's scan-based cost
  /// model; an extension studied in bench_ablation.
  const ExtentIndexes* indexes = nullptr;
  /// Phase-span observability sink (obs/trace_session.hpp), the only record
  /// of what the execution did and when: every phase boundary is recorded
  /// as a PhaseSpan carrying its AccessMeter delta, wire traffic and
  /// object/certification counts. Null (the default) disables recording
  /// entirely — the executors then pay a single pointer test per step and
  /// charge nothing extra.
  obs::TraceSession* trace_session = nullptr;
  /// Fault-injection plan (fault/fault_plan.hpp). Null or a disabled plan
  /// takes the exact fault-free code path: the execution is bitwise
  /// identical to a build without fault injection.
  const fault::FaultPlan* faults = nullptr;
  /// Bounded-retry policy applied to every shipment while `faults` is
  /// active; timeouts and backoff are charged to the simulated clock.
  fault::RetryPolicy retry{};
  /// What to do once retries are exhausted: abort the query (Fail) or
  /// degrade gracefully per fault/degrade.hpp (Partial).
  fault::DegradeMode degrade = fault::DegradeMode::Fail;
  /// Batched semijoin shipping; off by default (see BatchOptions).
  BatchOptions batch{};
  /// Cross-query certificate cache (core/cert_cache.hpp). Null (the
  /// default) disables certificate sharing entirely — the execution is
  /// bitwise identical to a build without the cache. When set (the serving
  /// layer passes its per-server cache, harnesses honour --certcache),
  /// first-round assistant checks whose (GOid, atom signature) is cached at
  /// the current federation epoch are answered locally instead of shipped,
  /// and pooled verdicts are written back at certification time unless the
  /// execution degraded (partial evidence must never be cached).
  CertCache* cert_cache = nullptr;
  /// Imputation oracle for StrategyKind::IM (analytic/impute.hpp builds the
  /// concrete model; executing IM without one throws ImputeError — the
  /// estimators live a layer above core and cannot be built here). The
  /// other strategies ignore all three fields entirely.
  const ImputeOracle* impute = nullptr;
  /// Confidence an imputed verdict must reach before the check traffic is
  /// replaced; smoothed confidences are strictly below 1, so the default
  /// 1.0 makes IM bitwise identical to BL.
  double impute_threshold = 1.0;
  /// Assume missing-at-random (stratified estimates) instead of the default
  /// missing-completely-at-random gate.
  bool impute_mar = false;
};

/// The simulated execution's outcome: the logical answer plus the two cost
/// figures the paper reports and their breakdown.
struct StrategyReport {
  QueryResult result;

  SimTime response_ns = 0;  ///< makespan: when the final answer is ready
  SimTime total_ns = 0;     ///< sum of busy time over every resource
  SimTime cpu_ns = 0;
  SimTime disk_ns = 0;
  SimTime net_ns = 0;

  Bytes bytes_transferred = 0;
  std::uint64_t messages = 0;
  AccessMeter work;  ///< aggregated logical work across all sites

  /// Fault-injection outcome (all zero/empty on a fault-free run): the
  /// component databases declared unreachable during execution (ascending),
  /// the number of re-sent shipments, and the shipments abandoned after the
  /// retry budget.
  std::vector<DbId> unavailable_sites;
  std::uint64_t retries = 0;
  std::uint64_t failed_messages = 0;

  /// Certificate-cache outcome (both zero unless StrategyOptions::cert_cache
  /// was set): first-round check atoms answered from the cache vs shipped.
  std::uint64_t cert_hits = 0;
  std::uint64_t cert_misses = 0;

  /// Imputation outcome (both zero unless the IM strategy ran): first-round
  /// check atoms answered by the population model vs consulted but left on
  /// the certified path (below threshold / not upgradable).
  std::uint64_t imputed_atoms = 0;
  std::uint64_t impute_declined = 0;
};

/// Runs `query` over `federation` under the given strategy and returns the
/// answer with its simulated costs.
[[nodiscard]] StrategyReport execute_strategy(
    StrategyKind kind, const Federation& federation, const GlobalQuery& query,
    const StrategyOptions& options = {});

/// The logical answer alone, computed through the centralized reference path
/// without the simulator — the test oracle.
[[nodiscard]] QueryResult reference_answer(const Federation& federation,
                                           const GlobalQuery& query);

namespace detail {
StrategyReport execute_ca(const Federation&, const GlobalQuery&,
                          const StrategyOptions&);
StrategyReport execute_bl(const Federation&, const GlobalQuery&,
                          const StrategyOptions&, bool use_signatures);
StrategyReport execute_pl(const Federation&, const GlobalQuery&,
                          const StrategyOptions&, bool use_signatures);
}  // namespace detail

}  // namespace isomer
