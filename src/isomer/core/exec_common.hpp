// Shared scaffolding for the strategy executors.
//
// Each executor drives the discrete-event simulator through callbacks; this
// header provides the per-run environment (simulator + cluster + site
// mapping + span recording), the wire-size calculators for the protocol
// messages, and the attribute-projection sizing the centralized approach
// needs.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "isomer/common/rng.hpp"
#include "isomer/core/checks.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/obs/trace_session.hpp"
#include "isomer/sim/barrier.hpp"

namespace isomer::detail {

/// Object / certification flow counts attached to a charged step's
/// PhaseSpan (obs/span.hpp). All zero when a step has no natural notion of
/// objects flowing through it.
struct SpanCounts {
  std::uint64_t objects_in = 0;
  std::uint64_t objects_out = 0;
  std::uint64_t certs_resolved = 0;
  std::uint64_t certs_eliminated = 0;
};

/// Mutable state of one simulated strategy execution. Normally the env
/// owns its simulator and cluster; the shared-infrastructure constructor
/// lets several concurrent query executions contend for one cluster (see
/// core/stream.hpp).
class ExecEnv {
 public:
  ExecEnv(const Federation& federation, const GlobalQuery& query,
          const StrategyOptions& options);

  /// Shared mode: this execution runs on an externally owned simulator and
  /// cluster (which must outlive the env); busy-time/bytes figures in
  /// finish()'s report then cover the whole cluster.
  ExecEnv(const Federation& federation, const GlobalQuery& query,
          const StrategyOptions& options, Simulator& sim, Cluster& cluster);

  [[nodiscard]] const Federation& fed() const noexcept { return *fed_; }
  [[nodiscard]] const GlobalQuery& query() const noexcept { return *query_; }
  [[nodiscard]] const CostParams& costs() const noexcept {
    return options_.costs;
  }
  [[nodiscard]] const StrategyOptions& options() const noexcept {
    return options_;
  }
  [[nodiscard]] Simulator& sim() noexcept { return *sim_; }
  [[nodiscard]] Cluster& cluster() noexcept { return *cluster_; }

  [[nodiscard]] SiteIndex site_of(DbId db) const;
  [[nodiscard]] std::string site_name(SiteIndex site) const;

  /// Tags the spans this env emits with the executing strategy and (under
  /// run_query_stream) the query's sequence number in the stream.
  void set_span_context(std::string_view strategy,
                        std::uint64_t query_seq = 0) {
    span_strategy_ = strategy;
    span_query_ = query_seq;
  }

  /// Charges a meter's physical work at a site — disk bytes first, then CPU
  /// comparisons+probes — and continues with `done`. With a trace session
  /// attached, records a PhaseSpan covering the queue-inclusive interval and
  /// carrying the meter delta and `counts`.
  void charge(SiteIndex site, const AccessMeter& meter, Phase phase,
              std::string step, SpanCounts counts, Simulator::Callback done);
  void charge(SiteIndex site, const AccessMeter& meter, Phase phase,
              std::string step, Simulator::Callback done) {
    charge(site, meter, phase, std::move(step), SpanCounts{},
           std::move(done));
  }

  /// Charges CPU-only work.
  void charge_cpu(SiteIndex site, std::uint64_t comparisons, Phase phase,
                  std::string step, Simulator::Callback done);

  /// Invoked instead of `delivered` when a shipment is abandoned after the
  /// retry budget under DegradeMode::Partial; receives the site declared
  /// unreachable. Executors use it to stop waiting for the dead site's part
  /// of the protocol.
  using FailHandler = std::function<void(SiteIndex)>;

  /// Ships bytes between sites, recording a Transfer span.
  ///
  /// Without an active fault plan this is a single wire transfer. With one,
  /// each attempt's fate is drawn at send time (sender/receiver outage
  /// windows, message drop, latency spike); a lost attempt still occupies
  /// the wire, is detected at `begin + timeout_ns`, and is retransmitted
  /// after exponential backoff up to max_retries times. Exhausting the
  /// budget throws FaultError (DegradeMode::Fail) or marks the suspect site
  /// unavailable and calls `on_fail` (DegradeMode::Partial; the handler is
  /// then mandatory). Retries, give-ups and spikes are recorded as
  /// Phase::Fault marker spans.
  void ship(SiteIndex from, SiteIndex to, Bytes bytes, std::string step,
            Simulator::Callback delivered, FailHandler on_fail = nullptr);

  /// Ships one batchable protocol record. With batching disabled (the
  /// default) this forwards to ship() unchanged — bitwise-identical
  /// executions. With StrategyOptions::batch.enabled, the record is
  /// enqueued on the ShipmentBatcher instead: records that become ready at
  /// the same simulated instant under the same frame key coalesce into one
  /// "comm.batch/<n>" wire transfer of kBatchHeaderBytes + the records'
  /// payload bytes, and every record's `delivered` fires when the frame
  /// arrives. Callers pass *batched* payload sizes (per-message headers
  /// dropped — the frame header replaces them).
  void ship_record(SiteIndex from, SiteIndex to, Bytes bytes,
                   std::string step, Simulator::Callback delivered,
                   FailHandler on_fail = nullptr);

  /// True when the batched shipment layer is active for this execution.
  [[nodiscard]] bool batching() const noexcept { return batcher_ != nullptr; }

  /// Folds a site-local meter into the run-wide work aggregate.
  void aggregate(const AccessMeter& meter) { work_ += meter; }

  /// Wire traffic attributable to THIS execution alone. On an owned
  /// simulator these equal the cluster totals; on a shared cluster (query
  /// streams, the serving layer) the cluster aggregates every concurrent
  /// query while these stay per-query — the per-query execution context the
  /// multi-tenant schedulers account and bill by. Retransmissions under a
  /// fault plan count: they occupied the wire on this query's behalf.
  [[nodiscard]] Bytes wire_bytes() const noexcept { return wire_bytes_; }
  [[nodiscard]] std::uint64_t wire_messages() const noexcept {
    return wire_messages_;
  }

  /// The component databases declared unreachable so far (ascending DbId).
  [[nodiscard]] const std::set<DbId>& unavailable() const noexcept {
    return dead_;
  }
  /// True once any site has been declared unreachable — the executor must
  /// degrade its answer (fault/degrade.hpp) before finishing.
  [[nodiscard]] bool degraded() const noexcept { return !dead_.empty(); }

  /// Records a zero-cost marker span with an analytically known interval —
  /// bookkeeping that happens outside charge/ship and costs nothing in the
  /// simulation, so EXPLAIN and traces show what the machinery decided and
  /// when. The markers, by phase:
  ///   * Fault: "fault.retry", "fault.giveup" and "fault.spike" around a
  ///     faulted shipment, "fault.degrade" when assembling a degraded answer;
  ///   * Plan: the planner's per-site path ("plan.site ...") and mid-flight
  ///     switch ("plan.switch");
  ///   * Cert: "cert.hit/<n>" / "cert.miss/<n>" when a dispatch consults the
  ///     cross-query cache (core/cert_cache.hpp), "cert.discharge ..." with
  ///     the residual-atom histogram — only with a cache attached;
  ///   * Serve: "serve.tenant/<id>", the interval a submission waited between
  ///     admission and launch — only under the multi-tenant server;
  ///   * Impute: "im.impute/<n>" / "im.decline/<n>", check atoms answered
  ///     from the population model or left on the certified path — only
  ///     with an ImputeState attached (core/im.cpp).
  ///
  /// Callers that build `step` text test traced() first, so an untraced
  /// execution builds no marker text at all.
  void mark(Phase phase, SiteIndex site, std::string step, SimTime begin,
            SimTime end);

  /// True when a trace session is attached (marker spans are recorded).
  [[nodiscard]] bool traced() const noexcept {
    return options_.trace_session != nullptr;
  }

  /// Folds a run's certificate-cache outcome into the final report.
  void note_cert_outcome(std::uint64_t hits, std::uint64_t misses) noexcept {
    cert_hits_ += hits;
    cert_misses_ += misses;
  }
  [[nodiscard]] std::uint64_t cert_hits() const noexcept { return cert_hits_; }
  [[nodiscard]] std::uint64_t cert_misses() const noexcept {
    return cert_misses_;
  }

  /// Folds a run's imputation outcome into the final report.
  void note_impute_outcome(std::uint64_t imputed,
                           std::uint64_t declined) noexcept {
    imputed_atoms_ += imputed;
    impute_declined_ += declined;
  }

  /// Runs the simulator to completion and assembles the report.
  [[nodiscard]] StrategyReport finish(QueryResult result, SimTime response);

 private:
  /// Builds the front half of a PhaseSpan (everything known at charge time);
  /// null, with no site name built, when no session is attached. A Transfer
  /// span's site reads "<site>-><to>". The completion callback fills in
  /// end_ns and hands the span to the session.
  [[nodiscard]] std::shared_ptr<obs::PhaseSpan> open_span(
      Phase phase, SiteIndex site, std::string step, SimTime begin,
      const AccessMeter& work, const SpanCounts& counts,
      SiteIndex to = kGlobalSite) const;
  void close_span(const std::shared_ptr<obs::PhaseSpan>& span) const;

  void init_faults();
  void init_batching();
  [[nodiscard]] DbId db_of(SiteIndex site) const;
  /// The fault-free wire transfer (span + cluster transfer).
  void transfer_traced(SiteIndex from, SiteIndex to, Bytes bytes,
                       std::string step, Simulator::Callback arrived);
  /// One faulted transmission attempt (see ship()).
  void attempt_ship(SiteIndex from, SiteIndex to, Bytes bytes,
                    std::string step, int attempt,
                    Simulator::Callback delivered, FailHandler on_fail);

  const Federation* fed_;
  const GlobalQuery* query_;
  StrategyOptions options_;
  std::unique_ptr<Simulator> owned_sim_;
  std::unique_ptr<Cluster> owned_cluster_;
  Simulator* sim_ = nullptr;
  Cluster* cluster_ = nullptr;
  AccessMeter work_;
  Bytes wire_bytes_ = 0;            ///< this execution's transfers only
  std::uint64_t wire_messages_ = 0;
  std::string span_strategy_;
  std::uint64_t span_query_ = 0;
  std::uint64_t cert_hits_ = 0;    ///< certificate-cache outcome (see
  std::uint64_t cert_misses_ = 0;  ///< note_cert_outcome / StrategyReport)
  std::uint64_t imputed_atoms_ = 0;    ///< imputation outcome (see
  std::uint64_t impute_declined_ = 0;  ///< note_impute_outcome)

  // Fault-injection state; inert (and never touched on the hot path beyond
  // one bool test) when no enabled plan is attached.
  bool faults_enabled_ = false;
  Rng fault_rng_{0};
  std::set<DbId> dead_;
  std::uint64_t retries_ = 0;
  std::uint64_t failed_messages_ = 0;

  // Batched shipment layer; null (one pointer test per ship_record) unless
  // StrategyOptions::batch.enabled.
  std::unique_ptr<class ShipmentBatcher> batcher_;
};

/// Coalesces same-instant protocol records into framed wire transfers
/// (StrategyOptions::batch). A frame key is the sending site — on the
/// shared-medium topologies (SharedBus, CollisionBus) one frame carries a
/// sender's whole same-instant output and the records' destinations read it
/// off the broadcast medium — or the (from, to) pair on the switched
/// topologies (PointToPoint, Contentionless) and whenever a fault plan is
/// active, so outage/retry semantics stay per-destination. The first record
/// under a key schedules a flush at the *same* simulated instant
/// (schedule_after(0) runs after the already-queued events), so every
/// same-instant record joins the frame; BatchOptions::max_records caps a
/// frame, flushing it early. Each frame ships as one
/// "comm.batch/<record count>" transfer of kBatchHeaderBytes + the records'
/// payload bytes through ExecEnv::ship — under a fault plan the whole frame
/// is retried/abandoned as a unit and every record's fail handler fires.
class ShipmentBatcher {
 public:
  ShipmentBatcher(ExecEnv& env, const BatchOptions& options,
                  bool per_destination)
      : env_(&env), options_(options), per_destination_(per_destination) {}

  void enqueue(SiteIndex from, SiteIndex to, Bytes bytes, std::string step,
               Simulator::Callback delivered, ExecEnv::FailHandler on_fail);

 private:
  struct Record {
    SiteIndex to;
    Bytes bytes;
    std::string step;
    Simulator::Callback delivered;
    ExecEnv::FailHandler on_fail;
  };
  /// Frame key; `to` is kBroadcast under shared-medium keying.
  struct Key {
    SiteIndex from;
    SiteIndex to;
    friend auto operator<=>(const Key&, const Key&) = default;
  };
  static constexpr SiteIndex kBroadcast = static_cast<SiteIndex>(-1);

  void flush(const Key& key);

  ExecEnv* env_;
  BatchOptions options_;
  bool per_destination_;
  std::map<Key, std::vector<Record>> pending_;
};

/// Sets up one strategy execution on `env`'s simulator without running it;
/// `on_done` fires (inside the simulation) when the answer is ready. Used
/// directly by execute_strategy (own simulator) and by run_query_stream
/// (shared simulator, many concurrent launches).
void launch_ca(ExecEnv& env,
               std::function<void(QueryResult, SimTime)> on_done);
/// `impute` selects the IM strategy: identical wiring to BL except that an
/// ImputeState (core/im.cpp) is attached, which may answer first-round
/// check atoms from StrategyOptions::impute instead of shipping them.
/// Throws ImputeError when `impute` is set without an oracle in the
/// options.
void launch_localized(ExecEnv& env, bool use_signatures, bool eager_phase_o,
                      bool impute,
                      std::function<void(QueryResult, SimTime)> on_done);

/// Dispatches to the launcher for `kind` — the one switch shared by every
/// multi-query driver (core/stream.cpp, serve/).
void launch_strategy(ExecEnv& env, StrategyKind kind,
                     std::function<void(QueryResult, SimTime)> on_done);

/// Wire size of a local-result message: per row the root LOid and entity
/// GOid, every non-null target value (references — single or set-valued —
/// travel as GOids after mapping, per CostParams::projected_object_bytes),
/// and per unsolved predicate the item GOid + step/index bookkeeping.
[[nodiscard]] Bytes rows_wire_bytes(const CostParams& costs,
                                    const std::vector<LocalRow>& rows);

[[nodiscard]] Bytes check_request_wire_bytes(const CostParams& costs,
                                             std::size_t tasks);

[[nodiscard]] Bytes check_response_wire_bytes(const CostParams& costs,
                                              std::size_t verdicts);

/// Batched payload of one check-request message: the semijoin reduction
/// ships per task only the item GOid + predicate index (plus the origin
/// GOid on cascaded tasks) — CostParams::semijoin_task_bytes — because the
/// assistant site re-derives the assistant LOid from its replicated GOid
/// table and already holds the query text from the G1 broadcast.
[[nodiscard]] Bytes semijoin_check_request_bytes(
    const CostParams& costs, const std::vector<CheckTask>& tasks);

/// Wire size of one database's projected extents for the centralized
/// approach: per object of each involved constituent class, the LOid plus
/// the locally present involved attributes (involved_attributes).
[[nodiscard]] Bytes ca_projected_bytes(const Federation& federation, DbId db,
                                       const AttributeProjection& involved,
                                       const CostParams& costs);

}  // namespace isomer::detail
