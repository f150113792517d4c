// Query-serving layer: many independent global queries, one federation.
//
// The paper — and execute_strategy — simulate one query at a time, and
// core/stream.hpp already lets a fixed arrival schedule contend for one
// cluster. The serving layer closes the remaining gap to a deployed
// federation front-end: queries *arrive* (open-loop Poisson or a closed
// loop of clients), pass an admission controller with a bounded queue, and
// a scheduler decides which admitted query starts next (FIFO or shortest
// predicted cost, the prediction coming from the analytic advisor via
// serve/planner.hpp) subject to per-site in-flight caps. Everything runs
// inside ONE discrete-event simulation, so queueing delay, scheduling
// policy and strategy choice are all measured on the same clock.
//
// With tenant clauses in the spec the queue becomes multi-tenant: each
// submission belongs to a named traffic class with a fairness weight, an
// admission quota (its bounded share of the shared queue) and an optional
// latency SLO. Two schedulers join FIFO/SPC — weighted fair queueing
// (start-time fair queueing over predicted cost, long-run service share
// tracks the weights) and earliest deadline first (deadline = arrival +
// SLO) — and `autoscale=on` adapts the per-site in-flight cap from the
// observed queue-wait histogram. A spec without tenants behaves exactly
// as before.
//
// Backpressure never deadlocks: an arrival that finds the admission queue
// full is *rejected* — it completes immediately with a tagged, empty
// outcome — rather than blocking the arrival process. A closed-loop client
// whose submission is rejected backs off and submits again, so the run
// always terminates after exactly `spec.n_queries` submissions.
#pragma once

#include <memory>
#include <vector>

#include "isomer/analytic/planner.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/obs/metrics.hpp"
#include "isomer/obs/trace_session.hpp"
#include "isomer/serve/serve_spec.hpp"

namespace isomer::serve {

/// One plannable query of the serving pool: what to run, how, and what the
/// advisor predicted it costs (the SPC scheduling priority, in seconds).
/// Build these by hand or with serve/planner.hpp.
struct ServeRequest {
  GlobalQuery query;
  StrategyKind kind = StrategyKind::BL;
  double predicted_cost_s = 0;
  /// Optional explicit plan (plan_adaptive output); null runs
  /// ExecPlan::pure(kind). Shared: many submissions may run one pool entry.
  std::shared_ptr<const ExecPlan> plan;
  /// When set and ServeOptions::stats_book is attached, the server re-plans
  /// this query with these knobs AT LAUNCH against the book's state at that
  /// simulated instant — earlier completions already folded in — so a
  /// serving run adapts mid-stream. Overrides `plan`.
  std::shared_ptr<const PlannerKnobs> replan;
  /// Traffic class this pool entry belongs to. When the spec carries tenant
  /// clauses, every entry must name one of them (tag_tenants in
  /// serve/planner.hpp replicates an anonymous pool per tenant); when the
  /// spec has no tenants, every entry must stay untagged.
  std::string tenant;
};

/// One submission's fate, in submission order.
struct ServeOutcome {
  QueryResult result;
  SimTime arrival = 0;     ///< when the submission reached admission
  SimTime start = 0;       ///< when the scheduler launched it
  SimTime completion = 0;  ///< when its answer was ready (= arrival if rejected)
  bool rejected = false;   ///< bounced off the full admission queue
  StrategyKind kind = StrategyKind::BL;
  std::size_t pool_index = 0;  ///< which pool entry this submission ran
  /// Wire traffic attributable to this query alone (ExecEnv accounting);
  /// zero for rejected submissions.
  Bytes wire_bytes = 0;
  std::uint64_t messages = 0;
  bool hybrid = false;  ///< ran a hybrid plan (mixed per-site paths)
  /// Mid-flight Localized->Central switches this execution performed.
  std::uint64_t plan_switches = 0;
  /// Certificate-cache outcome for this submission (both zero unless
  /// ServeOptions::exec.cert_cache is set): first-round check atoms
  /// answered from the shared cache vs shipped to assistants.
  std::uint64_t cert_hits = 0;
  std::uint64_t cert_misses = 0;
  /// Index into ServeReport::tenants (0 when the spec has no tenants).
  std::size_t tenant = 0;
  /// Absolute completion deadline (arrival + the tenant's SLO target);
  /// 0 = no SLO attached.
  SimTime deadline = 0;

  [[nodiscard]] SimTime latency() const noexcept {
    return completion - arrival;
  }
  [[nodiscard]] SimTime queue_wait() const noexcept {
    return start - arrival;
  }
  /// Completed after its deadline (false when rejected or no SLO).
  [[nodiscard]] bool missed_deadline() const noexcept {
    return !rejected && deadline > 0 && completion > deadline;
  }
};

/// Per-tenant slice of a multi-tenant run, aligned with ServeSpec::tenants.
struct TenantReport {
  std::string id;
  double weight = 1.0;
  SimTime slo_ns = 0;
  std::size_t submitted = 0;
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::uint64_t deadline_misses = 0;  ///< completed past arrival + SLO
  Bytes wire_bytes = 0;               ///< Σ per-query wire of this tenant
  std::uint64_t messages = 0;
  double served_cost_s = 0;  ///< Σ predicted cost over completed submissions

  /// Fraction of this tenant's completed submissions that blew their SLO
  /// (0 when the tenant has no SLO or completed nothing).
  [[nodiscard]] double deadline_miss_rate() const noexcept {
    return completed == 0
               ? 0.0
               : static_cast<double>(deadline_misses) /
                     static_cast<double>(completed);
  }
};

struct ServeReport {
  std::vector<ServeOutcome> outcomes;  ///< submission order
  SimTime makespan = 0;                ///< when the last answer was ready
  SimTime total_busy_ns = 0;           ///< Σ busy across all resources
  Bytes bytes_transferred = 0;         ///< cluster total (= Σ per-query wire)
  std::uint64_t messages = 0;          ///< Σ per-query wire messages
  std::size_t completed = 0;
  std::size_t rejected = 0;
  std::size_t max_queue_depth = 0;  ///< admitted-waiting high-water mark
  std::size_t max_inflight = 0;     ///< concurrent-execution high-water mark
  std::uint64_t cert_hits = 0;      ///< Σ per-submission cache hits
  std::uint64_t cert_misses = 0;    ///< Σ per-submission cache misses
  /// Per-tenant slices, aligned with ServeSpec::tenants (empty for a
  /// tenant-less spec). Per-tenant wire/messages partition the cluster
  /// totals the same way the per-outcome sums do.
  std::vector<TenantReport> tenants;
  /// Observed per-site in-flight cap range. Both equal spec.site_inflight
  /// unless autoscaling moved the cap during the run.
  std::size_t inflight_cap_high = 0;
  std::size_t inflight_cap_low = 0;

  /// Mean latency over *completed* submissions, milliseconds. Rejected
  /// submissions (latency() == 0 by construction) are always excluded —
  /// here, in the percentiles below and in record_serve_metrics — so a
  /// high-rejection run reports the latency of the work it actually did.
  [[nodiscard]] double mean_latency_ms() const;
  /// Completed answers per simulated second of makespan.
  [[nodiscard]] double throughput_qps() const;
  /// Exact nearest-rank latency percentile over completed submissions
  /// (q in (0, 1]; 0 when nothing completed). This is the ground truth the
  /// MetricsRegistry histogram estimates.
  [[nodiscard]] SimTime latency_percentile(double q) const;
  /// latency_percentile restricted to one tenant's completed submissions.
  [[nodiscard]] SimTime tenant_latency_percentile(std::size_t tenant,
                                                  double q) const;
  /// mean_latency_ms restricted to one tenant's completed submissions.
  [[nodiscard]] double tenant_mean_latency_ms(std::size_t tenant) const;
  /// This tenant's share of total served predicted cost divided by its
  /// share of total configured weight: 1.0 = served exactly its weighted
  /// fair share, below 1 = under-served. 0 when nothing was served.
  [[nodiscard]] double fairness_ratio(std::size_t tenant) const;
};

struct ServeOptions {
  /// Per-execution options (costs, topology, signatures, faults, batch...).
  /// `trace_session` is superseded by `sessions` below. When a fault plan is attached, each
  /// submission runs under its own plan copy whose seed is
  /// derive_stream(plan.seed, submission index), so concurrent queries
  /// draw independent fault streams and the run replays bit-identically.
  StrategyOptions exec{};
  /// Per-submission span sessions: resized to the submission count, entry i
  /// collecting query i's PhaseSpans (sessions are not thread-safe, but the
  /// simulator is single-threaded — one session per query keeps them
  /// separable for serialization in submission order). Null disables spans.
  std::vector<obs::TraceSession>* sessions = nullptr;
  /// When set, serve() records per-submission figures after the run, in
  /// submission order (deterministic): histograms serve.latency_us and
  /// serve.queue_wait_us over completed submissions, counters
  /// serve.completed and serve.rejected. Leave null when running many
  /// serve() calls concurrently and record via record_serve_metrics in a
  /// deterministic order instead (a histogram's `sum` accumulates in
  /// recording order, so concurrent recording would make it float-unstable).
  obs::MetricsRegistry* metrics = nullptr;
  /// When set, every completed hybrid execution folds its per-site observed
  /// row payloads into this book (in completion order — deterministic under
  /// the single-threaded event loop), and requests carrying `replan` knobs
  /// re-plan against it at launch. Pure executions run the frozen
  /// monolithic compositions and contribute no observations.
  SiteStatsBook* stats_book = nullptr;
};

/// Records one report's per-submission figures into `metrics` (see
/// ServeOptions::metrics for the metric names). Submission order. For a
/// multi-tenant report it additionally records, per tenant,
/// serve.tenant/<id>.latency_us (completed submissions only) and the
/// counters serve.tenant/<id>.completed / .rejected / .deadline_miss.
void record_serve_metrics(const ServeReport& report,
                          obs::MetricsRegistry& metrics);

/// Serves `spec.n_queries` submissions drawn from `pool` against
/// `federation` in one shared simulation. The whole run is a deterministic
/// function of (federation, pool, spec, options) — arrivals, pool picks and
/// client think-loops all derive from spec.seed. Throws ServeError when the
/// spec fails validate_serve_spec, when the pool is empty, or when pool
/// tenant tags disagree with the spec (an untagged entry or unknown tag
/// under a tenant spec, a tagged entry under a tenant-less spec, a tenant
/// owning no pool entry); QueryError when a pool query is malformed.
[[nodiscard]] ServeReport serve(const Federation& federation,
                                const std::vector<ServeRequest>& pool,
                                const ServeSpec& spec,
                                const ServeOptions& options = {});

}  // namespace isomer::serve
