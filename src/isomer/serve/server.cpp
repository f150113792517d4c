#include "isomer/serve/server.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "isomer/common/error.hpp"
#include "isomer/core/operators.hpp"
#include "isomer/workload/arrivals.hpp"

namespace isomer::serve {

double ServeReport::mean_latency_ms() const {
  double total = 0;
  std::size_t n = 0;
  for (const ServeOutcome& outcome : outcomes) {
    if (outcome.rejected) continue;
    total += to_milliseconds(outcome.latency());
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double ServeReport::throughput_qps() const {
  if (makespan <= 0 || completed == 0) return 0.0;
  return static_cast<double>(completed) / to_seconds(makespan);
}

namespace {

/// Exact nearest-rank percentile over a latency sample (ServeReport keeps
/// the MetricsRegistry-independent ground truth).
SimTime nearest_rank(std::vector<SimTime>& latencies, double q) {
  if (latencies.empty()) return 0;
  std::sort(latencies.begin(), latencies.end());
  if (q > 1) q = 1;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(latencies.size())));
  if (rank == 0) rank = 1;
  return latencies[rank - 1];
}

}  // namespace

SimTime ServeReport::latency_percentile(double q) const {
  std::vector<SimTime> latencies;
  latencies.reserve(outcomes.size());
  for (const ServeOutcome& outcome : outcomes)
    if (!outcome.rejected) latencies.push_back(outcome.latency());
  return nearest_rank(latencies, q);
}

SimTime ServeReport::tenant_latency_percentile(std::size_t tenant,
                                               double q) const {
  std::vector<SimTime> latencies;
  for (const ServeOutcome& outcome : outcomes)
    if (!outcome.rejected && outcome.tenant == tenant)
      latencies.push_back(outcome.latency());
  return nearest_rank(latencies, q);
}

double ServeReport::tenant_mean_latency_ms(std::size_t tenant) const {
  double total = 0;
  std::size_t n = 0;
  for (const ServeOutcome& outcome : outcomes) {
    if (outcome.rejected || outcome.tenant != tenant) continue;
    total += to_milliseconds(outcome.latency());
    ++n;
  }
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

double ServeReport::fairness_ratio(std::size_t tenant) const {
  double total_cost = 0, total_weight = 0;
  for (const TenantReport& t : tenants) {
    total_cost += t.served_cost_s;
    total_weight += t.weight;
  }
  if (tenant >= tenants.size() || total_cost <= 0 || total_weight <= 0)
    return 0.0;
  const double cost_share = tenants[tenant].served_cost_s / total_cost;
  const double weight_share = tenants[tenant].weight / total_weight;
  return weight_share <= 0 ? 0.0 : cost_share / weight_share;
}

namespace {

/// Extra pause a closed-loop client takes after a rejected submission, so a
/// zero-think client cannot re-hit a still-full queue at the same simulated
/// instant forever.
constexpr SimTime kRejectBackoffNs = 1'000'000;  // 1 ms

constexpr std::size_t kNoClient = static_cast<std::size_t>(-1);

/// EDF rank of a submission without an SLO: after every real deadline,
/// admission order among themselves.
constexpr SimTime kNoDeadline = std::numeric_limits<SimTime>::max();

/// Autoscaler tuning: evaluate every this-many starts, call a window
/// "idle" below this utilization, and never raise the cap beyond this
/// multiple of the configured base.
constexpr std::size_t kAutoscaleWindow = 8;
constexpr double kAutoscaleIdleUtil = 0.5;
constexpr std::size_t kAutoscaleMaxFactor = 8;

/// One admitted-but-not-started submission.
struct Waiting {
  std::size_t id = 0;
  double predicted_cost_s = 0;
  std::size_t tenant = 0;
  /// WFQ virtual start/finish tags (start-time fair queueing); only
  /// meaningful under SchedPolicy::Wfq.
  double start_tag = 0;
  double finish_tag = 0;
  /// Absolute deadline, kNoDeadline when the tenant has no SLO.
  SimTime deadline = kNoDeadline;
};

/// The admission controller + scheduler driving one serve() run. All state
/// mutation happens inside simulator callbacks, which the single-threaded
/// event loop serializes deterministically (FIFO among simultaneous
/// events), so the whole run is a pure function of its inputs.
class QueryServer {
 public:
  QueryServer(const Federation& federation,
              const std::vector<ServeRequest>& pool, const ServeSpec& spec,
              const ServeOptions& options)
      : fed_(federation),
        pool_(pool),
        spec_(spec),
        options_(options),
        cluster_(sim_, options.exec.costs, federation.db_count(),
                 options.exec.topology),
        inflight_(federation.db_count() + 1, 0),
        cap_(spec.site_inflight),
        tenant_state_(std::max<std::size_t>(1, spec.tenants.size())) {}

  ServeReport run();

 private:
  /// Per-tenant scheduler state (one anonymous slot for tenant-less specs).
  struct TenantState {
    std::size_t waiting = 0;   ///< admitted-not-started, for the quota
    double last_finish = 0;    ///< WFQ: finish tag of the latest admission
  };

  void map_tenants();
  void schedule_client(std::size_t client, SimTime at);
  void submit(std::size_t pool_index, std::size_t client);
  void try_dispatch();
  void start(const Waiting& next);
  void evaluate_autoscale();
  [[nodiscard]] bool capacity_free() const noexcept;

  const Federation& fed_;
  const std::vector<ServeRequest>& pool_;
  const ServeSpec& spec_;
  const ServeOptions& options_;
  Simulator sim_;
  Cluster cluster_;

  std::deque<Waiting> waiting_;  ///< admission order
  /// Executions currently holding each site (0 = global, 1.. components).
  /// Every strategy touches every site, so the entries move in lockstep and
  /// the per-site cap acts as a concurrency cap — the representation stays
  /// per-site so partial-footprint strategies keep working if added later.
  std::vector<std::size_t> inflight_;
  std::size_t running_ = 0;
  /// The effective per-site in-flight cap (0 = unbounded). Equals
  /// spec_.site_inflight unless autoscaling moves it.
  std::size_t cap_;
  std::size_t cap_high_ = 0;
  std::size_t cap_low_ = 0;

  std::vector<TenantState> tenant_state_;
  std::vector<std::size_t> tenant_of_pool_;  ///< pool index -> tenant index
  /// Per-tenant global pool indices (arrival picks draw within a tenant).
  std::vector<std::vector<std::size_t>> tenant_pool_;
  double vtime_ = 0;  ///< WFQ virtual time: start tag of the last dispatch

  /// Queue waits of the current autoscaler window; reset each evaluation.
  obs::Histogram window_waits_;
  double prev_window_p95_ = -1;
  SimTime window_begin_ns_ = 0;
  SimTime window_busy_ns_ = 0;
  std::size_t window_starts_ = 0;

  std::vector<ServeOutcome> outcomes_;   ///< submission order, grows in submit()
  std::vector<std::size_t> client_of_;   ///< aligned with outcomes_
  /// Envs and per-query fault plans in pointer-stable storage: the deferred
  /// simulation callbacks hold references into both.
  std::vector<std::unique_ptr<detail::ExecEnv>> envs_;
  std::deque<fault::FaultPlan> fault_plans_;

  std::vector<Rng> client_rngs_;  ///< closed loop: one pick-stream per client
  std::size_t planned_ = 0;       ///< submissions scheduled so far
  std::size_t max_queue_depth_ = 0;
  std::size_t max_inflight_ = 0;
};

/// Resolves every pool entry's tenant tag against the spec, strictly: with
/// tenant clauses, untagged entries and unknown tags are errors and every
/// tenant must own at least one entry (its arrival stream needs something
/// to pick); without tenant clauses, a tagged entry is an error — the tag
/// would silently mean nothing.
void QueryServer::map_tenants() {
  tenant_of_pool_.assign(pool_.size(), 0);
  if (spec_.tenants.empty()) {
    for (const ServeRequest& request : pool_)
      if (!request.tenant.empty())
        throw ServeError("pool entry tagged with tenant '" + request.tenant +
                         "' but the spec has no tenant clauses");
    tenant_pool_.assign(1, {});
    for (std::size_t p = 0; p < pool_.size(); ++p)
      tenant_pool_[0].push_back(p);
    return;
  }
  tenant_pool_.assign(spec_.tenants.size(), {});
  for (std::size_t p = 0; p < pool_.size(); ++p) {
    const std::string& tag = pool_[p].tenant;
    if (tag.empty())
      throw ServeError(
          "multi-tenant serving needs every pool entry tagged with a tenant");
    std::size_t tenant = spec_.tenants.size();
    for (std::size_t t = 0; t < spec_.tenants.size(); ++t)
      if (spec_.tenants[t].id == tag) {
        tenant = t;
        break;
      }
    if (tenant == spec_.tenants.size())
      throw ServeError("pool entry tagged with unknown tenant '" + tag + "'");
    tenant_of_pool_[p] = tenant;
    tenant_pool_[tenant].push_back(p);
  }
  for (std::size_t t = 0; t < spec_.tenants.size(); ++t)
    if (tenant_pool_[t].empty())
      throw ServeError("tenant '" + spec_.tenants[t].id +
                       "' owns no pool entry");
}

bool QueryServer::capacity_free() const noexcept {
  if (cap_ == 0) return true;
  for (const std::size_t site_load : inflight_)
    if (site_load >= cap_) return false;
  return true;
}

void QueryServer::schedule_client(std::size_t client, SimTime at) {
  sim_.schedule_at(at, [this, client] {
    // Pool pick drawn at submission time from the client's private stream;
    // the event loop fires these deterministically, so the draw order is a
    // function of the spec alone. A multi-tenant closed loop assigns
    // clients to tenants round-robin, and each client picks within its
    // tenant's slice of the pool.
    if (spec_.tenants.empty()) {
      submit(client_rngs_[client].index(pool_.size()), client);
    } else {
      const std::vector<std::size_t>& mine =
          tenant_pool_[client % spec_.tenants.size()];
      submit(mine[client_rngs_[client].index(mine.size())], client);
    }
  });
}

void QueryServer::submit(std::size_t pool_index, std::size_t client) {
  const SimTime now = sim_.now();
  const std::size_t id = outcomes_.size();
  outcomes_.emplace_back();
  client_of_.push_back(client);
  ServeOutcome& outcome = outcomes_.back();
  outcome.arrival = now;
  outcome.start = now;
  outcome.pool_index = pool_index;
  outcome.kind = pool_[pool_index].kind;
  const std::size_t tenant = tenant_of_pool_[pool_index];
  outcome.tenant = tenant;
  const SimTime slo =
      spec_.tenants.empty() ? 0 : spec_.tenants[tenant].slo_ns;
  if (slo > 0) outcome.deadline = clock_add(now, slo);

  const std::size_t quota =
      spec_.tenants.empty() ? 0 : spec_.tenants[tenant].quota;
  const bool queue_full =
      spec_.queue_limit > 0 && waiting_.size() >= spec_.queue_limit;
  const bool quota_full =
      quota > 0 && tenant_state_[tenant].waiting >= quota;
  if (queue_full || quota_full) {
    // Backpressure: bounce rather than block the arrival process — off the
    // shared queue bound or off the tenant's own quota, so one tenant's
    // burst cannot occupy the whole shared queue. The submission completes
    // immediately as a tagged empty outcome, and a closed-loop client moves
    // on to its next think cycle after a backoff.
    outcome.rejected = true;
    outcome.completion = now;
    if (client != kNoClient && planned_ < spec_.n_queries) {
      ++planned_;
      schedule_client(client, clock_add(clock_add(now, spec_.think_ns),
                                        kRejectBackoffNs));
    }
    return;
  }

  Waiting admitted;
  admitted.id = id;
  admitted.predicted_cost_s = pool_[pool_index].predicted_cost_s;
  admitted.tenant = tenant;
  if (outcome.deadline > 0) admitted.deadline = outcome.deadline;
  if (spec_.policy == SchedPolicy::Wfq) {
    // Start-time fair queueing: the submission's virtual start is the later
    // of the server's virtual time and the tenant's previous finish; its
    // finish tag advances the tenant by cost / weight, so a heavy tenant's
    // backlog spaces out in virtual time exactly in proportion to weight.
    TenantState& state = tenant_state_[tenant];
    const double weight =
        spec_.tenants.empty() ? 1.0 : spec_.tenants[tenant].weight;
    admitted.start_tag = std::max(vtime_, state.last_finish);
    admitted.finish_tag =
        admitted.start_tag + admitted.predicted_cost_s / weight;
    state.last_finish = admitted.finish_tag;
  }
  ++tenant_state_[tenant].waiting;
  waiting_.push_back(admitted);
  max_queue_depth_ = std::max(max_queue_depth_, waiting_.size());
  try_dispatch();
}

void QueryServer::try_dispatch() {
  // Every query needs every site, so if the head-of-line query cannot start
  // neither can any other — the loop never starves a waiting query by
  // skipping over it.
  while (!waiting_.empty() && capacity_free()) {
    auto chosen = waiting_.begin();
    if (spec_.policy == SchedPolicy::Spc) {
      chosen = std::min_element(
          waiting_.begin(), waiting_.end(),
          [](const Waiting& a, const Waiting& b) {
            if (a.predicted_cost_s != b.predicted_cost_s)
              return a.predicted_cost_s < b.predicted_cost_s;
            return a.id < b.id;  // ties: admission order
          });
    } else if (spec_.policy == SchedPolicy::Wfq) {
      chosen = std::min_element(waiting_.begin(), waiting_.end(),
                                [](const Waiting& a, const Waiting& b) {
                                  if (a.finish_tag != b.finish_tag)
                                    return a.finish_tag < b.finish_tag;
                                  return a.id < b.id;
                                });
    } else if (spec_.policy == SchedPolicy::Edf) {
      chosen = std::min_element(waiting_.begin(), waiting_.end(),
                                [](const Waiting& a, const Waiting& b) {
                                  if (a.deadline != b.deadline)
                                    return a.deadline < b.deadline;
                                  return a.id < b.id;
                                });
    }
    const Waiting next = *chosen;
    waiting_.erase(chosen);
    --tenant_state_[next.tenant].waiting;
    if (spec_.policy == SchedPolicy::Wfq)
      vtime_ = std::max(vtime_, next.start_tag);
    start(next);
  }
}

/// One autoscaler step, run every kAutoscaleWindow starts: compare this
/// window's queue-wait p95 and cluster utilization against the previous
/// window. Growing waits over idle sites means the cap (not the hardware)
/// is the bottleneck — raise it; falling waits mean the pressure passed —
/// drain the cap back toward its configured base. Pure function of
/// simulated history, so runs replay bit-identically.
void QueryServer::evaluate_autoscale() {
  const SimTime now = sim_.now();
  const SimTime busy = cluster_.cpu_busy() + cluster_.disk_busy();
  const double p95 = window_waits_.snapshot().p95();
  const SimTime elapsed = now - window_begin_ns_;
  // "Sites idle" is site utilization: busy time across every site's CPU and
  // disk over wall-clock times the site-resource count. Deliberately not
  // the network — on a shared-bus cluster the wire can be the bottleneck
  // with every site idle, and raising the cap then buys contention, which
  // the next window's p95 reverses.
  const double resources = 2.0 * static_cast<double>(fed_.db_count() + 1);
  const double util =
      elapsed <= 0 ? 1.0
                   : static_cast<double>(busy - window_busy_ns_) /
                         (static_cast<double>(elapsed) * resources);
  if (prev_window_p95_ >= 0) {
    if (p95 > prev_window_p95_ && util < kAutoscaleIdleUtil &&
        cap_ < kAutoscaleMaxFactor * spec_.site_inflight)
      ++cap_;
    else if (p95 < prev_window_p95_ && cap_ > spec_.site_inflight)
      --cap_;
    cap_high_ = std::max(cap_high_, cap_);
    cap_low_ = std::min(cap_low_, cap_);
  }
  prev_window_p95_ = p95;
  window_waits_.reset();
  window_begin_ns_ = now;
  window_busy_ns_ = busy;
}

void QueryServer::start(const Waiting& next) {
  const std::size_t id = next.id;
  ServeOutcome& outcome = outcomes_[id];
  const ServeRequest& request = pool_[outcome.pool_index];
  outcome.start = sim_.now();

  if (spec_.autoscale) {
    window_waits_.record(static_cast<double>(outcome.queue_wait()) / 1e3);
    if (++window_starts_ % kAutoscaleWindow == 0) evaluate_autoscale();
  }

  StrategyOptions per_query = options_.exec;
  per_query.trace_session =
      options_.sessions ? &(*options_.sessions)[id] : nullptr;
  if (per_query.faults != nullptr && per_query.faults->enabled()) {
    // Each submission gets its own plan copy with a derived seed:
    // ExecEnv::init_faults seeds its RNG from the plan, so sharing one plan
    // would make concurrent queries share one fault stream and the replay
    // would depend on interleaving.
    fault_plans_.push_back(*per_query.faults);
    fault_plans_.back().seed = derive_stream(per_query.faults->seed, id);
    per_query.faults = &fault_plans_.back();
  }

  envs_.push_back(std::make_unique<detail::ExecEnv>(fed_, request.query,
                                                    per_query, sim_, cluster_));
  detail::ExecEnv* env = envs_.back().get();

  // Resolve the operator plan. A replanning request prices against the
  // stats book as of THIS simulated instant — completions that already
  // folded their telemetry steer it — which is the serving layer's adaptive
  // feedback loop (docs/PLANNING.md).
  std::shared_ptr<const ExecPlan> plan = request.plan;
  if (request.replan != nullptr && options_.stats_book != nullptr)
    plan = std::make_shared<const ExecPlan>(
        plan_adaptive(fed_, request.query, *request.replan,
                      options_.stats_book)
            .plan);
  if (plan == nullptr)
    plan = std::make_shared<const ExecPlan>(ExecPlan::pure(request.kind));
  outcome.hybrid = plan->hybrid;
  env->set_span_context(
      plan->hybrid ? std::string_view{"HY"} : to_string(request.kind), id);
  // Tenant attribution span: the interval this submission waited between
  // admission and launch, charged to its tenant (Phase::Serve, global
  // site). Only multi-tenant runs record it, so tenant-less traces stay
  // exactly as before.
  if (env->traced() && !spec_.tenants.empty())
    env->mark(Phase::Serve, kGlobalSite,
              "serve.tenant/" + spec_.tenants[next.tenant].id,
              outcome.arrival, outcome.start);

  for (std::size_t& site_load : inflight_) ++site_load;
  ++running_;
  max_inflight_ = std::max(max_inflight_, running_);

  const std::size_t client = client_of_[id];
  auto telemetry = std::make_shared<PlanTelemetry>();
  detail::launch_plan(
      *env, *plan, telemetry,
      [this, id, client, env, telemetry](QueryResult result, SimTime at) {
        ServeOutcome& done = outcomes_[id];
        done.result = std::move(result);
        done.completion = at;
        done.wire_bytes = env->wire_bytes();
        done.messages = env->wire_messages();
        done.plan_switches = telemetry->switches();
        done.cert_hits = env->cert_hits();
        done.cert_misses = env->cert_misses();
        if (options_.stats_book != nullptr)
          options_.stats_book->fold(*telemetry);
        for (std::size_t& site_load : inflight_) --site_load;
        --running_;
        if (client != kNoClient && planned_ < spec_.n_queries) {
          ++planned_;
          schedule_client(client, clock_add(at, spec_.think_ns));
        }
        try_dispatch();
      });
}

ServeReport QueryServer::run() {
  if (pool_.empty()) throw ServeError("serve() needs a non-empty query pool");
  map_tenants();
  cap_high_ = cap_low_ = cap_;
  if (options_.sessions) {
    options_.sessions->clear();
    options_.sessions->resize(spec_.n_queries);
  }
  outcomes_.reserve(spec_.n_queries);
  client_of_.reserve(spec_.n_queries);
  envs_.reserve(spec_.n_queries);

  if (spec_.mode == ArrivalMode::Open) {
    std::vector<workload::Arrival> arrivals;
    if (spec_.tenants.empty()) {
      Rng arrival_rng(derive_stream(spec_.seed, 0));
      arrivals = workload::poisson_arrivals(
          spec_.rate_qps, spec_.n_queries, pool_.size(), arrival_rng);
    } else {
      // Superposed per-tenant Poisson streams: a tenant with an explicit
      // rate offers it, the rest split the spec-level rate evenly.
      std::vector<workload::TenantStream> streams(spec_.tenants.size());
      for (std::size_t t = 0; t < spec_.tenants.size(); ++t) {
        streams[t].rate_qps =
            spec_.tenants[t].rate_qps > 0
                ? spec_.tenants[t].rate_qps
                : spec_.rate_qps /
                      static_cast<double>(spec_.tenants.size());
        streams[t].pool = tenant_pool_[t];
      }
      arrivals = workload::tenant_poisson_arrivals(
          streams, spec_.n_queries, derive_stream(spec_.seed, 0));
    }
    planned_ = arrivals.size();
    for (const workload::Arrival& arrival : arrivals)
      sim_.schedule_at(arrival.at, [this, arrival] {
        submit(arrival.pool_index, kNoClient);
      });
  } else {
    client_rngs_.reserve(spec_.clients);
    for (std::size_t c = 0; c < spec_.clients; ++c)
      client_rngs_.emplace_back(derive_stream(spec_.seed, 1 + c));
    const std::size_t first = std::min(spec_.clients, spec_.n_queries);
    planned_ = first;
    for (std::size_t c = 0; c < first; ++c) schedule_client(c, 0);
  }

  sim_.run();

  ServeReport report;
  report.outcomes = std::move(outcomes_);
  report.tenants.reserve(spec_.tenants.size());
  for (const TenantSpec& tenant : spec_.tenants) {
    TenantReport slice;
    slice.id = tenant.id;
    slice.weight = tenant.weight;
    slice.slo_ns = tenant.slo_ns;
    report.tenants.push_back(std::move(slice));
  }
  for (const ServeOutcome& outcome : report.outcomes) {
    TenantReport* slice =
        report.tenants.empty() ? nullptr : &report.tenants[outcome.tenant];
    if (slice != nullptr) ++slice->submitted;
    if (outcome.rejected) {
      ++report.rejected;
      if (slice != nullptr) ++slice->rejected;
      continue;
    }
    ensures(outcome.completion >= outcome.arrival,
            "a served query did not complete");
    ++report.completed;
    report.makespan = std::max(report.makespan, outcome.completion);
    report.messages += outcome.messages;
    report.cert_hits += outcome.cert_hits;
    report.cert_misses += outcome.cert_misses;
    if (slice != nullptr) {
      ++slice->completed;
      slice->wire_bytes += outcome.wire_bytes;
      slice->messages += outcome.messages;
      slice->served_cost_s += pool_[outcome.pool_index].predicted_cost_s;
      if (outcome.missed_deadline()) ++slice->deadline_misses;
    }
  }
  ensures(report.completed + report.rejected == spec_.n_queries,
          "submission count mismatch");
  report.total_busy_ns = cluster_.total_busy();
  report.bytes_transferred = cluster_.bytes_transferred();
  report.max_queue_depth = max_queue_depth_;
  report.max_inflight = max_inflight_;
  report.inflight_cap_high = cap_high_;
  report.inflight_cap_low = cap_low_;
  return report;
}

}  // namespace

void record_serve_metrics(const ServeReport& report,
                          obs::MetricsRegistry& metrics) {
  obs::Histogram& latency = metrics.histogram("serve.latency_us");
  obs::Histogram& wait = metrics.histogram("serve.queue_wait_us");
  obs::Counter& completed = metrics.counter("serve.completed");
  obs::Counter& rejected = metrics.counter("serve.rejected");
  // Rejected submissions complete instantly at their arrival, so their
  // latency() is 0 by construction — recording them would drag every
  // quantile of a high-rejection run toward zero. They count only toward
  // serve.rejected, here and in the per-tenant figures below.
  for (const ServeOutcome& outcome : report.outcomes) {
    if (outcome.rejected) {
      rejected.add();
      continue;
    }
    completed.add();
    latency.record(static_cast<double>(outcome.latency()) / 1e3);
    wait.record(static_cast<double>(outcome.queue_wait()) / 1e3);
  }
  for (std::size_t t = 0; t < report.tenants.size(); ++t) {
    const TenantReport& tenant = report.tenants[t];
    const std::string prefix = "serve.tenant/" + tenant.id;
    obs::Histogram& tenant_latency =
        metrics.histogram(prefix + ".latency_us");
    for (const ServeOutcome& outcome : report.outcomes)
      if (!outcome.rejected && outcome.tenant == t)
        tenant_latency.record(static_cast<double>(outcome.latency()) / 1e3);
    metrics.counter(prefix + ".completed").add(tenant.completed);
    metrics.counter(prefix + ".rejected").add(tenant.rejected);
    metrics.counter(prefix + ".deadline_miss").add(tenant.deadline_misses);
  }
}

ServeReport serve(const Federation& federation,
                  const std::vector<ServeRequest>& pool, const ServeSpec& spec,
                  const ServeOptions& options) {
  validate_serve_spec(spec);
  QueryServer server(federation, pool, spec, options);
  ServeReport report = server.run();
  // Recorded after the run, in submission order: the registry's histogram
  // quantiles depend only on bucket counts and min/max, but recording
  // serially keeps even the sum and counter update order deterministic.
  if (options.metrics != nullptr) record_serve_metrics(report, *options.metrics);
  return report;
}

}  // namespace isomer::serve
