#include "isomer/core/exec_common.hpp"

#include <algorithm>

#include "isomer/common/error.hpp"

namespace isomer::detail {

ExecEnv::ExecEnv(const Federation& federation, const GlobalQuery& query,
                 const StrategyOptions& options)
    : fed_(&federation), query_(&query), options_(options) {
  owned_sim_ = std::make_unique<Simulator>();
  owned_cluster_ = std::make_unique<Cluster>(
      *owned_sim_, options_.costs, federation.db_count(), options_.topology);
  sim_ = owned_sim_.get();
  cluster_ = owned_cluster_.get();
  init_faults();
  init_batching();
}

ExecEnv::ExecEnv(const Federation& federation, const GlobalQuery& query,
                 const StrategyOptions& options, Simulator& sim,
                 Cluster& cluster)
    : fed_(&federation), query_(&query), options_(options), sim_(&sim),
      cluster_(&cluster) {
  expects(cluster.component_count() == federation.db_count(),
          "shared cluster sized for a different federation");
  init_faults();
  init_batching();
}

void ExecEnv::init_faults() {
  if (options_.faults == nullptr || !options_.faults->enabled()) return;
  faults_enabled_ = true;
  // A private stream per execution: plan.seed is already trial-specific
  // (derive_stream(base, trial) in the harness), the constant tags the
  // fault channel so other consumers of the same seed stay independent.
  fault_rng_ = Rng(derive_stream(options_.faults->seed, 0xFA17ULL));
}

void ExecEnv::init_batching() {
  if (!options_.batch.enabled) return;
  // Per-destination frames on the switched topologies (separate links) and
  // under fault injection (outage/retry fate is a property of one
  // destination); whole-sender frames on the broadcast media.
  const bool per_destination =
      faults_enabled_ ||
      options_.topology == NetworkTopology::PointToPoint ||
      options_.topology == NetworkTopology::Contentionless;
  batcher_ =
      std::make_unique<ShipmentBatcher>(*this, options_.batch, per_destination);
}

DbId ExecEnv::db_of(SiteIndex site) const {
  expects(site != kGlobalSite, "the global site is not a component database");
  return fed_->db_ids()[site - 1];
}

SiteIndex ExecEnv::site_of(DbId db) const {
  const auto& ids = fed_->db_ids();
  const auto it = std::lower_bound(ids.begin(), ids.end(), db);
  expects(it != ids.end() && *it == db, "unknown DbId in site mapping");
  return static_cast<SiteIndex>(it - ids.begin()) + 1;
}

std::string ExecEnv::site_name(SiteIndex site) const {
  if (site == kGlobalSite) return "global";
  return "DB" + std::to_string(fed_->db_ids()[site - 1].value());
}

std::shared_ptr<obs::PhaseSpan> ExecEnv::open_span(
    Phase phase, SiteIndex site, std::string step, SimTime begin,
    const AccessMeter& work, const SpanCounts& counts, SiteIndex to) const {
  if (options_.trace_session == nullptr) return nullptr;
  auto span = std::make_shared<obs::PhaseSpan>();
  span->strategy = span_strategy_;
  span->query = span_query_;
  span->phase = phase;
  span->site = site_name(site);
  if (phase == Phase::Transfer) {
    span->site += "->";
    span->site += site_name(to);
  }
  span->step = std::move(step);
  span->start_ns = begin;
  span->work = work;
  span->objects_in = counts.objects_in;
  span->objects_out = counts.objects_out;
  span->certs_resolved = counts.certs_resolved;
  span->certs_eliminated = counts.certs_eliminated;
  return span;
}

void ExecEnv::close_span(const std::shared_ptr<obs::PhaseSpan>& span) const {
  if (span == nullptr) return;
  span->end_ns = sim_->now();
  options_.trace_session->record(std::move(*span));
}

void ExecEnv::charge(SiteIndex site, const AccessMeter& meter, Phase phase,
                     std::string step, SpanCounts counts,
                     Simulator::Callback done) {
  aggregate(meter);
  const Bytes bytes = options_.costs.disk_bytes(meter);
  const SimTime cpu = options_.costs.cpu_time(meter);
  auto span =
      open_span(phase, site, std::move(step), sim_->now(), meter, counts);
  cluster_->site(site).disk().use(
      options_.costs.disk_time(bytes),
      [this, site, cpu, span, done = std::move(done)]() mutable {
        cluster_->site(site).cpu().use(cpu,
                                       [this, span, done = std::move(done)]() {
                                         close_span(span);
                                         done();
                                       });
      });
}

void ExecEnv::charge_cpu(SiteIndex site, std::uint64_t comparisons,
                         Phase phase, std::string step,
                         Simulator::Callback done) {
  AccessMeter meter;
  meter.comparisons = comparisons;
  aggregate(meter);
  auto span = open_span(phase, site, std::move(step), sim_->now(), meter,
                        SpanCounts{});
  cluster_->site(site).cpu().use(options_.costs.cpu_time(comparisons),
                                 [this, span, done = std::move(done)]() {
                                   close_span(span);
                                   done();
                                 });
}

void ExecEnv::transfer_traced(SiteIndex from, SiteIndex to, Bytes bytes,
                              std::string step,
                              Simulator::Callback arrived) {
  wire_bytes_ += bytes;
  ++wire_messages_;
  auto span = open_span(Phase::Transfer, from, std::move(step), sim_->now(),
                        AccessMeter{}, SpanCounts{}, to);
  if (span != nullptr) {
    span->bytes = bytes;
    span->messages = 1;
  }
  cluster_->transfer(from, to, bytes,
                     [this, span, arrived = std::move(arrived)]() {
                       close_span(span);
                       arrived();
                     });
}

void ExecEnv::ship(SiteIndex from, SiteIndex to, Bytes bytes, std::string step,
                   Simulator::Callback delivered, FailHandler on_fail) {
  if (!faults_enabled_) {
    transfer_traced(from, to, bytes, std::move(step), std::move(delivered));
    return;
  }
  attempt_ship(from, to, bytes, std::move(step), 0, std::move(delivered),
               std::move(on_fail));
}

void ExecEnv::ship_record(SiteIndex from, SiteIndex to, Bytes bytes,
                          std::string step, Simulator::Callback delivered,
                          FailHandler on_fail) {
  if (batcher_ == nullptr) {
    ship(from, to, bytes, std::move(step), std::move(delivered),
         std::move(on_fail));
    return;
  }
  batcher_->enqueue(from, to, bytes, std::move(step), std::move(delivered),
                    std::move(on_fail));
}

void ShipmentBatcher::enqueue(SiteIndex from, SiteIndex to, Bytes bytes,
                              std::string step, Simulator::Callback delivered,
                              ExecEnv::FailHandler on_fail) {
  const Key key{from, per_destination_ ? to : kBroadcast};
  const auto [it, fresh] = pending_.try_emplace(key);
  it->second.push_back(Record{to, bytes, std::move(step), std::move(delivered),
                              std::move(on_fail)});
  if (options_.max_records != 0 && it->second.size() >= options_.max_records) {
    // Cap reached: ship now. A flush already scheduled for this key finds
    // the (re-created-or-empty) entry and handles whatever arrived since.
    flush(key);
    return;
  }
  if (fresh)
    env_->sim().schedule_after(0, [this, key]() { flush(key); });
}

void ShipmentBatcher::flush(const Key& key) {
  const auto it = pending_.find(key);
  if (it == pending_.end() || it->second.empty()) {
    if (it != pending_.end()) pending_.erase(it);
    return;
  }
  auto records = std::make_shared<std::vector<Record>>(std::move(it->second));
  pending_.erase(it);
  Bytes frame_bytes = kBatchHeaderBytes;
  for (const Record& record : *records) frame_bytes += record.bytes;
  // On a broadcast key the frame's wire endpoint is the first record's
  // destination — the medium is shared, so only the byte count matters for
  // timing/accounting, but Cluster::transfer wants concrete endpoints.
  const SiteIndex to = records->front().to;
  env_->ship(
      key.from, to, frame_bytes,
      "comm.batch/" + std::to_string(records->size()),
      [records]() {
        for (Record& record : *records) record.delivered();
      },
      [records](SiteIndex suspect) {
        for (Record& record : *records) {
          expects(record.on_fail != nullptr,
                  "DegradeMode::Partial shipment needs a fail handler");
          record.on_fail(suspect);
        }
      });
}

void ExecEnv::attempt_ship(SiteIndex from, SiteIndex to, Bytes bytes,
                           std::string step, int attempt,
                           Simulator::Callback delivered,
                           FailHandler on_fail) {
  const fault::FaultPlan& plan = *options_.faults;
  const SimTime begin = sim_->now();
  // The attempt's fate is decided at send time from the plan's private RNG
  // stream; the drop draw happens unconditionally so outage windows do not
  // shift the stream for later attempts.
  const bool from_down = from != kGlobalSite && plan.down(db_of(from), begin);
  const bool to_down = to != kGlobalSite && plan.down(db_of(to), begin);
  const bool dropped = fault_rng_.bernoulli(plan.drop_probability);
  const bool lost = from_down || to_down || dropped;

  if (!lost) {
    Simulator::Callback arrive = std::move(delivered);
    if (fault_rng_.bernoulli(plan.spike_probability)) {
      const SimTime spike = plan.spike_ns;
      arrive = [this, to, step, spike, inner = std::move(arrive)]() mutable {
        const SimTime at = sim_->now();
        if (traced())
          mark(Phase::Fault, to, "fault.spike " + step, at,
               clock_add(at, spike));
        sim_->schedule_after(spike, std::move(inner));
      };
    }
    transfer_traced(from, to, bytes, std::move(step), std::move(arrive));
    return;
  }

  // The bytes leave the sender and occupy the wire even though nobody will
  // hear them; the sender only learns of the loss when the timeout fires.
  transfer_traced(from, to, bytes, step, []() {});
  const fault::RetryPolicy& retry = options_.retry;
  const SimTime deadline = clock_add(begin, retry.timeout_ns);
  if (attempt < retry.max_retries) {
    ++retries_;
    const SimTime resend = clock_add(deadline, retry.backoff(attempt));
    if (traced())
      mark(Phase::Fault, from, "fault.retry " + step, begin, resend);
    sim_->schedule_at(
        resend, [this, from, to, bytes, step = std::move(step), attempt,
                 delivered = std::move(delivered),
                 on_fail = std::move(on_fail)]() mutable {
          attempt_ship(from, to, bytes, std::move(step), attempt + 1,
                       std::move(delivered), std::move(on_fail));
        });
    return;
  }

  ++failed_messages_;
  if (traced())
    mark(Phase::Fault, from, "fault.giveup " + step, begin, deadline);
  // Blame the site the plan says is down; for pure message loss suspect the
  // component endpoint (the global site is never declared dead).
  const SiteIndex suspect =
      to_down ? to : (from_down ? from : (to != kGlobalSite ? to : from));
  sim_->schedule_at(deadline, [this, suspect, step = std::move(step),
                               on_fail = std::move(on_fail)]() {
    if (options_.degrade == fault::DegradeMode::Fail)
      throw FaultError("site " + site_name(suspect) +
                       " unreachable after exhausting retries during '" +
                       step + "'");
    dead_.insert(db_of(suspect));
    expects(on_fail != nullptr,
            "DegradeMode::Partial shipment needs a fail handler");
    on_fail(suspect);
  });
}

void ExecEnv::mark(Phase phase, SiteIndex site, std::string step,
                   SimTime begin, SimTime end) {
  if (auto span = open_span(phase, site, std::move(step), begin,
                            AccessMeter{}, SpanCounts{});
      span != nullptr) {
    span->end_ns = end;
    options_.trace_session->record(std::move(*span));
  }
}

void launch_strategy(ExecEnv& env, StrategyKind kind,
                     std::function<void(QueryResult, SimTime)> on_done) {
  switch (kind) {
    case StrategyKind::CA:
      launch_ca(env, std::move(on_done));
      break;
    case StrategyKind::BL:
      launch_localized(env, false, false, false, std::move(on_done));
      break;
    case StrategyKind::PL:
      launch_localized(env, false, true, false, std::move(on_done));
      break;
    case StrategyKind::BLS:
      launch_localized(env, true, false, false, std::move(on_done));
      break;
    case StrategyKind::PLS:
      launch_localized(env, true, true, false, std::move(on_done));
      break;
    case StrategyKind::IM:
      launch_localized(env, false, false, true, std::move(on_done));
      break;
  }
}

StrategyReport ExecEnv::finish(QueryResult result, SimTime response) {
  StrategyReport report;
  report.result = std::move(result);
  report.response_ns = response;
  report.cpu_ns = cluster_->cpu_busy();
  report.disk_ns = cluster_->disk_busy();
  report.net_ns = cluster_->network_busy();
  report.total_ns = report.cpu_ns + report.disk_ns + report.net_ns;
  report.bytes_transferred = cluster_->bytes_transferred();
  report.messages = cluster_->messages();
  report.work = work_;
  report.unavailable_sites.assign(dead_.begin(), dead_.end());
  report.retries = retries_;
  report.failed_messages = failed_messages_;
  report.cert_hits = cert_hits_;
  report.cert_misses = cert_misses_;
  report.imputed_atoms = imputed_atoms_;
  report.impute_declined = impute_declined_;
  return report;
}

Bytes rows_wire_bytes(const CostParams& costs,
                      const std::vector<LocalRow>& rows) {
  Bytes total = 0;
  for (const LocalRow& row : rows) {
    total += costs.loid_bytes + costs.goid_bytes;
    for (const Value& v : row.targets) {
      switch (v.kind()) {
        case ValueKind::Null:
          break;
        case ValueKind::GlobalRef:
        case ValueKind::LocalRef:
          total += costs.goid_bytes;
          break;
        case ValueKind::GlobalRefSet:
          total += costs.goid_bytes *
                   static_cast<Bytes>(v.as_global_ref_set().size());
          break;
        case ValueKind::LocalRefSet:
          // References are globalized before transfer (Fig. 6): set-valued
          // ones travel as GOids exactly like single LocalRefs above.
          total += costs.goid_bytes *
                   static_cast<Bytes>(v.as_local_ref_set().size());
          break;
        default:
          total += costs.attr_bytes;
          break;
      }
    }
    for (const PredStatus& status : row.preds)
      if (is_unknown(status.truth)) total += costs.goid_bytes + 8;
  }
  return total;
}

Bytes check_request_wire_bytes(const CostParams& costs, std::size_t tasks) {
  return costs.attr_bytes + static_cast<Bytes>(tasks) * costs.check_task_bytes();
}

Bytes check_response_wire_bytes(const CostParams& costs,
                                std::size_t verdicts) {
  return costs.attr_bytes + static_cast<Bytes>(verdicts) * costs.verdict_bytes();
}

Bytes semijoin_check_request_bytes(const CostParams& costs,
                                   const std::vector<CheckTask>& tasks) {
  Bytes total = 0;
  for (const CheckTask& task : tasks)
    total += costs.semijoin_task_bytes(task.origin != task.item);
  return total;
}

Bytes ca_projected_bytes(const Federation& federation, DbId db,
                         const AttributeProjection& involved,
                         const CostParams& costs) {
  const ComponentDatabase& database = federation.db(db);
  Bytes total = 0;
  for (const auto& [class_name, attrs] : involved) {
    const GlobalClass& cls = federation.schema().cls(class_name);
    const auto constituent = cls.constituent_in(db);
    if (!constituent) continue;
    const std::string& local_class =
        cls.constituents()[*constituent].local_class;
    Bytes per_object = costs.loid_bytes;
    for (const std::size_t a : attrs) {
      if (cls.is_missing(*constituent, a)) continue;
      per_object += is_complex(cls.def().attribute(a).type)
                        ? costs.goid_bytes
                        : costs.attr_bytes;
    }
    total += per_object * database.extent(local_class).size();
  }
  return total;
}

}  // namespace isomer::detail
