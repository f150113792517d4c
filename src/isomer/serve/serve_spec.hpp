// The --serve specification: how a query-serving run offers load and
// schedules it.
//
// A ServeSpec describes one serving experiment over the shared simulated
// federation: the arrival process (open-loop Poisson at a fixed offered
// rate, or a closed loop of N clients that each submit, wait, think and
// resubmit), the total number of query submissions, and the scheduler
// knobs — policy, admission-queue bound, per-site in-flight cap. It is
// parsed with the key=value grammar every spec shares (common/spec.hpp)
// and re-prints canonically so archived bench headers are
// self-describing.
//
// A spec may additionally carry tenant clauses ('/tenant:ID,...'): named
// traffic classes with a fairness weight, an admission quota and an
// optional latency SLO. Tenants turn the anonymous queue into a
// multi-tenant server (serve/server.hpp); a spec with no tenant clause
// behaves exactly as before.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "isomer/sim/simulator.hpp"

namespace isomer::serve {

/// How queries arrive at the admission controller.
enum class ArrivalMode : unsigned char {
  Open,    ///< open loop: Poisson arrivals at `rate_qps`, blind to progress
  Closed,  ///< closed loop: `clients` submitters, one query in flight each
};

/// Which waiting query the scheduler starts next.
enum class SchedPolicy : unsigned char {
  Fifo,  ///< admission order
  /// Shortest predicted cost first: the advisor's per-query cost estimate
  /// (serve/planner.hpp) is the priority; ties fall back to admission order.
  Spc,
  /// Weighted fair queueing: start-time fair queueing over predicted cost,
  /// so each tenant's long-run service share tracks its configured weight.
  Wfq,
  /// Earliest deadline first: deadline = arrival + the tenant's SLO target;
  /// submissions without an SLO sort last, in admission order.
  Edf,
};

[[nodiscard]] std::string_view to_string(ArrivalMode mode) noexcept;
[[nodiscard]] std::string_view to_string(SchedPolicy policy) noexcept;

/// One named traffic class of a multi-tenant serving run.
struct TenantSpec {
  std::string id;      ///< non-empty; [A-Za-z0-9_-]+, unique within the spec
  double weight = 1.0; ///< WFQ service share (> 0, finite)
  /// Admitted-but-not-started submissions this tenant may hold in the
  /// shared queue before its arrivals are rejected (0 = unbounded). Keeps
  /// one tenant from starving the global admission queue.
  std::size_t quota = 0;
  SimTime slo_ns = 0;  ///< latency SLO target; 0 = no deadline
  /// Open loop only: this tenant's offered arrival rate. 0 = an equal share
  /// of the spec-level rate_qps.
  double rate_qps = 0.0;

  friend bool operator==(const TenantSpec&, const TenantSpec&) = default;
};

/// One parsed --serve=SPEC. Defaults describe a light open-loop run.
struct ServeSpec {
  ArrivalMode mode = ArrivalMode::Open;
  double rate_qps = 50.0;       ///< open loop: mean arrivals per second
  std::size_t clients = 4;      ///< closed loop: concurrent submitters
  SimTime think_ns = 0;         ///< closed loop: pause between completions
  std::size_t n_queries = 100;  ///< total submissions across the whole run
  SchedPolicy policy = SchedPolicy::Fifo;
  /// Admitted-but-not-started queries the queue holds before the admission
  /// controller rejects new arrivals (0 = unbounded).
  std::size_t queue_limit = 64;
  /// Concurrent executions a single site serves before the scheduler holds
  /// back further starts (0 = unbounded).
  std::size_t site_inflight = 4;
  std::uint64_t seed = 0;  ///< arrival / pool-pick RNG stream
  /// Adapt the per-site in-flight cap at runtime from the observed
  /// queue-wait histogram: raise it while queue-wait p95 grows and sites
  /// sit idle, lower it back toward `site_inflight` on the reverse.
  /// Requires site_inflight > 0 (the cap being scaled).
  bool autoscale = false;
  /// Traffic classes; empty = the classic anonymous single-tenant queue.
  std::vector<TenantSpec> tenants;

  friend bool operator==(const ServeSpec&, const ServeSpec&) = default;
};

/// Parses the --serve specification mini-language:
///
///   SPEC    := MODE [':' item (',' item)*] ('/' TENANT)*
///   MODE    := 'open' | 'closed'
///   item    := 'rate=' REAL        open loop: offered queries per second
///            | 'clients=' INT      closed loop: concurrent submitters
///            | 'think=' DUR        closed loop: pause before resubmitting
///            | 'n=' INT            total query submissions
///            | 'policy=' ('fifo' | 'spc' | 'wfq' | 'edf')
///            | 'queue=' INT        admission queue bound (0 = unbounded)
///            | 'inflight=' INT     per-site in-flight cap (0 = unbounded)
///            | 'autoscale=' ('on' | 'off')
///            | 'seed=' INT
///   TENANT  := 'tenant:' ID (',' titem)*
///   titem   := 'weight=' REAL      fairness weight (> 0, finite)
///            | 'quota=' INT        per-tenant queue share (0 = unbounded)
///            | 'slo=' DUR          latency SLO target
///            | 'rate=' REAL        open loop: this tenant's offered rate
///
/// INT, DUR and REAL follow the shared spec grammar (common/spec.hpp):
/// every key appears at most once per clause, numbers past their field's
/// range are errors, and reals are finite (rates and weights positive).
/// A repeated tenant id is a hard error too, and so are keys of the other
/// arrival mode ('rate' under closed, 'clients'/'think' under open).
/// Example: "open:rate=50,n=500,policy=wfq/tenant:gold,weight=3/tenant:free".
/// Throws ServeError on malformed input.
[[nodiscard]] ServeSpec parse_serve_spec(std::string_view spec);

/// Canonical re-print: mode, then every field of that mode in a fixed
/// order, durations in nanoseconds. New fields print only when set
/// (autoscale only when on, tenant clauses only when present, a tenant's
/// rate only when non-zero under open arrivals), so specs predating them
/// re-print byte-identically. parse_serve_spec(to_string(s)) reproduces
/// `s` exactly; the bench harnesses archive this string in their --json
/// headers.
[[nodiscard]] std::string to_string(const ServeSpec& spec);

/// Rejects specs the parser could never produce but hand-built code can:
/// non-positive/non-finite rates, zero clients, zero queries, bad tenant
/// weights, duplicate/empty tenant ids, autoscale without an in-flight
/// cap. serve() runs this before simulating. Throws ServeError.
void validate_serve_spec(const ServeSpec& spec);

}  // namespace isomer::serve
