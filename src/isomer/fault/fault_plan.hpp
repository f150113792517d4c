// Fault injection for the simulated federation.
//
// The paper's whole premise is answering global queries when data is
// *missing* — and an unreachable component site is just another source of
// missing data: its constituents' attribute values become unavailable
// exactly like schema-level missing attributes, so Codd-style
// maybe-semantics give a principled degraded answer (see fault/degrade.hpp
// and docs/FAULTS.md).
//
// A FaultPlan describes what goes wrong on the wire of one simulated
// execution: per-site outage windows, a message-drop probability, and
// latency spikes. All randomness is drawn from an Rng seeded via the
// existing derive_stream scheme, so a (plan, strategy) pair replays
// bit-identically — the Monte-Carlo harness derives one plan seed per trial
// and stays --jobs-invariant.
//
// A RetryPolicy bounds how a sender reacts: per-message timeouts and
// exponentially backed-off retries, all charged to the simulated clock.
// When the policy is exhausted the executor either throws FaultError
// (DegradeMode::Fail) or degrades the answer (DegradeMode::Partial).
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "isomer/common/ids.hpp"
#include "isomer/sim/simulator.hpp"

namespace isomer::fault {

/// "Until the end of the run" for outage windows.
inline constexpr SimTime kForever = std::numeric_limits<SimTime>::max();

/// One site outage: database `db` neither receives nor sends messages while
/// `from <= t < until` (in-progress local work completes; the failure model
/// is the *network's* view of the site, which is all the protocols observe).
struct Outage {
  DbId db;
  SimTime from = 0;
  SimTime until = kForever;

  friend bool operator==(const Outage&, const Outage&) = default;
};

/// What goes wrong during one simulated execution. Default-constructed
/// plans inject nothing: `enabled()` is false and the executors take
/// exactly the fault-free code path, so a zero-fault plan is bitwise
/// identical to running without one.
struct FaultPlan {
  std::vector<Outage> outages;
  /// Probability that a message attempt is lost in transit.
  double drop_probability = 0.0;
  /// Probability that a delivered message is delayed by `spike_ns` extra.
  double spike_probability = 0.0;
  SimTime spike_ns = 2'000'000;  // 2 ms
  /// Seed of the plan's private RNG stream (derive_stream-mixed by the
  /// executor, so strategy executions draw independently).
  std::uint64_t seed = 0;

  /// True when the plan can actually perturb an execution.
  [[nodiscard]] bool enabled() const noexcept {
    return !outages.empty() || drop_probability > 0 || spike_probability > 0;
  }

  /// Is `db` inside an outage window at simulated time `at`?
  [[nodiscard]] bool down(DbId db, SimTime at) const noexcept {
    for (const Outage& outage : outages)
      if (outage.db == db && at >= outage.from && at < outage.until)
        return true;
    return false;
  }

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// How a sender reacts to an unacknowledged message: it declares the
/// attempt lost `timeout_ns` after sending, waits an exponentially growing
/// backoff, and retransmits, up to `max_retries` retransmissions. All of
/// this is pure simulated waiting — it delays the protocol without burning
/// CPU or disk, exactly like a real timeout.
struct RetryPolicy {
  int max_retries = 3;
  SimTime timeout_ns = 2'000'000;  // 2 ms: loss detection latency
  SimTime backoff_ns = 1'000'000;  // 1 ms base, doubled per retransmission
  /// Backoff before retransmission number `attempt` (0-based): integer
  /// doubling, saturating, so simulated times stay exact.
  [[nodiscard]] SimTime backoff(int attempt) const noexcept {
    if (attempt >= 62) return kForever / 2;
    const SimTime factor = SimTime{1} << attempt;
    if (backoff_ns > 0 && factor > kForever / backoff_ns) return kForever / 2;
    return backoff_ns * factor;
  }

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

/// What an executor does when the retry policy is exhausted.
enum class DegradeMode : unsigned char {
  Fail,     ///< throw FaultError — the query has no answer
  Partial,  ///< skip the dead site's constituents, degrade + tag the answer
};

[[nodiscard]] std::string_view to_string(DegradeMode mode) noexcept;

/// One parsed --faults=SPEC: the plan plus the reaction knobs. Grammar in
/// docs/FAULTS.md; parse_fault_spec throws FaultError on malformed input.
struct FaultSpec {
  FaultPlan plan;
  RetryPolicy retry;
  DegradeMode degrade = DegradeMode::Partial;

  friend bool operator==(const FaultSpec&, const FaultSpec&) = default;
};

/// Canonical re-print of a parsed spec: every resolved field in a fixed
/// order, durations in nanoseconds. parse_fault_spec(to_string(s)) always
/// reproduces `s`, and the string is what the bench harnesses archive in
/// their --json headers so runs are self-describing.
[[nodiscard]] std::string to_string(const FaultSpec& spec);

/// Parses the --faults specification mini-language:
///
///   SPEC    := item (',' item)*
///   item    := 'drop=' REAL                  message-drop probability
///            | 'spike=' REAL ':' DUR         spike probability : extra delay
///            | 'down=' INT ['@' DUR '..' [DUR]]   outage of DB<INT>
///            | 'seed=' INT
///            | 'retries=' INT
///            | 'timeout=' DUR
///            | 'backoff=' DUR
///            | 'degrade=' ('fail' | 'partial')
///
/// INT, DUR and REAL follow the shared spec grammar (common/spec.hpp):
/// numbers past their field's range, including overflow, are errors, and
/// probabilities must be finite reals in [0, 1]. Every key except 'down'
/// may appear at most once; each 'down' adds another outage window.
///
/// Example: "drop=0.05,spike=0.1:1ms,down=2,retries=4,degrade=partial".
[[nodiscard]] FaultSpec parse_fault_spec(std::string_view spec);

}  // namespace isomer::fault
