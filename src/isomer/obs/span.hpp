// Phase spans — the unit of observability (docs/TRACING.md).
//
// The paper's three strategies differ only in how they order the O
// (assistant lookup / checking), I (integration / certification) and P
// (predicate evaluation) phases; end-of-run aggregates cannot show *where*
// a strategy spends its messages, bytes, or maybe-to-certain conversions.
// A PhaseSpan captures one contiguous piece of simulated work at one site —
// its phase letter, its AccessMeter delta, the bytes and messages it put on
// the wire, and the object / certification counts flowing through it — so a
// completed trace decomposes Tables 1-2's totals phase by phase.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "isomer/sim/cost_params.hpp"
#include "isomer/sim/simulator.hpp"
#include "isomer/store/meter.hpp"

namespace isomer {

/// What a span's simulated work was, in Fig. 8's terms: O (assistant lookup
/// / checking), I (integration / certification) and P (predicate
/// evaluation), plus Transfer and Setup for communication and bookkeeping.
/// The rest are zero-cost markers (ExecEnv::mark) that show what the fault,
/// planning, certificate-cache, serving and imputation machinery did.
enum class Phase : unsigned char {
  Setup, O, I, P, Transfer, Fault, Plan, Cert,
  /// Serving-layer attribution: time a submission spent between admission
  /// and launch, attributed to its tenant (serve/server.hpp).
  Serve,
  /// IM-strategy markers (core/im.cpp): check atoms answered from the
  /// population model instead of the wire (`im.impute/<n>` /
  /// `im.decline/<n>` steps).
  Impute,
};

[[nodiscard]] std::string_view to_string(Phase phase) noexcept;

}  // namespace isomer

namespace isomer::obs {

/// One per-phase span of a strategy execution. Field semantics and the
/// stable JSONL encoding are documented in docs/TRACING.md (format
/// "isomer-trace-v1"); additions must stay backward-compatible.
struct PhaseSpan {
  std::string strategy;  ///< "CA", "BL", "PL", "BLS", "PLS"
  /// Query sequence number within the session: 0 for single-query runs,
  /// the stream index under run_query_stream.
  std::uint64_t query = 0;
  Phase phase = Phase::Setup;
  std::string site;  ///< "global", "DB<k>", or "A->B" for transfers
  std::string step;  ///< protocol step label, e.g. "CA_G2 outerjoin"
  /// Simulated wall-clock interval (queue-inclusive), in simulator ns.
  SimTime start_ns = 0;
  SimTime end_ns = 0;

  /// Logical work charged within this span (zero for transfer spans).
  AccessMeter work;

  /// Wire traffic of this span (non-zero only for transfer spans).
  Bytes bytes = 0;
  std::uint64_t messages = 0;

  /// Objects entering / surviving this span (0 when not applicable):
  /// e.g. phase P at a home database reports candidate roots in and
  /// shipped rows out; a check step reports tasks in and verdicts out.
  std::uint64_t objects_in = 0;
  std::uint64_t objects_out = 0;

  /// Certification outcomes (only the global certify / evaluate spans):
  /// entities resolved certain vs. eliminated by pooled evidence.
  std::uint64_t certs_resolved = 0;
  std::uint64_t certs_eliminated = 0;

  friend bool operator==(const PhaseSpan&, const PhaseSpan&) = default;
};

}  // namespace isomer::obs
