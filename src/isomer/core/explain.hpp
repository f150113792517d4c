// Result explanation.
//
// The paper's motivation is *more informative answers*: users see maybe
// results instead of silently losing objects to missing data. explain()
// completes the story — for one real-world entity it reports, predicate by
// predicate, what every database could and could not evaluate, which
// objects hold the missing data, what the assistant objects said, and why
// the entity ended up certain, maybe, or eliminated.
#pragma once

#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "isomer/core/strategy.hpp"
#include "isomer/obs/trace_session.hpp"
#include "isomer/query/condition.hpp"

namespace isomer {

/// How one entity fared under a query.
enum class Outcome : unsigned char { Certain, Maybe, Eliminated, NotFound };

[[nodiscard]] std::string_view to_string(Outcome outcome) noexcept;

/// One piece of evidence about one predicate.
struct Evidence {
  DbId db{};          ///< where the evidence was produced
  Truth truth = Truth::Unknown;
  std::string note;   ///< human-readable, e.g. "address missing on o6@DB1"
  bool from_assistant = false;  ///< true when a checked assistant said it
};

/// The full account of one predicate for one entity.
struct PredicateAccount {
  std::size_t predicate = 0;
  std::string rendered;  ///< "X.address.city=Taipei"
  Truth merged = Truth::Unknown;
  std::vector<Evidence> evidence;
};

struct Explanation {
  GOid entity{};
  Outcome outcome = Outcome::NotFound;
  std::vector<PredicateAccount> predicates;
  /// Set when the entity was eliminated by row absence: the database whose
  /// local evaluation rejected its isomeric object outright.
  std::optional<DbId> eliminated_at;
  /// A Maybe outcome's residual condition (query/condition.hpp), as
  /// certify() builds it: the simplified expression over (GOid, predicate)
  /// atoms still undecided once every check verdict is pooled. Constant
  /// True for every other outcome.
  Condition residual;

  /// Residual-atom histogram: predicate index -> how many atoms of
  /// `residual` name it. Empty unless the outcome is Maybe — this is the
  /// per-entity view of CertifyStats::unresolved_by_predicate and of the
  /// "cert.discharge" trace marker's counts.
  [[nodiscard]] std::map<std::size_t, std::uint64_t> residual_histogram()
      const;

  /// Renders the whole account as indented text.
  [[nodiscard]] std::string to_text(const GlobalQuery& query) const;
};

/// Explains how `entity` (a real-world entity of the query's range class)
/// fares under `query`. Works directly on the federation — no simulation —
/// and uses the same evaluation, planning, checking and pooling code paths
/// as the strategies, so the outcome always matches execute_strategy().
[[nodiscard]] Explanation explain(const Federation& federation,
                                  const GlobalQuery& query, GOid entity);

/// Renders a completed trace session as a per-strategy phase tree: one
/// block per (strategy, query), phases in executing order (the strategy's
/// characteristic O/I/P ordering falls straight out), and per phase one
/// aggregated line per (site, step) with simulated time, AccessMeter
/// counts, wire bytes/messages, object flow and certification outcomes.
/// This is the human-readable view of the same spans --trace dumps as
/// JSONL (docs/TRACING.md).
[[nodiscard]] std::string render_phase_tree(const obs::TraceSession& session);

}  // namespace isomer
