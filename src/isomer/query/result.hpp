// Query results.
//
// Following Codd's maybe-result semantics the answer to a global query is
// two sets: *certain* results (every predicate True) and *maybe* results
// (no predicate False, at least one Unknown after certification). Rows are
// keyed by GOid — isomeric objects collapse to one row per real-world
// entity. Objects with any False predicate are eliminated and do not appear.
#pragma once

#include <algorithm>
#include <optional>
#include <ostream>
#include <vector>

#include "isomer/common/ids.hpp"
#include "isomer/common/value.hpp"
#include "isomer/query/condition.hpp"

namespace isomer {

enum class ResultStatus : unsigned char { Certain, Maybe };

[[nodiscard]] constexpr std::string_view to_string(ResultStatus s) noexcept {
  return s == ResultStatus::Certain ? "certain" : "maybe";
}

/// One answer row: the entity, its certainty, and the projected target
/// values (aligned with GlobalQuery::targets; references are GlobalRefs;
/// values unavailable in any component database are null). When a query
/// degrades gracefully over an unreachable component site, rows whose
/// certainty was affected by the outage carry the `unavailable` tag (see
/// fault/degrade.hpp for the tagging rule); on a fully live federation the
/// flag is always false.
struct ResultRow {
  GOid entity;
  ResultStatus status = ResultStatus::Maybe;
  std::vector<Value> targets;
  bool unavailable = false;
  /// The residual condition under which the row is in the certain answer
  /// (query/condition.hpp): True for certain rows; for maybe rows, the
  /// simplified expression over the still-undecided atoms. Deliberately
  /// *excluded* from equality: the centralized approach derives its
  /// residual from one materialized evaluation while the localized
  /// approaches pool per-database rows, so equivalent maybe rows carry
  /// syntactically different (truth-equivalent) conditions.
  Condition condition;
  /// Probabilistic-certification confidence (the IM strategy,
  /// docs/IMPUTATION.md): the product of the smoothed confidences of every
  /// imputed verdict this row's certification consumed. 1.0 — exact — for
  /// every row of the certifying strategies, and for IM rows certified
  /// without touching an estimate. Excluded from equality like `condition`:
  /// it annotates *how* the answer was reached, not what it is, and the
  /// thresh=1.0 bitwise-identity property compares IM rows (all confidence
  /// 1.0 there anyway) against reference rows that never carry one.
  double confidence = 1.0;

  friend bool operator==(const ResultRow& a, const ResultRow& b) {
    return a.entity == b.entity && a.status == b.status &&
           a.targets == b.targets && a.unavailable == b.unavailable;
  }
};

/// The full answer to a global query.
struct QueryResult {
  std::vector<ResultRow> rows;

  /// Sorts rows by GOid; all strategies normalize before returning so that
  /// results compare structurally. Rows already in GOid order (what
  /// certify and evaluate_global emit) are left as they are.
  void normalize() {
    const auto by_entity = [](const ResultRow& a, const ResultRow& b) {
      return a.entity < b.entity;
    };
    if (!std::is_sorted(rows.begin(), rows.end(), by_entity))
      std::sort(rows.begin(), rows.end(), by_entity);
  }

  [[nodiscard]] const ResultRow* find(GOid entity) const noexcept {
    for (const ResultRow& row : rows)
      if (row.entity == entity) return &row;
    return nullptr;
  }

  [[nodiscard]] std::size_t certain_count() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(rows.begin(), rows.end(), [](const ResultRow& r) {
          return r.status == ResultStatus::Certain;
        }));
  }
  [[nodiscard]] std::size_t maybe_count() const noexcept {
    return rows.size() - certain_count();
  }
  [[nodiscard]] std::size_t unavailable_count() const noexcept {
    return static_cast<std::size_t>(
        std::count_if(rows.begin(), rows.end(),
                      [](const ResultRow& r) { return r.unavailable; }));
  }

  friend bool operator==(const QueryResult&, const QueryResult&) = default;
};

std::ostream& operator<<(std::ostream& os, const QueryResult& result);

}  // namespace isomer
