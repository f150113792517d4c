// Local query execution (phase P at a component database).
//
// A component database evaluates the *global* query's predicates against its
// own objects as far as its schema and data allow. Evaluation is
// translation-aware: every step of a global path is mapped to the local
// attribute through the global schema's bindings; a step the constituent
// class does not define (missing attribute), a null value, or a dangling
// reference makes the predicate Unknown, and the evaluator reports the
// *unsolved site*: the object holding the missing data (the paper's unsolved
// item when nested) and the global path step.
//
// The translation is a property of the query and the schemas, not of the
// object: BoundQuery resolves every path step once per call — to a local
// attribute index per database, or to "missing at this step" — so
// evaluation only indexes. This is equivalent to evaluating the derived
// LocalQuery's local predicates plus marking its schema-unsolved predicates
// per object (the LocalQuery form exists for the protocol and the cost
// model, this evaluator for the logic). BoundQuery::evaluate serves every
// caller over a candidate list (query/reach.hpp): phase P's roots or index
// hits, PL's discovery, an assistant check's assistants, explain and the
// advisor. The parity suites check it against a by-name reference walker
// (tests/eval_oracle.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "isomer/federation/federation.hpp"
#include "isomer/federation/indexes.hpp"
#include "isomer/query/query.hpp"
#include "isomer/query/reach.hpp"

namespace isomer {

/// Outcome of evaluating one global predicate on one local object; an
/// Unknown outcome's holder is the local object holding the missing data.
using LocalPredOutcome = NavOutcome<LOid>;

/// A global query bound to the federation once per call. Every predicate
/// and target path is resolved against the global schema (QueryError when
/// malformed) and then, per step and per component database, to the local
/// attribute index implementing the step — or to "missing at this step"
/// when that database's constituent of the step's class lacks the
/// attribute, or the database holds no constituent of the class. Each
/// step's global class is static (GlobalStep), so per-object evaluation is
/// integer indexing only.
///
/// A binding borrows the federation and the query and must not outlive
/// either. It is built inside each entry point and never memoized across
/// calls: a query rebuilt at the same address gets a fresh binding.
class BoundQuery {
 public:
  /// One component database as the evaluators see it; resolve once with
  /// site() and pass it to every per-object call.
  struct Site {
    const ComponentDatabase* database = nullptr;
    std::size_t slot = 0;  ///< position in Federation::db_ids()
  };

  BoundQuery(const Federation& federation, const GlobalQuery& query);
  BoundQuery(const Federation&, GlobalQuery&&) = delete;  // would dangle

  [[nodiscard]] Site site(DbId db) const;

  /// The global class whose attribute predicate `p` reads at `step`.
  [[nodiscard]] const GlobalClass& step_class(std::size_t p,
                                              std::size_t step) const {
    return *predicates_[p].steps[step].cls;
  }

  /// The local attribute index predicate `p` reads at `step` in `site`'s
  /// database; nullopt when the attribute is missing there.
  [[nodiscard]] std::optional<std::size_t> local_attr(Site site, std::size_t p,
                                                      std::size_t step) const;

  /// Evaluates each predicate of `preds` from `step` on every candidate, an
  /// object of step_class(p, step) (one class for every p): out[i][c]
  /// is eval_predicate's outcome of preds[i] on candidate c, and `meter` is
  /// charged its totals — fetches through `cache` on first touch, or with
  /// no cache once per arrival (point lookups). Fetching the candidates and
  /// probing holders' GOids are the caller's.
  [[nodiscard]] std::vector<std::vector<LocalPredOutcome>> evaluate(
      Site site, std::size_t step, std::span<const LOid> candidates,
      std::span<const std::uint32_t> preds, AccessMeter* meter = nullptr,
      FetchCache* cache = nullptr) const;

  /// Evaluates predicate `p` from `step` on `obj`, an object of
  /// step_class(p, step)'s constituent in `site`'s database, by
  /// query/navigate.hpp's walk: evaluate()'s fallback for paths the reaches
  /// cannot mirror. A later step than 0 is an assistant check's suffix; the
  /// reported unsolved step stays absolute. Charges fetches/comparisons to
  /// `meter`.
  [[nodiscard]] LocalPredOutcome eval_predicate(
      Site site, std::size_t p, const Object& obj, std::size_t step = 0,
      AccessMeter* meter = nullptr, FetchCache* cache = nullptr) const;

  /// Evaluates target `t` on root object `root` within `site`'s database;
  /// returns the value in *global* form (references globalized), or null
  /// when missing.
  [[nodiscard]] Value eval_target(Site site, std::size_t t, const Object& root,
                                  AccessMeter* meter = nullptr,
                                  FetchCache* cache = nullptr) const;

 private:
  static constexpr std::uint32_t kMissing = UINT32_MAX;

  struct Path {
    const PathExpr* expr = nullptr;
    std::vector<GlobalStep> steps;
    /// local[slot * steps.size() + step]: local attribute index, or kMissing.
    std::vector<std::uint32_t> local;

    [[nodiscard]] std::uint32_t at(Site site, std::size_t step) const {
      return local[site.slot * steps.size() + step];
    }
  };

  struct Storage;  ///< the navigator's policy over one database

  [[nodiscard]] Path bind(const PathExpr& expr) const;

  const Federation* federation_;
  const GlobalQuery* query_;
  std::vector<Site> sites_;  ///< Federation::db_ids() order
  std::vector<Path> predicates_;
  std::vector<Path> targets_;
};

/// Per-predicate status carried by a local result row. For conjunctive
/// queries False never appears — objects failing any conjunct are
/// eliminated locally and never shipped (the localized approaches' whole
/// data reduction). Under disjunctive queries a False conjunct can travel
/// in a surviving row (another alternative may still hold).
struct PredStatus {
  Truth truth = Truth::Unknown;
  /// Valid iff truth == Unknown:
  GOid item;             ///< entity of the object holding the missing data
  std::size_t step = 0;  ///< global path step that was unsolved
  /// True when the holder is the row's root object at step 0 — such sites
  /// are certified through the other databases' local results rather than
  /// through explicit assistant checks.
  bool root_level = false;
};

/// One local result row (a local certain or maybe result).
struct LocalRow {
  LOid root;
  GOid entity;
  std::vector<Value> targets;      ///< aligned with GlobalQuery::targets
  std::vector<PredStatus> preds;   ///< aligned with GlobalQuery::predicates

  [[nodiscard]] bool locally_certain() const noexcept {
    for (const PredStatus& status : preds)
      if (!is_true(status.truth)) return false;
    return true;
  }
};

/// The outcome of running the local query at one component database.
struct LocalExecution {
  DbId db{};
  std::vector<LocalRow> rows;
  AccessMeter meter;  ///< all local physical work (scan, fetches, compares)
  /// Candidate root objects evaluated (extent size, or index candidates):
  /// with rows.size(), the local data reduction the trace layer reports.
  std::uint64_t considered = 0;
};

/// Runs the global query locally at `db` (which must hold a constituent of
/// the range class): evaluates every predicate on every candidate root
/// (BoundQuery::evaluate), drops False objects, and builds rows with
/// globalized target values and unsolved sites. The root extent is scanned
/// unless `indexes` covers one of the query's conjunctive equality
/// predicates here, in which case only the matching + null-bucket
/// candidates are fetched (identical rows, less disk; see
/// federation/indexes.hpp for why the null bucket is required).
[[nodiscard]] LocalExecution run_local_query(const Federation& federation,
                                             const GlobalQuery& query,
                                             DbId db,
                                             const ExtentIndexes* indexes =
                                                 nullptr);

}  // namespace isomer
