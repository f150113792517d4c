// Hot-path resolution cache for the component-level evaluator.
//
// Without a cache, every predicate evaluation re-resolves each path step per
// object: a directory lookup for the object's class name, a string-hash
// lookup into the schema, and a string-keyed find_attribute over the class's
// attribute list. Over an extent those answers never change — the resolution
// depends only on (class, step) — so an EvalCache resolves each path step to
// its attribute column index once per class and evaluates the rest of the
// extent with integer indexing; dereferences go through
// ComponentDatabase::resolve, which returns the object and its class from
// one array-indexed directory slot. Cached evaluation is observationally
// identical to the uncached path: same PredicateOutcomes (truth and unsolved
// site) and the same AccessMeter counts (see ComponentDatabase::resolve).
//
// The cache holds raw pointers into the database; build one per (database,
// unit of evaluation) and discard it when the database is mutated.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isomer/objmodel/path.hpp"
#include "isomer/store/database.hpp"

namespace isomer {

/// Memoized resolution of one path's steps to attribute column indices.
/// The class reached at a step is a runtime property of the walked objects,
/// so each step keeps a tiny (class -> column) table — one entry in the
/// common case — scanned by pointer identity.
class PathResolution {
 public:
  explicit PathResolution(const PathExpr& path)
      : steps_(path.steps()), by_step_(path.length()) {}

  [[nodiscard]] const std::vector<std::string>& steps() const noexcept {
    return steps_;
  }

  /// Column index of `steps()[step]` in `cls`, or nullopt when the class
  /// does not define it (a schema-level missing attribute). The first call
  /// per (step, class) pays the string-keyed find_attribute; later calls
  /// are a pointer scan.
  [[nodiscard]] std::optional<std::size_t> attr_index(std::size_t step,
                                                      const ClassDef& cls);

 private:
  static constexpr std::size_t kMissing = static_cast<std::size_t>(-1);

  std::vector<std::string> steps_;
  std::vector<std::vector<std::pair<const ClassDef*, std::size_t>>> by_step_;
};

/// Evaluation cache for one ComponentDatabase: per-path step resolutions.
/// Pass to
/// eval_predicate / eval_path / walk_prefix / eval_conjunction
/// (query/eval.hpp).
class EvalCache {
 public:
  explicit EvalCache(const ComponentDatabase& db) : db_(&db) {}

  [[nodiscard]] const ComponentDatabase& db() const noexcept { return *db_; }

  /// The memoized resolution for `path`. Entries are keyed by the path's
  /// address but verified against its steps, so a temporary reusing a dead
  /// path's address cannot alias a stale resolution. A tiny MRU ring in
  /// front of the map makes the per-object re-lookup of a conjunction's
  /// few paths a pointer scan; when an address-reuse forces a slot rebuild,
  /// ring entries pointing at the replaced resolution are scrubbed so the
  /// scan never touches freed memory (test_eval_cache:
  /// AddressReusePoisoning).
  [[nodiscard]] PathResolution& resolution(const PathExpr& path);

 private:
  const ComponentDatabase* db_;
  std::unordered_map<const PathExpr*, std::unique_ptr<PathResolution>>
      by_path_;
  std::array<std::pair<const PathExpr*, PathResolution*>, 4> mru_{};
  std::size_t mru_next_ = 0;
};

}  // namespace isomer
