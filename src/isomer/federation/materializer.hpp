// Materialization of global classes (paper §2.2, Fig. 6).
//
// The centralized approach ships every object of the local root and branch
// classes to the global processing site and integrates the constituent
// extents with an *outerjoin over GOids*: isomeric objects collapse into one
// materialized object per real-world entity, missing attribute values are
// filled from whichever isomeric object defines them, and LOid references
// are rewritten to GOid references.
//
// Value combination policy: attributes are filled from constituents in
// ascending DbId order, first non-null value wins. On consistent federations
// (see Federation::check_consistency) the order cannot change the outcome.
// A reference set is read as the component database reads it: an empty set
// is a value (not null), and a dangling member stays in the set as GOid 0,
// which no extent finds (docs/CONDITIONS.md, "Reference sets").
//
// Storage: one column per attribute over the class's entity positions
// (GoidTable::entities_of order). The outerjoin fills a column one
// constituent at a time from the component extents' columnar mirrors
// (store/columnar.hpp), placing each constituent object at its entity's
// position with one GOid probe; no entity allocates anything. A column
// takes the kind its constituents' mirrors agree on — numbers, booleans or
// single references (target GOids) — and holds every other cell (strings,
// reference sets, kinds that differ, union-merged sets) as a Value.
// A cell read returns the value the outerjoin merged: an Int stays an Int,
// however large. Phase P (evaluate_global) follows single-reference columns
// for every entity at once and runs the predicate kernels on the terminal
// column (query/reach.hpp); other predicates, and every target, take
// query/navigate.hpp's walk over cells.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "isomer/common/hash.hpp"
#include "isomer/federation/federation.hpp"
#include "isomer/query/query.hpp"
#include "isomer/query/result.hpp"
#include "isomer/store/columnar.hpp"

namespace isomer {

/// The integrated extent of one global class: one column per attribute,
/// indexed by entity position (an entity's class position in the GOid
/// table).
class MaterializedExtent {
 public:
  /// One attribute's cells. Only the kind's own arrays are filled; reading
  /// a column the outerjoin did not project violates a contract.
  struct Column {
    ColumnarExtent::ColKind kind = ColumnarExtent::ColKind::AllNull;
    bool projected = false;
    std::vector<std::uint64_t> valid;    ///< bit p: cell p is non-null
    std::vector<double> nums;            ///< Num: the cell as_number()
    std::vector<std::uint64_t> is_int;   ///< Num: bit p: cell p is an Int
    std::vector<std::int64_t> ints;      ///< Num: the exact Int cells
    std::vector<std::uint8_t> bools;     ///< Bool
    std::vector<GOid> refs;              ///< Ref: the target entity
    std::vector<Value> values;           ///< Other: the cell itself

    [[nodiscard]] bool is_valid(std::size_t pos) const noexcept {
      return ((valid[pos >> 6] >> (pos & 63)) & 1) != 0;
    }
    /// The kernels' view of a Num, Bool or AllNull column.
    [[nodiscard]] ColumnarExtent::Column kernel() const noexcept;
  };

  MaterializedExtent(const GlobalClass& cls, const GoidTable& goids);

  [[nodiscard]] const GlobalClass& cls() const noexcept { return *cls_; }
  [[nodiscard]] std::size_t size() const noexcept { return entities_.size(); }
  /// The entities in position order (GoidTable::entities_of).
  [[nodiscard]] std::span<const GOid> entities() const noexcept {
    return entities_;
  }
  /// The position of entity `id`; nullopt for GOid 0, a GOid past the end,
  /// or an entity of another class.
  [[nodiscard]] std::optional<std::size_t> position(GOid id) const noexcept;

  /// Whether the outerjoin filled attribute `attr`.
  [[nodiscard]] bool projected(std::size_t attr) const noexcept {
    return columns_[attr].projected;
  }
  /// The column of attribute `attr`; it must have been projected.
  [[nodiscard]] const Column& column(std::size_t attr) const;
  /// The cell of attribute `attr` at position `pos`: a reference into the
  /// column for Other cells, else `scratch` set to the value.
  const Value& read(std::size_t pos, std::size_t attr, Value& scratch) const;
  [[nodiscard]] Value cell(std::size_t pos, std::size_t attr) const {
    Value scratch;
    return read(pos, attr, scratch);
  }

 private:
  friend class Outerjoin;

  const GlobalClass* cls_;
  const GoidTable* goids_;
  std::span<const GOid> entities_;
  std::vector<Column> columns_;
};

/// A set of materialized global extents — the global site's integrated view.
class MaterializedView {
 public:
  [[nodiscard]] const MaterializedExtent& extent(
      std::string_view global_class) const;
  MaterializedExtent& add_extent(const GlobalClass& cls,
                                 const GoidTable& goids);

 private:
  std::unordered_map<std::string, MaterializedExtent, TransparentStringHash,
                     std::equal_to<>>
      extents_;
};

/// Global attribute indexes per global class.
using AttributeProjection = std::map<std::string, std::set<std::size_t>>;

/// The global classes a query touches: its range class plus every branch
/// class reached by a target or predicate path.
[[nodiscard]] std::vector<std::string> classes_involved(
    const GlobalSchema& schema, const GlobalQuery& query);

/// Global attributes each global class contributes to the query (targets,
/// predicates, and the references navigated on the way) — what the
/// centralized approach projects before shipping (paper §3.1).
[[nodiscard]] AttributeProjection involved_attributes(
    const GlobalSchema& schema, const GlobalQuery& query);

/// How the outerjoin combines attribute values of isomeric objects.
enum class MergePolicy {
  /// Ascending DbId order, first non-null wins (the default; on consistent
  /// federations the order cannot change the outcome).
  FirstNonNull,
  /// Like FirstNonNull, but *multi-valued* complex attributes take the
  /// union of all isomers' reference sets — the paper's §5 third
  /// future-work item ("multi-valued attributes whose values come from
  /// attributes in different component databases"). Single-valued
  /// attributes are unaffected. Note the localized strategies evaluate
  /// set-valued attributes per database (the paper leaves their protocol
  /// for this case open), so union-merged answers are a centralized-only
  /// capability.
  UnionSets,
};

/// Integrates the given global classes from all component databases.
/// Charges one comparison per constituent object (the outerjoin's GOid
/// probe), the object's fetch, and one table probe per reference it
/// rewrites into a cell. With `project`, a class fills only the attributes
/// listed for it plus every reference attribute (the rewrite probes are
/// charged for all of them); without it, every attribute. When `exclude` is
/// non-null, isomeric objects living in those databases are skipped — the
/// integrated view a degraded federation can actually build when those
/// sites are unreachable (fault::DegradeMode::Partial). An entity whose
/// every isomer is excluded still gets a materialized object (all-null
/// values): the GOid table at the global site remembers the entity even
/// when no component can describe it. The view looks entities up through
/// the federation's GOid table, so it must not outlive the federation.
[[nodiscard]] MaterializedView materialize(
    const Federation& federation, const std::vector<std::string>& classes,
    AccessMeter* meter = nullptr,
    MergePolicy policy = MergePolicy::FirstNonNull,
    const std::set<DbId>* exclude = nullptr,
    const AttributeProjection* project = nullptr);

/// Evaluates a global query against a materialized view (the centralized
/// approach's phase P): three-valued predicate evaluation over the
/// integrated entities; True conjunction => certain row, Unknown => maybe
/// row, False => eliminated. Meters and rows equal the row walk's: one
/// comparison per arrival at a terminal attribute, one fetch per reference
/// followed, target paths walked for surviving rows only.
[[nodiscard]] QueryResult evaluate_global(const MaterializedView& view,
                                          const GlobalSchema& schema,
                                          const GlobalQuery& query,
                                          AccessMeter* meter = nullptr);

}  // namespace isomer
