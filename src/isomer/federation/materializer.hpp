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
#pragma once

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "isomer/common/hash.hpp"
#include "isomer/federation/federation.hpp"
#include "isomer/query/query.hpp"
#include "isomer/query/result.hpp"

namespace isomer {

/// One integrated object: values aligned with the GlobalClass definition,
/// references expressed as GlobalRefs.
struct MaterializedObject {
  GOid id;
  std::vector<Value> values;
};

/// The integrated extent of one global class: one object per entity, in
/// GoidTable::entities_of order, so an entity's object sits at its class
/// position in the GOid table.
class MaterializedExtent {
 public:
  MaterializedExtent(const GlobalClass& cls, const GoidTable& goids)
      : cls_(&cls), goids_(&goids) {}

  [[nodiscard]] const GlobalClass& cls() const noexcept { return *cls_; }
  [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }
  [[nodiscard]] const std::vector<MaterializedObject>& objects()
      const noexcept {
    return objects_;
  }
  /// The object of entity `id`; nullptr for GOid 0, a GOid past the end, or
  /// an entity of another class.
  [[nodiscard]] const MaterializedObject* find(GOid id) const noexcept;

  /// Appends the object of the class's next entity in entities_of order.
  void insert(MaterializedObject obj);

  /// Pre-sizes for `n` objects (the outerjoin knows the entity count of the
  /// class up front — reserve before inserting to avoid realloc churn).
  void reserve(std::size_t n);

 private:
  const GlobalClass* cls_;
  const GoidTable* goids_;
  std::vector<MaterializedObject> objects_;
};

/// A set of materialized global extents — the global site's integrated view.
class MaterializedView {
 public:
  [[nodiscard]] bool has_extent(std::string_view global_class) const noexcept;
  [[nodiscard]] const MaterializedExtent& extent(
      std::string_view global_class) const;
  MaterializedExtent& add_extent(const GlobalClass& cls,
                                 const GoidTable& goids);

 private:
  std::unordered_map<std::string, MaterializedExtent, TransparentStringHash,
                     std::equal_to<>>
      extents_;
};

/// The global classes a query touches: its range class plus every branch
/// class reached by a target or predicate path.
[[nodiscard]] std::vector<std::string> classes_involved(
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
/// probe) and table probes for reference rewriting. When `exclude` is
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
    const std::set<DbId>* exclude = nullptr);

/// Evaluates a global query against a materialized view (the centralized
/// approach's phase P): three-valued predicate evaluation over the
/// integrated objects; True conjunction => certain row, Unknown => maybe
/// row, False => eliminated.
[[nodiscard]] QueryResult evaluate_global(const MaterializedView& view,
                                          const GlobalSchema& schema,
                                          const GlobalQuery& query,
                                          AccessMeter* meter = nullptr);

}  // namespace isomer
