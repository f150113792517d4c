#include "isomer/fault/degrade.hpp"

#include <string>
#include <vector>

#include "isomer/common/error.hpp"
#include "isomer/objmodel/path.hpp"

namespace isomer::fault {

namespace {

/// Could an unreachable database have contributed evidence for attribute
/// `attr_index` of `item` (a member of global class `cls`)? True when a
/// dead site holds an isomeric object of `item` whose constituent class
/// defines the attribute — exactly the capability criterion assistant
/// planning uses, so the tag mirrors which checks could not run.
bool dead_site_could_assist(const Federation& federation, GOid item,
                            const GlobalClass& cls, std::size_t attr_index,
                            const std::set<DbId>& unavailable) {
  for (const LOid& isomer : federation.goids().isomers_of(item)) {
    if (unavailable.count(isomer.db) == 0) continue;
    const auto constituent = cls.constituent_in(isomer.db);
    if (constituent && !cls.is_missing(*constituent, attr_index)) return true;
  }
  return false;
}

/// Rule (b) for one predicate path: walk the live view from `entity` and
/// report whether the walk stops at missing data a dead site could have
/// supplied. The walk stops exactly where every strategy's evidence stops —
/// at the first null on the live data — so the outcome is
/// strategy-independent by construction.
bool path_hits_unavailable(const Federation& federation,
                           const MaterializedView& view,
                           const ResolvedPath& resolved, GOid entity,
                           const std::set<DbId>& unavailable) {
  const GlobalSchema& schema = federation.schema();
  std::set<GOid> frontier{entity};
  for (const ResolvedStep& step : resolved.steps) {
    const GlobalClass& cls = schema.cls(step.class_name);
    const MaterializedExtent& extent = view.extent(step.class_name);
    std::set<GOid> next;
    for (const GOid item : frontier) {
      const std::optional<std::size_t> pos = extent.position(item);
      const Value v =
          pos ? extent.cell(*pos, step.attr_index) : Value::null();
      if (v.is_null()) {
        if (dead_site_could_assist(federation, item, cls, step.attr_index,
                                   unavailable))
          return true;
        continue;
      }
      if (v.kind() == ValueKind::GlobalRef) {
        next.insert(v.as_global_ref());
      } else if (v.kind() == ValueKind::GlobalRefSet) {
        for (const GOid target : v.as_global_ref_set())
          if (target != GOid{}) next.insert(target);  // 0: dangling member
      }
    }
    frontier = std::move(next);
    if (frontier.empty()) break;
  }
  return false;
}

}  // namespace

std::size_t tag_unavailable(QueryResult& result, const Federation& federation,
                            const GlobalQuery& query,
                            const std::set<DbId>& unavailable,
                            const MaterializedView* live_view) {
  if (unavailable.empty()) return 0;

  MaterializedView built;
  if (live_view == nullptr) {
    const AttributeProjection involved =
        involved_attributes(federation.schema(), query);
    built = materialize(federation, classes_involved(federation.schema(), query),
                        nullptr, MergePolicy::FirstNonNull, &unavailable,
                        &involved);
    live_view = &built;
  }

  std::vector<ResolvedPath> paths;
  paths.reserve(query.predicates.size());
  for (const Predicate& pred : query.predicates)
    paths.push_back(resolve_path(federation.schema().lookup(),
                                 query.range_class, pred.path));

  std::size_t tagged = 0;
  for (ResultRow& row : result.rows) {
    if (row.status == ResultStatus::Certain) continue;
    // Rule (a): missing row evidence — a dead database holds an isomeric
    // root object, so its local evaluation of the entity never arrived.
    bool affected = false;
    for (const LOid& isomer : federation.goids().isomers_of(row.entity))
      if (unavailable.count(isomer.db) != 0) {
        affected = true;
        break;
      }
    // Rule (b): missing check evidence along some predicate path.
    for (std::size_t p = 0; !affected && p < paths.size(); ++p)
      affected = path_hits_unavailable(federation, *live_view, paths[p],
                                       row.entity, unavailable);
    if (affected) {
      row.unavailable = true;
      ++tagged;
    }
  }
  return tagged;
}

QueryResult degraded_reference(const Federation& federation,
                               const GlobalQuery& query,
                               const std::set<DbId>& unavailable) {
  const AttributeProjection involved =
      involved_attributes(federation.schema(), query);
  const MaterializedView view = materialize(
      federation, classes_involved(federation.schema(), query), nullptr,
      MergePolicy::FirstNonNull, unavailable.empty() ? nullptr : &unavailable,
      &involved);
  QueryResult result =
      evaluate_global(view, federation.schema(), query, nullptr);
  tag_unavailable(result, federation, query, unavailable, &view);
  return result;
}

}  // namespace isomer::fault
