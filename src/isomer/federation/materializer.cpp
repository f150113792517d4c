#include "isomer/federation/materializer.hpp"

#include <algorithm>
#include <span>
#include <variant>

#include "isomer/common/error.hpp"
#include "isomer/query/navigate.hpp"

namespace isomer {

const MaterializedObject* MaterializedExtent::find(GOid id) const noexcept {
  const std::optional<std::size_t> pos = goids_->class_position(id);
  if (!pos.has_value() || *pos >= objects_.size() || objects_[*pos].id != id)
    return nullptr;
  return &objects_[*pos];
}

void MaterializedExtent::reserve(std::size_t n) { objects_.reserve(n); }

void MaterializedExtent::insert(MaterializedObject obj) {
  expects(goids_->class_position(obj.id) == objects_.size(),
          "materialized objects follow entities_of order");
  objects_.push_back(std::move(obj));
}

const MaterializedExtent& MaterializedView::extent(
    std::string_view global_class) const {
  const auto it = extents_.find(global_class);  // heterogeneous: no alloc
  if (it == extents_.end())
    throw FederationError("no materialized extent for global class " +
                          std::string(global_class));
  return it->second;
}

MaterializedExtent& MaterializedView::add_extent(const GlobalClass& cls,
                                                const GoidTable& goids) {
  const auto [it, inserted] =
      extents_.emplace(cls.name(), MaterializedExtent(cls, goids));
  return it->second;
}

std::vector<std::string> classes_involved(const GlobalSchema& schema,
                                          const GlobalQuery& query) {
  std::vector<std::string> classes{query.range_class};
  const auto add_path = [&](const PathExpr& path) {
    const ResolvedPath resolved =
        resolve_path(schema.lookup(), query.range_class, path);
    for (const std::string& name : resolved.classes_on_path())
      if (std::find(classes.begin(), classes.end(), name) == classes.end())
        classes.push_back(name);
  };
  for (const PathExpr& target : query.targets) add_path(target);
  for (const Predicate& pred : query.predicates) add_path(pred.path);
  return classes;
}

namespace {

/// The view's form of a non-null local value: globalized, except that a
/// reference set keeps its empty sets and its dangling members — as GOid 0,
/// which no extent finds — so the navigator reads a set as the component
/// database does (empty: a known value; dangling member: Unknown at the
/// referrer). One table probe per member, as globalize charges.
Value view_value(const GoidTable& goids, const Value& raw, AccessMeter* meter) {
  if (raw.kind() != ValueKind::LocalRefSet) return goids.globalize(raw, meter);
  const std::vector<LOid>& members = raw.as_local_ref_set();
  GlobalRefSet set{std::vector<GOid>(members.size())};
  goids.goids_of(members, set.targets.data(), meter);
  return Value(std::move(set));
}

/// One constituent of a global class, bound once per materialization: its
/// database, its local class and, per global attribute, the local
/// attribute index (nullopt where the constituent holds it as missing).
struct ConstituentTable {
  const ComponentDatabase* database = nullptr;
  const ClassDef* local_class = nullptr;
  std::vector<std::optional<std::size_t>> local_index;
};

std::vector<ConstituentTable> bind_constituents(const Federation& federation,
                                                const GlobalClass& cls) {
  std::vector<ConstituentTable> tables;
  tables.reserve(cls.constituents().size());
  for (std::size_t c = 0; c < cls.constituents().size(); ++c) {
    const ComponentDatabase& database = federation.db(cls.constituents()[c].db);
    ConstituentTable table{
        &database, &database.schema().cls(cls.constituents()[c].local_class),
        {}};
    table.local_index.reserve(cls.def().attribute_count());
    for (std::size_t a = 0; a < cls.def().attribute_count(); ++a) {
      const auto& local_name = cls.local_attr(c, a);
      std::optional<std::size_t> index;
      if (local_name) {
        index = table.local_class->find_attribute(*local_name);
        ensures(index.has_value(), "bound local attribute must exist");
      }
      table.local_index.push_back(index);
    }
    tables.push_back(std::move(table));
  }
  return tables;
}

}  // namespace

MaterializedView materialize(const Federation& federation,
                             const std::vector<std::string>& classes,
                             AccessMeter* meter, MergePolicy policy,
                             const std::set<DbId>* exclude) {
  const GlobalSchema& schema = federation.schema();
  const GoidTable& goids = federation.goids();

  MaterializedView view;
  for (const std::string& class_name : classes) {
    const GlobalClass& cls = schema.cls(class_name);
    MaterializedExtent& extent = view.add_extent(cls, goids);
    const std::vector<ConstituentTable> tables =
        bind_constituents(federation, cls);
    const std::size_t attr_count = cls.def().attribute_count();
    std::vector<bool> union_merge(attr_count, false);
    if (policy == MergePolicy::UnionSets)
      for (std::size_t a = 0; a < attr_count; ++a) {
        const auto* cplx =
            std::get_if<ComplexType>(&cls.def().attribute(a).type);
        union_merge[a] = cplx != nullptr && cplx->multi_valued;
      }

    // The GOid table knows the class's entity count before the outerjoin
    // starts: every entity yields exactly one materialized object.
    const std::vector<GOid>& entities = goids.entities_of(class_name);
    extent.reserve(entities.size());
    for (const GOid entity : entities) {
      MaterializedObject merged{entity, std::vector<Value>(attr_count)};
      // Isomers are kept in ascending DbId order; first non-null wins.
      for (const LOid& isomer : goids.isomers_of(entity)) {
        if (exclude != nullptr && exclude->count(isomer.db) != 0) continue;
        const auto table = std::find_if(
            tables.begin(), tables.end(), [&](const ConstituentTable& t) {
              return t.database->db() == isomer.db;
            });
        ensures(table != tables.end(),
                "isomer's database must hold a constituent");
        const ResolvedObject resolved = table->database->resolve(isomer, meter);
        ensures(resolved.obj != nullptr, "GOid table validated at construction");
        ensures(resolved.cls == table->local_class,
                "isomer is an object of its constituent class");
        if (meter != nullptr) ++meter->comparisons;  // outerjoin GOid probe

        for (std::size_t a = 0; a < attr_count; ++a) {
          if (!union_merge[a] && !merged.values[a].is_null()) continue;
          const auto& index = table->local_index[a];
          if (!index) continue;
          const Value& raw = resolved.obj->value(*index);
          if (raw.is_null()) continue;
          Value global_value = view_value(goids, raw, meter);
          if (union_merge[a] && !merged.values[a].is_null() &&
              !global_value.is_null()) {
            // Union this isomer's reference set into the accumulated one.
            GlobalRefSet combined{merged.values[a].as_global_ref_set()};
            for (const GOid target : global_value.as_global_ref_set())
              if (std::find(combined.targets.begin(), combined.targets.end(),
                            target) == combined.targets.end())
                combined.targets.push_back(target);
            std::sort(combined.targets.begin(), combined.targets.end());
            merged.values[a] = Value(std::move(combined));
            continue;
          }
          if (union_merge[a] &&
              global_value.kind() == ValueKind::GlobalRefSet) {
            GlobalRefSet sorted{global_value.as_global_ref_set()};
            std::sort(sorted.targets.begin(), sorted.targets.end());
            global_value = Value(std::move(sorted));
          }
          merged.values[a] = std::move(global_value);
        }
      }
      extent.insert(std::move(merged));
    }
  }
  return view;
}

namespace {

/// A global path bound to a materialized view for one evaluate_global call,
/// and the navigator's storage policy over the view: every attribute is
/// present (the outerjoin holds a missing one as null), references are
/// GOids looked up in the step's domain extent, and every successful
/// descent charges one fetched object.
struct ViewPath {
  using Object = MaterializedObject;
  using Id = GOid;
  static GOid id_of(const Object& obj) noexcept { return obj.id; }

  struct Step {
    std::size_t attr = 0;
    const MaterializedExtent* extent = nullptr;  ///< navigating steps only
  };
  const PathExpr* expr = nullptr;
  std::vector<Step> steps;
  AccessMeter* meter = nullptr;

  [[nodiscard]] std::size_t length() const noexcept { return steps.size(); }
  [[nodiscard]] const Value* read(const Object& obj, std::size_t step) const {
    return &obj.values[steps[step].attr];
  }
  [[nodiscard]] std::span<const GOid> members(const Value& ref,
                                              std::size_t step) const {
    if (const auto* one = std::get_if<GlobalRef>(&ref.storage()))
      return {&one->target, 1};
    if (const auto* set = std::get_if<GlobalRefSet>(&ref.storage()))
      return set->targets;
    throw QueryError("materialized path step " + expr->step(step) +
                     " is not a reference");
  }
  [[nodiscard]] const Object* follow(GOid target, std::size_t step) const {
    const MaterializedObject* next = steps[step].extent->find(target);
    if (next != nullptr && meter != nullptr) ++meter->objects_fetched;
    return next;
  }
  /// What globalize yields for the source value: a set without its
  /// dangling members, null when none is left.
  [[nodiscard]] Value target(const Value& terminal) const {
    const auto* set = std::get_if<GlobalRefSet>(&terminal.storage());
    if (set == nullptr) return terminal;
    GlobalRefSet mapped;
    for (const GOid member : set->targets)
      if (member != GOid{}) mapped.targets.push_back(member);
    return mapped.targets.empty() ? Value::null() : Value(std::move(mapped));
  }
};

/// Throws FederationError (from MaterializedView::extent) when the view
/// lacks the domain extent of a navigating step — at binding, before any
/// object is read, whether or not an object would navigate there.
ViewPath bind_path(const MaterializedView& view, const GlobalSchema& schema,
                   const GlobalQuery& query, const PathExpr& expr,
                   AccessMeter* meter) {
  const std::vector<GlobalStep> steps =
      schema.resolve_steps(query.range_class, expr);
  ViewPath path{&expr, {}, meter};
  path.steps.reserve(steps.size());
  for (std::size_t step = 0; step < steps.size(); ++step) {
    ViewPath::Step bound{steps[step].attr};
    if (step + 1 < steps.size())
      bound.extent = &view.extent(steps[step + 1].cls->name());
    path.steps.push_back(bound);
  }
  return path;
}

}  // namespace

QueryResult evaluate_global(const MaterializedView& view,
                            const GlobalSchema& schema,
                            const GlobalQuery& query, AccessMeter* meter) {
  // Binding resolves every path up front, so malformed queries fail loudly.
  std::vector<ViewPath> predicates, targets;
  predicates.reserve(query.predicates.size());
  for (const Predicate& pred : query.predicates)
    predicates.push_back(bind_path(view, schema, query, pred.path, meter));
  targets.reserve(query.targets.size());
  for (const PathExpr& target : query.targets)
    targets.push_back(bind_path(view, schema, query, target, meter));

  const MaterializedExtent& extent =
      view.extent(schema.cls(query.range_class).name());

  // Scratch reused across objects.
  std::vector<Truth> truths(query.predicates.size());
  std::vector<NavOutcome<GOid>> outcomes(query.predicates.size());
  Condition::Builder builder;
  std::vector<Condition::Builder::Id> per_pred;
  per_pred.reserve(query.predicates.size());

  QueryResult result;
  for (const MaterializedObject& obj : extent.objects()) {
    for (std::size_t p = 0; p < query.predicates.size(); ++p) {
      outcomes[p] =
          navigate_predicate(predicates[p], query.predicates[p], obj, 0);
      truths[p] = outcomes[p].truth;
    }
    const Truth truth = query.combine(truths);
    if (is_false(truth)) continue;

    ResultRow row;
    row.entity = obj.id;
    row.status =
        is_true(truth) ? ResultStatus::Certain : ResultStatus::Maybe;
    // The centralized approach saw all the data at once, so a maybe row's
    // residual is one leaf per Unknown predicate: the materialized stall
    // site. (Syntactically simpler than, but truth-equivalent to, the pool
    // the localized approaches build from per-database rows — conditions
    // are deliberately outside ResultRow equality for this reason.)
    if (row.status == ResultStatus::Maybe) {
      builder.clear();
      per_pred.clear();
      for (std::size_t p = 0; p < query.predicates.size(); ++p) {
        if (is_unknown(truths[p])) {
          const NavOutcome<GOid>& s = outcomes[p];
          per_pred.push_back(builder.leaf(CondAtom{
              s.holder, p, s.step, s.step == 0 && s.holder == obj.id}));
        } else {
          per_pred.push_back(Condition::Builder::constant(truths[p]));
        }
      }
      row.condition = builder.take(builder.combine(query, per_pred));
    }
    row.targets.reserve(query.targets.size());
    for (const ViewPath& target : targets)
      row.targets.push_back(navigate_target(target, obj));
    result.rows.push_back(std::move(row));
  }
  result.normalize();
  return result;
}

}  // namespace isomer
