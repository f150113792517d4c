#include "isomer/federation/materializer.hpp"

#include <algorithm>

#include "isomer/common/error.hpp"

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

bool MaterializedView::has_extent(std::string_view global_class) const noexcept {
  return extents_.find(global_class) != extents_.end();
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
          Value global_value = goids.globalize(raw, meter);
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

/// Where a materialized evaluation went Unknown: the object holding the
/// missing data and the global path step it stalled at — the residual atom
/// the row's condition names. Only the *first* Unknown site (in stored
/// evaluation order) is kept, matching the local evaluator's convention of
/// reporting the first unsolved site of set-valued branches.
struct MatStall {
  GOid holder;
  std::size_t step = 0;
  bool set = false;
};

void note_stall(MatStall& stall, GOid holder, std::size_t step) noexcept {
  if (stall.set) return;
  stall.holder = holder;
  stall.step = step;
  stall.set = true;
}

/// A global path bound to a materialized view once per evaluate_global
/// call: per step, the attribute index in the step's class and, for a
/// navigating step, the extent of its domain class.
struct MatPath {
  struct Step {
    std::size_t attr = 0;
    const GlobalClass* domain = nullptr;       ///< navigating steps only
    const MaterializedExtent* extent = nullptr;  ///< nullptr: not in the view
  };
  const PathExpr* expr = nullptr;
  std::vector<Step> steps;

  /// The domain extent of navigating step `step`; throws FederationError
  /// (as MaterializedView::extent) when the view lacks it.
  [[nodiscard]] const MaterializedExtent& extent(std::size_t step) const {
    if (steps[step].extent == nullptr)
      throw FederationError("no materialized extent for global class " +
                            steps[step].domain->name());
    return *steps[step].extent;
  }
  [[nodiscard]] bool last(std::size_t step) const noexcept {
    return step + 1 == steps.size();
  }
};

MatPath bind_path(const MaterializedView& view, const GlobalSchema& schema,
                  const GlobalQuery& query, const PathExpr& expr) {
  const std::vector<GlobalStep> steps =
      schema.resolve_steps(query.range_class, expr);
  MatPath path{&expr, {}};
  path.steps.reserve(steps.size());
  for (std::size_t step = 0; step < steps.size(); ++step) {
    MatPath::Step bound{steps[step].attr};
    if (step + 1 < steps.size()) {
      bound.domain = steps[step + 1].cls;
      if (view.has_extent(bound.domain->name()))
        bound.extent = &view.extent(bound.domain->name());
    }
    path.steps.push_back(bound);
  }
  return path;
}

/// Three-valued predicate evaluation over materialized objects, navigating
/// GOid references between materialized extents.
Truth eval_bound(const MatPath& path, const Predicate& pred,
                 const MaterializedObject& obj, std::size_t step,
                 AccessMeter* meter, MatStall& stall) {
  const Value& v = obj.values[path.steps[step].attr];
  if (path.last(step)) {
    if (meter != nullptr) ++meter->comparisons;
    const Truth t = apply(pred.op, v, pred.literal);
    if (is_unknown(t)) note_stall(stall, obj.id, step);
    return t;
  }
  if (v.is_null()) {
    note_stall(stall, obj.id, step);
    return Truth::Unknown;
  }
  const MaterializedExtent& extent = path.extent(step);
  const auto descend = [&](GOid target) -> Truth {
    const MaterializedObject* next = extent.find(target);
    if (next == nullptr) {
      note_stall(stall, obj.id, step);  // dangling: the referrer stalls
      return Truth::Unknown;
    }
    if (meter != nullptr) ++meter->objects_fetched;
    return eval_bound(path, pred, *next, step + 1, meter, stall);
  };

  if (v.kind() == ValueKind::GlobalRef) return descend(v.as_global_ref());
  if (v.kind() == ValueKind::GlobalRefSet) {
    Truth acc = Truth::False;
    for (const GOid target : v.as_global_ref_set()) {
      const Truth branch = descend(target);
      if (is_true(branch)) return branch;
      acc = acc || branch;
    }
    return acc;
  }
  throw QueryError("materialized path step " + path.expr->step(step) +
                   " is not a reference");
}

Value eval_bound_target(const MatPath& path, const MaterializedObject& obj,
                        std::size_t step, AccessMeter* meter) {
  const Value& v = obj.values[path.steps[step].attr];
  if (path.last(step)) return v;
  if (v.is_null()) return Value::null();
  const MaterializedExtent& extent = path.extent(step);
  const auto descend = [&](GOid target) -> Value {
    const MaterializedObject* next = extent.find(target);
    if (next == nullptr) return Value::null();
    if (meter != nullptr) ++meter->objects_fetched;
    return eval_bound_target(path, *next, step + 1, meter);
  };

  if (v.kind() == ValueKind::GlobalRef) return descend(v.as_global_ref());
  if (v.kind() == ValueKind::GlobalRefSet) {
    for (const GOid target : v.as_global_ref_set()) {
      Value rest = descend(target);
      if (!rest.is_null()) return rest;
    }
    return Value::null();
  }
  throw QueryError("materialized path step " + path.expr->step(step) +
                   " is not a reference");
}

}  // namespace

QueryResult evaluate_global(const MaterializedView& view,
                            const GlobalSchema& schema,
                            const GlobalQuery& query, AccessMeter* meter) {
  // Binding resolves every path up front, so malformed queries fail loudly.
  std::vector<MatPath> predicates, targets;
  predicates.reserve(query.predicates.size());
  for (const Predicate& pred : query.predicates)
    predicates.push_back(bind_path(view, schema, query, pred.path));
  targets.reserve(query.targets.size());
  for (const PathExpr& target : query.targets)
    targets.push_back(bind_path(view, schema, query, target));

  const MaterializedExtent& extent =
      view.extent(schema.cls(query.range_class).name());

  // Scratch reused across objects.
  std::vector<Truth> truths(query.predicates.size());
  std::vector<MatStall> stalls(query.predicates.size());
  Condition::Builder builder;
  std::vector<Condition::Builder::Id> per_pred;
  per_pred.reserve(query.predicates.size());

  QueryResult result;
  for (const MaterializedObject& obj : extent.objects()) {
    for (std::size_t p = 0; p < query.predicates.size(); ++p) {
      stalls[p] = MatStall{};
      truths[p] = eval_bound(predicates[p], query.predicates[p], obj, 0,
                             meter, stalls[p]);
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
          const MatStall& s = stalls[p];
          ensures(s.set, "Unknown evaluation must report its stall site");
          per_pred.push_back(builder.leaf(CondAtom{
              s.holder, p, s.step, s.step == 0 && s.holder == obj.id}));
        } else {
          per_pred.push_back(Condition::Builder::constant(truths[p]));
        }
      }
      row.condition = builder.take(builder.combine(query, per_pred));
    }
    row.targets.reserve(query.targets.size());
    for (const MatPath& target : targets)
      row.targets.push_back(eval_bound_target(target, obj, 0, meter));
    result.rows.push_back(std::move(row));
  }
  result.normalize();
  return result;
}

}  // namespace isomer
