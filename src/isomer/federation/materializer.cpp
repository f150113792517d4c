#include "isomer/federation/materializer.hpp"

#include <algorithm>

#include "isomer/common/error.hpp"
#include "isomer/query/eval.hpp"

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

    // The GOid table knows the class's entity count before the outerjoin
    // starts: every entity yields exactly one materialized object.
    const std::vector<GOid>& entities = goids.entities_of(class_name);
    extent.reserve(entities.size());
    for (const GOid entity : entities) {
      MaterializedObject merged{entity,
                                std::vector<Value>(cls.def().attribute_count())};
      // Isomers are kept in ascending DbId order; first non-null wins.
      for (const LOid& isomer : goids.isomers_of(entity)) {
        if (exclude != nullptr && exclude->count(isomer.db) != 0) continue;
        const ComponentDatabase& db = federation.db(isomer.db);
        const Object* obj = db.fetch(isomer, meter);
        ensures(obj != nullptr, "GOid table validated at construction");
        if (meter != nullptr) ++meter->comparisons;  // outerjoin GOid probe

        const auto constituent = cls.constituent_in(isomer.db);
        ensures(constituent.has_value(),
                "isomer's database must hold a constituent");
        const ClassDef& local_class = db.schema().cls(db.class_of(isomer));
        for (std::size_t a = 0; a < cls.def().attribute_count(); ++a) {
          const AttrDef& attr = cls.def().attribute(a);
          const auto* cplx = std::get_if<ComplexType>(&attr.type);
          const bool union_merge = policy == MergePolicy::UnionSets &&
                                   cplx != nullptr && cplx->multi_valued;
          if (!union_merge && !merged.values[a].is_null()) continue;
          const auto& local_name = cls.local_attr(*constituent, a);
          if (!local_name) continue;
          const auto index = local_class.find_attribute(*local_name);
          ensures(index.has_value(), "bound local attribute must exist");
          const Value& raw = obj->value(*index);
          if (raw.is_null()) continue;
          Value global_value = goids.globalize(raw, meter);
          if (union_merge && !merged.values[a].is_null() &&
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
          if (union_merge && global_value.kind() == ValueKind::GlobalRefSet) {
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

void note_stall(MatStall* stall, GOid holder, std::size_t step) noexcept {
  if (stall == nullptr || stall->set) return;
  stall->holder = holder;
  stall->step = step;
  stall->set = true;
}

/// Predicate evaluation over materialized objects; mirrors query/eval.cpp
/// but navigates GOid references between materialized extents.
Truth eval_materialized(const MaterializedView& view, const GlobalSchema& schema,
                        const MaterializedObject& obj,
                        const GlobalClass& cls, const Predicate& pred,
                        std::size_t step, AccessMeter* meter,
                        MatStall* stall = nullptr) {
  const auto index = cls.def().find_attribute(pred.path.step(step));
  ensures(index.has_value(), "global query resolved before evaluation");
  const Value& v = obj.values[*index];
  const bool last = (step + 1 == pred.path.length());
  if (last) {
    if (meter != nullptr) ++meter->comparisons;
    const Truth t = apply(pred.op, v, pred.literal);
    if (is_unknown(t)) note_stall(stall, obj.id, step);
    return t;
  }
  if (v.is_null()) {
    note_stall(stall, obj.id, step);
    return Truth::Unknown;
  }
  const auto& cplx =
      std::get<ComplexType>(cls.def().attribute(*index).type);
  const GlobalClass& domain = schema.cls(cplx.domain_class);
  const MaterializedExtent& extent = view.extent(domain.name());

  const auto descend = [&](GOid target) -> Truth {
    const MaterializedObject* next = extent.find(target);
    if (next == nullptr) {
      note_stall(stall, obj.id, step);  // dangling: the referrer stalls
      return Truth::Unknown;
    }
    if (meter != nullptr) ++meter->objects_fetched;
    return eval_materialized(view, schema, *next, domain, pred, step + 1,
                             meter, stall);
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
  throw QueryError("materialized path step " + pred.path.step(step) +
                   " is not a reference");
}

Value eval_materialized_path(const MaterializedView& view,
                             const GlobalSchema& schema,
                             const MaterializedObject& obj,
                             const GlobalClass& cls, const PathExpr& path,
                             std::size_t step, AccessMeter* meter) {
  const auto index = cls.def().find_attribute(path.step(step));
  ensures(index.has_value(), "global query resolved before evaluation");
  const Value& v = obj.values[*index];
  const bool last = (step + 1 == path.length());
  if (last) return v;
  if (v.is_null()) return Value::null();
  const auto& cplx = std::get<ComplexType>(cls.def().attribute(*index).type);
  const GlobalClass& domain = schema.cls(cplx.domain_class);
  const MaterializedExtent& extent = view.extent(domain.name());

  const auto descend = [&](GOid target) -> Value {
    const MaterializedObject* next = extent.find(target);
    if (next == nullptr) return Value::null();
    if (meter != nullptr) ++meter->objects_fetched;
    return eval_materialized_path(view, schema, *next, domain, path, step + 1,
                                  meter);
  };

  if (v.kind() == ValueKind::GlobalRef) return descend(v.as_global_ref());
  if (v.kind() == ValueKind::GlobalRefSet) {
    for (const GOid target : v.as_global_ref_set()) {
      Value rest = descend(target);
      if (!rest.is_null()) return rest;
    }
    return Value::null();
  }
  throw QueryError("materialized path step " + path.step(step) +
                   " is not a reference");
}

}  // namespace

QueryResult evaluate_global(const MaterializedView& view,
                            const GlobalSchema& schema,
                            const GlobalQuery& query, AccessMeter* meter) {
  // Resolve every path once up front so malformed queries fail loudly.
  for (const Predicate& pred : query.predicates)
    (void)resolve_path(schema.lookup(), query.range_class, pred.path);
  for (const PathExpr& target : query.targets)
    (void)resolve_path(schema.lookup(), query.range_class, target);

  const GlobalClass& range = schema.cls(query.range_class);
  const MaterializedExtent& extent = view.extent(range.name());

  QueryResult result;
  for (const MaterializedObject& obj : extent.objects()) {
    std::vector<Truth> truths;
    truths.reserve(query.predicates.size());
    std::vector<MatStall> stalls(query.predicates.size());
    for (std::size_t p = 0; p < query.predicates.size(); ++p)
      truths.push_back(eval_materialized(view, schema, obj, range,
                                         query.predicates[p], 0, meter,
                                         &stalls[p]));
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
      std::vector<Condition> per_pred;
      per_pred.reserve(query.predicates.size());
      for (std::size_t p = 0; p < query.predicates.size(); ++p) {
        if (is_unknown(truths[p])) {
          const MatStall& s = stalls[p];
          ensures(s.set, "Unknown evaluation must report its stall site");
          per_pred.push_back(Condition::leaf(CondAtom{
              s.holder, p, s.step, s.step == 0 && s.holder == obj.id}));
        } else {
          per_pred.push_back(Condition::constant(truths[p]));
        }
      }
      row.condition = combine_conditions(query, per_pred);
    }
    row.targets.reserve(query.targets.size());
    for (const PathExpr& target : query.targets)
      row.targets.push_back(eval_materialized_path(view, schema, obj, range,
                                                   target, 0, meter));
    result.rows.push_back(std::move(row));
  }
  result.normalize();
  return result;
}

}  // namespace isomer
