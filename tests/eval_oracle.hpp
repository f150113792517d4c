// A by-name reference evaluator, for parity tests only.
//
// These are the walkers (and the outerjoin) the library used before queries
// were bound once per call, before the two bound walks became one
// navigator (query/navigate.hpp) under two storage policies, and before one
// evaluator over candidate lists replaced the per-object loops — phase P's
// row walk is kept here as oracle::run_local_query. They resolve
// every path step and attribute by name, for every object and step they
// touch, with a separate walker per storage. They are kept as the oracle the
// navigator must match exactly under either policy — truth, unsolved holder
// and step, target values, and every AccessMeter counter. The edits since
// are the view's reference-set rule (empty sets kept, dangling members
// stored as GOid 0, dropped again from target values) and the row view's
// own types (RowObject, RowExtent, RowView), kept here when the library's
// view became columns.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "isomer/common/error.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/federation/materializer.hpp"

namespace isomer::oracle {

// ---- Component-side walkers (phase P and assistant checks) -------------

/// Resolves the local attribute index implementing global attribute
/// `global_step_name` of `global_class` for the constituent in `db`;
/// nullopt when the attribute (or the whole constituent) is missing there.
inline std::optional<std::size_t> local_attr_index(const ComponentDatabase& database,
                                            const GlobalClass& global_class,
                                            std::string_view global_attr) {
  const auto constituent = global_class.constituent_in(database.db());
  if (!constituent) return std::nullopt;
  const auto global_index = global_class.def().find_attribute(global_attr);
  if (!global_index) return std::nullopt;
  const auto& local_name =
      global_class.local_attr(*constituent, *global_index);
  if (!local_name) return std::nullopt;
  const ClassDef& local_class = database.schema().cls(
      global_class.constituents()[*constituent].local_class);
  return local_class.find_attribute(*local_name);
}

/// The global domain class of a global complex attribute.
inline const GlobalClass& global_domain(const Federation& federation,
                                 const GlobalClass& cls,
                                 std::string_view global_attr) {
  const auto index = cls.def().find_attribute(global_attr);
  expects(index.has_value(), "unknown global attribute");
  const auto* cplx = std::get_if<ComplexType>(&cls.def().attribute(*index).type);
  if (cplx == nullptr)
    throw QueryError("global attribute " + std::string(global_attr) +
                     " of class " + cls.name() +
                     " is primitive but the path continues");
  return federation.schema().cls(cplx->domain_class);
}

inline LocalPredOutcome eval_pred_from(const Federation& federation,
                                const ComponentDatabase& database,
                                const Object& obj, const GlobalClass& cls,
                                const Predicate& pred, std::size_t step,
                                AccessMeter* meter, FetchCache* cache) {
  const auto index = local_attr_index(database, cls, pred.path.step(step));
  if (!index)  // missing attribute: this object holds the missing data
    return LocalPredOutcome{Truth::Unknown, obj.id(), step};

  const Value& v = obj.value(*index);
  const bool last = (step + 1 == pred.path.length());

  if (last) {
    if (meter != nullptr) ++meter->comparisons;
    const Truth t = apply(pred.op, v, pred.literal);
    if (is_unknown(t)) return LocalPredOutcome{Truth::Unknown, obj.id(), step};
    return LocalPredOutcome{t, LOid{}, 0};
  }

  if (v.is_null()) return LocalPredOutcome{Truth::Unknown, obj.id(), step};

  const GlobalClass& domain =
      global_domain(federation, cls, pred.path.step(step));

  if (v.kind() == ValueKind::LocalRef) {
    const Object* next = database.deref(v, meter, cache);
    if (next == nullptr)
      return LocalPredOutcome{Truth::Unknown, obj.id(), step};
    return eval_pred_from(federation, database, *next, domain, pred, step + 1,
                          meter, cache);
  }
  if (v.kind() == ValueKind::LocalRefSet) {
    LocalPredOutcome acc{Truth::False, LOid{}, 0};
    for (const LOid member : v.as_local_ref_set()) {
      const Object* next = database.fetch(member, meter, cache);
      const LocalPredOutcome branch =
          next == nullptr
              ? LocalPredOutcome{Truth::Unknown, obj.id(), step}
              : eval_pred_from(federation, database, *next, domain, pred,
                               step + 1, meter, cache);
      if (is_true(branch.truth)) return branch;
      if (is_unknown(branch.truth) && !is_unknown(acc.truth)) acc = branch;
    }
    return acc;
  }
  throw QueryError("local value for global step " + pred.path.step(step) +
                   " is not a reference");
}

inline LocalPredOutcome eval_global_predicate_at(const Federation& federation,
                                          DbId db, const Object& root,
                                          const GlobalClass& root_class,
                                          const Predicate& pred,
                                          std::size_t start_step,
                                          AccessMeter* meter = nullptr,
                                          FetchCache* cache = nullptr) {
  expects(start_step < pred.path.length(),
          "start_step beyond predicate path");
  // Rebase the predicate so the recursive walk sees a path starting at the
  // item's class (suffix evaluation for assistant checks).
  if (start_step == 0)
    return eval_pred_from(federation, federation.db(db), root, root_class,
                          pred, 0, meter, cache);
  Predicate rebased{pred.path.suffix(start_step), pred.op, pred.literal};
  LocalPredOutcome outcome =
      eval_pred_from(federation, federation.db(db), root, root_class, rebased,
                     0, meter, cache);
  if (is_unknown(outcome.truth)) outcome.step += start_step;
  return outcome;
}

inline Value eval_global_path(const Federation& federation, DbId db,
                       const Object& root, const GlobalClass& root_class,
                       const PathExpr& path, AccessMeter* meter = nullptr,
                       FetchCache* cache = nullptr) {
  const ComponentDatabase& database = federation.db(db);
  const Object* obj = &root;
  const GlobalClass* cls = &root_class;
  for (std::size_t step = 0; step < path.length(); ++step) {
    const auto index = local_attr_index(database, *cls, path.step(step));
    if (!index) return Value::null();
    const Value& v = obj->value(*index);
    const bool last = (step + 1 == path.length());
    if (last) return federation.goids().globalize(v, meter);
    if (v.is_null()) return Value::null();
    const GlobalClass& domain =
        global_domain(federation, *cls, path.step(step));
    if (v.kind() == ValueKind::LocalRef) {
      obj = database.deref(v, meter, cache);
      if (obj == nullptr) return Value::null();
      cls = &domain;
      continue;
    }
    if (v.kind() == ValueKind::LocalRefSet) {
      for (const LOid member : v.as_local_ref_set()) {
        const Object* next = database.fetch(member, meter, cache);
        if (next == nullptr) continue;
        const Value rest =
            eval_global_path(federation, db, *next, domain,
                             path.suffix(step + 1), meter, cache);
        if (!rest.is_null()) return rest;
      }
      return Value::null();
    }
    throw QueryError("local value for global step " + path.step(step) +
                     " is not a reference");
  }
  return Value::null();
}

/// Phase P as the row walk ran it: every candidate root — the scanned
/// extent, or an index's matches plus null bucket under a conjunctive
/// query — walked per predicate through one buffer pool, one goid probe per
/// Unknown outcome and per surviving row, target values globalized.
inline LocalExecution run_local_query(const Federation& federation,
                                      const GlobalQuery& query, DbId db,
                                      const ExtentIndexes* indexes = nullptr) {
  const GlobalClass& range = federation.schema().cls(query.range_class);
  const ComponentDatabase& database = federation.db(db);
  const std::string& root_class =
      range.constituents()[*range.constituent_in(db)].local_class;
  const GoidTable& goids = federation.goids();
  LocalExecution exec;
  exec.db = db;
  FetchCache cache;
  std::vector<const Object*> candidates;
  bool via_index = false;
  if (indexes != nullptr && query.disjuncts.empty()) {
    for (const Predicate& pred : query.predicates) {
      if (pred.path.length() != 1 || pred.op != CompOp::Eq) continue;
      const auto lookup =
          indexes->lookup(db, pred.path.step(0), pred.literal, &exec.meter);
      if (!lookup) continue;
      via_index = true;
      for (const std::vector<LOid>* bucket :
           {lookup->matches, lookup->unknowns})
        for (const LOid id : *bucket)
          candidates.push_back(database.fetch(id, &exec.meter, &cache));
      break;
    }
  }
  if (!via_index)
    for (const Object& obj : database.scan(root_class, &exec.meter, &cache))
      candidates.push_back(&obj);
  exec.considered = candidates.size();

  for (const Object* obj : candidates) {
    LocalRow row;
    std::vector<Truth> truths;
    for (const Predicate& pred : query.predicates) {
      const LocalPredOutcome outcome = eval_global_predicate_at(
          federation, db, *obj, range, pred, 0, &exec.meter, &cache);
      PredStatus& status = row.preds.emplace_back();
      status.truth = outcome.truth;
      truths.push_back(outcome.truth);
      if (!is_unknown(outcome.truth)) continue;
      const auto item = goids.goid_of(outcome.holder, &exec.meter);
      expects(item.has_value(), "every constituent object is GOid-mapped");
      status.item = *item;
      status.step = outcome.step;
      status.root_level = outcome.holder == obj->id() && outcome.step == 0;
    }
    if (is_false(query.combine(truths))) continue;
    row.root = obj->id();
    row.entity = *goids.goid_of(obj->id(), &exec.meter);
    for (const PathExpr& target : query.targets)
      row.targets.push_back(eval_global_path(federation, db, *obj, range,
                                             target, &exec.meter, &cache));
    exec.rows.push_back(std::move(row));
  }
  return exec;
}

/// The first field where `got` differs from `want` — meter, candidate
/// count, row count, and per row its root, entity, targets and every
/// PredStatus field — or "" when they are identical.
inline std::string exec_difference(const LocalExecution& got,
                                   const LocalExecution& want) {
  if (!(got.meter == want.meter)) return "meter";
  if (got.considered != want.considered) return "considered";
  if (got.rows.size() != want.rows.size())
    return "row count " + std::to_string(got.rows.size()) + " vs " +
           std::to_string(want.rows.size());
  for (std::size_t r = 0; r < got.rows.size(); ++r) {
    const LocalRow& a = got.rows[r];
    const LocalRow& b = want.rows[r];
    const std::string at = "row " + std::to_string(r) + " ";
    if (a.root != b.root) return at + "root";
    if (a.entity != b.entity) return at + "entity";
    if (a.targets != b.targets) return at + "targets";
    if (a.preds.size() != b.preds.size()) return at + "predicate count";
    for (std::size_t p = 0; p < a.preds.size(); ++p) {
      const PredStatus& x = a.preds[p];
      const PredStatus& y = b.preds[p];
      const std::string pred = at + "pred " + std::to_string(p) + " ";
      if (x.truth != y.truth) return pred + "truth";
      if (x.item != y.item) return pred + "item";
      if (x.step != y.step) return pred + "step";
      if (x.root_level != y.root_level) return pred + "root_level";
    }
  }
  return "";
}

// ---- Materialized side (the centralized approach) ----------------------

/// One integrated object of the oracle's row view: values aligned with the
/// GlobalClass definition, references expressed as GlobalRefs.
struct RowObject {
  GOid id;
  std::vector<Value> values;
};

/// One global class of the row view, in GoidTable::entities_of order.
class RowExtent {
 public:
  explicit RowExtent(const GoidTable& goids) : goids_(&goids) {}
  [[nodiscard]] const std::vector<RowObject>& objects() const noexcept {
    return objects_;
  }
  [[nodiscard]] const RowObject* find(GOid id) const noexcept {
    const std::optional<std::size_t> pos = goids_->class_position(id);
    if (!pos || *pos >= objects_.size() || objects_[*pos].id != id)
      return nullptr;
    return &objects_[*pos];
  }
  void insert(RowObject obj) { objects_.push_back(std::move(obj)); }

 private:
  const GoidTable* goids_;
  std::vector<RowObject> objects_;
};

/// The row-per-entity view the library kept before its view became columns.
class RowView {
 public:
  [[nodiscard]] const RowExtent& extent(std::string_view global_class) const {
    const auto it = extents_.find(std::string(global_class));
    if (it == extents_.end())
      throw FederationError("no materialized extent for global class " +
                            std::string(global_class));
    return it->second;
  }
  RowExtent& add_extent(const std::string& name, const GoidTable& goids) {
    return extents_.emplace(name, RowExtent(goids)).first->second;
  }

 private:
  std::map<std::string, RowExtent> extents_;
};

/// The outerjoin with its per-isomer by-name attribute lookups.
inline RowView materialize(const Federation& federation,
                           const std::vector<std::string>& classes,
                           AccessMeter* meter, MergePolicy policy,
                           const std::set<DbId>* exclude) {
  const GlobalSchema& schema = federation.schema();
  const GoidTable& goids = federation.goids();

  RowView view;
  for (const std::string& class_name : classes) {
    const GlobalClass& cls = schema.cls(class_name);
    RowExtent& extent = view.add_extent(class_name, goids);

    // Every entity yields exactly one materialized object.
    for (const GOid entity : goids.entities_of(class_name)) {
      RowObject merged{entity,
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
          Value global_value;
          if (raw.kind() == ValueKind::LocalRefSet) {
            // Empty sets stay empty; a dangling member is kept as GOid 0.
            GlobalRefSet set;
            for (const LOid& member : raw.as_local_ref_set())
              set.targets.push_back(
                  goids.goid_of(member, meter).value_or(GOid{}));
            global_value = Value(std::move(set));
          } else {
            global_value = goids.globalize(raw, meter);
          }
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

inline void note_stall(MatStall* stall, GOid holder, std::size_t step) noexcept {
  if (stall == nullptr || stall->set) return;
  stall->holder = holder;
  stall->step = step;
  stall->set = true;
}

/// Predicate evaluation over materialized objects; mirrors eval_pred_from
/// but navigates GOid references between materialized extents.
inline Truth eval_materialized(const RowView& view, const GlobalSchema& schema,
                        const RowObject& obj,
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
  const RowExtent& extent = view.extent(domain.name());

  const auto descend = [&](GOid target) -> Truth {
    const RowObject* next = extent.find(target);
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

inline Value eval_materialized_path(const RowView& view,
                             const GlobalSchema& schema,
                             const RowObject& obj,
                             const GlobalClass& cls, const PathExpr& path,
                             std::size_t step, AccessMeter* meter) {
  const auto index = cls.def().find_attribute(path.step(step));
  ensures(index.has_value(), "global query resolved before evaluation");
  const Value& v = obj.values[*index];
  const bool last = (step + 1 == path.length());
  if (last) {
    // What globalize yields: the mapped members only, null when none.
    if (v.kind() != ValueKind::GlobalRefSet) return v;
    GlobalRefSet mapped;
    for (const GOid member : v.as_global_ref_set())
      if (member != GOid{}) mapped.targets.push_back(member);
    return mapped.targets.empty() ? Value::null() : Value(std::move(mapped));
  }
  if (v.is_null()) return Value::null();
  const auto& cplx = std::get<ComplexType>(cls.def().attribute(*index).type);
  const GlobalClass& domain = schema.cls(cplx.domain_class);
  const RowExtent& extent = view.extent(domain.name());

  const auto descend = [&](GOid target) -> Value {
    const RowObject* next = extent.find(target);
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

inline QueryResult evaluate_global(const RowView& view,
                            const GlobalSchema& schema,
                            const GlobalQuery& query, AccessMeter* meter) {
  // Resolve every path once up front so malformed queries fail loudly.
  for (const Predicate& pred : query.predicates)
    (void)resolve_path(schema.lookup(), query.range_class, pred.path);
  for (const PathExpr& target : query.targets)
    (void)resolve_path(schema.lookup(), query.range_class, target);

  const GlobalClass& range = schema.cls(query.range_class);
  const RowExtent& extent = view.extent(range.name());

  QueryResult result;
  for (const RowObject& obj : extent.objects()) {
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
      Condition::Builder builder;
      std::vector<Condition::Builder::Id> per_pred;
      per_pred.reserve(query.predicates.size());
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
    for (const PathExpr& target : query.targets)
      row.targets.push_back(eval_materialized_path(view, schema, obj, range,
                                                   target, 0, meter));
    result.rows.push_back(std::move(row));
  }
  result.normalize();
  return result;
}

}  // namespace isomer::oracle
