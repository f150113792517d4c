#include "isomer/query/eval.hpp"

#include "isomer/common/error.hpp"
#include "isomer/query/eval_cache.hpp"

namespace isomer {

namespace {

/// Recursive walk evaluating `pred.path[step..]` from `obj`.
PredicateOutcome eval_from(const ComponentDatabase& db, const Object& obj,
                           const Predicate& pred, std::size_t step,
                           AccessMeter* meter) {
  const ClassDef& cls = db.class_def(obj.id());
  const std::string& attr_name = pred.path.step(step);
  const auto index = cls.find_attribute(attr_name);
  if (!index) {
    // Schema-level missing attribute: this object holds the missing data.
    return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};
  }
  const Value& v = obj.value(*index);
  const bool last = (step + 1 == pred.path.length());

  if (last) {
    if (meter != nullptr) ++meter->comparisons;
    const Truth t = apply(pred.op, v, pred.literal);
    if (is_unknown(t))
      return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};
    return PredicateOutcome{t, std::nullopt};
  }

  if (v.is_null())
    return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};

  if (v.kind() == ValueKind::LocalRef) {
    const Object* next = db.deref(v, meter);
    if (next == nullptr)
      return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};
    return eval_from(db, *next, pred, step + 1, meter);
  }

  if (v.kind() == ValueKind::LocalRefSet) {
    // Existential semantics over the members, combined with Kleene-or.
    PredicateOutcome acc{Truth::False, std::nullopt};
    for (const LOid member : v.as_local_ref_set()) {
      const Object* next = db.fetch(member, meter);
      PredicateOutcome branch =
          next == nullptr
              ? PredicateOutcome{Truth::Unknown,
                                 UnsolvedSite{obj.id(), step}}
              : eval_from(db, *next, pred, step + 1, meter);
      if (is_true(branch.truth)) return branch;
      if (is_unknown(branch.truth) && !is_unknown(acc.truth)) acc = branch;
    }
    return acc;
  }

  throw QueryError("path " + pred.path.dotted() + " step " + attr_name +
                   " of class " + cls.name() +
                   " is primitive but the path continues");
}

/// Cache-aware twin of eval_from: the current class rides along (returned by
/// ComponentDatabase::resolve's directory lookup) and attribute
/// positions come from the path's memoized per-class column table. Identical
/// outcomes and meter counts by construction.
PredicateOutcome eval_from_cached(const ComponentDatabase& db, EvalCache& cache,
                                  const Object& obj, const ClassDef& cls,
                                  const Predicate& pred, PathResolution& res,
                                  std::size_t step, AccessMeter* meter) {
  const auto index = res.attr_index(step, cls);
  if (!index)
    return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};
  const Value& v = obj.value(*index);
  const bool last = (step + 1 == pred.path.length());

  if (last) {
    if (meter != nullptr) ++meter->comparisons;
    const Truth t = apply(pred.op, v, pred.literal);
    if (is_unknown(t))
      return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};
    return PredicateOutcome{t, std::nullopt};
  }

  if (v.is_null())
    return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};

  if (v.kind() == ValueKind::LocalRef) {
    const ResolvedObject next = db.resolve(v.as_local_ref(), meter);
    if (next.obj == nullptr)
      return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};
    return eval_from_cached(db, cache, *next.obj, *next.cls, pred, res,
                            step + 1, meter);
  }

  if (v.kind() == ValueKind::LocalRefSet) {
    PredicateOutcome acc{Truth::False, std::nullopt};
    for (const LOid member : v.as_local_ref_set()) {
      const ResolvedObject next = db.resolve(member, meter);
      PredicateOutcome branch =
          next.obj == nullptr
              ? PredicateOutcome{Truth::Unknown,
                                 UnsolvedSite{obj.id(), step}}
              : eval_from_cached(db, cache, *next.obj, *next.cls, pred, res,
                                 step + 1, meter);
      if (is_true(branch.truth)) return branch;
      if (is_unknown(branch.truth) && !is_unknown(acc.truth)) acc = branch;
    }
    return acc;
  }

  throw QueryError("path " + pred.path.dotted() + " step " +
                   pred.path.step(step) + " of class " + cls.name() +
                   " is primitive but the path continues");
}

Value eval_path_cached(const ComponentDatabase& db, EvalCache& cache,
                       const Object& root, const ClassDef& root_cls,
                       const PathExpr& path, PathResolution& res,
                       std::size_t start, AccessMeter* meter) {
  const Object* obj = &root;
  const ClassDef* cls = &root_cls;
  for (std::size_t step = start; step < path.length(); ++step) {
    const auto index = res.attr_index(step, *cls);
    if (!index) return Value::null();
    const Value& v = obj->value(*index);
    const bool last = (step + 1 == path.length());
    if (last) return v;
    if (v.is_null()) return Value::null();
    if (v.kind() == ValueKind::LocalRef) {
      const ResolvedObject next = db.resolve(v.as_local_ref(), meter);
      if (next.obj == nullptr) return Value::null();
      obj = next.obj;
      cls = next.cls;
      continue;
    }
    if (v.kind() == ValueKind::LocalRefSet) {
      // Take the first member whose continuation yields a non-null value.
      for (const LOid member : v.as_local_ref_set()) {
        const ResolvedObject next = db.resolve(member, meter);
        if (next.obj == nullptr) continue;
        Value rest = eval_path_cached(db, cache, *next.obj, *next.cls, path,
                                      res, step + 1, meter);
        if (!rest.is_null()) return rest;
      }
      return Value::null();
    }
    throw QueryError("path " + path.dotted() + " continues past primitive " +
                     path.step(step));
  }
  return Value::null();
}

}  // namespace

PredicateOutcome eval_predicate(const ComponentDatabase& db, const Object& root,
                                const Predicate& pred, AccessMeter* meter,
                                EvalCache* cache) {
  expects(pred.path.length() > 0, "predicate with empty path");
  expects(!pred.literal.is_null(), "predicate literal must not be null");
  if (cache == nullptr) return eval_from(db, root, pred, 0, meter);
  return eval_from_cached(db, *cache, root, db.class_def(root.id()), pred,
                          cache->resolution(pred.path), 0, meter);
}

Value eval_path(const ComponentDatabase& db, const Object& root,
                const PathExpr& path, AccessMeter* meter, EvalCache* cache) {
  expects(path.length() > 0, "cannot evaluate an empty path");
  if (cache != nullptr)
    return eval_path_cached(db, *cache, root, db.class_def(root.id()),
                            path, cache->resolution(path), 0, meter);
  const Object* obj = &root;
  for (std::size_t step = 0; step < path.length(); ++step) {
    const ClassDef& cls = db.class_def(obj->id());
    const auto index = cls.find_attribute(path.step(step));
    if (!index) return Value::null();
    const Value& v = obj->value(*index);
    const bool last = (step + 1 == path.length());
    if (last) return v;
    if (v.is_null()) return Value::null();
    if (v.kind() == ValueKind::LocalRef) {
      obj = db.deref(v, meter);
      if (obj == nullptr) return Value::null();
      continue;
    }
    if (v.kind() == ValueKind::LocalRefSet) {
      // Take the first member whose continuation yields a non-null value.
      for (const LOid member : v.as_local_ref_set()) {
        const Object* next = db.fetch(member, meter);
        if (next == nullptr) continue;
        Value rest = eval_path(db, *next, path.suffix(step + 1), meter);
        if (!rest.is_null()) return rest;
      }
      return Value::null();
    }
    throw QueryError("path " + path.dotted() + " continues past primitive " +
                     path.step(step));
  }
  return Value::null();
}

const Object* walk_prefix(const ComponentDatabase& db, const Object& root,
                          const PathExpr& path, AccessMeter* meter,
                          EvalCache* cache) {
  const Object* obj = &root;
  if (cache != nullptr) {
    if (path.length() == 0) return obj;
    const ClassDef* cls = &db.class_def(root.id());
    PathResolution& res = cache->resolution(path);
    for (std::size_t step = 0; step < path.length(); ++step) {
      const auto index = res.attr_index(step, *cls);
      if (!index) return nullptr;
      const Value& v = obj->value(*index);
      ResolvedObject next;
      if (v.kind() == ValueKind::LocalRef) {
        next = db.resolve(v.as_local_ref(), meter);
      } else if (v.kind() == ValueKind::LocalRefSet &&
                 !v.as_local_ref_set().empty()) {
        next = db.resolve(v.as_local_ref_set().front(), meter);
      } else {
        return nullptr;  // null or primitive: no object to reach
      }
      if (next.obj == nullptr) return nullptr;
      obj = next.obj;
      cls = next.cls;
    }
    return obj;
  }
  for (std::size_t step = 0; step < path.length(); ++step) {
    const ClassDef& cls = db.class_def(obj->id());
    const auto index = cls.find_attribute(path.step(step));
    if (!index) return nullptr;
    const Value& v = obj->value(*index);
    if (v.kind() == ValueKind::LocalRef) {
      obj = db.deref(v, meter);
    } else if (v.kind() == ValueKind::LocalRefSet &&
               !v.as_local_ref_set().empty()) {
      obj = db.fetch(v.as_local_ref_set().front(), meter);
    } else {
      return nullptr;  // null or primitive: no object to reach
    }
    if (obj == nullptr) return nullptr;
  }
  return obj;
}

ObjectEval eval_conjunction(const ComponentDatabase& db, const Object& root,
                            const std::vector<Predicate>& preds,
                            AccessMeter* meter, EvalCache* cache) {
  ObjectEval result;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const PredicateOutcome outcome =
        eval_predicate(db, root, preds[i], meter, cache);
    result.truth = result.truth && outcome.truth;
    if (is_unknown(outcome.truth) && outcome.site)
      result.unknowns.push_back(ObjectEval::UnknownPredicate{i, *outcome.site});
  }
  return result;
}

}  // namespace isomer
