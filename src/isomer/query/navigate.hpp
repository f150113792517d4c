// The three-valued path walk, written once for both storages.
//
// A nested predicate is evaluated on an object by walking its path: read
// the step's attribute, follow the reference to the next step's object, and
// compare at the last step. The result is True, False or Unknown; an Unknown
// result names the object and step holding the gap — a schema-missing
// attribute, a null, an Unknown comparison, or a dangling reference (held by
// the referrer). A reference set is the OR of its members in set order (an
// empty set is False), keeping the first Unknown member's holder and step; a
// single reference is a one-member set.
//
// The rule runs at a component database (core/local_exec.hpp) and over the
// integrated view at the global site (federation/materializer.hpp). Each
// binds its paths its own way and supplies a storage policy `S` with
//   Object, Id, static Id id_of(const Object&), AccessMeter* meter,
//   std::size_t length()   steps of the bound path;
//   read(obj, step)        the bound attribute's value, nullptr when the
//                          attribute is schema-missing;
//   members(ref, step)     a non-null reference's targets in set order,
//                          throwing QueryError for a non-reference;
//   follow(id, step)       the referenced object, charging the fetch as the
//                          storage does: a pointer or an optional, empty
//                          when the reference dangles;
//   target(value)          the value a target path yields at its end.
// The walk never asks which storage it serves; both instantiate inline.
#pragma once

#include <cstddef>

#include "isomer/common/truth.hpp"
#include "isomer/common/value.hpp"
#include "isomer/query/query.hpp"
#include "isomer/store/meter.hpp"

namespace isomer {

/// Outcome of evaluating one predicate on one object.
template <class Id>
struct NavOutcome {
  Truth truth = Truth::Unknown;
  /// Valid iff truth == Unknown: the object holding the missing data and
  /// the path step that could not be evaluated.
  Id holder{};
  std::size_t step = 0;
};

/// Evaluates `pred` (bound in `storage`) on `obj`, an object of the class
/// read at `step`, from `step` to the end of the path. The reported step is
/// absolute, so a suffix walk (an assistant check) names the same step as a
/// walk from the root would.
template <class S>
[[nodiscard]] NavOutcome<typename S::Id> navigate_predicate(
    const S& storage, const Predicate& pred, const typename S::Object& obj,
    std::size_t step) {
  using Id = typename S::Id;
  // Every Unknown this object decides itself is held here, at this step.
  const NavOutcome<Id> gap{Truth::Unknown, S::id_of(obj), step};
  const Value* v = storage.read(obj, step);
  if (v == nullptr) return gap;  // schema-missing
  if (step + 1 == storage.length()) {
    if (storage.meter != nullptr) ++storage.meter->comparisons;
    const Truth t = apply(pred.op, *v, pred.literal);
    return is_unknown(t) ? gap : NavOutcome<Id>{t, {}, 0};
  }
  if (v->is_null()) return gap;

  NavOutcome<Id> acc{Truth::False, {}, 0};
  for (const Id target : storage.members(*v, step)) {
    const auto next = storage.follow(target, step);
    const NavOutcome<Id> branch =  // dangling: the referrer holds the gap
        !next ? gap
                        : navigate_predicate(storage, pred, *next, step + 1);
    if (is_true(branch.truth)) return branch;
    if (is_unknown(branch.truth) && !is_unknown(acc.truth)) acc = branch;
  }
  return acc;
}

/// Evaluates the target path bound in `storage` on `obj` from `step`: the
/// first non-null value reachable in set order, or null when none is.
template <class S>
[[nodiscard]] Value navigate_target(const S& storage,
                                    const typename S::Object& obj,
                                    std::size_t step = 0) {
  const Value* v = storage.read(obj, step);
  if (v == nullptr) return Value::null();
  if (step + 1 == storage.length()) return storage.target(*v);
  if (v->is_null()) return Value::null();
  for (const typename S::Id target : storage.members(*v, step)) {
    const auto next = storage.follow(target, step);
    if (!next) continue;
    Value rest = navigate_target(storage, *next, step + 1);
    if (!rest.is_null()) return rest;
  }
  return Value::null();
}

}  // namespace isomer
