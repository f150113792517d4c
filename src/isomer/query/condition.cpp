#include "isomer/query/condition.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "isomer/common/error.hpp"
#include "isomer/query/query.hpp"

namespace isomer {

std::ostream& operator<<(std::ostream& os, const CondAtom& atom) {
  os << "g" << atom.item.value() << "#" << atom.predicate << "@" << atom.step;
  if (atom.root_level) os << "r";
  return os;
}

Condition Condition::constant(Truth value) {
  Condition c;
  c.kind_ = Kind::Constant;
  c.value_ = value;
  return c;
}

Condition Condition::leaf(CondAtom atom) {
  Condition c;
  c.kind_ = Kind::Leaf;
  c.atom_ = atom;
  return c;
}

Condition Condition::make_and(std::vector<Condition> children) {
  Condition c;
  c.kind_ = Kind::And;
  c.children_ = std::move(children);
  return c;
}

Condition Condition::make_or(std::vector<Condition> children) {
  Condition c;
  c.kind_ = Kind::Or;
  c.children_ = std::move(children);
  return c;
}

Condition Condition::pool(std::vector<Condition> children) {
  Condition c;
  c.kind_ = Kind::Pool;
  c.children_ = std::move(children);
  return c;
}

Condition Condition::negate() const {
  Condition c = *this;
  c.negated_ = !c.negated_;
  return c;
}

Truth Condition::truth(const Assignment& assignment) const {
  Truth base = Truth::Unknown;
  switch (kind_) {
    case Kind::Constant:
      base = value_;
      break;
    case Kind::Leaf: {
      const auto it =
          assignment.find(std::pair{atom_.item, atom_.predicate});
      base = it == assignment.end() ? Truth::Unknown : it->second;
      break;
    }
    case Kind::And: {
      base = Truth::True;
      for (const Condition& child : children_)
        base = base && child.truth(assignment);
      break;
    }
    case Kind::Or: {
      base = Truth::False;
      for (const Condition& child : children_)
        base = base || child.truth(assignment);
      break;
    }
    case Kind::Pool: {
      // The certification rule's evidence pool: any False refutes, else any
      // True solves, else Unknown. Not min, not max — see the header.
      bool any_true = false, any_false = false;
      for (const Condition& child : children_) {
        const Truth t = child.truth(assignment);
        if (is_true(t)) any_true = true;
        if (is_false(t)) any_false = true;
      }
      base = any_false  ? Truth::False
             : any_true ? Truth::True
                        : Truth::Unknown;
      break;
    }
  }
  return negated_ ? !base : base;
}

template <typename Match>
Condition Condition::replace_leaves(const Match& match, Truth value) const {
  switch (kind_) {
    case Kind::Constant:
      return *this;
    case Kind::Leaf:
      // The negation flag folds into the constant right away — a negated
      // leaf decided True is the constant False.
      return match(atom_) ? constant(negated_ ? !value : value) : *this;
    case Kind::And:
    case Kind::Or:
    case Kind::Pool: {
      Condition c;
      c.kind_ = kind_;
      c.negated_ = negated_;
      c.children_.reserve(children_.size());
      for (const Condition& child : children_)
        c.children_.push_back(child.replace_leaves(match, value));
      return c;
    }
  }
  return *this;
}

Condition Condition::substitute(GOid item, std::size_t predicate,
                                Truth value) const {
  return replace_leaves(
      [&](const CondAtom& a) {
        return !a.root_level && a.item == item && a.predicate == predicate;
      },
      value);
}

Condition Condition::substitute_atom(const CondAtom& atom,
                                     Truth value) const {
  return replace_leaves([&](const CondAtom& a) { return a == atom; }, value);
}

Condition Condition::simplify() const {
  switch (kind_) {
    case Kind::Constant:
      return negated_ ? constant(!value_) : *this;
    case Kind::Leaf:
      return *this;
    case Kind::And:
    case Kind::Or:
    case Kind::Pool: {
      std::vector<Condition> simplified;
      simplified.reserve(children_.size());
      for (const Condition& child : children_)
        simplified.push_back(child.simplify());
      return fold(kind_, simplified, negated_);
    }
  }
  return *this;
}

Condition Condition::fold(Kind kind, std::span<Condition> children,
                          bool negated) {
  expects(kind == Kind::And || kind == Kind::Or || kind == Kind::Pool,
          "fold builds connectives only");
  // Folds the node's negation into `base` and returns it.
  const auto finish = [negated](Condition base) -> Condition {
    if (!negated) return base;
    if (base.kind_ == Kind::Constant && !base.negated_)
      return constant(!base.value_);
    base.negated_ = !base.negated_;
    return base;
  };

  // Kept children are compacted to the front of `children`.
  std::size_t kept = 0;
  const auto keep = [&](Condition& child) {
    if (&children[kept] != &child) children[kept] = std::move(child);
    ++kept;
  };
  if (kind == Kind::Pool) {
    bool only_true = true;  // every kept child a True constant
    for (Condition& child : children) {
      const bool decided = child.is_constant() && !child.negated_;
      if (decided && is_false(child.value_))
        return finish(constant(Truth::False));
      if (decided && is_unknown(child.value_))
        continue;  // contributes no evidence
      // A True child is kept: Pool{True, x} still turns False with x.
      only_true = only_true && decided;
      keep(child);
    }
    if (kept == 0) return finish(constant(Truth::Unknown));
    // Only True constants left: no child can ever turn False.
    if (only_true) return finish(constant(Truth::True));
  } else {
    const Truth identity = kind == Kind::And ? Truth::True : Truth::False;
    const Truth annihilator = !identity;
    for (Condition& child : children) {
      if (child.is_constant() && !child.negated_) {
        if (child.value_ == annihilator) return finish(constant(annihilator));
        if (child.value_ == identity) continue;  // no effect on min/max
      }
      keep(child);
    }
    if (kept == 0) return finish(constant(identity));
  }
  if (kept == 1) return finish(std::move(children.front()));
  Condition c;
  c.kind_ = kind;
  const std::span<Condition> survivors = children.first(kept);
  c.children_.assign(std::make_move_iterator(survivors.begin()),
                     std::make_move_iterator(survivors.end()));
  return finish(std::move(c));
}

void Condition::collect_atoms(std::vector<CondAtom>& out) const {
  switch (kind_) {
    case Kind::Constant:
      return;
    case Kind::Leaf:
      out.push_back(atom_);
      return;
    case Kind::And:
    case Kind::Or:
    case Kind::Pool:
      for (const Condition& child : children_) child.collect_atoms(out);
      return;
  }
}

std::vector<CondAtom> Condition::atoms() const {
  std::vector<CondAtom> out;
  collect_atoms(out);
  return out;
}

std::string Condition::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Condition& condition) {
  if (condition.negated()) os << "not ";
  switch (condition.kind()) {
    case Condition::Kind::Constant:
      return os << to_string(condition.constant_value());
    case Condition::Kind::Leaf:
      return os << condition.atom();
    case Condition::Kind::And:
    case Condition::Kind::Or:
    case Condition::Kind::Pool: {
      os << (condition.kind() == Condition::Kind::And  ? "and("
             : condition.kind() == Condition::Kind::Or ? "or("
                                                       : "pool(");
      bool first = true;
      for (const Condition& child : condition.children()) {
        if (!first) os << ", ";
        first = false;
        os << child;
      }
      return os << ")";
    }
  }
  return os;
}

Condition combine_conditions(const GlobalQuery& query,
                             std::span<Condition> per_pred) {
  expects(per_pred.size() == query.predicates.size(),
          "combine_conditions needs one condition per predicate");
  if (query.disjuncts.empty())
    return Condition::fold(Condition::Kind::And, per_pred);
  // Mirrors GlobalQuery::combine exactly: AND(loose) AND OR(AND(group)).
  std::vector<bool> grouped(per_pred.size(), false);
  std::vector<Condition> alternatives;
  alternatives.reserve(query.disjuncts.size());
  for (const auto& group : query.disjuncts) {
    std::vector<Condition> conjuncts;
    conjuncts.reserve(group.size());
    for (const std::size_t index : group) {
      expects(index < per_pred.size(), "disjunct index out of range");
      grouped[index] = true;
      conjuncts.push_back(per_pred[index]);
    }
    alternatives.push_back(
        Condition::fold(Condition::Kind::And, conjuncts));
  }
  std::vector<Condition> loose;
  loose.push_back(Condition::fold(Condition::Kind::Or, alternatives));
  for (std::size_t p = 0; p < per_pred.size(); ++p)
    if (!grouped[p]) loose.push_back(std::move(per_pred[p]));
  return Condition::fold(Condition::Kind::And, loose);
}

std::uint64_t predicate_signature(const Predicate& predicate) {
  std::ostringstream os;
  os << predicate;
  const std::string text = os.str();
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;  // FNV-1a prime
  }
  return hash;
}

}  // namespace isomer
