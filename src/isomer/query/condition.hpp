// Per-row residual conditions (conditional tables).
//
// A maybe row is maybe *because of something*: concrete predicate atoms that
// evaluated Unknown at concrete objects. Following Grahne's conditional
// tables, each ResultRow carries a small three-valued expression over
// (GOid, predicate) leaves recording exactly that residual. Certification
// becomes condition simplification: as assistant evidence arrives, each
// resolved atom substitutes a constant and the row flips to certain (the
// condition collapses to True) or eliminated (False) the moment enough
// leaves are decided — no re-evaluation of anything already known.
//
// The algebra has three connectives because the certification rule pools
// evidence three ways:
//
//  * And / Or — Kleene conjunction (min) and disjunction (max), mirroring
//    GlobalQuery::combine's AND(loose) AND OR(AND(group)) shape.
//  * Pool — the certification rule's per-predicate evidence pool across a
//    GOid's isomeric rows and check verdicts: any False refutes, else any
//    True solves, else Unknown. Pool is *neither* Kleene connective
//    (Pool{True, Unknown} = True where And gives Unknown; Pool{False,
//    Unknown} = False where Or gives Unknown), so it gets its own node.
//
// Every node carries a negation flag instead of a Not node: negation
// distributes over nothing here (Pool has no De Morgan dual), so flipping a
// flag is the only sound way to negate any subtree in O(1).
//
// See docs/CONDITIONS.md for the discharge rules and worked examples.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "isomer/common/ids.hpp"
#include "isomer/common/truth.hpp"

namespace isomer {

struct Predicate;
struct GlobalQuery;

/// One residual leaf: global predicate `predicate` is Unknown at the object
/// whose entity is `item`, stalled at global path `step`.
struct CondAtom {
  GOid item;                   ///< entity holding the missing data
  std::size_t predicate = 0;   ///< index into GlobalQuery::predicates
  std::size_t step = 0;        ///< global path step that was unsolved
  /// True when the holder is a row's root object at step 0. Such sites are
  /// certified through the *other* databases' rows (the Pool they sit in),
  /// never through assistant verdicts, so substitution skips them.
  bool root_level = false;

  friend constexpr auto operator<=>(const CondAtom&,
                                    const CondAtom&) noexcept = default;
};

std::ostream& operator<<(std::ostream& os, const CondAtom& atom);

/// A three-valued residual condition. Immutable value type; all rewrites
/// return new trees. The default-constructed condition is the constant True
/// (a row certain from the start has nothing residual).
class Condition {
 public:
  enum class Kind : unsigned char { Constant, Leaf, And, Or, Pool };

  /// Evidence assignment: (item, predicate) -> pooled verdict truth. This is
  /// the same key as certify's verdict index — one verdict decides every
  /// step of that (item, predicate), so steps do not key the assignment.
  using Assignment = std::map<std::pair<GOid, std::size_t>, Truth>;

  Condition() = default;  // constant True

  [[nodiscard]] static Condition constant(Truth value);
  [[nodiscard]] static Condition leaf(CondAtom atom);
  [[nodiscard]] static Condition make_and(std::vector<Condition> children);
  [[nodiscard]] static Condition make_or(std::vector<Condition> children);
  [[nodiscard]] static Condition pool(std::vector<Condition> children);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool negated() const noexcept { return negated_; }
  /// Meaningful for Kind::Constant only (the node's value before negation).
  [[nodiscard]] Truth constant_value() const noexcept { return value_; }
  /// Meaningful for Kind::Leaf only.
  [[nodiscard]] const CondAtom& atom() const noexcept { return atom_; }
  [[nodiscard]] const std::vector<Condition>& children() const noexcept {
    return children_;
  }

  [[nodiscard]] bool is_constant() const noexcept {
    return kind_ == Kind::Constant;
  }

  /// Logical negation: flips the node's negation flag. Sound for every kind
  /// (truth() applies Kleene NOT on top of the node's base value).
  [[nodiscard]] Condition negate() const;

  /// Evaluates under `assignment`; leaves not assigned evaluate Unknown.
  /// A pure function of the tree and the assignment — in particular the
  /// order evidence arrived in cannot matter.
  [[nodiscard]] Truth truth(const Assignment& assignment) const;
  /// Evaluates with no evidence (every remaining leaf Unknown).
  [[nodiscard]] Truth truth() const { return truth(Assignment{}); }

  /// Discharges one decided atom: every *non-root-level* leaf matching
  /// (item, predicate) — at any step — becomes the constant `value`.
  /// Root-level leaves are only ever decided by their enclosing Pool's row
  /// evidence, so they are left alone (substituting them would let a verdict
  /// about a GOid's nested role leak into its root role).
  [[nodiscard]] Condition substitute(GOid item, std::size_t predicate,
                                     Truth value) const;

  /// Discharges one *exact* leaf: every leaf whose CondAtom equals `atom` —
  /// root_level and step included — becomes the constant `value`. This is
  /// the IM strategy's residual-discharge primitive: unlike substitute(), a
  /// population estimate is an answer about one concrete atom (a root-level
  /// site included), never pooled protocol evidence, so it must only ever
  /// touch the leaf it was computed for.
  [[nodiscard]] Condition substitute_atom(const CondAtom& atom,
                                          Truth value) const;

  /// Sound simplification (idempotent; never changes truth() under any
  /// assignment): fold() applied post-order, with negated constants folded
  /// into their complement at the leaves.
  [[nodiscard]] Condition simplify() const;

  /// The one simplification fold: the `kind` node (And, Or or Pool) over
  /// `children`, each already simplified, reduced by these rules with
  /// `negated` folded on top:
  ///  * And drops True children, collapses on a False child,
  ///  * Or drops False children, collapses on a True child,
  ///  * Pool drops Unknown children (they contribute no evidence),
  ///    collapses on a False child, folds when only constants remain,
  ///  * single-child connectives collapse to the child (Pool{x} ≡ x),
  ///  * empty And/Or/Pool fold to their identities (True/False/Unknown).
  /// Note Pool *keeps* True children: Pool{True, x} is True even while x is
  /// Unknown, but becomes False if x turns False — dropping the True would
  /// lose that, and collapsing early would mis-eliminate. The children are
  /// moved from. Building a tree bottom-up through fold() gives exactly
  /// simplify() of the same tree built with make_and/make_or/pool, and a
  /// node that folds to a constant allocates nothing.
  [[nodiscard]] static Condition fold(Kind kind, std::span<Condition> children,
                                      bool negated = false);

  /// Appends every leaf atom in the tree (duplicates included) to `out`.
  void collect_atoms(std::vector<CondAtom>& out) const;
  [[nodiscard]] std::vector<CondAtom> atoms() const;

  /// Renders e.g. "pool(g7#1@2, true)" — see docs/CONDITIONS.md.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Condition&, const Condition&) = default;

 private:
  /// Every leaf whose atom satisfies `match` becomes the constant `value`,
  /// with the leaf's negation folded in.
  template <typename Match>
  [[nodiscard]] Condition replace_leaves(const Match& match, Truth value) const;

  Kind kind_ = Kind::Constant;
  bool negated_ = false;
  Truth value_ = Truth::True;        ///< Constant payload
  CondAtom atom_{};                  ///< Leaf payload
  std::vector<Condition> children_;  ///< And / Or / Pool payload
};

std::ostream& operator<<(std::ostream& os, const Condition& condition);

/// Combines simplified per-predicate conditions (aligned with
/// `query.predicates`, moved from) into one row condition with exactly
/// GlobalQuery::combine's shape, AND(loose predicates) AND OR(AND(group) for
/// each disjunct group), built through Condition::fold so the result is
/// already simplified. For every assignment, combine_conditions(q, cs)
/// .truth(a) == q.combine([c.truth(a) for c in cs]).
[[nodiscard]] Condition combine_conditions(const GlobalQuery& query,
                                           std::span<Condition> per_pred);

/// Stable signature of a predicate atom for certificate-cache keying: an
/// FNV-1a hash of the predicate's canonical print (`path op literal`), which
/// round-trips through the parser and is what EXPLAIN renders. Two queries
/// share certificates exactly when they ask the same printed predicate.
[[nodiscard]] std::uint64_t predicate_signature(const Predicate& predicate);

}  // namespace isomer
