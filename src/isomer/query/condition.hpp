// Per-row residual conditions (conditional tables).
//
// A maybe row is maybe *because of something*: concrete predicate atoms that
// evaluated Unknown at concrete objects. Following Grahne's conditional
// tables, each ResultRow carries a small three-valued expression over
// (GOid, predicate) leaves recording exactly that residual. Certification
// builds it with every consulted verdict already in place, so the row is
// certain (the condition collapses to True), eliminated (False) or maybe
// with the condition naming the atoms still undecided.
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
// There is no negation: the query language has no NOT, so no residual
// needs one.
//
// See docs/CONDITIONS.md for the discharge rules and worked examples.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
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
/// whose entity is `item`, stalled at global path step `step`.
struct CondAtom {
  GOid item;                   ///< entity holding the missing data
  std::size_t predicate = 0;   ///< index into GlobalQuery::predicates
  std::size_t step = 0;        ///< global path step that was unsolved
  /// True when the holder is a row's root object at step 0. Such sites are
  /// certified through the *other* databases' rows (the Pool they sit in),
  /// never through assistant verdicts.
  bool root_level = false;

  friend constexpr auto operator<=>(const CondAtom&,
                                    const CondAtom&) noexcept = default;
};

std::ostream& operator<<(std::ostream& os, const CondAtom& atom);

/// A three-valued residual condition. A read-only value: Builder::take
/// produces every condition except the default-constructed one, which is
/// the constant True (a row certain from the start has nothing residual).
///
/// Stored as data beside the row, not as an object graph: one pre-order
/// vector of nodes, each carrying its subtree size, so a subtree is a
/// contiguous run and a whole condition is one allocation. The constant True
/// holds no nodes at all, so certain rows allocate nothing.
class Condition {
 public:
  enum class Kind : unsigned char { Constant, Leaf, And, Or, Pool };

  /// One pre-order node. The children of a connective follow it directly;
  /// `size` counts the node and all its descendants, so the next sibling
  /// starts `size` nodes further on.
  struct Node {
    Kind kind = Kind::Constant;
    Truth value = Truth::True;  ///< Constant payload
    std::uint32_t size = 1;     ///< nodes in this subtree, itself included
    CondAtom atom{};            ///< Leaf payload

    friend bool operator==(const Node&, const Node&) = default;
  };

  class Builder;

  /// The value a leaf takes, looked up by its atom.
  using LeafValue = std::function<Truth(const CondAtom&)>;

  Condition() = default;  // constant True

  /// The pre-order layout; empty for the constant True.
  [[nodiscard]] std::span<const Node> nodes() const noexcept { return nodes_; }

  [[nodiscard]] bool is_constant() const noexcept {
    return nodes_.empty() || nodes_.front().kind == Kind::Constant;
  }

  /// Evaluates with each leaf's value taken from `leaf_value`. A pure
  /// function of the condition and the lookup — in particular the order
  /// evidence arrived in cannot matter.
  [[nodiscard]] Truth truth(const LeafValue& leaf_value) const;
  /// Evaluates with no evidence (every leaf Unknown).
  [[nodiscard]] Truth truth() const;

  /// Every leaf atom (duplicates included), in pre-order.
  [[nodiscard]] std::vector<CondAtom> atoms() const;

  /// Renders e.g. "pool(g7#1@2, true)" — see docs/CONDITIONS.md.
  [[nodiscard]] std::string to_string() const;

  friend bool operator==(const Condition&, const Condition&) = default;

 private:
  explicit Condition(std::vector<Node> nodes) : nodes_(std::move(nodes)) {}

  std::vector<Node> nodes_;
};

std::ostream& operator<<(std::ostream& os, const Condition& condition);

/// A reusable arena that builds simplified conditions bottom-up, and the
/// only way to build one. Nodes are appended to it by id; fold() and
/// combine() apply the simplification rules over ids, and take() copies one
/// finished condition out with a single allocation. clear() keeps the
/// capacity, so a loop that builds one condition per row allocates only for
/// the rows it takes.
class Condition::Builder {
 public:
  using Id = std::uint32_t;

  Builder();

  /// Drops every node built so far; only the constants' ids stay valid.
  void clear();

  /// The three constants exist from construction and allocate nothing.
  [[nodiscard]] static Id constant(Truth value) noexcept {
    return static_cast<Id>(value);
  }
  [[nodiscard]] Id leaf(const CondAtom& atom);

  /// The one simplification fold: the `kind` node (And, Or or Pool) over
  /// `children`, each already simplified, reduced by these rules:
  ///  * And drops True children, collapses on a False child,
  ///  * Or drops False children, collapses on a True child,
  ///  * Pool drops Unknown children (they contribute no evidence),
  ///    collapses on a False child, folds when only constants remain,
  ///  * single-child connectives collapse to the child (Pool{x} ≡ x),
  ///  * empty And/Or/Pool fold to their identities (True/False/Unknown).
  /// Note Pool *keeps* True children: Pool{True, x} is True even while x is
  /// Unknown, but becomes False if x turns False — dropping the True would
  /// lose that, and collapsing early would mis-eliminate. A node that folds
  /// to a constant adds nothing to the arena.
  [[nodiscard]] Id fold(Kind kind, std::span<const Id> children);

  /// Combines simplified per-predicate conditions (aligned with
  /// `query.predicates`) in GlobalQuery::combine's shape, AND(loose
  /// predicates) AND OR(AND(group) for each disjunct group), through fold().
  /// Under any leaf values, the result's truth is query.combine of the
  /// per-predicate truths.
  [[nodiscard]] Id combine(const GlobalQuery& query,
                           std::span<const Id> per_pred);

  /// Evaluates node `id` with every leaf Unknown.
  [[nodiscard]] Truth truth(Id id) const;

  /// The condition rooted at `id`, in one allocation (none for True).
  [[nodiscard]] Condition take(Id id) const;

 private:
  struct Entry {
    Node node;
    std::uint32_t first = 0;  ///< the node's children in edges_
    std::uint32_t count = 0;
  };

  [[nodiscard]] Id push(const Entry& entry);
  void emit(Id id, std::vector<Node>& out) const;

  std::vector<Entry> entries_;
  std::vector<Id> edges_;
  std::vector<Id> pending_;  ///< child lists under construction, stacked
};

/// Stable signature of a predicate atom for certificate-cache keying: an
/// FNV-1a hash of the predicate's canonical print (`path op literal`), which
/// round-trips through the parser and is what EXPLAIN renders. Two queries
/// share certificates exactly when they ask the same printed predicate.
[[nodiscard]] std::uint64_t predicate_signature(const Predicate& predicate);

}  // namespace isomer
