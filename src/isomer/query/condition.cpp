#include "isomer/query/condition.hpp"

#include <array>
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

namespace {

using Node = Condition::Node;
using Kind = Condition::Kind;

/// A connective's value before negation, given which truth values its
/// children took (`seen` is indexed by Truth). And is min and Or is max.
/// Pool is the certification rule's evidence pool: any False refutes, else
/// any True solves, else Unknown — not min, not max (see the header).
Truth connective_value(Kind kind, const std::array<bool, 3>& seen) {
  const bool any_false = seen[static_cast<std::size_t>(Truth::False)];
  const bool any_unknown = seen[static_cast<std::size_t>(Truth::Unknown)];
  const bool any_true = seen[static_cast<std::size_t>(Truth::True)];
  switch (kind) {
    case Kind::And:
      return any_false     ? Truth::False
             : any_unknown ? Truth::Unknown
                           : Truth::True;
    case Kind::Or:
      return any_true      ? Truth::True
             : any_unknown ? Truth::Unknown
                           : Truth::False;
    default:
      return any_false  ? Truth::False
             : any_true ? Truth::True
                        : Truth::Unknown;
  }
}

Truth evaluate(std::span<const Node> nodes, std::size_t at,
               const Condition::Assignment& assignment) {
  const Node& node = nodes[at];
  Truth base = Truth::Unknown;
  switch (node.kind) {
    case Kind::Constant:
      base = node.value;
      break;
    case Kind::Leaf: {
      const auto it =
          assignment.find(std::pair{node.atom.item, node.atom.predicate});
      base = it == assignment.end() ? Truth::Unknown : it->second;
      break;
    }
    case Kind::And:
    case Kind::Or:
    case Kind::Pool: {
      std::array<bool, 3> seen{};
      for (std::size_t c = at + 1; c < at + node.size; c += nodes[c].size)
        seen[static_cast<std::size_t>(evaluate(nodes, c, assignment))] = true;
      base = connective_value(node.kind, seen);
      break;
    }
  }
  return node.negated ? !base : base;
}

void print(std::ostream& os, std::span<const Node> nodes, std::size_t at) {
  const Node& node = nodes[at];
  if (node.negated) os << "not ";
  switch (node.kind) {
    case Kind::Constant:
      os << to_string(node.value);
      return;
    case Kind::Leaf:
      os << node.atom;
      return;
    case Kind::And:
    case Kind::Or:
    case Kind::Pool:
      break;
  }
  os << (node.kind == Kind::And  ? "and("
         : node.kind == Kind::Or ? "or("
                                 : "pool(");
  for (std::size_t c = at + 1; c < at + node.size; c += nodes[c].size) {
    if (c != at + 1) os << ", ";
    print(os, nodes, c);
  }
  os << ")";
}

bool is_true_constant(const Node& node) {
  return node.kind == Kind::Constant && !node.negated && is_true(node.value);
}

}  // namespace

Condition::Condition(std::vector<Node> nodes) {
  if (nodes.size() != 1 || !is_true_constant(nodes.front()))
    nodes_ = std::move(nodes);
}

const Condition::Node& Condition::root() const noexcept {
  static const Node kTrue{};
  return nodes_.empty() ? kTrue : nodes_.front();
}

Condition Condition::constant(Truth value) {
  return Condition({Node{Kind::Constant, false, value, 1, {}}});
}

Condition Condition::leaf(CondAtom atom) {
  return Condition({Node{Kind::Leaf, false, Truth::True, 1, atom}});
}

Condition Condition::connective(Kind kind,
                                std::span<const Condition> children) {
  std::vector<Node> nodes(1, Node{kind, false, Truth::True, 1, {}});
  for (const Condition& child : children) {
    if (child.nodes_.empty())
      nodes.push_back(Node{});  // the constant True
    else
      nodes.insert(nodes.end(), child.nodes_.begin(), child.nodes_.end());
  }
  nodes.front().size = static_cast<std::uint32_t>(nodes.size());
  return Condition(std::move(nodes));
}

Condition Condition::make_and(std::vector<Condition> children) {
  return connective(Kind::And, children);
}

Condition Condition::make_or(std::vector<Condition> children) {
  return connective(Kind::Or, children);
}

Condition Condition::pool(std::vector<Condition> children) {
  return connective(Kind::Pool, children);
}

std::vector<Condition> Condition::children() const {
  std::vector<Condition> out;
  if (nodes_.empty()) return out;
  for (std::size_t c = 1; c < nodes_.front().size; c += nodes_[c].size)
    out.push_back(Condition(std::vector<Node>(
        nodes_.begin() + static_cast<std::ptrdiff_t>(c),
        nodes_.begin() + static_cast<std::ptrdiff_t>(c + nodes_[c].size))));
  return out;
}

Condition Condition::negate() const {
  std::vector<Node> nodes = nodes_.empty() ? std::vector<Node>(1) : nodes_;
  nodes.front().negated = !nodes.front().negated;
  return Condition(std::move(nodes));
}

Truth Condition::truth(const Assignment& assignment) const {
  return nodes_.empty() ? Truth::True : evaluate(nodes_, 0, assignment);
}

template <typename Match>
Condition Condition::replace_leaves(const Match& match, Truth value) const {
  std::vector<Node> nodes = nodes_;
  for (Node& node : nodes)
    // The negation flag folds into the constant right away — a negated
    // leaf decided True is the constant False.
    if (node.kind == Kind::Leaf && match(node.atom))
      node = Node{Kind::Constant, false, node.negated ? !value : value, 1, {}};
  return Condition(std::move(nodes));
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
  Builder builder;
  return builder.take(builder.copy(*this));
}

Condition Condition::fold(Kind kind, std::span<const Condition> children,
                          bool negated) {
  Builder builder;
  std::vector<Builder::Id> ids;
  ids.reserve(children.size());
  for (const Condition& child : children) ids.push_back(builder.copy(child));
  return builder.take(builder.fold(kind, ids, negated));
}

void Condition::collect_atoms(std::vector<CondAtom>& out) const {
  for (const Node& node : nodes_)
    if (node.kind == Kind::Leaf) out.push_back(node.atom);
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
  if (condition.nodes().empty()) return os << to_string(Truth::True);
  print(os, condition.nodes(), 0);
  return os;
}

// ---- Builder ---------------------------------------------------------------

Condition::Builder::Builder() { clear(); }

void Condition::Builder::clear() {
  entries_.clear();
  edges_.clear();
  pending_.clear();
  // Ids 0, 1 and 2 are the constants False, Unknown and True.
  for (const Truth value : {Truth::False, Truth::Unknown, Truth::True})
    entries_.push_back(Entry{Node{Kind::Constant, false, value, 1, {}}});
}

Condition::Builder::Id Condition::Builder::push(const Entry& entry) {
  entries_.push_back(entry);
  return static_cast<Id>(entries_.size() - 1);
}

Condition::Builder::Id Condition::Builder::leaf(const CondAtom& atom) {
  return push(Entry{Node{Kind::Leaf, false, Truth::True, 1, atom}});
}

Condition::Builder::Id Condition::Builder::fold(Kind kind,
                                                std::span<const Id> children,
                                                bool negated) {
  expects(kind == Kind::And || kind == Kind::Or || kind == Kind::Pool,
          "fold builds connectives only");
  // Folds the node's negation into `base` and returns it.
  const auto finish = [&](Id base) -> Id {
    if (!negated) return base;
    Entry entry = entries_[base];
    if (entry.node.kind == Kind::Constant && !entry.node.negated)
      return constant(!entry.node.value);
    entry.node.negated = !entry.node.negated;
    return push(entry);
  };
  // A decided child is an un-negated constant.
  const auto decided = [this](Id id) -> const Truth* {
    const Node& node = entries_[id].node;
    return node.kind == Kind::Constant && !node.negated ? &node.value
                                                        : nullptr;
  };

  // Kept children are appended to edges_, where the node will read them.
  const std::size_t first = edges_.size();
  const auto give_up = [&](Truth value) {
    edges_.resize(first);
    return finish(constant(value));
  };
  if (kind == Kind::Pool) {
    bool only_true = true;  // every kept child a True constant
    for (const Id child : children) {
      const Truth* value = decided(child);
      if (value != nullptr && is_false(*value)) return give_up(Truth::False);
      if (value != nullptr && is_unknown(*value))
        continue;  // contributes no evidence
      // A True child is kept: Pool{True, x} still turns False with x.
      only_true = only_true && value != nullptr;
      edges_.push_back(child);
    }
    if (edges_.size() == first) return give_up(Truth::Unknown);
    // Only True constants left: no child can ever turn False.
    if (only_true) return give_up(Truth::True);
  } else {
    const Truth identity = kind == Kind::And ? Truth::True : Truth::False;
    const Truth annihilator = !identity;
    for (const Id child : children) {
      if (const Truth* value = decided(child)) {
        if (*value == annihilator) return give_up(annihilator);
        if (*value == identity) continue;  // no effect on min/max
      }
      edges_.push_back(child);
    }
    if (edges_.size() == first) return give_up(identity);
  }
  const std::size_t kept = edges_.size() - first;
  if (kept == 1) {
    const Id only = edges_.back();
    edges_.resize(first);
    return finish(only);
  }
  std::uint32_t size = 1;
  for (std::size_t k = first; k < edges_.size(); ++k)
    size += entries_[edges_[k]].node.size;
  return push(Entry{Node{kind, negated, Truth::True, size, {}},
                    static_cast<std::uint32_t>(first),
                    static_cast<std::uint32_t>(kept)});
}

Condition::Builder::Id Condition::Builder::combine(
    const GlobalQuery& query, std::span<const Id> per_pred) {
  expects(per_pred.size() == query.predicates.size(),
          "combine_conditions needs one condition per predicate");
  // fold_formula's algebra over node ids: the operands of the nodes still
  // open are stacked in pending_, each node's from its `start` on.
  struct Algebra {
    Builder& builder;
    struct Open {
      Kind kind;
      std::size_t start;
    };
    Open open(bool conjunction) const {
      return {conjunction ? Kind::And : Kind::Or, builder.pending_.size()};
    }
    void add(Open&, Id child) const { builder.pending_.push_back(child); }
    Id close(const Open& node) const {
      const Id id = builder.fold(
          node.kind, std::span<const Id>(builder.pending_).subspan(node.start));
      builder.pending_.resize(node.start);
      return id;
    }
  } algebra{*this};
  return query.fold_formula(algebra,
                            [per_pred](std::size_t p) { return per_pred[p]; });
}

Condition::Builder::Id Condition::Builder::copy_nodes(
    std::span<const Node> nodes, std::size_t& at) {
  const Node& node = nodes[at++];
  switch (node.kind) {
    case Kind::Constant:
      // A negated constant folds into its complement.
      return constant(node.negated ? !node.value : node.value);
    case Kind::Leaf:
      return push(Entry{node});
    case Kind::And:
    case Kind::Or:
    case Kind::Pool:
      break;
  }
  const std::size_t start = pending_.size();
  const std::size_t end = at - 1 + node.size;
  while (at < end) {
    const Id child = copy_nodes(nodes, at);
    pending_.push_back(child);
  }
  const Id id = fold(node.kind, std::span<const Id>(pending_).subspan(start),
                     node.negated);
  pending_.resize(start);
  return id;
}

Condition::Builder::Id Condition::Builder::copy(const Condition& condition) {
  std::size_t at = 0;
  return condition.nodes_.empty() ? constant(Truth::True)
                                  : copy_nodes(condition.nodes_, at);
}

Truth Condition::Builder::truth(Id id) const {
  const Entry& entry = entries_[id];
  Truth base = Truth::Unknown;  // a leaf, with no evidence
  if (entry.node.kind == Kind::Constant) {
    base = entry.node.value;
  } else if (entry.node.kind != Kind::Leaf) {
    std::array<bool, 3> seen{};
    for (std::uint32_t k = entry.first; k < entry.first + entry.count; ++k)
      seen[static_cast<std::size_t>(truth(edges_[k]))] = true;
    base = connective_value(entry.node.kind, seen);
  }
  return entry.node.negated ? !base : base;
}

void Condition::Builder::emit(Id id, std::vector<Node>& out) const {
  const Entry& entry = entries_[id];
  out.push_back(entry.node);
  for (std::uint32_t k = entry.first; k < entry.first + entry.count; ++k)
    emit(edges_[k], out);
}

Condition Condition::Builder::take(Id id) const {
  if (is_true_constant(entries_[id].node)) return {};
  std::vector<Node> nodes;
  nodes.reserve(entries_[id].node.size);
  emit(id, nodes);
  return Condition(std::move(nodes));
}

Condition combine_conditions(const GlobalQuery& query,
                             std::span<const Condition> per_pred) {
  Condition::Builder builder;
  std::vector<Condition::Builder::Id> ids;
  ids.reserve(per_pred.size());
  for (const Condition& condition : per_pred)
    ids.push_back(builder.copy(condition));
  return builder.take(builder.combine(query, ids));
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
