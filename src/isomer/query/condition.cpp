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

/// A connective's value, given which truth values its children took (`seen`
/// is indexed by Truth). And is min and Or is max.
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

/// Evaluates the subtree at `at`; a leaf reads `leaf_value`, or is Unknown
/// when there is none.
Truth evaluate(std::span<const Node> nodes, std::size_t at,
               const Condition::LeafValue* leaf_value) {
  const Node& node = nodes[at];
  switch (node.kind) {
    case Kind::Constant:
      return node.value;
    case Kind::Leaf:
      return leaf_value == nullptr ? Truth::Unknown : (*leaf_value)(node.atom);
    case Kind::And:
    case Kind::Or:
    case Kind::Pool:
      break;
  }
  std::array<bool, 3> seen{};
  for (std::size_t c = at + 1; c < at + node.size; c += nodes[c].size)
    seen[static_cast<std::size_t>(evaluate(nodes, c, leaf_value))] = true;
  return connective_value(node.kind, seen);
}

void print(std::ostream& os, std::span<const Node> nodes, std::size_t at) {
  const Node& node = nodes[at];
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

}  // namespace

Truth Condition::truth(const LeafValue& leaf_value) const {
  return nodes_.empty() ? Truth::True : evaluate(nodes_, 0, &leaf_value);
}

Truth Condition::truth() const {
  return nodes_.empty() ? Truth::True : evaluate(nodes_, 0, nullptr);
}

std::vector<CondAtom> Condition::atoms() const {
  std::vector<CondAtom> out;
  for (const Node& node : nodes_)
    if (node.kind == Kind::Leaf) out.push_back(node.atom);
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
    entries_.push_back(Entry{Node{Kind::Constant, value, 1, {}}});
}

Condition::Builder::Id Condition::Builder::push(const Entry& entry) {
  entries_.push_back(entry);
  return static_cast<Id>(entries_.size() - 1);
}

Condition::Builder::Id Condition::Builder::leaf(const CondAtom& atom) {
  return push(Entry{Node{Kind::Leaf, Truth::True, 1, atom}});
}

Condition::Builder::Id Condition::Builder::fold(
    Kind kind, std::span<const Id> children) {
  expects(kind == Kind::And || kind == Kind::Or || kind == Kind::Pool,
          "fold builds connectives only");
  const auto decided = [this](Id id) -> const Truth* {
    const Node& node = entries_[id].node;
    return node.kind == Kind::Constant ? &node.value : nullptr;
  };

  // Kept children are appended to edges_, where the node will read them.
  const std::size_t first = edges_.size();
  const auto give_up = [&](Truth value) {
    edges_.resize(first);
    return constant(value);
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
    return only;
  }
  std::uint32_t size = 1;
  for (std::size_t k = first; k < edges_.size(); ++k)
    size += entries_[edges_[k]].node.size;
  return push(Entry{Node{kind, Truth::True, size, {}},
                    static_cast<std::uint32_t>(first),
                    static_cast<std::uint32_t>(kept)});
}

Condition::Builder::Id Condition::Builder::combine(
    const GlobalQuery& query, std::span<const Id> per_pred) {
  expects(per_pred.size() == query.predicates.size(),
          "combine needs one condition per predicate");
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

Truth Condition::Builder::truth(Id id) const {
  const Entry& entry = entries_[id];
  if (entry.node.kind == Kind::Constant) return entry.node.value;
  if (entry.node.kind == Kind::Leaf) return Truth::Unknown;  // no evidence
  std::array<bool, 3> seen{};
  for (std::uint32_t k = entry.first; k < entry.first + entry.count; ++k)
    seen[static_cast<std::size_t>(truth(edges_[k]))] = true;
  return connective_value(entry.node.kind, seen);
}

void Condition::Builder::emit(Id id, std::vector<Node>& out) const {
  const Entry& entry = entries_[id];
  out.push_back(entry.node);
  for (std::uint32_t k = entry.first; k < entry.first + entry.count; ++k)
    emit(edges_[k], out);
}

Condition Condition::Builder::take(Id id) const {
  if (id == constant(Truth::True)) return {};
  std::vector<Node> nodes;
  nodes.reserve(entries_[id].node.size);
  emit(id, nodes);
  return Condition(std::move(nodes));
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
