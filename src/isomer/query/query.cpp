#include "isomer/query/query.hpp"

#include "isomer/common/error.hpp"

namespace isomer {

std::string_view to_string(CompOp op) noexcept {
  switch (op) {
    case CompOp::Eq:
      return "=";
    case CompOp::Ne:
      return "<>";
    case CompOp::Lt:
      return "<";
    case CompOp::Le:
      return "<=";
    case CompOp::Gt:
      return ">";
    case CompOp::Ge:
      return ">=";
  }
  return "=";
}

Truth apply(CompOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case CompOp::Eq:
      return compare_eq(lhs, rhs);
    case CompOp::Ne:
      return !compare_eq(lhs, rhs);
    case CompOp::Lt:
      return compare_less(lhs, rhs);
    case CompOp::Ge:
      return !compare_less(lhs, rhs);
    case CompOp::Gt:
      return compare_less(rhs, lhs);
    case CompOp::Le:
      return !compare_less(rhs, lhs);
  }
  return Truth::Unknown;
}

std::ostream& operator<<(std::ostream& os, const Predicate& pred) {
  return os << pred.path << to_string(pred.op) << pred.literal;
}

GlobalQuery& GlobalQuery::select(std::string_view dotted_path) {
  targets.push_back(PathExpr::parse(dotted_path));
  return *this;
}

GlobalQuery& GlobalQuery::where(std::string_view dotted_path, CompOp op,
                                Value literal) {
  predicates.push_back(
      Predicate{PathExpr::parse(dotted_path), op, std::move(literal)});
  return *this;
}

GlobalQuery& GlobalQuery::or_group(std::initializer_list<std::size_t> indices) {
  disjuncts.emplace_back(indices);
  return *this;
}

namespace {

/// Kleene truths as a fold_formula algebra.
struct KleeneAlgebra {
  struct Node {
    bool conjunction;
    Truth value;
  };
  static Node open(bool conjunction) noexcept {
    return {conjunction, truth_of(conjunction)};
  }
  static void add(Node& node, Truth t) noexcept {
    node.value = node.conjunction ? node.value && t : node.value || t;
  }
  static Truth close(const Node& node) noexcept { return node.value; }
};

}  // namespace

Truth GlobalQuery::combine(const std::vector<Truth>& truths) const {
  expects(truths.size() == predicates.size(),
          "GlobalQuery::combine needs one truth per predicate");
  KleeneAlgebra algebra;
  return fold_formula(algebra, [&truths](std::size_t p) { return truths[p]; });
}

}  // namespace isomer
