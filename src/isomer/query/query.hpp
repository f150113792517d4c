// Query model.
//
// A *global query* (paper Fig. 3a) names one range class of the global
// schema, a list of target path expressions, and a conjunction of
// (possibly nested) comparison predicates.
//
// A *local query* (Fig. 3b) is the translation of a global query for one
// component database: paths are in local attribute names, predicates that
// touch schema-level missing attributes have been stripped into
// `unsolved_predicates`, and the nested complex attributes holding missing
// data are projected so their objects can be certified later.
#pragma once

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "isomer/common/error.hpp"
#include "isomer/common/ids.hpp"
#include "isomer/common/truth.hpp"
#include "isomer/common/value.hpp"
#include "isomer/objmodel/path.hpp"

namespace isomer {

/// Comparison operators usable in predicates.
enum class CompOp : unsigned char { Eq, Ne, Lt, Le, Gt, Ge };

[[nodiscard]] std::string_view to_string(CompOp op) noexcept;

/// Three-valued application of a comparison operator (Unknown when either
/// operand is null).
[[nodiscard]] Truth apply(CompOp op, const Value& lhs, const Value& rhs);

/// One conjunct: `path op literal`.
struct Predicate {
  PathExpr path;
  CompOp op = CompOp::Eq;
  Value literal;

  friend bool operator==(const Predicate&, const Predicate&) = default;
};

std::ostream& operator<<(std::ostream& os, const Predicate& pred);

/// A query against the global schema.
///
/// Predicates combine conjunctively by default (the paper's setting). The
/// paper's §5 extension — disjunctive form — is supported through
/// `disjuncts`: predicate indices grouped into alternatives. The matching
/// formula is then
///
///     AND(predicates not in any group)  AND  OR(AND(group) for each group)
///
/// evaluated in Kleene logic, so e.g. `A and (B or C)`.
struct GlobalQuery {
  std::string range_class;          ///< global class the variable ranges over
  std::vector<PathExpr> targets;    ///< projected paths
  std::vector<Predicate> predicates;

  /// Disjunctive structure; empty = pure conjunction.
  std::vector<std::vector<std::size_t>> disjuncts;

  /// Fluent builders used by examples and tests.
  GlobalQuery& select(std::string_view dotted_path);
  GlobalQuery& where(std::string_view dotted_path, CompOp op, Value literal);
  /// Declares one OR-alternative over previously added predicate indices.
  GlobalQuery& or_group(std::initializer_list<std::size_t> indices);

  /// Combines per-predicate truths (aligned with `predicates`) into the
  /// query's overall Kleene truth. Throws ContractViolation when a disjunct
  /// index is out of range or `truths` is misaligned.
  [[nodiscard]] Truth combine(const std::vector<Truth>& truths) const;

  /// Builds the matching formula, AND(loose) AND OR(AND(group) ...), in any
  /// algebra: Kleene truths in combine(), residual conditions in
  /// Condition::Builder. `algebra.open(conjunction)` starts an n-ary And
  /// (true) or Or (false), `algebra.add(node, value)` appends an operand and
  /// `algebra.close(node)` yields the result; `term(p)` is predicate p's
  /// value. A pure conjunction is one And over every term. The grouped
  /// predicates are marked 64 at a time in a bitmask, so no call allocates.
  template <typename Algebra, typename Term>
  auto fold_formula(Algebra& algebra, const Term& term) const {
    auto all = algebra.open(true);
    if (!disjuncts.empty()) {
      auto alternatives = algebra.open(false);
      for (const auto& group : disjuncts) {
        auto conjunct = algebra.open(true);
        for (const std::size_t index : group) {
          expects(index < predicates.size(), "disjunct index out of range");
          algebra.add(conjunct, term(index));
        }
        algebra.add(alternatives, algebra.close(conjunct));
      }
      algebra.add(all, algebra.close(alternatives));
    }
    for (std::size_t base = 0; base < predicates.size(); base += 64) {
      std::uint64_t grouped = 0;
      for (const auto& group : disjuncts)
        for (const std::size_t index : group)
          if (index - base < 64) grouped |= std::uint64_t{1} << (index - base);
      const std::size_t end = std::min(predicates.size(), base + 64);
      for (std::size_t p = base; p < end; ++p)
        if ((grouped >> (p - base) & 1U) == 0) algebra.add(all, term(p));
    }
    return algebra.close(all);
  }
};

/// A predicate of the global query that is *schema-unsolved* for one
/// component database: its path crosses an attribute the constituent class
/// does not define. `item_prefix` is the global-name path from the range
/// class to the object that holds the missing attribute (empty when the
/// local root object itself holds it); `remaining` is the global-name suffix
/// that assistant objects must satisfy.
struct UnsolvedPredicate {
  std::size_t predicate_index = 0;  ///< index into GlobalQuery::predicates
  Predicate original;    ///< the global predicate (global names)
  PathExpr item_prefix;  ///< path to the unsolved item (global names)
  PathExpr remaining;    ///< suffix from the unsolved item (global names)

  friend bool operator==(const UnsolvedPredicate&,
                         const UnsolvedPredicate&) = default;
};

/// The translation of a global query for one component database.
struct LocalQuery {
  DbId db;
  std::string root_class;  ///< local root class (constituent of the range class)

  /// Predicates fully evaluable against this database's schema, in local
  /// attribute names. (Individual objects may still evaluate to Unknown via
  /// null values.)
  std::vector<Predicate> local_predicates;

  /// For each local predicate, the index of the global predicate it was
  /// translated from; statuses reported to the global site use these.
  std::vector<std::size_t> local_predicate_origin;

  /// Predicates stripped because this database's schema cannot evaluate
  /// them; kept in global names for assistant checking elsewhere.
  std::vector<UnsolvedPredicate> unsolved_predicates;

  /// Target paths in local names; a target whose path is schema-missing
  /// here is absent from this list (its value is null for local objects).
  std::vector<PathExpr> targets;

  /// For each local target, the index of the global target it translates.
  std::vector<std::size_t> target_origin;

  /// Local-name prefixes of the nested complex attributes that hold missing
  /// data — projected so unsolved items can be identified and certified.
  std::vector<PathExpr> unsolved_item_paths;
};

}  // namespace isomer
