// Property tests of the residual-condition algebra (query/condition.hpp).
//
// Conditions are built only through Condition::Builder, so the tests draw
// random expressions as a small test-local tree over And/Or/Pool, constants
// and leaves, build each one through Builder::fold, and check the taken
// condition two ways: its truth against an independently written reference
// evaluator under EVERY assignment of the expression's distinct atoms (a
// brute-force truth table, not sampled evidence), and its node layout
// against the fold's documented normal form. Pinned cases cover the rules
// certification relies on: Pool is neither Kleene connective and keeps its
// True children, and Builder::combine is GlobalQuery::combine's shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "isomer/common/rng.hpp"
#include "isomer/query/condition.hpp"
#include "isomer/query/query.hpp"

namespace {

using namespace isomer;
using Id = Condition::Builder::Id;
using Kind = Condition::Kind;

constexpr Truth kTruths[] = {Truth::False, Truth::Unknown, Truth::True};

// ---- Test-local expressions --------------------------------------------------

/// An unsimplified expression, the input the builder folds.
struct Expr {
  Kind kind = Kind::Constant;
  Truth value = Truth::True;  ///< Constant payload
  CondAtom atom{};            ///< Leaf payload
  std::vector<Expr> children;
};

/// Four atoms keep the brute-force table at 3^4 = 81 assignments; one is a
/// root-level site, which the algebra evaluates like any other leaf.
const std::vector<CondAtom>& atom_universe() {
  static const std::vector<CondAtom> atoms = {{GOid{1}, 0, 1, false},
                                              {GOid{1}, 1, 2, false},
                                              {GOid{2}, 0, 0, true},
                                              {GOid{3}, 2, 1, false}};
  return atoms;
}

Expr random_expr(Rng& rng, int depth) {
  Expr e;
  if (depth <= 0 || rng.bernoulli(0.3)) {
    if (rng.bernoulli(0.3)) {
      e.value = kTruths[rng.index(3)];
    } else {
      e.kind = Kind::Leaf;
      e.atom = atom_universe()[rng.index(atom_universe().size())];
    }
    return e;
  }
  constexpr Kind kinds[] = {Kind::And, Kind::Or, Kind::Pool};
  e.kind = kinds[rng.index(3)];
  const std::size_t arity = rng.index(4);  // 0..3 children
  for (std::size_t i = 0; i < arity; ++i)
    e.children.push_back(random_expr(rng, depth - 1));
  return e;
}

Id build(Condition::Builder& builder, const Expr& e) {
  if (e.kind == Kind::Constant) return Condition::Builder::constant(e.value);
  if (e.kind == Kind::Leaf) return builder.leaf(e.atom);
  std::vector<Id> children;
  for (const Expr& child : e.children) children.push_back(build(builder, child));
  return builder.fold(e.kind, children);
}

// ---- Reference evaluator ---------------------------------------------------
// Written from the header's documented semantics, sharing no code with
// Condition::truth: Kleene And = min, Or = max over False < Unknown < True,
// Pool = any-False-refutes-else-any-True-solves.

int rank(Truth t) { return is_false(t) ? 0 : is_unknown(t) ? 1 : 2; }

using Assignment = std::map<CondAtom, Truth>;

Truth ref_eval(const Expr& e, const Assignment& a) {
  switch (e.kind) {
    case Kind::Constant:
      return e.value;
    case Kind::Leaf:
      return a.at(e.atom);
    case Kind::And:
    case Kind::Or: {
      int r = e.kind == Kind::And ? 2 : 0;
      for (const Expr& child : e.children)
        r = e.kind == Kind::And ? std::min(r, rank(ref_eval(child, a)))
                                : std::max(r, rank(ref_eval(child, a)));
      return kTruths[r];
    }
    case Kind::Pool:
      break;
  }
  bool any_true = false, any_false = false;
  for (const Expr& child : e.children) {
    const Truth t = ref_eval(child, a);
    any_true |= is_true(t);
    any_false |= is_false(t);
  }
  return any_false ? Truth::False : any_true ? Truth::True : Truth::Unknown;
}

void collect_atoms(const Expr& e, std::set<CondAtom>& out) {
  if (e.kind == Kind::Leaf) out.insert(e.atom);
  for (const Expr& child : e.children) collect_atoms(child, out);
}

/// Every assignment of `atoms` to {False, Unknown, True} — 3^|atoms| maps.
std::vector<Assignment> all_assignments(const std::set<CondAtom>& atoms) {
  std::size_t total = 1;
  for (std::size_t i = 0; i < atoms.size(); ++i) total *= 3;
  std::vector<Assignment> out;
  out.reserve(total);
  for (std::size_t code = 0; code < total; ++code) {
    Assignment a;
    std::size_t rest = code;
    for (const CondAtom& atom : atoms) {
      a[atom] = kTruths[rest % 3];
      rest /= 3;
    }
    out.push_back(std::move(a));
  }
  return out;
}

Truth truth_under(const Condition& c, const Assignment& a) {
  return c.truth([&a](const CondAtom& atom) { return a.at(atom); });
}

/// The fold's normal form, checked on a taken condition's node layout.
/// Returns the first violation, or an empty string.
std::string normal_form_violation(const Condition& c) {
  const auto nodes = c.nodes();
  for (std::size_t at = 0; at < nodes.size(); ++at) {
    const Condition::Node& node = nodes[at];
    if (node.kind == Kind::Constant || node.kind == Kind::Leaf) continue;
    std::size_t count = 0;
    bool all_true = true;
    for (std::size_t k = at + 1; k < at + node.size; k += nodes[k].size) {
      ++count;
      const Condition::Node& child = nodes[k];
      const bool constant = child.kind == Kind::Constant;
      all_true = all_true && constant && is_true(child.value);
      if (!constant) continue;
      // And/Or drop their identity and collapse on their annihilator; an
      // Unknown constant stays (And{Unknown, x} is not x).
      if (node.kind != Kind::Pool && !is_unknown(child.value))
        return "And/Or keeps a decided constant child";
      if (node.kind == Kind::Pool && is_unknown(child.value))
        return "Pool keeps an Unknown child";
      if (node.kind == Kind::Pool && is_false(child.value))
        return "Pool keeps a False child";
    }
    if (count < 2) return "a connective with fewer than two children";
    if (node.kind == Kind::Pool && all_true)
      return "a Pool of True constants only";
  }
  return {};
}

constexpr int kSeeds = 800;

// ---- Properties -------------------------------------------------------------

TEST(Condition, RandomTreesMatchBruteForceTruthTables) {
  Condition::Builder builder;  // reused across trees, as certify reuses it
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(derive_stream(20260808, static_cast<std::uint64_t>(seed)));
    const Expr expr = random_expr(rng, 4);
    builder.clear();
    const Id root = build(builder, expr);
    const Condition built = builder.take(root);
    ASSERT_EQ(builder.truth(root), built.truth()) << "seed " << seed;
    std::set<CondAtom> atoms;
    collect_atoms(expr, atoms);
    for (const Assignment& a : all_assignments(atoms))
      ASSERT_EQ(truth_under(built, a), ref_eval(expr, a))
          << "seed " << seed << " built " << built.to_string();
  }
}

TEST(Condition, FoldBuiltConditionsAreInNormalForm) {
  Condition::Builder builder;
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(derive_stream(4404, static_cast<std::uint64_t>(seed)));
    const Expr expr = random_expr(rng, 4);
    builder.clear();
    const Condition built = builder.take(build(builder, expr));
    ASSERT_EQ(normal_form_violation(built), "")
        << "seed " << seed << ": " << built.to_string();
  }
}

TEST(Condition, SimplifyKeepsTrueChildrenOfPool) {
  // Pool{True, x} is True while x is Unknown but must still turn False with
  // x — a fold that drops the True (as And's would) or collapses the pool
  // early (as Or's would) mis-certifies. This is the one rule where Pool
  // differs from both Kleene connectives, so it gets a pinned case.
  const CondAtom atom{GOid{7}, 1, 2, false};
  Condition::Builder builder;
  const Id children[] = {Condition::Builder::constant(Truth::True),
                         builder.leaf(atom)};
  const Condition pool = builder.take(builder.fold(Kind::Pool, children));
  EXPECT_TRUE(is_true(pool.truth()));
  EXPECT_FALSE(pool.is_constant())
      << "folded to " << pool.to_string()
      << " — the undecided leaf must survive";
  EXPECT_TRUE(is_false(truth_under(pool, {{atom, Truth::False}})));
}

TEST(Condition, PoolIsNeitherKleeneConnective) {
  Condition::Builder builder;
  const CondAtom atom{GOid{4}, 0, 1, false};
  const Id x = builder.leaf(atom);
  const Id t = Condition::Builder::constant(Truth::True);
  const Id f = Condition::Builder::constant(Truth::False);
  const auto truth = [&](Kind kind, Id a, Id b, Truth leaf) {
    const Id pair[] = {a, b};
    return truth_under(builder.take(builder.fold(kind, pair)),
                       {{atom, leaf}});
  };
  // Pool{True, Unknown} = True where And gives Unknown.
  EXPECT_TRUE(is_true(truth(Kind::Pool, t, x, Truth::Unknown)));
  EXPECT_TRUE(is_unknown(truth(Kind::And, t, x, Truth::Unknown)));
  // Pool{False, Unknown} = False where Or gives Unknown.
  EXPECT_TRUE(is_false(truth(Kind::Pool, f, x, Truth::Unknown)));
  EXPECT_TRUE(is_unknown(truth(Kind::Or, f, x, Truth::Unknown)));
}

TEST(Condition, CombineConditionsMatchesQueryCombine) {
  // AND(loose) AND OR(AND(group)) — the combined condition's truth must
  // equal GlobalQuery::combine applied to the per-predicate truths, for
  // every truth vector. Query shape: p0 loose, (p1 and p2) or (p3).
  GlobalQuery query;
  query.range_class = "C";
  for (int p = 0; p < 4; ++p) query.predicates.push_back(Predicate{});
  query.disjuncts = {{1, 2}, {3}};

  Condition::Builder builder;
  std::vector<CondAtom> atoms;
  std::vector<Id> per_pred;
  for (std::size_t p = 0; p < 4; ++p) {
    atoms.push_back(CondAtom{GOid{1 + p / 2}, p, 1, false});
    per_pred.push_back(builder.leaf(atoms.back()));
  }
  const Condition combined = builder.take(builder.combine(query, per_pred));

  for (const Assignment& a :
       all_assignments(std::set<CondAtom>(atoms.begin(), atoms.end()))) {
    std::vector<Truth> truths;
    for (const CondAtom& atom : atoms) truths.push_back(a.at(atom));
    ASSERT_EQ(truth_under(combined, a), query.combine(truths));
  }
}

TEST(Condition, CombineMarksGroupsBeyondSixtyFourPredicates) {
  // 70 predicates: the grouped mask spans two 64-predicate words. Shape:
  // (p1 and p65) or p66 or p3, every other predicate loose.
  GlobalQuery query;
  query.range_class = "C";
  query.predicates.resize(70);
  query.disjuncts = {{1, 65}, {66}, {3}};
  const auto grouped = [](std::size_t p) {
    return p == 1 || p == 3 || p == 65 || p == 66;
  };
  Condition::Builder builder;
  Rng rng(derive_stream(6606, 0));
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<Truth> truths(70, Truth::True);
    // Mostly True, so the disjunction decides most trials.
    for (Truth& t : truths)
      if (rng.bernoulli(0.05)) t = kTruths[rng.index(3)];
    for (const std::size_t p : {1, 3, 65, 66})
      truths[p] = kTruths[rng.index(3)];
    Truth loose = Truth::True;
    for (std::size_t p = 0; p < 70; ++p)
      if (!grouped(p)) loose = loose && truths[p];
    const Truth expected =
        loose && (((truths[1] && truths[65]) || truths[66]) || truths[3]);
    ASSERT_EQ(query.combine(truths), expected) << "trial " << trial;

    builder.clear();
    std::vector<Id> per_pred;
    for (const Truth t : truths)
      per_pred.push_back(Condition::Builder::constant(t));
    const Id combined = builder.combine(query, per_pred);
    ASSERT_EQ(builder.truth(combined), expected) << "trial " << trial;
    ASSERT_EQ(builder.take(combined).truth(), expected) << "trial " << trial;
  }
}

TEST(Condition, DefaultIsConstantTrueAndRendersStably) {
  const Condition def;
  EXPECT_TRUE(def.is_constant());
  EXPECT_TRUE(is_true(def.truth()));
  EXPECT_TRUE(def.atoms().empty());
  EXPECT_EQ(def.to_string(), "true");

  Condition::Builder builder;
  const Id children[] = {builder.leaf(CondAtom{GOid{7}, 1, 2, false}),
                         Condition::Builder::constant(Truth::True)};
  EXPECT_EQ(builder.take(builder.fold(Kind::Pool, children)).to_string(),
            "pool(g7#1@2, true)");
  EXPECT_EQ(builder.take(builder.leaf(CondAtom{GOid{3}, 0, 0, true}))
                .to_string(),
            "g3#0@0r");
  EXPECT_EQ(builder.take(Condition::Builder::constant(Truth::True)), def);
}

TEST(Condition, FoldKeepsSurvivorsInOrder) {
  Condition::Builder builder;
  const Id x = builder.leaf(CondAtom{GOid{1}, 0, 1, false});
  const Id y = builder.leaf(CondAtom{GOid{2}, 1, 2, false});
  const Id t = Condition::Builder::constant(Truth::True);
  const Id u = Condition::Builder::constant(Truth::Unknown);
  const Id f = Condition::Builder::constant(Truth::False);
  const auto folded = [&](Kind kind, std::vector<Id> children) {
    return builder.take(builder.fold(kind, children)).to_string();
  };
  EXPECT_EQ(folded(Kind::Pool, {t, x, u, y}), "pool(true, g1#0@1, g2#1@2)");
  EXPECT_EQ(folded(Kind::And, {t, x, t, y}), "and(g1#0@1, g2#1@2)");
  EXPECT_EQ(folded(Kind::Or, {u, x, f}), "or(unknown, g1#0@1)");
  EXPECT_EQ(folded(Kind::Pool, {u, t}), "true");
  EXPECT_EQ(folded(Kind::And, {x, f}), "false");
  EXPECT_EQ(folded(Kind::Or, {}), "false");
  EXPECT_EQ(folded(Kind::Pool, {}), "unknown");
}

}  // namespace
