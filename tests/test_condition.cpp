// Property tests of the residual-condition algebra (query/condition.hpp).
//
// The algebra is small enough to verify exhaustively: every random tree is
// checked against an independently written reference evaluator under EVERY
// assignment of its (item, predicate) keys — a brute-force truth table, not
// sampled evidence. On top of that the tests pin the laws certification
// relies on: simplify() is idempotent and truth-preserving, substitution is
// order-independent (discharge order cannot matter), root-level leaves are
// never substituted, De Morgan and absorption hold for the Kleene
// connectives, and Pool is provably neither of them. Trees built bottom-up
// through Condition::fold must equal simplify() of the naively built tree.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "isomer/common/rng.hpp"
#include "isomer/query/condition.hpp"
#include "isomer/query/query.hpp"

namespace {

using namespace isomer;

constexpr Truth kTruths[] = {Truth::False, Truth::Unknown, Truth::True};

// ---- Reference evaluator ---------------------------------------------------
// Written from the header's documented semantics, sharing no code with
// Condition::truth: Kleene And = min, Or = max over False < Unknown < True,
// Pool = any-False-refutes-else-any-True-solves, negation on top.

int rank(Truth t) {
  return is_false(t) ? 0 : is_unknown(t) ? 1 : 2;
}

Truth from_rank(int r) { return kTruths[r]; }

Truth ref_eval(const Condition& c, const Condition::Assignment& a) {
  Truth base = Truth::Unknown;
  switch (c.kind()) {
    case Condition::Kind::Constant:
      base = c.constant_value();
      break;
    case Condition::Kind::Leaf: {
      const auto it = a.find(std::pair{c.atom().item, c.atom().predicate});
      base = it == a.end() ? Truth::Unknown : it->second;
      break;
    }
    case Condition::Kind::And: {
      int r = 2;
      for (const Condition& child : c.children())
        r = std::min(r, rank(ref_eval(child, a)));
      base = from_rank(r);
      break;
    }
    case Condition::Kind::Or: {
      int r = 0;
      for (const Condition& child : c.children())
        r = std::max(r, rank(ref_eval(child, a)));
      base = from_rank(r);
      break;
    }
    case Condition::Kind::Pool: {
      bool any_true = false, any_false = false;
      for (const Condition& child : c.children()) {
        const Truth t = ref_eval(child, a);
        any_true |= is_true(t);
        any_false |= is_false(t);
      }
      base = any_false ? Truth::False : any_true ? Truth::True : Truth::Unknown;
      break;
    }
  }
  if (!c.negated()) return base;
  return from_rank(2 - rank(base));
}

// ---- Random trees over a small key universe --------------------------------

using Key = std::pair<GOid, std::size_t>;  // (item, predicate)

/// Four keys keep the brute-force table at 3^4 = 81 assignments.
std::vector<Key> key_universe() {
  return {{GOid{1}, 0}, {GOid{1}, 1}, {GOid{2}, 0}, {GOid{3}, 2}};
}

Condition random_tree(Rng& rng, int depth, bool allow_root) {
  const auto keys = key_universe();
  const bool make_leaf = depth <= 0 || rng.bernoulli(0.35);
  Condition node;
  if (make_leaf) {
    if (rng.bernoulli(0.25)) {
      node = Condition::constant(kTruths[rng.index(3)]);
    } else {
      const Key key = keys[rng.index(keys.size())];
      const auto step = static_cast<std::size_t>(rng.uniform_int(0, 2));
      const bool root = allow_root && step == 0 && rng.bernoulli(0.3);
      node = Condition::leaf(CondAtom{key.first, key.second, step, root});
    }
  } else {
    std::vector<Condition> children;
    const std::size_t arity = 1 + rng.index(3);
    children.reserve(arity);
    for (std::size_t i = 0; i < arity; ++i)
      children.push_back(random_tree(rng, depth - 1, allow_root));
    switch (rng.index(3)) {
      case 0: node = Condition::make_and(std::move(children)); break;
      case 1: node = Condition::make_or(std::move(children)); break;
      default: node = Condition::pool(std::move(children)); break;
    }
  }
  return rng.bernoulli(0.3) ? node.negate() : node;
}

/// Distinct (item, predicate) keys appearing in the tree.
std::vector<Key> keys_of(const Condition& c) {
  std::set<Key> keys;
  for (const CondAtom& atom : c.atoms()) keys.insert({atom.item, atom.predicate});
  return {keys.begin(), keys.end()};
}

/// Every assignment of `keys` to {False, Unknown, True} — 3^|keys| maps.
std::vector<Condition::Assignment> all_assignments(const std::vector<Key>& keys) {
  std::vector<Condition::Assignment> out;
  const std::size_t total = [&] {
    std::size_t n = 1;
    for (std::size_t i = 0; i < keys.size(); ++i) n *= 3;
    return n;
  }();
  out.reserve(total);
  for (std::size_t code = 0; code < total; ++code) {
    Condition::Assignment a;
    std::size_t rest = code;
    for (const Key& key : keys) {
      a[key] = kTruths[rest % 3];
      rest /= 3;
    }
    out.push_back(std::move(a));
  }
  return out;
}

constexpr int kSeeds = 200;

// ---- Properties -------------------------------------------------------------

TEST(Condition, RandomTreesMatchBruteForceTruthTables) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(derive_stream(20260808, static_cast<std::uint64_t>(seed)));
    const Condition tree = random_tree(rng, 4, /*allow_root=*/true);
    for (const Condition::Assignment& a : all_assignments(keys_of(tree)))
      ASSERT_EQ(tree.truth(a), ref_eval(tree, a))
          << "seed " << seed << " tree " << tree.to_string();
  }
}

TEST(Condition, SimplifyIsIdempotentAndTruthPreserving) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(derive_stream(1101, static_cast<std::uint64_t>(seed)));
    const Condition tree = random_tree(rng, 4, /*allow_root=*/true);
    const Condition simplified = tree.simplify();
    ASSERT_EQ(simplified.simplify(), simplified)
        << "seed " << seed << ": simplify not a fixed point on "
        << simplified.to_string();
    // Truth tables are taken over the ORIGINAL tree's keys: simplification
    // may drop leaves, and the dropped ones must not have mattered.
    for (const Condition::Assignment& a : all_assignments(keys_of(tree)))
      ASSERT_EQ(simplified.truth(a), tree.truth(a))
          << "seed " << seed << ": " << tree.to_string() << " vs "
          << simplified.to_string();
  }
}

TEST(Condition, SimplifyKeepsTrueChildrenOfPool) {
  // Pool{True, x} is True while x is Unknown but must still turn False with
  // x — a simplifier that drops the True (as And's would) or collapses the
  // pool early (as Or's would) mis-certifies. This is the one rule where
  // Pool differs from both Kleene connectives, so it gets a pinned case.
  const CondAtom atom{GOid{7}, 1, 2, false};
  const Condition pool = Condition::pool(
      {Condition::constant(Truth::True), Condition::leaf(atom)});
  const Condition simplified = pool.simplify();
  EXPECT_TRUE(is_true(simplified.truth()));
  EXPECT_FALSE(simplified.is_constant())
      << "simplified to " << simplified.to_string()
      << " — the undecided leaf must survive";
  const Condition refuted =
      simplified.substitute(atom.item, atom.predicate, Truth::False);
  EXPECT_TRUE(is_false(refuted.truth()));
}

TEST(Condition, SubstitutionCommutesAcrossDischargeOrders) {
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(derive_stream(2202, static_cast<std::uint64_t>(seed)));
    // Root-level leaves are excluded here: substitute() skips them by
    // design, and truth(assignment) does not, so the tree/assignment
    // equivalence below only holds for dischargeable leaves.
    const Condition tree = random_tree(rng, 4, /*allow_root=*/false);
    std::vector<Key> keys = keys_of(tree);
    if (keys.empty()) continue;

    Condition::Assignment verdicts;
    for (const Key& key : keys) verdicts[key] = kTruths[rng.index(3)];

    // Two independent discharge orders, one atom at a time.
    std::vector<Key> order_a = keys, order_b = keys;
    for (std::size_t i = order_a.size(); i > 1; --i)
      std::swap(order_a[i - 1], order_a[rng.index(i)]);
    for (std::size_t i = order_b.size(); i > 1; --i)
      std::swap(order_b[i - 1], order_b[rng.index(i)]);

    Condition a = tree, b = tree;
    for (const Key& key : order_a)
      a = a.substitute(key.first, key.second, verdicts.at(key));
    for (const Key& key : order_b)
      b = b.substitute(key.first, key.second, verdicts.at(key));

    ASSERT_EQ(a, b) << "seed " << seed << ": discharge order changed the tree";
    // Incremental discharge agrees with evaluating under the full
    // assignment in one shot — evidence arrival order cannot matter.
    ASSERT_EQ(a.truth(), tree.truth(verdicts)) << "seed " << seed;
    ASSERT_EQ(a.simplify().truth(), tree.truth(verdicts)) << "seed " << seed;
  }
}

TEST(Condition, SubstituteSkipsRootLevelLeaves) {
  const CondAtom root{GOid{5}, 0, 0, true};
  const CondAtom nested{GOid{5}, 0, 1, false};
  const Condition pool =
      Condition::pool({Condition::leaf(root), Condition::leaf(nested)});
  // One verdict about (g5, p0) discharges the nested leaf only: the root
  // site is decided by the pool's row evidence, never by verdicts.
  const Condition after = pool.substitute(GOid{5}, 0, Truth::True);
  ASSERT_EQ(after.children().size(), 2u);
  EXPECT_EQ(after.children()[0], Condition::leaf(root));
  EXPECT_EQ(after.children()[1], Condition::constant(Truth::True));
  EXPECT_TRUE(is_true(after.truth()));  // Pool{Unknown, True} = True
}

TEST(Condition, DeMorganAndAbsorptionOnKleeneTrees) {
  // De Morgan duals exist only for the Kleene pair, so these trees are
  // generated leaf/constant-only and combined with And/Or by hand.
  for (int seed = 0; seed < kSeeds; ++seed) {
    Rng rng(derive_stream(3303, static_cast<std::uint64_t>(seed)));
    const auto kleene_tree = [&rng]() {
      Condition c = random_tree(rng, 0, /*allow_root=*/false);  // leaf/const
      for (int level = 0; level < 2; ++level) {
        Condition other = random_tree(rng, 0, /*allow_root=*/false);
        c = rng.bernoulli(0.5)
                ? Condition::make_and({std::move(c), std::move(other)})
                : Condition::make_or({std::move(c), std::move(other)});
      }
      return c;
    };
    const Condition x = kleene_tree();
    const Condition y = kleene_tree();

    const Condition not_and = Condition::make_and({x, y}).negate();
    const Condition or_nots = Condition::make_or({x.negate(), y.negate()});
    const Condition not_or = Condition::make_or({x, y}).negate();
    const Condition and_nots = Condition::make_and({x.negate(), y.negate()});
    const Condition absorb_and = Condition::make_and({x, Condition::make_or({x, y})});
    const Condition absorb_or = Condition::make_or({x, Condition::make_and({x, y})});

    std::set<Key> keys;
    for (const Condition* c : {&x, &y})
      for (const CondAtom& atom : c->atoms()) keys.insert({atom.item, atom.predicate});
    for (const Condition::Assignment& a :
         all_assignments({keys.begin(), keys.end()})) {
      ASSERT_EQ(not_and.truth(a), or_nots.truth(a)) << "seed " << seed;
      ASSERT_EQ(not_or.truth(a), and_nots.truth(a)) << "seed " << seed;
      ASSERT_EQ(absorb_and.truth(a), x.truth(a)) << "seed " << seed;
      ASSERT_EQ(absorb_or.truth(a), x.truth(a)) << "seed " << seed;
    }
  }
}

TEST(Condition, PoolIsNeitherKleeneConnective) {
  const Condition t = Condition::constant(Truth::True);
  const Condition f = Condition::constant(Truth::False);
  const Condition u = Condition::constant(Truth::Unknown);
  // Pool{True, Unknown} = True where And gives Unknown.
  EXPECT_TRUE(is_true(Condition::pool({t, u}).truth()));
  EXPECT_TRUE(is_unknown(Condition::make_and({t, u}).truth()));
  // Pool{False, Unknown} = False where Or gives Unknown.
  EXPECT_TRUE(is_false(Condition::pool({f, u}).truth()));
  EXPECT_TRUE(is_unknown(Condition::make_or({f, u}).truth()));
}

TEST(Condition, CombineConditionsMatchesQueryCombine) {
  // AND(loose) AND OR(AND(group)) — the combined condition's truth must
  // equal GlobalQuery::combine applied to the per-predicate truths, for
  // every truth vector. Query shape: p0 loose, (p1 and p2) or (p3).
  GlobalQuery query;
  query.range_class = "C";
  for (int p = 0; p < 4; ++p)
    query.predicates.push_back(Predicate{});
  query.disjuncts = {{1, 2}, {3}};

  const std::vector<Key> keys = {
      {GOid{1}, 0}, {GOid{1}, 1}, {GOid{2}, 2}, {GOid{2}, 3}};
  std::vector<Condition> per_pred;
  for (std::size_t p = 0; p < 4; ++p)
    per_pred.push_back(Condition::leaf(CondAtom{keys[p].first, p, 1, false}));
  const Condition combined = combine_conditions(query, per_pred);

  for (const Condition::Assignment& a : all_assignments(keys)) {
    std::vector<Truth> truths;
    for (std::size_t p = 0; p < 4; ++p) truths.push_back(per_pred[p].truth(a));
    ASSERT_EQ(combined.truth(a), query.combine(truths));
  }
}

TEST(Condition, DefaultIsConstantTrueAndRendersStably) {
  const Condition def;
  EXPECT_TRUE(def.is_constant());
  EXPECT_TRUE(is_true(def.truth()));
  EXPECT_TRUE(def.atoms().empty());

  const Condition pool = Condition::pool(
      {Condition::leaf(CondAtom{GOid{7}, 1, 2, false}),
       Condition::constant(Truth::True)});
  EXPECT_EQ(pool.to_string(), "pool(g7#1@2, true)");
  EXPECT_EQ(pool.negate().to_string(), "not pool(g7#1@2, true)");
  const Condition root = Condition::leaf(CondAtom{GOid{3}, 0, 0, true});
  EXPECT_EQ(root.to_string(), "g3#0@0r");
}

// ---- The simplification fold ------------------------------------------------

/// A naive tree and the same tree built bottom-up through Condition::fold,
/// from one set of random draws: constants, leaves, And, Or and Pool, each
/// possibly negated.
struct TwinTrees {
  Condition naive;
  Condition folded;
};

TwinTrees random_twins(Rng& rng, int depth) {
  const auto keys = key_universe();
  const bool negated = rng.bernoulli(0.3);
  if (depth <= 0 || rng.bernoulli(0.3)) {
    Condition node;
    if (rng.bernoulli(0.3)) {
      const Truth value = kTruths[rng.index(3)];
      node = Condition::constant(value);
      // The folded form of a negated constant is its complement.
      return {negated ? node.negate() : node,
              Condition::constant(negated ? !value : value)};
    }
    const Key key = keys[rng.index(keys.size())];
    const auto step = static_cast<std::size_t>(rng.uniform_int(0, 2));
    node = Condition::leaf(
        CondAtom{key.first, key.second, step, step == 0 && rng.bernoulli(0.5)});
    if (negated) node = node.negate();
    return {node, node};
  }
  std::vector<Condition> naive, folded;
  const std::size_t arity = rng.index(4);  // 0..3 children
  for (std::size_t i = 0; i < arity; ++i) {
    TwinTrees child = random_twins(rng, depth - 1);
    naive.push_back(std::move(child.naive));
    folded.push_back(std::move(child.folded));
  }
  const Condition::Kind kinds[] = {Condition::Kind::And, Condition::Kind::Or,
                                   Condition::Kind::Pool};
  const Condition::Kind kind = kinds[rng.index(3)];
  Condition node = kind == Condition::Kind::And  ? Condition::make_and(naive)
                   : kind == Condition::Kind::Or ? Condition::make_or(naive)
                                                 : Condition::pool(naive);
  return {negated ? node.negate() : node,
          Condition::fold(kind, folded, negated)};
}

/// The fold's output shape, written from the documented rules: no negated
/// constant anywhere, every connective has two or more children, And/Or keep
/// no identity or annihilator constant, and Pool keeps no False or Unknown
/// constant and is not all True constants.
bool is_folded(const Condition& c) {
  switch (c.kind()) {
    case Condition::Kind::Constant:
      return !c.negated();
    case Condition::Kind::Leaf:
      return true;
    case Condition::Kind::And:
    case Condition::Kind::Or:
    case Condition::Kind::Pool:
      break;
  }
  if (c.children().size() < 2) return false;
  bool all_true = true;
  for (const Condition& child : c.children()) {
    if (!is_folded(child)) return false;
    const bool constant = child.is_constant();
    const Truth value = child.constant_value();
    all_true = all_true && constant && is_true(value);
    if (!constant) continue;
    // Pool keeps only True constants; And/Or only Unknown ones (True and
    // False are their identity and annihilator).
    if (c.kind() == Condition::Kind::Pool ? !is_true(value)
                                          : !is_unknown(value))
      return false;
  }
  return !(c.kind() == Condition::Kind::Pool && all_true);
}

TEST(Condition, FoldBuiltTreesEqualSimplifiedNaiveTrees) {
  for (int seed = 0; seed < 4 * kSeeds; ++seed) {
    Rng rng(derive_stream(4404, static_cast<std::uint64_t>(seed)));
    const TwinTrees twins = random_twins(rng, 4);
    const Condition simplified = twins.naive.simplify();
    ASSERT_EQ(twins.folded, simplified)
        << "seed " << seed << ": fold built " << twins.folded.to_string()
        << ", simplify gave " << simplified.to_string() << " for "
        << twins.naive.to_string();
    ASSERT_EQ(simplified.simplify(), simplified)
        << "seed " << seed << ": simplify not a fixed point";
    ASSERT_TRUE(is_folded(twins.folded))
        << "seed " << seed << ": " << twins.folded.to_string();
    // Random evidence over the key universe, some keys left unassigned.
    for (int trial = 0; trial < 20; ++trial) {
      Condition::Assignment a;
      for (const Key& key : key_universe())
        if (rng.bernoulli(0.75)) a[key] = kTruths[rng.index(3)];
      ASSERT_EQ(twins.folded.truth(a), ref_eval(twins.naive, a))
          << "seed " << seed << ": " << twins.naive.to_string() << " vs "
          << twins.folded.to_string();
    }
  }
}

TEST(Condition, FoldKeepsSurvivorsInOrderAndAppliesNegation) {
  const Condition x = Condition::leaf(CondAtom{GOid{1}, 0, 1, false});
  const Condition y = Condition::leaf(CondAtom{GOid{2}, 1, 2, false});
  const Condition t = Condition::constant(Truth::True);
  const Condition u = Condition::constant(Truth::Unknown);
  std::vector<Condition> children = {t, x, u, y};
  EXPECT_EQ(Condition::fold(Condition::Kind::Pool, children).to_string(),
            "pool(true, g1#0@1, g2#1@2)");
  children = {t, x, t, y};
  EXPECT_EQ(Condition::fold(Condition::Kind::And, children, true).to_string(),
            "not and(g1#0@1, g2#1@2)");
  children = {u, t};
  EXPECT_EQ(Condition::fold(Condition::Kind::Pool, children, true),
            Condition::constant(Truth::False));
  children = {x, Condition::constant(Truth::False)};
  EXPECT_EQ(Condition::fold(Condition::Kind::And, children),
            Condition::constant(Truth::False));
  children = {};
  EXPECT_EQ(Condition::fold(Condition::Kind::Or, children),
            Condition::constant(Truth::False));
}

}  // namespace
