// Columnar extent mirror + vectorized predicate kernels: storage-kind
// classification, null-bitmap edge cases (all-missing columns, empty
// extents, rows straddling 64-bit bitmap words), cache invalidation on
// mutation, and the load-bearing property that a kernel and the
// row-at-a-time `apply` agree on every row for every vectorizable
// (column kind, operator, literal) combination.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <thread>

#include "isomer/common/rng.hpp"
#include "isomer/query/kernels.hpp"
#include "isomer/store/database.hpp"

namespace isomer {
namespace {

using ColKind = ColumnarExtent::ColKind;

constexpr CompOp kAllOps[] = {CompOp::Eq, CompOp::Ne, CompOp::Lt,
                              CompOp::Le, CompOp::Gt, CompOp::Ge};

ComponentDatabase make_db() {
  ComponentSchema schema(DbId{1}, "DB1");
  schema.add_class("T")
      .add_attribute("n", PrimType::Real)
      .add_attribute("i", PrimType::Int)
      .add_attribute("b", PrimType::Bool)
      .add_attribute("s", PrimType::String)
      .add_attribute("r", ComplexType{"T"})
      .add_attribute("gap", PrimType::Real);  // never set: all-missing
  return ComponentDatabase(std::move(schema));
}

TEST(Columnar, KindClassification) {
  ComponentDatabase db = make_db();
  const LOid a = db.insert("T", {{"n", 1.5}, {"i", 7}, {"b", true}, {"s", "x"}});
  db.insert("T", {{"n", 2}, {"i", 4}, {"b", false}, {"s", ""},
                  {"r", LocalRef{a}}});
  const ColumnarExtent& col = db.extent("T").columnar();
  ASSERT_EQ(col.rows(), 2u);
  ASSERT_EQ(col.column_count(), 6u);
  // Int and Real fold into one double-backed Num kind; a stored int in a
  // Real attribute must not demote the column.
  EXPECT_EQ(col.column(0).kind, ColKind::Num);
  EXPECT_EQ(col.column(1).kind, ColKind::Num);
  EXPECT_EQ(col.column(2).kind, ColKind::Bool);
  EXPECT_EQ(col.column(3).kind, ColKind::String);
  // A single-reference column stores target LOid::locals.
  EXPECT_EQ(col.column(4).kind, ColKind::Ref);
  EXPECT_FALSE(col.column(4).is_valid(0));
  ASSERT_TRUE(col.column(4).is_valid(1));
  EXPECT_EQ(col.column(4).refs[1], a.local);
  EXPECT_EQ(col.column(5).kind, ColKind::AllNull);
  EXPECT_GT(col.arena_bytes(), 0u);
  EXPECT_FALSE(kernel_applicable(ColKind::Ref, CompOp::Eq, Value(1)));
  EXPECT_TRUE(kernel_applicable(ColKind::Ref, CompOp::Eq, Value::null()));
}

TEST(Columnar, ColumnsAreBuiltOnFirstRequestOnce) {
  ComponentDatabase db = make_db();
  for (int i = 0; i < 500; ++i) db.insert("T", {{"n", i}, {"s", "ab"}});
  const ColumnarExtent& col = db.extent("T").columnar();
  EXPECT_EQ(col.arena_bytes(), 0u) << "no column is built before a request";
  // Four threads race for two columns' first requests; each column is
  // built once (TSan builds check the handshake) and read alike.
  const ColumnarExtent::Column* seen[4] = {};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 4; ++t)
    threads.emplace_back([&, t] { seen[t] = &col.column(t % 2 == 0 ? 0 : 3); });
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(seen[0], seen[2]);
  EXPECT_EQ(seen[1], seen[3]);
  EXPECT_EQ(seen[0]->kind, ColKind::Num);
  EXPECT_EQ(seen[1]->kind, ColKind::String);
  const std::size_t built = col.arena_bytes();
  EXPECT_GT(built, 0u);
  (void)col.column(0);
  EXPECT_EQ(col.arena_bytes(), built) << "a second request builds nothing";
}

TEST(Columnar, ReferenceSetsStayOtherAndForeignTargetsDangle) {
  ComponentSchema schema(DbId{1}, "DB1");
  schema.add_class("T")
      .add_attribute("r", ComplexType{"T"})
      .add_attribute("rs", ComplexType{"T", true});
  ComponentDatabase db(std::move(schema));
  const LOid a = db.insert("T");
  db.insert("T", {{"r", LocalRef{LOid{DbId{2}, 1}}},
                  {"rs", LocalRefSet{{a}}}});
  const ColumnarExtent& col = db.extent("T").columnar();
  EXPECT_EQ(col.column(0).kind, ColKind::Ref);
  // A target in another database is stored as local 0, which no database
  // allocates: the directory lookup dangles as the row walk's fetch does.
  ASSERT_TRUE(col.column(0).is_valid(1));
  EXPECT_EQ(col.column(0).refs[1], 0u);
  EXPECT_EQ(db.locate(LOid{DbId{1}, col.column(0).refs[1]}).extent, nullptr);
  EXPECT_EQ(db.locate(a).extent, &db.extent("T"));
  EXPECT_EQ(db.locate(a).row, 0u);
  EXPECT_EQ(col.column(1).kind, ColKind::Other);
}

TEST(Columnar, EmptyExtent) {
  ComponentDatabase db = make_db();
  db.reserve("T", 8);  // reserve must not fabricate rows
  const ColumnarExtent& col = db.extent("T").columnar();
  EXPECT_EQ(col.rows(), 0u);
  ASSERT_EQ(col.column_count(), 6u);
  EXPECT_EQ(col.column(0).kind, ColKind::AllNull);

  // Zero-row evaluation: full and selection kernels write nothing.
  std::vector<Truth> out(1, Truth::True);
  eval_predicate_column(col.column(0), std::size_t{0}, CompOp::Eq, Value(1),
                        out.data());
  eval_predicate_column(col.column(0), std::span<const std::uint32_t>{},
                        CompOp::Eq, Value(1), out.data());
  EXPECT_EQ(out[0], Truth::True) << "zero-row kernels must not write";
}

TEST(Columnar, AllMissingColumnIsUnknownEverywhere) {
  ComponentDatabase db = make_db();
  for (int i = 0; i < 70; ++i) db.insert("T", {{"n", i}});
  const ColumnarExtent& col = db.extent("T").columnar();
  const ColumnarExtent::Column& gap = col.column(5);
  ASSERT_EQ(gap.kind, ColKind::AllNull);
  for (std::size_t r = 0; r < col.rows(); ++r)
    EXPECT_FALSE(gap.is_valid(r)) << "row " << r;
  for (const CompOp op : kAllOps) {
    ASSERT_TRUE(kernel_applicable(gap.kind, op, Value(3)));
    std::vector<Truth> out(col.rows(), Truth::True);
    eval_predicate_column(gap, col.rows(), op, Value(3), out.data());
    for (std::size_t r = 0; r < out.size(); ++r)
      EXPECT_EQ(out[r], Truth::Unknown);
  }
}

TEST(Columnar, NullLiteralVectorizesForEveryKind) {
  ComponentDatabase db = make_db();
  const LOid a = db.insert("T", {{"n", 1}, {"b", true}, {"s", "q"}});
  db.insert("T", {{"r", LocalRef{a}}});
  const ColumnarExtent& col = db.extent("T").columnar();
  for (std::size_t c = 0; c < col.column_count(); ++c) {
    // A null operand yields Unknown before any kind is inspected in the
    // row path, so the null literal vectorizes for *every* column kind —
    // including Other, whose rows the kernel never has to look at.
    ASSERT_TRUE(
        kernel_applicable(col.column(c).kind, CompOp::Lt, Value::null()))
        << "column " << c;
    std::vector<Truth> out(col.rows(), Truth::False);
    eval_predicate_column(col.column(c), col.rows(), CompOp::Lt, Value::null(),
                          out.data());
    for (const Truth t : out) EXPECT_EQ(t, Truth::Unknown);
  }
}

TEST(Columnar, ApplicabilityRules) {
  EXPECT_TRUE(kernel_applicable(ColKind::Num, CompOp::Lt, Value(1)));
  EXPECT_TRUE(kernel_applicable(ColKind::Num, CompOp::Ge, Value(1.5)));
  EXPECT_FALSE(kernel_applicable(ColKind::Num, CompOp::Eq, Value("x")))
      << "numeric vs string throws in the row path";
  EXPECT_TRUE(kernel_applicable(ColKind::Bool, CompOp::Eq, Value(true)));
  EXPECT_TRUE(kernel_applicable(ColKind::Bool, CompOp::Ne, Value(false)));
  EXPECT_FALSE(kernel_applicable(ColKind::Bool, CompOp::Lt, Value(true)))
      << "ordered bool comparison throws in the row path";
  EXPECT_TRUE(kernel_applicable(ColKind::String, CompOp::Le, Value("m")));
  EXPECT_FALSE(kernel_applicable(ColKind::String, CompOp::Eq, Value(1)));
  EXPECT_FALSE(kernel_applicable(ColKind::Other, CompOp::Eq, Value(1)));
  EXPECT_TRUE(kernel_applicable(ColKind::Other, CompOp::Eq, Value::null()))
      << "null literal is Unknown for every kind";
  EXPECT_TRUE(kernel_applicable(ColKind::AllNull, CompOp::Gt, Value("z")));
}

/// Kernel output == row-at-a-time apply(), across bitmap-word boundaries.
/// Sizes straddle 64-row words (63/64/65) and SIMD strides; the value mix
/// includes NaN and an int64 beyond 2^53 to pin the double-compare
/// semantics the row path uses via Value::as_number().
class ColumnarKernelParity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ColumnarKernelParity, NumKernelMatchesApply) {
  const std::size_t rows = GetParam();
  Rng rng(rows * 977 + 5);
  ComponentDatabase db = make_db();
  db.reserve("T", rows);
  std::vector<Value> stored;
  for (std::size_t r = 0; r < rows; ++r) {
    Value v;
    switch (rng.index(6)) {
      case 0: v = Value::null(); break;
      case 1: v = Value(std::numeric_limits<double>::quiet_NaN()); break;
      case 2: v = Value(std::int64_t{1} << 53); break;
      case 3: v = Value(static_cast<std::int64_t>(rng.uniform_int(-3, 3)));
              break;
      default: v = Value(rng.uniform_real(-2.0, 2.0)); break;
    }
    stored.push_back(v);
    db.insert("T", {{"n", v}});
  }
  const ColumnarExtent& col = db.extent("T").columnar();
  ASSERT_EQ(col.rows(), rows);
  const Value literals[] = {Value(0), Value(0.5), Value(std::int64_t{1} << 53),
                            Value(std::numeric_limits<double>::quiet_NaN()),
                            Value::null()};
  std::vector<Truth> out(rows);
  for (const Value& lit : literals) {
    for (const CompOp op : kAllOps) {
      ASSERT_TRUE(kernel_applicable(col.column(0).kind, op, lit));
      eval_predicate_column(col.column(0), rows, op, lit, out.data());
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(out[r], apply(op, stored[r], lit))
            << "rows=" << rows << " r=" << r << " op=" << static_cast<int>(op);

      // Selection-vector variant over every third row plus the last row —
      // exercises non-contiguous gathers and the boundary entries.
      std::vector<std::uint32_t> sel;
      for (std::size_t r = 0; r < rows; r += 3)
        sel.push_back(static_cast<std::uint32_t>(r));
      if (rows > 0 && (sel.empty() || sel.back() != rows - 1))
        sel.push_back(static_cast<std::uint32_t>(rows - 1));
      std::vector<Truth> picked(sel.size());
      eval_predicate_column(col.column(0), sel, op, lit, picked.data());
      for (std::size_t i = 0; i < sel.size(); ++i)
        ASSERT_EQ(picked[i], apply(op, stored[sel[i]], lit));
    }
  }
}

TEST_P(ColumnarKernelParity, StringAndBoolKernelsMatchApply) {
  const std::size_t rows = GetParam();
  Rng rng(rows * 31 + 7);
  ComponentDatabase db = make_db();
  db.reserve("T", rows);
  const char* words[] = {"", "a", "ab", "b", "ba", "longer-string"};
  std::vector<Value> strs, bools;
  for (std::size_t r = 0; r < rows; ++r) {
    const Value s = rng.bernoulli(0.2) ? Value::null()
                                       : Value(words[rng.index(6)]);
    const Value b =
        rng.bernoulli(0.2) ? Value::null() : Value(rng.bernoulli(0.5));
    strs.push_back(s);
    bools.push_back(b);
    db.insert("T", {{"s", s}, {"b", b}});
  }
  const ColumnarExtent& col = db.extent("T").columnar();
  std::vector<Truth> out(rows);
  for (const CompOp op : kAllOps) {
    if (col.column(3).kind == ColKind::String) {
      eval_predicate_column(col.column(3), rows, op, Value("ab"), out.data());
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(out[r], apply(op, strs[r], Value("ab"))) << "r=" << r;
    }
    if (col.column(2).kind == ColKind::Bool &&
        (op == CompOp::Eq || op == CompOp::Ne)) {
      eval_predicate_column(col.column(2), rows, op, Value(true), out.data());
      for (std::size_t r = 0; r < rows; ++r)
        ASSERT_EQ(out[r], apply(op, bools[r], Value(true))) << "r=" << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BitmapBoundaries, ColumnarKernelParity,
                         ::testing::Values(1, 2, 7, 63, 64, 65, 127, 128, 129,
                                           200));

TEST(Columnar, CountAndCollectRows) {
  const std::vector<Truth> truths = {Truth::True, Truth::Unknown, Truth::False,
                                     Truth::Unknown, Truth::True};
  EXPECT_EQ(count_truth(truths, Truth::True), 2u);
  EXPECT_EQ(count_truth(truths, Truth::Unknown), 2u);
  EXPECT_EQ(count_truth(truths, Truth::False), 1u);
  std::vector<std::uint32_t> sel(truths.size());
  ASSERT_EQ(collect_rows(truths, Truth::Unknown, sel.data()), 2u);
  EXPECT_EQ(sel[0], 1u);
  EXPECT_EQ(sel[1], 3u);
}

TEST(Columnar, InsertInvalidatesMirror) {
  ComponentDatabase db = make_db();
  db.insert("T", {{"n", 1}});
  EXPECT_EQ(db.extent("T").columnar().rows(), 1u);
  db.insert("T", {{"n", 2}});
  const ColumnarExtent& rebuilt = db.extent("T").columnar();
  ASSERT_EQ(rebuilt.rows(), 2u);
  EXPECT_EQ(rebuilt.column(0).nums[1], 2.0);
}

TEST(Columnar, SetAttributeInvalidatesMirror) {
  ComponentDatabase db = make_db();
  const LOid id = db.insert("T", {{"n", 1}});
  const ColumnarExtent& before = db.extent("T").columnar();
  EXPECT_EQ(before.column(0).nums[0], 1.0);
  db.set_attribute(id, "n", Value(9));
  const ColumnarExtent& after = db.extent("T").columnar();
  EXPECT_EQ(after.column(0).nums[0], 9.0);
  // Nulling out the only value must flip the column to AllNull.
  db.set_attribute(id, "n", Value::null());
  EXPECT_EQ(db.extent("T").columnar().column(0).kind, ColKind::AllNull);
}

}  // namespace
}  // namespace isomer
