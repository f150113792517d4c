#include "isomer/query/kernels.hpp"

#include <algorithm>
#include <bit>
#include <string_view>

#include "isomer/common/error.hpp"

namespace isomer {

namespace {

using ColKind = ColumnarExtent::ColKind;

/// Branch-free Kleene encode: valid row -> True/False from the comparison
/// bit, null row -> Unknown. Relies on Truth's False=0 / Unknown=1 / True=2
/// encoding: 1 + valid * (2*cmp - 1) in unsigned arithmetic.
inline Truth encode(unsigned valid, unsigned cmp) noexcept {
  return static_cast<Truth>(
      static_cast<std::uint8_t>(1u + valid * (2u * cmp - 1u)));
}

inline unsigned valid_bit(const std::uint64_t* bitmap,
                          std::size_t row) noexcept {
  return static_cast<unsigned>((bitmap[row >> 6] >> (row & 63)) & 1u);
}

/// Numeric kernel over the full column; Cmp is a double x double -> bool
/// stateless comparator, inlined so the loop auto-vectorizes.
///
/// Two passes: first a branch-free compare of every row as if it were valid
/// (True=2 / False=0 is just 2*cmp, so the loop is pure double compares and
/// byte stores — vectorizable even at the SSE2 baseline), then a patch pass
/// that walks only the *zero* bits of the validity bitmap and overwrites
/// those slots with Unknown. Null rows hold an arbitrary stored double (the
/// builder leaves 0.0), but their compare result is discarded, so the
/// output is identical to the row-at-a-time walk. Missing ratios are small
/// in practice, so the patch pass touches few rows.
template <typename Cmp>
void num_all(const ColumnarExtent::Column& col, std::size_t rows, double lit,
             Truth* out, Cmp cmp) {
  const double* vals = col.nums;
  const std::uint64_t* bitmap = col.valid;
#pragma omp simd
  for (std::size_t r = 0; r < rows; ++r)
    out[r] = static_cast<Truth>(
        static_cast<std::uint8_t>(2u * static_cast<unsigned>(cmp(vals[r], lit))));
  for (std::size_t word = 0; word * 64 < rows; ++word) {
    const std::size_t base = word * 64;
    const std::size_t width = std::min<std::size_t>(64, rows - base);
    // Bits beyond `rows` in the last word are zero in the bitmap; mask them
    // out of the complement so they are not patched.
    std::uint64_t missing = ~bitmap[word];
    if (width < 64) missing &= (std::uint64_t{1} << width) - 1;
    while (missing != 0) {
      out[base + static_cast<std::size_t>(std::countr_zero(missing))] =
          Truth::Unknown;
      missing &= missing - 1;
    }
  }
}

template <typename Cmp>
void num_sel(const ColumnarExtent::Column& col,
             std::span<const std::uint32_t> sel, double lit, Truth* out,
             Cmp cmp) {
  const double* vals = col.nums;
  const std::uint64_t* bitmap = col.valid;
  const std::size_t n = sel.size();
#pragma omp simd
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = sel[i];
    const unsigned v = valid_bit(bitmap, r);
    const unsigned c = static_cast<unsigned>(cmp(vals[r], lit));
    out[i] = encode(v, c);
  }
}

template <typename Cmp>
void dispatch_num(const ColumnarExtent::Column& col, std::size_t rows,
                  std::span<const std::uint32_t>* sel, double lit, Truth* out,
                  Cmp cmp) {
  if (sel != nullptr)
    num_sel(col, *sel, lit, out, cmp);
  else
    num_all(col, rows, lit, out, cmp);
}

/// One string row as a view into the column's byte arena.
inline std::string_view str_at(const ColumnarExtent::Column& col,
                               std::size_t row) noexcept {
  const std::uint32_t begin = col.str_offsets[row];
  return {col.str_bytes + begin, col.str_offsets[row + 1] - begin};
}

/// Shared full/selection walk: calls fn(i, r) for every output slot i and
/// its source row r.
template <typename Fn>
void for_each_row(std::size_t rows, std::span<const std::uint32_t>* sel,
                  Fn fn) {
  if (sel != nullptr) {
    for (std::size_t i = 0; i < sel->size(); ++i) fn(i, (*sel)[i]);
  } else {
    for (std::size_t r = 0; r < rows; ++r) fn(r, r);
  }
}

void eval_impl(const ColumnarExtent::Column& col, std::size_t rows,
               std::span<const std::uint32_t>* sel, CompOp op,
               const Value& literal, Truth* out) {
  expects(kernel_applicable(col.kind, op, literal),
          "predicate kernel invoked on a non-vectorizable predicate");

  const std::size_t n = sel != nullptr ? sel->size() : rows;

  // A null literal makes every comparison Unknown before any kind is even
  // inspected (compare_eq / compare_less return early) — as does a column
  // whose rows are all null.
  if (literal.is_null() || col.kind == ColKind::AllNull) {
    std::fill(out, out + n, Truth::Unknown);
    return;
  }

  switch (col.kind) {
    case ColKind::Num: {
      const double lit = literal.as_number();
      switch (op) {
        case CompOp::Eq:
          dispatch_num(col, rows, sel, lit, out,
                       [](double a, double b) { return a == b; });
          return;
        case CompOp::Ne:
          dispatch_num(col, rows, sel, lit, out,
                       [](double a, double b) { return a != b; });
          return;
        case CompOp::Lt:
          dispatch_num(col, rows, sel, lit, out,
                       [](double a, double b) { return a < b; });
          return;
        case CompOp::Le:
          // Not a <= b: the row path computes !(b < a), which differs from
          // <= exactly on NaN (unordered) operands.
          dispatch_num(col, rows, sel, lit, out,
                       [](double a, double b) { return !(b < a); });
          return;
        case CompOp::Gt:
          dispatch_num(col, rows, sel, lit, out,
                       [](double a, double b) { return b < a; });
          return;
        case CompOp::Ge:
          // Row path: !(a < b); again NaN-distinct from >=.
          dispatch_num(col, rows, sel, lit, out,
                       [](double a, double b) { return !(a < b); });
          return;
      }
      return;
    }
    case ColKind::Bool: {
      const std::uint8_t lit = static_cast<std::uint8_t>(literal.as_bool());
      const std::uint8_t* vals = col.bools;
      const std::uint64_t* bitmap = col.valid;
      const bool negate = (op == CompOp::Ne);
      for_each_row(rows, sel, [&](std::size_t i, std::size_t r) {
        const unsigned v = valid_bit(bitmap, r);
        const unsigned c =
            static_cast<unsigned>((vals[r] == lit) != negate);
        out[i] = encode(v, c);
      });
      return;
    }
    case ColKind::String: {
      const std::string_view lit = literal.as_string();
      const std::uint64_t* bitmap = col.valid;
      for_each_row(rows, sel, [&](std::size_t i, std::size_t r) {
        const unsigned v = valid_bit(bitmap, r);
        unsigned c = 0;
        if (v != 0) {
          const std::string_view s = str_at(col, r);
          switch (op) {
            case CompOp::Eq:
              c = static_cast<unsigned>(s == lit);
              break;
            case CompOp::Ne:
              c = static_cast<unsigned>(s != lit);
              break;
            case CompOp::Lt:
              c = static_cast<unsigned>(s < lit);
              break;
            case CompOp::Le:
              c = static_cast<unsigned>(s <= lit);
              break;
            case CompOp::Gt:
              c = static_cast<unsigned>(s > lit);
              break;
            case CompOp::Ge:
              c = static_cast<unsigned>(s >= lit);
              break;
          }
        }
        out[i] = encode(v, c);
      });
      return;
    }
    case ColKind::AllNull:
    case ColKind::Ref:
    case ColKind::Other:
      break;  // unreachable: guarded by kernel_applicable above
  }
}

}  // namespace

bool kernel_applicable(ColKind col_kind, CompOp op, const Value& literal) {
  // Null literal: Unknown for every row regardless of either side's kind.
  if (literal.is_null()) return true;
  switch (col_kind) {
    case ColKind::AllNull:
      return true;  // every row is null -> Unknown, literal never inspected
    case ColKind::Num:
      return literal.is_numeric();
    case ColKind::Bool:
      // Bools are equality-comparable only; ordered ops throw in the row
      // path, so they must take the fallback to reproduce the throw.
      return literal.kind() == ValueKind::Bool &&
             (op == CompOp::Eq || op == CompOp::Ne);
    case ColKind::String:
      return literal.kind() == ValueKind::String;
    case ColKind::Ref:
    case ColKind::Other:
      return false;
  }
  return false;
}

void eval_predicate_column(const ColumnarExtent::Column& col,
                           std::size_t rows, CompOp op, const Value& literal,
                           Truth* out) {
  eval_impl(col, rows, nullptr, op, literal, out);
}

void eval_predicate_column(const ColumnarExtent::Column& col,
                           std::span<const std::uint32_t> sel, CompOp op,
                           const Value& literal, Truth* out) {
  eval_impl(col, 0, &sel, op, literal, out);
}

std::size_t count_truth(std::span<const Truth> truths, Truth want) noexcept {
  const auto w = static_cast<std::uint8_t>(want);
  std::size_t n = 0;
  const Truth* data = truths.data();
  const std::size_t size = truths.size();
#pragma omp simd reduction(+ : n)
  for (std::size_t i = 0; i < size; ++i)
    n += static_cast<std::size_t>(static_cast<std::uint8_t>(data[i]) == w);
  return n;
}

std::size_t collect_rows(std::span<const Truth> truths, Truth want,
                         std::uint32_t* out) noexcept {
  std::size_t n = 0;
  for (std::size_t i = 0; i < truths.size(); ++i)
    if (truths[i] == want) out[n++] = static_cast<std::uint32_t>(i);
  return n;
}

}  // namespace isomer
