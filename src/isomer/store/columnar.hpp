// Columnar extent mirror.
//
// A ColumnarExtent re-lays one class extent per attribute: each attribute's
// values sit in one contiguous array with a validity bitmap
// marking where the value is non-null — the paper's missing data, preserved
// exactly. The mirror is a read-only *projection* of the row extent (the
// Extent stays the system of record, so point lookups, mutation and the
// existing API are untouched); the vectorized predicate kernels in
// query/kernels.hpp scan these arrays instead of walking Object values
// variant by variant, which is where the 10-100x on the local hot path
// comes from.
//
// Numeric columns deliberately store doubles regardless of the declared
// Int/Real type: three-valued comparison (common/value.cpp) converts *both*
// operands through Value::as_number() before comparing, so a double array
// reproduces the row path's results bit for bit — including the places where
// an int64 beyond 2^53 would round. Single-reference columns store each
// target's LOid::local, so a navigation predicate follows a whole extent's
// references through the database's LOid directory (core/local_exec.cpp).
// Columns the mirror cannot hold exactly (reference sets, kind mixes) are
// tagged Other, and predicates reading them take the row walk.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

namespace isomer {

class Extent;
class Object;

/// Per-attribute columnar projection of one Extent. Each column is built on
/// its first request and immutable afterwards, so only the attributes some
/// predicate reads take memory; Extent::columnar() caches one projection
/// per extent and drops it after mutation.
class ColumnarExtent {
 public:
  /// Storage class of a column, chosen from the values actually present.
  enum class ColKind : unsigned char {
    AllNull,  ///< every row is null (schema present, data all missing)
    Num,      ///< every non-null value is Int or Real -> double array
    Bool,     ///< every non-null value is Bool -> byte array
    String,   ///< every non-null value is String -> offset + byte arena
    Ref,      ///< every non-null value is a LocalRef -> target LOid::local
    Other,    ///< reference sets / mixed kinds: row-path only
  };

  /// One attribute laid out contiguously. Pointers alias the column's own
  /// arrays and stay valid as long as the ColumnarExtent lives; the arrays
  /// of other kinds are null (or empty).
  struct Column {
    ColKind kind = ColKind::AllNull;
    /// Validity bitmap, bit r set = row r non-null; never null for a built
    /// column (AllNull columns carry an all-zero bitmap).
    const std::uint64_t* valid = nullptr;
    const double* nums = nullptr;          ///< Num: one double per row
    const std::uint8_t* bools = nullptr;   ///< Bool: one byte per row
    /// String: rows+1 offsets into `str_bytes`.
    const std::uint32_t* str_offsets = nullptr;
    const char* str_bytes = nullptr;
    /// Ref: one target LOid::local per row; 0 (never allocated, so it
    /// dangles as the row walk's fetch does) for a target in another
    /// database.
    const std::uint32_t* refs = nullptr;

    [[nodiscard]] bool is_valid(std::size_t row) const noexcept {
      return ((valid[row >> 6] >> (row & 63)) & 1) != 0;
    }
  };

  /// A projection of `extent` with no column built yet.
  explicit ColumnarExtent(const Extent& extent);

  [[nodiscard]] std::size_t rows() const noexcept { return objects_.size(); }
  [[nodiscard]] std::size_t column_count() const noexcept {
    return column_count_;
  }
  /// The column of attribute `attr_index`, built on its first request (two
  /// passes over the rows: classify, then fill). Thread-safe.
  [[nodiscard]] const Column& column(std::size_t attr_index) const;

  /// Bytes held by the columns built so far (diagnostics / bench reporting).
  [[nodiscard]] std::size_t arena_bytes() const;

 private:
  /// One attribute's column and the storage its pointers alias; only the
  /// column kind's own array is filled.
  struct Built {
    bool done = false;
    Column col;
    std::vector<std::uint64_t> valid;
    std::vector<double> nums;
    std::vector<std::uint8_t> bools;
    std::vector<std::uint32_t> refs;
    std::vector<char> str_bytes;
    std::vector<std::uint32_t> str_offsets;  ///< rows+1 (String)
  };

  void build(std::size_t attr_index, Built& out) const;

  std::span<const Object> objects_;
  std::size_t column_count_ = 0;
  mutable std::mutex m_;  ///< guards first builds, never a scan
  std::unique_ptr<Built[]> cols_;
};

}  // namespace isomer
