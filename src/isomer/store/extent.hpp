// Class extents.
//
// An extent holds every object of one class in one component database. Point
// lookups go through the database's LOid directory, which names each
// object's extent and row (store/database.hpp). The row store (`objects_`)
// is the system of record; a columnar per-attribute mirror
// (store/columnar.hpp) is built lazily for the vectorized predicate kernels
// and invalidated whenever the extent mutates, so the two layouts can never
// disagree.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "isomer/objmodel/class_def.hpp"
#include "isomer/objmodel/object.hpp"
#include "isomer/store/columnar.hpp"

namespace isomer {

/// All objects of one class within one component database. The extent does
/// not own the class definition; it lives in the database's schema and must
/// outlive the extent.
class Extent {
 public:
  Extent() : mirror_(std::make_unique<Mirror>()) {}
  explicit Extent(const ClassDef& cls);

  [[nodiscard]] const ClassDef& cls() const;

  /// Attribute slots per object, split by kind as the AccessMeter charges
  /// them (counted once from the class definition).
  [[nodiscard]] std::uint64_t prim_slots() const noexcept {
    return prim_slots_;
  }
  [[nodiscard]] std::uint64_t ref_slots() const noexcept { return ref_slots_; }

  [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }
  [[nodiscard]] bool empty() const noexcept { return objects_.empty(); }

  /// Pre-sizes the row store for `n` objects; call before bulk-appending a
  /// known cardinality to avoid realloc churn.
  void reserve(std::size_t n);

  /// Appends an object. The owning database allocates its LOid, so ids are
  /// unique by construction.
  Object& insert(Object obj);

  [[nodiscard]] const std::vector<Object>& objects() const noexcept {
    return objects_;
  }
  [[nodiscard]] std::vector<Object>& objects() noexcept {
    invalidate_columnar();  // mutable view: assume the caller writes
    return objects_;
  }

  /// The columnar mirror of this extent, built on first use and cached.
  /// Thread-safe against concurrent readers; any mutation (insert, mutable
  /// objects(), set_attribute through the database) invalidates it, so the
  /// returned reference is valid until the next mutation.
  [[nodiscard]] const ColumnarExtent& columnar() const;

  /// Drops the cached columnar mirror (called by every mutating path).
  void invalidate_columnar() noexcept;

  /// Mutation counter: bumped by every path that invalidates the columnar
  /// mirror (insert, mutable objects(), set_attribute through the
  /// database). Summed into ComponentDatabase::mutation_epoch() /
  /// Federation::epoch() so epoch-tagged caches (core/cert_cache.hpp) can
  /// drop entries derived from data that has since changed.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  const ClassDef* cls_ = nullptr;
  std::uint64_t prim_slots_ = 0;
  std::uint64_t ref_slots_ = 0;
  std::vector<Object> objects_;
  std::uint64_t version_ = 0;

  /// Lazily built columnar projection. Boxed so Extent stays movable; the
  /// mutex only guards the build/reset handshake, never the scan itself.
  struct Mirror {
    std::mutex m;
    std::shared_ptr<const ColumnarExtent> built;
  };
  std::unique_ptr<Mirror> mirror_;
};

}  // namespace isomer
