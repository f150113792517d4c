// Component databases.
//
// A ComponentDatabase owns one component schema and one extent per class,
// allocates LOids, and offers the navigation primitives (point lookup,
// reference dereference) the query evaluator and the execution strategies
// are built on. Physical work is counted into an optional AccessMeter.
#pragma once

#include <initializer_list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "isomer/common/hash.hpp"
#include "isomer/objmodel/schema.hpp"
#include "isomer/store/extent.hpp"
#include "isomer/store/meter.hpp"

namespace isomer {

/// Named attribute value used when inserting objects:
/// `db.insert("Student", {{"name", "John"}, {"age", 31}})`.
using NamedValue = std::pair<std::string, Value>;

/// An object paired with its class definition, as returned by
/// ComponentDatabase::resolve. `obj == nullptr` means the LOid is unknown
/// (or dangling) in that database.
struct ResolvedObject {
  const Object* obj = nullptr;
  const ClassDef* cls = nullptr;
};

/// One component database: schema + extents + LOid allocation.
class ComponentDatabase {
 public:
  /// Takes ownership of the (validated) schema.
  explicit ComponentDatabase(ComponentSchema schema);

  [[nodiscard]] DbId db() const noexcept { return schema_.db(); }
  [[nodiscard]] const ComponentSchema& schema() const noexcept {
    return schema_;
  }

  /// Inserts a new object of `class_name` with the given attribute values;
  /// unlisted attributes stay null. Values are type-checked against the
  /// schema (QueryError on mismatch). Returns the allocated LOid.
  LOid insert(std::string_view class_name,
              std::initializer_list<NamedValue> values);
  LOid insert(std::string_view class_name,
              const std::vector<NamedValue>& values);

  /// Inserts an object with all attributes null.
  LOid insert(std::string_view class_name) { return insert(class_name, {}); }

  /// Pre-sizes the class extent (and the LOid directory) for `n` more
  /// objects; call before bulk-loading a known cardinality.
  void reserve(std::string_view class_name, std::size_t n);

  /// Overwrites one attribute of an existing object (type-checked).
  void set_attribute(LOid id, std::string_view attr_name, Value v);

  [[nodiscard]] const Extent& extent(std::string_view class_name) const;
  [[nodiscard]] bool has_extent(std::string_view class_name) const noexcept;

  /// The class an LOid belongs to; throws FederationError when unknown.
  [[nodiscard]] const ClassDef& class_def(LOid id) const;
  [[nodiscard]] const std::string& class_of(LOid id) const {
    return class_def(id).name();
  }

  /// Point lookup; nullptr when the LOid is not in this database. Charges
  /// one fetched object to the meter when found — unless `cache` says the
  /// object is already buffered in memory.
  [[nodiscard]] const Object* fetch(LOid id, AccessMeter* meter = nullptr,
                                    FetchCache* cache = nullptr) const;

  /// Dereferences a local reference value; null / dangling refs yield
  /// nullptr. Charges one fetched object when followed (cache-aware).
  [[nodiscard]] const Object* deref(const Value& ref,
                                    AccessMeter* meter = nullptr,
                                    FetchCache* cache = nullptr) const;

  /// Point lookup that also returns the object's class. Metering is
  /// identical to fetch(): one fetched object (plus its slot widths) is
  /// charged per successful call unless `cache` says the object is already
  /// buffered.
  [[nodiscard]] ResolvedObject resolve(LOid id, AccessMeter* meter = nullptr,
                                       FetchCache* cache = nullptr) const;

  /// Scans the extent of `class_name`, charging every object to the meter,
  /// and returns the objects. When `cache` is given, all scanned objects
  /// enter the buffer pool so later point lookups are memory hits.
  [[nodiscard]] const std::vector<Object>& scan(std::string_view class_name,
                                                AccessMeter* meter,
                                                FetchCache* cache = nullptr) const;

  [[nodiscard]] std::size_t object_count() const noexcept {
    return directory_.size();
  }

  /// Where an allocated object lives: its extent and its row there.
  struct Location {
    const Extent* extent = nullptr;  ///< null: not an object of this database
    std::size_t row = 0;
  };

  /// The LOid directory's entry for `id`, with no fetch charged; a null
  /// extent for an LOid this database never allocated (a dangling one).
  [[nodiscard]] Location locate(LOid id) const noexcept {
    const Slot* slot = slot_of(id);
    return slot == nullptr ? Location{} : Location{slot->extent, slot->row};
  }

  /// Monotone mutation counter: the sum of every extent's version (see
  /// Extent::version()), so any insert or attribute write anywhere in the
  /// database changes the value. Epoch-tagged caches compare this to decide
  /// whether their entries still describe the current data.
  [[nodiscard]] std::uint64_t mutation_epoch() const noexcept {
    std::uint64_t epoch = 0;
    for (const auto& [name, extent] : extents_) epoch += extent.version();
    return epoch;
  }

 private:
  /// Where one allocated object lives: its extent and its row there.
  struct Slot {
    Extent* extent = nullptr;
    std::size_t row = 0;
  };

  /// The directory slot of `id`, or nullptr for an LOid this database never
  /// allocated (another DbId, local 0, or past the last allocation).
  [[nodiscard]] const Slot* slot_of(LOid id) const noexcept {
    if (id.db != db() || id.local == 0 || id.local > directory_.size())
      return nullptr;
    return &directory_[id.local - 1];
  }

  Extent& mutable_extent(std::string_view class_name);
  void check_type(const ClassDef& cls, std::size_t attr_index,
                  const Value& v) const;

  ComponentSchema schema_;
  /// Extents keyed by class name; node-based, so Extent addresses are
  /// stable and the LOid directory below can point straight at them.
  std::unordered_map<std::string, Extent, TransparentStringHash,
                     std::equal_to<>>
      extents_;
  /// LOid directory: LOids are allocated densely from 1, so slot
  /// `local - 1` names the object's extent (and through it its class) and
  /// its row — fetch() is a bounds check and an array index, no hashing.
  /// The next LOid to allocate is always `directory_.size() + 1`.
  std::vector<Slot> directory_;
};

}  // namespace isomer
