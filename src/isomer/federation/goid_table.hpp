// GOid mapping tables (paper Fig. 5).
//
// Every object in the federation is assigned a global object identifier;
// isomeric objects — objects in different component databases representing
// the same real-world entity — share one GOid. The mapping tables are kept
// per global class and replicated at every site (paper §4.1), so both
// component databases and the global site can probe them; probes are charged
// to an AccessMeter as table_probes.
//
// Both identifier spaces are dense: a component database allocates LOids
// from 1 with no gaps (store/database.hpp) and the table assigns GOids from
// 1 in registration order. So the LOid -> GOid direction — the hottest probe
// path in the system (every surviving local row, every unknown predicate
// holder, every globalized reference goes through it) — is one array per
// DbId indexed by LOid::local, and the GOid -> entity direction is one array
// indexed by GOid - 1. A probe is a bounds check and an index, no hashing.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "isomer/common/hash.hpp"
#include "isomer/common/ids.hpp"
#include "isomer/common/value.hpp"
#include "isomer/store/meter.hpp"

namespace isomer {

/// The federation-wide GOid mapping tables.
class GoidTable {
 public:
  /// Registers one real-world entity of `global_class` represented by the
  /// given isomeric LOids (at most one per database; at least one). Returns
  /// the assigned GOid. Throws FederationError when an LOid is already
  /// mapped, is local 0, or two LOids come from the same database.
  GOid register_entity(std::string_view global_class,
                       const std::vector<LOid>& isomers);

  /// Adds another isomeric object to an existing entity.
  void add_isomer(GOid entity, LOid isomer);

  /// Pre-sizes the entity list for roughly `objects` entities, avoiding
  /// reallocation during bulk registration. Never changes an answer.
  void reserve(std::size_t objects);

  /// GOid of a local object; nullopt when unmapped.
  [[nodiscard]] std::optional<GOid> goid_of(LOid local,
                                            AccessMeter* meter = nullptr) const;

  /// Batch probe: out[i] = GOid of locals[i], or GOid{0} when unmapped
  /// (real GOids start at 1). Charges one table probe per element — exactly
  /// what the same sequence of goid_of calls would charge.
  void goids_of(std::span<const LOid> locals, GOid* out,
                AccessMeter* meter = nullptr) const;

  /// The entity's representative in database `db`; nullopt when the entity
  /// has no isomeric object there.
  [[nodiscard]] std::optional<LOid> loid_in(GOid entity, DbId db,
                                            AccessMeter* meter = nullptr) const;

  /// How many of `homes` (ascending DbId order) hold an isomeric object of
  /// `entity`. Charges one table probe per home — meter-identical to probing
  /// loid_in once per home — but walks the entity's isomer list once.
  [[nodiscard]] std::size_t present_in(GOid entity,
                                       std::span<const DbId> homes,
                                       AccessMeter* meter = nullptr) const;

  /// All isomeric LOids of an entity (ascending DbId order).
  [[nodiscard]] const std::vector<LOid>& isomers_of(GOid entity) const;

  /// Global class of an entity.
  [[nodiscard]] const std::string& class_of(GOid entity) const;

  /// All entities of a global class, in GOid order.
  [[nodiscard]] const std::vector<GOid>& entities_of(
      std::string_view global_class) const;

  /// The entity's position within entities_of(class_of(entity)); nullopt
  /// for GOid 0 and GOids past the last registration.
  [[nodiscard]] std::optional<std::size_t> class_position(
      GOid entity) const noexcept {
    if (entity.value() == 0 || entity.value() > entries_.size())
      return std::nullopt;
    return entries_[entity.value() - 1].class_position;
  }

  [[nodiscard]] std::size_t entity_count() const noexcept {
    return entries_.size();
  }

  /// Rewrites a local value into its global form: LocalRef -> GlobalRef via
  /// the table (null when the referenced object is unmapped), LocalRefSet ->
  /// GlobalRefSet likewise; all other values pass through unchanged.
  [[nodiscard]] Value globalize(const Value& v,
                                AccessMeter* meter = nullptr) const;

 private:
  /// One entity; its GOid is its index in entries_ plus one.
  struct Entry {
    std::uint32_t global_class;    // index into classes_
    std::uint32_t class_position;  // index into classes_[global_class].entities
    std::vector<LOid> isomers;     // kept sorted by DbId
  };

  struct ClassEntities {
    std::string name;
    std::vector<GOid> entities;  // GOid order
  };

  /// GOid mapped to `local`; GOid 0 for another database, local 0 or an id
  /// past the end of its database's array.
  [[nodiscard]] GOid lookup(LOid local) const noexcept {
    if (local.db.value() >= by_loid_.size()) return GOid{0};
    const std::vector<GOid>& column = by_loid_[local.db.value()];
    return local.local < column.size() ? column[local.local] : GOid{0};
  }
  /// Throws FederationError unless `isomer` is a mappable, unmapped LOid.
  void check_unmapped(LOid isomer) const;
  void map(LOid isomer, GOid entity);

  [[nodiscard]] const Entry& entry(GOid entity) const;

  std::vector<Entry> entries_;
  /// LOid -> GOid: by_loid_[db][local], GOid 0 when unmapped.
  std::vector<std::vector<GOid>> by_loid_;
  std::vector<ClassEntities> classes_;
  std::unordered_map<std::string, std::uint32_t, TransparentStringHash,
                     std::equal_to<>>
      class_index_;
};

std::ostream& operator<<(std::ostream& os, const GoidTable& table);

}  // namespace isomer
