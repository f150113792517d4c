#include "isomer/federation/goid_table.hpp"

#include <algorithm>

#include "isomer/common/error.hpp"

namespace isomer {

void GoidTable::check_unmapped(LOid isomer) const {
  if (isomer.local == 0)
    throw FederationError("LOid " + to_string(isomer) +
                          " is not an allocated object id");
  if (lookup(isomer).value() != 0)
    throw FederationError("LOid " + to_string(isomer) +
                          " already mapped to an entity");
}

void GoidTable::map(LOid isomer, GOid entity) {
  if (isomer.db.value() >= by_loid_.size())
    by_loid_.resize(std::size_t{isomer.db.value()} + 1);
  std::vector<GOid>& column = by_loid_[isomer.db.value()];
  if (isomer.local >= column.size())
    column.resize(std::size_t{isomer.local} + 1);
  column[isomer.local] = entity;
}

void GoidTable::reserve(std::size_t objects) { entries_.reserve(objects); }

GOid GoidTable::register_entity(std::string_view global_class,
                                const std::vector<LOid>& isomers) {
  if (isomers.empty())
    throw FederationError("cannot register an entity with no objects");
  const GOid id{entries_.size() + 1};
  std::vector<LOid> sorted = isomers;
  std::sort(sorted.begin(), sorted.end(),
            [](const LOid& a, const LOid& b) { return a.db < b.db; });
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0 && sorted[i - 1].db == sorted[i].db)
      throw FederationError("entity has two objects in DB" +
                            std::to_string(sorted[i].db.value()));
    check_unmapped(sorted[i]);
  }
  auto it = class_index_.find(global_class);  // heterogeneous: no alloc
  if (it == class_index_.end()) {
    it = class_index_
             .emplace(global_class, static_cast<std::uint32_t>(classes_.size()))
             .first;
    classes_.push_back(ClassEntities{it->first, {}});
  }
  std::vector<GOid>& members = classes_[it->second].entities;
  for (const LOid& isomer : sorted) map(isomer, id);
  entries_.push_back(Entry{it->second,
                           static_cast<std::uint32_t>(members.size()),
                           std::move(sorted)});
  members.push_back(id);
  return id;
}

void GoidTable::add_isomer(GOid entity, LOid isomer) {
  expects(entity.value() >= 1 && entity.value() <= entries_.size(),
          "GoidTable::add_isomer on unknown entity");
  Entry& e = entries_[entity.value() - 1];
  check_unmapped(isomer);
  const auto same_db = [&](const LOid& other) { return other.db == isomer.db; };
  if (std::any_of(e.isomers.begin(), e.isomers.end(), same_db))
    throw FederationError("entity g" + std::to_string(entity.value()) +
                          " already has an object in DB" +
                          std::to_string(isomer.db.value()));
  e.isomers.insert(
      std::upper_bound(e.isomers.begin(), e.isomers.end(), isomer,
                       [](const LOid& a, const LOid& b) { return a.db < b.db; }),
      isomer);
  map(isomer, entity);
}

std::optional<GOid> GoidTable::goid_of(LOid local, AccessMeter* meter) const {
  if (meter != nullptr) ++meter->table_probes;
  const GOid goid = lookup(local);
  if (goid.value() == 0) return std::nullopt;
  return goid;
}

void GoidTable::goids_of(std::span<const LOid> locals, GOid* out,
                         AccessMeter* meter) const {
  if (meter != nullptr) meter->table_probes += locals.size();
  for (std::size_t i = 0; i < locals.size(); ++i) out[i] = lookup(locals[i]);
}

std::optional<LOid> GoidTable::loid_in(GOid entity, DbId db,
                                       AccessMeter* meter) const {
  if (meter != nullptr) ++meter->table_probes;
  for (const LOid& isomer : entry(entity).isomers)
    if (isomer.db == db) return isomer;
  return std::nullopt;
}

std::size_t GoidTable::present_in(GOid entity, std::span<const DbId> homes,
                                  AccessMeter* meter) const {
  if (meter != nullptr) meter->table_probes += homes.size();
  // Both lists are ascending in DbId: one merge pass replaces per-home
  // isomer-list scans.
  const std::vector<LOid>& isomers = entry(entity).isomers;
  std::size_t present = 0;
  std::size_t i = 0;
  for (const DbId home : homes) {
    while (i < isomers.size() && isomers[i].db < home) ++i;
    if (i < isomers.size() && isomers[i].db == home) ++present;
  }
  return present;
}

const std::vector<LOid>& GoidTable::isomers_of(GOid entity) const {
  return entry(entity).isomers;
}

const std::string& GoidTable::class_of(GOid entity) const {
  return classes_[entry(entity).global_class].name;
}

const std::vector<GOid>& GoidTable::entities_of(
    std::string_view global_class) const {
  static const std::vector<GOid> empty;
  const auto it = class_index_.find(global_class);  // heterogeneous: no alloc
  if (it == class_index_.end()) return empty;
  return classes_[it->second].entities;
}

Value GoidTable::globalize(const Value& v, AccessMeter* meter) const {
  if (v.kind() == ValueKind::LocalRef) {
    const auto goid = goid_of(v.as_local_ref(), meter);
    return goid ? Value(GlobalRef{*goid}) : Value::null();
  }
  if (v.kind() == ValueKind::LocalRefSet) {
    GlobalRefSet set;
    for (const LOid& target : v.as_local_ref_set())
      if (const auto goid = goid_of(target, meter))
        set.targets.push_back(*goid);
    return set.targets.empty() ? Value::null() : Value(std::move(set));
  }
  return v;
}

const GoidTable::Entry& GoidTable::entry(GOid entity) const {
  expects(entity.value() >= 1 && entity.value() <= entries_.size(),
          "unknown GOid");
  return entries_[entity.value() - 1];
}

std::ostream& operator<<(std::ostream& os, const GoidTable& table) {
  for (std::size_t i = 0; i < table.entity_count(); ++i) {
    const GOid id{static_cast<std::uint64_t>(i + 1)};
    os << "g" << id.value() << " (" << table.class_of(id) << "):";
    for (const LOid& isomer : table.isomers_of(id)) os << " " << isomer;
    os << "\n";
  }
  return os;
}

}  // namespace isomer
