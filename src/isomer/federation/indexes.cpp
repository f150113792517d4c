#include "isomer/federation/indexes.hpp"

#include "isomer/common/error.hpp"

namespace isomer {

namespace {

std::string index_key(DbId db, std::string_view global_attr) {
  return std::to_string(db.value()) + "/" + std::string(global_attr);
}

}  // namespace

ExtentIndexes ExtentIndexes::build(const Federation& federation,
                                   const GlobalQuery& query) {
  ExtentIndexes out;
  const GlobalSchema& schema = federation.schema();
  const GlobalClass* range = schema.find_class(query.range_class);
  if (range == nullptr) return out;

  for (const Predicate& pred : query.predicates) {
    if (pred.path.length() != 1 || pred.op != CompOp::Eq) continue;
    const std::string& attr = pred.path.step(0);
    const auto global_index = range->def().find_attribute(attr);
    if (!global_index) continue;
    if (is_complex(range->def().attribute(*global_index).type)) continue;

    for (const DbId db : federation.db_ids()) {
      const auto constituent = range->constituent_in(db);
      if (!constituent) continue;
      const auto& local_name = range->local_attr(*constituent, *global_index);
      if (!local_name) continue;  // missing attribute here: nothing to index
      const ComponentDatabase& database = federation.db(db);
      const std::string& local_class =
          range->constituents()[*constituent].local_class;
      const auto attr_index =
          database.schema().cls(local_class).find_attribute(*local_name);
      ensures(attr_index.has_value(), "bound local attribute must exist");

      const auto [slot, fresh] = out.indexes_.try_emplace(index_key(db, attr));
      if (!fresh) continue;  // another predicate on the attribute built it
      Index& index = slot->second;
      for (const Object& obj : database.extent(local_class).objects()) {
        const Value& v = obj.value(*attr_index);
        if (v.is_null())
          index.nulls.push_back(obj.id());
        else
          index.by_key[to_string(v)].push_back(obj.id());
      }
    }
  }
  return out;
}

std::optional<ExtentIndexes::Candidates> ExtentIndexes::lookup(
    DbId db, std::string_view global_attr, const Value& literal,
    AccessMeter* meter) const {
  const auto it = indexes_.find(index_key(db, global_attr));
  if (it == indexes_.end()) return std::nullopt;
  if (meter != nullptr) ++meter->comparisons;  // one index probe
  Candidates candidates;
  const auto hit = it->second.by_key.find(to_string(literal));
  candidates.matches =
      hit != it->second.by_key.end() ? &hit->second : &it->second.empty;
  candidates.unknowns = &it->second.nulls;
  return candidates;
}

bool ExtentIndexes::covers(std::string_view global_attr) const {
  for (const auto& [key, index] : indexes_)
    if (key.substr(key.find('/') + 1) == global_attr) return true;
  return false;
}

}  // namespace isomer
