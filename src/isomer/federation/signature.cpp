#include "isomer/federation/signature.hpp"

namespace isomer {

namespace {

std::uint64_t fnv1a(std::string_view text, std::uint64_t seed) noexcept {
  std::uint64_t hash = 1469598103934665603ULL ^ seed;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

Signature token_mask(std::string_view token) {
  Signature mask;
  for (unsigned i = 0; i < SignatureIndex::kHashes; ++i)
    mask.set(fnv1a(token, 0x9e3779b97f4a7c15ULL * (i + 1)) & 255);
  return mask;
}

void merge(Signature& into, const Signature& from) noexcept {
  for (std::size_t i = 0; i < into.bits.size(); ++i)
    into.bits[i] |= from.bits[i];
}

}  // namespace

Signature SignatureIndex::value_mask(std::string_view global_attr,
                                     const Value& value) {
  return token_mask(std::string(global_attr) + "=" + to_string(value));
}

Signature SignatureIndex::null_mask(std::string_view global_attr) {
  return token_mask(std::string(global_attr) + "\x01null");
}

SignatureIndex SignatureIndex::build(const Federation& federation) {
  SignatureIndex index;
  for (const DbId db_id : federation.db_ids()) {  // ascending
    const ComponentDatabase& database = federation.db(db_id);
    index.signatures_.resize(std::size_t{db_id.value()} + 1);
    std::vector<Signature>& column = index.signatures_.back();
    column.assign(database.object_count() + 1, Signature::all());
    for (const GlobalClass& cls : federation.schema().classes()) {
      const auto constituent = cls.constituent_in(db_id);
      if (!constituent) continue;
      const ClassDef& local_class = database.schema().cls(
          cls.constituents()[*constituent].local_class);

      // Precompute the local index (or absence) of every global attribute.
      struct Binding {
        std::string_view global_attr;
        std::optional<std::size_t> local_index;
        bool primitive;
      };
      std::vector<Binding> bindings;
      for (std::size_t a = 0; a < cls.def().attribute_count(); ++a) {
        const AttrDef& attr = cls.def().attribute(a);
        std::optional<std::size_t> local_index;
        if (const auto& local_name = cls.local_attr(*constituent, a))
          local_index = local_class.find_attribute(*local_name);
        bindings.push_back(
            Binding{attr.name, local_index, !is_complex(attr.type)});
      }

      for (const Object& obj :
           database.extent(local_class.name()).objects()) {
        Signature sig;
        for (const Binding& binding : bindings) {
          if (!binding.primitive) continue;  // only primitive values indexed
          const Value* v = nullptr;
          if (binding.local_index) v = &obj.value(*binding.local_index);
          if (v == nullptr || v->is_null())
            merge(sig, null_mask(binding.global_attr));
          else
            merge(sig, value_mask(binding.global_attr, *v));
        }
        column[obj.id().local] = sig;
        ++index.indexed_;
      }
    }
  }
  return index;
}

SignatureIndex::Screen SignatureIndex::screen(LOid obj,
                                              std::string_view global_attr,
                                              const Value& literal,
                                              AccessMeter* meter) const {
  if (meter != nullptr) ++meter->comparisons;
  if (obj.db.value() >= signatures_.size()) return Screen::MaybeSatisfies;
  const std::vector<Signature>& column = signatures_[obj.db.value()];
  if (obj.local >= column.size()) return Screen::MaybeSatisfies;
  const Signature& sig = column[obj.local];
  if (sig.contains(value_mask(global_attr, literal)))
    return Screen::MaybeSatisfies;
  if (sig.contains(null_mask(global_attr))) return Screen::MaybeSatisfies;
  return Screen::CannotSatisfy;
}

}  // namespace isomer
