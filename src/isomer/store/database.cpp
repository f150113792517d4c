#include "isomer/store/database.hpp"

#include "isomer/common/error.hpp"

namespace isomer {

namespace {

/// True when value `v` may be stored under attribute type `t` (null is
/// storable everywhere; ints are storable into real attributes).
bool storable(const AttrType& t, const Value& v) {
  if (v.is_null()) return true;
  if (const auto* prim = std::get_if<PrimType>(&t)) {
    switch (*prim) {
      case PrimType::Bool:
        return v.kind() == ValueKind::Bool;
      case PrimType::Int:
        return v.kind() == ValueKind::Int;
      case PrimType::Real:
        return v.is_numeric();
      case PrimType::String:
        return v.kind() == ValueKind::String;
    }
    return false;
  }
  const auto& cplx = std::get<ComplexType>(t);
  if (cplx.multi_valued) return v.kind() == ValueKind::LocalRefSet;
  return v.kind() == ValueKind::LocalRef;
}

}  // namespace

ComponentDatabase::ComponentDatabase(ComponentSchema schema)
    : schema_(std::move(schema)) {
  schema_.validate();
  for (const ClassDef& cls : schema_.classes())
    extents_.emplace(cls.name(), Extent(cls));
}

void ComponentDatabase::check_type(const ClassDef& cls, std::size_t attr_index,
                                   const Value& v) const {
  const AttrDef& attr = cls.attribute(attr_index);
  if (!storable(attr.type, v))
    throw QueryError("value of kind " + std::string(to_string(v.kind())) +
                     " not storable into attribute " + attr.name +
                     " of class " + cls.name() + " (type " +
                     to_string(attr.type) + ")");
}

LOid ComponentDatabase::insert(std::string_view class_name,
                               std::initializer_list<NamedValue> values) {
  return insert(class_name, std::vector<NamedValue>(values));
}

LOid ComponentDatabase::insert(std::string_view class_name,
                               const std::vector<NamedValue>& values) {
  Extent& ext = mutable_extent(class_name);
  const ClassDef& cls = ext.cls();
  // The next LOid is the next directory slot. It is only taken once the
  // object is stored, so an insert that throws below leaves no gap.
  const LOid id{db(), static_cast<std::uint32_t>(directory_.size() + 1)};
  Object obj(id, cls);
  for (const auto& [attr_name, value] : values) {
    const auto index = cls.find_attribute(attr_name);
    if (!index)
      throw QueryError("class " + cls.name() + " has no attribute " +
                       attr_name);
    check_type(cls, *index, value);
    obj.set_value(*index, value);
  }
  ext.insert(std::move(obj));
  directory_.push_back(Slot{&ext, ext.size() - 1});
  return id;
}

void ComponentDatabase::reserve(std::string_view class_name, std::size_t n) {
  Extent& ext = mutable_extent(class_name);
  ext.reserve(ext.size() + n);
  directory_.reserve(directory_.size() + n);
}

void ComponentDatabase::set_attribute(LOid id, std::string_view attr_name,
                                      Value v) {
  const Slot* slot = slot_of(id);
  if (slot == nullptr)
    throw FederationError("LOid " + to_string(id) + " unknown to database " +
                          schema_.db_name());
  Extent& ext = *slot->extent;
  Object* obj = &ext.objects()[slot->row];  // mutable view: bumps version
  const auto index = ext.cls().find_attribute(attr_name);
  if (!index)
    throw QueryError("class " + ext.cls().name() + " has no attribute " +
                     std::string(attr_name));
  check_type(ext.cls(), *index, v);
  obj->set_value(*index, std::move(v));
}

const Extent& ComponentDatabase::extent(std::string_view class_name) const {
  const auto it = extents_.find(class_name);
  if (it == extents_.end())
    throw SchemaError("database " + schema_.db_name() + " has no class " +
                      std::string(class_name));
  return it->second;
}

bool ComponentDatabase::has_extent(std::string_view class_name) const noexcept {
  return extents_.find(class_name) != extents_.end();
}

Extent& ComponentDatabase::mutable_extent(std::string_view class_name) {
  const auto it = extents_.find(class_name);
  if (it == extents_.end())
    throw SchemaError("database " + schema_.db_name() + " has no class " +
                      std::string(class_name));
  return it->second;
}

const ClassDef& ComponentDatabase::class_def(LOid id) const {
  const Slot* slot = slot_of(id);
  if (slot == nullptr)
    throw FederationError("LOid " + to_string(id) + " unknown to database " +
                          schema_.db_name());
  return slot->extent->cls();
}

const Object* ComponentDatabase::fetch(LOid id, AccessMeter* meter,
                                       FetchCache* cache) const {
  return resolve(id, meter, cache).obj;
}

const Object* ComponentDatabase::deref(const Value& ref, AccessMeter* meter,
                                       FetchCache* cache) const {
  if (ref.kind() != ValueKind::LocalRef) return nullptr;
  return fetch(ref.as_local_ref(), meter, cache);
}

ResolvedObject ComponentDatabase::resolve(LOid id, AccessMeter* meter,
                                          FetchCache* cache) const {
  const Slot* slot = slot_of(id);
  if (slot == nullptr) return ResolvedObject{};
  const Extent& ext = *slot->extent;
  if (meter != nullptr && (cache == nullptr || cache->admit(id))) {
    ++meter->objects_fetched;
    meter->prim_slots += ext.prim_slots();
    meter->ref_slots += ext.ref_slots();
  }
  return ResolvedObject{&ext.objects()[slot->row], &ext.cls()};
}

const std::vector<Object>& ComponentDatabase::scan(std::string_view class_name,
                                                   AccessMeter* meter,
                                                   FetchCache* cache) const {
  const Extent& ext = extent(class_name);
  if (meter != nullptr) {
    meter->objects_scanned += ext.size();
    meter->prim_slots += ext.prim_slots() * ext.size();
    meter->ref_slots += ext.ref_slots() * ext.size();
  }
  if (cache != nullptr)
    for (const Object& obj : ext.objects()) (void)cache->admit(obj.id());
  return ext.objects();
}

}  // namespace isomer
