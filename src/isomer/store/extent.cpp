#include "isomer/store/extent.hpp"

#include <utility>

#include "isomer/common/error.hpp"

namespace isomer {

Extent::Extent(const ClassDef& cls)
    : cls_(&cls), mirror_(std::make_unique<Mirror>()) {
  for (const AttrDef& attr : cls.attributes())
    ++(is_complex(attr.type) ? ref_slots_ : prim_slots_);
}

const ClassDef& Extent::cls() const {
  expects(cls_ != nullptr, "Extent used before binding to a class");
  return *cls_;
}

void Extent::reserve(std::size_t n) {
  objects_.reserve(n);
  by_id_.reserve(n);
}

Object& Extent::insert(Object obj) {
  const auto [it, inserted] = by_id_.emplace(obj.id(), objects_.size());
  if (!inserted)
    throw FederationError("duplicate LOid " + to_string(obj.id()) +
                          " in extent of class " + cls().name());
  objects_.push_back(std::move(obj));
  invalidate_columnar();
  return objects_.back();
}

const Object* Extent::find(LOid id) const noexcept {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return nullptr;
  return &objects_[it->second];
}

Object* Extent::find(LOid id) noexcept {
  invalidate_columnar();  // mutable handle: assume the caller writes
  return const_cast<Object*>(std::as_const(*this).find(id));
}

std::optional<std::size_t> Extent::row_of(LOid id) const noexcept {
  const auto it = by_id_.find(id);
  if (it == by_id_.end()) return std::nullopt;
  return it->second;
}

const ColumnarExtent& Extent::columnar() const {
  const std::lock_guard<std::mutex> lock(mirror_->m);
  if (!mirror_->built)
    mirror_->built = std::make_shared<const ColumnarExtent>(*this);
  return *mirror_->built;
}

void Extent::invalidate_columnar() noexcept {
  const std::lock_guard<std::mutex> lock(mirror_->m);
  mirror_->built.reset();
  ++version_;  // one counter for both mirror staleness and cache epochs
}

}  // namespace isomer
