#include "isomer/store/columnar.hpp"

#include <algorithm>
#include <limits>

#include "isomer/common/error.hpp"
#include "isomer/store/extent.hpp"

namespace isomer {

namespace {

/// What one column looks like after the classification pass.
struct ColPlan {
  ColumnarExtent::ColKind kind = ColumnarExtent::ColKind::AllNull;
  std::size_t str_bytes = 0;  ///< total string payload (String columns)
};

/// Folds one value's kind into the column's running classification.
void classify(ColPlan& plan, const Value& v) {
  using ColKind = ColumnarExtent::ColKind;
  if (v.is_null()) return;
  ColKind vk;
  std::size_t bytes = 0;
  switch (v.kind()) {
    case ValueKind::Int:
    case ValueKind::Real:
      vk = ColKind::Num;
      break;
    case ValueKind::Bool:
      vk = ColKind::Bool;
      break;
    case ValueKind::String:
      vk = ColKind::String;
      bytes = v.as_string().size();
      break;
    case ValueKind::LocalRef:
      vk = ColKind::Ref;
      break;
    default:
      vk = ColKind::Other;
      break;
  }
  if (plan.kind == ColKind::AllNull)
    plan.kind = vk;
  else if (plan.kind != vk)
    plan.kind = ColKind::Other;  // mixed non-numeric kinds: row path only
  if (plan.kind == ColKind::String) plan.str_bytes += bytes;
}

}  // namespace

ColumnarExtent::ColumnarExtent(const Extent& extent)
    : objects_(extent.objects()),
      column_count_(extent.cls().attribute_count()),
      cols_(std::make_unique<Built[]>(column_count_)) {}

const ColumnarExtent::Column& ColumnarExtent::column(
    std::size_t attr_index) const {
  expects(attr_index < column_count_,
          "columnar attribute index out of range");
  Built& built = cols_[attr_index];
  const std::lock_guard<std::mutex> lock(m_);
  if (!built.done) {
    build(attr_index, built);
    built.done = true;
  }
  return built.col;
}

void ColumnarExtent::build(std::size_t a, Built& out) const {
  const std::size_t rows = objects_.size();
  ColPlan plan;
  for (const Object& obj : objects_) classify(plan, obj.value(a));
  expects(plan.str_bytes < std::numeric_limits<std::uint32_t>::max(),
          "string column exceeds 4 GiB arena");

  out.valid.assign((rows + 63) / 64, 0);
  switch (plan.kind) {
    case ColKind::Num:
      out.nums.assign(rows, 0.0);
      break;
    case ColKind::Bool:
      out.bools.assign(rows, 0);
      break;
    case ColKind::Ref:
      out.refs.assign(rows, 0);
      break;
    case ColKind::String:
      out.str_bytes.resize(plan.str_bytes);
      out.str_offsets.assign(rows + 1, 0);
      break;
    case ColKind::AllNull:
    case ColKind::Other:
      break;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const Value& v = objects_[r].value(a);
    // String offsets advance for every row (null rows get length 0).
    if (plan.kind == ColKind::String)
      out.str_offsets[r + 1] = out.str_offsets[r];
    if (v.is_null()) continue;
    out.valid[r >> 6] |= std::uint64_t{1} << (r & 63);
    switch (plan.kind) {
      case ColKind::Num:
        out.nums[r] = v.as_number();
        break;
      case ColKind::Bool:
        out.bools[r] = static_cast<std::uint8_t>(v.as_bool());
        break;
      case ColKind::Ref: {
        const LOid target = v.as_local_ref();
        out.refs[r] = target.db == objects_[r].id().db ? target.local : 0;
        break;
      }
      case ColKind::String: {
        const std::string& s = v.as_string();
        std::copy(s.begin(), s.end(),
                  out.str_bytes.data() + out.str_offsets[r]);
        out.str_offsets[r + 1] += static_cast<std::uint32_t>(s.size());
        break;
      }
      case ColKind::AllNull:
      case ColKind::Other:
        break;
    }
  }
  out.col = Column{.kind = plan.kind,
                   .valid = out.valid.data(),
                   .nums = out.nums.data(),
                   .bools = out.bools.data(),
                   .str_offsets = out.str_offsets.data(),
                   .str_bytes = out.str_bytes.data(),
                   .refs = out.refs.data()};
}

std::size_t ColumnarExtent::arena_bytes() const {
  const std::lock_guard<std::mutex> lock(m_);
  std::size_t bytes = 0;
  for (std::size_t a = 0; a < column_count_; ++a) {
    const Built& b = cols_[a];
    bytes += b.valid.size() * sizeof(std::uint64_t) +
             b.nums.size() * sizeof(double) + b.bools.size() +
             b.refs.size() * sizeof(std::uint32_t) + b.str_bytes.size() +
             b.str_offsets.size() * sizeof(std::uint32_t);
  }
  return bytes;
}

}  // namespace isomer
