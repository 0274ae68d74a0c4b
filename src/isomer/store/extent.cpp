#include "isomer/store/extent.hpp"

#include <utility>

#include "isomer/common/error.hpp"

namespace isomer {

Extent::Extent(const ClassDef& cls)
    : cls_(&cls), mirror_(std::make_unique<Mirror>()) {
  for (const AttrDef& attr : cls.attributes())
    ++(is_complex(attr.type) ? slot_counts_.refs : slot_counts_.prims);
}

const ClassDef& Extent::cls() const {
  expects(cls_ != nullptr, "Extent used before binding to a class");
  return *cls_;
}

std::size_t Extent::insert(Object obj) {
  objects_.push_back(std::move(obj));
  invalidate_columnar();
  return objects_.size() - 1;
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
