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
  extents_.reserve(schema_.classes().size());
  for (const ClassDef& cls : schema_.classes()) {
    extent_by_name_.emplace(cls.name(), extents_.size());
    extents_.emplace_back(cls);
  }
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
  const std::size_t e = extent_index(class_name);
  Extent& ext = extents_[e];
  const ClassDef& cls = ext.cls();
  // The id is consumed before the type checks below: a throwing insert
  // leaves a hole in the slot table.
  const LOid id{db(), next_loid_++};
  Object obj(id, cls);
  for (const auto& [attr_name, value] : values) {
    const auto index = cls.find_attribute(attr_name);
    if (!index)
      throw QueryError("class " + cls.name() + " has no attribute " +
                       attr_name);
    check_type(cls, *index, value);
    obj.set_value(*index, value);
  }
  const std::size_t row = ext.insert(std::move(obj));
  if (slots_.size() <= id.local) slots_.resize(id.local + 1);
  slots_[id.local] = Slot{static_cast<std::uint32_t>(e),
                          static_cast<std::uint32_t>(row)};
  return id;
}

void ComponentDatabase::reserve(std::string_view class_name, std::size_t n) {
  Extent& ext = extents_[extent_index(class_name)];
  ext.reserve(ext.size() + n);
  slots_.reserve(next_loid_ + n);
}

void ComponentDatabase::set_attribute(LOid id, std::string_view attr_name,
                                      Value v) {
  const Slot* slot = slot_of(id);
  if (slot == nullptr)
    throw FederationError("LOid " + to_string(id) + " unknown to database " +
                          schema_.db_name());
  Extent& ext = extents_[slot->extent];
  Object& obj = ext.objects()[slot->row];  // invalidates the mirror
  const auto index = ext.cls().find_attribute(attr_name);
  if (!index)
    throw QueryError("class " + ext.cls().name() + " has no attribute " +
                     std::string(attr_name));
  check_type(ext.cls(), *index, v);
  obj.set_value(*index, std::move(v));
}

const Extent& ComponentDatabase::extent(std::string_view class_name) const {
  return extents_[extent_index(class_name)];
}

bool ComponentDatabase::has_extent(std::string_view class_name) const noexcept {
  return extent_by_name_.find(class_name) != extent_by_name_.end();
}

std::size_t ComponentDatabase::extent_index(std::string_view class_name) const {
  const auto it = extent_by_name_.find(class_name);
  if (it == extent_by_name_.end())
    throw SchemaError("database " + schema_.db_name() + " has no class " +
                      std::string(class_name));
  return it->second;
}

const std::string& ComponentDatabase::class_of(LOid id) const {
  const Slot* slot = slot_of(id);
  if (slot == nullptr)
    throw FederationError("LOid " + to_string(id) + " unknown to database " +
                          schema_.db_name());
  return extents_[slot->extent].cls().name();
}

const Object* ComponentDatabase::fetch(LOid id, AccessMeter* meter,
                                       FetchCache* cache) const {
  const Slot* slot = slot_of(id);
  if (slot == nullptr) return nullptr;
  const Extent& ext = extents_[slot->extent];
  if (meter != nullptr &&
      (cache == nullptr || cache->admit(id, slot->extent))) {
    ++meter->objects_fetched;
    meter->prim_slots += ext.slot_counts().prims;
    meter->ref_slots += ext.slot_counts().refs;
  }
  return &ext.objects()[slot->row];
}

const Object* ComponentDatabase::deref(const Value& ref, AccessMeter* meter,
                                       FetchCache* cache) const {
  if (ref.kind() != ValueKind::LocalRef) return nullptr;
  return fetch(ref.as_local_ref(), meter, cache);
}

const std::vector<Object>& ComponentDatabase::scan(std::string_view class_name,
                                                   AccessMeter* meter,
                                                   FetchCache* cache) const {
  const std::size_t e = extent_index(class_name);
  const Extent& ext = extents_[e];
  if (meter != nullptr) {
    meter->objects_scanned += ext.size();
    meter->prim_slots += ext.slot_counts().prims * ext.size();
    meter->ref_slots += ext.slot_counts().refs * ext.size();
  }
  if (cache != nullptr) cache->admit_extent(db(), e);
  return ext.objects();
}

}  // namespace isomer
