// Component databases.
//
// A ComponentDatabase owns one component schema and one extent per class,
// allocates LOids, and offers the navigation primitives (point lookup,
// reference dereference) the query evaluator and the execution strategies
// are built on. Physical work is counted into an optional AccessMeter.
//
// LOids are allocated densely (1, 2, 3, ...) and never erased, so object
// addressing is one array index: a slot table indexed by LOid::local maps
// every object to its (extent, row). An id names no object — fetch/deref
// return nullptr and charge nothing — when it belongs to another database,
// lies past the allocated range (a dangling reference), or hits a hole (an
// id an insert consumed before its type check threw).
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

  /// Pre-sizes the class extent (and the slot table) for `n` more
  /// objects; call before bulk-loading a known cardinality.
  void reserve(std::string_view class_name, std::size_t n);

  /// Overwrites one attribute of an existing object (type-checked).
  void set_attribute(LOid id, std::string_view attr_name, Value v);

  [[nodiscard]] const Extent& extent(std::string_view class_name) const;
  [[nodiscard]] bool has_extent(std::string_view class_name) const noexcept;

  /// The class an LOid belongs to; throws FederationError when unknown.
  [[nodiscard]] const std::string& class_of(LOid id) const;

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

  /// Scans the extent of `class_name`, charging every object to the meter,
  /// and returns the objects. When `cache` is given, all scanned objects
  /// enter the buffer pool so later point lookups are memory hits.
  [[nodiscard]] const std::vector<Object>& scan(std::string_view class_name,
                                                AccessMeter* meter,
                                                FetchCache* cache = nullptr) const;

  [[nodiscard]] std::size_t object_count() const noexcept {
    std::size_t count = 0;
    for (const Extent& extent : extents_) count += extent.size();
    return count;
  }

  /// Monotone mutation counter: the sum of every extent's version (see
  /// Extent::version()), so any insert or attribute write anywhere in the
  /// database changes the value. Epoch-tagged caches compare this to decide
  /// whether their entries still describe the current data.
  [[nodiscard]] std::uint64_t mutation_epoch() const noexcept {
    std::uint64_t epoch = 0;
    for (const Extent& extent : extents_) epoch += extent.version();
    return epoch;
  }

 private:
  /// Where one object lives: extents_[extent].objects()[row].
  struct Slot {
    static constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
    std::uint32_t extent = kAbsent;  ///< kAbsent marks a hole
    std::uint32_t row = 0;
  };

  /// The slot of `id`; nullptr when `id` names no object here.
  [[nodiscard]] const Slot* slot_of(LOid id) const noexcept {
    if (id.db != db() || id.local >= slots_.size()) return nullptr;
    const Slot& slot = slots_[id.local];
    return slot.extent == Slot::kAbsent ? nullptr : &slot;
  }
  [[nodiscard]] std::size_t extent_index(std::string_view class_name) const;
  void check_type(const ClassDef& cls, std::size_t attr_index,
                  const Value& v) const;

  ComponentSchema schema_;
  /// One extent per class, in schema order; never resized after
  /// construction, so slots can name extents by position.
  std::vector<Extent> extents_;
  std::unordered_map<std::string, std::size_t, TransparentStringHash,
                     std::equal_to<>>
      extent_by_name_;
  /// Slot table indexed by LOid::local (index 0 is never allocated).
  std::vector<Slot> slots_;
  std::uint32_t next_loid_ = 1;
};

}  // namespace isomer
