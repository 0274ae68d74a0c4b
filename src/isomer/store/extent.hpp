// Class extents.
//
// An extent holds every object of one class in one component database, in
// insertion order; point lookups go through the owning database's slot table
// (store/database.hpp), which maps each LOid to (extent, row). The row store
// (`objects_`) is the system of record; a columnar per-attribute mirror (store/columnar.hpp) is built
// lazily for the vectorized predicate kernels and invalidated whenever the
// extent mutates, so the two layouts can never disagree.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "isomer/objmodel/class_def.hpp"
#include "isomer/objmodel/object.hpp"
#include "isomer/store/columnar.hpp"

namespace isomer {

/// Attribute slots one stored object of a class occupies, split by kind so
/// byte sizes can be derived (see AccessMeter::prim_slots / ref_slots).
struct SlotCounts {
  std::uint64_t prims = 0;
  std::uint64_t refs = 0;
};

/// All objects of one class within one component database. The extent does
/// not own the class definition; it lives in the database's schema and must
/// outlive the extent.
class Extent {
 public:
  Extent() : mirror_(std::make_unique<Mirror>()) {}
  explicit Extent(const ClassDef& cls);

  [[nodiscard]] const ClassDef& cls() const;

  /// Slot widths of one object of this extent's class, counted once at
  /// construction (the class definition is immutable).
  [[nodiscard]] const SlotCounts& slot_counts() const noexcept {
    return slot_counts_;
  }

  [[nodiscard]] std::size_t size() const noexcept { return objects_.size(); }
  [[nodiscard]] bool empty() const noexcept { return objects_.empty(); }

  /// Pre-sizes the row store for `n` objects; call before bulk-appending a
  /// known cardinality to avoid realloc churn.
  void reserve(std::size_t n) { objects_.reserve(n); }

  /// Appends an object and returns its row (index into objects()). LOid
  /// uniqueness is the owning database's job: it allocates every LOid once.
  std::size_t insert(Object obj);

  [[nodiscard]] const std::vector<Object>& objects() const noexcept {
    return objects_;
  }
  [[nodiscard]] std::vector<Object>& objects() noexcept {
    invalidate_columnar();  // mutable view: assume the caller writes
    return objects_;
  }

  /// The columnar mirror of this extent, built on first use and cached.
  /// Thread-safe against concurrent readers; any mutation (insert, mutable
  /// objects(), set_attribute through the database) invalidates it, so the
  /// returned reference is valid until the next mutation.
  [[nodiscard]] const ColumnarExtent& columnar() const;

  /// Drops the cached columnar mirror (called by every mutating path).
  void invalidate_columnar() noexcept;

  /// Mutation counter: bumped by every path that invalidates the columnar
  /// mirror (insert, mutable objects(), set_attribute through the
  /// database). Summed into ComponentDatabase::mutation_epoch() /
  /// Federation::epoch() so epoch-tagged caches (core/cert_cache.hpp) can
  /// drop entries derived from data that has since changed.
  [[nodiscard]] std::uint64_t version() const noexcept { return version_; }

 private:
  const ClassDef* cls_ = nullptr;
  SlotCounts slot_counts_;
  std::vector<Object> objects_;
  std::uint64_t version_ = 0;

  /// Lazily built columnar projection. Boxed so Extent stays movable; the
  /// mutex only guards the build/reset handshake, never the scan itself.
  struct Mirror {
    std::mutex m;
    std::shared_ptr<const ColumnarExtent> built;
  };
  std::unique_ptr<Mirror> mirror_;
};

}  // namespace isomer
