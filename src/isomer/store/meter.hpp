// Access metering.
//
// The simulation charges time per byte read from disk, per byte shipped over
// the network, and per comparison (Table 1). The store and the query
// evaluator do not know those rates; they only count *what* they did into an
// AccessMeter — objects, attribute slots, comparisons, mapping-table probes —
// and the execution strategies convert counts into simulated time via
// sim::CostParams.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isomer/common/error.hpp"
#include "isomer/common/ids.hpp"

namespace isomer {

/// Counters of physical work performed by a store / evaluator.
struct AccessMeter {
  std::uint64_t objects_scanned = 0;  ///< objects touched by extent scans
  std::uint64_t objects_fetched = 0;  ///< objects fetched by LOid lookup
  std::uint64_t comparisons = 0;      ///< predicate / join comparisons
  std::uint64_t table_probes = 0;     ///< GOid-mapping-table probes

  /// Attribute slots of every scanned/fetched object, split by kind so byte
  /// sizes can be derived (primitive slots average S_a bytes, reference
  /// slots store an OID). Multi-valued references count as one slot.
  std::uint64_t prim_slots = 0;
  std::uint64_t ref_slots = 0;

  AccessMeter& operator+=(const AccessMeter& other) noexcept {
    objects_scanned += other.objects_scanned;
    objects_fetched += other.objects_fetched;
    comparisons += other.comparisons;
    table_probes += other.table_probes;
    prim_slots += other.prim_slots;
    ref_slots += other.ref_slots;
    return *this;
  }

  friend bool operator==(const AccessMeter&, const AccessMeter&) = default;
};

/// Models a site's buffer pool within one unit of work (paper §4.1 gives
/// every component DBMS a memory): the first access to an object reads it
/// from disk and is charged to the meter; repeated accesses hit memory and
/// charge nothing. Pass one cache per logical execution (a local query, a
/// check batch) to the store's fetch/deref/scan.
///
/// LOids are dense per database, so the pool is a bitmap over LOid::local,
/// plus one flag per extent that a full scan sets: a scan buffers its whole
/// extent in O(1). One cache serves exactly one database.
class FetchCache {
 public:
  /// True when object `id`, stored in extent number `extent` of its
  /// database, was not yet buffered (the caller must charge the read);
  /// buffers it either way.
  bool admit(LOid id, std::size_t extent) {
    bind(id.db);
    if (extent < scanned_.size() && scanned_[extent]) return false;
    const std::size_t word = id.local / 64;
    const std::uint64_t bit = std::uint64_t{1} << (id.local % 64);
    if (word >= words_.size()) words_.resize(word + 1, 0);
    if ((words_[word] & bit) != 0) return false;
    words_[word] |= bit;
    return true;
  }

  /// Buffers every object of extent number `extent` of database `db` (a
  /// full scan has just read them all).
  void admit_extent(DbId db, std::size_t extent) {
    bind(db);
    if (extent >= scanned_.size()) scanned_.resize(extent + 1, false);
    scanned_[extent] = true;
  }

 private:
  void bind(DbId db) {
    if (!bound_) {
      db_ = db;
      bound_ = true;
    }
    expects(db == db_, "one FetchCache serves one database");
  }

  bool bound_ = false;
  DbId db_{};
  std::vector<std::uint64_t> words_;
  std::vector<bool> scanned_;
};

}  // namespace isomer
