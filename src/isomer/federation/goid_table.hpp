// GOid mapping tables (paper Fig. 5).
//
// Every object in the federation is assigned a global object identifier;
// isomeric objects — objects in different component databases representing
// the same real-world entity — share one GOid. The mapping tables are kept
// per global class and replicated at every site (paper §4.1), so both
// component databases and the global site can probe them; probes are charged
// to an AccessMeter as table_probes.
//
// The LOid -> GOid direction is the hottest probe path in the system (every
// surviving local row, every unknown predicate holder, every globalized
// reference goes through it). Component databases hand out LOid::local
// densely (1, 2, 3, ... per database, see store/database.hpp), so the
// direction is one flat array of GOid values per database indexed by
// LOid::local: a probe is two bounds checks and one load, and the batch
// entry point `goids_of` prefetches upcoming entries so dependent misses
// overlap. The arrays hold 8 bytes per local up to the largest local
// registered in each database.
#pragma once

#include <optional>
#include <ostream>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "isomer/common/hash.hpp"
#include "isomer/common/ids.hpp"
#include "isomer/common/value.hpp"
#include "isomer/store/meter.hpp"

namespace isomer {

/// The federation-wide GOid mapping tables.
class GoidTable {
 public:
  /// Registers one real-world entity of `global_class` represented by the
  /// given isomeric LOids (at most one per database; at least one). Returns
  /// the assigned GOid. Throws FederationError when an LOid is already
  /// mapped or two LOids come from the same database.
  GOid register_entity(std::string_view global_class,
                       const std::vector<LOid>& isomers);

  /// Adds another isomeric object to an existing entity.
  void add_isomer(GOid entity, LOid isomer);

  /// Pre-sizes the entity list for roughly `objects` entities (the per-
  /// database arrays grow with the largest registered local).
  void reserve(std::size_t objects);

  /// GOid of a local object; nullopt when unmapped.
  [[nodiscard]] std::optional<GOid> goid_of(LOid local,
                                            AccessMeter* meter = nullptr) const;

  /// Batch probe: out[i] = GOid of locals[i], or GOid{0} when unmapped
  /// (real GOids start at 1). Charges one table probe per element — exactly
  /// what the same sequence of goid_of calls would charge — but overlaps
  /// the array cache misses via software prefetch.
  void goids_of(std::span<const LOid> locals, GOid* out,
                AccessMeter* meter = nullptr) const;

  /// The entity's representative in database `db`; nullopt when the entity
  /// has no isomeric object there.
  [[nodiscard]] std::optional<LOid> loid_in(GOid entity, DbId db,
                                            AccessMeter* meter = nullptr) const;

  /// How many of `homes` (ascending DbId order) hold an isomeric object of
  /// `entity`. Charges one table probe per home — meter-identical to probing
  /// loid_in once per home — but walks the entity's isomer list once.
  [[nodiscard]] std::size_t present_in(GOid entity,
                                       std::span<const DbId> homes,
                                       AccessMeter* meter = nullptr) const;

  /// All isomeric LOids of an entity (ascending DbId order).
  [[nodiscard]] const std::vector<LOid>& isomers_of(GOid entity) const;

  /// Global class of an entity.
  [[nodiscard]] const std::string& class_of(GOid entity) const;

  /// All entities of a global class, in GOid order.
  [[nodiscard]] const std::vector<GOid>& entities_of(
      std::string_view global_class) const;

  [[nodiscard]] std::size_t entity_count() const noexcept {
    return entries_.size();
  }

  /// Rewrites a local value into its global form: LocalRef -> GlobalRef via
  /// the table (null when the referenced object is unmapped), LocalRefSet ->
  /// GlobalRefSet likewise; all other values pass through unchanged.
  [[nodiscard]] Value globalize(const Value& v,
                                AccessMeter* meter = nullptr) const;

 private:
  struct Entry {
    GOid id;
    std::string global_class;
    std::vector<LOid> isomers;  // kept sorted by DbId
  };

  /// GOid value mapped to `key` (0 when unmapped; GOids start at 1).
  [[nodiscard]] std::uint64_t loid_lookup(LOid key) const noexcept {
    if (key.db.value() >= by_loid_.size()) return 0;
    const std::vector<std::uint64_t>& goids = by_loid_[key.db.value()];
    return key.local < goids.size() ? goids[key.local] : 0;
  }
  /// Maps the (unmapped) `key` to `goid`, growing its database's array.
  void loid_insert(LOid key, std::uint64_t goid);

  [[nodiscard]] const Entry& entry(GOid entity) const;

  std::vector<Entry> entries_;
  /// by_loid_[db][local] = GOid value of LOid{db, local}; 0 = unmapped.
  std::vector<std::vector<std::uint64_t>> by_loid_;
  std::unordered_map<std::string, std::vector<GOid>, TransparentStringHash,
                     std::equal_to<>>
      by_class_;
  std::uint64_t next_goid_ = 1;
};

std::ostream& operator<<(std::ostream& os, const GoidTable& table);

}  // namespace isomer
