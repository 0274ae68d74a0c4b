#include "isomer/federation/goid_table.hpp"

#include <algorithm>

#include "isomer/common/error.hpp"

namespace isomer {

void GoidTable::loid_insert(LOid key, std::uint64_t goid) {
  if (key.db.value() >= by_loid_.size()) by_loid_.resize(key.db.value() + 1);
  std::vector<std::uint64_t>& goids = by_loid_[key.db.value()];
  if (key.local >= goids.size()) goids.resize(std::size_t{key.local} + 1, 0);
  goids[key.local] = goid;
}

void GoidTable::reserve(std::size_t objects) { entries_.reserve(objects); }

GOid GoidTable::register_entity(std::string_view global_class,
                                const std::vector<LOid>& isomers) {
  if (isomers.empty())
    throw FederationError("cannot register an entity with no objects");
  const GOid id{next_goid_};
  Entry entry{id, std::string(global_class), isomers};
  std::sort(entry.isomers.begin(), entry.isomers.end(),
            [](const LOid& a, const LOid& b) { return a.db < b.db; });
  for (std::size_t i = 0; i < entry.isomers.size(); ++i) {
    const LOid& isomer = entry.isomers[i];
    if (i > 0 && entry.isomers[i - 1].db == isomer.db)
      throw FederationError("entity has two objects in DB" +
                            std::to_string(isomer.db.value()));
    if (loid_lookup(isomer) != 0)
      throw FederationError("LOid " + to_string(isomer) +
                            " already mapped to an entity");
  }
  for (const LOid& isomer : entry.isomers) loid_insert(isomer, id.value());
  by_class_[entry.global_class].push_back(id);
  entries_.push_back(std::move(entry));
  ++next_goid_;
  return id;
}

void GoidTable::add_isomer(GOid entity, LOid isomer) {
  expects(entity.value() >= 1 && entity.value() < next_goid_,
          "GoidTable::add_isomer on unknown entity");
  Entry& e = entries_[entity.value() - 1];
  if (loid_lookup(isomer) != 0)
    throw FederationError("LOid " + to_string(isomer) +
                          " already mapped to an entity");
  const auto same_db = [&](const LOid& other) { return other.db == isomer.db; };
  if (std::any_of(e.isomers.begin(), e.isomers.end(), same_db))
    throw FederationError("entity g" + std::to_string(entity.value()) +
                          " already has an object in DB" +
                          std::to_string(isomer.db.value()));
  e.isomers.insert(
      std::upper_bound(e.isomers.begin(), e.isomers.end(), isomer,
                       [](const LOid& a, const LOid& b) { return a.db < b.db; }),
      isomer);
  loid_insert(isomer, entity.value());
}

std::optional<GOid> GoidTable::goid_of(LOid local, AccessMeter* meter) const {
  if (meter != nullptr) ++meter->table_probes;
  const std::uint64_t goid = loid_lookup(local);
  if (goid == 0) return std::nullopt;
  return GOid{goid};
}

void GoidTable::goids_of(std::span<const LOid> locals, GOid* out,
                         AccessMeter* meter) const {
  const std::size_t n = locals.size();
  if (meter != nullptr) meter->table_probes += n;
  constexpr std::size_t kAhead = 8;  // deep enough to cover one DRAM miss
  for (std::size_t i = 0; i < n; ++i) {
#if defined(__GNUC__) || defined(__clang__)
    if (i + kAhead < n) {
      const LOid ahead = locals[i + kAhead];
      if (ahead.db.value() < by_loid_.size()) {
        const std::vector<std::uint64_t>& goids = by_loid_[ahead.db.value()];
        if (ahead.local < goids.size()) __builtin_prefetch(&goids[ahead.local]);
      }
    }
#endif
    out[i] = GOid{loid_lookup(locals[i])};
  }
}

std::optional<LOid> GoidTable::loid_in(GOid entity, DbId db,
                                       AccessMeter* meter) const {
  if (meter != nullptr) ++meter->table_probes;
  for (const LOid& isomer : entry(entity).isomers)
    if (isomer.db == db) return isomer;
  return std::nullopt;
}

std::size_t GoidTable::present_in(GOid entity, std::span<const DbId> homes,
                                  AccessMeter* meter) const {
  if (meter != nullptr) meter->table_probes += homes.size();
  // Both lists are ascending in DbId: one merge pass replaces per-home
  // isomer-list scans.
  const std::vector<LOid>& isomers = entry(entity).isomers;
  std::size_t present = 0;
  std::size_t i = 0;
  for (const DbId home : homes) {
    while (i < isomers.size() && isomers[i].db < home) ++i;
    if (i < isomers.size() && isomers[i].db == home) ++present;
  }
  return present;
}

const std::vector<LOid>& GoidTable::isomers_of(GOid entity) const {
  return entry(entity).isomers;
}

const std::string& GoidTable::class_of(GOid entity) const {
  return entry(entity).global_class;
}

const std::vector<GOid>& GoidTable::entities_of(
    std::string_view global_class) const {
  static const std::vector<GOid> empty;
  const auto it = by_class_.find(global_class);  // heterogeneous: no alloc
  if (it == by_class_.end()) return empty;
  return it->second;
}

Value GoidTable::globalize(const Value& v, AccessMeter* meter) const {
  if (v.kind() == ValueKind::LocalRef) {
    const auto goid = goid_of(v.as_local_ref(), meter);
    return goid ? Value(GlobalRef{*goid}) : Value::null();
  }
  if (v.kind() == ValueKind::LocalRefSet) {
    GlobalRefSet set;
    for (const LOid& target : v.as_local_ref_set())
      if (const auto goid = goid_of(target, meter))
        set.targets.push_back(*goid);
    return set.targets.empty() ? Value::null() : Value(std::move(set));
  }
  return v;
}

const GoidTable::Entry& GoidTable::entry(GOid entity) const {
  expects(entity.value() >= 1 && entity.value() < next_goid_,
          "unknown GOid");
  return entries_[entity.value() - 1];
}

std::ostream& operator<<(std::ostream& os, const GoidTable& table) {
  for (std::size_t i = 0; i < table.entity_count(); ++i) {
    const GOid id{static_cast<std::uint64_t>(i + 1)};
    os << "g" << id.value() << " (" << table.class_of(id) << "):";
    for (const LOid& isomer : table.isomers_of(id)) os << " " << isomer;
    os << "\n";
  }
  return os;
}

}  // namespace isomer
