#include "isomer/core/certify.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "isomer/common/error.hpp"

namespace isomer {

namespace {

/// Orders (key, value) pairs by key alone.
constexpr auto by_key = [](const auto& a, const auto& b) {
  return a.first < b.first;
};

}  // namespace

VerdictIndex::VerdictIndex(const std::vector<CheckVerdict>& verdicts,
                           AccessMeter* meter) {
  pooled_.reserve(verdicts.size());
  for (const CheckVerdict& verdict : verdicts) {
    if (meter != nullptr) ++meter->comparisons;
    pooled_.push_back({{verdict.item, verdict.predicate}, verdict.truth});
  }
  // The fold is order-independent, so sort by atom and fold each run.
  std::sort(pooled_.begin(), pooled_.end(), by_key);
  std::size_t out = 0;
  for (std::size_t i = 0; i < pooled_.size(); ++out) {
    auto folded = pooled_[i++];
    for (; i < pooled_.size() && pooled_[i].first == folded.first; ++i) {
      const Truth t = pooled_[i].second;
      folded.second = is_false(t) || is_false(folded.second)
                          ? Truth::False
                          : folded.second || t;
    }
    pooled_[out] = folded;
  }
  pooled_.resize(out);
}

const Truth* VerdictIndex::find(GOid item,
                                std::size_t predicate) const noexcept {
  const std::pair<GOid, std::size_t> atom{item, predicate};
  const auto it = std::lower_bound(pooled_.begin(), pooled_.end(),
                                   std::pair{atom, Truth::Unknown}, by_key);
  return it != pooled_.end() && it->first == atom ? &it->second : nullptr;
}

EntityPool::EntityPool(const GlobalQuery& query, const VerdictIndex& verdicts,
                       AccessMeter* meter, const ImputedConfidences* imputed)
    : query_(&query),
      verdicts_(&verdicts),
      meter_(meter),
      imputed_(imputed),
      truths_(query.predicates.size()),
      per_pred_(query.predicates.size()) {}

Truth EntityPool::pool(std::span<const LocalRow* const> rows) {
  // Pool the evidence per predicate across rows and check verdicts: any
  // True solves it, any False (a violating value somewhere, or a violating
  // assistant) refutes it, otherwise it stays Unknown. On consistent
  // federations True and False evidence cannot coexist; if they ever did,
  // False dominates, matching the certification rule's "eliminated when any
  // assistant violates".
  //
  // The same pass builds the residual (conditional tables,
  // query/condition.hpp): per predicate, a Pool over the same evidence.
  // Substitution happens inline — a step > 0 leaf whose (item, predicate)
  // has a pooled verdict is that verdict's constant — while step-0 sites
  // stay root-level leaves: they are decided only by the other rows of
  // their pool, never by assistant verdicts. Building the residual charges
  // nothing: the meter sees exactly the comparisons the flat pool makes.
  confidence_ = 1.0;
  imputed_used_.clear();
  for (std::size_t p = 0; p < truths_.size(); ++p) {
    bool any_true = false, any_false = false;
    pooled_.clear();
    for (const LocalRow* row : rows) {
      if (meter_ != nullptr) ++meter_->comparisons;
      const PredStatus& status = row->preds[p];
      if (is_true(status.truth)) any_true = true;
      if (is_false(status.truth)) any_false = true;
      const Truth* verdict = is_unknown(status.truth) && status.step > 0
                                 ? verdicts_->find(status.item, p)
                                 : nullptr;
      if (verdict == nullptr) {
        pooled_.push_back(
            is_unknown(status.truth)
                ? Condition::leaf(CondAtom{status.item, p, status.step,
                                           status.step == 0})
                : Condition::constant(status.truth));
        continue;
      }
      if (meter_ != nullptr) ++meter_->comparisons;
      if (is_false(*verdict)) any_false = true;
      if (is_true(*verdict)) any_true = true;
      pooled_.push_back(Condition::constant(*verdict));
      // Probabilistic certification (the IM strategy): a consulted verdict
      // that was synthesized from the population model discounts the row's
      // confidence — once per distinct atom, however many rows of the
      // entity it advised, in the order the atoms are first consulted.
      if (imputed_ != nullptr) {
        const std::pair<GOid, std::size_t> atom{status.item, p};
        const auto conf = imputed_->find(atom);
        if (conf != imputed_->end() &&
            std::find(imputed_used_.begin(), imputed_used_.end(), atom) ==
                imputed_used_.end()) {
          imputed_used_.push_back(atom);
          confidence_ *= conf->second;
        }
      }
    }
    truths_[p] = any_false  ? Truth::False
                 : any_true ? Truth::True
                            : Truth::Unknown;
    per_pred_[p] = Condition::simplified_pool(std::move(pooled_));
  }
  const Truth overall = query_->combine(truths_);
  residual_ = combine_conditions(*query_, std::move(per_pred_));
  ensures(residual_.truth() == overall,
          "row condition must agree with the flat certification pool");
  return overall;
}

QueryResult certify(
    const Federation& federation, const GlobalQuery& query,
    const std::vector<LocalExecution>& locals,
    const std::vector<CheckVerdict>& verdicts, AccessMeter* meter,
    CertifyStats* stats, const std::set<DbId>* unavailable,
    const ImputedConfidences* imputed) {
  if (stats != nullptr)
    stats->verdicts = static_cast<std::uint64_t>(verdicts.size());
  // Databases that ran a local query (homes of the range class), ascending.
  std::vector<DbId> homes;
  homes.reserve(locals.size());
  for (const LocalExecution& local : locals) homes.push_back(local.db);
  std::sort(homes.begin(), homes.end());
  homes.erase(std::unique(homes.begin(), homes.end()), homes.end());
  const auto is_home = [&](DbId db) {
    return std::binary_search(homes.begin(), homes.end(), db);
  };

  // (entity, row) pairs grouped by entity, each group's rows in ascending
  // DbId order: filled database by database, then stably sorted by entity.
  std::vector<const LocalExecution*> ordered;
  ordered.reserve(locals.size());
  for (const LocalExecution& local : locals) ordered.push_back(&local);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const LocalExecution* a, const LocalExecution* b) {
                     return a->db < b->db;
                   });
  std::vector<std::pair<GOid, const LocalRow*>> entity_rows;
  for (const LocalExecution* local : ordered)
    for (const LocalRow& row : local->rows)
      entity_rows.emplace_back(row.entity, &row);
  std::stable_sort(entity_rows.begin(), entity_rows.end(), by_key);

  const VerdictIndex verdict_index(verdicts, meter);
  EntityPool entity_pool(query, verdict_index, meter, imputed);
  std::vector<const LocalRow*> rows;
  std::vector<CondAtom> residual_atoms;
  const auto count_residual = [&](const Condition& condition) {
    residual_atoms.clear();
    condition.collect_atoms(residual_atoms);
    for (const CondAtom& atom : residual_atoms) {
      ++stats->unresolved_atoms;
      ++stats->unresolved_by_predicate[atom.predicate];
    }
  };

  QueryResult result;  // at most one row per distinct entity
  std::size_t distinct = 0;
  for (std::size_t i = 0; i < entity_rows.size(); ++i)
    distinct += i == 0 || entity_rows[i].first != entity_rows[i - 1].first;
  result.rows.reserve(distinct);
  for (std::size_t next = 0; next < entity_rows.size();) {
    const GOid entity = entity_rows[next].first;
    rows.clear();
    for (; next < entity_rows.size() && entity_rows[next].first == entity;
         ++next)
      rows.push_back(entity_rows[next].second);
    if (stats != nullptr) ++stats->entities;
    // Row-presence evidence: every home database holding an isomeric root
    // object must have shipped a row, else the object was eliminated locally
    // and the entity fails the conjunction. One merge pass over the
    // entity's isomers, charging one table probe per home — meter-identical
    // to probing loid_in home by home.
    const std::size_t expected_rows =
        federation.goids().present_in(entity, homes, meter);
    const Truth overall =
        rows.size() != expected_rows ? Truth::False : entity_pool.pool(rows);
    if (is_false(overall)) {
      if (stats != nullptr) ++stats->eliminated;
      continue;
    }

    ResultRow out;
    out.entity = entity;
    out.confidence = entity_pool.confidence();
    out.status =
        is_true(overall) ? ResultStatus::Certain : ResultStatus::Maybe;
    // A certain row is final — no residual (a True condition can still
    // carry leaves whose False would refute it, but on consistent
    // federations decided evidence never flips). Maybe rows keep the
    // simplified residual naming what is still undecided.
    if (out.status == ResultStatus::Maybe)
      out.condition = std::move(entity_pool.residual());
    if (stats != nullptr) {
      ++(out.status == ResultStatus::Certain ? stats->certain : stats->maybe);
      if (out.status == ResultStatus::Maybe) count_residual(out.condition);
    }
    out.targets.assign(query.targets.size(), Value::null());
    for (const LocalRow* row : rows)  // ascending DbId; first non-null wins
      for (std::size_t t = 0; t < query.targets.size(); ++t)
        if (out.targets[t].is_null() && !row->targets[t].is_null())
          out.targets[t] = row->targets[t];
    result.rows.push_back(std::move(out));
  }

  // Graceful degradation: a range entity whose every root isomer lives in an
  // unreachable database produced no row anywhere, yet the (replicated) GOid
  // table proves it exists. Synthesize the row the centralized approach
  // materializes for it — all values null, every predicate Unknown.
  if (unavailable != nullptr && !unavailable->empty()) {
    const std::size_t n_preds = query.predicates.size();
    const Truth overall =
        query.combine(std::vector<Truth>(n_preds, Truth::Unknown));
    std::vector<Condition> per_pred(n_preds);
    for (const GOid entity :
         federation.goids().entities_of(query.range_class)) {
      if (std::binary_search(
              entity_rows.begin(), entity_rows.end(),
              std::pair<GOid, const LocalRow*>{entity, nullptr}, by_key))
        continue;
      if (meter != nullptr) ++meter->table_probes;
      bool any_live_home = false;
      bool any_dead = false;
      for (const LOid& isomer : federation.goids().isomers_of(entity)) {
        if (unavailable->count(isomer.db) != 0)
          any_dead = true;
        else if (is_home(isomer.db))
          any_live_home = true;
      }
      // A live home knew the entity and eliminated it locally; only a fully
      // unreachable entity is resurrected as unknown.
      if (any_live_home || !any_dead) continue;
      if (is_false(overall)) continue;
      ResultRow out;
      out.entity = entity;
      out.status =
          is_true(overall) ? ResultStatus::Certain : ResultStatus::Maybe;
      // The synthesized row's residual: every predicate Unknown at the
      // entity itself. root_level because no assistant verdict can decide
      // it — the data lives only at unreachable sites.
      if (out.status == ResultStatus::Maybe) {
        for (std::size_t p = 0; p < n_preds; ++p)
          per_pred[p] = Condition::leaf(CondAtom{entity, p, 0, true});
        out.condition = combine_conditions(query, std::move(per_pred));
      }
      if (stats != nullptr) {
        ++stats->entities;
        ++(is_true(overall) ? stats->certain : stats->maybe);
        if (out.status == ResultStatus::Maybe) count_residual(out.condition);
      }
      out.targets.assign(query.targets.size(), Value::null());
      result.rows.push_back(std::move(out));
    }
  }

  result.normalize();
  return result;
}

}  // namespace isomer
