#include "isomer/core/certify.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "isomer/common/error.hpp"

namespace isomer {

QueryResult certify(
    const Federation& federation, const GlobalQuery& query,
    const std::vector<LocalExecution>& locals,
    const std::vector<CheckVerdict>& verdicts, AccessMeter* meter,
    CertifyStats* stats, const std::set<DbId>* unavailable,
    const std::map<std::pair<GOid, std::size_t>, double>* imputed) {
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

  // Orders the (key, value) pairs below by key alone.
  const auto by_key = [](const auto& a, const auto& b) {
    return a.first < b.first;
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

  // Verdict index: (item, predicate) -> Kleene-or of all assistant verdicts,
  // with False dominating (any violating assistant eliminates). The fold is
  // order-independent, so sort the verdicts by atom and fold each run.
  using Atom = std::pair<GOid, std::size_t>;
  std::vector<std::pair<Atom, Truth>> verdict_index;
  verdict_index.reserve(verdicts.size());
  for (const CheckVerdict& verdict : verdicts) {
    if (meter != nullptr) ++meter->comparisons;
    verdict_index.emplace_back(Atom{verdict.item, verdict.predicate},
                               verdict.truth);
  }
  std::sort(verdict_index.begin(), verdict_index.end(), by_key);
  {
    std::size_t out = 0;
    for (std::size_t i = 0; i < verdict_index.size(); ++out) {
      auto folded = verdict_index[i++];
      for (; i < verdict_index.size() &&
             verdict_index[i].first == folded.first;
           ++i) {
        const Truth t = verdict_index[i].second;
        folded.second = is_false(t) || is_false(folded.second)
                            ? Truth::False
                            : folded.second || t;
      }
      verdict_index[out] = folded;
    }
    verdict_index.resize(out);
  }
  const auto find_verdict = [&](const Atom& atom) -> const Truth* {
    const auto it =
        std::lower_bound(verdict_index.begin(), verdict_index.end(),
                         std::pair{atom, Truth::Unknown}, by_key);
    return it != verdict_index.end() && it->first == atom ? &it->second
                                                          : nullptr;
  };

  QueryResult result;
  std::vector<const LocalRow*> rows;
  std::vector<Atom> dischargeable;
  std::vector<Atom> imputed_used;
  for (std::size_t next = 0; next < entity_rows.size();) {
    const GOid entity = entity_rows[next].first;
    rows.clear();
    for (; next < entity_rows.size() && entity_rows[next].first == entity;
         ++next)
      rows.push_back(entity_rows[next].second);
    if (stats != nullptr) ++stats->entities;
    // Row-presence evidence: every home database holding an isomeric root
    // object must have shipped a row, else the object was eliminated locally
    // and the entity fails the conjunction.
    bool eliminated = false;
    // One merge pass over the entity's isomers, charging one table probe
    // per home — meter-identical to probing loid_in home by home.
    const std::size_t expected_rows =
        federation.goids().present_in(entity, homes, meter);
    if (rows.size() != expected_rows) eliminated = true;

    // Pool the evidence per predicate across rows and check verdicts:
    // any True solves it, any False (a violating value somewhere, or a
    // violating assistant) refutes it, otherwise it stays Unknown. On
    // consistent federations True and False evidence cannot coexist; if
    // they ever did, False dominates, matching the certification rule's
    // "eliminated when any assistant violates".
    //
    // Alongside the flat pool, build the row's *condition* (conditional
    // tables, query/condition.hpp): per predicate, a Pool over the same
    // evidence — decided row statuses as constants, Unknown statuses as
    // leaves — combined in the query's AND/OR shape. Pooled verdicts then
    // discharge their leaves by substitution, so the condition's truth is,
    // by construction, the flat pool's answer; the condition additionally
    // *names* the atoms that kept a maybe row maybe. Building it charges
    // nothing: the meter sees exactly the comparisons the flat loop makes.
    Truth overall = Truth::True;
    Condition condition;  // constant True
    double confidence = 1.0;  // product over distinct imputed verdicts used
    if (!eliminated) {
      std::vector<Truth> truths(query.predicates.size(), Truth::Unknown);
      std::vector<Condition> per_pred;
      per_pred.reserve(query.predicates.size());
      dischargeable.clear();
      imputed_used.clear();
      for (std::size_t p = 0; p < query.predicates.size(); ++p) {
        bool any_true = false, any_false = false;
        std::vector<Condition> pooled;
        pooled.reserve(rows.size());
        for (const LocalRow* row : rows) {
          if (meter != nullptr) ++meter->comparisons;
          const PredStatus& status = row->preds[p];
          if (is_true(status.truth)) any_true = true;
          if (is_false(status.truth)) any_false = true;
          if (is_unknown(status.truth)) {
            // Step-0 sites are decided by the other rows in this very pool,
            // never by assistant verdicts — the root_level flag keeps
            // substitution away from them, mirroring the step > 0 guard.
            pooled.push_back(Condition::leaf(CondAtom{
                status.item, p, status.step, status.step == 0}));
          } else {
            pooled.push_back(Condition::constant(status.truth));
          }
          if (is_unknown(status.truth) && status.step > 0) {
            const Atom atom{status.item, p};
            dischargeable.push_back(atom);
            if (const Truth* verdict = find_verdict(atom)) {
              if (meter != nullptr) ++meter->comparisons;
              if (is_false(*verdict)) any_false = true;
              if (is_true(*verdict)) any_true = true;
              // Probabilistic certification (the IM strategy): a consulted
              // verdict that was synthesized from the population model
              // discounts the row's confidence — once per distinct atom,
              // however many rows of the entity it advised, in the order
              // the atoms are first consulted.
              if (imputed != nullptr) {
                const auto conf = imputed->find(atom);
                if (conf != imputed->end() &&
                    std::find(imputed_used.begin(), imputed_used.end(),
                              atom) == imputed_used.end()) {
                  imputed_used.push_back(atom);
                  confidence *= conf->second;
                }
              }
            }
          }
        }
        truths[p] = any_false  ? Truth::False
                    : any_true ? Truth::True
                               : Truth::Unknown;
        per_pred.push_back(Condition::pool(std::move(pooled)));
      }
      overall = query.combine(truths);
      condition = combine_conditions(query, std::move(per_pred));
      std::sort(dischargeable.begin(), dischargeable.end());
      dischargeable.erase(
          std::unique(dischargeable.begin(), dischargeable.end()),
          dischargeable.end());
      for (const Atom& atom : dischargeable)
        if (const Truth* verdict = find_verdict(atom))
          condition = condition.substitute(atom.first, atom.second, *verdict);
      condition = condition.simplify();
      ensures(condition.truth() == overall,
              "row condition must agree with the flat certification pool");
      if (is_false(overall)) eliminated = true;
    }
    if (eliminated) {
      if (stats != nullptr) ++stats->eliminated;
      continue;
    }

    ResultRow out;
    out.entity = entity;
    out.confidence = confidence;
    out.status =
        is_true(overall) ? ResultStatus::Certain : ResultStatus::Maybe;
    // A certain row is final — no residual (a True condition can still
    // carry leaves whose False would refute it, but on consistent
    // federations decided evidence never flips). Maybe rows keep the
    // simplified residual naming what is still undecided.
    out.condition = out.status == ResultStatus::Certain
                        ? Condition::constant(Truth::True)
                        : std::move(condition);
    if (stats != nullptr) {
      ++(out.status == ResultStatus::Certain ? stats->certain : stats->maybe);
      if (out.status == ResultStatus::Maybe)
        for (const CondAtom& atom : out.condition.atoms()) {
          ++stats->unresolved_atoms;
          ++stats->unresolved_by_predicate[atom.predicate];
        }
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
    const Truth overall = query.combine(
        std::vector<Truth>(query.predicates.size(), Truth::Unknown));
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
        std::vector<Condition> per_pred;
        per_pred.reserve(query.predicates.size());
        for (std::size_t p = 0; p < query.predicates.size(); ++p)
          per_pred.push_back(
              Condition::leaf(CondAtom{entity, p, 0, true}));
        out.condition =
            combine_conditions(query, std::move(per_pred)).simplify();
      }
      if (stats != nullptr) {
        ++stats->entities;
        ++(is_true(overall) ? stats->certain : stats->maybe);
        if (out.status == ResultStatus::Maybe)
          for (const CondAtom& atom : out.condition.atoms()) {
            ++stats->unresolved_atoms;
            ++stats->unresolved_by_predicate[atom.predicate];
          }
      }
      out.targets.assign(query.targets.size(), Value::null());
      result.rows.push_back(std::move(out));
    }
  }

  result.normalize();
  return result;
}

}  // namespace isomer
