// The residual condition built the long way round — the path certify()
// replaced with its one-pass EntityPool: build the whole unsimplified
// condition tree (one Pool per predicate, AND/OR in GlobalQuery::combine's
// shape), substitute every pooled verdict of a step > 0 site, then
// simplify(). Composed from Condition's public functions only.
//
// Header-only and shared: bench_micro times it (BM_ResidualBuildReference)
// and tests/test_residual_identity checks the one-pass residuals against
// it, so the benchmark gate and the identity test pin the same path.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "isomer/core/certify.hpp"
#include "isomer/query/condition.hpp"

namespace isomer::bench {

/// GlobalQuery::combine's shape over `per_pred`, built from the raw
/// (non-simplifying) connectives: AND(loose) AND OR(AND(group)).
inline Condition raw_combine(const GlobalQuery& query,
                             std::vector<Condition> per_pred) {
  if (query.disjuncts.empty()) return Condition::make_and(std::move(per_pred));
  std::vector<Condition> alternatives;
  for (const auto& group : query.disjuncts) {
    std::vector<Condition> conjuncts;
    for (const std::size_t index : group)
      conjuncts.push_back(per_pred[index]);
    alternatives.push_back(Condition::make_and(std::move(conjuncts)));
  }
  std::vector<Condition> loose;
  loose.push_back(Condition::make_or(std::move(alternatives)));
  for (std::size_t p = 0; p < per_pred.size(); ++p)
    if (!query.in_disjunct(p)) loose.push_back(std::move(per_pred[p]));
  return Condition::make_and(std::move(loose));
}

/// One entity's residual from its rows (ascending DbId): the whole tree,
/// every pooled verdict of a step > 0 site substituted, then simplified.
inline Condition reference_residual(const GlobalQuery& query,
                                    std::span<const LocalRow* const> rows,
                                    const VerdictIndex& verdicts) {
  std::vector<Condition> per_pred;
  std::vector<std::pair<GOid, std::size_t>> dischargeable;
  for (std::size_t p = 0; p < query.predicates.size(); ++p) {
    std::vector<Condition> pooled;
    for (const LocalRow* row : rows) {
      const PredStatus& status = row->preds[p];
      if (!is_unknown(status.truth)) {
        pooled.push_back(Condition::constant(status.truth));
        continue;
      }
      pooled.push_back(Condition::leaf(
          CondAtom{status.item, p, status.step, status.step == 0}));
      if (status.step > 0) dischargeable.emplace_back(status.item, p);
    }
    per_pred.push_back(Condition::pool(std::move(pooled)));
  }
  Condition condition = raw_combine(query, std::move(per_pred));
  for (const auto& [item, p] : dischargeable)
    if (const Truth* verdict = verdicts.find(item, p))
      condition = condition.substitute(item, p, *verdict);
  return condition.simplify();
}

}  // namespace isomer::bench
