#include "isomer/core/checks.hpp"

#include <algorithm>
#include <map>
#include <string_view>
#include <tuple>

#include "isomer/common/error.hpp"

namespace isomer {

std::vector<UnsolvedItem> unsolved_items_of_rows(
    const std::vector<LocalRow>& rows) {
  std::vector<UnsolvedItem> items;
  for (const LocalRow& row : rows)
    for (std::size_t p = 0; p < row.preds.size(); ++p) {
      const PredStatus& status = row.preds[p];
      // Nested sites only: root-level sites (step 0 on the root object) are
      // certified through the other databases' local results.
      if (is_unknown(status.truth) && status.step > 0)
        items.push_back(
            UnsolvedItem{status.item, p, status.step, status.item});
    }
  // Items are collected per result object, as in the paper's Fig. 7 graphs:
  // two maybe results advised by the same teacher list its assistants twice,
  // and both instances are shipped and checked. (Sorted for the PL wave-2
  // set difference; deliberately NOT dedup'd — the number of assistant
  // objects checked is the cost driver of Figs. 10 and 11.)
  std::sort(items.begin(), items.end());
  return items;
}

std::vector<UnsolvedItem> unsolved_items_of_all_roots(
    const Federation& federation, const GlobalQuery& query, DbId home,
    AccessMeter* meter) {
  const GlobalSchema& schema = federation.schema();
  const GlobalClass& range = schema.cls(query.range_class);
  const auto constituent = range.constituent_in(home);
  expects(constituent.has_value(),
          "unsolved_items_of_all_roots at a non-root database");
  const ComponentDatabase& database = federation.db(home);
  const std::string& root_class =
      range.constituents()[*constituent].local_class;

  // PL_C1 retrieves the nested objects of *every* root object and inspects
  // them for missing data — schema-level missing attributes and value-level
  // nulls alike. The discovery walk is the same navigation phase P performs
  // later (one buffer pool; the executors subtract this meter from the
  // evaluation meter), but no predicate comparisons are charged here: those
  // belong to phase P.
  //
  // A single-step predicate can only be unsolved at the root (step 0), which
  // this collection ignores, and its walk touches no nested object and
  // charges only comparisons — zeroed below. Skipping it is meter- and
  // item-identical to evaluating it.
  std::vector<std::pair<std::size_t, BoundPath>> walks;
  for (std::size_t p = 0; p < query.predicates.size(); ++p)
    if (query.predicates[p].path.length() > 1)
      walks.emplace_back(
          p, BoundPath(federation, home, range, query.predicates[p].path));
  std::vector<UnsolvedItem> items;
  AccessMeter local;
  FetchCache cache;
  for (const Object& obj : database.scan(root_class, &local, &cache)) {
    for (const auto& [p, walk] : walks) {
      const LocalPredOutcome outcome =
          walk.eval_predicate(obj, query.predicates[p], &local, &cache);
      if (is_unknown(outcome.truth) && outcome.step > 0) {
        const auto entity = federation.goids().goid_of(outcome.holder, &local);
        ensures(entity.has_value(), "every constituent object is GOid-mapped");
        items.push_back(UnsolvedItem{*entity, p, outcome.step, *entity});
      }
    }
  }
  // Discovery inspects values but performs no predicate comparisons.
  local.comparisons = 0;
  if (meter != nullptr) *meter += local;
  std::sort(items.begin(), items.end());  // per-object instances, not dedup'd
  return items;
}

CheckPlan plan_checks(const Federation& federation, const GlobalQuery& query,
                      DbId home, const std::vector<UnsolvedItem>& items,
                      const SignatureIndex* signatures) {
  const GlobalSchema& schema = federation.schema();
  const GoidTable& goids = federation.goids();

  // Whether a database's schema can evaluate the first step of a suffix
  // depends only on (item class, predicate, step, database); items arrive
  // sorted by entity, so translate each combination once per call.
  std::map<std::tuple<std::string_view, std::size_t, std::size_t, DbId>, bool>
      can_start;
  CheckPlan plan;
  for (const UnsolvedItem& item : items) {
    const Predicate& pred = query.predicates[item.predicate];
    expects(item.step < pred.path.length(),
            "unsolved step beyond predicate path");
    // Signatures index (attribute = value) tokens, so screening applies to
    // single-attribute equality suffixes only.
    const bool screenable = signatures != nullptr &&
                            item.step + 1 == pred.path.length() &&
                            pred.op == CompOp::Eq;
    const std::string& item_class = goids.class_of(item.item);
    ++plan.meter.table_probes;  // the mapping-table lookup for this item
    bool advised = false;
    for (const LOid& isomer : goids.isomers_of(item.item)) {
      if (isomer.db == home) continue;
      ++plan.meter.table_probes;  // examine one candidate assistant
      // The assistant is useful when its database can evaluate at least the
      // first step of the suffix: full evaluation may still hit deeper
      // missing data there, which cascades (CheckOutcome::follow_up). An
      // assistant whose schema misses the very first attribute cannot make
      // progress at all and is skipped.
      const auto [memo, fresh] = can_start.try_emplace(
          std::tuple{std::string_view(item_class), item.predicate, item.step,
                     isomer.db},
          false);
      if (fresh) {
        const PathTranslation translation = schema.translate_path(
            item_class, pred.path.suffix(item.step), isomer.db);
        memo->second = translation.complete() || *translation.missing_at != 0;
      }
      if (!memo->second) continue;
      if (screenable &&
          signatures->screen(isomer, pred.path.step(item.step), pred.literal,
                             &plan.meter) ==
              SignatureIndex::Screen::CannotSatisfy) {
        plan.local_verdicts.push_back(
            CheckVerdict{item.origin, item.predicate, Truth::False});
        advised = true;
        continue;
      }
      plan.by_target[isomer.db].push_back(
          CheckTask{item.item, isomer, item.predicate, item.step, item.origin});
      advised = true;
    }
    // No capable assistant anywhere: the atom is unresolvable by checking.
    if (!advised) plan.unadvised.push_back(item);
  }
  return plan;
}

CheckOutcome run_checks(const Federation& federation, const GlobalQuery& query,
                        DbId target, const std::vector<CheckTask>& tasks,
                        const SignatureIndex* signatures) {
  const ComponentDatabase& database = federation.db(target);
  const GoidTable& goids = federation.goids();

  CheckOutcome outcome;
  outcome.db = target;
  outcome.verdicts.reserve(tasks.size());
  std::vector<UnsolvedItem> cascaded;
  // Suffix bindings per (item class, predicate, step), shared by the batch.
  std::map<std::tuple<const GlobalClass*, std::size_t, std::size_t>, BoundPath>
      suffixes;
  // Each listed LOid is retrieved individually (paper BL_C3: "retrieve the
  // objects for the LOid list of the assistant objects") — check batches are
  // random point lookups, not buffered scans, so no FetchCache here.
  for (const CheckTask& task : tasks) {
    expects(task.assistant.db == target, "check task routed to wrong database");
    const Object* assistant =
        database.fetch(task.assistant, &outcome.meter);
    if (assistant == nullptr)
      throw FederationError("assistant object " + to_string(task.assistant) +
                            " does not exist");
    const GlobalClass& item_class =
        federation.schema().cls(goids.class_of(task.item));
    const Predicate& pred = query.predicates[task.predicate];
    expects(task.step < pred.path.length(), "start_step beyond predicate path");
    const BoundPath& suffix =
        suffixes
            .try_emplace(std::tuple{&item_class, task.predicate, task.step},
                         federation, target, item_class, pred.path, task.step)
            .first->second;
    const LocalPredOutcome eval =
        suffix.eval_predicate(*assistant, pred, &outcome.meter);
    outcome.verdicts.push_back(
        CheckVerdict{task.origin, task.predicate, eval.truth});

    if (is_unknown(eval.truth)) {
      // A deeper unsolved site (strictly past the checked step) is a new
      // item whose assistants this database can look up itself; the site at
      // the checked step is the original item, whose other assistants the
      // home database already fanned out to.
      if (eval.step > task.step) {
        const auto entity = goids.goid_of(eval.holder, &outcome.meter);
        ensures(entity.has_value(), "every constituent object is GOid-mapped");
        cascaded.push_back(
            UnsolvedItem{*entity, task.predicate, eval.step, task.origin});
      }
    }
  }
  std::sort(cascaded.begin(), cascaded.end());
  if (!cascaded.empty())
    outcome.follow_up =
        plan_checks(federation, query, target, cascaded, signatures);
  return outcome;
}

}  // namespace isomer
