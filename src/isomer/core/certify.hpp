// Certification at the global processing site (phase I of the localized
// approaches).
//
// Inputs: every component database's local result rows plus the tri-state
// verdicts from assistant checking. Per real-world entity (GOid) the rule is
// the paper's Certification Rule, applied with two kinds of evidence:
//
//  * Row evidence. Each database holding an isomeric root object either
//    shipped a row (predicate statuses True/Unknown) or eliminated the
//    object locally; a missing row proves the entity violates a predicate,
//    so the entity is eliminated (paper: "s1 is eliminated because its
//    assistant objects are not obtained in the local results from DB2").
//  * Check evidence. A verdict True for an unsolved item solves that
//    predicate; a verdict False eliminates the entity ("o is eliminated
//    when any of its assistant objects violates an unsolved predicate").
//
// An entity with every predicate solved is a certain result; with no False
// evidence but unsolved predicates left it remains a maybe result. Target
// values are merged across the entity's rows in ascending DbId order, first
// non-null wins — the same policy as the centralized materializer, which is
// what makes the strategies return identical answers on consistent
// federations.
#pragma once

#include <map>
#include <set>
#include <span>
#include <vector>

#include "isomer/core/checks.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/query/result.hpp"

namespace isomer {

/// Certification outcome counts — what the trace layer reports for the
/// global certify span (maybe-to-certain conversions vs. eliminations).
/// Beyond the flat outcome counts, the residual-atom fields record *why*
/// rows stayed maybe: one count per still-undecided condition leaf, keyed
/// by predicate index — the histogram cert.discharge spans and EXPLAIN
/// report (docs/CONDITIONS.md).
struct CertifyStats {
  std::uint64_t entities = 0;    ///< entities with at least one shipped row
  std::uint64_t certain = 0;     ///< resolved certain (every predicate solved)
  std::uint64_t maybe = 0;       ///< left maybe (unsolved predicates remain)
  std::uint64_t eliminated = 0;  ///< eliminated by row absence or a False
  std::uint64_t verdicts = 0;    ///< check verdicts pooled into the index
  /// Condition leaves left undecided across all maybe rows (duplicates per
  /// row counted once each — it is a histogram of residual work, not of
  /// distinct atoms).
  std::uint64_t unresolved_atoms = 0;
  /// The same residual leaves bucketed by GlobalQuery predicate index.
  std::map<std::size_t, std::uint64_t> unresolved_by_predicate;
};

/// IM's imputed verdicts: (item GOid, predicate) -> the estimate's
/// confidence (see certify()).
using ImputedConfidences = std::map<std::pair<GOid, std::size_t>, double>;

/// Check verdicts pooled per (item, predicate) atom with the certification
/// rule's merge: any False dominates (one violating assistant eliminates),
/// otherwise Kleene-or. Sorted by atom, so a lookup is one binary search.
class VerdictIndex {
 public:
  /// Charges one comparison per verdict to `meter`.
  explicit VerdictIndex(const std::vector<CheckVerdict>& verdicts,
                        AccessMeter* meter = nullptr);

  /// The pooled verdict of (item, predicate); null when no verdict names it.
  [[nodiscard]] const Truth* find(GOid item,
                                  std::size_t predicate) const noexcept;

 private:
  std::vector<std::pair<std::pair<GOid, std::size_t>, Truth>> pooled_;
};

/// certify()'s per-entity pass: reads one entity's rows once, pooling the
/// row statuses and the verdicts of step > 0 sites into the flat truth while
/// building the residual condition already simplified (docs/CONDITIONS.md).
/// Scratch is reused across entities; only residual nodes that keep two or
/// more children allocate.
class EntityPool {
 public:
  EntityPool(const GlobalQuery& query, const VerdictIndex& verdicts,
             AccessMeter* meter = nullptr,
             const ImputedConfidences* imputed = nullptr);

  /// Pools `rows` (one entity's rows, ascending DbId) and returns the
  /// entity's overall truth. residual() then holds the simplified condition,
  /// whose truth() equals it (checked on every call), and confidence() the
  /// product of the distinct imputed confidences consulted. Charges one
  /// comparison per (row, predicate) and one per verdict applied.
  Truth pool(std::span<const LocalRow* const> rows);

  [[nodiscard]] Condition& residual() noexcept { return residual_; }
  [[nodiscard]] double confidence() const noexcept { return confidence_; }

 private:
  const GlobalQuery* query_;
  const VerdictIndex* verdicts_;
  AccessMeter* meter_;
  const ImputedConfidences* imputed_;
  std::vector<Truth> truths_;
  std::vector<Condition> per_pred_;
  std::vector<Condition> pooled_;
  std::vector<std::pair<GOid, std::size_t>> imputed_used_;
  Condition residual_;
  double confidence_ = 1.0;
};

/// Certifies the collected local results into the final answer.
/// `meter` receives the global site's merge work: one comparison per
/// (row, predicate) merged, one per verdict applied, and one mapping-table
/// probe per expected-row presence check. `stats` (optional) receives the
/// per-entity outcome counts.
///
/// `unavailable` (optional) lists component databases declared unreachable
/// under graceful degradation (fault/degrade.hpp). Row-presence evidence
/// already only covers the homes that responded; additionally, a range
/// entity whose every root isomer lives in an unreachable database gets a
/// synthesized all-null row — the GOid table still knows the entity exists
/// even when no live component can describe it, mirroring what the
/// centralized approach materializes when it excludes the dead sites.
///
/// `imputed` (optional; the IM strategy) maps (item GOid, predicate) atoms
/// whose verdict was synthesized from the population model to that
/// estimate's confidence. A row whose certification consulted any such
/// verdict gets ResultRow::confidence = the product of the distinct
/// contributing confidences; every other row keeps confidence 1.0. Null —
/// every certifying strategy — charges and produces exactly what it did
/// before the parameter existed.
[[nodiscard]] QueryResult certify(
    const Federation& federation, const GlobalQuery& query,
    const std::vector<LocalExecution>& locals,
    const std::vector<CheckVerdict>& verdicts, AccessMeter* meter = nullptr,
    CertifyStats* stats = nullptr, const std::set<DbId>* unavailable = nullptr,
    const ImputedConfidences* imputed = nullptr);

}  // namespace isomer
