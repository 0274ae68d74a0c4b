// Local query execution (phase P at a component database).
//
// A component database evaluates the *global* query's predicates against its
// own objects as far as its schema and data allow. Evaluation is
// translation-aware: every step of a global path is mapped to the local
// attribute through the global schema's bindings; a step the constituent
// class does not define (missing attribute), a null value, or a dangling
// reference makes the predicate Unknown, and the evaluator reports the
// *unsolved site*: the object holding the missing data (the paper's unsolved
// item when nested) and the global path step.
//
// This is exactly equivalent to evaluating the derived LocalQuery's local
// predicates plus marking its schema-unsolved predicates per object — the
// LocalQuery form exists for the protocol and the cost model, this evaluator
// for the logic — and both views are exercised against each other in tests.
#pragma once

#include <optional>
#include <vector>

#include "isomer/federation/federation.hpp"
#include "isomer/federation/indexes.hpp"
#include "isomer/query/query.hpp"

namespace isomer {

/// Outcome of evaluating one global predicate on one local object.
struct LocalPredOutcome {
  Truth truth = Truth::Unknown;
  /// Valid iff truth == Unknown: the object holding the missing data and
  /// the global path step that could not be evaluated.
  LOid holder{};
  std::size_t step = 0;
};

/// A global path bound to one component database. Each step is resolved
/// once — through the global schema's bindings — to the local column that
/// implements it in the constituent there (or to "missing") and to the
/// global class it leads to, so walking objects is integer indexing only.
/// Bind once per (query, database) and reuse the binding for every object:
/// outcomes, meter charges and errors are those of resolving every step by
/// name per object. A binding owns everything it needs (it borrows only the
/// federation), so the PathExpr it was built from may go away.
class BoundPath {
 public:
  /// Binds steps [start, path.length()) of `path` for objects of global
  /// class `root` stored in database `db`.
  BoundPath(const Federation& federation, DbId db, const GlobalClass& root,
            const PathExpr& path, std::size_t start = 0);

  /// Evaluates `pred` (whose path this binding was built from) on `root`;
  /// reported unsolved steps index the full predicate path.
  [[nodiscard]] LocalPredOutcome eval_predicate(const Object& root,
                                                const Predicate& pred,
                                                AccessMeter* meter = nullptr,
                                                FetchCache* cache =
                                                    nullptr) const;

  /// The value the path reaches from `root`, in *global* form (references
  /// globalized), or null when the walk crosses missing data. Set-valued
  /// steps take the first member whose continuation is non-null.
  [[nodiscard]] Value eval_target(const Object& root,
                                  AccessMeter* meter = nullptr,
                                  FetchCache* cache = nullptr) const;

 private:
  static constexpr std::size_t kMissing = static_cast<std::size_t>(-1);

  struct Step {
    std::size_t column = kMissing;        ///< local attribute index
    const GlobalClass* cls = nullptr;     ///< class of the objects here
    const GlobalClass* domain = nullptr;  ///< class the step leads to
    const std::string* name = nullptr;    ///< global attribute name
  };

  /// Throws, as name resolution does, when step `i` continues the path
  /// past a primitive attribute.
  void check_continues(std::size_t i) const;
  LocalPredOutcome eval_from(const Object& obj, const Predicate& pred,
                             std::size_t i, AccessMeter* meter,
                             FetchCache* cache) const;
  Value target_from(const Object& obj, std::size_t i, AccessMeter* meter,
                    FetchCache* cache) const;

  const Federation* federation_;
  const ComponentDatabase* database_;
  std::size_t start_;
  std::size_t length_;  ///< steps to walk: path.length() - start
  /// Bound steps; stops after the first missing one (the walk never gets
  /// past it).
  std::vector<Step> steps_;
};

/// Evaluates `pred` (global names), starting at `start_step`, on `root`
/// whose class is a constituent of global class `root_class`, entirely
/// within database `db`. Charges fetches/comparisons to `meter`. Binds the
/// path for this one call; loops over many objects bind a BoundPath once.
[[nodiscard]] LocalPredOutcome eval_global_predicate_at(
    const Federation& federation, DbId db, const Object& root,
    const GlobalClass& root_class, const Predicate& pred,
    std::size_t start_step, AccessMeter* meter = nullptr,
    FetchCache* cache = nullptr);

/// Evaluates a global-name target path on `root` within `db`; returns the
/// value in *global* form (references globalized), or null when missing.
[[nodiscard]] Value eval_global_path(const Federation& federation, DbId db,
                                     const Object& root,
                                     const GlobalClass& root_class,
                                     const PathExpr& path,
                                     AccessMeter* meter = nullptr,
                                     FetchCache* cache = nullptr);

/// Per-predicate status carried by a local result row. For conjunctive
/// queries False never appears — objects failing any conjunct are
/// eliminated locally and never shipped (the localized approaches' whole
/// data reduction). Under disjunctive queries a False conjunct can travel
/// in a surviving row (another alternative may still hold).
struct PredStatus {
  Truth truth = Truth::Unknown;
  /// Valid iff truth == Unknown:
  GOid item;             ///< entity of the object holding the missing data
  std::size_t step = 0;  ///< global path step that was unsolved
  /// True when the holder is the row's root object at step 0 — such sites
  /// are certified through the other databases' local results rather than
  /// through explicit assistant checks.
  bool root_level = false;
};

/// One local result row (a local certain or maybe result).
struct LocalRow {
  LOid root;
  GOid entity;
  std::vector<Value> targets;      ///< aligned with GlobalQuery::targets
  std::vector<PredStatus> preds;   ///< aligned with GlobalQuery::predicates

  [[nodiscard]] bool locally_certain() const noexcept {
    for (const PredStatus& status : preds)
      if (!is_true(status.truth)) return false;
    return true;
  }
};

/// The outcome of running the local query at one component database.
struct LocalExecution {
  DbId db{};
  std::vector<LocalRow> rows;
  AccessMeter meter;  ///< all local physical work (scan, fetches, compares)
  /// Candidate root objects evaluated (extent size, or index candidates):
  /// with rows.size(), the local data reduction the trace layer reports.
  std::uint64_t considered = 0;
};

/// Runs the global query locally at `db` (which must hold a constituent of
/// the range class): evaluates every predicate per root object, drops False
/// objects, and builds rows with globalized target values and unsolved
/// sites. The root extent is scanned unless `indexes` covers one of the
/// query's conjunctive equality predicates here, in which case only the
/// matching + null-bucket candidates are fetched (identical rows, less
/// disk; see federation/indexes.hpp for why the null bucket is required).
///
/// With `use_columnar` (the default), full-scan executions evaluate simple
/// single-step predicates through the extent's columnar mirror and the
/// vectorized kernels (query/kernels.hpp); predicates the kernels cannot
/// mirror exactly — navigation paths, mixed-kind columns — take the
/// row-at-a-time walk per object. Rows, meter counts and cache evolution
/// are bitwise identical either way; `use_columnar = false` forces the row
/// walk everywhere and exists as the parity suite's reference.
[[nodiscard]] LocalExecution run_local_query(const Federation& federation,
                                             const GlobalQuery& query,
                                             DbId db,
                                             const ExtentIndexes* indexes =
                                                 nullptr,
                                             bool use_columnar = true);

}  // namespace isomer
