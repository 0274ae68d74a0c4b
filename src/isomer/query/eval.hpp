// Three-valued predicate evaluation over one component database.
//
// Evaluation walks a (local-name) path expression from a root object,
// dereferencing complex attributes inside the same database. Whenever the
// walk hits missing data — an attribute the object's class does not define, a
// null value, or a dangling reference — the predicate evaluates to Unknown
// and the evaluator reports the *unsolved site*: which object holds the
// missing data and at which path step, exactly the information the paper's
// certification of "unsolved items" needs (§2.3).
#pragma once

#include <optional>
#include <vector>

#include "isomer/query/query.hpp"
#include "isomer/store/database.hpp"

namespace isomer {

/// Where a predicate evaluation became Unknown.
struct UnsolvedSite {
  LOid holder;        ///< object holding the missing attribute / null value
  std::size_t step;   ///< index of the path step that could not be evaluated

  friend constexpr auto operator<=>(const UnsolvedSite&,
                                    const UnsolvedSite&) noexcept = default;
};

/// Result of evaluating one predicate on one object.
struct PredicateOutcome {
  Truth truth = Truth::Unknown;
  /// Set iff truth == Unknown. When a set-valued attribute yields several
  /// unknown branches, the first one (in stored order) is reported.
  std::optional<UnsolvedSite> site;
};

/// Evaluates `pred` (local attribute names) on `root` within `db`.
/// Charges one comparison per comparison actually performed.
[[nodiscard]] PredicateOutcome eval_predicate(const ComponentDatabase& db,
                                              const Object& root,
                                              const Predicate& pred,
                                              AccessMeter* meter = nullptr);

/// Evaluates a target path on `root`, returning the reached value, or null
/// when the walk crosses missing data. Set-valued steps take the first
/// member whose continuation is non-null.
[[nodiscard]] Value eval_path(const ComponentDatabase& db, const Object& root,
                              const PathExpr& path,
                              AccessMeter* meter = nullptr);

/// Walks the pure-prefix of a path (no comparison): returns the object
/// reached after `path` steps, or nullptr when the walk crosses missing
/// data. Used to locate unsolved items for projection.
[[nodiscard]] const Object* walk_prefix(const ComponentDatabase& db,
                                        const Object& root,
                                        const PathExpr& path,
                                        AccessMeter* meter = nullptr);

/// The conjunctive evaluation of a whole predicate list on one object:
/// overall Kleene truth plus, per Unknown predicate, its index and unsolved
/// site. All conjuncts are evaluated (no short-circuiting) so that
/// comparison counts are deterministic and every unsolved site is known.
struct ObjectEval {
  Truth truth = Truth::True;
  struct UnknownPredicate {
    std::size_t predicate_index;
    UnsolvedSite site;
  };
  std::vector<UnknownPredicate> unknowns;
};

[[nodiscard]] ObjectEval eval_conjunction(const ComponentDatabase& db,
                                          const Object& root,
                                          const std::vector<Predicate>& preds,
                                          AccessMeter* meter = nullptr);

}  // namespace isomer
