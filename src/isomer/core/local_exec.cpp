#include "isomer/core/local_exec.hpp"

#include "isomer/common/error.hpp"
#include "isomer/query/kernels.hpp"

namespace isomer {

namespace {

/// Resolves the local attribute index implementing global attribute
/// `global_step_name` of `global_class` for the constituent in `db`;
/// nullopt when the attribute (or the whole constituent) is missing there.
std::optional<std::size_t> local_attr_index(const ComponentDatabase& database,
                                            const GlobalClass& global_class,
                                            std::string_view global_attr) {
  const auto constituent = global_class.constituent_in(database.db());
  if (!constituent) return std::nullopt;
  const auto global_index = global_class.def().find_attribute(global_attr);
  if (!global_index) return std::nullopt;
  const auto& local_name =
      global_class.local_attr(*constituent, *global_index);
  if (!local_name) return std::nullopt;
  const ClassDef& local_class = database.schema().cls(
      global_class.constituents()[*constituent].local_class);
  return local_class.find_attribute(*local_name);
}

/// The global domain class of a global complex attribute.
const GlobalClass& global_domain(const Federation& federation,
                                 const GlobalClass& cls,
                                 std::string_view global_attr) {
  const auto index = cls.def().find_attribute(global_attr);
  expects(index.has_value(), "unknown global attribute");
  const auto* cplx = std::get_if<ComplexType>(&cls.def().attribute(*index).type);
  if (cplx == nullptr)
    throw QueryError("global attribute " + std::string(global_attr) +
                     " of class " + cls.name() +
                     " is primitive but the path continues");
  return federation.schema().cls(cplx->domain_class);
}

}  // namespace

BoundPath::BoundPath(const Federation& federation, DbId db,
                     const GlobalClass& root, const PathExpr& path,
                     std::size_t start)
    : federation_(&federation),
      database_(&federation.db(db)),
      start_(start),
      length_(path.length() - start) {
  expects(start <= path.length(), "binding starts beyond the path");
  const GlobalClass* cls = &root;
  for (std::size_t step = start; step < path.length(); ++step) {
    const std::string& attr = path.step(step);
    Step bound;
    bound.cls = cls;
    const auto column = local_attr_index(*database_, *cls, attr);
    if (column) bound.column = *column;
    const auto global_index = cls->def().find_attribute(attr);
    if (global_index) {
      const AttrDef& def = cls->def().attribute(*global_index);
      bound.name = &def.name;
      if (const auto* cplx = std::get_if<ComplexType>(&def.type))
        bound.domain = federation.schema().find_class(cplx->domain_class);
    }
    steps_.push_back(bound);
    if (!column || bound.domain == nullptr) break;  // the walk stops here
    cls = bound.domain;
  }
}

void BoundPath::check_continues(std::size_t i) const {
  const Step& step = steps_[i];
  if (step.domain == nullptr)  // cold path: name resolution raises the error
    (void)global_domain(*federation_, *step.cls, *step.name);
}

LocalPredOutcome BoundPath::eval_predicate(const Object& root,
                                           const Predicate& pred,
                                           AccessMeter* meter,
                                           FetchCache* cache) const {
  return eval_from(root, pred, 0, meter, cache);
}

LocalPredOutcome BoundPath::eval_from(const Object& obj, const Predicate& pred,
                                      std::size_t i, AccessMeter* meter,
                                      FetchCache* cache) const {
  const std::size_t step = start_ + i;
  const Step& bound = steps_[i];
  if (bound.column == kMissing)  // missing attribute: obj holds the gap
    return LocalPredOutcome{Truth::Unknown, obj.id(), step};

  const Value& v = obj.value(bound.column);
  if (i + 1 == length_) {
    if (meter != nullptr) ++meter->comparisons;
    const Truth t = apply(pred.op, v, pred.literal);
    if (is_unknown(t)) return LocalPredOutcome{Truth::Unknown, obj.id(), step};
    return LocalPredOutcome{t, LOid{}, 0};
  }

  if (v.is_null()) return LocalPredOutcome{Truth::Unknown, obj.id(), step};
  check_continues(i);

  if (v.kind() == ValueKind::LocalRef) {
    const Object* next = database_->deref(v, meter, cache);
    if (next == nullptr)
      return LocalPredOutcome{Truth::Unknown, obj.id(), step};
    return eval_from(*next, pred, i + 1, meter, cache);
  }
  if (v.kind() == ValueKind::LocalRefSet) {
    LocalPredOutcome acc{Truth::False, LOid{}, 0};
    for (const LOid member : v.as_local_ref_set()) {
      const Object* next = database_->fetch(member, meter, cache);
      const LocalPredOutcome branch =
          next == nullptr ? LocalPredOutcome{Truth::Unknown, obj.id(), step}
                          : eval_from(*next, pred, i + 1, meter, cache);
      if (is_true(branch.truth)) return branch;
      if (is_unknown(branch.truth) && !is_unknown(acc.truth)) acc = branch;
    }
    return acc;
  }
  throw QueryError("local value for global step " + *bound.name +
                   " is not a reference");
}

Value BoundPath::eval_target(const Object& root, AccessMeter* meter,
                             FetchCache* cache) const {
  return target_from(root, 0, meter, cache);
}

Value BoundPath::target_from(const Object& obj, std::size_t i,
                             AccessMeter* meter, FetchCache* cache) const {
  for (const Object* at = &obj; i < length_; ++i) {
    const Step& bound = steps_[i];
    if (bound.column == kMissing) return Value::null();
    const Value& v = at->value(bound.column);
    if (i + 1 == length_) return federation_->goids().globalize(v, meter);
    if (v.is_null()) return Value::null();
    check_continues(i);
    if (v.kind() == ValueKind::LocalRef) {
      at = database_->deref(v, meter, cache);
      if (at == nullptr) return Value::null();
      continue;
    }
    if (v.kind() == ValueKind::LocalRefSet) {
      for (const LOid member : v.as_local_ref_set()) {
        const Object* next = database_->fetch(member, meter, cache);
        if (next == nullptr) continue;
        Value rest = target_from(*next, i + 1, meter, cache);
        if (!rest.is_null()) return rest;
      }
      return Value::null();
    }
    throw QueryError("local value for global step " + *bound.name +
                     " is not a reference");
  }
  return Value::null();
}

LocalPredOutcome eval_global_predicate_at(const Federation& federation,
                                          DbId db, const Object& root,
                                          const GlobalClass& root_class,
                                          const Predicate& pred,
                                          std::size_t start_step,
                                          AccessMeter* meter,
                                          FetchCache* cache) {
  expects(start_step < pred.path.length(),
          "start_step beyond predicate path");
  return BoundPath(federation, db, root_class, pred.path, start_step)
      .eval_predicate(root, pred, meter, cache);
}

Value eval_global_path(const Federation& federation, DbId db,
                       const Object& root, const GlobalClass& root_class,
                       const PathExpr& path, AccessMeter* meter,
                       FetchCache* cache) {
  return BoundPath(federation, db, root_class, path)
      .eval_target(root, meter, cache);
}

LocalExecution run_local_query(const Federation& federation,
                               const GlobalQuery& query, DbId db,
                               const ExtentIndexes* indexes,
                               bool use_columnar) {
  const GlobalSchema& schema = federation.schema();
  const GlobalClass& range = schema.cls(query.range_class);
  const auto constituent = range.constituent_in(db);
  if (!constituent)
    throw QueryError("DB" + std::to_string(db.value()) +
                     " holds no constituent of range class " +
                     query.range_class);
  // Resolve every path against the global schema up front so malformed
  // queries fail before any simulated work.
  for (const Predicate& pred : query.predicates)
    (void)resolve_path(schema.lookup(), query.range_class, pred.path);
  for (const PathExpr& target : query.targets)
    (void)resolve_path(schema.lookup(), query.range_class, target);

  const ComponentDatabase& database = federation.db(db);
  const std::string& root_class_name =
      range.constituents()[*constituent].local_class;

  LocalExecution exec;
  exec.db = db;

  // One buffer pool for the whole local execution: every root and navigated
  // object is read from disk once.
  FetchCache cache;

  // Access path: an index over one of the conjunctive equality predicates
  // narrows the roots to matches plus the null bucket (anything else is
  // provably False on that predicate). Disjunctive queries must scan — an
  // object failing one alternative may pass another.
  std::vector<const Object*> candidates;
  bool via_index = false;
  if (indexes != nullptr && query.disjuncts.empty()) {
    for (const Predicate& pred : query.predicates) {
      if (pred.path.length() != 1 || pred.op != CompOp::Eq) continue;
      const auto lookup =
          indexes->lookup(db, pred.path.step(0), pred.literal, &exec.meter);
      if (!lookup) continue;
      via_index = true;
      candidates.reserve(lookup->size());
      for (const std::vector<LOid>* bucket :
           {lookup->matches, lookup->unknowns})
        for (const LOid id : *bucket)
          candidates.push_back(database.fetch(id, &exec.meter, &cache));
      break;
    }
  }
  if (!via_index)
    for (const Object& obj :
         database.scan(root_class_name, &exec.meter, &cache))
      candidates.push_back(&obj);
  exec.considered = candidates.size();

  // How each predicate is evaluated over this candidate set:
  //   Row         row-at-a-time walk per candidate (the reference path);
  //   Kernel      one vectorized pass over the root extent's columnar
  //               mirror, truths precomputed for all candidates;
  //   MissingRoot the step-0 attribute is schema-missing here, so every
  //               candidate is Unknown at the root — no walk at all.
  // Kernel/MissingRoot apply only to full scans (candidates == extent rows
  // in order); index executions keep the row walk.
  enum class PredMode : unsigned char { Row, Kernel, MissingRoot };
  const std::size_t n_preds = query.predicates.size();
  std::vector<PredMode> modes(n_preds, PredMode::Row);
  std::vector<std::vector<Truth>> kernel_truths(n_preds);
  if (use_columnar && !via_index && !candidates.empty()) {
    const Extent& root_extent = database.extent(root_class_name);
    for (std::size_t p = 0; p < n_preds; ++p) {
      const Predicate& pred = query.predicates[p];
      const auto attr = local_attr_index(database, range, pred.path.step(0));
      if (!attr) {
        // The row path returns Unknown(root, step 0) per candidate with no
        // comparison, then charges one goid probe for the unknown holder —
        // surviving or not. Same totals, charged in bulk.
        modes[p] = PredMode::MissingRoot;
        exec.meter.table_probes += candidates.size();
        continue;
      }
      if (pred.path.length() != 1) continue;  // navigation: row walk
      const ColumnarExtent::Column& col =
          root_extent.columnar().column(*attr);
      if (!kernel_applicable(col.kind, pred.op, pred.literal)) continue;
      modes[p] = PredMode::Kernel;
      kernel_truths[p].resize(candidates.size());
      eval_predicate_column(col, candidates.size(), pred.op, pred.literal,
                            kernel_truths[p].data());
      // Row-path charges for a present last-step attribute: one comparison
      // per candidate (nulls included — apply() still runs), one goid probe
      // per Unknown outcome whether or not the candidate survives.
      exec.meter.comparisons += candidates.size();
      exec.meter.table_probes +=
          count_truth(kernel_truths[p], Truth::Unknown);
    }
  }

  // Every predicate and target path resolved once for this database.
  std::vector<BoundPath> bound_preds;
  bound_preds.reserve(n_preds);
  for (const Predicate& pred : query.predicates)
    bound_preds.emplace_back(federation, db, range, pred.path);
  std::vector<BoundPath> bound_targets;
  bound_targets.reserve(query.targets.size());
  for (const PathExpr& target : query.targets)
    bound_targets.emplace_back(federation, db, range, target);

  // Per-candidate scratch, reused across iterations. RowEval's unsolved-site
  // fields are only read when truth is Unknown, and are always freshly
  // written in that case.
  struct RowEval {
    Truth truth = Truth::Unknown;
    GOid item;
    std::size_t step = 0;
    bool root_level = false;
  };
  std::vector<RowEval> evals(n_preds);
  std::vector<Truth> truths(n_preds);

  for (std::size_t r = 0; r < candidates.size(); ++r) {
    const Object& obj = *candidates[r];

    // Every predicate is evaluated (no short-circuiting): comparison counts
    // stay deterministic, and under disjunctive queries a False conjunct
    // does not decide the object's fate by itself.
    for (std::size_t p = 0; p < n_preds; ++p) {
      RowEval& e = evals[p];
      if (modes[p] == PredMode::Row) {
        const LocalPredOutcome outcome = bound_preds[p].eval_predicate(
            obj, query.predicates[p], &exec.meter, &cache);
        e.truth = outcome.truth;
        if (is_unknown(outcome.truth)) {
          const auto item_entity =
              federation.goids().goid_of(outcome.holder, &exec.meter);
          ensures(item_entity.has_value(),
                  "every constituent object is GOid-mapped");
          e.item = *item_entity;
          e.step = outcome.step;
          e.root_level = (outcome.holder == obj.id() && outcome.step == 0);
        }
      } else {
        e.truth = modes[p] == PredMode::Kernel ? kernel_truths[p][r]
                                               : Truth::Unknown;
        if (is_unknown(e.truth)) {
          // The holder is the root itself at step 0 (bulk-charged above);
          // its entity equals the row's, resolved below only if it survives.
          e.step = 0;
          e.root_level = true;
        }
      }
      truths[p] = e.truth;
    }
    // The object is eliminated locally when the whole matching formula is
    // provably False here (for conjunctive queries: any False conjunct).
    if (is_false(query.combine(truths))) continue;

    const auto entity = federation.goids().goid_of(obj.id(), &exec.meter);
    ensures(entity.has_value(), "every constituent object is GOid-mapped");

    LocalRow row;
    row.root = obj.id();
    row.entity = *entity;
    row.preds.reserve(n_preds);
    for (std::size_t p = 0; p < n_preds; ++p) {
      const RowEval& e = evals[p];
      PredStatus status;
      status.truth = e.truth;
      if (is_unknown(e.truth)) {
        status.item = modes[p] == PredMode::Row ? e.item : *entity;
        status.step = e.step;
        status.root_level = e.root_level;
      }
      row.preds.push_back(status);
    }

    row.targets.reserve(query.targets.size());
    for (const BoundPath& target : bound_targets)
      row.targets.push_back(target.eval_target(obj, &exec.meter, &cache));

    exec.rows.push_back(std::move(row));
  }
  return exec;
}

}  // namespace isomer
