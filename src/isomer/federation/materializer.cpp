#include "isomer/federation/materializer.hpp"

#include <algorithm>

#include "isomer/common/error.hpp"
#include "isomer/query/eval.hpp"

namespace isomer {

const GlobalClass& MaterializedExtent::cls() const {
  expects(cls_ != nullptr, "MaterializedExtent used before binding");
  return *cls_;
}

const MaterializedObject* MaterializedExtent::find(GOid id) const noexcept {
  if (id.value() >= row_of_.size() || row_of_[id.value()] == kAbsent)
    return nullptr;
  return &objects_[row_of_[id.value()]];
}

void MaterializedExtent::insert(MaterializedObject obj) {
  const std::uint64_t id = obj.id.value();
  if (id >= row_of_.size()) row_of_.resize(id + 1, kAbsent);
  if (row_of_[id] != kAbsent)
    throw FederationError("duplicate GOid g" + std::to_string(id) +
                          " in materialized extent of " + cls().name());
  row_of_[id] = static_cast<std::uint32_t>(objects_.size());
  objects_.push_back(std::move(obj));
}

bool MaterializedView::has_extent(std::string_view global_class) const noexcept {
  return extents_.find(global_class) != extents_.end();
}

const MaterializedExtent& MaterializedView::extent(
    std::string_view global_class) const {
  const auto it = extents_.find(global_class);
  if (it == extents_.end())
    throw FederationError("no materialized extent for global class " +
                          std::string(global_class));
  return it->second;
}

MaterializedExtent& MaterializedView::add_extent(const GlobalClass& cls) {
  const auto [it, inserted] =
      extents_.emplace(cls.name(), MaterializedExtent(cls));
  return it->second;
}

std::vector<std::string> classes_involved(const GlobalSchema& schema,
                                          const GlobalQuery& query) {
  std::vector<std::string> classes{query.range_class};
  const auto add_path = [&](const PathExpr& path) {
    const ResolvedPath resolved =
        resolve_path(schema.lookup(), query.range_class, path);
    for (const std::string& name : resolved.classes_on_path())
      if (std::find(classes.begin(), classes.end(), name) == classes.end())
        classes.push_back(name);
  };
  for (const PathExpr& target : query.targets) add_path(target);
  for (const Predicate& pred : query.predicates) add_path(pred.path);
  return classes;
}

MaterializedView materialize(const Federation& federation,
                             const std::vector<std::string>& classes,
                             AccessMeter* meter, MergePolicy policy,
                             const std::set<DbId>* exclude) {
  const GlobalSchema& schema = federation.schema();
  const GoidTable& goids = federation.goids();

  MaterializedView view;
  for (const std::string& class_name : classes) {
    const GlobalClass& cls = schema.cls(class_name);
    MaterializedExtent& extent = view.add_extent(cls);
    const std::size_t attrs = cls.def().attribute_count();

    // Which global attributes union their reference sets, and per
    // constituent the local column implementing each global attribute
    // (kMissing where the constituent holds it as missing). The federation
    // validated every binding, so the columns exist.
    constexpr std::size_t kMissing = static_cast<std::size_t>(-1);
    std::vector<unsigned char> union_merge(attrs, 0);
    for (std::size_t a = 0; a < attrs; ++a) {
      const auto* cplx = std::get_if<ComplexType>(&cls.def().attribute(a).type);
      union_merge[a] = policy == MergePolicy::UnionSets && cplx != nullptr &&
                       cplx->multi_valued;
    }
    std::vector<const ComponentDatabase*> databases(cls.constituents().size());
    std::vector<std::vector<std::size_t>> columns(cls.constituents().size());
    for (std::size_t c = 0; c < columns.size(); ++c) {
      const Constituent& constituent = cls.constituents()[c];
      databases[c] = &federation.db(constituent.db);
      const ClassDef& local_class =
          databases[c]->extent(constituent.local_class).cls();
      columns[c].assign(attrs, kMissing);
      for (std::size_t a = 0; a < attrs; ++a)
        if (const auto& local_name = cls.local_attr(c, a)) {
          const auto index = local_class.find_attribute(*local_name);
          ensures(index.has_value(), "bound local attribute must exist");
          columns[c][a] = *index;
        }
    }

    // The GOid table knows the class's entity count before the outerjoin
    // starts: every entity yields exactly one materialized object.
    const std::vector<GOid>& entities = goids.entities_of(class_name);
    extent.reserve(entities.size());
    for (const GOid entity : entities) {
      MaterializedObject merged{entity, std::vector<Value>(attrs)};
      // Isomers are kept in ascending DbId order; first non-null wins.
      for (const LOid& isomer : goids.isomers_of(entity)) {
        if (exclude != nullptr && exclude->count(isomer.db) != 0) continue;
        const auto constituent = cls.constituent_in(isomer.db);
        ensures(constituent.has_value(),
                "isomer's database must hold a constituent");
        const Object* obj = databases[*constituent]->fetch(isomer, meter);
        ensures(obj != nullptr, "GOid table validated at construction");
        if (meter != nullptr) ++meter->comparisons;  // outerjoin GOid probe
        const std::vector<std::size_t>& column = columns[*constituent];
        for (std::size_t a = 0; a < attrs; ++a) {
          if (!union_merge[a] && !merged.values[a].is_null()) continue;
          if (column[a] == kMissing) continue;
          const Value& raw = obj->value(column[a]);
          if (raw.is_null()) continue;
          Value global_value = goids.globalize(raw, meter);
          if (union_merge[a] && !merged.values[a].is_null() &&
              !global_value.is_null()) {
            // Union this isomer's reference set into the accumulated one.
            GlobalRefSet combined{merged.values[a].as_global_ref_set()};
            for (const GOid target : global_value.as_global_ref_set())
              if (std::find(combined.targets.begin(), combined.targets.end(),
                            target) == combined.targets.end())
                combined.targets.push_back(target);
            std::sort(combined.targets.begin(), combined.targets.end());
            merged.values[a] = Value(std::move(combined));
            continue;
          }
          if (union_merge[a] && global_value.kind() == ValueKind::GlobalRefSet) {
            GlobalRefSet sorted{global_value.as_global_ref_set()};
            std::sort(sorted.targets.begin(), sorted.targets.end());
            global_value = Value(std::move(sorted));
          }
          merged.values[a] = std::move(global_value);
        }
      }
      extent.insert(std::move(merged));
    }
  }
  return view;
}

namespace {

/// Where a materialized evaluation went Unknown: the object holding the
/// missing data and the global path step it stalled at — the residual atom
/// the row's condition names. Only the *first* Unknown site (in stored
/// evaluation order) is kept, matching the local evaluator's convention of
/// reporting the first unsolved site of set-valued branches.
struct MatStall {
  GOid holder;
  std::size_t step = 0;
  bool set = false;
};

void note_stall(MatStall* stall, GOid holder, std::size_t step) noexcept {
  if (stall == nullptr || stall->set) return;
  stall->holder = holder;
  stall->step = step;
  stall->set = true;
}

/// A global path bound to a materialized view: per step, the attribute
/// index in the step's global class and, for steps that navigate on, the
/// domain class and its materialized extent — resolved once per query
/// instead of once per object and step.
class BoundViewPath {
 public:
  BoundViewPath(const MaterializedView& view, const GlobalSchema& schema,
                const GlobalClass& root, const PathExpr& path)
      : view_(&view) {
    const GlobalClass* cls = &root;
    for (std::size_t step = 0; step < path.length(); ++step) {
      const auto index = cls->def().find_attribute(path.step(step));
      ensures(index.has_value(), "global query resolved before evaluation");
      Step bound{*index, nullptr, nullptr, &path.step(step)};
      if (step + 1 < path.length()) {
        const auto& cplx =
            std::get<ComplexType>(cls->def().attribute(*index).type);
        bound.domain = &schema.cls(cplx.domain_class);
        if (view.has_extent(bound.domain->name()))
          bound.extent = &view.extent(bound.domain->name());
        cls = bound.domain;
      }
      steps_.push_back(bound);
    }
  }

  /// Predicate evaluation over materialized objects; mirrors the local
  /// evaluator but navigates GOid references between materialized extents.
  Truth eval(const MaterializedObject& obj, const Predicate& pred,
             std::size_t step, AccessMeter* meter, MatStall* stall) const {
    const Step& bound = steps_[step];
    const Value& v = obj.values[bound.index];
    if (step + 1 == steps_.size()) {
      if (meter != nullptr) ++meter->comparisons;
      const Truth t = apply(pred.op, v, pred.literal);
      if (is_unknown(t)) note_stall(stall, obj.id, step);
      return t;
    }
    if (v.is_null()) {
      note_stall(stall, obj.id, step);
      return Truth::Unknown;
    }
    const MaterializedExtent& extent = extent_of(bound);
    const auto descend = [&](GOid target) -> Truth {
      const MaterializedObject* next = extent.find(target);
      if (next == nullptr) {
        note_stall(stall, obj.id, step);  // dangling: the referrer stalls
        return Truth::Unknown;
      }
      if (meter != nullptr) ++meter->objects_fetched;
      return eval(*next, pred, step + 1, meter, stall);
    };
    if (v.kind() == ValueKind::GlobalRef) return descend(v.as_global_ref());
    if (v.kind() == ValueKind::GlobalRefSet) {
      Truth acc = Truth::False;
      for (const GOid target : v.as_global_ref_set()) {
        const Truth branch = descend(target);
        if (is_true(branch)) return branch;
        acc = acc || branch;
      }
      return acc;
    }
    throw QueryError("materialized path step " + *bound.name +
                     " is not a reference");
  }

  /// The value the path reaches from `obj`; null across missing data.
  Value target(const MaterializedObject& obj, std::size_t step,
               AccessMeter* meter) const {
    const Step& bound = steps_[step];
    const Value& v = obj.values[bound.index];
    if (step + 1 == steps_.size()) return v;
    if (v.is_null()) return Value::null();
    const MaterializedExtent& extent = extent_of(bound);
    const auto descend = [&](GOid target_id) -> Value {
      const MaterializedObject* next = extent.find(target_id);
      if (next == nullptr) return Value::null();
      if (meter != nullptr) ++meter->objects_fetched;
      return target(*next, step + 1, meter);
    };
    if (v.kind() == ValueKind::GlobalRef) return descend(v.as_global_ref());
    if (v.kind() == ValueKind::GlobalRefSet) {
      for (const GOid target_id : v.as_global_ref_set()) {
        Value rest = descend(target_id);
        if (!rest.is_null()) return rest;
      }
      return Value::null();
    }
    throw QueryError("materialized path step " + *bound.name +
                     " is not a reference");
  }

 private:
  struct Step {
    std::size_t index;
    const GlobalClass* domain;
    const MaterializedExtent* extent;  ///< nullptr: not in the view
    const std::string* name;
  };

  /// The extent a navigating step leads to; throws when the view lacks it.
  const MaterializedExtent& extent_of(const Step& step) const {
    return step.extent != nullptr ? *step.extent
                                  : view_->extent(step.domain->name());
  }

  const MaterializedView* view_;
  std::vector<Step> steps_;
};

}  // namespace

QueryResult evaluate_global(const MaterializedView& view,
                            const GlobalSchema& schema,
                            const GlobalQuery& query, AccessMeter* meter) {
  // Resolve every path once up front so malformed queries fail loudly.
  for (const Predicate& pred : query.predicates)
    (void)resolve_path(schema.lookup(), query.range_class, pred.path);
  for (const PathExpr& target : query.targets)
    (void)resolve_path(schema.lookup(), query.range_class, target);

  const GlobalClass& range = schema.cls(query.range_class);
  const MaterializedExtent& extent = view.extent(range.name());

  std::vector<BoundViewPath> bound_preds;
  bound_preds.reserve(query.predicates.size());
  for (const Predicate& pred : query.predicates)
    bound_preds.emplace_back(view, schema, range, pred.path);
  std::vector<BoundViewPath> bound_targets;
  bound_targets.reserve(query.targets.size());
  for (const PathExpr& target : query.targets)
    bound_targets.emplace_back(view, schema, range, target);

  // Per-query scratch, reused object after object.
  const std::size_t n_preds = query.predicates.size();
  std::vector<Truth> truths(n_preds);
  std::vector<MatStall> stalls(n_preds);
  std::vector<Condition> per_pred(n_preds);
  QueryResult result;
  for (const MaterializedObject& obj : extent.objects()) {
    for (std::size_t p = 0; p < n_preds; ++p) {
      stalls[p] = MatStall{};
      truths[p] = bound_preds[p].eval(obj, query.predicates[p], 0, meter,
                                      &stalls[p]);
    }
    const Truth truth = query.combine(truths);
    if (is_false(truth)) continue;

    ResultRow row;
    row.entity = obj.id;
    row.status =
        is_true(truth) ? ResultStatus::Certain : ResultStatus::Maybe;
    // The centralized approach saw all the data at once, so a maybe row's
    // residual is one leaf per Unknown predicate: the materialized stall
    // site. (Syntactically simpler than, but truth-equivalent to, the pool
    // the localized approaches build from per-database rows — conditions
    // are deliberately outside ResultRow equality for this reason.)
    if (row.status == ResultStatus::Maybe) {
      for (std::size_t p = 0; p < n_preds; ++p) {
        if (is_unknown(truths[p])) {
          const MatStall& s = stalls[p];
          ensures(s.set, "Unknown evaluation must report its stall site");
          per_pred[p] = Condition::leaf(CondAtom{
              s.holder, p, s.step, s.step == 0 && s.holder == obj.id});
        } else {
          per_pred[p] = Condition::constant(truths[p]);
        }
      }
      row.condition = combine_conditions(query, std::move(per_pred));
    }
    row.targets.reserve(query.targets.size());
    for (const BoundViewPath& target : bound_targets)
      row.targets.push_back(target.target(obj, 0, meter));
    result.rows.push_back(std::move(row));
  }
  result.normalize();
  return result;
}

}  // namespace isomer
