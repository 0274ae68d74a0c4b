#include "isomer/query/eval.hpp"

#include "isomer/common/error.hpp"

namespace isomer {

namespace {

/// Recursive walk evaluating `pred.path[step..]` from `obj`.
PredicateOutcome eval_from(const ComponentDatabase& db, const Object& obj,
                           const Predicate& pred, std::size_t step,
                           AccessMeter* meter) {
  const ClassDef& cls = db.schema().cls(db.class_of(obj.id()));
  const std::string& attr_name = pred.path.step(step);
  const auto index = cls.find_attribute(attr_name);
  if (!index) {
    // Schema-level missing attribute: this object holds the missing data.
    return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};
  }
  const Value& v = obj.value(*index);
  const bool last = (step + 1 == pred.path.length());

  if (last) {
    if (meter != nullptr) ++meter->comparisons;
    const Truth t = apply(pred.op, v, pred.literal);
    if (is_unknown(t))
      return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};
    return PredicateOutcome{t, std::nullopt};
  }

  if (v.is_null())
    return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};

  if (v.kind() == ValueKind::LocalRef) {
    const Object* next = db.deref(v, meter);
    if (next == nullptr)
      return PredicateOutcome{Truth::Unknown, UnsolvedSite{obj.id(), step}};
    return eval_from(db, *next, pred, step + 1, meter);
  }

  if (v.kind() == ValueKind::LocalRefSet) {
    // Existential semantics over the members, combined with Kleene-or.
    PredicateOutcome acc{Truth::False, std::nullopt};
    for (const LOid member : v.as_local_ref_set()) {
      const Object* next = db.fetch(member, meter);
      PredicateOutcome branch =
          next == nullptr
              ? PredicateOutcome{Truth::Unknown,
                                 UnsolvedSite{obj.id(), step}}
              : eval_from(db, *next, pred, step + 1, meter);
      if (is_true(branch.truth)) return branch;
      if (is_unknown(branch.truth) && !is_unknown(acc.truth)) acc = branch;
    }
    return acc;
  }

  throw QueryError("path " + pred.path.dotted() + " step " + attr_name +
                   " of class " + cls.name() +
                   " is primitive but the path continues");
}

}  // namespace

PredicateOutcome eval_predicate(const ComponentDatabase& db, const Object& root,
                                const Predicate& pred, AccessMeter* meter) {
  expects(pred.path.length() > 0, "predicate with empty path");
  expects(!pred.literal.is_null(), "predicate literal must not be null");
  return eval_from(db, root, pred, 0, meter);
}

Value eval_path(const ComponentDatabase& db, const Object& root,
                const PathExpr& path, AccessMeter* meter) {
  expects(path.length() > 0, "cannot evaluate an empty path");
  const Object* obj = &root;
  for (std::size_t step = 0; step < path.length(); ++step) {
    const ClassDef& cls = db.schema().cls(db.class_of(obj->id()));
    const auto index = cls.find_attribute(path.step(step));
    if (!index) return Value::null();
    const Value& v = obj->value(*index);
    const bool last = (step + 1 == path.length());
    if (last) return v;
    if (v.is_null()) return Value::null();
    if (v.kind() == ValueKind::LocalRef) {
      obj = db.deref(v, meter);
      if (obj == nullptr) return Value::null();
      continue;
    }
    if (v.kind() == ValueKind::LocalRefSet) {
      // Take the first member whose continuation yields a non-null value.
      for (const LOid member : v.as_local_ref_set()) {
        const Object* next = db.fetch(member, meter);
        if (next == nullptr) continue;
        Value rest = eval_path(db, *next, path.suffix(step + 1), meter);
        if (!rest.is_null()) return rest;
      }
      return Value::null();
    }
    throw QueryError("path " + path.dotted() + " continues past primitive " +
                     path.step(step));
  }
  return Value::null();
}

const Object* walk_prefix(const ComponentDatabase& db, const Object& root,
                          const PathExpr& path, AccessMeter* meter) {
  const Object* obj = &root;
  for (std::size_t step = 0; step < path.length(); ++step) {
    const ClassDef& cls = db.schema().cls(db.class_of(obj->id()));
    const auto index = cls.find_attribute(path.step(step));
    if (!index) return nullptr;
    const Value& v = obj->value(*index);
    if (v.kind() == ValueKind::LocalRef) {
      obj = db.deref(v, meter);
    } else if (v.kind() == ValueKind::LocalRefSet &&
               !v.as_local_ref_set().empty()) {
      obj = db.fetch(v.as_local_ref_set().front(), meter);
    } else {
      return nullptr;  // null or primitive: no object to reach
    }
    if (obj == nullptr) return nullptr;
  }
  return obj;
}

ObjectEval eval_conjunction(const ComponentDatabase& db, const Object& root,
                            const std::vector<Predicate>& preds,
                            AccessMeter* meter) {
  ObjectEval result;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    const PredicateOutcome outcome = eval_predicate(db, root, preds[i], meter);
    result.truth = result.truth && outcome.truth;
    if (is_unknown(outcome.truth) && outcome.site)
      result.unknowns.push_back(ObjectEval::UnknownPredicate{i, *outcome.site});
  }
  return result;
}

}  // namespace isomer
