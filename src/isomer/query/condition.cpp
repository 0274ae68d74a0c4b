#include "isomer/query/condition.hpp"

#include <algorithm>
#include <optional>
#include <ostream>
#include <sstream>

#include "isomer/common/error.hpp"
#include "isomer/query/query.hpp"

namespace isomer {

std::ostream& operator<<(std::ostream& os, const CondAtom& atom) {
  os << "g" << atom.item.value() << "#" << atom.predicate << "@" << atom.step;
  if (atom.root_level) os << "r";
  return os;
}

Condition Condition::constant(Truth value) {
  Condition c;
  c.kind_ = Kind::Constant;
  c.value_ = value;
  return c;
}

Condition Condition::leaf(CondAtom atom) {
  Condition c;
  c.kind_ = Kind::Leaf;
  c.atom_ = atom;
  return c;
}

Condition Condition::make_and(std::vector<Condition> children) {
  Condition c;
  c.kind_ = Kind::And;
  c.children_ = std::move(children);
  return c;
}

Condition Condition::make_or(std::vector<Condition> children) {
  Condition c;
  c.kind_ = Kind::Or;
  c.children_ = std::move(children);
  return c;
}

Condition Condition::pool(std::vector<Condition> children) {
  Condition c;
  c.kind_ = Kind::Pool;
  c.children_ = std::move(children);
  return c;
}

Condition Condition::negate() const {
  Condition c = *this;
  c.negated_ = !c.negated_;
  return c;
}

Truth Condition::truth(const Assignment& assignment) const {
  Truth base = Truth::Unknown;
  switch (kind_) {
    case Kind::Constant:
      base = value_;
      break;
    case Kind::Leaf: {
      const auto it =
          assignment.find(std::pair{atom_.item, atom_.predicate});
      base = it == assignment.end() ? Truth::Unknown : it->second;
      break;
    }
    case Kind::And: {
      base = Truth::True;
      for (const Condition& child : children_)
        base = base && child.truth(assignment);
      break;
    }
    case Kind::Or: {
      base = Truth::False;
      for (const Condition& child : children_)
        base = base || child.truth(assignment);
      break;
    }
    case Kind::Pool: {
      // The certification rule's evidence pool: any False refutes, else any
      // True solves, else Unknown. Not min, not max — see the header.
      bool any_true = false, any_false = false;
      for (const Condition& child : children_) {
        const Truth t = child.truth(assignment);
        if (is_true(t)) any_true = true;
        if (is_false(t)) any_false = true;
      }
      base = any_false  ? Truth::False
             : any_true ? Truth::True
                        : Truth::Unknown;
      break;
    }
  }
  return negated_ ? !base : base;
}

template <typename Decide>
Condition Condition::replace_leaves(const Decide& decide) const {
  switch (kind_) {
    case Kind::Constant:
      return *this;
    case Kind::Leaf:
      // The negation flag folds into the constant right away — a negated
      // leaf decided True is the constant False.
      if (const std::optional<Truth> value = decide(atom_))
        return constant(negated_ ? !*value : *value);
      return *this;
    case Kind::And:
    case Kind::Or:
    case Kind::Pool: {
      Condition c;
      c.kind_ = kind_;
      c.negated_ = negated_;
      c.children_.reserve(children_.size());
      for (const Condition& child : children_)
        c.children_.push_back(child.replace_leaves(decide));
      return c;
    }
  }
  return *this;
}

Condition Condition::substitute(GOid item, std::size_t predicate,
                                Truth value) const {
  return replace_leaves([&](const CondAtom& a) -> std::optional<Truth> {
    if (!a.root_level && a.item == item && a.predicate == predicate)
      return value;
    return std::nullopt;
  });
}

Condition Condition::substitute_atom(const CondAtom& atom,
                                     Truth value) const {
  return replace_leaves([&](const CondAtom& a) -> std::optional<Truth> {
    if (a == atom) return value;
    return std::nullopt;
  });
}

Condition Condition::fold(Kind kind, std::span<Condition> children) {
  const auto is = [](const Condition& c, Truth value) {
    return c.kind_ == Kind::Constant && !c.negated_ && c.value_ == value;
  };
  // Per connective: the constant a child drops out as, the constant that
  // decides the node outright, and the empty node's value. And/Or drop
  // their identity and collapse on their annihilator; Pool drops Unknown
  // (it contributes no evidence) and collapses on False.
  const Truth drop = kind == Kind::And   ? Truth::True
                     : kind == Kind::Or  ? Truth::False
                                         : Truth::Unknown;
  const Truth decide = kind == Kind::Or ? Truth::True : Truth::False;
  const Truth empty = kind == Kind::Pool ? Truth::Unknown : drop;
  std::size_t kept = 0, kept_true = 0;
  Condition* last = nullptr;
  for (Condition& child : children) {
    if (is(child, decide)) return constant(decide);
    if (is(child, drop)) continue;
    ++kept;
    last = &child;
    // Pool keeps True children: Pool{True, x} still turns False with x.
    if (is(child, Truth::True)) ++kept_true;
  }
  if (kept == 0) return constant(empty);
  // Only True constants left in a Pool: no child can ever turn False.
  if (kind == Kind::Pool && kept_true == kept) return constant(Truth::True);
  if (kept == 1) return std::move(*last);
  Condition c;
  c.kind_ = kind;
  c.children_.reserve(kept);
  for (Condition& child : children)
    if (!is(child, drop)) c.children_.push_back(std::move(child));
  return c;
}

Condition Condition::simplify() const {
  Condition base;
  if (kind_ == Kind::Constant || kind_ == Kind::Leaf) {
    base = *this;
    base.negated_ = false;
  } else {
    std::vector<Condition> simplified;
    simplified.reserve(children_.size());
    for (const Condition& child : children_)
      simplified.push_back(child.simplify());
    base = fold(kind_, simplified);
  }
  // Fold this node's negation into the simplified base.
  if (!negated_) return base;
  if (base.kind_ == Kind::Constant && !base.negated_)
    return constant(!base.value_);
  return base.negate();
}

void Condition::collect_atoms(std::vector<CondAtom>& out) const {
  switch (kind_) {
    case Kind::Constant:
      return;
    case Kind::Leaf:
      out.push_back(atom_);
      return;
    case Kind::And:
    case Kind::Or:
    case Kind::Pool:
      for (const Condition& child : children_) child.collect_atoms(out);
      return;
  }
}

std::vector<CondAtom> Condition::atoms() const {
  std::vector<CondAtom> out;
  collect_atoms(out);
  return out;
}

std::string Condition::to_string() const {
  std::ostringstream os;
  os << *this;
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const Condition& condition) {
  if (condition.negated()) os << "not ";
  switch (condition.kind()) {
    case Condition::Kind::Constant:
      return os << to_string(condition.constant_value());
    case Condition::Kind::Leaf:
      return os << condition.atom();
    case Condition::Kind::And:
    case Condition::Kind::Or:
    case Condition::Kind::Pool: {
      os << (condition.kind() == Condition::Kind::And  ? "and("
             : condition.kind() == Condition::Kind::Or ? "or("
                                                       : "pool(");
      bool first = true;
      for (const Condition& child : condition.children()) {
        if (!first) os << ", ";
        first = false;
        os << child;
      }
      return os << ")";
    }
  }
  return os;
}

Condition combine_conditions(const GlobalQuery& query,
                             std::vector<Condition>&& per_pred) {
  expects(per_pred.size() == query.predicates.size(),
          "combine_conditions needs one condition per predicate");
  // Mirrors GlobalQuery::combine exactly: AND(loose) AND OR(AND(group)).
  if (query.disjuncts.empty())
    return Condition::simplified_and(std::move(per_pred));
  std::vector<Condition> alternatives;
  alternatives.reserve(query.disjuncts.size());
  std::vector<Condition> conjuncts;
  for (const auto& group : query.disjuncts) {
    conjuncts.clear();
    for (const std::size_t index : group) {
      expects(index < per_pred.size(), "disjunct index out of range");
      conjuncts.push_back(per_pred[index]);
    }
    alternatives.push_back(Condition::simplified_and(std::move(conjuncts)));
  }
  std::vector<Condition> loose;
  loose.reserve(per_pred.size() + 1);
  loose.push_back(Condition::simplified_or(std::move(alternatives)));
  for (std::size_t p = 0; p < per_pred.size(); ++p)
    if (!query.in_disjunct(p)) loose.push_back(std::move(per_pred[p]));
  return Condition::simplified_and(std::move(loose));
}

std::uint64_t predicate_signature(const Predicate& predicate) {
  std::ostringstream os;
  os << predicate;
  const std::string text = os.str();
  std::uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a offset basis
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;  // FNV-1a prime
  }
  return hash;
}

}  // namespace isomer
