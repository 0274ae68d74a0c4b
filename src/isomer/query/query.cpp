#include "isomer/query/query.hpp"

#include <algorithm>

#include "isomer/common/error.hpp"

namespace isomer {

std::string_view to_string(CompOp op) noexcept {
  switch (op) {
    case CompOp::Eq:
      return "=";
    case CompOp::Ne:
      return "<>";
    case CompOp::Lt:
      return "<";
    case CompOp::Le:
      return "<=";
    case CompOp::Gt:
      return ">";
    case CompOp::Ge:
      return ">=";
  }
  return "=";
}

Truth apply(CompOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case CompOp::Eq:
      return compare_eq(lhs, rhs);
    case CompOp::Ne:
      return !compare_eq(lhs, rhs);
    case CompOp::Lt:
      return compare_less(lhs, rhs);
    case CompOp::Ge:
      return !compare_less(lhs, rhs);
    case CompOp::Gt:
      return compare_less(rhs, lhs);
    case CompOp::Le:
      return !compare_less(rhs, lhs);
  }
  return Truth::Unknown;
}

std::ostream& operator<<(std::ostream& os, const Predicate& pred) {
  return os << pred.path << to_string(pred.op) << pred.literal;
}

GlobalQuery& GlobalQuery::select(std::string_view dotted_path) {
  targets.push_back(PathExpr::parse(dotted_path));
  return *this;
}

GlobalQuery& GlobalQuery::where(std::string_view dotted_path, CompOp op,
                                Value literal) {
  predicates.push_back(
      Predicate{PathExpr::parse(dotted_path), op, std::move(literal)});
  return *this;
}

GlobalQuery& GlobalQuery::or_group(std::initializer_list<std::size_t> indices) {
  disjuncts.emplace_back(indices);
  return *this;
}

Truth GlobalQuery::combine(const std::vector<Truth>& truths) const {
  expects(truths.size() == predicates.size(),
          "GlobalQuery::combine needs one truth per predicate");
  Truth alternatives = Truth::False;
  for (const auto& group : disjuncts) {
    Truth conjunct = Truth::True;
    for (const std::size_t index : group) {
      expects(index < predicates.size(), "disjunct index out of range");
      conjunct = conjunct && truths[index];
    }
    alternatives = alternatives || conjunct;
  }
  Truth result = disjuncts.empty() ? Truth::True : alternatives;
  for (std::size_t p = 0; p < truths.size(); ++p)
    if (!in_disjunct(p)) result = result && truths[p];
  return result;
}

bool GlobalQuery::in_disjunct(std::size_t index) const noexcept {
  return std::any_of(disjuncts.begin(), disjuncts.end(), [&](const auto& g) {
    return std::find(g.begin(), g.end(), index) != g.end();
  });
}

}  // namespace isomer
