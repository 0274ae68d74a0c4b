#include "isomer/obs/trace_session.hpp"

#include <algorithm>

namespace isomer::obs {

std::vector<Phase> phase_order(const TraceSession& session,
                               std::optional<std::string_view> site) {
  std::vector<const PhaseSpan*> sorted;
  for (const PhaseSpan& span : session.spans()) {
    if (span.phase != Phase::O && span.phase != Phase::I &&
        span.phase != Phase::P)
      continue;
    if (site && span.site != *site) continue;
    sorted.push_back(&span);
  }
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const PhaseSpan* a, const PhaseSpan* b) {
                     return a->start_ns < b->start_ns;
                   });
  std::vector<Phase> order;
  for (const PhaseSpan* span : sorted)
    if (std::find(order.begin(), order.end(), span->phase) == order.end())
      order.push_back(span->phase);
  return order;
}

std::optional<SimTime> first_start(const TraceSession& session, Phase phase) {
  std::optional<SimTime> best;
  for (const PhaseSpan& span : session.spans())
    if (span.phase == phase && (!best || span.start_ns < *best))
      best = span.start_ns;
  return best;
}

std::optional<SimTime> last_end(const TraceSession& session, Phase phase) {
  std::optional<SimTime> best;
  for (const PhaseSpan& span : session.spans())
    if (span.phase == phase && (!best || span.end_ns > *best))
      best = span.end_ns;
  return best;
}

}  // namespace isomer::obs
