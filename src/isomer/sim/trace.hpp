// Execution phases (paper Fig. 8).
//
// Each strategy tags its simulated steps with the paper's phase letters:
// O (assistant lookup / checking), I (integration / certification),
// P (predicate evaluation), plus Transfer and Setup for communication and
// bookkeeping steps. The executors record every step as an obs::PhaseSpan
// (obs/span.hpp); obs::phase_order over those spans lets tests assert the
// characteristic phase orders — CA: O -> I -> P, BL: P -> O -> I,
// PL: O -> P -> I — straight from the executed schedule.
#pragma once

#include <string_view>

namespace isomer {

enum class Phase : unsigned char {
  Setup, O, I, P, Transfer, Fault, Plan, Cert,
  /// Serving-layer attribution: time a submission spent between admission
  /// and launch, attributed to its tenant (serve/server.hpp).
  Serve,
  /// IM-strategy markers (core/im.cpp): check atoms answered from the
  /// population model instead of the wire (`im.impute/<n>` /
  /// `im.decline/<n>` steps).
  Impute,
};

[[nodiscard]] std::string_view to_string(Phase phase) noexcept;

}  // namespace isomer
