#include "isomer/sim/trace.hpp"

namespace isomer {

std::string_view to_string(Phase phase) noexcept {
  switch (phase) {
    case Phase::Setup:
      return "setup";
    case Phase::O:
      return "O";
    case Phase::I:
      return "I";
    case Phase::P:
      return "P";
    case Phase::Transfer:
      return "transfer";
    case Phase::Fault:
      return "fault";
    case Phase::Plan:
      return "plan";
    case Phase::Cert:
      return "cert";
    case Phase::Serve:
      return "serve";
    case Phase::Impute:
      return "impute";
  }
  return "setup";
}

}  // namespace isomer
