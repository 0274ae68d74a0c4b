// Shared hashing utilities.
//
// TransparentStringHash lets unordered containers keyed by std::string be
// probed with std::string_view (heterogeneous lookup) so hot probe paths do
// not allocate a temporary std::string per call.
#pragma once

#include <functional>
#include <string>
#include <string_view>

namespace isomer {

/// Heterogeneous (transparent) hash for string-keyed unordered containers:
/// `map.find(string_view)` works without materializing a std::string.
struct TransparentStringHash {
  using is_transparent = void;

  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  [[nodiscard]] std::size_t operator()(const std::string& s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
  [[nodiscard]] std::size_t operator()(const char* s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

}  // namespace isomer
