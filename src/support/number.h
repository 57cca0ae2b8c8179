// Strict text-to-number conversion for command-line and spec values.
//
// std::stoi and friends accept a numeric prefix ("1400x" -> 1400), wrap
// negative input into unsigned types ("-1" -> 2^64-1) and report failures
// as bare "stoull". parseNumber accepts only text that is, in its
// entirety, one finite value representable in T.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <type_traits>

namespace motune::support {

/// The whole of `text` as a T (integral or floating point); nullopt when
/// the text is empty, has anything left over, is out of T's range, or
/// (floating point) is not finite. Unsigned types reject a leading '-'.
template <class T>
std::optional<T> parseNumber(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(value)) return std::nullopt;
  return value;
}

} // namespace motune::support
