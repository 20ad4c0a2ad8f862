// parse_number.h — strict numeric flag parsing shared by the CLIs.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace hobbit::tools {

/// Parses all of `text` as a decimal number in [min, max]: an integer
/// for an integral T, a decimal or exponent form for a floating T.
/// Anything else — empty, a sign where none fits, trailing characters,
/// overflow, NaN — is rejected rather than read as a prefix or wrapped.
template <typename T>
bool ParseNumber(std::string_view text, T min, T max, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, error] = std::from_chars(text.data(), end, value);
  if (error != std::errc() || stop != end ||
      !(value >= min && value <= max)) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace hobbit::tools
