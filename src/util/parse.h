// Strict parsing of configuration text: WINDAR_* environment knobs and the
// launcher's worker command lines.  The whole value must parse; anything
// else is a fatal configuration error, never silently replaced by a default.
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <initializer_list>
#include <optional>
#include <string_view>
#include <system_error>

#include "util/check.h"

namespace windar::util {

/// Parses all of `text` as a number of type T; `what` names the input in
/// the failure message.
template <typename T>
T parse_number(std::string_view text, std::string_view what) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  WINDAR_CHECK(!text.empty() && ec == std::errc() && stop == end)
      << "malformed " << what << "='" << text << "'";
  return value;
}

/// Integer knob: nullopt when `name` is unset, else its value, which must be
/// at least `min`.
inline std::optional<long> env_int(const char* name, long min = 1) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  const long value = parse_number<long>(text, name);
  WINDAR_CHECK_GE(value, min) << name << "='" << text << "' is out of range";
  return value;
}

/// Choice knob: nullopt when `name` is unset, else its value, which must be
/// one of `choices` exactly.
inline std::optional<std::string_view> env_choice(
    const char* name, std::initializer_list<std::string_view> choices) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  const auto it = std::find(choices.begin(), choices.end(), text);
  WINDAR_CHECK(it != choices.end())
      << "unknown " << name << "='" << text << "'";
  return *it;
}

}  // namespace windar::util
