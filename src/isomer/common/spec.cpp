#include "isomer/common/spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace isomer::spec {

namespace {

constexpr std::int64_t kMaxNs = std::numeric_limits<std::int64_t>::max();
constexpr Named<std::int64_t> kUnits[] = {
    {"ns", 1}, {"us", 1'000}, {"ms", 1'000'000}, {"s", 1'000'000'000}};

/// Reads the leading digits of `rest`; false when there are none or they
/// exceed `max` (overflowing 64 bits included).
bool read_digits(std::string_view& rest, std::uint64_t max,
                 std::uint64_t& value) {
  const auto [end, ec] =
      std::from_chars(rest.data(), rest.data() + rest.size(), value);
  if (ec != std::errc{} || value > max) return false;
  rest.remove_prefix(static_cast<std::size_t>(end - rest.data()));
  return true;
}

std::string wants_integer(std::string_view key, std::uint64_t min,
                          std::uint64_t max, std::string_view text) {
  return std::string(key) + " wants an integer in [" + std::to_string(min) +
         ", " + std::to_string(max) + "], got '" + std::string(text) + "'";
}

std::string wants_duration(std::string_view key, std::int64_t min,
                           std::string_view text) {
  return std::string(key) + " wants a duration INT(ns|us|ms|s) in [" +
         duration_string(min) + ", " + duration_string(kMaxNs) + "], got '" +
         std::string(text) + "'";
}

}  // namespace

std::string real_string(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string duration_string(std::int64_t ns) {
  return std::to_string(ns) + "ns";
}

Reader::Reader(std::string_view what, std::string_view text, Raise raise)
    : prefix_("malformed " + std::string(what) + " '" + std::string(text) +
              "': "),
      raise_(raise) {
  if (text.empty()) fail("empty specification");
}

void Reader::fail(const std::string& why) const {
  raise_(prefix_ + why);
  std::abort();  // unreachable: raise_ always throws
}

std::vector<std::string_view> Reader::split(std::string_view list, char sep,
                                            std::string_view piece) const {
  std::vector<std::string_view> pieces;
  for (std::size_t begin = 0;;) {
    const std::size_t end = list.find(sep, begin);
    const std::string_view part = list.substr(
        begin, end == std::string_view::npos ? end : end - begin);
    if (part.empty()) fail("empty " + std::string(piece));
    pieces.push_back(part);
    if (end == std::string_view::npos) return pieces;
    begin = end + 1;
  }
}

std::vector<Item> Reader::items(
    std::string_view list,
    std::initializer_list<std::string_view> repeatable) const {
  std::vector<Item> items;
  for (const std::string_view piece : split(list, ',')) {
    const std::size_t eq = piece.find('=');
    if (eq == std::string_view::npos)
      fail("item '" + std::string(piece) + "' has no '='");
    const Item item{piece.substr(0, eq), piece.substr(eq + 1)};
    if (item.value.empty())
      fail("item '" + std::string(piece) + "' has no value");
    // A repeated key is a hard error, never last-one-wins: a duplicate is
    // almost always a typo'd sweep script.
    if (std::find(repeatable.begin(), repeatable.end(), item.key) ==
        repeatable.end())
      for (const Item& prior : items)
        if (prior.key == item.key)
          fail("duplicate key '" + std::string(item.key) + "'");
    items.push_back(item);
  }
  return items;
}

std::uint64_t Reader::read_bounded(std::string_view key,
                                   std::string_view& rest, std::uint64_t min,
                                   std::uint64_t max) const {
  const std::string_view text = rest;
  std::uint64_t value = 0;
  if (!read_digits(rest, max, value) || value < min)
    fail(wants_integer(key, min, max, text));
  return value;
}

std::uint64_t Reader::whole_bounded(std::string_view key,
                                    std::string_view text, std::uint64_t min,
                                    std::uint64_t max) const {
  std::string_view rest = text;
  const std::uint64_t value = read_bounded(key, rest, min, max);
  if (!rest.empty()) fail(wants_integer(key, min, max, text));
  return value;
}

std::int64_t Reader::read_duration(std::string_view key,
                                   std::string_view& rest) const {
  const std::string_view text = rest;
  std::uint64_t count = 0;
  if (read_digits(rest, static_cast<std::uint64_t>(kMaxNs), count))
    for (const Named<std::int64_t>& unit : kUnits)
      if (rest.starts_with(unit.name)) {
        if (count > static_cast<std::uint64_t>(kMaxNs / unit.value)) break;
        rest.remove_prefix(unit.name.size());
        return static_cast<std::int64_t>(count) * unit.value;
      }
  fail(wants_duration(key, 0, text));
}

std::int64_t Reader::duration(std::string_view key, std::string_view text,
                              std::int64_t min) const {
  std::string_view rest = text;
  const std::int64_t ns = read_duration(key, rest);
  if (!rest.empty() || ns < min) fail(wants_duration(key, min, text));
  return ns;
}

double Reader::real(std::string_view key, std::string_view text,
                    RealRange range) const {
  const std::string owned(text);
  char* end = nullptr;
  const double value = std::strtod(owned.c_str(), &end);
  const bool above_min =
      range.min_exclusive ? value > range.min : value >= range.min;
  // std::isfinite rejects the 'inf'/'nan' spellings strtod accepts; an
  // infinite rate or NaN probability would poison every later comparison.
  if (end == owned.c_str() || end != owned.c_str() + owned.size() ||
      !std::isfinite(value) || !above_min || value > range.max)
    fail(std::string(key) + " wants a finite real in " +
         (range.min_exclusive ? "(" : "[") + real_string(range.min) + ", " +
         (std::isinf(range.max) ? "inf)" : real_string(range.max) + "]") +
         ", got '" + owned + "'");
  return value;
}

}  // namespace isomer::spec
