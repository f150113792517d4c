// The key=value grammar every spec string shares: --faults, --serve,
// --impute and the bench harness's scalar flags (README "Spec grammar"
// states the rules for users).
//
//   list   := item (SEP item)*       SEP is ',' for items, '/' for clauses
//   item   := KEY '=' VALUE          neither piece empty
//   INT    := [0-9]+                 within the field's [min, max]
//   DUR    := INT ('ns'|'us'|'ms'|'s')   at most 2^63-1 ns once scaled
//   REAL   := a strtod real          finite, within the field's range
//
// A key appears at most once per list unless the spec declares it
// repeatable. Reals print canonically with %.17g, which round-trips every
// double, and durations print in nanoseconds. A Reader reports malformed
// input as the calling spec's own error type, prefixed
// "malformed --X spec 'TEXT': ".
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace isomer::spec {

/// One entry of a name table: the spelling of an enum value. The same
/// table drives parsing (lookup / Reader::choice) and printing (name_of).
template <typename E>
struct Named {
  std::string_view name;
  E value;
};

inline constexpr Named<bool> kOnOff[] = {{"on", true}, {"off", false}};

template <typename E, std::size_t N>
[[nodiscard]] constexpr std::optional<E> lookup(
    const Named<E> (&names)[N], std::string_view text) noexcept {
  for (const Named<E>& entry : names)
    if (entry.name == text) return entry.value;
  return std::nullopt;
}

/// The spelling of `value`; the table's first name if it has none.
template <typename E, std::size_t N>
[[nodiscard]] constexpr std::string_view name_of(const Named<E> (&names)[N],
                                                 E value) noexcept {
  for (const Named<E>& entry : names)
    if (entry.value == value) return entry.name;
  return names[0].name;
}

/// Canonical print of a real: %.17g.
[[nodiscard]] std::string real_string(double value);
/// Canonical print of a duration: INT "ns".
[[nodiscard]] std::string duration_string(std::int64_t ns);

/// The accepted range of a REAL field.
struct RealRange {
  double min;
  double max;
  bool min_exclusive = false;
};
inline constexpr RealRange kUnitInterval{0, 1};
inline constexpr RealRange kPositive{
    0, std::numeric_limits<double>::infinity(), true};

struct Item {
  std::string_view key;
  std::string_view value;
};

/// Throws a spec's own error type; see raise<Error>.
using Raise = void (*)(const std::string& message);
template <typename Error>
void raise(const std::string& message) {
  throw Error(message);
}

/// Reads the pieces of one spec text. Every method either returns a valid
/// value or throws through `raise`; none returns a partial result.
class Reader {
 public:
  /// `what` names the input in messages ("--faults spec"). An empty
  /// `text` is itself an error.
  Reader(std::string_view what, std::string_view text, Raise raise);

  [[noreturn]] void fail(const std::string& why) const;

  /// The pieces of `list` between `sep`s; an empty piece is an error that
  /// names it as `piece`.
  [[nodiscard]] std::vector<std::string_view> split(
      std::string_view list, char sep, std::string_view piece = "item") const;

  /// The ','-separated KEY=VALUE items of `list`. Every key may appear
  /// once, except the keys in `repeatable`.
  [[nodiscard]] std::vector<Item> items(
      std::string_view list,
      std::initializer_list<std::string_view> repeatable = {}) const;

  /// INT in [min, T's maximum], read from the front of `rest`.
  template <typename T>
  [[nodiscard]] T read_uint(std::string_view key, std::string_view& rest,
                            std::uint64_t min = 0) const {
    return static_cast<T>(read_bounded(key, rest, min, max_of<T>()));
  }
  /// INT in [min, T's maximum] filling all of `text`.
  template <typename T>
  [[nodiscard]] T uint(std::string_view key, std::string_view text,
                       std::uint64_t min = 0) const {
    return static_cast<T>(whole_bounded(key, text, min, max_of<T>()));
  }

  /// DUR in nanoseconds, read from the front of `rest`.
  [[nodiscard]] std::int64_t read_duration(std::string_view key,
                                           std::string_view& rest) const;
  /// DUR of at least `min` ns filling all of `text`.
  [[nodiscard]] std::int64_t duration(std::string_view key,
                                      std::string_view text,
                                      std::int64_t min = 0) const;

  /// REAL within `range` filling all of `text`.
  [[nodiscard]] double real(std::string_view key, std::string_view text,
                            RealRange range) const;

  /// The table entry spelled `text`.
  template <typename E, std::size_t N>
  [[nodiscard]] E choice(std::string_view key, std::string_view text,
                         const Named<E> (&names)[N]) const {
    if (const std::optional<E> value = lookup(names, text)) return *value;
    std::string message(key);
    message.append(" wants ");
    for (std::size_t i = 0; i < N; ++i)
      message.append(i == 0 ? "" : "|").append(names[i].name);
    fail(message.append(", got '").append(text).append("'"));
  }

 private:
  template <typename T>
  static constexpr std::uint64_t max_of() noexcept {
    return static_cast<std::uint64_t>(std::numeric_limits<T>::max());
  }
  std::uint64_t read_bounded(std::string_view key, std::string_view& rest,
                             std::uint64_t min, std::uint64_t max) const;
  std::uint64_t whole_bounded(std::string_view key, std::string_view text,
                              std::uint64_t min, std::uint64_t max) const;

  std::string prefix_;
  Raise raise_;
};

}  // namespace isomer::spec
