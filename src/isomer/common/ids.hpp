// Strongly-typed identifiers used across the federation.
//
// The paper distinguishes three identifier spaces:
//   * a component database identifier (which site an object lives at),
//   * local object identifiers (LOids), unique only within one component
//     database and mutually incompatible across databases, and
//   * global object identifiers (GOids), assigned by the federation; isomeric
//     objects (same real-world entity in different databases) share one GOid.
//
// Strong typedefs keep these spaces from being mixed up at compile time.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <ostream>
#include <string>

namespace isomer {

/// CRTP-free strong integer id. `Tag` makes each instantiation a distinct
/// type; `Rep` is the underlying representation.
template <typename Tag, typename Rep = std::uint32_t>
class StrongId {
 public:
  using rep_type = Rep;

  constexpr StrongId() noexcept = default;
  constexpr explicit StrongId(Rep value) noexcept : value_(value) {}

  [[nodiscard]] constexpr Rep value() const noexcept { return value_; }

  friend constexpr auto operator<=>(StrongId, StrongId) noexcept = default;

 private:
  Rep value_{0};
};

template <typename Tag, typename Rep>
std::ostream& operator<<(std::ostream& os, StrongId<Tag, Rep> id) {
  return os << id.value();
}

/// Identifies one component database (site) in the federation.
using DbId = StrongId<struct DbIdTag, std::uint16_t>;

/// Global object identifier. Isomeric objects share the same GOid.
using GOid = StrongId<struct GOidTag, std::uint64_t>;

/// Local object identifier: unique within a single component database.
/// A LOid is meaningless without knowing which database issued it, so the
/// database id is part of the identifier, mirroring the paper's `t2'@DB2`
/// notation.
struct LOid {
  DbId db;
  std::uint32_t local{0};

  friend constexpr auto operator<=>(const LOid&, const LOid&) noexcept =
      default;
};

inline std::ostream& operator<<(std::ostream& os, const LOid& id) {
  return os << "o" << id.local << "@DB" << id.db.value();
}

[[nodiscard]] inline std::string to_string(const LOid& id) {
  // Appended piecewise: GCC 12 raises a false -Wrestrict on
  // `"literal" + std::to_string(...)` in optimized builds.
  std::string out = "o";
  out += std::to_string(id.local);
  out += "@DB";
  out += std::to_string(id.db.value());
  return out;
}

}  // namespace isomer

template <typename Tag, typename Rep>
struct std::hash<isomer::StrongId<Tag, Rep>> {
  std::size_t operator()(isomer::StrongId<Tag, Rep> id) const noexcept {
    return std::hash<Rep>{}(id.value());
  }
};

template <>
struct std::hash<isomer::LOid> {
  std::size_t operator()(const isomer::LOid& id) const noexcept {
    // Splitmix-style mix of the two fields; dbs are small so shifting the db
    // into the high bits keeps local ids from colliding across databases.
    const auto combined = (static_cast<std::uint64_t>(id.db.value()) << 32) |
                          static_cast<std::uint64_t>(id.local);
    std::uint64_t x = combined + 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return static_cast<std::size_t>(x ^ (x >> 31));
  }
};
