// Object signatures (paper §3 intro / §5 future work; Table 1's S_s,
// Table 2's R_ss).
//
// A signature is a fixed-size superimposed code (S_s = 32 bytes = 256 bits)
// over an object's attribute values: each (global attribute, value) pair
// hashes to k bit positions. The index is a replicated auxiliary structure,
// like the GOid mapping tables, so a home database can *screen* candidate
// assistant objects before shipping check requests:
//
//   * the (attr, literal) bits are present      -> may satisfy: ship it;
//   * the (attr, NULL) marker bits are present  -> may be null (Unknown):
//                                                  ship it — Unknown vs
//                                                  False must be resolved
//                                                  at the owning site;
//   * neither                                   -> provably violates the
//                                                  equality predicate: emit
//                                                  a local False verdict,
//                                                  no transfer.
//
// False positives in the filter only cause unnecessary transfers, never a
// wrong answer, so the signature variants return exactly the same results
// as BL/PL. Missing attributes are encoded like nulls (they make the
// predicate Unknown, not False).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "isomer/common/value.hpp"
#include "isomer/federation/federation.hpp"

namespace isomer {

/// One object's signature: 256 bits.
struct Signature {
  std::array<std::uint64_t, 4> bits{};

  void set(std::uint64_t position) noexcept {
    bits[(position >> 6) & 3] |= std::uint64_t{1} << (position & 63);
  }
  [[nodiscard]] bool contains(const Signature& mask) const noexcept {
    for (std::size_t i = 0; i < bits.size(); ++i)
      if ((bits[i] & mask.bits[i]) != mask.bits[i]) return false;
    return true;
  }
  [[nodiscard]] bool empty() const noexcept {
    return bits[0] == 0 && bits[1] == 0 && bits[2] == 0 && bits[3] == 0;
  }
  /// Every bit set: contains every mask, so it screens as MaybeSatisfies.
  [[nodiscard]] static constexpr Signature all() noexcept {
    return Signature{{~0ULL, ~0ULL, ~0ULL, ~0ULL}};
  }
};

/// Replicated signature index over every GOid-mapped object.
class SignatureIndex {
 public:
  /// Number of hash functions per token.
  static constexpr unsigned kHashes = 3;

  /// Builds signatures for all constituent objects of the federation, indexed
  /// by LOid, using global attribute names (so any site can screen any
  /// database's objects).
  [[nodiscard]] static SignatureIndex build(const Federation& federation);

  /// Screening outcome for an equality predicate `attr = literal`.
  enum class Screen {
    CannotSatisfy,  ///< provably violates: safe to report False locally
    MaybeSatisfies  ///< may satisfy or be null: must be checked at the owner
  };

  /// Screens object `obj` against `global_attr = literal`. Unindexed
  /// objects (a non-constituent class, an absent database, local 0, an id
  /// past the end) screen as MaybeSatisfies (no information). Charges one
  /// comparison to `meter`.
  [[nodiscard]] Screen screen(LOid obj, std::string_view global_attr,
                              const Value& literal,
                              AccessMeter* meter = nullptr) const;

  /// Number of indexed objects.
  [[nodiscard]] std::size_t size() const noexcept { return indexed_; }

  /// Token mask helpers, exposed for tests.
  [[nodiscard]] static Signature value_mask(std::string_view global_attr,
                                            const Value& value);
  [[nodiscard]] static Signature null_mask(std::string_view global_attr);

 private:
  /// signatures_[db][local]; slots of unindexed objects hold Signature::all().
  std::vector<std::vector<Signature>> signatures_;
  std::size_t indexed_ = 0;
};

}  // namespace isomer
