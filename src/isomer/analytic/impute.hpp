// On-the-fly imputation: population statistics + missingness mechanics.
//
// The IM strategy (core/im.cpp, ROADMAP item 2) answers an assistant-check
// atom *locally* by estimating the missing attribute from the constituent
// population instead of shipping the check, when the estimate's confidence
// clears a threshold. This header holds everything above the core execution
// layer:
//
//   * ImputeSpec / parse_impute_spec — the `--impute=off|thresh=P[,mech=..]`
//     harness grammar, on the shared spec grammar (common/spec.hpp:
//     duplicate-key and out-of-range hard errors, canonical to_string with
//     parse(to_string(s)) == s);
//   * AttrEstimator — per-(global class, attribute) plug-in statistics:
//     count/null/absent tallies, mean, mode, median and the full empirical
//     value histogram, plus the missingness-mechanism evidence (the
//     same-class covariate whose median split shows the largest divergence
//     in missing rate);
//   * ImputeModel — built once per federation from the local extents (an
//     auxiliary replicated structure like the signature index: its
//     maintenance is not charged to any query), deciding per check atom
//     whether the null is *upgradable* under the declared mechanism and
//     with what verdict/confidence.
//
// The statistics are *entity-level*: each entity's isomeric objects are
// merged through the replicated GOid table exactly the way certification
// merges rows — an attribute counts as observed when any constituent stores
// a value, as null when some constituent defines it but every stored copy
// is null, as absent when no constituent of the entity defines it. That is
// the population a check verdict speaks about (the assistant answers from
// *its* copy), so per-slot tallies would systematically understate e.g.
// reference attributes, which are stored only where the referenced entity
// is co-located. Alongside the marginals, each estimator keeps two
// gap-conditional rates — among entities missing the attribute somewhere,
// how often does the merged view still have it? — because a check atom
// exists precisely because the value is missing at its home.
//
// Mechanism deconvolution: an observed null is either *canonical* (the
// entity genuinely has no value — e.g. a reference to nothing, which the
// complete-data answer also cannot navigate) or *injected* (the R_m
// value-null mechanism hid an existing value — restored in the clean twin).
// The two are indistinguishable on any single copy, but isomer pairs
// identify the injection rate: a null copy next to a non-null copy of the
// same entity is provably injected (the canonical value exists). From its
// own pair discordance each attribute estimates a per-copy injection rate r
// and splits its copy-null rate q = u + (1-u)r into the canonical null rate
// u = (q - r)/(1 - r). Verdict probabilities then target the *canonical*
// value — what the complete-data ground truth evaluates — so the model
// imputes through injected nulls while honestly reporting Unknown for
// canonically null references. Reference attributes never deconvolve: a
// null reference copy is structural (the entity's reference is the union of
// its copies — there is no hidden value a mechanism could have nulled), so
// they always use the observed entity-level rates, as does any attribute
// whose pair evidence is thinner than kMinInjectionTrials.
//
// Confidence semantics: every probability is Laplace-smoothed,
// p = (hits + 1) / (n + 2), so confidence = max(p, 1 - p) < 1 *strictly*.
// A threshold of 1.0 therefore never clears and IM degenerates to the
// plain BL residual-condition path bitwise — the property the 200-seed
// suite in tests/test_impute.cpp pins down.
//
// Mechanism semantics (MCAR vs MAR, cf. the missingness-mechanisms paper in
// PAPERS.md): under `mech=mcar` an attribute whose missing rate diverges
// across the covariate split by more than a fixed tolerance is *not*
// upgradable — the data refute the missing-completely-at-random assumption
// the marginal histogram needs. Under `mech=mar` the estimate instead comes
// from the stratum histogram matching the item's observed covariate value
// (missing-at-random given the observables), falling back to the marginal
// histogram when the covariate is itself unobserved or the stratum is thin.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "isomer/common/ids.hpp"
#include "isomer/common/truth.hpp"
#include "isomer/common/value.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/query/query.hpp"

namespace isomer {

class Federation;

/// Missingness mechanism the estimator is allowed to assume.
enum class ImputeMechanism : unsigned char { MCAR, MAR };

[[nodiscard]] std::string_view to_string(ImputeMechanism mech) noexcept;

/// Parsed `--impute` setting.
///
/// Grammar (all errors are hard ImputeError throws):
///   spec      := "off" | item ("," item)*
///   item      := "thresh=" REAL          (required; in [0, 1])
///              | "mech=" ("mcar"|"mar")  (optional; default mcar)
/// REAL and the once-per-key rule follow common/spec.hpp. `to_string`
/// re-prints the canonical form ("off", or "thresh=<%.17g>,mech=<m>") and
/// round-trips exactly.
struct ImputeSpec {
  bool enabled = false;
  /// Confidence an estimate must reach before the check is imputed away.
  /// Smoothed confidences are strictly below 1, so 1.0 (the default) never
  /// imputes — pure fallback to the certified path.
  double threshold = 1.0;
  ImputeMechanism mechanism = ImputeMechanism::MCAR;

  friend bool operator==(const ImputeSpec&, const ImputeSpec&) = default;
};

[[nodiscard]] ImputeSpec parse_impute_spec(std::string_view spec);
[[nodiscard]] std::string to_string(const ImputeSpec& spec);

/// Strict weak order over Values for histogram keys: by variant alternative,
/// then by the alternative's own ordering (exact, non-SQL: nulls compare
/// equal to each other and before everything else). NaN reals order after
/// every other real and equivalent to each other — a catalog may store
/// `real nan`, and the raw double `<` would not be a strict weak order.
///
/// Transparent over `Number`, the probe satisfying_count() searches a
/// single-kind numeric histogram with: a key is below the probe when its
/// as_number() is, exactly the numeric comparison compare_less makes.
struct ValueOrder {
  using is_transparent = void;
  struct Number {
    double x;
  };

  bool operator()(const Value& a, const Value& b) const {
    const Value::Storage& x = a.storage();
    const Value::Storage& y = b.storage();
    if (x.index() != y.index()) return x.index() < y.index();
    // Same kind. Ints and reals, the common keys, skip the variant visit.
    if (const auto* i = std::get_if<std::int64_t>(&x))
      return *i < *std::get_if<std::int64_t>(&y);
    if (const auto* d = std::get_if<double>(&x)) {
      const double e = *std::get_if<double>(&y);
      return std::isnan(e) ? !std::isnan(*d) : *d < e;
    }
    return x < y;
  }
  bool operator()(const Value& key, Number probe) const {
    return key.as_number() < probe.x;
  }
  bool operator()(Number probe, const Value& key) const {
    return probe.x < key.as_number();
  }
};

/// One histogram bucket: how many entities hold the value, and the running
/// count through it — every key up to and including this one in ValueOrder.
struct HistCount {
  std::uint64_t count = 0;
  std::uint64_t through = 0;
};

using ValueHistogram = std::map<Value, HistCount, ValueOrder>;

/// Fills every bucket's running count from the final counts (one pass).
void accumulate(ValueHistogram& hist);

/// How many of the histogram's entities satisfy `value op literal`, i.e.
/// have `apply(op, value, literal)` True — needs accumulate()d running
/// counts. Two ordered searches when the keys are all one kind (Int,
/// String, or Real without NaN) and the literal compares with them and is
/// not NaN; otherwise (bools, mixed kinds, null or NaN literals) the linear
/// apply() walk, which throws QueryError wherever apply() does.
[[nodiscard]] std::uint64_t satisfying_count(const ValueHistogram& hist,
                                             CompOp op, const Value& literal);

/// Pair evidence thinner than this leaves an attribute's injection rate
/// untrusted: the estimators then use the observed gap-conditional rates
/// instead of the deconvolved canonical ones.
inline constexpr std::uint64_t kMinInjectionTrials = 16;

/// Population statistics for one (global class, global attribute), at the
/// entity level (isomers merged through the GOid table — see the header
/// comment).
struct AttrEstimator {
  std::uint64_t observed = 0;  ///< entities with a stored non-null value
  std::uint64_t nulls = 0;     ///< defined somewhere, every stored copy null
  std::uint64_t absent = 0;    ///< no constituent of the entity defines it
  /// Plug-in point estimates over the observed values.
  double mean = 0.0;  ///< numeric attributes only (else 0)
  Value mode;         ///< most frequent observed value (null when none)
  std::uint64_t mode_count = 0;
  Value median;  ///< lower median of the observed distribution
  ValueHistogram histogram;

  /// Missingness-mechanism evidence: the same-class primitive covariate
  /// whose median split maximizes the divergence between the attribute's
  /// missing rates in the two buckets. No candidate (or no informative
  /// one) leaves `covariate` empty with divergence 0 — indistinguishable
  /// from MCAR.
  std::optional<std::size_t> covariate;
  Value covariate_split;   ///< lower median of the covariate
  double divergence = 0.0; ///< |missing-rate(lo) - missing-rate(hi)|
  /// The attribute's observed values stratified by the covariate bucket
  /// (0: covariate <= split, 1: covariate > split) — the MAR estimate.
  ValueHistogram stratum_hist[2];
  std::uint64_t stratum_n[2] = {0, 0};

  /// Gap-conditional evidence: the populations a check atom is actually
  /// drawn from (an atom exists because the value is missing at its home).
  std::uint64_t null_gap = 0;  ///< entities with a stored null somewhere
  std::uint64_t null_gap_nonnull = 0;  ///< ...whose merged value exists
  std::uint64_t absent_gap = 0;  ///< entities with a non-defining constituent
  std::uint64_t absent_gap_defined = 0;  ///< ...defined somewhere else

  /// Copy-level tallies feeding the mechanism deconvolution (see the header
  /// comment): stored copies across every entity, and how many are null.
  std::uint64_t copies = 0;
  std::uint64_t copies_null = 0;
  /// Injection-rate evidence: copies in entities holding two or more of
  /// them with at least one non-null (the canonical value provably exists,
  /// so every null copy there was injected), and the injected nulls seen.
  std::uint64_t inj_trials = 0;
  std::uint64_t inj_nulls = 0;
  /// Reference (ComplexType) attribute: nulls are structural, never
  /// deconvolved — see the header comment.
  bool complex_ref = false;

  /// Smoothed probability that the attribute is non-null where it exists.
  [[nodiscard]] double nonnull_rate() const noexcept {
    return (static_cast<double>(observed) + 1.0) /
           (static_cast<double>(observed + nulls) + 2.0);
  }
  /// Smoothed P(merged value exists | some constituent stored a null) —
  /// what a null reference at the home is worth: reference nulls are
  /// canonical (the entity points nowhere, or the child is not co-located),
  /// so the suffix below one resolves only as often as this.
  [[nodiscard]] double navigable_given_gap() const noexcept {
    return (static_cast<double>(null_gap_nonnull) + 1.0) /
           (static_cast<double>(null_gap) + 2.0);
  }
  /// Smoothed P(defined at some constituent | absent at one) — what a
  /// schema-level missing attribute at the home is worth: the entity's
  /// value exists only where an isomer at a defining database stores it
  /// (a stored-but-null copy counts as defined: the value-level null is
  /// the injected, imputable kind).
  [[nodiscard]] double recoverable_given_absent() const noexcept {
    return (static_cast<double>(absent_gap_defined) + 1.0) /
           (static_cast<double>(absent_gap) + 2.0);
  }

  /// Smoothed per-attribute per-copy injection rate r.
  [[nodiscard]] double injection_rate() const noexcept {
    return (static_cast<double>(inj_nulls) + 1.0) /
           (static_cast<double>(inj_trials) + 2.0);
  }
  /// Whether the deconvolved canonical estimates are trusted: never for
  /// references, and only on enough pair evidence.
  [[nodiscard]] bool injection_informed() const noexcept {
    return !complex_ref && inj_trials >= kMinInjectionTrials;
  }
  /// Smoothed per-copy observed null rate q = u + (1 - u) r.
  [[nodiscard]] double copy_null_rate() const noexcept {
    return (static_cast<double>(copies_null) + 1.0) /
           (static_cast<double>(copies) + 2.0);
  }
  /// The canonical null rate u deconvolved from q under the attribute's
  /// injection rate, clamped away from {0, 1} by the evidence's own
  /// smoothing floor so every derived probability stays strictly inside
  /// (0, 1).
  [[nodiscard]] double canonical_null_rate() const noexcept {
    const double floor = 1.0 / (static_cast<double>(copies) + 2.0);
    const double inj = injection_rate();
    const double u = (copy_null_rate() - inj) / (1.0 - inj);
    return std::clamp(u, floor, 1.0 - floor);
  }
  /// P(the canonical value exists): what a value reached through navigation
  /// is worth in the complete-data answer, where injected nulls are
  /// restored but canonical ones are not. Falls back to the observed
  /// entity-level rate when the deconvolution is untrusted.
  [[nodiscard]] double canonical_rate() const noexcept {
    return injection_informed() ? 1.0 - canonical_null_rate()
                                : nonnull_rate();
  }
  /// What a stored null at the atom's home is worth: the Bayes posterior
  /// P(canonically non-null | one observed-null copy) — a canonical null
  /// shows a null copy always, a canonical value only at the injection
  /// rate, so the posterior is (1-u) r / (u + (1-u) r) — or the observed
  /// gap-conditional rate when the deconvolution is untrusted.
  [[nodiscard]] double gap_rate() const noexcept {
    if (!injection_informed()) return navigable_given_gap();
    const double u = canonical_null_rate();
    const double inj = injection_rate();
    return ((1.0 - u) * inj) / (u + (1.0 - u) * inj);
  }
};

/// The federation-wide population model. Build cost is one scan per extent
/// plus one covariate pass; bench_micro's BM_ImputeModelBuild tracks it.
class ImputeModel final : public ImputeOracle {
 public:
  struct BuildStats {
    std::uint64_t objects_scanned = 0;
    std::uint64_t estimators = 0;
  };

  /// Scans every constituent extent and fits the per-attribute estimators
  /// and mechanism evidence. Deterministic in the federation contents.
  [[nodiscard]] static ImputeModel build(const Federation& federation);

  /// Federation::epoch() at build time: a model built against mutated data
  /// never upgrades (decide() reports not-upgradable on epoch mismatch).
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] const BuildStats& stats() const noexcept { return stats_; }

  /// The estimator for a global class attribute; nullptr when the class or
  /// attribute is unknown to the model.
  [[nodiscard]] const AttrEstimator* estimator(std::string_view global_class,
                                               std::size_t attr) const;

  /// ImputeOracle: decide one first-round check atom — the unsolved suffix
  /// of query.predicates[predicate] starting at `step` on `item`, planned
  /// by home database `home`. See the confidence/mechanism semantics in
  /// the header comment.
  [[nodiscard]] Decision decide(const Federation& federation,
                                const GlobalQuery& query, GOid item,
                                std::size_t predicate, std::size_t step,
                                DbId home, bool mar) const override;

  /// Population-level estimate of the fraction of nested (checkable)
  /// predicates the spec would clear — the planner's pricing input.
  [[nodiscard]] double clear_rate(const Federation& federation,
                                  const GlobalQuery& query,
                                  const ImputeSpec& spec) const;

 private:
  /// Estimators per global class, aligned with GlobalClass::def() attrs.
  std::map<std::string, std::vector<AttrEstimator>, std::less<>> by_class_;
  std::uint64_t epoch_ = 0;
  BuildStats stats_;
};

}  // namespace isomer
