#include "isomer/analytic/impute.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "isomer/common/error.hpp"
#include "isomer/common/spec.hpp"
#include "isomer/federation/federation.hpp"
#include "isomer/query/query.hpp"

namespace isomer {

namespace {

/// MCAR gate: a missing rate diverging across the covariate split by more
/// than this refutes missing-completely-at-random, so the marginal estimate
/// would be biased and the null stays un-upgradable under mech=mcar.
constexpr double kMcarTolerance = 0.2;
/// A MAR stratum with fewer observations than this falls back to the
/// marginal histogram — a handful of values is noise, not a distribution.
constexpr std::uint64_t kMinStratum = 8;

constexpr spec::Named<ImputeMechanism> kMechanisms[] = {
    {"mcar", ImputeMechanism::MCAR}, {"mar", ImputeMechanism::MAR}};

/// Covariate bucket of a value relative to the split: 0 for `v <= split`,
/// 1 for `v > split`, under the exact ValueOrder (total over every kind,
/// unlike three-valued compare_less which refuses e.g. bools).
std::size_t bucket_of(const Value& split, const Value& v) {
  return ValueOrder{}(split, v) ? 1 : 0;
}

/// Smoothed probability that a value drawn from the histogram satisfies the
/// predicate's comparison: (sat + 1) / (n + 2). An empty histogram (e.g. a
/// complex terminal attribute, never histogrammed) degenerates to 1/2 —
/// maximally uninformative, never confident.
double satisfaction_rate(const ValueHistogram& hist, const Predicate& pred) {
  const std::uint64_t n = hist.empty() ? 0 : hist.rbegin()->second.through;
  const std::uint64_t sat = satisfying_count(hist, pred.op, pred.literal);
  return (static_cast<double>(sat) + 1.0) / (static_cast<double>(n) + 2.0);
}

}  // namespace

void accumulate(ValueHistogram& hist) {
  std::uint64_t through = 0;
  for (auto& [value, bucket] : hist) bucket.through = through += bucket.count;
}

std::uint64_t satisfying_count(const ValueHistogram& hist, CompOp op,
                               const Value& literal) {
  if (hist.empty()) return 0;
  // ValueOrder sorts by kind first, so equal first and last kinds mean one
  // kind throughout, and a NaN real key would be the last one.
  const Value& low = hist.begin()->first;
  const Value& high = hist.rbegin()->first;
  const bool one_kind = low.kind() == high.kind();
  const bool numbers = one_kind && low.is_numeric() && literal.is_numeric() &&
                       !std::isnan(high.as_number()) &&
                       !std::isnan(literal.as_number());
  const bool strings = one_kind && low.kind() == ValueKind::String &&
                       literal.kind() == ValueKind::String;
  if (!numbers && !strings) {
    std::uint64_t sat = 0;
    for (const auto& [value, bucket] : hist)
      if (is_true(apply(op, value, literal))) sat += bucket.count;
    return sat;
  }

  // Entities strictly below the bucket `it` starts at (n at the end).
  const std::uint64_t n = hist.rbegin()->second.through;
  const auto below = [&](ValueHistogram::const_iterator it) {
    return it == hist.end() ? n : it->second.through - it->second.count;
  };
  // lt: compare_less(value, literal); gt: compare_less(literal, value).
  std::uint64_t lt = 0, gt = 0;
  const auto rank = [&](const auto& probe) {
    lt = below(hist.lower_bound(probe));
    gt = n - below(hist.upper_bound(probe));
  };
  if (numbers)
    rank(ValueOrder::Number{literal.as_number()});
  else
    rank(literal);
  const std::uint64_t eq = n - lt - gt;
  // apply()'s definitions (query/query.cpp), counted.
  switch (op) {
    case CompOp::Eq:
      return eq;
    case CompOp::Ne:
      return n - eq;
    case CompOp::Lt:
      return lt;
    case CompOp::Ge:
      return n - lt;
    case CompOp::Gt:
      return gt;
    case CompOp::Le:
      return n - gt;
  }
  return 0;
}

std::string_view to_string(ImputeMechanism mech) noexcept {
  return spec::name_of(kMechanisms, mech);
}

ImputeSpec parse_impute_spec(std::string_view text) {
  const spec::Reader in("--impute spec", text, spec::raise<ImputeError>);
  if (text == "off") return ImputeSpec{};

  ImputeSpec out;
  out.enabled = true;
  bool has_threshold = false;
  for (const auto& [key, value] : in.items(text)) {
    if (key == "thresh") {
      out.threshold = in.real(key, value, spec::kUnitInterval);
      has_threshold = true;
    } else if (key == "mech") {
      out.mechanism = in.choice(key, value, kMechanisms);
    } else {
      in.fail("unknown key '" + std::string(key) + "'");
    }
  }
  if (!has_threshold) in.fail("missing required key 'thresh'");
  return out;
}

std::string to_string(const ImputeSpec& spec) {
  if (!spec.enabled) return "off";
  return "thresh=" + spec::real_string(spec.threshold) +
         ",mech=" + std::string(to_string(spec.mechanism));
}

ImputeModel ImputeModel::build(const Federation& federation) {
  ImputeModel model;
  model.epoch_ = federation.epoch();
  const GoidTable& goids = federation.goids();
  for (const GlobalClass& gc : federation.schema().classes()) {
    const ClassDef& def = gc.def();
    const std::size_t attrs = def.attribute_count();
    std::vector<AttrEstimator> est(attrs);
    for (std::size_t a = 0; a < attrs; ++a)
      est[a].complex_ref =
          std::holds_alternative<ComplexType>(def.attribute(a).type);

    // Per-constituent resolution: the database plus the global-attribute ->
    // local-slot map (nullopt when that constituent holds the attribute as
    // schema-level missing). The Federation constructor guarantees every
    // isomer lives in its database's constituent class, so a directory
    // fetch lands in that class's extent.
    struct View {
      const ComponentDatabase* db;
      std::vector<std::optional<std::size_t>> slot;
    };
    std::vector<View> views;
    views.reserve(gc.constituents().size());
    for (std::size_t ci = 0; ci < gc.constituents().size(); ++ci) {
      const Constituent& cons = gc.constituents()[ci];
      View view;
      view.db = &federation.db(cons.db);
      const ClassDef& local_class = view.db->extent(cons.local_class).cls();
      view.slot.resize(attrs);
      for (std::size_t a = 0; a < attrs; ++a) {
        const std::optional<std::string>& local = gc.local_attr(ci, a);
        if (local.has_value())
          view.slot[a] = local_class.find_attribute(*local);
      }
      views.push_back(std::move(view));
    }

    // Entity-level visitor: outerjoin each entity's isomers through the
    // GOid table exactly the way certification merges rows (ascending DbId,
    // first non-null wins), exposing the merged value plus the per-attr gap
    // flags. Buffers are reused across entities.
    std::vector<Value> merged(attrs);
    std::vector<unsigned char> defined(attrs);
    std::vector<unsigned char> null_at(attrs);
    std::vector<unsigned char> absent_at(attrs);
    std::vector<std::uint32_t> copy_total(attrs);
    std::vector<std::uint32_t> copy_null(attrs);
    const auto each_entity = [&](bool count_scan, auto&& visit) {
      for (const GOid entity : goids.entities_of(gc.name())) {
        std::fill(merged.begin(), merged.end(), Value{});
        std::fill(defined.begin(), defined.end(), 0);
        std::fill(null_at.begin(), null_at.end(), 0);
        std::fill(absent_at.begin(), absent_at.end(), 0);
        std::fill(copy_total.begin(), copy_total.end(), 0);
        std::fill(copy_null.begin(), copy_null.end(), 0);
        for (const LOid& isomer : goids.isomers_of(entity)) {
          const std::optional<std::size_t> ci = gc.constituent_in(isomer.db);
          if (!ci.has_value()) continue;
          const View& view = views[*ci];
          const Object* obj = view.db->fetch(isomer);
          if (obj == nullptr) continue;
          if (count_scan) ++model.stats_.objects_scanned;
          for (std::size_t a = 0; a < attrs; ++a) {
            if (!view.slot[a].has_value()) {
              absent_at[a] = 1;
              continue;
            }
            defined[a] = 1;
            ++copy_total[a];
            const Value& v = obj->value(*view.slot[a]);
            if (v.is_null()) {
              null_at[a] = 1;
              ++copy_null[a];
            } else if (merged[a].is_null()) {
              merged[a] = v;
            }
          }
        }
        visit();
      }
    };

    // Pass 1: entity-level marginal and gap tallies — counts, histograms,
    // numeric sums over the merged values.
    std::vector<double> sums(attrs, 0.0);
    std::vector<std::uint64_t> numeric_n(attrs, 0);
    each_entity(true, [&] {
      for (std::size_t a = 0; a < attrs; ++a) {
        if (!defined[a]) {
          ++est[a].absent;
        } else if (merged[a].is_null()) {
          ++est[a].nulls;
        } else {
          ++est[a].observed;
          if (merged[a].is_primitive()) {
            ++est[a].histogram[merged[a]].count;
            if (merged[a].is_numeric()) {
              sums[a] += merged[a].as_number();
              ++numeric_n[a];
            }
          }
        }
        if (null_at[a]) {
          ++est[a].null_gap;
          if (!merged[a].is_null()) ++est[a].null_gap_nonnull;
        }
        if (absent_at[a]) {
          ++est[a].absent_gap;
          if (defined[a]) ++est[a].absent_gap_defined;
        }
        est[a].copies += copy_total[a];
        est[a].copies_null += copy_null[a];
        // Injection-rate evidence: with two or more stored copies and at
        // least one non-null among them, the canonical value provably
        // exists, so every null copy here was injected. Single-copy
        // entities are excluded — conditioning on "some copy non-null"
        // would make their contribution identically zero and bias r down.
        if (copy_total[a] >= 2 && copy_null[a] < copy_total[a]) {
          est[a].inj_trials += copy_total[a];
          est[a].inj_nulls += copy_null[a];
        }
      }
    });

    // Plug-in point estimates off the histograms.
    for (std::size_t a = 0; a < attrs; ++a) {
      if (numeric_n[a] > 0)
        est[a].mean = sums[a] / static_cast<double>(numeric_n[a]);
      std::uint64_t total = 0;
      for (const auto& [value, bucket] : est[a].histogram) {
        total += bucket.count;
        if (bucket.count > est[a].mode_count) {
          est[a].mode = value;
          est[a].mode_count = bucket.count;
        }
      }
      if (total > 0) {
        const std::uint64_t target = (total - 1) / 2;  // lower median
        std::uint64_t cumulative = 0;
        for (const auto& [value, bucket] : est[a].histogram) {
          cumulative += bucket.count;
          if (cumulative > target) {
            est[a].median = value;
            break;
          }
        }
      }
    }

    // Pass 2: mechanism evidence. For every (attribute, primitive covariate)
    // pair, count the entities with a stored null at the attribute (the
    // injectable, imputable gap) in the two buckets of the covariate's
    // median split; the covariate with the largest missing-rate divergence
    // becomes the attribute's mechanism witness.
    std::vector<std::size_t> candidates;
    for (std::size_t c = 0; c < attrs; ++c)
      if (std::holds_alternative<PrimType>(def.attribute(c).type) &&
          !est[c].histogram.empty())
        candidates.push_back(c);
    // counters[a * attrs + c] = {miss_lo, total_lo, miss_hi, total_hi}.
    std::vector<std::array<std::uint64_t, 4>> counters(
        attrs * attrs, std::array<std::uint64_t, 4>{});
    if (!candidates.empty()) {
      each_entity(false, [&] {
        for (const std::size_t c : candidates) {
          if (merged[c].is_null()) continue;
          const std::size_t b = bucket_of(est[c].median, merged[c]);
          for (std::size_t a = 0; a < attrs; ++a) {
            if (a == c || !defined[a]) continue;
            auto& cell = counters[a * attrs + c];
            ++cell[2 * b + 1];
            if (null_at[a]) ++cell[2 * b];
          }
        }
      });
      for (std::size_t a = 0; a < attrs; ++a) {
        for (const std::size_t c : candidates) {
          if (a == c) continue;
          const auto& cell = counters[a * attrs + c];
          if (cell[1] == 0 || cell[3] == 0) continue;
          const double divergence =
              std::abs(static_cast<double>(cell[0]) /
                           static_cast<double>(cell[1]) -
                       static_cast<double>(cell[2]) /
                           static_cast<double>(cell[3]));
          if (divergence > est[a].divergence) {
            est[a].divergence = divergence;
            est[a].covariate = c;
            est[a].covariate_split = est[c].median;
          }
        }
      }
    }

    // Pass 3: stratified value histograms for the chosen covariates — the
    // MAR estimate's conditional distribution.
    bool any_covariate = false;
    for (std::size_t a = 0; a < attrs; ++a)
      any_covariate = any_covariate || est[a].covariate.has_value();
    if (any_covariate) {
      each_entity(false, [&] {
        for (std::size_t a = 0; a < attrs; ++a) {
          if (!est[a].covariate.has_value()) continue;
          const std::size_t c = *est[a].covariate;
          if (merged[a].is_null() || !merged[a].is_primitive() ||
              merged[c].is_null())
            continue;
          const std::size_t b = bucket_of(est[a].covariate_split, merged[c]);
          ++est[a].stratum_hist[b][merged[a]].count;
          ++est[a].stratum_n[b];
        }
      });
    }

    // Running counts, so decide() ranks a literal in two searches.
    for (AttrEstimator& e : est) {
      accumulate(e.histogram);
      accumulate(e.stratum_hist[0]);
      accumulate(e.stratum_hist[1]);
    }

    model.stats_.estimators += attrs;
    model.by_class_.emplace(gc.name(), std::move(est));
  }
  return model;
}

const AttrEstimator* ImputeModel::estimator(std::string_view global_class,
                                            std::size_t attr) const {
  const auto it = by_class_.find(global_class);
  if (it == by_class_.end() || attr >= it->second.size()) return nullptr;
  return &it->second[attr];
}

ImputeOracle::Decision ImputeModel::decide(const Federation& federation,
                                           const GlobalQuery& query,
                                           GOid item, std::size_t predicate,
                                           std::size_t step, DbId home,
                                           bool mar) const {
  Decision out;  // not upgradable until proven otherwise
  if (federation.epoch() != epoch_) return out;
  if (predicate >= query.predicates.size()) return out;
  const Predicate& pred = query.predicates[predicate];
  const ResolvedPath resolved =
      resolve_path(federation.schema().lookup(), query.range_class, pred.path);
  if (step >= resolved.steps.size()) return out;
  const std::size_t last = resolved.steps.size() - 1;

  // The attribute actually missing at the home: the mechanism evidence
  // gates on it, and its covariate is what the home can observe locally.
  const AttrEstimator* first =
      estimator(resolved.steps[step].class_name, resolved.steps[step].attr_index);
  if (first == nullptr) return out;
  if (!mar && first->divergence > kMcarTolerance) return out;

  // Does the home's constituent define the missing attribute? A defined
  // slot means the gap is a stored null; an undefined slot is schema-level
  // absence, recoverable only where another isomer defines it.
  const GlobalClass* first_gc =
      federation.schema().find_class(resolved.steps[step].class_name);
  if (first_gc == nullptr) return out;
  const std::optional<std::size_t> home_ci = first_gc->constituent_in(home);
  const bool home_defines =
      home_ci.has_value() &&
      first_gc->local_attr(*home_ci, resolved.steps[step].attr_index)
          .has_value();

  // The atom's canonical truth is *three*-valued, and the estimate must be
  // too: a canonically-null reference on the suffix makes the predicate
  // Unknown (the assistants would report Unknown, the complete-data answer
  // keeps the row maybe), never False. So the model first prices
  //   p_resolve = P(the suffix is canonically decided): every step's value
  //               canonically non-null — the gap step conditioned on the
  //               kind of gap the home actually has (the Bayes posterior of
  //               a stored null, or the recovery rate of a schema absence),
  //               deeper steps at the deconvolved canonical marginal;
  // and splits the remainder by the terminal's satisfaction rate:
  //   P(True) = p_resolve x sat,  P(False) = p_resolve x (1 - sat),
  //   P(Unknown) = 1 - p_resolve.
  // Canonical rates, not observed ones: the ground truth the verdict is
  // scored against is the complete-data twin, where injected nulls are
  // restored and only canonical nulls survive. With each attribute's
  // injection rate identified from isomer pairs (header comment), a
  // mostly-injected attribute (a value null under R_m) imputes near its
  // satisfaction rate while a structurally null one (a reference to
  // nothing) honestly stays Unknown. An imputed Unknown still strips the
  // check from the wire: it predicts the protocol would come back
  // undecided, and the row keeps the exact maybe status BL would have
  // produced after paying for the round trip.
  double p_resolve = 1.0;
  for (std::size_t s = step; s <= last; ++s) {
    const AttrEstimator* e =
        estimator(resolved.steps[s].class_name, resolved.steps[s].attr_index);
    if (e == nullptr) return out;
    if (s == step)
      p_resolve *= home_defines
                       ? e->gap_rate()
                       : e->recoverable_given_absent() * e->canonical_rate();
    else
      p_resolve *= e->canonical_rate();
  }
  const AttrEstimator* terminal =
      estimator(resolved.steps[last].class_name, resolved.steps[last].attr_index);
  if (terminal == nullptr) return out;

  // MAR stratification applies when the missing attribute *is* the terminal
  // (the item's own class carries both it and the covariate): read the
  // item's covariate from the home's local object and switch to the
  // matching stratum, unless that stratum is too thin to trust.
  const ValueHistogram* hist = &terminal->histogram;
  if (mar && step == last && first->covariate.has_value()) {
    const std::optional<LOid> local =
        federation.goids().loid_in(item, home);
    if (local.has_value() && home_ci.has_value()) {
      const std::optional<std::string>& local_name =
          first_gc->local_attr(*home_ci, *first->covariate);
      if (local_name.has_value()) {
        const ComponentDatabase& db = federation.db(home);
        const ClassDef& local_class =
            db.extent(first_gc->constituents()[*home_ci].local_class).cls();
        const std::optional<std::size_t> slot =
            local_class.find_attribute(*local_name);
        // An item of another global class has its home object in another
        // extent: no covariate to read.
        const ResolvedObject held = db.resolve(*local);
        const Object* obj =
            slot.has_value() && held.cls == &local_class ? held.obj : nullptr;
        if (obj != nullptr && !obj->value(*slot).is_null()) {
          const std::size_t b =
              bucket_of(first->covariate_split, obj->value(*slot));
          if (first->stratum_n[b] >= kMinStratum)
            hist = &first->stratum_hist[b];
        }
      }
    }
  }

  const double sat = satisfaction_rate(*hist, pred);
  const double p_true = p_resolve * sat;
  const double p_false = p_resolve * (1.0 - sat);
  const double p_unknown = 1.0 - p_resolve;

  out.upgradable = true;
  if (p_true >= p_false && p_true >= p_unknown) {
    out.verdict = Truth::True;
    out.confidence = p_true;
  } else if (p_false >= p_unknown) {
    out.verdict = Truth::False;
    out.confidence = p_false;
  } else {
    out.verdict = Truth::Unknown;
    out.confidence = p_unknown;
  }
  return out;
}

double ImputeModel::clear_rate(const Federation& federation,
                               const GlobalQuery& query,
                               const ImputeSpec& spec) const {
  if (!spec.enabled || federation.epoch() != epoch_) return 0.0;
  std::uint64_t considered = 0, cleared = 0;
  for (const Predicate& pred : query.predicates) {
    const ResolvedPath resolved = resolve_path(
        federation.schema().lookup(), query.range_class, pred.path);
    const std::size_t last = resolved.steps.size() - 1;
    // Root-level (step 0) missing attributes are decided by the row pool,
    // never by check traffic; only deeper steps generate the atoms IM can
    // replace, so only they enter the pricing estimate.
    for (std::size_t step = 1; step < resolved.steps.size(); ++step) {
      const GlobalClass* gc =
          federation.schema().find_class(resolved.steps[step].class_name);
      if (gc == nullptr) continue;
      // Two atom populations feed this step: homes whose constituent lacks
      // the attribute outright (schema absence) and homes holding a stored
      // null (the injected kind, witnessed by the model's null_gap tally).
      bool absent_somewhere = false;
      for (std::size_t ci = 0;
           !absent_somewhere && ci < gc->constituents().size(); ++ci)
        absent_somewhere =
            gc->is_missing(ci, resolved.steps[step].attr_index);
      const AttrEstimator* first = estimator(
          resolved.steps[step].class_name, resolved.steps[step].attr_index);
      if (first == nullptr) continue;
      const bool null_somewhere = first->null_gap > 0;
      if (!absent_somewhere && !null_somewhere) continue;
      const std::uint64_t variants = (absent_somewhere ? 1u : 0u) +
                                     (null_somewhere ? 1u : 0u);
      considered += variants;
      if (spec.mechanism == ImputeMechanism::MCAR &&
          first->divergence > kMcarTolerance)
        continue;  // considered, never cleared

      // Suffix factors shared by both variants: the deeper steps' canonical
      // navigability and the terminal's satisfaction rate (decide()'s rate
      // choices, at the population level).
      double tail_nav = 1.0;
      bool known = true;
      for (std::size_t s = step + 1; s <= last && known; ++s) {
        const AttrEstimator* e = estimator(resolved.steps[s].class_name,
                                           resolved.steps[s].attr_index);
        known = e != nullptr;
        if (known) tail_nav *= e->canonical_rate();
      }
      const AttrEstimator* terminal = estimator(
          resolved.steps[last].class_name, resolved.steps[last].attr_index);
      if (!known || terminal == nullptr) continue;
      const double sat = satisfaction_rate(terminal->histogram, pred);

      // decide()'s three-way split: the atom clears when its most likely
      // verdict (True / False / Unknown) reaches the threshold.
      const auto clears = [&](bool home_defines) {
        double p_resolve = tail_nav;
        if (home_defines)
          p_resolve *= first->gap_rate();
        else
          p_resolve *= first->recoverable_given_absent() *
                       first->canonical_rate();
        const double best = std::max({p_resolve * sat, p_resolve * (1.0 - sat),
                                      1.0 - p_resolve});
        return best >= spec.threshold;
      };
      if (null_somewhere && clears(true)) ++cleared;
      if (absent_somewhere && clears(false)) ++cleared;
    }
  }
  return considered == 0
             ? 0.0
             : static_cast<double>(cleared) / static_cast<double>(considered);
}

}  // namespace isomer
