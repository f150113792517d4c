#include "isomer/analytic/planner.hpp"

#include <algorithm>
#include <sstream>

#include "isomer/analytic/advisor.hpp"
#include "isomer/core/exec_common.hpp"

namespace isomer {

PlanChoice plan_adaptive(const Federation& federation,
                         const GlobalQuery& query, const PlannerKnobs& knobs,
                         const SiteStatsBook* book) {
  AdvisorOptions advisor;
  advisor.costs = knobs.costs;
  advisor.sample_size = knobs.sample_size;
  advisor.seed = knobs.seed;
  advisor.jobs = knobs.jobs;
  advisor.batch = knobs.batch;
  const Advice advice = advise_strategy(federation, query, advisor);

  const CostParams& c = knobs.costs;
  const auto involved =
      involved_attributes(federation.schema(), query);

  PlanChoice choice;
  choice.ca_bytes = advice.estimates[0].bytes;  // exact catalog arithmetic
  choice.est_total_s = advice.estimates[0].total_s;
  choice.est_response_s = advice.estimates[0].response_s;
  for (const StrategyEstimate& estimate : advice.estimates) {
    choice.est_total_s = std::min(choice.est_total_s, estimate.total_s);
    choice.est_response_s =
        std::min(choice.est_response_s, estimate.response_s);
  }
  for (const AdvisorStats::PerDb& db : advice.stats.dbs) {
    SitePlanEstimate site;
    site.db = db.db;
    const double n = static_cast<double>(db.root_objects);
    const double rows = n * db.survive_rate;
    site.sampled_rows_bytes = rows * db.row_bytes;
    site.est_rows_bytes = site.sampled_rows_bytes;
    if (book != nullptr) {
      if (const auto observed = book->rows_bytes(db.db)) {
        site.est_rows_bytes = *observed;
        site.from_book = true;
      }
    }
    site.extent_bytes = static_cast<double>(
        detail::ca_projected_bytes(federation, db.db, involved, c));
    site.path = site.extent_bytes < site.est_rows_bytes
                    ? SitePath::Central
                    : SitePath::Localized;
    // Check traffic rides either path identically (lazy protocol).
    const double tasks =
        rows * db.nested_items_per_row * db.assistants_per_item;
    choice.check_bytes +=
        tasks * (advice.stats.task_bytes +
                 static_cast<double>(c.verdict_bytes()));
    choice.localized_bytes += site.est_rows_bytes;
    choice.hybrid_bytes += std::min(site.est_rows_bytes, site.extent_bytes);
    choice.sites.push_back(site);
  }
  choice.localized_bytes += choice.check_bytes;
  choice.hybrid_bytes += choice.check_bytes;

  // IM pricing: rows ship like BL, but the population model answers a
  // clear_rate fraction of the check atoms locally, discounting the check
  // traffic. Estimated answers are not exact, so IM must win *strictly*
  // before the planner trades certainty for wire bytes.
  const bool im_enabled =
      knobs.impute_model != nullptr && knobs.impute_spec.enabled;
  if (im_enabled) {
    choice.im_clear_rate =
        knobs.impute_model->clear_rate(federation, query, knobs.impute_spec);
    choice.im_bytes = choice.localized_bytes -
                      choice.check_bytes * choice.im_clear_rate;
  }

  const bool any_central = std::any_of(
      choice.sites.begin(), choice.sites.end(),
      [](const SitePlanEstimate& s) { return s.path == SitePath::Central; });
  std::ostringstream rationale;
  rationale.setf(std::ios::fixed);
  rationale.precision(1);
  if (im_enabled && choice.im_clear_rate > 0 &&
      choice.im_bytes < choice.localized_bytes &&
      choice.im_bytes < choice.hybrid_bytes &&
      choice.im_bytes < choice.ca_bytes) {
    choice.plan = ExecPlan::pure(StrategyKind::IM);
    rationale << "population model clears "
              << choice.im_clear_rate * 100.0
              << "% of check traffic at thresh="
              << knobs.impute_spec.threshold << " -> pure IM (~"
              << choice.im_bytes / 1e3 << "KB vs BL ~"
              << choice.localized_bytes / 1e3 << "KB)";
  } else if (!any_central) {
    // Rows win everywhere: the pure localized strategy (bitwise BL).
    choice.plan = ExecPlan::pure(StrategyKind::BL);
    rationale << "every home site ships fewer row bytes than extent bytes"
              << " -> pure BL (~" << choice.localized_bytes / 1e3 << "KB)";
  } else if (choice.ca_bytes <= choice.hybrid_bytes &&
             choice.ca_bytes <= choice.localized_bytes) {
    // Shipping everything (including branch extents, which the hybrid
    // Central path replaces with check traffic) is cheapest outright.
    choice.plan = ExecPlan::pure(StrategyKind::CA);
    rationale << "full extent shipping (~" << choice.ca_bytes / 1e3
              << "KB) undercuts rows+checks (~"
              << choice.localized_bytes / 1e3 << "KB) -> pure CA";
  } else {
    choice.plan.label = StrategyKind::BL;  // Localized homes run lazy BL
    choice.plan.hybrid = true;
    choice.plan.switch_factor = knobs.switch_factor;
    for (const SitePlanEstimate& site : choice.sites)
      choice.plan.sites.push_back(SiteAssignment{
          site.db, site.path, site.est_rows_bytes, site.extent_bytes});
    std::size_t central = 0;
    for (const SitePlanEstimate& site : choice.sites)
      if (site.path == SitePath::Central) ++central;
    rationale << central << "/" << choice.sites.size()
              << " home sites ship their extent, the rest ship rows -> "
              << "hybrid (~" << choice.hybrid_bytes / 1e3 << "KB vs CA ~"
              << choice.ca_bytes / 1e3 << "KB, BL ~"
              << choice.localized_bytes / 1e3 << "KB)";
  }
  choice.rationale = rationale.str();
  return choice;
}

}  // namespace isomer
