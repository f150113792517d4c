#include "isomer/serve/planner.hpp"

#include "isomer/common/error.hpp"
#include "isomer/common/spec.hpp"

namespace isomer::serve {

namespace {

constexpr spec::Named<PlanMode> kPlanModes[] = {
    {"static", PlanMode::Static},
    {"adaptive", PlanMode::Adaptive},
    {"hybrid", PlanMode::Hybrid}};

}  // namespace

std::string_view to_string(PlanMode mode) noexcept {
  return spec::name_of(kPlanModes, mode);
}

PlanMode parse_plan_mode(std::string_view text) {
  return spec::Reader("--plan value", text, spec::raise<ServeError>)
      .choice("plan", text, kPlanModes);
}

std::vector<ServeRequest> plan_pool(const Federation& federation,
                                    const std::vector<GlobalQuery>& pool,
                                    const PlannerOptions& options) {
  std::vector<ServeRequest> requests;
  requests.reserve(pool.size());

  if (options.mode != PlanMode::Static) {
    // Per-site planning. The knobs inherit the advisor's arithmetic so
    // static and adaptive runs price from identical samples.
    auto knobs = std::make_shared<PlannerKnobs>();
    knobs->costs = options.advisor.costs;
    knobs->sample_size = options.advisor.sample_size;
    knobs->seed = options.advisor.seed;
    knobs->jobs = options.advisor.jobs;
    knobs->batch = options.advisor.batch;
    knobs->switch_factor =
        options.mode == PlanMode::Hybrid ? options.knobs.switch_factor : 0;
    for (const GlobalQuery& query : pool) {
      const PlanChoice choice =
          plan_adaptive(federation, query, *knobs, options.book);
      ServeRequest request;
      request.query = query;
      request.kind = choice.plan.label;
      request.predicted_cost_s = options.optimize_response
                                     ? choice.est_response_s
                                     : choice.est_total_s;
      request.plan = std::make_shared<const ExecPlan>(choice.plan);
      // A serve() run with a stats book re-plans at launch from observed
      // payloads; without a book the up-front plan above runs as-is.
      request.replan = knobs;
      requests.push_back(std::move(request));
    }
    return requests;
  }

  for (const GlobalQuery& query : pool) {
    const Advice advice = advise_strategy(federation, query, options.advisor);
    ServeRequest request;
    request.query = query;
    request.kind =
        options.optimize_response ? advice.best_response : advice.best_total;
    for (const StrategyEstimate& estimate : advice.estimates) {
      if (estimate.kind != request.kind) continue;
      request.predicted_cost_s =
          options.optimize_response ? estimate.response_s : estimate.total_s;
      break;
    }
    requests.push_back(std::move(request));
  }
  return requests;
}

std::vector<ServeRequest> tag_tenants(const std::vector<ServeRequest>& pool,
                                      const std::vector<TenantSpec>& tenants) {
  if (tenants.empty())
    throw ServeError("tag_tenants wants at least one tenant");
  for (const ServeRequest& request : pool)
    if (!request.tenant.empty())
      throw ServeError("tag_tenants wants an untagged pool, found tenant '" +
                       request.tenant + "'");
  std::vector<ServeRequest> tagged;
  tagged.reserve(pool.size() * tenants.size());
  for (const TenantSpec& tenant : tenants)
    for (const ServeRequest& request : pool) {
      tagged.push_back(request);
      tagged.back().tenant = tenant.id;
    }
  return tagged;
}

}  // namespace isomer::serve
