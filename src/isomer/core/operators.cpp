// Plan execution: composing the phase operators (operators.hpp).
//
// Pure plans delegate to the monolithic compositions in ca.cpp / bl.cpp and
// are bitwise identical to the pre-refactor executors. Hybrid plans walk
// ExecPlan::sites and launch one per-home pipeline each:
//
//   Localized home:  ShipLocalQuery -> LocalFilter -> AssistantLookup
//                    -> [maybe_switch_to_central] -> ShipRows
//   Central home:    CA_G1 request -> RetrieveExtent -> HY_G1 evaluate
//                    (global, phase P) -> HY_G2 assistant lookup (global,
//                    phase O) -> integrate
//
// Both feed the same GlobalState; Certify (G2, phase I) fires when every
// home's rows and every announced verdict have arrived — the global site
// cannot tell which path delivered a home's evidence. The switch rule and
// the cost model behind it are documented in docs/PLANNING.md.
#include <memory>

#include "isomer/core/operators.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/schema/translate.hpp"

namespace isomer::detail {

namespace {

/// HY_G1: evaluate the shipped extent at the global site (phase P). The
/// extent sits in memory after the transfer, so the evaluation's page reads
/// cost nothing — comparisons and mapping probes are CPU, the raw fetch
/// counts enter the work aggregate like CA's materialization does.
void central_evaluate(const std::shared_ptr<OperatorContext>& ctx,
                      const std::shared_ptr<HomeRun>& run,
                      Simulator::Callback then) {
  ExecEnv& env = ctx->env;
  run->exec = run_local_query(env.fed(), env.query(), run->home,
                              env.options().indexes);
  if (run->decision != nullptr) {
    run->decision->executed = SitePath::Central;
    run->decision->observed_rows_bytes =
        static_cast<double>(rows_wire_bytes(env.costs(), run->exec.rows));
    run->decision->rows = run->exec.rows.size();
  }
  AccessMeter cpu_only;
  cpu_only.comparisons =
      run->exec.meter.comparisons + run->exec.meter.table_probes;
  AccessMeter rest = run->exec.meter;
  rest.comparisons = 0;
  rest.table_probes = 0;
  env.aggregate(rest);
  SpanCounts counts;
  counts.objects_in = run->exec.considered;
  counts.objects_out = run->exec.rows.size();
  env.charge(kGlobalSite, cpu_only, Phase::P, "HY_G1 evaluate shipped extent",
             counts, std::move(then));
}

/// HY_G2 + integrate: plan checks for the evaluated rows at the global site
/// (its replicated GOid tables answer the probes), dispatch them, and fold
/// the home's evidence into the global state. Signature verdicts are
/// produced right here at the global site, so they are announced and
/// received in the same breath — no wire.
void central_lookup_and_integrate(const std::shared_ptr<OperatorContext>& ctx,
                                  const std::shared_ptr<HomeRun>& run) {
  ExecEnv& env = ctx->env;
  std::vector<UnsolvedItem> items = unsolved_items_of_rows(run->exec.rows);
  const auto items_in = static_cast<std::uint64_t>(items.size());
  auto plan = std::make_shared<CheckPlan>(plan_checks(
      env.fed(), env.query(), run->home, items, ctx->signatures));
  SpanCounts counts;
  counts.objects_in = items_in;
  counts.objects_out = plan->task_count();
  env.charge(kGlobalSite, plan->meter, Phase::O, "HY_G2 assistant lookup",
             counts, [ctx, run, plan] {
               ctx->protocol->dispatch(kGlobalSite, *plan);
               GlobalState& state = *ctx->state;
               state.verdicts_announced += plan->local_verdicts.size();
               state.verdicts_received += plan->local_verdicts.size();
               state.verdicts.insert(state.verdicts.end(),
                                     plan->local_verdicts.begin(),
                                     plan->local_verdicts.end());
               state.locals.push_back(std::move(run->exec));
               --state.homes_pending;
               maybe_certify(ctx->env, ctx->state);
             });
}

}  // namespace

void central_home(const std::shared_ptr<OperatorContext>& ctx,
                  const std::shared_ptr<HomeRun>& run) {
  ExecEnv& env = ctx->env;
  // Either leg abandoned: the home contributes nothing — certification
  // degrades from whatever the live homes deliver.
  const ExecEnv::FailHandler give_up = [ctx](SiteIndex) {
    --ctx->state->homes_pending;
    maybe_certify(ctx->env, ctx->state);
  };
  env.ship_record(
      kGlobalSite, run->site,
      env.batching() ? Bytes{0} : env.costs().request_bytes(0),
      "CA_G1 request",
      [ctx, run, give_up] {
        retrieve_and_ship_extent(
            ctx->env, run->home, ctx->classes, ctx->involved, "CA_C1 retrieve",
            "CA_C1 objects", /*cached=*/nullptr,
            [ctx, run] {
              central_evaluate(ctx, run, [ctx, run] {
                central_lookup_and_integrate(ctx, run);
              });
            },
            give_up);
      },
      give_up);
}

bool maybe_switch_to_central(const std::shared_ptr<OperatorContext>& ctx,
                             const std::shared_ptr<HomeRun>& run,
                             CheckPlan& lazy_plan) {
  if (run->assignment == nullptr) return false;  // pure plan: never switches
  ExecEnv& env = ctx->env;
  const double observed =
      static_cast<double>(rows_wire_bytes(env.costs(), run->exec.rows));
  if (run->decision != nullptr) {
    run->decision->observed_rows_bytes = observed;
    run->decision->rows = run->exec.rows.size();
  }
  // The switch rule (docs/PLANNING.md): re-decide only when the observed
  // row payload overshoots the estimate by the configured factor AND the
  // exact extent payload is by then the cheaper shipment. Check traffic is
  // path-independent, so rows-vs-extent decides alone.
  const double factor = ctx->plan.switch_factor;
  if (factor <= 0) return false;
  if (observed < factor * run->assignment->est_rows_bytes) return false;
  if (run->assignment->extent_bytes >= observed) return false;

  if (env.traced())
    env.mark(Phase::Plan, run->site, "plan.switch", env.sim().now(),
             env.sim().now());
  if (run->decision != nullptr) {
    run->decision->switched = true;
    run->decision->executed = SitePath::Central;
  }
  // The checks are already planned (and their lookup charged) at the home
  // site — dispatch them from there; only the row shipment is replaced.
  ctx->protocol->dispatch(run->site, lazy_plan);
  // Signature verdicts that would have ridden with the rows ride inside the
  // extent frame instead (their bytes are noise next to the extent).
  auto local_verdicts = std::make_shared<std::vector<CheckVerdict>>(
      run->eager_plan.local_verdicts);
  local_verdicts->insert(local_verdicts->end(),
                         lazy_plan.local_verdicts.begin(),
                         lazy_plan.local_verdicts.end());
  ctx->state->verdicts_announced += local_verdicts->size();
  retrieve_and_ship_extent(
      env, run->home, ctx->classes, ctx->involved, "HY_C1 retrieve (switch)",
      "HY_C1 extent (switch)",
      /*cached=*/&run->exec.meter,  // evaluation left the pages in memory
      [ctx, run, local_verdicts] {
        GlobalState& state = *ctx->state;
        state.verdicts_received += local_verdicts->size();
        state.verdicts.insert(state.verdicts.end(), local_verdicts->begin(),
                              local_verdicts->end());
        central_evaluate(ctx, run, [ctx, run] {
          ctx->state->locals.push_back(std::move(run->exec));
          --ctx->state->homes_pending;
          maybe_certify(ctx->env, ctx->state);
        });
      },
      [ctx, n = local_verdicts->size()](SiteIndex) {
        ctx->state->verdicts_received += n;
        --ctx->state->homes_pending;
        maybe_certify(ctx->env, ctx->state);
      });
  return true;
}

void launch_plan(ExecEnv& env, const ExecPlan& plan,
                 std::shared_ptr<PlanTelemetry> telemetry,
                 std::function<void(QueryResult, SimTime)> on_done) {
  if (!plan.hybrid) {
    // Pure compositions — bitwise identical to the pre-refactor executors.
    if (plan.label == StrategyKind::CA)
      launch_ca(env, std::move(on_done));
    else
      launch_localized(env, plan.use_signatures, plan.eager,
                       plan.label == StrategyKind::IM, std::move(on_done));
    return;
  }

  const Federation& federation = env.fed();
  const GlobalQuery& query = env.query();
  const StrategyOptions& options = env.options();
  const std::vector<DbId> homes =
      local_query_sites(federation.schema(), query);
  if (homes.empty())
    throw QueryError("no component database holds a constituent of " +
                     query.range_class);

  auto state = std::make_shared<GlobalState>();
  state->homes_pending = homes.size();
  state->on_done = std::move(on_done);

  const SignatureIndex* signatures = nullptr;
  if (plan.use_signatures) {
    signatures = options.signatures;
    if (signatures == nullptr) {
      state->owned_signatures =
          std::make_unique<SignatureIndex>(SignatureIndex::build(federation));
      signatures = state->owned_signatures.get();
    }
  }

  auto ctx = std::make_shared<OperatorContext>(env, plan);
  ctx->state = state;
  ctx->signatures = signatures;
  ctx->protocol = std::make_shared<CheckProtocol>(env, state, signatures);
  ctx->telemetry = telemetry != nullptr ? std::move(telemetry)
                                        : std::make_shared<PlanTelemetry>();
  ctx->classes = classes_involved(federation.schema(), query);
  ctx->involved = involved_attributes(federation.schema(), query);

  // Every home site needs exactly one assignment (assignments for sites
  // that are not homes would silently execute nothing — reject them).
  expects(ctx->plan.sites.size() == homes.size(),
          "hybrid plan must assign every home site exactly once");
  ctx->telemetry->decisions.clear();
  ctx->telemetry->decisions.reserve(homes.size());
  std::vector<const SiteAssignment*> assignments;
  assignments.reserve(homes.size());
  for (const DbId home : homes) {
    const SiteAssignment* found = nullptr;
    for (const SiteAssignment& site : ctx->plan.sites)
      if (site.db == home) {
        found = &site;
        break;
      }
    expects(found != nullptr, "hybrid plan is missing a home-site assignment");
    assignments.push_back(found);
    SiteDecision decision;
    decision.db = home;
    decision.planned = found->path;
    decision.executed = found->path;
    decision.est_rows_bytes = found->est_rows_bytes;
    decision.extent_bytes = found->extent_bytes;
    ctx->telemetry->decisions.push_back(decision);
  }
  for (std::size_t i = 0; i < homes.size(); ++i) {
    auto run = std::make_shared<HomeRun>();
    run->home = homes[i];
    run->site = env.site_of(homes[i]);
    run->decision = &ctx->telemetry->decisions[i];
    run->assignment = assignments[i];
    if (env.traced())
      env.mark(
          Phase::Plan, run->site,
          "plan.site " + std::string(to_string(run->assignment->path)),
          env.sim().now(), env.sim().now());
    if (run->assignment->path == SitePath::Central)
      central_home(ctx, run);
    else
      ship_local_query(ctx, run);
  }
}

StrategyReport execute_ca(const Federation& federation,
                          const GlobalQuery& query,
                          const StrategyOptions& options) {
  return execute_plan(federation, query, ExecPlan::pure(StrategyKind::CA),
                      options)
      .report;
}

StrategyReport execute_bl(const Federation& federation,
                          const GlobalQuery& query,
                          const StrategyOptions& options,
                          bool use_signatures) {
  return execute_plan(
             federation, query,
             ExecPlan::pure(use_signatures ? StrategyKind::BLS
                                           : StrategyKind::BL),
             options)
      .report;
}

StrategyReport execute_pl(const Federation& federation,
                          const GlobalQuery& query,
                          const StrategyOptions& options,
                          bool use_signatures) {
  return execute_plan(
             federation, query,
             ExecPlan::pure(use_signatures ? StrategyKind::PLS
                                           : StrategyKind::PL),
             options)
      .report;
}

}  // namespace isomer::detail

namespace isomer {

PlanReport execute_plan(const Federation& federation, const GlobalQuery& query,
                        const ExecPlan& plan, const StrategyOptions& options) {
  detail::ExecEnv env(federation, query, options);
  env.set_span_context(plan.hybrid ? std::string_view{"HY"}
                                   : to_string(plan.label));
  auto telemetry = std::make_shared<PlanTelemetry>();
  QueryResult result;
  SimTime response = 0;
  detail::launch_plan(env, plan, telemetry,
                      [&result, &response](QueryResult r, SimTime at) {
                        result = std::move(r);
                        response = at;
                      });
  env.sim().run();
  ensures(response > 0, "plan execution did not complete");
  PlanReport out;
  out.report = env.finish(std::move(result), response);
  out.telemetry = std::move(*telemetry);
  return out;
}

}  // namespace isomer
