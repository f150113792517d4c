// Localized-path operators (paper §3.2 and §3.3) and the pure BL/PL
// compositions.
//
// BL — basic localized, phase order P -> O -> I:
//   BL_G1  the global site derives a local query per home database (those
//          holding a constituent of the range class) and ships it
//          (ShipLocalQuery).
//   BL_C1  each home database evaluates its local predicates (phase P);
//          objects violating a local predicate are eliminated on the spot
//          (LocalFilter).
//   BL_C2  for the unsolved items of the surviving local maybe results, the
//          home database probes the GOid tables for assistant objects
//          (AssistantLookup) and ships check requests to their databases
//          (CheckProtocol::dispatch); the local result rows go to the
//          global site (ShipRows).
//   BL_C3  a database receiving a check request evaluates the appended
//          suffix predicates on the listed assistants and reports verdicts
//          to the global site (CheckProtocol::serve).
//   BL_G2  once every local result and every announced verdict has arrived,
//          the global site certifies (phase I) and produces the answer
//          (maybe_certify).
//
// PL — parallel localized, phase order O -> P -> I: identical protocol
// except that each home database *first* walks every root object's nested
// complex attributes that hold schema-level missing data, looks up their
// assistants, and ships those check requests (EagerLookup / PL_C1) — so
// remote checking (PL_C3) overlaps with its own predicate evaluation
// (PL_C2). The price is checking assistants for objects that local
// evaluation would have eliminated: more mapping-table probes, transfers
// and remote work, which is exactly the overhead the paper measures in
// Fig. 10. Unsolved sites discovered only during evaluation (null values)
// are dispatched in a second wave.
//
// The signature variants (BLS/PLS) screen candidate assistants against the
// replicated signature index while planning checks: provably violating
// assistants become local False verdicts that ride along with the row
// message instead of being shipped for checking.
//
// Each operator lives here as a free function over the shared
// OperatorContext (core/operators.hpp); hybrid plans reuse the same
// functions per site, with maybe_switch_to_central hooked between
// AssistantLookup and ShipRows.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <tuple>

#include "isomer/core/cert_cache.hpp"
#include "isomer/core/certify.hpp"
#include "isomer/core/operators.hpp"
#include "isomer/fault/degrade.hpp"
#include "isomer/query/condition.hpp"
#include "isomer/schema/translate.hpp"

namespace isomer::detail {

std::uint64_t CertWriteback::key_signature(DbId home, std::size_t predicate,
                                           std::size_t step) const noexcept {
  std::uint64_t sig = signatures[predicate];
  sig ^= 0x9e3779b97f4a7c15ULL * (static_cast<std::uint64_t>(step) + 1);
  sig ^=
      0xbf58476d1ce4e5b9ULL * (static_cast<std::uint64_t>(home.value()) + 1);
  return sig;
}

void CertWriteback::filter(ExecEnv& env, SiteIndex from, DbId home,
                           CheckPlan& plan) {
  if (cache == nullptr || plan.by_target.empty()) return;
  // One probe per distinct first-round atom instance (item, predicate,
  // step) — duplicated tasks (two maybe rows advised by the same item)
  // share the probe's outcome, exactly as their verdicts would have pooled.
  std::map<std::tuple<GOid, std::size_t, std::size_t>, std::optional<Truth>>
      probed;
  std::uint64_t hit_count = 0, miss_count = 0;
  for (auto target = plan.by_target.begin();
       target != plan.by_target.end();) {
    std::vector<CheckTask>& tasks = target->second;
    std::erase_if(tasks, [&](const CheckTask& task) {
      if (task.origin != task.item) return false;  // cascaded: never cached
      const auto key = std::tuple{task.item, task.predicate, task.step};
      auto it = probed.find(key);
      if (it == probed.end()) {
        const std::optional<Truth> found = cache->lookup(
            task.item, key_signature(home, task.predicate, task.step),
            epoch);
        it = probed.emplace(key, found).first;
        if (found.has_value()) {
          ++hit_count;
          // The synthesized verdict rides with the plan's screen verdicts;
          // the atom's pool now mixes cached evidence, so never re-cache it.
          tainted.insert(std::pair{task.item, task.predicate});
          plan.local_verdicts.push_back(
              CheckVerdict{task.origin, task.predicate, *found});
        } else {
          ++miss_count;
          dispatched[std::pair{task.item, task.predicate}].insert(
              std::pair{home, task.step});
        }
      }
      return it->second.has_value();
    });
    // A fully-answered target must not receive an empty check request.
    if (tasks.empty())
      target = plan.by_target.erase(target);
    else
      ++target;
  }
  hits += hit_count;
  misses += miss_count;
  if (!env.traced()) return;
  const SimTime now = env.sim().now();
  if (hit_count > 0)
    env.mark(Phase::Cert, from, "cert.hit/" + std::to_string(hit_count), now,
             now);
  if (miss_count > 0)
    env.mark(Phase::Cert, from, "cert.miss/" + std::to_string(miss_count),
             now, now);
}

void CertWriteback::writeback(const std::vector<CheckVerdict>& verdicts) {
  if (cache == nullptr || dispatched.empty()) return;
  // Pool every verdict per atom with certify()'s merge rule (False
  // dominates, else Kleene-or); the pool is associative and idempotent, so
  // it equals what any later run would reconstruct from the same evidence.
  std::map<std::pair<GOid, std::size_t>, Truth> pooled;
  for (const CheckVerdict& verdict : verdicts) {
    auto [it, inserted] = pooled.try_emplace(
        std::pair{verdict.item, verdict.predicate}, verdict.truth);
    if (!inserted) {
      if (is_false(verdict.truth) || is_false(it->second))
        it->second = Truth::False;
      else
        it->second = it->second || verdict.truth;
    }
  }
  for (const auto& [atom, sources] : dispatched) {
    // Only a single (home, step) source makes the atom's evidence stream
    // attributable to one key; and a pool partly synthesized from the cache
    // must not be written back under a fresh key.
    if (sources.size() != 1 || tainted.count(atom) != 0) continue;
    const auto it = pooled.find(atom);
    if (it == pooled.end()) continue;
    const auto& [home, step] = *sources.begin();
    cache->insert(atom.first, key_signature(home, atom.second, step), epoch,
                  it->second);
  }
}

void maybe_certify(ExecEnv& env, const std::shared_ptr<GlobalState>& state) {
  if (state->done || !state->complete()) return;
  state->done = true;
  AccessMeter meter;
  CertifyStats stats;
  const std::set<DbId>& dead = env.unavailable();
  state->result = certify(env.fed(), env.query(), state->locals,
                          state->verdicts, &meter, &stats,
                          dead.empty() ? nullptr : &dead,
                          state->impute != nullptr
                              ? &state->impute->confidences
                              : nullptr);
  if (state->impute != nullptr) {
    // IM's residual discharge: estimate the atoms the dispatch filter could
    // not reach (root-level sites, unanswered assistants) straight out of
    // the certified rows' conditions — before degradation tagging, so a row
    // the model confidently answers is an answer, not an unavailability.
    state->impute->discharge(env, state->locals, state->result);
    stats.certain += state->impute->upgraded_rows;
    stats.maybe -= std::min(stats.maybe, state->impute->upgraded_rows +
                                             state->impute->eliminated_rows);
    stats.eliminated += state->impute->eliminated_rows;
  }
  if (env.degraded()) {
    fault::tag_unavailable(state->result, env.fed(), env.query(), dead);
    env.mark(Phase::Fault, kGlobalSite, "fault.degrade", env.sim().now(),
             env.sim().now());
  }
  if (state->certs != nullptr) {
    // Writeback only from complete evidence: a degraded run's abandoned
    // shipments leave the pools partial, and caching those would poison
    // every later query at this epoch.
    if (!env.degraded()) state->certs->writeback(state->verdicts);
    env.note_cert_outcome(state->certs->hits, state->certs->misses);
    // The discharge marker carries the residual-atom histogram: how many
    // atoms of the maybe rows' conditions stayed unresolved, per predicate.
    if (env.traced()) {
      std::string discharge =
          "cert.discharge atoms=" + std::to_string(stats.unresolved_atoms);
      for (const auto& [predicate, count] : stats.unresolved_by_predicate)
        discharge +=
            " p" + std::to_string(predicate) + "=" + std::to_string(count);
      env.mark(Phase::Cert, kGlobalSite, std::move(discharge),
               env.sim().now(), env.sim().now());
    }
  }
  if (state->impute != nullptr) {
    env.note_impute_outcome(state->impute->imputed, state->impute->declined);
    // The certification marker: how many atoms the model answered vs left
    // on the certified path across all homes of this run.
    if (env.traced())
      env.mark(
          Phase::Impute, kGlobalSite,
          "im.certify imputed=" + std::to_string(state->impute->imputed) +
              " declined=" + std::to_string(state->impute->declined),
          env.sim().now(), env.sim().now());
  }
  AccessMeter cpu_only;  // certification merges in memory at the global site
  cpu_only.comparisons = meter.comparisons + meter.table_probes;
  SpanCounts counts;
  counts.objects_in = stats.entities;
  counts.objects_out = stats.certain + stats.maybe;
  counts.certs_resolved = stats.certain;
  counts.certs_eliminated = stats.eliminated;
  env.charge(kGlobalSite, cpu_only, Phase::I, "G2 certify", counts,
             [&env, state] {
               state->response = env.sim().now();
               state->on_done(std::move(state->result), state->response);
             });
}

AccessMeter meter_minus(const AccessMeter& a, const AccessMeter& b) {
  const auto sub = [](std::uint64_t x, std::uint64_t y) {
    return x > y ? x - y : 0;
  };
  AccessMeter out;
  out.objects_scanned = sub(a.objects_scanned, b.objects_scanned);
  out.objects_fetched = sub(a.objects_fetched, b.objects_fetched);
  out.comparisons = sub(a.comparisons, b.comparisons);
  out.table_probes = sub(a.table_probes, b.table_probes);
  out.prim_slots = sub(a.prim_slots, b.prim_slots);
  out.ref_slots = sub(a.ref_slots, b.ref_slots);
  return out;
}

/// Under batching the request degrades to a semijoin: only the item GOids
/// (+ predicate indexes) travel, and the target re-derives the assistant
/// LOids from its replicated GOid table (serve() charges the extra probes).
void CheckProtocol::dispatch(SiteIndex from, CheckPlan& plan,
                             const DbId* home) {
  // First-round dispatches consult the certificate cache (when one is
  // attached): tasks whose atom is already certified at this epoch are
  // stripped before anything is announced or shipped. The imputation
  // filter (the IM strategy, core/im.cpp) runs second — exact cached
  // knowledge always beats an estimate — and may strip more tasks, with
  // their estimated verdicts riding as local verdicts.
  if (home != nullptr && state->certs != nullptr)
    state->certs->filter(env, from, *home, plan);
  if (home != nullptr && state->impute != nullptr)
    state->impute->filter(env, from, *home, plan, state->certs.get());
  state->verdicts_announced += plan.task_count();
  auto self = shared_from_this();
  for (const auto& [target, tasks] : plan.by_target)
    env.ship_record(
        from, env.site_of(target),
        env.batching() ? semijoin_check_request_bytes(env.costs(), tasks)
                       : check_request_wire_bytes(env.costs(), tasks.size()),
        "C2 check request",
        [self, target, tasks] { self->serve(target, tasks); },
        // Abandoned request: its announced verdicts will never
        // come — account for them so certification can release.
        [self, n = tasks.size()](SiteIndex) {
          self->state->verdicts_received += n;
          maybe_certify(self->env, self->state);
        });
}

void CheckProtocol::serve(DbId target, const std::vector<CheckTask>& tasks) {
  const SiteIndex site = env.site_of(target);
  auto outcome = std::make_shared<CheckOutcome>(
      run_checks(env.fed(), env.query(), target, tasks, signatures));
  // Semijoin requests carry GOids, not assistant LOids: the target
  // re-derives each task's assistant through its replicated GOid table.
  // One batched probe pass over all assistants charges exactly one
  // table probe per task.
  if (env.batching() && !tasks.empty()) {
    std::vector<LOid> assistants;
    assistants.reserve(tasks.size());
    for (const CheckTask& task : tasks)
      assistants.push_back(task.assistant);
    std::vector<GOid> derived(tasks.size());
    env.fed().goids().goids_of(assistants, derived.data(), &outcome->meter);
    for (std::size_t i = 0; i < tasks.size(); ++i)
      ensures(derived[i] == tasks[i].item,
              "semijoin re-derivation disagrees with the shipped task");
  }
  auto self = shared_from_this();
  SpanCounts counts;
  counts.objects_in = tasks.size();
  counts.objects_out = outcome->verdicts.size();
  env.charge(
      site, outcome->meter, Phase::O, "C3 check assistants", counts,
      [self, site, outcome] {
        // Cascaded follow-up checks fan out from here; their local
        // signature verdicts ride along with this response.
        self->dispatch(site, outcome->follow_up);
        auto verdicts = std::make_shared<std::vector<CheckVerdict>>(
            std::move(outcome->verdicts));
        self->state->verdicts_announced +=
            outcome->follow_up.local_verdicts.size();
        verdicts->insert(verdicts->end(),
                         outcome->follow_up.local_verdicts.begin(),
                         outcome->follow_up.local_verdicts.end());
        self->env.ship_record(
            site, kGlobalSite,
            self->env.batching()
                ? static_cast<Bytes>(verdicts->size()) *
                      self->env.costs().verdict_bytes()
                : check_response_wire_bytes(self->env.costs(),
                                            verdicts->size()),
            "C3 verdicts",
            [self, verdicts] {
              self->state->verdicts_received += verdicts->size();
              self->state->verdicts.insert(self->state->verdicts.end(),
                                           verdicts->begin(),
                                           verdicts->end());
              maybe_certify(self->env, self->state);
            },
            [self, n = verdicts->size()](SiteIndex) {
              self->state->verdicts_received += n;
              maybe_certify(self->env, self->state);
            });
      });
}

// ---- ShipRows: send the surviving rows (plus any signature verdicts) to
// the global site.
void ship_rows(const std::shared_ptr<OperatorContext>& ctx,
               const std::shared_ptr<HomeRun>& run,
               const CheckPlan& lazy_plan) {
  ExecEnv& env = ctx->env;
  const std::shared_ptr<GlobalState>& state = ctx->state;
  auto local_verdicts = std::make_shared<std::vector<CheckVerdict>>(
      run->eager_plan.local_verdicts);
  local_verdicts->insert(local_verdicts->end(),
                         lazy_plan.local_verdicts.begin(),
                         lazy_plan.local_verdicts.end());
  state->verdicts_announced += local_verdicts->size();
  const Bytes bytes = rows_wire_bytes(env.costs(), run->exec.rows) +
                      static_cast<Bytes>(local_verdicts->size()) *
                          env.costs().verdict_bytes();
  env.ship_record(run->site, kGlobalSite, bytes, "C2 local results",
                  [&env, state, run, local_verdicts] {
                    state->locals.push_back(std::move(run->exec));
                    state->verdicts.insert(state->verdicts.end(),
                                           local_verdicts->begin(),
                                           local_verdicts->end());
                    state->verdicts_received += local_verdicts->size();
                    --state->homes_pending;
                    maybe_certify(env, state);
                  },
                  // The home went dark after evaluating: neither its rows
                  // nor the attached local verdicts will ever arrive.
                  [&env, state, n = local_verdicts->size()](SiteIndex) {
                    state->verdicts_received += n;
                    --state->homes_pending;
                    maybe_certify(env, state);
                  });
}

// ---- AssistantLookup: lazy phase O — plan checks for the unsolved items
// of the surviving rows (minus anything PL already dispatched eagerly).
void assistant_lookup(const std::shared_ptr<OperatorContext>& ctx,
                      const std::shared_ptr<HomeRun>& run) {
  ExecEnv& env = ctx->env;
  std::vector<UnsolvedItem> items = unsolved_items_of_rows(run->exec.rows);
  if (!run->eager.empty()) {
    std::vector<UnsolvedItem> wave2;
    std::set_difference(items.begin(), items.end(), run->eager.begin(),
                        run->eager.end(), std::back_inserter(wave2));
    items = std::move(wave2);
  }
  const auto items_in = static_cast<std::uint64_t>(items.size());
  auto plan = std::make_shared<CheckPlan>(plan_checks(
      env.fed(), env.query(), run->home, items, ctx->signatures));
  SpanCounts counts;
  counts.objects_in = items_in;
  counts.objects_out = plan->task_count();
  env.charge(run->site, plan->meter, Phase::O, "C2 assistant lookup", counts,
             [ctx, run, plan] {
               // Hybrid plans re-decide here: the rows are known, so the
               // observed payload can be held against the estimate.
               if (maybe_switch_to_central(ctx, run, *plan)) return;
               ctx->protocol->dispatch(run->site, *plan, &run->home);
               ship_rows(ctx, run, *plan);
             });
}

// ---- LocalFilter: phase P — evaluate the local predicates.
void local_filter(const std::shared_ptr<OperatorContext>& ctx,
                  const std::shared_ptr<HomeRun>& run) {
  ExecEnv& env = ctx->env;
  run->exec = run_local_query(env.fed(), env.query(), run->home,
                              env.options().indexes);
  AccessMeter p_meter = run->exec.meter;
  if (ctx->plan.eager) {
    // Pages already read by the eager walk stay cached in memory.
    p_meter = meter_minus(p_meter, run->eager_meter);
  }
  SpanCounts counts;
  counts.objects_in = run->exec.considered;
  counts.objects_out = run->exec.rows.size();
  env.charge(run->site, p_meter, Phase::P, "C1 evaluate local predicates",
             counts, [ctx, run] { assistant_lookup(ctx, run); });
}

// ---- EagerLookup (PL only): eager phase O over all root objects.
void eager_lookup(const std::shared_ptr<OperatorContext>& ctx,
                  const std::shared_ptr<HomeRun>& run) {
  ExecEnv& env = ctx->env;
  run->eager = unsolved_items_of_all_roots(env.fed(), env.query(), run->home,
                                           &run->eager_meter);
  run->eager_plan = plan_checks(env.fed(), env.query(), run->home,
                                run->eager, ctx->signatures);
  AccessMeter charge_meter = run->eager_meter;
  charge_meter += run->eager_plan.meter;
  SpanCounts counts;
  counts.objects_in = run->eager.size();
  counts.objects_out = run->eager_plan.task_count();
  env.charge(run->site, charge_meter, Phase::O, "PL_C1 eager lookup", counts,
             [ctx, run] {
               ctx->protocol->dispatch(run->site, run->eager_plan,
                                       &run->home);
               local_filter(ctx, run);
             });
}

// ---- ShipLocalQuery (G1): ship the local query to the home database. An
// unreachable home never evaluates: drop it from the pending count and
// certify from whatever the live homes deliver.
void ship_local_query(const std::shared_ptr<OperatorContext>& ctx,
                      const std::shared_ptr<HomeRun>& run) {
  ExecEnv& env = ctx->env;
  // Batched frames carry one shared header (kBatchHeaderBytes), so each
  // record drops its own per-message header (the request's S_a envelope).
  env.ship_record(
      kGlobalSite, run->site,
      env.costs().request_bytes(env.query().predicates.size()) -
          (env.batching() ? env.costs().attr_bytes : 0),
      "G1 local query",
      ctx->plan.eager
          ? Simulator::Callback([ctx, run] { eager_lookup(ctx, run); })
          : Simulator::Callback([ctx, run] { local_filter(ctx, run); }),
      [ctx](SiteIndex) {
        --ctx->state->homes_pending;
        maybe_certify(ctx->env, ctx->state);
      });
}

void launch_localized(ExecEnv& env, bool use_signatures, bool eager_phase_o,
                      bool impute,
                      std::function<void(QueryResult, SimTime)> on_done) {
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

  // Attach the cross-query certificate cache when one is configured. The
  // epoch and per-predicate signatures are captured once per run; like the
  // signature index, the cache is an auxiliary replicated structure whose
  // maintenance is not charged to the query.
  if (options.cert_cache != nullptr) {
    auto certs = std::make_unique<CertWriteback>();
    certs->cache = options.cert_cache;
    certs->epoch = federation.epoch();
    certs->signatures.reserve(query.predicates.size());
    for (const Predicate& pred : query.predicates)
      certs->signatures.push_back(predicate_signature(pred));
    state->certs = std::move(certs);
  }

  // Attach the imputation plumbing for the IM strategy. Like the signature
  // index and the certificate cache, the population model is an auxiliary
  // replicated structure maintained outside query execution; unlike them,
  // core cannot build one on the fly — the estimators live in the analytic
  // layer above (analytic/impute.hpp), so a missing oracle is a hard error.
  if (impute) {
    if (options.impute == nullptr)
      throw ImputeError(
          "the IM strategy needs StrategyOptions::impute — build an "
          "ImputeModel (analytic/impute.hpp) over the federation first");
    auto st = std::make_unique<ImputeState>();
    st->oracle = options.impute;
    st->threshold = options.impute_threshold;
    st->mar = options.impute_mar;
    state->impute = std::move(st);
  }

  // Resolve the signature index when requested. The auxiliary structure is
  // maintained outside query execution (like the replicated GOid tables),
  // so building it is not charged; an executor-built index lives in the
  // shared state so it survives until the run completes.
  const SignatureIndex* signatures = nullptr;
  if (use_signatures) {
    signatures = options.signatures;
    if (signatures == nullptr) {
      state->owned_signatures =
          std::make_unique<SignatureIndex>(SignatureIndex::build(federation));
      signatures = state->owned_signatures.get();
    }
  }

  const StrategyKind kind =
      impute ? StrategyKind::IM
      : eager_phase_o
          ? (use_signatures ? StrategyKind::PLS : StrategyKind::PL)
          : (use_signatures ? StrategyKind::BLS : StrategyKind::BL);
  auto ctx = std::make_shared<OperatorContext>(env, ExecPlan::pure(kind));
  ctx->state = state;
  ctx->signatures = signatures;
  ctx->protocol = std::make_shared<CheckProtocol>(env, state, signatures);

  for (const DbId home : homes) {
    auto run = std::make_shared<HomeRun>();
    run->home = home;
    run->site = env.site_of(home);
    ship_local_query(ctx, run);
  }
}

}  // namespace isomer::detail
