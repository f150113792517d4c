// Composable phase operators — the execution engine behind every plan.
//
// PR 7 decomposed the monolithic CA/BL/PL drivers into operators that each
// implement one protocol step of the paper and chain through simulator
// callbacks:
//
//   ShipLocalQuery   G1      ship the derived local query to a home site
//   EagerLookup      PL_C1   phase O over all roots (PL only)
//   LocalFilter      C1      phase P: evaluate the local predicates
//   AssistantLookup  C2      lazy phase O: plan checks for unsolved items
//   ShipRows         C2      ship surviving rows (+ signature verdicts)
//   SemijoinCheck    C2/C3   CheckProtocol: dispatch requests, serve them
//   Certify          G2      phase I: pool evidence into the answer
//   RetrieveExtent   CA_C1   scan + project + ship an extent (Central path)
//   Materialize      CA_G2   outerjoin the shipped extents (pure CA)
//
// All operators share one OperatorContext carrying the ExecEnv (span /
// meter / fault / batching plumbing from exec_common.hpp), the plan being
// executed, the global-site completion state and the checking protocol.
// launch_plan composes them: pure plans reproduce the original executors'
// simulator-event sequence exactly (the operator refactor is bitwise
// invisible — tests/test_operator_parity.cpp), hybrid plans mix Localized
// and Central homes per ExecPlan::sites and may switch a home mid-flight
// (docs/PLANNING.md).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "isomer/core/exec_common.hpp"
#include "isomer/core/plan.hpp"

namespace isomer {
class CertCache;
}  // namespace isomer

namespace isomer::detail {

/// One run's view of the cross-query certificate cache
/// (core/cert_cache.hpp); owned by the GlobalState, created only when
/// StrategyOptions::cert_cache is set — a null GlobalState::certs takes the
/// exact pre-cache code path.
///
/// A certificate is keyed by (item GOid, signature) where the signature
/// mixes the predicate's canonical print, the unsolved step AND the
/// dispatching home database: plan_checks skips the home's own isomer, so
/// the evidence pool for an atom depends on who asked. Its value is the
/// pooled verdict (False dominates, else Kleene-or) of *all* evidence the
/// first-round dispatch of that atom produced — shipped checks, their
/// cascaded follow-ups, and signature-screen verdicts alike. That whole
/// stream is only attributable to one key when exactly one (home, step)
/// pair dispatched the (item, predicate) atom and none of it was itself
/// answered from the cache, so writeback() skips multi-source and
/// cache-tainted atoms; degraded runs never write back at all (abandoned
/// shipments make the pool partial evidence).
struct CertWriteback {
  CertCache* cache = nullptr;
  /// Federation::epoch() captured once at launch; every lookup and insert
  /// carries it, so a mid-stream extent mutation (epoch bump) turns the
  /// whole cache stale without any scanning.
  std::uint64_t epoch = 0;
  /// predicate_signature() per query predicate, computed once at launch.
  std::vector<std::uint64_t> signatures;
  /// (item, predicate) -> the (home, step) first-round dispatches that
  /// actually shipped (cache misses). Writeback only for single-element
  /// sets: otherwise the pooled evidence mixes sources.
  std::map<std::pair<GOid, std::size_t>,
           std::set<std::pair<DbId, std::size_t>>>
      dispatched;
  /// Atoms any part of whose evidence was synthesized from the cache this
  /// run — never written back (would launder a stale-keyed value).
  std::set<std::pair<GOid, std::size_t>> tainted;
  std::uint64_t hits = 0;    ///< first-round task groups answered locally
  std::uint64_t misses = 0;  ///< first-round task groups shipped

  [[nodiscard]] std::uint64_t key_signature(DbId home, std::size_t predicate,
                                            std::size_t step) const noexcept;

  /// The dispatch-side cache consultation: removes every first-round task
  /// whose atom is cached at the current epoch from `plan` (synthesizing a
  /// CheckVerdict into plan.local_verdicts — it rides to the global site on
  /// whatever message carries the plan's screen verdicts) and records the
  /// shipped atoms for writeback. Emits cert.hit/cert.miss markers.
  void filter(ExecEnv& env, SiteIndex from, DbId home, CheckPlan& plan);

  /// The certify-side insertion: pools `verdicts` per (item, predicate)
  /// with certify()'s merge rule and stores each cleanly-attributable
  /// atom's pool under its recorded key. Call only on non-degraded runs.
  void writeback(const std::vector<CheckVerdict>& verdicts);
};

/// One run's imputation plumbing (the IM strategy, core/im.cpp); owned by
/// the GlobalState, created only by launch_localized(impute = true) — a
/// null GlobalState::impute takes the exact pre-imputation code path.
///
/// The filter is the dispatch-side twin of CertWriteback::filter: it
/// consults StrategyOptions::impute once per distinct first-round atom
/// (item, predicate, step), strips every task whose estimate is upgradable
/// with confidence >= threshold, and synthesizes the estimated CheckVerdict
/// into plan.local_verdicts (riding to the global site on whatever message
/// carries the plan's screen verdicts — no check request, no check
/// response). Below-threshold and non-upgradable atoms stay on the normal
/// residual-condition path, which is how IM composes with --certcache and
/// --faults: the certificate filter runs first (exact knowledge beats an
/// estimate), and atoms the model answers never touch the wire, so a dead
/// assistant site cannot stop them.
struct ImputeState {
  const ImputeOracle* oracle = nullptr;
  double threshold = 1.0;
  bool mar = false;
  std::uint64_t imputed = 0;   ///< atoms answered from the model
  std::uint64_t declined = 0;  ///< atoms consulted but shipped anyway
  /// (item, predicate) -> the synthesized verdict's confidence (the least
  /// confident estimate when several steps imputed the same atom);
  /// certify() folds these into ResultRow::confidence.
  std::map<std::pair<GOid, std::size_t>, double> confidences;

  std::uint64_t upgraded_rows = 0;    ///< maybe rows discharge() made certain
  std::uint64_t eliminated_rows = 0;  ///< maybe rows discharge() refuted

  /// The dispatch-side model consultation (core/im.cpp). `certs` (may be
  /// null) is the run's certificate plumbing: imputed atoms are tainted
  /// there so an *estimated* verdict is never written back as a
  /// certificate. Emits im.impute/<n> and im.decline/<n> markers.
  void filter(ExecEnv& env, SiteIndex from, DbId home, CheckPlan& plan,
              CertWriteback* certs);

  /// The certify-side residual discharge (core/im.cpp): the dispatch filter
  /// can only answer atoms that generate check traffic, but a maybe row's
  /// residual also carries root-level atoms (step 0 — decided by the row
  /// pool, which decides nothing when every copy is a gap) and atoms whose
  /// assistants never answered (dead sites, declined estimates). After
  /// certify() builds the rows, this pass consults the model for each
  /// distinct residual atom — the gap-kind evidence comes from the lowest
  /// home database whose local row left it Unknown — and evaluates the
  /// row's condition once with every confident True/False estimate as its
  /// leaf's value (exact atoms, root-level included). A row whose
  /// condition thereby decides commits: True upgrades it to certain at the
  /// product of the consumed estimates' confidences, False eliminates it.
  /// Undecided rows are left exactly as certified — no partial estimates
  /// leak into residuals. Emits an im.discharge marker when anything moved.
  void discharge(ExecEnv& env, const std::vector<LocalExecution>& locals,
                 QueryResult& result);
};

/// Global-site completion accounting shared by every plan with localized
/// homes: the run finishes when all home results have arrived and every
/// announced check verdict has arrived (verdict announcements travel with
/// the dispatching home's bookkeeping, so arrival order does not matter).
struct GlobalState {
  std::size_t homes_pending = 0;
  std::uint64_t verdicts_announced = 0;
  std::uint64_t verdicts_received = 0;
  std::vector<LocalExecution> locals;
  std::vector<CheckVerdict> verdicts;
  bool done = false;
  QueryResult result;
  SimTime response = 0;
  std::function<void(QueryResult, SimTime)> on_done;
  /// Keeps an executor-built signature index alive through the run.
  std::unique_ptr<SignatureIndex> owned_signatures;
  /// Certificate-cache plumbing; null unless StrategyOptions::cert_cache.
  std::unique_ptr<CertWriteback> certs;
  /// Imputation plumbing; null unless the plan is the IM strategy.
  std::unique_ptr<ImputeState> impute;

  [[nodiscard]] bool complete() const noexcept {
    return homes_pending == 0 && verdicts_received == verdicts_announced;
  }
};

/// Certify operator (G2, phase I): fires once complete() holds.
void maybe_certify(ExecEnv& env, const std::shared_ptr<GlobalState>& state);

/// Saturating meter difference, used to model a site's memory cache: pages
/// read by an earlier pass are not re-read by a later one (PL's eager phase
/// O before phase P; a mid-flight switch shipping the extent it just
/// evaluated).
[[nodiscard]] AccessMeter meter_minus(const AccessMeter& a,
                                      const AccessMeter& b);

/// SemijoinCheck operator — the checking protocol. Dispatching a plan ships
/// one request per target database; a served request may cascade a
/// follow-up plan of its own (CheckOutcome::follow_up), so the two
/// operations are mutually recursive. Shared by every home of a plan, from
/// whichever site plans the checks (a Localized home, or the global site
/// for a Central home).
struct CheckProtocol : std::enable_shared_from_this<CheckProtocol> {
  ExecEnv& env;
  std::shared_ptr<GlobalState> state;
  const SignatureIndex* signatures;

  CheckProtocol(ExecEnv& e, std::shared_ptr<GlobalState> s,
                const SignatureIndex* sig)
      : env(e), state(std::move(s)), signatures(sig) {}

  /// Ships a plan's check requests and announces their future verdicts.
  /// The plan's local (signature) verdicts are NOT handled here — the
  /// caller attaches them to whatever message carries them. `home` marks a
  /// first-round dispatch (AssistantLookup / EagerLookup) with the planning
  /// home database: only those consult the certificate cache, which may
  /// strip answered tasks from `plan` and append synthesized verdicts to
  /// plan.local_verdicts (hence the mutable plan). Cascaded follow-ups and
  /// hybrid dispatches pass nullptr and ship unchanged.
  void dispatch(SiteIndex from, CheckPlan& plan, const DbId* home = nullptr);

  /// C3: serve a check request at its target database.
  void serve(DbId target, const std::vector<CheckTask>& tasks);
};

/// Shared read-mostly context threaded through every operator of one plan
/// execution.
struct OperatorContext {
  ExecEnv& env;
  ExecPlan plan;
  std::shared_ptr<GlobalState> state;
  std::shared_ptr<CheckProtocol> protocol;
  const SignatureIndex* signatures = nullptr;
  /// Hybrid only: where the decisions land (indexed like plan.sites).
  std::shared_ptr<PlanTelemetry> telemetry;
  /// Hybrid only: the centralized projection catalog shared by Central
  /// homes and mid-flight switches (classes_involved / involved_attributes).
  std::vector<std::string> classes;
  std::map<std::string, std::set<std::size_t>> involved;

  OperatorContext(ExecEnv& e, ExecPlan p) : env(e), plan(std::move(p)) {}
};

/// One home site's pipeline state, owned by shared_ptr so the chained
/// operator callbacks keep it alive.
struct HomeRun {
  DbId home{};
  SiteIndex site{};
  LocalExecution exec;
  CheckPlan eager_plan;             ///< PL only
  std::vector<UnsolvedItem> eager;  ///< PL only
  AccessMeter eager_meter;          ///< PL only: scan + walks + probes
  SiteDecision* decision = nullptr;          ///< hybrid telemetry slot
  const SiteAssignment* assignment = nullptr;  ///< hybrid plan row
};

// ---- Localized-path operators (bl.cpp) ----
void ship_local_query(const std::shared_ptr<OperatorContext>& ctx,
                      const std::shared_ptr<HomeRun>& run);
void eager_lookup(const std::shared_ptr<OperatorContext>& ctx,
                  const std::shared_ptr<HomeRun>& run);
void local_filter(const std::shared_ptr<OperatorContext>& ctx,
                  const std::shared_ptr<HomeRun>& run);
void assistant_lookup(const std::shared_ptr<OperatorContext>& ctx,
                      const std::shared_ptr<HomeRun>& run);
void ship_rows(const std::shared_ptr<OperatorContext>& ctx,
               const std::shared_ptr<HomeRun>& run,
               const CheckPlan& lazy_plan);

// ---- Central-path operators (ca.cpp) ----
/// RetrieveExtent + ShipExtent (CA_C1): scan + project the involved
/// constituent extents at `db`'s site (Phase::Setup) and ship the
/// projection to the global site. `cached` (optional) credits pages the
/// site already read — a mid-flight switch ships the extent out of the
/// evaluation's buffer cache, like PL's eager-phase treatment.
void retrieve_and_ship_extent(
    ExecEnv& env, DbId db, const std::vector<std::string>& classes,
    const std::map<std::string, std::set<std::size_t>>& involved,
    const std::string& retrieve_step, const std::string& ship_step,
    const AccessMeter* cached, Simulator::Callback arrived,
    ExecEnv::FailHandler on_fail);

// ---- Hybrid-only operators (operators.cpp) ----
/// Runs one home on the Central path: request + RetrieveExtent at the site,
/// then evaluation / assistant lookup at the global site, feeding the same
/// GlobalState the Localized homes feed.
void central_home(const std::shared_ptr<OperatorContext>& ctx,
                  const std::shared_ptr<HomeRun>& run);

/// The mid-flight switch point, tested right after AssistantLookup on a
/// hybrid Localized home. Returns true when the home switched to the
/// Central path (the caller must not ship rows); false continues BL/PL
/// unchanged. Pure plans (no assignment) return false without any work.
bool maybe_switch_to_central(const std::shared_ptr<OperatorContext>& ctx,
                             const std::shared_ptr<HomeRun>& run,
                             CheckPlan& lazy_plan);

/// Sets up one plan execution on `env`'s simulator without running it.
/// Pure plans route to the monolithic compositions (launch_ca /
/// launch_localized) and are bitwise identical to the pre-refactor
/// executors; hybrid plans compose per-site pipelines. `telemetry` (may be
/// null) receives per-site decisions for hybrid plans.
void launch_plan(ExecEnv& env, const ExecPlan& plan,
                 std::shared_ptr<PlanTelemetry> telemetry,
                 std::function<void(QueryResult, SimTime)> on_done);

}  // namespace isomer::detail

namespace isomer {

/// A plan execution's outcome: the usual strategy report plus what the
/// hybrid machinery decided per site (telemetry is empty for pure plans).
struct PlanReport {
  StrategyReport report;
  PlanTelemetry telemetry;
};

/// Runs `plan` over `federation` on a fresh simulator — the plan-level
/// sibling of execute_strategy (which is now exactly
/// execute_plan(ExecPlan::pure(kind)).report).
[[nodiscard]] PlanReport execute_plan(const Federation& federation,
                                      const GlobalQuery& query,
                                      const ExecPlan& plan,
                                      const StrategyOptions& options = {});

}  // namespace isomer
