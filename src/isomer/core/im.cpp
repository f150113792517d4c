// The IM strategy: on-the-fly imputation with probabilistic certification
// (ROADMAP item 2, docs/IMPUTATION.md).
//
// IM is BL with one extra dispatch-side filter. Where BL ships a check
// request for every first-round unsolved atom, IM first consults the
// population model (StrategyOptions::impute — an analytic/impute.hpp
// ImputeModel behind the core-side ImputeOracle interface): an atom whose
// estimated verdict is upgradable under the declared missingness mechanism
// *and* clears the confidence threshold is answered locally — its tasks are
// stripped from the plan and the estimated CheckVerdict rides to the global
// site with the plan's local (signature) verdicts, exactly like a
// certificate-cache hit. Everything below the threshold falls back to the
// normal residual-condition path, which is what makes IM compose with
// --certcache (the certificate filter runs first and wins) and with
// --faults (imputed atoms never touch the wire, so dead assistant homes
// cannot block them).
//
// The filter also consults the model for the plan's *unadvised* atoms —
// unsolved sites with no capable assistant anywhere (CheckPlan::unadvised).
// The certified strategies can never resolve those rows; a confident
// population estimate is the only way to upgrade them, which is where IM
// keeps answering after every assistant home dies.
//
// The second half of the strategy runs at the global site: after certify()
// builds the rows, discharge() consults the model for the atoms the filter
// could not reach — root-level sites (decided by the row pool, which
// decides nothing when every copy is a gap) and atoms whose assistants
// never answered — and evaluates each maybe row's residual condition with
// the confident estimates as its leaves' values, upgrading or eliminating
// the rows that thereby decide.
//
// The launch path, the operators and the certification are bl.cpp's; this
// file owns only the filter and the discharge. At threshold 1.0 no smoothed
// confidence ever clears, both passes strip nothing, and the execution is
// bitwise identical to plain BL — tests/test_impute.cpp pins that down
// across 200 seeds.
#include <algorithm>
#include <map>
#include <set>
#include <tuple>

#include "isomer/core/operators.hpp"

namespace isomer::detail {

void ImputeState::filter(ExecEnv& env, SiteIndex from, DbId home,
                         CheckPlan& plan, CertWriteback* certs) {
  if (oracle == nullptr ||
      (plan.by_target.empty() && plan.unadvised.empty()))
    return;
  // One oracle consultation per distinct first-round atom instance (item,
  // predicate, step), mirroring CertWriteback::filter: duplicated tasks
  // (two maybe rows advised by the same item) share the decision, exactly
  // as their shipped verdicts would have pooled.
  std::map<std::tuple<GOid, std::size_t, std::size_t>, bool> cleared;
  std::uint64_t impute_count = 0, decline_count = 0;
  for (auto target = plan.by_target.begin();
       target != plan.by_target.end();) {
    std::vector<CheckTask>& tasks = target->second;
    std::erase_if(tasks, [&](const CheckTask& task) {
      if (task.origin != task.item) return false;  // cascaded: never imputed
      const auto key = std::tuple{task.item, task.predicate, task.step};
      auto it = cleared.find(key);
      if (it == cleared.end()) {
        const ImputeOracle::Decision decision =
            oracle->decide(env.fed(), env.query(), task.item, task.predicate,
                           task.step, home, mar);
        const bool impute_it =
            decision.upgradable && decision.confidence >= threshold;
        it = cleared.emplace(key, impute_it).first;
        if (impute_it) {
          ++impute_count;
          plan.local_verdicts.push_back(
              CheckVerdict{task.origin, task.predicate, decision.verdict});
          // Keep the least confident estimate when several steps of the
          // same predicate impute for this item — certify() multiplies one
          // confidence per atom into the row. An imputed *Unknown* only
          // predicts that the protocol would come back undecided: it strips
          // the traffic but upgrades nothing, so the row's confidence stays
          // untouched.
          if (!is_unknown(decision.verdict)) {
            auto [conf, inserted] = confidences.try_emplace(
                std::pair{task.item, task.predicate}, decision.confidence);
            if (!inserted)
              conf->second = std::min(conf->second, decision.confidence);
          }
          // The atom's evidence pool now contains an *estimate*: taint it
          // so the certificate writeback never launders the guess into a
          // certificate another query would trust as exact.
          if (certs != nullptr)
            certs->tainted.insert(std::pair{task.item, task.predicate});
        } else {
          ++decline_count;
        }
      }
      return it->second;
    });
    // A fully-imputed target must not receive an empty check request.
    if (tasks.empty())
      target = plan.by_target.erase(target);
    else
      ++target;
  }
  // Unadvised atoms: no assistant can evaluate them, so there is no traffic
  // to strip and the certified path would leave their rows maybe forever. A
  // confident True/False estimate upgrades them anyway; an estimated
  // Unknown changes nothing here (the protocol it predicts was never going
  // to run) and is left alone rather than counted as an imputation.
  for (const UnsolvedItem& atom : plan.unadvised) {
    if (atom.origin != atom.item) continue;  // cascaded: never imputed
    const auto key = std::tuple{atom.item, atom.predicate, atom.step};
    if (cleared.contains(key)) continue;  // duplicate instance, same row pool
    const ImputeOracle::Decision decision =
        oracle->decide(env.fed(), env.query(), atom.item, atom.predicate,
                       atom.step, home, mar);
    const bool impute_it = decision.upgradable &&
                           !is_unknown(decision.verdict) &&
                           decision.confidence >= threshold;
    cleared.emplace(key, impute_it);
    if (!impute_it) {
      ++decline_count;
      continue;
    }
    ++impute_count;
    plan.local_verdicts.push_back(
        CheckVerdict{atom.origin, atom.predicate, decision.verdict});
    auto [conf, inserted] = confidences.try_emplace(
        std::pair{atom.item, atom.predicate}, decision.confidence);
    if (!inserted) conf->second = std::min(conf->second, decision.confidence);
    if (certs != nullptr)
      certs->tainted.insert(std::pair{atom.item, atom.predicate});
  }
  imputed += impute_count;
  declined += decline_count;
  if (!env.traced()) return;
  const SimTime now = env.sim().now();
  if (impute_count > 0)
    env.mark(Phase::Impute, from, "im.impute/" + std::to_string(impute_count),
             now, now);
  if (decline_count > 0)
    env.mark(Phase::Impute, from,
             "im.decline/" + std::to_string(decline_count), now, now);
}

void ImputeState::discharge(ExecEnv& env,
                            const std::vector<LocalExecution>& locals,
                            QueryResult& result) {
  if (oracle == nullptr) return;
  // The gap-kind evidence for an atom comes from the home that reported it:
  // the lowest DbId whose local row left (item, predicate, step) Unknown —
  // deterministic whatever order the locals arrived in. Atoms nobody
  // reported (the synthesized rows of fully-unreachable entities) have no
  // observable gap to condition on and are never estimated.
  std::map<std::tuple<GOid, std::size_t, std::size_t>, DbId> atom_home;
  for (const LocalExecution& local : locals)
    for (const LocalRow& row : local.rows)
      for (std::size_t p = 0; p < row.preds.size(); ++p) {
        const PredStatus& status = row.preds[p];
        if (!is_unknown(status.truth)) continue;
        auto [it, inserted] = atom_home.try_emplace(
            std::tuple{status.item, p, status.step}, local.db);
        if (!inserted && local.db < it->second) it->second = local.db;
      }

  // One oracle consultation per distinct residual atom, shared across rows.
  std::map<std::tuple<GOid, std::size_t, std::size_t>, ImputeOracle::Decision>
      decisions;
  const auto decide =
      [&](const CondAtom& atom) -> const ImputeOracle::Decision& {
    const auto key = std::tuple{atom.item, atom.predicate, atom.step};
    auto it = decisions.find(key);
    if (it == decisions.end()) {
      ImputeOracle::Decision decision;  // not upgradable
      const auto home = atom_home.find(key);
      if (home != atom_home.end())
        decision = oracle->decide(env.fed(), env.query(), atom.item,
                                  atom.predicate, atom.step, home->second,
                                  mar);
      it = decisions.emplace(key, decision).first;
    }
    return it->second;
  };

  std::uint64_t impute_count = 0, upgraded = 0, eliminated = 0;
  std::set<std::tuple<GOid, std::size_t, std::size_t>> used;
  std::vector<char> kill(result.rows.size(), 0);
  const auto confident = [this](const ImputeOracle::Decision& decision) {
    return decision.upgradable && !is_unknown(decision.verdict) &&
           decision.confidence >= threshold;
  };
  // Each leaf takes its atom's confident estimate; the rest stay Unknown.
  const Condition::LeafValue estimate = [&](const CondAtom& atom) {
    const ImputeOracle::Decision& decision = decide(atom);
    return confident(decision) ? decision.verdict : Truth::Unknown;
  };
  for (std::size_t i = 0; i < result.rows.size(); ++i) {
    ResultRow& row = result.rows[i];
    if (row.status != ResultStatus::Maybe) continue;
    double confidence = row.confidence;
    // Each distinct atom discounts the row's confidence once, however many
    // leaves it decides — certify()'s per-atom fold.
    std::set<std::tuple<GOid, std::size_t, std::size_t>> row_used;
    for (const CondAtom& atom : row.condition.atoms()) {
      const ImputeOracle::Decision& decision = decide(atom);
      if (!confident(decision)) continue;
      if (row_used
              .insert(std::tuple{atom.item, atom.predicate, atom.step})
              .second)
        confidence *= decision.confidence;
    }
    if (row_used.empty()) continue;
    const Truth truth = row.condition.truth(estimate);
    // Undecided: the estimates were not enough — leave the row exactly as
    // certified rather than leaking partial guesses into its residual.
    if (is_unknown(truth)) continue;
    for (const auto& key : row_used)
      if (used.insert(key).second) ++impute_count;
    if (is_true(truth)) {
      row.status = ResultStatus::Certain;
      row.confidence = confidence;
      row.condition = Condition{};
      ++upgraded;
    } else {
      kill[i] = 1;
      ++eliminated;
    }
  }
  if (eliminated > 0) {
    std::size_t w = 0;
    for (std::size_t i = 0; i < result.rows.size(); ++i)
      if (kill[i] == 0) result.rows[w++] = std::move(result.rows[i]);
    result.rows.resize(w);
  }
  imputed += impute_count;
  upgraded_rows += upgraded;
  eliminated_rows += eliminated;
  if (env.traced() && (impute_count > 0 || upgraded > 0 || eliminated > 0)) {
    const SimTime now = env.sim().now();
    env.mark(
        Phase::Impute, kGlobalSite,
        "im.discharge imputed=" + std::to_string(impute_count) +
            " upgraded=" + std::to_string(upgraded) +
            " eliminated=" + std::to_string(eliminated),
        now, now);
  }
}

}  // namespace isomer::detail
