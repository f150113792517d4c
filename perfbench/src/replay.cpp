#include "replay.hpp"

#include <algorithm>
#include <iterator>
#include <map>
#include <tuple>
#include <vector>

#include "isomer/core/certify.hpp"
#include "isomer/core/checks.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/schema/translate.hpp"

namespace perfbench {

using namespace isomer;

namespace {

class Replayer {
 public:
  Replayer(SpanLog& log, std::size_t parent, std::uint64_t op)
      : log_(log), parent_(parent), op_(op) {}

  /// Runs `fn` under a span named `name`.
  template <typename Fn>
  auto timed(const char* name, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    auto result = fn();
    log_.record(name, parent_, op_, start, Clock::now());
    return result;
  }

 private:
  SpanLog& log_;
  std::size_t parent_;
  std::uint64_t op_;
};

/// The IM dispatch filter: strips first-round tasks whose atom the model
/// answers at `threshold`, appending the estimated verdicts.
void strip_imputed(const Federation& federation, const GlobalQuery& query,
                   DbId home, const ImputeOracle& oracle, double threshold,
                   CheckPlan& plan, std::vector<CheckVerdict>& verdicts) {
  std::map<std::tuple<GOid, std::size_t, std::size_t>, bool> cleared;
  for (auto& [target, tasks] : plan.by_target)
    std::erase_if(tasks, [&](const CheckTask& task) {
      if (task.origin != task.item) return false;
      const auto key = std::tuple{task.item, task.predicate, task.step};
      auto it = cleared.find(key);
      if (it == cleared.end()) {
        const ImputeOracle::Decision decision = oracle.decide(
            federation, query, task.item, task.predicate, task.step, home,
            false);
        const bool impute =
            decision.upgradable && decision.confidence >= threshold;
        if (impute)
          verdicts.push_back(
              CheckVerdict{task.origin, task.predicate, decision.verdict});
        it = cleared.emplace(key, impute).first;
      }
      return it->second;
    });
}

}  // namespace

void replay_layers(StrategyKind kind, const Federation& federation,
                   const GlobalQuery& query, const ImputeOracle* impute,
                   double threshold, SpanLog& log, std::size_t parent,
                   std::uint64_t op, ReplayCounts& counts) {
  Replayer replay(log, parent, op);
  if (kind == StrategyKind::CA) {
    const MaterializedView view = replay.timed("federation.materialize", [&] {
      return materialize(federation,
                         classes_involved(federation.schema(), query));
    });
    replay.timed("query.evaluate_global", [&] {
      return evaluate_global(view, federation.schema(), query);
    });
    return;
  }

  const bool eager = kind == StrategyKind::PL || kind == StrategyKind::PLS;
  std::vector<LocalExecution> locals;
  std::vector<std::pair<DbId, CheckPlan>> plans;
  std::vector<CheckVerdict> verdicts;
  for (const DbId home : local_query_sites(federation.schema(), query)) {
    std::vector<UnsolvedItem> eager_items;
    if (eager) {
      eager_items = replay.timed("core.plan_checks", [&] {
        AccessMeter meter;
        return unsolved_items_of_all_roots(federation, query, home, &meter);
      });
      plans.emplace_back(home, replay.timed("core.plan_checks", [&] {
        return plan_checks(federation, query, home, eager_items);
      }));
    }
    locals.push_back(replay.timed("store.local_scan", [&] {
      return run_local_query(federation, query, home);
    }));
    counts.rows += locals.back().rows.size();
    counts.considered += locals.back().considered;
    std::vector<UnsolvedItem> items =
        unsolved_items_of_rows(locals.back().rows);
    if (eager) {
      std::vector<UnsolvedItem> wave2;
      std::set_difference(items.begin(), items.end(), eager_items.begin(),
                          eager_items.end(), std::back_inserter(wave2));
      items = std::move(wave2);
    }
    plans.emplace_back(home, replay.timed("core.plan_checks", [&] {
      return plan_checks(federation, query, home, items);
    }));
  }
  if (impute != nullptr)
    for (auto& [home, plan] : plans)
      strip_imputed(federation, query, home, *impute, threshold, plan,
                    verdicts);

  // Checks fan out per (planning site, target); cascaded follow-up plans
  // run as further rounds until none is left.
  while (!plans.empty()) {
    std::vector<std::pair<DbId, CheckPlan>> next;
    for (const auto& [from, plan] : plans) {
      counts.check_tasks += plan.task_count();
      verdicts.insert(verdicts.end(), plan.local_verdicts.begin(),
                      plan.local_verdicts.end());
      for (const auto& [target, tasks] : plan.by_target) {
        CheckOutcome outcome = replay.timed("core.run_checks", [&] {
          return run_checks(federation, query, target, tasks);
        });
        verdicts.insert(verdicts.end(), outcome.verdicts.begin(),
                        outcome.verdicts.end());
        if (!outcome.follow_up.by_target.empty() ||
            !outcome.follow_up.local_verdicts.empty())
          next.emplace_back(target, std::move(outcome.follow_up));
      }
    }
    plans = std::move(next);
  }
  replay.timed("core.certify",
               [&] { return certify(federation, query, locals, verdicts); });
}

}  // namespace perfbench
