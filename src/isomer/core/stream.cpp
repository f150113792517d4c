#include "isomer/core/stream.hpp"

#include <memory>

#include "isomer/core/operators.hpp"

namespace isomer {

double StreamReport::mean_latency_ms() const {
  if (outcomes.empty()) return 0;
  double total = 0;
  for (const StreamOutcome& outcome : outcomes)
    total += to_milliseconds(outcome.latency());
  return total / static_cast<double>(outcomes.size());
}

SimTime StreamReport::max_latency() const {
  SimTime worst = 0;
  for (const StreamOutcome& outcome : outcomes)
    worst = std::max(worst, outcome.latency());
  return worst;
}

StreamReport run_query_stream(const Federation& federation,
                              const std::vector<StreamQuery>& stream,
                              const StrategyOptions& options) {
  Simulator sim;
  Cluster cluster(sim, options.costs, federation.db_count(),
                  options.topology);

  StreamReport report;
  report.outcomes.resize(stream.size());

  // Each execution keeps its own env (trace, meters, query binding) but all
  // envs drive the one simulator/cluster. Envs live in stable storage
  // because the deferred callbacks hold references to them.
  // StrategyOptions::batch flows through the per-query copy, so each
  // execution runs its own ShipmentBatcher: same-instant records of ONE
  // query coalesce, frames of different queries still contend for the
  // shared medium individually (batching is an executor behavior, not a
  // network one).
  std::vector<std::unique_ptr<detail::ExecEnv>> envs;
  envs.reserve(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const StreamQuery& entry = stream[i];
    // Every span carries its query's stream index, so one shared session
    // captures the whole interleaved schedule.
    envs.push_back(std::make_unique<detail::ExecEnv>(
        federation, entry.query, options, sim, cluster));
    detail::ExecEnv* env = envs.back().get();
    const bool hybrid = entry.plan != nullptr && entry.plan->hybrid;
    env->set_span_context(hybrid ? std::string_view{"HY"}
                                 : to_string(entry.kind),
                          i);
    StreamOutcome& outcome = report.outcomes[i];
    outcome.arrival = entry.arrival;

    const auto on_done = [&outcome](QueryResult result, SimTime at) {
      outcome.result = std::move(result);
      outcome.completion = at;
    };
    // Every stream entry is an operator plan; a bare kind runs its pure
    // plan, which is bitwise identical to the monolithic executor.
    auto plan = entry.plan != nullptr
                    ? entry.plan
                    : std::make_shared<const ExecPlan>(
                          ExecPlan::pure(entry.kind));
    sim.schedule_at(entry.arrival, [env, plan, on_done] {
      detail::launch_plan(*env, *plan, nullptr, on_done);
    });
  }

  sim.run();

  for (const StreamOutcome& outcome : report.outcomes) {
    ensures(outcome.completion >= outcome.arrival,
            "a stream query did not complete");
    report.makespan = std::max(report.makespan, outcome.completion);
  }
  report.total_busy_ns =
      cluster.cpu_busy() + cluster.disk_busy() + cluster.network_busy();
  report.bytes_transferred = cluster.bytes_transferred();
  return report;
}

}  // namespace isomer
