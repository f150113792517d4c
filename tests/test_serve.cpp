// Serving layer: admission, scheduling policies, backpressure, per-query
// accounting, and equivalence with the direct executor path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "isomer/common/error.hpp"
#include "isomer/serve/planner.hpp"
#include "isomer/serve/server.hpp"
#include "isomer/workload/arrivals.hpp"
#include "isomer/workload/paper_example.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer {
namespace {

using serve::ArrivalMode;
using serve::SchedPolicy;
using serve::ServeOptions;
using serve::ServeOutcome;
using serve::ServeReport;
using serve::ServeRequest;
using serve::ServeSpec;

ServeSpec open_spec(std::size_t n) {
  ServeSpec spec;
  spec.mode = ArrivalMode::Open;
  spec.rate_qps = 50;
  spec.n_queries = n;
  spec.queue_limit = 0;
  spec.site_inflight = 0;
  return spec;
}

TEST(Serve, SingleQueryMatchesStandaloneExecution) {
  // The serving layer is a scheduler, not an executor: one query through it
  // must reproduce the direct execute_strategy figures exactly — same
  // answer, same bytes on the wire, same message count, same busy time.
  const paper::UniversityExample example = paper::make_university();
  for (const StrategyKind kind : kAllStrategies) {
    StrategyOptions solo_options;
    const StrategyReport solo =
        execute_strategy(kind, *example.federation, paper::q1(), solo_options);

    const std::vector<ServeRequest> pool{{paper::q1(), kind, 1.0}};
    const ServeReport report =
        serve::serve(*example.federation, pool, open_spec(1), {});
    ASSERT_EQ(report.outcomes.size(), 1u) << to_string(kind);
    const ServeOutcome& outcome = report.outcomes[0];
    EXPECT_FALSE(outcome.rejected);
    EXPECT_EQ(outcome.result, solo.result) << to_string(kind);
    EXPECT_EQ(outcome.latency(), solo.response_ns) << to_string(kind);
    EXPECT_EQ(outcome.wire_bytes, solo.bytes_transferred) << to_string(kind);
    EXPECT_EQ(outcome.messages, solo.messages) << to_string(kind);
    EXPECT_EQ(report.bytes_transferred, solo.bytes_transferred);
    EXPECT_EQ(report.messages, solo.messages);
    EXPECT_EQ(report.total_busy_ns, solo.total_ns);
    EXPECT_EQ(report.completed, 1u);
    EXPECT_EQ(report.rejected, 0u);
  }
}

TEST(Serve, EveryCompletedAnswerMatchesTheReference) {
  const paper::UniversityExample example = paper::make_university();
  const QueryResult expected =
      reference_answer(*example.federation, paper::q1());
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0},
                                       {paper::q1(), StrategyKind::PL, 2.0},
                                       {paper::q1(), StrategyKind::CA, 3.0}};
  ServeSpec spec;
  spec.mode = ArrivalMode::Closed;
  spec.clients = 3;
  spec.think_ns = 0;
  spec.n_queries = 12;
  spec.queue_limit = 0;
  spec.site_inflight = 2;
  const ServeReport report = serve::serve(*example.federation, pool, spec, {});
  EXPECT_EQ(report.completed, 12u);
  for (const ServeOutcome& outcome : report.outcomes)
    EXPECT_EQ(outcome.result, expected);
}

TEST(Serve, DeterministicReplay) {
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0},
                                       {paper::q1(), StrategyKind::PL, 2.0}};
  ServeSpec spec = open_spec(10);
  spec.rate_qps = 200;
  spec.site_inflight = 2;
  spec.seed = 7;
  const ServeReport a = serve::serve(*example.federation, pool, spec, {});
  const ServeReport b = serve::serve(*example.federation, pool, spec, {});
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].arrival, b.outcomes[i].arrival) << i;
    EXPECT_EQ(a.outcomes[i].start, b.outcomes[i].start) << i;
    EXPECT_EQ(a.outcomes[i].completion, b.outcomes[i].completion) << i;
    EXPECT_EQ(a.outcomes[i].pool_index, b.outcomes[i].pool_index) << i;
    EXPECT_EQ(a.outcomes[i].wire_bytes, b.outcomes[i].wire_bytes) << i;
  }
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.bytes_transferred, b.bytes_transferred);
  EXPECT_EQ(a.total_busy_ns, b.total_busy_ns);
}

TEST(Serve, BoundedQueueRejectsInsteadOfDeadlocking) {
  // A tiny queue under a hard arrival burst: overflow arrivals bounce with
  // a tagged outcome at their arrival instant, everything else completes,
  // and the run terminates (the test finishing IS the no-deadlock check).
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  ServeSpec spec = open_spec(12);
  spec.rate_qps = 1e6;  // essentially simultaneous arrivals
  spec.queue_limit = 2;
  spec.site_inflight = 1;
  const ServeReport report = serve::serve(*example.federation, pool, spec, {});
  EXPECT_EQ(report.completed + report.rejected, 12u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_GT(report.completed, 0u);
  EXPECT_LE(report.max_queue_depth, 2u);
  for (const ServeOutcome& outcome : report.outcomes) {
    if (!outcome.rejected) continue;
    EXPECT_EQ(outcome.completion, outcome.arrival);
    EXPECT_EQ(outcome.wire_bytes, 0u);
    EXPECT_TRUE(outcome.result.rows.empty());
  }
}

TEST(Serve, ClosedLoopClientsSurviveRejection) {
  // Rejected clients back off and resubmit rather than stalling: all
  // n_queries submissions happen even when the queue keeps overflowing.
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  ServeSpec spec;
  spec.mode = ArrivalMode::Closed;
  spec.clients = 6;
  spec.think_ns = 0;
  spec.n_queries = 20;
  spec.queue_limit = 1;
  spec.site_inflight = 1;
  const ServeReport report = serve::serve(*example.federation, pool, spec, {});
  EXPECT_EQ(report.outcomes.size(), 20u);
  EXPECT_EQ(report.completed + report.rejected, 20u);
  EXPECT_GT(report.rejected, 0u);
}

TEST(Serve, InflightCapBoundsConcurrency) {
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  ServeSpec spec = open_spec(10);
  spec.rate_qps = 1e6;
  spec.site_inflight = 2;
  const ServeReport report = serve::serve(*example.federation, pool, spec, {});
  EXPECT_EQ(report.completed, 10u);
  EXPECT_LE(report.max_inflight, 2u);
  // Reconstruct the concurrency profile from the execution intervals: at no
  // instant do more than site_inflight executions overlap.
  std::vector<std::pair<SimTime, int>> events;
  for (const ServeOutcome& outcome : report.outcomes) {
    events.emplace_back(outcome.start, +1);
    events.emplace_back(outcome.completion, -1);
  }
  std::sort(events.begin(), events.end());
  int inflight = 0;
  for (const auto& [at, delta] : events) {
    inflight += delta;
    EXPECT_LE(inflight, 2);
  }
}

TEST(Serve, SpcBeatsFifoOnMeanLatencyUnderContention) {
  // The SJF effect: with a backlog of heterogeneous queries, running the
  // predicted-cheap ones first lowers the mean latency; FIFO makes short
  // queries wait behind long ones. Predictions here are the *measured* solo
  // responses, isolating the scheduling claim from advisor accuracy.
  Rng rng(77);
  ParamConfig config;
  config.n_objects = {150, 200};
  config.n_classes = {3, 4};
  config.n_preds = {1, 3};
  const SampleParams sample = draw_sample(config, rng);
  const SynthFederation synth = materialize_sample(sample);

  StrategyOptions solo_options;
  std::vector<ServeRequest> pool;
  for (const StrategyKind kind :
       {StrategyKind::BL, StrategyKind::CA}) {  // cheap vs expensive
    ServeRequest request;
    request.query = synth.query;
    request.kind = kind;
    request.predicted_cost_s = to_seconds(
        execute_strategy(kind, *synth.federation, synth.query, solo_options)
            .response_ns);
    pool.push_back(std::move(request));
  }
  ASSERT_NE(pool[0].predicted_cost_s, pool[1].predicted_cost_s);

  const auto run_policy = [&](SchedPolicy policy) {
    ServeSpec spec;
    spec.mode = ArrivalMode::Closed;
    spec.clients = 6;
    spec.think_ns = 0;
    spec.n_queries = 18;
    spec.queue_limit = 0;
    spec.site_inflight = 1;
    spec.policy = policy;
    spec.seed = 3;
    return serve::serve(*synth.federation, pool, spec, {});
  };
  const ServeReport fifo = run_policy(SchedPolicy::Fifo);
  const ServeReport spc = run_policy(SchedPolicy::Spc);
  EXPECT_EQ(fifo.completed, 18u);
  EXPECT_EQ(spc.completed, 18u);
  EXPECT_LT(spc.mean_latency_ms(), fifo.mean_latency_ms());
}

TEST(Serve, P99GrowsWithOfferedLoad) {
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  StrategyOptions solo_options;
  const double solo_s =
      to_seconds(execute_strategy(StrategyKind::BL, *example.federation,
                                  paper::q1(), solo_options)
                     .response_ns);
  SimTime previous = 0;
  for (const double fraction : {0.3, 0.9, 1.5}) {
    ServeSpec spec = open_spec(24);
    spec.rate_qps = fraction / solo_s;
    spec.site_inflight = 1;
    const ServeReport report =
        serve::serve(*example.federation, pool, spec, {});
    EXPECT_EQ(report.completed, 24u);
    const SimTime p99 = report.latency_percentile(0.99);
    EXPECT_GE(p99, previous) << "offered load fraction " << fraction;
    previous = p99;
  }
}

TEST(Serve, PerQueryWireAccountingSumsToTheClusterTotal) {
  // Fault-free, every transfer belongs to exactly one execution: the new
  // per-env wire meters must partition the cluster's aggregate exactly.
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0},
                                       {paper::q1(), StrategyKind::CA, 3.0},
                                       {paper::q1(), StrategyKind::PL, 2.0}};
  ServeSpec spec = open_spec(9);
  spec.rate_qps = 500;
  spec.site_inflight = 3;
  const ServeReport report = serve::serve(*example.federation, pool, spec, {});
  EXPECT_EQ(report.completed, 9u);
  Bytes wire_sum = 0;
  std::uint64_t message_sum = 0;
  for (const ServeOutcome& outcome : report.outcomes) {
    EXPECT_GT(outcome.wire_bytes, 0u);
    wire_sum += outcome.wire_bytes;
    message_sum += outcome.messages;
  }
  EXPECT_EQ(wire_sum, report.bytes_transferred);
  EXPECT_EQ(message_sum, report.messages);
}

TEST(Serve, SessionsCollectSpansPerSubmission) {
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  ServeSpec spec = open_spec(4);
  spec.rate_qps = 1000;
  std::vector<obs::TraceSession> sessions;
  ServeOptions options;
  options.sessions = &sessions;
  const ServeReport report =
      serve::serve(*example.federation, pool, spec, options);
  ASSERT_EQ(sessions.size(), 4u);
  EXPECT_EQ(report.completed, 4u);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_FALSE(sessions[i].empty()) << i;
    for (const obs::PhaseSpan& span : sessions[i].spans()) {
      EXPECT_EQ(span.query, i);
      EXPECT_EQ(span.strategy, "BL");
    }
  }
}

TEST(Serve, MetricsRecordLatenciesAndCounts) {
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  ServeSpec spec = open_spec(5);
  obs::MetricsRegistry registry;
  ServeOptions options;
  options.metrics = &registry;
  const ServeReport report =
      serve::serve(*example.federation, pool, spec, options);
  EXPECT_EQ(registry.counter("serve.completed").value(), report.completed);
  EXPECT_EQ(registry.counter("serve.rejected").value(), report.rejected);
  const obs::Histogram::Snapshot snap =
      registry.histogram("serve.latency_us").snapshot();
  EXPECT_EQ(snap.count, report.completed);
  // The histogram estimate brackets the exact percentile's bucket: both lie
  // within the recorded [min, max].
  EXPECT_GE(snap.p99(), snap.min);
  EXPECT_LE(snap.p99(), snap.max);
}

TEST(Serve, FaultPlanComposesAndStillTerminates) {
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  ServeSpec spec = open_spec(6);
  spec.rate_qps = 100;
  fault::FaultPlan plan;
  plan.drop_probability = 0.05;
  plan.seed = 11;
  ServeOptions options;
  options.exec.faults = &plan;
  options.exec.retry.max_retries = 8;
  options.exec.degrade = fault::DegradeMode::Partial;
  const ServeReport report =
      serve::serve(*example.federation, pool, spec, options);
  EXPECT_EQ(report.completed + report.rejected, 6u);
  // Replays bit-identically: per-query fault streams derive from the plan
  // seed and the submission index, not from scheduling happenstance.
  const ServeReport again =
      serve::serve(*example.federation, pool, spec, options);
  ASSERT_EQ(report.outcomes.size(), again.outcomes.size());
  for (std::size_t i = 0; i < report.outcomes.size(); ++i)
    EXPECT_EQ(report.outcomes[i].completion, again.outcomes[i].completion);
}

TEST(Serve, EmptyPoolThrows) {
  const paper::UniversityExample example = paper::make_university();
  EXPECT_THROW((void)serve::serve(*example.federation, {}, open_spec(1), {}),
               ServeError);
}

double paper_solo_s(StrategyKind kind) {
  const paper::UniversityExample example = paper::make_university();
  StrategyOptions solo_options;
  return to_seconds(
      execute_strategy(kind, *example.federation, paper::q1(), solo_options)
          .response_ns);
}

/// A gold/free tenant pair over the q1 pool: gold carries 3x the weight and
/// a `gold_slo_solos`x-solo SLO, free is loose. Used by the policy tests.
std::pair<std::vector<serve::TenantSpec>, std::vector<ServeRequest>>
gold_free_setup(double gold_slo_solos, double free_slo_solos) {
  const double solo_s = paper_solo_s(StrategyKind::BL);
  serve::TenantSpec gold;
  gold.id = "gold";
  gold.weight = 3.0;
  gold.quota = 64;
  gold.slo_ns = static_cast<SimTime>(gold_slo_solos * solo_s * 1e9);
  serve::TenantSpec free_tier;
  free_tier.id = "free";
  free_tier.weight = 1.0;
  free_tier.quota = 64;
  free_tier.slo_ns = static_cast<SimTime>(free_slo_solos * solo_s * 1e9);
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  return {std::vector<serve::TenantSpec>{gold, free_tier},
          serve::tag_tenants(pool, {gold, free_tier})};
}

TEST(Tenants, TenantlessRunsReportNoTenants) {
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  const ServeReport report =
      serve::serve(*example.federation, pool, open_spec(3), {});
  EXPECT_TRUE(report.tenants.empty());
  for (const ServeOutcome& outcome : report.outcomes) {
    EXPECT_EQ(outcome.tenant, 0u);
    EXPECT_EQ(outcome.deadline, 0);
  }
}

TEST(Tenants, ReportsPartitionTheClusterTotals) {
  // Per-tenant wire/messages/counts must partition the run's aggregates
  // exactly, the same way the per-outcome sums do.
  const paper::UniversityExample example = paper::make_university();
  auto [tenants, pool] = gold_free_setup(50.0, 50.0);
  ServeSpec spec;
  spec.mode = ArrivalMode::Closed;
  spec.clients = 4;
  spec.think_ns = 0;
  spec.n_queries = 12;
  spec.queue_limit = 0;
  spec.site_inflight = 2;
  spec.tenants = tenants;
  const ServeReport report = serve::serve(*example.federation, pool, spec, {});
  ASSERT_EQ(report.tenants.size(), 2u);
  Bytes wire = 0;
  std::uint64_t messages = 0;
  std::size_t submitted = 0, completed = 0, rejected = 0;
  for (const serve::TenantReport& tenant : report.tenants) {
    wire += tenant.wire_bytes;
    messages += tenant.messages;
    submitted += tenant.submitted;
    completed += tenant.completed;
    rejected += tenant.rejected;
  }
  EXPECT_EQ(wire, report.bytes_transferred);
  EXPECT_EQ(messages, report.messages);
  EXPECT_EQ(submitted, 12u);
  EXPECT_EQ(completed, report.completed);
  EXPECT_EQ(rejected, report.rejected);
  // Both tenants saw traffic (clients round-robin over tenants).
  EXPECT_GT(report.tenants[0].submitted, 0u);
  EXPECT_GT(report.tenants[1].submitted, 0u);
}

TEST(Tenants, DeadlineIsArrivalPlusSlo) {
  const paper::UniversityExample example = paper::make_university();
  auto [tenants, pool] = gold_free_setup(5.0, 50.0);
  ServeSpec spec = open_spec(8);
  spec.rate_qps = 40;
  spec.tenants = tenants;
  const ServeReport report = serve::serve(*example.federation, pool, spec, {});
  for (const ServeOutcome& outcome : report.outcomes) {
    ASSERT_LT(outcome.tenant, tenants.size());
    EXPECT_EQ(outcome.deadline,
              outcome.arrival + tenants[outcome.tenant].slo_ns);
  }
}

TEST(Tenants, ReplayIsBitIdenticalUnderFaults) {
  const paper::UniversityExample example = paper::make_university();
  auto [tenants, pool] = gold_free_setup(5.0, 50.0);
  ServeSpec spec = open_spec(10);
  spec.rate_qps = 60;
  spec.site_inflight = 2;
  spec.policy = SchedPolicy::Edf;
  spec.tenants = tenants;
  fault::FaultPlan plan;
  plan.drop_probability = 0.05;
  plan.seed = 13;
  ServeOptions options;
  options.exec.faults = &plan;
  options.exec.retry.max_retries = 8;
  options.exec.degrade = fault::DegradeMode::Partial;
  const ServeReport a = serve::serve(*example.federation, pool, spec, options);
  const ServeReport b = serve::serve(*example.federation, pool, spec, options);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].arrival, b.outcomes[i].arrival) << i;
    EXPECT_EQ(a.outcomes[i].completion, b.outcomes[i].completion) << i;
    EXPECT_EQ(a.outcomes[i].tenant, b.outcomes[i].tenant) << i;
    EXPECT_EQ(a.outcomes[i].wire_bytes, b.outcomes[i].wire_bytes) << i;
  }
  ASSERT_EQ(a.tenants.size(), b.tenants.size());
  for (std::size_t t = 0; t < a.tenants.size(); ++t) {
    EXPECT_EQ(a.tenants[t].completed, b.tenants[t].completed) << t;
    EXPECT_EQ(a.tenants[t].wire_bytes, b.tenants[t].wire_bytes) << t;
    EXPECT_EQ(a.tenants[t].deadline_misses, b.tenants[t].deadline_misses)
        << t;
  }
}

TEST(Tenants, WfqSharesTrackWeights) {
  // Closed loop with a standing backlog: WFQ's long-run served-cost share
  // per tenant converges to the weight share. The tolerance absorbs the
  // end-of-run drain (the last `clients` submissions are not reordered).
  const paper::UniversityExample example = paper::make_university();
  auto [tenants, pool] = gold_free_setup(50.0, 50.0);
  ServeSpec spec;
  spec.mode = ArrivalMode::Closed;
  spec.clients = 8;
  spec.think_ns = 0;
  spec.n_queries = 60;
  spec.queue_limit = 0;
  spec.site_inflight = 1;
  spec.policy = SchedPolicy::Wfq;
  spec.tenants = tenants;
  const ServeReport report = serve::serve(*example.federation, pool, spec, {});
  ASSERT_EQ(report.completed, 60u);
  for (std::size_t t = 0; t < report.tenants.size(); ++t)
    EXPECT_NEAR(report.fairness_ratio(t), 1.0, 0.25)
        << report.tenants[t].id;
  // FIFO splits service evenly — the weighted ratios sit far from 1.
  spec.policy = SchedPolicy::Fifo;
  const ServeReport fifo = serve::serve(*example.federation, pool, spec, {});
  EXPECT_LT(fifo.fairness_ratio(0), 0.85);  // gold under-served
  EXPECT_GT(fifo.fairness_ratio(1), 1.15);  // free over-served
}

TEST(Tenants, EdfMissesFewerDeadlinesThanFifo) {
  // Gold's SLO (5x solo) is unmeetable under FIFO at 8 concurrent clients
  // (everyone's turnaround is ~8x solo), but achievable when EDF runs the
  // tightest deadlines first; free's loose SLO absorbs the wait.
  const paper::UniversityExample example = paper::make_university();
  auto [tenants, pool] = gold_free_setup(5.0, 100.0);
  ServeSpec spec;
  spec.mode = ArrivalMode::Closed;
  spec.clients = 8;
  spec.think_ns = 0;
  spec.n_queries = 48;
  spec.queue_limit = 0;
  spec.site_inflight = 1;
  spec.tenants = tenants;
  const auto misses = [&](SchedPolicy policy) {
    spec.policy = policy;
    const ServeReport report =
        serve::serve(*example.federation, pool, spec, {});
    std::uint64_t total = 0;
    for (const serve::TenantReport& tenant : report.tenants)
      total += tenant.deadline_misses;
    return total;
  };
  const std::uint64_t fifo = misses(SchedPolicy::Fifo);
  const std::uint64_t edf = misses(SchedPolicy::Edf);
  EXPECT_GT(fifo, 0u);
  EXPECT_LT(edf, fifo);
}

TEST(Tenants, QuotaBoundsAdmission) {
  // Per-tenant quota 1 under a burst: at most one admitted-waiting
  // submission per tenant, so the queue never holds more than two, and the
  // overflow rejections land on the tenants that offered them.
  const paper::UniversityExample example = paper::make_university();
  auto [tenants, pool] = gold_free_setup(50.0, 50.0);
  for (serve::TenantSpec& tenant : tenants) tenant.quota = 1;
  ServeSpec spec = open_spec(16);
  spec.rate_qps = 1e6;  // essentially simultaneous arrivals
  spec.site_inflight = 1;
  spec.tenants = tenants;
  const ServeReport report = serve::serve(*example.federation, pool, spec, {});
  EXPECT_EQ(report.completed + report.rejected, 16u);
  EXPECT_GT(report.rejected, 0u);
  EXPECT_LE(report.max_queue_depth, 2u);
  std::size_t rejected = 0;
  for (const serve::TenantReport& tenant : report.tenants)
    rejected += tenant.rejected;
  EXPECT_EQ(rejected, report.rejected);
}

TEST(Tenants, SpansAttributeSubmissionsToTenants) {
  const paper::UniversityExample example = paper::make_university();
  auto [tenants, pool] = gold_free_setup(5.0, 50.0);
  ServeSpec spec = open_spec(6);
  spec.rate_qps = 100;
  spec.tenants = tenants;
  std::vector<obs::TraceSession> sessions;
  ServeOptions options;
  options.sessions = &sessions;
  const ServeReport report =
      serve::serve(*example.federation, pool, spec, options);
  ASSERT_EQ(sessions.size(), 6u);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (report.outcomes[i].rejected) continue;
    const std::string expected =
        "serve.tenant/" + tenants[report.outcomes[i].tenant].id;
    bool found = false;
    for (const obs::PhaseSpan& span : sessions[i].spans())
      if (span.phase == Phase::Serve && span.step == expected) found = true;
    EXPECT_TRUE(found) << "submission " << i << " lacks a " << expected
                       << " span";
  }
}

TEST(Tenants, AutoscaleRaisesCapUnderPressure) {
  // Open loop far past the one-slot capacity: queue-wait p95 grows while
  // the sites sit mostly idle, so the autoscaler must raise the cap. With
  // autoscale off the cap never moves.
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  const double solo_s = paper_solo_s(StrategyKind::BL);
  ServeSpec spec = open_spec(40);
  spec.rate_qps = 3.0 / solo_s;
  spec.site_inflight = 1;
  spec.autoscale = true;
  const ServeReport scaled =
      serve::serve(*example.federation, pool, spec, {});
  EXPECT_EQ(scaled.completed, 40u);
  EXPECT_GT(scaled.inflight_cap_high, 1u);
  EXPECT_EQ(scaled.inflight_cap_low, 1u);
  spec.autoscale = false;
  const ServeReport fixed = serve::serve(*example.federation, pool, spec, {});
  EXPECT_EQ(fixed.inflight_cap_high, 1u);
  EXPECT_EQ(fixed.inflight_cap_low, 1u);
}

TEST(Serve, RejectedSubmissionsAreExcludedFromLatency) {
  // Satellite regression: a high-rejection run's latency figures describe
  // the work that completed. Recompute mean and p50 from the completed
  // outcomes alone and require the report to match exactly.
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  ServeSpec spec = open_spec(20);
  spec.rate_qps = 1e6;
  spec.queue_limit = 1;
  spec.site_inflight = 1;
  const ServeReport report = serve::serve(*example.federation, pool, spec, {});
  ASSERT_GT(report.rejected, 5u);  // the run really is rejection-heavy
  std::vector<SimTime> latencies;
  double sum_ms = 0;
  for (const ServeOutcome& outcome : report.outcomes) {
    if (outcome.rejected) continue;
    latencies.push_back(outcome.latency());
    sum_ms += to_milliseconds(outcome.latency());
  }
  ASSERT_FALSE(latencies.empty());
  std::sort(latencies.begin(), latencies.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.5 * static_cast<double>(latencies.size())));
  EXPECT_EQ(report.latency_percentile(0.5), latencies[rank - 1]);
  EXPECT_DOUBLE_EQ(report.mean_latency_ms(),
                   sum_ms / static_cast<double>(latencies.size()));
  // Folding the rejected zeros in WOULD move the mean — the exclusion is
  // load-bearing, not vacuous.
  EXPECT_NE(sum_ms / static_cast<double>(report.outcomes.size()),
            report.mean_latency_ms());
}

TEST(Serve, ValidatesHandBuiltSpecs) {
  // The parser hard-errors on these; hand-built specs must hit the same
  // wall inside serve() itself.
  const paper::UniversityExample example = paper::make_university();
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0}};
  const auto expect_throws = [&](ServeSpec spec) {
    EXPECT_THROW((void)serve::serve(*example.federation, pool, spec, {}),
                 ServeError);
  };
  ServeSpec spec = open_spec(4);
  spec.n_queries = 0;
  expect_throws(spec);
  spec = open_spec(4);
  spec.rate_qps = 0;
  expect_throws(spec);
  spec = open_spec(4);
  spec.mode = ArrivalMode::Closed;
  spec.clients = 0;
  expect_throws(spec);
  spec = open_spec(4);
  spec.mode = ArrivalMode::Closed;
  spec.clients = 2;
  spec.think_ns = -1;
  expect_throws(spec);
  spec = open_spec(4);
  spec.autoscale = true;
  spec.site_inflight = 0;  // autoscale needs a finite base cap
  expect_throws(spec);
  spec = open_spec(4);
  spec.tenants.resize(2);
  spec.tenants[0].id = "dup";
  spec.tenants[1].id = "dup";
  expect_throws(spec);
  spec = open_spec(4);
  spec.tenants.resize(1);
  spec.tenants[0].id = "bad id";  // spaces not in the tenant-id alphabet
  expect_throws(spec);
  spec = open_spec(4);
  spec.tenants.resize(1);
  spec.tenants[0].id = "t";
  spec.tenants[0].weight = 0;
  expect_throws(spec);
}

TEST(Serve, TenantTagsMustAgreeWithTheSpec) {
  const paper::UniversityExample example = paper::make_university();
  auto [tenants, tagged] = gold_free_setup(5.0, 50.0);
  const std::vector<ServeRequest> untagged{
      {paper::q1(), StrategyKind::BL, 1.0}};
  ServeSpec with_tenants = open_spec(4);
  with_tenants.tenants = tenants;
  // Untagged pool under a tenant spec; tagged pool under a tenant-less one.
  EXPECT_THROW(
      (void)serve::serve(*example.federation, untagged, with_tenants, {}),
      ServeError);
  EXPECT_THROW(
      (void)serve::serve(*example.federation, tagged, open_spec(4), {}),
      ServeError);
  // A tenant owning no pool entry is a config error, not silent starvation.
  std::vector<ServeRequest> partial = untagged;
  partial[0].tenant = "gold";
  EXPECT_THROW(
      (void)serve::serve(*example.federation, partial, with_tenants, {}),
      ServeError);
}

TEST(Planner, TagTenantsReplicatesThePool) {
  const std::vector<ServeRequest> pool{{paper::q1(), StrategyKind::BL, 1.0},
                                       {paper::q1(), StrategyKind::CA, 3.0}};
  std::vector<serve::TenantSpec> tenants(2);
  tenants[0].id = "a";
  tenants[1].id = "b";
  const std::vector<ServeRequest> tagged = serve::tag_tenants(pool, tenants);
  ASSERT_EQ(tagged.size(), 4u);
  for (std::size_t t = 0; t < 2; ++t)
    for (std::size_t p = 0; p < 2; ++p) {
      const ServeRequest& entry = tagged[t * 2 + p];
      EXPECT_EQ(entry.tenant, tenants[t].id);
      EXPECT_EQ(entry.kind, pool[p].kind);
      EXPECT_EQ(entry.predicted_cost_s, pool[p].predicted_cost_s);
    }
  EXPECT_THROW((void)serve::tag_tenants(pool, {}), ServeError);
  EXPECT_THROW((void)serve::tag_tenants(tagged, tenants), ServeError);
}

TEST(Arrivals, TenantPoissonMergesIndependentStreams) {
  std::vector<workload::TenantStream> streams(2);
  streams[0].rate_qps = 50;
  streams[0].pool = {0, 1};
  streams[1].rate_qps = 100;
  streams[1].pool = {2};
  const auto merged = workload::tenant_poisson_arrivals(streams, 60, 42);
  const auto again = workload::tenant_poisson_arrivals(streams, 60, 42);
  EXPECT_EQ(merged, again);
  ASSERT_EQ(merged.size(), 60u);
  for (std::size_t i = 1; i < merged.size(); ++i)
    EXPECT_GE(merged[i].at, merged[i - 1].at);
  for (const workload::Arrival& arrival : merged)
    EXPECT_LT(arrival.pool_index, 3u);
  // Stream independence: stream 0's schedule inside the merge is a prefix
  // of its solo schedule — re-rating tenant 1 cannot perturb tenant 0.
  const auto solo = workload::tenant_poisson_arrivals({streams[0]}, 60, 42);
  std::vector<workload::Arrival> from_zero;
  for (const workload::Arrival& arrival : merged)
    if (arrival.pool_index < 2) from_zero.push_back(arrival);
  ASSERT_LE(from_zero.size(), solo.size());
  for (std::size_t i = 0; i < from_zero.size(); ++i)
    EXPECT_EQ(from_zero[i], solo[i]) << i;
}

TEST(Planner, AdvisorPlansEveryPoolEntry) {
  const paper::UniversityExample example = paper::make_university();
  Rng rng(5);
  const std::vector<GlobalQuery> queries =
      workload::derive_query_pool(paper::q1(), 4, rng);
  const std::vector<ServeRequest> pool =
      serve::plan_pool(*example.federation, queries);
  ASSERT_EQ(pool.size(), 4u);
  for (const ServeRequest& request : pool) {
    EXPECT_GT(request.predicted_cost_s, 0.0);
    // The planner only recommends paper strategies (the advisor estimates
    // CA/BL/PL).
    EXPECT_TRUE(request.kind == StrategyKind::CA ||
                request.kind == StrategyKind::BL ||
                request.kind == StrategyKind::PL);
  }
  // Planned pools serve correctly end to end.
  const ServeReport report =
      serve::serve(*example.federation, pool, open_spec(6), {});
  EXPECT_EQ(report.completed, 6u);
}

TEST(Arrivals, PoissonScheduleIsSortedDeterministicAndRateScaled) {
  Rng a(42), b(42);
  const auto one = workload::poisson_arrivals(100, 200, 3, a);
  const auto two = workload::poisson_arrivals(100, 200, 3, b);
  EXPECT_EQ(one, two);
  ASSERT_EQ(one.size(), 200u);
  for (std::size_t i = 1; i < one.size(); ++i)
    EXPECT_GE(one[i].at, one[i - 1].at);
  for (const workload::Arrival& arrival : one)
    EXPECT_LT(arrival.pool_index, 3u);
  // Mean inter-arrival ~ 1/rate: at rate 100/s over 200 draws the last
  // arrival lands around 2 s; a factor-3 band catches regressions without
  // flaking.
  EXPECT_GT(one.back().at, 600'000'000);    // > 0.6 s
  EXPECT_LT(one.back().at, 6'000'000'000);  // < 6 s
}

TEST(Arrivals, QueryPoolKeepsBaseFirstAndVariantsValid) {
  Rng rng(9);
  const GlobalQuery base = paper::q1();
  const auto pool = workload::derive_query_pool(base, 5, rng);
  ASSERT_EQ(pool.size(), 5u);
  EXPECT_EQ(pool[0].range_class, base.range_class);
  EXPECT_EQ(pool[0].targets, base.targets);
  EXPECT_EQ(pool[0].predicates, base.predicates);
  const paper::UniversityExample example = paper::make_university();
  for (const GlobalQuery& query : pool) {
    EXPECT_EQ(query.range_class, base.range_class);
    EXPECT_FALSE(query.targets.empty());
    // Every variant stays answerable — and every strategy agrees on it.
    const QueryResult expected = reference_answer(*example.federation, query);
    StrategyOptions options;
    const StrategyReport report =
        execute_strategy(StrategyKind::BL, *example.federation, query, options);
    EXPECT_EQ(report.result, expected);
  }
}

}  // namespace
}  // namespace isomer
