// The discrete-event engine: scheduling, FIFO resources, barriers, the
// cluster's network models, cost parameters, and the Fig. 8 views a
// TraceSession derives from its spans.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "isomer/sim/barrier.hpp"
#include "isomer/sim/cluster.hpp"
#include "isomer/obs/trace_session.hpp"

namespace isomer {
namespace {

TEST(Simulator, RunsEventsInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_at(30, [&] { order.push_back(3); });
  sim.schedule_at(10, [&] { order.push_back(1); });
  sim.schedule_at(20, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 30);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulator, SimultaneousEventsAreFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_at(5, [&order, i] { order.push_back(i); });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, CallbacksMayScheduleMore) {
  Simulator sim;
  int fired = 0;
  sim.schedule_at(1, [&] {
    ++fired;
    sim.schedule_after(5, [&] { ++fired; });
  });
  sim.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), 6);
}

TEST(Simulator, RejectsPastAndNull) {
  Simulator sim;
  sim.schedule_at(10, [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(5, [] {}), SimError);
  EXPECT_THROW(sim.schedule_at(20, nullptr), ContractViolation);
}

TEST(Simulator, ClockSaturatesAtTheEndOfTime) {
  constexpr SimTime kEnd = std::numeric_limits<SimTime>::max();
  EXPECT_EQ(clock_add(5, 7), 12);
  EXPECT_EQ(clock_add(kEnd - 1, 1), kEnd);
  EXPECT_EQ(clock_add(1000, kEnd), kEnd);
  EXPECT_EQ(clock_add(kEnd, 0), kEnd);

  // A delay past the end of the clock lands on its last reading, and events
  // scheduled from there (directly or through a resource) run there too.
  Simulator sim;
  Resource r(sim, "net");
  std::vector<SimTime> fired;
  sim.schedule_at(1000, [&] {
    sim.schedule_after(kEnd, [&] {
      fired.push_back(sim.now());
      sim.schedule_after(kEnd, [&] { fired.push_back(sim.now()); });
      r.use(10, [&] { fired.push_back(sim.now()); });
    });
  });
  sim.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{kEnd, kEnd, kEnd}));
}

TEST(Resource, FifoQueueing) {
  Simulator sim;
  Resource r(sim, "disk");
  std::vector<SimTime> completions;
  sim.schedule_at(0, [&] {
    r.use(10, [&] { completions.push_back(sim.now()); });
    r.use(5, [&] { completions.push_back(sim.now()); });
  });
  sim.run();
  EXPECT_EQ(completions, (std::vector<SimTime>{10, 15}));
  EXPECT_EQ(r.busy(), 15);
  EXPECT_EQ(r.requests(), 2u);
}

TEST(Resource, IdleGapsDoNotCountAsBusy) {
  Simulator sim;
  Resource r(sim, "disk");
  sim.schedule_at(0, [&] { r.use(10, [] {}); });
  sim.schedule_at(100, [&] { r.use(10, [] {}); });
  sim.run();
  EXPECT_EQ(r.busy(), 20);
  EXPECT_EQ(sim.now(), 110);
}

TEST(Resource, ZeroDurationCompletesInstantly) {
  Simulator sim;
  Resource r(sim, "cpu");
  SimTime done = -1;
  sim.schedule_at(7, [&] {
    r.use(0, [&] { done = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(done, 7);
  EXPECT_THROW(r.use(-1, [] {}), SimError);
}

TEST(Barrier, FiresAfterAllArrivals) {
  Simulator sim;
  bool fired = false;
  auto barrier = Barrier::create(3, [&] { fired = true; });
  barrier->arrive();
  barrier->arrive();
  EXPECT_FALSE(fired);
  EXPECT_EQ(barrier->pending(), 1u);
  barrier->arrive();
  EXPECT_TRUE(fired);
  EXPECT_THROW(barrier->arrive(), ContractViolation);
}

TEST(Barrier, ZeroExpectedFiresImmediately) {
  bool fired = false;
  (void)Barrier::create(0, [&] { fired = true; });
  EXPECT_TRUE(fired);
}

TEST(Barrier, ArrivalCallbackKeepsBarrierAlive) {
  Simulator sim;
  bool fired = false;
  {
    auto barrier = Barrier::create(2, [&] { fired = true; });
    sim.schedule_at(1, barrier->arrival());
    sim.schedule_at(2, barrier->arrival());
  }  // local shared_ptr dropped; callbacks hold it
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Barrier, FiresExactlyOnce) {
  int fired = 0;
  auto barrier = Barrier::create(1, [&] { ++fired; });
  EXPECT_EQ(barrier->pending(), 1u);
  barrier->arrive();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(barrier->pending(), 0u);
  // Nothing re-fires afterwards: the continuation was consumed, and further
  // arrivals violate the contract instead of double-completing.
  EXPECT_THROW(barrier->arrive(), ContractViolation);
  EXPECT_EQ(fired, 1);
}

TEST(Barrier, OverArrivalThroughScheduledCallbacksIsCaught) {
  // Same contract as calling arrive() directly, but through the arrival()
  // closures the strategies actually schedule: one callback too many makes
  // the simulation run surface the violation instead of silently firing a
  // second time.
  Simulator sim;
  int fired = 0;
  {
    auto barrier = Barrier::create(2, [&] { ++fired; });
    sim.schedule_at(1, barrier->arrival());
    sim.schedule_at(2, barrier->arrival());
    sim.schedule_at(3, barrier->arrival());  // one more than expected
  }
  EXPECT_THROW(sim.run(), ContractViolation);
  EXPECT_EQ(fired, 1);
}

TEST(Barrier, CompletionReleasesTheCallbackState) {
  // The continuation (and anything it captured) is dropped at fire time, so
  // a fired barrier kept alive by stray handles doesn't pin resources.
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  auto barrier = Barrier::create(1, [held = std::move(token)] {});
  EXPECT_FALSE(watch.expired());  // captured by the pending continuation
  barrier->arrive();
  EXPECT_TRUE(watch.expired());  // consumed and destroyed on fire
  EXPECT_EQ(barrier->pending(), 0u);
}

TEST(Barrier, ZeroExpectedReportsNothingPending) {
  bool fired = false;
  auto barrier = Barrier::create(0, [&] { fired = true; });
  EXPECT_TRUE(fired);
  EXPECT_EQ(barrier->pending(), 0u);
  EXPECT_THROW(barrier->arrive(), ContractViolation);
}

// --- cost params ---

TEST(CostParams, Table1Rates) {
  const CostParams costs;
  EXPECT_EQ(costs.disk_time(1), 15'000);
  EXPECT_EQ(costs.net_time(2), 16'000);
  EXPECT_EQ(costs.cpu_time(std::uint64_t{4}), 2'000);
}

TEST(CostParams, StoredObjectBytes) {
  const CostParams costs;
  ClassDef cls("C");
  cls.add_attribute("a", PrimType::Int)
      .add_attribute("b", PrimType::String)
      .add_attribute("r", ComplexType{"C"})
      .add_attribute("rs", ComplexType{"C", true});
  // LOid 16 + 2*32 prim + 16 ref + 2*16 multi-ref
  EXPECT_EQ(costs.stored_object_bytes(cls), 16u + 64u + 16u + 32u);
}

TEST(CostParams, ProjectedAndMessageSizes) {
  const CostParams costs;
  EXPECT_EQ(costs.projected_object_bytes(2, 1), 16u + 64u + 16u);
  EXPECT_EQ(costs.request_bytes(3), 32u + 3u * 64u);
  EXPECT_EQ(costs.check_task_bytes(), 16u + 16u + 64u);
  EXPECT_EQ(costs.verdict_bytes(), 24u);
}

TEST(CostParams, DiskBytesFromMeter) {
  const CostParams costs;
  AccessMeter meter;
  meter.objects_scanned = 2;
  meter.objects_fetched = 1;
  meter.prim_slots = 5;
  meter.ref_slots = 3;
  EXPECT_EQ(costs.disk_bytes(meter), 3u * 16u + 5u * 32u + 3u * 16u);
}

TEST(CostParams, CpuTimeIncludesProbes) {
  const CostParams costs;
  AccessMeter meter;
  meter.comparisons = 3;
  meter.table_probes = 2;
  EXPECT_EQ(costs.cpu_time(meter), 5 * 500);
}

// --- cluster / network ---

TEST(Cluster, SharedBusSerializesTransfers) {
  Simulator sim;
  const CostParams costs;
  Cluster cluster(sim, costs, 2, NetworkTopology::SharedBus);
  std::vector<SimTime> done;
  sim.schedule_at(0, [&] {
    cluster.transfer(1, 0, 100, [&] { done.push_back(sim.now()); });
    cluster.transfer(2, 0, 100, [&] { done.push_back(sim.now()); });
  });
  sim.run();
  const SimTime t = costs.net_time(100);
  EXPECT_EQ(done, (std::vector<SimTime>{t, 2 * t}));
  EXPECT_EQ(cluster.network_busy(), 2 * t);
  EXPECT_EQ(cluster.bytes_transferred(), 200u);
  EXPECT_EQ(cluster.messages(), 2u);
}

TEST(Cluster, PointToPointRunsDisjointLinksInParallel) {
  Simulator sim;
  const CostParams costs;
  Cluster cluster(sim, costs, 2, NetworkTopology::PointToPoint);
  std::vector<SimTime> done;
  sim.schedule_at(0, [&] {
    cluster.transfer(1, 0, 100, [&] { done.push_back(sim.now()); });
    cluster.transfer(2, 0, 100, [&] { done.push_back(sim.now()); });
  });
  sim.run();
  const SimTime t = costs.net_time(100);
  EXPECT_EQ(done, (std::vector<SimTime>{t, t}));
  EXPECT_EQ(cluster.network_busy(), 2 * t) << "busy sums across links";
}

TEST(Cluster, ContentionlessIsPureLatency) {
  Simulator sim;
  const CostParams costs;
  Cluster cluster(sim, costs, 2, NetworkTopology::Contentionless);
  std::vector<SimTime> done;
  sim.schedule_at(0, [&] {
    cluster.transfer(1, 0, 100, [&] { done.push_back(sim.now()); });
    cluster.transfer(2, 0, 100, [&] { done.push_back(sim.now()); });
  });
  sim.run();
  const SimTime t = costs.net_time(100);
  EXPECT_EQ(done, (std::vector<SimTime>{t, t}));
}

TEST(Cluster, CollisionBusInflatesUnderBacklog) {
  Simulator sim;
  CostParams costs;
  costs.collision_alpha = 1.0;
  Cluster cluster(sim, costs, 2, NetworkTopology::CollisionBus);
  std::vector<SimTime> done;
  sim.schedule_at(0, [&] {
    cluster.transfer(1, 0, 100, [&] { done.push_back(sim.now()); });
    // Enqueued while one transfer pending: takes (1 + 1.0*1) * nominal.
    cluster.transfer(2, 0, 100, [&] { done.push_back(sim.now()); });
  });
  sim.run();
  const SimTime t = costs.net_time(100);
  EXPECT_EQ(done, (std::vector<SimTime>{t, t + 2 * t}));
  EXPECT_GT(cluster.network_busy(), 2 * t) << "collisions burn bandwidth";
}

TEST(Cluster, TransferContracts) {
  Simulator sim;
  Cluster cluster(sim, CostParams{}, 2);
  EXPECT_THROW(cluster.transfer(1, 1, 10, [] {}), ContractViolation);
  EXPECT_THROW(cluster.transfer(1, 9, 10, [] {}), ContractViolation);
  EXPECT_THROW((void)cluster.site(5), ContractViolation);
}

TEST(Cluster, SiteNaming) {
  Simulator sim;
  Cluster cluster(sim, CostParams{}, 2);
  EXPECT_EQ(cluster.global().name(), "global");
  EXPECT_EQ(cluster.site(1).name(), "DB1");
  EXPECT_EQ(cluster.component_count(), 2u);
}

// --- trace views (obs::TraceSession) ---

void record(obs::TraceSession& session, std::string site, std::string step,
            Phase phase, SimTime start, SimTime end) {
  obs::PhaseSpan span;
  span.site = std::move(site);
  span.step = std::move(step);
  span.phase = phase;
  span.start_ns = start;
  span.end_ns = end;
  session.record(std::move(span));
}

TEST(Trace, PhaseOrderCollapsesByFirstStart) {
  obs::TraceSession session;
  record(session, "DB1", "eval", Phase::P, 10, 20);
  record(session, "DB1", "lookup", Phase::O, 20, 25);
  record(session, "DB2", "eval", Phase::P, 12, 22);
  record(session, "global", "certify", Phase::I, 30, 35);
  record(session, "x", "ship", Phase::Transfer, 0, 5);  // ignored
  EXPECT_EQ(session.phase_order(),
            (std::vector<Phase>{Phase::P, Phase::O, Phase::I}));
  EXPECT_EQ(session.phase_order("DB2"), (std::vector<Phase>{Phase::P}));
}

TEST(Trace, MarkersNeverJoinThePhaseOrder) {
  obs::TraceSession session;
  // Every marker phase starts before the flow; none may appear in it.
  record(session, "global", "fault.degrade", Phase::Fault, 0, 0);
  record(session, "DB1", "plan.site local", Phase::Plan, 0, 0);
  record(session, "DB1", "cert.hit/2", Phase::Cert, 1, 1);
  record(session, "global", "serve.tenant/gold", Phase::Serve, 0, 4);
  record(session, "DB1", "im.impute/3", Phase::Impute, 2, 2);
  record(session, "DB1", "setup", Phase::Setup, 0, 3);
  record(session, "DB1", "eval", Phase::P, 5, 9);
  record(session, "global", "certify", Phase::I, 9, 12);
  EXPECT_EQ(session.phase_order(),
            (std::vector<Phase>{Phase::P, Phase::I}));
  EXPECT_EQ(session.phase_order("DB1"), (std::vector<Phase>{Phase::P}));
}

TEST(Trace, FirstStartLastEnd) {
  obs::TraceSession session;
  record(session, "a", "s1", Phase::O, 5, 9);
  record(session, "b", "s2", Phase::O, 3, 7);
  EXPECT_EQ(session.first_start(Phase::O), 3);
  EXPECT_EQ(session.last_end(Phase::O), 9);
  EXPECT_EQ(session.first_start(Phase::I), std::nullopt);
  EXPECT_EQ(session.last_end(Phase::I), std::nullopt);
}

TEST(Trace, TimeConversions) {
  EXPECT_EQ(microseconds(3), 3000);
  EXPECT_DOUBLE_EQ(to_milliseconds(1'500'000), 1.5);
  EXPECT_DOUBLE_EQ(to_seconds(2'000'000'000), 2.0);
}

}  // namespace
}  // namespace isomer
