// Central-path operators (paper §3.1) and the pure CA composition —
// phase order O -> I -> P:
//
//   CA_G1  global site requests the objects of every involved constituent
//          class from every component database.
//   CA_C1  each database scans those extents, projects the objects onto the
//          LOid and the attributes involved in the query, and ships them
//          (RetrieveExtent — shared with hybrid Central homes and the
//          mid-flight switch).
//   CA_G2  the global site materializes each involved global class with an
//          outerjoin over GOids (phase O: mapping-table probes; phase I:
//          value integration) — Materialize.
//   CA_G3  the global query is evaluated on the materialized classes
//          (phase P), yielding the certain and maybe results.
#include <memory>

#include "isomer/core/operators.hpp"
#include "isomer/fault/degrade.hpp"
#include "isomer/federation/materializer.hpp"

namespace isomer::detail {

// ---- RetrieveExtent + ShipExtent (C1 of the Central path).
void retrieve_and_ship_extent(
    ExecEnv& env, DbId db, const std::vector<std::string>& classes,
    const std::map<std::string, std::set<std::size_t>>& involved,
    const std::string& retrieve_step, const std::string& ship_step,
    const AccessMeter* cached, Simulator::Callback arrived,
    ExecEnv::FailHandler on_fail) {
  AccessMeter scan_meter;
  const ComponentDatabase& database = env.fed().db(db);
  for (const std::string& class_name : classes) {
    const GlobalClass& cls = env.fed().schema().cls(class_name);
    const auto constituent = cls.constituent_in(db);
    if (!constituent) continue;
    (void)database.scan(cls.constituents()[*constituent].local_class,
                        &scan_meter);
  }
  // Projection pass: one comparison per scanned object.
  scan_meter.comparisons += scan_meter.objects_scanned;
  const Bytes out_bytes =
      ca_projected_bytes(env.fed(), db, involved, env.costs());
  SpanCounts counts;
  counts.objects_in = scan_meter.objects_scanned;
  counts.objects_out = scan_meter.objects_scanned;
  // A mid-flight switch ships the extent the site just evaluated: those
  // pages are still in the buffer cache, so credit the evaluation's reads.
  if (cached != nullptr) scan_meter = meter_minus(scan_meter, *cached);
  const SiteIndex site = env.site_of(db);
  env.charge(site, scan_meter, Phase::Setup, retrieve_step, counts,
             [&env, site, out_bytes, step = ship_step,
              arrived = std::move(arrived), on_fail = std::move(on_fail)] {
               env.ship_record(site, kGlobalSite, out_bytes, step,
                               std::move(arrived), std::move(on_fail));
             });
}

void launch_ca(ExecEnv& env,
               std::function<void(QueryResult, SimTime)> on_done) {
  const Federation& federation = env.fed();
  const GlobalQuery& query = env.query();

  // Everything the deferred callbacks touch lives in this shared block so
  // a launch can outlive its enclosing scope (stream mode).
  struct Shared {
    std::vector<std::string> classes;
    std::map<std::string, std::set<std::size_t>> involved;
    std::vector<DbId> participants;
    std::function<void(QueryResult, SimTime)> on_done;
    QueryResult result;
    SimTime response = 0;
  };
  auto shared = std::make_shared<Shared>();
  shared->classes = classes_involved(federation.schema(), query);
  shared->involved = involved_attributes(federation.schema(), query);
  shared->on_done = std::move(on_done);
  for (const DbId db : federation.db_ids()) {
    for (const std::string& class_name : shared->classes) {
      if (federation.schema().cls(class_name).constituent_in(db)) {
        shared->participants.push_back(db);
        break;
      }
    }
  }
  const std::vector<DbId>& participants = shared->participants;

  // CA_G2/G3 run once every projected extent has arrived (Materialize).
  auto all_arrived = Barrier::create(participants.size(), [&env, shared] {
    // Phase O + I: outerjoin over GOids. The materializer's mapping-table
    // probes are phase O work, the value merging is phase I; charge them as
    // two consecutive CPU bursts so the trace shows O before I.
    auto meter = std::make_shared<AccessMeter>();
    // Under graceful degradation, the dead sites' extents never arrived:
    // integrate only what the live federation shipped. The view holds the
    // attributes CA_C1 shipped; the rewrite probes are charged for every
    // reference attribute, shipped or not (docs/PERFORMANCE.md,
    // "Centralized view on columns").
    const std::set<DbId>& dead = env.unavailable();
    auto view = std::make_shared<MaterializedView>(
        materialize(env.fed(), shared->classes, meter.get(),
                    MergePolicy::FirstNonNull,
                    dead.empty() ? nullptr : &dead, &shared->involved));

    // The objects were shipped to the global site and integrated from
    // memory: the mapping probes and merge comparisons cost CPU, but no
    // disk. The raw fetch counts still enter the work aggregate.
    AccessMeter probe_part;
    probe_part.table_probes = meter->table_probes;
    AccessMeter join_part;
    join_part.comparisons = meter->comparisons;
    AccessMeter leftover = *meter;
    leftover.table_probes = 0;
    leftover.comparisons = 0;
    env.aggregate(leftover);

    env.charge(kGlobalSite, probe_part, Phase::O, "CA_G2 goid-mapping",
               [&env, shared, view, join_part] {
                 env.charge(
                     kGlobalSite, join_part, Phase::I, "CA_G2 outerjoin",
                     [&env, shared, view] {
                       // Phase P: evaluate on the materialized classes —
                       // in-memory at the global site, so CPU only.
                       AccessMeter eval_meter;
                       QueryResult result = evaluate_global(
                           *view, env.fed().schema(), env.query(),
                           &eval_meter);
                       if (env.degraded()) {
                         fault::tag_unavailable(result, env.fed(),
                                                env.query(),
                                                env.unavailable(),
                                                view.get());
                         env.mark(Phase::Fault, kGlobalSite, "fault.degrade",
                                  env.sim().now(), env.sim().now());
                       }
                       SpanCounts counts;
                       counts.objects_in =
                           view->extent(env.query().range_class).size();
                       counts.objects_out = result.rows.size();
                       for (const ResultRow& row : result.rows)
                         if (row.status == ResultStatus::Certain)
                           ++counts.certs_resolved;
                       counts.certs_eliminated =
                           counts.objects_in - counts.objects_out;
                       shared->result = std::move(result);
                       AccessMeter cpu_only;
                       cpu_only.comparisons = eval_meter.comparisons;
                       AccessMeter rest = eval_meter;
                       rest.comparisons = 0;
                       env.aggregate(rest);
                       env.charge(kGlobalSite, cpu_only, Phase::P,
                                  "CA_G3 evaluate", counts, [&env, shared] {
                                    shared->response = env.sim().now();
                                    shared->on_done(std::move(shared->result),
                                                    shared->response);
                                  });
                     });
               });
  });

  // CA_G1 + CA_C1. If either leg of a site's exchange is abandoned, that
  // site contributes nothing to the outerjoin: count it as arrived so the
  // barrier can release with the live sites' extents only.
  for (const DbId db : participants) {
    const SiteIndex site = env.site_of(db);
    const ExecEnv::FailHandler give_up_on_site =
        [all_arrived](SiteIndex) { all_arrived->arrive(); };
    // A CA_G1 request is pure header (request_bytes(0) == S_a); batched it
    // contributes zero payload — the shared frame header carries it.
    env.ship_record(
        kGlobalSite, site,
        env.batching() ? Bytes{0} : env.costs().request_bytes(0),
        "CA_G1 request",
        [&env, db, shared, all_arrived, give_up_on_site] {
          retrieve_and_ship_extent(env, db, shared->classes, shared->involved,
                                   "CA_C1 retrieve", "CA_C1 objects",
                                   /*cached=*/nullptr, all_arrived->arrival(),
                                   give_up_on_site);
        },
        give_up_on_site);
  }
}

}  // namespace isomer::detail
