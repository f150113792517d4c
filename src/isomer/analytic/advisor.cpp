#include "isomer/analytic/advisor.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "isomer/common/parallel.hpp"
#include "isomer/common/rng.hpp"
#include "isomer/core/checks.hpp"
#include "isomer/core/exec_common.hpp"
#include "isomer/core/local_exec.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/schema/translate.hpp"

namespace isomer {

namespace {

double per_byte_s(SimTime rate_ns) { return static_cast<double>(rate_ns) / 1e9; }

/// Per-database quantities measured by sampling.
struct DbProfile {
  AdvisorStats::PerDb stats;
  double stored_root_bytes = 0;     ///< one root object on disk
  double avg_branch_bytes = 0;      ///< one navigated branch object on disk
};

DbProfile profile_database(const Federation& federation,
                           const GlobalQuery& query, DbId db,
                           const AdvisorOptions& options, Rng& rng) {
  const GlobalSchema& schema = federation.schema();
  const GlobalClass& range = schema.cls(query.range_class);
  const auto constituent = range.constituent_in(db);
  expects(constituent.has_value(), "profiling a non-root database");
  const ComponentDatabase& database = federation.db(db);
  const std::string& root_class =
      range.constituents()[*constituent].local_class;
  const auto& objects = database.extent(root_class).objects();

  DbProfile profile;
  profile.stats.db = db;
  profile.stats.root_objects = objects.size();
  profile.stored_root_bytes = static_cast<double>(
      options.costs.stored_object_bytes(database.schema().cls(root_class)));

  // Average stored width over the branch classes the query navigates —
  // what one assistant-check fetch or nested navigation costs on disk.
  {
    double total = 0;
    std::size_t count = 0;
    for (const std::string& class_name :
         classes_involved(schema, query)) {
      if (class_name == query.range_class) continue;
      for (const DbId other : federation.db_ids()) {
        const GlobalClass& cls = schema.cls(class_name);
        if (const auto c = cls.constituent_in(other)) {
          total += static_cast<double>(options.costs.stored_object_bytes(
              federation.db(other).schema().cls(
                  cls.constituents()[*c].local_class)));
          ++count;
        }
      }
    }
    profile.avg_branch_bytes = count > 0 ? total / static_cast<double>(count)
                                         : profile.stored_root_bytes;
  }

  if (objects.empty()) return profile;
  const std::size_t k = std::min(options.sample_size, objects.size());
  const std::vector<std::size_t> picks =
      rng.sample_indices(objects.size(), k);
  profile.stats.sampled = k;

  const BoundQuery bound(federation, query);
  const BoundQuery::Site site = bound.site(db);
  std::size_t survivors = 0, unknowns = 0, nested_rows = 0, nested_all = 0;
  std::vector<UnsolvedItem> sampled_items;
  AccessMeter nav_meter;
  FetchCache cache;  // shared across the sample, like one local execution
  std::vector<LOid> sample;
  for (const std::size_t pick : picks) sample.push_back(objects[pick].id());
  const std::vector<std::vector<LocalPredOutcome>> outcomes =
      bound.evaluate(site, 0, sample, every_index(query.predicates.size()),
                     &nav_meter, &cache);
  std::vector<Truth> truths(query.predicates.size());
  for (std::size_t c = 0; c < sample.size(); ++c) {
    const std::size_t first_item = sampled_items.size();
    for (std::size_t p = 0; p < query.predicates.size(); ++p) {
      const LocalPredOutcome& outcome = outcomes[p][c];
      truths[p] = outcome.truth;
      if (is_unknown(outcome.truth) && outcome.step > 0) {
        const auto entity = federation.goids().goid_of(outcome.holder);
        ensures(entity.has_value(), "every constituent object is GOid-mapped");
        sampled_items.push_back(
            UnsolvedItem{*entity, p, outcome.step, *entity});
      }
    }
    const std::size_t nested = sampled_items.size() - first_item;
    nested_all += nested;
    const Truth overall = query.combine(truths);
    if (!is_false(overall)) {
      ++survivors;
      nested_rows += nested;
      unknowns += static_cast<std::size_t>(
          std::count(truths.begin(), truths.end(), Truth::Unknown));
    }
  }
  // Assistant fan-out for the sampled items: planning treats items
  // independently, so one plan's task count is the sum over the items.
  const std::size_t assistant_probes = sampled_items.size();
  const std::size_t assistants =
      plan_checks(federation, query, db, sampled_items).task_count();

  const double dk = static_cast<double>(k);
  profile.stats.survive_rate = static_cast<double>(survivors) / dk;
  profile.stats.unknowns_per_row =
      survivors > 0 ? static_cast<double>(unknowns) /
                          static_cast<double>(survivors)
                    : 0.0;
  profile.stats.nested_items_per_object =
      static_cast<double>(nested_all) / dk;
  profile.stats.nested_items_per_row =
      survivors > 0 ? static_cast<double>(nested_rows) /
                          static_cast<double>(survivors)
                    : 0.0;
  profile.stats.assistants_per_item =
      assistant_probes > 0 ? static_cast<double>(assistants) /
                                 static_cast<double>(assistant_probes)
                           : 0.0;
  profile.stats.fetches_per_object =
      static_cast<double>(nav_meter.objects_fetched) / dk;

  const CostParams& c = options.costs;
  profile.stats.row_bytes =
      static_cast<double>(c.loid_bytes + c.goid_bytes) +
      static_cast<double>(query.targets.size()) *
          static_cast<double>(c.attr_bytes) +
      profile.stats.unknowns_per_row *
          static_cast<double>(c.goid_bytes + 8);
  return profile;
}

}  // namespace

Advice advise_strategy(const Federation& federation, const GlobalQuery& query,
                       const AdvisorOptions& options) {
  const GlobalSchema& schema = federation.schema();
  // Resolve up front: malformed queries fail loudly.
  for (const Predicate& pred : query.predicates)
    (void)resolve_path(schema.lookup(), query.range_class, pred.path);
  for (const PathExpr& target : query.targets)
    (void)resolve_path(schema.lookup(), query.range_class, target);

  const CostParams& c = options.costs;
  const double disk_s = per_byte_s(c.disk_ns_per_byte);
  const double net_s = per_byte_s(c.net_ns_per_byte);
  const double cmp_s = per_byte_s(c.cpu_ns_per_cmp);

  Advice advice;

  // ---------------- CA: exact catalog arithmetic, no sampling needed.
  const auto involved = involved_attributes(schema, query);
  double ca_disk = 0, ca_net = 0, ca_cmp = 0, ca_max_local = 0;
  double total_objects = 0;
  for (const DbId db : federation.db_ids()) {
    double disk_i = 0, cmp_i = 0;
    for (const std::string& class_name : classes_involved(schema, query)) {
      const GlobalClass& cls = schema.cls(class_name);
      const auto constituent = cls.constituent_in(db);
      if (!constituent) continue;
      const auto& extent = federation.db(db).extent(
          cls.constituents()[*constituent].local_class);
      disk_i += static_cast<double>(extent.size()) *
                static_cast<double>(c.stored_object_bytes(
                    federation.db(db).schema().cls(
                        cls.constituents()[*constituent].local_class)));
      cmp_i += static_cast<double>(extent.size());
      total_objects += static_cast<double>(extent.size());
    }
    ca_disk += disk_i;
    ca_cmp += cmp_i;
    ca_net += static_cast<double>(
        detail::ca_projected_bytes(federation, db, involved, c));
    ca_max_local = std::max(ca_max_local, disk_i * disk_s + cmp_i * cmp_s);
  }
  const double ca_global_cmp =
      2.0 * total_objects +
      static_cast<double>(federation.goids().entity_count());
  StrategyEstimate ca{StrategyKind::CA, 0, 0, ca_net};
  ca.total_s =
      ca_disk * disk_s + ca_net * net_s + (ca_cmp + ca_global_cmp) * cmp_s;
  ca.response_s = ca_max_local + ca_net * net_s + ca_global_cmp * cmp_s;

  // ---------------- BL / PL: sampled profiles per home database. Databases
  // profile independently on `options.jobs` threads; each site's sample
  // draws from its own derived RNG stream, so the profiles (and hence the
  // advice) do not depend on the thread count.
  const std::vector<DbId> sites = local_query_sites(schema, query);
  std::vector<DbProfile> profiles(sites.size());
  double rows_total = 0;
  parallel_for_each(options.jobs <= 0 ? 0u
                                      : static_cast<unsigned>(options.jobs),
                    sites.size(), [&](std::size_t i) {
                      Rng rng(derive_stream(options.seed, i));
                      profiles[i] = profile_database(federation, query,
                                                     sites[i], options, rng);
                    });
  for (const DbProfile& profile : profiles)
    advice.stats.dbs.push_back(profile.stats);
  // Batched executors ship only the GOid semijoin per task; unbatched ones
  // ship the full check task record.
  advice.stats.task_bytes =
      options.batch.enabled
          ? static_cast<double>(c.semijoin_task_bytes(false))
          : static_cast<double>(c.check_task_bytes());

  const auto localized = [&](bool eager) {
    double disk = 0, net = 0, cmp = 0, max_local = 0, check_disk = 0;
    double tasks_total = 0;
    rows_total = 0;
    for (const DbProfile& profile : profiles) {
      const double n = static_cast<double>(profile.stats.root_objects);
      const double rows = n * profile.stats.survive_rate;
      rows_total += rows;
      const double disk_i =
          n * (profile.stored_root_bytes +
               profile.stats.fetches_per_object * profile.avg_branch_bytes);
      const double cmp_i =
          n * static_cast<double>(query.predicates.size()) + rows;
      const double item_insts =
          eager ? n * profile.stats.nested_items_per_object
                : rows * profile.stats.nested_items_per_row;
      const double tasks = item_insts * profile.stats.assistants_per_item;
      tasks_total += tasks;
      check_disk += tasks * profile.avg_branch_bytes;
      disk += disk_i;
      cmp += cmp_i + item_insts * 2.0 + tasks;
      net += rows * profile.stats.row_bytes;
      max_local = std::max(max_local, disk_i * disk_s + cmp_i * cmp_s);
    }
    const double check_net =
        tasks_total *
        (advice.stats.task_bytes + static_cast<double>(c.verdict_bytes()));
    const double certify_cmp =
        rows_total * (static_cast<double>(query.predicates.size()) + 1.0) +
        tasks_total;
    StrategyEstimate est{eager ? StrategyKind::PL : StrategyKind::BL, 0, 0,
                         net + check_net};
    est.total_s = (disk + check_disk) * disk_s + (net + check_net) * net_s +
                  (cmp + certify_cmp) * cmp_s;
    const double check_s =
        (check_disk / static_cast<double>(std::max<std::size_t>(
                          1, profiles.size()))) * disk_s +
        check_net * net_s;
    est.response_s = (eager ? std::max(max_local, check_s)
                            : max_local + check_s) +
                     net * net_s + certify_cmp * cmp_s;
    return est;
  };

  advice.estimates = {ca, localized(false), localized(true)};

  const auto best = [&](auto key) {
    return std::min_element(advice.estimates.begin(), advice.estimates.end(),
                            [&](const auto& a, const auto& b) {
                              return key(a) < key(b);
                            })
        ->kind;
  };
  advice.best_total =
      best([](const StrategyEstimate& e) { return e.total_s; });
  advice.best_response =
      best([](const StrategyEstimate& e) { return e.response_s; });

  std::ostringstream rationale;
  rationale.setf(std::ios::fixed);
  rationale.precision(2);
  rationale << "CA ships every involved extent (" << ca_net / 1e6
            << " MB projected) and pays " << ca_disk * disk_s
            << " s of component disk; the localized strategies ship "
            << advice.estimates[1].bytes / 1e6 << " MB of rows and checks ("
            << "mean survive rate "
            << (profiles.empty()
                    ? 0.0
                    : std::accumulate(profiles.begin(), profiles.end(), 0.0,
                                      [](double acc, const DbProfile& p) {
                                        return acc + p.stats.survive_rate;
                                      }) /
                          static_cast<double>(profiles.size()))
            << "). Best total: " << to_string(advice.best_total)
            << "; best response: " << to_string(advice.best_response) << ".";
  advice.rationale = rationale.str();
  return advice;
}

}  // namespace isomer
