#include "isomer/core/local_exec.hpp"

#include <span>
#include <string_view>
#include <variant>

#include "isomer/common/error.hpp"
#include "isomer/query/reach.hpp"

namespace isomer {

BoundQuery::BoundQuery(const Federation& federation, const GlobalQuery& query)
    : federation_(&federation), query_(&query) {
  sites_.reserve(federation.db_ids().size());
  for (const DbId db : federation.db_ids())
    sites_.push_back(Site{&federation.db(db), sites_.size()});
  predicates_.reserve(query.predicates.size());
  for (const Predicate& pred : query.predicates)
    predicates_.push_back(bind(pred.path));
  targets_.reserve(query.targets.size());
  for (const PathExpr& target : query.targets)
    targets_.push_back(bind(target));
}

BoundQuery::Path BoundQuery::bind(const PathExpr& expr) const {
  Path path;
  path.expr = &expr;
  path.steps = federation_->schema().resolve_steps(query_->range_class, expr);
  path.local.assign(sites_.size() * path.steps.size(), kMissing);
  for (const Site& site : sites_) {
    const ComponentDatabase& database = *site.database;
    for (std::size_t step = 0; step < path.steps.size(); ++step) {
      const GlobalClass& cls = *path.steps[step].cls;
      const auto constituent = cls.constituent_in(database.db());
      if (!constituent) continue;
      const auto& local_name =
          cls.local_attr(*constituent, path.steps[step].attr);
      if (!local_name) continue;
      const auto index =
          database.schema()
              .cls(cls.constituents()[*constituent].local_class)
              .find_attribute(*local_name);
      if (index)
        path.local[site.slot * path.steps.size() + step] =
            static_cast<std::uint32_t>(*index);
    }
  }
  return path;
}

BoundQuery::Site BoundQuery::site(DbId db) const {
  for (const Site& site : sites_)
    if (site.database->db() == db) return site;
  throw FederationError("federation has no database DB" +
                        std::to_string(db.value()));
}

std::optional<std::size_t> BoundQuery::local_attr(Site site, std::size_t p,
                                                  std::size_t step) const {
  const std::uint32_t index = predicates_[p].at(site, step);
  if (index == kMissing) return std::nullopt;
  return index;
}

/// Component objects of one database: local attribute indexes bound per
/// step, LOid references fetched through the buffer pool (charged on first
/// touch only), target values globalized through the GOid table.
struct BoundQuery::Storage {
  using Object = isomer::Object;
  using Id = LOid;
  static LOid id_of(const Object& obj) noexcept { return obj.id(); }

  const Path& path;
  Site site;
  const GoidTable& goids;
  AccessMeter* meter;
  FetchCache* cache;

  [[nodiscard]] std::size_t length() const noexcept {
    return path.steps.size();
  }
  [[nodiscard]] const Value* read(const Object& obj, std::size_t step) const {
    const std::uint32_t index = path.at(site, step);
    return index == kMissing ? nullptr : &obj.value(index);
  }
  [[nodiscard]] std::span<const LOid> members(const Value& ref,
                                              std::size_t step) const {
    if (const auto* one = std::get_if<LocalRef>(&ref.storage()))
      return {&one->target, 1};
    if (const auto* set = std::get_if<LocalRefSet>(&ref.storage()))
      return set->targets;
    throw QueryError("local value for global step " + path.expr->step(step) +
                     " is not a reference");
  }
  [[nodiscard]] const Object* follow(LOid target, std::size_t) const {
    return site.database->fetch(target, meter, cache);
  }
  [[nodiscard]] Value target(const Value& terminal) const {
    return goids.globalize(terminal, meter);
  }
};

LocalPredOutcome BoundQuery::eval_predicate(Site site, std::size_t p,
                                            const Object& obj,
                                            std::size_t step,
                                            AccessMeter* meter,
                                            FetchCache* cache) const {
  expects(step < query_->predicates[p].path.length(),
          "start step beyond predicate path");
  return navigate_predicate(
      Storage{predicates_[p], site, federation_->goids(), meter, cache},
      query_->predicates[p], obj, step);
}

Value BoundQuery::eval_target(Site site, std::size_t t, const Object& root,
                              AccessMeter* meter, FetchCache* cache) const {
  return navigate_target(
      Storage{targets_[t], site, federation_->goids(), meter, cache}, root);
}

namespace {

/// The reaches' storage policy at one component database: single-reference
/// columns of the extents' mirrors, followed through the LOid directory;
/// holders are LOid::local.
struct LocalReach {
  using Extent = isomer::Extent;
  using Holder = std::uint32_t;
  using Hop = PathHop<Extent, Holder>;

  const BoundQuery* bound;
  BoundQuery::Site site;

  [[nodiscard]] const Extent* extent(std::size_t p, std::size_t step) const {
    const GlobalClass& cls = bound->step_class(p, step);
    const auto constituent = cls.constituent_in(site.database->db());
    if (!constituent) return nullptr;
    return &site.database->extent(
        cls.constituents()[*constituent].local_class);
  }
  /// The reference column, or null when the attribute is schema-missing
  /// (or nothing is live, so `base` may have no extent): every walk stops.
  [[nodiscard]] std::optional<const ColumnarExtent::Column*> link(
      const PathReach<Extent, Holder>& base, std::size_t p,
      std::size_t step) const {
    const auto attr = bound->local_attr(site, p, step);
    if (!attr || base.live.empty()) return nullptr;
    const ColumnarExtent::Column& col = base.extent->columnar().column(*attr);
    if (col.kind != ColumnarExtent::ColKind::AllNull &&
        col.kind != ColumnarExtent::ColKind::Ref)
      return std::nullopt;  // reference sets, or the row walk's throw
    return &col;
  }
  [[nodiscard]] Hop hop(const ColumnarExtent::Column* col,
                        std::uint32_t row) const {
    if (col == nullptr || !col->is_valid(row)) return {};
    const ComponentDatabase::Location to =
        site.database->locate(LOid{site.database->db(), col->refs[row]});
    return {to.extent, static_cast<std::uint32_t>(to.row), col->refs[row]};
  }
};

using LocalReaches = Reaches<LocalReach>;

/// Admits the live objects of reach `i` and of its ancestors through
/// `cache`, charging each first touch as the row walk's fetch does.
void admit(LocalReaches& reaches, std::size_t i, DbId db, AccessMeter& meter,
           FetchCache& cache) {
  for (; i != 0 && !reaches[i].admitted; i = reaches[i].parent) {
    LocalReaches::Reach& reach = reaches[i];
    reach.admitted = true;
    std::uint64_t fresh = 0;
    for (const std::uint32_t r : reach.live)
      fresh += cache.admit(LOid{db, reach.holder[r]}) ? 1u : 0u;
    if (fresh == 0) continue;  // no live objects: maybe no extent either
    meter.objects_fetched += fresh;
    meter.prim_slots += fresh * reach.extent->prim_slots();
    meter.ref_slots += fresh * reach.extent->ref_slots();
  }
}

}  // namespace

LocalExecution run_local_query(const Federation& federation,
                               const GlobalQuery& query, DbId db,
                               const ExtentIndexes* indexes,
                               bool use_columnar) {
  const GlobalSchema& schema = federation.schema();
  const GlobalClass& range = schema.cls(query.range_class);
  const auto constituent = range.constituent_in(db);
  if (!constituent)
    throw QueryError("DB" + std::to_string(db.value()) +
                     " holds no constituent of range class " +
                     query.range_class);
  // Binding resolves every path up front, so malformed queries fail before
  // any simulated work.
  const BoundQuery bound(federation, query);
  const BoundQuery::Site site = bound.site(db);
  const ComponentDatabase& database = *site.database;
  const std::string& root_class_name =
      range.constituents()[*constituent].local_class;

  LocalExecution exec;
  exec.db = db;

  // One buffer pool for the whole local execution: every root and navigated
  // object is read from disk once.
  FetchCache cache;

  // Access path: an index over one of the conjunctive equality predicates
  // narrows the roots to matches plus the null bucket (anything else is
  // provably False on that predicate). Disjunctive queries must scan — an
  // object failing one alternative may pass another.
  std::vector<const Object*> candidates;
  bool via_index = false;
  if (indexes != nullptr && query.disjuncts.empty()) {
    for (const Predicate& pred : query.predicates) {
      if (pred.path.length() != 1 || pred.op != CompOp::Eq) continue;
      const auto lookup =
          indexes->lookup(db, pred.path.step(0), pred.literal, &exec.meter);
      if (!lookup) continue;
      via_index = true;
      candidates.reserve(lookup->size());
      for (const std::vector<LOid>* bucket :
           {lookup->matches, lookup->unknowns})
        for (const LOid id : *bucket)
          candidates.push_back(database.fetch(id, &exec.meter, &cache));
      break;
    }
  }
  if (!via_index)
    for (const Object& obj :
         database.scan(root_class_name, &exec.meter, &cache))
      candidates.push_back(&obj);
  exec.considered = candidates.size();

  // How each predicate is evaluated over this candidate set:
  //   Row     row-at-a-time walk per candidate (the reference path);
  //   Column  bottom-up over the columnar mirrors: the path's prefix is one
  //           Reach for all candidates, then one kernel pass compares the
  //           terminal attribute of the candidates live there. A one-step
  //           path is the zero-hop case: its prefix is the root extent.
  // Column applies only to full scans (candidates == extent rows in order);
  // index executions keep the row walk. Every fallback is decided before
  // any charge, and the charges are the row walk's totals in bulk.
  enum class PredMode : unsigned char { Row, Column };
  const std::size_t n_preds = query.predicates.size();
  std::vector<PredMode> modes(n_preds, PredMode::Row);
  std::vector<std::size_t> reach_of(n_preds);
  std::vector<std::vector<Truth>> column_truths(n_preds);
  std::optional<LocalReaches> reaches;
  if (use_columnar && !via_index && !candidates.empty() && n_preds != 0) {
    const Extent& root = database.extent(root_class_name);
    std::vector<std::uint32_t> holders;
    holders.reserve(root.size());
    for (const Object& obj : root.objects()) holders.push_back(obj.id().local);
    reaches.emplace(LocalReach{&bound, site}, root, std::move(holders));
    for (std::size_t p = 0; p < n_preds; ++p) {
      const Predicate& pred = query.predicates[p];
      const std::size_t last = pred.path.length() - 1;
      const auto at = reaches->prefix(p, pred.path, last);
      if (!at) continue;
      const LocalReaches::Reach& reach = (*reaches)[*at];
      const auto attr = bound.local_attr(site, p, last);
      if (attr && !reach.live.empty() &&
          !kernel_applicable(reach.extent->columnar().column(*attr).kind,
                             pred.op, pred.literal))
        continue;
      modes[p] = PredMode::Column;
      reach_of[p] = *at;
    }
    for (std::size_t p = 0; p < n_preds; ++p) {
      if (modes[p] != PredMode::Column) continue;
      const Predicate& pred = query.predicates[p];
      const std::size_t last = pred.path.length() - 1;
      admit(*reaches, reach_of[p], db, exec.meter, cache);
      const LocalReaches::Reach& reach = (*reaches)[reach_of[p]];
      std::vector<Truth>& truths = column_truths[p];
      truths.assign(candidates.size(), Truth::Unknown);
      const auto attr = bound.local_attr(site, p, last);
      if (attr && !reach.live.empty()) {
        // One comparison per arrival at a present terminal attribute, nulls
        // included (apply() still runs).
        exec.meter.comparisons += reach.live.size();
        reaches->compare(reach_of[p], reach.extent->columnar().column(*attr),
                         pred, truths);
      }
      // One goid probe per Unknown outcome, surviving or not.
      exec.meter.table_probes += count_truth(truths, Truth::Unknown);
    }
  }

  // Per-candidate scratch, reused across iterations: each predicate's
  // status, rewritten whole for every candidate.
  std::vector<PredStatus> evals(n_preds);
  std::vector<Truth> truths(n_preds);

  for (std::size_t r = 0; r < candidates.size(); ++r) {
    const Object& obj = *candidates[r];

    // Every predicate is evaluated (no short-circuiting): comparison counts
    // stay deterministic, and under disjunctive queries a False conjunct
    // does not decide the object's fate by itself.
    for (std::size_t p = 0; p < n_preds; ++p) {
      PredStatus& e = evals[p] = PredStatus{};
      if (modes[p] == PredMode::Row) {
        const LocalPredOutcome outcome =
            bound.eval_predicate(site, p, obj, 0, &exec.meter, &cache);
        e.truth = outcome.truth;
        if (is_unknown(outcome.truth)) {
          const auto item_entity =
              federation.goids().goid_of(outcome.holder, &exec.meter);
          ensures(item_entity.has_value(),
                  "every constituent object is GOid-mapped");
          e.item = *item_entity;
          e.step = outcome.step;
          e.root_level = (outcome.holder == obj.id() && outcome.step == 0);
        }
      } else {
        // An Unknown's probe was bulk-charged above; its holder's entity is
        // filled in below only if the candidate survives.
        e.truth = column_truths[p][r];
        if (is_unknown(e.truth)) {
          const std::uint32_t stop = (*reaches)[reach_of[p]].stop[r];
          e.step = stop == LocalReaches::Reach::kLive
                       ? query.predicates[p].path.length() - 1
                                        : stop;
          e.root_level = e.step == 0;
        }
      }
      truths[p] = e.truth;
    }
    // The object is eliminated locally when the whole matching formula is
    // provably False here (for conjunctive queries: any False conjunct).
    if (is_false(query.combine(truths))) continue;

    const auto entity = federation.goids().goid_of(obj.id(), &exec.meter);
    ensures(entity.has_value(), "every constituent object is GOid-mapped");

    LocalRow row;
    row.root = obj.id();
    row.entity = *entity;
    row.preds = evals;
    for (std::size_t p = 0; p < n_preds; ++p) {
      if (modes[p] == PredMode::Row || !is_unknown(row.preds[p].truth))
        continue;
      const auto item_entity = federation.goids().goid_of(
          LOid{db, (*reaches)[reach_of[p]].holder[r]});
      ensures(item_entity.has_value(),
              "every constituent object is GOid-mapped");
      row.preds[p].item = *item_entity;
    }

    row.targets.reserve(query.targets.size());
    for (std::size_t t = 0; t < query.targets.size(); ++t)
      row.targets.push_back(
          bound.eval_target(site, t, obj, &exec.meter, &cache));

    exec.rows.push_back(std::move(row));
  }
  return exec;
}

}  // namespace isomer
