#include "isomer/core/local_exec.hpp"

#include <span>
#include <string_view>
#include <utility>
#include <variant>

#include "isomer/common/error.hpp"

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
/// fetches charged through `cache` on first touch, or with no cache once per
/// arrival, as the walk's.
struct LocalReach {
  using Extent = isomer::Extent;
  using Holder = LOid;
  using Reach = PathReach<Extent, Holder>;

  const BoundQuery* bound;
  BoundQuery::Site site;
  AccessMeter* meter;
  FetchCache* cache;

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
      const Reach& base, std::size_t p, std::size_t step) const {
    const auto attr = bound->local_attr(site, p, step);
    if (!attr || base.live.empty()) return nullptr;
    const ColumnarExtent::Column& col = base.extent->columnar().column(*attr);
    if (col.kind != ColumnarExtent::ColKind::AllNull &&
        col.kind != ColumnarExtent::ColKind::Ref)
      return std::nullopt;  // reference sets, or the row walk's throw
    return &col;
  }
  [[nodiscard]] PathHop<Extent, Holder> hop(const ColumnarExtent::Column* col,
                                            std::uint32_t row) const {
    if (col == nullptr || !col->is_valid(row)) return {};
    const LOid target{site.database->db(), col->refs[row]};
    const ComponentDatabase::Location to = site.database->locate(target);
    return {to.extent, static_cast<std::uint32_t>(to.row), target};
  }
  [[nodiscard]] std::optional<ColumnarExtent::Column> column(
      const Reach& reach, std::size_t p, std::size_t step) const {
    const auto attr = bound->local_attr(site, p, step);
    if (!attr || reach.live.empty()) return std::nullopt;
    return reach.extent->columnar().column(*attr);
  }
  bool charge(Reach& reach) const {
    if (cache != nullptr && std::exchange(reach.admitted, true)) return true;
    std::uint64_t fresh = 0;
    for (const std::uint32_t c : reach.live)
      fresh += cache == nullptr || cache->admit(reach.holder[c]) ? 1u : 0u;
    if (fresh == 0) return false;  // no live objects: maybe no extent either
    meter->objects_fetched += fresh;
    meter->prim_slots += fresh * reach.extent->prim_slots();
    meter->ref_slots += fresh * reach.extent->ref_slots();
    return false;
  }
};

}  // namespace

std::vector<std::vector<LocalPredOutcome>> BoundQuery::evaluate(
    Site site, std::size_t step, std::span<const LOid> candidates,
    std::span<const std::uint32_t> preds, AccessMeter* meter,
    FetchCache* cache) const {
  if (preds.empty()) return {};
  const LocalReach policy{this, site, meter, cache};
  const Extent* start = policy.extent(preds.front(), step);
  for (const std::uint32_t p : preds)
    expects(start != nullptr && policy.extent(p, step) == start &&
                step < query_->predicates[p].path.length(),
            "predicates of one start class");
  std::vector<std::uint32_t> rows;
  rows.reserve(candidates.size());
  for (const LOid id : candidates) {
    const ComponentDatabase::Location at = site.database->locate(id);
    expects(at.extent == start, "candidates are objects of the start class");
    rows.push_back(static_cast<std::uint32_t>(at.row));
  }
  const std::vector<Object>& objects = start->objects();
  Reaches<LocalReach> reaches(policy, *start, step, rows,
                              {candidates.begin(), candidates.end()});
  return reaches.evaluate(
      query_->predicates, preds, [&](std::size_t p, std::size_t c) {
        return eval_predicate(site, p, objects[rows[c]], step, meter, cache);
      });
}

LocalExecution run_local_query(const Federation& federation,
                               const GlobalQuery& query, DbId db,
                               const ExtentIndexes* indexes) {
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
  std::vector<LOid> candidates;
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
          candidates.push_back(database.fetch(id, &exec.meter, &cache)->id());
      break;
    }
  }
  if (!via_index)
    for (const Object& obj :
         database.scan(root_class_name, &exec.meter, &cache))
      candidates.push_back(obj.id());
  exec.considered = candidates.size();

  // Every predicate is evaluated on every candidate (no short-circuiting):
  // comparison counts stay deterministic, and under disjunctive queries a
  // False conjunct does not decide the object's fate by itself.
  const std::size_t n_preds = query.predicates.size();
  const std::vector<std::vector<LocalPredOutcome>> outcomes = bound.evaluate(
      site, 0, candidates, every_index(n_preds), &exec.meter, &cache);

  // Per-candidate scratch, rewritten whole for every candidate.
  std::vector<PredStatus> evals(n_preds);
  std::vector<Truth> truths(n_preds);
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    for (std::size_t p = 0; p < n_preds; ++p) {
      const LocalPredOutcome& outcome = outcomes[p][c];
      PredStatus& e = evals[p] = PredStatus{};
      e.truth = truths[p] = outcome.truth;
      if (!is_unknown(outcome.truth)) continue;
      // One goid probe per Unknown outcome, surviving or not; the holder's
      // entity is resolved below only if the candidate survives.
      ++exec.meter.table_probes;
      e.step = outcome.step;
      e.root_level = outcome.step == 0;  // a step-0 gap is the root's
    }
    // The object is eliminated locally when the whole matching formula is
    // provably False here (for conjunctive queries: any False conjunct).
    if (is_false(query.combine(truths))) continue;

    const Object& obj = *database.fetch(candidates[c]);
    const auto entity = federation.goids().goid_of(obj.id(), &exec.meter);
    ensures(entity.has_value(), "every constituent object is GOid-mapped");

    LocalRow row;
    row.root = obj.id();
    row.entity = *entity;
    row.preds = evals;
    for (std::size_t p = 0; p < n_preds; ++p) {
      if (!is_unknown(row.preds[p].truth)) continue;
      const auto item = federation.goids().goid_of(outcomes[p][c].holder);
      ensures(item.has_value(), "every constituent object is GOid-mapped");
      row.preds[p].item = *item;
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
