#include "isomer/core/local_exec.hpp"

#include <span>
#include <variant>

#include "isomer/common/error.hpp"
#include "isomer/query/kernels.hpp"

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
  //   Row         row-at-a-time walk per candidate (the reference path);
  //   Kernel      one vectorized pass over the root extent's columnar
  //               mirror, truths precomputed for all candidates;
  //   MissingRoot the step-0 attribute is schema-missing here, so every
  //               candidate is Unknown at the root — no walk at all.
  // Kernel/MissingRoot apply only to full scans (candidates == extent rows
  // in order); index executions keep the row walk.
  enum class PredMode : unsigned char { Row, Kernel, MissingRoot };
  const std::size_t n_preds = query.predicates.size();
  std::vector<PredMode> modes(n_preds, PredMode::Row);
  std::vector<std::vector<Truth>> kernel_truths(n_preds);
  if (use_columnar && !via_index && !candidates.empty()) {
    const Extent& root_extent = database.extent(root_class_name);
    for (std::size_t p = 0; p < n_preds; ++p) {
      const Predicate& pred = query.predicates[p];
      const auto attr = bound.local_attr(site, p, 0);
      if (!attr) {
        // The row path returns Unknown(root, step 0) per candidate with no
        // comparison, then charges one goid probe for the unknown holder —
        // surviving or not. Same totals, charged in bulk.
        modes[p] = PredMode::MissingRoot;
        exec.meter.table_probes += candidates.size();
        continue;
      }
      if (pred.path.length() != 1) continue;  // navigation: row walk
      const ColumnarExtent::Column& col =
          root_extent.columnar().column(*attr);
      if (!kernel_applicable(col.kind, pred.op, pred.literal)) continue;
      modes[p] = PredMode::Kernel;
      kernel_truths[p].resize(candidates.size());
      eval_predicate_column(col, candidates.size(), pred.op, pred.literal,
                            kernel_truths[p].data());
      // Row-path charges for a present last-step attribute: one comparison
      // per candidate (nulls included — apply() still runs), one goid probe
      // per Unknown outcome whether or not the candidate survives.
      exec.meter.comparisons += candidates.size();
      exec.meter.table_probes +=
          count_truth(kernel_truths[p], Truth::Unknown);
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
        // An Unknown is held by the root itself at step 0 (its probe was
        // bulk-charged above); its entity is the row's, filled in below
        // only if the candidate survives.
        e.truth = modes[p] == PredMode::Kernel ? kernel_truths[p][r]
                                               : Truth::Unknown;
        e.root_level = is_unknown(e.truth);
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
    for (std::size_t p = 0; p < n_preds; ++p)
      if (modes[p] != PredMode::Row && is_unknown(row.preds[p].truth))
        row.preds[p].item = *entity;

    row.targets.reserve(query.targets.size());
    for (std::size_t t = 0; t < query.targets.size(); ++t)
      row.targets.push_back(
          bound.eval_target(site, t, obj, &exec.meter, &cache));

    exec.rows.push_back(std::move(row));
  }
  return exec;
}

}  // namespace isomer
