#include "isomer/core/certify.hpp"

#include <algorithm>
#include <set>
#include <span>

#include "isomer/common/error.hpp"

namespace isomer {

QueryResult certify(
    const Federation& federation, const GlobalQuery& query,
    const std::vector<LocalExecution>& locals,
    const std::vector<CheckVerdict>& verdicts, AccessMeter* meter,
    CertifyStats* stats, const std::set<DbId>* unavailable,
    const std::map<std::pair<GOid, std::size_t>, double>* imputed) {
  if (stats != nullptr)
    stats->verdicts = static_cast<std::uint64_t>(verdicts.size());
  // Databases that ran a local query (homes of the range class).
  std::set<DbId> homes;
  for (const LocalExecution& local : locals) homes.insert(local.db);

  // Entity -> its rows, grouped by one stable sort: rows are appended in
  // ascending DbId order, and stability keeps that order within an entity.
  std::vector<const LocalExecution*> ordered;
  ordered.reserve(locals.size());
  for (const LocalExecution& local : locals) ordered.push_back(&local);
  std::sort(ordered.begin(), ordered.end(),
            [](const LocalExecution* a, const LocalExecution* b) {
              return a->db < b->db;
            });

  using EntityRow = std::pair<GOid, const LocalRow*>;
  const auto by_entity = [](const EntityRow& a, const EntityRow& b) {
    return a.first < b.first;
  };
  std::vector<EntityRow> rows_by_entity;
  for (const LocalExecution* local : ordered)
    for (const LocalRow& row : local->rows)
      rows_by_entity.emplace_back(row.entity, &row);
  std::stable_sort(rows_by_entity.begin(), rows_by_entity.end(), by_entity);

  // Flat ascending view of the homes for the batched presence probe below.
  const std::vector<DbId> home_list(homes.begin(), homes.end());

  // Verdict index, sorted by (item, predicate): the Kleene-or of all
  // assistant verdicts on that key, with False dominating (any violating
  // assistant eliminates). The pooling is order-independent, so sorting
  // first and merging neighbours gives the same index as inserting in
  // arrival order.
  using VerdictKey = std::pair<GOid, std::size_t>;
  std::vector<std::pair<VerdictKey, Truth>> verdict_index;
  verdict_index.reserve(verdicts.size());
  for (const CheckVerdict& verdict : verdicts) {
    if (meter != nullptr) ++meter->comparisons;
    verdict_index.emplace_back(VerdictKey{verdict.item, verdict.predicate},
                               verdict.truth);
  }
  std::sort(verdict_index.begin(), verdict_index.end());
  std::size_t merged = 0;
  for (const auto& [key, truth] : verdict_index) {
    if (merged > 0 && verdict_index[merged - 1].first == key) {
      Truth& pooled = verdict_index[merged - 1].second;
      pooled = is_false(truth) || is_false(pooled) ? Truth::False
                                                   : pooled || truth;
    } else {
      verdict_index[merged++] = {key, truth};
    }
  }
  verdict_index.resize(merged);
  const auto find_verdict = [&verdict_index](GOid item,
                                             std::size_t p) -> const Truth* {
    const VerdictKey key{item, p};
    const auto it = std::lower_bound(
        verdict_index.begin(), verdict_index.end(), key,
        [](const auto& entry, const VerdictKey& k) { return entry.first < k; });
    return it != verdict_index.end() && it->first == key ? &it->second
                                                         : nullptr;
  };

  // Scratch reused across entities, so a row whose condition folds to a
  // constant allocates nothing.
  std::vector<Truth> truths(query.predicates.size());
  std::vector<Condition> pooled;
  std::vector<Condition> per_pred;
  std::vector<VerdictKey> imputed_used;
  std::vector<CondAtom> atoms;

  QueryResult result;
  for (auto group = rows_by_entity.begin(); group != rows_by_entity.end();) {
    const GOid entity = group->first;
    const auto group_end =
        std::find_if(group, rows_by_entity.end(),
                     [entity](const EntityRow& e) { return e.first != entity; });
    const std::span<const EntityRow> rows(group, group_end);
    group = group_end;
    if (stats != nullptr) ++stats->entities;
    // Row-presence evidence: every home database holding an isomeric root
    // object must have shipped a row, else the object was eliminated locally
    // and the entity fails the conjunction.
    bool eliminated = false;
    // One merge pass over the entity's isomers, charging one table probe
    // per home — meter-identical to probing loid_in home by home.
    const std::size_t expected_rows =
        federation.goids().present_in(entity, home_list, meter);
    if (rows.size() != expected_rows) eliminated = true;

    // Pool the evidence per predicate across rows and check verdicts:
    // any True solves it, any False (a violating value somewhere, or a
    // violating assistant) refutes it, otherwise it stays Unknown. On
    // consistent federations True and False evidence cannot coexist; if
    // they ever did, False dominates, matching the certification rule's
    // "eliminated when any assistant violates".
    //
    // Alongside the flat pool, build the row's *condition* (conditional
    // tables, query/condition.hpp): per predicate, a Pool over the same
    // evidence — decided row statuses as constants, Unknown statuses as
    // leaves — combined in the query's AND/OR shape. A consulted verdict
    // is substituted as its leaf is made, and every node is built through
    // Condition::fold, so the condition arrives simplified and its truth
    // is, by construction, the flat pool's answer; the condition
    // additionally *names* the atoms that kept a maybe row maybe. Building
    // it charges nothing: the meter sees exactly the comparisons the flat
    // loop makes.
    Truth overall = Truth::True;
    Condition condition;  // constant True
    double confidence = 1.0;  // product over distinct imputed verdicts used
    if (!eliminated) {
      per_pred.clear();
      imputed_used.clear();
      for (std::size_t p = 0; p < query.predicates.size(); ++p) {
        bool any_true = false, any_false = false;
        pooled.clear();
        for (const auto& [row_entity, row] : rows) {
          if (meter != nullptr) ++meter->comparisons;
          const PredStatus& status = row->preds[p];
          if (is_true(status.truth)) any_true = true;
          if (is_false(status.truth)) any_false = true;
          if (!is_unknown(status.truth)) {
            pooled.push_back(Condition::constant(status.truth));
            continue;
          }
          // Step-0 sites are decided by the other rows in this very pool,
          // never by assistant verdicts — the root_level flag records that.
          // A step > 0 leaf with a pooled verdict is that verdict: the
          // leaf is not negated, so substitution would give this constant.
          const Truth* verdict =
              status.step > 0 ? find_verdict(status.item, p) : nullptr;
          if (verdict == nullptr) {
            pooled.push_back(Condition::leaf(
                CondAtom{status.item, p, status.step, status.step == 0}));
            continue;
          }
          if (meter != nullptr) ++meter->comparisons;
          if (is_false(*verdict)) any_false = true;
          if (is_true(*verdict)) any_true = true;
          pooled.push_back(Condition::constant(*verdict));
          // Probabilistic certification (the IM strategy): a consulted
          // verdict that was synthesized from the population model
          // discounts the row's confidence — once per distinct atom,
          // however many rows of the entity it advised.
          if (imputed != nullptr) {
            const VerdictKey key{status.item, p};
            const auto conf = imputed->find(key);
            if (conf != imputed->end() &&
                std::find(imputed_used.begin(), imputed_used.end(), key) ==
                    imputed_used.end()) {
              imputed_used.push_back(key);
              confidence *= conf->second;
            }
          }
        }
        truths[p] = any_false  ? Truth::False
                    : any_true ? Truth::True
                               : Truth::Unknown;
        per_pred.push_back(Condition::fold(Condition::Kind::Pool, pooled));
      }
      overall = query.combine(truths);
      condition = combine_conditions(query, per_pred);
      ensures(condition.truth() == overall,
              "row condition must agree with the flat certification pool");
      if (is_false(overall)) eliminated = true;
    }
    if (eliminated) {
      if (stats != nullptr) ++stats->eliminated;
      continue;
    }

    ResultRow out;
    out.entity = entity;
    out.confidence = confidence;
    out.status =
        is_true(overall) ? ResultStatus::Certain : ResultStatus::Maybe;
    // A certain row is final — no residual (a True condition can still
    // carry leaves whose False would refute it, but on consistent
    // federations decided evidence never flips). Maybe rows keep the
    // simplified residual naming what is still undecided.
    out.condition = out.status == ResultStatus::Certain
                        ? Condition::constant(Truth::True)
                        : std::move(condition);
    if (stats != nullptr) {
      ++(out.status == ResultStatus::Certain ? stats->certain : stats->maybe);
      atoms.clear();
      out.condition.collect_atoms(atoms);
      for (const CondAtom& atom : atoms) {
        ++stats->unresolved_atoms;
        ++stats->unresolved_by_predicate[atom.predicate];
      }
    }
    out.targets.assign(query.targets.size(), Value::null());
    // Rows are in ascending DbId order; the first non-null target wins.
    for (const auto& [row_entity, row] : rows)
      for (std::size_t t = 0; t < query.targets.size(); ++t)
        if (out.targets[t].is_null() && !row->targets[t].is_null())
          out.targets[t] = row->targets[t];
    result.rows.push_back(std::move(out));
  }

  // Graceful degradation: a range entity whose every root isomer lives in an
  // unreachable database produced no row anywhere, yet the (replicated) GOid
  // table proves it exists. Synthesize the row the centralized approach
  // materializes for it — all values null, every predicate Unknown.
  if (unavailable != nullptr && !unavailable->empty()) {
    const Truth overall = query.combine(
        std::vector<Truth>(query.predicates.size(), Truth::Unknown));
    for (const GOid entity :
         federation.goids().entities_of(query.range_class)) {
      if (std::binary_search(rows_by_entity.begin(), rows_by_entity.end(),
                             EntityRow{entity, nullptr}, by_entity))
        continue;
      if (meter != nullptr) ++meter->table_probes;
      bool any_live_home = false;
      bool any_dead = false;
      for (const LOid& isomer : federation.goids().isomers_of(entity)) {
        if (unavailable->count(isomer.db) != 0)
          any_dead = true;
        else if (homes.count(isomer.db) != 0)
          any_live_home = true;
      }
      // A live home knew the entity and eliminated it locally; only a fully
      // unreachable entity is resurrected as unknown.
      if (any_live_home || !any_dead) continue;
      if (is_false(overall)) continue;
      ResultRow out;
      out.entity = entity;
      out.status =
          is_true(overall) ? ResultStatus::Certain : ResultStatus::Maybe;
      // The synthesized row's residual: every predicate Unknown at the
      // entity itself. root_level because no assistant verdict can decide
      // it — the data lives only at unreachable sites.
      if (out.status == ResultStatus::Maybe) {
        per_pred.clear();
        for (std::size_t p = 0; p < query.predicates.size(); ++p)
          per_pred.push_back(
              Condition::leaf(CondAtom{entity, p, 0, true}));
        out.condition = combine_conditions(query, per_pred);
      }
      if (stats != nullptr) {
        ++stats->entities;
        ++(is_true(overall) ? stats->certain : stats->maybe);
        if (out.status == ResultStatus::Maybe)
          for (const CondAtom& atom : out.condition.atoms()) {
            ++stats->unresolved_atoms;
            ++stats->unresolved_by_predicate[atom.predicate];
          }
      }
      out.targets.assign(query.targets.size(), Value::null());
      result.rows.push_back(std::move(out));
    }
  }

  result.normalize();
  return result;
}

}  // namespace isomer
