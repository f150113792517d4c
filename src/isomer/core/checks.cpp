#include "isomer/core/checks.hpp"

#include <algorithm>
#include <optional>
#include <span>
#include <utility>

#include "isomer/common/error.hpp"

namespace isomer {

std::vector<UnsolvedItem> unsolved_items_of_rows(
    const std::vector<LocalRow>& rows) {
  std::vector<UnsolvedItem> items;
  for (const LocalRow& row : rows)
    for (std::size_t p = 0; p < row.preds.size(); ++p) {
      const PredStatus& status = row.preds[p];
      // Nested sites only: root-level sites (step 0 on the root object) are
      // certified through the other databases' local results.
      if (is_unknown(status.truth) && status.step > 0)
        items.push_back(
            UnsolvedItem{status.item, p, status.step, status.item});
    }
  // Items are collected per result object, as in the paper's Fig. 7 graphs:
  // two maybe results advised by the same teacher list its assistants twice,
  // and both instances are shipped and checked. (Sorted for the PL wave-2
  // set difference; deliberately NOT dedup'd — the number of assistant
  // objects checked is the cost driver of Figs. 10 and 11.)
  std::sort(items.begin(), items.end());
  return items;
}

std::vector<UnsolvedItem> unsolved_items_of_all_roots(
    const Federation& federation, const GlobalQuery& query, DbId home,
    AccessMeter* meter) {
  const BoundQuery bound(federation, query);
  const GlobalClass& range = federation.schema().cls(query.range_class);
  const auto constituent = range.constituent_in(home);
  expects(constituent.has_value(),
          "unsolved_items_of_all_roots at a non-root database");
  const BoundQuery::Site site = bound.site(home);
  const ComponentDatabase& database = *site.database;
  const std::string& root_class =
      range.constituents()[*constituent].local_class;

  // PL_C1 retrieves the nested objects of *every* root object and inspects
  // them for missing data — schema-level missing attributes and value-level
  // nulls alike. The discovery walk is the same navigation phase P performs
  // later (one buffer pool; the executors subtract this meter from the
  // evaluation meter), but no predicate comparisons are charged here: those
  // belong to phase P. Only nested sites (step > 0) are collected.
  AccessMeter local;
  FetchCache cache;
  std::vector<LOid> roots;
  for (const Object& obj : database.scan(root_class, &local, &cache))
    roots.push_back(obj.id());
  const std::vector<std::vector<LocalPredOutcome>> outcomes = bound.evaluate(
      site, 0, roots, every_index(query.predicates.size()), &local, &cache);
  std::vector<UnsolvedItem> items;
  for (std::size_t p = 0; p < outcomes.size(); ++p)
    for (const LocalPredOutcome& outcome : outcomes[p]) {
      if (!is_unknown(outcome.truth) || outcome.step == 0) continue;
      const auto entity = federation.goids().goid_of(outcome.holder, &local);
      ensures(entity.has_value(), "every constituent object is GOid-mapped");
      items.push_back(UnsolvedItem{*entity, p, outcome.step, *entity});
    }
  // Discovery inspects values but performs no predicate comparisons.
  local.comparisons = 0;
  if (meter != nullptr) *meter += local;
  std::sort(items.begin(), items.end());  // per-object instances, not dedup'd
  return items;
}

CheckPlan plan_checks(const Federation& federation, const GlobalQuery& query,
                      DbId home, const std::vector<UnsolvedItem>& items,
                      const SignatureIndex* signatures) {
  const BoundQuery bound(federation, query);
  const GoidTable& goids = federation.goids();

  CheckPlan plan;
  // Token masks per screenable predicate, built on first use.
  std::vector<std::optional<SignatureIndex::Probe>> probes(
      signatures != nullptr ? query.predicates.size() : 0);
  for (const UnsolvedItem& item : items) {
    const Predicate& pred = query.predicates[item.predicate];
    expects(item.step < pred.path.length(),
            "unsolved step beyond predicate path");
    // Signatures index (attribute = value) tokens, so screening applies to
    // single-attribute equality suffixes only.
    const bool screenable = signatures != nullptr &&
                            item.step + 1 == pred.path.length() &&
                            pred.op == CompOp::Eq;
    ++plan.meter.table_probes;  // the mapping-table lookup for this item
    bool advised = false;
    for (const LOid& isomer : goids.isomers_of(item.item)) {
      if (isomer.db == home) continue;
      ++plan.meter.table_probes;  // examine one candidate assistant
      // The assistant is useful when its database can evaluate at least the
      // first step of the suffix: full evaluation may still hit deeper
      // missing data there, which cascades (CheckOutcome::follow_up). An
      // assistant whose schema misses the very first attribute cannot make
      // progress at all and is skipped.
      if (!bound.local_attr(bound.site(isomer.db), item.predicate, item.step))
        continue;
      if (screenable && !probes[item.predicate])
        probes[item.predicate] =
            SignatureIndex::probe(pred.path.last(), pred.literal);
      if (screenable &&
          signatures->screen(isomer, *probes[item.predicate], &plan.meter) ==
              SignatureIndex::Screen::CannotSatisfy) {
        plan.local_verdicts.push_back(
            CheckVerdict{item.origin, item.predicate, Truth::False});
        advised = true;
        continue;
      }
      plan.by_target[isomer.db].push_back(
          CheckTask{item.item, isomer, item.predicate, item.step, item.origin});
      advised = true;
    }
    // No capable assistant anywhere: the atom is unresolvable by checking.
    if (!advised) plan.unadvised.push_back(item);
  }
  return plan;
}

CheckOutcome run_checks(const Federation& federation, const GlobalQuery& query,
                        DbId target, const std::vector<CheckTask>& tasks,
                        const SignatureIndex* signatures) {
  const BoundQuery bound(federation, query);
  const BoundQuery::Site site = bound.site(target);
  const ComponentDatabase& database = *site.database;
  const GoidTable& goids = federation.goids();

  CheckOutcome outcome;
  outcome.db = target;
  outcome.verdicts.resize(tasks.size());
  // Each listed LOid is retrieved individually (paper BL_C3: "retrieve the
  // objects for the LOid list of the assistant objects") — check batches are
  // random point lookups, not buffered scans, so no FetchCache here. The
  // assistants of one (predicate, step) are one candidate list.
  std::map<std::pair<std::uint32_t, std::size_t>, std::vector<std::size_t>>
      groups;
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const CheckTask& task = tasks[i];
    expects(task.assistant.db == target, "check task routed to wrong database");
    if (database.fetch(task.assistant, &outcome.meter) == nullptr)
      throw FederationError("assistant object " + to_string(task.assistant) +
                            " does not exist");
    // The object model has no subclassing, so an item reached at step k is
    // an object of the step's bound class.
    ensures(goids.class_of(task.item) ==
                bound.step_class(task.predicate, task.step).name(),
            "check task item is of its step's global class");
    groups[{static_cast<std::uint32_t>(task.predicate), task.step}].push_back(
        i);
  }

  std::vector<UnsolvedItem> cascaded;
  std::vector<LOid> assistants;
  for (const auto& [key, members] : groups) {
    const auto& [p, step] = key;
    assistants.clear();
    for (const std::size_t i : members)
      assistants.push_back(tasks[i].assistant);
    const std::vector<std::vector<LocalPredOutcome>> evals = bound.evaluate(
        site, step, assistants, std::span(&p, 1), &outcome.meter);
    for (std::size_t c = 0; c < members.size(); ++c) {
      const CheckTask& task = tasks[members[c]];
      const LocalPredOutcome& eval = evals[0][c];
      outcome.verdicts[members[c]] = CheckVerdict{task.origin, p, eval.truth};
      // A deeper unsolved site (strictly past the checked step) is a new
      // item whose assistants this database can look up itself; the site at
      // the checked step is the original item, whose other assistants the
      // home database already fanned out to.
      if (!is_unknown(eval.truth) || eval.step <= step) continue;
      const auto entity = goids.goid_of(eval.holder, &outcome.meter);
      ensures(entity.has_value(), "every constituent object is GOid-mapped");
      cascaded.push_back(UnsolvedItem{*entity, p, eval.step, task.origin});
    }
  }
  std::sort(cascaded.begin(), cascaded.end());
  if (!cascaded.empty())
    outcome.follow_up =
        plan_checks(federation, query, target, cascaded, signatures);
  return outcome;
}

}  // namespace isomer
