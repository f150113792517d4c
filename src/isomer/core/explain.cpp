#include "isomer/core/explain.hpp"

#include <algorithm>
#include <sstream>

#include "isomer/core/certify.hpp"
#include "isomer/query/printer.hpp"
#include "isomer/schema/translate.hpp"

namespace isomer {

std::string_view to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::Certain:
      return "certain";
    case Outcome::Maybe:
      return "maybe";
    case Outcome::Eliminated:
      return "eliminated";
    case Outcome::NotFound:
      return "not-found";
  }
  return "not-found";
}

namespace {

std::string render_predicate(const Predicate& pred) {
  std::ostringstream os;
  os << "X." << pred;
  return os.str();
}

std::string describe_site(const Federation& federation, DbId db,
                          const LocalPredOutcome& outcome,
                          const Predicate& pred) {
  std::ostringstream os;
  const std::string& attr = pred.path.step(outcome.step);
  const ComponentDatabase& database = federation.db(db);
  const std::string& holder_class = database.class_of(outcome.holder);
  const GlobalClass* global_class =
      federation.schema().global_class_of(db, holder_class);
  bool schema_missing = false;
  if (global_class != nullptr) {
    const auto constituent = global_class->constituent_in(db);
    const auto index = global_class->def().find_attribute(attr);
    if (constituent && index)
      schema_missing = global_class->is_missing(*constituent, *index);
  }
  os << "'" << attr << "' "
     << (schema_missing ? "is a missing attribute of " : "is null on ")
     << to_string(outcome.holder) << " (" << holder_class << "@DB"
     << db.value() << ")";
  return os.str();
}

}  // namespace

Explanation explain(const Federation& federation, const GlobalQuery& query,
                    GOid entity) {
  Explanation out;
  out.entity = entity;
  if (entity.value() == 0 ||
      entity.value() > federation.goids().entity_count())
    return out;
  const GoidTable& goids = federation.goids();
  if (goids.class_of(entity) != query.range_class) return out;

  const GlobalSchema& schema = federation.schema();
  const GlobalClass& range = schema.cls(query.range_class);

  out.predicates.resize(query.predicates.size());
  for (std::size_t p = 0; p < query.predicates.size(); ++p) {
    out.predicates[p].predicate = p;
    out.predicates[p].rendered = render_predicate(query.predicates[p]);
  }

  // --- Per-database evaluation of the entity's isomeric root objects,
  // exactly as the localized strategies' phase P sees them. Alongside the
  // human-readable evidence, build the same per-predicate condition pools
  // certify() builds, so the explanation can report the residual.
  std::vector<UnsolvedItem> items;
  std::vector<std::pair<DbId, std::vector<Truth>>> per_db_truths;
  std::vector<std::vector<Condition>> pooled(query.predicates.size());
  for (const LOid& isomer : goids.isomers_of(entity)) {
    const Object* root = federation.db(isomer.db).fetch(isomer);
    ensures(root != nullptr, "GOid table validated at construction");
    std::vector<Truth> truths;
    for (std::size_t p = 0; p < query.predicates.size(); ++p) {
      const LocalPredOutcome outcome = eval_global_predicate_at(
          federation, isomer.db, *root, range, query.predicates[p], 0);
      truths.push_back(outcome.truth);
      Evidence evidence;
      evidence.db = isomer.db;
      evidence.truth = outcome.truth;
      if (is_unknown(outcome.truth)) {
        evidence.note = describe_site(federation, isomer.db, outcome,
                                      query.predicates[p]);
        const auto item = goids.goid_of(outcome.holder);
        ensures(item.has_value(), "every constituent object is GOid-mapped");
        pooled[p].push_back(Condition::leaf(
            CondAtom{*item, p, outcome.step, outcome.step == 0}));
        if (outcome.step > 0)
          items.push_back(UnsolvedItem{*item, p, outcome.step, *item});
      } else {
        pooled[p].push_back(Condition::constant(outcome.truth));
        evidence.note = std::string("evaluates ") +
                        std::string(to_string(outcome.truth)) + " at DB" +
                        std::to_string(isomer.db.value());
      }
      out.predicates[p].evidence.push_back(std::move(evidence));
    }
    // Row-absence elimination: a database whose local formula is False
    // rejects the whole entity.
    if (is_false(query.combine(truths))) out.eliminated_at = isomer.db;
    per_db_truths.emplace_back(isomer.db, std::move(truths));
  }

  // --- Assistant checking for the nested unsolved items (with cascades).
  std::sort(items.begin(), items.end());
  std::vector<CheckVerdict> verdicts;
  std::vector<std::pair<DbId, CheckTask>> noted_tasks;
  {
    // One round of planning per home database would dispatch per-home; for
    // explanation purposes the union over homes is what matters.
    CheckPlan plan = plan_checks(federation, query, DbId{0}, items);
    while (plan.task_count() > 0) {
      CheckPlan next;
      for (const auto& [target, tasks] : plan.by_target) {
        const CheckOutcome outcome =
            run_checks(federation, query, target, tasks);
        for (std::size_t i = 0; i < tasks.size(); ++i)
          noted_tasks.emplace_back(target, tasks[i]);
        verdicts.insert(verdicts.end(), outcome.verdicts.begin(),
                        outcome.verdicts.end());
        for (const auto& [cascade_target, cascade_tasks] :
             outcome.follow_up.by_target) {
          auto& bucket = next.by_target[cascade_target];
          bucket.insert(bucket.end(), cascade_tasks.begin(),
                        cascade_tasks.end());
        }
      }
      plan = std::move(next);
    }
  }
  for (std::size_t i = 0; i < noted_tasks.size() && i < verdicts.size();
       ++i) {
    const auto& [target, task] = noted_tasks[i];
    Evidence evidence;
    evidence.db = target;
    evidence.truth = verdicts[i].truth;
    evidence.from_assistant = true;
    std::ostringstream note;
    note << "assistant " << to_string(task.assistant) << " reports "
         << to_string(verdicts[i].truth);
    evidence.note = note.str();
    out.predicates[verdicts[i].predicate].evidence.push_back(
        std::move(evidence));
  }

  // --- Pool the evidence per predicate (same rule as certify()).
  std::vector<Truth> merged(query.predicates.size(), Truth::Unknown);
  for (std::size_t p = 0; p < query.predicates.size(); ++p) {
    bool any_true = false, any_false = false;
    for (const Evidence& evidence : out.predicates[p].evidence) {
      if (is_true(evidence.truth)) any_true = true;
      if (is_false(evidence.truth)) any_false = true;
    }
    merged[p] = any_false  ? Truth::False
                : any_true ? Truth::True
                           : Truth::Unknown;
    out.predicates[p].merged = merged[p];
  }

  if (out.eliminated_at) {
    out.outcome = Outcome::Eliminated;
    return out;
  }
  const Truth overall = query.combine(merged);
  out.outcome = is_false(overall)  ? Outcome::Eliminated
                : is_true(overall) ? Outcome::Certain
                                   : Outcome::Maybe;

  // --- The residual condition of a maybe outcome: every checked atom's
  // pooled verdict substituted into its non-root-level leaves, then the
  // per-predicate pools folded and combined in the query's shape —
  // certify()'s condition path for one entity.
  if (out.outcome == Outcome::Maybe) {
    Condition::Assignment verdict_index;
    for (const CheckVerdict& verdict : verdicts) {
      auto [it, inserted] = verdict_index.try_emplace(
          std::pair{verdict.item, verdict.predicate}, verdict.truth);
      if (!inserted) {
        if (is_false(verdict.truth) || is_false(it->second))
          it->second = Truth::False;
        else
          it->second = it->second || verdict.truth;
      }
    }
    std::vector<Condition> per_pred;
    per_pred.reserve(query.predicates.size());
    for (std::size_t p = 0; p < query.predicates.size(); ++p) {
      for (Condition& child : pooled[p]) {
        if (child.kind() != Condition::Kind::Leaf || child.atom().root_level)
          continue;
        const auto it = verdict_index.find(std::pair{child.atom().item, p});
        if (it != verdict_index.end()) child = Condition::constant(it->second);
      }
      per_pred.push_back(Condition::fold(Condition::Kind::Pool, pooled[p]));
    }
    out.residual = combine_conditions(query, per_pred);
    ensures(out.residual.truth() == overall,
            "explanation residual must agree with the pooled evidence");
  }
  return out;
}

std::map<std::size_t, std::uint64_t> Explanation::residual_histogram() const {
  std::map<std::size_t, std::uint64_t> histogram;
  if (outcome != Outcome::Maybe) return histogram;
  for (const CondAtom& atom : residual.atoms()) ++histogram[atom.predicate];
  return histogram;
}

namespace {

/// Aggregate of every span sharing one (site, step) within a phase group.
struct StepLine {
  std::string site;
  std::string step;
  std::size_t spans = 0;
  SimTime busy = 0;
  AccessMeter work;
  Bytes bytes = 0;
  std::uint64_t messages = 0;
  std::uint64_t objects_in = 0, objects_out = 0;
  std::uint64_t certs_resolved = 0, certs_eliminated = 0;
  SimTime first_start = 0;
};

void render_step_line(std::ostringstream& os, const std::string& branch,
                      const StepLine& line) {
  os << branch << line.site << "  " << line.step << "  "
     << to_milliseconds(line.busy) << "ms";
  if (line.spans > 1) os << " (" << line.spans << " spans)";
  if (line.objects_in != 0 || line.objects_out != 0)
    os << "  objects " << line.objects_in << "->" << line.objects_out;
  if (line.bytes != 0 || line.messages != 0)
    os << "  " << line.bytes << "B/" << line.messages << "msg";
  const AccessMeter& work = line.work;
  if (work.objects_scanned != 0) os << "  scans=" << work.objects_scanned;
  if (work.objects_fetched != 0) os << "  fetches=" << work.objects_fetched;
  if (work.comparisons != 0) os << "  cmp=" << work.comparisons;
  if (work.table_probes != 0) os << "  probes=" << work.table_probes;
  if (line.certs_resolved != 0 || line.certs_eliminated != 0)
    os << "  certified=" << line.certs_resolved
       << " eliminated=" << line.certs_eliminated;
  os << "\n";
}

}  // namespace

std::string render_phase_tree(const obs::TraceSession& session) {
  if (session.empty()) return "(empty trace)\n";

  // Group spans per (strategy, query) execution, preserving record order
  // (sessions record in simulated-time completion order).
  std::vector<std::pair<std::string, std::uint64_t>> executions;
  for (const obs::PhaseSpan& span : session.spans()) {
    const std::pair<std::string, std::uint64_t> key{span.strategy,
                                                    span.query};
    if (std::find(executions.begin(), executions.end(), key) ==
        executions.end())
      executions.push_back(key);
  }

  std::ostringstream os;
  for (const auto& [strategy, query] : executions) {
    os << "strategy " << (strategy.empty() ? "?" : strategy);
    if (executions.size() > 1 || query != 0) os << "  (query " << query << ")";
    os << "\n";

    // Phases in order of first span start — the executing flow. Plan
    // markers always render first (what the adaptive planner decided per
    // site, plus any mid-flight switch, frames the phases that follow);
    // Transfers always render last: they are the glue between phases, not
    // a phase.
    std::vector<Phase> phases;
    const auto phase_key = [&](Phase phase) {
      return std::find(phases.begin(), phases.end(), phase) != phases.end();
    };
    std::vector<const obs::PhaseSpan*> spans;
    for (const obs::PhaseSpan& span : session.spans())
      if (span.strategy == strategy && span.query == query)
        spans.push_back(&span);
    std::stable_sort(spans.begin(), spans.end(),
                     [](const obs::PhaseSpan* a, const obs::PhaseSpan* b) {
                       return a->start_ns < b->start_ns;
                     });
    for (const obs::PhaseSpan* span : spans)
      if (span->phase == Phase::Plan) {
        phases.push_back(Phase::Plan);
        break;
      }
    for (const obs::PhaseSpan* span : spans)
      if (span->phase != Phase::Transfer && span->phase != Phase::Plan &&
          span->phase != Phase::Serve && !phase_key(span->phase))
        phases.push_back(span->phase);
    phases.push_back(Phase::Transfer);

    for (std::size_t p = 0; p < phases.size(); ++p) {
      const Phase phase = phases[p];
      std::vector<StepLine> lines;
      SimTime first = 0, last = 0;
      bool any = false;
      for (const obs::PhaseSpan* span : spans) {
        if (span->phase != phase) continue;
        if (!any || span->start_ns < first) first = span->start_ns;
        if (!any || span->end_ns > last) last = span->end_ns;
        any = true;
        auto it = std::find_if(lines.begin(), lines.end(),
                               [&](const StepLine& line) {
                                 return line.site == span->site &&
                                        line.step == span->step;
                               });
        if (it == lines.end()) {
          lines.push_back(StepLine{});
          it = std::prev(lines.end());
          it->site = span->site;
          it->step = span->step;
          it->first_start = span->start_ns;
        }
        ++it->spans;
        it->busy += span->end_ns - span->start_ns;
        it->work += span->work;
        it->bytes += span->bytes;
        it->messages += span->messages;
        it->objects_in += span->objects_in;
        it->objects_out += span->objects_out;
        it->certs_resolved += span->certs_resolved;
        it->certs_eliminated += span->certs_eliminated;
      }
      if (!any) continue;
      const bool last_phase = (p + 1 == phases.size());
      os << (last_phase ? "`- " : "|- ") << "phase " << to_string(phase)
         << "  [" << to_milliseconds(first) << " - " << to_milliseconds(last)
         << " ms]\n";
      const std::string branch = last_phase ? "     " : "|    ";
      std::stable_sort(lines.begin(), lines.end(),
                       [](const StepLine& a, const StepLine& b) {
                         return a.first_start < b.first_start;
                       });
      for (const StepLine& line : lines) render_step_line(os, branch, line);
    }
  }
  return os.str();
}

std::string Explanation::to_text(const GlobalQuery& query) const {
  std::ostringstream os;
  os << "entity g" << entity.value() << ": " << to_string(outcome) << "\n";
  if (outcome == Outcome::NotFound) {
    os << "  (not an entity of range class " << query.range_class << ")\n";
    return os.str();
  }
  if (eliminated_at)
    os << "  rejected outright by DB" << eliminated_at->value()
       << " — its isomeric object there fails the query\n";
  for (const PredicateAccount& account : predicates) {
    os << "  " << account.rendered << "  => " << to_string(account.merged)
       << "\n";
    for (const Evidence& evidence : account.evidence)
      os << "    - " << (evidence.from_assistant ? "[check] " : "")
         << evidence.note << "\n";
  }
  if (outcome == Outcome::Maybe) {
    os << "  residual: " << residual.to_string() << "\n";
    const auto histogram = residual_histogram();
    std::uint64_t total = 0;
    for (const auto& [predicate, count] : histogram) total += count;
    os << "  unresolved atoms: " << total;
    for (const auto& [predicate, count] : histogram)
      os << " p" << predicate << "=" << count;
    os << "\n";
  }
  return os.str();
}

}  // namespace isomer
