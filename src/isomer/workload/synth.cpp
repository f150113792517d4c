#include "isomer/workload/synth.hpp"

#include <string>
#include <unordered_map>

#include "isomer/common/error.hpp"
#include "isomer/schema/integrator.hpp"

namespace isomer {

namespace {

/// "<prefix><n>", appended rather than concatenated: GCC 12 raises a false
/// -Wrestrict on `"literal" + std::to_string(n)` in optimized builds.
std::string numbered(char prefix, std::size_t n) {
  std::string out(1, prefix);
  out += std::to_string(n);
  return out;
}

std::string class_name(std::size_t k) { return numbered('C', k + 1); }
std::string pred_attr(std::size_t j) { return numbered('p', j); }
std::string target_attr(std::size_t j) { return numbered('t', j); }
std::string extra_attr(std::size_t j) { return numbered('x', j); }

/// One synthetic real-world entity of one class.
struct Entity {
  std::vector<Value> pred_values;    ///< canonical p_j values
  std::vector<Value> target_values;  ///< root class only
  std::vector<Value> extra_values;
  std::int64_t identity = 0;
  std::optional<std::size_t> ref;    ///< referenced entity of the next class
  std::vector<DbId> dbs;             ///< databases holding a constituent
};

}  // namespace

SynthFederation materialize_sample(const SampleParams& sample,
                                   std::size_t extra_attrs) {
  expects(sample.n_db >= 1, "sample needs at least one database");
  expects(!sample.classes.empty(), "sample needs at least one class");
  Rng rng(sample.materialize_seed);

  const std::size_t n_classes = sample.classes.size();
  std::vector<DbId> db_ids;
  for (std::size_t i = 0; i < sample.n_db; ++i)
    db_ids.push_back(DbId{static_cast<std::uint16_t>(i + 1)});

  // ---- Draw the entity universe, class by class (children first so the
  // parents can reference them).
  std::vector<std::vector<Entity>> entities(n_classes);
  for (std::size_t k = n_classes; k-- > 0;) {
    const SampleParams::PerClass& cls = sample.classes[k];
    std::vector<std::int64_t> quota;
    for (const auto& db : cls.dbs) quota.push_back(db.n_objects);

    // Fraction of *entities* that span two databases so that the fraction
    // of *objects* with isomers equals R_iso (pairs hold two objects).
    const double paired_entities =
        sample.iso_ratio / (2.0 - sample.iso_ratio);

    std::vector<Entity>& pool = entities[k];
    std::int64_t serial = 0;
    while (true) {
      std::vector<std::size_t> open;
      for (std::size_t i = 0; i < quota.size(); ++i)
        if (quota[i] > 0) open.push_back(i);
      if (open.empty()) break;

      Entity entity;
      entity.identity = ++serial;
      const bool pair = open.size() >= 2 && rng.bernoulli(paired_entities);
      if (pair) {
        const auto picks = rng.sample_indices(open.size(), 2);
        entity.dbs = {db_ids[open[picks[0]]], db_ids[open[picks[1]]]};
        --quota[open[picks[0]]];
        --quota[open[picks[1]]];
      } else {
        const std::size_t pick = open[rng.index(open.size())];
        entity.dbs = {db_ids[pick]};
        --quota[pick];
      }

      // Canonical values. Predicate attributes are zero-inflated: value 0
      // with the drawn selectivity, otherwise uniform in [1, 999].
      entity.pred_values.reserve(static_cast<std::size_t>(cls.n_preds));
      for (int j = 0; j < cls.n_preds; ++j)
        entity.pred_values.emplace_back(
            rng.bernoulli(cls.pred_selectivity)
                ? std::int64_t{0}
                : rng.uniform_int(1, 999));
      if (k == 0)
        for (int j = 0; j < sample.n_targets; ++j)
          entity.target_values.emplace_back(rng.uniform_int(0, 999));
      for (std::size_t j = 0; j < extra_attrs; ++j)
        entity.extra_values.emplace_back(rng.uniform_int(0, 999));

      if (k + 1 < n_classes && rng.bernoulli(cls.ref_ratio) &&
          !entities[k + 1].empty())
        entity.ref = rng.index(entities[k + 1].size());

      pool.push_back(std::move(entity));
    }
  }

  // ---- Component schemas.
  std::vector<std::unique_ptr<ComponentDatabase>> databases;
  for (std::size_t i = 0; i < sample.n_db; ++i) {
    ComponentSchema schema(db_ids[i], "DB" + std::to_string(i + 1));
    for (std::size_t k = 0; k < n_classes; ++k) {
      const SampleParams::PerClass& cls = sample.classes[k];
      ClassDef def(class_name(k));
      def.add_attribute("id", PrimType::Int);
      for (const std::size_t j : cls.dbs[i].present_preds)
        def.add_attribute(pred_attr(j), PrimType::Int);
      if (k == 0)
        for (int j = 0; j < sample.n_targets; ++j)
          def.add_attribute(target_attr(static_cast<std::size_t>(j)),
                            PrimType::Int);
      for (std::size_t j = 0; j < extra_attrs; ++j)
        def.add_attribute(extra_attr(j), PrimType::Int);
      if (k + 1 < n_classes)
        def.add_attribute("ref", ComplexType{class_name(k + 1)});
      schema.add_class(std::move(def));
    }
    schema.validate();
    databases.push_back(std::make_unique<ComponentDatabase>(std::move(schema)));
  }

  // ---- Objects, children first so references resolve.
  // loids[k][entity index] -> per-db LOid.
  std::vector<std::vector<std::unordered_map<std::uint16_t, LOid>>> loids(
      n_classes);
  for (std::size_t k = n_classes; k-- > 0;) {
    const SampleParams::PerClass& cls = sample.classes[k];
    loids[k].resize(entities[k].size());
    // Pre-size every (db, class) extent for its object quota so the bulk
    // load below never rehashes or reallocates mid-insert.
    for (std::size_t i = 0; i < cls.dbs.size() && i < sample.n_db; ++i)
      if (cls.dbs[i].n_objects > 0)
        databases[i]->reserve(class_name(k),
                              static_cast<std::size_t>(cls.dbs[i].n_objects));
    for (std::size_t e = 0; e < entities[k].size(); ++e) {
      const Entity& entity = entities[k][e];
      for (const DbId db : entity.dbs) {
        const std::size_t i = static_cast<std::size_t>(db.value() - 1);
        ComponentDatabase& database = *databases[i];
        std::vector<NamedValue> values;
        values.emplace_back("id", Value(entity.identity));

        // Present predicate attributes, with the R_m null injection: when
        // the database defines every predicate attribute, a fraction R_m of
        // objects get one of them nulled. Under the MCAR mechanism (the
        // default — byte-identical to the original generator) the draw is
        // independent of everything else; under MAR it conditions on the
        // stored covariate x0: lower-half objects get double the rate,
        // upper-half none — same marginal rate, missingness predictable
        // from an observable.
        const auto& present = cls.dbs[i].present_preds;
        std::optional<std::size_t> null_slot;
        if (!present.empty() && cls.dbs[i].extra_missing > 0) {
          double rate = cls.dbs[i].extra_missing;
          if (sample.missing_mechanism == MissingMechanism::MAR &&
              !entity.extra_values.empty())
            rate = entity.extra_values[0].as_int() < 500
                       ? std::min(1.0, 2.0 * rate)
                       : 0.0;
          if (rate > 0 && rng.bernoulli(rate))
            null_slot = rng.index(present.size());
        }
        for (std::size_t s = 0; s < present.size(); ++s) {
          if (null_slot && *null_slot == s) continue;  // stays null
          const std::size_t j = present[s];
          values.emplace_back(pred_attr(j), entity.pred_values[j]);
        }

        if (k == 0)
          for (std::size_t j = 0; j < entity.target_values.size(); ++j)
            values.emplace_back(target_attr(j), entity.target_values[j]);
        for (std::size_t j = 0; j < entity.extra_values.size(); ++j)
          values.emplace_back(extra_attr(j), entity.extra_values[j]);

        if (entity.ref) {
          const auto& child_loids = loids[k + 1][*entity.ref];
          const auto it = child_loids.find(db.value());
          if (it != child_loids.end())
            values.emplace_back("ref", Value(LocalRef{it->second}));
          // Child has no constituent here: the reference stays null and the
          // missing data must come from this object's isomers.
        }
        loids[k][e].emplace(db.value(),
                            database.insert(class_name(k), values));
      }
    }
  }

  // ---- GOid tables.
  GoidTable goids;
  {
    std::size_t total_objects = 0;
    for (std::size_t k = 0; k < n_classes; ++k)
      for (const auto& per_entity : loids[k]) total_objects += per_entity.size();
    goids.reserve(total_objects);
  }
  for (std::size_t k = 0; k < n_classes; ++k)
    for (std::size_t e = 0; e < entities[k].size(); ++e) {
      std::vector<LOid> isomers;
      for (const auto& [db, loid] : loids[k][e]) isomers.push_back(loid);
      goids.register_entity(class_name(k), isomers);
    }

  // ---- Global schema by integration.
  IntegrationSpec spec;
  for (std::size_t k = 0; k < n_classes; ++k) {
    ClassSpec& cls_spec = spec.add_class(class_name(k));
    for (const DbId db : db_ids)
      cls_spec.constituents.push_back(Constituent{db, class_name(k)});
    cls_spec.identity_attribute = "id";
  }
  std::vector<const ComponentSchema*> schemas;
  for (const auto& database : databases) schemas.push_back(&database->schema());
  GlobalSchema schema = integrate(schemas, spec);

  // ---- The query.
  SynthFederation out;
  out.query.range_class = class_name(0);
  for (int j = 0; j < sample.n_targets; ++j)
    out.query.targets.push_back(
        PathExpr::parse(target_attr(static_cast<std::size_t>(j))));
  for (std::size_t k = 0; k < n_classes; ++k) {
    const SampleParams::PerClass& cls = sample.classes[k];
    for (int j = 0; j < cls.n_preds; ++j) {
      std::vector<std::string> steps(k, "ref");
      steps.push_back(pred_attr(static_cast<std::size_t>(j)));
      out.query.predicates.push_back(Predicate{
          PathExpr(std::move(steps)), CompOp::Eq, Value(std::int64_t{0})});
    }
  }

  out.federation = std::make_unique<Federation>(
      std::move(schema), std::move(databases), std::move(goids));
  return out;
}

}  // namespace isomer
