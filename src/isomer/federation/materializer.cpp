#include "isomer/federation/materializer.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <variant>

#include "isomer/common/error.hpp"
#include "isomer/query/navigate.hpp"
#include "isomer/query/reach.hpp"

namespace isomer {

namespace {

bool test_bit(const std::vector<std::uint64_t>& bits, std::size_t i) noexcept {
  return ((bits[i >> 6] >> (i & 63)) & 1) != 0;
}

void set_bit(std::vector<std::uint64_t>& bits, std::size_t i) noexcept {
  bits[i >> 6] |= std::uint64_t{1} << (i & 63);
}

}  // namespace

ColumnarExtent::Column MaterializedExtent::Column::kernel() const noexcept {
  return ColumnarExtent::Column{.kind = kind,
                                .valid = valid.data(),
                                .nums = nums.data(),
                                .bools = bools.data()};
}

MaterializedExtent::MaterializedExtent(const GlobalClass& cls,
                                       const GoidTable& goids)
    : cls_(&cls),
      goids_(&goids),
      entities_(goids.entities_of(cls.name())),
      columns_(cls.def().attribute_count()) {}

std::optional<std::size_t> MaterializedExtent::position(
    GOid id) const noexcept {
  const std::optional<std::size_t> pos = goids_->class_position(id);
  if (!pos.has_value() || *pos >= entities_.size() || entities_[*pos] != id)
    return std::nullopt;
  return pos;
}

const MaterializedExtent::Column& MaterializedExtent::column(
    std::size_t attr) const {
  expects(columns_[attr].projected,
          "materialized attribute was projected away");
  return columns_[attr];
}

const Value& MaterializedExtent::read(std::size_t pos, std::size_t attr,
                                      Value& scratch) const {
  const Column& col = column(attr);
  using ColKind = ColumnarExtent::ColKind;
  if (col.kind == ColKind::Other) return col.values[pos];
  if (!col.is_valid(pos))  // AllNull columns have no valid bit
    scratch = Value::null();
  else if (col.kind == ColKind::Num)
    scratch = test_bit(col.is_int, pos) ? Value(col.ints[pos])
                                        : Value(col.nums[pos]);
  else if (col.kind == ColKind::Bool)
    scratch = Value(col.bools[pos] != 0);
  else
    scratch = Value(GlobalRef{col.refs[pos]});
  return scratch;
}

const MaterializedExtent& MaterializedView::extent(
    std::string_view global_class) const {
  const auto it = extents_.find(global_class);  // heterogeneous: no alloc
  if (it == extents_.end())
    throw FederationError("no materialized extent for global class " +
                          std::string(global_class));
  return it->second;
}

MaterializedExtent& MaterializedView::add_extent(const GlobalClass& cls,
                                                const GoidTable& goids) {
  const auto [it, inserted] =
      extents_.emplace(cls.name(), MaterializedExtent(cls, goids));
  return it->second;
}

std::vector<std::string> classes_involved(const GlobalSchema& schema,
                                          const GlobalQuery& query) {
  std::vector<std::string> classes{query.range_class};
  const auto add_path = [&](const PathExpr& path) {
    const ResolvedPath resolved =
        resolve_path(schema.lookup(), query.range_class, path);
    for (const std::string& name : resolved.classes_on_path())
      if (std::find(classes.begin(), classes.end(), name) == classes.end())
        classes.push_back(name);
  };
  for (const PathExpr& target : query.targets) add_path(target);
  for (const Predicate& pred : query.predicates) add_path(pred.path);
  return classes;
}

AttributeProjection involved_attributes(const GlobalSchema& schema,
                                        const GlobalQuery& query) {
  AttributeProjection involved;
  const auto add_path = [&](const PathExpr& path) {
    const ResolvedPath resolved =
        resolve_path(schema.lookup(), query.range_class, path);
    for (const ResolvedStep& step : resolved.steps)
      involved[step.class_name].insert(step.attr_index);
  };
  for (const PathExpr& target : query.targets) add_path(target);
  for (const Predicate& pred : query.predicates) add_path(pred.path);
  return involved;
}

namespace {

/// The view's form of a non-null local value: globalized, except that a
/// reference set keeps its empty sets and its dangling members — as GOid 0,
/// which no extent finds — so the navigator reads a set as the component
/// database does (empty: a known value; dangling member: Unknown at the
/// referrer). One table probe per member, as globalize charges.
Value view_value(const GoidTable& goids, const Value& raw, AccessMeter* meter) {
  if (raw.kind() != ValueKind::LocalRefSet) return goids.globalize(raw, meter);
  const std::vector<LOid>& members = raw.as_local_ref_set();
  GlobalRefSet set{std::vector<GOid>(members.size())};
  goids.goids_of(members, set.targets.data(), meter);
  return Value(std::move(set));
}

/// A column kind that holds both `a` and `b` exactly.
ColumnarExtent::ColKind join(ColumnarExtent::ColKind a,
                             ColumnarExtent::ColKind b) noexcept {
  using ColKind = ColumnarExtent::ColKind;
  if (a == ColKind::AllNull) return b;
  if (b == ColKind::AllNull || a == b) return a;
  return ColKind::Other;
}

}  // namespace

/// The outerjoin of one global class into its extent's columns.
class Outerjoin {
 public:
  Outerjoin(MaterializedExtent& extent, const Federation& federation,
            AccessMeter* meter, MergePolicy policy,
            const std::set<DbId>* exclude, const std::set<std::size_t>* only)
      : extent_(extent),
        goids_(federation.goids()),
        meter_(meter) {
    const GlobalClass& cls = extent.cls();
    for (std::size_t c = 0; c < cls.constituents().size(); ++c) {
      const DbId db = cls.constituents()[c].db;
      if (exclude != nullptr && exclude->count(db) != 0) continue;
      const ComponentDatabase& database = federation.db(db);
      sources_.push_back(
          {&database, c,
           &database.extent(cls.constituents()[c].local_class)});
    }
    // The fill order: ascending DbId, so the first non-null value wins.
    std::sort(sources_.begin(), sources_.end(),
              [](const Source& a, const Source& b) {
                return a.database->db() < b.database->db();
              });
    for (std::size_t a = 0; a < extent.columns_.size(); ++a) {
      const AttrType& type = cls.def().attribute(a).type;
      const auto* cplx = std::get_if<ComplexType>(&type);
      if (only != nullptr && cplx == nullptr && only->count(a) == 0) continue;
      const bool union_merge = policy == MergePolicy::UnionSets &&
                               cplx != nullptr && cplx->multi_valued;
      open(a, union_merge);
    }
  }

  void run() {
    for (const Source& source : sources_) fill(source);
  }

 private:
  static constexpr std::uint32_t kUnplaced = UINT32_MAX;
  using Column = MaterializedExtent::Column;
  using ColKind = ColumnarExtent::ColKind;

  /// One constituent feeding the class: its database, its index among the
  /// class's constituents, and its local extent.
  struct Source {
    const ComponentDatabase* database;
    std::size_t constituent;
    const Extent* extent;
  };

  /// The local attribute implementing global attribute `a` at `source`.
  std::optional<std::size_t> local_index(const Source& source,
                                         std::size_t a) const {
    const auto& name = extent_.cls().local_attr(source.constituent, a);
    if (!name) return std::nullopt;
    const auto index = source.extent->cls().find_attribute(*name);
    ensures(index.has_value(), "bound local attribute must exist");
    return index;
  }

  /// Projects attribute `a`: its kind is what every source's mirror holds,
  /// strings and union-merged sets cell by cell.
  void open(std::size_t a, bool union_merge) {
    Column& col = extent_.columns_[a];
    col.projected = true;
    if (union_merge) col.kind = ColKind::Other;
    for (const Source& source : sources_)
      if (const auto index = local_index(source, a))
        col.kind =
            join(col.kind, source.extent->columnar().column(*index).kind);
    if (col.kind == ColKind::String) col.kind = ColKind::Other;
    union_merge_.push_back(union_merge);
    const std::size_t n = extent_.size();
    col.valid.assign((n + 63) / 64, 0);
    switch (col.kind) {
      case ColKind::Num:
        col.nums.assign(n, 0.0);
        col.is_int.assign((n + 63) / 64, 0);
        col.ints.assign(n, 0);
        break;
      case ColKind::Bool:
        col.bools.assign(n, 0);
        break;
      case ColKind::Ref:
        col.refs.assign(n, GOid{});
        break;
      case ColKind::Other:
        col.values.assign(n, Value::null());
        break;
      case ColKind::String:
      case ColKind::AllNull:
        break;
    }
  }

  /// Places every object of `source` at its entity's position, charges it
  /// as the outerjoin's fetch and GOid probe, and fills the empty cells.
  void fill(const Source& source) {
    const std::vector<Object>& objects = source.extent->objects();
    std::vector<std::uint32_t> positions(objects.size(), kUnplaced);
    std::uint64_t placed = 0;
    for (std::size_t r = 0; r < objects.size(); ++r) {
      const std::optional<GOid> entity = goids_.goid_of(objects[r].id());
      if (!entity) continue;  // unmapped: no entity to describe
      const std::optional<std::size_t> pos = extent_.position(*entity);
      if (!pos) continue;  // an entity of another class
      positions[r] = static_cast<std::uint32_t>(*pos);
      ++placed;
    }
    if (meter_ != nullptr) {
      meter_->objects_fetched += placed;
      meter_->prim_slots += placed * source.extent->prim_slots();
      meter_->ref_slots += placed * source.extent->ref_slots();
      meter_->comparisons += placed;  // outerjoin GOid probe
    }
    std::size_t opened = 0;
    for (std::size_t a = 0; a < extent_.columns_.size(); ++a) {
      Column& col = extent_.columns_[a];
      if (!col.projected) continue;
      const bool union_merge = union_merge_[opened++];
      const auto index = local_index(source, a);
      if (!index) continue;
      const ColumnarExtent::Column& from =
          source.extent->columnar().column(*index);
      if (from.kind == ColKind::AllNull) continue;
      const auto* prim =
          std::get_if<PrimType>(&source.extent->cls().attribute(*index).type);
      const bool local_int = prim != nullptr && *prim == PrimType::Int;
      for (std::size_t r = 0; r < objects.size(); ++r) {
        const std::uint32_t p = positions[r];
        if (p == kUnplaced || !from.is_valid(r)) continue;
        if (col.kind == ColKind::Other) {
          merge(col.values[p], objects[r].value(*index), union_merge);
          continue;
        }
        if (col.is_valid(p)) continue;  // first non-null wins
        switch (col.kind) {
          case ColKind::Num: {
            // The mirror's double is exact for an Int below 2^53; anything
            // else is read from the row.
            const double d = from.nums[r];
            if (local_int && std::fabs(d) < 0x1p53) {
              put_int(col, p, static_cast<std::int64_t>(d));
            } else if (const Value& v = objects[r].value(*index);
                       v.kind() == ValueKind::Int) {
              put_int(col, p, v.as_int());
            } else {
              col.nums[p] = d;
            }
            break;
          }
          case ColKind::Bool:
            col.bools[p] = from.bools[r];
            break;
          case ColKind::Ref: {
            // The mirror holds a target in another database as 0.
            const LOid target =
                from.refs[r] != 0
                    ? LOid{source.database->db(), from.refs[r]}
                    : objects[r].value(*index).as_local_ref();
            const std::optional<GOid> to = goids_.goid_of(target, meter_);
            if (!to) continue;  // unmapped: globalize yields null
            col.refs[p] = *to;
            break;
          }
          case ColKind::String:
          case ColKind::AllNull:
          case ColKind::Other:
            break;
        }
        set_bit(col.valid, p);
      }
    }
  }

  static void put_int(Column& col, std::size_t p, std::int64_t v) {
    col.ints[p] = v;
    col.nums[p] = static_cast<double>(v);
    set_bit(col.is_int, p);
  }

  /// Merges a non-null local value into an Other cell: first non-null wins,
  /// or, for union-merged sets, the sorted union of every isomer's set.
  void merge(Value& cell, const Value& raw, bool union_merge) const {
    if (!union_merge && !cell.is_null()) return;
    Value global_value = view_value(goids_, raw, meter_);
    if (union_merge && !cell.is_null() && !global_value.is_null()) {
      GlobalRefSet combined{cell.as_global_ref_set()};
      for (const GOid target : global_value.as_global_ref_set())
        if (std::find(combined.targets.begin(), combined.targets.end(),
                      target) == combined.targets.end())
          combined.targets.push_back(target);
      std::sort(combined.targets.begin(), combined.targets.end());
      cell = Value(std::move(combined));
      return;
    }
    if (union_merge && global_value.kind() == ValueKind::GlobalRefSet) {
      GlobalRefSet sorted{global_value.as_global_ref_set()};
      std::sort(sorted.targets.begin(), sorted.targets.end());
      global_value = Value(std::move(sorted));
    }
    cell = std::move(global_value);
  }

  MaterializedExtent& extent_;
  const GoidTable& goids_;
  AccessMeter* meter_;
  std::vector<Source> sources_;
  std::vector<bool> union_merge_;  ///< per projected attribute
};

MaterializedView materialize(const Federation& federation,
                             const std::vector<std::string>& classes,
                             AccessMeter* meter, MergePolicy policy,
                             const std::set<DbId>* exclude,
                             const AttributeProjection* project) {
  MaterializedView view;
  for (const std::string& class_name : classes) {
    const GlobalClass& cls = federation.schema().cls(class_name);
    static const std::set<std::size_t> kNone;
    const std::set<std::size_t>* only = nullptr;
    if (project != nullptr) {
      const auto it = project->find(class_name);
      only = it != project->end() ? &it->second : &kNone;
    }
    Outerjoin(view.add_extent(cls, federation.goids()), federation, meter,
              policy, exclude, only)
        .run();
  }
  return view;
}

namespace {

/// An entity of a materialized extent: the navigator's object over the view.
struct ViewRow {
  GOid id;
  std::size_t pos = 0;
};

/// A global path bound to a materialized view for one evaluate_global call,
/// and the navigator's storage policy over the view: every attribute is
/// present (the outerjoin holds a missing one as null), a cell is read as
/// a Value, references are GOids looked up in the step's domain extent, and
/// every successful descent charges one fetched object.
struct ViewPath {
  using Object = ViewRow;
  using Id = GOid;
  static GOid id_of(const Object& row) noexcept { return row.id; }

  struct Step {
    std::size_t attr = 0;
    const MaterializedExtent* at = nullptr;    ///< the extent read here
    const MaterializedExtent* next = nullptr;  ///< navigating steps only
  };
  const PathExpr* expr = nullptr;
  std::vector<Step> steps;
  AccessMeter* meter = nullptr;
  /// One cell per step: a step's value stays put while the walk descends.
  mutable std::vector<Value> cells;

  [[nodiscard]] std::size_t length() const noexcept { return steps.size(); }
  [[nodiscard]] const Value* read(const Object& row, std::size_t step) const {
    return &steps[step].at->read(row.pos, steps[step].attr, cells[step]);
  }
  [[nodiscard]] std::span<const GOid> members(const Value& ref,
                                              std::size_t step) const {
    if (const auto* one = std::get_if<GlobalRef>(&ref.storage()))
      return {&one->target, 1};
    if (const auto* set = std::get_if<GlobalRefSet>(&ref.storage()))
      return set->targets;
    throw QueryError("materialized path step " + expr->step(step) +
                     " is not a reference");
  }
  [[nodiscard]] std::optional<ViewRow> follow(GOid target,
                                              std::size_t step) const {
    const std::optional<std::size_t> pos = steps[step].next->position(target);
    if (!pos) return std::nullopt;
    if (meter != nullptr) ++meter->objects_fetched;
    return ViewRow{target, *pos};
  }
  /// What globalize yields for the source value: a set without its
  /// dangling members, null when none is left.
  [[nodiscard]] Value target(const Value& terminal) const {
    const auto* set = std::get_if<GlobalRefSet>(&terminal.storage());
    if (set == nullptr) return terminal;
    GlobalRefSet mapped;
    for (const GOid member : set->targets)
      if (member != GOid{}) mapped.targets.push_back(member);
    return mapped.targets.empty() ? Value::null() : Value(std::move(mapped));
  }
};

/// Throws FederationError (from MaterializedView::extent) when the view
/// lacks the domain extent of a navigating step — at binding, before any
/// object is read, whether or not an object would navigate there.
ViewPath bind_path(const MaterializedView& view, const GlobalSchema& schema,
                   const GlobalQuery& query, const PathExpr& expr,
                   AccessMeter* meter) {
  const std::vector<GlobalStep> steps =
      schema.resolve_steps(query.range_class, expr);
  ViewPath path{&expr, {}, meter, std::vector<Value>(steps.size())};
  path.steps.reserve(steps.size());
  for (std::size_t step = 0; step < steps.size(); ++step) {
    ViewPath::Step bound{steps[step].attr,
                         step == 0 ? &view.extent(steps[0].cls->name())
                                   : path.steps[step - 1].next};
    if (step + 1 < steps.size())
      bound.next = &view.extent(steps[step + 1].cls->name());
    path.steps.push_back(bound);
  }
  return path;
}

/// The reaches' storage policy over the view: single-reference columns hold
/// target GOids, found at their position in the step's domain extent (a
/// target of another class dangles); holders are entities.
struct ViewReach {
  using Extent = MaterializedExtent;
  using Holder = GOid;
  using Reach = PathReach<Extent, Holder>;
  struct Link {
    const MaterializedExtent::Column* col;
    const MaterializedExtent* to;
  };

  const std::vector<ViewPath>* paths;
  AccessMeter* meter;

  [[nodiscard]] const Extent* extent(std::size_t p, std::size_t step) const {
    return (*paths)[p].steps[step].at;
  }
  [[nodiscard]] std::optional<Link> link(const Reach&, std::size_t p,
                                         std::size_t step) const {
    const ViewPath::Step& bound = (*paths)[p].steps[step];
    const MaterializedExtent::Column& col = bound.at->column(bound.attr);
    if (col.kind != ColumnarExtent::ColKind::AllNull &&
        col.kind != ColumnarExtent::ColKind::Ref)
      return std::nullopt;  // reference sets: the row walk's OR
    return Link{&col, bound.next};
  }
  [[nodiscard]] PathHop<Extent, Holder> hop(const Link& link,
                                            std::uint32_t row) const {
    if (link.col->kind != ColumnarExtent::ColKind::Ref ||
        !link.col->is_valid(row))
      return {};
    const GOid target = link.col->refs[row];
    const std::optional<std::size_t> pos = link.to->position(target);
    if (!pos) return {};
    return {link.to, static_cast<std::uint32_t>(*pos), target};
  }
  /// Every attribute is present in the view (the outerjoin holds a missing
  /// one as null), so every arrival compares.
  [[nodiscard]] std::optional<ColumnarExtent::Column> column(
      const Reach&, std::size_t p, std::size_t step) const {
    const ViewPath::Step& bound = (*paths)[p].steps[step];
    return bound.at->column(bound.attr).kernel();
  }
  /// Every descent charges one fetched object, for every predicate.
  bool charge(const Reach& reach) const {
    meter->objects_fetched += reach.live.size();
    return false;
  }
};

}  // namespace

QueryResult evaluate_global(const MaterializedView& view,
                            const GlobalSchema& schema,
                            const GlobalQuery& query, AccessMeter* meter) {
  // Binding resolves every path up front, so malformed queries fail loudly.
  std::vector<ViewPath> predicates, targets;
  predicates.reserve(query.predicates.size());
  for (const Predicate& pred : query.predicates)
    predicates.push_back(bind_path(view, schema, query, pred.path, meter));
  targets.reserve(query.targets.size());
  for (const PathExpr& target : query.targets)
    targets.push_back(bind_path(view, schema, query, target, meter));

  const MaterializedExtent& extent =
      view.extent(schema.cls(query.range_class).name());
  const std::size_t n = extent.size();
  const std::size_t n_preds = query.predicates.size();

  // Every predicate for every entity at once: bottom-up where the reaches
  // mirror its path (query/reach.hpp), the walk per entity elsewhere.
  Reaches<ViewReach> reaches(
      ViewReach{&predicates, meter}, extent, 0, every_index(n),
      std::vector<GOid>(extent.entities().begin(), extent.entities().end()));
  const std::vector<std::vector<NavOutcome<GOid>>> outcomes =
      reaches.evaluate(query.predicates, every_index(n_preds),
                       [&](std::size_t p, std::size_t r) {
                         return navigate_predicate(
                             predicates[p], query.predicates[p],
                             ViewRow{extent.entities()[r], r}, 0);
                       });

  // Scratch reused across entities.
  std::vector<Truth> truths(n_preds);
  Condition::Builder builder;
  std::vector<Condition::Builder::Id> per_pred;
  per_pred.reserve(n_preds);

  QueryResult result;
  for (std::size_t r = 0; r < n; ++r) {
    const ViewRow obj{extent.entities()[r], r};
    for (std::size_t p = 0; p < n_preds; ++p) truths[p] = outcomes[p][r].truth;
    const Truth truth = query.combine(truths);
    if (is_false(truth)) continue;

    ResultRow row;
    row.entity = obj.id;
    row.status =
        is_true(truth) ? ResultStatus::Certain : ResultStatus::Maybe;
    // The centralized approach saw all the data at once, so a maybe row's
    // residual is one leaf per Unknown predicate: the materialized stall
    // site. (Syntactically simpler than, but truth-equivalent to, the pool
    // the localized approaches build from per-database rows — conditions
    // are deliberately outside ResultRow equality for this reason.)
    if (row.status == ResultStatus::Maybe) {
      builder.clear();
      per_pred.clear();
      for (std::size_t p = 0; p < n_preds; ++p) {
        if (is_unknown(truths[p])) {
          const NavOutcome<GOid>& s = outcomes[p][r];
          per_pred.push_back(builder.leaf(CondAtom{
              s.holder, p, s.step, s.step == 0 && s.holder == obj.id}));
        } else {
          per_pred.push_back(Condition::Builder::constant(truths[p]));
        }
      }
      row.condition = builder.take(builder.combine(query, per_pred));
    }
    row.targets.reserve(query.targets.size());
    for (const ViewPath& target : targets)
      row.targets.push_back(navigate_target(target, obj));
    result.rows.push_back(std::move(row));
  }
  result.normalize();
  return result;
}

}  // namespace isomer
