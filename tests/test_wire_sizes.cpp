// The executors' message sizing (exec_common): row messages, check
// requests/responses, and the centralized approach's projected extents.
#include <gtest/gtest.h>

#include "isomer/core/exec_common.hpp"
#include "isomer/workload/paper_example.hpp"

namespace isomer {
namespace {

TEST(WireSizes, EmptyRowsCostNothing) {
  EXPECT_EQ(detail::rows_wire_bytes(CostParams{}, {}), 0u);
}

TEST(WireSizes, RowCarriesIdsTargetsAndUnknowns) {
  const CostParams costs;
  LocalRow row;
  row.root = LOid{DbId{1}, 1};
  row.entity = GOid{1};
  row.targets = {Value("Tony"), Value::null(), Value(GlobalRef{GOid{2}}),
                 Value(GlobalRefSet{{GOid{3}, GOid{4}}})};
  row.preds = {
      PredStatus{Truth::True, GOid{}, 0, false},
      PredStatus{Truth::Unknown, GOid{9}, 1, false},
  };
  // LOid+GOid header, one string target (S_a), null free, one GOid ref,
  // a two-element GOid set, and one unknown predicate (GOid + 8).
  const Bytes expected = (16 + 16) + 32 + 0 + 16 + 2 * 16 + (16 + 8);
  EXPECT_EQ(detail::rows_wire_bytes(costs, {row}), expected);
}

TEST(WireSizes, RowBytesScaleLinearly) {
  const CostParams costs;
  LocalRow row;
  row.targets = {Value(1)};
  row.preds = {PredStatus{Truth::True, GOid{}, 0, false}};
  const Bytes one = detail::rows_wire_bytes(costs, {row});
  EXPECT_EQ(detail::rows_wire_bytes(costs, {row, row, row}), 3 * one);
}

TEST(WireSizes, CheckMessages) {
  const CostParams costs;
  // Header + per-task LOid + GOid + predicate (2 attrs).
  EXPECT_EQ(detail::check_request_wire_bytes(costs, 0), costs.attr_bytes);
  EXPECT_EQ(detail::check_request_wire_bytes(costs, 3),
            costs.attr_bytes + 3 * (16 + 16 + 64));
  EXPECT_EQ(detail::check_response_wire_bytes(costs, 2),
            costs.attr_bytes + 2 * (16 + 8));
}

/// Deliberately skewed layout: every id width differs, so a calculator
/// charging the wrong constant cannot cancel out the way it does at the
/// defaults (where loid == goid == 16).
CostParams skewed_costs() {
  CostParams costs;
  costs.loid_bytes = 8;
  costs.goid_bytes = 24;
  costs.attr_bytes = 40;
  return costs;
}

TEST(WireSizes, RowLayoutDerivesFromCostParams) {
  const CostParams costs = skewed_costs();
  LocalRow row;
  row.root = LOid{DbId{1}, 1};
  row.entity = GOid{1};
  row.targets = {Value("Tony"), Value(LocalRef{LOid{DbId{1}, 7}}),
                 Value(LocalRefSet{{LOid{DbId{1}, 2}, LOid{DbId{1}, 3},
                                    LOid{DbId{1}, 4}}}),
                 Value(GlobalRefSet{{GOid{5}}})};
  row.preds = {PredStatus{Truth::Unknown, GOid{9}, 1, false}};
  const Bytes expected = costs.loid_bytes + costs.goid_bytes  // row ids
                         + costs.attr_bytes                   // string target
                         + costs.goid_bytes          // globalized LocalRef
                         + 3 * costs.goid_bytes      // globalized LocalRefSet
                         + 1 * costs.goid_bytes      // GlobalRefSet
                         + (costs.goid_bytes + 8);   // unknown predicate
  EXPECT_EQ(detail::rows_wire_bytes(costs, {row}), expected);
}

TEST(WireSizes, LocalRefSetsAreGlobalizedOnTheWire) {
  // Regression: the calculator once charged loid_bytes per set element while
  // the executors ship GOids after mapping (Fig. 6 globalization) — a
  // disagreement invisible at the defaults where the two widths coincide.
  CostParams costs;
  costs.loid_bytes = 4;
  costs.goid_bytes = 32;
  LocalRow row;
  row.targets = {Value(LocalRefSet{{LOid{DbId{1}, 1}, LOid{DbId{1}, 2}}})};
  EXPECT_EQ(detail::rows_wire_bytes(costs, {row}),
            costs.loid_bytes + costs.goid_bytes + 2 * costs.goid_bytes);
}

TEST(WireSizes, CheckMessageLayoutDerivesFromCostParams) {
  const CostParams costs = skewed_costs();
  EXPECT_EQ(costs.check_task_bytes(),
            costs.loid_bytes + costs.goid_bytes + 2 * costs.attr_bytes);
  EXPECT_EQ(costs.verdict_bytes(), costs.goid_bytes + 8);
  EXPECT_EQ(detail::check_request_wire_bytes(costs, 5),
            costs.attr_bytes + 5 * costs.check_task_bytes());
  EXPECT_EQ(detail::check_response_wire_bytes(costs, 5),
            costs.attr_bytes + 5 * costs.verdict_bytes());
}

TEST(WireSizes, SemijoinTasksShipGoidsOnly) {
  const CostParams costs = skewed_costs();
  EXPECT_EQ(costs.semijoin_task_bytes(false), costs.goid_bytes + 8);
  EXPECT_EQ(costs.semijoin_task_bytes(true), 2 * costs.goid_bytes + 8);
  const std::vector<CheckTask> tasks = {
      // Direct task: origin == item.
      CheckTask{GOid{1}, LOid{DbId{2}, 3}, 0, 1, GOid{1}},
      // Cascaded follow-up: the origin GOid rides along.
      CheckTask{GOid{5}, LOid{DbId{2}, 4}, 1, 2, GOid{2}},
  };
  EXPECT_EQ(
      detail::semijoin_check_request_bytes(costs, tasks),
      costs.semijoin_task_bytes(false) + costs.semijoin_task_bytes(true));
}

TEST(WireSizes, BatchedCheckRequestsNeverExceedUnbatched) {
  // One frame header replaces the per-message header, and each task shrinks
  // from check_task_bytes to the GOid semijoin — so for any task count the
  // batched request is no larger at the Table-1 defaults.
  const CostParams costs;
  std::vector<CheckTask> tasks;
  for (std::size_t n = 1; n <= 8; ++n) {
    tasks.push_back(CheckTask{GOid{n}, LOid{DbId{2}, static_cast<std::uint32_t>(n)},
                              0, 1, GOid{n}});
    EXPECT_LE(kBatchHeaderBytes +
                  detail::semijoin_check_request_bytes(costs, tasks),
              detail::check_request_wire_bytes(costs, tasks.size()));
  }
}

TEST(WireSizes, InvolvedAttributesFollowQueryPaths) {
  const paper::UniversityExample example = paper::make_university();
  const auto involved =
      involved_attributes(example.federation->schema(), paper::q1());
  // Student: name (target), advisor (nav), address (nav) => 3 attributes.
  ASSERT_TRUE(involved.count("Student"));
  EXPECT_EQ(involved.at("Student").size(), 3u);
  // Teacher: name (target), speciality (pred), department (nav).
  EXPECT_EQ(involved.at("Teacher").size(), 3u);
  // Address: city; Department: name.
  EXPECT_EQ(involved.at("Address").size(), 1u);
  EXPECT_EQ(involved.at("Department").size(), 1u);
}

TEST(WireSizes, CaProjectionSkipsMissingAttributes) {
  const paper::UniversityExample example = paper::make_university();
  const CostParams costs;
  const auto involved =
      involved_attributes(example.federation->schema(), paper::q1());
  // DB3 ships Teacher (name prim + department ref, speciality missing) and
  // Department (name prim); per object: LOid + attrs.
  const Bytes teacher_obj = 16 + 32 + 16;     // loid + name + department ref
  const Bytes department_obj = 16 + 32;       // loid + name
  const Bytes expected = 2 * teacher_obj + 3 * department_obj;
  EXPECT_EQ(detail::ca_projected_bytes(*example.federation, DbId{3}, involved,
                                       costs),
            expected);
}

TEST(WireSizes, CaProjectionOmitsUninvolvedDatabases) {
  const paper::UniversityExample example = paper::make_university();
  const CostParams costs;
  GlobalQuery narrow;
  narrow.range_class = "Address";
  narrow.select("city");
  const auto involved =
      involved_attributes(example.federation->schema(), narrow);
  EXPECT_EQ(detail::ca_projected_bytes(*example.federation, DbId{1}, involved,
                                       costs),
            0u)
      << "DB1 holds no Address constituent";
  EXPECT_GT(detail::ca_projected_bytes(*example.federation, DbId{2}, involved,
                                       costs),
            0u);
}

}  // namespace
}  // namespace isomer
