// Graceful degradation semantics (docs/FAULTS.md).
//
// When a component database is unreachable (DegradeMode::Partial), its
// constituents simply drop out of the evidence: the certification rule has
// fewer assistant objects, local results from the dead site never arrive,
// and the answer degrades along Codd's maybe-semantics — a certain result
// that depended on the dead site's evidence demotes to maybe, and rows
// whose certainty was *affected* by the outage are tagged `unavailable`.
//
// The tagging rule is shared by every executor (the same function, the same
// inputs), which is what makes CA, BL and PL return identical
// (certain, maybe, unavailable) partitions under the same set of dead
// sites — the fault-tolerant extension of the paper's strategy-equivalence
// theorem, enforced by tests/test_fault_equivalence.cpp. A non-certain row
// is tagged when
//   (a) an unreachable database holds an isomeric root object of the row's
//       entity (its local evaluation — row evidence — is missing), or
//   (b) walking a predicate path over the live data stops at a null whose
//       holder has an isomeric object in an unreachable database that
//       defines the attribute at that step (check evidence is missing).
// Certain rows are never tagged: on a consistent federation, certainty
// established from live data alone is exact.
#pragma once

#include <set>

#include "isomer/federation/federation.hpp"
#include "isomer/federation/materializer.hpp"
#include "isomer/query/query.hpp"
#include "isomer/query/result.hpp"

namespace isomer::fault {

/// Tags the result rows whose certainty was affected by the unreachable
/// databases (rules (a) and (b) above). `live_view` is the federation
/// materialized *excluding* `unavailable`, holding at least the query's
/// involved attributes (the rule reads its predicate paths); pass null to
/// have one built internally (the centralized executor reuses the view it
/// already has).
/// No-op when `unavailable` is empty. Returns the number of rows tagged.
std::size_t tag_unavailable(QueryResult& result, const Federation& federation,
                            const GlobalQuery& query,
                            const std::set<DbId>& unavailable,
                            const MaterializedView* live_view = nullptr);

/// The degraded oracle: the answer every strategy must return under
/// DegradeMode::Partial when exactly `unavailable` is dead — evaluate the
/// query on the live-only materialized view, then tag. The fault-equivalence
/// property test compares all three executors against this.
[[nodiscard]] QueryResult degraded_reference(const Federation& federation,
                                             const GlobalQuery& query,
                                             const std::set<DbId>& unavailable);

}  // namespace isomer::fault
