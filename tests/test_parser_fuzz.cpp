// Fuzzing for the four text frontends: the SQL/X-subset query parser
// (query/parser.hpp), the --faults specification parser
// (fault/fault_plan.hpp), the --serve specification parser
// (serve/serve_spec.hpp), and the --impute specification parser
// (analytic/impute.hpp).
//
// Three properties, each over hundreds of deterministic random inputs:
//   * printer -> parser round-trip: any AST the generator can build prints
//     to text that parses back to the identical AST;
//   * mutation robustness: randomly corrupted versions of valid inputs
//     either parse or raise the documented error type — never crash, never
//     leak a foreign exception;
//   * garbage robustness: arbitrary printable strings do the same.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "isomer/analytic/impute.hpp"
#include "isomer/common/error.hpp"
#include "isomer/common/rng.hpp"
#include "isomer/fault/fault_plan.hpp"
#include "isomer/query/parser.hpp"
#include "isomer/query/printer.hpp"
#include "isomer/serve/serve_spec.hpp"

namespace isomer {
namespace {

// Safe barewords: parse as plain identifiers/strings, never as keywords.
const char* const kClasses[] = {"Student", "Course", "Dept", "Person",
                                "Project"};
const char* const kSteps[] = {"name", "age", "city", "advisor", "dept",
                              "speciality", "address", "code", "grade"};
const char* const kStrings[] = {"Taipei", "database", "CS", "alpha", "Chen"};

PathExpr random_path(Rng& rng) {
  std::vector<std::string> steps;
  const std::size_t len = 1 + rng.index(3);
  for (std::size_t i = 0; i < len; ++i)
    steps.push_back(kSteps[rng.index(std::size(kSteps))]);
  return PathExpr(std::move(steps));
}

Value random_literal(Rng& rng) {
  switch (rng.index(4)) {
    case 0:
      return Value(rng.uniform_int(-100, 100));
    case 1:
      // Whole doubles print as integers and quarters print exactly, so stay
      // off .0 to keep the round-trip lossless *and* type-preserving.
      return Value(static_cast<double>(rng.uniform_int(0, 99)) +
                   (rng.bernoulli(0.5) ? 0.25 : 0.5));
    case 2:
      return Value(kStrings[rng.index(std::size(kStrings))]);
    default:
      return Value(rng.bernoulli(0.5));
  }
}

CompOp random_op(Rng& rng) {
  constexpr CompOp kOps[] = {CompOp::Eq, CompOp::Ne, CompOp::Lt,
                             CompOp::Le, CompOp::Gt, CompOp::Ge};
  return kOps[rng.index(std::size(kOps))];
}

/// Builds a random query within the printable grammar: >= 1 target, 0-3
/// plain conjuncts, optionally one top-level OR of 2-3 conjunction groups.
/// Plain conjuncts are emitted first, matching the printer's predicate
/// order, so parsed predicate indices line up with the generated ones.
GlobalQuery random_query(Rng& rng) {
  GlobalQuery query;
  query.range_class = kClasses[rng.index(std::size(kClasses))];
  const std::size_t n_targets = 1 + rng.index(3);
  for (std::size_t i = 0; i < n_targets; ++i)
    query.targets.push_back(random_path(rng));

  const std::size_t n_plain = rng.index(4);
  for (std::size_t i = 0; i < n_plain; ++i)
    query.predicates.push_back(
        Predicate{random_path(rng), random_op(rng), random_literal(rng)});

  if (rng.bernoulli(0.5)) {
    const std::size_t n_groups = 2 + rng.index(2);
    for (std::size_t g = 0; g < n_groups; ++g) {
      std::vector<std::size_t> group;
      const std::size_t n_members = 1 + rng.index(2);
      for (std::size_t m = 0; m < n_members; ++m) {
        group.push_back(query.predicates.size());
        query.predicates.push_back(
            Predicate{random_path(rng), random_op(rng), random_literal(rng)});
      }
      query.disjuncts.push_back(std::move(group));
    }
  }
  return query;
}

class ParserRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserRoundTrip, PrintedQueriesParseBackIdentically) {
  Rng rng(derive_stream(0x5014ULL, GetParam()));
  const GlobalQuery query = random_query(rng);
  const std::string text = to_sqlx(query);
  GlobalQuery parsed;
  ASSERT_NO_THROW(parsed = parse_sqlx(text)) << text;
  EXPECT_EQ(parsed.range_class, query.range_class) << text;
  EXPECT_EQ(parsed.targets, query.targets) << text;
  EXPECT_EQ(parsed.predicates, query.predicates) << text;
  EXPECT_EQ(parsed.disjuncts, query.disjuncts) << text;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 301));

/// One random in-place corruption of `text`.
std::string mutate(std::string text, Rng& rng) {
  const char kPool[] = " .,()<>=!'\"*@xX7-";
  const auto pool_char = [&] {
    return kPool[rng.index(sizeof(kPool) - 1)];
  };
  if (text.empty()) return std::string(1, pool_char());
  const std::size_t at = rng.index(text.size());
  switch (rng.index(5)) {
    case 0:  // delete
      text.erase(at, 1);
      break;
    case 1:  // insert
      text.insert(at, 1, pool_char());
      break;
    case 2:  // replace
      text[at] = pool_char();
      break;
    case 3:  // truncate
      text.resize(at);
      break;
    default:  // duplicate a slice
      text.insert(at, text.substr(at, 1 + rng.index(8)));
      break;
  }
  return text;
}

class ParserMutation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserMutation, CorruptedQueriesFailCleanlyOrParse) {
  Rng rng(derive_stream(0xF022ULL, GetParam()));
  std::string text = to_sqlx(random_query(rng));
  const std::size_t rounds = 1 + rng.index(4);
  for (std::size_t i = 0; i < rounds; ++i) text = mutate(std::move(text), rng);
  try {
    (void)parse_sqlx(text);  // parsing successfully is fine too
  } catch (const QueryError&) {
    // ParseError (or its QueryError base, e.g. from PathExpr validation) is
    // the documented failure mode.
  }
  // Anything else — std::bad_alloc, ContractViolation, a crash — escapes
  // and fails the test.
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserMutation,
                         ::testing::Range<std::uint64_t>(1, 301));

TEST(ParserGarbage, ArbitraryPrintableStringsNeverCrashTheParser) {
  Rng rng(0xB4D'1112ULL);
  const char kPool[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFXW .,()<>=!'\"*@0123456789-_";
  for (int i = 0; i < 500; ++i) {
    std::string text;
    const std::size_t len = rng.index(60);
    for (std::size_t c = 0; c < len; ++c)
      text += kPool[rng.index(sizeof(kPool) - 1)];
    try {
      (void)parse_sqlx(text);
    } catch (const QueryError&) {
    }
  }
}

TEST(FaultSpecDuplicates, RepeatedScalarKeysAreHardErrors) {
  // Last-one-wins on a repeated key silently discards half the operator's
  // intent (e.g. "drop=0.3,drop=0.05" benchmarking far gentler faults than
  // requested); every scalar key may appear at most once.
  const char* const duplicated[] = {
      "drop=0.1,drop=0.2",
      "spike=0.1:1ms,spike=0.2:2ms",
      "seed=1,down=2,seed=3",
      "retries=4,retries=4",
      "timeout=1ms,drop=0.1,timeout=2ms",
      "backoff=500us,backoff=500us",
      "degrade=partial,degrade=full",
  };
  for (const char* spec : duplicated)
    EXPECT_THROW((void)fault::parse_fault_spec(spec), FaultError) << spec;
}

TEST(FaultSpecDuplicates, DownIsRepeatable) {
  // 'down' is additive, not scalar: each occurrence contributes another
  // outage window, so repeating it must keep parsing.
  const fault::FaultSpec spec =
      fault::parse_fault_spec("down=2,down=3@5ms..20ms,down=2");
  EXPECT_EQ(spec.plan.outages.size(), 3u);
}

TEST(FaultSpecMutation, CorruptedSpecsFailCleanlyOrParse) {
  const std::string valid =
      "drop=0.05,spike=0.1:1ms,down=2,down=3@5ms..20ms,seed=9,retries=4,"
      "timeout=3ms,backoff=500us,degrade=partial";
  Rng rng(0xFA17'F022ULL);
  for (int i = 0; i < 500; ++i) {
    std::string text = valid;
    const std::size_t rounds = 1 + rng.index(4);
    for (std::size_t r = 0; r < rounds; ++r)
      text = mutate(std::move(text), rng);
    try {
      (void)fault::parse_fault_spec(text);
    } catch (const FaultError&) {
      // the documented failure mode for malformed specs
    }
  }
}

TEST(FaultSpecErrors, MalformedSpecsAreHardErrors) {
  const char* const malformed[] = {
      "drop=nan",                     // NaN compares false with everything
      "spike=nan:1ms",
      "drop=inf",
      "timeout=10000000000s",         // overflows 2^63-1 ns
      "backoff=9223372036854775808ns",
      "down=1@10000000000s..",
      "seed=99999999999999999999999", // overflows 64 bits
      "retries=4294967297",           // past int
      "retries=2147483648",
      "down=4294967297",              // past the 16-bit DbId
      "down=65536",
      "retries=-1",
      "down=1@5ms..5ms",              // the window must end after it starts
  };
  for (const char* spec : malformed)
    EXPECT_THROW((void)fault::parse_fault_spec(spec), FaultError) << spec;
}

TEST(FaultSpecErrors, FieldMaximaAreAccepted) {
  const fault::FaultSpec spec = fault::parse_fault_spec(
      "seed=18446744073709551615,retries=2147483647,down=65535,"
      "timeout=9223372036854775807ns,backoff=9223372036s");
  EXPECT_EQ(spec.plan.seed, ~std::uint64_t{0});
  EXPECT_EQ(spec.retry.max_retries, 2147483647);
  EXPECT_EQ(spec.plan.outages.at(0).db, DbId{65535});
  EXPECT_EQ(spec.retry.timeout_ns, fault::kForever);
  EXPECT_EQ(spec.retry.backoff_ns, 9'223'372'036'000'000'000);
}

/// A random FaultSpec over every field: outages with and without a window
/// (open-ended ones included), spikes, retries and both degrade modes.
fault::FaultSpec random_fault_spec(Rng& rng) {
  fault::FaultSpec spec;
  spec.plan.drop_probability =
      rng.bernoulli(0.2) ? 0.0 : rng.uniform_real(0.0, 1.0);
  spec.plan.spike_probability =
      rng.bernoulli(0.2) ? 1.0 : rng.uniform_real(0.0, 1.0);
  spec.plan.spike_ns = rng.uniform_int(0, 5'000'000'000);
  const std::size_t n_outages = rng.index(4);
  for (std::size_t o = 0; o < n_outages; ++o) {
    fault::Outage outage;
    outage.db = DbId{static_cast<DbId::rep_type>(rng.index(65536))};
    if (rng.bernoulli(0.6)) {
      outage.from = rng.uniform_int(0, 1'000'000'000);
      if (rng.bernoulli(0.6))
        outage.until = outage.from + rng.uniform_int(1, 1'000'000'000);
    }
    spec.plan.outages.push_back(outage);
  }
  spec.plan.seed = rng();
  spec.retry.max_retries = static_cast<int>(rng.index(16));
  spec.retry.timeout_ns = rng.uniform_int(1, 50'000'000);
  spec.retry.backoff_ns = rng.uniform_int(0, 50'000'000);
  spec.degrade = rng.bernoulli(0.5) ? fault::DegradeMode::Fail
                                    : fault::DegradeMode::Partial;
  return spec;
}

class FaultSpecRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSpecRoundTrip, PrintedSpecsParseBackIdentically) {
  Rng rng(derive_stream(0xFA17'E014ULL, GetParam()));
  const fault::FaultSpec spec = random_fault_spec(rng);
  const std::string text = fault::to_string(spec);
  fault::FaultSpec parsed;
  ASSERT_NO_THROW(parsed = fault::parse_fault_spec(text)) << text;
  EXPECT_EQ(parsed, spec) << text;
  // The canonical form is a fixed point: printing the parse reproduces it.
  EXPECT_EQ(fault::to_string(parsed), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSpecRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 301));

// ---- serve spec (serve/serve_spec.hpp) ----

/// A random but valid ServeSpec. Fields the spec grammar ties to the other
/// arrival mode are left at their defaults — the parser would reject them,
/// and to_string never prints them — so round-trip equality is exact.
serve::ServeSpec random_serve_spec(Rng& rng) {
  serve::ServeSpec spec;
  if (rng.bernoulli(0.5)) {
    spec.mode = serve::ArrivalMode::Open;
    spec.rate_qps = rng.uniform_real(0.001, 5000.0);
  } else {
    spec.mode = serve::ArrivalMode::Closed;
    spec.clients = 1 + rng.index(64);
    spec.think_ns = static_cast<SimTime>(rng.uniform_int(0, 5'000'000));
  }
  spec.n_queries = 1 + rng.index(10'000);
  constexpr serve::SchedPolicy kPolicies[] = {
      serve::SchedPolicy::Fifo, serve::SchedPolicy::Spc,
      serve::SchedPolicy::Wfq, serve::SchedPolicy::Edf};
  spec.policy = kPolicies[rng.index(std::size(kPolicies))];
  spec.queue_limit = rng.index(256);     // 0 = unbounded
  spec.site_inflight = rng.index(32);    // 0 = uncapped
  // Autoscale requires a finite cap, and to_string only prints it when on.
  if (spec.site_inflight > 0 && rng.bernoulli(0.3)) spec.autoscale = true;
  spec.seed = rng.uniform_int(0, 1 << 20);

  // 0-3 tenant clauses with unique generated ids. Optional fields are left
  // at their non-printed defaults half the time, and a tenant rate only
  // exists under open-loop arrivals (the parser rejects it elsewhere).
  const char* const kTenantIds[] = {"gold", "free", "batch-9", "T_2"};
  const std::size_t n_tenants = rng.index(4);
  for (std::size_t t = 0; t < n_tenants; ++t) {
    serve::TenantSpec tenant;
    tenant.id = kTenantIds[t];
    tenant.weight = 0.25 + static_cast<double>(rng.uniform_int(0, 31)) * 0.25;
    tenant.quota = rng.index(128);  // 0 = unlimited
    if (rng.bernoulli(0.5))
      tenant.slo_ns = static_cast<SimTime>(rng.uniform_int(1, 5'000'000'000));
    if (spec.mode == serve::ArrivalMode::Open && rng.bernoulli(0.5))
      tenant.rate_qps = 0.5 + static_cast<double>(rng.uniform_int(0, 99));
    spec.tenants.push_back(std::move(tenant));
  }
  return spec;
}

class ServeSpecRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ServeSpecRoundTrip, PrintedSpecsParseBackIdentically) {
  Rng rng(derive_stream(0x5E27'E014ULL, GetParam()));
  const serve::ServeSpec spec = random_serve_spec(rng);
  const std::string text = serve::to_string(spec);
  serve::ServeSpec parsed;
  ASSERT_NO_THROW(parsed = serve::parse_serve_spec(text)) << text;
  EXPECT_EQ(parsed, spec) << text;
  // The canonical form is a fixed point: printing the parse reproduces it.
  EXPECT_EQ(serve::to_string(parsed), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ServeSpecRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 301));

TEST(ServeSpecErrors, DuplicateKeysAreHardErrors) {
  // Same policy as --faults: last-one-wins would silently discard half the
  // operator's intent, so every key may appear at most once.
  const char* const duplicated[] = {
      "open:rate=1,rate=2",
      "open:n=5,queue=2,n=6",
      "closed:clients=2,clients=3",
      "closed:think=1ms,think=2ms",
      "open:policy=fifo,policy=spc",
      "open:inflight=2,inflight=2",
      "open:seed=1,seed=1",
      "open:queue=4,rate=9,queue=4",
      "open:autoscale=on,inflight=2,autoscale=on",
      "open:rate=1/tenant:a,weight=2,weight=3",
      "open:rate=1/tenant:a,quota=4,slo=1ms,quota=4",
      "open:rate=1/tenant:a,rate=2,rate=2",
  };
  for (const char* spec : duplicated)
    EXPECT_THROW((void)serve::parse_serve_spec(spec), ServeError) << spec;
}

TEST(ServeSpecErrors, DuplicateTenantIdsAreHardErrors) {
  // Two clauses for one traffic class would silently merge or shadow its
  // quota/weight/SLO; the spec names each tenant exactly once.
  const char* const duplicated[] = {
      "open:rate=1/tenant:a/tenant:a",
      "open:rate=1/tenant:gold,weight=3/tenant:free/tenant:gold,quota=4",
      "closed:clients=2/tenant:t/tenant:t,weight=2",
  };
  for (const char* spec : duplicated)
    EXPECT_THROW((void)serve::parse_serve_spec(spec), ServeError) << spec;
}

TEST(ServeSpecErrors, MalformedTenantClausesAreHardErrors) {
  const char* const malformed[] = {
      "open:rate=1/",                      // empty tenant clause
      "open:rate=1/gold",                  // missing 'tenant:' prefix
      "open:rate=1/tenant:",               // empty tenant id
      "open:rate=1/tenant:bad id",         // space outside the id alphabet
      "open:rate=1/tenant:a,weight=0",     // weight must be positive
      "open:rate=1/tenant:a,weight=-1",    // parse_real rejects negatives
      "open:rate=1/tenant:a,weight=inf",   // non-finite weight
      "open:rate=1/tenant:a,weight=nan",
      "open:rate=1/tenant:a,rate=0",       // tenant rate must be positive
      "open:rate=1/tenant:a,rate=inf",
      "closed:clients=2/tenant:a,rate=5",  // rate is open-loop only
      "open:rate=1/tenant:a,slo=0ms",      // a zero SLO can never be met
      "open:rate=1/tenant:a,slo=5",        // duration needs a unit
      "open:rate=1/tenant:a,bogus=1",      // unknown tenant key
      "open:rate=1/tenant:a,weight",       // missing '='
      "open:rate=inf",                     // non-finite main-clause rate
      "open:rate=nan",
      "open:rate=1,autoscale=bogus",       // autoscale wants on|off
      "open:rate=1,autoscale=on,inflight=0",  // autoscale needs a finite cap
      "open:rate=1/tenant:a,slo=10000000000s",  // overflows 2^63-1 ns
      "open:rate=1/tenant:a,quota=18446744073709551616",
  };
  for (const char* spec : malformed)
    EXPECT_THROW((void)serve::parse_serve_spec(spec), ServeError) << spec;
}

TEST(ServeSpecErrors, KeysOfTheOtherModeAreHardErrors) {
  // rate= describes an open-loop arrival process; clients=/think= describe a
  // closed loop. Accepting one under the other mode would silently ignore
  // it, so the parser rejects the combination outright.
  const char* const mismatched[] = {
      "closed:rate=5",
      "open:clients=2",
      "open:think=1ms",
      "closed:clients=2,rate=0.5",
  };
  for (const char* spec : mismatched)
    EXPECT_THROW((void)serve::parse_serve_spec(spec), ServeError) << spec;
}

TEST(ServeSpecErrors, MalformedSpecsAreHardErrors) {
  const char* const malformed[] = {
      "",             // missing mode
      "open:",        // empty item list
      "poisson",      // unknown mode
      "open:rate=0",  // rate must be positive
      "open:rate=-3",
      "closed:clients=0",  // needs at least one client
      "open:n=0",          // needs at least one submission
      "open:bogus=1",      // unknown key
      "open:rate",         // missing '='
      "closed:think=5",    // duration needs a unit
      "closed:think=5m",   // unknown unit
      "open:policy=lifo",  // unknown policy
      "closed:think=10000000000s",            // overflows 2^63-1 ns
      "open:rate=1,n=18446744073709551617",   // overflows 64 bits
      "open:seed=99999999999999999999999",
  };
  for (const char* spec : malformed)
    EXPECT_THROW((void)serve::parse_serve_spec(spec), ServeError) << spec;
}

TEST(ServeSpecMutation, CorruptedSpecsFailCleanlyOrParse) {
  const std::string corpus[] = {
      "open:rate=120.5,n=64,policy=spc,queue=16,inflight=2,seed=9",
      "closed:clients=8,think=2ms,n=100,policy=fifo,queue=32,inflight=4",
      "open:rate=40,n=64,policy=edf,inflight=2,autoscale=on"
      "/tenant:gold,weight=3,quota=8,slo=250ms,rate=30"
      "/tenant:free,weight=1,quota=4",
      "closed:clients=6,think=0ns,policy=wfq"
      "/tenant:a,weight=2/tenant:b-2,slo=1s",
  };
  Rng rng(0x5E27'F022ULL);
  for (int i = 0; i < 1000; ++i) {
    std::string text = corpus[rng.index(std::size(corpus))];
    const std::size_t rounds = 1 + rng.index(4);
    for (std::size_t r = 0; r < rounds; ++r)
      text = mutate(std::move(text), rng);
    try {
      (void)serve::parse_serve_spec(text);
    } catch (const ServeError&) {
      // the documented failure mode for malformed specs
    }
  }
}

// ---- impute spec (analytic/impute.hpp) ----

/// A random but valid ImputeSpec. Any double in [0, 1] survives the
/// %.17g print exactly, so the threshold is drawn from the full range.
ImputeSpec random_impute_spec(Rng& rng) {
  if (rng.bernoulli(0.2)) return ImputeSpec{};  // canonical "off"
  ImputeSpec spec;
  spec.enabled = true;
  spec.threshold = rng.bernoulli(0.1) ? static_cast<double>(rng.index(2))
                                      : rng.uniform_real(0.0, 1.0);
  spec.mechanism =
      rng.bernoulli(0.5) ? ImputeMechanism::MCAR : ImputeMechanism::MAR;
  return spec;
}

class ImputeSpecRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ImputeSpecRoundTrip, PrintedSpecsParseBackIdentically) {
  Rng rng(derive_stream(0x1217'E014ULL, GetParam()));
  const ImputeSpec spec = random_impute_spec(rng);
  const std::string text = to_string(spec);
  ImputeSpec parsed;
  ASSERT_NO_THROW(parsed = parse_impute_spec(text)) << text;
  EXPECT_EQ(parsed, spec) << text;
  // The canonical form is a fixed point: printing the parse reproduces it.
  EXPECT_EQ(to_string(parsed), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ImputeSpecRoundTrip,
                         ::testing::Range<std::uint64_t>(1, 301));

TEST(ImputeSpecErrors, MalformedSpecsAreHardErrors) {
  const char* const malformed[] = {
      "",                    // empty specification
      "on",                  // unknown bareword ('off' is the only one)
      "thresh",              // missing '='
      "thresh=",             // missing value
      "thresh=1.5",          // above 1
      "thresh=-0.1",         // below 0
      "thresh=nan",          // NaN compares false with everything
      "thresh=inf",
      "thresh=0.5abc",       // trailing junk after the real
      "thresh=0.5,",         // trailing empty item
      ",thresh=0.5",         // leading empty item
      "mech=mcar",           // thresh is required
      "thresh=0.5,mech=bogus",  // unknown mechanism
      "thresh=0.5,mech=",       // empty mechanism
      "thresh=0.5,bogus=1",     // unknown key
      "off,thresh=0.5",         // 'off' must stand alone
      "thresh=0.5,off",
  };
  for (const char* spec : malformed)
    EXPECT_THROW((void)parse_impute_spec(spec), ImputeError) << spec;
}

TEST(ImputeSpecErrors, DuplicateKeysAreHardErrors) {
  // Same policy as --faults and --serve: last-one-wins would silently
  // discard half the operator's intent, so every key appears at most once.
  const char* const duplicated[] = {
      "thresh=0.5,thresh=0.5",
      "thresh=0.4,mech=mcar,mech=mar",
      "thresh=0.1,mech=mar,thresh=0.9",
  };
  for (const char* spec : duplicated)
    EXPECT_THROW((void)parse_impute_spec(spec), ImputeError) << spec;
}

TEST(ImputeSpecMutation, CorruptedSpecsFailCleanlyOrParse) {
  const std::string corpus[] = {
      "off",
      "thresh=0.5",
      "thresh=0.75,mech=mar",
      "thresh=1,mech=mcar",
  };
  Rng rng(0x1217'F022ULL);
  for (int i = 0; i < 500; ++i) {
    std::string text = corpus[rng.index(std::size(corpus))];
    const std::size_t rounds = 1 + rng.index(4);
    for (std::size_t r = 0; r < rounds; ++r)
      text = mutate(std::move(text), rng);
    try {
      (void)parse_impute_spec(text);
    } catch (const ImputeError&) {
      // the documented failure mode for malformed specs
    }
  }
}

TEST(ImputeSpecGarbage, ArbitraryPrintableStringsNeverCrashTheParser) {
  Rng rng(0x1217'1112ULL);
  const char kPool[] = "threshmcarof=,.0123456789einfa -_";
  for (int i = 0; i < 500; ++i) {
    std::string text;
    const std::size_t len = rng.index(40);
    for (std::size_t c = 0; c < len; ++c)
      text += kPool[rng.index(sizeof(kPool) - 1)];
    try {
      (void)parse_impute_spec(text);
    } catch (const ImputeError&) {
    }
  }
}

TEST(ServeSpecGarbage, ArbitraryPrintableStringsNeverCrashTheParser) {
  Rng rng(0x5E27'1112ULL);
  const char kPool[] = "openclosedratethinkqueuftwfqdlsg=,:/0123456789.smnu -_";
  for (int i = 0; i < 500; ++i) {
    std::string text;
    const std::size_t len = rng.index(50);
    for (std::size_t c = 0; c < len; ++c)
      text += kPool[rng.index(sizeof(kPool) - 1)];
    try {
      (void)serve::parse_serve_spec(text);
    } catch (const ServeError&) {
    }
  }
}

}  // namespace
}  // namespace isomer
