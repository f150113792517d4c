#include "isomer/serve/serve_spec.hpp"

#include <cmath>

#include "isomer/common/error.hpp"
#include "isomer/common/spec.hpp"

namespace isomer::serve {

namespace {

constexpr spec::Named<ArrivalMode> kArrivalModes[] = {
    {"open", ArrivalMode::Open}, {"closed", ArrivalMode::Closed}};
constexpr spec::Named<SchedPolicy> kPolicies[] = {
    {"fifo", SchedPolicy::Fifo},
    {"spc", SchedPolicy::Spc},
    {"wfq", SchedPolicy::Wfq},
    {"edf", SchedPolicy::Edf}};

bool valid_tenant_id(std::string_view id) {
  if (id.empty()) return false;
  for (const char c : id)
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
          (c >= '0' && c <= '9') || c == '_' || c == '-'))
      return false;
  return true;
}

/// Parses one '/'-separated 'tenant:ID,key=value,...' clause.
TenantSpec parse_tenant_clause(const spec::Reader& in, std::string_view clause,
                               ArrivalMode mode) {
  constexpr std::string_view kPrefix = "tenant:";
  if (!clause.starts_with(kPrefix))
    in.fail("expected a 'tenant:' clause, got '" + std::string(clause) + "'");
  const std::string_view body = clause.substr(kPrefix.size());
  const std::size_t comma = body.find(',');
  TenantSpec tenant;
  tenant.id = std::string(body.substr(0, comma));
  if (!valid_tenant_id(tenant.id))
    in.fail("tenant id must be non-empty [A-Za-z0-9_-]+, got '" + tenant.id +
            "'");
  if (comma == std::string_view::npos) return tenant;

  for (const auto& [key, value] : in.items(body.substr(comma + 1))) {
    if (key == "weight") {
      tenant.weight = in.real(key, value, spec::kPositive);
    } else if (key == "quota") {
      tenant.quota = in.uint<std::size_t>(key, value);
    } else if (key == "slo") {
      // A zero SLO can never be met.
      tenant.slo_ns = in.duration(key, value, 1);
    } else if (key == "rate") {
      if (mode != ArrivalMode::Open)
        in.fail("a tenant 'rate' only applies to open-loop arrivals");
      tenant.rate_qps = in.real(key, value, spec::kPositive);
    } else {
      in.fail("unknown tenant key '" + std::string(key) + "'");
    }
  }
  return tenant;
}

}  // namespace

std::string_view to_string(ArrivalMode mode) noexcept {
  return spec::name_of(kArrivalModes, mode);
}

std::string_view to_string(SchedPolicy policy) noexcept {
  return spec::name_of(kPolicies, policy);
}

ServeSpec parse_serve_spec(std::string_view text) {
  const spec::Reader in("--serve spec", text, spec::raise<ServeError>);
  // Tenant clauses are '/'-separated so the main clause's comma grammar
  // stays untouched (and the separator survives CMake argument lists,
  // where ';' would split).
  const std::vector<std::string_view> clauses = in.split(text, '/', "clause");
  const std::string_view main_clause = clauses.front();
  const std::size_t colon = main_clause.find(':');
  ServeSpec out;
  out.mode = in.choice("mode", main_clause.substr(0, colon), kArrivalModes);

  // Keys of the *other* arrival mode are hard errors, not silently ignored
  // settings: "closed:rate=50" means the author thinks they are configuring
  // an offered rate, and a closed loop has none.
  const auto require = [&](ArrivalMode mode, std::string_view key) {
    if (out.mode != mode)
      in.fail("'" + std::string(key) + "' only applies to " +
              std::string(to_string(mode)) + "-loop arrivals");
  };
  if (colon != std::string_view::npos)
    for (const auto& [key, value] : in.items(main_clause.substr(colon + 1))) {
      if (key == "rate") {
        require(ArrivalMode::Open, key);
        out.rate_qps = in.real(key, value, spec::kPositive);
      } else if (key == "clients") {
        require(ArrivalMode::Closed, key);
        out.clients = in.uint<std::size_t>(key, value, 1);
      } else if (key == "think") {
        require(ArrivalMode::Closed, key);
        out.think_ns = in.duration(key, value);
      } else if (key == "n") {
        out.n_queries = in.uint<std::size_t>(key, value, 1);
      } else if (key == "policy") {
        out.policy = in.choice(key, value, kPolicies);
      } else if (key == "queue") {
        out.queue_limit = in.uint<std::size_t>(key, value);
      } else if (key == "inflight") {
        out.site_inflight = in.uint<std::size_t>(key, value);
      } else if (key == "autoscale") {
        out.autoscale = in.choice(key, value, spec::kOnOff);
      } else if (key == "seed") {
        out.seed = in.uint<std::uint64_t>(key, value);
      } else {
        in.fail("unknown key '" + std::string(key) + "'");
      }
    }

  for (std::size_t c = 1; c < clauses.size(); ++c) {
    TenantSpec tenant = parse_tenant_clause(in, clauses[c], out.mode);
    for (const TenantSpec& existing : out.tenants)
      if (existing.id == tenant.id)
        in.fail("duplicate tenant id '" + tenant.id + "'");
    out.tenants.push_back(std::move(tenant));
  }

  if (out.autoscale && out.site_inflight == 0)
    in.fail("autoscale needs a per-site in-flight cap (inflight > 0)");
  return out;
}

std::string to_string(const ServeSpec& spec) {
  std::string out(to_string(spec.mode));
  out += ":";
  if (spec.mode == ArrivalMode::Open) {
    out += "rate=" + spec::real_string(spec.rate_qps);
  } else {
    out += "clients=" + std::to_string(spec.clients);
    out += ",think=" + spec::duration_string(spec.think_ns);
  }
  out += ",n=" + std::to_string(spec.n_queries);
  out += ",policy=" + std::string(to_string(spec.policy));
  out += ",queue=" + std::to_string(spec.queue_limit);
  out += ",inflight=" + std::to_string(spec.site_inflight);
  // Only printed when on, so pre-tenant specs re-print byte-identically.
  if (spec.autoscale) out += ",autoscale=on";
  out += ",seed=" + std::to_string(spec.seed);
  for (const TenantSpec& tenant : spec.tenants) {
    out += "/tenant:" + tenant.id;
    out += ",weight=" + spec::real_string(tenant.weight);
    out += ",quota=" + std::to_string(tenant.quota);
    if (tenant.slo_ns > 0)
      out += ",slo=" + spec::duration_string(tenant.slo_ns);
    if (spec.mode == ArrivalMode::Open && tenant.rate_qps > 0)
      out += ",rate=" + spec::real_string(tenant.rate_qps);
  }
  return out;
}

void validate_serve_spec(const ServeSpec& spec) {
  const auto reject = [](const std::string& why) {
    throw ServeError("invalid ServeSpec: " + why);
  };
  if (spec.n_queries == 0) reject("need at least one query");
  if (spec.mode == ArrivalMode::Open &&
      (!std::isfinite(spec.rate_qps) || spec.rate_qps <= 0))
    reject("open-loop rate must be a positive finite rate");
  if (spec.mode == ArrivalMode::Closed && spec.clients == 0)
    reject("need at least one client");
  if (spec.think_ns < 0) reject("think time cannot be negative");
  if (spec.autoscale && spec.site_inflight == 0)
    reject("autoscale needs a per-site in-flight cap (inflight > 0)");
  for (std::size_t t = 0; t < spec.tenants.size(); ++t) {
    const TenantSpec& tenant = spec.tenants[t];
    if (!valid_tenant_id(tenant.id))
      reject("tenant id must be non-empty [A-Za-z0-9_-]+");
    for (std::size_t u = t + 1; u < spec.tenants.size(); ++u)
      if (spec.tenants[u].id == tenant.id)
        reject("duplicate tenant id '" + tenant.id + "'");
    if (!std::isfinite(tenant.weight) || tenant.weight <= 0)
      reject("tenant '" + tenant.id + "' weight must be positive and finite");
    if (!std::isfinite(tenant.rate_qps) || tenant.rate_qps < 0)
      reject("tenant '" + tenant.id + "' rate must be finite");
    if (tenant.slo_ns < 0)
      reject("tenant '" + tenant.id + "' SLO cannot be negative");
  }
}

}  // namespace isomer::serve
