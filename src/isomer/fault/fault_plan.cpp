#include "isomer/fault/fault_plan.hpp"

#include "isomer/common/error.hpp"
#include "isomer/common/spec.hpp"

namespace isomer::fault {

namespace {

constexpr spec::Named<DegradeMode> kDegradeModes[] = {
    {"fail", DegradeMode::Fail}, {"partial", DegradeMode::Partial}};

/// Parses a 'down' value: ID['@'FROM'..'[UNTIL]].
Outage read_outage(const spec::Reader& in, std::string_view value) {
  Outage outage;
  std::string_view rest = value;
  outage.db = DbId{in.read_uint<DbId::rep_type>("down", rest)};
  if (rest.empty()) return outage;
  if (!rest.starts_with('@')) in.fail("down wants 'ID[@FROM..[UNTIL]]'");
  rest.remove_prefix(1);
  outage.from = in.read_duration("down", rest);
  if (!rest.starts_with("..")) in.fail("down window wants 'FROM..[UNTIL]'");
  rest.remove_prefix(2);
  if (!rest.empty()) outage.until = in.duration("down", rest);
  if (outage.until <= outage.from)
    in.fail("down window must end after it starts");
  return outage;
}

}  // namespace

std::string_view to_string(DegradeMode mode) noexcept {
  return spec::name_of(kDegradeModes, mode);
}

std::string to_string(const FaultSpec& spec) {
  using spec::duration_string;
  std::string out = "drop=" + spec::real_string(spec.plan.drop_probability);
  out += ",spike=" + spec::real_string(spec.plan.spike_probability) + ":" +
         duration_string(spec.plan.spike_ns);
  for (const Outage& outage : spec.plan.outages) {
    out += ",down=" + std::to_string(outage.db.value()) + "@" +
           duration_string(outage.from) + "..";
    if (outage.until != kForever) out += duration_string(outage.until);
  }
  out += ",seed=" + std::to_string(spec.plan.seed);
  out += ",retries=" + std::to_string(spec.retry.max_retries);
  out += ",timeout=" + duration_string(spec.retry.timeout_ns);
  out += ",backoff=" + duration_string(spec.retry.backoff_ns);
  out += ",degrade=" + std::string(to_string(spec.degrade));
  return out;
}

FaultSpec parse_fault_spec(std::string_view text) {
  const spec::Reader in("--faults spec", text, spec::raise<FaultError>);
  FaultSpec out;
  // Only 'down' is repeatable: each occurrence adds an outage window
  // rather than overwriting a setting.
  for (const auto& [key, value] : in.items(text, {"down"})) {
    if (key == "drop") {
      out.plan.drop_probability = in.real(key, value, spec::kUnitInterval);
    } else if (key == "spike") {
      const std::size_t colon = value.find(':');
      if (colon == std::string_view::npos)
        in.fail("spike wants 'PROB:DURATION'");
      out.plan.spike_probability =
          in.real(key, value.substr(0, colon), spec::kUnitInterval);
      out.plan.spike_ns = in.duration(key, value.substr(colon + 1));
    } else if (key == "down") {
      out.plan.outages.push_back(read_outage(in, value));
    } else if (key == "seed") {
      out.plan.seed = in.uint<std::uint64_t>(key, value);
    } else if (key == "retries") {
      out.retry.max_retries = in.uint<int>(key, value);
    } else if (key == "timeout") {
      out.retry.timeout_ns = in.duration(key, value, 1);
    } else if (key == "backoff") {
      out.retry.backoff_ns = in.duration(key, value);
    } else if (key == "degrade") {
      out.degrade = in.choice(key, value, kDegradeModes);
    } else {
      in.fail("unknown key '" + std::string(key) + "'");
    }
  }
  return out;
}

}  // namespace isomer::fault
