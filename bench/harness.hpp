// Shared infrastructure for the figure-regeneration harnesses.
//
// Each bench_figN binary sweeps one Table-2 parameter exactly as §4.2
// describes, runs `--samples` random parameter sets per point through the
// discrete-event simulator (the paper uses 500; the default here is smaller
// so the full suite finishes in minutes — pass --samples=500 --scale=1 for
// the paper's exact setting), and prints the averaged total execution time
// and response time per strategy.
//
// Trials are independent deterministic simulations, so they run in parallel
// across `--jobs` threads (default: hardware concurrency). Every trial owns
// an RNG stream derived as Rng(derive_stream(seed, trial)) and per-trial
// figures are reduced in trial order, which makes the printed tables
// bitwise-identical at every job count. (This per-trial seed derivation
// replaced the original shared sequential Rng — a one-time shift in absolute
// benchmark numbers, recorded in EXPERIMENTS.md.)
//
// Pass --json=FILE to additionally emit machine-readable per-point rows for
// CI trajectory files (see JsonSink), and --trace=FILE to dump every
// simulated execution's phase spans as JSON Lines (see TraceSink and
// docs/TRACING.md). Both report the effective --jobs value in their
// headers; both are --jobs-invariant byte for byte.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "isomer/analytic/impute.hpp"
#include "isomer/common/parallel.hpp"
#include "isomer/common/spec.hpp"
#include "isomer/core/strategy.hpp"
#include "isomer/obs/jsonl.hpp"
#include "isomer/obs/metrics.hpp"
#include "isomer/obs/trace_session.hpp"
#include "isomer/serve/planner.hpp"
#include "isomer/serve/serve_spec.hpp"
#include "isomer/workload/synth.hpp"

namespace isomer::bench {

struct HarnessOptions {
  int samples = 15;      ///< parameter sets per sweep point (paper: 500)
  double scale = 1.0;    ///< multiplier on N_o (1.0 = paper scale)
  std::uint64_t seed = 1996;
  int jobs = 0;          ///< trial-level threads; 0 = hardware concurrency
  std::string json_path;        ///< --json=FILE; empty = stdout tables only
  std::string trace_path;       ///< --trace=FILE; empty = no span dump
  bool run_signatures = false;  ///< also run BL-S / PL-S
  bool samples_set = false;     ///< user passed --samples / --paper / --quick
  bool scale_set = false;       ///< user passed --scale / --paper / --quick
  /// --faults=SPEC (fault::parse_fault_spec grammar): inject the described
  /// faults into every trial, degrade per the spec, and report answer
  /// quality next to the timing figures. A spec whose plan injects nothing
  /// (e.g. "drop=0") leaves every output byte-identical to a run without
  /// --faults.
  fault::FaultSpec faults;
  bool faults_set = false;
  /// --batch=on|off|N (StrategyOptions::batch): batched semijoin shipping.
  /// "off" (the default) leaves every output bitwise-identical to a build
  /// without the batching layer; "on" enables unbounded same-instant
  /// frames; a positive N additionally caps a frame at N records.
  BatchOptions batch;
  bool batch_set = false;
  /// --serve=SPEC (serve::parse_serve_spec grammar): arrival process and
  /// scheduler configuration for the serving-layer harness (bench_serve).
  /// Other benches accept and archive the spec but ignore it.
  serve::ServeSpec serve;
  bool serve_set = false;
  /// --plan=static|adaptive|hybrid (serve::PlanMode): how bench_serve plans
  /// its query pool. "static" (the default) uses the whole-federation
  /// advisor; "adaptive" plans per home site and re-plans at launch from the
  /// stats book; "hybrid" additionally arms the mid-flight switch (see
  /// docs/PLANNING.md). Other benches accept and archive the value but
  /// ignore it.
  std::string plan = "static";
  bool plan_set = false;
  /// --certcache=on|off|N (StrategyOptions::cert_cache): cross-query
  /// certificate cache. "off" (the default) runs without a cache — every
  /// output bitwise-identical to a build without it; "on" attaches one
  /// unbounded cache per serve trial; a positive N additionally caps the
  /// resident certificate count (core/cert_cache.hpp). Consumed by
  /// bench_serve's repeated-pool panel; other benches accept and archive
  /// the value but ignore it.
  bool cert_cache_enabled = false;
  std::size_t cert_cache_entries = 0;
  bool certcache_set = false;
  /// --impute=off|thresh=P[,mech=mcar|mar] (parse_impute_spec grammar): the
  /// IM strategy's confidence threshold and missingness-mechanism
  /// assumption. "off" (the default) never builds a population model.
  /// Consumed by bench_impute; other benches accept and archive the spec
  /// but ignore it.
  ImputeSpec impute;
  bool impute_set = false;
};

/// The canonical print of an on|off|N flag value: "off", "on" (no cap) or
/// the cap.
[[nodiscard]] inline std::string on_off_or_cap_string(bool enabled,
                                                      std::size_t cap) {
  if (!enabled) return "off";
  return cap == 0 ? "on" : std::to_string(cap);
}

/// The canonical --batch spec string for provenance headers: "off", "on"
/// (unbounded frames) or the per-frame record cap.
[[nodiscard]] inline std::string batch_spec_string(const BatchOptions& batch) {
  return on_off_or_cap_string(batch.enabled, batch.max_records);
}

/// The canonical --certcache spec string for provenance headers: "off",
/// "on" (unbounded) or the resident-certificate cap.
[[nodiscard]] inline std::string certcache_spec_string(
    const HarnessOptions& options) {
  return on_off_or_cap_string(options.cert_cache_enabled,
                              options.cert_cache_entries);
}

/// The thread count a --jobs value resolves to (0 = all hardware threads) —
/// what the --json and --trace headers report.
[[nodiscard]] inline unsigned effective_jobs(int jobs) {
  return jobs <= 0 ? ThreadPool::hardware_jobs()
                   : static_cast<unsigned>(jobs);
}

[[noreturn]] inline void usage_error(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--samples=N] [--scale=F] [--seed=S] [--jobs=N] "
               "[--json=FILE] [--trace=FILE] [--faults=SPEC] "
               "[--batch=on|off|N] [--serve=SPEC] "
               "[--plan=static|adaptive|hybrid] [--certcache=on|off|N] "
               "[--impute=off|thresh=P[,mech=mcar|mar]] "
               "[--signatures] [--paper] [--quick]\n"
               "  flags and the shared spec grammar: README.md, \"Harness "
               "flags\"; spec keys: docs/FAULTS.md,\n"
               "  docs/SERVING.md, docs/IMPUTATION.md\n",
               argv0);
  std::exit(2);
}

/// Reads an on|off|N flag value: (enabled, cap), where cap 0 = no cap.
inline std::pair<bool, std::size_t> read_on_off_or_cap(
    const spec::Reader& in, std::string_view key, std::string_view value) {
  if (const std::optional<bool> on = spec::lookup(spec::kOnOff, value))
    return {*on, 0};
  return {true, in.uint<std::size_t>(key, value, 1)};
}

/// Parses the shared flags. A malformed value prints its error and the
/// usage line, and exits 2. Numbers and on|off values are read through the
/// shared spec grammar (common/spec.hpp).
inline HarnessOptions parse_options(int argc, char** argv) {
  HarnessOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    try {
      const spec::Reader in("flag", arg, spec::raise<Error>);
      std::string_view v;  // the value of the `--name=` flag `is` matched
      const auto is = [&](std::string_view prefix) {
        if (!arg.starts_with(prefix)) return false;
        v = arg.substr(prefix.size());
        if (v.empty()) in.fail("empty value");
        return true;
      };
      if (is("--samples=")) {
        options.samples = in.uint<int>("--samples", v, 1);
        options.samples_set = true;
      } else if (is("--scale=")) {
        // Capped so that apply_scale's object counts stay within an int.
        options.scale = in.real("--scale", v, {0, 1000, true});
        options.scale_set = true;
      } else if (is("--seed=")) {
        options.seed = in.uint<std::uint64_t>("--seed", v);
      } else if (is("--jobs=")) {
        options.jobs = in.uint<int>("--jobs", v, 1);
      } else if (is("--json=")) {
        options.json_path = v;
      } else if (is("--trace=")) {
        options.trace_path = v;
      } else if (is("--faults=")) {
        options.faults = fault::parse_fault_spec(v);
        options.faults_set = true;
      } else if (is("--batch=")) {
        std::tie(options.batch.enabled, options.batch.max_records) =
            read_on_off_or_cap(in, "--batch", v);
        options.batch_set = true;
      } else if (is("--serve=")) {
        options.serve = serve::parse_serve_spec(v);
        options.serve_set = true;
      } else if (is("--plan=")) {
        (void)serve::parse_plan_mode(v);
        options.plan = v;
        options.plan_set = true;
      } else if (is("--certcache=")) {
        std::tie(options.cert_cache_enabled, options.cert_cache_entries) =
            read_on_off_or_cap(in, "--certcache", v);
        options.certcache_set = true;
      } else if (is("--impute=")) {
        options.impute = parse_impute_spec(v);
        options.impute_set = true;
      } else if (arg == "--signatures") {
        options.run_signatures = true;
      } else if (arg == "--paper") {
        options.samples = 500;
        options.scale = 1.0;
        options.samples_set = options.scale_set = true;
      } else if (arg == "--quick") {
        options.samples = 8;
        options.scale = 0.1;
        options.samples_set = options.scale_set = true;
      } else {
        usage_error(argv[0]);
      }
    } catch (const Error& error) {
      std::fprintf(stderr, "%s: %s\n", argv[0], error.what());
      usage_error(argv[0]);
    }
  }
  return options;
}

/// Applies the scale factor to the Table-2 object-count range.
inline void apply_scale(ParamConfig& config, double scale) {
  config.n_objects.first =
      std::max(1, static_cast<int>(config.n_objects.first * scale));
  config.n_objects.second =
      std::max(config.n_objects.first,
               static_cast<int>(config.n_objects.second * scale));
}

/// Averaged simulated times (seconds) for one strategy at one sweep point.
/// The answer-quality fields are only populated (and only printed) when a
/// --faults plan is active.
struct SeriesPoint {
  double total_s = 0;
  double response_s = 0;
  double bytes_mb = 0;
  double messages = 0;
  double certain_rows = 0;     ///< avg certain rows per trial
  double maybe_rows = 0;       ///< avg maybe rows per trial
  double unavailable_rows = 0; ///< avg rows tagged unavailable per trial
  double dead_sites = 0;       ///< avg sites declared unreachable per trial
  double retries = 0;          ///< avg shipments retransmitted per trial

  SeriesPoint& operator+=(const SeriesPoint& other) noexcept {
    total_s += other.total_s;
    response_s += other.response_s;
    bytes_mb += other.bytes_mb;
    messages += other.messages;
    certain_rows += other.certain_rows;
    maybe_rows += other.maybe_rows;
    unavailable_rows += other.unavailable_rows;
    dead_sites += other.dead_sites;
    retries += other.retries;
    return *this;
  }
};

/// Runs `samples` trials on `jobs` threads (0 = hardware concurrency),
/// handing trial i the independent stream Rng(derive_stream(seed, i)).
/// `fn(i, rng)` must be thread-safe across distinct trials; reduce whatever
/// it produces in trial order afterwards to stay jobs-invariant.
template <typename Fn>
inline void for_each_trial(int samples, std::uint64_t seed, int jobs,
                           Fn&& fn) {
  ThreadPool pool(jobs <= 0 ? 0u : static_cast<unsigned>(jobs));
  pool.for_each(static_cast<std::size_t>(samples), [&](std::size_t i) {
    Rng rng(derive_stream(seed, i));
    fn(i, rng);
  });
}

/// Streams --trace output: the "isomer-trace-v1" JSONL contract of
/// docs/TRACING.md. Line 1 is a header reporting the harness's *effective*
/// --jobs value; then one span record per simulated step, tagged with the
/// sweep point and trial that produced it; the destructor appends a
/// metrics summary from MetricsRegistry::global(). Span lines are written
/// in (sweep point, trial) order regardless of the thread count, so trace
/// files are --jobs-invariant byte for byte.
class TraceSink {
 public:
  /// Disabled when `path` is empty. Exits with a usage error when the file
  /// cannot be opened.
  ///
  /// The sink writes to `path + ".tmp"` and renames onto `path` only when
  /// the run completes (the destructor runs): an aborted sweep — usage
  /// error after the sink was built, uncaught exception, crash — leaves any
  /// existing trace file at `path` untouched instead of truncating it.
  TraceSink(const std::string& path, const char* tool,
            const HarnessOptions& options) {
    if (path.empty()) return;
    final_path_ = path;
    tmp_path_ = path + ".tmp";
    file_.open(tmp_path_, std::ios::trunc);
    if (!file_) {
      std::fprintf(stderr, "cannot open --trace file %s for writing\n",
                   tmp_path_.c_str());
      std::exit(2);
    }
    file_ << obs::trace_header_json(tool, effective_jobs(options.jobs),
                                    options.samples, options.scale,
                                    options.seed)
          << "\n";
  }
  ~TraceSink() {
    if (file_.is_open()) {
      file_ << obs::metrics_to_json(obs::MetricsRegistry::global()) << "\n";
      file_.close();
      if (std::rename(tmp_path_.c_str(), final_path_.c_str()) != 0)
        std::fprintf(stderr, "cannot move trace file %s to %s\n",
                     tmp_path_.c_str(), final_path_.c_str());
    }
  }
  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return file_.is_open(); }
  /// Null when disabled — pass the result straight to run_point.
  [[nodiscard]] TraceSink* if_enabled() noexcept {
    return enabled() ? this : nullptr;
  }

  /// Tags subsequent spans with the sweep point they belong to.
  void set_point(const char* figure, const char* x_name, double x) {
    context_.figure = figure;
    context_.x_name = x_name;
    context_.x = x;
  }

  /// Writes one trial's spans. run_point calls this in trial order.
  void write_trial(std::uint64_t trial, const obs::TraceSession& session) {
    if (!file_.is_open()) return;
    context_.trial = trial;
    obs::write_spans(file_, session, &context_);
  }

 private:
  std::ofstream file_;
  std::string final_path_;
  std::string tmp_path_;
  obs::SpanContext context_;
};

/// Runs `samples` random parameter sets drawn from `config` and averages
/// each requested strategy's figures. Bitwise-identical at every `jobs`.
/// With `trace` attached, every execution records phase spans into a
/// per-trial TraceSession (serialized to the sink in trial order), and the
/// shared MetricsRegistry counts trials / executions / spans.
inline std::vector<SeriesPoint> run_point(
    const ParamConfig& config, const std::vector<StrategyKind>& kinds,
    int samples, std::uint64_t seed, int jobs = 1,
    NetworkTopology topology = NetworkTopology::SharedBus,
    double collision_alpha = 0.3, TraceSink* trace = nullptr,
    const fault::FaultSpec* faults = nullptr,
    const BatchOptions* batch = nullptr) {
  expects(samples > 0, "run_point needs a positive trial count");
  const bool tracing = trace != nullptr && trace->enabled();
  // A disabled plan (e.g. --faults=drop=0) takes the exact fault-free code
  // path below, keeping every output byte identical to a run without it.
  const bool faulting = faults != nullptr && faults->plan.enabled();
  StrategyOptions exec_options;
  exec_options.topology = topology;
  exec_options.costs.collision_alpha = collision_alpha;
  // Null or a disabled BatchOptions keeps ship_record an exact passthrough
  // to ship(): --batch=off output is bitwise-identical to pre-batching.
  if (batch != nullptr) exec_options.batch = *batch;
  std::vector<std::vector<SeriesPoint>> trials(
      static_cast<std::size_t>(samples),
      std::vector<SeriesPoint>(kinds.size()));
  std::vector<obs::TraceSession> sessions(
      tracing ? static_cast<std::size_t>(samples) : 0);
  for_each_trial(samples, seed, jobs, [&](std::size_t s, Rng& rng) {
    const SampleParams sample = draw_sample(config, rng);
    const SynthFederation synth = materialize_sample(sample);
    // Each trial faces its own reproducible fault environment: the plan's
    // RNG stream mixes the bench seed, the spec's fault seed and the trial
    // index, so results stay --jobs-invariant. Every strategy within the
    // trial replays the same plan.
    fault::FaultPlan plan;
    if (faulting) {
      plan = faults->plan;
      plan.seed = derive_stream(derive_stream(seed, faults->plan.seed), s);
    }
    // Reuse one signature index across the signature variants (within this
    // trial only — nothing is shared between threads).
    std::unique_ptr<SignatureIndex> signatures;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      StrategyOptions options = exec_options;
      if (tracing) options.trace_session = &sessions[s];
      if (faulting) {
        options.faults = &plan;
        options.retry = faults->retry;
        options.degrade = faults->degrade;
      }
      if (kinds[k] == StrategyKind::BLS || kinds[k] == StrategyKind::PLS) {
        if (!signatures)
          signatures = std::make_unique<SignatureIndex>(
              SignatureIndex::build(*synth.federation));
        options.signatures = signatures.get();
      }
      const StrategyReport report =
          execute_strategy(kinds[k], *synth.federation, synth.query, options);
      trials[s][k].total_s = to_seconds(report.total_ns);
      trials[s][k].response_s = to_seconds(report.response_ns);
      trials[s][k].bytes_mb =
          static_cast<double>(report.bytes_transferred) / 1e6;
      trials[s][k].messages = static_cast<double>(report.messages);
      if (faulting) {
        trials[s][k].certain_rows =
            static_cast<double>(report.result.certain_count());
        trials[s][k].maybe_rows =
            static_cast<double>(report.result.maybe_count());
        trials[s][k].unavailable_rows =
            static_cast<double>(report.result.unavailable_count());
        trials[s][k].dead_sites =
            static_cast<double>(report.unavailable_sites.size());
        trials[s][k].retries = static_cast<double>(report.retries);
      }
    }
  });
  // Reduce (and serialize spans / record metrics) in trial order: the
  // output is independent of execution order and thus of `jobs`.
  obs::MetricsRegistry& metrics = obs::MetricsRegistry::global();
  metrics.counter("bench.trials").add(static_cast<std::uint64_t>(samples));
  metrics.counter("bench.executions")
      .add(static_cast<std::uint64_t>(samples) * kinds.size());
  obs::Histogram& response_hist = metrics.histogram("bench.response_ms");
  std::vector<SeriesPoint> points(kinds.size());
  for (std::size_t s = 0; s < trials.size(); ++s) {
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      points[k] += trials[s][k];
      response_hist.record(trials[s][k].response_s * 1e3);
    }
    if (tracing) {
      metrics.counter("bench.spans").add(sessions[s].size());
      trace->write_trial(s, sessions[s]);
    }
  }
  for (SeriesPoint& point : points) {
    point.total_s /= samples;
    point.response_s /= samples;
    point.bytes_mb /= samples;
    point.messages /= samples;
    point.certain_rows /= samples;
    point.maybe_rows /= samples;
    point.unavailable_rows /= samples;
    point.dead_sites /= samples;
    point.retries /= samples;
  }
  return points;
}

inline void print_header(const char* figure, const char* x_name,
                         const std::vector<StrategyKind>& kinds,
                         const HarnessOptions& options) {
  std::printf("# %s — %d samples/point, N_o scale %.2f (paper: 500 / 1.0)\n",
              figure, options.samples, options.scale);
  std::printf("%-12s", x_name);
  for (const StrategyKind kind : kinds)
    std::printf(" %10s", std::string(to_string(kind)).c_str());
  std::printf("\n");
}

inline void print_row(double x, const std::vector<SeriesPoint>& points,
                      bool response) {
  std::printf("%-12g", x);
  for (const SeriesPoint& point : points)
    std::printf(" %10.3f", response ? point.response_s : point.total_s);
  std::printf("\n");
}

/// Answer-quality panel printed only when a --faults plan is active: average
/// per-trial (certain, maybe, unavailable) row counts plus the fault-side
/// figures, one line per (sweep point, strategy). This is what lets fig9 /
/// fig10 plot time *and* answer quality against the failure rate.
inline void print_quality_table(
    const char* figure, const char* x_name, const std::vector<double>& xs,
    const std::vector<StrategyKind>& kinds,
    const std::vector<std::vector<SeriesPoint>>& rows,
    const HarnessOptions& options) {
  std::printf("\n# %s — answer quality under --faults "
              "(avg rows/trial; degrade=%s)\n",
              figure, std::string(to_string(options.faults.degrade)).c_str());
  std::printf("%-12s %-8s %10s %10s %12s %10s %10s\n", x_name, "strategy",
              "certain", "maybe", "unavailable", "dead_dbs", "retries");
  for (std::size_t i = 0; i < rows.size(); ++i)
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      const SeriesPoint& p = rows[i][k];
      std::printf("%-12g %-8s %10.2f %10.2f %12.2f %10.2f %10.2f\n", xs[i],
                  std::string(to_string(kinds[k])).c_str(), p.certain_rows,
                  p.maybe_rows, p.unavailable_rows, p.dead_sites, p.retries);
    }
}

/// Machine-readable results (--json=FILE): one JSON array whose first
/// element is a header object
///   {"format": "isomer-bench-v1", "jobs", "samples", "scale", "seed"}
/// ("jobs" is the *effective* thread count) followed by per-(sweep point,
/// strategy) rows
///   {"figure", "x_name", "x", "strategy", "total_s", "response_s",
///    "bytes_mb", "messages"}
/// so CI can build BENCH_*.json trajectory files without scraping stdout.
class JsonSink {
 public:
  /// Disabled when `path` is empty. Exits with a usage error when the file
  /// cannot be opened.
  JsonSink(const std::string& path, const HarnessOptions& options) {
    if (path.empty()) return;
    file_ = std::fopen(path.c_str(), "w");
    if (file_ == nullptr) {
      std::fprintf(stderr, "cannot open --json file %s for writing\n",
                   path.c_str());
      std::exit(2);
    }
    std::fprintf(file_,
                 "[\n  {\"format\": \"isomer-bench-v1\", \"jobs\": %u, "
                 "\"samples\": %d, \"scale\": %.17g, \"seed\": %llu",
                 effective_jobs(options.jobs), options.samples, options.scale,
                 static_cast<unsigned long long>(options.seed));
    // The batch field exists iff batching is enabled, so --batch=off (or no
    // --batch at all) leaves the header byte-identical to older outputs.
    // 0 = unbounded same-instant frames.
    if (options.batch.enabled)
      std::fprintf(file_, ", \"batch_max_records\": %llu",
                   static_cast<unsigned long long>(options.batch.max_records));
    // Provenance: the *resolved* spec strings of whichever spec flags the
    // run was given (canonical re-prints — parse(to_string(x)) == x), so an
    // archived result file names its exact fault / batch / serve
    // environment. Each field exists iff its flag was passed, keeping
    // flagless outputs byte-identical to older ones.
    if (options.faults_set)
      std::fprintf(file_, ", \"faults_spec\": \"%s\"",
                   fault::to_string(options.faults).c_str());
    if (options.batch_set)
      std::fprintf(file_, ", \"batch_spec\": \"%s\"",
                   batch_spec_string(options.batch).c_str());
    if (options.serve_set)
      std::fprintf(file_, ", \"serve_spec\": \"%s\"",
                   serve::to_string(options.serve).c_str());
    if (options.plan_set)
      std::fprintf(file_, ", \"plan_mode\": \"%s\"", options.plan.c_str());
    if (options.certcache_set)
      std::fprintf(file_, ", \"certcache_spec\": \"%s\"",
                   certcache_spec_string(options).c_str());
    if (options.impute_set)
      std::fprintf(file_, ", \"impute_spec\": \"%s\"",
                   isomer::to_string(options.impute).c_str());
    std::fputs("}", file_);
    first_ = false;  // rows always follow the header element
  }
  ~JsonSink() {
    if (file_ != nullptr) {
      std::fputs("\n]\n", file_);
      std::fclose(file_);
    }
  }
  JsonSink(const JsonSink&) = delete;
  JsonSink& operator=(const JsonSink&) = delete;

  /// Emits one row per strategy for the sweep point at `x`. With `quality`
  /// set (a --faults plan was active) each row carries the answer-quality
  /// fields as well; without it the rows are byte-identical to the
  /// pre-fault-injection format.
  void rows(const char* figure, const char* x_name, double x,
            const std::vector<StrategyKind>& kinds,
            const std::vector<SeriesPoint>& points, bool quality = false) {
    if (file_ == nullptr) return;
    for (std::size_t k = 0; k < kinds.size(); ++k) {
      std::fprintf(
          file_,
          "%s\n  {\"figure\": \"%s\", \"x_name\": \"%s\", \"x\": %.17g, "
          "\"strategy\": \"%s\", \"total_s\": %.17g, \"response_s\": %.17g, "
          "\"bytes_mb\": %.17g, \"messages\": %.17g",
          first_ ? "" : ",", figure, x_name, x,
          std::string(to_string(kinds[k])).c_str(), points[k].total_s,
          points[k].response_s, points[k].bytes_mb, points[k].messages);
      if (quality)
        std::fprintf(
            file_,
            ", \"certain_rows\": %.17g, \"maybe_rows\": %.17g, "
            "\"unavailable_rows\": %.17g, \"dead_sites\": %.17g, "
            "\"retries\": %.17g",
            points[k].certain_rows, points[k].maybe_rows,
            points[k].unavailable_rows, points[k].dead_sites,
            points[k].retries);
      std::fputs("}", file_);
      first_ = false;
    }
  }

  /// Emits one preformatted row object — for harnesses whose row shape
  /// differs from the figure sweeps' (bench_serve). `body` is the object's
  /// contents without the enclosing braces.
  void raw_row(const std::string& body) {
    if (file_ == nullptr) return;
    std::fprintf(file_, "%s\n  {%s}", first_ ? "" : ",", body.c_str());
    first_ = false;
  }

 private:
  std::FILE* file_ = nullptr;
  bool first_ = true;
};

}  // namespace isomer::bench
