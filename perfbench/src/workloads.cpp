#include "workloads.hpp"

#include <algorithm>
#include <exception>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "counting_oracle.hpp"
#include "replay.hpp"
#include "isomer/analytic/impute.hpp"
#include "isomer/core/cert_cache.hpp"
#include "isomer/obs/jsonl.hpp"
#include "isomer/obs/trace_session.hpp"
#include "isomer/serve/planner.hpp"
#include "isomer/serve/server.hpp"
#include "isomer/workload/arrivals.hpp"
#include "isomer/workload/synth.hpp"

namespace perfbench {

using namespace isomer;

namespace {

// ---- Sizes (perfbench/README.md explains each choice). -------------------

/// Timing runs at least this many passes over every op (the fastest one
/// counts); a traced run, which reports no end-to-end figures, needs one.
constexpr int kMinPasses = 2;

int min_passes(const RunOptions& options) {
  return options.trace ? 1 : kMinPasses;
}

/// Query shapes of the closed-loop cases are drawn once from this stream
/// and fixed (see draw_case).
constexpr std::uint64_t kShapeSeed = 4242;
/// A 4-class shape matches a Table-2 draw once in 256 on average.
constexpr std::uint64_t kMaxShapeDraws = 1 << 16;

/// Cases run in blocks that hold every chain length equally (see case_shape).
constexpr std::size_t kPaperBlocks = 3;

constexpr std::size_t kImputeBlocks = 4;
constexpr double kImputeMissingRate = 0.3;
constexpr std::pair<int, int> kImputeObjects{1000, 1200};
constexpr double kImputeThreshold = 0.5;  // bench_impute's default
/// BL runs this many times per IM run: the op-time median then lies inside
/// the BL cluster and the p90 at the middle of the IM cluster, never in the
/// gap between them.
constexpr int kImputeBlRounds = 4;

/// The served federations and their query pools are the workload's fixed
/// deployment, drawn from this stream; --seed draws the traffic: arrival
/// times and which pool query each submission runs.
constexpr std::uint64_t kServeDataSeed = 1996;
constexpr std::size_t kServeFederations = 4;
constexpr std::size_t kServeSchedules = 25;  ///< arrival draws per federation
constexpr std::size_t kLadderSchedules = 4;  ///< per rung and federation
constexpr std::size_t kServeSetupReps = 31;
constexpr std::size_t kServePool = 6;
constexpr std::size_t kServeSubmissions = 12;
constexpr std::size_t kServeQueueLimit = 8;
constexpr std::size_t kServeInflight = 2;
/// Offered rates as fractions of the calibrated capacity (inflight / mean
/// solo response): the design rate sits below the knee, the ladder
/// crosses it.
constexpr double kServeDesignFraction = 0.3;
constexpr double kServeLadder[] = {0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0, 3.0};
/// The capacity ladder's simulated p90 limit on a submission's slowdown:
/// its latency over the same query's solo response.
constexpr double kServeLimitSlowdown = 4.0;

// ---- Shared tallies. ------------------------------------------------------

/// Simulated figures of the first pass (deterministic per seed).
struct SimTally {
  std::vector<double> latency_ms;
  double total_ms = 0;
  double wire_kb = 0;
  double messages = 0;
  std::uint64_t queries = 0;
  std::uint64_t certain = 0;
  std::uint64_t maybe = 0;

  void add_rows(const QueryResult& result) {
    certain += result.certain_count();
    maybe += result.maybe_count();
  }
};

/// Host-time figures of the timed phase. Every op runs once per timed
/// pass, and its host time is its fastest pass: other processes on a shared
/// machine only ever add time, so the fastest of several passes spread over
/// the run is the steadiest estimate of what the op costs.
struct HostTally {
  std::vector<double> op_ms;  ///< per op, its fastest pass
  double queries = 0;  ///< executions, or completed submissions, of the ops
  double setup_s = 0;  ///< as measured
  /// Set-up time at the probe's reference speed: each set-up step (a case,
  /// or a deployment build) is scaled by a probe sample taken right before
  /// it, outside its timing. The machine's speed moves within seconds, and
  /// set-up runs seconds before the timed ops.
  double setup_ref_s = 0;
  SpeedProbe probe;  ///< sampled before timed ops, outside their timing
  SpeedProbe setup_probe;
};

/// Per-layer figures of the traced run (spans live in the SpanLog).
struct LayerTally {
  std::uint64_t queries = 0;
  double untraced_ms = 0;  ///< the same ops, run untraced beside
  double traced_ms = 0;
  std::uint64_t decide_calls = 0;
  std::uint64_t imputed = 0;
  std::uint64_t declined = 0;
  std::uint64_t spans = 0;
  ReplayCounts counts;
  double materialize_ms = 0;  ///< per materialize_sample call
  double impute_build_ms = 0; ///< per ImputeModel::build call
  double plan_pool_ms = 0;    ///< per plan_pool call
  std::vector<double> queue_wait_ms;
  std::uint64_t cert_hits = 0;
  std::uint64_t cert_misses = 0;
};

/// Failure accounting and the run's correctness verdict.
struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

constexpr double kNever = std::numeric_limits<double>::infinity();

/// Times `fn` in milliseconds, adding to `total`.
template <typename Fn>
auto time_into(double& total_ms, Fn&& fn) {
  const Clock::time_point start = Clock::now();
  auto result = fn();
  total_ms += ms_between(start, Clock::now());
  return result;
}

/// Adds the end-to-end metrics. Host times are reported at the speed
/// probe's reference speed (see SpeedProbe); `as_measured` gets the same
/// four host figures unscaled, with the run's median probe times.
void add_e2e(MetricList& m, MetricList& as_measured, const HostTally& host,
             const SimTally& sim, const Checks& checks, double capacity_qps) {
  double wall_ms = 0;
  for (const double ms : host.op_ms) wall_ms += ms;
  const double qps = ratio(host.queries, wall_ms / 1e3);
  const double p50 = percentile(host.op_ms, 0.50);
  const double p90 = percentile(host.op_ms, 0.90);
  as_measured.add("queries_per_s", qps, "1/s");
  as_measured.add("op_wall_ms_p50", p50, "ms");
  as_measured.add("op_wall_ms_p90", p90, "ms");
  as_measured.add("setup_s", host.setup_s, "s");
  as_measured.add("probe_ms", host.probe.median_ms(), "ms");
  as_measured.add("setup_probe_ms", host.setup_probe.median_ms(), "ms");
  const double scale = host.probe.scale();
  const auto q = static_cast<double>(sim.queries);
  m.add("queries_per_s", qps / scale, "1/s");
  m.add("op_wall_ms_p50", p50 * scale, "ms");
  m.add("op_wall_ms_p90", p90 * scale, "ms");
  m.add("setup_s", host.setup_ref_s, "s");
  m.add("peak_rss_mb", peak_rss_mb(), "MB");
  m.add("answered_share",
        1.0 - ratio(static_cast<double>(checks.failed),
                    static_cast<double>(checks.attempted)),
        "share");
  m.add("sim_latency_ms_p50", percentile(sim.latency_ms, 0.50), "ms");
  m.add("sim_latency_ms_p90", percentile(sim.latency_ms, 0.90), "ms");
  m.add("sim_total_ms_per_query", ratio(sim.total_ms, q), "ms");
  m.add("sim_wire_kb_per_query", ratio(sim.wire_kb, q), "KB");
  m.add("sim_messages_per_query", ratio(sim.messages, q), "count");
  m.add("certain_row_share",
        ratio(static_cast<double>(sim.certain),
              static_cast<double>(sim.certain + sim.maybe)),
        "share");
  m.add("sim_capacity_qps", capacity_qps, "1/s");
}

void add_layers(MetricList& m, const LayerTally& t, const SpanLog& log,
                const char* exec_span) {
  const auto q = static_cast<double>(t.queries);
  const auto per_q = [&](const char* name) {
    return ratio(log.self_ms(name), q);
  };
  static constexpr const char* kReplayed[] = {
      "store.local_scan", "core.plan_checks", "core.run_checks",
      "core.certify",     "federation.materialize",
      "query.evaluate_global"};
  double replayed_ms = 0;
  for (const char* name : kReplayed) replayed_ms += log.self_ms(name);
  const double residual_ms = log.self_ms(exec_span) - replayed_ms;

  // The execution's host time, split into the measured layers and the
  // residual; the parts add up to the whole by construction.
  const double decide_ms = log.self_ms("analytic.impute_decide");
  const double exec_ms = log.self_ms(exec_span) + decide_ms;
  std::fprintf(stderr, "host time per query: %s %.3f ms\n", exec_span,
               ratio(exec_ms, q));
  const auto share = [&](const char* name, double ms) {
    std::fprintf(stderr, "  %-24s %10.3f ms %6.1f%%\n", name, ratio(ms, q),
                 100 * ratio(ms, exec_ms));
  };
  for (const char* name : kReplayed) share(name, log.self_ms(name));
  share("analytic.impute_decide", decide_ms);
  share("residual", residual_ms);
  const std::uint64_t decided = t.imputed + t.declined;

  m.add("workload.materialize_ms", t.materialize_ms, "ms");
  m.add("store.local_scan_ms_per_query", per_q("store.local_scan"), "ms");
  m.add("store.rows_per_considered",
        ratio(static_cast<double>(t.counts.rows),
              static_cast<double>(t.counts.considered)),
        "ratio");
  m.add("core.plan_checks_ms_per_query", per_q("core.plan_checks"), "ms");
  m.add("core.check_tasks_per_query",
        ratio(static_cast<double>(t.counts.check_tasks), q), "count");
  m.add("core.run_checks_ms_per_query", per_q("core.run_checks"), "ms");
  m.add("core.certify_ms_per_query", per_q("core.certify"), "ms");
  m.add("federation.materialize_ms_per_query",
        per_q("federation.materialize"), "ms");
  m.add("query.evaluate_global_ms_per_query", per_q("query.evaluate_global"),
        "ms");
  m.add("analytic.impute_build_ms", t.impute_build_ms, "ms");
  m.add("analytic.impute_decide_ms_per_query",
        per_q("analytic.impute_decide"), "ms");
  m.add("analytic.impute_decide_calls_per_query",
        ratio(static_cast<double>(t.decide_calls), q), "count");
  m.add("analytic.decided_atoms_per_call",
        ratio(static_cast<double>(decided),
              static_cast<double>(t.decide_calls)),
        "ratio");
  m.add("analytic.imputed_share",
        ratio(static_cast<double>(t.imputed), static_cast<double>(decided)),
        "share");
  m.add("serve.plan_pool_ms", t.plan_pool_ms, "ms");
  m.add("serve.host_ms_per_submission",
        std::string_view(exec_span) == "serve.serve"
            ? ratio(t.untraced_ms, q)
            : 0.0,
        "ms");
  m.add("serve.queue_wait_ms_p50", percentile(t.queue_wait_ms, 0.50), "ms");
  m.add("serve.queue_wait_ms_p90", percentile(t.queue_wait_ms, 0.90), "ms");
  m.add("core.cert_hit_ratio",
        ratio(static_cast<double>(t.cert_hits),
              static_cast<double>(t.cert_hits + t.cert_misses)),
        "ratio");
  m.add("core.exec_residual_ms_per_query",
        ratio(residual_ms, q), "ms");
  m.add("obs.span_encode_ms_per_query", per_q("obs.span_encode"), "ms");
  m.add("obs.spans_per_query", ratio(static_cast<double>(t.spans), q),
        "count");
  m.add("obs.tracing_overhead_ms_per_query",
        ratio(t.traced_ms - t.untraced_ms, q), "ms");
}

/// Encodes a library span session the way a --trace sink would, under an
/// "obs.span_encode" span.
void encode_session(const obs::TraceSession& session, SpanLog& log,
                    std::size_t parent, std::uint64_t op, LayerTally& t) {
  const std::size_t span = log.open("obs.span_encode", parent, op);
  std::ostringstream out;
  obs::write_spans(out, session);
  log.close(span);
  t.spans += session.size();
}

// ---- Closed-loop workloads (paper-mix, impute-heavy). --------------------

struct Case {
  SynthFederation synth;
  QueryResult reference;
  std::unique_ptr<ImputeModel> model;
  /// Certain entities of the clean twin's complete-data answer (IM only).
  std::set<std::uint64_t> truth;
};

struct Op {
  std::size_t case_index;
  StrategyKind kind;
};

/// The query shape of case `i` (its chain length and each class's predicate
/// count): a Table-2 draw from its own stream under kShapeSeed, except that
/// the chain length walks `config`'s class-count range in turn.
std::vector<int> case_shape(ParamConfig config, std::size_t i) {
  const auto levels = static_cast<std::size_t>(config.n_classes.second -
                                               config.n_classes.first + 1);
  const int classes = config.n_classes.first + static_cast<int>(i % levels);
  config.n_classes = {classes, classes};
  Rng rng(derive_stream(kShapeSeed, i));
  std::vector<int> shape;
  for (const auto& cls : draw_sample(config, rng).classes)
    shape.push_back(cls.n_preds);
  return shape;
}

/// The drawn sample of case `i`: a Table-2 draw from the case's own streams
/// under `seed`, conditioned on the case's fixed shape by redrawing until
/// the shape matches (parameter draws only, no data). Every seed then runs
/// the same query shapes, which decide most of both host cost and the
/// answer's certain share, and the seed varies everything else.
SampleParams draw_case(ParamConfig config, std::uint64_t seed,
                       std::size_t i) {
  const std::vector<int> shape = case_shape(config, i);
  config.n_classes = {static_cast<int>(shape.size()),
                      static_cast<int>(shape.size())};
  for (std::uint64_t attempt = 0; attempt < kMaxShapeDraws; ++attempt) {
    Rng rng(derive_stream(derive_stream(seed, i), attempt));
    SampleParams sample = draw_sample(config, rng);
    if (std::equal(shape.begin(), shape.end(), sample.classes.begin(),
                   sample.classes.end(), [](int preds, const auto& cls) {
                     return preds == cls.n_preds;
                   }))
      return sample;
  }
  throw std::runtime_error("no draw of case " + std::to_string(i) +
                           " matches its shape");
}

/// The clean twin of a drawn sample: R_m forced to zero everywhere. The
/// injection draws follow every canonical draw, so the twin holds the same
/// entities and only the value nulls differ.
SampleParams clean_twin(SampleParams sample) {
  for (auto& cls : sample.classes)
    for (auto& db : cls.dbs) db.extra_missing = 0;
  return sample;
}

struct ClosedLoopSpec {
  ParamConfig config;
  /// Cases per block: a whole number of case_shape's chain-length cycles.
  std::size_t block_cases = 0;
  std::size_t blocks = 0;
  bool impute = false;
  /// Strategies of each round; a pass runs every round over every case.
  std::vector<std::vector<StrategyKind>> rounds;
};

class ClosedLoop {
 public:
  ClosedLoop(const ClosedLoopSpec& spec, const RunOptions& options)
      : spec_(spec), options_(options), log_(Clock::now()) {}

  RunResult run() {
    // Blocks run one after another, each built, warmed and timed for its
    // share of the seconds, then released: memory holds one block, and
    // setup_s is the median of the blocks' set-up times.
    std::vector<double> block_setup_s, block_setup_ref_s;
    std::uint64_t op_id = 0;
    for (std::size_t block = 0; block < spec_.blocks; ++block) {
      const auto [setup_s, setup_ref_s] = build_block(block);
      block_setup_s.push_back(setup_s);
      block_setup_ref_s.push_back(setup_ref_s);
      std::vector<Op> pass;
      for (const auto& round : spec_.rounds)
        for (std::size_t c = 0; c < cases_.size(); ++c)
          for (const StrategyKind kind : round) pass.push_back(Op{c, kind});

      // First pass: every distinct op once, untimed. It warms the lazily
      // built columnar mirrors and gives the deterministic simulated
      // figures.
      std::set<std::pair<std::size_t, StrategyKind>> seen;
      for (const Op& op : pass)
        if (seen.insert({op.case_index, op.kind}).second) first_pass(op);

      const double budget_ms =
          options_.seconds * 1e3 / static_cast<double>(spec_.blocks);
      std::vector<double> best_ms(pass.size(), kNever);
      const Clock::time_point begin = Clock::now();
      for (int passes = 0; passes < min_passes(options_) ||
                           ms_between(begin, Clock::now()) < budget_ms;
           ++passes) {
        for (std::size_t k = 0; k < pass.size(); ++k) {
          if (options_.trace)
            traced_op(pass[k], op_id++);
          else
            timed_op(pass[k], best_ms[k]);
        }
      }
      if (!options_.trace) {
        host_.op_ms.insert(host_.op_ms.end(), best_ms.begin(),
                           best_ms.end());
        host_.queries += static_cast<double>(pass.size());
      }
    }
    host_.setup_s = median(block_setup_s);
    host_.setup_ref_s = median(block_setup_ref_s);
    layers_.materialize_ms = mean(materialize_ms_);
    layers_.impute_build_ms = mean(build_ms_);

    RunResult result;
    finish_impute_check(result);
    result.attempted = checks_.attempted;
    result.failed = checks_.failed;
    result.correct = result.correct && checks_.failed == 0;
    if (options_.trace) {
      add_layers(result.metrics, layers_, log_, "core.execute_strategy");
      if (!options_.spans_path.empty() && !log_.write(options_.spans_path))
        throw std::runtime_error("cannot write " + options_.spans_path);
    } else {
      double response_s = 0;
      for (const double ms : sim_.latency_ms) response_s += ms / 1e3;
      add_e2e(result.metrics, result.as_measured, host_, sim_, checks_,
              ratio(static_cast<double>(sim_.queries), response_s));
    }
    return result;
  }

 private:
  /// Builds block `block` (cases block * size .. + size - 1) and returns
  /// its set-up time in seconds, as measured and at the reference speed:
  /// materialize_sample, plus ImputeModel::build when the workload imputes,
  /// summed over the cases. The answer oracles are built after, outside the
  /// set-up time, since they are the benchmark's checks.
  std::pair<double, double> build_block(std::size_t block) {
    oracles_.clear();
    cases_.clear();
    const std::size_t first = block * spec_.block_cases;
    double setup_ms = 0, setup_ref_ms = 0;
    for (std::size_t i = first; i < first + spec_.block_cases; ++i) {
      const double probe_ms = host_.setup_probe.sample();
      const Clock::time_point start = Clock::now();
      Case c;
      const SampleParams sample = draw_case(spec_.config, options_.seed, i);
      double ms = 0;
      c.synth = time_into(ms, [&] { return materialize_sample(sample); });
      materialize_ms_.push_back(ms);
      if (spec_.impute) {
        ms = 0;
        c.model = time_into(ms, [&] {
          return std::make_unique<ImputeModel>(
              ImputeModel::build(*c.synth.federation));
        });
        build_ms_.push_back(ms);
      }
      cases_.push_back(std::move(c));
      const double case_ms = ms_between(start, Clock::now());
      setup_ms += case_ms;
      setup_ref_ms += SpeedProbe::at_reference(case_ms, probe_ms);
    }

    for (std::size_t c = 0; c < cases_.size(); ++c) {
      Case& k = cases_[c];
      k.reference = reference_answer(*k.synth.federation, k.synth.query);
      oracles_.push_back(k.model ? std::make_unique<CountingOracle>(*k.model)
                                 : nullptr);
      if (!spec_.impute) continue;
      const SynthFederation clean = materialize_sample(
          clean_twin(draw_case(spec_.config, options_.seed, first + c)));
      for (const ResultRow& row :
           reference_answer(*clean.federation, clean.query).rows)
        if (row.status == ResultStatus::Certain)
          k.truth.insert(row.entity.value());
    }
    return {setup_ms / 1e3, setup_ref_ms / 1e3};
  }

  /// The library's default options, plus the model for IM.
  StrategyOptions exec_options(const Op& op, const ImputeOracle* oracle) const {
    StrategyOptions exec;
    if (op.kind == StrategyKind::IM) {
      exec.impute = oracle;
      exec.impute_threshold = kImputeThreshold;
    }
    return exec;
  }

  /// Executes one op; false when it throws.
  bool execute(const Op& op, const StrategyOptions& exec,
               StrategyReport& report) const {
    const Case& c = cases_[op.case_index];
    try {
      report =
          execute_strategy(op.kind, *c.synth.federation, c.synth.query, exec);
      return true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: %s on case %zu threw: %s\n",
                   std::string(to_string(op.kind)).c_str(), op.case_index,
                   e.what());
      return false;
    }
  }

  /// The per-op gate: certifying answers equal reference_answer; IM rows
  /// pool into the run-level precision check.
  void check(const Op& op, bool ran, const StrategyReport& report) {
    if (!ran) {
      checks_.op(false);
      return;
    }
    const Case& c = cases_[op.case_index];
    if (op.kind != StrategyKind::IM) {
      checks_.op(report.result == c.reference);
      return;
    }
    ++im_ops_;
    checks_.op(true);
    for (const ResultRow& row : report.result.rows) {
      if (row.status != ResultStatus::Certain ||
          row.confidence < kImputeThreshold)
        continue;
      confident_ += 1;
      confident_correct_ += c.truth.count(row.entity.value()) ? 1 : 0;
    }
  }

  /// IM's run-level gate, as bench_impute applies it: confident-row
  /// precision against the clean twin must reach the threshold.
  void finish_impute_check(RunResult& result) {
    if (im_ops_ == 0 || confident_correct_ >= kImputeThreshold * confident_)
      return;
    std::fprintf(stderr,
                 "perfbench: IM confident-row precision %.4f below %.2f\n",
                 ratio(confident_correct_, confident_), kImputeThreshold);
    checks_.failed += im_ops_;
    result.correct = false;
  }

  void first_pass(const Op& op) {
    StrategyReport report;
    const bool ran = execute(
        op, exec_options(op, cases_[op.case_index].model.get()), report);
    check(op, ran, report);
    if (!ran) return;
    sim_.latency_ms.push_back(to_milliseconds(report.response_ns));
    sim_.total_ms += to_milliseconds(report.total_ns);
    sim_.wire_kb += static_cast<double>(report.bytes_transferred) / 1e3;
    sim_.messages += static_cast<double>(report.messages);
    sim_.add_rows(report.result);
    ++sim_.queries;
  }

  /// Times one op, keeping its fastest time in `best_ms`.
  void timed_op(const Op& op, double& best_ms) {
    const StrategyOptions exec =
        exec_options(op, cases_[op.case_index].model.get());
    StrategyReport report;
    host_.probe.maybe_sample();
    const Clock::time_point start = Clock::now();
    const bool ran = execute(op, exec, report);
    best_ms = std::min(best_ms, ms_between(start, Clock::now()));
    check(op, ran, report);
  }

  /// The traced op: the traced execution under an op span — library spans
  /// on, decide() counted through the forwarding oracle — then its layer
  /// replays; and beside them the untraced execution for the overhead
  /// figure, before on even op ids and after on odd ones, so neither side
  /// always runs on the warmer caches.
  void traced_op(const Op& op, std::uint64_t id) {
    const Case& c = cases_[op.case_index];
    StrategyReport report;
    const auto untraced = [&] {
      const Clock::time_point start = Clock::now();
      check(op, execute(op, exec_options(op, c.model.get()), report), report);
      layers_.untraced_ms += ms_between(start, Clock::now());
    };
    if (id % 2 == 0) untraced();
    CountingOracle* oracle = oracles_[op.case_index].get();
    if (oracle != nullptr) oracle->reset();
    obs::TraceSession session;
    StrategyOptions exec = exec_options(op, oracle);
    exec.trace_session = &session;

    const std::size_t op_span = log_.open("op", SpanLog::kNoParent, id);
    const std::size_t exec_span =
        log_.open("core.execute_strategy", op_span, id);
    const bool ran = execute(op, exec, report);
    log_.close(exec_span);
    const double exec_ms =
        ms_between(log_.start_of(exec_span), Clock::now());
    layers_.traced_ms += exec_ms;
    if (op.kind == StrategyKind::IM && oracle != nullptr) {
      // One span per op for the summed decide() time: ~10^4 calls per
      // query make per-call spans heavier than the work they describe.
      const Clock::time_point start = log_.start_of(exec_span);
      log_.record("analytic.impute_decide", exec_span, id, start,
                  start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double, std::milli>(
                                  oracle->ms())));
      layers_.decide_calls += oracle->calls();
      layers_.imputed += report.imputed_atoms;
      layers_.declined += report.impute_declined;
    }
    check(op, ran, report);
    encode_session(session, log_, op_span, id, layers_);
    replay_layers(op.kind, *c.synth.federation, c.synth.query,
                  op.kind == StrategyKind::IM ? c.model.get() : nullptr,
                  kImputeThreshold, log_, op_span, id, layers_.counts);
    log_.close(op_span);
    ++layers_.queries;
    if (id % 2 == 1) untraced();
  }

  ClosedLoopSpec spec_;
  RunOptions options_;
  std::vector<Case> cases_;
  std::vector<std::unique_ptr<CountingOracle>> oracles_;
  std::vector<double> materialize_ms_;
  std::vector<double> build_ms_;
  Checks checks_;
  SimTally sim_;
  HostTally host_;
  LayerTally layers_;
  SpanLog log_;
  std::uint64_t im_ops_ = 0;
  double confident_ = 0;
  double confident_correct_ = 0;
};

// ---- serve-open. ----------------------------------------------------------

struct ServeFederation {
  SynthFederation synth;
  std::vector<serve::ServeRequest> pool;
  std::vector<QueryResult> references;  ///< aligned with pool
  std::vector<double> solo_ms;  ///< simulated solo response, per pool entry
  double mean_solo_ms = 0;
  double capacity_qps = 0;  ///< kServeInflight / mean solo response
};

ParamConfig serve_config() {
  // bench_serve's federation at its default scale 0.1.
  ParamConfig config;
  config.n_classes = {3, 4};
  config.n_preds = {1, 3};
  config.n_targets = {1, 2};
  config.n_objects = {500, 600};
  return config;
}

serve::ServeSpec serve_spec(double rate_qps, std::uint64_t seed) {
  serve::ServeSpec spec;
  spec.mode = serve::ArrivalMode::Open;
  spec.rate_qps = rate_qps;
  spec.n_queries = kServeSubmissions;
  spec.policy = serve::SchedPolicy::Spc;
  spec.queue_limit = kServeQueueLimit;
  spec.site_inflight = kServeInflight;
  spec.seed = seed;
  return spec;
}

/// One serve() run over a fresh certificate cache: the run writes
/// certificates back cold and hits them warm.
serve::ServeReport serve_once(const ServeFederation& f,
                              const serve::ServeSpec& spec,
                              std::vector<obs::TraceSession>* sessions =
                                  nullptr) {
  CertCache cache;
  serve::ServeOptions options;
  options.exec.cert_cache = &cache;
  options.sessions = sessions;
  return serve::serve(*f.synth.federation, f.pool, spec, options);
}

/// sim_capacity_qps: every federation is offered the same fraction of its
/// calibrated capacity, and at each rung the slowdowns of all federations'
/// submissions (latency over the query's own solo response) pool into one
/// p90. Slowdowns, unlike raw latencies, do not swing with which pool
/// queries the arrivals happened to pick. The capacity is the highest
/// fraction whose pooled p90 stays within the limit with no rejection,
/// interpolated between the last rung that passes and the first whose p90
/// overshoots (so the figure moves smoothly with the latencies instead of
/// jumping a rung), reported as the mean offered rate per federation at
/// that fraction.
double ladder_capacity(const std::vector<ServeFederation>& feds,
                       std::uint64_t seed) {
  double last_fraction = 0, last_p90 = 0, fraction_met = 0;
  for (const double fraction : kServeLadder) {
    std::vector<double> slowdowns;
    bool rejected = false;
    for (std::size_t i = 0; i < feds.size(); ++i)
      for (std::size_t j = 0; j < kLadderSchedules; ++j) {
        const serve::ServeReport report = serve_once(
            feds[i], serve_spec(fraction * feds[i].capacity_qps,
                                derive_stream(derive_stream(seed, i),
                                              100 + j)));
        rejected = rejected || report.rejected > 0;
        for (const serve::ServeOutcome& o : report.outcomes)
          if (!o.rejected)
            slowdowns.push_back(to_milliseconds(o.latency()) /
                                feds[i].solo_ms[o.pool_index]);
      }
    const double p90 = percentile(slowdowns, 0.90);
    if (rejected) break;
    if (p90 > kServeLimitSlowdown) {
      fraction_met = last_fraction + (fraction - last_fraction) *
                                         (kServeLimitSlowdown - last_p90) /
                                         (p90 - last_p90);
      break;
    }
    last_fraction = fraction_met = fraction;
    last_p90 = p90;
  }
  double capacity = 0;
  for (const ServeFederation& f : feds) capacity += f.capacity_qps;
  return fraction_met * capacity / static_cast<double>(feds.size());
}

}  // namespace

RunResult run_serve_open(const RunOptions& options) {
  LayerTally layers;
  HostTally host;
  std::vector<ServeFederation> feds;
  std::vector<double> materialize_ms, plan_ms;
  // The deployment is small, so set-up repeats kServeSetupReps times and
  // setup_s is the median; the last build stays in place.
  std::vector<double> setup_s, setup_ref_s;
  for (std::size_t rep = 0; rep < kServeSetupReps; ++rep) {
    feds.clear();
    const double probe_ms = host.setup_probe.sample();
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < kServeFederations; ++i) {
      ServeFederation f;
      const SampleParams sample = draw_case(serve_config(), kServeDataSeed, i);
      double ms = 0;
      f.synth = time_into(ms, [&] { return materialize_sample(sample); });
      materialize_ms.push_back(ms);
      Rng pool_rng(derive_stream(derive_stream(kServeDataSeed, i), 1));
      const std::vector<GlobalQuery> queries =
          workload::derive_query_pool(f.synth.query, kServePool, pool_rng);
      ms = 0;
      f.pool = time_into(ms, [&] {
        return serve::plan_pool(*f.synth.federation, queries);
      });
      plan_ms.push_back(ms);
      feds.push_back(std::move(f));
    }
    const double rep_s = ms_between(start, Clock::now()) / 1e3;
    setup_s.push_back(rep_s);
    setup_ref_s.push_back(SpeedProbe::at_reference(rep_s, probe_ms));
  }
  host.setup_s = median(setup_s);
  host.setup_ref_s = median(setup_ref_s);
  layers.materialize_ms = mean(materialize_ms);
  layers.plan_pool_ms = mean(plan_ms);

  // Oracles and rate calibration, outside set-up: solo responses of the
  // pool (as bench_serve calibrates), then the capacity ladder.
  for (ServeFederation& f : feds) {
    for (const serve::ServeRequest& request : f.pool) {
      f.references.push_back(
          reference_answer(*f.synth.federation, request.query));
      f.solo_ms.push_back(to_milliseconds(
          execute_strategy(request.kind, *f.synth.federation, request.query)
              .response_ns));
    }
    f.mean_solo_ms = mean(f.solo_ms);
    f.capacity_qps = static_cast<double>(kServeInflight) /
                     (f.mean_solo_ms / 1e3);
  }
  // The ladder's arrival draws are fixed with the deployment: with the
  // seed's own draws, the figure swung by a quarter between seeds (the p90
  // near the knee is dominated by a few bursty schedules), wider than any
  // regression it should catch.
  const double capacity_qps = ladder_capacity(feds, kServeDataSeed);

  struct Run {
    std::size_t fed;
    serve::ServeSpec spec;
  };
  std::vector<Run> pass;
  for (std::size_t j = 0; j < kServeSchedules; ++j)
    for (std::size_t i = 0; i < feds.size(); ++i)
      pass.push_back(Run{
          i, serve_spec(kServeDesignFraction * feds[i].capacity_qps,
                        derive_stream(derive_stream(options.seed, i), j))});

  Checks checks;
  const auto check = [&](const Run& run, const serve::ServeReport& report) {
    const ServeFederation& f = feds[run.fed];
    for (const serve::ServeOutcome& o : report.outcomes)
      checks.op(!o.rejected && o.result == f.references[o.pool_index]);
  };

  // First pass: untimed warm-up and the deterministic simulated figures.
  // The certain-row share counts each pool query's answer once, so the
  // random pick mix does not weigh it.
  SimTally sim;
  std::set<std::pair<std::size_t, std::size_t>> answered;
  for (const Run& run : pass) {
    const serve::ServeReport report = serve_once(feds[run.fed], run.spec);
    check(run, report);
    for (const serve::ServeOutcome& o : report.outcomes) {
      if (o.rejected) continue;
      sim.latency_ms.push_back(to_milliseconds(o.latency()));
      if (answered.insert({run.fed, o.pool_index}).second)
        sim.add_rows(o.result);
      layers.queue_wait_ms.push_back(to_milliseconds(o.queue_wait()));
    }
    sim.total_ms += to_milliseconds(report.total_busy_ns);
    sim.wire_kb += static_cast<double>(report.bytes_transferred) / 1e3;
    sim.messages += static_cast<double>(report.messages);
    sim.queries += report.completed;
    layers.cert_hits += report.cert_hits;
    layers.cert_misses += report.cert_misses;
  }

  SpanLog log(Clock::now());
  std::uint64_t op_id = 0;
  std::vector<double> best_ms(pass.size(), kNever);
  const Clock::time_point begin = Clock::now();
  for (int passes = 0;
       passes < min_passes(options) ||
       ms_between(begin, Clock::now()) < options.seconds * 1e3;
       ++passes) {
    for (std::size_t k = 0; k < pass.size(); ++k) {
      const Run& run = pass[k];
      const ServeFederation& f = feds[run.fed];
      if (!options.trace) {
        host.probe.maybe_sample();
        const Clock::time_point start = Clock::now();
        const serve::ServeReport report = serve_once(f, run.spec);
        best_ms[k] = std::min(best_ms[k], ms_between(start, Clock::now()));
        check(run, report);
        continue;
      }
      // As on the closed loops: the untraced twin runs before the traced
      // op on even ids and after it on odd ones.
      const std::uint64_t id = op_id++;
      const auto untraced = [&] {
        const Clock::time_point start = Clock::now();
        check(run, serve_once(f, run.spec));
        layers.untraced_ms += ms_between(start, Clock::now());
      };
      if (id % 2 == 0) untraced();
      std::vector<obs::TraceSession> sessions;
      const std::size_t op_span = log.open("op", SpanLog::kNoParent, id);
      const std::size_t serve_span = log.open("serve.serve", op_span, id);
      const serve::ServeReport report = serve_once(f, run.spec, &sessions);
      log.close(serve_span);
      layers.traced_ms += ms_between(log.start_of(serve_span), Clock::now());
      check(run, report);
      for (const obs::TraceSession& session : sessions)
        encode_session(session, log, op_span, id, layers);
      for (const serve::ServeOutcome& o : report.outcomes) {
        if (o.rejected) continue;
        replay_layers(o.kind, *f.synth.federation, f.pool[o.pool_index].query,
                      nullptr, 1.0, log, op_span, id, layers.counts);
        ++layers.queries;
      }
      log.close(op_span);
      if (id % 2 == 1) untraced();
    }
  }
  host.op_ms = std::move(best_ms);
  host.queries = static_cast<double>(sim.queries);

  RunResult result;
  result.attempted = checks.attempted;
  result.failed = checks.failed;
  result.correct = checks.failed == 0;
  if (options.trace) {
    add_layers(result.metrics, layers, log, "serve.serve");
    if (!options.spans_path.empty() && !log.write(options.spans_path))
      throw std::runtime_error("cannot write " + options.spans_path);
  } else {
    add_e2e(result.metrics, result.as_measured, host, sim, checks,
            capacity_qps);
  }
  return result;
}

RunResult run_paper_mix(const RunOptions& options) {
  ClosedLoopSpec spec;  // Table-2 defaults: the Fig. 9 default point
  spec.block_cases = 16;  // 4 chain lengths x 4 shapes
  spec.blocks = kPaperBlocks;
  spec.rounds = {{StrategyKind::CA, StrategyKind::BL, StrategyKind::PL}};
  return ClosedLoop(spec, options).run();
}

RunResult run_impute_heavy(const RunOptions& options) {
  ClosedLoopSpec spec;
  spec.config.forced_missing_rate = kImputeMissingRate;
  spec.config.n_objects = kImputeObjects;
  spec.block_cases = 12;  // 4 chain lengths x 3 shapes
  spec.blocks = kImputeBlocks;
  spec.impute = true;
  spec.rounds.push_back({StrategyKind::BL, StrategyKind::IM});
  for (int r = 1; r < kImputeBlRounds; ++r)
    spec.rounds.push_back({StrategyKind::BL});
  return ClosedLoop(spec, options).run();
}

}  // namespace perfbench
