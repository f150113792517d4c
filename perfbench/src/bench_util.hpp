// Shared plumbing of the benchmark program: host clocks, order statistics,
// peak memory, the metric list printed as the result line, and the
// benchmark-owned span log of the traced run.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank percentile (q in (0, 1]); 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  return values[rank - 1];
}

[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den == 0 ? 0 : num / den;
}

[[nodiscard]] inline double mean(const std::vector<double>& values) {
  double total = 0;
  for (const double v : values) total += v;
  return ratio(total, static_cast<double>(values.size()));
}

/// Peak resident set size of this process so far, in MB.
[[nodiscard]] inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A machine-speed yardstick: a fixed hash-table and sort loop over its
/// own preallocated memory, using nothing of the library and allocating
/// nothing, so no library change can move it. On a machine shared with
/// other tenants the whole machine's speed drifts by tens of percent over
/// minutes; sampling the probe throughout a run and scaling the run's host
/// times by kReferenceMs / (its median probe time) reports them at one
/// reference speed, which takes that drift out while leaving every change
/// to the library's own speed in.
class SpeedProbe {
 public:
  /// About the probe's time on the machine the benchmark was tuned on
  /// (4-vCPU shared virtual machine, 2.1 GHz Xeon).
  static constexpr double kReferenceMs = 2.0;

  SpeedProbe() : table_(2 * kKeys), keys_(kKeys) {}

  /// Samples the probe when at least kIntervalMs passed since the last
  /// sample (about 2% of a run's time).
  void maybe_sample() {
    if (!samples_.empty() && ms_between(last_, Clock::now()) < kIntervalMs)
      return;
    sample();
  }

  /// Samples the probe now and returns the sample's time in ms. The loop
  /// runs once untimed first, refilling its buffers in the caches, so the
  /// timed run does not depend on how much memory the code before it
  /// touched.
  double sample() {
    run_once();
    const Clock::time_point start = Clock::now();
    run_once();
    last_ = Clock::now();
    samples_.push_back(ms_between(start, last_));
    return samples_.back();
  }

  /// Median probe time over the run, in ms.
  [[nodiscard]] double median_ms() const { return median(samples_); }
  /// Converts this run's host times to the reference speed.
  [[nodiscard]] double scale() const {
    return samples_.empty() ? 1.0 : kReferenceMs / median_ms();
  }
  /// Converts a host time taken right after a sample of `probe_ms`.
  [[nodiscard]] static double at_reference(double ms, double probe_ms) {
    return ms * kReferenceMs / probe_ms;
  }

 private:
  static constexpr double kIntervalMs = 100;
  static constexpr std::size_t kKeys = 1 << 14;

  void run_once() {
    std::fill(table_.begin(), table_.end(), 0);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    for (std::uint64_t& key : keys_) {
      x ^= x << 13, x ^= x >> 7, x ^= x << 17;
      key = x | 1;  // 0 marks an empty slot
      std::size_t slot = key % table_.size();
      while (table_[slot] != 0) slot = (slot + 1) % table_.size();
      table_[slot] = key;
    }
    std::sort(keys_.begin(), keys_.end());
    std::uint64_t sum = 0;
    for (const std::uint64_t key : keys_) {
      std::size_t slot = key % table_.size();
      while (table_[slot] != key) slot = (slot + 1) % table_.size();
      sum += slot;
    }
    sink_ = sum;
  }

  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> keys_;
  std::vector<double> samples_;
  Clock::time_point last_{};
  volatile std::uint64_t sink_ = 0;  // keeps the loop's work observable
};

/// The metrics of one run, in print order.
class MetricList {
 public:
  void add(std::string name, double value, std::string unit) {
    items_.push_back({std::move(name), value, std::move(unit)});
  }

  /// One human-readable line per metric (stderr keeps stdout's last line
  /// the result object).
  void print_table(std::FILE* out) const {
    for (const Item& item : items_)
      std::fprintf(out, "  %-42s %16.6f %s\n", item.name.c_str(), item.value,
                   item.unit.c_str());
  }

  /// The result object's "metrics" member body.
  [[nodiscard]] std::string json() const {
    std::string out = "{";
    char buf[128];
    for (std::size_t i = 0; i < items_.size(); ++i) {
      std::snprintf(buf, sizeof buf, "%.17g", items_[i].value);
      out += (i ? ", \"" : "\"") + items_[i].name + "\": {\"value\": " + buf +
             ", \"unit\": \"" + items_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Benchmark-owned spans of the traced run: name, start, end, parent and
/// op id, kept in memory and written out when the run ends. Names are the
/// per-layer metric stems ("store.local_scan", "core.certify", ...).
class SpanLog {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  /// Opens a span starting now; close() sets its end. Returns its index,
  /// the id its children name as their parent.
  std::size_t open(const char* name, std::size_t parent, std::uint64_t op) {
    const Clock::time_point now = Clock::now();
    return record(name, parent, op, now, now);
  }
  void close(std::size_t span) { spans_[span].end = Clock::now(); }

  /// Records a span with explicit bounds and returns its index.
  std::size_t record(const char* name, std::size_t parent, std::uint64_t op,
                     Clock::time_point start, Clock::time_point end) {
    spans_.push_back(Span{name, parent, op, start, end});
    return spans_.size() - 1;
  }
  [[nodiscard]] Clock::time_point start_of(std::size_t span) const {
    return spans_[span].start;
  }

  /// Self time of every span named `name`, summed: each span's duration
  /// minus the part its direct children cover.
  [[nodiscard]] double self_ms(const std::string& name) const {
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& span : spans_)
      if (span.parent != kNoParent)
        child_ms[span.parent] += ms_between(span.start, span.end);
    double total = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (name == spans_[i].name)
        total += ms_between(spans_[i].start, spans_[i].end) - child_ms[i];
    return total;
  }

  /// JSON Lines, one span per line: {"name", "id", "parent", "op",
  /// "start_us", "end_us"} with times relative to the run's start.
  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const auto us = [this](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "{\"name\": \"%s\", \"id\": %zu, \"parent\": %lld, "
                   "\"op\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}\n",
                   s.name, i,
                   s.parent == kNoParent ? -1LL
                                         : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.op), us(s.start),
                   us(s.end));
    }
    return std::fclose(out) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::size_t parent;
    std::uint64_t op;
    Clock::time_point start;
    Clock::time_point end;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
