// A forwarding ImputeOracle: counts and times every decide() call and
// delegates to the wrapped ImputeModel, so the analytic layer's share of an
// IM execution is measured from outside the library.
#pragma once

#include <cstdint>

#include "bench_util.hpp"
#include "isomer/analytic/impute.hpp"

namespace perfbench {

class CountingOracle final : public isomer::ImputeOracle {
 public:
  explicit CountingOracle(const isomer::ImputeOracle& inner) : inner_(inner) {}

  [[nodiscard]] Decision decide(const isomer::Federation& federation,
                                const isomer::GlobalQuery& query,
                                isomer::GOid item, std::size_t predicate,
                                std::size_t step, isomer::DbId home,
                                bool mar) const override {
    const Clock::time_point start = Clock::now();
    Decision decision =
        inner_.decide(federation, query, item, predicate, step, home, mar);
    ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start)
               .count();
    ++calls_;
    return decision;
  }

  [[nodiscard]] std::uint64_t calls() const noexcept { return calls_; }
  [[nodiscard]] double ms() const noexcept {
    return static_cast<double>(ns_) / 1e6;
  }
  void reset() noexcept { calls_ = 0, ns_ = 0; }

 private:
  const isomer::ImputeOracle& inner_;
  // decide() is const in the interface; the tallies are bookkeeping only.
  mutable std::uint64_t calls_ = 0;
  mutable std::int64_t ns_ = 0;
};

}  // namespace perfbench
