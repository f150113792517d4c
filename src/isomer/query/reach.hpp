// Navigation kernels, written once for both storages.
//
// A k-step predicate is evaluated over a whole candidate set bottom-up: the
// path's prefix is walked once for every candidate through single-reference
// columns, and the selection-vector kernel (query/kernels.hpp) compares the
// terminal column of the candidates that reach it. Each distinct prefix is
// one *reach*, shared by every predicate on it. A reach records, per
// candidate, where the walk stands: live at a row of the prefix's last step
// extent, or stopped at a step on a schema-missing attribute, a null or a
// dangling reference. Either way `holder` names the last object reached —
// the gap's holder when the walk stopped — exactly as query/navigate.hpp's
// row walk reports it.
//
// The reaches run at a component database (core/local_exec.cpp) and over the
// integrated view at the global site (federation/materializer.cpp). Each
// supplies a storage policy `P` with
//   Extent, Holder          an extent and the id a reach records per holder;
//   extent(p, step)         the extent predicate `p` reads at `step`, null
//                           when this storage has none;
//   link(base, p, step)     the single-reference column `p` follows from
//                           `base` at `step`, as an optional: nullopt when
//                           only the row walk reproduces the step (a
//                           reference set, a non-reference column);
//   hop(link, row)          where row `row` of that column leads, a Hop with
//                           a null extent when the walk stops there.
// A hop into an extent other than the step's makes the prefix unmirrored.
// Callers charge their meters from the reaches in bulk.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "isomer/query/kernels.hpp"

namespace isomer {

/// Where one reference leads: a row of `extent` and its holder id; a null
/// extent stops the walk, and the referrer holds the gap.
template <class Extent, class Holder>
struct PathHop {
  const Extent* extent = nullptr;
  std::uint32_t row = 0;
  Holder holder{};
};

/// The walk of one path prefix for every candidate.
template <class Extent, class Holder>
struct PathReach {
  static constexpr std::uint32_t kLive = UINT32_MAX;
  std::size_t parent = 0;   ///< the prefix one step shorter
  std::string_view attr;    ///< global attribute followed from `parent`
  bool mirrored = true;     ///< false: only the row walk reproduces it
  bool admitted = false;    ///< live objects charged (storage-defined)
  const Extent* extent = nullptr;
  std::vector<std::uint32_t> live, rows;  ///< live candidates, their rows
  std::vector<Holder> holder;             ///< per candidate
  std::vector<std::uint32_t> stop;        ///< per candidate
};

/// One evaluation's reaches over a storage policy (see above).
template <class Policy>
class Reaches {
 public:
  using Extent = typename Policy::Extent;
  using Holder = typename Policy::Holder;
  using Reach = PathReach<Extent, Holder>;
  using Hop = PathHop<Extent, Holder>;

  /// Index 0 is the empty prefix: every candidate live at its own row of
  /// `root`, holding itself.
  Reaches(Policy policy, const Extent& root, std::vector<Holder> holders)
      : policy_(std::move(policy)) {
    Reach& all = reaches_.emplace_back();
    all.extent = &root;
    const auto n = static_cast<std::uint32_t>(holders.size());
    all.stop.assign(n, Reach::kLive);
    all.live.reserve(n);
    for (std::uint32_t r = 0; r < n; ++r) all.live.push_back(r);
    all.rows = all.live;
    all.holder = std::move(holders);
  }

  const Reach& operator[](std::size_t i) const { return reaches_[i]; }
  Reach& operator[](std::size_t i) { return reaches_[i]; }

  /// The reach of predicate `p`'s first `depth` steps, built on first use;
  /// nullopt when a step needs the row walk.
  std::optional<std::size_t> prefix(std::size_t p, const PathExpr& path,
                                    std::size_t depth) {
    std::size_t at = 0;
    for (std::size_t step = 0; step < depth; ++step) {
      std::size_t next = at + 1;
      while (next < reaches_.size() && (reaches_[next].parent != at ||
                                        reaches_[next].attr != path.step(step)))
        ++next;
      if (next == reaches_.size()) extend(p, path, at, step);
      if (!reaches_[next].mirrored) return std::nullopt;
      at = next;
    }
    return at;
  }

  /// The kernel's truth for every candidate at the terminal `col` of reach
  /// `i`: out[c] for each candidate c live there (out holds one Truth per
  /// candidate; stopped candidates are left as they are).
  void compare(std::size_t i, const ColumnarExtent::Column& col,
               const Predicate& pred, std::span<Truth> out) const {
    const Reach& reach = reaches_[i];
    if (i == 0) {
      eval_predicate_column(col, out.size(), pred.op, pred.literal,
                            out.data());
      return;
    }
    std::vector<Truth> live(reach.live.size());
    eval_predicate_column(col, reach.rows, pred.op, pred.literal, live.data());
    for (std::size_t c = 0; c < live.size(); ++c) out[reach.live[c]] = live[c];
  }

 private:
  /// Appends reach `from` followed one step through `step`'s attribute.
  void extend(std::size_t p, const PathExpr& path, std::size_t from,
              std::size_t step) {
    Reach next;
    next.parent = from;
    next.attr = path.step(step);
    next.extent = policy_.extent(p, step + 1);
    const Reach& base = reaches_[from];
    next.holder = base.holder;
    next.stop = base.stop;
    const auto link = policy_.link(base, p, step);
    next.mirrored = link.has_value();
    for (std::size_t i = 0; i < base.live.size() && next.mirrored; ++i) {
      const std::uint32_t c = base.live[i];
      const Hop to = policy_.hop(*link, base.rows[i]);
      if (to.extent == nullptr) {
        next.stop[c] = static_cast<std::uint32_t>(step);
      } else if (to.extent != next.extent) {
        next.mirrored = false;
      } else {
        next.holder[c] = to.holder;
        next.live.push_back(c);
        next.rows.push_back(to.row);
      }
    }
    reaches_.push_back(std::move(next));
  }

  Policy policy_;
  std::vector<Reach> reaches_;
};

}  // namespace isomer
