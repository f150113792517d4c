// Navigation kernels, written once for both storages.
//
// A k-step predicate is evaluated over a whole candidate list bottom-up:
// the rows of the extent read at a start step (every root, or the listed
// assistants from an unsolved step). Its path is walked once for every
// candidate through single-reference columns, and the selection-vector
// kernel (query/kernels.hpp) compares the terminal column of the candidates
// that reach it. Each distinct path segment from the start is one *reach*,
// shared by every predicate on it. A reach records, per candidate, where
// the walk stands: live at a row of the segment's last step extent, or
// stopped at a step on a schema-missing attribute, a null or a dangling
// reference. Either way `holder` names the last object reached — the gap's
// holder when the walk stopped — exactly as query/navigate.hpp's row walk
// reports it. A predicate the reaches cannot mirror takes that walk per
// candidate; every choice is made before anything is charged, and the bulk
// charges are the walk's totals.
//
// The reaches run at a component database (core/local_exec.cpp) and over the
// integrated view at the global site (federation/materializer.cpp). Each
// supplies a storage policy `P` with
//   Extent, Holder          an extent and the id of a holder;
//   AccessMeter* meter      null charges nothing;
//   extent(p, step)         the extent predicate `p` reads at `step`, null
//                           when this storage has none;
//   link(base, p, step)     the single-reference column `p` follows from
//                           `base` at `step`; nullopt when only the walk
//                           reproduces the step (a reference set);
//   hop(link, row)          where row `row` of that column leads, a Hop with
//                           a null extent when the walk stops there;
//   column(reach, p, step)  the terminal column `p` compares at `step`;
//                           nullopt when nothing is compared there;
//   charge(reach)           charges a reach's live objects as the walk's
//                           fetches; true when it (and so its ancestors)
//                           was charged already.
// A hop into an extent other than the step's makes the segment unmirrored.
#pragma once

#include <cstdint>
#include <numeric>
#include <optional>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "isomer/query/kernels.hpp"
#include "isomer/query/navigate.hpp"

namespace isomer {

/// Where one reference leads: a row of `extent` and its holder id; a null
/// extent stops the walk, and the referrer holds the gap.
template <class Extent, class Holder>
struct PathHop {
  const Extent* extent = nullptr;
  std::uint32_t row = 0;
  Holder holder{};
};

/// The indices 0 .. n-1: every row of an extent, or every predicate.
inline std::vector<std::uint32_t> every_index(std::size_t n) {
  std::vector<std::uint32_t> rows(n);
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

/// The walk of one path segment for every candidate.
template <class Extent, class Holder>
struct PathReach {
  static constexpr std::uint32_t kLive = UINT32_MAX;
  std::size_t parent = 0;   ///< the segment one step shorter
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

  /// Index 0 is the empty segment: candidate c live at row rows[c] of
  /// `start`, the extent read at step `first`, holding holders[c].
  Reaches(Policy policy, const Extent& start, std::size_t first,
          std::vector<std::uint32_t> rows, std::vector<Holder> holders)
      : policy_(std::move(policy)), first_(first) {
    Reach& all = reaches_.emplace_back();
    all.extent = &start;
    const auto n = static_cast<std::uint32_t>(rows.size());
    all.stop.assign(n, Reach::kLive);
    all.live.reserve(n);
    for (std::uint32_t c = 0; c < n; ++c) all.live.push_back(c);
    dense_ = rows == all.live && n == start.size();
    all.rows = std::move(rows);
    all.holder = std::move(holders);
  }

  /// Evaluates each predicate of `preds` (indices into `predicates`) on
  /// every candidate: out[i][c] is predicate preds[i] on candidate c, the
  /// row walk's outcome. A predicate the reaches cannot mirror calls
  /// `walk(p, c)` for each candidate instead.
  template <class Walk>
  std::vector<std::vector<NavOutcome<Holder>>> evaluate(
      const std::vector<Predicate>& predicates,
      std::span<const std::uint32_t> preds, Walk walk) {
    const std::size_t n = reaches_[0].stop.size();
    // Every choice first: (reach, terminal column), or the walk.
    using Terminal = std::optional<ColumnarExtent::Column>;
    std::vector<std::optional<std::pair<std::size_t, Terminal>>> bulk(
        preds.size());
    for (std::size_t i = 0; i < preds.size() && n != 0; ++i) {
      const Predicate& pred = predicates[preds[i]];
      const std::size_t last = pred.path.length() - 1;
      const auto at = prefix(preds[i], pred.path, last);
      if (!at) continue;
      const Terminal col = policy_.column(reaches_[*at], preds[i], last);
      if (!col || kernel_applicable(col->kind, pred.op, pred.literal))
        bulk[i].emplace(*at, col);
    }
    std::vector<std::vector<NavOutcome<Holder>>> out(preds.size());
    std::vector<Truth> truths, live;
    for (std::size_t i = 0; i < preds.size(); ++i) {
      out[i].reserve(n);
      if (!bulk[i]) {
        for (std::size_t c = 0; c < n; ++c) out[i].push_back(walk(preds[i], c));
        continue;
      }
      const Predicate& pred = predicates[preds[i]];
      const auto& [at, col] = *bulk[i];
      const Reach& reach = reaches_[at];
      truths.assign(n, Truth::Unknown);
      if (col && at == 0 && dense_) {  // the whole extent, in order
        eval_predicate_column(*col, n, pred.op, pred.literal, truths.data());
      } else if (col) {
        live.resize(reach.live.size());
        eval_predicate_column(*col, reach.rows, pred.op, pred.literal,
                              live.data());
        for (std::size_t j = 0; j < live.size(); ++j)
          truths[reach.live[j]] = live[j];
      }
      if (policy_.meter != nullptr) {
        std::size_t j = at;
        while (j != 0 && !policy_.charge(reaches_[j])) j = reaches_[j].parent;
        // One comparison per arrival at a present terminal attribute,
        // nulls included (apply() still runs).
        if (col) policy_.meter->comparisons += reach.live.size();
      }
      for (std::size_t c = 0; c < n; ++c) {
        auto& outcome = out[i].emplace_back();
        outcome.truth = truths[c];
        if (!is_unknown(truths[c])) continue;
        outcome.holder = reach.holder[c];
        outcome.step = reach.stop[c] == Reach::kLive ? pred.path.length() - 1
                                                     : reach.stop[c];
      }
    }
    return out;
  }

 private:
  /// The reach of predicate `p` from the start step up to (not including)
  /// step `depth`, built on first use; nullopt when a step needs the walk.
  std::optional<std::size_t> prefix(std::size_t p, const PathExpr& path,
                                    std::size_t depth) {
    std::size_t at = 0;
    for (std::size_t step = first_; step < depth; ++step) {
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
  std::size_t first_ = 0;  ///< the start step
  bool dense_ = false;     ///< the candidates are the start extent's rows
  std::vector<Reach> reaches_;
};

}  // namespace isomer
