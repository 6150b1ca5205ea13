// 0-1 knapsack solver for placement decisions.
//
// Paper §3.1.3: "Given the DRAM size limitation, our data placement problem
// is to maximize total weights of data objects in DRAM while satisfying the
// DRAM size constraint.  This is a 0-1 knapsack problem", solved by dynamic
// programming.  Sizes are quantized to a granule so the DP table stays
// small; past a dense-cell budget a bounded 1/2-approximation (density
// greedy refined with the best single item) keeps planning online.
//
// On an N-tier machine the placement problem generalizes to a
// multiple-choice knapsack (MCKP): each unit picks *a* tier — not in/out of
// DRAM — under per-tier capacities.  solve_mckp() is exact (multi-dim DP)
// up to the same cell budget the 0-1 path uses, then degrades to a
// waterfall of per-tier solve_bounded() passes, so both entry points share
// one bounded-approximation story.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace unimem::rt {

struct KnapsackItem {
  double weight = 0;       ///< value of keeping this item in DRAM (seconds)
  std::size_t bytes = 0;   ///< item size
};

struct KnapsackResult {
  std::vector<std::size_t> selected;  ///< indices into the item array
  double total_weight = 0;
  std::size_t total_bytes = 0;
};

/// One unit in the multiple-choice (N-tier) placement problem.  weights[k]
/// is the value of placing the unit in tier k, in the same seconds currency
/// as KnapsackItem::weight; the arity must equal the capacity vector's.
struct MckpItem {
  std::vector<double> weights;
  std::size_t bytes = 0;
};

struct MckpResult {
  std::vector<int> choice;  ///< choice[i] = tier index picked for item i
  double total_weight = 0;  ///< sum of weights[i][choice[i]]
};

class KnapsackSolver {
 public:
  /// `granule` quantizes sizes for the DP (default 64 KiB).  Items with
  /// non-positive weight are never selected (placing them in DRAM cannot
  /// help); items larger than the capacity are skipped.
  explicit KnapsackSolver(std::size_t granule = 64 * 1024)
      : granule_(granule) {}

  /// Exact DP solution (rolling 1-D array, pseudo-polynomial in
  /// capacity/granule).  The capacity is pre-clamped to the candidates'
  /// total quantized size, and when everything fits no DP runs at all.
  /// Instances whose item-count x capacity product would make the dense
  /// DP table unreasonable fall back to a 1/2-approximation (quantized
  /// density greedy refined with the best single item) so planning stays
  /// online at any scale.
  KnapsackResult solve(const std::vector<KnapsackItem>& items,
                       std::size_t capacity_bytes) const;

  /// Bounded 1/2-approximation without the dense DP, at any instance
  /// size: quantized density greedy refined with the best single item
  /// (the same path solve() falls back to past its cell budget).  Used by
  /// the incremental re-planner to re-score only the drifted/displaced
  /// items over the freed capacity slice — O(n log n) in the candidate
  /// count, independent of the capacity.
  KnapsackResult solve_bounded(const std::vector<KnapsackItem>& items,
                               std::size_t capacity_bytes) const;

  /// Capacity sentinel for solve_mckp: the tier is unmetered.  At least one
  /// entry of the capacity vector must be kUnbounded (the backstop tier that
  /// can absorb everything) or the instance has no guaranteed-feasible
  /// choice and solve_mckp throws std::invalid_argument.
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

  /// Multiple-choice knapsack: every item picks exactly one tier,
  /// maximizing total weight subject to per-tier byte capacities
  /// (kUnbounded entries are unmetered).  Contract:
  ///   - every item's weights arity must equal capacities.size(), and at
  ///     least one capacity must be kUnbounded, else std::invalid_argument;
  ///   - sizes are quantized to the same granule as solve(), rounded up;
  ///   - the solution is exact (multi-dimensional rolling DP over the
  ///     product of constrained-tier granule capacities) while
  ///     n x prod(cap_j + 1) fits the same cell budget solve() uses;
  ///   - past the budget it degrades to a waterfall of per-tier
  ///     solve_bounded() passes in tier-index order, scoring each item by
  ///     its marginal weight over its best unbounded choice — so the
  ///     bounded-approximation story is shared with the 0-1 path;
  ///   - ties prefer the unbounded choice, then the lower constrained tier
  ///     index, so results are deterministic.
  MckpResult solve_mckp(const std::vector<MckpItem>& items,
                        const std::vector<std::size_t>& capacities) const;

 private:
  /// Shared candidate filter + degenerate-instance shortcut for both
  /// public entry points: fills `cand`/`gsz` with the positive-weight
  /// items that fit `cap` granules (and their quantized sizes), and
  /// returns true when `out` is already the final answer — no candidates,
  /// or everything fits (take all).  Keeping this in one place is what
  /// guarantees solve() and solve_bounded() agree on degenerate
  /// instances.
  bool prefilter(const std::vector<KnapsackItem>& items, std::size_t cap,
                 std::vector<std::size_t>* cand,
                 std::vector<std::size_t>* gsz, KnapsackResult* out) const;

  /// Bounded-approximation path for instances past the dense-DP budget.
  /// `cand`/`gsz` are the candidate indices and their quantized sizes;
  /// `cap` is the pre-clamped capacity in granules.
  KnapsackResult solve_bounded(const std::vector<KnapsackItem>& items,
                               const std::vector<std::size_t>& cand,
                               const std::vector<std::size_t>& gsz,
                               std::size_t cap) const;

  std::size_t granule_;
};

}  // namespace unimem::rt
