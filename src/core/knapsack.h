// Placement solver: one multiple-choice knapsack for every tier count.
//
// Paper §3.1.3: "Given the DRAM size limitation, our data placement problem
// is to maximize total weights of data objects in DRAM while satisfying the
// DRAM size constraint.  This is a 0-1 knapsack problem", solved by dynamic
// programming.  On an N-tier machine each unit picks *a* tier — not in/out
// of DRAM — under per-tier capacities: a multiple-choice knapsack (MCKP).
// The paper's 0-1 problem is the 2-tier call, weights {w, 0.0} over
// capacities {budget, kUnbounded}.
//
// Sizes are quantized to a granule so the DP table stays small; past a
// dense-cell budget a bounded path (density greedy refined with the best
// single item, run once per constrained tier) keeps planning online.
// Within the budget the exact DP is evaluated one of two ways with the same
// answers: densely over every capacity cell, or lazily over only the cells
// some subset of the candidates reaches down from the all-capacity cell —
// few when the candidates are few and the capacities large, as on N-tier
// ladders (Nemhauser & Ullmann's reachable states).
#pragma once

#include <cstddef>
#include <vector>

namespace unimem::rt {

/// One unit to place.  weights[k] is the value (seconds) of placing it in
/// tier k; the arity must equal the capacity vector's.
struct KnapsackItem {
  std::vector<double> weights;
  std::size_t bytes = 0;
};

struct KnapsackResult {
  std::vector<int> choice;  ///< choice[i] = tier index picked for item i
  double total_weight = 0;  ///< sum of weights[i][choice[i]], in item order
};

class KnapsackSolver {
 public:
  /// Capacity sentinel: the tier is unmetered.  At least one capacity must
  /// be kUnbounded (the backstop that can absorb everything).
  static constexpr std::size_t kUnbounded = static_cast<std::size_t>(-1);

  /// Dense-DP size guard: past this many table cells (candidates x the
  /// product of constrained-tier granule capacities + 1) the DP stops
  /// being "lightweight enough to run online" (paper §3.1.3) and solve()
  /// switches to the bounded path.
  static constexpr std::size_t kDenseDpCellBudget = std::size_t{1} << 25;

  /// `granule` quantizes sizes (rounded up) and capacities (rounded down);
  /// default 64 KiB.
  explicit KnapsackSolver(std::size_t granule = 64 * 1024)
      : granule_(granule) {}

  /// Every item picks exactly one tier, maximizing total weight subject to
  /// per-tier byte capacities.  Contract:
  ///   - every item's weights arity must equal capacities.size(), and at
  ///     least one capacity must be kUnbounded, else std::invalid_argument;
  ///   - items are scored by their marginal weight over their best
  ///     unbounded tier, and only items with a positive marginal on a
  ///     constrained tier they fit become candidates; the rest stay on
  ///     their best unbounded tier;
  ///   - exact while the table fits kDenseDpCellBudget, the bounded path
  ///     past it.  The exact DP is dense or lazy, picked by a pure rule on
  ///     the shape (lazy iff 16 x sum_{k<n} min(cells, (m+1)^k) <= n x
  ///     cells, n candidates, m open tiers, cells per dense row); both
  ///     give the same choice and bit-identical total_weight;
  ///   - ties prefer the unbounded choice, then the lower tier index.
  KnapsackResult solve(const std::vector<KnapsackItem>& items,
                       const std::vector<std::size_t>& capacities) const;

  /// The bounded path at any instance size, without the dense DP: each
  /// constrained tier in index order takes a density-greedy packing
  /// (refined with the best single item — a 1/2-approximation per tier) of
  /// the candidates still unassigned.  O(n log n) in the candidate count,
  /// independent of the capacities; the incremental re-planner re-scores
  /// drifted units over a freed capacity slice with it.
  KnapsackResult solve_bounded(
      const std::vector<KnapsackItem>& items,
      const std::vector<std::size_t>& capacities) const;

 private:
  std::size_t granule_;
};

/// The exact path's two evaluators and the rule solve() picks one by, for
/// the equivalence tests only.  Each runs the exact DP on the whole instance
/// (no all-fit shortcut, no rule) and throws std::invalid_argument past
/// kDenseDpCellBudget; the rule takes the candidate count, the open
/// (constrained, >= 1 granule) tier count and the dense cells per row.
namespace detail {
KnapsackResult solve_dense_dp(const std::vector<KnapsackItem>& items,
                              const std::vector<std::size_t>& capacities,
                              std::size_t granule);
KnapsackResult solve_lazy_dp(const std::vector<KnapsackItem>& items,
                             const std::vector<std::size_t>& capacities,
                             std::size_t granule);
bool prefers_lazy_dp(std::size_t candidates, std::size_t open_tiers,
                     std::size_t row_cells);
}  // namespace detail

}  // namespace unimem::rt
