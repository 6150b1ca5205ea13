// Tests for the placement solver: the paper's 0-1 knapsack as the 2-tier
// call, the multiple-choice (N-tier) generalization, exactness against brute
// force on random instances (property tests), the dense-DP cell budget, the
// lazy exact evaluator against the dense one, and the behavioural edge cases
// the planner relies on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/knapsack.h"

namespace unimem::rt {
namespace {

constexpr std::size_t kUnbounded = KnapsackSolver::kUnbounded;

/// The paper's 0-1 item: weight w in DRAM (tier 0), 0.0 on the unbounded
/// backstop.
KnapsackItem in01(double w, std::size_t bytes) { return {{w, 0.0}, bytes}; }

/// The 0-1 knapsack over `capacity` bytes of DRAM: the 2-tier call.
KnapsackResult solve01(const KnapsackSolver& s,
                       const std::vector<KnapsackItem>& items,
                       std::size_t capacity) {
  return s.solve(items, {capacity, kUnbounded});
}

/// Items placed in DRAM (tier 0), ascending.
std::vector<std::size_t> selected(const KnapsackResult& r) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < r.choice.size(); ++i)
    if (r.choice[i] == 0) out.push_back(i);
  return out;
}

double brute_force_best(const std::vector<KnapsackItem>& items,
                        std::size_t capacity) {
  const std::size_t n = items.size();
  double best = 0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
    double w = 0;
    std::size_t bytes = 0;
    for (std::size_t i = 0; i < n; ++i)
      if (mask & (std::size_t{1} << i)) {
        w += items[i].weights[0];
        bytes += items[i].bytes;
      }
    if (bytes <= capacity && w > best) best = w;
  }
  return best;
}

TEST(Knapsack, EmptyInstance) {
  KnapsackSolver s;
  KnapsackResult r = solve01(s, {}, 1 << 20);
  EXPECT_TRUE(r.choice.empty());
  EXPECT_DOUBLE_EQ(r.total_weight, 0);
}

TEST(Knapsack, ZeroCapacity) {
  KnapsackSolver s;
  KnapsackResult r = solve01(s, {in01(1.0, 100)}, 0);
  EXPECT_TRUE(selected(r).empty());
}

TEST(Knapsack, NegativeWeightNeverSelected) {
  KnapsackSolver s(1024);
  KnapsackResult r =
      solve01(s, {in01(-1.0, 1024), in01(2.0, 1024), in01(0.0, 1024)},
              std::size_t{1} << 20);
  EXPECT_EQ(selected(r), (std::vector<std::size_t>{1}));
}

TEST(Knapsack, OversizedItemSkipped) {
  KnapsackSolver s(1024);
  KnapsackResult r = solve01(s, {in01(100.0, 1 << 20), in01(1.0, 1024)}, 2048);
  EXPECT_EQ(selected(r), (std::vector<std::size_t>{1}));
}

TEST(Knapsack, PicksValueOverDensityWhenOptimal) {
  // Greedy-by-density takes the densest item and wastes capacity; the DP
  // must take the two smaller ones (classic greedy-failure case).
  KnapsackSolver s(1);
  std::vector<KnapsackItem> items = {in01(10.0, 6), in01(6.0, 4),
                                     in01(6.0, 4)};
  KnapsackResult dp = solve01(s, items, 8);
  EXPECT_DOUBLE_EQ(dp.total_weight, 12.0);
}

TEST(Knapsack, RespectsCapacityExactly) {
  KnapsackSolver s(1);
  std::vector<KnapsackItem> items = {in01(1.0, 3), in01(1.0, 3),
                                     in01(1.0, 3)};
  KnapsackResult r = solve01(s, items, 6);
  EXPECT_EQ(selected(r).size(), 2u);
  std::size_t bytes = 0;
  for (std::size_t idx : selected(r)) bytes += items[idx].bytes;
  EXPECT_LE(bytes, 6u);
}

TEST(Knapsack, GranuleRoundsSizesUp) {
  // With a 1 KiB granule, a 1025-byte item occupies 2 granules: three such
  // items cannot fit a 4 KiB capacity even though raw bytes would fit.
  KnapsackSolver s(1024);
  KnapsackResult r = solve01(
      s, {in01(1.0, 1025), in01(1.0, 1025), in01(1.0, 1025)}, 4 * 1024);
  EXPECT_EQ(selected(r).size(), 2u);
}

class KnapsackProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackProperty, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int round = 0; round < 20; ++round) {
    const int n = 3 + static_cast<int>(rng.below(10));  // <= 12 items
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i)
      items.push_back(
          in01(rng.uniform(-0.2, 1.0), 64 * (1 + rng.below(64))));
    std::size_t capacity = 64 * (1 + rng.below(256));
    KnapsackSolver s(64);
    KnapsackResult r = solve01(s, items, capacity);
    // Selection must be feasible.
    std::size_t bytes = 0;
    double w = 0;
    for (std::size_t idx : selected(r)) {
      bytes += items[idx].bytes;
      w += items[idx].weights[0];
    }
    EXPECT_LE(bytes, capacity);
    EXPECT_NEAR(w, r.total_weight, 1e-9);
    // And optimal (granule = min item granularity = 64 here, so exact).
    EXPECT_NEAR(r.total_weight, brute_force_best(items, capacity), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST(Knapsack, AllCandidatesFitFastPath) {
  // Total positive-weight granules below capacity: everything useful is
  // selected without running a DP, non-positive items still excluded.
  KnapsackSolver s(1024);
  std::vector<KnapsackItem> items = {in01(1.0, 1000), in01(-1.0, 1000),
                                     in01(0.5, 3000), in01(0.0, 500)};
  KnapsackResult r = solve01(s, items, 1 << 20);
  ASSERT_EQ(selected(r), (std::vector<std::size_t>{0, 2}));
  EXPECT_DOUBLE_EQ(r.total_weight, 1.5);
  std::size_t bytes = 0;
  for (std::size_t idx : selected(r)) bytes += items[idx].bytes;
  EXPECT_EQ(bytes, 4000u);
}

// Property (larger instances): the DP stays optimal up to 20 items, the
// regime the planner sees per phase on most workloads.
class KnapsackProperty20 : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KnapsackProperty20, MatchesBruteForceUpTo20Items) {
  Rng rng(GetParam());
  for (int round = 0; round < 3; ++round) {
    const int n = 13 + static_cast<int>(rng.below(8));  // 13..20 items
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i)
      items.push_back(
          in01(rng.uniform(-0.2, 1.0), 64 * (1 + rng.below(64))));
    std::size_t capacity = 64 * (1 + rng.below(512));
    KnapsackSolver s(64);
    KnapsackResult r = solve01(s, items, capacity);
    std::size_t bytes = 0;
    double w = 0;
    for (std::size_t idx : selected(r)) {
      bytes += items[idx].bytes;
      w += items[idx].weights[0];
    }
    EXPECT_LE(bytes, capacity);
    EXPECT_NEAR(w, r.total_weight, 1e-9);
    EXPECT_NEAR(r.total_weight, brute_force_best(items, capacity), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KnapsackProperty20,
                         ::testing::Values(101, 202, 303));

TEST(Knapsack, QuantizationNeverOvercommits) {
  // With a coarse granule and sizes that are not granule multiples, the
  // selection's rounded-up granules must fit the quantized capacity — the
  // solver may under-use DRAM but can never over-commit it.
  const std::size_t granule = 4096;
  Rng rng(7);
  for (int round = 0; round < 50; ++round) {
    const int n = 2 + static_cast<int>(rng.below(14));
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i)
      items.push_back(
          in01(rng.uniform(-0.2, 1.0), 1 + rng.below(10 * granule)));
    const std::size_t capacity = 1 + rng.below(n * 4 * granule);
    KnapsackSolver s(granule);
    KnapsackResult r = solve01(s, items, capacity);
    std::size_t quantized = 0;
    for (std::size_t idx : selected(r))
      quantized += (items[idx].bytes + granule - 1) / granule;
    EXPECT_LE(quantized, capacity / granule)
        << "round " << round << ": quantized selection over-commits";
  }
}

TEST(Knapsack, HugeInstanceStaysFeasibleAndUseful) {
  // Item-count x capacity far past the dense-DP budget: the solver must
  // switch to the bounded path — still feasible, still at least as good as
  // the best single item, and fast enough to run here.
  Rng rng(5);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 64; ++i)
    items.push_back(in01(rng.uniform(0.0, 1.0), 50000 + rng.below(2000000)));
  const std::size_t capacity = 1 << 20;  // granule 1: ~64 x 2^20 DP cells
  KnapsackSolver s(1);
  KnapsackResult r = solve01(s, items, capacity);
  ASSERT_FALSE(selected(r).empty());
  std::size_t bytes = 0;
  double w = 0;
  for (std::size_t idx : selected(r)) {
    bytes += items[idx].bytes;
    w += items[idx].weights[0];
  }
  EXPECT_LE(bytes, capacity);
  EXPECT_NEAR(w, r.total_weight, 1e-9);
  double best_single = 0;
  for (const KnapsackItem& it : items)
    if (it.bytes <= capacity)
      best_single = std::max(best_single, it.weights[0]);
  EXPECT_GE(r.total_weight, best_single - 1e-12);
}

TEST(Knapsack, DenseDpCellBudgetBoundaryAcrossLadders) {
  // Rule: the DP is dense iff candidates x prod(cap_j + 1) <=
  // kDenseDpCellBudget (caps in granules, here granule 1).  Each ladder's
  // constrained capacities make 32 candidates fill the budget exactly.
  // Tier 0 is a greedy-failure instance: A is densest, but B + C is worth
  // more and A + B never fits; fillers fit any tier alone (never beside A)
  // and are worth a little on every constrained tier.
  const std::vector<std::vector<std::size_t>> ladders = {
      {(std::size_t{1} << 20) - 1},  // 2 tiers: 32 x 2^20
      {1023, 1023},                  // 3 tiers: 32 x 2^10 x 2^10
      {127, 127, 63}};               // 4 tiers: 32 x 2^7 x 2^7 x 2^6
  constexpr double kEps = 1e-3;
  KnapsackSolver s(1);
  for (const std::vector<std::size_t>& constrained : ladders) {
    const std::size_t m = constrained.size();
    const std::size_t b = constrained[0] / 2;
    const std::size_t a = constrained[0] - b + 2;  // A + B > cap_0 + 1
    const std::size_t f =
        *std::min_element(constrained.begin(), constrained.end());
    std::vector<KnapsackItem> items;
    auto add = [&](double on_tier0, double elsewhere, std::size_t bytes) {
      KnapsackItem it{std::vector<double>(m, elsewhere), bytes};
      it.weights[0] = on_tier0;
      it.weights.push_back(0.0);  // the unbounded backstop
      items.push_back(std::move(it));
    };
    add(10.0, 0.0, a);
    add(6.0, 0.0, b);
    add(6.0, 0.0, b);
    for (int k = 0; k < 29; ++k) add(kEps, kEps, f);

    std::vector<std::size_t> caps = constrained;
    caps.push_back(kUnbounded);
    std::size_t cells = items.size();
    std::size_t fillers = 0;  // filler slots on tiers 1..m-1
    for (std::size_t j = 0; j < m; ++j) {
      cells *= caps[j] + 1;
      if (j > 0) fillers += caps[j] / f;
    }
    ASSERT_EQ(cells, KnapsackSolver::kDenseDpCellBudget) << m + 1 << " tiers";
    const double optimum = 12.0 + kEps * static_cast<double>(fillers);

    auto check_feasible = [&](const KnapsackResult& r) {
      ASSERT_EQ(r.choice.size(), items.size());
      std::vector<std::size_t> used(m + 1, 0);
      double w = 0;
      for (std::size_t i = 0; i < items.size(); ++i) {
        used[r.choice[i]] += items[i].bytes;
        w += items[i].weights[r.choice[i]];
      }
      for (std::size_t j = 0; j < m; ++j) EXPECT_LE(used[j], caps[j]);
      EXPECT_NEAR(w, r.total_weight, 1e-9);
    };

    // At the budget: dense, exact.
    const KnapsackResult exact = s.solve(items, caps);
    check_feasible(exact);
    EXPECT_NEAR(exact.total_weight, optimum, 1e-9) << m + 1 << " tiers";
    EXPECT_EQ(exact.choice[1], 0);
    EXPECT_EQ(exact.choice[2], 0);

    // One granule more on tier 0 passes the budget: the bounded path.  The
    // optimum is unchanged (A + B still does not fit), the waterfall's
    // tier 0 takes A alone.
    ++caps[0];
    const KnapsackResult bounded = s.solve(items, caps);
    check_feasible(bounded);
    EXPECT_GE(bounded.total_weight, 0.0);  // the best-unbounded floor
    EXPECT_LT(bounded.total_weight, optimum) << m + 1 << " tiers";
    EXPECT_EQ(bounded.choice[0], 0);
    EXPECT_NEAR(bounded.total_weight,
                10.0 + kEps * static_cast<double>(fillers), 1e-9);
  }
}

// ---- multiple-choice knapsack (N-tier placement) ------------------------

/// Exhaustive MCKP optimum: every item takes exactly one tier, every
/// constrained tier's byte sum respects its capacity.  Assumes sizes and
/// capacities are granule-aligned so the solver's quantization is exact.
double mckp_brute_force(const std::vector<KnapsackItem>& items,
                        const std::vector<std::size_t>& caps) {
  const std::size_t T = caps.size();
  const std::size_t n = items.size();
  double best = -1e300;
  std::vector<std::size_t> assign(n, 0);
  while (true) {
    double w = 0;
    std::vector<std::size_t> used(T, 0);
    for (std::size_t i = 0; i < n; ++i) {
      w += items[i].weights[assign[i]];
      used[assign[i]] += items[i].bytes;
    }
    bool ok = true;
    for (std::size_t j = 0; j < T; ++j)
      if (caps[j] != kUnbounded && used[j] > caps[j])
        ok = false;
    if (ok && w > best) best = w;
    std::size_t k = 0;
    while (k < n && ++assign[k] == T) {
      assign[k] = 0;
      ++k;
    }
    if (k == n) break;
  }
  return best;
}

TEST(Mckp, ValidatesItemArity) {
  KnapsackSolver s(64);
  std::vector<KnapsackItem> items = {{{1.0, 0.5}, 64}, {{1.0}, 64}};
  EXPECT_THROW(s.solve(items, {64, kUnbounded}),
               std::invalid_argument);
}

TEST(Mckp, RequiresAnUnboundedTier) {
  KnapsackSolver s(64);
  std::vector<KnapsackItem> items = {{{1.0, 0.5}, 64}};
  EXPECT_THROW(s.solve(items, {64, 128}), std::invalid_argument);
  EXPECT_THROW(s.solve({}, {}), std::invalid_argument);
}

TEST(Mckp, EmptyItems) {
  KnapsackSolver s(64);
  KnapsackResult r = s.solve({}, {64, kUnbounded});
  EXPECT_TRUE(r.choice.empty());
  EXPECT_DOUBLE_EQ(r.total_weight, 0);
}

TEST(Mckp, AllTiersUnboundedPicksBestPerItem) {
  KnapsackSolver s(64);
  std::vector<KnapsackItem> items = {
      {{1.0, 2.0, 0.5}, 64}, {{3.0, -1.0, 3.0}, 128}, {{-2.0, -1.0, -3.0}, 64}};
  KnapsackResult r = s.solve(items, {kUnbounded, kUnbounded, kUnbounded});
  // Ties (item 1: tiers 0 and 2 both 3.0) resolve to the lowest index.
  EXPECT_EQ(r.choice, (std::vector<int>{1, 0, 1}));
  EXPECT_DOUBLE_EQ(r.total_weight, 2.0 + 3.0 + -1.0);
}

class MckpProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MckpProperty, MatchesBruteForceOnRandomLadders) {
  Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const std::size_t T = 2 + rng.below(3);  // 2..4 tiers
    const int n = 3 + static_cast<int>(rng.below(6));  // <= 8 items
    std::vector<std::size_t> caps(T, 0);
    caps[T - 1] = kUnbounded;
    for (std::size_t j = 0; j + 1 < T; ++j)
      // Occasionally unbounded mid-ladder too (a huge uncontended rung).
      caps[j] = rng.below(8) == 0 ? kUnbounded
                                  : 64 * (1 + rng.below(12));
    std::vector<KnapsackItem> items;
    for (int i = 0; i < n; ++i) {
      KnapsackItem it;
      for (std::size_t j = 0; j < T; ++j)
        it.weights.push_back(rng.uniform(-0.5, 1.0));
      it.bytes = 64 * (1 + rng.below(8));
      items.push_back(std::move(it));
    }
    KnapsackSolver s(64);
    KnapsackResult r = s.solve(items, caps);
    // Feasible: every constrained tier within its capacity.
    ASSERT_EQ(r.choice.size(), items.size());
    std::vector<std::size_t> used(T, 0);
    double w = 0;
    for (std::size_t i = 0; i < items.size(); ++i) {
      ASSERT_GE(r.choice[i], 0);
      ASSERT_LT(static_cast<std::size_t>(r.choice[i]), T);
      used[r.choice[i]] += items[i].bytes;
      w += items[i].weights[r.choice[i]];
    }
    for (std::size_t j = 0; j < T; ++j) {
      if (caps[j] != kUnbounded) {
        EXPECT_LE(used[j], caps[j]) << "round " << round << " tier " << j;
      }
    }
    EXPECT_NEAR(w, r.total_weight, 1e-9);
    // Optimal: instances are small + granule-aligned, so the dense DP
    // runs and must match the exhaustive T^n optimum.
    EXPECT_NEAR(r.total_weight, mckp_brute_force(items, caps), 1e-9)
        << "round " << round << " (" << T << " tiers, " << n << " items)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MckpProperty,
                         ::testing::Values(7, 14, 21, 28, 35, 42));

TEST(Mckp, WaterfallFallbackStaysFeasibleAndUseful) {
  // Capacity x item-count past the dense-DP cell budget: the per-tier
  // waterfall must still answer — feasible, and no worse than leaving
  // every item on its best unbounded tier.
  Rng rng(9);
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 48; ++i)
    items.push_back(KnapsackItem{{rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0),
                              0.0},
                             50000 + rng.below(2000000)});
  const std::vector<std::size_t> caps = {1 << 21, 1 << 22,
                                         kUnbounded};
  KnapsackSolver s(1);  // granule 1: far past kDenseDpCellBudget
  KnapsackResult r = s.solve(items, caps);
  ASSERT_EQ(r.choice.size(), items.size());
  std::vector<std::size_t> used(3, 0);
  double total = 0, floor = 0;
  for (std::size_t i = 0; i < items.size(); ++i) {
    used[r.choice[i]] += items[i].bytes;
    total += items[i].weights[r.choice[i]];
    floor += items[i].weights[2];  // best unbounded tier = the backstop
  }
  EXPECT_LE(used[0], caps[0]);
  EXPECT_LE(used[1], caps[1]);
  EXPECT_NEAR(total, r.total_weight, 1e-9);
  EXPECT_GE(r.total_weight, floor - 1e-9);
}

// ---- the exact path's two evaluators (dense and lazy) -------------------

/// Random 2-4-tier ladders, granule-aligned so mckp_brute_force is exact.
/// Items mix the cases the tie rule and the candidate filter meet:
/// chunk-style copies (equal sizes and weights), equal weights on two
/// constrained tiers, zero and negative gains, and items too big for some
/// constrained tier.
class ExactDpEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExactDpEquivalence, LazyMatchesDenseBitForBitAndBruteForce) {
  constexpr std::size_t kGranule = 64;
  Rng rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    const std::size_t T = 2 + rng.below(3);
    // At most 2^16 brute-force assignments per instance.
    const std::size_t max_n = T == 2 ? 12 : T == 3 ? 10 : 8;
    const std::size_t n = 1 + rng.below(max_n);
    std::vector<std::size_t> caps(T, kUnbounded);
    for (std::size_t j = 0; j + 1 < T; ++j)
      caps[j] = kGranule * (1 + rng.below(16));
    KnapsackItem chunk{{}, kGranule * (1 + rng.below(6))};
    for (std::size_t j = 0; j < T; ++j)
      chunk.weights.push_back(rng.uniform(0.0, 1.0));
    std::vector<KnapsackItem> items;
    for (std::size_t i = 0; i < n; ++i) {
      KnapsackItem it = chunk;
      switch (rng.below(5)) {
        case 0:  // a chunk copy: ties with every other copy
          break;
        case 1:  // equal weights on two constrained tiers
          it.weights[rng.below(T - 1)] = it.weights[T - 2];
          break;
        case 2:  // zero or negative gains over the backstop
          for (std::size_t j = 0; j + 1 < T; ++j)
            it.weights[j] = it.weights[T - 1] - 0.25 * rng.below(2);
          it.weights[rng.below(T - 1)] += rng.uniform(0.0, 1.0);
          break;
        case 3:  // too big for some constrained tier
          it.bytes = kGranule * (8 + rng.below(12));
          break;
        default:
          for (double& w : it.weights) w = rng.uniform(-0.5, 1.0);
          it.bytes = kGranule * (1 + rng.below(8));
      }
      items.push_back(std::move(it));
    }
    const KnapsackResult dense =
        detail::solve_dense_dp(items, caps, kGranule);
    const KnapsackResult lazy = detail::solve_lazy_dp(items, caps, kGranule);
    EXPECT_EQ(lazy.choice, dense.choice) << "round " << round;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(lazy.total_weight),
              std::bit_cast<std::uint64_t>(dense.total_weight))
        << "round " << round;
    const double optimum = mckp_brute_force(items, caps);
    EXPECT_NEAR(dense.total_weight, optimum, 1e-9)
        << "round " << round << " (" << T << " tiers, " << n << " items)";
    EXPECT_NEAR(lazy.total_weight, optimum, 1e-9)
        << "round " << round << " (" << T << " tiers, " << n << " items)";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactDpEquivalence,
                         ::testing::Values(3, 11, 19, 27, 101, 2024));

TEST(ExactDp, RulePicksLazyOnFewCandidatesOverLargeLadders) {
  // A 4-tier ladder solve: 9 candidates over {32, 128, 512} granules with
  // total_g 135, so the dense row is 33 x 129 x 136 cells.
  EXPECT_TRUE(detail::prefers_lazy_dp(9, 3, 33 * 129 * 136));
  // 256 candidates over {128, 512} granules (BM_MckpProduction/3) and the
  // 2-tier production solves reach most of the table: dense.
  EXPECT_FALSE(detail::prefers_lazy_dp(256, 2, 129 * 513));
  EXPECT_FALSE(detail::prefers_lazy_dp(2048, 1, 513));
}

TEST(ExactDp, LadderShapedSolveMatchesBothEvaluators) {
  // Nine 960 KiB chunks over {2, 8, 32} MiB at a 64 KiB granule, worth less
  // on each slower rung; pairs of equal chunks tie.
  constexpr std::size_t kKiB = 1024;
  const std::vector<std::size_t> caps = {2048 * kKiB, 8192 * kKiB,
                                         32768 * kKiB, kUnbounded};
  std::vector<KnapsackItem> items;
  for (int i = 0; i < 9; ++i) {
    const double hot = 1.0 + static_cast<double>(i / 2);
    items.push_back({{hot, 0.6 * hot, 0.3 * hot, 0.0}, 960 * kKiB});
  }
  const KnapsackSolver s(64 * kKiB);
  const KnapsackResult r = s.solve(items, caps);
  const KnapsackResult dense = detail::solve_dense_dp(items, caps, 64 * kKiB);
  const KnapsackResult lazy = detail::solve_lazy_dp(items, caps, 64 * kKiB);
  EXPECT_EQ(r.choice, dense.choice);
  EXPECT_EQ(lazy.choice, dense.choice);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.total_weight),
            std::bit_cast<std::uint64_t>(dense.total_weight));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(lazy.total_weight),
            std::bit_cast<std::uint64_t>(dense.total_weight));
  // Two chunks fit the 2 MiB rung and the other seven the 8 MiB one: the
  // hottest chunk and one of the two tied next-hottest go fastest.
  EXPECT_EQ(r.choice[8], 0);
  EXPECT_EQ(std::count(r.choice.begin(), r.choice.end(), 0), 2);
  EXPECT_EQ(std::count(r.choice.begin(), r.choice.end(), 1), 7);
}

}  // namespace
}  // namespace unimem::rt
