#include "core/knapsack.h"

#include <algorithm>
#include <cstdint>
#include <stdexcept>

namespace unimem::rt {

namespace {

/// Quantized size in granules, rounded up (an item must fully fit).
std::size_t granules(std::size_t bytes, std::size_t granule) {
  return (bytes + granule - 1) / granule;
}

/// The instance both paths solve: the constrained tiers that hold at least
/// one granule ("open" tiers) and the candidates, i.e. the items with a
/// positive marginal weight on some open tier they fit.  Every other item
/// stays on its best unbounded tier.
struct Candidates {
  std::vector<int> tier;          ///< open tiers, in index order
  std::vector<std::size_t> cap;   ///< their capacities in granules
  std::vector<std::size_t> item;  ///< candidate -> item index, item order
  std::vector<std::size_t> g;     ///< candidate sizes in granules
  std::size_t total_g = 0;        ///< sum of g
  /// gain[c * tier.size() + j]: candidate c's weight on open tier j minus
  /// its weight on its best unbounded tier, or 0 where tier j cannot take
  /// it.  Working on marginals makes the unbounded choice add exactly 0.0,
  /// so the 2-tier DP sums are the classic 0-1 sums bit for bit.
  std::vector<double> gain;
};

/// Validates the instance, parks every item on its best unbounded tier and
/// returns the candidates — the one filter both entry points share.
Candidates prepare(const std::vector<KnapsackItem>& items,
                   const std::vector<std::size_t>& capacities,
                   std::size_t granule, std::vector<int>* choice) {
  Candidates c;
  std::vector<int> unbounded;
  for (std::size_t k = 0; k < capacities.size(); ++k) {
    if (capacities[k] == KnapsackSolver::kUnbounded) {
      unbounded.push_back(static_cast<int>(k));
    } else if (capacities[k] / granule > 0) {
      c.tier.push_back(static_cast<int>(k));
      c.cap.push_back(capacities[k] / granule);
    }
  }
  if (unbounded.empty())
    throw std::invalid_argument(
        "KnapsackSolver: at least one tier must be kUnbounded (the backstop)");
  for (const KnapsackItem& it : items)
    if (it.weights.size() != capacities.size())
      throw std::invalid_argument(
          "KnapsackSolver: item weight arity != tier count");

  const std::size_t m = c.tier.size();
  std::vector<double> gain(m);
  choice->resize(items.size());
  c.item.reserve(items.size());
  c.g.reserve(items.size());
  c.gain.reserve(items.size() * m);
  for (std::size_t i = 0; i < items.size(); ++i) {
    const std::vector<double>& w = items[i].weights;
    int best = unbounded.front();
    for (int k : unbounded)
      if (w[k] > w[best]) best = k;
    (*choice)[i] = best;
    const std::size_t g = granules(items[i].bytes, granule);
    bool candidate = false;
    for (std::size_t j = 0; j < m; ++j) {
      const double d = w[c.tier[j]] - w[best];
      gain[j] = d > 0 && g <= c.cap[j] ? d : 0.0;
      candidate |= gain[j] > 0;
    }
    if (!candidate) continue;
    c.item.push_back(i);
    c.g.push_back(g);
    c.total_g += g;
    c.gain.insert(c.gain.end(), gain.begin(), gain.end());
  }
  return c;
}

/// All-fit shortcut: every open tier can hold all candidates at once, so
/// each takes its best tier.  Ties go to the unbounded tier (gain 0), then
/// to the lower tier index.
bool take_best_tiers_if_all_fit(const Candidates& c,
                                std::vector<int>* choice) {
  for (std::size_t cap : c.cap)
    if (c.total_g > cap) return false;
  const std::size_t m = c.tier.size();
  for (std::size_t ci = 0; ci < c.item.size(); ++ci) {
    double best = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (c.gain[ci * m + j] > best) {
        best = c.gain[ci * m + j];
        (*choice)[c.item[ci]] = c.tier[j];
      }
    }
  }
  return true;
}

/// Cells per DP row — prod(min(cap_j, total_g) + 1) — or 0 when the table
/// (candidates x cells per row) would pass kDenseDpCellBudget.
std::size_t dense_row_cells(const Candidates& c) {
  constexpr std::size_t kBudget = KnapsackSolver::kDenseDpCellBudget;
  std::size_t cells = 1;
  for (std::size_t cap : c.cap) {
    const std::size_t d = std::min(cap, c.total_g) + 1;
    if (cells > kBudget / d) return 0;
    cells *= d;
  }
  return cells <= kBudget / c.item.size() ? cells : 0;
}

/// Exact DP over the product of the open tiers' granule capacities.  One
/// value array is updated in place in descending index order, so every read
/// (always at a lower index) still holds the previous row.  Tier 0 is the
/// contiguous inner dimension; in a block whose outer coordinates leave no
/// other tier room for the item, the inner loop is the classic 0-1 row.
/// Comparisons are strict, so ties keep the unbounded choice, then the lower
/// tier; picks are one bit plane per open tier, replayed from the
/// all-capacity cell.  Forced inline: compiled out of line (it has two
/// callers), its loops ran ~20% slower at -O3 under GCC 12
/// (BM_KnapsackDPProduction/2048/512).
[[gnu::always_inline]] inline void dense_dp(const Candidates& c,
                                            std::size_t cells,
                                            std::vector<int>* choice) {
  const std::size_t n = c.item.size();
  const std::size_t m = c.tier.size();
  std::vector<std::size_t> dim(m);
  std::vector<std::size_t> stride(m);
  for (std::size_t j = 0, s = 1; j < m; s *= dim[j++]) {
    dim[j] = std::min(c.cap[j], c.total_g) + 1;
    stride[j] = s;
  }
  const std::size_t words = (n * cells + 63) / 64;
  std::vector<std::uint64_t> picks(m * words, 0);
  auto mark = [&](std::size_t j, std::size_t bit) {
    picks[j * words + (bit >> 6)] |= std::uint64_t{1} << (bit & 63);
  };
  auto marked = [&](std::size_t j, std::size_t bit) {
    return (picks[j * words + (bit >> 6)] >> (bit & 63)) & 1;
  };
  std::vector<double> best(cells, 0.0);
  std::vector<std::size_t> outer(m);  // block coordinates on tiers 1..m-1

  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t g = c.g[r];
    const double* gain = &c.gain[r * m];
    const std::size_t row = r * cells;
    for (std::size_t j = 1; j < m; ++j) outer[j] = dim[j] - 1;
    for (std::size_t base = cells; base > 0;) {
      base -= dim[0];
      bool others = false;
      for (std::size_t j = 1; j < m; ++j)
        others |= gain[j] > 0 && outer[j] >= g;
      if (!others) {
        if (gain[0] > 0) {
          for (std::size_t c0 = dim[0]; c0-- > g;) {
            const double with = best[base + c0 - g] + gain[0];
            if (with > best[base + c0]) {
              best[base + c0] = with;
              mark(0, row + base + c0);
            }
          }
        }
      } else {
        for (std::size_t c0 = dim[0]; c0-- > 0;) {
          const std::size_t idx = base + c0;
          double v = best[idx];
          std::size_t pk = m;
          for (std::size_t j = 0; j < m; ++j) {
            if (gain[j] <= 0 || (j == 0 ? c0 : outer[j]) < g) continue;
            const double with = best[idx - g * stride[j]] + gain[j];
            if (with > v) {
              v = with;
              pk = j;
            }
          }
          if (pk < m) {
            best[idx] = v;
            mark(pk, row + idx);
          }
        }
      }
      for (std::size_t j = 1; j < m; ++j) {  // odometer: the previous block
        if (outer[j]-- > 0) break;
        outer[j] = dim[j] - 1;
      }
    }
  }

  std::size_t idx = cells - 1;
  for (std::size_t r = n; r-- > 0;) {
    for (std::size_t j = 0; j < m; ++j) {
      if (marked(j, r * cells + idx)) {
        (*choice)[c.item[r]] = c.tier[j];
        idx -= c.g[r] * stride[j];
        break;
      }
    }
  }
}

/// Whether lazy_dp pays: its cells are at most sum_{k<n} min(cells,
/// (m+1)^k) (row n-1-k holds the cells k items can reach down from the
/// all-capacity cell), each ~16x a dense cell's cost, against dense_dp's
/// n x cells.  Decided from the shape alone, before anything is built.
bool lazy_dp_pays(std::size_t n, std::size_t m, std::size_t cells) {
  std::size_t reach = 0;
  for (std::size_t k = 0, p = 1; k < n; ++k) {
    reach += std::min(cells, p);
    if (p < cells) p *= m + 1;
  }
  return 16 * reach <= n * cells;
}

/// The same DP as dense_dp, evaluated only on the cells the answer depends
/// on.  Row n-1 needs the all-capacity cell; row r-1 needs row r's cells
/// plus each one's predecessor on every tier that can take candidate r.
/// Values are then filled bottom-up over exactly those cells with
/// dense_dp's operands and comparisons in its order (the skip value, then
/// tiers ascending, strict >), so choice and weights are bit-identical.
void lazy_dp(const Candidates& c, std::size_t cells,
             std::vector<int>* choice) {
  const std::size_t n = c.item.size();
  const std::size_t m = c.tier.size();
  std::vector<std::size_t> dim(m);
  std::vector<std::size_t> stride(m);
  for (std::size_t j = 0, s = 1; j < m; s *= dim[j++]) {
    dim[j] = std::min(c.cap[j], c.total_g) + 1;
    stride[j] = s;
  }
  // Can candidate r go to open tier j from cell x?
  auto fits = [&](std::size_t r, std::size_t j, std::size_t x) {
    return c.gain[r * m + j] > 0 && x / stride[j] % dim[j] >= c.g[r];
  };

  // need[r]: ascending cells of row r the answer depends on.
  std::vector<std::vector<std::size_t>> need(n);
  need[n - 1].assign(1, cells - 1);
  for (std::size_t r = n - 1; r > 0; --r) {
    std::vector<std::size_t>& lower = need[r - 1];
    lower = need[r];
    for (std::size_t j = 0; j < m; ++j) {
      const std::size_t mid = lower.size();
      for (std::size_t x : need[r])  // ascending in, ascending out
        if (fits(r, j, x)) lower.push_back(x - c.g[r] * stride[j]);
      std::inplace_merge(lower.begin(), lower.begin() + mid, lower.end());
    }
    lower.erase(std::unique(lower.begin(), lower.end()), lower.end());
  }

  // pick[r][i]: the open tier candidate r takes at need[r][i], m to skip
  // (m <= 25 fits a byte: each open tier at least doubles the cells).
  std::vector<std::vector<unsigned char>> pick(n);
  std::vector<double> below;  // row r-1's values over need[r-1]
  std::vector<double> value;
  for (std::size_t r = 0; r < n; ++r) {
    const std::vector<std::size_t>& cell = need[r];
    const double* gain = &c.gain[r * m];
    // Row r's reads walk row r-1 in ascending order, one cursor per
    // operand; row -1 (no candidate placed yet) is 0.0 everywhere.
    std::vector<std::size_t> cursor(m + 1, 0);
    auto read = [&](std::size_t k, std::size_t x) {
      if (r == 0) return 0.0;
      const std::vector<std::size_t>& prev = need[r - 1];
      while (prev[cursor[k]] < x) ++cursor[k];
      return below[cursor[k]];
    };
    value.resize(cell.size());
    pick[r].resize(cell.size());
    for (std::size_t i = 0; i < cell.size(); ++i) {
      const std::size_t x = cell[i];
      double v = read(m, x);
      std::size_t pk = m;
      for (std::size_t j = 0; j < m; ++j) {
        if (!fits(r, j, x)) continue;
        const double with = read(j, x - c.g[r] * stride[j]) + gain[j];
        if (with > v) {
          v = with;
          pk = j;
        }
      }
      value[i] = v;
      pick[r][i] = static_cast<unsigned char>(pk);
    }
    below.swap(value);
  }

  std::size_t x = cells - 1;
  for (std::size_t r = n; r-- > 0;) {
    const std::size_t i =
        std::lower_bound(need[r].begin(), need[r].end(), x) - need[r].begin();
    const std::size_t pk = pick[r][i];
    if (pk == m) continue;
    (*choice)[c.item[r]] = c.tier[pk];
    x -= c.g[r] * stride[pk];
  }
}

/// Bounded path: each open tier in index order packs the candidates still
/// unassigned that it can take, greedily by gain density on the quantized
/// sizes (the DP's capacity accounting), refined with the best single
/// candidate — per tier the better of the two is a 1/2-approximation.
void waterfall(const Candidates& c, std::vector<int>* choice) {
  const std::size_t m = c.tier.size();
  std::vector<char> assigned(c.item.size(), 0);
  std::vector<std::size_t> order;
  std::vector<std::size_t> taken;
  order.reserve(c.item.size());
  taken.reserve(c.item.size());
  for (std::size_t j = 0; j < m; ++j) {
    auto gain = [&](std::size_t ci) { return c.gain[ci * m + j]; };
    order.clear();
    for (std::size_t ci = 0; ci < c.item.size(); ++ci)
      if (!assigned[ci] && gain(ci) > 0) order.push_back(ci);
    if (order.empty()) continue;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return gain(a) * static_cast<double>(c.g[b]) >
             gain(b) * static_cast<double>(c.g[a]);
    });
    taken.clear();
    std::size_t used = 0;
    double total = 0;
    std::size_t best_single = order[0];
    for (std::size_t ci : order) {
      if (gain(ci) > gain(best_single)) best_single = ci;
      if (used + c.g[ci] > c.cap[j]) continue;
      used += c.g[ci];
      total += gain(ci);
      taken.push_back(ci);
    }
    if (gain(best_single) > total) taken.assign(1, best_single);
    for (std::size_t ci : taken) {
      assigned[ci] = 1;
      (*choice)[c.item[ci]] = c.tier[j];
    }
  }
}

void sum_weights(const std::vector<KnapsackItem>& items, KnapsackResult* out) {
  for (std::size_t i = 0; i < items.size(); ++i)
    out->total_weight += items[i].weights[out->choice[i]];
}

using ExactDp = void (*)(const Candidates&, std::size_t, std::vector<int>*);

/// One exact evaluator on the whole instance: no all-fit shortcut, no rule.
KnapsackResult solve_exact(const std::vector<KnapsackItem>& items,
                           const std::vector<std::size_t>& capacities,
                           std::size_t granule, ExactDp dp) {
  KnapsackResult out;
  const Candidates c = prepare(items, capacities, granule, &out.choice);
  if (!c.item.empty()) {
    const std::size_t cells = dense_row_cells(c);
    if (cells == 0)
      throw std::invalid_argument(
          "KnapsackSolver: exact DP past kDenseDpCellBudget");
    dp(c, cells, &out.choice);
  }
  sum_weights(items, &out);
  return out;
}

}  // namespace

KnapsackResult KnapsackSolver::solve(
    const std::vector<KnapsackItem>& items,
    const std::vector<std::size_t>& capacities) const {
  KnapsackResult out;
  const Candidates c = prepare(items, capacities, granule_, &out.choice);
  if (!c.item.empty() && !take_best_tiers_if_all_fit(c, &out.choice)) {
    if (const std::size_t cells = dense_row_cells(c)) {
      if (lazy_dp_pays(c.item.size(), c.tier.size(), cells))
        lazy_dp(c, cells, &out.choice);
      else
        dense_dp(c, cells, &out.choice);
    } else {
      waterfall(c, &out.choice);
    }
  }
  sum_weights(items, &out);
  return out;
}

KnapsackResult KnapsackSolver::solve_bounded(
    const std::vector<KnapsackItem>& items,
    const std::vector<std::size_t>& capacities) const {
  KnapsackResult out;
  waterfall(prepare(items, capacities, granule_, &out.choice), &out.choice);
  sum_weights(items, &out);
  return out;
}

namespace detail {

KnapsackResult solve_dense_dp(const std::vector<KnapsackItem>& items,
                              const std::vector<std::size_t>& capacities,
                              std::size_t granule) {
  return solve_exact(items, capacities, granule, dense_dp);
}

KnapsackResult solve_lazy_dp(const std::vector<KnapsackItem>& items,
                             const std::vector<std::size_t>& capacities,
                             std::size_t granule) {
  return solve_exact(items, capacities, granule, lazy_dp);
}

bool prefers_lazy_dp(std::size_t candidates, std::size_t open_tiers,
                     std::size_t row_cells) {
  return lazy_dp_pays(candidates, open_tiers, row_cells);
}

}  // namespace detail

}  // namespace unimem::rt
