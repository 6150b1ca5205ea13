// Integration tests: every workload runs under every policy with identical
// numerics (checksums must match — migrations may never corrupt data), and
// the policy ordering the paper reports must hold:
//   DRAM-only <= Unimem <= NVM-only   (in execution time).
#include <gtest/gtest.h>

#include <algorithm>
#include <thread>

#include "core/registry.h"
#include "experiments/runner.h"

namespace unimem::exp {
namespace {

class WorkloadIntegration : public ::testing::TestWithParam<std::string> {};

RunConfig base_cfg(const std::string& wl) {
  RunConfig cfg;
  cfg.workload = wl;
  cfg.wcfg.cls = 'S';
  cfg.wcfg.iterations = 6;
  cfg.wcfg.nranks = 2;
  cfg.dram_capacity = 2 * kMiB;
  cfg.nvm_bw_ratio = 0.5;
  cfg.nvm_lat_mult = 1.0;
  return cfg;
}

TEST_P(WorkloadIntegration, ChecksumsIdenticalAcrossPolicies) {
  RunConfig cfg = base_cfg(GetParam());
  cfg.policy = Policy::kDramOnly;
  RunResult dram = run_once(cfg);
  cfg.policy = Policy::kNvmOnly;
  RunResult nvm = run_once(cfg);
  cfg.policy = Policy::kUnimem;
  RunResult uni = run_once(cfg);
  cfg.policy = Policy::kXMen;
  RunResult xmen = run_once(cfg);
  EXPECT_DOUBLE_EQ(dram.checksum, nvm.checksum);
  EXPECT_DOUBLE_EQ(dram.checksum, uni.checksum);
  EXPECT_DOUBLE_EQ(dram.checksum, xmen.checksum);
}

TEST_P(WorkloadIntegration, PolicyTimeOrdering) {
  RunConfig cfg = base_cfg(GetParam());
  cfg.policy = Policy::kDramOnly;
  RunResult dram = run_once(cfg);
  cfg.policy = Policy::kNvmOnly;
  RunResult nvm = run_once(cfg);
  cfg.policy = Policy::kUnimem;
  RunResult uni = run_once(cfg);
  EXPECT_GT(nvm.time_s, dram.time_s);          // the NVM gap exists
  EXPECT_LE(uni.time_s, nvm.time_s * 1.02);    // Unimem never loses much
  EXPECT_GE(uni.time_s, dram.time_s * 0.98);   // and cannot beat DRAM-only
}

TEST_P(WorkloadIntegration, UnimemOverheadBounded) {
  RunConfig cfg = base_cfg(GetParam());
  cfg.policy = Policy::kUnimem;
  RunResult r = run_once(cfg);
  EXPECT_LT(r.mean_overhead_percent, 5.0);
  EXPECT_GE(r.mean_overlap_percent, 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadIntegration,
                         ::testing::Values("cg", "ft", "bt", "lu", "sp", "mg",
                                           "nek"));

TEST(Integration, DeterministicAcrossRuns) {
  RunConfig cfg = base_cfg("cg");
  cfg.policy = Policy::kUnimem;
  RunResult a = run_once(cfg);
  RunResult b = run_once(cfg);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
}

TEST(Integration, StrongScalingReducesPerRankTime) {
  RunConfig cfg = base_cfg("cg");
  cfg.wcfg.cls = 'A';
  cfg.policy = Policy::kNvmOnly;
  cfg.wcfg.nranks = 1;
  RunResult one = run_once(cfg);
  cfg.wcfg.nranks = 4;
  RunResult four = run_once(cfg);
  EXPECT_LT(four.time_s, one.time_s);
}

TEST(Integration, LatencyConfigHurtsLatencySensitiveWorkloads) {
  // SP's lhs is latency-sensitive: a 4x latency NVM must slow NVM-only SP
  // more than the bandwidth-halved NVM does (Fig. 4's lhs panel).
  RunConfig cfg = base_cfg("sp");
  cfg.policy = Policy::kNvmOnly;
  cfg.nvm_bw_ratio = 0.5;
  cfg.nvm_lat_mult = 1.0;
  RunResult bw = run_once(cfg);
  cfg.nvm_bw_ratio = 1.0;
  cfg.nvm_lat_mult = 4.0;
  RunResult lat = run_once(cfg);
  EXPECT_GT(lat.time_s, bw.time_s);
}

TEST(Integration, MultipleRanksPerNodeShareTheArbiter) {
  RunConfig cfg = base_cfg("lu");
  cfg.wcfg.nranks = 4;
  cfg.ranks_per_node = 4;  // all ranks on one node share 2 MiB of DRAM
  cfg.policy = Policy::kUnimem;
  RunResult shared = run_once(cfg);
  cfg.ranks_per_node = 1;  // each rank gets its own 2 MiB node
  RunResult owned = run_once(cfg);
  EXPECT_DOUBLE_EQ(shared.checksum, owned.checksum);
  // Less DRAM per rank cannot make things faster.
  EXPECT_GE(shared.time_s, owned.time_s * 0.999);
}

TEST(Integration, XMenPlacementIsStatic) {
  RunConfig cfg = base_cfg("bt");
  cfg.policy = Policy::kXMen;
  RunResult r = run_once(cfg);
  // The measured pass runs under a manual placement: no Unimem stats.
  EXPECT_EQ(r.total_migrations, 0u);
  EXPECT_GT(r.time_s, 0.0);
}

TEST(Integration, UnimemCompetitiveWithXMenOnPhaseVaryingNek) {
  RunConfig cfg = base_cfg("nek");
  cfg.wcfg.cls = 'A';
  cfg.wcfg.iterations = 20;
  cfg.policy = Policy::kXMen;
  RunResult xmen = run_once(cfg);
  cfg.policy = Policy::kUnimem;
  RunResult uni = run_once(cfg);
  cfg.policy = Policy::kNvmOnly;
  RunResult nvm = run_once(cfg);
  // Paper §5 reports Unimem 10% better than X-Men on Nek5000.  Our
  // reproduction reaches parity (within 5%) — the rotation-enforcement gap
  // keeps the full 10% out of reach — while both beat NVM-only decisively.  Note X-Men here is conservatively
  // granted exact (PIN-grade) profiles; Unimem works from sampled ones.
  EXPECT_LT(uni.time_s, xmen.time_s * 1.05);
  EXPECT_LT(uni.time_s, nvm.time_s);
}

TEST(Integration, ThreeTierTopologyRunsDeterministicallyWithSameChecksum) {
  // An explicit HBM+DRAM+NVM ladder through the full runtime: the MCKP
  // placement and multi-tier migration chains may never corrupt data
  // (checksums match the classic 2-tier run) and must be deterministic
  // across repeated runs.
  RunConfig cfg = base_cfg("cg");
  cfg.policy = Policy::kUnimem;
  RunResult classic = run_once(cfg);
  cfg.tiers = "hbm:1MiB,dram:2MiB,nvm:64MiB";
  RunResult a = run_once(cfg);
  RunResult b = run_once(cfg);
  EXPECT_DOUBLE_EQ(a.checksum, classic.checksum);
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum);
  EXPECT_DOUBLE_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_GT(a.time_s, 0.0);
}

TEST(Integration, TierLadderNeverSlowerThanBackstopOnly) {
  // Giving the planner fast rungs cannot make things slower than leaving
  // everything in the backstop (the NVM-only reading of the same ladder).
  RunConfig cfg = base_cfg("mg");
  cfg.tiers = "hbm:1MiB,dram:2MiB,nvm:64MiB";
  cfg.policy = Policy::kNvmOnly;
  RunResult backstop = run_once(cfg);
  cfg.policy = Policy::kUnimem;
  RunResult uni = run_once(cfg);
  EXPECT_DOUBLE_EQ(uni.checksum, backstop.checksum);
  EXPECT_LE(uni.time_s, backstop.time_s * 1.02);
}

// ---- Arena-buffer recycling ------------------------------------------------
// A thread reuses the tier-arena buffers of the worlds it ran before (see
// src/simmem/arena.h).  Recycled buffers are dirty, so these check that a
// warm thread computes exactly what a fresh one does.

TEST(Integration, RecycledArenaObjectsStartZeroed) {
  std::thread([] {
    const mem::HmsConfig cfg =
        mem::HmsConfig::scaled(0.5, 4.0, 4 * kMiB, 32 * kMiB);
    void* first_world_ptr = nullptr;
    for (int world = 0; world < 2; ++world) {
      mem::HeteroMemory hms(cfg);
      rt::Registry reg(&hms, nullptr);
      rt::DataObject* obj =
          reg.create("x", 256 * kKiB, rt::ObjectTraits{}, mem::Tier::kNvm);
      auto bytes = obj->as_span<unsigned char>();
      EXPECT_TRUE(std::all_of(bytes.begin(), bytes.end(),
                              [](unsigned char b) { return b == 0; }))
          << "world " << world;
      std::fill(bytes.begin(), bytes.end(), 0xab);  // dirty for the next one
      if (world == 0) first_world_ptr = bytes.data();
      else EXPECT_EQ(bytes.data(), first_world_ptr);  // the buffer was reused
    }
  }).join();
}

RunResult run_on_fresh_thread(const RunConfig& cfg) {
  RunResult r;
  std::thread([&] { r = run_once(cfg); }).join();
  return r;
}

void expect_bit_identical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.total_migrations, b.total_migrations);
  EXPECT_EQ(a.total_bytes_moved, b.total_bytes_moved);
  EXPECT_EQ(a.total_copy_s, b.total_copy_s);
  EXPECT_EQ(a.total_exposed_s, b.total_exposed_s);
  EXPECT_EQ(a.mean_overhead_percent, b.mean_overhead_percent);
  EXPECT_EQ(a.mean_overlap_percent, b.mean_overlap_percent);
  EXPECT_EQ(a.dag_critical_path_s, b.dag_critical_path_s);
  EXPECT_EQ(a.stats.total_time_s, b.stats.total_time_s);
  EXPECT_EQ(a.stats.overhead_s, b.stats.overhead_s);
  EXPECT_EQ(a.stats.phases_executed, b.stats.phases_executed);
  EXPECT_EQ(a.stats.migration.migrations, b.stats.migration.migrations);
  EXPECT_EQ(a.stats.migration.exposed_wait_s, b.stats.migration.exposed_wait_s);
}

TEST(Integration, WarmThreadRunsMatchFreshThreadRuns) {
  RunConfig uni = base_cfg("cg");
  uni.policy = Policy::kUnimem;
  RunConfig xmen = uni;
  xmen.policy = Policy::kXMen;  // two passes: offline profile + measured
  const RunResult fresh_uni = run_on_fresh_thread(uni);
  const RunResult fresh_xmen = run_on_fresh_thread(xmen);
  ASSERT_GT(fresh_uni.total_migrations, 0u);

  RunResult warm_xmen, warm_uni;
  std::thread([&] {
    run_once(uni);  // leaves this thread's pool holding dirty buffers
    warm_xmen = run_once(xmen);
    warm_uni = run_once(uni);
  }).join();
  expect_bit_identical(warm_xmen, fresh_xmen);
  expect_bit_identical(warm_uni, fresh_uni);
}

}  // namespace
}  // namespace unimem::exp
