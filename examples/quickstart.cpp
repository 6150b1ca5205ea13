// Quickstart: run one NPB-style workload on a simulated NVM+DRAM node
// under three policies and print the paper's headline comparison.
//
//   ./quickstart [workload] [class] [ranks]
//
// Demonstrates the whole public surface: configuring the heterogeneous
// memory, picking a policy, and reading back Unimem's runtime statistics.
// A bad rank count (not an integer in [1, 1024]), a class other than
// S, A, C or D, or an unknown workload prints the usage and exits 2.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "common/cli.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "workloads/workload.h"

namespace {

int usage(const char* argv0) {
  std::string names;
  for (const std::string& n : unimem::wl::workload_names())
    names += (names.empty() ? "" : "|") + n;
  std::fprintf(stderr,
               "usage: %s [workload] [class] [ranks]\n"
               "  workload  %s (default cg)\n"
               "  class     S, A, C or D (default A)\n"
               "  ranks     integer in [1, 1024] (default 4)\n",
               argv0, names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace unimem;

  exp::RunConfig cfg;
  cfg.workload = argc > 1 ? argv[1] : "cg";
  const std::string cls = argc > 2 ? argv[2] : "A";
  if (cls != "S" && cls != "A" && cls != "C" && cls != "D") {
    std::fprintf(stderr, "quickstart: class \"%s\" is not S, A, C or D\n",
                 cls.c_str());
    return usage(argv[0]);
  }
  cfg.wcfg.cls = cls[0];
  long long ranks = 4;
  if (argc > 3 && !cli::parse_i64(argv[3], 1, 1024, &ranks)) {
    std::fprintf(stderr, "quickstart: ranks \"%s\" is not in [1, 1024]\n",
                 argv[3]);
    return usage(argv[0]);
  }
  cfg.wcfg.nranks = static_cast<int>(ranks);
  cfg.wcfg.iterations = 10;
  cfg.nvm_bw_ratio = 0.5;  // NVM with 1/2 DRAM bandwidth
  cfg.nvm_lat_mult = 1.0;

  std::printf("workload=%s class=%c ranks=%d  (NVM: 1/2 DRAM bandwidth)\n",
              cfg.workload.c_str(), cfg.wcfg.cls, cfg.wcfg.nranks);

  exp::RunResult dram, nvm, uni;
  try {
    cfg.policy = exp::Policy::kDramOnly;
    dram = exp::run_once(cfg);
    cfg.policy = exp::Policy::kNvmOnly;
    nvm = exp::run_once(cfg);
    cfg.policy = exp::Policy::kUnimem;
    uni = exp::run_once(cfg);
  } catch (const std::invalid_argument& e) {  // e.g. an unknown workload
    std::fprintf(stderr, "quickstart: %s\n", e.what());
    return usage(argv[0]);
  }

  exp::Report rep("quickstart: " + cfg.workload);
  rep.set_header({"policy", "time (ms)", "normalized", "checksum"});
  auto row = [&](const char* name, const exp::RunResult& r) {
    rep.add_row({name, exp::Report::num(r.time_s * 1e3),
                 exp::Report::num(dram.time_s > 0 ? r.time_s / dram.time_s : 0,
                                  3),
                 exp::Report::num(r.checksum, 6)});
  };
  row("DRAM-only", dram);
  row("NVM-only", nvm);
  row("Unimem", uni);
  rep.print();

  std::printf(
      "\nUnimem: %llu migrations, %.1f MB moved, %.1f%% overlapped, "
      "runtime overhead %.2f%%, plan=%s\n",
      static_cast<unsigned long long>(uni.total_migrations),
      static_cast<double>(uni.total_bytes_moved) / 1e6,
      uni.mean_overlap_percent, uni.mean_overhead_percent,
      uni.stats.plan_kind == rt::Plan::Kind::kGlobal  ? "global"
      : uni.stats.plan_kind == rt::Plan::Kind::kLocal ? "local"
                                                      : "none");
  bool ok = uni.checksum == dram.checksum && uni.checksum == nvm.checksum;
  std::printf("checksum integrity across policies: %s\n", ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
