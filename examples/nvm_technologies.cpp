// Runs one workload across the Table 1 NVM technology presets (STT-RAM,
// PCRAM, ReRAM midpoints expressed as ratios of the DRAM basis) and shows
// how Unimem narrows each gap — the "which NVM could we actually adopt?"
// question the paper's introduction poses.
//
//   ./nvm_technologies [workload]
//
// An unknown workload prints the usage and exits 2.
#include <algorithm>
#include <cstdio>
#include <string>

#include "experiments/report.h"
#include "experiments/runner.h"
#include "simmem/tier_config.h"
#include "workloads/workload.h"

using namespace unimem;

int main(int argc, char** argv) {
  const std::string workload = argc > 1 ? argv[1] : "lu";
  const std::vector<std::string> known = wl::workload_names();
  if (std::find(known.begin(), known.end(), workload) == known.end()) {
    std::string names;
    for (const std::string& n : known) names += (names.empty() ? "" : "|") + n;
    std::fprintf(stderr,
                 "nvm_technologies: unknown workload \"%s\"\n"
                 "usage: %s [workload]\n"
                 "  workload  %s (default lu)\n",
                 workload.c_str(), argv[0], names.c_str());
    return 2;
  }

  // Express each technology's midpoint as (bandwidth ratio, latency
  // multiple) of the DRAM basis from its Table 1 row.
  std::size_t n = 0;
  const mem::NvmTechnology* tech = mem::table1_technologies(&n);
  const mem::NvmTechnology& dram_row = tech[0];

  exp::Report rep(std::string("NVM technologies on ") + workload +
                  " (normalized to DRAM-only)");
  rep.set_header({"technology", "BW ratio", "lat mult", "NVM-only", "Unimem"});
  for (std::size_t i = 1; i < n; ++i) {
    double bw_ratio = 0.5 * (tech[i].rand_read_mbps_lo + tech[i].rand_read_mbps_hi) /
                      dram_row.rand_read_mbps_lo;
    double lat_mult = 0.5 * (tech[i].read_ns_lo + tech[i].read_ns_hi) /
                      dram_row.read_ns_lo;
    bw_ratio = std::min(1.0, bw_ratio);
    lat_mult = std::max(1.0, lat_mult);

    exp::RunConfig cfg;
    cfg.workload = workload;
    cfg.wcfg.cls = 'C';
    cfg.wcfg.nranks = 4;
    cfg.wcfg.iterations = 10;
    cfg.nvm_bw_ratio = bw_ratio;
    cfg.nvm_lat_mult = lat_mult;
    cfg.policy = exp::Policy::kDramOnly;
    double dram = exp::run_once(cfg).time_s;
    cfg.policy = exp::Policy::kNvmOnly;
    double nvm = exp::run_once(cfg).time_s;
    cfg.policy = exp::Policy::kUnimem;
    double uni = exp::run_once(cfg).time_s;

    rep.add_row({tech[i].name, exp::Report::num(bw_ratio, 2),
                 exp::Report::num(lat_mult, 1), exp::Report::num(nvm / dram, 2),
                 exp::Report::num(uni / dram, 2)});
  }
  rep.print();
  std::printf(
      "\nReading: Unimem close to 1.0 means the technology is viable as the\n"
      "bulk of main memory with a small DRAM cushion (the paper's thesis).\n");
  return 0;
}
