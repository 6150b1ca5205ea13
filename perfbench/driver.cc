// Benchmark driver: runs one built-in sweep spec through
// sweep::SweepEngine::run -- what `unimem_sweep --spec NAME --jobs 1` runs --
// and prints one JSON object on stdout.  perfbench/run.py spawns it, gates
// its rows and aggregates the passes (see perfbench/README.md).
//
//   perfbench_driver sweep  SPEC SEED SPAWN_NS
//       Untraced pass.  SPAWN_NS is the parent's CLOCK_MONOTONIC reading in
//       nanoseconds taken just before it spawned this process, so setup_s
//       covers process start, spec build, expansion and engine
//       construction, up to the first world launch.
//   perfbench_driver setup  SPEC SEED SPAWN_NS
//       The same set-up, then exit without running the sweep: one more
//       setup_s sample.
//   perfbench_driver traced SPEC SEED
//       Traced pass: every world (points and DRAM-only baselines) runs
//       through a mirror of exp::run_once that times each call into the
//       Context and PMPI layers from outside; afterwards every traced world
//       is re-run through exp::run_once and compared bit for bit.
//
// SEED goes into every point's wcfg.drift_seed and unimem.sampler_seed.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/static_context.h"
#include "core/runtime.h"
#include "experiments/report.h"
#include "experiments/runner.h"
#include "minimpi/comm.h"
#include "simmem/dram_arbiter.h"
#include "simmem/hetero_memory.h"
#include "simmem/tier_config.h"
#include "sweep/engine.h"
#include "sweep/spec.h"
#include "workloads/workload.h"

namespace {

using namespace unimem;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double tv_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

rusage self_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

double cpu_s(const rusage& a, const rusage& b) {
  return tv_s(b.ru_utime) - tv_s(a.ru_utime) + tv_s(b.ru_stime) -
         tv_s(a.ru_stime);
}

/// JSON number with all its digits; non-finite values become null, which
/// the gate in run.py rejects.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::vector<sweep::SweepPoint> seeded_points(const std::string& name,
                                             std::uint64_t seed) {
  auto spec = sweep::spec_by_name(name);
  if (!spec) throw std::invalid_argument("unknown spec '" + name + "'");
  auto points = spec->expand();
  for (auto& p : points) {
    p.cfg.wcfg.drift_seed = seed;
    p.cfg.unimem.sampler_seed = seed;
  }
  return points;
}

std::string rows_json(const std::vector<sweep::SweepPoint>& points,
                      const std::vector<sweep::SweepRow>& rows) {
  std::string out = "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const sweep::SweepRow& row = rows[i];
    const exp::RunConfig& cfg = points[i].cfg;
    if (i > 0) out += ",";
    out += "{\"index\":" + std::to_string(row.index) + ",\"label\":\"" +
           exp::json_escape(row.label) + "\",\"workload\":\"" +
           exp::json_escape(cfg.workload) + "\",\"cls\":\"" +
           std::string(1, cfg.wcfg.cls) +
           "\",\"nranks\":" + std::to_string(cfg.wcfg.nranks) +
           ",\"policy\":\"" + exp::policy_name(cfg.policy) +
           "\",\"ok\":" + (row.ok ? "true" : "false") + ",\"error\":\"" +
           exp::json_escape(row.error) +
           "\",\"time_s\":" + num(row.result.time_s) +
           ",\"checksum\":" + num(row.result.checksum) +
           ",\"baseline_time_s\":" + num(row.baseline_time_s) +
           ",\"normalized\":" + num(row.normalized) +
           ",\"migrations\":" + std::to_string(row.result.total_migrations) +
           ",\"bytes_moved\":" + std::to_string(row.result.total_bytes_moved) +
           "}";
  }
  return out + "]";
}

std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

// ---------------------------------------------------------------------------
// Untraced pass
// ---------------------------------------------------------------------------

int run_sweep(const std::string& spec, std::uint64_t seed,
              std::int64_t spawn_ns, bool setup_only) {
  const auto points = seeded_points(spec, seed);
  sweep::EngineOptions eopts;
  eopts.jobs = 1;
  sweep::SweepEngine engine(eopts);

  const double setup_s = 1e-9 * static_cast<double>(monotonic_ns() - spawn_ns);
  if (setup_only) {
    std::printf("{\"setup_s\":%s}\n", num(setup_s).c_str());
    return 0;
  }
  const rusage r0 = self_usage();
  const auto t0 = Clock::now();
  const sweep::SweepOutcome out = engine.run(points);
  const double wall_s = seconds_since(t0);
  const rusage r1 = self_usage();

  std::printf(
      "{\"setup_s\":%s,\"wall_s\":%s,\"cpu_s\":%s,\"user_s\":%s,"
      "\"sys_s\":%s,\"minflt\":%ld,\"peak_rss_mib\":%s,\"worlds\":%zu,"
      "\"rows\":%s}\n",
      num(setup_s).c_str(), num(wall_s).c_str(), num(cpu_s(r0, r1)).c_str(),
      num(tv_s(r1.ru_utime) - tv_s(r0.ru_utime)).c_str(),
      num(tv_s(r1.ru_stime) - tv_s(r0.ru_stime)).c_str(),
      r1.ru_minflt - r0.ru_minflt,
      num(static_cast<double>(r1.ru_maxrss) / 1024.0).c_str(),
      out.worlds_executed, rows_json(points, out.rows).c_str());
  return 0;
}

// ---------------------------------------------------------------------------
// Traced pass
// ---------------------------------------------------------------------------

/// Layers a rank thread's time is charged to.  kSelf is the workload's own
/// code between calls (touch kernels, fill_pattern); kOp is time inside a
/// minimpi operation between its PMPI pre and post hooks; kDtor is the
/// context's destruction (helper-thread joins, registry teardown).
enum Layer : int {
  kSelf,
  kCtor,
  kDtor,
  kMalloc,
  kFree,
  kStart,
  kIterBegin,
  kEnd,
  kCompute,
  kHook,
  kOp,
  kLayers
};

struct LayerTimes {
  double host_s[kLayers] = {};
  double vt_s[kLayers] = {};
  std::uint64_t calls[kLayers] = {};

  void add(const LayerTimes& o) {
    for (int l = 0; l < kLayers; ++l) {
      host_s[l] += o.host_s[l];
      vt_s[l] += o.vt_s[l];
      calls[l] += o.calls[l];
    }
  }
};

/// Per-rank exclusive-time ledger.  Every call boundary charges the host and
/// virtual time elapsed since the previous boundary to the layer on top of
/// the stack, so each layer's figure is its self time and the layers
/// partition the rank's run.
class RankLedger {
 public:
  explicit RankLedger(const clk::VirtualClock& clock)
      : clock_(clock), host_mark_(Clock::now()), vt_mark_(clock.now()) {}

  void enter(Layer l) {
    charge();
    stack_.push_back(l);
    ++times_.calls[l];
  }
  void leave() {
    charge();
    stack_.pop_back();
  }
  /// Charge the interval since the last boundary and return the totals.
  const LayerTimes& finish() {
    charge();
    return times_;
  }

 private:
  void charge() {
    const auto h = Clock::now();
    const double v = clock_.now();
    const Layer top = stack_.back();
    times_.host_s[top] += std::chrono::duration<double>(h - host_mark_).count();
    times_.vt_s[top] += v - vt_mark_;
    host_mark_ = h;
    vt_mark_ = v;
  }

  const clk::VirtualClock& clock_;
  std::vector<Layer> stack_{kSelf};
  LayerTimes times_;
  Clock::time_point host_mark_;
  double vt_mark_;
};

class Span {
 public:
  Span(RankLedger& ledger, Layer l) : ledger_(ledger) { ledger_.enter(l); }
  ~Span() { ledger_.leave(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  RankLedger& ledger_;
};

/// rt::Context decorator: forwards every call to the wrapped Runtime or
/// StaticContext and charges it to its layer.
class TracedContext final : public rt::Context {
 public:
  TracedContext(rt::Context& inner, RankLedger& ledger)
      : inner_(inner), ledger_(ledger) {}

  rt::DataObject* malloc_object(const std::string& name, std::size_t bytes,
                                rt::ObjectTraits traits =
                                    rt::ObjectTraits{}) override {
    Span s(ledger_, kMalloc);
    return inner_.malloc_object(name, bytes, traits);
  }
  void free_object(rt::DataObject* obj) override {
    Span s(ledger_, kFree);
    inner_.free_object(obj);
  }
  void start() override {
    Span s(ledger_, kStart);
    inner_.start();
  }
  void iteration_begin() override {
    Span s(ledger_, kIterBegin);
    inner_.iteration_begin();
  }
  void end() override {
    Span s(ledger_, kEnd);
    inner_.end();
  }
  void compute(const rt::PhaseWork& work) override {
    Span s(ledger_, kCompute);
    inner_.compute(work);
  }
  mpi::Comm* comm() override { return inner_.comm(); }
  double now() const override { return inner_.now(); }

 private:
  rt::Context& inner_;
  RankLedger& ledger_;
};

/// PMPI hooks chained in front of the Runtime's own (or of none, under a
/// static placement): splits time inside the hooks from time inside the
/// minimpi operation, and counts the operations it sees.
class TracedHooks final : public mpi::PmpiHooks {
 public:
  TracedHooks(mpi::PmpiHooks* inner, RankLedger& ledger)
      : inner_(inner), ledger_(ledger) {}

  void on_pre_op(const mpi::OpInfo& info) override {
    ++ops_seen_;
    {
      Span s(ledger_, kHook);
      if (inner_ != nullptr) inner_->on_pre_op(info);
    }
    ledger_.enter(kOp);
  }
  void on_post_op(const mpi::OpInfo& info) override {
    ledger_.leave();
    Span s(ledger_, kHook);
    if (inner_ != nullptr) inner_->on_post_op(info);
  }
  std::uint64_t ops_seen() const { return ops_seen_; }

 private:
  mpi::PmpiHooks* inner_;
  RankLedger& ledger_;
  std::uint64_t ops_seen_ = 0;
};

struct Node {
  std::unique_ptr<mem::HeteroMemory> hms;
  std::unique_ptr<mem::DramArbiter> arbiter;
};

/// Mirror of the file-local make_nodes() in src/experiments/runner.cc.
/// The bit-for-bit comparison against exp::run_once keeps it honest.
std::vector<Node> make_nodes(const exp::RunConfig& cfg,
                             bool dram_speed_everywhere) {
  const int nnodes =
      (cfg.wcfg.nranks + cfg.ranks_per_node - 1) / cfg.ranks_per_node;
  const std::size_t nvm_cap = static_cast<std::size_t>(cfg.ranks_per_node) *
                              (2 * cfg.wcfg.rank_bytes() + 32 * kMiB);
  const std::size_t dram_arena = 2 * cfg.dram_capacity + 4 * kMiB;
  std::vector<Node> nodes(static_cast<std::size_t>(nnodes));
  if (!cfg.tiers.empty() && !dram_speed_everywhere) {
    mem::TopologyConfig topo = mem::parse_topology(cfg.tiers);
    std::vector<std::size_t> allowances(topo.num_tiers(),
                                        mem::DramArbiter::kUnbounded);
    for (std::size_t k = 0; k + 1 < topo.num_tiers(); ++k) {
      allowances[k] = topo.tiers[k].capacity_bytes;
      topo.tiers[k].capacity_bytes =
          2 * topo.tiers[k].capacity_bytes + 4 * kMiB;
    }
    topo.tiers.back().capacity_bytes =
        std::max(topo.tiers.back().capacity_bytes, nvm_cap);
    for (auto& n : nodes) {
      n.hms = std::make_unique<mem::HeteroMemory>(topo);
      n.arbiter = std::make_unique<mem::DramArbiter>(allowances);
    }
    return nodes;
  }
  for (auto& n : nodes) {
    const mem::HmsConfig hc =
        dram_speed_everywhere
            ? mem::HmsConfig{mem::TierConfig::dram_basis(dram_arena),
                             mem::TierConfig::nvm_scaled(nvm_cap, 1.0, 1.0)}
            : mem::HmsConfig{
                  mem::TierConfig::dram_basis(dram_arena),
                  mem::TierConfig::nvm_scaled(nvm_cap, cfg.nvm_bw_ratio,
                                              cfg.nvm_lat_mult)};
    n.hms = std::make_unique<mem::HeteroMemory>(hc);
    n.arbiter = std::make_unique<mem::DramArbiter>(cfg.dram_capacity);
  }
  return nodes;
}

/// Everything the traced pass accumulates over its worlds.
struct Tally {
  std::mutex mu;
  LayerTimes layers;
  double make_nodes_s = 0;
  double user_s = 0, sys_s = 0;
  long minflt = 0;
  std::vector<double> world_host_s;
  std::uint64_t ops_seen = 0, op_count = 0;
  std::uint64_t uncovered_ranks = 0;
  double vt_unaccounted_abs = 0, vt_residual_max = 0;
  std::uint64_t migrations = 0, bytes_moved = 0;
  double copy_s = 0, exposed_s = 0;
  std::uint64_t replan_checks = 0, repairs = 0;
  /// Each traced world's config and result, for the equivalence check.
  std::vector<std::pair<exp::RunConfig, exp::RunResult>> worlds;
};

/// Allowed |residual| of a rank's virtual-time ledger, in virtual seconds.
constexpr double kVtTolerance = 1e-9;

/// Traced mirror of exp::run_once for the policies the benchmark's specs
/// use (DRAM-only baselines, NVM-only, Unimem).
exp::RunResult traced_run_once(const exp::RunConfig& cfg, Tally& tally) {
  const exp::Policy policy = cfg.policy;
  if (policy != exp::Policy::kDramOnly && policy != exp::Policy::kNvmOnly &&
      policy != exp::Policy::kUnimem)
    throw std::runtime_error(std::string("traced pass does not mirror policy ") +
                             exp::policy_name(policy));
  const std::size_t nranks = static_cast<std::size_t>(cfg.wcfg.nranks);
  std::vector<double> times(nranks, 0.0), sums(nranks, 0.0);
  std::vector<rt::RuntimeStats> stats(nranks);
  std::vector<LayerTimes> ranks(nranks);
  std::vector<std::uint64_t> seen(nranks, 0), counted(nranks, 0);
  std::vector<double> residual(nranks, 0.0);

  const rusage r0 = self_usage();
  const auto w0 = Clock::now();
  double make_nodes_s = 0;
  {
    auto nodes = make_nodes(cfg, policy == exp::Policy::kDramOnly);
    make_nodes_s = seconds_since(w0);
    mpi::World world(cfg.wcfg.nranks, cfg.net, cfg.ranks_per_node);
    world.run([&](mpi::Comm& comm) {
      const std::size_t r = static_cast<std::size_t>(comm.rank());
      Node& node = nodes[static_cast<std::size_t>(comm.node())];
      auto workload = wl::make_workload(cfg.workload);
      RankLedger ledger(comm.clock());
      const double vt0 = comm.clock().now();

      auto run_workload = [&](rt::Context& inner, mpi::PmpiHooks* inner_hooks) {
        TracedHooks hooks(inner_hooks, ledger);
        comm.set_hooks(&hooks);
        TracedContext ctx(inner, ledger);
        sums[r] = workload->run_rank(ctx, cfg.wcfg);
        times[r] = comm.clock().now();
        comm.set_hooks(inner_hooks);
        seen[r] = hooks.ops_seen();
      };

      if (policy == exp::Policy::kUnimem) {
        rt::RuntimeOptions opts = cfg.unimem;
        opts.ranks_per_node = cfg.ranks_per_node;
        if (cfg.replan_epoch != 0) {
          opts.replan_epoch = cfg.replan_epoch;
          opts.drift_threshold = cfg.drift_threshold;
        }
        std::unique_ptr<rt::Runtime> runtime;
        {
          Span s(ledger, kCtor);
          runtime = std::make_unique<rt::Runtime>(opts, node.hms.get(),
                                                  node.arbiter.get(), &comm);
        }
        run_workload(*runtime, runtime.get());
        stats[r] = runtime->stats();
        Span s(ledger, kDtor);
        runtime.reset();
      } else {
        baseline::StaticContextOptions sopts;
        sopts.timing = cfg.unimem.timing;
        sopts.cache = cfg.unimem.cache;
        sopts.use_exact_cache = cfg.unimem.use_exact_cache;
        std::unique_ptr<baseline::StaticContext> ctx;
        {
          Span s(ledger, kCtor);
          // DRAM-only differs from NVM-only through the tier speeds.
          ctx = std::make_unique<baseline::StaticContext>(
              sopts, node.hms.get(), node.arbiter.get(), &comm,
              baseline::nvm_only());
        }
        run_workload(*ctx, nullptr);
        Span s(ledger, kDtor);
        ctx.reset();
      }

      const LayerTimes& lt = ledger.finish();
      ranks[r] = lt;
      counted[r] = comm.op_count();
      double accounted = 0;
      for (int l = kCtor; l < kLayers; ++l) accounted += lt.vt_s[l];
      residual[r] = (times[r] - vt0) - accounted;
    });
  }
  const double host_s = seconds_since(w0);
  const rusage r1 = self_usage();

  exp::RunResult out;
  out.time_s = *std::max_element(times.begin(), times.end());
  for (double s : sums) out.checksum += s;
  std::uint64_t checks = 0, repairs = 0;
  for (const rt::RuntimeStats& s : stats) {
    out.total_migrations += s.migration.migrations;
    out.total_bytes_moved += s.migration.bytes_moved;
    out.total_copy_s += s.migration.copy_time_s;
    out.total_exposed_s += s.migration.exposed_migration_s();
    checks += s.replan_checks;
    repairs += s.incremental_repairs;
  }

  std::lock_guard<std::mutex> lk(tally.mu);
  for (std::size_t r = 0; r < nranks; ++r) {
    tally.layers.add(ranks[r]);
    tally.ops_seen += seen[r];
    tally.op_count += counted[r];
    if (seen[r] != counted[r]) ++tally.uncovered_ranks;
    tally.vt_unaccounted_abs += std::abs(residual[r]);
    tally.vt_residual_max = std::max(tally.vt_residual_max, std::abs(residual[r]));
  }
  tally.make_nodes_s += make_nodes_s;
  tally.user_s += tv_s(r1.ru_utime) - tv_s(r0.ru_utime);
  tally.sys_s += tv_s(r1.ru_stime) - tv_s(r0.ru_stime);
  tally.minflt += r1.ru_minflt - r0.ru_minflt;
  tally.world_host_s.push_back(host_s);
  tally.migrations += out.total_migrations;
  tally.bytes_moved += out.total_bytes_moved;
  tally.copy_s += out.total_copy_s;
  tally.exposed_s += out.total_exposed_s;
  tally.replan_checks += checks;
  tally.repairs += repairs;
  tally.worlds.emplace_back(cfg, out);
  return out;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

int run_traced(const std::string& spec, std::uint64_t seed) {
  const auto points = seeded_points(spec, seed);
  Tally tally;
  sweep::BaselineService baselines(
      [&](const exp::RunConfig& cfg) { return traced_run_once(cfg, tally); });
  sweep::EngineOptions eopts;
  eopts.jobs = 1;  // one world at a time, so rusage deltas are per world
  eopts.run_point = [&](const sweep::SweepPoint& p, int) {
    return traced_run_once(p.cfg, tally);
  };
  sweep::SweepEngine engine(eopts, &baselines);

  const rusage r0 = self_usage();
  const auto t0 = Clock::now();
  const sweep::SweepOutcome out = engine.run(points);
  const double wall_s = seconds_since(t0);
  const rusage r1 = self_usage();

  // Equivalence: every traced world against exp::run_once.
  std::size_t mismatches = 0;
  for (const auto& [cfg, traced] : tally.worlds) {
    const exp::RunResult ref = exp::run_once(cfg);
    if (same_bits(ref.time_s, traced.time_s) &&
        same_bits(ref.checksum, traced.checksum) &&
        ref.total_migrations == traced.total_migrations &&
        ref.total_bytes_moved == traced.total_bytes_moved &&
        same_bits(ref.total_copy_s, traced.total_copy_s) &&
        same_bits(ref.total_exposed_s, traced.total_exposed_s))
      continue;
    ++mismatches;
    std::fprintf(stderr,
                 "perfbench: traced world %s/%s differs from exp::run_once: "
                 "time %.17g vs %.17g, checksum %.17g vs %.17g\n",
                 cfg.workload.c_str(), exp::policy_name(cfg.policy),
                 traced.time_s, ref.time_s, traced.checksum, ref.checksum);
  }

  const LayerTimes& L = tally.layers;
  double run_rank_s = 0;
  for (int l = 0; l < kLayers; ++l)
    if (l != kCtor && l != kDtor) run_rank_s += L.host_s[l];
  double vt_runtime = 0;
  for (Layer l : {kCtor, kDtor, kMalloc, kFree, kStart, kIterBegin, kEnd, kHook})
    vt_runtime += L.vt_s[l];
  const double worlds = static_cast<double>(tally.worlds.size());

  const std::vector<std::pair<const char*, double>> metrics = {
      {"sweep.worlds_executed", static_cast<double>(out.worlds_executed)},
      {"sweep.baseline_hit_ratio",
       ratio(static_cast<double>(out.baseline_requests - out.baseline_computed),
             static_cast<double>(out.baseline_requests))},
      {"experiments.world_host_s.p50", median(tally.world_host_s)},
      {"kernel.user_s", tally.user_s},
      {"kernel.sys_s", tally.sys_s},
      {"kernel.minflt_per_world", ratio(static_cast<double>(tally.minflt), worlds)},
      {"simmem.make_nodes_s", tally.make_nodes_s},
      {"core.runtime_ctor_s", L.host_s[kCtor]},
      {"core.runtime_ctor_calls", static_cast<double>(L.calls[kCtor])},
      {"core.runtime_dtor_s", L.host_s[kDtor]},
      {"core.malloc_object_s", L.host_s[kMalloc]},
      {"core.malloc_object_calls", static_cast<double>(L.calls[kMalloc])},
      {"core.free_object_s", L.host_s[kFree]},
      {"core.start_s", L.host_s[kStart]},
      {"core.start_calls", static_cast<double>(L.calls[kStart])},
      {"core.iteration_begin_s", L.host_s[kIterBegin]},
      {"core.iteration_begin_calls", static_cast<double>(L.calls[kIterBegin])},
      {"core.iteration_begin_share", ratio(L.host_s[kIterBegin], run_rank_s)},
      {"core.end_s", L.host_s[kEnd]},
      {"core.compute_s", L.host_s[kCompute]},
      {"core.compute_calls", static_cast<double>(L.calls[kCompute])},
      {"core.pmpi_hook_s", L.host_s[kHook]},
      {"workloads.self_s", L.host_s[kSelf]},
      {"workloads.run_rank_s", run_rank_s},
      {"minimpi.op_s", L.host_s[kOp]},
      {"minimpi.ops", static_cast<double>(tally.ops_seen)},
      {"migration.count", static_cast<double>(tally.migrations)},
      {"migration.bytes_moved", static_cast<double>(tally.bytes_moved)},
      {"migration.hidden_fraction",
       ratio(tally.copy_s - tally.exposed_s, tally.copy_s)},
      {"migration.exposed_vs", tally.exposed_s},
      {"replan.checks", static_cast<double>(tally.replan_checks)},
      {"replan.repair_ratio",
       ratio(static_cast<double>(tally.repairs),
             static_cast<double>(tally.replan_checks))},
      {"vt.compute_s", L.vt_s[kCompute]},
      {"vt.comm_s", L.vt_s[kOp]},
      {"vt.runtime_s", vt_runtime},
      {"vt.unaccounted_s", tally.vt_unaccounted_abs},
  };

  std::string m = "{";
  for (const auto& [name, value] : metrics) {
    if (m.size() > 1) m += ",";
    m += std::string("\"") + name + "\":" + num(value);
  }
  m += "}";
  std::printf(
      "{\"wall_s\":%s,\"cpu_s\":%s,\"worlds\":%zu,\"worlds_verified\":%zu,"
      "\"equivalence_mismatches\":%zu,\"uncovered_ranks\":%llu,"
      "\"hook_coverage\":%s,\"vt_residual_max_vs\":%s,"
      "\"vt_tolerance_vs\":%s,\"metrics\":%s,\"rows\":%s}\n",
      num(wall_s).c_str(), num(cpu_s(r0, r1)).c_str(), out.worlds_executed,
      tally.worlds.size(), mismatches,
      static_cast<unsigned long long>(tally.uncovered_ranks),
      num(ratio(static_cast<double>(tally.ops_seen),
                static_cast<double>(tally.op_count)))
          .c_str(),
      num(tally.vt_residual_max).c_str(), num(kVtTolerance).c_str(),
      m.c_str(), rows_json(points, out.rows).c_str());
  return 0;
}

std::uint64_t parse_u64(const char* s) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || *s == '-')
    throw std::invalid_argument(std::string("not an unsigned integer: ") + s);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if ((mode == "sweep" || mode == "setup") && argc == 5)
      return run_sweep(argv[2], parse_u64(argv[3]),
                       static_cast<std::int64_t>(parse_u64(argv[4])),
                       mode == "setup");
    if (mode == "traced" && argc == 4)
      return run_traced(argv[2], parse_u64(argv[3]));
    std::fprintf(stderr,
                 "usage: perfbench_driver sweep SPEC SEED SPAWN_NS\n"
                 "       perfbench_driver setup SPEC SEED SPAWN_NS\n"
                 "       perfbench_driver traced SPEC SEED\n");
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
