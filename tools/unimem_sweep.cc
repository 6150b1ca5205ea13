// unimem_sweep: batch experiment driver over the sweep subsystem.
//
//   unimem_sweep --list
//   unimem_sweep --spec fig13 --jobs 8
//   unimem_sweep --spec fig2 --filter cg --points
//   unimem_sweep --spec fig11 --jobs 4 --csv out.csv --jsonl out.jsonl
//                [--summary-json summary.json]
//   unimem_sweep --spec fig12 --shards 4            # fork 4 worker processes
//   unimem_sweep --spec fig12 --shard 0/2 --jsonl s0.jsonl   # one slice
//   unimem_sweep --merge s0.jsonl s1.jsonl --csv merged.csv  # stitch back
//   unimem_sweep --spec fig12 --launcher fork --workers 4 --steal
//                --retries 2 --jsonl out.jsonl     # coordinator service
//   unimem_sweep --spec fig12 --resume --jsonl out.jsonl     # crash-restart
//
// Runs a named SweepSpec through the SweepEngine: one World per point,
// concurrency bounded by simulated ranks in flight, DRAM-only
// normalization baselines memoized across the whole batch, results
// reported in deterministic spec order.  A paper spec prints its figure
// table (SweepSpec::table); other specs, and merged, service, resumed or
// axis-overridden (--profiler/--dag/--tiers) runs, print one row per point.  UNIMEM_BENCH_SMOKE=1 (or --smoke)
// shrinks the spec to smoke scale.
//
// Sharding: `--shard i/N` runs the i-th deterministic slice of the
// expansion (point indices stay those of the full expansion) and
// `--merge` stitches per-shard JSONL files back into the point-ordered
// CSV/JSONL — the manual path for spreading a sweep over hosts.
// `--shards N` does both in one invocation: it is exactly
// `--launcher fork --workers N`.
//
// Service mode: `--launcher inproc|fork|cmd[:PREFIX]` (or `--shards N`)
// hands the campaign to the coordinator (src/sweep/coordinator.h):
// chunked dispatch across `--workers` slots, optional `--steal` work
// stealing, `--retries N` per-point retries with deterministic backoff,
// re-dispatch of tasks whose worker died, `--resume` crash-restart from
// an existing --jsonl artifact, and a live `--summary-json` rewritten
// (atomically) after every task.  The cmd launcher re-invokes this
// binary (optionally through a PREFIX such as "ssh host") with
// `--indices`, so any transport that can run a command against a shared
// filesystem works.
//
// Every topology produces byte-identical CSV/JSONL to a single-process
// `--jobs 1` run (asserted by the sweep_shard_golden ctest).
//
// Each flag is declared once, in options() (src/common/cli.h): --help is
// printed from that table, and the cmd launcher forwards the flags it
// marks as the user typed them.
#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cli.h"
#include "common/log.h"
#include "common/rng.h"
#include "sweep/coordinator.h"
#include "sweep/engine.h"
#include "sweep/launcher.h"
#include "simmem/tier_config.h"
#include "sweep/result_store.h"
#include "sweep/spec.h"
#include "trace/export.h"
#include "trace/metrics.h"
#include "trace/trace.h"

namespace {

using namespace unimem;

/// Version of the --summary-json document layout (see README "Summary
/// JSON schema").  Bump when fields change meaning or go away; adding
/// fields is compatible and does not bump.
constexpr int kSummarySchemaVersion = 3;

/// Export by extension: .json = Chrome trace-event (Perfetto-loadable),
/// anything else = the compact binary spill format.
bool export_trace(unimem::trace::TraceData data, const std::string& path) {
  unimem::trace::sort_events(&data);
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return json ? unimem::trace::write_chrome_json(data, path)
              : unimem::trace::write_binary(data, path);
}

struct Args {
  std::string spec, filter, csv, jsonl, summary_json;
  std::optional<std::uint64_t> profiler_period;  ///< --profiler; 0 = exact
  std::optional<rt::DagSchedule> dag;            ///< --dag
  std::optional<std::string> tiers;              ///< --tiers; "" = classic
  std::string launcher;   ///< "" = engine mode; inproc|fork|cmd[:PREFIX]
  std::string task_meta;  ///< --task-meta sidecar path ("" = none)
  std::string trace;      ///< --trace output path ("" = tracing off)
  unsigned long long trace_buf = 0;  ///< --trace-buf (0 = default ring)
  std::vector<std::string> merge_inputs;
  std::optional<std::vector<std::size_t>> indices;  ///< --indices selection
  /// --jobs, --ranks, --retries, --backoff-base and --attempt-base.
  sweep::EngineOptions engine;
  int workers = 0;              ///< 0 = default (2) in service mode
  int shard = -1, nshards = 0;  ///< --shard I/N
  int shards = 0;               ///< --shards N, resolved by check()
  double inject_fail = 0.0;
  std::uint64_t inject_seed = 20177;  ///< conf_sc_WuHL17 vintage
  bool list = false, points = false, smoke = false, quiet = false;
  bool steal = false, resume = false, merge = false;
};

/// The option table: every flag of this tool, once.
cli::Table options(Args& a) {
  return cli::Table{
      "unimem_sweep",
      "usage: unimem_sweep --spec NAME [options]\n"
      "       unimem_sweep --list\n"
      "       unimem_sweep --merge FILE... [options]",
      {
          {"--spec", "NAME", "built-in spec to run (see --list)",
           cli::text(&a.spec), true},
          {"--list", "", "list the built-in specs and exit", cli::on(&a.list)},
          {"--jobs", "N",
           "concurrent jobs (default: hardware threads); 1 is fastest when "
           "the host has no more CPUs than a world has ranks",
           cli::integer(&a.engine.jobs, 0, 1 << 20, "an integer >= 0")},
          {"--ranks", "N", "max simulated ranks in flight (default: 4*jobs)",
           cli::integer(&a.engine.max_inflight_ranks, 0, 1 << 20,
                        "an integer >= 0")},
          {"--filter", "STR", "run only points whose label contains STR",
           cli::text(&a.filter)},
          {"--indices", "I,J,...", "run only the named expansion indices",
           [&a](const char* v) -> std::string {
             const std::string s = v;
             std::set<std::size_t> seen;
             a.indices.emplace();
             for (std::size_t at = 0, end = 0; at <= s.size(); at = end + 1) {
               end = std::min(s.find(',', at), s.size());
               unsigned long long i = 0;
               if (!cli::parse_u64(s.substr(at, end - at).c_str(), 0, SIZE_MAX,
                                   &i))
                 return "wants a comma-separated integer list";
               if (!seen.insert(i).second)
                 return "repeats index " + std::to_string(i);
               a.indices->push_back(i);
             }
             return "";
           }},
          {"--points", "", "print the expanded point list and exit",
           cli::on(&a.points)},
          {"--csv", "PATH", "write the result table as CSV", cli::text(&a.csv)},
          {"--jsonl", "PATH", "stream per-point results as JSONL",
           cli::text(&a.jsonl)},
          {"--summary-json", "PATH",
           "write a machine-readable batch summary (service mode rewrites it "
           "live per task)",
           cli::text(&a.summary_json)},
          {"--shard", "I/N",
           "run only the I-th of N deterministic shard slices",
           [&a](const char* v) -> std::string {
             const std::string s = v;
             const std::size_t slash = s.find('/');
             long long i = 0, n = 0;
             if (slash == std::string::npos ||
                 !cli::parse_i64(s.substr(0, slash).c_str(), 0, INT_MAX, &i) ||
                 !cli::parse_i64(v + slash + 1, i + 1, INT_MAX, &n))
               return "wants I/N with 0 <= I < N";
             a.shard = static_cast<int>(i);
             a.nshards = static_cast<int>(n);
             return "";
           }},
          {"--shards", "N",
           "fork N worker processes and merge their rows; an alias for "
           "--launcher fork --workers N",
           cli::integer(&a.shards, 1, 1 << 16, "N >= 1")},
          {"--merge", "",
           "stitch the per-shard JSONL FILEs that follow into --csv/--jsonl "
           "(with --spec: verify the merge covers the spec)",
           cli::on(&a.merge)},
          {"--profiler", "exact|N",
           "override the spec's profiling tier: exact, or sampled with base "
           "period N (collapses the prof axis)",
           [&a](const char* v) -> std::string {
             unsigned long long period = 0;
             if (std::strcmp(v, "exact") != 0 &&
                 !cli::parse_u64(v, 1, UINT64_MAX, &period))
               return "wants 'exact' or a period N >= 1";
             a.profiler_period = period;
             return "";
           },
           true},
          {"--dag", "off|slack",
           "override the spec's phase-DAG scheduling mode (collapses the dag "
           "axis)",
           [&a](const char* v) -> std::string {
             const std::string s = v;
             if (s != "off" && s != "slack") return "wants 'off' or 'slack'";
             a.dag = s == "off" ? rt::DagSchedule::kOff
                                : rt::DagSchedule::kSlack;
             return "";
           },
           true},
          {"--tiers", "SPEC",
           "override the spec's memory topology: a parse_topology ladder such "
           "as hbm:1MiB,dram:4MiB,nvm:512MiB, or 'classic' for the 2-tier "
           "machine (collapses the tiers axis)",
           [&a](const char* v) -> std::string {
             const std::string s = std::strcmp(v, "classic") == 0 ? "" : v;
             try {
               if (!s.empty()) (void)mem::parse_topology(s);
             } catch (const std::exception& e) {
               return std::string("wants 'classic' or a topology like "
                                  "hbm:1MiB,dram:4MiB,nvm:512MiB (") +
                      e.what() + ")";
             }
             a.tiers = s;
             return "";
           },
           true},
          {"--retries", "N",
           "re-run failed points up to N times with capped deterministic "
           "exponential backoff",
           cli::integer(&a.engine.max_point_retries, 0, 1000,
                        "an integer in [0, 1000]")},
          {"--launcher", "KIND",
           "service mode: dispatch via a coordinator; KIND is inproc, fork, or "
           "cmd[:PREFIX] (e.g. cmd:ssh host)",
           [&a](const char* v) -> std::string {
             const std::string s = v;
             if (s != "inproc" && s != "fork" && s != "cmd" &&
                 s.rfind("cmd:", 0) != 0)
               return "wants inproc, fork, or cmd[:PREFIX]";
             a.launcher = s;
             return "";
           }},
          {"--workers", "N",
           "coordinator worker slots (default 2; implies --launcher inproc "
           "when none given)",
           cli::integer(&a.workers, 1, 1 << 16, "an integer >= 1")},
          {"--steal", "", "work-steal chunks between coordinator workers",
           cli::on(&a.steal)},
          {"--resume", "",
           "skip points already ok in the --jsonl artifact (tolerates a torn "
           "last line from a crash)",
           cli::on(&a.resume)},
          {"--trace", "PATH",
           "record a span trace of the run; .json writes Chrome/Perfetto "
           "trace-event JSON, anything else the compact binary format (see "
           "unimem_trace)",
           cli::text(&a.trace)},
          {"--trace-buf", "N",
           "per-thread trace ring capacity in events (default 16384; overflow "
           "drops, never blocks)",
           cli::count(&a.trace_buf, 1, 1ull << 30, "events in [1, 2^30]")},
          {"--smoke", "", "clamp to smoke scale (same as UNIMEM_BENCH_SMOKE=1)",
           cli::on(&a.smoke), true},
          {"--quiet", "", "suppress the stdout table", cli::on(&a.quiet)},
          {"", "",
           "fault-injection / internal (used by tests and the cmd launcher):",
           nullptr},
          {"--inject-fail", "P[:SEED]",
           "fail each point's first attempt with seeded probability P "
           "(deterministic per index)",
           [&a](const char* v) -> std::string {
             const std::string s = v;
             const std::size_t colon = std::min(s.find(':'), s.size());
             unsigned long long seed = a.inject_seed;
             if ((colon < s.size() &&
                  !cli::parse_u64(v + colon + 1, 0, UINT64_MAX, &seed)) ||
                 !cli::parse_f64(s.substr(0, colon).c_str(), 0.0, 1.0,
                                 &a.inject_fail))
               return "wants P[:SEED] with P in [0, 1]";
             a.inject_seed = seed;
             return "";
           },
           true},
          {"--backoff-base", "S", "retry backoff base delay in seconds",
           cli::real(&a.engine.backoff.base_s, 0.0, 3600.0,
                     "seconds in [0, 3600]"),
           true},
          {"--attempt-base", "N", "campaign-global attempt number of this task",
           cli::integer(&a.engine.attempt_base, 0, 1 << 20, "an integer >= 0")},
          {"--task-meta", "PATH",
           "write the engine counter sidecar after the run",
           cli::text(&a.task_meta)},
      },
      [&a](const char* file) {
        if (a.merge) a.merge_inputs.push_back(file);
        return a.merge;
      }};
}

/// The rules that span flags; returns the violated one ("" = none).
std::string check(Args& a) {
  if (a.merge && a.merge_inputs.empty())
    return "--merge needs shard JSONL files";
  if (a.merge && (a.shard >= 0 || a.shards > 0))
    return "--merge excludes --shard/--shards";
  if (a.shard >= 0 && a.shards > 0)
    return "pick one of --shard or --shards";
  if (a.shards > 0) {
    if (!a.launcher.empty() || a.workers > 0)
      return "--shards N means --launcher fork --workers N; pass either "
             "--shards or --launcher/--workers";
    a.launcher = "fork";
    a.workers = a.shards;
  }
  // --steal/--workers only mean something under a coordinator; default
  // them into the cheapest launcher rather than silently ignoring them.
  if (a.launcher.empty() && (a.steal || a.workers > 0)) a.launcher = "inproc";
  if (!a.launcher.empty() && a.shard >= 0)
    return "--launcher excludes --shard (the coordinator owns the topology)";
  if (a.resume && a.jsonl.empty())
    return "--resume needs --jsonl PATH (the artifact to resume from)";
  return "";
}

/// What --summary-json reports (README "Summary JSON schema").
struct Summary {
  std::size_t points = 0, failed = 0, retries = 0, resumed = 0;
  /// The finished run's engine aggregates; null while a campaign is live.
  const sweep::SweepOutcome* totals = nullptr;
  const sweep::CampaignOutcome* campaign = nullptr;  ///< service mode only
  const char* launcher = "";                         ///< service mode only
};

/// The one --summary-json writer, for engine and service mode alike: the
/// engine fields, the service fields in service mode, then — once the run
/// is finished — finished_at and the metrics snapshot.  Written to a temp
/// file and renamed, so a watcher always reads a complete document.
bool write_summary(const Args& a, const Summary& s) {
  const std::string tmp = a.summary_json + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f,
               "{\"schema_version\":%d,\"spec\":\"%s\",\"points\":%zu,"
               "\"failed\":%zu,\"retries\":%zu,\"resumed\":%zu,"
               "\"host_cpus\":%u",
               kSummarySchemaVersion, a.spec.c_str(), s.points, s.failed,
               s.retries, s.resumed, std::thread::hardware_concurrency());
  if (s.totals != nullptr)
    std::fprintf(f,
                 ",\"jobs\":%d,\"wall_s\":%.6f,\"worlds_executed\":%zu,"
                 "\"baseline_requests\":%zu,\"baseline_computed\":%zu",
                 s.totals->jobs_used, s.totals->wall_s,
                 s.totals->worlds_executed, s.totals->baseline_requests,
                 s.totals->baseline_computed);
  if (s.campaign != nullptr)
    std::fprintf(f,
                 ",\"done\":%zu,\"steals\":%zu,\"tasks\":%zu,"
                 "\"task_retries\":%zu,\"workers\":%d,\"launcher\":\"%s\","
                 "\"steal\":%s,\"complete\":%s",
                 s.campaign->done, s.campaign->steals, s.campaign->tasks,
                 s.campaign->task_retries, s.campaign->workers, s.launcher,
                 a.steal ? "true" : "false",
                 s.campaign->complete ? "true" : "false");
  if (s.totals != nullptr) {
    const std::time_t now = std::time(nullptr);
    std::tm tm{};
    gmtime_r(&now, &tm);
    char iso8601[32];
    std::strftime(iso8601, sizeof iso8601, "%Y-%m-%dT%H:%M:%SZ", &tm);
    std::fprintf(
        f, ",\"finished_at\":\"%s\",\"metrics\":%s", iso8601,
        trace::MetricsRegistry::global().snapshot().to_json().c_str());
  }
  std::fputs("}\n", f);
  const bool written = std::ferror(f) == 0;
  return std::fclose(f) == 0 && written &&
         std::rename(tmp.c_str(), a.summary_json.c_str()) == 0;
}

/// Writes the final summary (when asked) and maps the run to an exit code.
int conclude(const Args& a, const Summary& s) {
  if (!a.summary_json.empty() && !write_summary(a, s)) {
    std::fprintf(stderr, "unimem_sweep: cannot write %s\n",
                 a.summary_json.c_str());
    return 1;
  }
  return s.failed == 0 ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) try {
  Args a;
  const cli::Table table = options(a);
  const cli::Result parsed = cli::parse(table, argc, argv);
  if (parsed.help) {
    cli::usage(table, stdout);
    return 0;
  }
  const std::string error = parsed.error.empty() ? check(a) : parsed.error;
  if (!error.empty()) return cli::reject(table, error);

  if (a.list) {
    std::printf("%-18s %-7s %-32s %s\n", "spec", "points", "axes", "title");
    for (const std::string& name : sweep::spec_names()) {
      sweep::SweepSpec s = *sweep::spec_by_name(name);
      if (a.smoke || sweep::smoke_requested()) s = sweep::smoke_clamped(s);
      std::string axes;
      for (const std::string& ax : s.axis_names()) {
        if (!axes.empty()) axes += ',';
        axes += ax;
      }
      if (axes.empty()) axes = "-";
      std::printf("%-18s %-7zu %-32s %s\n", name.c_str(), s.size(),
                  axes.c_str(), s.title.c_str());
    }
    return 0;
  }

  std::optional<sweep::SweepSpec> spec;
  if (!a.spec.empty()) {
    spec = sweep::spec_by_name(a.spec);
    if (!spec) {
      std::fprintf(stderr, "unimem_sweep: unknown spec '%s' (try --list)\n",
                   a.spec.c_str());
      return 1;
    }
    if (a.smoke || sweep::smoke_requested())
      *spec = sweep::smoke_clamped(*spec);
  }

  if (a.merge) {
    // Offline mode: no worlds run; per-shard JSONL rows are stitched back
    // into the point-ordered table (byte-identical to a single-process
    // run's outputs, since every row round-trips exactly).
    const std::vector<sweep::SweepRow> rows =
        sweep::merge_shards(a.merge_inputs);
    // merge_shards rejects overlapping shards; missing ones it cannot
    // tell from a filtered run, so cross-check against the spec when
    // named and otherwise at least flag index gaps.
    if (spec) {
      const auto points = spec->expand(a.filter);
      bool complete = rows.size() == points.size();
      for (std::size_t i = 0; complete && i < rows.size(); ++i)
        complete = rows[i].index == points[i].index;
      if (!complete) {
        std::fprintf(stderr,
                     "unimem_sweep: merged rows (%zu) do not cover spec '%s' "
                     "(%zu points) — a shard file is missing or stale\n",
                     rows.size(), a.spec.c_str(), points.size());
        return 1;
      }
    } else if (!rows.empty() &&
               rows.back().index + 1 != rows.size()) {
      std::fprintf(stderr,
                   "unimem_sweep: warning: merged rows leave point indices "
                   "unfilled (fine for a filtered/partial sweep; otherwise a "
                   "shard file is missing — pass --spec to verify coverage)\n");
    }
    sweep::SweepResultStore store;
    if (!a.jsonl.empty()) store.stream_jsonl(a.jsonl);
    if (!a.csv.empty()) store.write_csv_at_finish(a.csv);
    std::size_t failed = 0;
    for (const sweep::SweepRow& r : rows) {
      if (!r.ok) ++failed;
      store.add(r);  // rows arrive point-ordered, so the stream is too
    }
    store.finish();
    if (!a.quiet)
      store
          .report("merged sweep [" + std::to_string(a.merge_inputs.size()) +
                  " shards, " + std::to_string(rows.size()) + " points]")
          .print();
    std::printf("\nmerge: %zu shard files, %zu points, %zu failed\n",
                a.merge_inputs.size(), rows.size(), failed);
    return failed == 0 ? 0 : 2;
  }

  if (!spec) return cli::reject(table, "--spec NAME is required");
  // --profiler/--dag/--tiers collapse their axis to the requested value;
  // explicit points keep their own configs (they never carry these axes).
  if (a.profiler_period) spec->profiler_periods = {*a.profiler_period};
  if (a.dag) spec->dag_schedules = {*a.dag};
  if (a.tiers) spec->topologies = {*a.tiers};

  auto points = spec->expand(a.filter);
  if (points.empty()) {
    std::fprintf(stderr, "unimem_sweep: no points match filter '%s'\n",
                 a.filter.c_str());
    return 1;
  }
  if (a.indices) {
    // Select by expansion index (the cmd launcher's task vocabulary);
    // order follows the list so a chunk executes in its dispatch order.
    std::map<std::size_t, const sweep::SweepPoint*> by_index;
    for (const auto& p : points) by_index[p.index] = &p;
    std::vector<sweep::SweepPoint> picked;
    for (std::size_t idx : *a.indices) {
      if (by_index.count(idx) == 0) {
        std::fprintf(stderr,
                     "unimem_sweep: --indices names point %zu, which the "
                     "expansion does not contain\n",
                     idx);
        return 1;
      }
      picked.push_back(*by_index[idx]);
    }
    points = std::move(picked);
  }
  // Slice after filtering; indices stay those of the full expansion, so a
  // later --merge reassembles the original table.  An empty slice (more
  // shards than points) is a valid degenerate partition member.
  if (a.shard >= 0) points = sweep::shard_slice(points, a.shard, a.nshards);

  if (a.points) {
    std::printf("%-5s %-6s %s\n", "index", "ranks", "label");
    for (const auto& p : points)
      std::printf("%-5zu %-6d %s%s\n", p.index, p.cfg.wcfg.nranks,
                  p.label.c_str(), p.normalize ? "  [normalized]" : "");
    std::printf("%zu points\n", points.size());
    return 0;
  }

  // Resume: read the previous campaign's artifact BEFORE stream_jsonl
  // truncates it.  Only ok rows whose index and label match the current
  // expansion count; failed rows get a second chance.
  std::vector<sweep::SweepRow> resume_rows;
  if (a.resume && std::filesystem::exists(a.jsonl)) {
    std::size_t dropped = 0;
    resume_rows = sweep::read_jsonl_tolerant(a.jsonl, &dropped);
    if (dropped != 0)
      Log::warn(
          "dropped a torn trailing line from %s (previous writer died "
          "mid-write); its point re-runs",
          a.jsonl.c_str());
  }

  if (!a.trace.empty())
    trace::TraceRecorder::instance().start(
        static_cast<std::size_t>(a.trace_buf));

  sweep::SweepResultStore store;
  if (!a.jsonl.empty()) store.stream_jsonl(a.jsonl);
  if (!a.csv.empty()) store.write_csv_at_finish(a.csv);
  // Service and resumed runs may finalize rows out of point order even at
  // --jobs 1; rewriting the artifact at finish keeps the byte-identity
  // contract across every topology.  Plain engine runs keep the streamed
  // file as-is (completion order == point order at --jobs 1).
  if (!a.jsonl.empty() && (a.resume || !a.launcher.empty()))
    store.write_jsonl_at_finish(a.jsonl);

  sweep::EngineOptions& eopts = a.engine;
  if (a.inject_fail > 0) {
    const double prob = a.inject_fail;
    const std::uint64_t seed = a.inject_seed;
    eopts.run_point = [prob, seed](const sweep::SweepPoint& p, int attempt) {
      if (attempt == 0) {
        Rng rng(seed ^ (static_cast<std::uint64_t>(p.index) *
                        0x9e3779b97f4a7c15ull));
        if (rng.uniform() < prob)
          throw std::runtime_error("injected transient fault (attempt 0)");
      }
      return exp::run_once(p.cfg);
    };
  }
  eopts.on_result = [&](const sweep::SweepRow& row) { store.add(row); };

  // ---- service mode: coordinator + pluggable launcher -------------------
  if (!a.launcher.empty()) {
    namespace fs = std::filesystem;
    const int workers = a.workers > 0 ? a.workers : 2;
    if (eopts.jobs <= 0) {
      const unsigned hw = std::thread::hardware_concurrency();
      eopts.jobs = std::max(1, static_cast<int>(hw) / workers);
    }
    eopts.on_result = nullptr;  // rows come back through task artifacts

    std::string scratch =
        (fs::temp_directory_path() / "unimem_sweep.XXXXXX").string();
    if (mkdtemp(scratch.data()) == nullptr) {
      std::fprintf(stderr, "unimem_sweep: cannot create scratch dir\n");
      return 1;
    }

    std::unique_ptr<sweep::Launcher> launcher;
    if (a.launcher == "inproc") {
      launcher = std::make_unique<sweep::InProcessLauncher>();
    } else if (a.launcher == "fork") {
      launcher = std::make_unique<sweep::ForkLauncher>();
    } else {
      // cmd[:PREFIX]: re-invoke this binary (through the PREFIX tokens,
      // e.g. "ssh host") with --indices naming the chunk's points.
      std::vector<std::string> prefix;
      std::istringstream words(a.launcher.size() > 4 ? a.launcher.substr(4)
                                                     : std::string());
      for (std::string w; words >> w;) prefix.push_back(w);
      std::error_code ec;
      const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
      const std::string self = ec ? std::string(argv[0]) : exe.string();
      // The child gets the forwarded flags as the user typed them, then
      // the per-task flags.
      auto make_argv = [self, fwd = parsed.forwarded](
                           const sweep::LaunchTask& t) {
        std::vector<std::string> v{self, "--quiet"};
        v.insert(v.end(), fwd.begin(), fwd.end());
        auto add = [&v](const char* flag, std::string value) {
          v.push_back(flag);
          v.push_back(std::move(value));
        };
        add("--jobs", std::to_string(t.engine.jobs));
        if (t.engine.max_inflight_ranks > 0)
          add("--ranks", std::to_string(t.engine.max_inflight_ranks));
        if (t.engine.max_point_retries > 0)
          add("--retries", std::to_string(t.engine.max_point_retries));
        if (t.attempt_base > 0)
          add("--attempt-base", std::to_string(t.attempt_base));
        if (!t.trace.empty()) {
          // Binary shard spilled next to the artifact; the coordinator
          // harvests and the parent stitches it into the campaign trace.
          add("--trace", t.trace);
          if (t.trace_buf > 0) add("--trace-buf", std::to_string(t.trace_buf));
        }
        std::string idx;
        for (const sweep::SweepPoint& p : t.points) {
          if (!idx.empty()) idx += ',';
          idx += std::to_string(p.index);
        }
        add("--indices", idx);
        add("--jsonl", t.artifact);
        add("--task-meta", t.artifact + ".meta");
        return v;
      };
      launcher = std::make_unique<sweep::CommandLauncher>(std::move(prefix),
                                                          make_argv);
    }

    sweep::CoordinatorOptions copts;
    copts.launcher = launcher.get();
    copts.workers = workers;
    copts.steal = a.steal;
    copts.engine = eopts;
    copts.scratch_dir = scratch;
    // In-process tasks emit straight into this process's recorder; the
    // process launchers need per-task shards to see inside the children.
    copts.trace_tasks = !a.trace.empty() && a.launcher != "inproc";
    copts.trace_buf = static_cast<std::size_t>(a.trace_buf);
    copts.resume_rows = std::move(resume_rows);
    copts.on_final_row = [&](const sweep::SweepRow& row) { store.add(row); };
    auto summary = [&](const sweep::CampaignOutcome& c, bool finished) {
      return Summary{c.rows.size(), c.failed, c.retries, c.resumed,
                     finished ? &c : nullptr, &c, launcher->name()};
    };
    copts.on_progress = [&](const sweep::CampaignOutcome& live) {
      // Best effort: only the final summary's write is checked.
      if (!a.summary_json.empty()) write_summary(a, summary(live, false));
    };

    sweep::CampaignOutcome outcome;
    try {
      outcome = sweep::run_campaign(points, copts);
    } catch (...) {
      fs::remove_all(scratch);
      throw;
    }
    if (!a.trace.empty()) {
      // Stitch the coordinator's own events with every harvested task
      // shard (they live in scratch, so merge before removal).  Each
      // task's tracks get a "task-N/" prefix so per-worker rank threads
      // stay distinguishable in the stitched timeline.
      trace::TraceData merged = trace::TraceRecorder::instance().stop();
      for (const std::string& shard : outcome.trace_shards) {
        trace::TraceData sd;
        if (!trace::read_binary(shard, &sd)) {
          Log::warn("skipping unreadable trace shard %s", shard.c_str());
          continue;
        }
        // "<scratch>/task-N.jsonl.trace" -> "task-N/"
        const std::string task = fs::path(shard).stem().stem().string();
        trace::merge_into(&merged, sd, task + "/");
      }
      if (!export_trace(std::move(merged), a.trace))
        Log::warn("cannot write trace %s", a.trace.c_str());
    }
    fs::remove_all(scratch);
    store.finish();

    if (!a.quiet) {
      store.report(spec->title + " [" + a.spec + ", " +
                   std::to_string(points.size()) + " points, service]")
          .print();
    }
    std::printf(
        "\nsweep %s [service/%s]: %zu points, %zu failed, %zu resumed, "
        "%zu retries, %zu steals, %zu tasks (%zu re-dispatched), %d workers, "
        "%.2fs wall, %zu worlds executed\n",
        a.spec.c_str(), launcher->name(), outcome.rows.size(), outcome.failed,
        outcome.resumed, outcome.retries, outcome.steals, outcome.tasks,
        outcome.task_retries, outcome.workers, outcome.wall_s,
        outcome.worlds_executed);

    // The final summary adds the engine aggregates that only exist once
    // every task sidecar is in.
    return conclude(a, summary(outcome, true));
  }

  // ---- engine mode: one process ------------------------------------------
  const std::size_t total_points = points.size();
  std::size_t resumed = 0;
  if (a.resume) {
    sweep::ResumeSplit split = sweep::split_resume(points, resume_rows);
    for (const sweep::SweepRow& row : split.done) store.add(row);
    resumed = split.done.size();
    points = std::move(split.todo);
  }

  sweep::SweepOutcome outcome;
  if (!points.empty()) outcome = sweep::SweepEngine(eopts).run(points);
  store.finish();

  if (!a.trace.empty() &&
      !export_trace(trace::TraceRecorder::instance().stop(), a.trace))
    Log::warn("cannot write trace %s", a.trace.c_str());

  // Engine counter sidecar, so a coordinator that launched this
  // invocation via the cmd launcher can aggregate world/baseline/retry
  // counters across the fleet.
  if (!a.task_meta.empty()) sweep::write_task_meta(a.task_meta, outcome);

  // A figure pivot reads in-memory-only RunResult fields, which resumed
  // (JSONL round-trip) rows lack, so only rows run here get the pivot.  An
  // axis override changes the grid the pivot was declared for (dag_slack
  // keys on the dag axis --dag collapses), so it gets the per-point table.
  const bool overridden = a.profiler_period || a.dag || a.tiers;
  if (!a.quiet && spec->table != nullptr && resumed == 0 && !overridden) {
    for (const exp::Report& rep : spec->table(*spec, outcome.rows)) rep.print();
  } else if (!a.quiet) {
    store.report(spec->title + " [" + a.spec + ", " +
                 std::to_string(total_points) + " points]")
        .print();
  }
  std::printf(
      "\nsweep %s: %zu points, %zu failed, %zu resumed, %.2fs wall, "
      "%zu worlds executed (naive: %zu), %zu/%zu baselines memoized\n",
      a.spec.c_str(), total_points, outcome.failed, resumed, outcome.wall_s,
      outcome.worlds_executed, outcome.rows.size() + outcome.baseline_requests,
      outcome.baseline_requests - outcome.baseline_computed,
      outcome.baseline_requests);

  return conclude(a, {total_points, outcome.failed, outcome.retries, resumed,
                      &outcome});
} catch (const std::exception& e) {
  std::fprintf(stderr, "unimem_sweep: %s\n", e.what());
  return 1;
}
