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
// reported in deterministic spec order.  UNIMEM_BENCH_SMOKE=1 (or
// --smoke) shrinks the spec to smoke scale, same as the bench harnesses.
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
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <exception>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

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

/// Version of the --summary-json document layout (see README "Summary
/// JSON schema").  Bump when fields change meaning or go away; adding
/// fields is compatible and does not bump.
constexpr int kSummarySchemaVersion = 3;

std::string iso8601_utc_now() {
  const std::time_t now = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// The schema_version/finished_at/metrics tail shared by every final
/// summary writer (the live service summary carries schema_version only —
/// the campaign has not finished and metrics are still accumulating).
std::string summary_tail() {
  return ",\"finished_at\":\"" + iso8601_utc_now() + "\",\"metrics\":" +
         unimem::trace::MetricsRegistry::global().snapshot().to_json();
}

/// Export by extension: .json = Chrome trace-event (Perfetto-loadable),
/// anything else = the compact binary spill format.
bool export_trace(unimem::trace::TraceData data, const std::string& path) {
  unimem::trace::sort_events(&data);
  const bool json =
      path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  return json ? unimem::trace::write_chrome_json(data, path)
              : unimem::trace::write_binary(data, path);
}

void usage(std::FILE* out) {
  std::fputs(
      "usage: unimem_sweep --spec NAME [options]\n"
      "       unimem_sweep --list\n"
      "\n"
      "options:\n"
      "  --spec NAME          built-in spec to run (see --list)\n"
      "  --jobs N             concurrent jobs (default: hardware threads)\n"
      "  --ranks N            max simulated ranks in flight (default: 4*jobs)\n"
      "  --filter STR         run only points whose label contains STR\n"
      "  --indices I,J,...    run only the named expansion indices\n"
      "  --points             print the expanded point list and exit\n"
      "  --csv PATH           write the result table as CSV\n"
      "  --jsonl PATH         stream per-point results as JSONL\n"
      "  --summary-json PATH  write a machine-readable batch summary\n"
      "                       (service mode rewrites it live per task)\n"
      "  --shard I/N          run only the I-th of N deterministic shard slices\n"
      "  --shards N           fork N worker processes and merge their rows;\n"
      "                       an alias for --launcher fork --workers N\n"
      "  --merge FILE...      stitch per-shard JSONL files into --csv/--jsonl\n"
      "                       (with --spec: verify the merge covers the spec)\n"
      "  --profiler exact|N   override the spec's profiling tier: exact, or\n"
      "                       sampled with base period N (collapses the prof axis)\n"
      "  --dag off|slack      override the spec's phase-DAG scheduling mode\n"
      "                       (collapses the dag axis)\n"
      "  --tiers SPEC         override the spec's memory topology: a\n"
      "                       parse_topology ladder such as\n"
      "                       hbm:1MiB,dram:4MiB,nvm:512MiB, or 'classic' for\n"
      "                       the 2-tier machine (collapses the tiers axis)\n"
      "  --retries N          re-run failed points up to N times with capped\n"
      "                       deterministic exponential backoff\n"
      "  --launcher KIND      service mode: dispatch via a coordinator; KIND is\n"
      "                       inproc, fork, or cmd[:PREFIX] (e.g. cmd:ssh host)\n"
      "  --workers N          coordinator worker slots (default 2; implies\n"
      "                       --launcher inproc when none given)\n"
      "  --steal              work-steal chunks between coordinator workers\n"
      "  --resume             skip points already ok in the --jsonl artifact\n"
      "                       (tolerates a torn last line from a crash)\n"
      "  --trace PATH         record a span trace of the run; .json writes\n"
      "                       Chrome/Perfetto trace-event JSON, anything else\n"
      "                       the compact binary format (see unimem_trace)\n"
      "  --trace-buf N        per-thread trace ring capacity in events\n"
      "                       (default 16384; overflow drops, never blocks)\n"
      "  --smoke              clamp to smoke scale (same as UNIMEM_BENCH_SMOKE=1)\n"
      "  --quiet              suppress the stdout table\n"
      "\n"
      "fault-injection / internal (used by tests and the cmd launcher):\n"
      "  --inject-fail P[:SEED]  fail each point's first attempt with seeded\n"
      "                          probability P (deterministic per index)\n"
      "  --backoff-base S        retry backoff base delay in seconds\n"
      "  --attempt-base N        campaign-global attempt number of this task\n"
      "  --task-meta PATH        write the engine counter sidecar after the run\n",
      out);
}

/// Strict full-string signed parse: rejects empty strings, trailing
/// garbage ("16x"), and out-of-range values — unlike atoi/atol, which
/// accept all three silently.
bool parse_i64(const char* s, long long lo, long long hi, long long* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool parse_u64(const char* s, unsigned long long lo, unsigned long long hi,
               unsigned long long* out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (v < lo || v > hi) return false;
  *out = v;
  return true;
}

bool parse_f64(const char* s, double lo, double hi, double* out) {
  if (s == nullptr || *s == '\0') return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno == ERANGE || end == s || *end != '\0') return false;
  if (!(v >= lo && v <= hi)) return false;
  *out = v;
  return true;
}

struct Args {
  std::string spec;
  std::string filter;
  std::string profiler;  ///< --profiler exact|N ("" = spec default)
  std::string dag;       ///< --dag off|slack ("" = spec default)
  std::string tiers;     ///< --tiers SPEC|classic ("" = spec default)
  bool have_tiers = false;
  std::string csv, jsonl, summary_json;
  std::string launcher;   ///< "" = engine mode; inproc|fork|cmd[:PREFIX]
  std::string task_meta;  ///< --task-meta sidecar path ("" = none)
  std::string trace;      ///< --trace output path ("" = tracing off)
  unsigned long long trace_buf = 0;  ///< --trace-buf (0 = default ring)
  std::vector<std::string> merge_inputs;
  std::vector<std::size_t> indices;  ///< --indices selection ("" = all)
  bool have_indices = false;
  int jobs = 0;
  int ranks = 0;
  int shard = -1, nshards = 0;  ///< --shard I/N
  int retries = 0;
  int workers = 0;  ///< 0 = default (2) in service mode
  int attempt_base = 0;
  double inject_fail = 0.0;
  std::uint64_t inject_seed = 20177;  ///< conf_sc_WuHL17 vintage
  double backoff_base = -1.0;         ///< < 0 = RetryBackoff default
  bool steal = false, resume = false;
  bool list = false, points = false, smoke = false, quiet = false;
  bool merge = false;
};

bool parse(int argc, char** argv, Args& a) {
  int shards = 0;  // --shards N, resolved into launcher/workers below
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "unimem_sweep: %s needs a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage(stdout);
      std::exit(0);
    } else if (arg == "--list") {
      a.list = true;
    } else if (arg == "--points") {
      a.points = true;
    } else if (arg == "--smoke") {
      a.smoke = true;
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else if (arg == "--steal") {
      a.steal = true;
    } else if (arg == "--resume") {
      a.resume = true;
    } else if (arg == "--spec") {
      const char* v = value("--spec");
      if (v == nullptr) return false;
      a.spec = v;
    } else if (arg == "--filter") {
      const char* v = value("--filter");
      if (v == nullptr) return false;
      a.filter = v;
    } else if (arg == "--profiler") {
      const char* v = value("--profiler");
      if (v == nullptr) return false;
      a.profiler = v;
      unsigned long long period = 0;
      if (a.profiler != "exact" &&
          !parse_u64(v, 1, UINT64_MAX, &period)) {
        std::fprintf(stderr,
                     "unimem_sweep: --profiler wants 'exact' or a period N "
                     ">= 1 (got '%s')\n",
                     v);
        return false;
      }
    } else if (arg == "--dag") {
      const char* v = value("--dag");
      if (v == nullptr) return false;
      a.dag = v;
      if (a.dag != "off" && a.dag != "slack") {
        std::fprintf(stderr,
                     "unimem_sweep: --dag wants 'off' or 'slack' (got '%s')\n",
                     v);
        return false;
      }
    } else if (arg == "--tiers") {
      const char* v = value("--tiers");
      if (v == nullptr) return false;
      a.have_tiers = true;
      a.tiers = v;
      if (a.tiers == "classic") a.tiers.clear();
      if (!a.tiers.empty()) {
        try {
          (void)unimem::mem::parse_topology(a.tiers);
        } catch (const std::exception& e) {
          std::fprintf(stderr,
                       "unimem_sweep: --tiers wants 'classic' or a topology "
                       "like hbm:1MiB,dram:4MiB,nvm:512MiB (%s)\n",
                       e.what());
          return false;
        }
      }
    } else if (arg == "--csv") {
      const char* v = value("--csv");
      if (v == nullptr) return false;
      a.csv = v;
    } else if (arg == "--jsonl") {
      const char* v = value("--jsonl");
      if (v == nullptr) return false;
      a.jsonl = v;
    } else if (arg == "--summary-json") {
      const char* v = value("--summary-json");
      if (v == nullptr) return false;
      a.summary_json = v;
    } else if (arg == "--task-meta") {
      const char* v = value("--task-meta");
      if (v == nullptr) return false;
      a.task_meta = v;
    } else if (arg == "--trace") {
      const char* v = value("--trace");
      if (v == nullptr) return false;
      a.trace = v;
    } else if (arg == "--trace-buf") {
      const char* v = value("--trace-buf");
      if (v == nullptr) return false;
      if (!parse_u64(v, 1, 1ull << 30, &a.trace_buf)) {
        std::fprintf(stderr, "unimem_sweep: --trace-buf wants events in "
                     "[1, 2^30] (got '%s')\n", v);
        return false;
      }
    } else if (arg == "--launcher") {
      const char* v = value("--launcher");
      if (v == nullptr) return false;
      a.launcher = v;
      if (a.launcher != "inproc" && a.launcher != "fork" &&
          a.launcher != "cmd" && a.launcher.rfind("cmd:", 0) != 0) {
        std::fprintf(stderr,
                     "unimem_sweep: --launcher wants inproc, fork, or "
                     "cmd[:PREFIX] (got '%s')\n",
                     v);
        return false;
      }
    } else if (arg == "--jobs") {
      const char* v = value("--jobs");
      if (v == nullptr) return false;
      long long n = 0;
      if (!parse_i64(v, 0, 1 << 20, &n)) {
        std::fprintf(stderr, "unimem_sweep: --jobs wants an integer >= 0 "
                     "(got '%s')\n", v);
        return false;
      }
      a.jobs = static_cast<int>(n);
    } else if (arg == "--ranks") {
      const char* v = value("--ranks");
      if (v == nullptr) return false;
      long long n = 0;
      if (!parse_i64(v, 0, 1 << 20, &n)) {
        std::fprintf(stderr, "unimem_sweep: --ranks wants an integer >= 0 "
                     "(got '%s')\n", v);
        return false;
      }
      a.ranks = static_cast<int>(n);
    } else if (arg == "--retries") {
      const char* v = value("--retries");
      if (v == nullptr) return false;
      long long n = 0;
      if (!parse_i64(v, 0, 1000, &n)) {
        std::fprintf(stderr, "unimem_sweep: --retries wants an integer in "
                     "[0, 1000] (got '%s')\n", v);
        return false;
      }
      a.retries = static_cast<int>(n);
    } else if (arg == "--workers") {
      const char* v = value("--workers");
      if (v == nullptr) return false;
      long long n = 0;
      if (!parse_i64(v, 1, 1 << 16, &n)) {
        std::fprintf(stderr, "unimem_sweep: --workers wants an integer >= 1 "
                     "(got '%s')\n", v);
        return false;
      }
      a.workers = static_cast<int>(n);
    } else if (arg == "--attempt-base") {
      const char* v = value("--attempt-base");
      if (v == nullptr) return false;
      long long n = 0;
      if (!parse_i64(v, 0, 1 << 20, &n)) {
        std::fprintf(stderr, "unimem_sweep: --attempt-base wants an integer "
                     ">= 0 (got '%s')\n", v);
        return false;
      }
      a.attempt_base = static_cast<int>(n);
    } else if (arg == "--backoff-base") {
      const char* v = value("--backoff-base");
      if (v == nullptr) return false;
      if (!parse_f64(v, 0.0, 3600.0, &a.backoff_base)) {
        std::fprintf(stderr, "unimem_sweep: --backoff-base wants seconds in "
                     "[0, 3600] (got '%s')\n", v);
        return false;
      }
    } else if (arg == "--inject-fail") {
      const char* v = value("--inject-fail");
      if (v == nullptr) return false;
      std::string spec = v;
      const std::size_t colon = spec.find(':');
      bool ok = true;
      if (colon != std::string::npos) {
        unsigned long long seed = 0;
        ok = parse_u64(spec.c_str() + colon + 1, 0, UINT64_MAX, &seed);
        a.inject_seed = seed;
        spec.resize(colon);
      }
      if (!ok || !parse_f64(spec.c_str(), 0.0, 1.0, &a.inject_fail)) {
        std::fprintf(stderr, "unimem_sweep: --inject-fail wants P[:SEED] "
                     "with P in [0, 1] (got '%s')\n", v);
        return false;
      }
    } else if (arg == "--indices") {
      const char* v = value("--indices");
      if (v == nullptr) return false;
      a.have_indices = true;
      const std::string list = v;
      std::size_t start = 0;
      bool ok = !list.empty();
      while (ok && start <= list.size()) {
        std::size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        unsigned long long idx = 0;
        ok = parse_u64(list.substr(start, comma - start).c_str(), 0,
                       SIZE_MAX, &idx);
        if (ok) a.indices.push_back(static_cast<std::size_t>(idx));
        start = comma + 1;
      }
      if (!ok) {
        std::fprintf(stderr, "unimem_sweep: --indices wants a comma-separated "
                     "integer list (got '%s')\n", v);
        return false;
      }
    } else if (arg == "--shard") {
      const char* v = value("--shard");
      if (v == nullptr) return false;
      int consumed = -1;
      if (std::sscanf(v, "%d/%d%n", &a.shard, &a.nshards, &consumed) != 2 ||
          consumed != static_cast<int>(std::strlen(v)) || a.shard < 0 ||
          a.nshards < 1 || a.shard >= a.nshards) {
        std::fprintf(stderr,
                     "unimem_sweep: --shard wants I/N with 0 <= I < N "
                     "(got '%s')\n",
                     v);
        return false;
      }
    } else if (arg == "--shards") {
      const char* v = value("--shards");
      if (v == nullptr) return false;
      long long n = 0;
      if (!parse_i64(v, 1, 1 << 16, &n)) {
        std::fprintf(stderr, "unimem_sweep: --shards wants N >= 1 (got '%s')\n",
                     v);
        return false;
      }
      shards = static_cast<int>(n);
    } else if (arg == "--merge") {
      a.merge = true;
    } else if (a.merge && !arg.empty() && arg[0] != '-') {
      a.merge_inputs.push_back(arg);
    } else {
      std::fprintf(stderr, "unimem_sweep: unknown option '%s'\n", arg.c_str());
      return false;
    }
  }
  if (a.merge && a.merge_inputs.empty()) {
    std::fprintf(stderr, "unimem_sweep: --merge needs shard JSONL files\n");
    return false;
  }
  if (a.merge && (a.shard >= 0 || shards > 0)) {
    std::fprintf(stderr, "unimem_sweep: --merge excludes --shard/--shards\n");
    return false;
  }
  if (a.shard >= 0 && shards > 0) {
    std::fprintf(stderr, "unimem_sweep: pick one of --shard or --shards\n");
    return false;
  }
  if (shards > 0) {
    if (!a.launcher.empty() || a.workers > 0) {
      std::fprintf(stderr,
                   "unimem_sweep: --shards N means --launcher fork --workers "
                   "N; pass either --shards or --launcher/--workers\n");
      return false;
    }
    a.launcher = "fork";
    a.workers = shards;
  }
  // --steal/--workers only mean something under a coordinator; default
  // them into the cheapest launcher rather than silently ignoring them.
  if (a.launcher.empty() && (a.steal || a.workers > 0)) a.launcher = "inproc";
  if (!a.launcher.empty() && a.shard >= 0) {
    std::fprintf(stderr,
                 "unimem_sweep: --launcher excludes --shard (the "
                 "coordinator owns the topology)\n");
    return false;
  }
  if (a.resume && a.jsonl.empty()) {
    std::fprintf(stderr, "unimem_sweep: --resume needs --jsonl PATH (the "
                 "artifact to resume from)\n");
    return false;
  }
  return true;
}

/// Absolute path of this binary, for the cmd launcher's self-invocation.
std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
  return argv0;
}

}  // namespace

int run_cli(int argc, char** argv);

int main(int argc, char** argv) {
  try {
    return run_cli(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "unimem_sweep: %s\n", e.what());
    return 1;
  }
}

int run_cli(int argc, char** argv) {
  using namespace unimem;
  Args a;
  if (!parse(argc, argv, a)) {
    usage(stderr);
    return 1;
  }

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

  if (a.merge) {
    // Offline mode: no worlds run; per-shard JSONL rows are stitched back
    // into the point-ordered table (byte-identical to a single-process
    // run's outputs, since every row round-trips exactly).
    const std::vector<sweep::SweepRow> rows =
        sweep::merge_shards(a.merge_inputs);
    // merge_shards rejects overlapping shards; missing ones it cannot
    // tell from a filtered run, so cross-check against the spec when
    // named and otherwise at least flag index gaps.
    if (!a.spec.empty()) {
      auto spec = sweep::spec_by_name(a.spec);
      if (!spec) {
        std::fprintf(stderr, "unimem_sweep: unknown spec '%s' (try --list)\n",
                     a.spec.c_str());
        return 1;
      }
      if (a.smoke || sweep::smoke_requested()) *spec = sweep::smoke_clamped(*spec);
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

  if (a.spec.empty()) {
    usage(stderr);
    return 1;
  }
  auto spec = sweep::spec_by_name(a.spec);
  if (!spec) {
    std::fprintf(stderr, "unimem_sweep: unknown spec '%s' (try --list)\n",
                 a.spec.c_str());
    return 1;
  }
  if (a.smoke || sweep::smoke_requested()) *spec = sweep::smoke_clamped(*spec);
  if (!a.profiler.empty()) {
    // Collapse the profiling-tier axis to the requested value; explicit
    // points keep their own configs (they never carry the prof axis).
    unsigned long long period = 0;
    if (a.profiler != "exact")
      parse_u64(a.profiler.c_str(), 1, UINT64_MAX, &period);  // parse() vetted
    spec->profiler_periods = {static_cast<std::uint64_t>(period)};
  }
  if (!a.dag.empty()) {
    // Collapse the phase-DAG scheduling axis to the requested value.
    spec->dag_schedules = {a.dag == "slack" ? rt::DagSchedule::kSlack
                                            : rt::DagSchedule::kOff};
  }
  if (a.have_tiers) {
    // Collapse the memory-topology axis to the requested ladder ("" after
    // parse() = the classic 2-tier machine).
    spec->topologies = {a.tiers};
  }

  auto points = spec->expand(a.filter);
  if (points.empty()) {
    std::fprintf(stderr, "unimem_sweep: no points match filter '%s'\n",
                 a.filter.c_str());
    return 1;
  }
  if (a.have_indices) {
    // Select by expansion index (the cmd launcher's task vocabulary);
    // order follows the list so a chunk executes in its dispatch order.
    std::map<std::size_t, const sweep::SweepPoint*> by_index;
    for (const auto& p : points) by_index[p.index] = &p;
    std::vector<sweep::SweepPoint> picked;
    for (std::size_t idx : a.indices) {
      const auto it = by_index.find(idx);
      if (it == by_index.end()) {
        std::fprintf(stderr,
                     "unimem_sweep: --indices names point %zu, which the "
                     "expansion does not contain\n",
                     idx);
        return 1;
      }
      picked.push_back(*it->second);
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

  sweep::EngineOptions eopts;
  eopts.jobs = a.jobs;
  eopts.max_inflight_ranks = a.ranks;
  eopts.max_point_retries = a.retries;
  eopts.attempt_base = a.attempt_base;
  if (a.backoff_base >= 0) eopts.backoff.base_s = a.backoff_base;
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
      if (a.launcher.rfind("cmd:", 0) == 0) {
        const std::string rest = a.launcher.substr(4);
        std::size_t start = 0;
        while (start < rest.size()) {
          std::size_t sp = rest.find(' ', start);
          if (sp == std::string::npos) sp = rest.size();
          if (sp > start) prefix.push_back(rest.substr(start, sp - start));
          start = sp + 1;
        }
      }
      const std::string self = self_exe(argv[0]);
      const Args args_copy = a;
      auto make_argv = [self, args_copy](const sweep::LaunchTask& t) {
        std::vector<std::string> v{self, "--spec", args_copy.spec, "--quiet"};
        if (args_copy.smoke) v.push_back("--smoke");
        if (!args_copy.profiler.empty()) {
          v.push_back("--profiler");
          v.push_back(args_copy.profiler);
        }
        if (!args_copy.dag.empty()) {
          v.push_back("--dag");
          v.push_back(args_copy.dag);
        }
        if (args_copy.have_tiers) {
          v.push_back("--tiers");
          v.push_back(args_copy.tiers.empty() ? "classic" : args_copy.tiers);
        }
        v.push_back("--jobs");
        v.push_back(std::to_string(t.engine.jobs));
        if (t.engine.max_inflight_ranks > 0) {
          v.push_back("--ranks");
          v.push_back(std::to_string(t.engine.max_inflight_ranks));
        }
        if (t.engine.max_point_retries > 0) {
          v.push_back("--retries");
          v.push_back(std::to_string(t.engine.max_point_retries));
        }
        if (args_copy.backoff_base >= 0) {
          v.push_back("--backoff-base");
          v.push_back(std::to_string(args_copy.backoff_base));
        }
        if (args_copy.inject_fail > 0) {
          v.push_back("--inject-fail");
          v.push_back(std::to_string(args_copy.inject_fail) + ":" +
                      std::to_string(args_copy.inject_seed));
        }
        if (t.attempt_base > 0) {
          v.push_back("--attempt-base");
          v.push_back(std::to_string(t.attempt_base));
        }
        if (!t.trace.empty()) {
          // Binary shard spilled next to the artifact; the coordinator
          // harvests and the parent stitches it into the campaign trace.
          v.push_back("--trace");
          v.push_back(t.trace);
          if (t.trace_buf > 0) {
            v.push_back("--trace-buf");
            v.push_back(std::to_string(t.trace_buf));
          }
        }
        std::string idx;
        for (const sweep::SweepPoint& p : t.points) {
          if (!idx.empty()) idx += ',';
          idx += std::to_string(p.index);
        }
        v.push_back("--indices");
        v.push_back(idx);
        v.push_back("--jsonl");
        v.push_back(t.artifact);
        v.push_back("--task-meta");
        v.push_back(t.artifact + ".meta");
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
    // Service summary: the campaign counters, then whatever `more`
    // prints.  Written to a temp file and renamed, so a watcher always
    // reads a complete JSON document, mid-campaign too.
    auto write_summary = [&](const sweep::CampaignProgress& p,
                             const std::function<void(std::FILE*)>& more) {
      const std::string tmp = a.summary_json + ".tmp";
      std::FILE* f = std::fopen(tmp.c_str(), "w");
      if (f == nullptr) return false;
      std::fprintf(
          f,
          "{\"schema_version\":%d,\"spec\":\"%s\",\"points\":%zu,"
          "\"done\":%zu,\"failed\":%zu,"
          "\"resumed\":%zu,\"retries\":%zu,\"steals\":%zu,\"tasks\":%zu,"
          "\"task_retries\":%zu,\"workers\":%d,\"launcher\":\"%s\","
          "\"steal\":%s,\"complete\":%s,\"host_cpus\":%u",
          kSummarySchemaVersion, a.spec.c_str(), p.total, p.done, p.failed,
          p.resumed, p.retries, p.steals, p.tasks, p.task_retries, workers,
          launcher->name(), a.steal ? "true" : "false",
          p.complete ? "true" : "false", std::thread::hardware_concurrency());
      more(f);
      std::fputs("}\n", f);
      return std::fclose(f) == 0 &&
             std::rename(tmp.c_str(), a.summary_json.c_str()) == 0;
    };
    sweep::CampaignProgress last;  // run_campaign ends with complete=true
    copts.on_progress = [&](const sweep::CampaignProgress& p) {
      last = p;
      if (!a.summary_json.empty()) write_summary(p, [](std::FILE*) {});
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
        std::string task = fs::path(shard).filename().string();
        const std::size_t dot = task.find('.');
        if (dot != std::string::npos) task.resize(dot);
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

    // Final summary: the live fields plus the engine aggregates that only
    // exist once every task sidecar is in.
    if (!a.summary_json.empty() &&
        !write_summary(last, [&](std::FILE* f) {
          std::fprintf(f,
                       ",\"jobs\":%d,\"wall_s\":%.6f,\"worlds_executed\":%zu,"
                       "\"baseline_requests\":%zu,\"baseline_computed\":%zu%s",
                       outcome.jobs_used, outcome.wall_s,
                       outcome.worlds_executed, outcome.baseline_requests,
                       outcome.baseline_computed, summary_tail().c_str());
        })) {
      std::fprintf(stderr, "unimem_sweep: cannot write %s\n",
                   a.summary_json.c_str());
      return 1;
    }
    return outcome.failed == 0 ? 0 : 2;
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

  if (!a.quiet) {
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

  if (!a.summary_json.empty()) {
    std::FILE* f = std::fopen(a.summary_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "unimem_sweep: cannot open %s\n",
                   a.summary_json.c_str());
      return 1;
    }
    std::fprintf(
        f,
        "{\"schema_version\":%d,\"spec\":\"%s\",\"points\":%zu,"
        "\"failed\":%zu,\"jobs\":%d,\"retries\":%zu,\"resumed\":%zu,"
        "\"wall_s\":%.6f,\"worlds_executed\":%zu,\"baseline_requests\":%zu,"
        "\"baseline_computed\":%zu,\"host_cpus\":%u%s}\n",
        kSummarySchemaVersion, a.spec.c_str(), total_points, outcome.failed,
        outcome.jobs_used, outcome.retries, resumed,
        outcome.wall_s, outcome.worlds_executed, outcome.baseline_requests,
        outcome.baseline_computed, std::thread::hardware_concurrency(),
        summary_tail().c_str());
    std::fclose(f);
  }
  return outcome.failed == 0 ? 0 : 2;
}
