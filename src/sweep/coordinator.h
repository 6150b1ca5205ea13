// Campaign coordinator: the sweep service's control plane.
//
// run_campaign() drives a set of sweep points to completion through a
// pluggable Launcher (launcher.h).  It is the one multi-process sweep
// path — `unimem_sweep --shards N` is a campaign on the fork launcher
// with N workers — and a fault-tolerant service:
//
//   * CHUNKED DISPATCH — points are dealt to worker slots with
//     shard_slice (whole baseline groups stay together), then each slice
//     is cut into chunks so a finished worker can pick up more work.
//   * WORK STEALING — a worker whose own queue drains takes chunks from
//     the most-loaded sibling's queue tail, so one straggling slice no
//     longer bounds campaign wall-clock.
//   * RETRIES — failed points are re-run with deterministic capped
//     exponential backoff (EngineOptions::max_point_retries inside each
//     task; RetryBackoff schedules are pure functions of seed/point/
//     attempt, so recovery is reproducible).
//   * TASK REASSIGNMENT — a task whose worker DIES (nonzero exit,
//     signal, lost ssh...) has its unfinished points re-dispatched up to
//     max_task_retries times; rows the dead task already streamed are
//     kept (its artifact is read with the crash-tolerant reader).
//   * RESUME — rows from a previous campaign's artifact are accepted
//     up front (split_resume) and their points never re-run
//     (crash-restart).
//
// The coordinator itself NEVER spawns a thread: it is a single-threaded
// event loop around Launcher::wait_any().  That is a hard constraint, not
// a style choice — process launchers fork(), and forking a multi-threaded
// parent whose child spawns threads is forbidden under TSan (and unsound
// in general).  All parallelism lives inside tasks.
//
// Determinism contract: per-point rows are bitwise identical no matter
// which worker ran them, how often they were retried, or whether the
// campaign was resumed — so the final point-ordered rows (and any
// artifact written from them) are byte-identical across every topology.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "sweep/launcher.h"

namespace unimem::sweep {

struct CampaignOutcome;

struct CoordinatorOptions {
  Launcher* launcher = nullptr;  ///< required; not owned
  /// Concurrent worker slots (tasks in flight); also the shard_slice
  /// fan-out that decides chunk ownership.
  int workers = 2;
  /// Allow idle workers to take chunks from other workers' queues.  With
  /// stealing each worker's slice is cut into about four tasks, so there is
  /// something to steal; without it each worker runs its whole slice as
  /// one task.
  bool steal = false;
  /// Re-dispatch budget for tasks whose worker died; when exhausted the
  /// task's unfinished points are finalized as failed rows naming the
  /// worker's fate.
  int max_task_retries = 2;
  /// Per-task engine options.  max_point_retries/backoff ride inside
  /// (retries happen in the task, concurrently); on_result is ignored —
  /// rows come back through task artifacts and on_final_row.
  EngineOptions engine;
  /// Directory for per-task JSONL artifacts + meta sidecars; must exist.
  std::string scratch_dir;
  /// Rows from a previous campaign's JSONL (read_jsonl_tolerant), applied
  /// by split_resume: accepted rows are finalized immediately and their
  /// points not re-run.
  std::vector<SweepRow> resume_rows;
  /// Campaign-level row sink: called once per point — resumed points
  /// first (in point order), then fresh points in completion order.
  std::function<void(const SweepRow&)> on_final_row;
  /// The campaign so far, after every task completion and once at the end
  /// with complete=true.  The CLI renders it as the live --summary-json.
  std::function<void(const CampaignOutcome&)> on_progress;
  /// Ask each task to spill a per-task trace shard ("<artifact>.trace",
  /// binary format) for the coordinator to stitch into the campaign
  /// timeline.  Set this for process-backed launchers only; in-process
  /// tasks already emit into the coordinator's recorder.
  bool trace_tasks = false;
  std::size_t trace_buf = 0;  ///< forwarded to LaunchTask::trace_buf
};

/// The engine aggregates of the whole campaign plus its service counters.
/// Rows are in point (expansion) order; worlds_executed, baseline_* and
/// retries (failed point attempts re-run in tasks) are summed from the
/// task sidecars (read_task_meta; a task that left no readable sidecar
/// contributes zero) and jobs_used is the widest per-task engine width
/// observed.
struct CampaignOutcome : SweepOutcome {
  std::size_t done = 0;     ///< finalized points (ok + failed + resumed)
  bool complete = false;    ///< set once, on the final on_progress call
  std::size_t resumed = 0;  ///< points satisfied by resume_rows
  std::size_t steals = 0;   ///< chunks taken from another worker's queue
  std::size_t tasks = 0;    ///< tasks dispatched (incl. re-dispatches)
  std::size_t task_retries = 0;  ///< re-dispatches after a worker died
  int workers = 0;
  /// One entry per task that finished with points missing from its
  /// artifact: the worker's fate plus how many points it handed back.
  /// Re-dispatch recovers these; the log says why they happened.
  std::vector<std::string> task_failures;
  /// Binary trace shards harvested from finished tasks (trace_tasks on),
  /// in harvest order.  The caller merges them (trace/export.h) before
  /// the scratch directory is removed.
  std::vector<std::string> trace_shards;
};

/// The resume rule, shared by run_campaign and the single-process CLI
/// path.  Splits `points` against `prior`, the rows of a previous run's
/// artifact:
///   * a prior row whose index is not among `points` is ignored (the
///     artifact covered a wider filter);
///   * a prior row whose label disagrees with its point throws — that is
///     an artifact from a different spec, not a resumable campaign;
///   * only ok rows satisfy a point (a failed point gets a second chance),
///     and the first ok row for an index wins.
/// `done` holds the accepted rows and `todo` the points still to run,
/// both in the order of `points`.
struct ResumeSplit {
  std::vector<SweepRow> done;
  std::vector<SweepPoint> todo;
};

ResumeSplit split_resume(const std::vector<SweepPoint>& points,
                         const std::vector<SweepRow>& prior);

CampaignOutcome run_campaign(const std::vector<SweepPoint>& points,
                             const CoordinatorOptions& opts);

}  // namespace unimem::sweep
