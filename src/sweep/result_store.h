// SweepResultStore: collection + serialization of sweep rows.
//
// Designed to be handed to SweepEngine as the on_result callback: rows
// stream to JSONL the moment they complete (each line carries the point
// index, so consumers can re-order; the file is append-only and flushed
// per row for liveness), while CSV — a columnar, whole-table format — is
// written at finish() in deterministic point order.  The store can also
// render itself as a per-point exp::Report, the stdout table of specs
// that declare no figure pivot.
#pragma once

#include <cstddef>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "experiments/report.h"
#include "sweep/engine.h"

namespace unimem::sweep {

class SweepResultStore {
 public:
  SweepResultStore() = default;
  ~SweepResultStore();

  SweepResultStore(const SweepResultStore&) = delete;
  SweepResultStore& operator=(const SweepResultStore&) = delete;

  /// Enable streaming JSONL; opens (truncates) the file immediately so a
  /// watcher can tail it from point zero.  Throws std::runtime_error when
  /// the file cannot be opened.
  void stream_jsonl(const std::string& path);

  /// Write the full table as CSV at finish().
  void write_csv_at_finish(const std::string& path) { csv_path_ = path; }

  /// Write the rows as JSONL in point order at finish() — unlike the
  /// streaming file (completion order), this artifact is byte-identical
  /// across job counts and execution topologies.
  void write_jsonl_at_finish(const std::string& path) { jsonl_path_ = path; }

  /// Record one completed row (thread-safety is provided by the engine,
  /// which serializes on_result calls).
  void add(const SweepRow& row);

  /// Sorts rows into point order, writes the CSV if configured, closes
  /// the JSONL stream.  Idempotent.
  void finish();

  const std::vector<SweepRow>& rows() const { return rows_; }

  /// Aligned stdout table of every row (index/label/time/normalized).
  exp::Report report(const std::string& title) const;

  /// One row as a JSONL line (no trailing newline); exposed for tests.
  static std::string jsonl_line(const SweepRow& row);

 private:
  std::vector<SweepRow> rows_;
  std::string csv_path_;
  std::string jsonl_path_;
  std::FILE* jsonl_ = nullptr;
  bool finished_ = false;
};

/// Inverse of SweepResultStore::jsonl_line: reconstruct a SweepRow from
/// one line of the store's own JSONL output.  Exact round-trip —
/// jsonl_line(parse_jsonl_line(l)) == l — because doubles are serialized
/// with %.17g (shortest exact form round-trips through strtod) and axis
/// maps serialize in sorted key order.  Accepts exactly the lines
/// jsonl_line writes (another spelling of the same row is malformed);
/// throws std::runtime_error on malformed input.
SweepRow parse_jsonl_line(const std::string& line);

/// Read every row of a SweepResultStore JSONL file (any order); throws
/// std::runtime_error when the file cannot be opened or a line is
/// malformed.
std::vector<SweepRow> read_jsonl(const std::string& path);

/// Crash-tolerant JSONL reader for --resume and coordinator task
/// artifacts: parses every well-formed line; a malformed FINAL line (the
/// torn tail of a writer killed mid-write) is silently dropped — losing
/// one re-runnable point beats discarding the whole artifact — and
/// `dropped` (optional) reports whether that happened.  A malformed line
/// with complete lines after it still throws (real corruption, not a
/// crash).  Later duplicates of a point index win: a resumed campaign
/// appends fresh rows for points that previously failed.
std::vector<SweepRow> read_jsonl_tolerant(const std::string& path,
                                          std::size_t* dropped = nullptr);

/// Stitch per-shard JSONL files back into one point-ordered row list.
/// The shards of one expansion partition it exactly, so duplicate point
/// indices across files mean mismatched shard runs — rejected with
/// std::runtime_error rather than silently merged.
std::vector<SweepRow> merge_shards(const std::vector<std::string>& paths);

/// First row whose axis contains every (key, value) in `where`; nullptr
/// when none matches.  The lookup the specs' figure pivots use to map
/// grid rows back into their table cells.
const SweepRow* find_row(const std::vector<SweepRow>& rows,
                         const std::map<std::string, std::string>& where);

}  // namespace unimem::sweep
