// Out-of-band aggregation for the sampled profiler tier (heapprofd idiom:
// do the minimum on the hot thread, centralize the rest).
//
// In sampled mode the rank thread only gates and buffers miss addresses;
// attribution (attribute_phase, the same function the exact tier runs
// inline) happens here, on a single aggregation thread, against the
// immutable address map captured when the phase closed.  The snapshot
// matters for correctness, not just speed: migrations publish a new map
// synchronously on the rank thread, and freed ranges can be reused by
// later allocations, so the map current at drain time would misattribute
// the phase's addresses.
//
// Determinism: results depend only on batch contents (samples + snapshot),
// never on when the worker runs.  The rank thread folds results back into
// the Profiler only at drain() barriers, so the consumer-visible profile
// is a pure function of the configuration.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/profiler.h"
#include "core/registry.h"
#include "perfmon/sampler.h"

namespace unimem::rt {

class ProfileAggregator {
 public:
  /// One closed phase's deferred-attribution work.
  struct Batch {
    std::size_t slot = 0;  ///< Profiler::record_phase_pending slot
    perf::PhaseSamples samples;
    double phase_time_s = 0;
    std::shared_ptr<const Registry::AddrSnapshot> snapshot;  ///< non-null
  };

  /// One phase's finished per-unit profile.
  struct SlotProfile {
    std::size_t slot = 0;
    std::map<UnitRef, UnitPhaseProfile> units;
    std::uint64_t attributed = 0;  ///< address samples that hit a unit
  };

  ProfileAggregator();
  ~ProfileAggregator();

  ProfileAggregator(const ProfileAggregator&) = delete;
  ProfileAggregator& operator=(const ProfileAggregator&) = delete;

  /// Hand one phase's evidence to the worker.  Cheap: one lock + notify.
  void submit(Batch b);

  /// Barrier: wait for every submitted batch to finish, then return all
  /// results sorted by slot (and forget them).  Call from the rank thread.
  std::vector<SlotProfile> drain();

 private:
  void worker_loop();
  static SlotProfile process(const Batch& b);

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals the worker
  std::condition_variable done_cv_;   // signals drain()
  std::deque<Batch> queue_;
  std::vector<SlotProfile> results_;
  bool busy_ = false;
  bool stop_ = false;
  std::thread worker_;
};

}  // namespace unimem::rt
