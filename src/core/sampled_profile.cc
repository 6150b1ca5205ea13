#include "core/sampled_profile.h"

#include <algorithm>
#include <utility>

namespace unimem::rt {

ProfileAggregator::ProfileAggregator()
    : worker_([this] { worker_loop(); }) {}

ProfileAggregator::~ProfileAggregator() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  worker_.join();
}

void ProfileAggregator::submit(Batch b) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    queue_.push_back(std::move(b));
  }
  work_cv_.notify_one();
}

std::vector<ProfileAggregator::SlotProfile> ProfileAggregator::drain() {
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [this] { return queue_.empty() && !busy_; });
  std::vector<SlotProfile> out = std::move(results_);
  results_.clear();
  std::sort(out.begin(), out.end(),
            [](const SlotProfile& a, const SlotProfile& b) {
              return a.slot < b.slot;
            });
  return out;
}

void ProfileAggregator::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    work_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) {
      if (stop_) return;
      continue;
    }
    Batch b = std::move(queue_.front());
    queue_.pop_front();
    busy_ = true;
    lk.unlock();
    SlotProfile r = process(b);
    lk.lock();
    results_.push_back(std::move(r));
    busy_ = false;
    if (queue_.empty()) done_cv_.notify_all();
  }
}

ProfileAggregator::SlotProfile ProfileAggregator::process(const Batch& b) {
  PhaseAttribution a = attribute_phase(b.samples, *b.snapshot, b.phase_time_s);
  return SlotProfile{b.slot, std::move(a.units), a.attributed};
}

}  // namespace unimem::rt
