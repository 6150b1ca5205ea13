#include "simmem/arena.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

// Without ASan its poisoning macros compile to nothing.
#include <sanitizer/asan_interface.h>

#include "common/units.h"

namespace unimem::mem {

namespace {

/// malloc'd size of an arena's buffer: the capacity plus room to align.
std::size_t buffer_bytes(std::size_t capacity) { return capacity + kCacheLine; }

void free_pooled(std::size_t capacity, std::byte* buf) {
  ASAN_UNPOISON_MEMORY_REGION(buf, buffer_bytes(capacity));
  std::free(buf);
}

/// One thread's retired arena buffers, keyed by arena capacity.
struct BufferPool {
  std::multimap<std::size_t, std::byte*> buffers;
  ~BufferPool();
};

// Trivially destructible, so it stays readable while the thread's other
// thread_locals (an Arena among them, possibly) are destroyed after the pool.
thread_local bool t_pool_gone = false;

BufferPool::~BufferPool() {
  t_pool_gone = true;
  for (const auto& [cap, buf] : buffers) free_pooled(cap, buf);
}

/// The calling thread's pool; nullptr once the thread has destroyed it.
BufferPool* pool() {
  if (t_pool_gone) return nullptr;
  thread_local BufferPool p;
  return &p;
}

}  // namespace

Arena::Arena(std::size_t capacity) : capacity_(align_up(capacity, kCacheLine)) {
  if (BufferPool* bp = pool()) {
    auto it = bp->buffers.find(capacity_);
    if (it != bp->buffers.end()) {
      buffer_ = it->second;
      bp->buffers.erase(it);
      ASAN_UNPOISON_MEMORY_REGION(buffer_, buffer_bytes(capacity_));
    }
  }
  if (buffer_ == nullptr)
    buffer_ = static_cast<std::byte*>(std::malloc(buffer_bytes(capacity_)));
  if (buffer_ == nullptr) {
    std::fprintf(stderr, "Arena: cannot reserve %zu bytes\n", capacity_);
    std::abort();
  }
  // Start the usable region at a 64-byte-aligned offset inside the buffer.
  auto base = reinterpret_cast<std::uintptr_t>(buffer_);
  base_shift_ = align_up(base, kCacheLine) - base;
  free_.emplace(0, capacity_);
}

Arena::~Arena() {
  BufferPool* bp = pool();
  if (bp == nullptr) {
    std::free(buffer_);
    return;
  }
  // Under ASan a pooled buffer is poisoned, so a pointer kept from the
  // previous world still reports instead of silently hitting recycled memory.
  ASAN_POISON_MEMORY_REGION(buffer_, buffer_bytes(capacity_));
  bp->buffers.emplace(capacity_, buffer_);
}

void Arena::retain_pooled(const std::vector<std::size_t>& capacities) {
  BufferPool* bp = pool();
  if (bp == nullptr) return;
  std::vector<std::size_t> keep;
  keep.reserve(capacities.size());
  for (std::size_t c : capacities) keep.push_back(align_up(c, kCacheLine));
  for (auto it = bp->buffers.begin(); it != bp->buffers.end();) {
    if (std::find(keep.begin(), keep.end(), it->first) != keep.end()) {
      ++it;
      continue;
    }
    free_pooled(it->first, it->second);
    it = bp->buffers.erase(it);
  }
}

std::vector<std::size_t> Arena::pooled_capacities() {
  std::vector<std::size_t> out;
  if (BufferPool* bp = pool())
    for (const auto& [cap, buf] : bp->buffers) out.push_back(cap);
  return out;
}

void* Arena::allocate(std::size_t bytes) {
  if (bytes == 0) return nullptr;
  bytes = align_up(bytes, kCacheLine);
  std::lock_guard<std::mutex> lk(mu_);
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second >= bytes) {
      std::size_t off = it->first;
      std::size_t len = it->second;
      free_.erase(it);
      if (len > bytes) free_.emplace(off + bytes, len - bytes);
      live_.emplace(off, bytes);
      used_ += bytes;
      if (used_ > peak_) peak_ = used_;
      return buffer_ + base_shift_ + off;
    }
  }
  return nullptr;
}

void Arena::deallocate(void* p) {
  if (p == nullptr) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto off = static_cast<std::size_t>(static_cast<std::byte*>(p) -
                                      (buffer_ + base_shift_));
  auto it = live_.find(off);
  if (it == live_.end()) {
    std::fprintf(stderr, "Arena::deallocate: pointer not owned by arena\n");
    std::abort();
  }
  std::size_t len = it->second;
  live_.erase(it);
  used_ -= len;
  // Insert into the free map and coalesce with neighbours.
  auto [fit, ok] = free_.emplace(off, len);
  (void)ok;
  // Coalesce with next block.
  auto next = std::next(fit);
  if (next != free_.end() && fit->first + fit->second == next->first) {
    fit->second += next->second;
    free_.erase(next);
  }
  // Coalesce with previous block.
  if (fit != free_.begin()) {
    auto prev = std::prev(fit);
    if (prev->first + prev->second == fit->first) {
      prev->second += fit->second;
      free_.erase(fit);
    }
  }
}

bool Arena::contains(const void* p) const {
  auto* b = static_cast<const std::byte*>(p);
  const std::byte* lo = buffer_ + base_shift_;
  return b >= lo && b < lo + capacity_;
}

std::size_t Arena::used() const {
  std::lock_guard<std::mutex> lk(mu_);
  return used_;
}

std::size_t Arena::peak_used() const {
  std::lock_guard<std::mutex> lk(mu_);
  return peak_;
}

std::size_t Arena::free_bytes() const {
  std::lock_guard<std::mutex> lk(mu_);
  return capacity_ - used_;
}

std::size_t Arena::live_blocks() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_.size();
}

std::size_t Arena::largest_free_block() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t best = 0;
  for (const auto& [off, len] : free_)
    if (len > best) best = len;
  return best;
}

}  // namespace unimem::mem
