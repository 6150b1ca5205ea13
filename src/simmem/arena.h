// First-fit free-list arena allocator over one contiguous buffer.
//
// The paper's user-level DRAM service uses "a simple memory allocator
// without consideration of memory allocation efficiency and fragmentation,
// because we expect that data movement should not be frequent".  This arena
// is that allocator: correct, thread-safe, O(#free-blocks) per operation.
//
// Like the paper's DRAM service, an arena's backing buffer is set up once
// and reused: a destroyed arena hands its buffer to the destroying thread's
// pool, and the next arena of exactly the same capacity on that thread takes
// it instead of mallocing (and page-faulting) a fresh one.  A sweep worker
// builds and tears down every world on its own thread, so the pool needs no
// lock.  Recycled buffers are dirty; Registry::create zeroes each object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

namespace unimem::mem {

class Arena {
 public:
  /// Takes a pooled buffer of exactly this capacity from the calling
  /// thread's pool if there is one, else mallocs a fresh buffer.
  explicit Arena(std::size_t capacity);
  /// Returns the buffer to the calling thread's pool, or frees it when that
  /// thread's pool is already gone (thread exit).
  ~Arena();

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocate `bytes` (rounded up to cache-line multiple), 64-byte aligned.
  /// Returns nullptr when no free block fits.
  void* allocate(std::size_t bytes);

  /// Release a block previously returned by allocate().  Coalesces with
  /// free neighbours.  Passing a pointer not owned by this arena aborts.
  void deallocate(void* p);

  /// True if `p` lies inside this arena's buffer.
  bool contains(const void* p) const;

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const;
  std::size_t peak_used() const;
  std::size_t free_bytes() const;
  /// Number of live allocations.
  std::size_t live_blocks() const;
  /// Largest single block currently allocatable.
  std::size_t largest_free_block() const;

  /// Free every buffer in the calling thread's pool whose capacity is not
  /// in `capacities` (each rounded up to a cache line, as the constructor
  /// does).  HeteroMemory calls this with its tiers' capacities before it
  /// builds them, so a pool never holds more than the previous machine.
  static void retain_pooled(const std::vector<std::size_t>& capacities);
  /// Capacities of the buffers in the calling thread's pool, ascending.
  static std::vector<std::size_t> pooled_capacities();

 private:
  std::size_t capacity_;
  /// malloc'd or taken from the pool, never value-initialized: a fresh
  /// tier costs resident pages only where it is touched, a recycled one
  /// keeps the pages an earlier arena faulted in.  Contents are stale.
  std::byte* buffer_ = nullptr;
  std::size_t base_shift_ = 0;  ///< offset of the aligned usable region
  mutable std::mutex mu_;
  // offset -> length, for free and live blocks respectively.
  std::map<std::size_t, std::size_t> free_;
  std::map<std::size_t, std::size_t> live_;
  std::size_t used_ = 0;
  std::size_t peak_ = 0;
};

}  // namespace unimem::mem
