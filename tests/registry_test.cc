// Tests for the object registry: allocation, chunking, migration with
// handle/alias repointing, the copy-on-write address map and attribution
// against it, and arbiter integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <limits>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/profiler.h"
#include "core/registry.h"
#include "simmem/dram_arbiter.h"

namespace unimem::rt {
namespace {

/// The unit attribute_phase charges one miss address to, if any.
std::optional<UnitRef> owner(const Registry::AddrSnapshot& spans,
                             std::uint64_t addr) {
  perf::PhaseSamples s;
  s.total_samples = 1;
  s.total_miss_count = 1;
  s.miss_addresses = {addr};
  const PhaseAttribution a = attribute_phase(s, spans, 0.0);
  if (a.units.empty()) return std::nullopt;
  return a.units.begin()->first;
}

std::optional<UnitRef> owner(const Registry& reg, std::uint64_t addr) {
  return owner(*reg.addr_snapshot(), addr);
}

class RegistryTest : public ::testing::Test {
 protected:
  RegistryTest()
      : hms_(mem::HmsConfig::scaled(0.5, 1.0, 4 * kMiB, 64 * kMiB)),
        arbiter_(2 * kMiB),
        reg_(&hms_, &arbiter_) {}

  mem::HeteroMemory hms_;
  mem::DramArbiter arbiter_;
  Registry reg_;
};

TEST_F(RegistryTest, CreateZeroesPayload) {
  DataObject* o = reg_.create("x", 4096, {}, mem::Tier::kNvm);
  auto s = o->as_span<double>();
  for (double v : s) EXPECT_EQ(v, 0.0);
  EXPECT_EQ(o->bytes(), 4096u);
  EXPECT_EQ(o->chunk_count(), 1u);
  EXPECT_EQ(reg_.find("x"), o);
  EXPECT_EQ(reg_.find("nope"), nullptr);
}

TEST_F(RegistryTest, ChunkingSplitsLargeObjects) {
  DataObject* o =
      reg_.create("big", 5 * kMiB, ObjectTraits{true, -1}, mem::Tier::kNvm,
                  kMiB);
  EXPECT_EQ(o->chunk_count(), 5u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < o->chunk_count(); ++i)
    total += o->chunk(i).bytes;
  EXPECT_GE(total, 5 * kMiB);
  // Units enumerate per chunk.
  EXPECT_EQ(reg_.all_units().size(), 5u);
}

TEST_F(RegistryTest, ChunkHelperRespectsThreshold) {
  EXPECT_EQ(chunk_bytes_for(true, kChunkThreshold), 0u);
  EXPECT_EQ(chunk_bytes_for(true, kChunkThreshold + 1), kChunkBytes);
  EXPECT_EQ(chunk_bytes_for(false, 100 * kMiB), 0u);
}

TEST_F(RegistryTest, MigratePreservesData) {
  DataObject* o = reg_.create("m", 64 * kKiB, {}, mem::Tier::kNvm);
  auto s = o->as_span<double>();
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
  void* old = o->chunk(0).data();
  ASSERT_TRUE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kDram));
  EXPECT_EQ(o->chunk(0).current_tier(), mem::Tier::kDram);
  EXPECT_NE(o->chunk(0).data(), old);
  auto s2 = o->as_span<double>();
  for (std::size_t i = 0; i < s2.size(); ++i)
    ASSERT_EQ(s2[i], static_cast<double>(i));
}

TEST_F(RegistryTest, MigrateToSameTierIsNoOp) {
  DataObject* o = reg_.create("n", 4096, {}, mem::Tier::kNvm);
  void* p = o->chunk(0).data();
  EXPECT_TRUE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kNvm));
  EXPECT_EQ(o->chunk(0).data(), p);
}

TEST_F(RegistryTest, MigrationFailsWhenArbiterRefuses) {
  // Arbiter allows 2 MiB; a 3 MiB object cannot be promoted.
  DataObject* o = reg_.create("big", 3 * kMiB, {}, mem::Tier::kNvm);
  EXPECT_FALSE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kDram));
  EXPECT_EQ(o->chunk(0).current_tier(), mem::Tier::kNvm);
  EXPECT_EQ(arbiter_.granted(), 0u);  // grant rolled back
}

TEST_F(RegistryTest, AliasRepointedOnMigration) {
  DataObject* o = reg_.create("a", 4096, {}, mem::Tier::kNvm);
  void* alias = nullptr;
  reg_.add_alias(o->id(), &alias);
  EXPECT_EQ(alias, o->chunk(0).data());
  ASSERT_TRUE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kDram));
  EXPECT_EQ(alias, o->chunk(0).data());  // follows the move
}

TEST_F(RegistryTest, AttributionFollowsMigration) {
  DataObject* o = reg_.create("t", 4096, {}, mem::Tier::kNvm);
  auto addr = reinterpret_cast<std::uint64_t>(o->chunk(0).data());
  auto hit = owner(reg_, addr + 100);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->object, o->id());
  ASSERT_TRUE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kDram));
  // Old address no longer attributes; new one does.
  EXPECT_FALSE(owner(reg_, addr + 100).has_value());
  auto naddr = reinterpret_cast<std::uint64_t>(o->chunk(0).data());
  EXPECT_TRUE(owner(reg_, naddr + 100).has_value());
}

TEST_F(RegistryTest, AttributionPerChunk) {
  DataObject* o =
      reg_.create("c", 3 * kMiB, ObjectTraits{true, -1}, mem::Tier::kNvm,
                  kMiB);
  ASSERT_EQ(o->chunk_count(), 3u);
  for (std::uint32_t i = 0; i < 3; ++i) {
    auto a = reinterpret_cast<std::uint64_t>(o->chunk(i).data());
    auto hit = owner(reg_, a + 5);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->chunk, i);
  }
}

TEST_F(RegistryTest, DestroyReleasesEverything) {
  std::size_t before = hms_.arena(mem::Tier::kNvm).used();
  DataObject* o = reg_.create("d", kMiB, {}, mem::Tier::kNvm);
  auto addr = reinterpret_cast<std::uint64_t>(o->chunk(0).data());
  reg_.destroy(o->id());
  EXPECT_EQ(hms_.arena(mem::Tier::kNvm).used(), before);
  EXPECT_FALSE(owner(reg_, addr).has_value());
  EXPECT_EQ(reg_.object_count(), 0u);
}

TEST_F(RegistryTest, ResidentBytesTracksTiers) {
  reg_.create("a", kMiB, {}, mem::Tier::kNvm);
  DataObject* b = reg_.create("b", kMiB, {}, mem::Tier::kNvm);
  EXPECT_EQ(reg_.resident_bytes(mem::Tier::kNvm), 2 * kMiB);
  EXPECT_EQ(reg_.resident_bytes(mem::Tier::kDram), 0u);
  ASSERT_TRUE(reg_.migrate(UnitRef{b->id(), 0}, mem::Tier::kDram));
  EXPECT_EQ(reg_.resident_bytes(mem::Tier::kNvm), kMiB);
  EXPECT_EQ(reg_.resident_bytes(mem::Tier::kDram), kMiB);
}

TEST_F(RegistryTest, ThrowsWhenNvmFull) {
  EXPECT_THROW(reg_.create("huge", 65 * kMiB, {}, mem::Tier::kNvm),
               std::bad_alloc);
}

TEST_F(RegistryTest, MapChangesPublishNewSnapshots) {
  auto s0 = reg_.addr_snapshot();
  EXPECT_TRUE(s0->empty());
  DataObject* o = reg_.create("o", kMiB, {}, mem::Tier::kNvm);
  auto s1 = reg_.addr_snapshot();
  EXPECT_EQ(s1.get(), reg_.addr_snapshot().get());  // shared while unchanged
  ASSERT_TRUE(reg_.migrate(UnitRef{o->id(), 0}, mem::Tier::kDram));
  auto s2 = reg_.addr_snapshot();
  EXPECT_NE(s1.get(), s2.get());
  reg_.destroy(o->id());
  EXPECT_NE(s2.get(), reg_.addr_snapshot().get());
  EXPECT_TRUE(reg_.addr_snapshot()->empty());
  // Earlier snapshots keep their own view.
  EXPECT_TRUE(s0->empty());
  ASSERT_EQ(s1->size(), 1u);
  ASSERT_EQ(s2->size(), 1u);
  EXPECT_NE(s1->front().lo, s2->front().lo);
}

// ---------------------------------------------------------------------------
// Property: after any sequence of create / migrate / destroy (with freed
// ranges reused), the published span vector, attribute_phase and
// units_overlapping all agree with a brute-force scan of every live chunk.

using Spans = Registry::AddrSnapshot;

/// Every live chunk's range, from all_units(), sorted by lo.
Spans brute_ranges(const Registry& reg) {
  Spans out;
  for (const UnitRef& u : reg.all_units()) {
    const Chunk& c = reg.get(u.object)->chunk(u.chunk);
    const auto lo = reinterpret_cast<std::uint64_t>(c.data());
    out.push_back(Registry::AddrSpan{lo, lo + c.bytes, u});
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.lo < b.lo; });
  return out;
}

std::optional<UnitRef> brute_owner(const Spans& ranges,
                                   std::uint64_t addr) {
  std::optional<UnitRef> hit;
  for (const Registry::AddrSpan& r : ranges) {
    if (addr < r.lo || addr >= r.hi) continue;
    EXPECT_FALSE(hit.has_value()) << "two chunks cover " << addr;
    hit = r.unit;
  }
  return hit;
}

std::vector<UnitRef> brute_overlapping(const Spans& ranges,
                                       std::uint64_t lo, std::uint64_t hi) {
  std::vector<UnitRef> out;  // ranges are sorted by lo: address order
  for (const Registry::AddrSpan& r : ranges)
    if (std::max(lo, r.lo) < std::min(hi, r.hi)) out.push_back(r.unit);
  return out;
}

void check_against_brute_force(const Registry& reg, Rng& rng) {
  const Spans ranges = brute_ranges(reg);
  const auto snap = reg.addr_snapshot();

  // The published vector is exactly the live chunk set, sorted by lo.
  ASSERT_TRUE(*snap == ranges);

  // Probes: every span's lo, hi-1, hi and lo-1 (a gap unless a neighbour
  // abuts), random addresses around the mapped region, and the extremes.
  std::vector<std::uint64_t> probes{0, std::numeric_limits<std::uint64_t>::max()};
  for (const Registry::AddrSpan& r : ranges)
    for (std::uint64_t a : {r.lo, r.hi - 1, r.hi, r.lo - 1}) probes.push_back(a);
  if (!ranges.empty()) {
    const std::uint64_t base = ranges.front().lo - 64 * kKiB;
    const std::uint64_t span = ranges.back().hi + 64 * kKiB - base;
    for (int i = 0; i < 64; ++i) probes.push_back(base + rng.below(span));
  }

  std::map<UnitRef, std::uint64_t> hits;
  std::uint64_t attributed = 0;
  for (std::uint64_t a : probes) {
    const std::optional<UnitRef> want = brute_owner(ranges, a);
    EXPECT_EQ(owner(*snap, a), want) << "addr " << a;
    if (want) {
      ++hits[*want];
      ++attributed;
    }
  }

  // The same probes as one phase: counts, apportioning and time fractions.
  perf::PhaseSamples s;
  s.total_samples = probes.size();
  s.total_miss_count = 1000 * attributed;
  s.miss_addresses = probes;
  const PhaseAttribution got = attribute_phase(s, *snap, 2e-3);
  EXPECT_EQ(got.attributed, attributed);
  ASSERT_EQ(got.units.size(), hits.size());
  for (const auto& [u, n] : hits) {
    const auto it = got.units.find(u);
    ASSERT_NE(it, got.units.end());
    EXPECT_EQ(it->second.est_accesses, 1000 * n);
    EXPECT_DOUBLE_EQ(it->second.time_fraction,
                     static_cast<double>(n) / static_cast<double>(probes.size()));
    EXPECT_DOUBLE_EQ(it->second.phase_time_s, 2e-3);
  }

  // Range queries, empty ones included, starting at every probe.
  for (std::uint64_t lo : probes) {
    const std::uint64_t len = rng.below(4) == 0 ? 0 : 1 + rng.below(512 * kKiB);
    const std::uint64_t hi =
        lo > std::numeric_limits<std::uint64_t>::max() - len ? lo : lo + len;
    EXPECT_EQ(reg.units_overlapping(lo, hi), brute_overlapping(ranges, lo, hi))
        << "[" << lo << ", " << hi << ")";
  }
}

class RegistryProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RegistryProperty, AddressMapMatchesBruteForce) {
  mem::HeteroMemory hms(mem::HmsConfig::scaled(0.5, 1.0, 4 * kMiB, 64 * kMiB));
  Registry reg(&hms, nullptr);
  Rng rng(GetParam());
  std::vector<ObjectId> live;
  std::set<std::uint64_t> freed;  // chunk starts given back by destroy/migrate
  int reused = 0;
  for (int step = 0; step < 150; ++step) {
    const std::uint64_t op = rng.below(4);
    if (live.size() < 3 || op == 0) {
      const bool chunked = rng.below(2) == 0;
      const std::size_t bytes = 4 * kKiB * (1 + rng.below(64));
      DataObject* o = reg.create("o" + std::to_string(step), bytes,
                                 ObjectTraits{chunked, -1}, mem::Tier::kNvm,
                                 chunked ? 64 * kKiB : 0);
      for (std::size_t i = 0; i < o->chunk_count(); ++i) {
        const auto lo = reinterpret_cast<std::uint64_t>(o->chunk(i).data());
        reused += static_cast<int>(freed.erase(lo));
      }
      live.push_back(o->id());
    } else if (op == 3) {
      const std::size_t k = rng.below(live.size());
      const DataObject* o = reg.get(live[k]);
      for (std::size_t i = 0; i < o->chunk_count(); ++i)
        freed.insert(reinterpret_cast<std::uint64_t>(o->chunk(i).data()));
      reg.destroy(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
    } else {
      DataObject* o = reg.get(live[rng.below(live.size())]);
      const auto c = static_cast<std::uint32_t>(rng.below(o->chunk_count()));
      const auto old = reinterpret_cast<std::uint64_t>(o->chunk(c).data());
      const mem::Tier to = o->chunk(c).current_tier() == mem::Tier::kNvm
                               ? mem::Tier::kDram
                               : mem::Tier::kNvm;
      if (reg.migrate(UnitRef{o->id(), c}, to)) freed.insert(old);
    }
    check_against_brute_force(reg, rng);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(reused, 0) << "no freed range was reused; the property did not "
                          "exercise range reuse";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegistryProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// A snapshot handed out is never written again: one thread holds one and
// attributes against it while another migrates units back and forth and
// destroys and re-creates objects in the freed ranges.
TEST_F(RegistryTest, HeldSnapshotNeverChangesUnderConcurrentUpdates) {
  std::vector<ObjectId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(reg_.create("h" + std::to_string(i), 64 * kKiB, {},
                              mem::Tier::kNvm)
                      ->id());
  const auto held = reg_.addr_snapshot();
  const Spans expected = *held;
  ASSERT_EQ(expected.size(), ids.size());

  perf::PhaseSamples s;
  s.total_samples = 2 * expected.size();
  s.total_miss_count = s.total_samples;
  for (const Registry::AddrSpan& sp : expected) {
    s.miss_addresses.push_back(sp.lo);
    s.miss_addresses.push_back(sp.hi - 1);
  }

  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int round = 0; round < 100; ++round) {
      for (std::size_t i = 0; i < ids.size(); ++i) {
        const UnitRef u{ids[i], 0};
        if (reg_.migrate(u, mem::Tier::kDram)) {
          EXPECT_TRUE(reg_.migrate(u, mem::Tier::kNvm));
        }
      }
      // Free one object and create another, which first-fit places in
      // the range just released.
      const std::size_t k = static_cast<std::size_t>(round) % ids.size();
      reg_.destroy(ids[k]);
      std::string name = "r";
      name += std::to_string(round);
      ids[k] = reg_.create(name, 64 * kKiB, {}, mem::Tier::kNvm)->id();
    }
    done.store(true, std::memory_order_release);
  });

  // Checks collect into `ok` (no ASSERT may return before the join) and
  // the loop stops at the first bad pass.
  bool ok = true;
  int passes = 0;
  while (ok && (!done.load(std::memory_order_acquire) || passes < 10)) {
    const PhaseAttribution a = attribute_phase(s, *held, 1e-3);
    ok = a.attributed == s.miss_addresses.size() &&
         a.units.size() == expected.size() && *held == expected;
    for (const Registry::AddrSpan& sp : expected)
      ok = ok && a.units.count(sp.unit) == 1;
    // Concurrent readers of the current map see a whole, sorted vector.
    const auto live = reg_.addr_snapshot();
    ok = ok && std::is_sorted(live->begin(), live->end(),
                              [](const auto& x, const auto& y) {
                                return x.lo < y.lo;
                              });
    ++passes;
  }
  writer.join();

  EXPECT_TRUE(ok) << "held snapshot changed or misattributed at pass "
                  << passes;
  EXPECT_TRUE(*held == expected);
  // The live map moved on: the original objects 0..7 are all gone.
  for (const Registry::AddrSpan& sp : *reg_.addr_snapshot())
    EXPECT_GE(sp.unit.object, static_cast<ObjectId>(expected.size()));
}

}  // namespace
}  // namespace unimem::rt
