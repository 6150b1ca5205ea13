#include "core/registry.h"

#include <algorithm>
#include <cstring>
#include <new>
#include <stdexcept>

#include "common/units.h"

namespace unimem::rt {

namespace {

using AddrSpan = Registry::AddrSpan;
using AddrSnapshot = Registry::AddrSnapshot;

AddrSpan span_of(const Chunk& c, UnitRef unit) {
  const auto lo = reinterpret_cast<std::uint64_t>(c.data());
  return AddrSpan{lo, lo + c.bytes, unit};
}

// One copy-on-write step of the address map: `cur` minus the spans whose
// unit `drop` selects, plus `add` (empty ranges are never mapped), sorted
// by lo.  Always a new vector; `cur` and its holders are left untouched.
template <typename Drop>
std::shared_ptr<const AddrSnapshot> remap(const AddrSnapshot& cur, Drop drop,
                                          std::vector<AddrSpan> add) {
  auto next = std::make_shared<AddrSnapshot>();
  next->reserve(cur.size() + add.size());
  for (const AddrSpan& s : cur)
    if (!drop(s.unit)) next->push_back(s);
  const auto kept = static_cast<std::ptrdiff_t>(next->size());
  for (const AddrSpan& s : add)
    if (s.lo < s.hi) next->push_back(s);
  auto by_lo = [](const AddrSpan& a, const AddrSpan& b) { return a.lo < b.lo; };
  std::sort(next->begin() + kept, next->end(), by_lo);
  std::inplace_merge(next->begin(), next->begin() + kept, next->end(), by_lo);
  return next;
}

}  // namespace

Registry::Registry(mem::HeteroMemory* hms, mem::DramArbiter* arbiter)
    : hms_(hms), arbiter_(arbiter), spans_(std::make_shared<AddrSnapshot>()) {}

Registry::~Registry() {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& obj : objects_) {
    if (!obj) continue;
    for (std::size_t i = 0; i < obj->chunk_count(); ++i) {
      Chunk& c = obj->chunk(i);
      if (c.data() != nullptr)
        release_in(c.current_tier(), c.data(), c.bytes);
    }
  }
}

void* Registry::allocate_in(mem::Tier t, std::size_t bytes) {
  // The arbiter meters constrained tiers only (tier 0 / DRAM on the paper's
  // 2-tier machine; every non-backstop tier on an N-tier one).
  if (arbiter_ != nullptr && arbiter_->constrains(mem::tier_index(t))) {
    if (!arbiter_->request_tier(mem::tier_index(t), bytes)) return nullptr;
    void* p = hms_->allocate(t, bytes);
    if (p == nullptr) arbiter_->release_tier(mem::tier_index(t), bytes);
    return p;
  }
  return hms_->allocate(t, bytes);
}

void Registry::release_in(mem::Tier t, void* p, std::size_t bytes) {
  hms_->deallocate(t, p);
  if (arbiter_ != nullptr) arbiter_->release_tier(mem::tier_index(t), bytes);
}

DataObject* Registry::create(const std::string& name, std::size_t bytes,
                             ObjectTraits traits, mem::Tier initial,
                             std::size_t chunk_bytes) {
  std::lock_guard<std::mutex> lk(mu_);
  auto id = static_cast<ObjectId>(objects_.size());
  auto obj = std::make_unique<DataObject>(id, name, bytes, traits);

  std::size_t n_chunks = 1;
  if (traits.chunkable && chunk_bytes > 0 && bytes > chunk_bytes)
    n_chunks = (bytes + chunk_bytes - 1) / chunk_bytes;

  std::size_t remaining = bytes;
  std::vector<AddrSpan> added;
  added.reserve(n_chunks);
  for (std::size_t i = 0; i < n_chunks; ++i) {
    std::size_t sz = n_chunks == 1
                         ? bytes
                         : std::min(remaining, (bytes + n_chunks - 1) / n_chunks);
    remaining -= sz;
    auto chunk = std::make_unique<Chunk>();
    chunk->bytes = align_up(sz, kCacheLine);
    void* p = allocate_in(initial, chunk->bytes);
    if (p == nullptr) {
      // Roll back everything allocated so far (nothing is mapped yet).
      for (std::size_t j = 0; j < obj->chunks_.size(); ++j) {
        Chunk& c = *obj->chunks_[j];
        release_in(c.current_tier(), c.data(), c.bytes);
      }
      throw std::bad_alloc();
    }
    std::memset(p, 0, chunk->bytes);
    chunk->ptr.store(p, std::memory_order_release);
    chunk->tier.store(static_cast<int>(initial), std::memory_order_release);
    obj->chunks_.push_back(std::move(chunk));
    added.push_back(span_of(*obj->chunks_.back(),
                            UnitRef{id, static_cast<std::uint32_t>(i)}));
  }

  spans_ = remap(*spans_, [](UnitRef) { return false; }, std::move(added));
  objects_.push_back(std::move(obj));
  return objects_.back().get();
}

void Registry::destroy(ObjectId id) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& obj = objects_.at(id);
  if (!obj) return;
  for (std::size_t i = 0; i < obj->chunk_count(); ++i) {
    Chunk& c = obj->chunk(i);
    release_in(c.current_tier(), c.data(), c.bytes);
  }
  spans_ = remap(*spans_, [id](UnitRef u) { return u.object == id; }, {});
  obj.reset();
}

void Registry::add_alias(ObjectId id, void** alias) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& obj = objects_.at(id);
  obj->aliases_.push_back(alias);
  *alias = obj->chunk(0).data();
}

bool Registry::migrate(UnitRef unit, mem::Tier to) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (objects_.at(unit.object)->chunk(unit.chunk).current_tier() == to)
      return true;
  }
  // The synchronous form is the split form with the copy done inline.
  std::optional<PendingCopy> pc = migrate_start(unit, to);
  if (!pc.has_value()) return false;
  std::memcpy(pc->dst, pc->src, pc->bytes);
  finish_migration(*pc);
  return true;
}

std::optional<Registry::PendingCopy> Registry::migrate_start(UnitRef unit,
                                                             mem::Tier to) {
  std::lock_guard<std::mutex> lk(mu_);
  auto& obj = objects_.at(unit.object);
  Chunk& c = obj->chunk(unit.chunk);
  const mem::Tier from = c.current_tier();

  void* dst = allocate_in(to, c.bytes);
  if (dst == nullptr) return std::nullopt;

  PendingCopy pc;
  pc.unit = unit;
  pc.src = c.data();
  pc.dst = dst;
  pc.bytes = c.bytes;
  pc.from = from;

  c.ptr.store(dst, std::memory_order_release);
  c.tier.store(static_cast<int>(to), std::memory_order_release);
  spans_ = remap(*spans_, [unit](UnitRef u) { return u == unit; },
                 {span_of(c, unit)});
  // Allowance accounting follows the decision, not the copy: the allowance
  // is a placement budget, and placement just changed.
  if (arbiter_ != nullptr) arbiter_->release_tier(mem::tier_index(from), c.bytes);

  if (unit.chunk == 0)
    for (void** a : obj->aliases_) *a = dst;
  return pc;
}

void Registry::finish_migration(const PendingCopy& c) {
  // Arena-only release (the arbiter part happened in migrate_start);
  // arenas carry their own locks, so the helper thread never contends
  // with registry users here.
  hms_->deallocate(c.from, c.src);
}

std::shared_ptr<const Registry::AddrSnapshot> Registry::addr_snapshot() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_;
}

DataObject* Registry::get(ObjectId id) {
  std::lock_guard<std::mutex> lk(mu_);
  return objects_.at(id).get();
}

const DataObject* Registry::get(ObjectId id) const {
  std::lock_guard<std::mutex> lk(mu_);
  return objects_.at(id).get();
}

DataObject* Registry::find(const std::string& name) {
  std::lock_guard<std::mutex> lk(mu_);
  for (auto& o : objects_)
    if (o && o->name() == name) return o.get();
  return nullptr;
}

std::size_t Registry::object_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t n = 0;
  for (auto& o : objects_)
    if (o) ++n;
  return n;
}

std::size_t Registry::unit_bytes(UnitRef u) const {
  std::lock_guard<std::mutex> lk(mu_);
  return objects_.at(u.object)->chunk(u.chunk).bytes;
}

std::size_t Registry::try_unit_bytes(UnitRef u) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (u.object >= objects_.size() || !objects_[u.object]) return 0;
  const DataObject& obj = *objects_[u.object];
  if (u.chunk >= obj.chunk_count()) return 0;
  return obj.chunk(u.chunk).bytes;
}

std::vector<UnitRef> Registry::units_overlapping(std::uint64_t lo,
                                                 std::uint64_t hi) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<UnitRef> out;
  if (lo >= hi) return out;
  // Spans are disjoint and sorted by lo, so also by hi: skip every span
  // ending at or before lo, then take spans until one starts at hi.
  auto it = std::partition_point(spans_->begin(), spans_->end(),
                                 [lo](const AddrSpan& s) { return s.hi <= lo; });
  for (; it != spans_->end() && it->lo < hi; ++it) out.push_back(it->unit);
  return out;
}

mem::Tier Registry::unit_tier(UnitRef u) const {
  std::lock_guard<std::mutex> lk(mu_);
  return objects_.at(u.object)->chunk(u.chunk).current_tier();
}

std::vector<UnitRef> Registry::all_units() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<UnitRef> out;
  for (auto& o : objects_) {
    if (!o) continue;
    for (std::uint32_t c = 0; c < o->chunk_count(); ++c)
      out.push_back(UnitRef{o->id(), c});
  }
  return out;
}

std::size_t Registry::resident_bytes(mem::Tier t) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t sum = 0;
  for (auto& o : objects_) {
    if (!o) continue;
    for (std::uint32_t c = 0; c < o->chunk_count(); ++c)
      if (o->chunk(c).current_tier() == t) sum += o->chunk(c).bytes;
  }
  return sum;
}

}  // namespace unimem::rt
