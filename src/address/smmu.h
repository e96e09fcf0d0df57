// Dual-stage System MMU model (ARM SMMU-style).
//
// ECOSCALE claim C5: reconfigurable accelerators are mapped into the
// *virtual* address space through a dual-stage I/O MMU, so an unprivileged
// task can invoke an accelerator without trapping into the OS or hypervisor.
//
// Stage 1 translates a task's virtual address to an intermediate physical
// address (IPA); stage 2 translates IPA to physical. On a TLB miss the
// walker performs a nested walk: each of the S1 levels' descriptors is
// itself an IPA that needs an S2 walk, giving the classic
// (s1_levels + 1) * (s2_levels + 1) - 1 memory accesses.
//
// The TLB is a fixed-capacity open-addressed table (linear probing,
// backward-shift deletion) with an intrusive doubly-linked LRU list over a
// preallocated entry pool: no std::list, no unordered_map, and zero heap
// allocation after construction. Eviction order is exact LRU, bit-identical
// to the previous map+list implementation (regression-tested against a
// reference model in tests/smmu_tlb_test.cc).
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "address/address.h"
#include "address/page_table.h"
#include "common/check.h"
#include "common/units.h"

namespace ecoscale {

using ContextId = std::uint32_t;  // stream/context: one per task or VM

struct Translation {
  PageId phys_page = 0;
  SimDuration latency = 0;
  bool tlb_hit = false;
};

struct SmmuConfig {
  std::size_t tlb_entries = 64;
  int stage1_levels = 4;
  int stage2_levels = 3;
  SimDuration walk_access_latency = nanoseconds(60);  // one PTE fetch (DRAM)
  SimDuration tlb_hit_latency = nanoseconds(1);
  Picojoules walk_access_energy = 15.0;  // pJ per PTE fetch
  Picojoules tlb_lookup_energy = 0.5;
};

/// Fixed-capacity fully associative LRU TLB keyed by (context, virtual
/// page). All storage is preallocated: entries live in a pool indexed by
/// the probe table, and recency is an intrusive list threaded through the
/// pool slots.
class TranslationTlb {
 public:
  explicit TranslationTlb(std::size_t capacity)
      : capacity_(capacity) {
    ECO_CHECK(capacity_ > 0);
    std::size_t slots = 2;
    // Power-of-two probe table at most half full keeps probe chains short.
    while (slots < capacity_ * 2) slots <<= 1;
    slot_mask_ = static_cast<std::uint32_t>(slots - 1);
    slots_.assign(slots, kEmpty);
    entries_.resize(capacity_);
    // All entries start on the free list, threaded through `next`.
    for (std::size_t i = 0; i < capacity_; ++i) {
      entries_[i].next = i + 1 < capacity_ ? static_cast<std::uint32_t>(i + 1)
                                           : kNil;
    }
    free_head_ = 0;
  }

  /// Look up (ctx, page); touches LRU on hit. Returns the physical page or
  /// nullopt.
  std::optional<PageId> lookup(ContextId ctx, PageId page) {
    const std::uint32_t slot = find_slot(ctx, page);
    if (slot == kEmpty) return std::nullopt;
    const std::uint32_t e = slots_[slot];
    touch(e);
    return entries_[e].phys;
  }

  /// Insert a translation, evicting the least recently used entry if full.
  void insert(ContextId ctx, PageId page, PageId phys) {
    if (size_ >= capacity_) evict_lru();
    const std::uint32_t e = free_head_;
    ECO_CHECK(e != kNil);
    free_head_ = entries_[e].next;
    Entry& entry = entries_[e];
    entry.ctx = ctx;
    entry.page = page;
    entry.phys = phys;
    link_front(e);
    ++size_;
    // Claim the first free probe slot.
    std::uint32_t slot = home_slot(ctx, page);
    while (slots_[slot] != kEmpty) slot = (slot + 1) & slot_mask_;
    slots_[slot] = e;
  }

  /// Drop every entry of a context (walks the LRU list once).
  void invalidate_context(ContextId ctx) {
    std::uint32_t e = lru_head_;
    while (e != kNil) {
      const std::uint32_t next = entries_[e].next;
      if (entries_[e].ctx == ctx) erase(e);
      e = next;
    }
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  struct Entry {
    ContextId ctx = 0;
    PageId page = 0;
    PageId phys = 0;
    std::uint32_t prev = kNil;  // LRU list when live; unused when free
    std::uint32_t next = kNil;  // LRU list when live; free list when free
  };

  std::uint32_t home_slot(ContextId ctx, PageId page) const {
    const std::uint64_t h =
        ((static_cast<std::uint64_t>(ctx) << 52) ^ page) *
        0x9E3779B97F4A7C15ull;  // Fibonacci mix spreads low-entropy keys
    return static_cast<std::uint32_t>(h >> 32) & slot_mask_;
  }

  /// Probe slot holding (ctx, page), or kEmpty.
  std::uint32_t find_slot(ContextId ctx, PageId page) const {
    std::uint32_t slot = home_slot(ctx, page);
    while (slots_[slot] != kEmpty) {
      const Entry& e = entries_[slots_[slot]];
      if (e.ctx == ctx && e.page == page) return slot;
      slot = (slot + 1) & slot_mask_;
    }
    return kEmpty;
  }

  void link_front(std::uint32_t e) {
    entries_[e].prev = kNil;
    entries_[e].next = lru_head_;
    if (lru_head_ != kNil) entries_[lru_head_].prev = e;
    lru_head_ = e;
    if (lru_tail_ == kNil) lru_tail_ = e;
  }

  void unlink(std::uint32_t e) {
    const Entry& entry = entries_[e];
    if (entry.prev != kNil) entries_[entry.prev].next = entry.next;
    else lru_head_ = entry.next;
    if (entry.next != kNil) entries_[entry.next].prev = entry.prev;
    else lru_tail_ = entry.prev;
  }

  void touch(std::uint32_t e) {
    if (lru_head_ == e) return;
    unlink(e);
    link_front(e);
  }

  /// Remove entry `e`: free its probe slot with backward-shift deletion
  /// (keeps probe chains gap-free without tombstones), unlink from LRU,
  /// return to the free list.
  void erase(std::uint32_t e) {
    std::uint32_t slot = find_slot(entries_[e].ctx, entries_[e].page);
    ECO_CHECK(slot != kEmpty && slots_[slot] == e);
    // Backward-shift: close the gap by pulling back any entry probing
    // through it. Standard open-addressing deletion: entry at j (home k)
    // moves into the hole at i iff i lies cyclically in [k, j).
    std::uint32_t i = slot;
    std::uint32_t j = slot;
    for (;;) {
      j = (j + 1) & slot_mask_;
      if (slots_[j] == kEmpty) break;
      const Entry& moved = entries_[slots_[j]];
      const std::uint32_t k = home_slot(moved.ctx, moved.page);
      if (((j - k) & slot_mask_) >= ((j - i) & slot_mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = kEmpty;
    unlink(e);
    entries_[e].next = free_head_;
    free_head_ = e;
    --size_;
  }

  void evict_lru() {
    ECO_CHECK(lru_tail_ != kNil);
    erase(lru_tail_);
  }

  std::size_t capacity_;
  std::size_t size_ = 0;
  std::uint32_t slot_mask_ = 0;
  std::vector<std::uint32_t> slots_;  // probe table: entry index or kEmpty
  std::vector<Entry> entries_;        // preallocated pool
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;
  std::uint32_t free_head_ = kNil;
};

/// Dual-stage SMMU with a fully associative LRU TLB caching the combined
/// VA→PA translation per context.
class Smmu {
 public:
  explicit Smmu(SmmuConfig config = {})
      : config_(config),
        stage2_(config.stage2_levels),
        tlb_(config.tlb_entries) {}

  /// Create (or fetch) the stage-1 table of a context.
  PageTable& stage1(ContextId ctx) {
    return stage1_.try_emplace(ctx, PageTable(config_.stage1_levels))
        .first->second;
  }

  PageTable& stage2() { return stage2_; }

  /// Translate a virtual page for a context. Returns nullopt on a
  /// translation fault (unmapped page at either stage).
  std::optional<Translation> translate(ContextId ctx, PageId virt_page) {
    ++lookups_;
    energy_ += config_.tlb_lookup_energy;
    if (const auto cached = tlb_.lookup(ctx, virt_page)) {
      ++hits_;
      return Translation{*cached, config_.tlb_hit_latency, true};
    }
    // Nested walk.
    auto s1 = stage1_.find(ctx);
    if (s1 == stage1_.end()) return std::nullopt;
    const auto ipa = s1->second.lookup(virt_page);
    if (!ipa) return std::nullopt;
    const auto pa = stage2_.lookup(*ipa);
    if (!pa) return std::nullopt;
    const int accesses = (s1->second.levels() + 1) * (stage2_.levels() + 1) - 1;
    ++walks_;
    walk_accesses_ += static_cast<std::uint64_t>(accesses);
    energy_ += config_.walk_access_energy * accesses;
    const SimDuration latency =
        config_.tlb_hit_latency +
        config_.walk_access_latency * static_cast<SimDuration>(accesses);
    tlb_.insert(ctx, virt_page, *pa);
    return Translation{*pa, latency, false};
  }

  /// Invalidate all TLB entries of a context (e.g. on task migration).
  void invalidate(ContextId ctx) { tlb_.invalidate_context(ctx); }

  double hit_rate() const {
    return lookups_ ? static_cast<double>(hits_) / static_cast<double>(lookups_)
                    : 0.0;
  }
  std::uint64_t lookups() const { return lookups_; }
  std::uint64_t hits() const { return hits_; }
  std::uint64_t walks() const { return walks_; }
  std::uint64_t walk_accesses() const { return walk_accesses_; }
  Picojoules energy() const { return energy_; }
  const SmmuConfig& config() const { return config_; }

 private:
  SmmuConfig config_;
  std::unordered_map<ContextId, PageTable> stage1_;
  PageTable stage2_;
  TranslationTlb tlb_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t walks_ = 0;
  std::uint64_t walk_accesses_ = 0;
  Picojoules energy_ = 0.0;
};

/// Cost model for the two accelerator-invocation paths the paper contrasts.
struct InvocationPathCosts {
  // OS-mediated: user→kernel trap, argument marshalling, kernel driver
  // programs the accelerator with physical addresses, return trap.
  SimDuration os_trap = nanoseconds(1500);
  SimDuration os_return = nanoseconds(1000);
  SimDuration driver_setup = nanoseconds(800);

  // User-level: write the doorbell through the mapped MMIO page; each
  // accelerator-side pointer dereference goes through the SMMU.
  SimDuration doorbell_write = nanoseconds(40);
};

}  // namespace ecoscale
