// The clues table (§3.1.1, §3.3): maps each clue a neighbor may send to its
// precomputed {FD, Ptr} pair.
//
// Two data-plane organisations, matching §3.3.1:
//  * HashClueTable    — "learning the hash table": open-addressed, the clue
//                       value is stored in the entry so a probe verifies it
//                       ("a check that can be done ... in one assembly
//                       instruction"); each probe costs one memory access.
//  * IndexedClueTable — "indexing technique": the sender enumerates its
//                       clues and ships a 16-bit index; exactly one access,
//                       no hash function, inherently robust to stale indices
//                       because the stored clue is still verified.
//
// Both store one compact ClueSlot per bucket — the §3.5 "clue, FD, Ptr"
// triple plus a flags byte, 16 bytes for IPv4 — and keep the case-3
// continuations (the only large part of an entry) in a dense side vector the
// slot's Ptr indexes. ClueEntry is the control-plane form: it is encoded on
// write and decoded on read, so a slot and its continuation never drift.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "core/clue_analyzer.h"
#include "ip/prefix.h"
#include "lookup/engine.h"
#include "lookup/swar_probe.h"
#include "mem/access_counter.h"
#include "common/check.h"

namespace cluert::core {

// Precomputed probe start for HashClueTable and the §3.5 ClueCache: the low
// word of the clue's hash (each table masks it to its own geometry) plus
// the 7-bit SWAR tag, both from one hash evaluation. The batched pipeline
// computes this once per packet in its first phase, prefetches the tag word
// and the home slot, and resumes from it in the resolve phase without
// hashing again. Because the mask is applied at probe time, a hint stays
// valid when the table grows in between.
struct ClueProbeHint {
  std::uint32_t hash = 0;
  std::uint8_t tag = 0;
};

// One clue table entry in control-plane form: the stored clue (for
// verification), the FD and the Ptr/continuation (§3.1.1 "Hash table
// fields"). `ptr_empty` true means the FD is the final decision; false means
// a case-3 search continues via `cont`. `valid=false` marks a never-used
// slot (or an inactivated clue, §3.4 "a clue is never removed ... special
// marking for clues that are not valid").
template <typename A>
struct ClueEntry {
  ip::Prefix<A> clue;
  bool valid = false;
  // §3.4: "insisting that a clue is never removed from a clues table (this
  // requires a special marking for clues that are not valid)". An inactive
  // entry keeps its slot (hash probe chains stay intact) but is treated as
  // a miss until recomputed.
  bool active = true;
  // Always a prefix of `clue` (the BMP of the clue string), which is what
  // lets a slot store it as a length.
  std::optional<trie::Match<A>> fd;
  bool ptr_empty = true;
  lookup::Continuation<A> cont;
  // §3.1.2 classification the entry was built under, kept for observability:
  // ptr_empty alone cannot distinguish case 1 (vertex absent) from case 2
  // (Claim 1 / leaf). Not part of the wire entry (§3.5 sizing ignores it).
  ClueCase kase = ClueCase::kAbsent;
  // Case 2 via Claim-1 pruning specifically (see ClueAnalysis).
  bool claim1_pruned = false;
};

// Approximate data-plane footprint of one entry (§3.5 sizes entries at three
// 4-byte fields: clue value, FD, Ptr).
inline constexpr std::size_t kClueEntryWireBytes = 12;

// The Ptr of a slot whose FD is final (no continuation).
inline constexpr std::uint32_t kNoContinuation = ~std::uint32_t{0};

// The data-plane form of a ClueEntry: the clue value and length, one flags
// byte, the FD as a length into the clue plus its next hop, and the Ptr as
// an index into the owning table's continuation vector. The case and the
// Claim-1 attribution ride in the flags byte so an FD-direct hit reads one
// slot and nothing else. 16 B for IPv4, 32 B for IPv6, aligned to its size
// so no slot straddles a cache line.
template <typename A>
struct alignas(sizeof(A) <= 4 ? 16 : 32) ClueSlot {
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  static constexpr std::uint8_t kValid = 1u << 0;
  static constexpr std::uint8_t kActive = 1u << 1;
  static constexpr std::uint8_t kPtrEmpty = 1u << 2;
  static constexpr std::uint8_t kHasFd = 1u << 3;
  static constexpr std::uint8_t kClaim1 = 1u << 4;
  static constexpr int kCaseShift = 5;  // two bits of ClueCase

  A addr{};                    // the clue value, masked to `len`
  std::uint8_t len = 0;        // clue length
  std::uint8_t flags = 0;      // 0: never used
  std::uint8_t fd_len = 0;     // FD = Prefix(addr, fd_len) when kHasFd
  NextHop fd_hop = kNoNextHop;
  std::uint32_t cont = kNoContinuation;

  bool valid() const { return (flags & kValid) != 0; }
  bool active() const { return (flags & kActive) != 0; }
  bool ptrEmpty() const { return (flags & kPtrEmpty) != 0; }
  bool hasFd() const { return (flags & kHasFd) != 0; }
  bool claim1Pruned() const { return (flags & kClaim1) != 0; }
  ClueCase kase() const {
    return static_cast<ClueCase>((flags >> kCaseShift) & 3u);
  }

  // The stored-clue verification of a probe (§3.3.1).
  bool holds(const PrefixT& clue) const {
    return len == clue.length() && addr == clue.addr();
  }
  PrefixT clue() const { return PrefixT(addr, len); }
  std::optional<MatchT> fd() const {
    if (!hasFd()) return std::nullopt;
    return MatchT{PrefixT(addr, fd_len), fd_hop};
  }
};

inline constexpr std::size_t kClueCacheLineBytes = 64;
static_assert(sizeof(ClueSlot<ip::Ip4Addr>) == 16,
              "an IPv4 clue slot is 16 bytes");
static_assert(sizeof(ClueSlot<ip::Ip6Addr>) == 32,
              "an IPv6 clue slot is 32 bytes");
static_assert(kClueCacheLineBytes % sizeof(ClueSlot<ip::Ip4Addr>) == 0 &&
                  alignof(ClueSlot<ip::Ip4Addr>) ==
                      sizeof(ClueSlot<ip::Ip4Addr>),
              "IPv4 clue slots tile a cache line");
static_assert(kClueCacheLineBytes % sizeof(ClueSlot<ip::Ip6Addr>) == 0 &&
                  alignof(ClueSlot<ip::Ip6Addr>) ==
                      sizeof(ClueSlot<ip::Ip6Addr>),
              "IPv6 clue slots tile a cache line");

// ---------------------------------------------------------------------------
// ClueSlotStore: what both tables share — the slot array, the continuation
// side vector, and the encode/decode between slots and ClueEntry.
// ---------------------------------------------------------------------------
template <typename A>
class ClueSlotStore {
 public:
  using PrefixT = ip::Prefix<A>;
  using EntryT = ClueEntry<A>;
  using SlotT = ClueSlot<A>;

  // The continuation a slot's Ptr names. Requires !s.ptrEmpty().
  const lookup::Continuation<A>& continuation(const SlotT& s) const {
    CLUERT_DCHECK(s.cont < conts_.size()) << "Ptr " << s.cont << " of "
                                          << conts_.size();
    return conts_[s.cont];
  }

  // Length of the continuation vector (live entries plus recycled holes):
  // every slot's Ptr must be below it.
  std::size_t continuationSlots() const { return conts_.size(); }

  // Control-plane decode of a slot into the entry it was written from. A
  // Ptr out of range (a corrupt slot) decodes to an empty continuation.
  EntryT decode(const SlotT& s) const {
    EntryT e;
    e.clue = s.clue();
    e.valid = s.valid();
    e.active = s.active();
    e.fd = s.fd();
    e.ptr_empty = s.ptrEmpty();
    e.kase = s.kase();
    e.claim1_pruned = s.claim1Pruned();
    if (s.cont < conts_.size()) e.cont = conts_[s.cont];
    return e;
  }

  // Visits every valid slot, decoded. Control plane only.
  void forEach(const std::function<void(const EntryT&)>& fn) const {
    for (const SlotT& s : slots_) {
      if (s.valid()) fn(decode(s));
    }
  }

  // Re-encodes, in place, every valid slot `stale(slot)` selects with
  // `build(clue)`. The slot keeps its §3.4 marking: a refresh recomputes an
  // entry, it does not bring an inactive one back into use.
  template <typename Stale, typename Build>
  void refreshIf(Stale&& stale, Build&& build) {
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const SlotT& s = slots_[i];
      if (!s.valid() || !stale(s)) continue;
      EntryT e = build(s.clue());
      e.active = s.active();
      write(i, std::move(e));
    }
  }

  // §3.4 marking of every valid slot `pick(slot)` selects, in place (probe
  // chains stay intact). Returns the number of slots marked.
  template <typename Pick>
  std::size_t setActiveIf(Pick&& pick, bool active) {
    std::size_t marked = 0;
    for (SlotT& s : slots_) {
      if (!s.valid() || !pick(std::as_const(s))) continue;
      mark(s, active);
      ++marked;
    }
    return marked;
  }

 protected:
  explicit ClueSlotStore(std::size_t slots) : slots_(slots) {}

  static void mark(SlotT& s, bool active) {
    s.flags = static_cast<std::uint8_t>(
        active ? (s.flags | SlotT::kActive) : (s.flags & ~SlotT::kActive));
  }

  // Encodes `e` into slot i. The slot's continuation index is reused when
  // both the old and the new entry carry one, recycled when only the old
  // one did: indices never move, so a slot copy held by the §3.5 cache
  // keeps naming its own continuation until the entry itself is rewritten.
  void write(std::size_t i, EntryT e) {
    CLUERT_CHECK(!e.fd || e.fd->prefix.isPrefixOf(e.clue))
        << "FD " << e.fd->prefix.toString() << " is not a prefix of clue "
        << e.clue.toString();
    SlotT& s = slots_[i];
    std::uint32_t ci = s.valid() ? s.cont : kNoContinuation;
    if (e.ptr_empty) {
      if (ci != kNoContinuation) release(ci);
      ci = kNoContinuation;
    } else {
      if (ci == kNoContinuation) ci = acquire();
      conts_[ci] = std::move(e.cont);
    }
    s.addr = e.clue.addr();
    s.len = static_cast<std::uint8_t>(e.clue.length());
    s.flags = static_cast<std::uint8_t>(
        (e.valid ? SlotT::kValid : 0) | (e.active ? SlotT::kActive : 0) |
        (e.ptr_empty ? SlotT::kPtrEmpty : 0) | (e.fd ? SlotT::kHasFd : 0) |
        (e.claim1_pruned ? SlotT::kClaim1 : 0) |
        (static_cast<unsigned>(e.kase) << SlotT::kCaseShift));
    s.fd_len = static_cast<std::uint8_t>(e.fd ? e.fd->prefix.length() : 0);
    s.fd_hop = e.fd ? e.fd->next_hop : kNoNextHop;
    s.cont = ci;
  }

  // Bytes the slot array and the continuation vector occupy.
  std::size_t storeBytes() const {
    return slots_.capacity() * sizeof(SlotT) +
           conts_.capacity() * sizeof(lookup::Continuation<A>) +
           free_conts_.capacity() * sizeof(std::uint32_t);
  }

  std::vector<SlotT> slots_;

 private:
  std::uint32_t acquire() {
    if (!free_conts_.empty()) {
      const std::uint32_t ci = free_conts_.back();
      free_conts_.pop_back();
      return ci;
    }
    CLUERT_CHECK(conts_.size() < kNoContinuation) << "continuation overflow";
    conts_.emplace_back();
    return static_cast<std::uint32_t>(conts_.size() - 1);
  }

  void release(std::uint32_t ci) {
    conts_[ci] = lookup::Continuation<A>{};  // drops a shared candidate set
    free_conts_.push_back(ci);
  }

  // Case-3 continuations, indexed by ClueSlot::cont; holes left by entries
  // that stopped needing one are recycled through free_conts_.
  std::vector<lookup::Continuation<A>> conts_;
  std::vector<std::uint32_t> free_conts_;
};

// ---------------------------------------------------------------------------
// HashClueTable
// ---------------------------------------------------------------------------
template <typename A>
class HashClueTable : public ClueSlotStore<A> {
  using Base = ClueSlotStore<A>;
  using Base::slots_;

 public:
  using PrefixT = ip::Prefix<A>;
  using EntryT = ClueEntry<A>;
  using SlotT = ClueSlot<A>;

  // `expected` sizes the bucket array; load factor is kept near 25% so the
  // probe count stays close to the single access the paper assumes from a
  // near-perfect hash ("a perfect and efficient hashing function is
  // feasible" since the table changes rarely).
  explicit HashClueTable(std::size_t expected)
      : Base(bucketCountFor(expected)),
        tags_(bucketCountFor(expected) + lookup::kSwarLanes, 0) {}

  // The slot a probe for `clue` starts at (the validator walks chains from
  // it).
  std::size_t homeSlot(const PrefixT& clue) const { return slotOf(clue); }

  // Hash word + SWAR tag of `clue` from one hash evaluation — what the
  // batched first phase stores per packet (see ClueProbeHint).
  static ClueProbeHint hintFor(const PrefixT& clue) {
    const std::size_t h = hashOf(clue);
    return ClueProbeHint{static_cast<std::uint32_t>(h), lookup::swarTag(h)};
  }

  // Hints the hardware to pull the tag word and the home slot a probe from
  // `hint` reads first toward the cache (one tag byte per slot, so the whole
  // 8-slot window rides one line). Free in the paper's accounting model (a
  // prefetch is not a *dependent* reference — it overlaps with other
  // packets' work); the batched pipeline issues one per packet across a
  // batch before resolving any of them, which is where the memory-level
  // parallelism of a modern CPU comes from.
  void prefetch(ClueProbeHint hint) const {
    const std::size_t i = hint.hash & (slots_.size() - 1);
    __builtin_prefetch(&tags_[i]);
    __builtin_prefetch(&slots_[i]);
  }

  // Probes for `clue`. Returns nullptr on miss (the first never-used slot
  // ends the probe chain). Accounting: one kClueTable access per *slot*
  // actually compared, plus one for the empty slot that terminates a miss —
  // the SWAR tag word itself is free, like the §3.5 fast-memory cache (it
  // is 8 bytes per 8 slots, resident next to the probe window), so a chain
  // of tag-filtered collisions costs ~1 access where a plain open probe
  // charged one per slot.
  const SlotT* find(const PrefixT& clue, mem::AccessCounter& acc) const {
    return findFrom(hintFor(clue), clue, acc);
  }

  // Same probe, resumed from a precomputed hintFor(clue).
  const SlotT* findFrom(ClueProbeHint hint, const PrefixT& clue,
                        mem::AccessCounter& acc) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hint.hash & mask;
    for (std::size_t probed = 0; probed < slots_.size();
         probed += lookup::kSwarLanes) {
      const std::uint64_t word = lookup::swarLoad(&tags_[i]);
      const std::uint64_t empty = lookup::swarZeroMask(word);
      std::uint64_t match = lookup::swarMatchMask(word, hint.tag);
      // Candidates past the first empty slot belong to other probe chains
      // (this clue's insert would have stopped at the empty slot).
      if (empty != 0) match &= lookup::swarBelowLowest(empty);
      while (match != 0) {
        const SlotT& s = slots_[(i + lookup::swarLane(match)) & mask];
        acc.add(mem::Region::kClueTable);
        CLUERT_DCHECK(s.valid()) << "live tag over an invalid slot";
        if (s.holds(clue)) return &s;
        match &= match - 1;  // one flag bit per lane: drops the lowest lane
      }
      if (empty != 0) {
        acc.add(mem::Region::kClueTable);  // the empty slot ending the chain
        return nullptr;
      }
      i = (i + lookup::kSwarLanes) & mask;
    }
    return nullptr;
  }

  // Inserts or overwrites. Control-plane operation (learning §3.3.1 does the
  // fill-in off the fast path); charges no accesses. Returns false when the
  // table is full.
  bool insert(EntryT entry) {
    CLUERT_CHECK(entry.valid) << "inserting an invalid clue entry";
    if (size_ * 2 >= slots_.size()) grow();
    const std::size_t h = hashOf(entry.clue);
    std::size_t i = h & (slots_.size() - 1);
    for (std::size_t n = 0; n < slots_.size(); ++n) {
      const SlotT& s = slots_[i];
      if (!s.valid()) {
        this->write(i, std::move(entry));
        writeTag(i, lookup::swarTag(h));
        ++size_;
        return true;
      }
      if (s.holds(entry.clue)) {
        this->write(i, std::move(entry));
        return true;
      }
      i = (i + 1) % slots_.size();
    }
    return false;
  }

  // Overwrites the entry for `entry.clue` in place (re-encoding its slot and
  // continuation together); false, and no change, when the clue is absent.
  // The §3.4 marking is taken from `entry`.
  bool update(EntryT entry) {
    CLUERT_CHECK(entry.valid) << "updating to an invalid clue entry";
    const std::optional<std::size_t> i = indexOf(entry.clue);
    if (!i) return false;
    this->write(*i, std::move(entry));
    return true;
  }

  // §3.4 marking: deactivate/reactivate without disturbing probe chains.
  bool setActive(const PrefixT& clue, bool active) {
    const std::optional<std::size_t> i = indexOf(clue);
    if (!i) return false;
    Base::mark(slots_[*i], active);
    return true;
  }

  std::size_t size() const { return size_; }
  std::size_t bucketCount() const { return slots_.size(); }

  // Raw slot access (valid or not), for the src/check/ validators. `i` must
  // be < bucketCount().
  const SlotT& slotAt(std::size_t i) const { return slots_[i]; }

  // Footprint at the paper's §3.5 entry size.
  std::size_t wireBytes() const { return slots_.size() * kClueEntryWireBytes; }
  // Footprint this table actually occupies: slots, tags and continuations
  // (a Binary/Multiway continuation's shared candidate table is not
  // counted).
  std::size_t residentBytes() const {
    return this->storeBytes() + tags_.capacity();
  }

 private:
  static std::size_t bucketCountFor(std::size_t expected) {
    std::size_t n = 16;
    while (n < expected * 4) n <<= 1;
    return n;
  }

  // Bucket counts stay below 2^32, so the low hash word names every slot.
  static std::size_t hashOf(const PrefixT& clue) {
    return std::hash<PrefixT>{}(clue);
  }

  std::size_t slotOf(const PrefixT& clue) const {
    return hashOf(clue) & (slots_.size() - 1);
  }

  // Control-plane probe (linear, no tags): the slot holding `clue`.
  std::optional<std::size_t> indexOf(const PrefixT& clue) const {
    std::size_t i = slotOf(clue);
    for (std::size_t n = 0; n < slots_.size(); ++n) {
      const SlotT& s = slots_[i];
      if (!s.valid()) return std::nullopt;
      if (s.holds(clue)) return i;
      i = (i + 1) % slots_.size();
    }
    return std::nullopt;
  }

  // Tag writes mirror the first SWAR window past the end of the array so a
  // probe word loaded near the wrap point sees the wrapped slots (same trick
  // as F14/Swiss tables' cloned control bytes).
  void writeTag(std::size_t i, std::uint8_t tag) {
    tags_[i] = tag;
    if (i < lookup::kSwarLanes) tags_[slots_.size() + i] = tag;
  }

  // Doubles the bucket array and re-places every slot in its old order.
  // Slots move whole, so their continuation indices stay valid.
  void grow() {
    std::vector<SlotT> old = std::move(slots_);
    slots_.assign(old.size() * 2, SlotT{});
    tags_.assign(slots_.size() + lookup::kSwarLanes, 0);
    const std::size_t mask = slots_.size() - 1;
    for (const SlotT& s : old) {
      if (!s.valid()) continue;
      const std::size_t h = hashOf(s.clue());
      std::size_t i = h & mask;
      while (slots_[i].valid()) i = (i + 1) & mask;
      slots_[i] = s;
      writeTag(i, lookup::swarTag(h));
    }
  }

  // One byte per slot (+ kSwarLanes mirrored), 0 = never used; see
  // lookup/swar_probe.h for the encoding.
  std::vector<std::uint8_t> tags_;
  std::size_t size_ = 0;
};

// ---------------------------------------------------------------------------
// IndexedClueTable
// ---------------------------------------------------------------------------
template <typename A>
class IndexedClueTable : public ClueSlotStore<A> {
  using Base = ClueSlotStore<A>;
  using Base::slots_;

 public:
  using PrefixT = ip::Prefix<A>;
  using EntryT = ClueEntry<A>;
  using SlotT = ClueSlot<A>;

  explicit IndexedClueTable(std::size_t capacity) : Base(capacity) {}

  // Batched-pipeline hint; see HashClueTable::prefetch.
  void prefetch(std::uint16_t index) const {
    if (index < slots_.size()) __builtin_prefetch(&slots_[index]);
  }

  // One access, always. Returns the slot; the caller must verify
  // `slot->valid() && slot->holds(clue)` (the §3.3.1 robustness check) and
  // treat a mismatch as a miss-and-relearn.
  const SlotT* at(std::uint16_t index, mem::AccessCounter& acc) const {
    acc.add(mem::Region::kClueTable);
    if (index >= slots_.size()) return nullptr;
    return &slots_[index];
  }

  // Overwrites slot `index` ("R2 updates this entry with s, the new clue,
  // overwriting whatever was there before"). An out-of-range index — a
  // corrupted or stale header — is ignored; the packet was already routed
  // by the miss path. Returns whether the slot was written.
  bool put(std::uint16_t index, EntryT entry) {
    if (index >= slots_.size()) return false;
    this->write(index, std::move(entry));
    return true;
  }

  // Raw slot access (valid or not). `i` must be < capacity().
  const SlotT& slotAt(std::size_t i) const { return slots_[i]; }

  std::size_t capacity() const { return slots_.size(); }
  std::size_t wireBytes() const { return slots_.size() * kClueEntryWireBytes; }
  // Footprint this table actually occupies: slots and continuations.
  std::size_t residentBytes() const { return this->storeBytes(); }
};

}  // namespace cluert::core
