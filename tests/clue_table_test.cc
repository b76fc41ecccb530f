#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/clue.h"
#include "core/clue_table.h"
#include "test_util.h"

namespace cluert::core {
namespace {

using testutil::p4;
using A = ip::Ip4Addr;
using Table = HashClueTable<A>;
using Indexed = IndexedClueTable<A>;
using Entry = ClueEntry<A>;
using Slot = ClueSlot<A>;

Entry entryFor(const ip::Prefix4& clue, NextHop nh) {
  Entry e;
  e.clue = clue;
  e.valid = true;
  e.fd = trie::Match<A>{clue, nh};
  e.ptr_empty = true;
  return e;
}

TEST(HashClueTable, FindMissOnEmpty) {
  Table t(64);
  mem::AccessCounter acc;
  EXPECT_EQ(t.find(p4("10.0.0.0/8"), acc), nullptr);
  EXPECT_GE(acc.count(mem::Region::kClueTable), 1u);
}

TEST(HashClueTable, InsertThenFind) {
  Table t(64);
  ASSERT_TRUE(t.insert(entryFor(p4("10.0.0.0/8"), 3)));
  mem::AccessCounter acc;
  const Slot* e = t.find(p4("10.0.0.0/8"), acc);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->fd()->next_hop, 3u);
  EXPECT_EQ(t.size(), 1u);
}

TEST(HashClueTable, SameAddressDifferentLengthAreDistinctClues) {
  Table t(64);
  t.insert(entryFor(p4("10.0.0.0/8"), 1));
  t.insert(entryFor(p4("10.0.0.0/16"), 2));
  mem::AccessCounter acc;
  EXPECT_EQ(t.find(p4("10.0.0.0/8"), acc)->fd()->next_hop, 1u);
  EXPECT_EQ(t.find(p4("10.0.0.0/16"), acc)->fd()->next_hop, 2u);
}

TEST(HashClueTable, OverwriteKeepsSize) {
  Table t(64);
  t.insert(entryFor(p4("10.0.0.0/8"), 1));
  t.insert(entryFor(p4("10.0.0.0/8"), 9));
  EXPECT_EQ(t.size(), 1u);
  mem::AccessCounter acc;
  EXPECT_EQ(t.find(p4("10.0.0.0/8"), acc)->fd()->next_hop, 9u);
}

TEST(HashClueTable, GrowsBeyondInitialCapacity) {
  Table t(4);
  Rng rng(1);
  std::vector<ip::Prefix4> clues;
  for (int i = 0; i < 500; ++i) {
    const ip::Prefix4 p(A(rng.u32()), 24);
    if (std::find(clues.begin(), clues.end(), p) != clues.end()) continue;
    clues.push_back(p);
    ASSERT_TRUE(t.insert(entryFor(p, static_cast<NextHop>(i))));
  }
  EXPECT_EQ(t.size(), clues.size());
  mem::AccessCounter acc;
  for (const auto& c : clues) {
    ASSERT_NE(t.find(c, acc), nullptr) << c.toString();
  }
}

TEST(HashClueTable, ProbeCountStaysNearOne) {
  // §6: "the average number of memory references in our scheme is close to
  // 1" — the hash table's load factor keeps probes short.
  Table t(4096);
  Rng rng(2);
  std::vector<ip::Prefix4> clues;
  for (int i = 0; i < 4096; ++i) {
    const ip::Prefix4 p(A(rng.u32()), static_cast<int>(rng.uniform(8, 28)));
    clues.push_back(p);
    t.insert(entryFor(p, 1));
  }
  mem::AccessCounter acc;
  for (const auto& c : clues) t.find(c, acc);
  const double avg = static_cast<double>(acc.total()) /
                     static_cast<double>(clues.size());
  EXPECT_LT(avg, 1.4);
  EXPECT_GE(avg, 1.0);
}

TEST(HashClueTable, ForEachVisitsAllValid) {
  Table t(64);
  t.insert(entryFor(p4("10.0.0.0/8"), 1));
  t.insert(entryFor(p4("11.0.0.0/8"), 2));
  std::size_t n = 0;
  t.forEach([&](const Entry&) { ++n; });
  EXPECT_EQ(n, 2u);
}

TEST(HashClueTable, WireBytesTracksBuckets) {
  Table t(100);
  EXPECT_EQ(t.wireBytes(), t.bucketCount() * kClueEntryWireBytes);
}

// The decoded entry for `clue`, which must be in `t`.
Entry decoded(const Table& t, const ip::Prefix4& clue) {
  mem::AccessCounter acc;
  const Slot* s = t.find(clue, acc);
  EXPECT_NE(s, nullptr) << clue.toString();
  return s != nullptr ? t.decode(*s) : Entry{};
}

// A case-3 entry: Ptr set, continuation naming the clue.
Entry searchEntryFor(const ip::Prefix4& clue, NextHop nh) {
  Entry e = entryFor(clue.truncated(clue.length() - 1), nh);
  e.clue = clue;
  e.ptr_empty = false;
  e.kase = ClueCase::kSearch;
  e.cont.clue = clue;
  e.cont.max_len = clue.length() + 4;
  return e;
}

TEST(ClueSlot, SixteenBytesTilingACacheLine) {
  static_assert(sizeof(ClueSlot<ip::Ip4Addr>) == 16);
  static_assert(alignof(ClueSlot<ip::Ip4Addr>) == 16);
  static_assert(sizeof(ClueSlot<ip::Ip6Addr>) == 32);
  static_assert(alignof(ClueSlot<ip::Ip6Addr>) == 32);
  Table t(64);
  const auto addr = reinterpret_cast<std::uintptr_t>(&t.slotAt(0));
  EXPECT_EQ(addr % 16, 0u);  // so no slot straddles a 64-byte line
}

TEST(HashClueTable, EncodeDecodeRoundTripsEveryField) {
  Table t(64);
  Entry e = searchEntryFor(p4("10.1.0.0/16"), 7);
  e.claim1_pruned = true;
  e.active = false;
  ASSERT_TRUE(t.insert(e));
  const Entry back = decoded(t, p4("10.1.0.0/16"));
  EXPECT_EQ(back.clue, e.clue);
  EXPECT_TRUE(back.valid);
  EXPECT_FALSE(back.active);
  EXPECT_EQ(back.fd, e.fd);
  EXPECT_FALSE(back.ptr_empty);
  EXPECT_EQ(back.kase, ClueCase::kSearch);
  EXPECT_TRUE(back.claim1_pruned);
  EXPECT_EQ(back.cont.clue, e.clue);
  EXPECT_EQ(back.cont.max_len, 20);
  // No FD at all decodes back to none.
  Entry none = entryFor(p4("11.0.0.0/8"), 1);
  none.fd.reset();
  ASSERT_TRUE(t.insert(none));
  EXPECT_FALSE(decoded(t, p4("11.0.0.0/8")).fd.has_value());
}

TEST(HashClueTable, UpdateRewritesInPlaceAndRecyclesContinuations) {
  Table t(64);
  ASSERT_TRUE(t.insert(searchEntryFor(p4("10.1.0.0/16"), 1)));
  EXPECT_EQ(t.continuationSlots(), 1u);
  mem::AccessCounter acc;
  const Slot* before = t.find(p4("10.1.0.0/16"), acc);
  // Case 3 -> case 2: the slot stays put, its continuation is released.
  Entry final_entry = entryFor(p4("10.1.0.0/16"), 2);
  final_entry.kase = ClueCase::kFinal;
  ASSERT_TRUE(t.update(final_entry));
  const Slot* after = t.find(p4("10.1.0.0/16"), acc);
  EXPECT_EQ(before, after);
  EXPECT_TRUE(after->ptrEmpty());
  EXPECT_EQ(after->cont, kNoContinuation);
  EXPECT_EQ(after->fd()->next_hop, 2u);
  // The hole is recycled rather than the vector growing.
  ASSERT_TRUE(t.insert(searchEntryFor(p4("10.2.0.0/16"), 3)));
  EXPECT_EQ(t.continuationSlots(), 1u);
  EXPECT_EQ(t.continuation(*t.find(p4("10.2.0.0/16"), acc)).clue,
            p4("10.2.0.0/16"));
  // update never inserts.
  EXPECT_FALSE(t.update(entryFor(p4("99.0.0.0/8"), 1)));
  EXPECT_EQ(t.size(), 2u);
}

TEST(HashClueTable, GrowthKeepsEveryContinuationIndex) {
  Table t(4);
  Rng rng(31);
  std::vector<ip::Prefix4> clues;
  std::vector<std::uint32_t> index;
  while (clues.size() < 200) {
    const ip::Prefix4 p(A(rng.u32()), 20);
    if (std::find(clues.begin(), clues.end(), p) != clues.end()) continue;
    clues.push_back(p);
    ASSERT_TRUE(t.insert(searchEntryFor(p, 1)));
    mem::AccessCounter acc;
    index.push_back(t.find(p, acc)->cont);
  }
  mem::AccessCounter acc;
  for (std::size_t i = 0; i < clues.size(); ++i) {
    const Slot* s = t.find(clues[i], acc);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->cont, index[i]);
    EXPECT_EQ(t.continuation(*s).clue, clues[i]);
  }
}

TEST(HashClueTable, RefreshIfRebuildsSelectedSlotsAndKeepsTheirMark) {
  Table t(64);
  t.insert(entryFor(p4("10.0.0.0/8"), 1));
  t.insert(entryFor(p4("11.0.0.0/8"), 1));
  ASSERT_TRUE(t.setActive(p4("10.0.0.0/8"), false));
  t.refreshIf([](const Slot& s) { return s.clue() == p4("10.0.0.0/8"); },
              [](const ip::Prefix4& clue) { return entryFor(clue, 5); });
  const Entry refreshed = decoded(t, p4("10.0.0.0/8"));
  EXPECT_EQ(refreshed.fd->next_hop, 5u);
  EXPECT_FALSE(refreshed.active);  // §3.4 marking survives a refresh
  EXPECT_EQ(decoded(t, p4("11.0.0.0/8")).fd->next_hop, 1u);
}

TEST(HashClueTable, ResidentBytesCountsSlotsTagsAndContinuations) {
  Table t(100);
  const std::size_t base = t.bucketCount() * sizeof(Slot) +
                           t.bucketCount() + lookup::kSwarLanes;
  EXPECT_EQ(t.residentBytes(), base);
  EXPECT_GT(t.residentBytes(), t.wireBytes());  // 16 B slots + tags vs 12 B
  ASSERT_TRUE(t.insert(searchEntryFor(p4("10.1.0.0/16"), 1)));
  EXPECT_GE(t.residentBytes(), base + sizeof(lookup::Continuation<A>));
}

TEST(IndexedClueTable, ResidentBytesCountsSlotsAndContinuations) {
  Indexed t(256);
  EXPECT_EQ(t.residentBytes(), 256 * sizeof(Slot));
  ASSERT_TRUE(t.put(3, searchEntryFor(p4("10.1.0.0/16"), 1)));
  EXPECT_GE(t.residentBytes(),
            256 * sizeof(Slot) + sizeof(lookup::Continuation<A>));
}

// ---------------------------------------------------------------------------
// IndexedClueTable (§3.3.1 indexing technique)
// ---------------------------------------------------------------------------

TEST(IndexedClueTable, ExactlyOneAccessPerProbe) {
  Indexed t(256);
  t.put(7, entryFor(p4("10.0.0.0/8"), 1));
  mem::AccessCounter acc;
  const Slot* e = t.at(7, acc);
  ASSERT_NE(e, nullptr);
  EXPECT_TRUE(e->valid());
  EXPECT_EQ(acc.total(), 1u);
}

TEST(IndexedClueTable, UnusedSlotIsInvalid) {
  Indexed t(256);
  mem::AccessCounter acc;
  const Slot* e = t.at(9, acc);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->valid());
}

TEST(IndexedClueTable, OutOfRangeIndexIsNull) {
  Indexed t(16);
  mem::AccessCounter acc;
  EXPECT_EQ(t.at(16, acc), nullptr);
  EXPECT_EQ(acc.total(), 1u);  // the probe still cost an access
}

TEST(IndexedClueTable, RobustnessCheckDetectsStaleIndex) {
  // The sender renumbered; the receiver's slot holds a different clue. The
  // stored-clue comparison (§3.3.1) catches it.
  Indexed t(256);
  t.put(3, entryFor(p4("10.0.0.0/8"), 1));
  mem::AccessCounter acc;
  const Slot* e = t.at(3, acc);
  ASSERT_NE(e, nullptr);
  EXPECT_FALSE(e->holds(p4("99.0.0.0/8")));  // mismatch -> treat as miss
  // Overwrite with the new clue, as the paper prescribes.
  t.put(3, entryFor(p4("99.0.0.0/8"), 2));
  const Slot* e2 = t.at(3, acc);
  EXPECT_TRUE(e2->holds(p4("99.0.0.0/8")));
}

TEST(ClueIndexerLike, ClueFieldEncoding) {
  // 5 bits suffice for IPv4 lengths, 7 for IPv6 (paper, abstract).
  EXPECT_EQ(clueHeaderBits(32), 5);
  EXPECT_EQ(clueHeaderBits(128), 7);
  const auto f = ClueField::of(16);
  EXPECT_TRUE(f.present);
  const auto p = cluePrefix(*A::parse("192.114.0.5"), f);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->toString(), "192.114.0.0/16");
  EXPECT_FALSE(cluePrefix(*A::parse("1.2.3.4"), ClueField::none()));
}

TEST(ClueIndexerLike, IndexedFieldCarriesIndex) {
  const auto f = ClueField::indexed(24, 77);
  EXPECT_TRUE(f.present);
  ASSERT_TRUE(f.index.has_value());
  EXPECT_EQ(*f.index, 77);
}

// ---------------------------------------------------------------------------
// SWAR tag probing
// ---------------------------------------------------------------------------

TEST(SwarProbe, TagNeverCollidesWithEmpty) {
  // Tags have the 0x80 marker bit set, so no hash can produce the 0x00
  // empty-slot sentinel — the property the whole word-probe rests on.
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NE(lookup::swarTag(rng.u64()), 0);
    EXPECT_EQ(lookup::swarTag(rng.u64()) & 0x80, 0x80);
  }
}

TEST(SwarProbe, MaskHelpersFindLanes) {
  const std::uint8_t tags[8] = {0x81, 0x00, 0x81, 0xD2, 0x00, 0x81, 0xFF, 0};
  const std::uint64_t word = lookup::swarLoad(tags);
  const std::uint64_t empty = lookup::swarZeroMask(word);
  // Lowest empty lane is index 1.
  EXPECT_EQ(lookup::swarLane(empty), 1u);
  std::uint64_t match = lookup::swarMatchMask(word, 0x81);
  EXPECT_EQ(lookup::swarLane(match), 0u);  // first 0x81 is lane 0
  match &= lookup::swarBelowLowest(empty);
  // Below the lowest empty lane only lane 0 matches — lanes 2 and 5 are
  // past the probe's termination point and must be discarded.
  EXPECT_EQ(match, lookup::swarMatchMask(word, 0x81) & 0xFF);
}

TEST(HashClueTable, HintedProbeFindsEveryEntryAndTerminatesMisses) {
  Table t(64);
  Rng rng(9);
  std::vector<ip::Prefix4> clues;
  for (int i = 0; i < 48; ++i) {
    const ip::Prefix4 p(A(rng.u32()), 24);
    if (std::find(clues.begin(), clues.end(), p) != clues.end()) continue;
    clues.push_back(p);
    ASSERT_TRUE(t.insert(entryFor(p, static_cast<NextHop>(i))));
  }
  for (const auto& c : clues) {
    mem::AccessCounter acc;
    const auto hint = t.hintFor(c);
    const Slot* e = t.findFrom(hint, c, acc);
    ASSERT_NE(e, nullptr) << c.toString();
    EXPECT_EQ(e->clue(), c);
    EXPECT_GE(acc.count(mem::Region::kClueTable), 1u);
  }
  // Misses: the probe stops at the first genuinely empty lane and charges
  // the access that discovered it.
  std::size_t misses = 0;
  for (int i = 0; misses < 32 && i < 1000; ++i) {
    const ip::Prefix4 p(A(rng.u32()), 20);
    if (std::find(clues.begin(), clues.end(), p) != clues.end()) continue;
    ++misses;
    mem::AccessCounter acc;
    EXPECT_EQ(t.findFrom(t.hintFor(p), p, acc), nullptr);
    EXPECT_GE(acc.count(mem::Region::kClueTable), 1u);
  }
}

TEST(HashClueTable, DenseTableStillResolvesThroughWrappedTagWords) {
  // Push the load factor high enough that probes cross SWAR word
  // boundaries and the mirrored tail tags (the cloned first kSwarLanes
  // bytes) get exercised at the wrap.
  Table t(4);
  Rng rng(12);
  std::vector<ip::Prefix4> clues;
  while (clues.size() < 300) {
    const ip::Prefix4 p(A(rng.u32()), static_cast<int>(rng.uniform(9, 30)));
    if (std::find(clues.begin(), clues.end(), p) != clues.end()) continue;
    clues.push_back(p);
    ASSERT_TRUE(t.insert(entryFor(p, 1)));
  }
  mem::AccessCounter acc;
  for (const auto& c : clues) {
    ASSERT_NE(t.find(c, acc), nullptr) << c.toString();
  }
}

}  // namespace
}  // namespace cluert::core
