// Tests for the src/check/ invariant validators and the CLUERT_CHECK macro
// layer. The negative tests deliberately corrupt structures (const_cast is
// the point: the validators exist to catch exactly the states the public
// API makes unrepresentable) and assert the precise violation id reported.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "check/validate.h"
#include "common/check.h"
#include "core/distributed_lookup.h"
#include "lookup/factory.h"
#include "test_util.h"

namespace cluert {
namespace {

using testutil::p4;
using A = ip::Ip4Addr;
using Trie = trie::BinaryTrie<A>;
using Patricia = trie::PatriciaTrie<A>;
using Match = trie::Match<A>;
using Node = Trie::Node;

// A small nested table: /8 with a /9 and a /10 inside it, plus an unrelated
// /16. Handy because clue 10.0.0.0/8 has Simple candidates {/9, /10}, while
// a neighbor owning the /9 blocks both under Advance (Claim 1 holds).
std::vector<Match> nestedTable() {
  return {
      Match{p4("10.0.0.0/8"), 1},
      Match{p4("10.128.0.0/9"), 2},
      Match{p4("10.192.0.0/10"), 3},
      Match{p4("192.168.0.0/16"), 4},
  };
}

Trie buildTrie(const std::vector<Match>& entries) {
  Trie t;
  for (const Match& e : entries) t.insert(e.prefix, e.next_hop);
  return t;
}

// ---------------------------------------------------------------------------
// CLUERT_CHECK macro layer
// ---------------------------------------------------------------------------

TEST(CheckMacroDeathTest, FailurePrintsStreamedMessageAndAborts) {
  EXPECT_DEATH(CLUERT_CHECK(1 == 2) << "boom " << 42,
               "CLUERT_CHECK failed: 1 == 2 boom 42");
}

TEST(CheckMacro, SuccessEvaluatesNothing) {
  int evaluations = 0;
  CLUERT_CHECK(true) << "never built: " << ++evaluations;
  EXPECT_EQ(evaluations, 0);
}

#ifdef NDEBUG
TEST(CheckMacro, DcheckCompiledOutInRelease) {
  int evaluations = 0;
  CLUERT_DCHECK(++evaluations > 0) << "also not built";
  EXPECT_EQ(evaluations, 0);  // neither condition nor message evaluated
}
#else
TEST(CheckMacroDeathTest, DcheckActiveInDebug) {
  EXPECT_DEATH(CLUERT_DCHECK(false) << "debug", "CLUERT_CHECK failed");
}
#endif

// ---------------------------------------------------------------------------
// BinaryTrie
// ---------------------------------------------------------------------------

TEST(CheckBinaryTrie, ValidTrieIsClean) {
  Rng rng(7);
  const auto entries = testutil::randomTable4(rng, 300);
  const Trie t = buildTrie(entries);
  const auto report = check::validate(t);
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CheckBinaryTrie, EmptyTrieIsClean) {
  const Trie t;
  EXPECT_TRUE(check::validate(t).ok());
}

// Walks to any leaf (leaves are marked in a pruned trie).
Node* someLeaf(Trie& t) {
  auto* node = const_cast<Node*>(t.root());
  while (!node->isLeaf()) {
    node = node->child[node->child[0] ? 0 : 1].get();
  }
  return node;
}

TEST(CheckBinaryTrie, UnmarkedLeafViolatesPruning) {
  Trie t = buildTrie(nestedTable());
  Node* leaf = someLeaf(t);
  leaf->marked = false;
  leaf->next_hop = kNoNextHop;
  const auto report = check::validate(t);
  EXPECT_TRUE(report.has("pruned-subtree")) << report.toString();
  EXPECT_TRUE(report.has("prefix-count")) << report.toString();
}

TEST(CheckBinaryTrie, NextHopOnUnmarkedVertexIsReported) {
  Trie t = buildTrie(nestedTable());
  // The /9 sits two levels below the /8; its path vertices are unmarked.
  auto* root = const_cast<Node*>(t.root());
  Node* on_path = root->child[0].get();  // 0/1: 10.x starts with bit 0
  ASSERT_NE(on_path, nullptr);
  ASSERT_FALSE(on_path->marked);
  on_path->next_hop = 9;
  const auto report = check::validate(t);
  EXPECT_TRUE(report.has("unmarked-next-hop")) << report.toString();
  EXPECT_EQ(report.count("unmarked-next-hop"), 1u);
}

TEST(CheckBinaryTrie, MarkedVertexRoutingNowhereIsReported) {
  Trie t = buildTrie(nestedTable());
  someLeaf(t)->next_hop = kNoNextHop;
  const auto report = check::validate(t);
  EXPECT_TRUE(report.has("marked-no-next-hop")) << report.toString();
}

TEST(CheckBinaryTrie, BrokenParentLinkIsReported) {
  Trie t = buildTrie(nestedTable());
  Node* leaf = someLeaf(t);
  leaf->parent = leaf;  // anything but the true parent
  const auto report = check::validate(t);
  EXPECT_TRUE(report.has("parent-link")) << report.toString();
}

TEST(CheckBinaryTrie, ContinueBitsMatchDefinition) {
  Rng rng(11);
  const auto mine = testutil::randomTable4(rng, 200);
  const auto theirs = testutil::neighborOf(mine, rng);
  Trie t2 = buildTrie(mine);
  const Trie t1 = buildTrie(theirs);
  t2.computeContinueBits(3, t1);
  const auto report = check::validateContinueBits(t2, 3, t1);
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CheckBinaryTrie, FlippedContinueBitIsReported) {
  Trie t2 = buildTrie(nestedTable());
  const Trie t1 = buildTrie({Match{p4("10.128.0.0/9"), 7}});
  t2.computeContinueBits(0, t1);
  someLeaf(t2)->continue_bits ^= 1u;  // leaf must say "stop"
  const auto report = check::validateContinueBits(t2, 0, t1);
  ASSERT_TRUE(report.has("claim1-continue-bit")) << report.toString();
  EXPECT_EQ(report.count("claim1-continue-bit"), 1u);
}

// ---------------------------------------------------------------------------
// PatriciaTrie
// ---------------------------------------------------------------------------

TEST(CheckPatricia, ValidTrieIsCleanAndEquivalent) {
  Rng rng(13);
  const auto entries = testutil::randomTable4(rng, 300);
  const Trie binary = buildTrie(entries);
  const Patricia patricia = Patricia::fromBinaryTrie(binary);
  EXPECT_TRUE(check::validate(patricia).ok());
  const auto equiv = check::validateEquivalent(binary, patricia);
  EXPECT_TRUE(equiv.ok()) << equiv.toString();
}

TEST(CheckPatricia, UnmarkedLeafViolatesCompression) {
  const Trie binary = buildTrie(nestedTable());
  Patricia patricia = Patricia::fromBinaryTrie(binary);
  // Unmark any marked leaf: an unmarked non-root vertex with 0 children
  // must have been contracted away.
  using PNode = Patricia::Node;
  PNode* leaf = nullptr;
  patricia.forEachNode([&](const PNode& n) {
    if (n.isLeaf() && n.marked) leaf = const_cast<PNode*>(&n);
  });
  ASSERT_NE(leaf, nullptr);
  leaf->marked = false;
  leaf->next_hop = kNoNextHop;
  const auto report = check::validate(patricia);
  EXPECT_TRUE(report.has("path-compression")) << report.toString();
  EXPECT_TRUE(report.has("prefix-count")) << report.toString();
}

TEST(CheckPatricia, DivergedNextHopBreaksEquivalence) {
  const Trie binary = buildTrie(nestedTable());
  Patricia patricia = Patricia::fromBinaryTrie(binary);
  using PNode = Patricia::Node;
  patricia.forEachNode([&](const PNode& n) {
    if (n.marked && n.prefix == p4("10.128.0.0/9")) {
      const_cast<PNode&>(n).next_hop = 42;
    }
  });
  const auto report = check::validateEquivalent(binary, patricia);
  ASSERT_TRUE(report.has("next-hop-mismatch")) << report.toString();
  EXPECT_EQ(report.count("next-hop-mismatch"), 1u);
}

// ---------------------------------------------------------------------------
// Clue tables (Simple + Advance, hash + indexed)
// ---------------------------------------------------------------------------

struct PortFixture {
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  Trie neighbor_trie;
  std::unique_ptr<core::CluePort<A>> port;

  PortFixture(lookup::Method method, lookup::ClueMode mode,
              const std::vector<Match>& mine,
              const std::vector<Match>& theirs) {
    suite = std::make_unique<lookup::LookupSuite<A>>(mine);
    neighbor_trie = buildTrie(theirs);
    typename core::CluePort<A>::Options opt;
    opt.method = method;
    opt.mode = mode;
    port = std::make_unique<core::CluePort<A>>(
        *suite,
        mode == lookup::ClueMode::kAdvance ? &neighbor_trie : nullptr, opt);
    std::vector<ip::Prefix<A>> clues;
    for (const Match& e : theirs) clues.push_back(e.prefix);
    port->precompute(clues);
  }

  check::Report validateHash() const {
    return check::validate(
        port->hashTable(), suite->binaryTrie(),
        port->options().mode == lookup::ClueMode::kAdvance ? &neighbor_trie
                                                           : nullptr,
        &suite->patricia());
  }

  // The raw slot for `clue` (which must be in the table), for corruptions
  // the encoding itself cannot produce.
  core::ClueSlot<A>& rawSlot(const ip::Prefix<A>& clue) {
    mem::AccessCounter acc;
    const core::ClueSlot<A>* s = port->hashTable().find(clue, acc);
    CLUERT_CHECK(s != nullptr) << clue.toString() << " not in the table";
    return const_cast<core::ClueSlot<A>&>(*s);
  }

  // The decoded entry for `clue`.
  core::ClueEntry<A> entry(const ip::Prefix<A>& clue) {
    return port->hashTable().decode(rawSlot(clue));
  }

  // Writes a (corrupted) entry back through the table's update path, which
  // re-encodes its slot and continuation together.
  void rewrite(const core::ClueEntry<A>& e) {
    auto& table = const_cast<core::HashClueTable<A>&>(port->hashTable());
    CLUERT_CHECK(table.update(e)) << e.clue.toString();
  }
};

TEST(CheckClueTable, EveryMethodValidatesCleanSimpleAndAdvance) {
  Rng rng(17);
  const auto mine = testutil::randomTable4(rng, 200);
  const auto theirs = testutil::neighborOf(mine, rng);
  for (const auto method :
       {lookup::Method::kRegular, lookup::Method::kPatricia,
        lookup::Method::kBinary, lookup::Method::kMultiway,
        lookup::Method::kLogW, lookup::Method::kStride}) {
    for (const auto mode :
         {lookup::ClueMode::kSimple, lookup::ClueMode::kAdvance}) {
      PortFixture f(method, mode, mine, theirs);
      const auto report = f.validateHash();
      EXPECT_TRUE(report.ok())
          << "method " << static_cast<int>(method) << " mode "
          << static_cast<int>(mode) << ":\n"
          << report.toString();
    }
  }
}

TEST(CheckClueTable, WrongFdIsReported) {
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto e = f.entry(p4("10.128.0.0/9"));
  e.fd = Match{p4("10.0.0.0/8"), 99};  // right prefix family, wrong hop
  f.rewrite(e);
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("fd-mismatch")) << report.toString();
  EXPECT_EQ(report.count("fd-mismatch"), 1u);
}

TEST(CheckClueTable, Claim1ViolationIsReported) {
  // Simple mode: clue 10.0.0.0/8 has candidates {/9, /10}, so an empty Ptr
  // is exactly the unsound state Claim 1 forbids.
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto e = f.entry(p4("10.0.0.0/8"));
  ASSERT_FALSE(e.ptr_empty);  // sanity: a search is genuinely needed
  e.ptr_empty = true;
  f.rewrite(e);
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("claim1-empty-ptr")) << report.toString();
}

TEST(CheckClueTable, SpuriousPtrIsReported) {
  // Advance mode with the neighbor owning 10.128.0.0/9: both candidates are
  // C1-blocked, Claim 1 holds, the Ptr must be empty.
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kAdvance,
                nestedTable(),
                {Match{p4("10.0.0.0/8"), 1}, Match{p4("10.128.0.0/9"), 2}});
  auto e = f.entry(p4("10.0.0.0/8"));
  ASSERT_TRUE(e.ptr_empty);  // sanity: Claim 1 holds for this clue
  e.ptr_empty = false;
  f.rewrite(e);
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("ptr-not-empty")) << report.toString();
}

TEST(CheckClueTable, DanglingPatriciaAnchorIsReported) {
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto e = f.entry(p4("10.0.0.0/8"));
  ASSERT_FALSE(e.ptr_empty);
  e.cont.patricia_anchor = f.suite->patricia().root();  // wrong node
  f.rewrite(e);
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("dangling-patricia-anchor")) << report.toString();
}

TEST(CheckClueTable, DanglingTrieAnchorIsReported) {
  PortFixture f(lookup::Method::kRegular, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto e = f.entry(p4("10.0.0.0/8"));
  ASSERT_FALSE(e.ptr_empty);
  e.cont.trie_anchor = f.suite->binaryTrie().root();  // not the clue vertex
  f.rewrite(e);
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("dangling-trie-anchor")) << report.toString();
}

TEST(CheckClueTable, PtrWithNoContinuationStateIsReported) {
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto e = f.entry(p4("10.0.0.0/8"));
  ASSERT_FALSE(e.ptr_empty);
  e.cont = lookup::Continuation<A>{};  // wipe: Ptr now points at nothing
  e.cont.clue = e.clue;
  f.rewrite(e);
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("dangling-ptr")) << report.toString();
}

TEST(CheckClueTable, CandidateCountMismatchIsReported) {
  PortFixture f(lookup::Method::kBinary, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto e = f.entry(p4("10.0.0.0/8"));
  ASSERT_FALSE(e.ptr_empty);
  ASSERT_NE(e.cont.candidates, nullptr);
  e.cont.candidate_count += 1;
  f.rewrite(e);
  const auto report = f.validateHash();
  ASSERT_TRUE(report.has("candidate-count-mismatch")) << report.toString();
}

TEST(CheckClueTable, CorruptedCandidateSetIsReported) {
  PortFixture f(lookup::Method::kBinary, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto e = f.entry(p4("10.0.0.0/8"));
  ASSERT_FALSE(e.ptr_empty);
  // Rebuild the per-clue segment table over a candidate set with a wrong
  // next hop: the recomputed C1 set disagrees segment by segment.
  e.cont.candidates = std::make_shared<lookup::SegmentTable<A>>(
      lookup::SegmentTable<A>::build({Match{p4("10.128.0.0/9"), 77}},
                                     p4("10.0.0.0/8").rangeLow()));
  e.cont.candidate_count = 1;
  f.rewrite(e);
  const auto report = f.validateHash();
  EXPECT_TRUE(report.has("segment-match-mismatch")) << report.toString();
  EXPECT_TRUE(report.has("candidate-count-mismatch")) << report.toString();
}

TEST(CheckClueTable, BrokenProbeChainIsReported) {
  // Enough entries that open addressing displaces at least one of them;
  // invalidating the displaced entry's home slot severs its probe chain.
  Rng rng(23);
  const auto mine = testutil::randomTable4(rng, 300);
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple, mine,
                mine);
  const auto& table = f.port->hashTable();
  std::size_t displaced = table.bucketCount();
  for (std::size_t i = 0; i < table.bucketCount(); ++i) {
    const auto& s = table.slotAt(i);
    if (s.valid() && table.homeSlot(s.clue()) != i) {
      displaced = i;
      break;
    }
  }
  ASSERT_LT(displaced, table.bucketCount())
      << "table has no collisions; grow the test table";
  const std::size_t home = table.homeSlot(table.slotAt(displaced).clue());
  const_cast<core::ClueSlot<A>&>(table.slotAt(home)).flags = 0;
  const auto report = f.validateHash();
  EXPECT_TRUE(report.has("probe-chain-broken")) << report.toString();
  EXPECT_TRUE(report.has("size-mismatch")) << report.toString();
}

TEST(CheckClueTable, InactiveEntriesAreNotAnalyzed) {
  // §3.4 marking: a corrupt but inactive entry behaves as a miss, so the
  // validator must not flag it (it will be recomputed before reactivation).
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  auto e = f.entry(p4("10.0.0.0/8"));
  e.fd = Match{p4("10.0.0.0/8"), 99};
  e.active = false;
  f.rewrite(e);
  const auto report = f.validateHash();
  EXPECT_TRUE(report.ok()) << report.toString();
}

// Slot encoding: raw corruptions of the 16-byte slot that no ClueEntry
// write can produce.

TEST(CheckClueTable, FdLongerThanClueIsReported) {
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  f.rawSlot(p4("10.192.0.0/10")).fd_len = 20;
  const auto report = f.validateHash();
  EXPECT_TRUE(report.has("fd-longer-than-clue")) << report.toString();
}

TEST(CheckClueTable, Case3SlotWithoutContinuationIsReported) {
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  core::ClueSlot<A>& s = f.rawSlot(p4("10.0.0.0/8"));
  ASSERT_EQ(s.kase(), core::ClueCase::kSearch);
  s.cont = core::kNoContinuation;  // case bits and Ptr flag left behind
  const auto report = f.validateHash();
  EXPECT_TRUE(report.has("case3-cont-mismatch")) << report.toString();
  EXPECT_TRUE(report.has("ptr-flag-mismatch")) << report.toString();
}

TEST(CheckClueTable, ContinuationOnAFinalSlotIsReported) {
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  ASSERT_GE(f.port->hashTable().continuationSlots(), 1u);
  core::ClueSlot<A>& s = f.rawSlot(p4("192.168.0.0/16"));
  ASSERT_EQ(s.kase(), core::ClueCase::kFinal);
  s.cont = 0;  // another entry's continuation
  const auto report = f.validateHash();
  EXPECT_TRUE(report.has("case3-cont-mismatch")) << report.toString();
  EXPECT_TRUE(report.has("ptr-flag-mismatch")) << report.toString();
}

TEST(CheckClueTable, ContinuationIndexOutOfRangeIsReported) {
  PortFixture f(lookup::Method::kPatricia, lookup::ClueMode::kSimple,
                nestedTable(), nestedTable());
  const auto n =
      static_cast<std::uint32_t>(f.port->hashTable().continuationSlots());
  f.rawSlot(p4("10.0.0.0/8")).cont = n + 5;
  const auto report = f.validateHash();
  EXPECT_TRUE(report.has("cont-index-out-of-range")) << report.toString();
  EXPECT_FALSE(report.has("case3-cont-mismatch")) << report.toString();
}

TEST(CheckClueTable, IndexedTableValidatesCleanAndCatchesWrongFd) {
  Rng rng(29);
  const auto mine = testutil::randomTable4(rng, 100);
  lookup::LookupSuite<A> suite(mine);
  typename core::CluePort<A>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kSimple;
  opt.indexed = true;
  core::CluePort<A> port(suite, nullptr, opt);
  core::ClueIndexer<A> indexer;
  std::vector<ip::Prefix<A>> clues;
  for (const Match& e : mine) clues.push_back(e.prefix);
  port.precomputeIndexed(clues, indexer);

  auto clean = check::validate(port.indexedTable(), suite.binaryTrie(),
                               nullptr, &suite.patricia());
  EXPECT_TRUE(clean.ok()) << clean.toString();

  auto& table = const_cast<core::IndexedClueTable<A>&>(port.indexedTable());
  bool corrupted = false;
  for (std::size_t i = 0; i < table.capacity() && !corrupted; ++i) {
    if (!table.slotAt(i).valid()) continue;
    core::ClueEntry<A> e = table.decode(table.slotAt(i));
    e.fd = Match{e.clue, 12345};
    corrupted = table.put(static_cast<std::uint16_t>(i), std::move(e));
  }
  ASSERT_TRUE(corrupted);
  const auto report = check::validate(port.indexedTable(), suite.binaryTrie(),
                                      nullptr, &suite.patricia());
  ASSERT_TRUE(report.has("fd-mismatch")) << report.toString();

  // The slot-encoding checks run over the indexed table too.
  for (std::size_t i = 0; i < table.capacity(); ++i) {
    auto& s = const_cast<core::ClueSlot<A>&>(table.slotAt(i));
    if (!s.valid() || s.len >= A::kBits) continue;
    s.fd_len = static_cast<std::uint8_t>(s.len + 1);
    break;
  }
  const auto encoding = check::validate(port.indexedTable(),
                                        suite.binaryTrie(), nullptr,
                                        &suite.patricia());
  EXPECT_TRUE(encoding.has("fd-longer-than-clue")) << encoding.toString();
}

// ---------------------------------------------------------------------------
// Fib
// ---------------------------------------------------------------------------

TEST(CheckFib, ValidFibIsCleanAndConsistentWithItsTrie) {
  Rng rng(31);
  const auto entries = testutil::randomTable4(rng, 200);
  const rib::Fib<A> fib(entries);
  EXPECT_TRUE(check::validate(fib).ok());
  const auto report = check::validateConsistent(fib, fib.buildTrie());
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CheckFib, SentinelNextHopIsReported) {
  rib::Fib<A> fib;
  fib.add(p4("10.0.0.0/8"), kNoNextHop);
  const auto report = check::validate(fib);
  ASSERT_TRUE(report.has("no-route-next-hop")) << report.toString();
}

TEST(CheckFib, DuplicatePrefixIsReported) {
  rib::Fib<A> fib;
  fib.add(p4("10.0.0.0/8"), 1);
  fib.add(p4("20.0.0.0/8"), 2);
  // The public API refuses duplicates; forge one in place.
  const_cast<Match&>(fib.entries()[1]).prefix = p4("10.0.0.0/8");
  const auto report = check::validate(fib);
  ASSERT_TRUE(report.has("duplicate-prefix")) << report.toString();
}

TEST(CheckFib, TrieDriftIsReported) {
  rib::Fib<A> fib;
  fib.add(p4("10.0.0.0/8"), 1);
  fib.add(p4("20.0.0.0/8"), 2);
  Trie trie = fib.buildTrie();
  trie.insert(p4("30.0.0.0/8"), 3);   // trie-only route
  trie.erase(p4("20.0.0.0/8"));       // fib-only route
  const auto report = check::validateConsistent(fib, trie);
  EXPECT_TRUE(report.has("fib-trie-extra")) << report.toString();
  EXPECT_TRUE(report.has("fib-trie-missing")) << report.toString();
}

// ---------------------------------------------------------------------------
// SegmentTable
// ---------------------------------------------------------------------------

TEST(CheckSegmentTable, BuiltTableMatchesItsEntries) {
  Rng rng(37);
  const auto entries = testutil::randomTable4(rng, 150);
  const auto table = lookup::SegmentTable<A>::build(entries, A{});
  const auto report = check::validateAgainst<A>(table, entries, A{});
  EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CheckSegmentTable, CorruptedAnswerIsReported) {
  const auto entries = nestedTable();
  const auto table = lookup::SegmentTable<A>::build(entries, A{});
  auto segments = table.segments();
  // Flip the answer of the segment holding 10.192.0.0/10.
  for (const auto& s : segments) {
    if (s.has_match && s.match.prefix == p4("10.192.0.0/10")) {
      const_cast<Match&>(s.match).next_hop = 55;
    }
  }
  const auto report = check::validateAgainst<A>(table, entries, A{});
  ASSERT_TRUE(report.has("segment-match-mismatch")) << report.toString();
}

TEST(CheckSegmentTable, ReorderedSegmentsAreReported) {
  const auto entries = nestedTable();
  const auto table = lookup::SegmentTable<A>::build(entries, A{});
  auto segments = table.segments();
  ASSERT_GE(segments.size(), 2u);
  using Segment = lookup::SegmentTable<A>::Segment;
  std::swap(const_cast<Segment&>(segments[0]),
            const_cast<Segment&>(segments[1]));
  const auto report = check::validate(table);
  ASSERT_TRUE(report.has("unsorted-segments")) << report.toString();
}

TEST(CheckSegmentTable, MissingBoundaryIsReported) {
  // Build from a superset, then validate against a list with one extra
  // entry whose boundaries the table never materialised.
  const std::vector<Match> built = {Match{p4("10.0.0.0/8"), 1}};
  std::vector<Match> claimed = built;
  claimed.push_back(Match{p4("10.64.0.0/10"), 2});
  const auto table = lookup::SegmentTable<A>::build(built, A{});
  const auto report = check::validateAgainst<A>(table, claimed, A{});
  // Both of the phantom entry's boundaries are missing from the table.
  EXPECT_EQ(report.count("missing-boundary"), 2u) << report.toString();
}

}  // namespace
}  // namespace cluert
