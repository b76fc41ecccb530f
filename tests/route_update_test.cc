// Route-update dynamics: incremental trie maintenance, suite refresh, clue
// table recomputation, the §3.4 inactive-entry marking, and the
// RouteUpdater's cross-queue publication ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/distributed_lookup.h"
#include "rib/route_updater.h"
#include "rib/versioned_tables.h"
#include "test_util.h"

namespace cluert {
namespace {

using testutil::a4;
using testutil::announce;
using testutil::p4;
using testutil::withdraw;
using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;
using core::ClueField;
using core::CluePort;
using lookup::ClueMode;
using lookup::LookupSuite;
using lookup::Method;

// ---------------------------------------------------------------------------
// Patricia erase
// ---------------------------------------------------------------------------

TEST(PatriciaErase, RemoveLeafAndSpliceUnaryParent) {
  trie::PatriciaTrie4 t;
  t.insert(p4("10.1.2.0/24"), 1);
  t.insert(p4("10.1.3.0/24"), 2);
  // Root -> fork(/23) -> two leaves. Erasing one leaf must splice the fork.
  EXPECT_TRUE(t.erase(p4("10.1.2.0/24")));
  EXPECT_EQ(t.prefixCount(), 1u);
  EXPECT_FALSE(t.contains(p4("10.1.2.0/24")));
  EXPECT_TRUE(t.contains(p4("10.1.3.0/24")));
  // Invariant: no unmarked unary nodes.
  t.forEachNode([](const trie::PatriciaTrie4::Node& n) {
    const int kids = (n.child[0] ? 1 : 0) + (n.child[1] ? 1 : 0);
    if (n.prefix.length() > 0) {
      EXPECT_TRUE(n.marked || kids == 2) << n.prefix.toString();
    }
  });
  mem::AccessCounter acc;
  EXPECT_FALSE(t.lookup(a4("10.1.2.9"), acc).has_value());
  EXPECT_EQ(t.lookup(a4("10.1.3.9"), acc)->next_hop, 2u);
}

TEST(PatriciaErase, UnmarkInternalNodeWithTwoChildrenKeepsFork) {
  trie::PatriciaTrie4 t;
  t.insert(p4("10.0.0.0/8"), 1);
  t.insert(p4("10.1.2.0/24"), 2);
  t.insert(p4("10.128.0.0/9"), 3);
  EXPECT_TRUE(t.erase(p4("10.0.0.0/8")));
  mem::AccessCounter acc;
  EXPECT_EQ(t.lookup(a4("10.1.2.5"), acc)->next_hop, 2u);
  EXPECT_EQ(t.lookup(a4("10.200.0.1"), acc)->next_hop, 3u);
  EXPECT_FALSE(t.lookup(a4("10.64.0.1"), acc).has_value());
}

TEST(PatriciaErase, EraseAbsentReturnsFalse) {
  trie::PatriciaTrie4 t;
  t.insert(p4("10.0.0.0/8"), 1);
  EXPECT_FALSE(t.erase(p4("11.0.0.0/8")));
  EXPECT_FALSE(t.erase(p4("10.0.0.0/9")));
  EXPECT_TRUE(t.erase(p4("10.0.0.0/8")));
  EXPECT_FALSE(t.erase(p4("10.0.0.0/8")));
  EXPECT_EQ(t.prefixCount(), 0u);
}

TEST(PatriciaErase, RandomChurnStaysEquivalentToBinaryTrie) {
  Rng rng(1212);
  const auto entries = testutil::randomTable4(rng, 300);
  trie::BinaryTrie4 bt;
  trie::PatriciaTrie4 pt;
  for (const auto& e : entries) {
    bt.insert(e.prefix, e.next_hop);
    pt.insert(e.prefix, e.next_hop);
  }
  // Erase half, reinsert a quarter, interleaved.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_EQ(bt.erase(entries[i].prefix), pt.erase(entries[i].prefix));
    }
    if (i % 4 == 0) {
      bt.insert(entries[i].prefix, 99);
      pt.insert(entries[i].prefix, 99);
    }
  }
  mem::AccessCounter acc;
  for (int i = 0; i < 500; ++i) {
    const auto dest = testutil::coveredAddress<A>(entries, rng,
                                                  testutil::randomAddr4);
    const auto b = bt.lookup(dest, acc);
    const auto p = pt.lookup(dest, acc);
    ASSERT_EQ(b.has_value(), p.has_value()) << dest.toString();
    if (b) {
      EXPECT_EQ(b->prefix, p->prefix);
      EXPECT_EQ(b->next_hop, p->next_hop);
    }
  }
}

// ---------------------------------------------------------------------------
// LookupSuite route updates
// ---------------------------------------------------------------------------

TEST(SuiteUpdate, AllEnginesSeeInsertedAndErasedRoutes) {
  Rng rng(77);
  auto entries = testutil::randomTable4(rng, 200);
  LookupSuite<A> suite(entries);
  // Insert a handful of routes, erase a handful, then check every engine
  // against brute force.
  std::vector<MatchT> current = entries;
  for (int i = 0; i < 10; ++i) {
    const auto fresh = ip::Prefix4(testutil::randomAddr4(rng), 20 + i);
    suite.applyRouteDelta(announce(fresh, 1000 + i));
    bool replaced = false;
    for (auto& e : current) {
      if (e.prefix == fresh) {
        e.next_hop = 1000 + i;
        replaced = true;
      }
    }
    if (!replaced) current.push_back(MatchT{fresh, static_cast<NextHop>(1000 + i)});
  }
  for (int i = 0; i < 10; ++i) {
    const auto& victim = current[static_cast<std::size_t>(i) * 7].prefix;
    suite.applyRouteDelta(withdraw(victim));
    current.erase(std::remove_if(current.begin(), current.end(),
                                 [&](const MatchT& e) {
                                   return e.prefix == victim;
                                 }),
                  current.end());
  }
  mem::AccessCounter acc;
  for (int i = 0; i < 400; ++i) {
    const auto dest = testutil::coveredAddress<A>(current, rng,
                                                  testutil::randomAddr4);
    const auto expect = testutil::bruteForceBmp(current, dest);
    for (const auto m : lookup::kAllMethods) {
      const auto got = suite.engine(m).lookup(dest, acc);
      ASSERT_EQ(expect.has_value(), got.has_value())
          << lookup::methodName(m) << " " << dest.toString();
      if (expect) {
        EXPECT_EQ(expect->prefix, got->prefix);
        EXPECT_EQ(expect->next_hop, got->next_hop);
      }
    }
  }
}

TEST(SuiteUpdate, AnnotationsAreReplayedAfterUpdates) {
  trie::BinaryTrie4 t1;
  t1.insert(p4("10.1.0.0/16"), 1);
  LookupSuite<A> suite({MatchT{p4("10.0.0.0/8"), 1}});
  suite.annotateNeighbor(0, t1);
  // Adding a /24 under t1's /16 keeps Claim 1 intact at the /8 vertex (the
  // /16 still blocks the branch) — only if the annotation was replayed.
  suite.applyRouteDelta(announce(p4("10.1.2.0/24"), 2));
  const auto* v = suite.binaryTrie().findVertex(p4("10.0.0.0/8"));
  ASSERT_NE(v, nullptr);
  EXPECT_FALSE(trie::BinaryTrie4::continueBit(v, 0));
  // Adding a /24 outside the /16 re-opens the search.
  suite.applyRouteDelta(announce(p4("10.3.3.0/24"), 3));
  EXPECT_TRUE(trie::BinaryTrie4::continueBit(
      suite.binaryTrie().findVertex(p4("10.0.0.0/8")), 0));
}

// ---------------------------------------------------------------------------
// CluePort maintenance
// ---------------------------------------------------------------------------

struct UpdateFixture {
  std::vector<MatchT> sender;
  std::vector<MatchT> receiver;
  trie::BinaryTrie<A> t1;
  std::unique_ptr<LookupSuite<A>> suite;
  std::unique_ptr<CluePort<A>> port;

  explicit UpdateFixture(std::uint64_t seed, Method method = Method::kPatricia,
                         ClueMode mode = ClueMode::kAdvance) {
    Rng rng(seed);
    sender = testutil::randomTable4(rng, 150);
    receiver = testutil::neighborOf(sender, rng, 0.8, 25, 0.5);
    for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
    suite = std::make_unique<LookupSuite<A>>(receiver);
    typename CluePort<A>::Options opt;
    opt.method = method;
    opt.mode = mode;
    port = std::make_unique<CluePort<A>>(*suite, &t1, opt);
    std::vector<ip::Prefix4> clues;
    for (const auto& e : sender) clues.push_back(e.prefix);
    port->precompute(clues);
  }

  void applyLocal(const rib::FibDelta4& d) {
    suite->applyRouteDelta(d);
    port->onLocalDelta(d);
  }

  void applyNeighbor(const rib::FibDelta4& d) {
    rib::applyDelta(t1, d);
    port->onNeighborDelta(d);
  }

  void checkTransparency(Rng& rng, int samples) {
    mem::AccessCounter scratch;
    for (int i = 0; i < samples; ++i) {
      const auto dest = testutil::coveredAddress<A>(sender, rng,
                                                    testutil::randomAddr4);
      const auto bmp = t1.lookup(dest, scratch);
      const auto field = bmp ? ClueField::of(bmp->prefix.length())
                             : ClueField::none();
      mem::AccessCounter acc;
      const auto r = port->process(dest, field, acc);
      const auto expect = testutil::bruteForceBmp(receiver, dest);
      ASSERT_EQ(expect.has_value(), r.match.has_value())
          << dest.toString();
      if (expect) ASSERT_EQ(expect->prefix, r.match->prefix);
    }
  }
};

TEST(CluePortUpdate, LocalInsertIsReflectedAfterRefresh) {
  UpdateFixture fx(9001);
  Rng rng(1);
  // Insert a more-specific under an existing receiver route.
  const auto parent = fx.receiver[rng.index(fx.receiver.size())].prefix;
  if (parent.length() >= 30) GTEST_SKIP();
  ip::Ip4Addr addr = parent.addr();
  for (int b = parent.length(); b < parent.length() + 2; ++b) {
    addr = addr.withBit(b, 1);
  }
  const ip::Prefix4 fresh(addr, parent.length() + 2);
  fx.applyLocal(announce(fresh, 777));
  bool replaced = false;
  for (auto& e : fx.receiver) {
    if (e.prefix == fresh) {
      e.next_hop = 777;
      replaced = true;
    }
  }
  if (!replaced) fx.receiver.push_back(MatchT{fresh, 777});
  fx.checkTransparency(rng, 300);
}

TEST(CluePortUpdate, LocalEraseIsReflectedAfterRefresh) {
  UpdateFixture fx(9002);
  Rng rng(2);
  for (int round = 0; round < 8; ++round) {
    const std::size_t victim_i = rng.index(fx.receiver.size());
    const auto victim = fx.receiver[victim_i].prefix;
    fx.applyLocal(withdraw(victim));
    fx.receiver.erase(fx.receiver.begin() +
                      static_cast<std::ptrdiff_t>(victim_i));
    fx.checkTransparency(rng, 100);
  }
}

TEST(CluePortUpdate, NeighborChangeIsReflectedAfterRefresh) {
  UpdateFixture fx(9003);
  Rng rng(3);
  // The sender withdraws some prefixes: Claim 1 may newly fail for clues it
  // used to protect — entries must be recomputed for correctness of the
  // *shape* (transparency holds regardless because the clue is genuine).
  for (int round = 0; round < 5; ++round) {
    const std::size_t victim_i = rng.index(fx.sender.size());
    const auto victim = fx.sender[victim_i].prefix;
    fx.applyNeighbor(withdraw(victim));
    fx.sender.erase(fx.sender.begin() +
                    static_cast<std::ptrdiff_t>(victim_i));
    fx.checkTransparency(rng, 100);
  }
}

TEST(CluePortUpdate, ChurnAcrossMethodsStaysTransparent) {
  for (const auto method :
       {Method::kRegular, Method::kBinary, Method::kLogW}) {
    UpdateFixture fx(9004, method);
    Rng rng(4);
    for (int round = 0; round < 4; ++round) {
      // Alternate inserts and erases on the receiver.
      if (round % 2 == 0 && !fx.receiver.empty()) {
        const std::size_t i = rng.index(fx.receiver.size());
        const auto victim = fx.receiver[i].prefix;
        fx.applyLocal(withdraw(victim));
        fx.receiver.erase(fx.receiver.begin() +
                          static_cast<std::ptrdiff_t>(i));
      } else {
        const ip::Prefix4 fresh(testutil::randomAddr4(rng), 22);
        fx.applyLocal(announce(fresh, 555));
        bool replaced = false;
        for (auto& e : fx.receiver) {
          if (e.prefix == fresh) {
            e.next_hop = 555;
            replaced = true;
          }
        }
        if (!replaced) fx.receiver.push_back(MatchT{fresh, 555});
      }
      fx.checkTransparency(rng, 80);
    }
  }
}

TEST(CluePortUpdate, InactiveEntryBehavesAsMissThenRelearns) {
  UpdateFixture fx(9005);
  // Find a clue that exists in the table.
  const auto clue = fx.sender.front().prefix;
  ASSERT_TRUE(fx.port->invalidateClue(clue));
  // A packet carrying the inactive clue takes the miss path (full lookup,
  // still correct) and relearns the entry.
  Rng rng(5);
  ip::Ip4Addr dest = clue.addr();
  for (int b = clue.length(); b < 32; ++b) {
    dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
  }
  mem::AccessCounter scratch;
  const auto bmp = fx.t1.lookup(dest, scratch);
  if (!bmp || bmp->prefix != clue) GTEST_SKIP();  // extension captured it
  mem::AccessCounter acc;
  const auto r = fx.port->process(dest, ClueField::of(clue.length()), acc);
  EXPECT_FALSE(r.table_hit);
  const auto expect = testutil::bruteForceBmp(fx.receiver, dest);
  ASSERT_EQ(expect.has_value(), r.match.has_value());
  // Learned again: next packet hits.
  mem::AccessCounter acc2;
  const auto r2 = fx.port->process(dest, ClueField::of(clue.length()), acc2);
  EXPECT_TRUE(r2.table_hit);
}

TEST(CluePortUpdate, ReactivateRecomputesEntry) {
  UpdateFixture fx(9006);
  const auto clue = fx.sender.front().prefix;
  ASSERT_TRUE(fx.port->invalidateClue(clue));
  ASSERT_TRUE(fx.port->reactivateClue(clue));
  Rng rng(6);
  fx.checkTransparency(rng, 100);
}

// §3.4 marking reaches the indexed table: a packet carrying an invalidated
// clue's index takes the miss path (and still gets the right BMP) instead of
// being answered from the indexed slot; reactivating brings the hit back.
TEST(CluePortUpdate, MarkingReachesTheIndexedTable) {
  Rng rng(9007);
  const auto sender = testutil::randomTable4(rng, 150);
  const auto receiver = testutil::neighborOf(sender, rng, 0.8, 25, 0.5);
  trie::BinaryTrie<A> t1;
  for (const auto& e : sender) t1.insert(e.prefix, e.next_hop);
  LookupSuite<A> suite(receiver);
  typename CluePort<A>::Options opt;
  opt.mode = ClueMode::kAdvance;
  opt.indexed = true;
  opt.learn = false;  // a miss must not quietly re-install the entry
  CluePort<A> port(suite, &t1, opt);
  core::ClueIndexer<A> indexer;
  std::vector<ip::Prefix4> clues;
  for (const auto& e : sender) clues.push_back(e.prefix);
  port.precomputeIndexed(clues, indexer);

  // A destination whose genuine clue is a sender prefix itself.
  mem::AccessCounter scratch;
  std::optional<ip::Prefix4> clue;
  ip::Ip4Addr dest;
  for (int tries = 0; tries < 100 && !clue; ++tries) {
    dest = testutil::coveredAddress<A>(sender, rng, testutil::randomAddr4);
    if (const auto bmp = t1.lookup(dest, scratch)) clue = bmp->prefix;
  }
  ASSERT_TRUE(clue.has_value());
  const auto index = indexer.indexOf(*clue);
  ASSERT_TRUE(index.has_value());
  const ClueField field = ClueField::indexed(clue->length(), *index);
  const auto expect = testutil::bruteForceBmp(receiver, dest);
  const auto expectMatch = [&](const CluePort<A>::Result& r) {
    ASSERT_EQ(expect.has_value(), r.match.has_value());
    if (expect) EXPECT_EQ(expect->prefix, r.match->prefix);
  };

  mem::AccessCounter acc;
  const auto before = port.process(dest, field, acc);
  ASSERT_TRUE(before.table_hit);
  expectMatch(before);

  ASSERT_TRUE(port.invalidateClue(*clue));
  const auto inactive = port.process(dest, field, acc);
  EXPECT_FALSE(inactive.table_hit) << "inactive indexed slot was served";
  EXPECT_EQ(inactive.outcome, obs::Outcome::kMiss);
  expectMatch(inactive);

  ASSERT_TRUE(port.reactivateClue(*clue));
  const auto after = port.process(dest, field, acc);
  EXPECT_TRUE(after.table_hit);
  expectMatch(after);
}

// ---------------------------------------------------------------------------
// One maintenance rule: an in-place port and the versioned tables agree
// ---------------------------------------------------------------------------

// One entry in a form comparable across two suites: continuation anchors
// are named by the prefix they stand for (each suite owns its own nodes),
// everything else by value.
std::string describeEntry(const core::ClueEntry<A>& e) {
  std::string s = e.clue.toString();
  s += e.active ? " active" : " inactive";
  s += " fd=" + (e.fd ? e.fd->prefix.toString() + "->" +
                            std::to_string(e.fd->next_hop)
                      : std::string("-"));
  s += " case=" + std::to_string(static_cast<int>(e.kase));
  s += e.claim1_pruned ? " claim1" : "";
  if (e.ptr_empty) return s + " ptr=-";
  const lookup::Continuation<A>& c = e.cont;
  s += " cont{" + c.clue.toString();
  s += " trie=" + (c.trie_anchor != nullptr ? c.trie_anchor->prefix.toString()
                                            : std::string("-"));
  s += " patricia=" + (c.patricia_anchor != nullptr
                           ? c.patricia_anchor->prefix.toString()
                           : std::string("-"));
  s += " candidates=" + std::to_string(c.candidate_count) +
       (c.candidates != nullptr ? "+" : "-");
  s += " max_len=" + std::to_string(c.max_len);
  s += " stride=" + std::to_string(c.stride_depth) +
       (c.stride_anchor != nullptr ? "+" : "-") + "}";
  return s;
}

std::unordered_map<ip::Prefix4, std::string> decodeByClue(
    const core::HashClueTable<A>& table) {
  std::unordered_map<ip::Prefix4, std::string> out;
  table.forEach([&](const core::ClueEntry<A>& e) {
    out.emplace(e.clue, describeEntry(e));
  });
  return out;
}

// Every continuation must anchor the *current* nodes of its own suite: an
// anchor the last engine rebuild freed is a use-after-free waiting for a
// packet (the kStride rule).
void expectFreshAnchors(const core::HashClueTable<A>& table,
                        const LookupSuite<A>& suite,
                        const trie::BinaryTrie<A>* t1, Method method,
                        ClueMode mode, const std::string& where) {
  table.forEach([&](const core::ClueEntry<A>& e) {
    if (e.ptr_empty) return;
    const auto fresh = core::buildClueEntry(suite, t1, method, mode, e.clue);
    EXPECT_EQ(e.cont.trie_anchor, fresh.cont.trie_anchor)
        << where << " " << e.clue.toString();
    EXPECT_EQ(e.cont.patricia_anchor, fresh.cont.patricia_anchor)
        << where << " " << e.clue.toString();
    EXPECT_EQ(e.cont.stride_anchor, fresh.cont.stride_anchor)
        << where << " stale stride anchor for " << e.clue.toString();
  });
}

// A delta over `cur`: withdraws ~6% of its routes (remembered in
// `withdrawn`), reroutes ~4%, announces four new routes — nested under an
// existing one, so clue entries are related to them — and re-announces up
// to two routes withdrawn earlier (an inactive clue coming back).
rib::FibDelta4 churnDelta(const rib::Fib4& cur, std::vector<MatchT>& withdrawn,
                          Rng& rng) {
  std::vector<MatchT> next;
  for (const auto& e : cur.entries()) {
    const std::uint64_t roll = rng.uniform(0, 99);
    if (roll < 6) {
      withdrawn.push_back(e);
    } else {
      next.push_back(roll < 10 ? MatchT{e.prefix, e.next_hop + 100} : e);
    }
  }
  const auto entries = cur.entries();
  for (int i = 0; i < 4; ++i) {
    const ip::Prefix4 parent = entries[rng.index(entries.size())].prefix;
    const int len = std::min(32, parent.length() + 1 +
                                     static_cast<int>(rng.uniform(0, 3)));
    ip::Ip4Addr addr = parent.addr();
    for (int b = parent.length(); b < len; ++b) {
      addr = addr.withBit(b, static_cast<unsigned>(rng.u32() & 1));
    }
    next.push_back(MatchT{ip::Prefix4(addr, len),
                          static_cast<NextHop>(900 + i)});
  }
  for (int i = 0; i < 2 && !withdrawn.empty(); ++i) {
    next.push_back(withdrawn.front());
    withdrawn.erase(withdrawn.begin());
  }
  return rib::diff(cur, rib::Fib4(std::move(next)));
}

// The same local and neighbor deltas, fed to a precomputed in-place port and
// to a VersionedTables that never falls back to a full rebuild (so inactive
// slots are kept), must leave identical clue tables behind: same clues, same
// §3.4 marking, FD, case, Claim-1 attribution and continuation — for every
// method, kStride included, under Simple and Advance. Both tables must also
// validate clean and anchor only live nodes of their own suite.
TEST(CluePortUpdate, InPlacePortEqualsVersionedTables) {
  for (const Method method : lookup::kExtendedMethods) {
    for (const ClueMode mode : {ClueMode::kSimple, ClueMode::kAdvance}) {
      const std::string config = std::string(lookup::methodName(method)) +
                                 "/" +
                                 std::string(lookup::clueModeName(mode));
      SCOPED_TRACE(config);
      Rng rng(9100 + static_cast<std::uint64_t>(method));
      const auto sender = testutil::randomTable4(rng, 150);
      const auto receiver = testutil::neighborOf(sender, rng, 0.8, 25, 0.5);
      rib::Fib4 send{std::vector<MatchT>(sender)};
      rib::Fib4 recv{std::vector<MatchT>(receiver)};

      rib::VersionedTables4::Options vopt;
      vopt.method = method;
      vopt.mode = mode;
      vopt.full_rebuild_fraction = 1e9;
      rib::VersionedTables4 vt(recv, send, vopt);

      const bool advance = mode == ClueMode::kAdvance;
      trie::BinaryTrie<A> t1 = send.buildTrie();
      lookup::SuiteOptions sopt;
      sopt.methods = lookup::methodBit(method);
      LookupSuite<A> suite(receiver, sopt);
      typename CluePort<A>::Options popt;
      popt.method = method;
      popt.mode = mode;
      popt.expected_clues = sender.size() + 16;
      CluePort<A> port(suite, advance ? &t1 : nullptr, popt);
      port.precompute(send.prefixes());

      std::vector<MatchT> recv_withdrawn, send_withdrawn;
      std::size_t inactive_seen = 0;
      for (int step = 0; step < 8; ++step) {
        const bool neighbor = step % 2 == 1;
        const std::string where = config + " step " + std::to_string(step);
        if (neighbor) {
          const auto d = churnDelta(send, send_withdrawn, rng);
          rib::applyDelta(send, d);
          rib::applyDelta(t1, d);
          port.onNeighborDelta(d);
          vt.publishNeighbor(d);
        } else {
          const auto d = churnDelta(recv, recv_withdrawn, rng);
          rib::applyDelta(recv, d);
          suite.applyRouteDelta(d);
          port.onLocalDelta(d);
          vt.publishLocal(d);
        }
        const rib::TableVersion<A>& v = vt.liveVersion();
        const auto in_place = decodeByClue(port.hashTable());
        const auto versioned = decodeByClue(v.clues);
        ASSERT_EQ(in_place.size(), versioned.size()) << where;
        for (const auto& [clue, entry] : in_place) {
          const auto it = versioned.find(clue);
          ASSERT_NE(it, versioned.end()) << where << " " << clue.toString();
          EXPECT_EQ(entry, it->second) << where;
          if (entry.find(" inactive") != std::string::npos) ++inactive_seen;
        }
        const trie::BinaryTrie<A>* port_t1 = advance ? &t1 : nullptr;
        const trie::BinaryTrie<A>* version_t1 =
            advance ? &v.neighbor_trie : nullptr;
        const check::Report port_report = check::validate(
            port.hashTable(), suite.binaryTrie(), port_t1, &suite.patricia());
        EXPECT_TRUE(port_report.ok()) << where << port_report.toString();
        const check::Report version_report =
            check::validate(v.clues, v.suite->binaryTrie(), version_t1,
                            &v.suite->patricia());
        EXPECT_TRUE(version_report.ok()) << where << version_report.toString();
        expectFreshAnchors(port.hashTable(), suite, port_t1, method, mode,
                           where + " in-place");
        expectFreshAnchors(v.clues, *v.suite, version_t1, method, mode,
                           where + " versioned");
      }
      EXPECT_GT(inactive_seen, 0u) << "no withdrawn clue was ever kept";
      EXPECT_EQ(vt.fullRebuilds(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// RouteUpdater queue ordering
// ---------------------------------------------------------------------------

// Two producers race local and neighbor deltas into the same updater while
// every publish is observed from the on_publish hook. The queue is one FIFO,
// so each producer's deltas must land in its own enqueue order regardless of
// how the interleaving shook out — a marker prefix per queue steps its next
// hop by exactly one per delta, and any reorder (or lost/duplicated publish)
// shows up as a skip or a decrease in the observed sequence.
//
// The hook runs on the updater thread and the vector is only read after
// stop() joins it, so the test is TSan-clean by construction — which is the
// point: it rides in the sanitizer gate (run_sanitizers.sh filters on
// RouteUpdater.*) to catch publication racing the queue hand-off.
TEST(RouteUpdater, InterleavedQueuesPreservePerSourceOrder) {
  constexpr NextHop kLocalBase = 100;
  constexpr NextHop kNeighborBase = 500;
  constexpr int kUpdates = 64;
  const auto local_marker = p4("10.0.0.0/8");
  const auto neighbor_marker = p4("30.0.0.0/8");

  rib::Fib<A> local({MatchT{local_marker, kLocalBase},
                     MatchT{p4("20.0.0.0/8"), 1}});
  rib::Fib<A> neighbor({MatchT{neighbor_marker, kNeighborBase},
                        MatchT{p4("20.0.0.0/8"), 1}});

  struct Observed {
    NextHop local;
    NextHop neighbor;
  };
  std::vector<Observed> seen;  // updater thread only; read after stop()

  rib::VersionedTables4::Options opt;
  opt.mode = ClueMode::kAdvance;
  opt.validate_retired = true;
  opt.on_publish = [&](const rib::TableVersion<A>& v) {
    Observed o{0, 0};
    for (const auto& e : v.local.entries()) {
      if (e.prefix == local_marker) o.local = e.next_hop;
    }
    for (const auto& e : v.neighbor.entries()) {
      if (e.prefix == neighbor_marker) o.neighbor = e.next_hop;
    }
    seen.push_back(o);
  };
  rib::VersionedTables4 tables(local, neighbor, opt);
  rib::RouteUpdater<A> updater(tables);

  std::thread local_producer([&] {
    for (int i = 1; i <= kUpdates; ++i) {
      rib::FibDelta<A> d;
      d.rerouted.push_back(MatchT{local_marker, kLocalBase + i});
      updater.enqueueLocal(std::move(d));
    }
  });
  std::thread neighbor_producer([&] {
    for (int i = 1; i <= kUpdates; ++i) {
      rib::FibDelta<A> d;
      d.rerouted.push_back(MatchT{neighbor_marker, kNeighborBase + i});
      updater.enqueueNeighbor(std::move(d));
    }
  });
  local_producer.join();
  neighbor_producer.join();
  updater.flush();
  updater.stop();

  ASSERT_EQ(seen.size(), static_cast<std::size_t>(2 * kUpdates));
  EXPECT_EQ(updater.published(), static_cast<std::uint64_t>(2 * kUpdates));
  NextHop prev_local = kLocalBase;
  NextHop prev_neighbor = kNeighborBase;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    // Per-source order: each marker either holds (the other queue published)
    // or advances by exactly one (its next delta in enqueue order).
    EXPECT_TRUE(seen[i].local == prev_local ||
                seen[i].local == prev_local + 1)
        << "publish " << i << ": local marker jumped " << prev_local << " -> "
        << seen[i].local;
    EXPECT_TRUE(seen[i].neighbor == prev_neighbor ||
                seen[i].neighbor == prev_neighbor + 1)
        << "publish " << i << ": neighbor marker jumped " << prev_neighbor
        << " -> " << seen[i].neighbor;
    prev_local = seen[i].local;
    prev_neighbor = seen[i].neighbor;
  }
  EXPECT_EQ(prev_local, kLocalBase + kUpdates);
  EXPECT_EQ(prev_neighbor, kNeighborBase + kUpdates);
  EXPECT_EQ(tables.liveVersion().seq, 1u + 2 * kUpdates);
}

// flush() is the "is the new table live yet" barrier: after it returns,
// every delta enqueued before the call is visible in the live version even
// while the updater keeps running (stop() not yet called).
TEST(RouteUpdater, FlushPublishesEverythingEnqueuedBefore) {
  const auto marker = p4("10.0.0.0/8");
  rib::Fib<A> local({MatchT{marker, 0}});
  rib::Fib<A> neighbor({MatchT{p4("20.0.0.0/8"), 1}});
  rib::VersionedTables4::Options opt;
  opt.validate_retired = true;
  rib::VersionedTables4 tables(local, neighbor, opt);
  rib::RouteUpdater<A> updater(tables);

  for (int round = 1; round <= 8; ++round) {
    rib::FibDelta<A> d;
    d.rerouted.push_back(MatchT{marker, static_cast<NextHop>(round)});
    updater.enqueueLocal(std::move(d));
    updater.flush();
    NextHop live = 0;
    for (const auto& e : tables.liveVersion().local.entries()) {
      if (e.prefix == marker) live = e.next_hop;
    }
    EXPECT_EQ(live, static_cast<NextHop>(round)) << "round " << round;
    EXPECT_EQ(updater.published(), static_cast<std::uint64_t>(round));
  }
  updater.stop();
}

}  // namespace
}  // namespace cluert
