// Differential test of CluePort::processBatch: at every batch size it must
// equal per-packet process() — results, Stats, §3.5 cache stats and the
// per-region access charges — and both must equal the brute-force BMP.
// The packet stream covers every outcome of Figure 5: no clue, a length
// beyond W, misses (with and without learning), §3.4-inactive entries,
// case 1, case 2 via Claim 1, and case 3 both found and failed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/distributed_lookup.h"
#include "test_util.h"

namespace cluert::core {
namespace {

using lookup::ClueMode;
using lookup::Method;

constexpr std::size_t kBatchSizes[] = {1, 7, 32, 64, 65, 130};

template <typename A>
struct Packet {
  A dest;
  ClueField field;
};

// One router pair plus a seeded packet stream over it.
template <typename A>
struct World {
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  std::vector<MatchT> sender;
  std::vector<MatchT> receiver;
  trie::BinaryTrie<A> t1;
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  std::vector<PrefixT> clues;       // every clue the sender may send
  std::vector<PrefixT> precomputed; // the part installed up front
  std::vector<PrefixT> inactive;    // precomputed, then §3.4-invalidated
  std::vector<Packet<A>> packets;

  template <typename Gen, typename Draw>
  World(std::uint64_t seed, Gen gen, Draw draw) {
    Rng rng(seed);
    sender = gen(rng, 300);
    receiver = testutil::neighborOf(sender, rng, 0.8, 40, 0.5);
    for (const MatchT& e : sender) {
      t1.insert(e.prefix, e.next_hop);
      clues.push_back(e.prefix);
    }
    lookup::SuiteOptions so;
    so.methods = lookup::methodBit(Method::kPatricia);
    suite = std::make_unique<lookup::LookupSuite<A>>(receiver, so);
    // Half the clues are unknown until learned; a few known ones go
    // inactive.
    for (std::size_t i = 0; i < clues.size(); ++i) {
      if (i % 2 == 0) precomputed.push_back(clues[i]);
    }
    for (std::size_t i = 0; i < precomputed.size(); i += 15) {
      inactive.push_back(precomputed[i]);
    }
    for (int i = 0; i < 2400; ++i) {
      const A dest = testutil::coveredAddress(sender, rng, draw);
      Packet<A> p{dest, ClueField::none()};
      const double kind = rng.real();
      if (kind < 0.04) {
        // no clue
      } else if (kind < 0.07) {
        p.field.present = true;  // a length no address has
        p.field.length = static_cast<std::uint8_t>(A::kBits + 1);
      } else if (const auto bmp = testutil::bruteForceBmp(sender, dest)) {
        // The genuine clue (the sender's BMP); Advance relies on it.
        p.field = ClueField::of(bmp->prefix.length());
      }
      packets.push_back(p);
    }
  }

  std::optional<MatchT> oracle(const A& dest) const {
    return testutil::bruteForceBmp(receiver, dest);
  }
};

struct Config {
  ClueMode mode;
  bool indexed;
  bool learn;
  std::size_t cache_entries;

  std::string name() const {
    return std::string(mode == ClueMode::kAdvance ? "Advance" : "Simple") +
           (indexed ? "/indexed" : "/hash") + (learn ? "/learn" : "/nolearn") +
           (cache_entries > 0 ? "/cache" : "/nocache");
  }
};

template <typename A>
std::unique_ptr<CluePort<A>> makePort(World<A>& w, const Config& c,
                                      ClueIndexer<A>& indexer) {
  typename CluePort<A>::Options o;
  o.method = Method::kPatricia;
  o.mode = c.mode;
  o.indexed = c.indexed;
  o.learn = c.learn;
  o.expected_clues = 16;  // small, so learning grows the table mid-batch
  o.cache_entries = c.cache_entries;
  auto port = std::make_unique<CluePort<A>>(*w.suite, &w.t1, o);
  port->precompute(w.precomputed);
  if (c.indexed) port->precomputeIndexed(w.precomputed, indexer);
  for (const auto& clue : w.inactive) {
    EXPECT_TRUE(port->invalidateClue(clue));
  }
  return port;
}

// Indexed configs send every other clue-carrying packet with its index
// (the rest take the hash path); one in 16 indexed packets names a stale
// index, which the stored-clue check turns into a miss.
template <typename A>
std::vector<Packet<A>> withIndices(const World<A>& w, ClueIndexer<A>& indexer) {
  std::vector<Packet<A>> out = w.packets;
  for (std::size_t i = 0; i < out.size(); ++i) {
    ClueField& f = out[i].field;
    if (!f.present || f.length > A::kBits || i % 2 != 0) continue;
    const auto idx = indexer.indexOf(ip::Prefix<A>(out[i].dest, f.length));
    if (!idx) continue;
    const std::uint16_t stale = static_cast<std::uint16_t>(*idx + 1);
    f.index = i % 32 == 0 ? stale : *idx;
  }
  return out;
}

// Outcomes seen across a run, for the coverage assertions.
struct Seen {
  std::array<std::size_t, obs::kOutcomeCount> outcome{};
  std::size_t claim1 = 0;
  std::size_t case3_found = 0;
  std::size_t case3_failed = 0;
  std::size_t inactive_misses = 0;
};

template <typename A>
void expectSameResult(const typename CluePort<A>::Result& batch,
                      const typename CluePort<A>::Result& single,
                      std::size_t i) {
  EXPECT_EQ(batch.match, single.match) << "packet " << i;
  EXPECT_EQ(batch.table_hit, single.table_hit) << "packet " << i;
  EXPECT_EQ(batch.used_fd, single.used_fd) << "packet " << i;
  EXPECT_EQ(batch.searched, single.searched) << "packet " << i;
  EXPECT_EQ(batch.outcome, single.outcome) << "packet " << i;
  EXPECT_EQ(batch.claim1_skip, single.claim1_skip) << "packet " << i;
  EXPECT_EQ(batch.search_failed, single.search_failed) << "packet " << i;
}

template <typename A>
void runConfig(World<A>& w, const Config& c, std::size_t batch, Seen& seen) {
  SCOPED_TRACE(c.name() + " batch " + std::to_string(batch));
  ClueIndexer<A> idx_batch, idx_single;
  auto pb = makePort(w, c, idx_batch);
  auto ps = makePort(w, c, idx_single);
  const std::vector<Packet<A>> packets =
      c.indexed ? withIndices(w, idx_batch) : w.packets;
  const std::size_t buckets_before = pb->hashTable().bucketCount();

  std::vector<A> dests;
  std::vector<ClueField> fields;
  for (const auto& p : packets) {
    dests.push_back(p.dest);
    fields.push_back(p.field);
  }
  std::vector<typename CluePort<A>::Result> out(packets.size());
  mem::AccessCounter acc_batch, acc_single;
  for (std::size_t i = 0; i < packets.size(); i += batch) {
    const std::size_t n = std::min(batch, packets.size() - i);
    pb->processBatch(std::span<const A>(dests).subspan(i, n),
                     std::span<const ClueField>(fields).subspan(i, n),
                     std::span(out).subspan(i, n), acc_batch);
  }
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const auto single = ps->process(dests[i], fields[i], acc_single);
    expectSameResult<A>(out[i], single, i);
    EXPECT_EQ(out[i].match, w.oracle(dests[i])) << "packet " << i;

    const auto& r = out[i];
    ++seen.outcome[static_cast<std::size_t>(r.outcome)];
    if (r.claim1_skip) ++seen.claim1;
    if (r.outcome == obs::Outcome::kCase3) {
      ++(r.search_failed ? seen.case3_failed : seen.case3_found);
    }
    if (r.outcome == obs::Outcome::kMiss && fields[i].present &&
        fields[i].length <= A::kBits &&
        std::find(w.inactive.begin(), w.inactive.end(),
                  ip::Prefix<A>(dests[i], fields[i].length)) !=
            w.inactive.end()) {
      ++seen.inactive_misses;
    }
  }

  const auto& sb = pb->stats();
  const auto& ss = ps->stats();
  EXPECT_EQ(sb.packets, ss.packets);
  EXPECT_EQ(sb.no_clue, ss.no_clue);
  EXPECT_EQ(sb.table_hits, ss.table_hits);
  EXPECT_EQ(sb.table_misses, ss.table_misses);
  EXPECT_EQ(sb.fd_direct, ss.fd_direct);
  EXPECT_EQ(sb.searched, ss.searched);
  EXPECT_EQ(sb.search_failed, ss.search_failed);
  EXPECT_EQ(pb->cache().stats().hits, ps->cache().stats().hits);
  EXPECT_EQ(pb->cache().stats().misses, ps->cache().stats().misses);
  for (std::size_t r = 0; r < mem::AccessCounter::kRegions; ++r) {
    const auto region = static_cast<mem::Region>(r);
    EXPECT_EQ(acc_batch.count(region), acc_single.count(region))
        << "region " << r;
  }
  if (c.learn && !c.indexed) {
    // Learning grew the table while batches were in flight: phase-1 hints
    // taken under the old geometry were probed under the new one.
    EXPECT_GT(pb->hashTable().bucketCount(), buckets_before);
  }
}

template <typename A, typename Gen, typename Draw>
void runAll(std::uint64_t seed, Gen gen, Draw draw) {
  World<A> w(seed, gen, draw);
  for (const ClueMode mode : {ClueMode::kSimple, ClueMode::kAdvance}) {
    Seen seen;
    for (const bool indexed : {false, true}) {
      for (const bool learn : {false, true}) {
        for (const std::size_t cache : {std::size_t{0}, std::size_t{16}}) {
          for (const std::size_t batch : kBatchSizes) {
            runConfig(w, Config{mode, indexed, learn, cache}, batch, seen);
          }
        }
      }
    }
    SCOPED_TRACE(mode == ClueMode::kAdvance ? "Advance" : "Simple");
    for (std::size_t o = 0; o < obs::kOutcomeCount; ++o) {
      EXPECT_GT(seen.outcome[o], 0u) << "outcome " << o << " never seen";
    }
    EXPECT_GT(seen.case3_found, 0u);
    EXPECT_GT(seen.case3_failed, 0u);
    EXPECT_GT(seen.inactive_misses, 0u);
    if (mode == ClueMode::kAdvance) EXPECT_GT(seen.claim1, 0u);
  }
}

TEST(DistributedLookupBatch, Ipv4BatchEqualsPerPacketAndOracle) {
  runAll<ip::Ip4Addr>(
      1201, [](Rng& rng, std::size_t n) { return testutil::randomTable4(rng, n); },
      [](Rng& rng) { return testutil::randomAddr4(rng); });
}

TEST(DistributedLookupBatch, Ipv6BatchEqualsPerPacketAndOracle) {
  runAll<ip::Ip6Addr>(
      1202, [](Rng& rng, std::size_t n) { return testutil::randomTable6(rng, n); },
      [](Rng& rng) { return testutil::randomAddr6(rng); });
}

}  // namespace
}  // namespace cluert::core
