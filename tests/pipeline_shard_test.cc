// Regression tests for the flow-hash sharded data plane (src/pipeline/):
// shard ownership against a brute-force flowShard partition, the partial
// tail batch of every shard, sharded-vs-sequential equivalence across
// traffic shapes (uniform, Zipf-skewed, single-flow) and worker counts,
// equivalence under rib::VersionedTables version swaps, the zero-allocation
// steady-state contract and the hardware-concurrency clamp reporting.
// Suites are named PipelineShard* so tools/run_sanitizers.sh's "Pipeline"
// filter gives them TSan coverage automatically.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <memory>
#include <thread>
#include <vector>

#include "mem/alloc_hook.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "rib/versioned_tables.h"
#include "test_util.h"

namespace cluert::pipeline {
namespace {

using A = ip::Ip4Addr;
using Entry = rib::Fib4::EntryT;

struct ShardFixture {
  rib::Fib4 sender;
  rib::Fib4 receiver;
  trie::BinaryTrie4 t1;
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  std::vector<Entry> sender_entries;

  explicit ShardFixture(std::uint64_t seed = 4242, std::size_t size = 800) {
    Rng rng(seed);
    sender_entries = testutil::randomTable4(rng, size);
    const auto receiver_entries =
        testutil::neighborOf(sender_entries, rng, 0.85, size / 8, 0.4);
    sender = rib::Fib4{std::vector<Entry>(sender_entries)};
    receiver = rib::Fib4{std::vector<Entry>(receiver_entries)};
    for (const auto& e : sender.entries()) t1.insert(e.prefix, e.next_hop);
    suite = std::make_unique<lookup::LookupSuite<A>>(std::vector<trie::Match<A>>(
        receiver_entries.begin(), receiver_entries.end()));
  }

  Pipeline4::Input packet(const A& dest) {
    mem::AccessCounter scratch;
    const auto bmp = t1.lookup(dest, scratch);
    return {dest, bmp ? core::ClueField::of(bmp->prefix.length())
                      : core::ClueField::none()};
  }

  // These tests exercise the multi-shard data plane deliberately — real
  // threads, real partial tails — even on a small CI host where the
  // hardware clamp would cut the worker count.
  PipelineOptions threadedOptions(std::size_t workers,
                                  std::size_t batch) const {
    PipelineOptions opt;
    opt.workers = workers;
    opt.batch_size = batch;
    opt.method = lookup::Method::kPatricia;
    opt.mode = lookup::ClueMode::kAdvance;
    opt.learn = false;
    opt.expected_clues = sender.size() + 16;
    opt.clamp_to_hardware = false;
    return opt;
  }

  std::vector<NextHop> sequential(std::span<const Pipeline4::Input> inputs) {
    typename core::CluePort<A>::Options popt;
    popt.method = lookup::Method::kPatricia;
    popt.mode = lookup::ClueMode::kAdvance;
    popt.learn = false;
    popt.expected_clues = sender.size() + 16;
    core::CluePort<A> port(*suite, &t1, popt);
    const auto clues = sender.prefixes();
    port.precompute(clues);
    mem::AccessCounter acc;
    std::vector<NextHop> hops;
    hops.reserve(inputs.size());
    for (const auto& in : inputs) {
      const auto r = port.process(in.dest, in.clue, acc);
      hops.push_back(r.match ? r.match->next_hop : kNoNextHop);
    }
    return hops;
  }

  // A stream of `n` packets over a pool of covered destinations. skew = 0:
  // uniform over the pool. skew > 0: Zipf-ish, pool index drawn as
  // pool_size * u^(1+skew) — a handful of elephant flows carry most of the
  // traffic, which under flow-hash dispatch concentrates whole flows (not
  // fractions of them) onto single shards.
  std::vector<Pipeline4::Input> stream(Rng& rng, std::size_t n,
                                       std::size_t pool_size, double skew) {
    std::vector<Pipeline4::Input> pool;
    pool.reserve(pool_size);
    while (pool.size() < pool_size) {
      pool.push_back(packet(testutil::coveredAddress<A>(
          sender_entries, rng, testutil::randomAddr4)));
    }
    std::vector<Pipeline4::Input> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t j;
      if (skew <= 0) {
        j = rng.index(pool.size());
      } else {
        const double u =
            (static_cast<double>(rng.u32()) + 0.5) / 4294967296.0;
        j = std::min(pool.size() - 1,
                     static_cast<std::size_t>(
                         static_cast<double>(pool.size()) *
                         std::pow(u, 1.0 + skew)));
      }
      out.push_back(pool[j]);
    }
    return out;
  }
};

void expectSameHops(const std::vector<NextHop>& got,
                    const std::vector<NextHop>& expect) {
  ASSERT_EQ(got.size(), expect.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    if (got[i] != expect[i] && ++mismatches <= 5) {
      ADD_FAILURE() << "next hop differs at packet " << i << ": " << got[i]
                    << " vs " << expect[i];
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

// Shard ownership, one code path for every worker count: after a run,
// shard w has resolved exactly the packets whose flowShard is w — counted
// against a brute-force partition of the stream — in ceil(count / batch)
// batches (full batches plus one partial tail), and the hops equal the
// sequential ones. A filter that keeps a neighbour's packet, drops one of
// its own, or skips its tail moves a count even when the hops still match.
// The table-hit and access totals equal the 1-worker run's (shard 0 on the
// calling thread, no thread spawned): the shard split moves work between
// threads, never changes it.
TEST(PipelineShardTest, EachShardResolvesExactlyItsFlowShard) {
  ShardFixture fx;
  Rng rng(66);
  const auto inputs = fx.stream(rng, 997, 256, 0.0);
  const auto expect = fx.sequential(inputs);
  const auto clues = fx.sender.prefixes();
  const std::size_t batches[] = {1, 7, 32};
  PipelineStats one_worker[std::size(batches)];
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    std::vector<std::uint64_t> owned(workers, 0);
    for (const auto& in : inputs) ++owned[flowShard(in.dest, workers)];
    for (std::size_t b = 0; b < std::size(batches); ++b) {
      const std::size_t batch = batches[b];
      SCOPED_TRACE(testing::Message() << workers << "w/b" << batch);
      Pipeline4 pipe(*fx.suite, &fx.t1, fx.threadedOptions(workers, batch));
      pipe.precompute(clues);
      std::vector<NextHop> got(inputs.size(), kNoNextHop);
      const auto stats = pipe.run(inputs, got);
      EXPECT_EQ(stats.packets, inputs.size());
      for (std::size_t w = 0; w < workers; ++w) {
        EXPECT_EQ(pipe.worker(w).packets(), owned[w]) << "shard " << w;
        EXPECT_EQ(pipe.worker(w).batches(), (owned[w] + batch - 1) / batch)
            << "shard " << w;
      }
      expectSameHops(got, expect);
      if (workers == 1) one_worker[b] = stats;
      EXPECT_EQ(stats.table_hits, one_worker[b].table_hits);
      EXPECT_EQ(stats.accesses.total(), one_worker[b].accesses.total());
    }
  }
}

// The partial-tail regression: under flow sharding every shard can end the
// stream holding a partial batch (997 is not a multiple of anything in a
// 3-worker, batch-32 pipeline), and an unresolved tail is silently dropped
// traffic. Each shard's tail must be resolved on every run of a reused
// pipeline, so the per-shard counts of the second run equal the first's.
TEST(PipelineShardTest, TailBatchesFlushedOnRunCompletion) {
  ShardFixture fx;
  Rng rng(11);
  const auto inputs = fx.stream(rng, 997, 256, 0.0);
  const auto expect = fx.sequential(inputs);

  Pipeline4 pipe(*fx.suite, &fx.t1, fx.threadedOptions(3, 32));
  const auto clues = fx.sender.prefixes();
  pipe.precompute(clues);
  std::vector<std::uint64_t> first_run(3, 0);
  for (int run = 0; run < 2; ++run) {
    SCOPED_TRACE(testing::Message() << "run " << run);
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    const auto stats = pipe.run(inputs, got);
    // Every packet resolved — a dropped tail shows up here first.
    EXPECT_EQ(stats.packets, inputs.size());
    std::size_t partial_tails = 0;
    for (std::size_t w = 0; w < 3; ++w) {
      const std::uint64_t n = pipe.worker(w).packets();
      if (run == 0) first_run[w] = n;
      EXPECT_EQ(n, first_run[w]) << "shard " << w;
      partial_tails += n % 32 != 0;
    }
    EXPECT_GT(partial_tails, 0u) << "stream no longer leaves a partial tail";
    expectSameHops(got, expect);
  }
}

TEST(PipelineShardTest, UniformZipfAndSingleFlowTrafficMatchSequential) {
  ShardFixture fx;
  Rng rng(22);
  const struct {
    const char* name;
    std::size_t pool;
    double skew;
  } shapes[] = {
      {"uniform", 512, 0.0},
      {"zipf", 512, 3.0},
      {"single-flow", 1, 0.0},
  };
  for (const auto& shape : shapes) {
    SCOPED_TRACE(shape.name);
    const auto inputs = fx.stream(rng, 20'000, shape.pool, shape.skew);
    const auto expect = fx.sequential(inputs);
    Pipeline4 pipe(*fx.suite, &fx.t1, fx.threadedOptions(4, 8));
    const auto clues = fx.sender.prefixes();
    pipe.precompute(clues);
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    const auto stats = pipe.run(inputs, got);
    EXPECT_EQ(stats.packets, inputs.size());
    expectSameHops(got, expect);
    if (shape.pool == 1) {
      // Flow affinity: a single flow is pinned to exactly one shard, so the
      // hottest shard carried everything (imbalance = worker count).
      EXPECT_EQ(stats.worker_packets.max(),
                static_cast<double>(inputs.size()));
      EXPECT_DOUBLE_EQ(stats.shardImbalance(), 4.0);
    }
  }
}

// Quiescent version swaps between sharded runs: every packet must resolve
// against the live version (version_out records the pinned seq), results
// must equal the per-version oracle, and the shards must observe the swap
// (version_changes). The racing variant — an updater thread publishing
// *during* run() — lives in churn_pipeline_test.cc.
TEST(PipelineShardTest, VersionSwapsKeepShardedRunsOracleExact) {
  Rng rng(31337);
  const auto local_entries = testutil::randomTable4(rng, 256);
  const auto neighbor_entries =
      testutil::neighborOf(local_entries, rng, 0.8, 40, 0.5);
  rib::Fib4 local{std::vector<Entry>(local_entries)};
  rib::Fib4 neighbor{std::vector<Entry>(neighbor_entries)};
  trie::BinaryTrie4 t1 = neighbor.buildTrie();

  mem::AccessCounter scratch;
  std::vector<Pipeline4::Input> inputs;
  std::vector<A> dests;
  while (dests.size() < 96) {
    dests.push_back(testutil::coveredAddress<A>(local_entries, rng,
                                                testutil::randomAddr4));
  }
  for (std::size_t i = 0; i < 4'096; ++i) {
    const A d = dests[rng.index(dests.size())];
    const auto bmp = t1.lookup(d, scratch);
    inputs.push_back({d, bmp ? core::ClueField::of(bmp->prefix.length())
                             : core::ClueField::none()});
  }

  rib::VersionedTables4::Options vopt;
  vopt.mode = lookup::ClueMode::kSimple;
  rib::VersionedTables4 vt(local, neighbor, vopt);

  PipelineOptions popt;
  popt.workers = 4;
  popt.batch_size = 32;
  popt.mode = lookup::ClueMode::kSimple;
  popt.clamp_to_hardware = false;
  Pipeline4 pipe(vt, popt);

  rib::Fib4 cur = local;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    std::vector<NextHop> got(inputs.size(), kNoNextHop);
    std::vector<std::uint64_t> vout(inputs.size(), 0);
    const auto stats = pipe.run(inputs, got, vout);
    EXPECT_EQ(stats.packets, inputs.size());
    if (round > 0) EXPECT_GE(stats.version_changes, 1u);

    // Quiescent oracle at the (only) live version.
    const auto& live = vt.liveVersion();
    mem::AccessCounter acc;
    const auto& engine = live.suite->engine(live.method);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      ASSERT_EQ(vout[i], live.seq) << "packet " << i;
      const auto m = engine.lookup(inputs[i].dest, acc);
      ASSERT_EQ(got[i], m ? m->next_hop : kNoNextHop) << "packet " << i;
    }

    // Publish a swap for the next round: reroute two live prefixes.
    rib::FibDelta4 d;
    const auto entries = cur.entries();
    for (int k = 0; k < 2; ++k) {
      Entry e = entries[rng.index(entries.size())];
      e.next_hop = static_cast<NextHop>(90 + k);
      d.rerouted.push_back(e);
      cur.add(e.prefix, e.next_hop);
    }
    vt.publishLocal(d);
  }
}

// The zero-allocation contract on the real multi-shard path: after each
// shard's warm-up batch — the calling thread's shard 0 included — the
// steady-state window performs no heap allocation. Run twice — the second
// run has no first-touch warm-up left anywhere.
TEST(PipelineShardTest, SteadyStateIsAllocationFree) {
  if (!mem::allocHookActive()) {
    GTEST_SKIP() << "counting alloc hook compiled out (sanitizer build)";
  }
  ShardFixture fx;
  Rng rng(33);
  const auto inputs = fx.stream(rng, 20'000, 256, 0.0);
  Pipeline4 pipe(*fx.suite, &fx.t1, fx.threadedOptions(2, 32));
  const auto clues = fx.sender.prefixes();
  pipe.precompute(clues);
  std::vector<NextHop> got(inputs.size(), kNoNextHop);
  PipelineStats stats;
  for (int run = 0; run < 2; ++run) stats = pipe.run(inputs, got);
  EXPECT_TRUE(stats.alloc_hook_active);
  EXPECT_EQ(stats.steady_allocs, 0u);
}

// Oversubscribed worker requests are clamped to hardware_concurrency, and
// the clamp is *reported*: both counts in the stats, the delta as a gauge.
// (The stderr warning rides the same branch as the gauge.)
TEST(PipelineShardTest, HardwareClampReportsRequestedAndActual) {
  const auto hc =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  if (hc == 0 || hc >= 64) {
    GTEST_SKIP() << "hardware_concurrency " << hc
                 << " cannot demonstrate the clamp";
  }
  ShardFixture fx;
  Rng rng(44);
  const auto inputs = fx.stream(rng, 2'000, 128, 0.0);
  const auto expect = fx.sequential(inputs);

  obs::MetricRegistry registry;
  PipelineOptions opt = fx.threadedOptions(64, 16);
  opt.clamp_to_hardware = true;  // the behaviour under test
  opt.registry = &registry;
  Pipeline4 pipe(*fx.suite, &fx.t1, opt);
  const auto clues = fx.sender.prefixes();
  pipe.precompute(clues);
  std::vector<NextHop> got(inputs.size(), kNoNextHop);
  const auto stats = pipe.run(inputs, got);

  EXPECT_EQ(stats.requested_workers, 64u);
  EXPECT_EQ(stats.workers, hc);
  expectSameHops(got, expect);

  const auto snap = registry.snapshot();
  const auto* clamped = snap.find("pipeline_workers_clamped");
  ASSERT_NE(clamped, nullptr);
  EXPECT_EQ(clamped->gauge_value, static_cast<double>(64 - hc));
  const auto* workers = snap.find("pipeline_workers");
  ASSERT_NE(workers, nullptr);
  EXPECT_EQ(workers->gauge_value, static_cast<double>(hc));
}

}  // namespace
}  // namespace cluert::pipeline
