// The in-process forwarding workload.
//
// fwd_steady: Pipeline (2 workers + the calling thread as feeder, batch 32)
// over Advance/Patricia with a precomputed clue table on the §6 pair; a
// Zipf(1) stream over a 256k-destination pool. pipeline, core and lookup
// do all the work; rib, netio and topo none.
#include <algorithm>
#include <memory>
#include <span>

#include "common/check.h"
#include "layers.h"
#include "ledger.h"
#include "pipeline/pipeline.h"

namespace perfbench {

using namespace cluert;

namespace {

using Input = pipeline::Pipeline4::Input;
using Entry = rib::Fib4::EntryT;

constexpr std::size_t kPool = 262'144;
constexpr double kZipfS = 1.0;
constexpr std::size_t kBatch = 32;
constexpr int kSetupReps = 9;
// Busy threads stay below the host's 4 vCPUs: the benchmark shares a host
// whose neighbours take CPU time away in stretches of minutes, and a
// pipeline that needs every vCPU loses a third of its rate to one busy
// process beside it (with 3 workers; with 2 it loses none).
constexpr std::size_t kSteadyWorkers = 2;
// Packets per measured window: short enough for hundreds of windows per
// run, so the sustained rate has a tail to read.
constexpr std::size_t kWindow = 1u << 20;

Clock::time_point deadlineIn(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

struct Stream {
  std::vector<Input> in;
  std::vector<std::uint32_t> idx;  // pool index of each packet
};

Stream makeStream(const DestPool& pool, std::size_t n, Rng& rng) {
  Stream s;
  s.idx = zipfStream(pool.dests.size(), n, kZipfS, rng);
  s.in.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.in[i] = {pool.dests[s.idx[i]], pool.clues[s.idx[i]]};
  }
  return s;
}

pipeline::PipelineOptions pipelineOptions(std::size_t workers,
                                          lookup::ClueMode mode,
                                          std::size_t expected_clues,
                                          bool trace) {
  pipeline::PipelineOptions o;
  o.workers = workers;
  o.batch_size = kBatch;
  o.ring_batches = 32;
  o.method = lookup::Method::kPatricia;
  o.mode = mode;
  o.learn = false;
  o.expected_clues = expected_clues;
  o.trace.enabled = trace;
  return o;
}

// Accumulates one pass of pipeline windows.
struct Pass {
  std::vector<double> window_pps;
  double seconds = 0;
  std::uint64_t packets = 0;
  mem::AccessCounter accesses;
  std::uint64_t fd_direct = 0, searched = 0, search_failed = 0,
                table_misses = 0;
  std::uint64_t steady_allocs = 0;
  double busy_ns = 0;  // sum of traced batch spans
  double imbalance = 0;

  void add(const pipeline::PipelineStats& s) {
    window_pps.push_back(s.packetsPerSec());
    seconds += s.seconds;
    packets += s.packets;
    accesses.mergeFrom(s.accesses);
    fd_direct += s.fd_direct;
    searched += s.searched;
    search_failed += s.search_failed;
    table_misses += s.table_misses;
    steady_allocs += s.steady_allocs;
    busy_ns += s.batch_ns.mean() * static_cast<double>(s.batch_ns.count());
    imbalance = std::max(imbalance, s.shardImbalance());
  }
  double pps() const { return sustainedRate(window_pps); }
};

void reportPass(const Pass& p, Result& r) {
  const double n = static_cast<double>(p.packets);
  reportAccesses(p.accesses, n, r);
  reportShares(p.fd_direct, p.searched, p.search_failed, p.table_misses, n, r);
  r.set("pipeline.shard_imbalance", p.imbalance);
  r.set("pipeline.steady_allocs", static_cast<double>(p.steady_allocs));
}

void reportTraceOverhead(double untraced, double traced, Result& r) {
  r.set("obs.trace_overhead", overhead(traced, untraced));
  r.set("obs.trace_overhead.untraced", untraced);
  r.set("obs.trace_overhead.traced", traced);
}

// The traced pass's worker busy share: batch-span time over worker time.
double busyShare(const Pass& p, std::size_t workers) {
  return ratio(p.busy_ns, p.seconds * 1e9 * static_cast<double>(workers));
}

// Microbenchmark packets: the head of the workload's stream, as SoA.
struct Sample {
  std::vector<A> dests;
  std::vector<core::ClueField> clues;
};

Sample sampleOf(const Stream& s, std::size_t n) {
  Sample out;
  n = std::min(n, s.in.size());
  out.dests.reserve(n);
  out.clues.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.dests.push_back(s.in[i].dest);
    out.clues.push_back(s.in[i].clue);
  }
  return out;
}

// ---------------------------------------------------------------------------
// fwd_steady
// ---------------------------------------------------------------------------

struct SteadyPlant {
  TablePair tables;
  trie::BinaryTrie4 sender_trie;
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  std::unique_ptr<pipeline::Pipeline4> pipe;
  double suite_s = 0;
  double precompute_s = 0;
};

std::unique_ptr<SteadyPlant> buildSteady(std::uint64_t seed) {
  auto p = std::make_unique<SteadyPlant>();
  p->tables = makeTablePair(seed);
  p->sender_trie = p->tables.sender.buildTrie();
  const auto t0 = Clock::now();
  p->suite = buildSuite(p->tables.receiver);
  p->suite_s = secondsSince(t0);
  p->pipe = std::make_unique<pipeline::Pipeline4>(
      *p->suite, &p->sender_trie,
      pipelineOptions(kSteadyWorkers, lookup::ClueMode::kAdvance,
                      p->tables.sender.size() + 16, false));
  const auto t1 = Clock::now();
  const auto clues = p->tables.sender.prefixes();
  p->pipe->precompute(clues);
  p->precompute_s = secondsSince(t1);
  return p;
}

// Runs kWindow-packet windows over the stream, round and round, for
// `seconds` of wall time (at least kMinWindows windows), checking every
// packet of every window against the pool oracle.
Pass runSteadyWindows(pipeline::Pipeline4& pipe, const Stream& s,
                      const DestPool& pool, double seconds,
                      std::vector<NextHop>& out, Result& r) {
  CLUERT_CHECK(s.in.size() % kWindow == 0) << s.in.size() << " packets";
  Pass pass;
  const auto end = deadlineIn(seconds);
  for (std::size_t at = 0;
       Clock::now() < end || pass.window_pps.size() < kMinWindows;
       at = (at + kWindow) % s.in.size()) {
    const std::span<const Input> in(s.in.data() + at, kWindow);
    const std::span<NextHop> o(out.data() + at, kWindow);
    std::fill(o.begin(), o.end(), kNoNextHop);
    const auto st = pipe.run(in, o);
    pass.add(st);
    const std::uint64_t bad = countMismatches(
        o, std::span<const std::uint32_t>(s.idx).subspan(at, kWindow),
        pool.expect);
    r.attempted += st.packets;
    r.failed += bad;
    if (bad != 0) r.fail("fwd_steady: next hop differs from the oracle");
  }
  return pass;
}

}  // namespace

void runFwdSteady(const Args& args, Result& r) {
  const double rss0 = rssMb();
  std::vector<double> setup_s, suite_s, precompute_s;
  auto t0 = Clock::now();
  std::unique_ptr<SteadyPlant> plant = buildSteady(args.seed);
  setup_s.push_back(secondsSince(t0));
  const double rss_setup = rssMb() - rss0;
  suite_s.push_back(plant->suite_s);
  precompute_s.push_back(plant->precompute_s);
  for (int rep = 1; rep < kSetupReps; ++rep) {
    t0 = Clock::now();
    auto extra = buildSteady(args.seed);
    setup_s.push_back(secondsSince(t0));
    suite_s.push_back(extra->suite_s);
    precompute_s.push_back(extra->precompute_s);
  }

  Rng rng(args.seed ^ 0x5eedf00dull);
  const DestPool pool = makeDestPool(plant->tables, kPool, rng);
  const Stream stream = makeStream(pool, 4u << 20, rng);
  std::vector<NextHop> out(stream.in.size(), kNoNextHop);

  const double rss_run0 = rssMb();
  plant->pipe->run(stream.in, out);  // warm-up window, not measured
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  const Pass pass =
      runSteadyWindows(*plant->pipe, stream, pool, untraced_s, out, r);
  const double rss_run = rssMb() - rss_run0;

  std::printf("fwd_steady: %zu windows, %.2f Mpps sustained, %.4f acc/pkt\n",
              pass.window_pps.size(), pass.pps() / 1e6,
              ratio(static_cast<double>(pass.accesses.total()),
                    static_cast<double>(pass.packets)));
  printQuartiles("fwd_steady window pps", pass.window_pps, "1/s");
  printQuartiles("fwd_steady setup", setup_s, "s");
  r.set("pps", pass.pps());
  r.set("hops_per_s", pass.pps());
  r.set("setup_s", median(setup_s));
  r.set("rss_mb", rss_setup + rss_run);
  if (!args.trace) return;

  reportPass(pass, r);
  r.set("lookup.suite_build_s", median(suite_s));
  r.set("core.precompute_s", median(precompute_s));

  // Traced pass: a pipeline with batch spans on, same tables and stream.
  {
    pipeline::Pipeline4 traced(
        *plant->suite, &plant->sender_trie,
        pipelineOptions(kSteadyWorkers, lookup::ClueMode::kAdvance,
                        plant->tables.sender.size() + 16, true));
    traced.precompute(plant->tables.sender.prefixes());
    traced.run(stream.in, out);
    const Pass tp =
        runSteadyWindows(traced, stream, pool, args.seconds / 2, out, r);
    r.set("pipeline.worker_busy_share", busyShare(tp, kSteadyWorkers));
    reportTraceOverhead(pass.pps(), tp.pps(), r);
  }

  // Single-thread layer timings on a port configured like a worker's.
  core::CluePort<A> port(
      *plant->suite, &plant->sender_trie,
      portOptions(lookup::ClueMode::kAdvance, plant->tables.sender.size() + 16));
  port.precompute(plant->tables.sender.prefixes());
  const Sample sample = sampleOf(stream, 1u << 17);
  const CoreTimes ct =
      measureCore(port, port.hashTable(),
                  plant->suite->engine(lookup::Method::kPatricia),
                  sample.dests, sample.clues);
  reportCore(ct, r);
  r.set("pipeline.self_ns_per_pkt",
        selfNsPerPkt(pass.seconds, kSteadyWorkers, pass.packets, ct.resolve_ns));
}

// ---------------------------------------------------------------------------
// Layer timings
// ---------------------------------------------------------------------------

namespace {

template <typename Fn>
double medianNsPerItem(std::size_t items, Fn&& pass) {
  if (items == 0) return 0.0;
  std::vector<double> reps;
  const auto t_end = Clock::now() + std::chrono::milliseconds(120);
  while (reps.size() < 5 || (Clock::now() < t_end && reps.size() < 200)) {
    const std::uint64_t t0 = nowNs();
    pass();
    reps.push_back(static_cast<double>(nowNs() - t0) /
                   static_cast<double>(items));
  }
  return median(reps);
}

}  // namespace

CoreTimes measureCore(core::CluePort<A>& port,
                      const core::HashClueTable<A>& table,
                      const lookup::LookupEngine<A>& engine,
                      std::span<const A> dests,
                      std::span<const core::ClueField> clues) {
  using Result_ = typename core::CluePort<A>::Result;
  mem::AccessCounter acc;
  std::vector<Result_> results(kBatch);
  const auto batches = [&](std::span<const A> d,
                           std::span<const core::ClueField> c) {
    for (std::size_t i = 0; i < d.size(); i += kBatch) {
      const std::size_t n = std::min(kBatch, d.size() - i);
      port.processBatch(d.subspan(i, n), c.subspan(i, n),
                        std::span<Result_>(results.data(), n), acc);
    }
  };

  CoreTimes t;
  t.resolve_ns = medianNsPerItem(dests.size(), [&] { batches(dests, clues); });

  // Split the packets by the path their lookup takes.
  std::vector<A> fd_d, cont_d;
  std::vector<core::ClueField> fd_c, cont_c;
  std::vector<ip::Prefix4> probes;
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const auto res = port.process(dests[i], clues[i], acc);
    if (res.searched) {
      cont_d.push_back(dests[i]);
      cont_c.push_back(clues[i]);
    } else if (res.used_fd) {
      fd_d.push_back(dests[i]);
      fd_c.push_back(clues[i]);
    }
    if (const auto p = core::cluePrefix(dests[i], clues[i])) {
      probes.push_back(*p);
    }
  }
  t.fd_ns = medianNsPerItem(fd_d.size(), [&] { batches(fd_d, fd_c); });
  t.continuation_ns =
      medianNsPerItem(cont_d.size(), [&] { batches(cont_d, cont_c); });

  std::uintptr_t sink = 0;
  t.probe_ns = medianNsPerItem(probes.size(), [&] {
    for (const auto& p : probes) {
      sink += reinterpret_cast<std::uintptr_t>(table.find(p, acc));
    }
  });
  std::uint64_t hops = 0;
  t.common_ns = medianNsPerItem(dests.size(), [&] {
    for (const A& d : dests) {
      const auto m = engine.lookup(d, acc);
      hops += m ? m->next_hop : 0;
    }
  });
  keep(sink);
  keep(hops);
  return t;
}

std::unique_ptr<lookup::LookupSuite<A>> buildSuite(const rib::Fib4& fib) {
  lookup::SuiteOptions o;
  o.methods = lookup::methodBit(lookup::Method::kPatricia);
  const auto e = fib.entries();
  return std::make_unique<lookup::LookupSuite<A>>(
      std::vector<Entry>(e.begin(), e.end()), o);
}

core::CluePort<A>::Options portOptions(lookup::ClueMode mode,
                                       std::size_t expected_clues) {
  core::CluePort<A>::Options o;
  o.method = lookup::Method::kPatricia;
  o.mode = mode;
  o.learn = false;
  o.expected_clues = expected_clues;
  return o;
}

void reportAccesses(const mem::AccessCounter& acc, double packets,
                    Result& r) {
  const auto per = [&](mem::Region g) {
    return ratio(static_cast<double>(acc.count(g)), packets);
  };
  r.set("accesses_per_pkt", ratio(static_cast<double>(acc.total()), packets));
  r.set("mem.accesses_per_pkt.clue_table", per(mem::Region::kClueTable));
  r.set("mem.accesses_per_pkt.trie_node", per(mem::Region::kTrieNode));
  r.set("mem.accesses_per_pkt.candidate_set", per(mem::Region::kCandidateSet));
  r.set("mem.accesses_per_pkt.fib_entry", per(mem::Region::kFibEntry));
}

void reportShares(std::uint64_t fd_direct, std::uint64_t searched,
                  std::uint64_t search_failed, std::uint64_t table_misses,
                  double packets, Result& r) {
  const auto share = [&](std::uint64_t n) {
    return ratio(static_cast<double>(n), packets);
  };
  r.set("core.fd_direct_share", share(fd_direct));
  r.set("core.searched_share", share(searched));
  r.set("core.search_failed_share", share(search_failed));
  r.set("core.table_miss_share", share(table_misses));
}

void reportCore(const CoreTimes& t, Result& r) {
  r.set("core.resolve_ns_per_pkt", t.resolve_ns);
  r.set("core.probe_ns_per_pkt", t.probe_ns);
  r.set("core.fd_ns_per_pkt", t.fd_ns);
  r.set("core.continuation_ns_per_pkt", t.continuation_ns);
  r.set("lookup.common_ns_per_pkt", t.common_ns);
  r.set("lookup.clue_speedup", ratio(t.common_ns, t.resolve_ns));
}

}  // namespace perfbench
