// The batched multi-worker forwarding pipeline.
//
// Topology: N run-to-completion shards and no hand-off between them.
// run() spawns N - 1 threads and the calling thread acts as shard 0; every
// shard scans the whole input span, keeps the packets whose flow hashes to
// it (a branch-free filter into its own PacketBatch), resolves each full
// batch in place and then its partial tail, and writes next hops into the
// caller's output array. No thread waits on another until the join.
//
// Sharding is RSS-style: shard = flowShard(dest, N) (worker.h), so every
// packet of a flow lands on the same worker. That keeps each shard's
// working set core-private — its §3.5 ClueCache entries and hot clue-table
// lines are never bounced between cores by packets of the same flow landing
// elsewhere. The price is that every shard reads every input descriptor
// and hashes its destination — N reads of the input instead of one, which
// costs less than handing packets between cores (DESIGN.md §4 has the
// ledger).
//
// Every shard owns its CluePort / AccessCounter / PacketBatch (see
// worker.h), which makes the data plane share-nothing; run() merges the
// per-worker counters and port stats into one PipelineStats via
// AccessCounter::mergeFrom once the workers have joined. With learning off
// and the §3.5 cache off, per-packet accounting is deterministic, so the
// merged totals equal a single-threaded run over the same stream —
// pipeline_test asserts exactly that, and the equality is what lets all the
// paper's §6 access-count results carry over unchanged to the parallel data
// plane.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "mem/alloc_hook.h"
#include "mem/arena.h"
#include "pipeline/worker.h"
#include "common/check.h"

namespace cluert::pipeline {

struct PipelineOptions {
  std::size_t workers = 4;
  std::size_t batch_size = kDefaultBatch;  // clamped to [1, kMaxBatch]
  // Ignored: the shards take their packets straight from the input span,
  // so there is no ring to size. Kept only while the benchmark program
  // (perfbench/src/fwd.cc) still sets it; see ROADMAP.
  std::size_t ring_batches = 64;
  // Base seed of the per-worker trace sampling phase (Rng::forThread).
  std::uint64_t seed = 1;
  // Clamp `workers` to std::thread::hardware_concurrency(). Oversubscribing
  // cores never helps a run-to-completion data plane (the threads just trade
  // timeslices; BENCH_throughput's 8w rows were *slower* than 4w on a 4-core
  // host) — so by default the pipeline refuses to silently degrade: it
  // clamps, warns on stderr, and reports both counts in PipelineStats.
  // Tests that deliberately oversubscribe to widen sanitizer interleavings
  // opt out.
  bool clamp_to_hardware = true;

  // CluePort configuration, replicated per shard.
  lookup::Method method = lookup::Method::kPatricia;
  lookup::ClueMode mode = lookup::ClueMode::kAdvance;
  bool learn = false;
  std::size_t expected_clues = 1 << 10;
  std::size_t cache_entries = 0;
  NeighborIndex neighbor_index = 0;

  // Observability (src/obs/). `registry` non-null: every shard binds its
  // per-worker metric cells (lookup_case_total, lookup_accesses, ...) and
  // run() publishes the merged region counters post-join. `trace.enabled`:
  // each shard owns a Tracer — batch spans always, per-lookup events when
  // the tree was built with CLUERT_TRACE. Both default off: an unobserved
  // pipeline pays one pointer test per packet.
  obs::MetricRegistry* registry = nullptr;
  obs::TraceOptions trace;
};

// Aggregated view of one run(): the merged per-worker counters in the same
// vocabulary (AccessCounter / CluePort::Stats fields) the single-threaded
// experiments report, plus throughput and load-balance figures.
struct PipelineStats {
  std::size_t workers = 0;
  // Worker count the caller asked for, pre-clamp; equals `workers` unless
  // PipelineOptions::clamp_to_hardware trimmed an oversubscribed request.
  std::size_t requested_workers = 0;
  std::size_t batch_size = 0;

  std::uint64_t packets = 0;
  std::uint64_t batches = 0;
  double seconds = 0.0;
  double packetsPerSec() const { return seconds > 0 ? packets / seconds : 0; }

  // Sum over shards of every data-plane memory access (mergeFrom).
  mem::AccessCounter accesses;
  double accessesPerPacket() const {
    return packets == 0 ? 0.0
                        : static_cast<double>(accesses.total()) /
                              static_cast<double>(packets);
  }

  // Merged CluePort::Stats (field-wise sums over shards).
  std::uint64_t table_hits = 0;
  std::uint64_t table_misses = 0;
  std::uint64_t no_clue = 0;
  std::uint64_t fd_direct = 0;
  std::uint64_t searched = 0;
  std::uint64_t search_failed = 0;

  // Per-shard packet counts — min/max/mean expose shard imbalance.
  Summary worker_packets;

  // max/mean of the per-shard packet counts: 1.0 is a perfectly balanced
  // run, 2.0 means the hottest shard carried twice its fair share. Under
  // flow-hash dispatch this is a property of the traffic (a single elephant
  // flow pins one shard), so benches report it instead of pretending
  // round-robin balance.
  double shardImbalance() const {
    const double m = worker_packets.mean();
    return m > 0 ? worker_packets.max() / m : 0.0;
  }

  // Heap allocations inside the steady-state window (each shard's loop
  // after its warm-up batch). The hot path's contract is ZERO;
  // `alloc_hook_active` false means the counting hook was compiled out
  // (sanitizer build) and the zero is vacuous.
  std::uint64_t steady_allocs = 0;
  bool alloc_hook_active = false;

  // Per-batch resolve nanoseconds across all shards (Summary::merge of the
  // workers' summaries). Populated only when the run traced (the batch
  // clock reads ride on the span instrumentation); empty otherwise.
  Summary batch_ns;

  // Sum over shards of batches whose pinned table version differed from the
  // shard's previous batch — how often the data plane actually observed a
  // swap. Zero for unversioned runs.
  std::uint64_t version_changes = 0;
};

// One-line human-readable rendering (pipeline.cc).
std::string formatStats(const PipelineStats& s);

template <typename A>
class Pipeline {
 public:
  using WorkerT = Worker<A>;
  using PortT = core::CluePort<A>;
  using PrefixT = ip::Prefix<A>;

  // A packet as the upstream link presents it: destination + clue option.
  struct Input {
    A dest{};
    core::ClueField clue;
  };

  // Builds the shards. Control-plane work (port construction, the Advance
  // neighbor annotation inside CluePort's ctor) runs here, on the calling
  // thread, strictly before any worker thread exists. Shards are placed in
  // the pipeline's arena, each on its own cache-line boundary — no worker's
  // hot state shares a line with another's.
  Pipeline(lookup::LookupSuite<A>& suite,
           const trie::BinaryTrie<A>* neighbor_trie,
           const PipelineOptions& options)
      : options_(sanitized(options)),
        requested_workers_(options.workers == 0 ? 1 : options.workers) {
    for (std::size_t w = 0; w < options_.workers; ++w) {
      typename PortT::Options popt;
      popt.method = options_.method;
      popt.mode = options_.mode;
      popt.learn = options_.learn;
      popt.neighbor_index = options_.neighbor_index;
      popt.expected_clues = options_.expected_clues;
      popt.cache_entries = options_.cache_entries;
      workers_.push_back(arena_.template create<WorkerT>(
          w, std::make_unique<PortT>(suite, neighbor_trie, popt)));
      if (options_.registry != nullptr || options_.trace.enabled) {
        workers_.back()->enableObs(options_.registry, options_.trace,
                                   options_.seed);
      }
    }
    announce();
  }

  // Epoch-versioned construction (the churn-safe data plane): every shard
  // gets an *unbound* port that borrows suite + clue table from the version
  // it pins per batch, so a control-plane RouteUpdater can publish while
  // run() is in flight. Learning and precompute() don't apply — versions
  // arrive fully built, and a version-bound port never mutates the shared
  // table (a clue-table miss routes via the common lookup).
  Pipeline(rib::VersionedTables<A>& versions, const PipelineOptions& options)
      : options_(sanitized(options)),
        requested_workers_(options.workers == 0 ? 1 : options.workers) {
    CLUERT_CHECK(options_.workers <= rib::VersionedTables<A>::kMaxEpochWorkers)
        << options_.workers << " workers exceed the epoch-slot array";
    for (std::size_t w = 0; w < options_.workers; ++w) {
      typename PortT::Options popt;
      popt.method = options_.method;
      popt.mode = options_.mode;
      popt.learn = false;
      popt.neighbor_index = options_.neighbor_index;
      popt.expected_clues = options_.expected_clues;
      popt.cache_entries = options_.cache_entries;
      workers_.push_back(
          arena_.template create<WorkerT>(w, std::make_unique<PortT>(popt)));
      workers_.back()->bindVersions(&versions);
      if (options_.registry != nullptr || options_.trace.enabled) {
        workers_.back()->enableObs(options_.registry, options_.trace,
                                   options_.seed);
      }
    }
    announce();
  }

  const PipelineOptions& options() const { return options_; }
  WorkerT& worker(std::size_t w) { return *workers_[w]; }

  // Installs the clue universe into every shard's table (§3.3.2
  // pre-processing) — the usual setup when running with learn = false.
  void precompute(std::span<const PrefixT> clues) {
    for (auto& w : workers_) w->port().precompute(clues);
  }

  // Drives the whole input stream through the pipeline; out[i] receives the
  // next hop chosen for in[i] (kNoNextHop: no route). Blocking: spawns the
  // worker threads, runs shard 0 on the calling thread, joins, aggregates.
  PipelineStats run(std::span<const Input> in, std::span<NextHop> out) {
    return run(in, out, {});
  }

  // Versioned-run variant: `version_out`, when non-empty (sized like `out`),
  // receives the sequence number of the table version each packet was
  // resolved against — the churn oracle's ground truth for comparing out[i]
  // with a quiescent lookup at that version.
  PipelineStats run(std::span<const Input> in, std::span<NextHop> out,
                    std::span<std::uint64_t> version_out) {
    CLUERT_CHECK(in.size() == out.size())
        << in.size() << " inputs vs " << out.size() << " out slots";
    CLUERT_CHECK(version_out.empty() || version_out.size() == out.size())
        << version_out.size() << " version slots vs " << out.size() << " out";
    CLUERT_CHECK(in.size() <=
                 std::size_t{std::numeric_limits<std::uint32_t>::max()})
        << in.size() << " packets overflow the 32-bit batch seq";
    const auto t0 = std::chrono::steady_clock::now();
    // The pipeline is reusable: zero the per-run counters while every shard
    // is quiescent (joined last run; none started yet), so stats describe
    // THIS run.
    for (auto* w : workers_) w->resetRunCounters();
    const std::size_t shards = workers_.size();
    const std::size_t batch = options_.batch_size;
    {
      // jthreads: joined at the end of this scope, on every path out.
      std::vector<std::jthread> threads;
      threads.reserve(shards - 1);
      for (std::size_t id = 1; id < shards; ++id) {
        WorkerT* w = workers_[id];
        threads.emplace_back([=] {
          w->runShard(in, shards, batch, out, version_out);
        });
      }
      workers_[0]->runShard(in, shards, batch, out, version_out);
    }
    const auto t1 = std::chrono::steady_clock::now();
    PipelineStats s = aggregate(std::chrono::duration<double>(t1 - t0).count());
    // Region totals are merged per run (the workers' counters are quiescent
    // now); the per-packet families were already fed live by the shards.
    if (options_.registry != nullptr) {
      obs::publishAccessCounter(*options_.registry, s.accesses);
    }
    return s;
  }

  // Merged trace rings of every shard, oldest-first per worker and sorted by
  // start time overall. Meaningful after run() returned (the shards own
  // their rings; post-join they are quiescent).
  std::vector<obs::TraceEvent> traceEvents() const {
    std::vector<obs::TraceEvent> out;
    for (const auto& w : workers_) {
      if (w->tracer() == nullptr) continue;
      const auto ev = w->tracer()->events();
      out.insert(out.end(), ev.begin(), ev.end());
    }
    std::sort(out.begin(), out.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                return a.start_ns < b.start_ns;
              });
    return out;
  }

  std::vector<obs::SpanEvent> traceSpans() const {
    std::vector<obs::SpanEvent> out;
    for (const auto& w : workers_) {
      if (w->tracer() == nullptr) continue;
      const auto sp = w->tracer()->spans();
      out.insert(out.end(), sp.begin(), sp.end());
    }
    std::sort(out.begin(), out.end(),
              [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
                return a.start_ns < b.start_ns;
              });
    return out;
  }

 private:
  static PipelineOptions sanitized(PipelineOptions o) {
    if (o.workers == 0) o.workers = 1;
    if (o.batch_size == 0) o.batch_size = 1;
    if (o.batch_size > kMaxBatch) o.batch_size = kMaxBatch;
    if (o.clamp_to_hardware) {
      const auto hc =
          static_cast<std::size_t>(std::thread::hardware_concurrency());
      // hardware_concurrency() may legitimately return 0 ("unknown"); never
      // clamp on a host we cannot size.
      if (hc != 0 && o.workers > hc) o.workers = hc;
    }
    return o;
  }

  // Post-construction reporting: the clamp warning (a silently degraded
  // data plane is the bug this fixes) and the standing gauges.
  void announce() const {
    if (options_.workers < requested_workers_) {
      std::fprintf(stderr,
                   "cluert::pipeline: clamped %zu requested workers to %zu "
                   "(hardware_concurrency); oversubscribing cores only adds "
                   "context switches\n",
                   requested_workers_, options_.workers);
    }
    if (options_.registry == nullptr) return;
    options_.registry
        ->gauge("pipeline_workers", "Worker shards in the pipeline")
        .set(static_cast<double>(options_.workers));
    options_.registry
        ->gauge("pipeline_batch_size", "Packets per pipeline batch")
        .set(static_cast<double>(options_.batch_size));
    options_.registry
        ->gauge("pipeline_workers_clamped",
                "Requested-minus-actual workers after the hardware clamp")
        .set(static_cast<double>(requested_workers_ - options_.workers));
  }

  PipelineStats aggregate(double seconds) const {
    PipelineStats s;
    s.workers = workers_.size();
    s.requested_workers = requested_workers_;
    s.batch_size = options_.batch_size;
    s.seconds = seconds;
    s.alloc_hook_active = mem::allocHookActive();
    for (const auto& w : workers_) {
      s.packets += w->packets();
      s.batches += w->batches();
      s.accesses.mergeFrom(w->accesses());
      const auto& ps = w->port().stats();
      s.table_hits += ps.table_hits;
      s.table_misses += ps.table_misses;
      s.no_clue += ps.no_clue;
      s.fd_direct += ps.fd_direct;
      s.searched += ps.searched;
      s.search_failed += ps.search_failed;
      s.worker_packets.add(static_cast<double>(w->packets()));
      s.batch_ns.merge(w->batchNs());
      s.version_changes += w->versionChanges();
      s.steady_allocs += w->steadyAllocs();
    }
    return s;
  }

  PipelineOptions options_;
  std::size_t requested_workers_ = 0;
  // Shard placement: each Worker starts on its own cache-line boundary in
  // the arena (destroyed LIFO with it). The vector holds non-owning
  // pointers.
  mem::Arena arena_;
  std::vector<WorkerT*> workers_;
};

using Pipeline4 = Pipeline<ip::Ip4Addr>;

}  // namespace cluert::pipeline
