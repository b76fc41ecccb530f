// One pipeline worker shard: a run-to-completion forwarding loop over its
// own flow shard of the input.
//
// Each worker owns the complete per-shard state — its own CluePort (clue
// table, learning, §3.5 cache), its own mem::AccessCounter (merged after
// join, never shared), its own PacketBatch and result scratch — so the data
// plane runs without a single lock or shared mutable word between shards.
// There is no hand-off either: every shard reads the caller's input span
// directly, keeps the packets whose flowShard() is its own id, and writes
// their next hops to disjoint `out[seq]` slots (each sequence number
// belongs to exactly one shard).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "common/stats.h"
#include "core/distributed_lookup.h"
#include "mem/alloc_hook.h"
#include "obs/hooks.h"
#include "pipeline/packet_batch.h"
#include "pipeline/pinned_resolver.h"
#include "rib/versioned_tables.h"

namespace cluert::pipeline {

// RSS-style flow sharding: every packet of a flow (destination) maps to the
// same shard of [0, n). The multiply-shift maps the low 32 hash bits onto
// [0, n) without a divide (Lemire's fastrange).
template <typename A>
std::size_t flowShard(const A& dest, std::size_t n) {
  const auto h = static_cast<std::uint64_t>(std::hash<A>{}(dest));
  return static_cast<std::size_t>(
      ((h & 0xffffffffu) * static_cast<std::uint64_t>(n)) >> 32);
}

template <typename A>
class Worker {
 public:
  using PortT = core::CluePort<A>;

  Worker(std::size_t id, std::unique_ptr<PortT> port)
      : id_(id), resolver_(std::move(port), id) {}

  std::size_t id() const { return id_; }
  PortT& port() { return resolver_.port(); }
  const PortT& port() const { return resolver_.port(); }
  const mem::AccessCounter& accesses() const { return acc_; }
  std::uint64_t packets() const { return packets_; }
  std::uint64_t batches() const { return batches_; }

  // Attaches this shard's observability: its metric cells (shard = worker
  // id) and, when `trace.enabled`, a Tracer whose sampling phase derives
  // from (seed, id) via Rng::forThread. Control-plane call, strictly before
  // run(). Either part may be absent: a null registry with tracing on still
  // produces trace events; a registry with tracing off still counts.
  void enableObs(obs::MetricRegistry* registry, const obs::TraceOptions& trace,
                 std::uint64_t seed) {
    if (trace.enabled) {
      tracer_ = std::make_unique<obs::Tracer>(
          trace, seed, static_cast<std::uint32_t>(id_));
    }
    if (registry != nullptr) {
      wobs_ = obs::WorkerObs::bind(*registry, id_);
      port().attachObs(obs::LookupObs::bind(*registry, id_, tracer_.get()));
    } else if (tracer_ != nullptr) {
      obs::LookupObs lo;
      lo.shard = id_;
      lo.tracer = tracer_.get();
      port().attachObs(lo);
    }
  }

  // Attaches the epoch-versioned table source (control-plane, before
  // run()). While attached, the worker pins one version per PacketBatch and
  // rebinds its port to that version's suite + clue table — a batch never
  // observes a half-applied delta, and the §3.5 cache invalidates itself on
  // the version change.
  void bindVersions(rib::VersionedTables<A>* versions) {
    resolver_.bindVersions(versions);
  }

  // Swaps observed by this shard: batches whose pinned version differed
  // from the previous batch's. Read after join.
  std::uint64_t versionChanges() const { return resolver_.versionChanges(); }

  // Zeroes the per-run counters so a reused shard reports this run only
  // (Pipeline::run calls it before any shard starts). The resolver's
  // last-seen sequence is deliberately kept: a version swap that happened
  // *between* runs still counts as a change on the next run's first batch.
  void resetRunCounters() {
    acc_.reset();
    packets_ = 0;
    batches_ = 0;
    steady_allocs_ = 0;
    resolver_.resetVersionChanges();
    batch_ns_ = Summary{};
    port().resetStats();
  }

  // Heap allocations this shard made after its warm-up batch (see
  // runShard()). Valid after join; 0 when the alloc hook is compiled out or
  // the shard processed at most one batch.
  std::uint64_t steadyAllocs() const { return steady_allocs_; }

  // Post-join access to the shard's trace rings (null when tracing is off).
  const obs::Tracer* tracer() const { return tracer_.get(); }

  // Per-batch resolve nanoseconds (filled only while a tracer is attached —
  // the same clock reads feed the spans). Merged post-join by the pipeline
  // via Summary::merge, which is what makes tail stats (p99 batch time)
  // reportable across shards.
  const Summary& batchNs() const { return batch_ns_; }

  // The shard body, run on its own thread (shard 0 on the caller's): scan
  // the whole input, keep the packets of this shard's flows in the batch,
  // resolve it whenever it holds `batch_size` packets, and once more for
  // the partial tail — under flow sharding any shard can end mid-batch, and
  // an unresolved tail is silently dropped traffic. `out` and `version_out`
  // span the whole input; this shard writes only its own packets' slots.
  // `version_out`, when non-empty, receives the sequence number of the
  // version each packet was resolved against (0 for unversioned runs) —
  // the churn oracle compares out[seq] against a quiescent lookup at
  // version_out[seq].
  template <typename In>
  void runShard(std::span<const In> in, std::size_t shards,
                std::size_t batch_size, std::span<NextHop> out,
                std::span<std::uint64_t> version_out) {
    // Zero-allocation steady state: the first batch is warm-up (lazy
    // per-thread init, first-touch faults), everything after it must not
    // allocate. Snapshot the thread-local alloc counter after that batch
    // and report the delta — Pipeline::run sums the shards' deltas into
    // PipelineStats::steady_allocs, which the ci throughput gate pins at 0.
    bool warmed = false;
    std::uint64_t alloc_base = 0;
    // A lone shard owns every flow: the loop-invariant test lets the
    // compiler drop the hash from the 1-worker scan, which then only copies.
    const auto mine = [&](const A& dest) {
      return shards == 1 || flowShard(dest, shards) == id_;
    };
    batch_.clear();
    for (std::size_t i = 0; i < in.size();) {
      i = batch_.fill(in, i, batch_size, mine);
      if (batch_.size() < batch_size) break;  // input ended mid-batch
      resolveBatch(out, version_out);
      if (!warmed) {
        warmed = true;
        alloc_base = mem::threadAllocs();
      }
    }
    if (!batch_.empty()) resolveBatch(out, version_out);
    if (warmed) steady_allocs_ = mem::threadAllocs() - alloc_base;
  }

 private:
  // Resolves the batch and publishes its next hops, then empties it. Reads
  // the batch's SoA spans in place: no per-packet gather copy.
  void resolveBatch(std::span<NextHop> out,
                    std::span<std::uint64_t> version_out) {
    // Batch spans cost two clock reads per *batch* — cheap enough to gate at
    // runtime rather than compile time (unlike the per-lookup events).
    const bool spans = tracer_ != nullptr && tracer_->enabled();
    const std::uint64_t span_t0 = spans ? obs::Tracer::nowNs() : 0;
    const std::size_t n = batch_.size();
    const std::span<const std::uint32_t> seqs = batch_.seqs();
    // Pin one version for the whole batch (PinnedResolver). The guard
    // spans the resolve and the out[] writes — its release is what lets
    // the updater's grace period complete.
    resolver_.resolve(
        batch_.dests(), batch_.clues(), {results_.data(), n}, acc_,
        [&](const rib::TableVersion<A>* version) {
          const std::uint64_t seq = version != nullptr ? version->seq : 0;
          for (std::size_t i = 0; i < n; ++i) {
            const auto& m = results_[i].match;
            out[seqs[i]] = m ? m->next_hop : kNoNextHop;
            if (!version_out.empty()) version_out[seqs[i]] = seq;
          }
        });
    batch_.clear();
    packets_ += n;
    ++batches_;
    if (spans) {
      const std::uint64_t dur = obs::Tracer::nowNs() - span_t0;
      tracer_->span({span_t0, dur, static_cast<std::uint32_t>(id_),
                     static_cast<std::uint32_t>(n)});
      batch_ns_.add(static_cast<double>(dur));
    }
    if (wobs_.enabled()) {
      wobs_.packets->inc(n);
      wobs_.batches->inc();
    }
  }

  std::size_t id_;
  PinnedResolver<A> resolver_;
  mem::AccessCounter acc_;
  std::uint64_t packets_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t steady_allocs_ = 0;
  std::unique_ptr<obs::Tracer> tracer_;  // owned here: single-writer ring
  obs::WorkerObs wobs_;
  Summary batch_ns_;
  // The shard's batch and per-batch resolve results; members (not stack
  // arrays) so the shard's hot scratch lives inside its arena placement,
  // cache-line aligned.
  PacketBatch<A> batch_;
  alignas(64) std::array<typename PortT::Result, kMaxBatch> results_;
};

}  // namespace cluert::pipeline
