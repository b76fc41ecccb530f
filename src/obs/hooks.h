// Pre-bound instrument bundles for the data plane.
//
// Hot-path code must not pay a name lookup (or the registry mutex) per
// packet, so instrumented classes hold one of these bundles instead of a
// MetricRegistry: bind() resolves the named instruments once on the control
// plane and stores raw pointers to *this worker's* shard cells. A
// default-constructed bundle is inert — every hook first tests one pointer,
// which is the entire per-packet cost of having observability compiled in
// but disabled.
//
// Metric names are fixed here so every producer (CluePort, Worker, Router,
// benches) feeds the same series and DESIGN.md can map them to the paper's
// §6 tables.
#pragma once

#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace cluert::obs {

// Per-worker view of the lookup-path metrics, fed by CluePort on every
// packet it resolves.
struct LookupObs {
  CounterCell* packets = nullptr;
  // One cell per Outcome, indexed by static_cast<size_t>(Outcome): the
  // lookup_case_total{case=...} family. Summed over cases it equals
  // lookup_packets_total — the invariant obs_test and the example check.
  std::array<CounterCell*, kOutcomeCount> cases{};
  CounterCell* claim1_skip = nullptr;
  CounterCell* search_failed = nullptr;
  Histogram* accesses = nullptr;     // per-lookup total access delta
  Histogram* latency_ns = nullptr;   // sampled lookups only (trace builds)
  std::size_t shard = 0;
  Tracer* tracer = nullptr;  // optional; owned elsewhere (the worker)

  bool metricsEnabled() const { return packets != nullptr; }

  // True when this lookup should also produce a TraceEvent. Folds to false
  // at compile time when CLUERT_TRACE is off.
  bool traceArmed() const {
    if constexpr (!kTraceCompiled) return false;
    return tracer != nullptr && tracer->enabled();
  }

  // Resolves the instruments in `reg`, pinning this bundle to `shard`.
  // `extra` labels distinguish co-hosted producers (e.g. {"router", "2"});
  // the same labels must be used when reading the series back.
  static LookupObs bind(MetricRegistry& reg, std::size_t shard,
                        Tracer* tracer = nullptr, const Labels& extra = {});
};

// Per-worker pipeline-level counters, fed by Worker once per batch.
struct WorkerObs {
  CounterCell* packets = nullptr;
  CounterCell* batches = nullptr;

  bool enabled() const { return packets != nullptr; }

  static WorkerObs bind(MetricRegistry& reg, std::size_t shard,
                        const Labels& extra = {});
};

// Control-plane instruments for the epoch-versioned publication scheme
// (rib::VersionedTables). All cells live on the updater thread's shard:
// publication is single-threaded by design, so no per-worker sharding is
// needed — but the bundle keeps the bind-once discipline so the swap path
// never takes the registry mutex.
struct ChurnObs {
  CounterCell* swaps = nullptr;          // versions published
  CounterCell* full_rebuilds = nullptr;  // publishes past the churn threshold
  CounterCell* retired_validated = nullptr;  // check::validate runs (debug)
  Gauge* live_seq = nullptr;             // sequence number of the live version
  // Delta apply + build, per publish, one series per side: local
  // (receiver-table) publishes rebuild the suite and take milliseconds,
  // neighbor (sender-table) publishes only touch clue entries and take a
  // fraction of that — one shared histogram put its p50 on the seam.
  Histogram* apply_local_ns = nullptr;     // rib_version_apply_ns{side="local"}
  Histogram* apply_neighbor_ns = nullptr;  // ...{side="neighbor"}
  Histogram* grace_ns = nullptr;         // grace-period wait, per publish
  std::size_t shard = 0;

  bool enabled() const { return swaps != nullptr; }

  static ChurnObs bind(MetricRegistry& reg, std::size_t shard = 0,
                       const Labels& extra = {});
};

// Per-datapath-shard counters for the wire daemon (src/netio/): datagram
// ingress/egress, the decode/drop taxonomy, and the differential-oracle
// mismatch count. Per-peer breakouts (netio_peer_{rx,tx}_packets_total,
// labelled by the wire header's source id on rx and by the configured
// next-hop peer on tx) are bound by the datapath itself — the peer set is
// config-dependent, so the bundle cannot fix it here.
struct NetioObs {
  CounterCell* rx_packets = nullptr;   // datagrams that decoded cleanly
  CounterCell* rx_bytes = nullptr;
  CounterCell* tx_packets = nullptr;   // datagrams re-emitted toward a peer
  CounterCell* tx_bytes = nullptr;
  CounterCell* delivered = nullptr;    // routed, but no peer: this hop sinks
  CounterCell* decode_errors = nullptr;
  CounterCell* no_route = nullptr;     // lookup found no BMP
  CounterCell* ttl_expired = nullptr;
  CounterCell* send_errors = nullptr;
  CounterCell* oracle_mismatch = nullptr;  // port result != engine BMP
  std::size_t shard = 0;

  bool enabled() const { return rx_packets != nullptr; }

  static NetioObs bind(MetricRegistry& reg, std::size_t shard,
                       const Labels& extra = {});
};

// Publishes a quiesced AccessCounter into the mem_accesses_total{region=...}
// family (control-plane: called after the pipeline joined, or by
// single-threaded drivers at end of run).
void publishAccessCounter(MetricRegistry& reg,
                          const mem::AccessCounter& counter,
                          const Labels& extra = {});

}  // namespace cluert::obs
