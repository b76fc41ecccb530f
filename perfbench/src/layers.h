// Single-thread layer timings the benchmark takes around its own calls into
// the public functions of `core` and `lookup`, over a workload's own
// packets (fwd.cc; reused by wire.cc on the daemon's tables).
#pragma once

#include <memory>
#include <span>

#include "bench.h"
#include "core/distributed_lookup.h"
#include "rib/fib.h"

namespace perfbench {

// A lookup suite over `fib` with only the Patricia engine materialised —
// the one method every workload forwards with.
std::unique_ptr<cluert::lookup::LookupSuite<A>> buildSuite(
    const cluert::rib::Fib4& fib);

// A CluePort configured like a pipeline worker's or a datapath's: Patricia,
// `mode`, no learning (the table is precomputed or version-bound).
cluert::core::CluePort<A>::Options portOptions(cluert::lookup::ClueMode mode,
                                               std::size_t expected_clues);

// accesses_per_pkt and mem.accesses_per_pkt.<region> over `packets`.
void reportAccesses(const cluert::mem::AccessCounter& acc, double packets,
                    Result& r);

// core.<path>_share from merged CluePort counters over `packets`.
void reportShares(std::uint64_t fd_direct, std::uint64_t searched,
                  std::uint64_t search_failed, std::uint64_t table_misses,
                  double packets, Result& r);

struct CoreTimes {
  double resolve_ns = 0;       // CluePort::processBatch, all packets
  double probe_ns = 0;         // HashClueTable::find of each packet's clue
  double fd_ns = 0;            // processBatch over the FD-direct subset
  double continuation_ns = 0;  // processBatch over the searched subset
  double common_ns = 0;        // engine(method).lookup, no clue
};

// `port` must be ready to resolve (precomputed, or bound to a version);
// `table` is the clue table it probes; `engine` the no-clue baseline. Each
// figure is the median over repeated passes.
CoreTimes measureCore(cluert::core::CluePort<A>& port,
                      const cluert::core::HashClueTable<A>& table,
                      const cluert::lookup::LookupEngine<A>& engine,
                      std::span<const A> dests,
                      std::span<const cluert::core::ClueField> clues);

// Writes the core.* timings and lookup.common/clue_speedup into `r`.
void reportCore(const CoreTimes& t, Result& r);

}  // namespace perfbench
