// PacketBatch: the unit of work a pipeline shard resolves.
//
// Software routers do not forward one packet at a time: per-packet costs
// (indirect calls, version pinning, cold caches) are amortised over a
// *batch* — a small frame of packet descriptors resolved as one unit, the
// same trick DPDK-style frameworks use. A batch is also the window over
// which the lookup layer overlaps memory accesses (CluePort::processBatch /
// LookupEngine::lookupBatch): with 32 packets in hand, 32 clue-table lines
// can be in flight from DRAM at once, which is how the paper's "one memory
// access per packet" turns into line-rate forwarding on a general-purpose
// CPU.
//
// Layout is structure-of-arrays: destinations, clues and stream positions
// live in three separate cache-line-aligned arrays rather than interleaved
// per-packet structs. The worker hands dests()/clues() spans STRAIGHT to
// CluePort::processBatch — no per-packet gather copy on the hot path — and
// the prepare loop streams through densely packed same-typed values instead
// of striding over padded slots.
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/types.h"
#include "core/clue.h"
#include "common/check.h"

namespace cluert::pipeline {

// Hard upper bound on packets per batch (the pipeline's configurable
// batch_size must be <= this). 64 keeps a frame around 2 KB and matches the
// interleave window of BitTrieLookup::lookupBatch.
inline constexpr std::size_t kMaxBatch = 64;

// The default — 32 packets is the sweet spot batching literature converges
// on: large enough to hide a DRAM round-trip behind the batch, small enough
// not to blow per-worker latency or L1 residency.
inline constexpr std::size_t kDefaultBatch = 32;

// A fixed-capacity inline frame of packets in SoA layout, owned by one
// worker shard and refilled in place run after run.
//
// Stream positions are 32-bit: a single run() streams at most 2^32 packets,
// which Pipeline::run checks at the rim. Half the seq footprint per slot is
// what keeps the whole frame within two cache lines per array.
template <typename A>
class alignas(64) PacketBatch {
 public:
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // The shard filter: appends the packets of in[from, ...) that `keep`
  // accepts until the batch holds `limit` packets or the input ends, and
  // returns the first index it did not scan. Every packet is written into
  // the next free slot and kept — the count advanced — only when
  // keep(dest): branch-free, so a shard scanning an interleaved stream pays
  // no misprediction for the packets it skips (a skipped packet's slot is
  // overwritten by the next one). The count stays in a register for the
  // whole scan; a member updated per packet would be reloaded after every
  // slot store, which may alias it.
  template <typename In, typename Keep>
  std::size_t fill(std::span<const In> in, std::size_t from,
                   std::size_t limit, Keep&& keep) {
    CLUERT_DCHECK(limit <= kMaxBatch) << "limit " << limit;
    std::size_t n = size_;
    std::size_t i = from;
    for (; n < limit && i < in.size(); ++i) {
      dests_[n] = in[i].dest;
      clues_[n] = in[i].clue;
      seqs_[n] = static_cast<std::uint32_t>(i);
      n += static_cast<std::size_t>(keep(in[i].dest));
    }
    size_ = static_cast<std::uint32_t>(n);
    return i;
  }

  void clear() { size_ = 0; }

  // The occupied prefixes, in the exact span types CluePort::processBatch
  // consumes — the worker resolves the batch in place.
  std::span<const A> dests() const { return {dests_.data(), size_}; }
  std::span<const core::ClueField> clues() const {
    return {clues_.data(), size_};
  }
  std::span<const std::uint32_t> seqs() const { return {seqs_.data(), size_}; }

 private:
  alignas(64) std::array<A, kMaxBatch> dests_;
  alignas(64) std::array<core::ClueField, kMaxBatch> clues_;
  alignas(64) std::array<std::uint32_t, kMaxBatch> seqs_;
  std::uint32_t size_ = 0;
};

}  // namespace cluert::pipeline
