// CluePort: the receiving half of distributed IP lookup (§3) for one
// incoming link — the clue table plus the decision logic of Figure 5,
// parameterised by base method (§4) and clue mode (Simple / Advance).
//
// The sender half is trivial by design (attach the length of the BMP you
// just found); ClueIndexer below implements the only stateful part of it,
// the §3.3.1 clue enumeration for the indexing technique.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>

#include "core/clue.h"
#include "core/clue_analyzer.h"
#include "core/clue_cache.h"
#include "core/clue_maintenance.h"
#include "core/clue_table.h"
#include "lookup/factory.h"
#include "obs/hooks.h"
#include "common/check.h"

namespace cluert::core {

// ---------------------------------------------------------------------------
// Sender side: clue enumeration for the indexing technique (§3.3.1).
// ---------------------------------------------------------------------------
template <typename A>
class ClueIndexer {
 public:
  using PrefixT = ip::Prefix<A>;

  // Index for `clue`, assigning the next sequential index on first use.
  // Returns nullopt once 64K clues have been enumerated (the paper's bound).
  std::optional<std::uint16_t> indexOf(const PrefixT& clue) {
    auto it = map_.find(clue);
    if (it != map_.end()) return it->second;
    if (next_ > kMaxClueIndex) return std::nullopt;
    const auto idx = static_cast<std::uint16_t>(next_++);
    map_.emplace(clue, idx);
    return idx;
  }

  std::size_t size() const { return map_.size(); }

 private:
  std::unordered_map<PrefixT, std::uint16_t> map_;
  std::uint32_t next_ = 0;
};

// ---------------------------------------------------------------------------
// Receiver side.
// ---------------------------------------------------------------------------
template <typename A>
class CluePort {
 public:
  using PrefixT = ip::Prefix<A>;
  using MatchT = trie::Match<A>;

  struct Options {
    lookup::Method method = lookup::Method::kPatricia;
    lookup::ClueMode mode = lookup::ClueMode::kAdvance;
    bool indexed = false;  // §3.3.1 indexing technique instead of hashing
    bool learn = true;     // learn entries on the fly (§3.3.1)
    NeighborIndex neighbor_index = 0;
    std::size_t expected_clues = 1 << 10;
    std::size_t indexed_capacity = std::size_t{kMaxClueIndex} + 1;
    // §3.5: entries of a fast-memory cache in front of the hash table
    // (0 disables). A cache hit costs zero DRAM accesses.
    std::size_t cache_entries = 0;
  };

  // Aggregate behaviour counters for the experiments.
  struct Stats {
    std::uint64_t packets = 0;
    std::uint64_t no_clue = 0;       // packet carried no clue: common lookup
    std::uint64_t table_hits = 0;
    std::uint64_t table_misses = 0;  // learned (or not) via common lookup
    std::uint64_t fd_direct = 0;     // answered by FD, Ptr empty
    std::uint64_t searched = 0;      // case-3 continuation ran
    std::uint64_t search_failed = 0; // continuation fell back to FD
  };

  // `mode` kSimple needs no neighbor table; kAdvance requires one (Claim 1
  // consults the sender's prefixes — in deployment this knowledge rides on
  // the routing protocol exchange, §5.3).
  CluePort(lookup::LookupSuite<A>& local,
           const trie::BinaryTrie<A>* neighbor_trie, const Options& options)
      : options_(options),
        local_(&local),
        suite_(&local),
        neighbor_trie_(neighbor_trie),
        hash_(options.expected_clues),
        indexed_(options.indexed ? options.indexed_capacity : 0),
        cache_(options.cache_entries) {
    CLUERT_CHECK(options.mode != lookup::ClueMode::kCommon)
        << "CluePort models the clue-assisted modes; use the engine directly "
           "for Common lookups";
    if (options.mode == lookup::ClueMode::kAdvance) {
      CLUERT_CHECK(neighbor_trie != nullptr)
          << "Advance requires the neighbor's prefix view (Claim 1)";
      local.annotateNeighbor(options.neighbor_index, *neighbor_trie);
    }
  }

  // Unbound construction for the epoch-versioned data plane: the port owns
  // only per-worker state (cache, stats, scratch) and borrows suite + clue
  // table from a published TableVersion via bindVersion() — which MUST run
  // before the first packet. No annotation happens here: versions arrive
  // fully built (and must not be mutated).
  explicit CluePort(const Options& options)
      : options_(options),
        hash_(options.expected_clues),
        indexed_(options.indexed ? options.indexed_capacity : 0),
        cache_(options.cache_entries) {
    CLUERT_CHECK(options.mode != lookup::ClueMode::kCommon)
        << "CluePort models the clue-assisted modes; use the engine directly "
           "for Common lookups";
  }

  // Rebinds the data plane to an immutable published version: `suite` and
  // `clues` are read-only from here on (lookups probe `clues` instead of the
  // port-owned table; learning into the shared table is disabled — a miss
  // routes by common lookup, §3.3.1's safe path). The per-worker §3.5 cache
  // is version-stamped, so entries filled under another version are stale by
  // construction and never served across a swap. O(1); called once per
  // pinned PacketBatch.
  void bindVersion(std::uint64_t seq, const lookup::LookupSuite<A>& suite,
                   const HashClueTable<A>& clues,
                   const trie::BinaryTrie<A>* neighbor_trie) {
    suite_ = &suite;
    shared_hash_ = &clues;
    neighbor_trie_ = neighbor_trie;
    cache_.setVersion(seq);
    bound_seq_ = seq;
  }

  // The version currently bound (0 when the port runs unversioned).
  std::uint64_t boundVersion() const { return bound_seq_; }
  bool versionBound() const { return shared_hash_ != nullptr; }

  // Pre-processing construction (§3.3.2): install entries for every clue the
  // neighbor may send.
  void precompute(std::span<const PrefixT> clues) {
    for (const PrefixT& c : clues) {
      hash_.insert(makeEntry(c));
    }
  }

  // Indexed variant of precompute: the sender's enumeration fixes the slots.
  void precomputeIndexed(std::span<const PrefixT> clues,
                         ClueIndexer<A>& indexer) {
    CLUERT_CHECK(options_.indexed)
        << "precomputeIndexed on a port built without the indexing technique";
    for (const PrefixT& c : clues) {
      if (auto idx = indexer.indexOf(c)) indexed_.put(*idx, makeEntry(c));
    }
  }

  struct Result {
    std::optional<MatchT> match;
    bool table_hit = false;
    bool used_fd = false;
    bool searched = false;
    // Observability classification (§3.1.2 case, Claim-1 attribution,
    // continuation fallback). Filled on every path; reading it costs nothing
    // when no obs sink is attached.
    obs::Outcome outcome = obs::Outcome::kNoClue;
    bool claim1_skip = false;
    bool search_failed = false;
  };

  // The per-packet fast path (Figure 5). `dest` is the destination address,
  // `field` the clue bits from the header. All data-plane memory accesses
  // are charged to `acc`. A batch of one.
  Result process(const A& dest, const ClueField& field,
                 mem::AccessCounter& acc) {
    Result r;
    processBatch({&dest, 1}, {&field, 1}, {&r, 1}, acc);
    return r;
  }

  // Largest batch processBatch resolves in one pass (the pipeline's
  // kMaxBatch must be <= this; both are sized so the per-packet probe
  // state stays L1-resident).
  static constexpr std::size_t kMaxProcessBatch = 64;

  // Batched fast path: behaves exactly like process() called once per
  // packet (same results, same Stats, same acc charges — prefetches are
  // free in the access model). Phase 1 hashes every packet's clue once
  // (hash word + SWAR tag, kept in two stack arrays) and prefetches the
  // tag word and the home slot; phase 2 resolves the packets in order,
  // probing cache and table from that hash. By the time packet i is
  // resolved, its clue-table line has been in flight while packets i+1..
  // were hashed — memory-level parallelism a packet-at-a-time loop cannot
  // express. Everything that mutates port
  // state (§3.5 cache probes and fills, learning) happens in phase 2, in
  // packet order, which is what makes a batch equal its packets one by one.
  // This is the entry point the pipeline workers use.
  void processBatch(std::span<const A> dests, std::span<const ClueField> fields,
                    std::span<Result> out, mem::AccessCounter& acc) {
    CLUERT_CHECK(dests.size() == fields.size() && dests.size() == out.size())
        << dests.size() << " dests, " << fields.size() << " fields, "
        << out.size() << " out slots";
    if (dests.size() > kMaxProcessBatch) {
      const std::size_t half = dests.size() / 2;
      processBatch(dests.first(half), fields.first(half), out.first(half),
                   acc);
      processBatch(dests.subspan(half), fields.subspan(half),
                   out.subspan(half), acc);
      return;
    }
    const auto& engine = suite_->engine(options_.method);
    // One virtual query per batch, not one virtual no-op call per packet.
    const bool engine_prefetches = engine.prefetchCapable();
    const HashClueTable<A>& table = readTable();
    std::uint32_t hash[kMaxProcessBatch];
    std::uint8_t tag[kMaxProcessBatch];
    for (std::size_t i = 0; i < dests.size(); ++i) {
      const ClueField& f = fields[i];
      ClueProbeHint h;  // unused unless the packet probes the hash table
      if (f.present && f.length <= A::kBits) {
        if (options_.indexed && f.index) {
          indexed_.prefetch(*f.index);
        } else {
          h = HashClueTable<A>::hintFor(PrefixT(dests[i], f.length));
          // The tag word usually filters the probe down to the one slot
          // already in flight.
          table.prefetch(h);
        }
      }
      hash[i] = h.hash;
      tag[i] = h.tag;
      // A hit may still continue into the trie (case 3) and a miss falls
      // back to a full lookup; warming the first trie step costs nothing.
      if (engine_prefetches) engine.prefetchLookup(dests[i]);
    }
    const Phase2 p2{engine, table};
    // Observability is control-plane state (attachObs never runs while the
    // data plane does), so one test per batch selects the loop.
    if (!obs_.metricsEnabled() && !obs_.traceArmed()) {
      for (std::size_t i = 0; i < dests.size(); ++i) {
        resolve(out[i], dests[i], fields[i], {hash[i], tag[i]}, p2, acc);
      }
      return;
    }
    for (std::size_t i = 0; i < dests.size(); ++i) {
      resolveObserved(out[i], dests[i], fields[i], {hash[i], tag[i]}, p2, acc);
    }
  }

  // The clue-less path, for packets arriving without the option (§5.3
  // heterogeneous networks) and for the Common baseline.
  std::optional<MatchT> lookupNoClue(const A& dest,
                                     mem::AccessCounter& acc) const {
    return suite_->engine(options_.method).lookup(dest, acc);
  }

  // -- control plane: route updates and §3.4 marking ------------------------
  //
  // All of it is ClueMaintainer's one rule (core/clue_maintenance.h), run on
  // both port-owned tables. A version-bound port owns no tables it may
  // mutate: its updates flow through VersionedTables instead.

  // Call after the *receiver's* suite applied `d`
  // (LookupSuite::applyRouteDelta): every entry whose FD or candidate set
  // can depend on a changed prefix is recomputed in place.
  void onLocalDelta(const rib::FibDelta<A>& d) {
    ClueMaintainer<A> m = maintainer();
    if (d.empty()) return;
    cache_.clear();  // coarse but always safe
    m.onLocalDelta(d);
  }

  // Call after the *sender's* prefix view (the port's neighbor trie)
  // applied `d` (rib::applyDelta): withdrawn clues go inactive, announced
  // ones get entries, and under Advance Claim 1 follows the new view.
  void onNeighborDelta(const rib::FibDelta<A>& d) {
    ClueMaintainer<A> m = maintainer();
    if (d.empty()) return;
    cache_.clear();
    m.onNeighborDelta(d);
  }

  // §3.4: mark a clue out-of-use / back in use without removing it (probe
  // chains stay intact), in the hash and the indexed table alike. An
  // inactive entry behaves as a miss; a reactivated one is recomputed.
  bool invalidateClue(const PrefixT& clue) { return markClue(clue, false); }
  bool reactivateClue(const PrefixT& clue) { return markClue(clue, true); }

  const ClueCache<A>& cache() const { return cache_; }

  const Stats& stats() const { return stats_; }
  void resetStats() { stats_ = Stats{}; }

  const HashClueTable<A>& hashTable() const { return hash_; }
  const IndexedClueTable<A>& indexedTable() const { return indexed_; }
  const Options& options() const { return options_; }

  // Attaches pre-bound observability sinks (see obs/hooks.h). The bundle's
  // cells must outlive the port; a default-constructed bundle detaches.
  // Control-plane call — never invoke while the data plane is running.
  void attachObs(const obs::LookupObs& o) { obs_ = o; }
  const obs::LookupObs& observability() const { return obs_; }

  // Exposed for tests: the control-plane construction of one entry
  // (procedure new-clue of Figure 5).
  ClueEntry<A> makeEntry(const PrefixT& clue) const {
    return buildClueEntry(*suite_, neighbor_trie_, options_.method,
                          options_.mode, clue);
  }

 private:
  // The clue table the data plane probes: the version-bound shared table
  // when one is attached, the port-owned (learning) table otherwise.
  const HashClueTable<A>& readTable() const {
    return shared_hash_ != nullptr ? *shared_hash_ : hash_;
  }

  // What phase 2 shares across a batch: the engine and the probed table.
  struct Phase2 {
    const lookup::LookupEngine<A>& engine;
    const HashClueTable<A>& table;
  };

  // Phase 2 for one packet: rebuilds the clue from the destination and its
  // length, probes the §3.5 cache and the table from the phase-1 `hint`
  // (which survives the table growing under learning), and decides by
  // Figure 5, writing every field of `r` in place. The FD-direct hit — the
  // common case — stays inline; the other outcomes are out of line.
  void resolve(Result& r, const A& dest, const ClueField& field,
               ClueProbeHint hint, const Phase2& p2, mem::AccessCounter& acc) {
    ++stats_.packets;
    if (!field.present || field.length > A::kBits) {
      return noClue(r, dest, p2, acc);
    }
    const PrefixT clue(dest, field.length);
    const bool indexed = options_.indexed && field.index.has_value();
    const ClueSlot<A>* s = nullptr;
    if (indexed) {
      s = indexed_.at(*field.index, acc);
      if (s != nullptr && !(s->valid() && s->holds(clue))) s = nullptr;
    } else {
      // §3.5 cache: a fast-memory hit bypasses the DRAM probe entirely.
      s = cache_.lookup(clue, hint);
      if (s == nullptr) {
        s = p2.table.findFrom(hint, clue, acc);
        if (s != nullptr && s->active()) cache_.fill(hint, *s);
      }
    }
    if (s == nullptr || !s->active()) {  // §3.4 marking: inactive = miss
      return miss(r, dest, clue, field, p2, acc);
    }
    ++stats_.table_hits;
    if (!s->ptrEmpty()) {
      return search(r, dest, *s, indexed ? indexed_.continuation(*s)
                                         : p2.table.continuation(*s),
                    p2, acc);
    }
    ++stats_.fd_direct;
    r.match = s->fd();
    r.table_hit = true;
    r.used_fd = true;
    r.searched = false;
    r.outcome = s->kase() == ClueCase::kAbsent ? obs::Outcome::kCase1
                                               : obs::Outcome::kCase2;
    r.claim1_skip = s->claim1Pruned();
    r.search_failed = false;
  }

  // The packet carried no usable clue: common lookup.
  [[gnu::noinline]] void noClue(Result& r, const A& dest, const Phase2& p2,
                                mem::AccessCounter& acc) {
    ++stats_.no_clue;
    r = Result{p2.engine.lookup(dest, acc), false, false, false,
               obs::Outcome::kNoClue};
  }

  // "The Clue is not in the Table, never saw this clue": route by a full
  // common lookup, then learn the entry off the fast path (§3.3.1).
  [[gnu::noinline]] void miss(Result& r, const A& dest, const PrefixT& clue,
                              const ClueField& field, const Phase2& p2,
                              mem::AccessCounter& acc) {
    ++stats_.table_misses;
    r = Result{p2.engine.lookup(dest, acc), false, false, false,
               obs::Outcome::kMiss};
    if (options_.learn) learn(clue, field);
  }

  // Case 3: continue from the clue; the FD answers when nothing longer
  // matches.
  [[gnu::noinline]] void search(Result& r, const A& dest,
                                const ClueSlot<A>& s,
                                const lookup::Continuation<A>& cont,
                                const Phase2& p2, mem::AccessCounter& acc) {
    ++stats_.searched;
    const auto neighbor =
        options_.mode == lookup::ClueMode::kAdvance
            ? std::optional<NeighborIndex>(options_.neighbor_index)
            : std::nullopt;
    if (auto found = p2.engine.continueLookup(cont, dest, neighbor, acc)) {
      r = Result{found, true, false, true, obs::Outcome::kCase3};
      return;
    }
    ++stats_.search_failed;
    r = Result{s.fd(), true, true, true, obs::Outcome::kCase3};
    r.search_failed = true;
  }

  // The instrumented resolve: counts the outcome family, observes the
  // per-lookup access delta, and — on the sampled 1-in-N lookups of a trace
  // build — snapshots the counter and the clock around the resolve to emit
  // a full TraceEvent. Forced out of line: inlined into the batch loop its
  // body (TraceEvent assembly, two AccessCounter copies) bloats the
  // per-packet loop enough to cost ~20% on *unobserved* trace-compiled
  // builds.
  [[gnu::noinline]] void resolveObserved(Result& r, const A& dest,
                                         const ClueField& field,
                                         ClueProbeHint hint, const Phase2& p2,
                                         mem::AccessCounter& acc) {
    const bool metrics = obs_.metricsEnabled();
    // shouldSample() must tick once per lookup while tracing is armed so the
    // 1-in-N pattern stays aligned with the packet stream.
    const bool sampled = obs_.traceArmed() && obs_.tracer->shouldSample();
    mem::AccessCounter before;
    std::uint64_t t0 = 0;
    if (sampled) {
      before = acc;
      t0 = obs::Tracer::nowNs();
    }
    const std::uint64_t total_before = metrics ? acc.total() : 0;
    resolve(r, dest, field, hint, p2, acc);
    if (metrics) {
      obs_.packets->inc();
      obs_.cases[static_cast<std::size_t>(r.outcome)]->inc();
      if (r.claim1_skip) obs_.claim1_skip->inc();
      if (r.search_failed) obs_.search_failed->inc();
      obs_.accesses->shard(obs_.shard).observe(acc.total() - total_before);
    }
    if (sampled) {
      const std::uint64_t t1 = obs::Tracer::nowNs();
      if (metrics) obs_.latency_ns->shard(obs_.shard).observe(t1 - t0);
      obs::TraceEvent e;
      e.start_ns = t0;
      e.dur_ns = static_cast<std::uint32_t>(t1 - t0);
      e.worker = obs_.tracer->worker();
      e.clue_len = field.present && field.length <= A::kBits
                       ? static_cast<std::int16_t>(field.length)
                       : std::int16_t{-1};
      e.mode = static_cast<std::uint8_t>(options_.mode);
      e.outcome = r.outcome;
      e.claim1_skip = r.claim1_skip;
      e.search_failed = r.search_failed;
      const mem::AccessCounter delta = acc - before;
      delta.forEachNonZero([&](mem::Region region, std::uint64_t n) {
        e.accesses[static_cast<std::size_t>(region)] =
            static_cast<std::uint16_t>(
                std::min<std::uint64_t>(n, 0xffff));
      });
      obs_.tracer->record(e);
    }
  }

  void learn(const PrefixT& clue, const ClueField& field) {
    // A version-bound port must not mutate the shared table (it is immutable
    // by contract and probed concurrently by other workers); misses already
    // routed correctly via the common lookup above.
    if (shared_hash_ != nullptr) return;
    ClueEntry<A> entry = makeEntry(clue);
    if (options_.indexed && field.index) {
      indexed_.put(*field.index, std::move(entry));
    } else {
      hash_.insert(std::move(entry));
    }
  }

  ClueMaintainer<A> maintainer() {
    CLUERT_CHECK(local_ != nullptr)
        << "clue maintenance on a version-bound port; updates flow through "
           "VersionedTables instead";
    return ClueMaintainer<A>{*local_,
                             neighbor_trie_,
                             options_.method,
                             options_.mode,
                             options_.neighbor_index,
                             hash_,
                             options_.indexed ? &indexed_ : nullptr};
  }

  bool markClue(const PrefixT& clue, bool active) {
    const bool found = maintainer().markClue(clue, active);
    if (found) cache_.clear();
    return found;
  }

  Options options_;
  // Control-plane suite this port may mutate (annotations, refreshes);
  // nullptr for version-bound ports, whose updates flow through
  // VersionedTables instead.
  lookup::LookupSuite<A>* local_ = nullptr;
  // The suite the data plane reads. Starts as local_, retargeted by
  // bindVersion() to the pinned TableVersion's suite.
  const lookup::LookupSuite<A>* suite_ = nullptr;
  // Non-null iff version-bound: the published (immutable) clue table the
  // data plane probes instead of hash_.
  const HashClueTable<A>* shared_hash_ = nullptr;
  std::uint64_t bound_seq_ = 0;
  const trie::BinaryTrie<A>* neighbor_trie_ = nullptr;
  HashClueTable<A> hash_;
  IndexedClueTable<A> indexed_;
  ClueCache<A> cache_;
  Stats stats_;
  obs::LookupObs obs_;
};

}  // namespace cluert::core
