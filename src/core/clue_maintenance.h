// Clue maintenance (§3.4): the one rule that keeps a clue table correct when
// routes change — re-derive what a changed prefix affects, mark withdrawn
// clues out of use without breaking probe chains, recompute Claim 1 against
// the sender's new view. Every mutator calls it (CluePort's
// onLocalDelta / onNeighborDelta / invalidateClue / reactivateClue and
// VersionedTables::applyLocal / applyNeighbor), so the copies cannot drift.
// It takes whole rib::FibDeltas and runs on ClueSlotStore, so the hash and
// the indexed table share it. DESIGN.md §7 has the rationale.
#pragma once

#include "core/clue_analyzer.h"
#include "core/clue_table.h"
#include "lookup/factory.h"
#include "rib/fib_diff.h"

namespace cluert::core {

// Control-plane entry construction (procedure new-clue of Figure 5): what
// every clue table — port-owned, versioned or multi-neighbor — stores for
// `clue` against the receiver's `suite` and, under Advance, the sender's
// prefix view `neighbor_trie`.
template <typename A>
ClueEntry<A> buildClueEntry(const lookup::LookupSuite<A>& suite,
                            const trie::BinaryTrie<A>* neighbor_trie,
                            lookup::Method method, lookup::ClueMode mode,
                            const ip::Prefix<A>& clue) {
  const ClueAnalyzer<A> analyzer(suite.binaryTrie(), neighbor_trie);
  const ClueAnalysis<A> a = mode == lookup::ClueMode::kAdvance
                                ? analyzer.analyzeAdvance(clue)
                                : analyzer.analyzeSimple(clue);
  ClueEntry<A> e;
  e.clue = clue;
  e.valid = true;
  e.fd = a.fd;
  e.kase = a.kase;
  e.claim1_pruned = a.claim1_pruned;
  if (a.kase == ClueCase::kSearch) {
    e.ptr_empty = false;
    e.cont = suite.engine(method).makeContinuation(clue, a.candidates);
  }
  return e;
}

// A clue entry depends on `changed` iff one is a prefix of the other (FDs
// look up the clue's path; candidate sets and Claim 1 look down its
// subtree).
template <typename A>
bool related(const ip::Prefix<A>& clue, const ip::Prefix<A>& changed) {
  return clue.isPrefixOf(changed) || changed.isPrefixOf(clue);
}

// The tables one router keeps for one incoming link, and what re-deriving
// their entries needs. A short-lived view: callers build one per update.
template <typename A>
struct ClueMaintainer {
  using PrefixT = ip::Prefix<A>;

  lookup::LookupSuite<A>& suite;  // the receiver's, already updated
  const trie::BinaryTrie<A>* neighbor_trie;  // sender's view; Advance only
  lookup::Method method;
  lookup::ClueMode mode;
  NeighborIndex neighbor_index;
  HashClueTable<A>& hash;
  IndexedClueTable<A>* indexed;  // null when there is no indexed table

  ClueEntry<A> build(const PrefixT& clue) const {
    return buildClueEntry(suite, neighbor_trie, method, mode, clue);
  }

  // Receiver side: `suite` has applied `d` (LookupSuite::applyRouteDelta).
  // An entry related to a changed prefix gets a new FD or candidate set.
  // Continuation anchors survive the update for every method but kStride
  // (tries patch in place, candidate tables are entry-owned, kLogW keeps a
  // length): the engine rebuild frees the nodes a kStride entry anchors, so
  // there *every* case-3 entry is re-derived — a stale anchor is a
  // use-after-free. Elsewhere a refresh stays O(delta + related entries).
  void onLocalDelta(const rib::FibDelta<A>& d) {
    const bool anchors_dangle = method == lookup::Method::kStride;
    refresh([&](const ClueSlot<A>& s) {
      return (anchors_dangle && s.kase() == ClueCase::kSearch) ||
             relatedToAny(s.clue(), d, /*rerouted=*/true);
    });
  }

  // Sender side: `neighbor_trie` has applied `d`. Withdrawn clues go out of
  // use (kept in place: removal would break open-addressing probe chains);
  // announced clues get fresh, active entries in the hash table — the
  // indexed table learns them on first use (§3.3.1), since only the sender
  // knows their index. Under Advance the Claim-1 continue bits are
  // recomputed once and every entry whose pruning looks at a changed
  // prefix is re-derived. A reroute moves no sender prefix, so Claim 1
  // does not see it.
  void onNeighborDelta(const rib::FibDelta<A>& d) {
    const bool advance = mode == lookup::ClueMode::kAdvance;
    if (advance) suite.annotateNeighbor(neighbor_index, *neighbor_trie);
    for (const PrefixT& p : d.removed) markClue(p, false);
    for (const auto& e : d.added) {
      ClueEntry<A> fresh = build(e.prefix);
      if (!hash.update(fresh)) hash.insert(std::move(fresh));
    }
    if (advance) {
      refresh([&](const ClueSlot<A>& s) {
        return relatedToAny(s.clue(), d, /*rerouted=*/false);
      });
    }
  }

  // §3.4 marking of every slot holding `clue`: out of use, or back in use
  // re-derived (the tables may have moved on since it went inactive).
  // Returns whether any slot holds it.
  bool markClue(const PrefixT& clue, bool active) {
    const auto holds = [&](const ClueSlot<A>& s) { return s.holds(clue); };
    bool found = hash.setActive(clue, active);
    if (indexed != nullptr) found |= indexed->setActiveIf(holds, active) > 0;
    if (found && active) refresh(holds);
    return found;
  }

 private:
  static bool relatedToAny(const PrefixT& clue, const rib::FibDelta<A>& d,
                           bool rerouted) {
    for (const PrefixT& p : d.removed) {
      if (related(clue, p)) return true;
    }
    for (const auto& e : d.added) {
      if (related(clue, e.prefix)) return true;
    }
    if (rerouted) {
      for (const auto& e : d.rerouted) {
        if (related(clue, e.prefix)) return true;
      }
    }
    return false;
  }

  // Re-derives every valid slot `stale` selects, in both tables; each slot
  // keeps its §3.4 marking. One rebuild lambda per table on purpose: it
  // makes each sweep its own refreshIf instantiation, which GCC inlines
  // here; one shared instantiation stays out of line and scans a 20k-entry
  // table ~40% slower.
  template <typename Stale>
  void refresh(const Stale& stale) {
    hash.refreshIf(stale, [&](const PrefixT& clue) { return build(clue); });
    if (indexed != nullptr) {
      indexed->refreshIf(stale,
                         [&](const PrefixT& clue) { return build(clue); });
    }
  }
};

}  // namespace cluert::core
