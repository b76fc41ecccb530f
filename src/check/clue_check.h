// FD/Ptr consistency validators for the clue tables (§3.1.1), for both
// Simple and Advance analysis.
//
// Every active entry is re-derived from scratch with ClueAnalyzer against
// the receiver's reference trie t2 (and, for Advance, the sender's table t1
// — the R1 side of Claim 1 / condition C1) and compared field by field.
//
// Invariant catalogue (see DESIGN.md "Verification"):
//   fd-mismatch              stored FD != best matching prefix of the clue
//                            string in t2 (§3.1.1 "FD")
//   claim1-empty-ptr         Ptr is empty although the C1 candidate set
//                            P(clue, R1) is non-empty — Claim 1 does NOT
//                            hold, so an FD answer can misroute packets
//                            whose BMP extends the clue (the unsound
//                            direction)
//   ptr-not-empty            Ptr is non-empty although no longer match can
//                            exist (Claim 1 holds) — the wasteful direction
//   cont-clue-mismatch       the continuation was built for another clue
//   dangling-trie-anchor     Ptr names a binary-trie vertex that is not the
//                            clue's vertex in t2
//   dangling-patricia-anchor Ptr names a Patricia node that is not
//                            descendAnchor(clue)
//   dangling-ptr             Ptr is non-empty but carries no continuation
//                            state at all (no anchor, no candidate set)
//   candidate-count-mismatch stored |P| differs from the recomputed C1 set
//   candidate-set (merged)   the per-clue segment table disagrees with the
//                            recomputed C1 candidate set (see
//                            segment_check.h ids)
//   probe-chain-broken       (hash table only) a valid entry is unreachable
//                            from its home slot — an invalid slot interrupts
//                            the open-addressing probe sequence, so lookups
//                            silently miss (§3.4 is why entries are marked
//                            inactive instead of removed)
//   size-mismatch            (hash table only) stored size != valid slots
//
// Slot encoding (checked on every valid slot, active or not, before it is
// decoded — see core::ClueSlot):
//   fd-longer-than-clue      the FD length exceeds the clue length (the FD
//                            is the clue's BMP, so it is one of its prefixes)
//   case3-cont-mismatch      the case bits say case 3 but the Ptr names no
//                            continuation, or a continuation hangs off a
//                            case-1/2 slot
//   ptr-flag-mismatch        the Ptr-empty flag disagrees with whether the
//                            slot names a continuation (the data plane
//                            would read a continuation that is not there)
//   cont-index-out-of-range  the Ptr indexes past the continuation vector
#pragma once

#include <optional>
#include <string>
#include <type_traits>

#include "check/report.h"
#include "check/segment_check.h"
#include "core/clue_analyzer.h"
#include "core/clue_table.h"
#include "trie/binary_trie.h"
#include "trie/patricia_trie.h"

namespace cluert::check {

namespace detail {

template <typename A>
std::string describeMatch(const std::optional<trie::Match<A>>& m) {
  if (!m) return "(none)";
  return m->prefix.toString() + "->" + std::to_string(m->next_hop);
}

// Validates one entry against the freshly recomputed analysis. `patricia`
// may be null when the router has no Patricia structure to check anchors
// against.
template <typename A>
void checkClueEntry(const core::ClueEntry<A>& e,
                    const trie::BinaryTrie<A>& t2,
                    const trie::BinaryTrie<A>* t1,
                    const trie::PatriciaTrie<A>* patricia, Report& report) {
  const std::string clue = e.clue.toString();
  const core::ClueAnalyzer<A> analyzer(t2, t1);
  const core::ClueAnalysis<A> a = t1 != nullptr
                                      ? analyzer.analyzeAdvance(e.clue)
                                      : analyzer.analyzeSimple(e.clue);

  const auto expected_fd = t2.longestMarkedAtOrAbove(e.clue);
  if (e.fd != expected_fd) {
    report.add("ClueTable", "fd-mismatch",
               clue + ": stored FD " + describeMatch<A>(e.fd) + " vs table " +
                   describeMatch<A>(expected_fd));
  }

  const bool search_needed = a.kase == core::ClueCase::kSearch;
  if (e.ptr_empty && search_needed) {
    report.add("ClueTable", "claim1-empty-ptr",
               clue + ": Ptr is empty but " +
                   std::to_string(a.candidates.size()) +
                   " C1 candidates extend the clue (Claim 1 violated)");
  }
  if (!e.ptr_empty && !search_needed) {
    report.add("ClueTable", "ptr-not-empty",
               clue + ": Ptr set although no longer match can exist");
  }
  if (e.ptr_empty) return;

  // Ptr consistency: whatever continuation state the engine stored must
  // belong to this clue and this table.
  const lookup::Continuation<A>& c = e.cont;
  if (c.clue != e.clue) {
    report.add("ClueTable", "cont-clue-mismatch",
               clue + ": continuation built for " + c.clue.toString());
  }
  if (c.trie_anchor != nullptr && c.trie_anchor != t2.findVertex(e.clue)) {
    report.add("ClueTable", "dangling-trie-anchor",
               clue + ": Ptr names vertex " + c.trie_anchor->prefix.toString() +
                   " which is not the clue's vertex");
  }
  if (patricia != nullptr && c.patricia_anchor != nullptr &&
      c.patricia_anchor != patricia->descendAnchor(e.clue)) {
    report.add("ClueTable", "dangling-patricia-anchor",
               clue + ": Ptr names Patricia node " +
                   c.patricia_anchor->prefix.toString() +
                   " which is not the clue's descend anchor");
  }
  const bool has_state = c.trie_anchor != nullptr ||
                         c.patricia_anchor != nullptr ||
                         c.candidates != nullptr ||
                         c.max_len > c.clue.length() ||
                         c.stride_anchor != nullptr;
  if (!has_state) {
    report.add("ClueTable", "dangling-ptr",
               clue + ": Ptr is non-empty but carries no continuation state");
  }
  if (c.candidates != nullptr) {
    if (c.candidate_count != a.candidates.size()) {
      report.add("ClueTable", "candidate-count-mismatch",
                 clue + ": stored |P| = " + std::to_string(c.candidate_count) +
                     " vs recomputed " + std::to_string(a.candidates.size()));
    }
    report.merge(
        validateAgainst<A>(*c.candidates, a.candidates, e.clue.rangeLow()));
  }
}

// The encoding invariants of one valid slot of a table whose continuation
// vector has `continuation_slots` entries.
template <typename A>
void checkClueSlot(const core::ClueSlot<A>& s, std::size_t continuation_slots,
                   Report& report) {
  const std::string clue = s.clue().toString();
  if (s.fd_len > s.len) {
    report.add("ClueTable", "fd-longer-than-clue",
               clue + ": FD length " + std::to_string(s.fd_len));
  }
  const bool has_cont = s.cont != core::kNoContinuation;
  if ((s.kase() == core::ClueCase::kSearch) != has_cont) {
    report.add("ClueTable", "case3-cont-mismatch",
               clue + (has_cont ? ": continuation on a case-1/2 slot"
                                : ": case-3 slot without a continuation"));
  }
  if (s.ptrEmpty() == has_cont) {
    report.add("ClueTable", "ptr-flag-mismatch",
               clue + (has_cont ? ": Ptr marked empty but names continuation " +
                                      std::to_string(s.cont)
                                : ": Ptr marked non-empty but names nothing"));
  }
  if (has_cont && s.cont >= continuation_slots) {
    report.add("ClueTable", "cont-index-out-of-range",
               clue + ": Ptr " + std::to_string(s.cont) + " of " +
                   std::to_string(continuation_slots) + " continuations");
  }
}

}  // namespace detail

// Validates every active entry of a hash clue table plus the open-addressing
// structure itself. `t1` null selects Simple analysis; non-null, Advance
// against that sender table. `patricia` (optional) enables the
// Patricia-anchor check.
template <typename A>
Report validate(const core::HashClueTable<A>& table,
                const trie::BinaryTrie<A>& t2,
                std::type_identity_t<const trie::BinaryTrie<A>*> t1 = nullptr,
                const trie::PatriciaTrie<A>* patricia = nullptr) {
  Report report;
  std::size_t valid_slots = 0;
  for (std::size_t i = 0; i < table.bucketCount(); ++i) {
    const core::ClueSlot<A>& s = table.slotAt(i);
    if (!s.valid()) continue;
    ++valid_slots;
    const ip::Prefix<A> clue = s.clue();
    // Probe-chain integrity: walking from the entry's home slot must reach
    // slot i before any invalid slot ends the probe.
    bool reachable = false;
    std::size_t j = table.homeSlot(clue);
    for (std::size_t n = 0; n < table.bucketCount(); ++n) {
      if (j == i) {
        reachable = true;
        break;
      }
      if (!table.slotAt(j).valid()) break;
      j = (j + 1) % table.bucketCount();
    }
    if (!reachable) {
      report.add("ClueTable", "probe-chain-broken",
                 clue.toString() + " in slot " + std::to_string(i) +
                     " is unreachable from home slot " +
                     std::to_string(table.homeSlot(clue)));
    }
    detail::checkClueSlot<A>(s, table.continuationSlots(), report);
    if (s.active()) {
      detail::checkClueEntry<A>(table.decode(s), t2, t1, patricia, report);
    }
  }
  if (valid_slots != table.size()) {
    report.add("ClueTable", "size-mismatch",
               std::to_string(valid_slots) + " valid slots vs stored size " +
                   std::to_string(table.size()));
  }
  return report;
}

// Validates every active entry of an indexed clue table (§3.3.1 indexing
// technique). Slot placement is the sender's business (any slot may hold any
// clue), so only entry-level invariants apply.
template <typename A>
Report validate(const core::IndexedClueTable<A>& table,
                const trie::BinaryTrie<A>& t2,
                std::type_identity_t<const trie::BinaryTrie<A>*> t1 = nullptr,
                const trie::PatriciaTrie<A>* patricia = nullptr) {
  Report report;
  for (std::size_t i = 0; i < table.capacity(); ++i) {
    const core::ClueSlot<A>& s = table.slotAt(i);
    if (!s.valid()) continue;
    detail::checkClueSlot<A>(s, table.continuationSlots(), report);
    if (s.active()) {
      detail::checkClueEntry<A>(table.decode(s), t2, t1, patricia, report);
    }
  }
  return report;
}

}  // namespace cluert::check
