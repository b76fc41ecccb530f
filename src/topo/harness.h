// The multi-router topology harness (DESIGN.md §12): replays one
// TopoScenario with a full versioned data plane per router — every (router,
// static-edge neighbor) port owns a rib::VersionedTables +
// pipeline::PinnedResolver stack, the RIP control plane's per-tick FIB and
// clue-view movements become FibDeltas fed through rib::RouteUpdater (only
// for tables that moved that tick), and packets hop router to router
// carrying the clue the previous hop stamped.
//
// A burst of `count` copies travels in chunks of up to
// pipeline::kDefaultBatch copies; a chunk crosses each hop as ONE
// PinnedResolver::resolve (one pin, one rebind, one processBatch). Its
// copies share source, destination and entry clue, so they must resolve
// identically — a CLUERT_CHECK holds them to it — and the chunk moves as a
// unit, every counter advancing by its size.
//
// The oracle runs per copy, per hop, inside the resolver's under_guard
// while the pin is held (the same rule the netio datapath follows — an
// unpinned check could race a swap):
//   * brute-force BMP over the pinned version's local table must agree with
//     the port's answer whenever the fault matrix says strict;
//   * the carried clue is classified by brute-force BMP over the pinned
//     version's neighbor view (the Fib, not the trie Advance's Claim-1
//     annotation reads): absent -> kNoClue, matching BMP -> kNone,
//     anything else -> kStale (the view lags the sender by the control
//     plane's message delay, so convergence windows produce genuine stale
//     clues);
//   * Advance-mode stale divergences are counted, never fatal —
//     misrouted-but-safe, exactly the §3.1.2 robustness contract — while
//     Simple mode is held strict under every clue.
// check/ validators run on every retired publish (validate_retired) and on
// every live version at the end of the run.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "check/report.h"
#include "topo/rip.h"
#include "topo/scenario.h"

namespace cluert::topo {

struct HarnessOptions {
  // Run the full check/ validation suite on every retired publish and on
  // each final live version. Expensive; tests keep it on, bench turns it
  // off for the big packet counts.
  bool validate_publishes = true;
  std::size_t cache_entries = 64;  // per-port §3.5 clue cache
  int packet_ttl = 64;
  RipOptions rip;
};

struct HarnessStats {
  static constexpr std::size_t kMaxHopBuckets = 16;  // last bucket = 15+

  std::uint64_t injected = 0;
  std::uint64_t forwarded_hops = 0;  // successful hop transitions
  std::uint64_t delivered = 0;
  std::uint64_t no_route_drops = 0;
  std::uint64_t down_link_drops = 0;  // FIB pointed across a dead link
  std::uint64_t ttl_drops = 0;

  std::uint64_t strict_mismatches = 0;  // must be 0 for ok()
  std::uint64_t stale_clue_hops = 0;
  std::uint64_t stale_during_convergence = 0;
  // Window attribution: staleness inside a convergence window opened (or
  // extended) by a link event / a withdraw. A window can carry both flags.
  // These are what the corpus-hunt predicates key on — they tie a repro's
  // staleness to the transient kind it claims to pin down, so the shrinker
  // cannot reduce away the flap or the withdraw.
  std::uint64_t stale_during_flap = 0;
  std::uint64_t stale_during_withdraw = 0;
  std::uint64_t advance_stale_divergences = 0;  // misrouted-but-safe
  std::uint64_t case1_hits = 0;
  std::array<std::uint64_t, kMaxHopBuckets> lookups_by_hop{};
  std::array<std::uint64_t, kMaxHopBuckets> case1_by_hop{};

  std::uint64_t publishes = 0;
  std::uint64_t version_changes = 0;
  std::uint64_t rip_messages = 0;
  std::uint64_t link_flaps = 0;  // link-down events applied
  std::uint64_t unconverged_ticks = 0;
  std::vector<int> convergence_samples;  // ticks from event to converged

  check::Report check_report;
  std::string first_mismatch;  // human-readable detail of the first failure

  bool ok() const { return strict_mismatches == 0 && check_report.ok(); }
  // Nearest-rank percentile over convergence_samples (q in [0,1]); 0 when
  // no samples were recorded.
  int convergencePercentile(double q) const;
  std::string summary() const;
};

// Replays the scenario start to finish. Deterministic: same scenario, same
// stats (modulo latency counters the stats deliberately exclude).
HarnessStats runTopoScenario(const TopoScenario& s,
                             const HarnessOptions& opt = {});

}  // namespace cluert::topo
