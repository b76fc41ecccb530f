// The topology workload: 5-node ring flap storms replayed back to back by
// topo::runTopoScenario with the per-hop oracle on. Each storm flaps a link
// every 25 ticks (every 8th flap also withdraws and re-advertises a /24)
// while every router injects bursts toward every other router's block, so
// hop distances span the ring. topo and its RIP control plane do the work;
// the in-process pipeline, rib churn generator and netio are idle.
#include <algorithm>
#include <string>

#include "ledger.h"
#include "bench.h"
#include "topo/harness.h"
#include "topo/scenario.h"

namespace perfbench {

using namespace cluert;

namespace {

constexpr std::size_t kNodes = 5;
// Short storms (about a second each here), so a run has a few dozen of
// them for the sustained rate to read.
constexpr int kTicks = 400;
constexpr int kFlapEvery = 25;
// Packets per router per injection tick. A tick whose RIP state changed
// flushes every port's RouteUpdater (cross-thread wake-ups), and on a
// shared VM a wake-up costs far more, and far more variably, than a hop;
// bursts sixteen times bench_topo's keep the storm dominated by forwarding
// work (at four times, hops/s fell by 35-55% under 15-18% host steal).
constexpr std::uint32_t kBurst = 2560;
constexpr int kSetupReps = 25;
// Long enough for RIP to converge the ring several times over, so thread
// start-up jitter is a small share of the figure.
constexpr int kSetupTicks = 512;

ip::Prefix4 routerBlock(RouterId r) {
  return ip::Prefix4(ip::Ip4Addr((10u << 24) | ((r + 1) << 16)), 16);
}

topo::TopoScenario baseScenario(std::uint64_t seed, int ticks) {
  topo::TopoScenario s;
  s.seed = seed;
  s.shape = topo::Shape::kRing;
  s.nodes = kNodes;
  s.mode = lookup::ClueMode::kAdvance;
  s.method = lookup::Method::kPatricia;
  s.ticks = ticks;
  for (RouterId r = 0; r < kNodes; ++r) {
    s.originate.push_back(topo::TopoOriginate{r, routerBlock(r)});
  }
  return s;
}

// One storm; `storm_seed` varies the flap phase and every destination.
topo::TopoScenario stormScenario(std::uint64_t storm_seed) {
  topo::TopoScenario s = baseScenario(storm_seed, kTicks);
  const topo::Topology t = s.topology();
  const int down_for = 10;
  const int first = 40 + static_cast<int>(storm_seed % 7);
  int k = static_cast<int>(storm_seed % t.links.size());
  for (int tick = first; tick + down_for + 20 < kTicks;
       tick += kFlapEvery, ++k) {
    const topo::Link& link = t.links[static_cast<std::size_t>(k) %
                                     t.links.size()];
    s.events.push_back(topo::TopoEvent{tick, topo::TopoEventKind::kLinkDown,
                                       link.a, link.b, {}});
    s.events.push_back(topo::TopoEvent{
        tick + down_for, topo::TopoEventKind::kLinkUp, link.a, link.b, {}});
    if (k % 8 == 3) {
      const RouterId r = static_cast<RouterId>(k % kNodes);
      const ip::Prefix4 sub(
          ip::Ip4Addr((10u << 24) | ((r + 1) << 16) | (0xc0u << 8)), 24);
      s.events.push_back(topo::TopoEvent{
          tick + 2, topo::TopoEventKind::kWithdraw, r, 0, sub});
      s.events.push_back(topo::TopoEvent{
          tick + down_for + 6, topo::TopoEventKind::kAdvertise, r, 0, sub});
    }
  }
  std::sort(s.events.begin(), s.events.end(),
            [](const topo::TopoEvent& a, const topo::TopoEvent& b) {
              return a.tick < b.tick;
            });
  Rng rng(storm_seed);
  for (int tick = 0; tick < kTicks; tick += 2) {
    for (RouterId r = 0; r < kNodes; ++r) {
      const RouterId owner = static_cast<RouterId>(
          (r + 1 + static_cast<std::size_t>(tick / 2) % (kNodes - 1)) %
          kNodes);
      const ip::Ip4Addr dest((10u << 24) | ((owner + 1) << 16) |
                             (rng.u32() & 0xffffu));
      s.packets.push_back(topo::TopoPacket{tick, r, dest, kBurst});
    }
  }
  return s;
}

topo::HarnessOptions harnessOptions() {
  topo::HarnessOptions o;
  // The per-hop oracle stays on; per-publish check/ validation is for the
  // tests (it would dominate a million-hop run).
  o.validate_publishes = false;
  return o;
}

struct StormPass {
  std::vector<double> hops_per_s, pps;
  std::uint64_t hops = 0, lookups = 0, case1 = 0;
  std::uint64_t rip_messages = 0, publishes = 0, version_changes = 0;
  std::uint64_t stale = 0, strict = 0;
  std::vector<double> convergence;
};

// Storms for `seconds` of wall time, and until there are kMinWindows storms
// and `min_convergence` convergence samples.
StormPass runStorms(std::uint64_t seed, std::uint64_t& storm_index,
                    double seconds, std::size_t min_convergence, Result& r) {
  StormPass p;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  while (Clock::now() < end || p.hops_per_s.size() < kMinWindows ||
         p.convergence.size() < min_convergence) {
    const topo::TopoScenario s = stormScenario(seed * 1000 + storm_index++);
    const auto t0 = Clock::now();
    const topo::HarnessStats st = topo::runTopoScenario(s, harnessOptions());
    const double dt = secondsSince(t0);
    p.hops_per_s.push_back(static_cast<double>(st.forwarded_hops) / dt);
    p.pps.push_back(static_cast<double>(st.delivered) / dt);
    p.hops += st.forwarded_hops;
    for (const std::uint64_t n : st.lookups_by_hop) p.lookups += n;
    p.case1 += st.case1_hits;
    p.rip_messages += st.rip_messages;
    p.publishes += st.publishes;
    p.version_changes += st.version_changes;
    p.stale += st.stale_clue_hops;
    p.strict += st.strict_mismatches;
    for (const int c : st.convergence_samples) {
      p.convergence.push_back(static_cast<double>(c));
    }
    r.attempted += st.forwarded_hops;
    r.failed += st.strict_mismatches;
    if (!st.ok()) {
      r.fail("topo_storm: " + (st.first_mismatch.empty()
                                   ? st.check_report.toString()
                                   : st.first_mismatch));
    }
  }
  return p;
}

}  // namespace

void runTopoStorm(const Args& args, Result& r) {
  // Set-up: the routers' stacks built and the control plane converged,
  // with no traffic and no events.
  const double rss0 = rssMb();
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const topo::TopoScenario s = baseScenario(args.seed, kSetupTicks);
    const auto t0 = Clock::now();
    const topo::HarnessStats st = topo::runTopoScenario(s, harnessOptions());
    setup_s.push_back(secondsSince(t0));
    if (!st.ok()) r.fail("topo_storm: set-up replay failed its oracle");
  }
  const double rss_setup = rssMb() - rss0;

  std::uint64_t storm_index = 0;
  const double rss_run0 = rssMb();
  const double untraced_s = args.trace ? args.seconds / 2 : args.seconds;
  // convergence_p99_ticks is in the traced ledger only: the untraced run
  // need not wait for its samples.
  const StormPass p = runStorms(args.seed, storm_index, untraced_s,
                                args.trace ? minSamplesFor(0.99) : 0, r);
  const double rss_run = rssMb() - rss_run0;
  const auto conv99 = percentile(p.convergence, 0.99);
  std::printf(
      "topo_storm: %zu storms, %.0f hops/s sustained, %llu hops, %llu strict "
      "mismatches, %zu convergence samples, p99 %s ticks\n",
      p.hops_per_s.size(), sustainedRate(p.hops_per_s),
      static_cast<unsigned long long>(p.hops),
      static_cast<unsigned long long>(p.strict), p.convergence.size(),
      conv99 ? std::to_string(static_cast<int>(*conv99)).c_str() : "n/a");
  printQuartiles("topo_storm storm hops/s", p.hops_per_s, "1/s");
  printQuartiles("topo_storm setup", setup_s, "s");

  r.set("pps", sustainedRate(p.pps));
  r.set("hops_per_s", sustainedRate(p.hops_per_s));
  r.set("setup_s", median(setup_s));
  r.set("rss_mb", rss_setup + rss_run);
  if (!args.trace) return;

  r.set("convergence_p99_ticks", conv99.value_or(0));
  r.set("topo.rip_messages", static_cast<double>(p.rip_messages));
  r.set("topo.publishes", static_cast<double>(p.publishes));
  r.set("topo.version_changes", static_cast<double>(p.version_changes));
  r.set("topo.stale_clue_hops", static_cast<double>(p.stale));
  r.set("topo.case1_rate",
        ratio(static_cast<double>(p.case1), static_cast<double>(p.lookups)));
  r.set("topo.strict_mismatches", static_cast<double>(p.strict));

  // The harness has no trace hook: the second half repeats the same storms
  // untraced, so obs.trace_overhead here is the run-to-run noise floor.
  std::uint64_t again = 0;
  const StormPass q = runStorms(args.seed, again, args.seconds / 2, 0, r);
  const double base = sustainedRate(p.hops_per_s),
               traced = sustainedRate(q.hops_per_s);
  r.set("obs.trace_overhead", overhead(traced, base));
  r.set("obs.trace_overhead.untraced", base);
  r.set("obs.trace_overhead.traced", traced);
}

}  // namespace perfbench
