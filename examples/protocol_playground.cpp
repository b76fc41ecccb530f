// protocol_playground: the full control-plane story in one program.
//
// An interior link-state domain converges; two of its routers exchange
// clue-assisted traffic; a link fails; the protocol reconverges; the FIB
// deltas flow through rib::diff into the lookup suite and the clue tables;
// traffic keeps flowing at ~1 memory access per packet throughout.
//
//   ./build/examples/protocol_playground
#include <cstdio>

#include "common/random.h"
#include "core/distributed_lookup.h"
#include "proto/link_state.h"
#include "rib/fib_diff.h"

using namespace cluert;

namespace {

using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;

double measure(core::CluePort<A>& port, const trie::BinaryTrie<A>& t1,
               const rib::Fib4& sender_fib, Rng& rng) {
  mem::AccessCounter scratch, acc;
  std::size_t n = 0;
  for (int i = 0; i < 1500; ++i) {
    const auto& entries = sender_fib.entries();
    const auto& p = entries[rng.index(entries.size())].prefix;
    A dest = p.addr();
    for (int b = p.length(); b < 32; ++b) {
      dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
    }
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp) continue;
    port.process(dest, core::ClueField::of(bmp->prefix.length()), acc);
    ++n;
  }
  return static_cast<double>(acc.total()) / static_cast<double>(n);
}

}  // namespace

int main() {
  // A 10-router ring with a chord; everyone originates a few blocks.
  proto::LinkStateSimulation sim;
  constexpr int kN = 10;
  for (int i = 0; i < kN; ++i) sim.addRouter();
  for (int i = 0; i < kN; ++i) {
    sim.link(static_cast<RouterId>(i), static_cast<RouterId>((i + 1) % kN));
  }
  sim.link(1, 6);
  Rng rng(2026);
  for (int i = 0; i < kN; ++i) {
    for (int k = 0; k < 30; ++k) {
      sim.originate(static_cast<RouterId>(i),
                    ip::Prefix4(ip::Ip4Addr(rng.u32()),
                                static_cast<int>(rng.uniform(12, 24))));
    }
  }
  sim.converge();
  std::printf("Converged: %llu LSA transmissions, FIBs of %zu routes\n",
              static_cast<unsigned long long>(sim.stats().messages),
              sim.fib(0).size());

  // Clue pair: router 2 sends to its neighbor 3.
  rib::Fib4 sender_fib = sim.fib(2);
  rib::Fib4 receiver_fib = sim.fib(3);
  trie::BinaryTrie<A> t1 = sender_fib.buildTrie();
  lookup::LookupSuite<A> suite(std::vector<MatchT>(
      receiver_fib.entries().begin(), receiver_fib.entries().end()));
  core::CluePort<A>::Options opt;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kAdvance;
  core::CluePort<A> port(suite, &t1, opt);
  port.precompute(sender_fib.prefixes());

  std::printf("steady state:       %.3f accesses/packet at the receiver\n",
              measure(port, t1, sender_fib, rng));

  // Break the chord; reconverge; apply the deltas.
  sim.failLink(1, 6);
  sim.converge();
  const auto new_sender = sim.fib(2);
  const auto new_receiver = sim.fib(3);
  const auto recv_delta = rib::diff(receiver_fib, new_receiver);
  const auto send_delta = rib::diff(sender_fib, new_sender);
  suite.applyRouteDelta(recv_delta);
  port.onLocalDelta(recv_delta);
  rib::applyDelta(t1, send_delta);
  port.onNeighborDelta(send_delta);
  sender_fib = new_sender;
  receiver_fib = new_receiver;
  std::printf(
      "link 1-6 failed:    %zu receiver / %zu sender route changes applied\n",
      recv_delta.size(), send_delta.size());
  std::printf("after reconverge:   %.3f accesses/packet at the receiver\n",
              measure(port, t1, sender_fib, rng));

  std::printf(
      "\nThe clue tables were maintained entry-by-entry from the FIB deltas\n"
      "(Sec. 3.3.2 / 3.4): no flows broke, no full rebuild happened, and the\n"
      "receiver stayed at ~1 memory reference per packet.\n");
  return 0;
}
