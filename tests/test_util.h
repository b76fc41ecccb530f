// Shared helpers for the test suite: small random tables, a brute-force
// reference BMP, and convenience builders.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/random.h"
#include "ip/prefix.h"
#include "rib/fib.h"
#include "rib/fib_diff.h"
#include "rib/table_gen.h"
#include "trie/binary_trie.h"

namespace cluert::testutil {

// Brute-force longest-prefix match over a flat entry list — the oracle every
// lookup structure is checked against.
template <typename A>
std::optional<trie::Match<A>> bruteForceBmp(
    const std::vector<trie::Match<A>>& entries, const A& address) {
  const trie::Match<A>* best = nullptr;
  for (const auto& e : entries) {
    if (e.prefix.matches(address) &&
        (best == nullptr || e.prefix.length() > best->prefix.length())) {
      best = &e;
    }
  }
  if (best == nullptr) return std::nullopt;
  return *best;
}

// A small random IPv4 table with realistic shape.
inline std::vector<trie::Match<ip::Ip4Addr>> randomTable4(Rng& rng,
                                                          std::size_t size) {
  rib::GenOptions<ip::Ip4Addr> opt;
  opt.size = size;
  opt.histogram = rib::internetLengths1999();
  opt.subprefix_fraction = 0.35;  // dense nesting stresses the clue logic
  const auto fib = rib::TableGen<ip::Ip4Addr>::generate(rng, opt);
  return {fib.entries().begin(), fib.entries().end()};
}

inline std::vector<trie::Match<ip::Ip6Addr>> randomTable6(Rng& rng,
                                                          std::size_t size) {
  rib::GenOptions<ip::Ip6Addr> opt;
  opt.size = size;
  opt.histogram = rib::internetLengths6();
  opt.subprefix_fraction = 0.35;
  const auto fib = rib::TableGen<ip::Ip6Addr>::generate(rng, opt);
  return {fib.entries().begin(), fib.entries().end()};
}

// A "neighboring" table: keeps most of `base`, drops some entries, adds some
// fresh ones (including extensions — the problematic-clue makers).
template <typename A>
std::vector<trie::Match<A>> neighborOf(
    const std::vector<trie::Match<A>>& base, Rng& rng, double keep = 0.8,
    std::size_t fresh = 20, double fresh_ext = 0.5) {
  rib::Fib<A> base_fib{std::vector<trie::Match<A>>(base)};
  rib::NeighborOptions<A> opt;
  opt.shared = static_cast<std::size_t>(static_cast<double>(base.size()) * keep);
  opt.fresh = fresh;
  opt.fresh_extension_fraction = fresh_ext;
  const auto fib =
      rib::TableGen<A>::deriveNeighbor(base_fib, rng, opt);
  return {fib.entries().begin(), fib.entries().end()};
}

inline ip::Ip4Addr randomAddr4(Rng& rng) { return ip::Ip4Addr(rng.u32()); }

inline ip::Ip6Addr randomAddr6(Rng& rng) {
  return ip::Ip6Addr(rng.u64(), rng.u64());
}

// An address that matches some prefix of the table (biased sampling: pure
// uniform addresses mostly miss small tables).
template <typename A, typename DrawFn>
A coveredAddress(const std::vector<trie::Match<A>>& entries, Rng& rng,
                 const DrawFn& draw) {
  if (entries.empty() || rng.chance(0.2)) return draw(rng);
  const auto& p = entries[rng.index(entries.size())].prefix;
  A a = p.addr();
  for (int b = p.length(); b < A::kBits; ++b) {
    a = a.withBit(b, static_cast<unsigned>(rng.u32() & 1));
  }
  return a;
}

inline ip::Prefix4 p4(const std::string& text) {
  const auto p = ip::Prefix4::parse(text);
  if (!p) throw std::runtime_error("bad prefix literal: " + text);
  return *p;
}

inline ip::Ip4Addr a4(const std::string& text) {
  const auto a = ip::Ip4Addr::parse(text);
  if (!a) throw std::runtime_error("bad address literal: " + text);
  return *a;
}

// One-route deltas, for tests that change a table a route at a time. An
// announcement of a present prefix overwrites its next hop.
inline rib::FibDelta4 announce(const ip::Prefix4& p, NextHop next_hop) {
  rib::FibDelta4 d;
  d.added.push_back({p, next_hop});
  return d;
}

inline rib::FibDelta4 withdraw(const ip::Prefix4& p) {
  rib::FibDelta4 d;
  d.removed.push_back(p);
  return d;
}

}  // namespace cluert::testutil
