// FIB delta computation: what changed between two versions of a table.
// This is the unit of work a routing-protocol reconvergence hands to the
// route-update machinery, whole: a lookup suite applies it with one engine
// rebuild (LookupSuite::applyRouteDelta), the clue tables follow it through
// the one §3.4 maintenance rule (core/clue_maintenance.h) — in place
// (CluePort::onLocalDelta / onNeighborDelta) or on the epoch-versioned
// publication path (rib::VersionedTables / rib::RouteUpdater, which consumes
// FibDelta batches on a dedicated updater thread).
#pragma once

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "rib/fib.h"

namespace cluert::rib {

template <typename A>
struct FibDelta {
  using EntryT = typename Fib<A>::EntryT;
  using PrefixT = typename Fib<A>::PrefixT;

  std::vector<EntryT> added;     // prefix new in `next`
  std::vector<PrefixT> removed;  // prefix gone from `prev`
  std::vector<EntryT> rerouted;  // same prefix, new next hop

  bool empty() const {
    return added.empty() && removed.empty() && rerouted.empty();
  }
  std::size_t size() const {
    return added.size() + removed.size() + rerouted.size();
  }
};

using FibDelta4 = FibDelta<ip::Ip4Addr>;

namespace detail {

// Canonical (addr, length) order shared by every diff output vector, so a
// delta is a pure function of the two tables — churn replays and the
// versioned-table builders must not depend on hash-map iteration order.
template <typename A>
bool prefixLess(const ip::Prefix<A>& x, const ip::Prefix<A>& y) {
  if (x.addr() != y.addr()) return x.addr() < y.addr();
  return x.length() < y.length();
}

}  // namespace detail

template <typename A>
FibDelta<A> diff(const Fib<A>& prev, const Fib<A>& next) {
  using PrefixT = typename Fib<A>::PrefixT;
  FibDelta<A> d;
  // Last-wins collapse of both sides. entries() is deduplicated for tables
  // built through the normalizing paths, but add()-built tables reach here
  // too, and a duplicated prefix must not be double-counted (the old code
  // erased on first sight, so a second occurrence of a surviving prefix
  // would be misreported as `added`).
  std::unordered_map<PrefixT, NextHop> old_routes;
  old_routes.reserve(prev.size());
  for (const auto& e : prev.entries()) old_routes[e.prefix] = e.next_hop;
  std::unordered_map<PrefixT, NextHop> new_routes;
  new_routes.reserve(next.size());
  for (const auto& e : next.entries()) new_routes[e.prefix] = e.next_hop;

  for (const auto& [prefix, nh] : new_routes) {
    const auto it = old_routes.find(prefix);
    if (it == old_routes.end()) {
      d.added.push_back({prefix, nh});
    } else if (it->second != nh) {
      d.rerouted.push_back({prefix, nh});
    }
  }
  for (const auto& [prefix, nh] : old_routes) {
    if (new_routes.find(prefix) == new_routes.end()) {
      d.removed.push_back(prefix);
    }
  }

  const auto entry_less = [](const auto& x, const auto& y) {
    return detail::prefixLess<A>(x.prefix, y.prefix);
  };
  std::sort(d.added.begin(), d.added.end(), entry_less);
  std::sort(d.rerouted.begin(), d.rerouted.end(), entry_less);
  std::sort(d.removed.begin(), d.removed.end(), detail::prefixLess<A>);
  return d;
}

// Applies a delta to a plain table: prev + diff(prev, next) == next.
// Removals land before adds, as in every consumer of a delta: a
// withdraw-then-announce of nested prefixes passes through the narrower
// table, never a wider one.
template <typename A>
void applyDelta(Fib<A>& fib, const FibDelta<A>& d) {
  for (const auto& p : d.removed) fib.remove(p);
  for (const auto& e : d.added) fib.add(e.prefix, e.next_hop);
  for (const auto& e : d.rerouted) fib.add(e.prefix, e.next_hop);
}

// The same for a prefix trie — how a receiver keeps its view of the
// sender's table (the Claim-1 neighbor trie) in step with the sender.
template <typename A>
void applyDelta(trie::BinaryTrie<A>& t, const FibDelta<A>& d) {
  for (const auto& p : d.removed) t.erase(p);
  for (const auto& e : d.added) t.insert(e.prefix, e.next_hop);
  for (const auto& e : d.rerouted) t.insert(e.prefix, e.next_hop);
}

}  // namespace cluert::rib
