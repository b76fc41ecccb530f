// The benchmark's own arithmetic: percentiles with a minimum-tail rule,
// the self-time subtraction of the per-layer ledger, ratios with explicit
// bases, and the oracle comparisons. Everything here is a pure function so
// selftest.cc can check it against hand-computed answers (and check that
// each check rejects a seeded wrong answer) before any number is reported.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/types.h"

namespace perfbench {

// A percentile is reported only when at least this many samples lie beyond
// its rank: a p99 over 200 samples is the 2nd-largest sample, not a p99.
inline constexpr std::size_t kMinBeyond = 10;

// Smallest sample count for which the q-quantile (q in [0,1)) has
// kMinBeyond samples beyond it: n * (1 - q) >= kMinBeyond.
inline std::size_t minSamplesFor(double q) {
  return static_cast<std::size_t>(
      std::ceil(static_cast<double>(kMinBeyond) / (1.0 - q) - 1e-9));
}

// Nearest-rank q-quantile (q in [0,1]): the smallest sample with at least
// ceil(q * n) samples at or below it. nullopt when the sample count does not
// satisfy the kMinBeyond rule.
inline std::optional<double> percentile(std::vector<double> v, double q) {
  if (v.empty() || v.size() < minSamplesFor(q)) return std::nullopt;
  std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size()) - 1e-9));
  if (rank == 0) rank = 1;
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

// Median of repeated measurements (windows, set-ups). The usual midpoint
// rule; no tail rule applies to a central value.
inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The rate a workload sustains, from its per-window rates: the
// nearest-rank upper decile. On a shared host, neighbours' use of the
// shared cache and cores slows whole stretches of a run, by up to half;
// the median window then reads whichever regime held half of the run, and
// moves from run to run by as much. The upper decile reads the program's
// own speed whenever the host left it alone for a tenth of the run (on a
// fixed cache-resident loop, ten 6 s runs spread 0.53 by the median window
// and 0.13 by the upper decile). Slower code still moves every window,
// this one included. 0 for fewer than kMinWindows windows.
inline constexpr double kSustainedQ = 0.9;
inline constexpr std::size_t kMinWindows = 20;

inline double sustainedRate(std::vector<double> windows) {
  if (windows.size() < kMinWindows) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(kSustainedQ * static_cast<double>(windows.size()) - 1e-9));
  const auto nth = windows.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(windows.begin(), nth, windows.end());
  return *nth;
}

// Quartiles of repeated measurements, as Python's
// statistics.quantiles(v, n=4) ("exclusive" method) computes them: the
// spread the acceptance rules are stated in.
struct Quartiles {
  double q1 = 0, q2 = 0, q3 = 0;
  // (q3 - q1) / q2: the run-to-run spread as a share of the median.
  double spread() const { return q2 != 0.0 ? (q3 - q1) / q2 : 0.0; }
};

inline Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  if (v.size() == 1) {
    q.q1 = q.q2 = q.q3 = v[0];
    return q;
  }
  const long ld = static_cast<long>(v.size());
  const long m = ld + 1;
  const auto at = [&](long i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;  // may exceed 4: Python extrapolates
    return (v[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
            v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
           4.0;
  };
  q.q1 = at(1);
  q.q2 = at(2);
  q.q3 = at(3);
  return q;
}

// num / den, 0 when the base is 0 (a ratio over nothing is reported as 0,
// never as inf/nan, so the JSON stays valid).
inline double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

// Thread-time per packet a layer spent outside its measured child:
// wall_s * threads / packets, in ns, minus child_ns. This is how
// pipeline.self_ns_per_pkt removes core.resolve_ns_per_pkt from the
// workers' busy time.
inline double selfNsPerPkt(double wall_s, std::size_t threads,
                           std::uint64_t packets, double child_ns) {
  if (packets == 0) return 0.0;
  return wall_s * 1e9 * static_cast<double>(threads) /
             static_cast<double>(packets) -
         child_ns;
}

// Share of throughput lost to tracing: 1 - traced / untraced.
inline double overhead(double traced, double untraced) {
  return untraced != 0.0 ? 1.0 - traced / untraced : 0.0;
}

// max / mean of per-shard counts: 1.0 is perfectly balanced.
inline double imbalance(std::span<const std::uint64_t> per_shard) {
  if (per_shard.empty()) return 0.0;
  double sum = 0.0, mx = 0.0;
  for (const std::uint64_t c : per_shard) {
    sum += static_cast<double>(c);
    mx = std::max(mx, static_cast<double>(c));
  }
  const double mean = sum / static_cast<double>(per_shard.size());
  return ratio(mx, mean);
}

// The forwarding oracle comparison: got[i] must equal expect[idx[i]], where
// idx maps a packet to its destination in the pool and expect holds the
// oracle's next hop per pool destination. Returns the mismatch count.
inline std::uint64_t countMismatches(std::span<const cluert::NextHop> got,
                                     std::span<const std::uint32_t> idx,
                                     std::span<const cluert::NextHop> expect) {
  std::uint64_t bad = 0;
  const std::size_t n = std::min(got.size(), idx.size());
  for (std::size_t i = 0; i < n; ++i) {
    bad += got[i] != expect[idx[i]] ? 1 : 0;
  }
  return bad + (std::max(got.size(), idx.size()) - n);  // unmatched slots
}

}  // namespace perfbench
