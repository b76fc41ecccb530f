// Shared plumbing of the benchmark: arguments, the metric catalogue (the
// names BENCHMARK.json lists), the result every workload fills, clocks,
// resident-set readings, and the §6 table pair + destination pool the
// forwarding workloads share.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "core/clue.h"
#include "rib/fib.h"
#include "trie/binary_trie.h"

namespace perfbench {

using A = cluert::ip::Ip4Addr;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics: printed by every workload with --trace 0.
inline constexpr MetricDef kEndToEnd[] = {
    {"pps", "1/s"},
    {"hops_per_s", "1/s"},
    {"setup_s", "s"},
    {"rss_mb", "MB"},
};

// Per-layer metrics: printed by every workload with --trace 1. A layer the
// workload does not use reads 0.
inline constexpr MetricDef kPerLayer[] = {
    // The workload's own figures that are not defined on every workload.
    {"accesses_per_pkt", "count"},
    {"convergence_p99_ticks", "ticks"},
    // pipeline
    {"pipeline.self_ns_per_pkt", "ns"},
    {"pipeline.worker_busy_share", "ratio"},
    {"pipeline.shard_imbalance", "ratio"},
    {"pipeline.steady_allocs", "count"},
    // core
    {"core.resolve_ns_per_pkt", "ns"},
    {"core.probe_ns_per_pkt", "ns"},
    {"core.fd_ns_per_pkt", "ns"},
    {"core.continuation_ns_per_pkt", "ns"},
    {"core.fd_direct_share", "ratio"},
    {"core.searched_share", "ratio"},
    {"core.search_failed_share", "ratio"},
    {"core.table_miss_share", "ratio"},
    {"core.precompute_s", "s"},
    // lookup
    {"lookup.common_ns_per_pkt", "ns"},
    {"lookup.clue_speedup", "ratio"},
    {"lookup.suite_build_s", "s"},
    // mem: the paper's accesses per packet, by region
    {"mem.accesses_per_pkt.clue_table", "count"},
    {"mem.accesses_per_pkt.trie_node", "count"},
    {"mem.accesses_per_pkt.candidate_set", "count"},
    {"mem.accesses_per_pkt.fib_entry", "count"},
    // netio
    {"netio.codec_decode_ns", "ns"},
    {"netio.codec_encode_ns", "ns"},
    {"netio.inject_send_ns_per_dgram", "ns"},
    {"netio.sink_recv_ns_per_dgram", "ns"},
    {"netio.shard_rx_imbalance", "ratio"},
    {"netio.kernel_drops", "count"},
    {"netio.udp_rcvbuf_errors", "count"},
    {"netio.udp_in_errors", "count"},
    {"netio.hop_decode_us.p50", "us"},
    {"netio.hop_decode_us.p99", "us"},
    {"netio.hop_lookup_us.p50", "us"},
    {"netio.hop_lookup_us.p99", "us"},
    {"netio.hop_residence_us.p50", "us"},
    {"netio.hop_residence_us.p99", "us"},
    {"netio.paced_latency_p50_us", "us"},
    {"netio.paced_latency_p99_us", "us"},
    {"netio.paced_lateness_p99_us", "us"},
    {"netio.daemon_start_s", "s"},
    // topo, and rib through its per-port versioned stacks
    {"topo.rip_messages", "count"},
    {"topo.publishes", "count"},
    {"topo.version_changes", "count"},
    {"topo.stale_clue_hops", "count"},
    {"topo.case1_rate", "ratio"},
    {"topo.strict_mismatches", "count"},
    // obs: 1 - traced/untraced throughput, and both bases
    {"obs.trace_overhead", "ratio"},
    {"obs.trace_overhead.untraced", "1/s"},
    {"obs.trace_overhead.traced", "1/s"},
};

// What one workload run reports. set() accepts any catalogue name; the
// printer emits the catalogue matching the run's mode, so a metric the
// workload never set prints as 0 and a misspelt name is a hard error.
class Result {
 public:
  Result();
  void set(std::string_view name, double value);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  // Set by a workload when an output check failed; names the first one.
  std::string first_error;

  void fail(std::string what) {
    correct = false;
    if (first_error.empty()) first_error = std::move(what);
  }

  // The contract's last line: {"correct","attempted","failed","metrics"}.
  std::string json(bool trace) const;

 private:
  std::vector<double> e2e_;
  std::vector<double> layer_;
};

// -- clocks -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Keeps a timed loop's result alive, so the compiler cannot drop the work.
template <typename T>
inline void keep(const T& v) {
  asm volatile("" : : "g"(v) : "memory");
}

// Resident set size of this process in MB (VmRSS).
double rssMb();

// Sets metrics `p50` and `p99` from the samples `v`; a percentile the
// sample is too small for (ledger.h's ten-beyond rule) reads 0.
void setP50P99(Result& r, const char* p50, const char* p99,
               const std::vector<double>& v);

// Prints "<label>: n=<count> q1 <v> median <v> q3 <v> <unit>" for the
// repeated measurements behind a reported median.
void printQuartiles(const char* label, const std::vector<double>& v,
                    const char* unit);

// -- the §6 table pair and destination pool --------------------------------

// Sender (20k prefixes, 1999 length shape) and its neighbor receiver
// (18k shared + 500 fresh), as in the paper's §6 experiments.
struct TablePair {
  cluert::rib::Fib4 sender;
  cluert::rib::Fib4 receiver;
};
TablePair makeTablePair(std::uint64_t seed);

// A destination pool: each destination has a sender BMP that is also a
// vertex of the receiver's trie (the §6 filter), the clue the sender
// attaches (its BMP length), and the oracle's answer — the receiver's BMP
// next hop from an independently built binary trie. With `routed_only`,
// destinations the receiver has no route for are skipped.
struct DestPool {
  std::vector<A> dests;
  std::vector<cluert::core::ClueField> clues;
  std::vector<cluert::NextHop> expect;
};
DestPool makeDestPool(const TablePair& t, std::size_t count, cluert::Rng& rng,
                      bool routed_only = false);

// `n` draws from a Zipf(s) popularity over the pool, the ranks assigned to
// pool entries in a seeded random order.
std::vector<std::uint32_t> zipfStream(std::size_t pool, std::size_t n,
                                      double s, cluert::Rng& rng);

// Directory for files the program must read from disk (the daemon's route
// files): created under the build directory inside the checkout.
std::string scratchDir();

// Workload entry points.
void runFwdSteady(const Args& args, Result& r);
void runWire(const Args& args, Result& r);
void runTopoStorm(const Args& args, Result& r);

// The benchmark's self-tests (selftest.cc); returns the failure count.
int runSelfTests(bool verbose);

}  // namespace perfbench
