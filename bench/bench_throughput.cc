// Experiment E12 — wall-clock throughput.
//
// Part 1 (always): the pipeline sweep. Drives the same generated
// sender/receiver pair through the batched multi-worker pipeline at worker
// counts {1,2,4} and batch sizes {1,32}, interleaved with the sequential
// process() loop it is compared against (per-core scaling as a ratio to the
// same run's sequential rate), verifies each configuration forwards
// identically to the sequential baseline, and writes machine-readable
// results to BENCH_throughput.json so the perf trajectory is tracked
// across PRs.
//
// Part 2 (skipped with --sweep-only or CLUERT_SWEEP_ONLY=1): the original
// google-benchmark comparison of the 15 method combinations, confirming the
// paper's memory-access ordering also holds for modern-CPU wall time.
//
// --smoke runs neither part: it is the tools/ci.sh hot-path gate — a fixed
// deterministic sharded run whose accesses/packet, shard imbalance,
// steady-state allocation count and rate over the sequential loop are
// written to BENCH_throughput_smoke.prom for metrics_diff.py to gate.
#include <benchmark/benchmark.h>

#include <cstring>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>

#include "bench_util.h"
#include "mem/alloc_hook.h"
#include "obs/export.h"
#include "pipeline/pipeline.h"

namespace {

using namespace cluert;
using bench::A;

struct Workbench {
  rib::Fib4 sender;
  rib::Fib4 receiver;
  trie::BinaryTrie4 t1;
  std::unique_ptr<lookup::LookupSuite<A>> suite;
  std::vector<A> dests;
  std::vector<core::ClueField> clues;

  Workbench() {
    Rng rng(12345);
    rib::GenOptions<A> gopt;
    gopt.size = 20'000;
    gopt.histogram = rib::internetLengths1999();
    gopt.subprefix_fraction = 0.2;
    sender = rib::TableGen<A>::generate(rng, gopt);
    rib::NeighborOptions<A> nopt;
    nopt.shared = 18'000;
    nopt.fresh = 500;
    nopt.fresh_extension_fraction = 0.3;
    receiver = rib::TableGen<A>::deriveNeighbor(sender, rng, nopt);
    for (const auto& e : sender.entries()) t1.insert(e.prefix, e.next_hop);
    suite = std::make_unique<lookup::LookupSuite<A>>(
        std::vector<trie::Match<A>>(receiver.entries().begin(),
                                    receiver.entries().end()));
    const auto t2 = receiver.buildTrie();
    dests = bench::paperDestinations(sender, t1, t2, rng, 4'096);
    mem::AccessCounter scratch;
    clues.reserve(dests.size());
    for (const auto& d : dests) {
      const auto bmp = t1.lookup(d, scratch);
      clues.push_back(bmp ? core::ClueField::of(bmp->prefix.length())
                          : core::ClueField::none());
    }
  }
};

Workbench& workbench() {
  static Workbench wb;
  return wb;
}

// The §6 destination sample cycled up to `packets` — the same distribution
// the google-benchmark part measures.
std::vector<pipeline::Pipeline4::Input> cycledInputs(const Workbench& wb,
                                                     std::size_t packets) {
  std::vector<pipeline::Pipeline4::Input> inputs;
  inputs.reserve(packets);
  for (std::size_t i = 0; i < packets; ++i) {
    const std::size_t j = i % wb.dests.size();
    inputs.push_back({wb.dests[j], wb.clues[j]});
  }
  return inputs;
}

pipeline::PipelineOptions pipelineOptions(const Workbench& wb,
                                          std::size_t workers,
                                          std::size_t batch) {
  pipeline::PipelineOptions opt;
  opt.workers = workers;
  opt.batch_size = batch;
  opt.method = lookup::Method::kPatricia;
  opt.mode = lookup::ClueMode::kAdvance;
  opt.learn = false;
  opt.expected_clues = wb.sender.size() + 16;
  return opt;
}

// The sequential reference, also the correctness oracle: one CluePort, one
// thread, one process() call per packet — no pipeline machinery at all.
class SequentialRef {
 public:
  explicit SequentialRef(Workbench& wb)
      : port_(*wb.suite, &wb.t1, options(wb)) {
    port_.precompute(wb.sender.prefixes());
  }

  void run(std::span<const pipeline::Pipeline4::Input> in,
           std::span<NextHop> out) {
    acc_.reset();
    for (std::size_t i = 0; i < in.size(); ++i) {
      const auto r = port_.process(in[i].dest, in[i].clue, acc_);
      out[i] = r.match ? r.match->next_hop : kNoNextHop;
    }
  }

  const mem::AccessCounter& accesses() const { return acc_; }

 private:
  static core::CluePort<A>::Options options(const Workbench& wb) {
    core::CluePort<A>::Options popt;
    popt.method = lookup::Method::kPatricia;
    popt.mode = lookup::ClueMode::kAdvance;
    popt.learn = false;
    popt.expected_clues = wb.sender.size() + 16;
    return popt;
  }

  core::CluePort<A> port_;
  mem::AccessCounter acc_;
};

// ---------------------------------------------------------------------------
// Part 1: pipeline sweep -> BENCH_throughput.json
// ---------------------------------------------------------------------------

std::size_t sweepPackets() {
  if (const char* s = std::getenv("CLUERT_SWEEP_PACKETS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 500'000;
}

// Interleaved repetitions: each one times the sequential reference and then
// every configuration over one bench::kMinWindowSeconds window apiece, so a
// noisy stretch on the host lands on every series alike and shows as
// spread rather than as one configuration's "result".
std::size_t sweepReps() {
  if (const char* s = std::getenv("CLUERT_SWEEP_REPS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 5;
}

// "requested N workers but only H hardware threads" annotation for a sweep
// row. Under the default hardware clamp the pipeline already folded the run
// (stats.workers < requested); with the clamp off the row genuinely
// oversubscribed. Either way the row is not a clean point for this host's
// perf trajectory, and the annotation — in the console line and as an
// `oversubscribed` flag in the JSON — says so instead of letting the row
// masquerade as an N-core measurement.
std::string oversubNote(const pipeline::PipelineStats& s, std::size_t hc) {
  if (hc == 0 || s.requested_workers <= hc) return "";
  std::string note = "  [oversubscribed: requested " +
                     std::to_string(s.requested_workers) + "w > " +
                     std::to_string(hc) + " hw threads; ran " +
                     std::to_string(s.workers) + "w]";
  return note;
}

struct SweepRow {
  std::size_t workers = 0;
  std::size_t batch = 0;
  std::unique_ptr<pipeline::Pipeline4> pipe;
  pipeline::PipelineStats stats;  // of the row's last run
  Summary pps;
  Summary over_sequential;  // per repetition: pps / that rep's sequential pps
  bool matches_baseline = true;
};

void runPipelineSweep() {
  Workbench& wb = workbench();
  const std::size_t reps = sweepReps();
  const std::size_t hc =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  const auto clue_universe = wb.sender.prefixes();
  const auto inputs = cycledInputs(wb, sweepPackets());
  const std::size_t n = inputs.size();

  SequentialRef ref(wb);
  std::vector<NextHop> expect(n, kNoNextHop);
  ref.run(inputs, expect);
  const double ref_acc = static_cast<double>(ref.accesses().total()) /
                         static_cast<double>(n);

  std::vector<SweepRow> rows;
  for (const std::size_t workers : {1, 2, 4}) {
    for (const std::size_t batch : {1, 32}) {
      SweepRow row;
      row.workers = workers;
      row.batch = batch;
      row.pipe = std::make_unique<pipeline::Pipeline4>(
          *wb.suite, &wb.t1, pipelineOptions(wb, workers, batch));
      row.pipe->precompute(clue_universe);
      rows.push_back(std::move(row));
    }
  }

  Summary sequential_pps;
  std::vector<NextHop> scratch(n, kNoNextHop);
  std::vector<NextHop> got(n, kNoNextHop);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    const double seq =
        bench::windowRate(n, [&] { ref.run(inputs, scratch); });
    sequential_pps.add(seq);
    for (auto& row : rows) {
      std::fill(got.begin(), got.end(), kNoNextHop);
      const double pps = bench::windowRate(
          n, [&] { row.stats = row.pipe->run(inputs, got); });
      row.matches_baseline = row.matches_baseline && got == expect &&
                             row.stats.packets == n;
      row.pps.add(pps);
      row.over_sequential.add(pps / seq);
    }
  }

  std::printf("sequential reference: %.2f Mpps median [%.2f-%.2f] "
              "(%.3f acc/pkt), %zu reps of >=%.0f ms\n",
              sequential_pps.percentile(50) / 1e6, sequential_pps.min() / 1e6,
              sequential_pps.max() / 1e6, ref_acc, reps,
              bench::kMinWindowSeconds * 1e3);
  for (const auto& r : rows) {
    std::printf(
        "%zuw x b%zu: %.2f Mpps median [%.2f-%.2f] = %.2fx sequential "
        "[%.2f-%.2f] | %.3f acc/pkt | shard imbalance %.3f%s%s\n",
        r.stats.workers, r.batch, r.pps.percentile(50) / 1e6,
        r.pps.min() / 1e6, r.pps.max() / 1e6,
        r.over_sequential.percentile(50), r.over_sequential.min(),
        r.over_sequential.max(), r.stats.accessesPerPacket(),
        r.stats.shardImbalance(), oversubNote(r.stats, hc).c_str(),
        r.matches_baseline ? "" : "  !! OUTPUT MISMATCH");
  }

  std::ofstream json("BENCH_throughput.json");
  bench::JsonWriter w(json);
  w.beginDocument("throughput_pipeline_sweep");
  w.field("table_size", wb.receiver.size());
  w.field("destinations", wb.dests.size());
  w.field("packets_per_pass", n);
  w.field("reps", reps);
  w.field("min_window_s", bench::kMinWindowSeconds);
  w.field("method", "patricia");
  w.field("mode", "advance");
  w.field("hardware_concurrency", hc);
  w.field("alloc_hook_active", mem::allocHookActive());
  bench::writeSpread(w, "sequential_pps", sequential_pps);
  w.beginArray("configs");
  for (const auto& r : rows) {
    w.beginObject();
    w.field("workers", r.workers);  // requested; actual_workers is post-clamp
    w.field("actual_workers", r.stats.workers);
    w.field("oversubscribed", hc != 0 && r.stats.requested_workers > hc);
    w.field("batch", r.batch);
    bench::writeSpread(w, "pps", r.pps);
    bench::writeSpread(w, "over_sequential", r.over_sequential);
    w.field("accesses_per_packet", r.stats.accessesPerPacket());
    w.field("shard_imbalance", r.stats.shardImbalance());
    w.field("steady_allocs", r.stats.steady_allocs);
    w.field("matches_baseline", r.matches_baseline);
    w.endObject();
  }
  w.endArray();
  w.endDocument();
  std::printf("wrote BENCH_throughput.json\n");

  // Observed re-runs (deliberately *outside* the sweep above, so the perf
  // trajectory in BENCH_throughput.json stays a measurement of the bare
  // data plane), windowed and interleaved like the sweep:
  //   (a) sampling only — tracers armed at 1-in-64, no registry, against
  //       the sweep's unobserved 4w/b32 pipeline window for window. This
  //       isolates the trace-sampling overhead.
  //   (b) full telemetry — registry + tracers; this run emits the Prometheus
  //       snapshot and chrome://tracing file shipped as bench artifacts.
  {
    pipeline::Pipeline4& base = *rows.back().pipe;  // 4w/b32
    pipeline::PipelineOptions opt = pipelineOptions(wb, 4, 32);
    opt.trace.enabled = true;
    opt.trace.sample_every = 64;
    pipeline::Pipeline4 sampled(*wb.suite, &wb.t1, opt);
    sampled.precompute(clue_universe);
    obs::MetricRegistry registry;
    opt.registry = &registry;
    pipeline::Pipeline4 observed(*wb.suite, &wb.t1, opt);
    observed.precompute(clue_universe);

    Summary sampled_ratio, observed_pps;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const double b = bench::windowRate(n, [&] { base.run(inputs, got); });
      const double t = bench::windowRate(n, [&] { sampled.run(inputs, got); });
      sampled_ratio.add(t / b);
      observed_pps.add(
          bench::windowRate(n, [&] { observed.run(inputs, got); }));
    }
    std::printf("trace sampling 1-in-64 (4w/b32): %+.1f%% vs unobserved "
                "(median of %zu window pairs, range %+.1f%% to %+.1f%%)\n",
                (sampled_ratio.percentile(50) - 1.0) * 100.0, reps,
                (sampled_ratio.min() - 1.0) * 100.0,
                (sampled_ratio.max() - 1.0) * 100.0);
    obs::writeFile("BENCH_throughput_metrics.prom",
                   obs::toPrometheus(registry.snapshot()));
    obs::writeFile("BENCH_throughput_trace.json",
                   obs::toChromeTrace(observed.traceEvents(),
                                      observed.traceSpans(),
                                      "bench_throughput 4w/b32"));
    std::printf(
        "full telemetry (metrics + tracing): %.2f Mpps median -> "
        "BENCH_throughput_metrics.prom, BENCH_throughput_trace.json\n",
        observed_pps.percentile(50) / 1e6);
  }
}

// ---------------------------------------------------------------------------
// --smoke: the ci.sh hot-path gate
// ---------------------------------------------------------------------------
//
// A fixed, deterministic workload (100k packets over the §6 destination
// sample) through the sharded pipeline at 2 workers / batch 32. The
// hardware clamp is disabled so the shape — and therefore the
// accesses-per-packet and shard-imbalance series — is identical on every
// host, 1-core CI boxes included. Untraced and unobserved: the steady-state
// window must be allocation-free, and tracing deliberately allocates
// (Summary::add).
//
// Two checks fail the run directly (no baseline needed): the sharded output
// diverging from the sequential oracle, and any heap allocation inside the
// steady-state window while the counting hook is active. The emitted
// BENCH_throughput_smoke.prom additionally lets tools/ci.sh gate
// accesses/packet and shard imbalance against the committed
// bench/BENCH_throughput_smoke_baseline.prom via metrics_diff.py, and
// floor throughput_smoke_pps_over_sequential: the median, over kSmokeReps
// interleaved window pairs, of the pipeline's rate over the sequential
// process() loop's in the same run — a ratio, so host speed cancels.
int runSmoke() {
  Workbench& wb = workbench();
  constexpr std::size_t kPackets = 100'000;
  constexpr std::size_t kSmokeReps = 5;
  const auto clue_universe = wb.sender.prefixes();
  const auto inputs = cycledInputs(wb, kPackets);

  SequentialRef ref(wb);
  std::vector<NextHop> expect(inputs.size(), kNoNextHop);
  ref.run(inputs, expect);

  pipeline::PipelineOptions opt = pipelineOptions(wb, 2, 32);
  opt.clamp_to_hardware = false;  // host-independent shape, see above
  pipeline::Pipeline4 pipe(*wb.suite, &wb.t1, opt);
  pipe.precompute(clue_universe);

  // Two runs through one pipeline: the second also covers counter reset on
  // reuse, and is the one the gate reads.
  std::vector<NextHop> got(inputs.size(), kNoNextHop);
  pipeline::PipelineStats stats;
  bool matches = true;
  for (int rep = 0; rep < 2; ++rep) {
    std::fill(got.begin(), got.end(), kNoNextHop);
    stats = pipe.run(inputs, got);
    matches = matches && got == expect;
  }

  Summary over_sequential;
  std::vector<NextHop> scratch(inputs.size(), kNoNextHop);
  for (std::size_t rep = 0; rep < kSmokeReps; ++rep) {
    const double seq =
        bench::windowRate(kPackets, [&] { ref.run(inputs, scratch); });
    const double pps =
        bench::windowRate(kPackets, [&] { pipe.run(inputs, got); });
    over_sequential.add(pps / seq);
  }
  matches = matches && got == expect;

  {
    std::ofstream prom("BENCH_throughput_smoke.prom");
    prom << "# bench_throughput --smoke: fixed 2w/b32 sharded run, "
         << kPackets << " packets (clamp off, untraced)\n";
    prom << "throughput_smoke_packets " << stats.packets << "\n";
    prom << "throughput_smoke_accesses_per_packet "
         << stats.accessesPerPacket() << "\n";
    prom << "throughput_smoke_shard_imbalance " << stats.shardImbalance()
         << "\n";
    prom << "throughput_smoke_steady_allocs " << stats.steady_allocs << "\n";
    prom << "throughput_smoke_alloc_hook_active "
         << (stats.alloc_hook_active ? 1 : 0) << "\n";
    prom << "throughput_smoke_matches_baseline " << (matches ? 1 : 0) << "\n";
    prom << "throughput_smoke_pps_over_sequential "
         << over_sequential.percentile(50) << "\n";
  }
  std::printf(
      "throughput smoke: %llu packets, %.4f acc/pkt, shard imbalance %.3f, "
      "steady allocs %llu (hook %s), matches_baseline=%d, "
      "%.2fx sequential [%.2f-%.2f] -> BENCH_throughput_smoke.prom\n",
      static_cast<unsigned long long>(stats.packets),
      stats.accessesPerPacket(), stats.shardImbalance(),
      static_cast<unsigned long long>(stats.steady_allocs),
      stats.alloc_hook_active ? "active" : "inactive", matches ? 1 : 0,
      over_sequential.percentile(50), over_sequential.min(),
      over_sequential.max());
  if (!matches) {
    std::fprintf(stderr,
                 "bench_throughput: FAIL: sharded output diverged from the "
                 "sequential baseline\n");
    return 1;
  }
  if (stats.alloc_hook_active && stats.steady_allocs != 0) {
    std::fprintf(stderr,
                 "bench_throughput: FAIL: %llu heap allocations in the "
                 "steady-state window (contract is zero)\n",
                 static_cast<unsigned long long>(stats.steady_allocs));
    return 1;
  }
  return 0;
}

// ---------------------------------------------------------------------------
// Part 2: google-benchmark method comparison (original E12)
// ---------------------------------------------------------------------------

void BM_Common(benchmark::State& state) {
  auto& wb = workbench();
  const auto method = static_cast<lookup::Method>(state.range(0));
  const auto& engine = wb.suite->engine(method);
  mem::AccessCounter acc;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.lookup(wb.dests[i], acc));
    i = (i + 1) % wb.dests.size();
  }
  state.SetLabel(std::string(lookup::methodName(method)));
}

void BM_Clued(benchmark::State& state) {
  auto& wb = workbench();
  const auto method = static_cast<lookup::Method>(state.range(0));
  const auto mode = state.range(1) == 0 ? lookup::ClueMode::kSimple
                                        : lookup::ClueMode::kAdvance;
  lookup::LookupSuite<A> suite(std::vector<trie::Match<A>>(
      wb.receiver.entries().begin(), wb.receiver.entries().end()));
  typename core::CluePort<A>::Options opt;
  opt.method = method;
  opt.mode = mode;
  opt.learn = false;
  opt.expected_clues = wb.sender.size() + 16;
  core::CluePort<A> port(suite, &wb.t1, opt);
  const auto clues = wb.sender.prefixes();
  port.precompute(clues);
  mem::AccessCounter acc;
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(port.process(wb.dests[i], wb.clues[i], acc));
    i = (i + 1) % wb.dests.size();
  }
  state.SetLabel(std::string(lookup::methodName(method)) + "/" +
                 std::string(lookup::clueModeName(mode)));
}

}  // namespace

BENCHMARK(BM_Common)->DenseRange(0, 4)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_Clued)
    ->ArgsProduct({{0, 1, 2, 3, 4}, {0, 1}})
    ->Unit(benchmark::kNanosecond);

int main(int argc, char** argv) {
  bool sweep_only = std::getenv("CLUERT_SWEEP_ONLY") != nullptr;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sweep-only") == 0) sweep_only = true;
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  if (smoke) return runSmoke();
  runPipelineSweep();
  if (sweep_only) return 0;
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
