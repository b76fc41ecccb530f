// perfbench: the cluert benchmark binary.
//
//   perfbench --workload <fwd_steady|wire|topo_storm>
//             --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Prints a provenance line, human-readable progress, and as its LAST line
// one JSON object {"correct","attempted","failed","metrics"}: the
// end-to-end metrics with --trace 0, the per-layer ledger with --trace 1.
// Runs the arithmetic self-tests first and refuses to report from anything
// but a Release build with CLUERT_TRACE off.
#include <malloc.h>
#include <sys/stat.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "bench.h"
#include "common/check.h"
#include "ledger.h"
#include "rib/table_gen.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CLUERT_TRACE
#define PERFBENCH_CLUERT_TRACE 1
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS ""
#endif

namespace perfbench {

namespace {

template <std::size_t N>
std::size_t indexOf(const MetricDef (&defs)[N], std::string_view name) {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == defs[i].name) return i;
  }
  return N;
}

std::string jsonEscape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

std::string envOr(const char* name, const char* fallback) {
  const char* v = std::getenv(name);
  return v != nullptr && *v != '\0' ? v : fallback;
}

std::string provenanceJson(const Args& a) {
  std::ostringstream os;
  os << "{\"build_type\":\"" << jsonEscape(PERFBENCH_BUILD_TYPE) << "\""
     << ",\"cluert_trace\":" << PERFBENCH_CLUERT_TRACE
#ifdef NDEBUG
     << ",\"ndebug\":true"
#else
     << ",\"ndebug\":false"
#endif
     << ",\"compiler\":\"" << jsonEscape(PERFBENCH_COMPILER) << "\""
     << ",\"flags\":\"" << jsonEscape(PERFBENCH_FLAGS) << "\""
     << ",\"cpu_model\":\"" << jsonEscape(cpuModel()) << "\""
     << ",\"nproc\":" << std::thread::hardware_concurrency()
     << ",\"git_sha\":\"" << jsonEscape(envOr("PERFBENCH_GIT_SHA", "unknown"))
     << "\""
     << ",\"source_sha256\":\""
     << jsonEscape(envOr("PERFBENCH_SOURCE_SHA256", "unknown")) << "\""
     << ",\"workload\":\"" << jsonEscape(a.workload) << "\""
     << ",\"seed\":" << a.seed << ",\"seconds\":" << number(a.seconds)
     << ",\"trace\":" << (a.trace ? 1 : 0) << "}";
  return os.str();
}

bool releaseBuild() {
#ifdef NDEBUG
  constexpr bool ndebug = true;
#else
  constexpr bool ndebug = false;
#endif
  return ndebug && PERFBENCH_CLUERT_TRACE == 0 &&
         std::string_view(PERFBENCH_BUILD_TYPE) == "Release";
}

struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

// The aggregate "cpu" line of /proc/stat, in clock ticks.
CpuTimes readCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  std::uint64_t v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fwd_steady|wire|topo_storm> "
               "--seed <n> --seconds <s> --trace <0|1>\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace

// -- Result -----------------------------------------------------------------

Result::Result()
    : e2e_(std::size(kEndToEnd), 0.0), layer_(std::size(kPerLayer), 0.0) {}

void Result::set(std::string_view name, double value) {
  const std::size_t e = indexOf(kEndToEnd, name);
  if (e < e2e_.size()) {
    e2e_[e] = value;
    return;
  }
  const std::size_t l = indexOf(kPerLayer, name);
  CLUERT_CHECK(l < layer_.size()) << "metric not in the catalogue: " << name;
  layer_[l] = value;
}

std::string Result::json(bool trace) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  const auto emit = [&](const MetricDef* defs, const std::vector<double>& v) {
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) os << ", ";
      os << "\"" << defs[i].name << "\": {\"value\": " << number(v[i])
         << ", \"unit\": \"" << defs[i].unit << "\"}";
    }
  };
  if (trace) {
    emit(kPerLayer, layer_);
  } else {
    emit(kEndToEnd, e2e_);
  }
  os << "}}";
  return os.str();
}

// -- helpers ----------------------------------------------------------------

double rssMb() {
  // Hand freed heap back first, so the reading tracks what is in use
  // rather than what the allocator happens to keep cached.
  ::malloc_trim(0);
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

void setP50P99(Result& r, const char* p50, const char* p99,
               const std::vector<double>& v) {
  r.set(p50, percentile(v, 0.50).value_or(0.0));
  r.set(p99, percentile(v, 0.99).value_or(0.0));
}

void printQuartiles(const char* label, const std::vector<double>& v,
                    const char* unit) {
  const Quartiles q = quartiles(v);
  std::printf("%s: n=%zu q1 %.6g median %.6g q3 %.6g %s (spread %.4f)\n",
              label, v.size(), q.q1, q.q2, q.q3, unit, q.spread());
}

TablePair makeTablePair(std::uint64_t seed) {
  cluert::Rng rng(seed);
  cluert::rib::GenOptions<A> gopt;
  gopt.size = 20'000;
  gopt.histogram = cluert::rib::internetLengths1999();
  gopt.subprefix_fraction = 0.2;
  TablePair t;
  t.sender = cluert::rib::TableGen<A>::generate(rng, gopt);
  cluert::rib::NeighborOptions<A> nopt;
  nopt.shared = 18'000;
  nopt.fresh = 500;
  nopt.fresh_extension_fraction = 0.3;
  t.receiver = cluert::rib::TableGen<A>::deriveNeighbor(t.sender, rng, nopt);
  return t;
}

DestPool makeDestPool(const TablePair& t, std::size_t count, cluert::Rng& rng,
                      bool routed_only) {
  const cluert::trie::BinaryTrie4 t1 = t.sender.buildTrie();
  const cluert::trie::BinaryTrie4 t2 = t.receiver.buildTrie();
  cluert::mem::AccessCounter scratch;
  const auto entries = t.sender.entries();
  DestPool pool;
  pool.dests.reserve(count);
  pool.clues.reserve(count);
  pool.expect.reserve(count);
  std::unordered_set<std::uint32_t> seen;
  seen.reserve(count * 2);
  const std::size_t max_attempts = count * 200 + 10'000;
  for (std::size_t attempts = 0;
       pool.dests.size() < count && attempts < max_attempts; ++attempts) {
    A dest(rng.u32());
    if (!rng.chance(0.1)) {
      const auto& p = entries[rng.index(entries.size())].prefix;
      dest = p.addr();
      for (int b = p.length(); b < 32; ++b) {
        dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
    }
    if (!seen.insert(dest.value()).second) continue;
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp || t2.findVertex(bmp->prefix) == nullptr) continue;  // §6 filter
    const auto want = t2.lookup(dest, scratch);
    if (routed_only && !want) continue;
    pool.dests.push_back(dest);
    pool.clues.push_back(cluert::core::ClueField::of(bmp->prefix.length()));
    pool.expect.push_back(want ? want->next_hop : cluert::kNoNextHop);
  }
  CLUERT_CHECK(pool.dests.size() == count)
      << "destination pool exhausted at " << pool.dests.size();
  return pool;
}

std::vector<std::uint32_t> zipfStream(std::size_t pool, std::size_t n,
                                      double s, cluert::Rng& rng) {
  std::vector<std::uint32_t> rank_to_idx(pool);
  for (std::size_t i = 0; i < pool; ++i) {
    rank_to_idx[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = pool; i > 1; --i) {
    std::swap(rank_to_idx[i - 1], rank_to_idx[rng.index(i)]);
  }
  const cluert::ZipfSampler zipf(pool, s);
  std::vector<std::uint32_t> out(n);
  for (auto& v : out) v = rank_to_idx[zipf.sample(rng)];
  return out;
}

std::string scratchDir() {
  const std::string dir = envOr("PERFBENCH_SCRATCH", ".bench_build/scratch");
  std::string partial;
  std::stringstream ss(dir);
  std::string part;
  if (!dir.empty() && dir[0] == '/') partial = "/";
  while (std::getline(ss, part, '/')) {
    if (part.empty()) continue;
    partial += part + "/";
    if (::mkdir(partial.c_str(), 0755) != 0 && errno != EEXIST) {
      CLUERT_CHECK(false) << "cannot create " << partial;
    }
  }
  return dir;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  bool have_workload = false, self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      self_test = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
      have_workload = true;
    } else if (a == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      args.trace = std::strtol(argv[++i], nullptr, 10) != 0;
    } else {
      return usage();
    }
  }
  if (self_test) return runSelfTests(/*verbose=*/true) == 0 ? 0 : 1;
  if (!have_workload || !(args.seconds > 0)) return usage();

  std::printf("provenance %s\n", provenanceJson(args).c_str());
  if (!releaseBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build (CLUERT_TRACE=%d)"
                 "; results come only from Release with CLUERT_TRACE off\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CLUERT_TRACE);
    return 3;
  }
  if (runSelfTests(/*verbose=*/false) != 0) {
    std::fprintf(stderr, "perfbench: self-tests failed; no result\n");
    return 4;
  }

  Result r;
  const CpuTimes host0 = readCpuTimes();
  if (args.workload == "fwd_steady") {
    runFwdSteady(args, r);
  } else if (args.workload == "wire") {
    runWire(args, r);
  } else if (args.workload == "topo_storm") {
    runTopoStorm(args, r);
  } else {
    return usage();
  }
  // Time the hypervisor gave this VM's CPUs to others: the usual reason two
  // runs of the same code disagree on a shared host.
  const CpuTimes host1 = readCpuTimes();
  std::printf("host: steal %.4f of CPU time during the run\n",
              ratio(static_cast<double>(host1.steal - host0.steal),
                    static_cast<double>(host1.total - host0.total)));
  if (!r.correct) {
    std::fprintf(stderr, "perfbench: output check failed: %s\n",
                 r.first_error.c_str());
  }
  std::fflush(stderr);
  std::printf("%s\n", r.json(args.trace).c_str());
  std::fflush(stdout);
  return 0;
}
