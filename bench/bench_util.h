// Shared machinery for the experiment binaries: the §6 methodology
// (destination sampling, the 15-way method comparison) and table printing.
#pragma once

#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/stats.h"
#include "core/distributed_lookup.h"
#include "rib/snapshot.h"

// Baked in by bench/CMakeLists.txt at configure time (git rev-parse); the
// fallback covers tarball builds with no .git directory.
#ifndef CLUERT_GIT_SHA
#define CLUERT_GIT_SHA "unknown"
#endif
// Build provenance, baked in the same way: CMake build type, compiler id and
// version, and the C++ flags that build type compiles with.
#ifndef CLUERT_BUILD_TYPE
#define CLUERT_BUILD_TYPE "unknown"
#endif
#ifndef CLUERT_COMPILER
#define CLUERT_COMPILER "unknown"
#endif
#ifndef CLUERT_CXX_FLAGS
#define CLUERT_CXX_FLAGS "unknown"
#endif

namespace cluert::bench {

// Bump when the shape of any BENCH_*.json artifact changes incompatibly, so
// downstream comparators (tools/metrics_diff.py and whatever reads the perf
// trajectory across PRs) can refuse to diff mismatched layouts instead of
// silently comparing apples to oranges.
inline constexpr int kBenchSchemaVersion = 1;

// The CPU model string ("model name" in /proc/cpuinfo), or "unknown" where
// that file does not exist or does not say.
inline std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    const std::size_t b = line.find_first_not_of(' ', colon + 1);
    return b == std::string::npos ? "unknown" : line.substr(b);
  }
  return "unknown";
}

// Minimal streaming JSON writer shared by the experiment binaries. Every
// document opens with the same provenance header — bench name, schema
// version, git SHA — which is the point of centralising it: artifacts from
// different benches and different commits stay self-identifying.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  // Opens the root object and stamps the provenance header. The build
  // (type, CLUERT_TRACE, compiler, flags) says which code produced a
  // number; hostname, CPU model and CPU count identify the machine behind
  // it — a pps regression that is really "ran a debug build" or "ran on the
  // small box" should be visible from the artifact alone.
  void beginDocument(std::string_view bench) {
    beginObject();
    field("bench", bench);
    field("schema_version", static_cast<std::uint64_t>(kBenchSchemaVersion));
    field("git_sha", std::string_view(CLUERT_GIT_SHA));
    field("build_type", std::string_view(CLUERT_BUILD_TYPE));
    field("cluert_trace", obs::kTraceCompiled);
    field("compiler", std::string_view(CLUERT_COMPILER));
    field("cxx_flags", std::string_view(CLUERT_CXX_FLAGS));
    char host[256] = {};
    if (::gethostname(host, sizeof host - 1) != 0) {
      std::snprintf(host, sizeof host, "unknown");
    }
    field("hostname", std::string_view(host));
    field("cpu_model", cpuModel());
    field("cpus", static_cast<std::uint64_t>(
                      std::thread::hardware_concurrency()));
  }
  void endDocument() {
    endObject();
    out_ << "\n";
  }

  void beginObject() {
    item();
    out_ << "{";
    stack_.push_back(true);
  }
  void endObject() {
    stack_.pop_back();
    newlineIndent();
    out_ << "}";
  }
  void beginArray(std::string_view k) {
    key(k);
    item();
    out_ << "[";
    stack_.push_back(true);
  }
  void endArray() {
    stack_.pop_back();
    newlineIndent();
    out_ << "]";
  }

  void key(std::string_view k) {
    item();
    quoted(k);
    out_ << ": ";
    pending_value_ = true;
  }

  void value(std::string_view v) {
    item();
    quoted(v);
  }
  void value(const char* v) { value(std::string_view(v)); }
  void value(bool v) {
    item();
    out_ << (v ? "true" : "false");
  }
  void value(double v) {
    item();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out_ << buf;
  }
  void value(std::uint64_t v) {
    item();
    out_ << v;
  }
  void value(int v) {
    item();
    out_ << v;
  }

  template <typename T>
  void field(std::string_view k, T v) {
    key(k);
    value(v);
  }

 private:
  // Comma/indent bookkeeping: called before every emitted item. A value that
  // directly follows its key stays on the key's line.
  void item() {
    if (pending_value_) {
      pending_value_ = false;
      return;
    }
    if (stack_.empty()) return;  // root
    if (!stack_.back()) out_ << ",";
    stack_.back() = false;
    newlineIndent();
  }
  void newlineIndent() {
    out_ << "\n";
    for (std::size_t i = 0; i < stack_.size(); ++i) out_ << "  ";
  }
  void quoted(std::string_view s) {
    out_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') out_ << '\\';
      out_ << c;
    }
    out_ << '"';
  }

  std::ostream& out_;
  std::vector<bool> stack_;  // per open scope: "no item emitted yet"
  bool pending_value_ = false;
};

using A = ip::Ip4Addr;
using MatchT = trie::Match<A>;

// §6: "A random destination is chosen, and its BMP in R1 is computed. Then
// we verified that this BMP is a vertex in the trie of R2, and if so the
// processing of that packet at R2 was carried out."
//
// Our synthetic tables cover a small slice of the 2^32 space (the 1999
// route-server tables covered most of it), so uniform draws would rarely
// have a BMP at all; we therefore bias destinations toward covered space —
// the per-method *relative* costs are unaffected (documented in
// EXPERIMENTS.md).
inline std::vector<A> paperDestinations(const rib::Fib4& sender,
                                        const trie::BinaryTrie4& t1,
                                        const trie::BinaryTrie4& t2, Rng& rng,
                                        std::size_t count) {
  std::vector<A> out;
  out.reserve(count);
  mem::AccessCounter scratch;
  const auto entries = sender.entries();
  std::size_t attempts = 0;
  const std::size_t max_attempts = count * 200 + 10'000;
  while (out.size() < count && ++attempts < max_attempts) {
    A dest(rng.u32());
    if (!entries.empty() && !rng.chance(0.1)) {
      const auto& p = entries[rng.index(entries.size())].prefix;
      dest = p.addr();
      for (int b = p.length(); b < 32; ++b) {
        dest = dest.withBit(b, static_cast<unsigned>(rng.u32() & 1));
      }
    }
    const auto bmp = t1.lookup(dest, scratch);
    if (!bmp) continue;
    if (t2.findVertex(bmp->prefix) == nullptr) continue;  // §6 filter
    out.push_back(dest);
  }
  return out;
}

// Average data-plane accesses for the 15 combinations of §6 Tables 4-9.
struct FifteenWay {
  // [mode][method]: mode 0 = Common, 1 = Simple, 2 = Advance.
  double avg[3][5] = {};
  std::size_t destinations = 0;
};

inline FifteenWay runFifteenWay(const rib::Fib4& sender,
                                const rib::Fib4& receiver,
                                const std::vector<A>& dests,
                                const trie::BinaryTrie4& t1) {
  FifteenWay out;
  out.destinations = dests.size();
  if (dests.empty()) return out;

  // Precompute each destination's clue (the sender's BMP) once.
  mem::AccessCounter scratch;
  std::vector<core::ClueField> clues(dests.size());
  for (std::size_t i = 0; i < dests.size(); ++i) {
    const auto bmp = t1.lookup(dests[i], scratch);
    clues[i] = bmp ? core::ClueField::of(bmp->prefix.length())
                   : core::ClueField::none();
  }
  std::vector<ip::Prefix4> clue_universe = sender.prefixes();

  // One suite serves all 15 cells: the engines are immutable, Simple ports
  // ignore the Claim-1 bits, and the Advance annotation (neighbor index 0
  // against t1) is idempotent. Ports are built and torn down per cell to
  // bound peak memory on the 60k-prefix tables.
  lookup::LookupSuite<A> suite(
      {receiver.entries().begin(), receiver.entries().end()});

  for (std::size_t mi = 0; mi < lookup::kAllMethods.size(); ++mi) {
    const lookup::Method method = lookup::kAllMethods[mi];
    // Common: the plain engine.
    {
      mem::AccessCounter acc;
      for (const A& d : dests) suite.engine(method).lookup(d, acc);
      out.avg[0][mi] = static_cast<double>(acc.total()) /
                       static_cast<double>(dests.size());
    }
    // Simple and Advance: a precomputed clue port each.
    for (int mode_i = 1; mode_i <= 2; ++mode_i) {
      typename core::CluePort<A>::Options opt;
      opt.method = method;
      opt.mode = mode_i == 1 ? lookup::ClueMode::kSimple
                             : lookup::ClueMode::kAdvance;
      opt.learn = false;
      opt.expected_clues = clue_universe.size() + 16;
      core::CluePort<A> port(suite, &t1, opt);
      port.precompute(clue_universe);
      mem::AccessCounter acc;
      for (std::size_t i = 0; i < dests.size(); ++i) {
        port.process(dests[i], clues[i], acc);
      }
      out.avg[mode_i][mi] = static_cast<double>(acc.total()) /
                            static_cast<double>(dests.size());
    }
  }
  return out;
}

inline void printFifteenWay(const std::string& title, const FifteenWay& r) {
  std::printf("\n== %s (%zu destinations) ==\n", title.c_str(),
              r.destinations);
  std::printf("%-10s", "Mode");
  for (const auto m : lookup::kAllMethods) {
    std::printf("%10s", std::string(lookup::methodName(m)).c_str());
  }
  std::printf("\n");
  const char* modes[3] = {"Common", "Simple", "Advance"};
  for (int mode = 0; mode < 3; ++mode) {
    std::printf("%-10s", modes[mode]);
    for (std::size_t mi = 0; mi < lookup::kAllMethods.size(); ++mi) {
      std::printf("%10.2f", r.avg[mode][mi]);
    }
    std::printf("\n");
  }
}

// Scale used by the heavyweight snapshot benches. 1.0 reproduces the paper's
// table sizes; override with CLUERT_BENCH_SCALE for quick runs.
inline double benchScale() {
  if (const char* s = std::getenv("CLUERT_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0.0 && v <= 1.0) return v;
  }
  return 1.0;
}

// Wall-clock rates are measured over windows of back-to-back passes lasting
// at least kMinWindowSeconds, repeated and interleaved with whatever they
// are compared against, so host noise shows up as spread (median, min, max
// over the repetitions) instead of deciding one short run.
inline constexpr double kMinWindowSeconds = 0.2;

// Items per second of `pass` (each call handles `items_per_pass` items),
// over calls repeated until at least kMinWindowSeconds of wall time elapsed.
template <typename Fn>
double windowRate(std::size_t items_per_pass, Fn&& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  std::size_t passes = 0;
  double seconds = 0.0;
  do {
    pass();
    ++passes;
    seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
  } while (seconds < kMinWindowSeconds);
  return static_cast<double>(passes * items_per_pass) / seconds;
}

// `name` (the median), `name`_min and `name`_max of a repeated measurement.
inline void writeSpread(JsonWriter& w, const std::string& name,
                        const Summary& s) {
  w.field(name, s.percentile(50));
  w.field(name + "_min", s.min());
  w.field(name + "_max", s.max());
}

inline std::size_t benchDestinations() {
  if (const char* s = std::getenv("CLUERT_BENCH_DESTS")) {
    const long v = std::atol(s);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 10'000;  // the paper's sample size
}

}  // namespace cluert::bench
