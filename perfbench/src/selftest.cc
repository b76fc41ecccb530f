// Self-tests for the benchmark's own arithmetic (ledger.h). They run before
// every measurement and on their own with `perfbench --self-test`.
//
// Every check is made twice: against the hand-computed answer, where it
// must pass, and against a seeded wrong answer, where it must fail. A check
// that cannot tell the two apart (a NaN, a tolerance wider than the error
// it guards) is itself reported as a failure.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "ledger.h"

namespace perfbench {

namespace {

class Checker {
 public:
  explicit Checker(bool verbose) : verbose_(verbose) {}

  // `got` must match `want` within `tol`, and must NOT match `wrong`.
  void near(const std::string& name, double got, double want, double wrong,
            double tol = 1e-9) {
    const bool ok = std::fabs(got - want) <= tol;
    const bool caught = !(std::fabs(got - wrong) <= tol);
    record(name, ok && caught, got, want, wrong);
  }

  // An optional that must be empty (the tail rule refused the percentile);
  // a present value is the seeded wrong answer.
  void refused(const std::string& name, const std::optional<double>& got) {
    record(name, !got.has_value(), got.value_or(NAN), NAN, NAN);
  }

  int failures() const { return failures_; }

 private:
  void record(const std::string& name, bool pass, double got, double want,
              double wrong) {
    if (!pass) ++failures_;
    if (verbose_ || !pass) {
      std::fprintf(pass ? stdout : stderr,
                   "%s %s (got %.17g, want %.17g, seeded wrong %.17g)\n",
                   pass ? "ok  " : "FAIL", name.c_str(), got, want, wrong);
    }
  }

  bool verbose_;
  int failures_ = 0;
};

std::vector<double> ramp(int n) {
  std::vector<double> v;
  // Descending, so an implementation that forgets to order the samples
  // answers differently.
  for (int i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

int runSelfTests(bool verbose) {
  Checker c(verbose);

  // Percentiles: nearest rank, and the >= kMinBeyond-samples-beyond rule.
  c.near("minSamplesFor(p50)", static_cast<double>(minSamplesFor(0.50)), 20,
         19);
  c.near("minSamplesFor(p99)", static_cast<double>(minSamplesFor(0.99)), 1000,
         999);
  c.near("p50 of 1..100", percentile(ramp(100), 0.50).value_or(NAN), 50, 51);
  c.near("p99 of 1..1000", percentile(ramp(1000), 0.99).value_or(NAN), 990,
         991);
  c.near("p90 of 1..100", percentile(ramp(100), 0.90).value_or(NAN), 90, 91);
  c.refused("p99 of 999 samples refused", percentile(ramp(999), 0.99));
  c.refused("p50 of 19 samples refused", percentile(ramp(19), 0.50));
  c.refused("p50 of no samples refused", percentile({}, 0.50));
  // Sustained rate: nearest-rank upper decile, 0 below kMinWindows.
  c.near("sustained rate of 1..100", sustainedRate(ramp(100)), 90, 50.5);
  c.near("sustained rate of 1..25", sustainedRate(ramp(25)), 23, 22.5);
  c.near("sustained rate of 19 windows", sustainedRate(ramp(19)), 0, 18);
  c.near("median of 1..4", median(ramp(4)), 2.5, 3);
  c.near("median of 1..5", median(ramp(5)), 3, 2.5);

  // Quartiles exactly as Python's statistics.quantiles(v, n=4) gives them.
  c.near("quartiles q1 of 1..4", quartiles(ramp(4)).q1, 1.25, 1.0);
  c.near("quartiles q3 of 1..10", quartiles(ramp(10)).q3, 8.25, 8.0);
  c.near("quartiles q2 of 5 samples", quartiles({5, 1, 4, 2, 3}).q2, 3.0, 2.5);
  c.near("quartiles q1 of 2 samples", quartiles({3.5, 1}).q1, 0.375, 1.0);
  c.near("quartiles q3 of 2 samples", quartiles({3.5, 1}).q3, 4.125, 3.5);
  c.near("quartile spread of 1..10", quartiles(ramp(10)).spread(), 1.0, 0.5);

  // Self time: 2 s of 3 workers over 1e9 packets is 6 ns/pkt of thread
  // time; 4 of them are the child layer's.
  c.near("selfNsPerPkt", selfNsPerPkt(2.0, 3, 1'000'000'000ull, 4.0), 2.0,
         6.0);
  c.near("selfNsPerPkt without packets", selfNsPerPkt(2.0, 3, 0, 4.0), 0,
         -4.0);

  // Ratios with their bases.
  c.near("ratio", ratio(30.0, 12.0), 2.5, 12.0 / 30.0);
  c.near("ratio over a zero base", ratio(30.0, 0.0), 0, INFINITY);
  c.near("overhead", overhead(90.0, 100.0), 0.10, 100.0 / 90.0 - 1.0);
  c.near("overhead of a faster traced run", overhead(110.0, 100.0), -0.10,
         0.10);
  const std::vector<std::uint64_t> shards = {30, 10};
  c.near("imbalance", imbalance(shards), 1.5, 3.0);

  // Oracle comparisons: zero on a correct output, and each seeded wrong
  // next hop counted exactly once.
  const std::vector<cluert::NextHop> expect = {7, 8, 9};
  const std::vector<std::uint32_t> idx = {2, 0, 1, 2, 2};
  std::vector<cluert::NextHop> got = {9, 7, 8, 9, 9};
  c.near("countMismatches, correct output",
         static_cast<double>(countMismatches(got, idx, expect)), 0, 1);
  got[3] = 8;
  c.near("countMismatches, one wrong hop",
         static_cast<double>(countMismatches(got, idx, expect)), 1, 0);
  got[0] = cluert::kNoNextHop;
  c.near("countMismatches, a dropped packet",
         static_cast<double>(countMismatches(got, idx, expect)), 2, 1);
  c.near("countMismatches, a missing output slot",
         static_cast<double>(countMismatches(
             std::vector<cluert::NextHop>{9, 7}, idx, expect)),
         3, 0);

  // The catalogue itself: names unique and within the contract's limits.
  int bad_names = 0;
  std::vector<std::string> names;
  for (const auto& m : kEndToEnd) names.push_back(m.name);
  for (const auto& m : kPerLayer) names.push_back(m.name);
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i].empty() || names[i].size() > 64) ++bad_names;
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      if (names[i] == names[j]) ++bad_names;
    }
  }
  c.near("catalogue names unique and short", bad_names, 0, 1);
  return c.failures();
}

}  // namespace perfbench
