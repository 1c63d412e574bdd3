// Tests of the benchmark's own arithmetic: the tail-percentile rule, self
// time under overlapping child spans, and the outcome denominators.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs;
  for (std::size_t i = 1; i <= n; ++i) xs.push_back(static_cast<double>(i));
  return xs;
}

void percentile_rule() {
  using perfbench::percentile_supported;
  using perfbench::supported_tail;
  // p99 needs at least 10 samples beyond it, i.e. n >= 1000.
  expect(percentile_supported(1000, 99.0), "p99 supported at n=1000");
  expect(!percentile_supported(999, 99.0), "p99 unsupported at n=999");
  expect(percentile_supported(10000, 99.9), "p99.9 supported at n=10000");
  expect(!percentile_supported(9999, 99.9), "p99.9 unsupported at n=9999");
  expect(percentile_supported(20, 50.0), "median supported at n=20");
  expect(!percentile_supported(19, 50.0), "median unsupported at n=19");

  expect(!supported_tail(one_to(19)).has_value(), "no tail below 20");
  const auto t20 = supported_tail(one_to(20));
  expect(t20 && t20->percentile == 50.0 && t20->n == 20,
         "n=20 reports the median");
  const auto t100 = supported_tail(one_to(100));
  expect(t100 && t100->percentile == 90.0, "n=100 reports p90");
  const auto t1000 = supported_tail(one_to(1000));
  expect(t1000 && t1000->percentile == 99.0 && t1000->n == 1000,
         "n=1000 reports p99 with its count");
  // Linear interpolation between closest ranks: rank 0.99*999 = 989.01.
  expect(t1000 && near(t1000->value, 990.01), "p99 of 1..1000 is 990.01");
  const auto t10000 = supported_tail(one_to(10000));
  expect(t10000 && t10000->percentile == 99.9, "n=10000 reports p99.9");
  expect(near(perfbench::median({3.0, 1.0, 2.0, 10.0}), 2.5),
         "median of an even sample interpolates");
}

void self_time() {
  using perfbench::Span;
  // Parent [0, 10] with overlapping children [1, 4] and [3, 6], and one
  // child [8, 12] that runs past the parent's end: the union of the
  // children inside the parent is [1, 6] + [8, 10] = 7 ms.
  std::vector<Span> spans = {
      {"parent", 0.0, 10.0, -1, 1},
      {"a", 1.0, 4.0, 0, 1},
      {"b", 3.0, 6.0, 0, 1},
      {"c", 8.0, 12.0, 0, 1},
      // A grandchild covers part of "a" only; it never counts against the
      // parent directly.
      {"a.child", 1.0, 2.0, 1, 1},
      // A separate root is unaffected by other roots' children.
      {"other", 0.0, 5.0, -1, 2},
  };
  const auto self = perfbench::self_times_ms(spans);
  expect(near(self[0], 3.0), "parent self time excludes the child union");
  expect(near(self[1], 2.0), "child self time excludes its own child");
  expect(near(self[2], 3.0), "leaf self time is its duration");
  expect(near(self[3], 4.0), "a span's self time is not clipped by its parent");
  expect(near(self[5], 5.0), "an unrelated root keeps its duration");

  // A child nested entirely inside another child adds nothing.
  const auto nested = perfbench::self_times_ms({
      {"p", 0.0, 10.0, -1, 0},
      {"x", 2.0, 8.0, 0, 0},
      {"y", 3.0, 4.0, 0, 0},
  });
  expect(near(nested[0], 4.0), "nested children are counted once");
}

void denominators() {
  perfbench::Outcomes open;
  open.attempted = 100;  // 10 denied at admission: never served
  open.served = 90;
  open.served_in_slo = 85;
  open.mismatched = 2;
  expect(open.failed() == 12, "denials and mismatches both count as failed");
  expect(near(perfbench::failed_frac(open), 0.12),
         "failed_frac is over every attempted request");
  expect(near(perfbench::slo_met_frac(open), 0.85),
         "slo_met_frac counts denials as misses");

  perfbench::Outcomes closed;
  closed.attempted = 300;
  closed.served = 300;
  perfbench::Outcomes all = open;
  all += closed;
  expect(all.attempted == 400 && all.failed() == 12,
         "phases add attempted and failed");
  expect(near(perfbench::failed_frac(all), 0.03),
         "failed_frac of all phases uses their combined denominator");
}

void result_line() {
  perfbench::Report r;
  r.add("latency_ms", 1.25, "ms");
  r.add("setup_s", 0.5, "s");
  expect(r.json_line(true, 10, 0) ==
             "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
             "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
         "result line format");
  expect(perfbench::json_number(0.1) == "0.1", "shortest round-trip digits");
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  denominators();
  result_line();
  if (failures == 0) std::printf("perfbench_harness_test: all passed\n");
  return failures == 0 ? 0 : 1;
}
