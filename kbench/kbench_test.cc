// The benchmark's own tests: the exact percentile path and same-seed
// determinism of every workload's virtual-time results and counters.
// Run with `python3 kbench/run.py --self-test`.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace kbench {
namespace {

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = 1; i <= n; ++i) v.push_back(static_cast<double>(i));
  return v;
}

TEST(Percentile, NearestRankIsAnOrderStatistic) {
  const std::vector<double> v = Ramp(1000);
  EXPECT_EQ(NearestRank(v, 0.5), 500);
  EXPECT_EQ(NearestRank(v, 0.99), 990);
  EXPECT_EQ(NearestRank(v, 1.0), 1000);
  EXPECT_EQ(NearestRank(v, 0.0), 1);
  EXPECT_EQ(NearestRank({}, 0.5), 0);
  EXPECT_EQ(Median({3, 1, 2}), 2);
}

TEST(Percentile, TailIsTheHighestWithTenSamplesBeyond) {
  Tail t = SupportedTail(Ramp(1000));
  EXPECT_EQ(t.percentile, 0.99);
  EXPECT_EQ(t.value, 990);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);

  t = SupportedTail(Ramp(999));  // p99 would leave only 9 beyond
  EXPECT_EQ(t.percentile, 0.95);
  EXPECT_EQ(t.beyond, 49u);

  t = SupportedTail(Ramp(100));
  EXPECT_EQ(t.percentile, 0.90);
  EXPECT_EQ(t.value, 90);

  t = SupportedTail(Ramp(50));  // nothing supported: the maximum
  EXPECT_EQ(t.percentile, 1.0);
  EXPECT_EQ(t.value, 50);
}

TEST(Percentile, FailedQueriesCountAsInfinitelySlow) {
  std::vector<double> v = Ramp(1000);
  for (size_t i = 0; i < 10; ++i) v[i] = kFailed;
  // Ten failures sit above every real latency; p99 still lands on a real
  // sample, which the failures pushed up by ten ranks.
  EXPECT_EQ(SupportedTail(v).value, 1000);
  v[10] = kFailed;
  EXPECT_EQ(SupportedTail(v).value, kFailed);
  EXPECT_EQ(Median(v), 511);
}

TEST(Percentile, NoBucketQuantization) {
  // A real p99 of 0.469 s reads as 0.469, inside a 0.5 s limit; a
  // 4-per-decade histogram would report its bucket edge, 0.56.
  std::vector<double> v(1000, 0.1);
  for (size_t i = 985; i < 1000; ++i) v[i] = 0.469 + 0.001 * (i - 985);
  EXPECT_DOUBLE_EQ(SupportedTail(v).value, 0.469 + 0.001 * 4);
  EXPECT_LE(SupportedTail(v).value, 0.5);
}

TEST(Percentile, Quartiles) {
  const Quartiles q = QuartilesOf(Ramp(8));
  EXPECT_EQ(q.q1, 2);
  EXPECT_EQ(q.median, 4);
  EXPECT_EQ(q.q3, 6);
}

struct PhaseResult {
  std::vector<double> latency_s;
  std::vector<double> first_answer_s;
  kadop::obs::MetricsSnapshot counters;
  std::array<uint64_t, 6> traffic{};
  std::vector<double> publish_virtual_s;
};

PhaseResult RunOnce(const std::string& workload, uint64_t seed) {
  Options opt;
  opt.workload = workload;
  opt.seed = seed;
  opt.seconds = 1;
  auto w = MakeWorkload(opt);
  EXPECT_NE(w, nullptr);
  w->Setup(nullptr);
  w->RunPhase(nullptr);
  PhaseResult r;
  r.latency_s = w->measured.latency_s;
  r.first_answer_s = w->measured.first_answer_s;
  r.counters = WithoutWallClockCounters(w->capture.counters);
  r.traffic = w->capture.traffic;
  for (const PublishRun& p : w->publishes) {
    r.publish_virtual_s.push_back(p.virtual_s);
  }
  return r;
}

class SameSeed : public ::testing::TestWithParam<const char*> {};

TEST_P(SameSeed, VirtualResultsAndCountersRepeatExactly) {
  const PhaseResult a = RunOnce(GetParam(), 7);
  const PhaseResult b = RunOnce(GetParam(), 7);
  EXPECT_EQ(a.latency_s, b.latency_s);
  EXPECT_EQ(a.first_answer_s, b.first_answer_s);
  EXPECT_EQ(a.publish_virtual_s, b.publish_virtual_s);
  EXPECT_EQ(a.traffic, b.traffic);
  EXPECT_TRUE(a.counters == b.counters);
  EXPECT_FALSE(a.counters.counters.empty());
}

INSTANTIATE_TEST_SUITE_P(Workloads, SameSeed,
                         ::testing::Values("serve_zipf", "long_list",
                                           "publish_bulk"));

TEST(Oracle, PublishBulkIndexMatchesTheCorpus) {
  Options opt;
  opt.workload = "publish_bulk";
  opt.seed = 3;
  opt.seconds = 1;
  auto w = MakeWorkload(opt);
  w->Setup(nullptr);
  w->RunPhase(nullptr);
  w->Verify(nullptr);
  EXPECT_TRUE(w->oracle.ok())
      << (w->oracle.mismatches.empty() ? "" : w->oracle.mismatches[0]);
  EXPECT_GT(w->oracle.checks, 1u);
  EXPECT_EQ(w->failed, 0u);
}

}  // namespace
}  // namespace kbench
