// Reproduces Figure 2: total publishing (indexing) time as a function of
// the total published data volume, for several network sizes and publisher
// counts, with and without the DPP.
//
// Paper setup: 250-1000 MB of DBLP fragments on Grid5000.  Here volumes are
// scaled down ~1:60 (simulated network, same shapes):
//   - publication scales linearly in the data size;
//   - growing the network 200 -> 500 peers adds negligible cost (locate()
//     is cheap);
//   - enabling DPP adds negligible overhead (block splits are cheap);
//   - many publishers cut indexing time drastically.
// Each row also records the mean routing hops of the messages the publish
// delivered (digit-table routes: about log16 n hops).

#include <cstdio>

#include "bench/bench_util.h"
#include "obs/metrics.h"

namespace kadop {
namespace {

using bench::Banner;

struct Config {
  const char* label;
  size_t publishers;
  size_t peers;
  bool dpp;
};

void Run() {
  Banner("FIG 2", "indexing time vs published volume");
  bench::BenchReport report("fig2_indexing",
                            "indexing time vs published volume");
  const Config configs[] = {
      {"1 publisher, 200 peers", 1, 200, false},
      {"1 publisher, 500 peers", 1, 500, false},
      {"1 publisher, 500 peers (with DPP)", 1, 500, true},
      {"25 publishers, 500 peers", 25, 500, false},
      {"50 publishers, 500 peers", 50, 500, false},
  };
  const size_t volumes_mb[] = {4, 8, 12, 16};

  std::printf("%-36s", "published data (scaled MB)");
  for (size_t mb : volumes_mb) std::printf("%10zu", mb);
  std::printf("\n");

  auto& registry = obs::MetricRegistry::Default();
  for (const Config& config : configs) {
    std::printf("%-36s", config.label);
    double hops_per_message = 0;
    for (size_t mb : volumes_mb) {
      xml::corpus::DblpOptions copt;
      copt.target_bytes = mb << 20;
      auto docs = xml::corpus::GenerateDblp(copt);

      core::KadopOptions opt;
      opt.peers = config.peers;
      opt.enable_dpp = config.dpp;
      core::KadopNet net(opt);
      const obs::MetricsSnapshot base = registry.Snapshot();
      double elapsed;
      if (config.publishers == 1) {
        elapsed = net.PublishAndWait(0, bench::Ptrs(docs));
      } else {
        elapsed = net.ParallelPublishAndWait(bench::SplitAcrossPublishers(
            docs, config.publishers, config.peers));
      }
      const obs::HistogramSnapshot hops =
          registry.Snapshot().DiffSince(base).histograms.at(
              "dht.hops_per_delivery");
      hops_per_message = hops.count > 0 ? hops.sum / hops.count : 0;
      std::printf("%9.2fs", elapsed);
      std::fflush(stdout);
      report.AddRow()
          .Str("config", config.label)
          .Num("publishers", static_cast<double>(config.publishers))
          .Num("peers", static_cast<double>(config.peers))
          .Num("dpp", config.dpp ? 1 : 0)
          .Num("published_mb", static_cast<double>(mb))
          .Num("indexing_time_s", elapsed)
          .Num("hops_per_message", hops_per_message);
    }
    std::printf("%8.2f hops/msg\n", hops_per_message);
  }
  report.Write();
  std::printf(
      "\nPaper shape: linear growth; 200 vs 500 peers ~equal; DPP overhead\n"
      "negligible; 25/50 publishers drastically lower.\n");
}

}  // namespace
}  // namespace kadop

int main() {
  kadop::Run();
  return 0;
}
