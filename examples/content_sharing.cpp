// An ad-hoc content-sharing community (Section 1's first motivating use
// case): peers share bibliography fragments, query them with different
// evaluation strategies, and survive a peer failure thanks to DHT
// replication.

#include <cstdio>

#include "core/kadop.h"
#include "dht/ring.h"
#include "obs/metrics.h"
#include "xml/corpus.h"

int main() {
  using namespace kadop;

  core::KadopOptions options;
  options.peers = 24;
  options.dht.replication = 3;  // each index entry on 3 peers
  options.enable_dpp = false;   // replication applies to flat lists
  core::KadopNet net(options);

  // Three community members publish their own bibliographies.
  xml::corpus::DblpOptions copt;
  copt.target_bytes = 1 << 20;
  auto docs = xml::corpus::GenerateDblp(copt);
  std::vector<std::pair<sim::NodeIndex, std::vector<const xml::Document*>>>
      batches = {{0, {}}, {8, {}}, {16, {}}};
  for (size_t i = 0; i < docs.size(); ++i) {
    batches[i % 3].second.push_back(&docs[i]);
  }
  net.ParallelPublishAndWait(batches);
  std::printf("community index built: %llu postings over %zu peers\n\n",
              static_cast<unsigned long long>(
                  obs::MetricRegistry::Default()
                      .GetCounter("dht.postings_stored")
                      ->value()),
              net.PeerCount());

  // The same selective query under different strategies: compare the data
  // volume each one moves.
  const char* expr = "//article//author[. contains 'Ullman']";
  std::printf("query: %s\n", expr);
  std::printf("%-20s%14s%14s%12s\n", "strategy", "volume (KB)",
              "normalized", "answers");
  for (query::QueryStrategy strategy :
       {query::QueryStrategy::kBaseline, query::QueryStrategy::kAbReducer,
        query::QueryStrategy::kDbReducer,
        query::QueryStrategy::kBloomReducer}) {
    query::QueryOptions qopt;
    qopt.strategy = strategy;
    auto result = net.QueryAndWait(5, expr, qopt);
    if (!result.ok()) continue;
    const auto& m = result.value().metrics;
    const double kb =
        static_cast<double>(m.posting_bytes + m.ab_filter_bytes +
                            m.db_filter_bytes) /
        1024.0;
    std::printf("%-20s%14.1f%14.3f%12zu\n",
                std::string(query::QueryStrategyName(strategy)).c_str(), kb,
                m.NormalizedDataVolume(), result.value().answers.size());
  }

  // Failure injection: kill the peer in charge of the author list; after
  // the overlay stabilizes, the successor answers from its replica.
  const auto owner = net.dht().OwnerOf(dht::HashKey("l:author"));
  std::printf("\nfailing peer %u (owner of l:author)...\n", owner);
  net.dht().FailPeer(owner);
  net.dht().Stabilize();
  query::QueryOptions qopt;
  auto after = net.QueryAndWait(5, expr, qopt);
  if (after.ok()) {
    std::printf("after failover: %zu answers, complete=%s\n",
                after.value().answers.size(),
                after.value().metrics.complete ? "yes" : "no");
  }
  return 0;
}
