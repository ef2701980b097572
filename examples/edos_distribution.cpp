// The paper's motivating application (Section 1): the Edos project — a
// community of Linux-distribution developers sharing the metadata of
// ~10 000 software packages as XML, indexed in a DHT so that any developer
// can ask structured questions ("which packages depend on libxml?").
//
// This example generates package-metadata documents, publishes them from
// several developer peers in parallel, and runs dependency queries with
// the DPP strategy, printing index statistics along the way.

#include <cstdio>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/kadop.h"
#include "obs/metrics.h"
#include "xml/node.h"

namespace {

/// Generates package metadata documents, ~40 packages per document (one
/// document per "category" file of the distribution).
std::vector<kadop::xml::Document> GeneratePackages(size_t packages,
                                                   uint64_t seed) {
  using kadop::xml::Document;
  using kadop::xml::Node;
  kadop::Rng rng(seed);
  static const char* kLibs[] = {"libxml",  "libc",    "libssl",
                                "zlib",    "libpng",  "gtk",
                                "qt",      "python",  "perl"};
  std::vector<Document> docs;
  size_t made = 0;
  size_t file = 0;
  while (made < packages) {
    Document doc;
    doc.uri = "edos/cat" + std::to_string(file++) + ".xml";
    doc.root = Node::Element("packages");
    for (int p = 0; p < 40 && made < packages; ++p, ++made) {
      Node* pkg = doc.root->AddElement("package");
      pkg->AddElement("name")->AddText("pkg" + std::to_string(made));
      pkg->AddElement("version")->AddText(
          std::to_string(1 + rng.Uniform(9)) + "." +
          std::to_string(rng.Uniform(20)));
      pkg->AddElement("summary")->AddText(
          "a package providing feature " + std::to_string(rng.Uniform(50)));
      Node* deps = pkg->AddElement("dependencies");
      const size_t n_deps = 1 + rng.Uniform(4);
      for (size_t d = 0; d < n_deps; ++d) {
        deps->AddElement("requires")->AddText(kLibs[rng.Uniform(9)]);
      }
      if (rng.Bernoulli(0.2)) {
        pkg->AddElement("conflicts")->AddText(kLibs[rng.Uniform(9)]);
      }
    }
    kadop::xml::AnnotateSids(doc);
    docs.push_back(std::move(doc));
  }
  return docs;
}

}  // namespace

int main() {
  using namespace kadop;

  // A community of 40 developer peers.
  core::KadopOptions options;
  options.peers = 40;
  options.dpp.max_block_postings = 2048;
  core::KadopNet net(options);

  // One distribution release: 10 000 packages, published by 8 developers
  // in parallel (each contributes a slice of the metadata).
  auto docs = GeneratePackages(10000, /*seed=*/2006);
  std::vector<std::pair<sim::NodeIndex, std::vector<const xml::Document*>>>
      batches(8);
  for (size_t i = 0; i < docs.size(); ++i) {
    batches[i % 8].first = static_cast<sim::NodeIndex>(5 * (i % 8));
    batches[i % 8].second.push_back(&docs[i]);
  }
  const double publish_time = net.ParallelPublishAndWait(batches);
  std::printf("Edos release indexed: %zu metadata files, %llu postings, "
              "%.3f virtual s\n",
              docs.size(),
              static_cast<unsigned long long>(
                  obs::MetricRegistry::Default()
                      .GetCounter("dht.postings_stored")
                      ->value()),
              publish_time);

  // How partitioned did the popular lists get?
  size_t partitioned = 0;
  for (size_t i = 0; i < net.PeerCount(); ++i) {
    auto* dpp = net.peer(static_cast<sim::NodeIndex>(i))->dpp();
    if (dpp) partitioned += dpp->PartitionedTermCount();
  }
  std::printf("terms with DPP-partitioned posting lists: %zu\n\n",
              partitioned);

  // Developer queries.
  const char* queries[] = {
      "//package[contains(.//requires,'libxml')]//name",
      "//package[contains(.//requires,'libssl')][//conflicts]//name",
      "//package[contains(.//summary,'feature')]//version",
  };
  for (const char* expr : queries) {
    query::QueryOptions qopt;
    qopt.strategy = query::QueryStrategy::kDpp;
    auto result = net.QueryAndWait(/*at=*/11, expr, qopt);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    const auto& m = result.value().metrics;
    std::printf("%-58s\n  -> %6zu matching docs, %.4fs response, "
                "%.4fs to first answer, %llu/%llu blocks skipped\n",
                expr, result.value().matched_docs.size(), m.ResponseTime(),
                m.TimeToFirstAnswer(),
                static_cast<unsigned long long>(m.blocks_skipped),
                static_cast<unsigned long long>(m.blocks_skipped +
                                                m.blocks_fetched));
  }
  return 0;
}
