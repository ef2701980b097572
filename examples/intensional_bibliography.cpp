// Intensional data with the Fundex (Section 6): bibliography entries keep
// their abstracts in separate files via XML entity includes (exactly the
// paper's Figure 8 pattern). The example publishes the collection under
// the four indexing schemes and shows their completeness/precision and
// query-time trade-offs.

#include <cstdio>

#include "core/kadop.h"
#include "obs/metrics.h"
#include "xml/corpus.h"

int main() {
  using namespace kadop;

  // An INEX-HCO-like collection: each publication = a description file
  // plus an abstract file referenced with <!ENTITY ... SYSTEM ...>.
  xml::corpus::InexOptions copt;
  copt.publications = 800;
  copt.planted_matches = 8;
  auto docs = xml::corpus::GenerateInex(copt);
  std::printf("collection: %zu publications (x2 files each)\n",
              copt.publications);
  std::printf("query: articles with 'system' in the title AND 'interface' "
              "in the (intensional) abstract\n\n");

  const char* expr =
      "//article[contains(.//title,'system') and "
      "contains(.//abstract,'interface')]";

  std::printf("%-24s%12s%12s%14s%14s\n", "indexing scheme", "found",
              "rev gets", "query (s)", "postings");
  for (fundex::IntensionalMode mode :
       {fundex::IntensionalMode::kNaive,
        fundex::IntensionalMode::kFundexSimple,
        fundex::IntensionalMode::kFundexRepresentative,
        fundex::IntensionalMode::kInline}) {
    // The registry is process-wide: zero it so each scheme counts its own.
    obs::MetricRegistry::Default().Reset();
    core::KadopOptions options;
    options.peers = 16;
    core::KadopNet net(options);
    net.RegisterDocuments(docs);  // uri resolution for includes
    std::vector<const xml::Document*> mains;
    for (size_t i = 0; i < copt.publications; ++i) mains.push_back(&docs[i]);
    net.FundexPublishAndWait(/*publisher=*/1, mains, mode);

    auto result = net.FundexQueryAndWait(/*at=*/3, expr, mode);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    std::printf("%-24s%12zu%12llu%14.4f%14llu\n",
                std::string(fundex::IntensionalModeName(mode)).c_str(),
                result.value().matched_docs.size(),
                static_cast<unsigned long long>(result.value().rev_lookups),
                result.value().response_time,
                static_cast<unsigned long long>(
                    obs::MetricRegistry::Default()
                        .GetCounter("dht.postings_stored")
                        ->value()));
  }
  std::printf(
      "\nnaive misses everything (abstracts invisible); fundex-simple and\n"
      "in-lining are complete and precise; the representative index is\n"
      "complete but approximate, and cheapest to build.\n");
  return 0;
}
