// Reproduces Figure 3: index-query response time for
// //article//author//"Ullman" as the indexed volume grows, with and
// without the DPP.
//
// The query deliberately touches `author`, one of the longest posting
// lists (the paper calls it "a stress test for our approach"). Without the
// DPP the transfer of the author list is bound by its single owner's
// uplink and grows linearly; with the DPP the list is range-partitioned
// across peers and fetched in parallel, so response time grows much more
// slowly and the DPP's lead widens with the volume.
//
// On top of the paper's figure this bench runs, per volume, the
// distributed-join A/B (kDppJoin ships structural joins to the block
// holders, so the query peer's posting ingress collapses to result
// tuples — same answers, byte for byte), and a materialized-view run (the
// query pattern pre-joined into an extent, so serving fetches only the
// answer columns).

#include <cstdio>

#include "bench/bench_util.h"

namespace kadop {
namespace {

constexpr const char* kQuery = "//article//author//\"Ullman\"";

struct Sample {
  double response = -1;
  double first_answer = 0;
  uint64_t posting_wire = 0;   // kPosting wire bytes for the (first) query
  uint64_t ingress_wire = 0;   // query-peer posting + result ingress
  uint64_t join_tasks = 0;
  std::vector<query::Answer> answers;
  std::vector<index::DocId> matched_docs;
};

Sample RunOne(size_t mb, query::QueryStrategy strategy) {
  xml::corpus::DblpOptions copt;
  copt.target_bytes = mb << 20;
  auto docs = xml::corpus::GenerateDblp(copt);

  core::KadopOptions opt;
  opt.peers = 200;
  opt.enable_dpp = strategy != query::QueryStrategy::kBaseline;
  core::KadopNet net(opt);
  net.PublishAndWait(0, bench::Ptrs(docs));
  if (strategy == query::QueryStrategy::kView) {
    auto created = net.CreateViewAndWait(kQuery, "fig3");
    if (!created.ok()) {
      std::fprintf(stderr, "view materialization failed: %s\n",
                   created.status().ToString().c_str());
      return {};
    }
  }

  query::QueryOptions qopt;
  qopt.strategy = strategy;
  qopt.dpp_join_available = strategy == query::QueryStrategy::kDppJoin;

  Sample out;
  const uint64_t wire_before =
      net.network().traffic().CategoryBytes(sim::TrafficCategory::kPosting);
  auto result = net.QueryAndWait(1, kQuery, qopt);
  if (!result.ok()) {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
    return out;
  }
  out.response = result.value().metrics.ResponseTime();
  out.first_answer = result.value().metrics.TimeToFirstAnswer();
  out.ingress_wire = result.value().metrics.posting_wire_bytes +
                     result.value().metrics.result_wire_bytes;
  out.join_tasks = result.value().metrics.join_tasks;
  out.answers = result.value().answers;
  out.matched_docs = result.value().matched_docs;
  out.posting_wire =
      net.network().traffic().CategoryBytes(sim::TrafficCategory::kPosting) -
      wire_before;
  return out;
}

void Run() {
  bench::Banner("FIG 3", "query response time with/without DPP");
  bench::BenchReport report("fig3_query_dpp",
                            "query response time with/without DPP, plus "
                            "join and view A/B");
  std::printf("query: %s\n\n", kQuery);
  std::printf("%-28s%14s%14s%16s%12s%14s%14s\n", "indexed data (scaled MB)",
              "no DPP (s)", "DPP (s)", "DPP 1st ans (s)", "speedup",
              "wire KB", "djoin (s)");
  std::vector<size_t> volumes_mb = {2, 4, 8, 16, 24};
  if (bench::QuickMode()) volumes_mb = {2};
  for (size_t mb : volumes_mb) {
    // Paper trajectory; then the DPP run once more with the join pushed to
    // the block holders, and once from a materialized view.
    const Sample base = RunOne(mb, query::QueryStrategy::kBaseline);
    const Sample dpp = RunOne(mb, query::QueryStrategy::kDpp);
    const Sample djoin = RunOne(mb, query::QueryStrategy::kDppJoin);
    const Sample view = RunOne(mb, query::QueryStrategy::kView);
    // Query-peer ingress, postings plus result messages: kDppJoin receives
    // answer streams instead of posting blocks.
    const double join_wire_reduction =
        static_cast<double>(dpp.ingress_wire) /
        static_cast<double>(std::max<uint64_t>(1, djoin.ingress_wire));
    const bool join_answers_match = dpp.answers == djoin.answers &&
                                    dpp.matched_docs == djoin.matched_docs;
    std::printf("%-28zu%14.4f%14.4f%16.4f%11.2fx%14.1f%14.4f\n", mb,
                base.response, dpp.response, dpp.first_answer,
                base.response / dpp.response,
                static_cast<double>(dpp.posting_wire) / 1024.0,
                djoin.response);
    std::fflush(stdout);
    report.AddRow()
        .Num("indexed_mb", static_cast<double>(mb))
        .Num("baseline_response_s", base.response)
        .Num("dpp_response_s", dpp.response)
        .Num("dpp_first_answer_s", dpp.first_answer)
        .Num("speedup", base.response / dpp.response)
        .Num("posting_wire_kb", static_cast<double>(dpp.posting_wire) / 1024.0)
        .Num("dpp_join_response_s", djoin.response)
        .Num("dpp_join_first_answer_s", djoin.first_answer)
        .Num("dpp_ingress_wire_kb",
             static_cast<double>(dpp.ingress_wire) / 1024.0)
        .Num("dpp_join_ingress_wire_kb",
             static_cast<double>(djoin.ingress_wire) / 1024.0)
        .Num("join_wire_reduction", join_wire_reduction)
        .Num("join_tasks", static_cast<double>(djoin.join_tasks))
        .Num("join_answers_match", join_answers_match ? 1.0 : 0.0)
        .Num("view_response_s", view.response)
        .Num("view_first_answer_s", view.first_answer)
        .Num("view_ingress_wire_kb",
             static_cast<double>(view.ingress_wire) / 1024.0)
        .Num("view_answers_match",
             dpp.answers == view.answers &&
                     dpp.matched_docs == view.matched_docs
                 ? 1.0
                 : 0.0);
  }
  report.Write();
  std::printf(
      "\nPaper shape: DPP cuts response time by ~3x and its growth with\n"
      "data volume is much slower (transfer parallelized across block\n"
      "holders instead of a single owner uplink).\n"
      "Join A/B: dpp_join pushes the structural join to the block\n"
      "holders — byte-identical answers, and the query peer receives\n"
      "answer streams instead of posting blocks.\n");
}

}  // namespace
}  // namespace kadop

int main() {
  kadop::Run();
  return 0;
}
