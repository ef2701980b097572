// Open-loop serving SLO harness: a multi-tenant query mix offered at fixed
// arrival rates (Poisson, in virtual time) against a network that keeps
// indexing new documents while it serves. Unlike the closed-loop figure
// benches, arrivals never wait for completions, so queueing delay at the
// modeled disks and links shows up directly in the tail percentiles.
//
// The ladder is measured, not guessed: a capacity search on the main
// network (no churn) finds the highest SLO-passing rate C, and the ladder
// offers fixed fractions of C. Every percentile is the nearest-rank order
// statistic of the step's raw latency samples (obs::NearestRank).
//
// Emitted rows (BENCH_serving.json):
//   kind=qps_step         one per offered-QPS ladder step on the main network
//   kind=flash_crowd      a burst phase concentrating arrivals on the hot
//                         tenant
//   kind=knee             the first ladder step that violates the serving SLO
//   kind=qps_step_views   the same ladder on a same-seed twin with the
//                         tenant patterns materialized as views (A/B by
//                         row index; carries view hit-rate cells)
//   kind=view_probe       wire-bytes A/B on the selective tenant: kDppJoin
//                         total posting movement vs. the view extent
//   kind=capacity         peers vs. highest SLO-passing offered QPS, no
//                         churn; the first row is the main network's C
//
// Everything runs in virtual time from seeded RNGs: two runs with the same
// seed produce byte-identical JSON.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "core/kadop.h"
#include "index/publisher.h"
#include "obs/metrics.h"

namespace kadop {
namespace {

// Serving SLO: a step is sustainable when p99 stays under the bound and at
// least 90% of the offered load completes within the measurement window.
constexpr double kSloP99Seconds = 0.5;
constexpr double kSloMinCompletion = 0.9;

// Churn published while a step serves, per virtual second of its window.
constexpr double kChurnDocsPerSecond = 1.0;

// Capacity search: double from kSearchStartQps until a step misses the SLO
// (giving up past kSearchMaxQps), then bisect between the last passing and
// the first failing rate for kBisectRounds rounds.
constexpr double kSearchStartQps = 8;
constexpr double kSearchMaxQps = 8192;
constexpr int kBisectRounds = 3;

// The serving ladder, as fractions of the main network's capacity: the knee
// lands inside it, so the A/B twins compare loaded steps.
constexpr double kLadderFractions[] = {0.25, 0.5, 0.75, 1.0, 1.25};

/// One tenant of the serving mix: a query template plus its traffic share
/// rank (rank 0 is the hot tenant a flash crowd piles onto).
struct Tenant {
  const char* name;
  const char* xpath;
};

const Tenant kTenants[] = {
    {"hot_twig", "//article[//author]//title"},
    {"scan_authors", "//article//author"},
    {"proceedings", "//inproceedings//title"},
    {"word_lookup", "//article//title//\"database\""},
    {"filtered", "//article[contains(.//title,'system')]//author"},
    {"rare_thesis", "//phdthesis//author"},
};
constexpr size_t kTenantCount = sizeof(kTenants) / sizeof(kTenants[0]);

struct StepResult {
  double offered_qps = 0;
  double achieved_qps = 0;
  double p50 = 0;
  double p99 = 0;
  double p999 = 0;
  size_t submitted = 0;
  size_t completed = 0;
  size_t degraded = 0;
  size_t max_inflight = 0;
  uint64_t window_gets = 0;
  uint64_t window_appends = 0;
  /// Largest per-holder gets delta in the window: the saturation signal
  /// of one hot holder.
  uint64_t max_holder_gets = 0;

  bool MeetsSlo() const {
    return p99 <= kSloP99Seconds &&
           static_cast<double>(completed) >=
               kSloMinCompletion * static_cast<double>(submitted);
  }
};

/// Sum and maximum over a counter family (`load.holder.<N>.gets` etc.).
struct FamilyTotals {
  uint64_t sum = 0;
  uint64_t max = 0;
};

FamilyTotals CounterFamily(const obs::MetricsSnapshot& snap,
                           std::string_view prefix, std::string_view suffix) {
  FamilyTotals out;
  for (const auto& [name, value] : snap.counters) {
    if (name.starts_with(prefix) && name.ends_with(suffix)) {
      out.sum += value;
      out.max = std::max(out.max, value);
    }
  }
  return out;
}

/// Runs one open-loop window: Poisson arrivals at `qps` over `window_s`
/// virtual seconds, tenant picked by Zipf rank, query peer uniform. When
/// `burst_mult > 1`, the middle third of the window additionally offers
/// `(burst_mult - 1) * qps` arrivals, all of them the rank-0 tenant. While
/// serving, churn documents are published at kChurnDocsPerSecond, evenly
/// spread over the window.
StepResult RunStep(core::KadopNet& net, const ZipfSampler& zipf,
                   std::vector<const xml::Document*>& churn,
                   size_t& next_churn, uint64_t seed, double qps,
                   double window_s, double burst_mult) {
  Rng rng(seed);
  obs::WindowedSnapshots windows(obs::MetricRegistry::Default());
  std::vector<double> samples;

  StepResult out;
  out.offered_qps = qps;
  size_t inflight = 0;
  const double start = net.scheduler().Now();

  const auto submit = [&](double when, size_t tenant) {
    net.scheduler().At(when, [&net, &rng, &out, &inflight, &samples,
                              tenant]() {
      const auto at = static_cast<sim::NodeIndex>(
          rng.Uniform(static_cast<uint64_t>(net.PeerCount())));
      query::QueryOptions qopt;
      qopt.strategy = query::QueryStrategy::kAuto;
      qopt.dpp_join_available = true;
      const double submitted_at = net.scheduler().Now();
      out.submitted++;
      inflight++;
      out.max_inflight = std::max(out.max_inflight, inflight);
      const Status ok = net.SubmitQuery(
          at, kTenants[tenant].xpath, qopt,
          [&net, &out, &inflight, &samples,
           submitted_at](query::QueryResult result) {
            inflight--;
            out.completed++;
            if (result.metrics.degraded) out.degraded++;
            samples.push_back(net.scheduler().Now() - submitted_at);
          });
      KADOP_CHECK(ok.ok(), "serving-mix query must parse");
    });
  };

  // Base arrivals: open loop, so the full schedule is laid out up front and
  // never throttles on completions.
  for (double t = start + rng.Exponential(1.0 / qps); t < start + window_s;
       t += rng.Exponential(1.0 / qps)) {
    submit(t, zipf.Sample(rng));
  }
  // Flash crowd: extra rank-0 arrivals across the middle third.
  if (burst_mult > 1.0) {
    const double extra = (burst_mult - 1.0) * qps;
    for (double t = start + window_s / 3 + rng.Exponential(1.0 / extra);
         t < start + 2 * window_s / 3; t += rng.Exponential(1.0 / extra)) {
      submit(t, 0);
    }
  }
  // Continuous publishing: the index keeps growing while it serves.
  std::vector<std::shared_ptr<index::Publisher>> publishers;
  const int churn_docs = static_cast<int>(window_s * kChurnDocsPerSecond);
  for (int p = 0; p < churn_docs && next_churn < churn.size();
       ++p, ++next_churn) {
    const double when = start + (p + 0.5) * window_s / churn_docs;
    const xml::Document* doc = churn[next_churn];
    const auto from = static_cast<sim::NodeIndex>(
        rng.Uniform(static_cast<uint64_t>(net.PeerCount())));
    net.scheduler().At(when, [&net, &publishers, doc, from]() {
      // The network's publish options carry the view-delta hooks, so churn
      // keeps materialized extents fresh on the views twin.
      auto pub = std::make_shared<index::Publisher>(
          net.peer(from)->dht_peer(), &net.peer(from)->doc_store(),
          net.options().publish);
      publishers.push_back(pub);
      pub->Publish({doc}, [] {});
    });
  }

  net.RunToIdle();

  const obs::MetricsSnapshot& delta = windows.Advance(start + window_s).delta;
  const FamilyTotals gets = CounterFamily(delta, "load.holder.", ".gets");
  out.window_gets = gets.sum;
  out.max_holder_gets = gets.max;
  out.window_appends = CounterFamily(delta, "load.holder.", ".appends").sum;
  out.achieved_qps = static_cast<double>(out.completed) / window_s;
  std::sort(samples.begin(), samples.end());
  out.p50 = obs::NearestRank(samples, 0.50);
  out.p99 = obs::NearestRank(samples, 0.99);
  out.p999 = obs::NearestRank(samples, 0.999);
  return out;
}

/// The highest SLO-passing offered rate on `net`, without churn, and the
/// step measured there. Doubles from kSearchStartQps until a step misses
/// the SLO, then bisects between the last passing and the first failing
/// rate for kBisectRounds rounds. `qps` is 0 when the first step fails.
struct Capacity {
  double qps = 0;
  StepResult at;
};

Capacity FindCapacity(core::KadopNet& net, const ZipfSampler& zipf,
                      uint64_t seed, double window_s) {
  std::vector<const xml::Document*> no_churn;
  size_t no_churn_at = 0;
  Capacity best;
  double failed_qps = 0;
  const auto passes = [&](double qps) {
    const StepResult r = RunStep(net, zipf, no_churn, no_churn_at, seed++,
                                 qps, window_s, /*burst_mult=*/1.0);
    if (!r.MeetsSlo()) {
      failed_qps = qps;
      return false;
    }
    best = {qps, r};
    return true;
  };
  for (double qps = kSearchStartQps; qps <= kSearchMaxQps && passes(qps);)
    qps *= 2;
  if (failed_qps == 0) return best;  // no miss below kSearchMaxQps
  for (int round = 0; round < kBisectRounds; ++round) {
    passes((best.qps + failed_qps) / 2);
  }
  return best;
}

void AddLatencyCells(bench::BenchReport::Row& row, const StepResult& r) {
  row.Num("offered_qps", r.offered_qps)
      .Num("achieved_qps", r.achieved_qps)
      .Num("p50", r.p50)
      .Num("p99", r.p99)
      .Num("p999", r.p999)
      .Num("submitted", static_cast<double>(r.submitted))
      .Num("completed", static_cast<double>(r.completed))
      .Num("degraded", static_cast<double>(r.degraded))
      .Num("max_inflight", static_cast<double>(r.max_inflight))
      .Num("window_gets", static_cast<double>(r.window_gets))
      .Num("window_appends", static_cast<double>(r.window_appends))
      .Num("max_holder_gets", static_cast<double>(r.max_holder_gets));
}

void PrintStep(const char* kind, const StepResult& r) {
  std::printf("%-12s offered %7.1f qps | achieved %7.1f | p50 %8.4fs | "
              "p99 %8.4fs | p999 %8.4fs | inflight<=%zu%s\n",
              kind, r.offered_qps, r.achieved_qps, r.p50, r.p99, r.p999,
              r.max_inflight, r.MeetsSlo() ? "" : "  [SLO MISS]");
  std::fflush(stdout);
}

void Run() {
  const bool quick = bench::QuickMode();
  bench::Banner("SERVING", "open-loop multi-tenant serving SLO harness");
  bench::BenchReport report("serving",
                            "open-loop multi-tenant serving SLO harness");

  // Main serving network.
  xml::corpus::DblpOptions copt;
  copt.target_bytes = (quick ? 1u : 3u) << 20;
  auto docs = xml::corpus::GenerateDblp(copt);
  // Churn corpus published while serving. Its own seed (the base corpus
  // keeps the default 42) makes it distinct from the base corpus, so every
  // publish indexes fresh documents; with the base seed the quick-mode
  // churn would republish the base documents.
  xml::corpus::DblpOptions churn_opt;
  churn_opt.seed = 43;
  churn_opt.target_bytes = 1u << 20;
  auto churn_docs = xml::corpus::GenerateDblp(churn_opt);
  auto churn = bench::Ptrs(churn_docs);
  size_t next_churn = 0;

  core::KadopOptions opt;
  opt.peers = quick ? 24 : 48;
  core::KadopNet net(opt);
  net.RegisterDocuments(docs);
  net.RegisterDocuments(churn_docs);
  net.PublishAndWait(0, bench::Ptrs(docs));

  const ZipfSampler zipf(kTenantCount, 1.0);
  const double window_s = quick ? 1.0 : 4.0;

  // Capacity rows: peers vs. sustainable rate on the main corpus, no churn.
  const auto add_capacity_row = [&report](size_t peers, const Capacity& c) {
    std::printf("capacity: %3zu peers -> sustainable %7.1f qps\n", peers,
                c.qps);
    std::fflush(stdout);
    auto& row = report.AddRow()
                    .Str("kind", "capacity")
                    .Num("peers", static_cast<double>(peers))
                    .Num("sustainable_qps", c.qps);
    AddLatencyCells(row, c.at);
  };

  // The ladder's basis: the main network's own capacity. Queries do not
  // change the index, so searching first leaves the ladder's network as the
  // twins start theirs.
  const Capacity basis = FindCapacity(net, zipf, /*seed=*/4000, window_s);
  KADOP_CHECK(basis.qps > 0, "the serving mix must pass the search's first "
                             "rate");
  add_capacity_row(opt.peers, basis);
  std::vector<double> ladder;
  for (double f : kLadderFractions) ladder.push_back(f * basis.qps);

  std::vector<StepResult> steps;
  for (size_t i = 0; i < ladder.size(); ++i) {
    const StepResult r = RunStep(net, zipf, churn, next_churn,
                                 /*seed=*/1000 + i, ladder[i], window_s,
                                 /*burst_mult=*/1.0);
    PrintStep("qps_step", r);
    steps.push_back(r);
    auto& row = report.AddRow().Str("kind", "qps_step");
    AddLatencyCells(row, r);
  }

  // Saturation knee: the first ladder step that misses the SLO, or that
  // inflates p99 past 3x the unloaded (first-step) p99.
  double knee_qps = 0;
  std::string knee_reason = "none within ladder";
  for (size_t i = 0; i < steps.size(); ++i) {
    const bool slo_miss = !steps[i].MeetsSlo();
    const bool tail_blowup = i > 0 && steps[0].p99 > 0 &&
                             steps[i].p99 > 3.0 * steps[0].p99;
    if (slo_miss || tail_blowup) {
      knee_qps = steps[i].offered_qps;
      knee_reason = slo_miss ? "slo_miss" : "p99_over_3x_unloaded";
      break;
    }
  }
  std::printf("knee: %.1f qps (%s)\n", knee_qps, knee_reason.c_str());
  report.AddRow()
      .Str("kind", "knee")
      .Num("offered_qps", knee_qps)
      .Str("reason", knee_reason);

  // Flash crowd on the main network: the ladder's unloaded first step as
  // base rate, and the middle third concentrates 6x arrivals on the hot
  // tenant, so the burst alone takes that tenant past capacity.
  {
    const double base = ladder.front();
    const StepResult r = RunStep(net, zipf, churn, next_churn, /*seed=*/77,
                                 base, window_s, /*burst_mult=*/6.0);
    PrintStep("flash_crowd", r);
    auto& row = report.AddRow().Str("kind", "flash_crowd").Num(
        "burst_mult", 6.0);
    AddLatencyCells(row, r);
  }

  // Views A/B: a same-seed twin with every tenant pattern materialized as
  // a pinned view replays the exact ladder, so the off/on rows pair up by
  // index. Churn publishes flow through the hooked publish options, keeping
  // extents fresh between steps.
  {
    core::KadopNet vnet(opt);
    vnet.RegisterDocuments(docs);
    vnet.RegisterDocuments(churn_docs);
    vnet.PublishAndWait(0, bench::Ptrs(docs));
    for (const Tenant& t : kTenants) {
      auto created = vnet.CreateViewAndWait(t.xpath, t.name);
      if (!created.ok()) {
        std::printf("view for tenant %s not materialized: %s\n", t.name,
                    created.status().ToString().c_str());
      }
    }
    size_t next_churn_views = 0;
    obs::Counter* view_hits =
        obs::MetricRegistry::Default().GetCounter("view.hits");
    for (size_t i = 0; i < ladder.size(); ++i) {
      const uint64_t hits_before = view_hits->value();
      const StepResult r = RunStep(vnet, zipf, churn, next_churn_views,
                                   /*seed=*/1000 + i, ladder[i], window_s,
                                   /*burst_mult=*/1.0);
      // Resync so any churn delta that raced the window close is applied
      // before the next step prices the extents.
      vnet.SyncViews();
      const uint64_t step_hits = view_hits->value() - hits_before;
      PrintStep("qps_step_views", r);
      auto& row = report.AddRow().Str("kind", "qps_step_views");
      AddLatencyCells(row, r);
      row.Num("view_hits", static_cast<double>(step_hits))
          .Num("view_hit_rate",
               r.completed > 0 ? static_cast<double>(step_hits) /
                                     static_cast<double>(r.completed)
                               : 0.0);
    }

    // Wire-bytes probe on the selective tenant: kDppJoin's total posting
    // movement (query-peer ingress plus holder-side join input) against
    // the view extent fetch — same network, same data, answers must be
    // byte-identical.
    const Tenant& probe = kTenants[4];
    query::QueryOptions jq;
    jq.strategy = query::QueryStrategy::kDppJoin;
    jq.dpp_join_available = true;
    auto djoin = vnet.QueryAndWait(1, probe.xpath, jq);
    query::QueryOptions vq;
    vq.strategy = query::QueryStrategy::kView;
    auto viewed = vnet.QueryAndWait(1, probe.xpath, vq);
    KADOP_CHECK(djoin.ok() && viewed.ok(), "probe queries must run");
    const query::QueryMetrics& jm = djoin.value().metrics;
    const query::QueryMetrics& vm = viewed.value().metrics;
    const double djoin_wire = static_cast<double>(jm.posting_wire_bytes +
                                                  jm.join_input_wire_bytes);
    const double view_wire = static_cast<double>(vm.posting_wire_bytes +
                                                 vm.join_input_wire_bytes);
    const bool match =
        djoin.value().answers == viewed.value().answers &&
        djoin.value().matched_docs == viewed.value().matched_docs;
    std::printf("view_probe   %s: djoin %.1f KB vs view %.1f KB "
                "(%.1fx), answers %s\n",
                probe.name, djoin_wire / 1024.0, view_wire / 1024.0,
                view_wire > 0 ? djoin_wire / view_wire : 0.0,
                match ? "match" : "DIVERGE");
    std::fflush(stdout);
    report.AddRow()
        .Str("kind", "view_probe")
        .Str("tenant", probe.name)
        .Num("djoin_wire_bytes", djoin_wire)
        .Num("view_wire_bytes", view_wire)
        .Num("wire_ratio", view_wire > 0 ? djoin_wire / view_wire : 0.0)
        .Num("view_hit", vm.view_hit ? 1.0 : 0.0)
        .Num("answers", static_cast<double>(viewed.value().answers.size()))
        .Num("answers_match", match ? 1.0 : 0.0);
  }

  // Capacity table: fresh networks per peer count, same corpus and search.
  const std::vector<size_t> peer_counts =
      quick ? std::vector<size_t>{8, 16} : std::vector<size_t>{16, 32, 64};
  for (size_t pi = 0; pi < peer_counts.size(); ++pi) {
    core::KadopOptions cap_opt;
    cap_opt.peers = peer_counts[pi];
    core::KadopNet cap_net(cap_opt);
    cap_net.RegisterDocuments(docs);
    cap_net.PublishAndWait(0, bench::Ptrs(docs));
    add_capacity_row(peer_counts[pi],
                     FindCapacity(cap_net, zipf, /*seed=*/5000 + 100 * pi,
                                  window_s));
  }

  report.Write();
  std::printf(
      "\nOpen-loop arrivals expose queueing at the modeled disks and peer\n"
      "links: percentiles stay flat until the knee, then the tail blows up\n"
      "while achieved QPS saturates. The capacity table reports the highest\n"
      "SLO-passing offered rate per network size; once the mix is dominated\n"
      "by a single heavy tenant's intrinsic latency, adding peers stops\n"
      "raising it.\n");
}

}  // namespace
}  // namespace kadop

int main() {
  kadop::Run();
  return 0;
}
