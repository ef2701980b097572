// The traced run: per-layer metrics from the registry deltas of the
// measured phase, virtual phases from the tracer, and wall time per layer
// from the benchmark's own spans, including a replay of each query's
// inputs through the layers the benchmark cannot wrap from outside.

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "index/posting.h"
#include "obs/profile_clock.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "query/executor.h"
#include "query/twig_join.h"
#include "report.h"
#include "stats.h"
#include "store/peer_store.h"

namespace kbench {

namespace obs = kadop::obs;
namespace query = kadop::query;
namespace kindex = kadop::index;

namespace {

constexpr const char* kPhaseNames[] = {"route", "fetch", "decode",
                                       "join",  "reply", "other"};
constexpr const char* kTrafficNames[] = {"control", "publish", "posting",
                                         "bloom",   "query",   "result"};
constexpr int kPlanReps = 200;

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

uint64_t Counter(const obs::MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Largest holder's share of the Gets served (`load.holder.<N>.gets`).
double MaxGetShare(const obs::MetricsSnapshot& s) {
  uint64_t total = 0;
  uint64_t most = 0;
  for (const auto& [name, value] : s.counters) {
    if (name.rfind("load.holder.", 0) == 0 && EndsWith(name, ".gets")) {
      total += value;
      most = std::max(most, value);
    }
  }
  return Ratio(static_cast<double>(most), static_cast<double>(total));
}

/// Per-query virtual phase breakdowns from the tracer: one per root
/// "query" span. Spans are grouped by trace once, so the cost is linear in
/// the buffer (obs::BuildTraceTree scans the whole buffer per root).
std::vector<obs::PhaseBreakdown> QueryPhases(const obs::Tracer& tracer) {
  std::unordered_map<uint64_t, std::vector<const obs::SpanRecord*>> by_trace;
  for (const obs::SpanRecord& s : tracer.spans()) {
    if (s.trace != 0) by_trace[s.trace].push_back(&s);
  }
  std::vector<obs::PhaseBreakdown> out;
  for (const obs::SpanRecord& root : tracer.spans()) {
    if (root.is_event || root.parent != 0 || root.trace == 0 ||
        root.name != "query" || root.end < 0) {
      continue;
    }
    // Same reachability rule as obs::BuildTraceTree.
    obs::TraceTree tree;
    tree.root = &root;
    tree.spans.push_back(&root);
    std::set<obs::SpanId> reachable = {root.id};
    for (const obs::SpanRecord* s : by_trace[root.trace]) {
      if (s->id == root.id) continue;
      if (s->parent != 0 && reachable.count(s->parent)) {
        reachable.insert(s->id);
        tree.spans.push_back(s);
      } else {
        tree.disconnected++;
      }
    }
    out.push_back(obs::ComputePhaseBreakdown(tree));
  }
  return out;
}

struct ReplayCost {
  double get_range_ns = 0;
  uint64_t postings_read = 0;
  double join_ns = 0;
  uint64_t postings_consumed = 0;
  uint64_t answers = 0;
  double plan_ns = 0;
  uint64_t plans = 0;
};

/// Replays each pattern's inputs through the layers' public functions:
/// PeerStore::GetPostingRange over every stored block of each term,
/// TwigJoin over the merged term lists, and ParsePattern plus
/// EstimateStrategyCosts for planning.
ReplayCost Replay(Workload& w, WallSpans& spans) {
  ReplayCost cost;
  const std::vector<std::string> patterns = w.Patterns();
  if (patterns.empty()) return cost;
  const ScopedSpan root(&spans, "replay");
  KadopNet& net = w.net();

  // term key -> (store, stored key) for the flat list and every DPP
  // overflow block ("ovf:<seq>:<term key>").
  std::map<std::string,
           std::vector<std::pair<kadop::store::PeerStore*, std::string>>>
      blocks;
  for (size_t p = 0; p < net.PeerCount(); ++p) {
    kadop::store::PeerStore* store = net.peer(p)->dht_peer()->store();
    for (const std::string& key : store->PostingKeys()) {
      const std::string term =
          key.rfind("ovf:", 0) == 0 ? key.substr(key.find(':', 4) + 1) : key;
      blocks[term].emplace_back(store, key);
    }
  }

  uint64_t op = 0;
  for (const std::string& xpath : patterns) {
    ++op;
    auto parsed = query::ParsePattern(xpath);
    if (!parsed.ok()) continue;
    const query::TreePattern pattern = parsed.take();
    std::vector<kindex::PostingList> lists(pattern.size());
    std::vector<uint64_t> term_counts(pattern.size(), 0);
    bool indexable = true;
    {
      const ScopedSpan span(&spans, "store.get_posting_range", root.id(), op);
      for (size_t n = 0; n < pattern.size(); ++n) {
        const std::string key = pattern.node(n).TermKey();
        if (key.empty()) {
          indexable = false;
          break;
        }
        for (const auto& [store, stored_key] : blocks[key]) {
          const double t0 = WallNow();
          kindex::PostingList got = store->GetPostingRange(
              stored_key, kindex::kMinPosting, kindex::kMaxPosting, 0);
          cost.get_range_ns += (WallNow() - t0) * 1e9;
          cost.postings_read += got.size();
          lists[n].insert(lists[n].end(), got.begin(), got.end());
        }
        std::sort(lists[n].begin(), lists[n].end());
        term_counts[n] = lists[n].size();
      }
    }
    if (!indexable) continue;
    {
      const ScopedSpan span(&spans, "query.twig_join", root.id(), op);
      const double t0 = WallNow();
      query::TwigJoin join(pattern);
      for (size_t n = 0; n < pattern.size(); ++n) {
        join.Append(n, lists[n]);
        join.Close(n);
      }
      while (!join.Done()) join.Advance();
      cost.join_ns += (WallNow() - t0) * 1e9;
      cost.postings_consumed += join.postings_consumed();
      cost.answers += join.answers().size();
    }
    {
      const ScopedSpan span(&spans, "query.plan", root.id(), op);
      const double t0 = WallNow();
      for (int r = 0; r < kPlanReps; ++r) {
        auto p = query::ParsePattern(xpath);
        const auto estimates = query::EstimateStrategyCosts(
            p.value(), term_counts, ServingQueryOptions());
        if (estimates.empty()) break;
      }
      cost.plan_ns += (WallNow() - t0) * 1e9;
      cost.plans += kPlanReps;
    }
  }
  return cost;
}

}  // namespace

std::vector<Metric> RunTraced(Workload& w, obs::JsonWriter& artifact) {
  // Untraced reference run on a fresh set-up.
  w.Setup(nullptr);
  w.AfterSetup(nullptr);
  w.RunPhase(nullptr);
  const PhaseCapture untraced = w.capture;
  w.Verify(nullptr);
  const std::vector<Metric> wall = WallMetrics(w);

  // The same phase again, traced, on another fresh set-up.
  WallSpans spans;
  w.Setup(&spans);
  obs::Tracer& tracer = obs::Tracer::Default();
  tracer.Clear();
  tracer.SetCapacity(size_t{8} << 20);
  tracer.SetEnabled(true);
  obs::SetWallClockProfiling(true);
  w.RunPhase(&spans);
  tracer.SetEnabled(false);
  const PhaseCapture c = w.capture;
  const std::vector<obs::PhaseBreakdown> phases = QueryPhases(tracer);
  const ReplayCost replay = Replay(w, spans);
  obs::SetWallClockProfiling(false);
  const uint64_t dropped_spans = tracer.dropped();
  tracer.Clear();
  w.Verify(nullptr);

  // The overhead compares the traced phase with one more untraced phase
  // after it: the first phase of a process also pays for growing the
  // heap, which would read as a negative tracing overhead.
  w.Setup(nullptr);
  w.RunPhase(nullptr);
  const PhaseCapture untraced_warm = w.capture;
  w.Verify(nullptr);

  const auto C = [&c](const char* name) {
    return static_cast<double>(Counter(c.counters, name));
  };
  const auto queries = static_cast<double>(c.queries);
  std::vector<Metric> m;
  // sim
  m.push_back({"sim.events", "count", static_cast<double>(c.events)});
  m.push_back({"sim.events_per_wall_s", "1/s",
               Ratio(static_cast<double>(c.events), c.wall_s)});
  m.push_back({"net.messages_per_query", "count",
               Ratio(C("net.messages"), queries)});
  for (size_t t = 0; t < std::size(kTrafficNames); ++t) {
    m.push_back({std::string("net.bytes.") + kTrafficNames[t], "B",
                 static_cast<double>(c.traffic[t])});
  }
  // dht
  m.push_back({"dht.hops_per_locate", "count",
               Ratio(C("dht.route_hops"), C("dht.routed_messages"))});
  for (const char* name : {"dht.gets_served", "dht.blocks_sent",
                           "dht.app_requests", "dht.retries",
                           "dht.timeouts"}) {
    m.push_back({name, "count", C(name)});
  }
  m.push_back({"load.holder.max_get_share", "ratio", MaxGetShare(c.counters)});
  // store
  m.push_back({"store.operations", "count", C("store.operations")});
  m.push_back({"store.read_bytes", "B", C("store.read_bytes")});
  m.push_back({"store.write_bytes", "B", C("store.write_bytes")});
  m.push_back({"store.btree.splits", "count", C("store.btree.splits")});
  m.push_back({"store.write_bytes_per_byte", "B/B",
               Ratio(C("store.write_bytes"),
                     static_cast<double>(c.published_bytes))});
  m.push_back({"store.get_range_ns_per_posting", "ns",
               Ratio(replay.get_range_ns,
                     static_cast<double>(replay.postings_read))});
  // index: publisher, DPP, codec
  for (const char* name : {"publish.postings", "publish.batches", "dpp.splits",
                           "dpp.migrated_postings", "dpp.blocks_stored",
                           "dpp.dir_requests"}) {
    m.push_back({name, "count", C(name)});
  }
  m.push_back({"codec.encode_ns_per_byte", "ns",
               Ratio(C("codec.encode_ns"), C("codec.raw_bytes"))});
  m.push_back({"codec.decode_ns_per_byte", "ns",
               Ratio(C("codec.decode_ns"), C("codec.encoded_bytes"))});
  m.push_back({"codec.ratio", "ratio",
               Ratio(C("codec.encoded_bytes"), C("codec.raw_bytes"))});
  // query: executor, iterator, twig join, block join, reducer
  for (size_t s = 0; s < c.strategies.size(); ++s) {
    m.push_back({"query.strategy_share." +
                     std::string(query::QueryStrategyName(
                         static_cast<query::QueryStrategy>(s))),
                 "ratio",
                 Ratio(static_cast<double>(c.strategies[s]), queries)});
  }
  m.push_back({"query.postings_received_per_query", "count",
               Ratio(C("query.postings_received"), queries)});
  m.push_back({"query.dpp.block_skip_ratio", "ratio",
               Ratio(C("query.dpp.blocks_skipped"),
                     C("query.dpp.blocks_skipped") +
                         C("query.dpp.blocks_fetched"))});
  m.push_back({"iter.block_skip_ratio", "ratio",
               Ratio(C("iter.blocks_skipped_undecoded"),
                     C("iter.blocks_skipped_undecoded") +
                         C("iter.blocks_decoded"))});
  m.push_back({"query.join.tasks_per_query", "count",
               Ratio(C("query.join.tasks"), queries)});
  for (const char* name :
       {"query.join.local_fallback", "query.join.holder.ingress_postings",
        "query.join.postings_consumed", "query.join.answers"}) {
    m.push_back({name, "count", C(name)});
  }
  m.push_back({"join.ns_per_posting", "ns",
               Ratio(replay.join_ns,
                     static_cast<double>(replay.postings_consumed))});
  m.push_back({"join.ns_per_answer", "ns",
               Ratio(replay.join_ns, static_cast<double>(replay.answers))});
  m.push_back({"plan.ns_per_query", "ns",
               Ratio(replay.plan_ns, static_cast<double>(replay.plans))});
  m.push_back({"query.degraded", "count", C("query.degraded")});
  m.push_back({"query.incomplete", "count", C("query.incomplete")});
  // bloom
  m.push_back({"bloom.probes", "count", C("bloom.probes")});
  m.push_back({"bloom.filter.keep_ratio", "ratio",
               Ratio(C("bloom.probe_hits"), C("bloom.probes"))});
  // xml
  m.push_back({"xml.corpus_gen_s", "s", Median(w.corpus_gen_s)});
  // core: virtual phases, median per query
  for (size_t p = 0; p < std::size(kPhaseNames); ++p) {
    std::vector<double> v;
    for (const obs::PhaseBreakdown& b : phases) v.push_back(b.phases[p].second);
    m.push_back({std::string("phase.") + kPhaseNames[p] + "_s", "s",
                 Median(v)});
  }
  m.push_back({"trace.overhead_frac", "ratio",
               Ratio(c.wall_s, untraced_warm.wall_s) - 1});
  m.insert(m.end(), wall.begin(), wall.end());

  artifact.Key("counters_match_untraced");
  artifact.Value(WithoutWallClockCounters(c.counters) ==
                     WithoutWallClockCounters(untraced.counters) &&
                 WithoutWallClockCounters(c.counters) ==
                     WithoutWallClockCounters(untraced_warm.counters));
  artifact.Key("tracer_dropped_spans");
  artifact.Value(dropped_spans);
  artifact.Key("phase_wall_s");
  artifact.BeginObject();
  artifact.Key("untraced_first");
  artifact.Value(untraced.wall_s);
  artifact.Key("traced");
  artifact.Value(c.wall_s);
  artifact.Key("untraced_after");
  artifact.Value(untraced_warm.wall_s);
  artifact.EndObject();
  artifact.Key("counters");
  c.counters.AppendJson(artifact);
  artifact.Key("query_phases");
  artifact.BeginArray();
  for (const obs::PhaseBreakdown& b : phases) {
    artifact.BeginObject();
    artifact.Key("total_s");
    artifact.Value(b.total);
    for (const auto& [name, seconds] : b.phases) {
      artifact.Key(name + "_s");
      artifact.Value(seconds);
    }
    artifact.EndObject();
  }
  artifact.EndArray();
  artifact.Key("wall_spans");
  spans.AppendJson(artifact);
  return m;
}

}  // namespace kbench
