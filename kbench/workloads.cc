#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>

#include "common/logging.h"
#include "common/random.h"
#include "index/publisher.h"
#include "index/terms.h"
#include "query/local_eval.h"
#include "stats.h"
#include "xml/corpus.h"
#include "xml/parser.h"

namespace kbench {

namespace core = kadop::core;
namespace obs = kadop::obs;
namespace query = kadop::query;
namespace sim = kadop::sim;
namespace xml = kadop::xml;
namespace kindex = kadop::index;

namespace {

// Serving SLO, as in bench/serving_workload.cc: a rung passes when its
// exact p99 stays under the bound and at least 90% of the offered queries
// complete inside the arrival window.
constexpr double kSloP99Seconds = 0.5;
constexpr double kSloMinCompletion = 0.9;

// The six-tenant mix of bench/serving_workload.cc, hottest first.
const char* const kTenants[] = {
    "//article[//author]//title",
    "//article//author",
    "//inproceedings//title",
    "//article//title//\"database\"",
    "//article[contains(.//title,'system')]//author",
    "//phdthesis//author",
};

// Fig 3's long-posting-list queries.
const char* const kLongListPatterns[] = {
    "//article//author//\"Ullman\"",
    "//article//author",
    "//article[//author]//title",
    "//inproceedings//author",
};
// One closed-loop cycle over them. Fig 3's own query runs twice, so no
// pattern's share is exactly half: with four equal shares the median
// would sit on the boundary between the second and third fastest
// pattern and jump between them from seed to seed.
const std::vector<size_t> kLongListCycle = {0, 1, 2, 3, 0};

constexpr size_t kMb = 1u << 20;

// The indexed corpus is mostly a fixed dataset, like the paper's DBLP
// snapshot (the generator's default seed), plus a small increment drawn
// from the run's --seed: a corpus regenerated per seed would move every
// metric by the corpus alone, while a fixed one would make virtual times
// identical across seeds. The seed also drives everything that happens
// to the corpus: arrivals, tenants, query peers, churn publishers and the
// order documents are dealt to publishers. serve_zipf's churn documents
// come from the next generator seed; the increments from seeds above
// kIncrementSeedBase.
constexpr uint64_t kCorpusSeed = 42;
constexpr uint64_t kChurnCorpusSeed = 43;
constexpr uint64_t kIncrementSeedBase = 1000;
constexpr size_t kSeedIncrementShare = 32;  // 1/32 of the corpus bytes

/// A generator for one purpose of one run: distinct streams per `salt`.
kadop::Rng SeededRng(uint64_t seed, uint64_t salt) {
  return kadop::Rng(seed * 0x9E3779B97F4A7C15ull + salt);
}

/// Posting, Bloom, query and result bytes: the query-side wire traffic,
/// holder-to-holder pulls included.
uint64_t QueryWireBytes(KadopNet& net) {
  const sim::TrafficStats& t = net.network().traffic();
  return t.CategoryBytes(sim::TrafficCategory::kPosting) +
         t.CategoryBytes(sim::TrafficCategory::kBloomFilter) +
         t.CategoryBytes(sim::TrafficCategory::kQuery) +
         t.CategoryBytes(sim::TrafficCategory::kResult);
}

/// Publish and control bytes: what indexing costs on the wire.
uint64_t PublishWireBytes(KadopNet& net) {
  const sim::TrafficStats& t = net.network().traffic();
  return t.CategoryBytes(sim::TrafficCategory::kPublish) +
         t.CategoryBytes(sim::TrafficCategory::kControl);
}

std::vector<const xml::Document*> Ptrs(const std::vector<xml::Document>& d) {
  std::vector<const xml::Document*> out;
  out.reserve(d.size());
  for (const auto& doc : d) out.push_back(&doc);
  return out;
}

std::vector<xml::Document> Dblp(uint64_t seed, size_t bytes) {
  xml::corpus::DblpOptions copt;
  copt.seed = seed;
  copt.target_bytes = bytes;
  return xml::corpus::GenerateDblp(copt);
}

/// The indexed corpus of `bytes`: the fixed dataset plus the run seed's
/// increment (see kSeedIncrementShare).
std::vector<xml::Document> GenerateCorpus(size_t bytes, Workload& w,
                                          WallSpans* spans, uint64_t parent) {
  ScopedSpan span(spans, "xml.corpus_gen", parent);
  const double t0 = WallNow();
  const size_t increment = bytes / kSeedIncrementShare;
  auto docs = Dblp(kCorpusSeed, bytes - increment);
  auto extra = Dblp(kIncrementSeedBase + w.options().seed, increment);
  docs.insert(docs.end(), std::make_move_iterator(extra.begin()),
              std::make_move_iterator(extra.end()));
  w.corpus_gen_s.push_back(WallNow() - t0);
  return docs;
}

/// Publishes `batches` concurrently and measures the run on both clocks.
PublishRun Publish(
    KadopNet& net,
    const std::vector<std::pair<sim::NodeIndex,
                                std::vector<const xml::Document*>>>& batches) {
  PublishRun run;
  for (const auto& [node, docs] : batches) {
    for (const xml::Document* d : docs) {
      run.corpus_bytes += xml::SerializeDocument(*d).size();
    }
  }
  const uint64_t wire0 = PublishWireBytes(net);
  const double t0 = WallNow();
  run.virtual_s = batches.size() == 1
                      ? net.PublishAndWait(batches[0].first, batches[0].second)
                      : net.ParallelPublishAndWait(batches);
  run.wall_s = WallNow() - t0;
  run.wire_bytes = PublishWireBytes(net) - wire0;
  return run;
}

/// Fig 2's many-publisher set-up: `publishers` peers spread evenly over
/// a `peers`-node network, each dealt every publishers-th document of a
/// shuffled corpus.
std::vector<std::pair<sim::NodeIndex, std::vector<const xml::Document*>>>
SplitAcrossPublishers(const std::vector<xml::Document>& docs,
                      size_t publishers, size_t peers, kadop::Rng& rng) {
  std::vector<const xml::Document*> order = Ptrs(docs);
  rng.Shuffle(order);
  std::vector<std::pair<sim::NodeIndex, std::vector<const xml::Document*>>>
      batches(publishers);
  for (size_t p = 0; p < publishers; ++p) {
    batches[p].first = static_cast<sim::NodeIndex>(p * peers / publishers);
  }
  for (size_t i = 0; i < order.size(); ++i) {
    batches[i % publishers].second.push_back(order[i]);
  }
  return batches;
}

bool AnswerLess(const query::Answer& a, const query::Answer& b) {
  if (a.doc != b.doc) return a.doc < b.doc;
  return a.elements < b.elements;
}

template <typename T, typename Less>
bool IsSubset(const std::vector<T>& sub, const std::vector<T>& super,
              Less less) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end(),
                       less);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared pieces.

uint64_t WallSpans::Begin(std::string name, uint64_t parent, uint64_t op) {
  Span s;
  s.id = spans_.size() + 1;
  s.parent = parent;
  s.op = op;
  s.name = std::move(name);
  s.start = WallNow() - epoch_;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

void WallSpans::End(uint64_t id) {
  if (id >= 1 && id <= spans_.size()) spans_[id - 1].end = WallNow() - epoch_;
}

void WallSpans::AppendJson(obs::JsonWriter& w) const {
  w.BeginArray();
  for (const Span& s : spans_) {
    w.BeginObject();
    w.Key("id");
    w.Value(s.id);
    w.Key("parent");
    w.Value(s.parent);
    w.Key("op");
    w.Value(s.op);
    w.Key("name");
    w.Value(s.name);
    w.Key("start_s");
    w.Value(s.start);
    w.Key("end_s");
    w.Value(s.end);
    w.EndObject();
  }
  w.EndArray();
}

void QueryGroup::Add(const query::QueryResult& r, double latency,
                     bool mismatch) {
  attempted++;
  wrong += mismatch ? 1 : 0;
  const bool bad = mismatch || r.metrics.degraded || !r.metrics.complete;
  degraded += r.metrics.degraded ? 1 : 0;
  incomplete += r.metrics.complete ? 0 : 1;
  strategy_counts[static_cast<size_t>(r.metrics.effective_strategy)]++;
  if (bad) {
    failed++;
    latency_s.push_back(kFailed);
    first_answer_s.push_back(kFailed);
    return;
  }
  latency_s.push_back(latency);
  // A query without answers has its first answer when it completes.
  const double first = r.metrics.TimeToFirstAnswer();
  first_answer_s.push_back(first < 0 ? latency : first);
}

void QueryGroup::Merge(const QueryGroup& o) {
  latency_s.insert(latency_s.end(), o.latency_s.begin(), o.latency_s.end());
  first_answer_s.insert(first_answer_s.end(), o.first_answer_s.begin(),
                        o.first_answer_s.end());
  wall_ms.insert(wall_ms.end(), o.wall_ms.begin(), o.wall_ms.end());
  attempted += o.attempted;
  failed += o.failed;
  wrong += o.wrong;
  degraded += o.degraded;
  incomplete += o.incomplete;
  loop_wall_s += o.loop_wall_s;
  wire_bytes += o.wire_bytes;
  block_qps.insert(block_qps.end(), o.block_qps.begin(), o.block_qps.end());
  for (size_t i = 0; i < strategy_counts.size(); ++i) {
    strategy_counts[i] += o.strategy_counts[i];
  }
}

query::QueryOptions ServingQueryOptions() {
  query::QueryOptions q;
  q.strategy = query::QueryStrategy::kAuto;
  q.dpp_join_available = true;
  return q;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

obs::MetricsSnapshot WithoutWallClockCounters(obs::MetricsSnapshot s) {
  for (auto it = s.counters.begin(); it != s.counters.end();) {
    const std::string& n = it->first;
    const bool ns = n.size() > 3 && n.compare(n.size() - 3, 3, "_ns") == 0;
    it = ns ? s.counters.erase(it) : std::next(it);
  }
  return s;
}

Oracle::Oracle(KadopNet& net, const std::string& xpath) : xpath_(xpath) {
  auto parsed = query::ParsePattern(xpath);
  KADOP_CHECK(parsed.ok(), "benchmark patterns must parse");
  const query::TreePattern pattern = parsed.take();
  analysis_ = query::AnalyzePattern(pattern);
  for (size_t p = 0; p < net.PeerCount(); ++p) {
    const kindex::DocStore& store = net.peer(p)->doc_store();
    for (size_t seq = 0; seq < store.size(); ++seq) {
      const xml::Document* doc = store.Get(static_cast<kindex::DocSeq>(seq));
      if (doc == nullptr) continue;
      const kindex::DocId id{static_cast<kindex::PeerId>(p),
                             static_cast<kindex::DocSeq>(seq)};
      auto answers = query::EvaluateOnDocument(pattern, *doc, id);
      if (answers.empty()) continue;
      docs_.push_back(id);
      answers_.insert(answers_.end(), std::make_move_iterator(answers.begin()),
                      std::make_move_iterator(answers.end()));
    }
  }
  std::sort(answers_.begin(), answers_.end(), AnswerLess);
  std::sort(docs_.begin(), docs_.end());
}

std::string Oracle::Check(const query::QueryResult& result) const {
  std::vector<query::Answer> answers = result.answers;
  std::sort(answers.begin(), answers.end(), AnswerLess);
  std::vector<kindex::DocId> docs = result.matched_docs;
  std::sort(docs.begin(), docs.end());
  docs.erase(std::unique(docs.begin(), docs.end()), docs.end());
  const auto doc_less = std::less<kindex::DocId>();
  std::string why;
  if (result.metrics.degraded) {
    // A degraded answer set must still be a sound subset.
    if (!IsSubset(answers, answers_, AnswerLess) ||
        !IsSubset(docs, docs_, doc_less)) {
      why = "degraded answers are not a subset of the truth";
    }
  } else if (analysis_.complete && analysis_.precise) {
    if (answers != answers_ || docs != docs_) {
      why = "answers differ from the truth";
    }
  } else if (!IsSubset(docs_, docs, doc_less)) {
    why = "matched documents are not a superset of the truth";
  }
  if (why.empty()) return why;
  char buf[160];
  std::snprintf(buf, sizeof(buf), " (%zu answers / %zu docs vs %zu / %zu)",
                answers.size(), docs.size(), answers_.size(), docs_.size());
  return xpath_ + ": " + why + buf;
}

void CheckTermCounts(KadopNet& net, OracleReport& report) {
  std::map<std::string, uint64_t> expected;
  std::vector<kindex::TermPosting> postings;
  for (size_t p = 0; p < net.PeerCount(); ++p) {
    const kindex::DocStore& store = net.peer(p)->doc_store();
    for (size_t seq = 0; seq < store.size(); ++seq) {
      const xml::Document* doc = store.Get(static_cast<kindex::DocSeq>(seq));
      if (doc == nullptr) continue;
      postings.clear();
      kindex::ExtractTerms(*doc, static_cast<kindex::PeerId>(p),
                           static_cast<kindex::DocSeq>(seq),
                           net.options().publish.extract, postings);
      for (const auto& tp : postings) expected[tp.key]++;
    }
  }
  std::map<std::string, uint64_t> stored;
  for (size_t p = 0; p < net.PeerCount(); ++p) {
    kadop::store::PeerStore* store = net.peer(p)->dht_peer()->store();
    for (const std::string& key : store->PostingKeys()) {
      // DPP overflow blocks live under "ovf:<seq>:<term key>".
      std::string term = key;
      if (key.rfind("ovf:", 0) == 0) {
        term = key.substr(key.find(':', 4) + 1);
      }
      stored[term] += store->PostingCount(key);
    }
  }
  report.checks++;
  if (stored == expected) return;
  size_t shown = 0;
  for (const auto& [term, n] : expected) {
    const auto it = stored.find(term);
    const uint64_t have = it == stored.end() ? 0 : it->second;
    if (have != n && shown++ < 5) {
      report.mismatches.push_back("term " + term + ": stored " +
                                  std::to_string(have) + ", corpus " +
                                  std::to_string(n));
    }
  }
  if (shown == 0) {
    report.mismatches.push_back("the store holds terms the corpus lacks");
  }
}

template <typename Fn>
void Workload::Capture(Fn&& fn) {
  auto& registry = obs::MetricRegistry::Default();
  const obs::MetricsSnapshot before = registry.Snapshot();
  const sim::TrafficStats traffic = net_->network().traffic();
  const uint64_t events = net_->scheduler().executed_events();
  const double wall0 = WallNow();
  fn();
  capture.wall_s += WallNow() - wall0;
  capture.events += net_->scheduler().executed_events() - events;
  const obs::MetricsSnapshot delta = registry.Snapshot().DiffSince(before);
  for (const auto& [name, value] : delta.counters) {
    capture.counters.counters[name] += value;
  }
  const sim::TrafficStats& now = net_->network().traffic();
  for (size_t c = 0; c < capture.traffic.size(); ++c) {
    capture.traffic[c] += now.bytes_by_category[c] - traffic.bytes_by_category[c];
  }
}

void Workload::QueryChecked(QueryGroup& group, const Oracle& truth,
                            const std::string& xpath, uint32_t peer,
                            WallSpans* spans, uint64_t op) {
  ScopedSpan span(spans, "core.query_and_wait", 0, op);
  const uint64_t wire0 = QueryWireBytes(*net_);
  const double t0 = WallNow();
  auto result = net_->QueryAndWait(peer, xpath, ServingQueryOptions());
  const double wall = WallNow() - t0;
  group.loop_wall_s += wall;
  group.wall_ms.push_back(wall * 1e3);
  group.wire_bytes += QueryWireBytes(*net_) - wire0;
  oracle.checks++;
  if (!result.ok()) {
    group.attempted++;
    group.failed++;
    group.wrong++;
    group.latency_s.push_back(kFailed);
    group.first_answer_s.push_back(kFailed);
    oracle.mismatches.push_back(xpath + ": " + result.status().ToString());
    return;
  }
  std::string why;
  {
    ScopedSpan check(spans, "oracle.check", span.id(), op);
    why = truth.Check(result.value());
  }
  if (!why.empty()) oracle.mismatches.push_back(why);
  group.Add(result.value(), result.value().metrics.ResponseTime(),
            !why.empty());
}

void Workload::Settle(std::initializer_list<const QueryGroup*> groups,
                      size_t publishes_attempted) {
  attempted = publishes_attempted;
  failed = 0;
  degraded = 0;
  for (const QueryGroup* g : groups) {
    attempted += g->attempted;
    failed += g->wrong;
    degraded += g->failed - g->wrong;
  }
}

void Workload::ClosedLoop(QueryGroup& group,
                          const std::vector<std::string>& patterns,
                          const std::vector<Oracle>& truths,
                          const std::vector<size_t>& cycle, size_t n,
                          WallSpans* spans, uint64_t op_base) {
  // A rotation, not random peers: every run sees the same mix of query
  // peers, so a median never hinges on how many queries drew a peer that
  // holds the data.
  const size_t peers = net_->PeerCount();
  const size_t start = SeededRng(options_.seed, op_base).Uniform(peers);
  double cycle_wall = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t p = cycle[i % cycle.size()];
    const auto peer = static_cast<uint32_t>((start + i) % peers);
    const double before = group.loop_wall_s;
    QueryChecked(group, truths[p], patterns[p], peer, spans, op_base + i);
    cycle_wall += group.loop_wall_s - before;
    if ((i + 1) % cycle.size() == 0) {
      group.block_qps.push_back(static_cast<double>(cycle.size()) /
                                cycle_wall);
      cycle_wall = 0;
    }
  }
}

namespace {

// ---------------------------------------------------------------------------
// serve_zipf: open-loop serving on 24 peers over a 1 MB corpus, with
// fresh documents published at a fixed rate while it serves.

class ServeZipf final : public Workload {
 public:
  static constexpr size_t kPeers = 24;
  static constexpr size_t kCorpusBytes = 1 * kMb;
  static constexpr double kZipfS = 1.0;
  static constexpr double kChurnDocsPerSecond = 0.1;
  static constexpr size_t kReadbackPerSetup = 20;
  static constexpr double kLadder[] = {8, 16, 32};
  /// Event-loop slices per rung for the wall_qps blocks.
  static constexpr size_t kSlicesPerRung = 40;
  /// The rung whose latencies the end-to-end percentiles report.
  static constexpr size_t kLatencyRung = 1;

  explicit ServeZipf(const Options& o)
      : Workload(o),
        scale_(static_cast<size_t>(std::max(1, o.seconds))) {}

  const char* name() const override { return "serve_zipf"; }
  int setup_reps() const override { return 11; }

  void WriteParams(obs::JsonWriter& w) const override {
    w.Key("peers");
    w.Value(static_cast<uint64_t>(kPeers));
    w.Key("corpus_bytes");
    w.Value(static_cast<uint64_t>(kCorpusBytes));
    w.Key("churn_docs_per_virtual_s");
    w.Value(kChurnDocsPerSecond);
    w.Key("zipf_s");
    w.Value(kZipfS);
    w.Key("ladder_qps");
    w.BeginArray();
    for (double q : kLadder) w.Value(q);
    w.EndArray();
    w.Key("queries_per_rung");
    w.BeginArray();
    for (size_t r = 0; r < std::size(kLadder); ++r) {
      w.Value(static_cast<uint64_t>(RungQueries(r)));
    }
    w.EndArray();
    w.Key("latency_rung_qps");
    w.Value(kLadder[kLatencyRung]);
    w.Key("slo_p99_s");
    w.Value(kSloP99Seconds);
    w.Key("slo_min_completion");
    w.Value(kSloMinCompletion);
    w.Key("readback_queries_per_setup");
    w.Value(static_cast<uint64_t>(kReadbackPerSetup));
  }

  std::vector<std::string> Patterns() const override {
    return {std::begin(kTenants), std::end(kTenants)};
  }

  void Setup(WallSpans* spans) override {
    ScopedSpan span(spans, "setup");
    const double t0 = WallNow();
    net_.reset();
    docs_ = GenerateCorpus(kCorpusBytes, *this, spans, span.id());
    // The churn corpus covers every rung's window with room to spare;
    // a distinct seed makes every churn publish index fresh documents.
    double window_s = 0;
    for (size_t r = 0; r < std::size(kLadder); ++r) {
      window_s += static_cast<double>(RungQueries(r)) / kLadder[r];
    }
    const size_t churn_docs =
        static_cast<size_t>(window_s * kChurnDocsPerSecond * 1.5) + 8;
    churn_docs_ = Dblp(kChurnCorpusSeed, churn_docs * (20u << 10));
    {
      ScopedSpan build(spans, "core.net_build", span.id());
      core::KadopOptions opt;
      opt.peers = kPeers;
      net_ = std::make_unique<KadopNet>(opt);
      net_->RegisterDocuments(docs_);
      net_->RegisterDocuments(churn_docs_);
    }
    {
      ScopedSpan publish(spans, "core.publish", span.id());
      publishes.push_back(Publish(*net_, {{0, Ptrs(docs_)}}));
    }
    setup_wall_s.push_back(WallNow() - t0);
  }

  /// Closed-loop read-back of the hot tenant on each fresh index (one
  /// pattern on one index size, so its per-query wall time has a single
  /// mode; spread over every set-up, so a burst of host load moves few
  /// samples), after the oracle checks every tenant.
  void AfterSetup(WallSpans* spans) override {
    kadop::Rng rng = SeededRng(options_.seed, (1u << 20) + setup_wall_s.size());
    const std::vector<Oracle> truths = CheckTenants(rng, spans);
    // The query peer rotates over every peer across the set-ups.
    for (size_t k = 0; k < kReadbackPerSetup; ++k) {
      const auto peer = static_cast<uint32_t>(
          (options_.seed + closed_loop.attempted) % kPeers);
      QueryChecked(closed_loop, truths[0], kTenants[0], peer, spans,
                   (1u << 20) + closed_loop.attempted);
    }
  }

  void RunPhase(WallSpans* spans) override {
    std::vector<QueryGroup> rungs(std::size(kLadder));
    churn_bytes_ = 0;
    churn_count_ = 0;
    slo_capacity_qps_ = 0;
    detail.clear();
    capture = PhaseCapture();
    // Only the rungs are captured; the oracle checks every tenant at the
    // quiescent point after each of them.
    kadop::Rng oracle_rng = SeededRng(options_.seed, 2u << 20);
    size_t next_churn = 0;
    for (size_t i = 0; i < rungs.size(); ++i) {
      Capture([&] { RunRung(i, rungs[i], next_churn, spans); });
      CheckTenants(oracle_rng, spans);
    }
    capture.published_bytes = churn_bytes_;
    // The end-to-end query metrics come from one fixed rung; the others
    // give the SLO ladder in the detail.
    measured = rungs[kLatencyRung];
    QueryGroup ladder;
    for (const QueryGroup& g : rungs) ladder.Merge(g);
    capture.queries = ladder.attempted;
    capture.strategies = ladder.strategy_counts;
    ladder_ = ladder;
    detail.emplace_back("slo_capacity_qps", slo_capacity_qps_);
    detail.emplace_back("churn_documents", static_cast<double>(churn_count_));
  }

  void Verify(WallSpans*) override {
    Settle({&ladder_, &closed_loop, &oracle_queries_}, 0);
  }

 private:
  /// At a quiescent point: every tenant once from a random peer, checked
  /// against direct evaluation of every published document (churned ones
  /// included). Untraced even in the traced run. Returns the truths.
  std::vector<Oracle> CheckTenants(kadop::Rng& rng, WallSpans* spans) {
    obs::Tracer& tracer = obs::Tracer::Default();
    const bool traced = tracer.enabled();
    tracer.SetEnabled(false);
    std::vector<Oracle> truths;
    for (const char* t : kTenants) truths.emplace_back(*net_, t);
    for (size_t t = 0; t < truths.size(); ++t) {
      QueryChecked(oracle_queries_, truths[t], kTenants[t],
                   static_cast<uint32_t>(rng.Uniform(kPeers)), spans,
                   (2u << 20) + oracle_queries_.attempted);
    }
    tracer.SetEnabled(traced);
    return truths;
  }

  void RunRung(size_t rung, QueryGroup& group, size_t& next_churn,
               WallSpans* spans) {
    const double qps = kLadder[rung];
    kadop::Rng rng = SeededRng(options_.seed, rung + 1);
    const kadop::ZipfSampler zipf(std::size(kTenants), kZipfS);
    const double start = net_->scheduler().Now();
    const ScopedSpan span(spans, "rung." + std::to_string(int(qps)));

    // An exact number of Poisson arrivals, so the rung always supports
    // the same percentiles; the window ends at the last arrival.
    const size_t queries = RungQueries(rung);
    double t = start;
    double window_end = start;
    size_t in_window = 0;
    size_t completed = 0;
    for (size_t q = 0; q < queries; ++q) {
      t += rng.Exponential(1.0 / qps);
      window_end = t;
      const size_t tenant = zipf.Sample(rng);
      const auto peer = static_cast<sim::NodeIndex>(rng.Uniform(kPeers));
      const uint64_t op = (rung << 24) + q + 1;
      net_->scheduler().At(t, [this, &group, &in_window, &completed,
                               &window_end, spans, tenant, peer, op,
                               span_id = span.id()] {
        ScopedSpan submit(spans, "core.submit_query", span_id, op);
        const kadop::Status ok = net_->SubmitQuery(
            peer, kTenants[tenant], ServingQueryOptions(),
            [this, &group, &in_window, &completed,
             &window_end](query::QueryResult r) {
              completed++;
              if (net_->scheduler().Now() <= window_end) in_window++;
              group.Add(r, r.metrics.ResponseTime(), false);
            });
        KADOP_CHECK(ok.ok(), "serving-mix query must parse");
      });
    }
    // Churn at a fixed rate in virtual time, from uniformly random peers.
    std::vector<std::shared_ptr<kindex::Publisher>> publishers;
    for (double c = start + 0.5 / kChurnDocsPerSecond; c < window_end;
         c += 1.0 / kChurnDocsPerSecond) {
      if (next_churn >= churn_docs_.size()) break;
      const xml::Document* doc = &churn_docs_[next_churn++];
      const auto from = static_cast<sim::NodeIndex>(rng.Uniform(kPeers));
      churn_bytes_ += xml::SerializeDocument(*doc).size();
      churn_count_++;
      net_->scheduler().At(c, [this, &publishers, doc, from, spans,
                               span_id = span.id(), op = next_churn] {
        ScopedSpan publish(spans, "index.publish", span_id, op);
        auto pub = std::make_shared<kindex::Publisher>(
            net_->peer(from)->dht_peer(), &net_->peer(from)->doc_store(),
            net_->options().publish);
        publishers.push_back(pub);
        pub->Publish({doc}, [] {});
      });
    }

    // The event loop runs in equal slices of virtual time; each slice
    // gives one wall_qps block. The drain after the window is the last.
    const uint64_t wire0 = QueryWireBytes(*net_);
    for (size_t slice = 1; slice <= kSlicesPerRung + 1; ++slice) {
      const size_t done0 = completed;
      const double wall0 = WallNow();
      if (slice <= kSlicesPerRung) {
        net_->scheduler().RunUntil(
            start + (window_end - start) * static_cast<double>(slice) /
                        static_cast<double>(kSlicesPerRung));
      } else {
        net_->RunToIdle();
      }
      const double wall = WallNow() - wall0;
      group.loop_wall_s += wall;
      if (completed > done0 && wall > 0) {
        group.block_qps.push_back(static_cast<double>(completed - done0) /
                                  wall);
      }
    }
    group.wire_bytes = QueryWireBytes(*net_) - wire0;

    std::vector<double> sorted = group.latency_s;
    std::sort(sorted.begin(), sorted.end());
    const double p99 = NearestRank(sorted, 0.99);
    const bool meets =
        p99 <= kSloP99Seconds &&
        static_cast<double>(in_window) >=
            kSloMinCompletion * static_cast<double>(queries);
    if (meets && (rung == 0 || slo_capacity_qps_ == kLadder[rung - 1])) {
      slo_capacity_qps_ = qps;
    }
    const std::string prefix = "rung" + std::to_string(int(qps)) + ".";
    const Tail tail = SupportedTail(group.latency_s);
    detail.emplace_back(prefix + "window_s", window_end - start);
    detail.emplace_back(prefix + "completed_in_window",
                        static_cast<double>(in_window));
    detail.emplace_back(prefix + "drain_s",
                        net_->scheduler().Now() - window_end);
    detail.emplace_back(prefix + "p50_s", NearestRank(sorted, 0.5));
    detail.emplace_back(prefix + "p99_s", p99);
    detail.emplace_back(prefix + "tail_s", tail.value);
    detail.emplace_back(prefix + "tail_percentile", tail.percentile);
    detail.emplace_back(prefix + "failed", static_cast<double>(group.failed));
    detail.emplace_back(prefix + "degraded",
                        static_cast<double>(group.degraded));
    detail.emplace_back(prefix + "incomplete",
                        static_cast<double>(group.incomplete));
    detail.emplace_back(prefix + "meets_slo", meets ? 1 : 0);
    detail.emplace_back(prefix + "wall_s", group.loop_wall_s);
  }

  /// Arrivals per rung: at least 1000 each; the latency rung four times
  /// as many, so its p99 has 40 samples beyond it.
  size_t RungQueries(size_t rung) const {
    const size_t base = std::max<size_t>(1000, 100 * scale_);
    return rung == kLatencyRung ? 4 * base : base;
  }

  const size_t scale_;
  std::vector<xml::Document> docs_;
  std::vector<xml::Document> churn_docs_;
  QueryGroup oracle_queries_;
  QueryGroup ladder_;
  uint64_t churn_bytes_ = 0;
  size_t churn_count_ = 0;
  double slo_capacity_qps_ = 0;
};

// ---------------------------------------------------------------------------
// long_list: one closed-loop client on 64 peers over a 16 MB corpus,
// cycling through Fig 3's long-posting-list queries.

class LongList final : public Workload {
 public:
  static constexpr size_t kPeers = 64;
  static constexpr size_t kCorpusBytes = 16 * kMb;

  explicit LongList(const Options& o)
      : Workload(o),
        queries_(kLongListCycle.size() * 5 *
                 static_cast<size_t>(std::max(2, o.seconds))) {}

  const char* name() const override { return "long_list"; }
  int setup_reps() const override { return 5; }

  void WriteParams(obs::JsonWriter& w) const override {
    w.Key("peers");
    w.Value(static_cast<uint64_t>(kPeers));
    w.Key("corpus_bytes");
    w.Value(static_cast<uint64_t>(kCorpusBytes));
    w.Key("clients");
    w.Value(static_cast<uint64_t>(1));
    w.Key("queries");
    w.Value(static_cast<uint64_t>(queries_));
  }

  std::vector<std::string> Patterns() const override {
    return {std::begin(kLongListPatterns), std::end(kLongListPatterns)};
  }

  void Setup(WallSpans* spans) override {
    ScopedSpan span(spans, "setup");
    const double t0 = WallNow();
    net_.reset();
    docs_ = GenerateCorpus(kCorpusBytes, *this, spans, span.id());
    {
      ScopedSpan build(spans, "core.net_build", span.id());
      core::KadopOptions opt;
      opt.peers = kPeers;
      net_ = std::make_unique<KadopNet>(opt);
      net_->RegisterDocuments(docs_);
    }
    {
      ScopedSpan publish(spans, "core.publish", span.id());
      publishes.push_back(Publish(*net_, {{0, Ptrs(docs_)}}));
    }
    setup_wall_s.push_back(WallNow() - t0);
  }

  void RunPhase(WallSpans* spans) override {
    // The truth is computed before the clock starts; the network is
    // quiescent between closed-loop queries, so every answer is checked.
    const std::vector<std::string> patterns(std::begin(kLongListPatterns),
                                            std::end(kLongListPatterns));
    std::vector<Oracle> truths;
    for (const std::string& p : patterns) truths.emplace_back(*net_, p);
    measured = QueryGroup();
    detail.clear();
    capture = PhaseCapture();
    Capture([&] {
      ClosedLoop(measured, patterns, truths, kLongListCycle, queries_, spans,
                 1);
    });
    capture.queries = measured.attempted;
    capture.strategies = measured.strategy_counts;
    closed_loop = measured;
    for (size_t p = 0; p < patterns.size(); ++p) {
      std::vector<double> latency;
      std::vector<double> wall;
      for (size_t i = 0; i < measured.latency_s.size(); ++i) {
        if (kLongListCycle[i % kLongListCycle.size()] != p) continue;
        latency.push_back(measured.latency_s[i]);
        wall.push_back(measured.wall_ms[i]);
      }
      const std::string prefix = "pattern" + std::to_string(p) + ".";
      detail.emplace_back(prefix + "p50_s", Median(latency));
      detail.emplace_back(prefix + "wall_ms_p50", Median(wall));
    }
  }

  void Verify(WallSpans*) override {
    Settle({&measured}, 0);
  }

 private:
  const size_t queries_;
  std::vector<xml::Document> docs_;
};

// ---------------------------------------------------------------------------
// publish_bulk: Fig 2's many-publisher series, 8 concurrent publishers
// indexing a 16 MB corpus into a fresh 64-peer network with the DPP on.

class PublishBulk final : public Workload {
 public:
  static constexpr size_t kPeers = 64;
  static constexpr size_t kCorpusBytes = 16 * kMb;
  static constexpr size_t kPublishers = 8;
  static constexpr size_t kReadbackPerPublish = 20;

  explicit PublishBulk(const Options& o)
      : Workload(o), reps_(3 + std::max(0, o.seconds) / 5) {}

  const char* name() const override { return "publish_bulk"; }
  int setup_reps() const override { return reps_; }
  bool phase_per_setup() const override { return true; }

  void WriteParams(obs::JsonWriter& w) const override {
    w.Key("peers");
    w.Value(static_cast<uint64_t>(kPeers));
    w.Key("corpus_bytes");
    w.Value(static_cast<uint64_t>(kCorpusBytes));
    w.Key("publishers");
    w.Value(static_cast<uint64_t>(kPublishers));
    w.Key("dpp");
    w.Value(true);
    w.Key("publish_reps");
    w.Value(static_cast<uint64_t>(reps_));
    w.Key("readback_queries_per_publish");
    w.Value(static_cast<uint64_t>(kReadbackPerPublish));
  }

  // The measured phase runs no queries.
  std::vector<std::string> Patterns() const override { return {}; }

  void Setup(WallSpans* spans) override {
    ScopedSpan span(spans, "setup");
    const double t0 = WallNow();
    net_.reset();
    docs_ = GenerateCorpus(kCorpusBytes, *this, spans, span.id());
    ScopedSpan build(spans, "core.net_build", span.id());
    core::KadopOptions opt;
    opt.peers = kPeers;
    opt.enable_dpp = true;
    net_ = std::make_unique<KadopNet>(opt);
    net_->RegisterDocuments(docs_);
    setup_wall_s.push_back(WallNow() - t0);
  }

  void RunPhase(WallSpans* spans) override {
    const ScopedSpan span(spans, "index.parallel_publish", 0,
                          publishes.size() + 1);
    kadop::Rng rng = SeededRng(options_.seed, publishes.size());
    capture = PhaseCapture();
    Capture([&] {
      publishes.push_back(
          Publish(*net_, SplitAcrossPublishers(docs_, kPublishers, kPeers,
                                               rng)));
    });
    capture.published_bytes = publishes.back().corpus_bytes;
  }

  void Verify(WallSpans* spans) override {
    CheckTermCounts(*net_, oracle);
    // Read-back after every indexing run: the first queries on the freshly
    // bulk-loaded index, the long_list cycle from random peers, checked
    // against direct evaluation. They run outside the measured phase.
    const std::vector<std::string> patterns(std::begin(kLongListPatterns),
                                            std::end(kLongListPatterns));
    std::vector<Oracle> truths;
    for (const std::string& p : patterns) truths.emplace_back(*net_, p);
    ClosedLoop(closed_loop, patterns, truths, kLongListCycle,
               kReadbackPerPublish, spans,
               (1u << 20) + closed_loop.attempted);
    measured = closed_loop;
    Settle({&closed_loop}, publishes.size());
  }

 private:
  const int reps_;
  std::vector<xml::Document> docs_;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const Options& options) {
  if (options.workload == "serve_zipf") {
    return std::make_unique<ServeZipf>(options);
  }
  if (options.workload == "long_list") {
    return std::make_unique<LongList>(options);
  }
  if (options.workload == "publish_bulk") {
    return std::make_unique<PublishBulk>(options);
  }
  return nullptr;
}

}  // namespace kbench
