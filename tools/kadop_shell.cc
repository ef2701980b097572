// kadop_shell — an interactive / scriptable driver for a simulated KadoP
// network. Useful for exploring the system without writing code:
//
//   $ ./build/tools/kadop_shell
//   kadop> net 32
//   kadop> load dblp 2
//   kadop> publish 0
//   kadop> query 5 dpp //article//author[. contains 'Ullman']
//   kadop> stats
//
// Commands also stream from stdin, so the shell can be scripted:
//   printf 'net 8\nload dblp 1\npublish 0\n' | ./build/tools/kadop_shell

#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/kadop.h"
#include "dht/ring.h"
#include "obs/buildinfo.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "xml/corpus.h"

namespace kadop::tools {
namespace {

class Shell {
 public:
  int Run() {
    std::string line;
    const bool interactive = isatty(fileno(stdin));
    while (true) {
      if (interactive) {
        std::printf("kadop> ");
        std::fflush(stdout);
      }
      if (!std::getline(std::cin, line)) break;
      if (!Execute(line)) break;
    }
    return 0;
  }

  /// Executes one command line; returns false on `quit`.
  bool Execute(const std::string& line) {
    std::istringstream in(line);
    std::string cmd;
    if (!(in >> cmd) || cmd[0] == '#') return true;
    if (cmd == "quit" || cmd == "exit") return false;
    if (cmd == "help") {
      Help();
    } else if (cmd == "version" || cmd == "buildinfo") {
      CmdBuildInfo();
    } else if (cmd == "net") {
      CmdNet(in);
    } else if (cmd == "load") {
      CmdLoad(in);
    } else if (cmd == "publish") {
      CmdPublish(in);
    } else if (cmd == "query") {
      CmdQuery(in);
    } else if (cmd == "analyze") {
      CmdAnalyze(in);
    } else if (cmd == "explain") {
      CmdExplain(in);
    } else if (cmd == "stats") {
      CmdStats(in);
    } else if (cmd == "metrics") {
      CmdMetrics();
    } else if (cmd == "trace") {
      CmdTrace(in);
    } else if (cmd == "views") {
      CmdViews(in);
    } else if (cmd == "traffic") {
      CmdTraffic();
    } else if (cmd == "join") {
      CmdJoin();
    } else if (cmd == "fail") {
      CmdFail(in);
    } else if (cmd == "restart") {
      CmdRestart(in);
    } else if (cmd == "faults") {
      CmdFaults(in);
    } else if (cmd == "unpublish") {
      CmdUnpublish(in);
    } else if (cmd == "uri") {
      CmdUri(in);
    } else if (cmd == "owner") {
      CmdOwner(in);
    } else if (cmd == "route") {
      CmdRoute(in);
    } else {
      std::printf("unknown command '%s' (try 'help')\n", cmd.c_str());
    }
    WarnOnDroppedSpans();
    return true;
  }

 private:
  void Help() {
    std::printf(
        "commands:\n"
        "  net <peers> [nodpp] [repl <n>]   create a network\n"
        "  load dblp <MB> | imdb <#elems> | xmark <#elems> | inex <#pubs>\n"
        "  publish <peer> [<publishers>]    index the loaded corpus\n"
        "  query <peer> <strategy> <xpath>  strategy: baseline dpp dpp_join\n"
        "                                   ab db bloom subquery view auto\n"
        "                                   broadcast\n"
        "  analyze <xpath>                  completeness/precision report\n"
        "  explain <xpath>                  optimizer cost estimates and\n"
        "                                   kDppJoin tasks\n"
        "  unpublish <peer> <seq>           withdraw a document\n"
        "  join                             add a peer (with handoff)\n"
        "  fail <peer>                      fail a peer and stabilize\n"
        "  restart <peer>                   bring a failed peer back\n"
        "  faults on [seed=N] [drop=p] [dup=p] [jitter=s] [slow=s]\n"
        "            [slowpeers=a,b,...]    seeded fault injection\n"
        "  faults off | faults              disable / show fault.* counters\n"
        "  owner <key>                      show the peer owning a DHT key\n"
        "  route <peer> <key>               hop path from <peer> to <key>'s\n"
        "                                   owner, with each hop's rule\n"
        "  uri <peer> <doc>                 Doc-relation lookup\n"
        "  stats [json]                     full KadopStats dump\n"
        "  stats peer <N>                   per-peer load breakdown\n"
        "  metrics                          process-wide metrics registry\n"
        "  trace on|off|dump [json]|clear   virtual-time span tracing\n"
        "  trace report                     per-query phase breakdown\n"
        "  trace export [file]              Chrome trace_event JSON\n"
        "  views stats|list                 materialized tree-pattern views\n"
        "  views create <xpath> [name]      materialize a view\n"
        "  views drop <name>                drop a view\n"
        "  version | buildinfo              sanitizer/profiling build line\n"
        "  traffic | help | quit\n");
  }

  void CmdBuildInfo() {
    // The same line BenchReport embeds as "buildinfo" in BENCH_*.json, so
    // shell transcripts and bench artifacts carry identical provenance.
    std::printf("kadop_shell %s\n", obs::BuildInfoString().c_str());
  }

  bool RequireNet() {
    if (!net_) std::printf("no network — run 'net <peers>' first\n");
    return net_ != nullptr;
  }

  void CmdNet(std::istringstream& in) {
    size_t peers = 16;
    in >> peers;
    core::KadopOptions options;
    options.peers = peers;
    std::string flag;
    while (in >> flag) {
      if (flag == "nodpp") options.enable_dpp = false;
      if (flag == "repl") in >> options.dht.replication;
    }
    // The registry is process-wide: zero it so `stats` and `metrics`
    // describe this network only, not every network of the session.
    net_.reset();
    obs::MetricRegistry::Default().Reset();
    net_ = std::make_unique<core::KadopNet>(options);
    std::printf("network up: %zu peers, DPP %s, replication %u\n",
                net_->PeerCount(), options.enable_dpp ? "on" : "off",
                options.dht.replication);
  }

  void CmdLoad(std::istringstream& in) {
    std::string kind;
    size_t amount = 1;
    in >> kind >> amount;
    docs_.clear();
    if (kind == "dblp") {
      xml::corpus::DblpOptions opt;
      opt.target_bytes = amount << 20;
      docs_ = xml::corpus::GenerateDblp(opt);
    } else if (kind == "imdb" || kind == "xmark") {
      xml::corpus::SimpleCorpusOptions opt;
      opt.target_elements = amount;
      docs_ = kind == "imdb" ? xml::corpus::GenerateImdb(opt)
                             : xml::corpus::GenerateXmark(opt);
    } else if (kind == "inex") {
      xml::corpus::InexOptions opt;
      opt.publications = amount;
      docs_ = xml::corpus::GenerateInex(opt);
    } else {
      std::printf("unknown corpus '%s'\n", kind.c_str());
      return;
    }
    auto stats = xml::corpus::ComputeStats(docs_);
    std::printf("loaded %zu documents, %zu elements, %.2f MB serialized\n",
                stats.documents, stats.elements,
                static_cast<double>(stats.serialized_bytes) / (1 << 20));
  }

  void CmdPublish(std::istringstream& in) {
    if (!RequireNet()) return;
    if (docs_.empty()) {
      std::printf("no corpus loaded — run 'load' first\n");
      return;
    }
    size_t peer = 0, publishers = 1;
    in >> peer >> publishers;
    net_->RegisterDocuments(docs_);
    const obs::Counter* stored =
        obs::MetricRegistry::Default().GetCounter("dht.postings_stored");
    const uint64_t stored_before = stored->value();
    double elapsed;
    if (publishers <= 1) {
      std::vector<const xml::Document*> ptrs;
      for (const auto& d : docs_) ptrs.push_back(&d);
      elapsed = net_->PublishAndWait(static_cast<sim::NodeIndex>(peer), ptrs);
    } else {
      std::vector<std::pair<sim::NodeIndex,
                            std::vector<const xml::Document*>>>
          batches(publishers);
      for (size_t i = 0; i < docs_.size(); ++i) {
        batches[i % publishers].first = static_cast<sim::NodeIndex>(
            (peer + i % publishers) % net_->PeerCount());
        batches[i % publishers].second.push_back(&docs_[i]);
      }
      elapsed = net_->ParallelPublishAndWait(batches);
    }
    std::printf("published in %.4f virtual s (%llu postings stored)\n",
                elapsed,
                static_cast<unsigned long long>(stored->value() -
                                                stored_before));
  }

  void CmdQuery(std::istringstream& in) {
    if (!RequireNet()) return;
    size_t peer = 0;
    std::string strategy;
    in >> peer >> strategy;
    std::string xpath;
    std::getline(in, xpath);
    while (!xpath.empty() && xpath.front() == ' ') xpath.erase(0, 1);
    if (xpath.empty()) {
      std::printf("usage: query <peer> <strategy> <xpath>\n");
      return;
    }
    if (strategy == "broadcast") {
      auto result = net_->BroadcastQueryAndWait(
          static_cast<sim::NodeIndex>(peer), xpath);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
        return;
      }
      std::printf("broadcast: %zu answers in %.4f s\n",
                  result.value().final_answers.size(),
                  result.value().total_time);
      return;
    }
    query::QueryOptions options;
    if (strategy == "baseline") {
      options.strategy = query::QueryStrategy::kBaseline;
    } else if (strategy == "dpp") {
      options.strategy = query::QueryStrategy::kDpp;
    } else if (strategy == "dpp_join") {
      options.strategy = query::QueryStrategy::kDppJoin;
      options.dpp_join_available = true;
    } else if (strategy == "ab") {
      options.strategy = query::QueryStrategy::kAbReducer;
    } else if (strategy == "db") {
      options.strategy = query::QueryStrategy::kDbReducer;
    } else if (strategy == "bloom") {
      options.strategy = query::QueryStrategy::kBloomReducer;
    } else if (strategy == "subquery") {
      options.strategy = query::QueryStrategy::kSubQueryReducer;
    } else if (strategy == "view") {
      options.strategy = query::QueryStrategy::kView;
      options.dpp_join_available = true;  // best fallback on a view miss
    } else if (strategy == "auto") {
      options.strategy = query::QueryStrategy::kAuto;
      options.dpp_join_available = true;  // peers run the BlockJoinService
    } else {
      std::printf("unknown strategy '%s'\n", strategy.c_str());
      return;
    }
    if (net_->fault_plan() != nullptr) {
      // With faults on, ride out message loss instead of failing the
      // query: bounded retries, and losses surface as a degraded result.
      options.fetch_retry.timeout_s = 0.5;
    }
    auto result =
        net_->QueryAndWait(static_cast<sim::NodeIndex>(peer), xpath, options);
    if (!result.ok()) {
      std::printf("error: %s\n", result.status().ToString().c_str());
      return;
    }
    const query::QueryMetrics& m = result.value().metrics;
    std::printf(
        "%zu answers in %zu documents | response %.4f s, first answer "
        "%.4f s%s\n",
        result.value().answers.size(), result.value().matched_docs.size(),
        m.ResponseTime(), m.TimeToFirstAnswer(),
        m.degraded ? " | DEGRADED (partial: faults ate data)"
                   : (m.complete ? "" : " | incomplete"));
    std::printf(
        "ran %s | postings %.1f KB, AB filters %.1f KB, DB filters %.1f KB"
        " | normalized volume %.3f\n",
        std::string(query::QueryStrategyName(m.effective_strategy)).c_str(),
        m.posting_bytes / 1024.0, m.ab_filter_bytes / 1024.0,
        m.db_filter_bytes / 1024.0, m.NormalizedDataVolume());
    if (m.posting_wire_bytes != m.posting_bytes) {
      std::printf("codec: %.1f KB on the wire (%.2fx vs raw)\n",
                  m.posting_wire_bytes / 1024.0,
                  m.posting_wire_bytes > 0
                      ? static_cast<double>(m.posting_bytes) /
                            static_cast<double>(m.posting_wire_bytes)
                      : 0.0);
    }
    if (m.view_hit) {
      std::printf("view: hit (%s rewrite)\n",
                  m.view_exact ? "exact" : "containment");
    } else if (m.view_fallback) {
      std::printf("view: fallback — extent unavailable or stale, reran as "
                  "%s\n",
                  std::string(query::QueryStrategyName(m.effective_strategy))
                      .c_str());
    }
    if (m.join_input_wire_bytes > 0) {
      std::printf("join input: %.1f KB pulled at the holder\n",
                  m.join_input_wire_bytes / 1024.0);
    }
    if (m.blocks_fetched + m.blocks_skipped > 0) {
      std::printf("DPP blocks: %llu fetched, %llu skipped\n",
                  static_cast<unsigned long long>(m.blocks_fetched),
                  static_cast<unsigned long long>(m.blocks_skipped));
    }
  }

  void CmdAnalyze(std::istringstream& in) {
    std::string xpath;
    std::getline(in, xpath);
    auto pattern = query::ParsePattern(xpath);
    if (!pattern.ok()) {
      std::printf("parse error: %s\n", pattern.status().ToString().c_str());
      return;
    }
    std::printf("pattern: %s (%zu nodes)\n",
                pattern.value().ToString().c_str(), pattern.value().size());
    auto analysis = query::AnalyzePattern(pattern.value());
    std::printf("index query: %s, %s%s%s\n",
                analysis.complete ? "complete" : "INCOMPLETE",
                analysis.precise ? "precise" : "IMPRECISE",
                analysis.notes.empty() ? "" : " — ",
                analysis.notes.c_str());
  }

  void CmdExplain(std::istringstream& in) {
    if (!RequireNet()) return;
    std::string xpath;
    std::getline(in, xpath);
    query::QueryOptions options;
    options.dpp_join_available = true;  // plan as `query auto` does
    if (net_->fault_plan() != nullptr) {
      options.fetch_retry.timeout_s = 0.5;  // as `query` does under faults
    }
    auto result = net_->ExplainQueryAndWait(0, xpath, options);
    if (result.ok()) {
      std::printf("%s", result.value().c_str());
    } else {
      std::printf("error: %s\n", result.status().ToString().c_str());
    }
  }

  void CmdStats(std::istringstream& in) {
    if (!RequireNet()) return;
    std::string mode;
    in >> mode;
    if (mode == "peer") {
      CmdStatsPeer(in);
      return;
    }
    const core::KadopStats stats = net_->Stats();
    if (mode == "json") {
      std::printf("%s\n", stats.ToJson().c_str());
    } else {
      std::printf("%s", stats.ToText().c_str());
      PrintJoinLocality(stats.metrics);
    }
  }

  /// The share of kDppJoin holders' input postings read from their own
  /// store (`query.join.holder.local_postings` over `ingress_postings`).
  static void PrintJoinLocality(const obs::MetricsSnapshot& metrics) {
    const uint64_t read =
        metrics.CounterValue("query.join.holder.ingress_postings");
    if (read == 0) return;
    const uint64_t local =
        metrics.CounterValue("query.join.holder.local_postings");
    std::printf("join holders read %llu of %llu input postings locally "
                "(%.1f%%)\n",
                static_cast<unsigned long long>(local),
                static_cast<unsigned long long>(read),
                100.0 * static_cast<double>(local) /
                    static_cast<double>(read));
  }

  /// Prints every counter of `snap` whose name starts with `prefix`, one
  /// per line; returns false (printing nothing) when there is none.
  static bool PrintCounters(const obs::MetricsSnapshot& snap,
                            const std::string& prefix) {
    bool any = false;
    for (const auto& [name, value] : snap.counters) {
      if (name.rfind(prefix, 0) != 0) continue;
      any = true;
      std::printf("    %-24s %llu\n", name.c_str(),
                  static_cast<unsigned long long>(value));
    }
    return any;
  }

  /// Per-peer breakdown: every registry counter filed under the peer's
  /// load prefix (`load.holder.<N>.*`: the gets and appends it served), so
  /// hot holders can be singled out without grepping the full metrics
  /// dump. The peer's owner-cache size and the owner-hint counters
  /// (`dht.hint.*`, `dpp.dir.holders_*`) follow, the counters
  /// network-wide: sends that went one hop to a named owner, how many of
  /// those found a non-owner, how many took their hint from an owner
  /// cache, and how many overflow entries of directory replies named a
  /// holder or did not.
  void CmdStatsPeer(std::istringstream& in) {
    size_t peer = 0;
    if (!(in >> peer) || peer >= net_->PeerCount()) {
      std::printf("usage: stats peer <N>  (0 <= N < %zu)\n",
                  net_->PeerCount());
      return;
    }
    const auto node = static_cast<sim::NodeIndex>(peer);
    const obs::MetricsSnapshot snap =
        obs::MetricRegistry::Default().Snapshot();
    std::printf("peer %zu:\n  load counters:\n", peer);
    if (!PrintCounters(snap,
                       "load.holder." + std::to_string(peer) + ".")) {
      std::printf("    none recorded\n");
    }
    std::printf("  owner cache       %zu keys\n",
                net_->dht().peer(node)->KnownOwnerCount());
    std::printf("  owner hints (network-wide):\n");
    for (const char* name :
         {"dht.hint.sends", "dht.hint.forwards", "dht.hint.cached",
          "dpp.dir.holders_named", "dpp.dir.holders_unnamed"}) {
      std::printf("    %-24s %llu\n", name,
                  static_cast<unsigned long long>(snap.CounterValue(name)));
    }
  }

  void CmdMetrics() {
    std::printf("%s",
                obs::MetricRegistry::Default().Snapshot().ToText().c_str());
  }

  void CmdTrace(std::istringstream& in) {
    std::string sub;
    in >> sub;
    auto& tracer = obs::Tracer::Default();
    if (sub == "on") {
      tracer.SetEnabled(true);
      std::printf("tracing on\n");
    } else if (sub == "off") {
      tracer.SetEnabled(false);
      std::printf("tracing off\n");
    } else if (sub == "dump") {
      std::string mode;
      in >> mode;
      if (mode == "json") {
        std::printf("%s\n", tracer.DumpJson().c_str());
      } else {
        std::printf("%s", tracer.DumpText().c_str());
      }
    } else if (sub == "clear") {
      tracer.Clear();
      std::printf("trace buffer cleared\n");
    } else if (sub == "report") {
      const std::vector<obs::SpanId> roots = obs::TraceRoots(tracer);
      if (roots.empty()) {
        std::printf("no traced queries (run 'trace on' before querying)\n");
        return;
      }
      for (const obs::SpanId root : roots) {
        std::printf("%s", obs::PhaseReportText(tracer, root).c_str());
      }
    } else if (sub == "export") {
      std::string file;
      in >> file;
      if (file.empty()) file = "trace.json";
      std::ofstream out(file, std::ios::binary | std::ios::trunc);
      if (!out) {
        std::printf("cannot open '%s' for writing\n", file.c_str());
        return;
      }
      const std::string json = obs::ChromeTraceJson(tracer);
      out << json;
      out.close();
      std::printf("wrote %zu bytes to %s (open in chrome://tracing or "
                  "Perfetto)\n",
                  json.size(), file.c_str());
    } else {
      std::printf("usage: trace on|off|dump [json]|report|export [file]|"
                  "clear\n");
    }
  }

  /// Satellite of the span-capacity work: surface silent trace loss exactly
  /// once per shell session so interactive users learn the buffer clipped.
  void WarnOnDroppedSpans() {
    if (warned_dropped_) return;
    const uint64_t dropped = obs::Tracer::Default().dropped();
    if (dropped == 0) return;
    warned_dropped_ = true;
    std::printf("warning: trace buffer full — %llu span(s) dropped; raise "
                "Tracer capacity or 'trace clear' between runs\n",
                static_cast<unsigned long long>(dropped));
  }

  void CmdViews(std::istringstream& in) {
    std::string sub;
    in >> sub;
    if (!RequireNet()) return;
    query::ViewCatalog& views = net_->views();
    if (sub == "list") {
      const std::string listing = views.Describe();
      std::printf("%s", listing.empty() ? "no views registered\n"
                                        : listing.c_str());
      return;
    }
    if (sub == "create") {
      std::string xpath, name;
      in >> xpath >> name;
      if (xpath.empty()) {
        std::printf("usage: views create <xpath> [name]\n");
        return;
      }
      auto result = net_->CreateViewAndWait(xpath, name);
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
        return;
      }
      const query::ViewCatalog::Entry* entry = views.Find(result.value());
      std::printf("view '%s' materialized: %zu answers\n",
                  result.value().c_str(),
                  entry != nullptr ? entry->answers : 0);
      return;
    }
    if (sub == "drop") {
      std::string name;
      in >> name;
      if (name.empty() || !net_->DropView(name)) {
        std::printf("no such view '%s'\n", name.c_str());
        return;
      }
      std::printf("view '%s' dropped\n", name.c_str());
      return;
    }
    if (!sub.empty() && sub != "stats") {
      std::printf("usage: views stats|list|create <xpath> [name]|drop <n>\n");
      return;
    }
    auto& r = obs::MetricRegistry::Default();
    std::printf(
        "materialized views: %zu registered\n"
        "  hits %llu (%llu exact), misses %llu, rewrites %llu, "
        "fallbacks %llu\n"
        "  maintenance tuples %llu, bytes served %llu\n",
        views.entries().size(),
        static_cast<unsigned long long>(r.GetCounter("view.hits")->value()),
        static_cast<unsigned long long>(
            r.GetCounter("view.exact_hits")->value()),
        static_cast<unsigned long long>(r.GetCounter("view.misses")->value()),
        static_cast<unsigned long long>(
            r.GetCounter("view.rewrites")->value()),
        static_cast<unsigned long long>(
            r.GetCounter("view.fallbacks")->value()),
        static_cast<unsigned long long>(
            r.GetCounter("view.maintenance_tuples")->value()),
        static_cast<unsigned long long>(
            r.GetCounter("view.bytes_served")->value()));
  }

  void CmdTraffic() {
    if (!RequireNet()) return;
    const sim::TrafficStats& t = net_->network().traffic();
    std::printf("messages %llu, bytes %.2f MB\n",
                static_cast<unsigned long long>(t.messages),
                t.bytes / (1024.0 * 1024.0));
    for (size_t c = 0;
         c < static_cast<size_t>(sim::TrafficCategory::kCategoryCount);
         ++c) {
      std::printf("  %-8s %10.2f KB\n",
                  std::string(sim::TrafficCategoryName(
                                  static_cast<sim::TrafficCategory>(c)))
                      .c_str(),
                  t.bytes_by_category[c] / 1024.0);
    }
  }

  void CmdJoin() {
    if (!RequireNet()) return;
    const sim::NodeIndex node = net_->JoinPeerAndWait();
    std::printf("peer %u joined (keys handed off); network now has %zu "
                "peers\n",
                node, net_->PeerCount());
  }

  void CmdFail(std::istringstream& in) {
    if (!RequireNet()) return;
    size_t peer = 0;
    in >> peer;
    net_->FailPeerAndStabilize(static_cast<sim::NodeIndex>(peer));
    std::printf("peer %zu failed; overlay restabilized\n", peer);
  }

  void CmdRestart(std::istringstream& in) {
    if (!RequireNet()) return;
    size_t peer = 0;
    in >> peer;
    net_->RestartPeerAndStabilize(static_cast<sim::NodeIndex>(peer));
    std::printf("peer %zu restarted; overlay restabilized\n", peer);
  }

  void CmdFaults(std::istringstream& in) {
    if (!RequireNet()) return;
    std::string token;
    if (!(in >> token)) {
      const sim::FaultPlan* plan = net_->fault_plan();
      if (plan == nullptr) {
        std::printf("faults off\n");
        return;
      }
      std::printf(
          "faults on: seed=%llu drop=%.3f dup=%.3f jitter=%.4f slow=%.4f\n",
          static_cast<unsigned long long>(plan->options().seed),
          plan->options().drop_p, plan->options().dup_p,
          plan->options().jitter_mean_s, plan->options().slow_extra_s);
      if (!PrintCounters(obs::MetricRegistry::Default().Snapshot(),
                         "fault.")) {
        std::printf("    no fault injected yet\n");
      }
      return;
    }
    if (token == "off") {
      net_->DisableFaults();
      std::printf("faults off\n");
      return;
    }
    if (token != "on") {
      std::printf("usage: faults [on [key=value ...] | off]\n");
      return;
    }
    sim::FaultOptions options;
    while (in >> token) {
      const size_t eq = token.find('=');
      if (eq == std::string::npos) {
        std::printf("ignoring malformed knob '%s' (want key=value)\n",
                    token.c_str());
        continue;
      }
      const std::string key = token.substr(0, eq);
      const std::string value = token.substr(eq + 1);
      if (key == "seed") {
        options.seed = std::stoull(value);
      } else if (key == "drop") {
        options.drop_p = std::stod(value);
      } else if (key == "dup") {
        options.dup_p = std::stod(value);
      } else if (key == "jitter") {
        options.jitter_mean_s = std::stod(value);
      } else if (key == "slow") {
        options.slow_extra_s = std::stod(value);
      } else if (key == "slowpeers") {
        std::istringstream list(value);
        std::string item;
        while (std::getline(list, item, ',')) {
          if (!item.empty()) {
            options.slow_peers.push_back(
                static_cast<sim::NodeIndex>(std::stoul(item)));
          }
        }
      } else {
        std::printf("unknown fault knob '%s'\n", key.c_str());
      }
    }
    net_->EnableFaults(options);
    std::printf(
        "faults on: seed=%llu drop=%.3f dup=%.3f jitter=%.4f slow=%.4f "
        "(%zu slow peers)\n",
        static_cast<unsigned long long>(options.seed), options.drop_p,
        options.dup_p, options.jitter_mean_s, options.slow_extra_s,
        options.slow_peers.size());
  }

  void CmdUnpublish(std::istringstream& in) {
    if (!RequireNet()) return;
    size_t peer = 0, seq = 0;
    in >> peer >> seq;
    const bool ok = net_->UnpublishAndWait(static_cast<sim::NodeIndex>(peer),
                                           static_cast<index::DocSeq>(seq));
    std::printf(ok ? "document (%zu,%zu) withdrawn\n"
                   : "no such document (%zu,%zu)\n",
                peer, seq);
  }

  void CmdUri(std::istringstream& in) {
    if (!RequireNet()) return;
    size_t peer = 0, doc = 0;
    in >> peer >> doc;
    auto uri = net_->LookupDocUriAndWait(
        0, index::DocId{static_cast<index::PeerId>(peer),
                        static_cast<index::DocSeq>(doc)});
    if (uri.ok()) {
      std::printf("%s\n", uri.value().c_str());
    } else {
      std::printf("error: %s\n", uri.status().ToString().c_str());
    }
  }

  void CmdOwner(std::istringstream& in) {
    if (!RequireNet()) return;
    std::string key;
    in >> key;
    std::printf("key '%s' -> peer %u\n", key.c_str(),
                net_->dht().OwnerOf(dht::HashKey(key)));
  }

  static const char* HopRuleName(dht::DhtPeer::HopRule rule) {
    switch (rule) {
      case dht::DhtPeer::HopRule::kSuccessor:
        return "successor";
      case dht::DhtPeer::HopRule::kRange:
        return "range";
      case dht::DhtPeer::HopRule::kPreceding:
        return "preceding entry";
    }
    return "?";
  }

  /// The path a routed message for `key` takes from `peer`, read from the
  /// live peers' routing tables (no message is sent): each hop and the
  /// DhtPeer::NextHop rule that chose it.
  void CmdRoute(std::istringstream& in) {
    if (!RequireNet()) return;
    size_t peer = 0;
    std::string key;
    if (!(in >> peer >> key) || peer >= net_->PeerCount()) {
      std::printf("usage: route <peer> <key>  (0 <= peer < %zu)\n",
                  net_->PeerCount());
      return;
    }
    const dht::Dht& overlay = net_->dht();
    const auto from = static_cast<sim::NodeIndex>(peer);
    if (!net_->network().IsNodeUp(from)) {
      std::printf("peer %zu is down\n", peer);
      return;
    }
    const dht::KeyId id = dht::HashKey(key);
    const dht::DhtPeer* at = overlay.peer(from);
    size_t hops = 0;
    // A route visits a peer at most once, so it ends within PeerCount hops.
    while (!at->IsResponsible(id) && hops < net_->PeerCount()) {
      const dht::DhtPeer::Hop hop = at->NextHop(id);
      std::printf("  hop %zu: peer %u -> peer %u  (%s)\n", ++hops, at->node(),
                  hop.node, HopRuleName(hop.rule));
      at = overlay.peer(hop.node);
    }
    std::printf("key '%s' from peer %zu -> peer %u in %zu hop%s%s\n",
                key.c_str(), peer, at->node(), hops, hops == 1 ? "" : "s",
                at->node() == overlay.OwnerOf(id) ? "" : " (not the owner)");
  }

  std::unique_ptr<core::KadopNet> net_;
  std::vector<xml::Document> docs_;
  bool warned_dropped_ = false;
};

}  // namespace
}  // namespace kadop::tools

int main() {
  kadop::tools::Shell shell;
  return shell.Run();
}
