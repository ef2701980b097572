#ifndef KBENCH_WORKLOADS_H_
#define KBENCH_WORKLOADS_H_

// The benchmark's three workloads, each driven through the public
// core::KadopNet API in a single-threaded process:
//   serve_zipf    open-loop multi-tenant serving with churn publishing
//   long_list     closed-loop Fig 3 long-posting-list queries
//   publish_bulk  Fig 2 many-publisher indexing
// See kbench/README.md for shapes, metrics and the layer mapping.

#include <array>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "core/kadop.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/tree_pattern.h"

namespace kbench {

using kadop::core::KadopNet;

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory for the result and trace artifacts ("" = write none).
  std::string out_dir;
};

/// Wall-clock seconds since an arbitrary epoch (steady clock).
inline double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Benchmark-side wall spans around calls into the system's layers, kept
/// in memory and written out when the run ends. `op` is the query or
/// publish the span belongs to (0 for set-up and replay spans).
class WallSpans {
 public:
  struct Span {
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t op = 0;
    std::string name;
    double start = 0;
    double end = -1;
  };

  uint64_t Begin(std::string name, uint64_t parent = 0, uint64_t op = 0);
  void End(uint64_t id);
  const std::vector<Span>& spans() const { return spans_; }
  void AppendJson(kadop::obs::JsonWriter& w) const;

 private:
  double epoch_ = WallNow();
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `spans` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(WallSpans* spans, std::string name, uint64_t parent = 0,
             uint64_t op = 0)
      : spans_(spans),
        id_(spans ? spans->Begin(std::move(name), parent, op) : 0) {}
  ~ScopedSpan() {
    if (spans_) spans_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return id_; }

 private:
  WallSpans* spans_;
  uint64_t id_;
};

/// Queries measured together: virtual latencies from their due time (a
/// failed query enters as kFailed), wall time per call for closed loops,
/// and the wall time and wire bytes the group cost.
struct QueryGroup {
  std::vector<double> latency_s;
  std::vector<double> first_answer_s;
  std::vector<double> wall_ms;
  size_t attempted = 0;
  /// Degraded, incomplete, errored or wrong against the oracle.
  size_t failed = 0;
  /// Errored or wrong against the oracle.
  size_t wrong = 0;
  size_t degraded = 0;
  size_t incomplete = 0;
  /// Wall seconds spent inside the event loop (or QueryAndWait calls).
  double loop_wall_s = 0;
  /// Posting, Bloom, query and result bytes on the wire.
  uint64_t wire_bytes = 0;
  /// Completed queries per wall second in consecutive blocks of the run
  /// (closed-loop cycles or virtual-time slices of the event loop). Their
  /// median is robust to a burst of interference from the host.
  std::vector<double> block_qps;
  std::array<size_t, 9> strategy_counts{};

  void Add(const kadop::query::QueryResult& r, double latency,
           bool mismatch);
  void Merge(const QueryGroup& other);
};

/// One indexing run: virtual and wall time, and what it shipped.
struct PublishRun {
  double virtual_s = 0;
  double wall_s = 0;
  uint64_t corpus_bytes = 0;
  /// Publish and control bytes on the wire.
  uint64_t wire_bytes = 0;
};

/// What one measured phase leaves for the traced run: the registry delta,
/// traffic delta per category, events executed and the wall time spent.
struct PhaseCapture {
  kadop::obs::MetricsSnapshot counters;
  std::array<uint64_t, 6> traffic{};
  uint64_t events = 0;
  double wall_s = 0;
  size_t queries = 0;
  /// The phase's queries by the strategy that actually ran.
  std::array<size_t, 9> strategies{};
  uint64_t published_bytes = 0;
};

/// A correctness failure found by the oracle.
struct OracleReport {
  size_t checks = 0;
  std::vector<std::string> mismatches;
  bool ok() const { return mismatches.empty(); }
};

/// The oracle: each pattern's index answers against direct evaluation of
/// the published documents (query::EvaluateOnDocument), under the
/// AnalyzePattern contract — equal answers and documents for complete,
/// precise patterns, a superset of documents otherwise.
class Oracle {
 public:
  /// Evaluates `xpath` over every document stored at the network's peers.
  Oracle(KadopNet& net, const std::string& xpath);
  /// Empty when `result` agrees; otherwise why not.
  std::string Check(const kadop::query::QueryResult& result) const;

 private:
  std::string xpath_;
  kadop::query::PatternAnalysis analysis_;
  std::vector<kadop::query::Answer> answers_;
  std::vector<kadop::index::DocId> docs_;
};

/// Stored postings per term, summed over every peer's store (DPP
/// overflow blocks fold into their term), against the postings the
/// published documents extract to.
void CheckTermCounts(KadopNet& net, OracleReport& report);

/// One workload. RunEndToEnd() calls Setup() `setup_reps()` times (each
/// builds a fresh network) and runs the measured phase and Verify() once
/// on the last one, or after every set-up when `phase_per_setup()`.
class Workload {
 public:
  explicit Workload(const Options& options) : options_(options) {}
  virtual ~Workload() = default;

  const Options& options() const { return options_; }
  virtual const char* name() const = 0;
  virtual int setup_reps() const = 0;
  virtual bool phase_per_setup() const { return false; }
  virtual void WriteParams(kadop::obs::JsonWriter& w) const = 0;
  /// Distinct patterns the workload queries (for the replay).
  virtual std::vector<std::string> Patterns() const = 0;

  /// Generates the corpus, builds a fresh network and (except for
  /// publish_bulk) publishes the corpus into it.
  virtual void Setup(WallSpans* spans) = 0;
  /// Closed-loop read-back on the fresh network, after each set-up of
  /// an untraced run (not part of setup_s).
  virtual void AfterSetup(WallSpans*) {}
  /// The measured phase on the current network.
  virtual void RunPhase(WallSpans* spans) = 0;
  /// At a quiescent point after the phase: the oracle, plus closed-loop
  /// read-back queries where the workload needs them; settles `attempted`
  /// and `failed`.
  virtual void Verify(WallSpans* spans) = 0;

  KadopNet& net() { return *net_; }

  // Filled as the workload runs.
  std::vector<double> setup_wall_s;
  std::vector<double> corpus_gen_s;
  std::vector<PublishRun> publishes;
  /// Virtual latency, throughput and wire metrics come from here.
  QueryGroup measured;
  /// Wall time per QueryAndWait comes from here.
  QueryGroup closed_loop;
  OracleReport oracle;
  /// Operations attempted over the whole run; of them, those that errored
  /// or returned wrong answers (the result line's `failed`), and the
  /// queries flagged degraded or incomplete.
  size_t attempted = 0;
  size_t failed = 0;
  size_t degraded = 0;
  PhaseCapture capture;
  /// Workload-specific detail written into the result artifact.
  std::vector<std::pair<std::string, double>> detail;

 protected:
  /// Runs `fn` while recording the registry, traffic, event and wall
  /// deltas into `capture`.
  template <typename Fn>
  void Capture(Fn&& fn);
  /// Closed-loop QueryAndWait of `xpath` from `peer`, checked against
  /// `truth`, recorded into `group`.
  void QueryChecked(QueryGroup& group, const Oracle& truth,
                    const std::string& xpath, uint32_t peer,
                    WallSpans* spans, uint64_t op);
  /// Sets `attempted`, `failed` and `degraded` from the run's query groups
  /// plus `publishes_attempted` indexing runs.
  void Settle(std::initializer_list<const QueryGroup*> groups,
              size_t publishes_attempted);
  /// `n` closed-loop queries cycling through `cycle` (indices into
  /// `patterns`), the query peer rotating over every peer from a
  /// seed-chosen start; one `block_qps` entry per cycle.
  void ClosedLoop(QueryGroup& group, const std::vector<std::string>& patterns,
                  const std::vector<Oracle>& truths,
                  const std::vector<size_t>& cycle, size_t n,
                  WallSpans* spans, uint64_t op_base);

  const Options options_;
  std::unique_ptr<KadopNet> net_;
};

/// Creates the named workload, or nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const Options& options);

/// The serving configuration every workload queries with: kAuto with
/// the holder-side join available, every other option at its default.
kadop::query::QueryOptions ServingQueryOptions();

/// Peak resident set size of this process in MB.
double PeakRssMb();

/// `s` without the wall-clock `*_ns` counters, which only a run with
/// obs::SetWallClockProfiling(true) fills: what must repeat exactly.
kadop::obs::MetricsSnapshot WithoutWallClockCounters(
    kadop::obs::MetricsSnapshot s);

}  // namespace kbench

#endif  // KBENCH_WORKLOADS_H_
