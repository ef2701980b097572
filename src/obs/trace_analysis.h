#ifndef KADOP_OBS_TRACE_ANALYSIS_H_
#define KADOP_OBS_TRACE_ANALYSIS_H_

#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace kadop::obs {

// Post-hoc analysis over a Tracer buffer: per-query span trees, critical
// paths, phase breakdowns and Chrome trace_event export. Everything here is
// a pure function of the recorded spans, so two same-seed runs produce
// byte-identical reports.

// The connected span tree under one root span.
struct TraceTree {
  const SpanRecord* root = nullptr;
  // Root plus every span of the root's trace reachable from it, in Begin()
  // order (deterministic).
  std::vector<const SpanRecord*> spans;
  // Spans sharing the root's trace id whose parent chain does NOT reach the
  // root (0 means the trace is a single connected tree).
  size_t disconnected = 0;

  // Distinct peers the tree's spans executed on.
  size_t PeerCount() const;
};

// Root spans (non-event, parent == 0, trace != 0) in Begin() order — one
// per traced query.
std::vector<SpanId> TraceRoots(const Tracer& tracer);

TraceTree BuildTraceTree(const Tracer& tracer, SpanId root);

// Dominant chain through the tree: starting at the root, repeatedly descend
// into the child span that ends last (ties broken by span id). This is the
// chain of work that determined the response time.
struct CriticalPathStep {
  SpanId id = 0;
  std::string name;
  uint32_t node = 0;
  double start = 0;
  double end = 0;
};
std::vector<CriticalPathStep> CriticalPath(const TraceTree& tree);

// Classifies a span name into one of the fixed phases:
// route / fetch / decode / join / reply / other.
std::string_view PhaseForSpanName(std::string_view name);

// Partitions the root span's [start, end] interval: each instant is
// attributed to the phase of the *deepest* span covering it (ties broken by
// span id), so the per-phase totals sum to the root's duration exactly.
struct PhaseBreakdown {
  // (phase, seconds) in the fixed order route, fetch, decode, join, reply,
  // other. Present even when zero.
  std::vector<std::pair<std::string, double>> phases;
  double total = 0;  // root duration == sum of phase seconds.
};
PhaseBreakdown ComputePhaseBreakdown(const TraceTree& tree);

// Human-readable per-query report: tree size, peer count, the root's
// annotations, critical path and phase breakdown.
std::string PhaseReportText(const Tracer& tracer, SpanId root);

// Chrome trace_event JSON ("X" complete events, "i" instants, "M" process
// names; ts/dur in microseconds of virtual time; pid = peer, tid = trace
// id). Load in chrome://tracing or Perfetto.
std::string ChromeTraceJson(const Tracer& tracer);

}  // namespace kadop::obs

#endif  // KADOP_OBS_TRACE_ANALYSIS_H_
