#include "obs/trace_analysis.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "obs/json.h"

namespace kadop::obs {

namespace {

constexpr std::string_view kPhaseOrder[] = {"route",  "fetch", "decode",
                                            "join",   "reply", "other"};

bool NameHasPrefix(std::string_view name, std::string_view prefix) {
  return name.size() >= prefix.size() &&
         name.substr(0, prefix.size()) == prefix;
}

}  // namespace

std::string_view PhaseForSpanName(std::string_view name) {
  if (NameHasPrefix(name, "query.route") || NameHasPrefix(name, "dpp.dir") ||
      NameHasPrefix(name, "dht.route")) {
    return "route";
  }
  if (NameHasPrefix(name, "query.fetch") || NameHasPrefix(name, "dht.get")) {
    return "fetch";
  }
  if (NameHasPrefix(name, "query.decode") || NameHasPrefix(name, "codec.")) {
    return "decode";
  }
  if (NameHasPrefix(name, "query.join") || NameHasPrefix(name, "join.") ||
      NameHasPrefix(name, "reducer.")) {
    return "join";
  }
  if (NameHasPrefix(name, "query.reply") || NameHasPrefix(name, "dht.reply")) {
    return "reply";
  }
  return "other";
}

size_t TraceTree::PeerCount() const {
  std::set<uint32_t> nodes;
  for (const SpanRecord* s : spans) nodes.insert(s->node);
  return nodes.size();
}

std::vector<SpanId> TraceRoots(const Tracer& tracer) {
  std::vector<SpanId> roots;
  for (const SpanRecord& s : tracer.spans()) {
    if (!s.is_event && s.parent == 0 && s.trace != 0) roots.push_back(s.id);
  }
  return roots;
}

TraceTree BuildTraceTree(const Tracer& tracer, SpanId root) {
  TraceTree tree;
  std::unordered_map<SpanId, const SpanRecord*> by_id;
  for (const SpanRecord& s : tracer.spans()) by_id[s.id] = &s;
  auto it = by_id.find(root);
  if (it == by_id.end()) return tree;
  tree.root = it->second;

  // A span is in the tree iff its parent chain reaches the root. Records are
  // stored in Begin() order, so a span's parent always precedes it and one
  // forward pass settles reachability.
  std::set<SpanId> reachable = {root};
  tree.spans.push_back(tree.root);
  for (const SpanRecord& s : tracer.spans()) {
    if (s.trace != tree.root->trace || s.id == root) continue;
    if (s.parent != 0 && reachable.count(s.parent)) {
      reachable.insert(s.id);
      tree.spans.push_back(&s);
    } else {
      tree.disconnected++;
    }
  }
  return tree;
}

std::vector<CriticalPathStep> CriticalPath(const TraceTree& tree) {
  std::vector<CriticalPathStep> path;
  if (tree.root == nullptr) return path;
  std::map<SpanId, std::vector<const SpanRecord*>> children;
  for (const SpanRecord* s : tree.spans) {
    if (s != tree.root) children[s->parent].push_back(s);
  }
  const SpanRecord* cur = tree.root;
  const double fallback_end = tree.root->end;
  while (cur != nullptr) {
    CriticalPathStep step;
    step.id = cur->id;
    step.name = cur->name;
    step.node = cur->node;
    step.start = cur->start;
    step.end = cur->end >= cur->start ? cur->end : fallback_end;
    path.push_back(std::move(step));
    const SpanRecord* next = nullptr;
    auto it = children.find(cur->id);
    if (it != children.end()) {
      for (const SpanRecord* c : it->second) {
        if (c->is_event) continue;
        const double c_end = c->end >= c->start ? c->end : fallback_end;
        if (next == nullptr) {
          next = c;
          continue;
        }
        const double n_end = next->end >= next->start ? next->end
                                                      : fallback_end;
        if (c_end > n_end || (c_end == n_end && c->id > next->id)) next = c;
      }
    }
    cur = next;
  }
  return path;
}

PhaseBreakdown ComputePhaseBreakdown(const TraceTree& tree) {
  PhaseBreakdown out;
  for (std::string_view phase : kPhaseOrder) {
    out.phases.emplace_back(std::string(phase), 0.0);
  }
  if (tree.root == nullptr || tree.root->end < tree.root->start) return out;
  const double lo = tree.root->start;
  const double hi = tree.root->end;
  out.total = hi - lo;

  struct Interval {
    double start, end;
    size_t depth;
    SpanId id;
    std::string_view phase;
  };
  std::unordered_map<SpanId, size_t> depth = {{tree.root->id, 0}};
  std::vector<Interval> intervals;
  std::vector<double> points = {lo, hi};
  for (const SpanRecord* s : tree.spans) {
    if (s->is_event) continue;
    size_t d = 0;
    if (s != tree.root) {
      auto pit = depth.find(s->parent);
      d = (pit == depth.end() ? 0 : pit->second) + 1;
    }
    depth[s->id] = d;
    Interval iv;
    iv.start = std::max(s->start, lo);
    iv.end = std::min(s->end >= s->start ? s->end : hi, hi);
    if (iv.end <= iv.start) continue;
    iv.depth = d;
    iv.id = s->id;
    iv.phase = s == tree.root ? std::string_view("other")
                              : PhaseForSpanName(s->name);
    intervals.push_back(iv);
    points.push_back(iv.start);
    points.push_back(iv.end);
  }
  std::sort(points.begin(), points.end());
  points.erase(std::unique(points.begin(), points.end()), points.end());

  std::map<std::string_view, double> seconds;
  double attributed = 0;
  for (size_t i = 0; i + 1 < points.size(); ++i) {
    const double a = points[i];
    const double b = points[i + 1];
    if (b <= a || a < lo || b > hi) continue;
    const Interval* best = nullptr;
    for (const Interval& iv : intervals) {
      if (iv.start > a || iv.end < b) continue;
      if (best == nullptr || iv.depth > best->depth ||
          (iv.depth == best->depth && iv.id > best->id)) {
        best = &iv;
      }
    }
    if (best == nullptr) continue;  // only possible via FP pathology
    seconds[best->phase] += b - a;
    attributed += b - a;
  }
  for (auto& [phase, value] : out.phases) {
    auto it = seconds.find(phase);
    if (it != seconds.end()) value = it->second;
  }
  // Force the exact-sum invariant: rounding residue (a few ulps of the
  // telescoped segment sum) lands in "other" so phases always total the
  // measured response time.
  out.phases.back().second += out.total - attributed;
  return out;
}

std::string PhaseReportText(const Tracer& tracer, SpanId root) {
  std::string out;
  TraceTree tree = BuildTraceTree(tracer, root);
  if (tree.root == nullptr) return "no such span\n";
  out += "trace " + std::to_string(tree.root->trace);
  out += " root #" + std::to_string(root) + " " + tree.root->name;
  out += " spans=" + std::to_string(tree.spans.size());
  out += " peers=" + std::to_string(tree.PeerCount());
  if (tree.disconnected > 0) {
    out += " disconnected=" + std::to_string(tree.disconnected);
  }
  if (tree.root->end >= tree.root->start) {
    out += " response=" +
           JsonWriter::FormatDouble(tree.root->end - tree.root->start);
  }
  out += '\n';
  // The root's annotations: the requested and effective strategy, and the
  // per-term counts kAuto planned from.
  for (const auto& [key, value] : tree.root->attrs) {
    out += "  " + key + "=" + value + '\n';
  }
  out += "critical path:\n";
  for (const CriticalPathStep& step : CriticalPath(tree)) {
    out += "  #" + std::to_string(step.id) + " " + step.name;
    out += " node=" + std::to_string(step.node);
    out += " t=" + JsonWriter::FormatDouble(step.start);
    out += " dur=" + JsonWriter::FormatDouble(step.end - step.start);
    out += '\n';
  }
  out += "phases:\n";
  PhaseBreakdown breakdown = ComputePhaseBreakdown(tree);
  for (const auto& [phase, value] : breakdown.phases) {
    out += "  " + phase + " " + JsonWriter::FormatDouble(value) + '\n';
  }
  out += "  total " + JsonWriter::FormatDouble(breakdown.total) + '\n';
  return out;
}

std::string ChromeTraceJson(const Tracer& tracer) {
  JsonWriter w;
  w.BeginObject();
  w.Key("traceEvents").BeginArray();
  std::set<uint32_t> nodes;
  for (const SpanRecord& s : tracer.spans()) nodes.insert(s.node);
  for (uint32_t node : nodes) {
    w.BeginObject();
    w.Key("name").Value("process_name");
    w.Key("ph").Value("M");
    w.Key("pid").Value(static_cast<uint64_t>(node));
    w.Key("tid").Value(static_cast<uint64_t>(0));
    w.Key("args").BeginObject();
    w.Key("name").Value("peer " + std::to_string(node));
    w.EndObject();
    w.EndObject();
  }
  for (const SpanRecord& s : tracer.spans()) {
    w.BeginObject();
    w.Key("name").Value(s.name);
    w.Key("ph").Value(s.is_event ? "i" : "X");
    w.Key("ts").Value(s.start * 1e6);
    if (!s.is_event) {
      w.Key("dur").Value(s.end >= s.start ? (s.end - s.start) * 1e6 : 0.0);
    }
    w.Key("pid").Value(static_cast<uint64_t>(s.node));
    w.Key("tid").Value(s.trace);
    if (s.is_event) w.Key("s").Value("t");
    w.Key("args").BeginObject();
    w.Key("span").Value(s.id);
    if (s.parent != 0) w.Key("parent").Value(s.parent);
    for (const auto& [key, value] : s.attrs) w.Key(key).Value(value);
    w.EndObject();
    w.EndObject();
  }
  w.EndArray();
  w.Key("displayTimeUnit").Value("ms");
  w.EndObject();
  return std::move(w).str();
}

}  // namespace kadop::obs
