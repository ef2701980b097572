#include "query/view_manager.h"

#include <algorithm>
#include <utility>

#include "index/dpp.h"
#include "obs/metrics.h"

namespace kadop::query {

namespace {

struct ViewCounters {
  obs::Counter* hits;
  obs::Counter* exact_hits;
  obs::Counter* misses;
  obs::Counter* rewrites;
  obs::Counter* fallbacks;
  obs::Counter* maintenance_tuples;
  obs::Counter* bytes_served;

  ViewCounters() {
    auto& r = obs::MetricRegistry::Default();
    hits = r.GetCounter("view.hits");
    exact_hits = r.GetCounter("view.exact_hits");
    misses = r.GetCounter("view.misses");
    rewrites = r.GetCounter("view.rewrites");
    fallbacks = r.GetCounter("view.fallbacks");
    maintenance_tuples = r.GetCounter("view.maintenance_tuples");
    bytes_served = r.GetCounter("view.bytes_served");
  }
};

ViewCounters& C() {
  static ViewCounters counters;
  return counters;
}

}  // namespace

// ---------------------------------------------------------------------------
// Registration

Result<std::string> ViewCatalog::Register(const TreePattern& pattern,
                                          std::string name) {
  if (pattern.size() == 0) {
    return Status::InvalidArgument("empty view pattern");
  }
  if (pattern.HasWildcard()) {
    return Status::InvalidArgument("view patterns must be wildcard-free");
  }
  const std::string key = pattern.ToString();
  const auto dup = by_pattern_.find(key);
  if (dup != by_pattern_.end()) {
    return Status::AlreadyExists("view '" + dup->second +
                                 "' already covers " + key);
  }
  if (name.empty()) {
    do {
      name = std::string("v").append(std::to_string(++next_name_id_));
    } while (entries_.count(name) > 0);
  } else if (entries_.count(name) > 0) {
    return Status::AlreadyExists("view name in use: " + name);
  }
  Entry entry;
  entry.def.name = name;
  entry.def.pattern = pattern;
  entry.def.extent_prefix =
      "view:" + name + ".g" + std::to_string(++next_generation_);
  entry.column_counts.assign(pattern.size(), 0);
  entry.column_versions.assign(pattern.size(), 0);
  entry.term_versions.assign(pattern.size(), 0);
  entries_.emplace(name, std::move(entry));
  by_pattern_.emplace(key, name);
  return name;
}

bool ViewCatalog::Drop(const std::string& name) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  by_pattern_.erase(it->second.def.PatternKey());
  entries_.erase(it);
  return true;
}

const ViewCatalog::Entry* ViewCatalog::Find(const std::string& name) const {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

ViewCatalog::Entry* ViewCatalog::FindMutable(const std::string& name) {
  const auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::string ViewCatalog::Describe() const {
  std::string out;
  for (const auto& [name, entry] : entries_) {
    uint64_t postings = 0;
    for (uint64_t c : entry.column_counts) postings += c;
    out += name + " pattern=" + entry.def.PatternKey() +
           " ready=" + (entry.ready ? "1" : "0") +
           " synced=" + (entry.pending == entry.applied ? "1" : "0") +
           " answers=" + std::to_string(entry.answers) +
           " postings=" + std::to_string(postings) +
           " hits=" + std::to_string(entry.hits) +
           " fallbacks=" + std::to_string(entry.fallbacks) + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Rewriting

bool ViewCatalog::Servable(const Entry& entry, dht::DhtPeer* peer) const {
  if (!entry.ready || entry.pending != entry.applied) return false;
  const TreePattern& pattern = entry.def.pattern;
  for (size_t v = 0; v < pattern.size(); ++v) {
    if (peer->AuthoritativeVersion(entry.def.ColumnKey(v)) !=
        entry.column_versions[v]) {
      return false;
    }
    // The base-term oracle catches index changes that bypassed delta
    // maintenance (an unhooked publisher, a crashed holder's reset
    // versions): any mismatch disqualifies the extent.
    if (peer->AuthoritativeVersion(pattern.node(v).TermKey()) !=
        entry.term_versions[v]) {
      return false;
    }
  }
  return true;
}

std::optional<ViewCatalog::Rewrite> ViewCatalog::FindRewrite(
    const TreePattern& pattern, dht::DhtPeer* peer) {
  if (entries_.empty()) return std::nullopt;
  const auto build = [](const Entry& entry, ViewMatch match) {
    Rewrite rw;
    rw.name = entry.def.name;
    rw.def = entry.def;
    rw.match = std::move(match);
    rw.column_counts = entry.column_counts;
    for (uint64_t c : rw.column_counts) rw.extent_postings += c;
    return rw;
  };
  const auto exact_it = by_pattern_.find(pattern.ToString());
  if (exact_it != by_pattern_.end()) {
    const Entry& entry = entries_.at(exact_it->second);
    if (Servable(entry, peer)) {
      C().rewrites->Increment();
      ViewMatch match;
      match.exact = true;
      match.node_map.resize(pattern.size());
      for (size_t v = 0; v < pattern.size(); ++v) {
        match.node_map[v] = static_cast<int>(v);
      }
      return build(entry, std::move(match));
    }
  }
  // Sub-pattern containment, in name order (deterministic tie-break).
  for (const auto& [name, entry] : entries_) {
    if (exact_it != by_pattern_.end() && name == exact_it->second) continue;
    std::optional<ViewMatch> match =
        MatchViewPattern(entry.def.pattern, pattern);
    if (!match.has_value() || !Servable(entry, peer)) continue;
    C().rewrites->Increment();
    return build(entry, std::move(*match));
  }
  C().misses->Increment();
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Maintenance

void ViewCatalog::BeginMaintenance(const std::string& name) {
  if (Entry* entry = FindMutable(name)) entry->pending++;
}

void ViewCatalog::OnMaintenanceApplied(
    const std::string& name, const std::string& extent_prefix, size_t node,
    int64_t count_delta, std::optional<uint64_t> authoritative_count,
    dht::DhtPeer* peer) {
  Entry* entry = FindMutable(name);
  // Dropped (or dropped and re-created under a new generation) while the
  // operation was in flight: the ack targets dead columns.
  if (entry == nullptr || entry->def.extent_prefix != extent_prefix) return;
  if (node < entry->column_counts.size()) {
    if (authoritative_count.has_value()) {
      entry->column_counts[node] = *authoritative_count;
    } else if (count_delta >= 0) {
      entry->column_counts[node] += static_cast<uint64_t>(count_delta);
    } else {
      const auto dec = static_cast<uint64_t>(-count_delta);
      entry->column_counts[node] -= std::min(entry->column_counts[node], dec);
    }
  }
  entry->applied++;
  if (entry->pending == entry->applied) ResyncEntry(*entry, peer);
}

void ViewCatalog::AddAnswerDelta(const std::string& name, int64_t delta) {
  Entry* entry = FindMutable(name);
  if (entry == nullptr) return;
  if (delta >= 0) {
    entry->answers += static_cast<uint64_t>(delta);
  } else {
    const auto dec = static_cast<uint64_t>(-delta);
    entry->answers -= std::min(entry->answers, dec);
  }
}

void ViewCatalog::MarkReady(const std::string& name) {
  if (Entry* entry = FindMutable(name)) entry->ready = true;
}

void ViewCatalog::ResyncEntry(Entry& entry, dht::DhtPeer* peer) {
  const TreePattern& pattern = entry.def.pattern;
  for (size_t v = 0; v < pattern.size(); ++v) {
    entry.column_versions[v] =
        peer->AuthoritativeVersion(entry.def.ColumnKey(v));
    entry.term_versions[v] =
        peer->AuthoritativeVersion(pattern.node(v).TermKey());
  }
}

void ViewCatalog::Resync(dht::DhtPeer* peer) {
  for (auto& [name, entry] : entries_) {
    if (entry.ready && entry.pending == entry.applied) {
      ResyncEntry(entry, peer);
    }
  }
}

std::vector<index::DerivedAppend> ViewCatalog::MakePublishDeltas(
    dht::DhtPeer* peer, const xml::Document& doc, index::PeerId peer_id,
    index::DocSeq seq, const std::vector<index::TermPosting>& postings) {
  (void)doc;
  (void)peer_id;
  (void)seq;
  std::vector<index::DerivedAppend> out;
  for (auto& [name, entry] : entries_) {
    const std::vector<Answer> answers =
        ViewAnswersForDoc(entry.def.pattern, postings);
    if (answers.empty()) continue;
    entry.answers += answers.size();
    std::vector<index::PostingList> columns =
        ProjectAnswers(answers, entry.def.pattern.size());
    for (size_t v = 0; v < columns.size(); ++v) {
      if (columns[v].empty()) continue;
      const auto n = static_cast<int64_t>(columns[v].size());
      entry.pending++;
      C().maintenance_tuples->Increment(columns[v].size());
      out.push_back(index::DerivedAppend{
          entry.def.ColumnKey(v), std::move(columns[v]),
          [this, vname = name, prefix = entry.def.extent_prefix, v, n,
           peer](Status st) {
            // A failed delta (retry budget exhausted) leaves the entry
            // out of sync on purpose: safe (never served) but not live
            // until re-materialized.
            if (!st.ok()) return;
            OnMaintenanceApplied(vname, prefix, v, n, std::nullopt, peer);
          }});
    }
  }
  return out;
}

void ViewCatalog::HandleUnpublish(
    dht::DhtPeer* peer, const xml::Document& doc, index::PeerId peer_id,
    index::DocSeq seq, const std::vector<index::TermPosting>& postings) {
  (void)doc;
  const index::DocId doc_id{peer_id, seq};
  for (auto& [name, entry] : entries_) {
    const std::vector<Answer> answers =
        ViewAnswersForDoc(entry.def.pattern, postings);
    if (answers.empty()) continue;
    const auto removed = static_cast<uint64_t>(answers.size());
    entry.answers -= std::min(entry.answers, removed);
    for (size_t v = 0; v < entry.def.pattern.size(); ++v) {
      const std::string key = entry.def.ColumnKey(v);
      entry.pending++;
      peer->DeleteDoc(key, doc_id);
      // The directory probe doubles as the delete's apply ack: routed
      // behind the delete, its block sum is the post-delete authoritative
      // count. A lost probe (or one reordered ahead of its delete under
      // jitter) leaves the entry out of sync — sticky fallback until the
      // next resync.
      index::DppManager::FetchDirectory(
          peer, key,
          [this, vname = name, prefix = entry.def.extent_prefix, v, peer](
              Status st, std::vector<index::DppBlockInfo> blocks) {
            if (!st.ok()) return;
            OnMaintenanceApplied(vname, prefix, v, 0,
                                 index::DirectoryCount(blocks), peer);
          },
          {}, /*behind_writes=*/true);
    }
  }
}

// ---------------------------------------------------------------------------
// Executor accounting

void ViewCatalog::CountHit(const std::string& name, bool exact,
                           uint64_t wire_bytes) {
  C().hits->Increment();
  if (exact) C().exact_hits->Increment();
  C().bytes_served->Increment(wire_bytes);
  if (Entry* entry = FindMutable(name)) entry->hits++;
}

void ViewCatalog::CountFallback(const std::string& name) {
  C().fallbacks->Increment();
  if (Entry* entry = FindMutable(name)) entry->fallbacks++;
}

}  // namespace kadop::query
