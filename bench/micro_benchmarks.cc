// Google-benchmark micro suite for the core data structures and
// algorithms: B+-tree, Bloom filters, dyadic decomposition, structural
// joins, twig join, XML parsing/extraction, DHT routing, and the posting
// codec. The main() additionally emits BENCH_codec.json (encode/decode
// throughput and the achieved compression ratio on fig2's DBLP document
// mix) for the CI bench-emit job.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <optional>

#include "bench/bench_util.h"
#include "bloom/structural_filter.h"
#include "common/random.h"
#include "dht/dht.h"
#include "dht/ring.h"
#include "index/codec.h"
#include "index/structural_join.h"
#include "obs/profile_clock.h"
#include "index/terms.h"
#include "query/twig_join.h"
#include "store/bplus_tree.h"
#include "xml/corpus.h"
#include "xml/parser.h"

namespace kadop {
namespace {

void BM_BPlusTreeInsert(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    store::BPlusTree<uint64_t, uint64_t> tree;
    Rng rng(1);
    for (int i = 0; i < n; ++i) {
      (void)tree.InsertOrAssign(rng.Next(), i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BPlusTreeInsert)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_BPlusTreeLookup(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  store::BPlusTree<uint64_t, uint64_t> tree;
  Rng rng(1);
  std::vector<uint64_t> keys;
  for (int i = 0; i < n; ++i) {
    keys.push_back(rng.Next());
    (void)tree.InsertOrAssign(keys.back(), i);
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.Find(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BPlusTreeLookup)->Arg(10000)->Arg(100000);

void BM_BPlusTreeScan(benchmark::State& state) {
  store::BPlusTree<uint64_t, uint64_t> tree;
  for (uint64_t i = 0; i < 100000; ++i) (void)tree.InsertOrAssign(i, i);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (auto it = tree.Begin(); it.Valid(); it.Next()) sum += it.value();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_BPlusTreeScan);

void BM_BloomInsert(benchmark::State& state) {
  for (auto _ : state) {
    bloom::BloomFilter filter(100000, 0.01);
    for (uint64_t i = 0; i < 100000; ++i) filter.Insert(i * 0x9e3779b9);
    benchmark::DoNotOptimize(filter.inserted());
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_BloomInsert);

void BM_BloomProbe(benchmark::State& state) {
  bloom::BloomFilter filter(100000, 0.01);
  for (uint64_t i = 0; i < 100000; ++i) filter.Insert(i * 0x9e3779b9);
  uint64_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(filter.MaybeContains(q++ * 0x51ed2701));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomProbe);

void BM_DyadicCover(benchmark::State& state) {
  Rng rng(3);
  const int l = 20;
  for (auto _ : state) {
    const uint32_t x =
        static_cast<uint32_t>(rng.UniformRange(1, (1 << l) - 64));
    const uint32_t y =
        static_cast<uint32_t>(x + rng.Uniform(64));
    benchmark::DoNotOptimize(bloom::DyadicCover(x, y, l));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DyadicCover);

index::PostingList MakeNestedList(size_t n) {
  index::PostingList out;
  uint32_t counter = 1;
  uint32_t doc = 0;
  while (out.size() < n) {
    // Small 3-level documents.
    const uint32_t a = counter++;
    const uint32_t b = counter++;
    out.push_back({0, doc, {b, static_cast<uint32_t>(counter++), 2}});
    out.push_back({0, doc, {a, static_cast<uint32_t>(counter++), 1}});
    if (counter > 1000) {
      counter = 1;
      ++doc;
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void BM_StructuralSemiJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  index::PostingList list = MakeNestedList(n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index::DescendantSemiJoin(list, list));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_StructuralSemiJoin)->Arg(10000)->Arg(100000);

void BM_AbfBuild(benchmark::State& state) {
  index::PostingList list = MakeNestedList(50000);
  bloom::StructuralFilterParams params;
  params.levels = 12;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bloom::AncestorBloomFilter::Build(list, params));
  }
  state.SetItemsProcessed(state.iterations() * list.size());
}
BENCHMARK(BM_AbfBuild);

void BM_XmlParse(benchmark::State& state) {
  xml::corpus::DblpOptions opt;
  opt.target_bytes = 64 << 10;
  auto docs = xml::corpus::GenerateDblp(opt);
  const std::string text = xml::SerializeDocument(docs[0]);
  for (auto _ : state) {
    auto doc = xml::ParseDocument(text);
    benchmark::DoNotOptimize(doc.ok());
  }
  state.SetBytesProcessed(state.iterations() * text.size());
}
BENCHMARK(BM_XmlParse);

void BM_ExtractTerms(benchmark::State& state) {
  xml::corpus::DblpOptions opt;
  opt.target_bytes = 64 << 10;
  auto docs = xml::corpus::GenerateDblp(opt);
  for (auto _ : state) {
    std::vector<index::TermPosting> postings;
    index::ExtractTerms(docs[0], 0, 0, {}, postings);
    benchmark::DoNotOptimize(postings.size());
  }
}
BENCHMARK(BM_ExtractTerms);

void BM_TwigJoin(benchmark::State& state) {
  xml::corpus::DblpOptions opt;
  opt.target_bytes = 256 << 10;
  auto docs = xml::corpus::GenerateDblp(opt);
  auto pattern = query::ParsePattern("//article//author").take();
  std::vector<index::PostingList> streams(pattern.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    std::vector<index::TermPosting> postings;
    index::ExtractTerms(docs[d], 0, static_cast<uint32_t>(d), {}, postings);
    for (const auto& tp : postings) {
      for (size_t q = 0; q < pattern.size(); ++q) {
        if (tp.key == pattern.node(q).TermKey()) {
          streams[q].push_back(tp.posting);
        }
      }
    }
  }
  size_t total = 0;
  for (auto& s : streams) {
    std::sort(s.begin(), s.end());
    total += s.size();
  }
  for (auto _ : state) {
    query::TwigJoin join(pattern);
    for (size_t q = 0; q < pattern.size(); ++q) {
      join.Append(q, streams[q]);
      join.Close(q);
    }
    join.Advance();
    benchmark::DoNotOptimize(join.answers().size());
  }
  state.SetItemsProcessed(state.iterations() * total);
}
BENCHMARK(BM_TwigJoin);

/// Per-term streams for `pattern` over a DBLP corpus of `target_bytes`,
/// sorted into canonical posting order — the twig join's input shape.
std::vector<index::PostingList> TwigStreams(const query::TreePattern& pattern,
                                            size_t target_bytes) {
  xml::corpus::DblpOptions opt;
  opt.target_bytes = target_bytes;
  auto docs = xml::corpus::GenerateDblp(opt);
  std::vector<index::PostingList> streams(pattern.size());
  for (size_t d = 0; d < docs.size(); ++d) {
    std::vector<index::TermPosting> postings;
    index::ExtractTerms(docs[d], 0, static_cast<uint32_t>(d), {}, postings);
    for (const auto& tp : postings) {
      for (size_t q = 0; q < pattern.size(); ++q) {
        if (tp.key == pattern.node(q).TermKey()) {
          streams[q].push_back(tp.posting);
        }
      }
    }
  }
  for (auto& s : streams) std::sort(s.begin(), s.end());
  return streams;
}

/// Splits the streams into per-document candidate vectors — the unit the
/// join kernel (prune + enumerate) operates on.
std::vector<std::vector<index::PostingList>> PerDocCandidates(
    const std::vector<index::PostingList>& streams) {
  std::map<index::DocId, std::vector<index::PostingList>> by_doc;
  for (size_t q = 0; q < streams.size(); ++q) {
    for (const auto& p : streams[q]) {
      auto& cands = by_doc[p.doc_id()];
      cands.resize(streams.size());
      cands[q].push_back(p);
    }
  }
  std::vector<std::vector<index::PostingList>> docs;
  docs.reserve(by_doc.size());
  for (auto& [doc, cands] : by_doc) {
    cands.resize(streams.size());
    docs.push_back(std::move(cands));
  }
  return docs;
}

void BM_TwigJoinPrune(benchmark::State& state) {
  auto pattern = query::ParsePattern("//article//author").take();
  const auto docs = PerDocCandidates(TwigStreams(pattern, 256 << 10));
  size_t postings = 0;
  for (const auto& d : docs) {
    for (const auto& c : d) postings += c.size();
  }
  for (auto _ : state) {
    size_t matched = 0;
    for (const auto& d : docs) {
      auto cands = d;  // PruneCandidates mutates its input
      if (query::internal::PruneCandidates(pattern, cands)) ++matched;
    }
    benchmark::DoNotOptimize(matched);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(postings));
}
BENCHMARK(BM_TwigJoinPrune);

void BM_TwigJoinEnumerate(benchmark::State& state) {
  auto pattern = query::ParsePattern("//article//author").take();
  auto docs = PerDocCandidates(TwigStreams(pattern, 256 << 10));
  // Prune once up front; enumeration runs on surviving candidates only,
  // isolating the assignment-expansion cost.
  std::vector<std::pair<index::DocId, std::vector<index::PostingList>>>
      pruned;
  for (auto& d : docs) {
    const index::DocId doc = [&] {
      for (const auto& c : d) {
        if (!c.empty()) return c.front().doc_id();
      }
      return index::DocId{};
    }();
    if (query::internal::PruneCandidates(pattern, d)) {
      pruned.emplace_back(doc, std::move(d));
    }
  }
  for (auto _ : state) {
    size_t total = 0;
    std::vector<query::Answer> answers;
    for (const auto& [doc, cands] : pruned) {
      total += query::internal::EnumerateMatches(pattern, doc, cands,
                                                 1 << 20, answers);
    }
    benchmark::DoNotOptimize(total);
    answers.clear();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pruned.size()));
}
BENCHMARK(BM_TwigJoinEnumerate);

void BM_TwigJoinBlockAppend(benchmark::State& state) {
  // Feeds the join network-style: many small blocks per stream, moved in.
  // This is the path the FetchStream copy elimination targets.
  const size_t block_postings = static_cast<size_t>(state.range(0));
  auto pattern = query::ParsePattern("//article//author").take();
  const auto streams = TwigStreams(pattern, 256 << 10);
  std::vector<std::vector<index::PostingList>> blocks(streams.size());
  size_t total = 0;
  for (size_t q = 0; q < streams.size(); ++q) {
    total += streams[q].size();
    for (size_t i = 0; i < streams[q].size(); i += block_postings) {
      const size_t end = std::min(i + block_postings, streams[q].size());
      blocks[q].emplace_back(streams[q].begin() + i, streams[q].begin() + end);
    }
  }
  for (auto _ : state) {
    state.PauseTiming();
    auto arriving = blocks;  // fresh copies to move from, off the clock
    state.ResumeTiming();
    query::TwigJoin join(pattern);
    for (size_t q = 0; q < arriving.size(); ++q) {
      for (auto& b : arriving[q]) {
        join.Append(q, std::move(b));
        join.Advance();
      }
      join.Close(q);
    }
    join.Advance();
    benchmark::DoNotOptimize(join.answers().size());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(total));
}
BENCHMARK(BM_TwigJoinBlockAppend)->Arg(64)->Arg(512);

/// fig2's document mix as per-term sorted posting lists — the data the
/// codec sees on the wire and in B+-tree leaves.
std::vector<index::PostingList> DblpTermLists(size_t target_bytes) {
  xml::corpus::DblpOptions opt;
  opt.target_bytes = target_bytes;
  auto docs = xml::corpus::GenerateDblp(opt);
  std::map<std::string, index::PostingList> by_term;
  for (size_t d = 0; d < docs.size(); ++d) {
    std::vector<index::TermPosting> postings;
    index::ExtractTerms(docs[d], 0, static_cast<uint32_t>(d), {}, postings);
    for (const auto& tp : postings) by_term[tp.key].push_back(tp.posting);
  }
  std::vector<index::PostingList> lists;
  lists.reserve(by_term.size());
  for (auto& [key, list] : by_term) {
    std::sort(list.begin(), list.end());
    lists.push_back(std::move(list));
  }
  return lists;
}

void BM_CodecEncode(benchmark::State& state) {
  const auto lists = DblpTermLists(static_cast<size_t>(state.range(0)) << 10);
  size_t postings = 0, raw = 0;
  for (const auto& l : lists) {
    postings += l.size();
    raw += index::codec::RawBytes(l);
  }
  for (auto _ : state) {
    size_t encoded = 0;
    for (const auto& l : lists) {
      encoded += index::codec::EncodePostings(l).size();
    }
    benchmark::DoNotOptimize(encoded);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(postings));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(raw));
}
BENCHMARK(BM_CodecEncode)->Arg(64)->Arg(512);

void BM_CodecDecode(benchmark::State& state) {
  const auto lists = DblpTermLists(static_cast<size_t>(state.range(0)) << 10);
  std::vector<std::vector<uint8_t>> encoded;
  size_t postings = 0, raw = 0;
  for (const auto& l : lists) {
    postings += l.size();
    raw += index::codec::RawBytes(l);
    encoded.push_back(index::codec::EncodePostings(l));
  }
  for (auto _ : state) {
    size_t decoded = 0;
    for (const auto& buf : encoded) {
      index::PostingList out;
      if (index::codec::DecodePostings(buf, &out).ok()) decoded += out.size();
    }
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(postings));
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(raw));
}
BENCHMARK(BM_CodecDecode)->Arg(64)->Arg(512);

void BM_CodecEncodedBytes(benchmark::State& state) {
  // The allocation-free size walk every network/store charge runs.
  const auto lists = DblpTermLists(256 << 10);
  size_t postings = 0;
  for (const auto& l : lists) postings += l.size();
  for (auto _ : state) {
    size_t bytes = 0;
    for (const auto& l : lists) bytes += index::codec::EncodedBytes(l);
    benchmark::DoNotOptimize(bytes);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(postings));
}
BENCHMARK(BM_CodecEncodedBytes);

void BM_DhtLocate(benchmark::State& state) {
  sim::Scheduler scheduler;
  sim::Network network(&scheduler);
  dht::Dht dht_net(&scheduler, &network, {});
  dht_net.AddPeers(static_cast<size_t>(state.range(0)));
  uint64_t i = 0;
  for (auto _ : state) {
    std::optional<sim::NodeIndex> owner;
    dht_net.peer(0)->Locate("key" + std::to_string(i++),
                            [&](Result<sim::NodeIndex> o) { owner = o.value(); });
    scheduler.RunUntilIdle();
    benchmark::DoNotOptimize(owner);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DhtLocate)->Arg(64)->Arg(512);

/// Emits BENCH_codec.json: achieved ratio plus wall-clock encode/decode
/// throughput on fig2's DBLP mix (validated by tools/check_bench_json.py
/// in the CI bench-emit job).
void EmitCodecReport() {
  bench::BenchReport report(
      "codec", "posting codec throughput and ratio on the DBLP mix");
  const size_t corpus_kb = bench::QuickMode() ? 128 : 2048;
  const auto lists = DblpTermLists(corpus_kb << 10);
  size_t postings = 0, raw = 0, encoded_bytes = 0;
  std::vector<std::vector<uint8_t>> encoded;
  encoded.reserve(lists.size());

  const auto t0 = std::chrono::steady_clock::now();
  for (const auto& l : lists) {
    encoded.push_back(index::codec::EncodePostings(l));
    postings += l.size();
    raw += index::codec::RawBytes(l);
    encoded_bytes += encoded.back().size();
  }
  const auto t1 = std::chrono::steady_clock::now();
  size_t decoded_postings = 0;
  for (const auto& buf : encoded) {
    index::PostingList out;
    if (index::codec::DecodePostings(buf, &out).ok()) {
      decoded_postings += out.size();
    }
  }
  const auto t2 = std::chrono::steady_clock::now();
  const double encode_s = std::chrono::duration<double>(t1 - t0).count();
  const double decode_s = std::chrono::duration<double>(t2 - t1).count();
  const double raw_mb = static_cast<double>(raw) / (1024.0 * 1024.0);

  report.AddRow()
      .Str("corpus", "dblp")
      .Num("corpus_kb", static_cast<double>(corpus_kb))
      .Num("term_lists", static_cast<double>(lists.size()))
      .Num("postings", static_cast<double>(postings))
      .Num("decoded_postings", static_cast<double>(decoded_postings))
      .Num("raw_mb", raw_mb)
      .Num("encoded_mb",
           static_cast<double>(encoded_bytes) / (1024.0 * 1024.0))
      .Num("ratio", encoded_bytes > 0
                        ? static_cast<double>(raw) /
                              static_cast<double>(encoded_bytes)
                        : 0.0)
      .Num("encode_mb_per_s", encode_s > 0 ? raw_mb / encode_s : 0.0)
      .Num("decode_mb_per_s", decode_s > 0 ? raw_mb / decode_s : 0.0);
  report.Write();
}

/// Emits BENCH_twig.json: wall-clock throughput of the twig-join kernel
/// phases (semi-join prune, match enumeration, block-wise streaming) on
/// the DBLP mix (validated by tools/check_bench_json.py in CI).
void EmitTwigReport() {
  bench::BenchReport report(
      "twig", "twig join kernel phase throughput on the DBLP mix");
  const size_t corpus_kb = bench::QuickMode() ? 128 : 1024;
  auto pattern = query::ParsePattern("//article//author").take();
  const auto streams = TwigStreams(pattern, corpus_kb << 10);
  size_t postings = 0;
  for (const auto& s : streams) postings += s.size();
  auto docs = PerDocCandidates(streams);
  const size_t doc_count = docs.size();

  // Prune phase: copies are part of the measured cost in BM_TwigJoinPrune
  // but excluded here — pre-copy, then time the kernel alone.
  auto prune_input = docs;
  const auto t0 = std::chrono::steady_clock::now();
  size_t matched = 0;
  for (auto& d : prune_input) {
    if (query::internal::PruneCandidates(pattern, d)) ++matched;
  }
  const auto t1 = std::chrono::steady_clock::now();

  // Enumeration over the pruned survivors.
  std::vector<query::Answer> answers;
  size_t enumerated = 0;
  const auto t2 = std::chrono::steady_clock::now();
  for (size_t i = 0; i < prune_input.size(); ++i) {
    const auto& cands = prune_input[i];
    index::DocId doc{};
    bool any = false;
    for (const auto& c : cands) {
      if (!c.empty()) {
        doc = c.front().doc_id();
        any = true;
        break;
      }
    }
    if (!any) continue;
    enumerated += query::internal::EnumerateMatches(pattern, doc, cands,
                                                    1 << 20, answers);
  }
  const auto t3 = std::chrono::steady_clock::now();

  // End-to-end streaming join fed in 256-posting blocks (moved in).
  std::vector<std::vector<index::PostingList>> blocks(streams.size());
  for (size_t q = 0; q < streams.size(); ++q) {
    for (size_t i = 0; i < streams[q].size(); i += 256) {
      const size_t end = std::min(i + 256, streams[q].size());
      blocks[q].emplace_back(streams[q].begin() + i, streams[q].begin() + end);
    }
  }
  const auto t4 = std::chrono::steady_clock::now();
  query::TwigJoin join(pattern);
  for (size_t q = 0; q < blocks.size(); ++q) {
    for (auto& b : blocks[q]) {
      join.Append(q, std::move(b));
      join.Advance();
    }
    join.Close(q);
  }
  join.Advance();
  const auto t5 = std::chrono::steady_clock::now();

  const double prune_s = std::chrono::duration<double>(t1 - t0).count();
  const double enum_s = std::chrono::duration<double>(t3 - t2).count();
  const double stream_s = std::chrono::duration<double>(t5 - t4).count();
  const double postings_d = static_cast<double>(postings);
  report.AddRow()
      .Str("corpus", "dblp")
      .Str("pattern", "//article//author")
      .Num("corpus_kb", static_cast<double>(corpus_kb))
      .Num("postings", postings_d)
      .Num("documents", static_cast<double>(doc_count))
      .Num("matched_docs", static_cast<double>(matched))
      .Num("answers", static_cast<double>(enumerated))
      .Num("prune_mpostings_per_s",
           prune_s > 0 ? postings_d / prune_s / 1e6 : 0.0)
      .Num("enumerate_manswers_per_s",
           enum_s > 0 ? static_cast<double>(enumerated) / enum_s / 1e6 : 0.0)
      .Num("stream_join_mpostings_per_s",
           stream_s > 0 ? postings_d / stream_s / 1e6 : 0.0)
      .Num("stream_join_answers", static_cast<double>(join.answers().size()));
  report.Write();
}

}  // namespace
}  // namespace kadop

int main(int argc, char** argv) {
  // Micro benches measure real throughput; opt into the wall-clock
  // profiling timers so codec.encode_ns/decode_ns move. Deterministic
  // harnesses never set this, and BENCH_*.json records it via buildinfo.
  kadop::obs::SetWallClockProfiling(true);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  kadop::EmitCodecReport();
  kadop::EmitTwigReport();
  return 0;
}
