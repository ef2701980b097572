#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "index/terms.h"
#include "query/local_eval.h"
#include "query/tree_pattern.h"
#include "query/twig_join.h"
#include "xml/corpus.h"
#include "xml/parser.h"

namespace kadop::query {
namespace {

using index::DocId;
using index::Posting;
using index::PostingList;

TreePattern MustParse(const char* expr) {
  auto result = ParsePattern(expr);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.take();
}

/// Extracts per-pattern-node candidate streams from documents via the
/// indexing pipeline (ExtractTerms), i.e. exactly what the distributed
/// engine would fetch.
std::vector<PostingList> StreamsFor(const TreePattern& pattern,
                                    const std::vector<xml::Document>& docs) {
  std::vector<PostingList> streams(pattern.size());
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

std::vector<Answer> GroundTruth(const TreePattern& pattern,
                                const std::vector<xml::Document>& docs) {
  std::vector<Answer> all;
  for (size_t d = 0; d < docs.size(); ++d) {
    auto answers = EvaluateOnDocument(pattern, docs[d],
                                      DocId{0, static_cast<uint32_t>(d)});
    all.insert(all.end(), answers.begin(), answers.end());
  }
  return all;
}

std::vector<xml::Document> ParseDocs(
    const std::vector<const char*>& xml_texts) {
  std::vector<xml::Document> docs;
  for (const char* text : xml_texts) {
    auto doc = xml::ParseDocument(text);
    EXPECT_TRUE(doc.ok());
    docs.push_back(doc.take());
  }
  return docs;
}

TEST(TwigJoinTest, SimplePathMatch) {
  auto docs = ParseDocs({"<a><b><c/></b></a>", "<a><c/></a>", "<b><c/></b>"});
  TreePattern pattern = MustParse("//a//b//c");
  auto streams = StreamsFor(pattern, docs);
  TwigJoin join(pattern);
  for (size_t q = 0; q < pattern.size(); ++q) {
    join.Append(q, streams[q]);
    join.Close(q);
  }
  join.Advance();
  ASSERT_EQ(join.answers().size(), 1u);
  EXPECT_EQ(join.answers()[0].doc, (DocId{0, 0}));
  EXPECT_EQ(join.matched_docs().size(), 1u);
  EXPECT_TRUE(join.Done());
}

TEST(TwigJoinTest, ChildAxisIsLevelExact) {
  auto docs = ParseDocs({"<a><b/></a>", "<a><x><b/></x></a>"});
  TreePattern pattern = MustParse("//a/b");
  auto streams = StreamsFor(pattern, docs);
  TwigJoin join(pattern);
  for (size_t q = 0; q < pattern.size(); ++q) {
    join.Append(q, streams[q]);
    join.Close(q);
  }
  join.Advance();
  ASSERT_EQ(join.answers().size(), 1u);
  EXPECT_EQ(join.answers()[0].doc, (DocId{0, 0}));
}

TEST(TwigJoinTest, BranchingTwig) {
  auto docs = ParseDocs({
      "<a><b/><c/></a>",      // match
      "<a><b/></a>",          // no c
      "<a><c/></a>",          // no b
      "<x><a><d><b/></d><e><c/></e></a></x>",  // match (descendant)
  });
  TreePattern pattern = MustParse("//a[//b]//c");
  auto streams = StreamsFor(pattern, docs);
  TwigJoin join(pattern);
  for (size_t q = 0; q < pattern.size(); ++q) {
    join.Append(q, streams[q]);
    join.Close(q);
  }
  join.Advance();
  ASSERT_EQ(join.matched_docs().size(), 2u);
  EXPECT_EQ(join.matched_docs()[0], (DocId{0, 0}));
  EXPECT_EQ(join.matched_docs()[1], (DocId{0, 3}));
}

TEST(TwigJoinTest, WordPredicate) {
  auto docs = ParseDocs({
      "<article><author>Jeff Ullman</author></article>",
      "<article><author>Someone Else</author></article>",
      "<article><note>Ullman elsewhere</note></article>",
  });
  TreePattern pattern = MustParse("//article//author[. contains 'Ullman']");
  auto streams = StreamsFor(pattern, docs);
  TwigJoin join(pattern);
  for (size_t q = 0; q < pattern.size(); ++q) {
    join.Append(q, streams[q]);
    join.Close(q);
  }
  join.Advance();
  ASSERT_EQ(join.answers().size(), 1u);
  EXPECT_EQ(join.answers()[0].doc, (DocId{0, 0}));
}

TEST(TwigJoinTest, MultipleMatchesEnumerateCrossProduct) {
  auto docs = ParseDocs({"<a><b/><b/><c/><c/></a>"});
  TreePattern pattern = MustParse("//a[//b]//c");
  auto streams = StreamsFor(pattern, docs);
  TwigJoin join(pattern);
  for (size_t q = 0; q < pattern.size(); ++q) {
    join.Append(q, streams[q]);
    join.Close(q);
  }
  join.Advance();
  // 1 a x 2 b x 2 c = 4 answer tuples.
  EXPECT_EQ(join.answers().size(), 4u);
  EXPECT_EQ(join.matched_docs().size(), 1u);
}

TEST(TwigJoinTest, AnswerCapStopsEnumeration) {
  auto docs = ParseDocs({"<a><b/><b/><b/><b/><b/></a>"});
  TreePattern pattern = MustParse("//a//b");
  auto streams = StreamsFor(pattern, docs);
  TwigJoin join(pattern, /*max_answers=*/3);
  for (size_t q = 0; q < pattern.size(); ++q) {
    join.Append(q, streams[q]);
    join.Close(q);
  }
  join.Advance();
  EXPECT_EQ(join.answers().size(), 3u);
}

TEST(TwigJoinTest, StreamingEmitsAnswersBeforeAllInput) {
  auto docs = ParseDocs({"<a><b/></a>", "<a><b/></a>", "<a><b/></a>"});
  TreePattern pattern = MustParse("//a//b");
  auto streams = StreamsFor(pattern, docs);

  TwigJoin join(pattern);
  // Feed only document 0 and the start of document 1.
  for (size_t q = 0; q < pattern.size(); ++q) {
    PostingList first_two;
    for (const Posting& p : streams[q]) {
      if (p.doc <= 1) first_two.push_back(p);
    }
    join.Append(q, first_two);
  }
  size_t produced = join.Advance();
  // Document 0 is provably complete (doc 1 postings buffered beyond it).
  EXPECT_EQ(produced, 1u);
  EXPECT_FALSE(join.Done());
  // Now the rest arrives.
  for (size_t q = 0; q < pattern.size(); ++q) {
    PostingList rest;
    for (const Posting& p : streams[q]) {
      if (p.doc > 1) rest.push_back(p);
    }
    join.Append(q, rest);
    join.Close(q);
  }
  produced = join.Advance();
  EXPECT_EQ(produced, 2u);
  EXPECT_TRUE(join.Done());
  EXPECT_EQ(join.postings_consumed(), 6u);
}

TEST(TwigJoinTest, IncompleteStreamsAfterCloseAllStillJoinSafely) {
  auto docs = ParseDocs({"<a><b/></a>"});
  TreePattern pattern = MustParse("//a//b");
  auto streams = StreamsFor(pattern, docs);
  TwigJoin join(pattern);
  join.Append(0, streams[0]);
  // Stream 1 never delivers (timeout); CloseAll yields no spurious answers.
  join.CloseAll();
  join.Advance();
  EXPECT_TRUE(join.answers().empty());
  EXPECT_TRUE(join.Done());
}

/// Matching //a//b streams over `docs` documents, `per_doc` descendants
/// each, plus decoy documents holding only one side (which cannot join).
std::vector<PostingList> RandomAncestorDescendantStreams(
    std::mt19937_64& rng, uint32_t docs, uint32_t per_doc) {
  std::vector<PostingList> streams(2);
  std::uniform_int_distribution<int> shape_d(0, 2);
  for (uint32_t d = 0; d < docs; ++d) {
    const int shape = shape_d(rng);
    if (shape != 2) streams[0].push_back(Posting{0, d, {1, 1000, 1}});
    if (shape == 1) continue;  // ancestor without descendants
    for (uint32_t i = 0; i < per_doc; ++i) {
      streams[1].push_back(Posting{0, d, {10 + i, 10 + i, 3}});
    }
  }
  return streams;
}

TEST(TwigJoinTest, BlockBoundariesDoNotChangeTheJoin) {
  const TreePattern pattern = MustParse("//a//b");
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    std::mt19937_64 rng(seed);
    const auto streams = RandomAncestorDescendantStreams(rng, 150, 3);

    TwigJoin whole(pattern);
    for (size_t q = 0; q < streams.size(); ++q) whole.Append(q, streams[q]);
    whole.CloseAll();
    whole.Advance();
    ASSERT_GT(whole.answers().size(), 0u);

    // The same streams cut into random-size blocks (often mid-document),
    // fed in a random interleaving of the two nodes, with the join
    // advancing after every block.
    TwigJoin blocked(pattern);
    std::vector<size_t> fed(streams.size(), 0);
    std::uniform_int_distribution<size_t> len_d(1, 7);
    std::uniform_int_distribution<int> coin(0, 1);
    for (;;) {
      std::vector<size_t> open;
      for (size_t q = 0; q < streams.size(); ++q) {
        if (fed[q] < streams[q].size()) open.push_back(q);
      }
      if (open.empty()) break;
      const size_t q = open[static_cast<size_t>(coin(rng)) % open.size()];
      const size_t len = std::min(len_d(rng), streams[q].size() - fed[q]);
      PostingList block(streams[q].begin() + static_cast<long>(fed[q]),
                        streams[q].begin() + static_cast<long>(fed[q] + len));
      fed[q] += len;
      blocked.Append(q, std::move(block));
      if (fed[q] == streams[q].size()) blocked.Close(q);
      blocked.Advance();
    }
    EXPECT_TRUE(blocked.Done());

    EXPECT_EQ(blocked.answers(), whole.answers()) << "seed " << seed;
    EXPECT_EQ(blocked.matched_docs(), whole.matched_docs()) << "seed " << seed;
    EXPECT_EQ(blocked.postings_consumed(), whole.postings_consumed());
    EXPECT_EQ(whole.postings_consumed(),
              streams[0].size() + streams[1].size());
  }
}

TEST(TwigJoinTest, LeapfrogDropsUnmatchablePostingsButCountsThem) {
  // The selective stream has one document; the 900 postings of the other
  // stream below it are dropped by the document leapfrog, block by block,
  // and still count as consumed.
  const TreePattern pattern = MustParse("//a//b");
  TwigJoin join(pattern);
  join.Append(0, PostingList{Posting{0, 950, {1, 1000, 1}}});
  for (uint32_t b = 0; b < 9; ++b) {
    PostingList block;
    for (uint32_t d = 0; d < 100; ++d) {
      block.push_back(Posting{0, b * 100 + d, {10, 10, 3}});
    }
    join.Append(1, std::move(block));
  }
  join.Append(1, PostingList{Posting{0, 950, {10, 10, 3}}});
  join.CloseAll();
  join.Advance();
  ASSERT_EQ(join.answers().size(), 1u);
  EXPECT_EQ(join.answers()[0].doc, (DocId{0, 950}));
  EXPECT_EQ(join.matched_docs(), (std::vector<DocId>{DocId{0, 950}}));
  EXPECT_EQ(join.postings_consumed(), 902u);
  EXPECT_TRUE(join.Done());
}

class TwigJoinCorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TwigJoinCorpusTest, MatchesLocalEvaluationOnDblpCorpus) {
  xml::corpus::DblpOptions opt;
  opt.target_bytes = 120 << 10;
  auto docs = xml::corpus::GenerateDblp(opt);
  TreePattern pattern = MustParse(GetParam());
  auto streams = StreamsFor(pattern, docs);
  TwigJoin join(pattern);
  for (size_t q = 0; q < pattern.size(); ++q) {
    join.Append(q, streams[q]);
    join.Close(q);
  }
  join.Advance();

  std::vector<Answer> expected = GroundTruth(pattern, docs);
  auto sorted = [](std::vector<Answer> v) {
    std::sort(v.begin(), v.end(), [](const Answer& a, const Answer& b) {
      if (a.doc != b.doc) return a.doc < b.doc;
      return a.elements < b.elements;
    });
    return v;
  };
  EXPECT_EQ(sorted(join.answers()), sorted(expected)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Queries, TwigJoinCorpusTest,
    ::testing::Values("//article//author",
                      "//article//author[. contains 'Ullman']",
                      "//inproceedings[//booktitle]//title",
                      "//article[//journal]//year",
                      "//dblp//article/title",
                      "//article[contains(.//title,'system')]"));

}  // namespace
}  // namespace kadop::query
