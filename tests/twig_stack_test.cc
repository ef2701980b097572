#include <gtest/gtest.h>

#include <algorithm>

#include "index/terms.h"
#include "query/twig_join.h"
#include "twig_stack.h"
#include "xml/corpus.h"
#include "xml/parser.h"

namespace kadop::query {
namespace {

using index::Posting;
using index::PostingList;

TreePattern MustParse(const char* expr) {
  auto result = ParsePattern(expr);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.take();
}

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

std::vector<Answer> Sorted(std::vector<Answer> v) {
  std::sort(v.begin(), v.end(), [](const Answer& a, const Answer& b) {
    if (a.doc != b.doc) return a.doc < b.doc;
    return a.elements < b.elements;
  });
  return v;
}

std::vector<Answer> RunReference(const TreePattern& pattern,
                                 const std::vector<PostingList>& streams) {
  TwigJoin join(pattern);
  for (size_t q = 0; q < pattern.size(); ++q) {
    join.Append(q, streams[q]);
    join.Close(q);
  }
  join.Advance();
  return join.answers();
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

TEST(TwigStackTest, SimplePath) {
  auto docs = ParseDocs({"<a><b><c/></b></a>", "<a><c/></a>"});
  TreePattern pattern = MustParse("//a//b//c");
  auto streams = StreamsFor(pattern, docs);
  TwigStackJoin stack(pattern);
  auto answers = stack.Run(streams);
  EXPECT_EQ(Sorted(answers), Sorted(RunReference(pattern, streams)));
  EXPECT_EQ(answers.size(), 1u);
}

TEST(TwigStackTest, SkipsUselessElements) {
  // Many 'b's without 'c' below them must be skipped, not stacked.
  auto docs = ParseDocs({
      "<a><b/><b/><b/><b/><b/><b><c/></b></a>",
  });
  TreePattern pattern = MustParse("//a//b//c");
  auto streams = StreamsFor(pattern, docs);
  TwigStackJoin stack(pattern);
  auto answers = stack.Run(streams);
  ASSERT_EQ(answers.size(), 1u);
  // Only one of the six b's participates; the rest are skipped by getNext.
  EXPECT_GE(stack.stats().skipped, 5u);
  EXPECT_LE(stack.stats().pushed, 3u);
}

TEST(TwigStackTest, BranchingTwig) {
  auto docs = ParseDocs({
      "<a><b/><c/></a>",
      "<a><b/></a>",
      "<a><c/></a>",
      "<r><a><x><b/></x><y><c/></y></a></r>",
  });
  TreePattern pattern = MustParse("//a[//b]//c");
  auto streams = StreamsFor(pattern, docs);
  TwigStackJoin stack(pattern);
  EXPECT_EQ(Sorted(stack.Run(streams)),
            Sorted(RunReference(pattern, streams)));
}

TEST(TwigStackTest, ExhaustedBranchDrainsParent) {
  // 'd' never occurs after doc 0; the a-stream must drain without
  // looping, and earlier matches must survive.
  auto docs = ParseDocs({
      "<a><b/><d/></a>",
      "<a><b/></a>",
      "<a><b/></a>",
  });
  TreePattern pattern = MustParse("//a[//b]//d");
  auto streams = StreamsFor(pattern, docs);
  TwigStackJoin stack(pattern);
  auto answers = stack.Run(streams);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].doc, (index::DocId{0, 0}));
}

TEST(TwigStackTest, WordPseudoNodesWithEqualIntervals) {
  auto docs = ParseDocs({
      "<article><author>Jeff Ullman</author></article>",
      "<article><author>Someone Else</author></article>",
  });
  TreePattern pattern = MustParse("//article//author[. contains 'Ullman']");
  auto streams = StreamsFor(pattern, docs);
  TwigStackJoin stack(pattern);
  auto answers = stack.Run(streams);
  EXPECT_EQ(Sorted(answers), Sorted(RunReference(pattern, streams)));
  ASSERT_EQ(answers.size(), 1u);
}

TEST(TwigStackTest, ChildAxisEnforcedAtMerge) {
  auto docs = ParseDocs({"<a><b/></a>", "<a><x><b/></x></a>"});
  TreePattern pattern = MustParse("//a/b");
  auto streams = StreamsFor(pattern, docs);
  TwigStackJoin stack(pattern);
  auto answers = stack.Run(streams);
  ASSERT_EQ(answers.size(), 1u);
  EXPECT_EQ(answers[0].doc, (index::DocId{0, 0}));
}

TEST(TwigStackTest, AnswerCap) {
  auto docs = ParseDocs({"<a><b/><b/><b/><b/></a>"});
  TreePattern pattern = MustParse("//a//b");
  auto streams = StreamsFor(pattern, docs);
  TwigStackJoin stack(pattern);
  EXPECT_EQ(stack.Run(streams, 2).size(), 2u);
}

TEST(TwigStackTest, EmptyStreams) {
  TreePattern pattern = MustParse("//a//b");
  TwigStackJoin stack(pattern);
  EXPECT_TRUE(stack.Run({{}, {}}).empty());
}

class TwigStackCorpusTest : public ::testing::TestWithParam<const char*> {};

TEST_P(TwigStackCorpusTest, MatchesDocumentAtATimeKernel) {
  xml::corpus::DblpOptions opt;
  opt.target_bytes = 150 << 10;
  auto docs = xml::corpus::GenerateDblp(opt);
  TreePattern pattern = MustParse(GetParam());
  auto streams = StreamsFor(pattern, docs);
  TwigStackJoin stack(pattern);
  EXPECT_EQ(Sorted(stack.Run(streams)),
            Sorted(RunReference(pattern, streams)))
      << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    Queries, TwigStackCorpusTest,
    ::testing::Values("//article//author",
                      "//article//author[. contains 'Ullman']",
                      "//article[//journal]//year",
                      "//dblp//article/title",
                      "//inproceedings[//booktitle][//year]//title",
                      "//article[contains(.//title,'system')]//author"));

TEST(TwigStackCorpusStats, SkipsDominateOnSelectiveQueries) {
  xml::corpus::DblpOptions opt;
  opt.target_bytes = 150 << 10;
  auto docs = xml::corpus::GenerateDblp(opt);
  // 'ullman' is rare: most author elements cannot extend to a match and
  // must be skipped without stacking (the TwigStack optimality property
  // for //-only twigs).
  TreePattern pattern = MustParse("//article//author//\"ullman\"");
  auto streams = StreamsFor(pattern, docs);
  TwigStackJoin stack(pattern);
  auto answers = stack.Run(streams);
  EXPECT_FALSE(answers.empty());
  EXPECT_GT(stack.stats().skipped, 5 * stack.stats().pushed);
}

}  // namespace
}  // namespace kadop::query
