// Direct unit tests for the batched publisher: batching behaviour, stats,
// ack accounting, Doc-relation entries and document-type propagation.

#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "dht/dht.h"
#include "dht/ring.h"
#include "index/doc_store.h"
#include "index/publisher.h"
#include "obs/metrics.h"
#include "xml/parser.h"

namespace kadop::index {
namespace {

struct PublisherNet {
  explicit PublisherNet(size_t peers)
      : network(&scheduler), dht(&scheduler, &network, {}) {
    dht.AddPeers(peers);
  }
  sim::Scheduler scheduler;
  sim::Network network;
  dht::Dht dht;
};

xml::Document MustParseDoc(const std::string& text, std::string uri = "") {
  auto result = xml::ParseDocument(text, std::move(uri));
  EXPECT_TRUE(result.ok());
  return result.take();
}

TEST(PublisherTest, StatsCountDocumentsPostingsBatches) {
  PublisherNet net(4);
  DocStore store;
  PublishOptions options;
  options.batch_postings = 4;
  Publisher publisher(net.dht.peer(0), &store, options);

  auto d1 = MustParseDoc("<a><b>one two</b></a>", "u1");
  auto d2 = MustParseDoc("<a><c>three</c></a>", "u2");
  const obs::MetricsSnapshot base = obs::MetricRegistry::Default().Snapshot();
  bool done = false;
  publisher.Publish({&d1, &d2}, [&] { done = true; });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(done);
  const obs::MetricsSnapshot d =
      obs::MetricRegistry::Default().Snapshot().DiffSince(base);
  EXPECT_EQ(d.CounterValue("publish.documents"), 2u);
  // d1: a, b, one, two; d2: a, c, three.
  EXPECT_EQ(d.CounterValue("publish.postings"), 7u);
  EXPECT_GE(d.CounterValue("publish.batches"), 5u);  // one per term key
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.Get(0), &d1);
  EXPECT_EQ(store.Get(1), &d2);
}

TEST(PublisherTest, BatchBoundaryFlushesEagerly) {
  PublisherNet net(4);
  DocStore store;
  PublishOptions options;
  options.batch_postings = 2;
  Publisher publisher(net.dht.peer(1), &store, options);
  // Five 'x' elements across docs: the x key must flush in >= 2 batches.
  auto d = MustParseDoc("<r><x/><x/><x/><x/><x/></r>");
  bool done = false;
  publisher.Publish({&d}, [&] { done = true; });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(done);
  std::optional<dht::GetResult> got;
  net.dht.peer(0)->Get("l:x", [&](dht::GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->postings.size(), 5u);
}

TEST(PublisherTest, EmptyPublishCompletesImmediately) {
  PublisherNet net(2);
  DocStore store;
  Publisher publisher(net.dht.peer(0), &store, {});
  bool done = false;
  publisher.Publish({}, [&] { done = true; });
  EXPECT_TRUE(done);  // synchronous: nothing to ack
}

TEST(PublisherTest, DocRelationBlobRecorded) {
  PublisherNet net(4);
  DocStore store;
  Publisher publisher(net.dht.peer(2), &store, {});
  auto d = MustParseDoc("<a/>", "kadop://docs/alpha.xml");
  publisher.Publish({&d}, nullptr);
  net.scheduler.RunUntilIdle();
  std::optional<std::string> blob;
  net.dht.peer(0)->GetBlob("doc:2:0", [&](Result<std::string> b) {
    if (b.ok()) blob = b.value();
  });
  net.scheduler.RunUntilIdle();
  ASSERT_TRUE(blob.has_value());
  EXPECT_EQ(*blob, "kadop://docs/alpha.xml");
}

TEST(PublisherTest, SequentialPublishesAssignIncreasingSeqs) {
  PublisherNet net(2);
  DocStore store;
  Publisher publisher(net.dht.peer(0), &store, {});
  auto d1 = MustParseDoc("<a/>");
  auto d2 = MustParseDoc("<b/>");
  publisher.Publish({&d1}, nullptr);
  net.scheduler.RunUntilIdle();
  publisher.Publish({&d2}, nullptr);
  net.scheduler.RunUntilIdle();
  EXPECT_EQ(store.Get(0), &d1);
  EXPECT_EQ(store.Get(1), &d2);
  std::optional<dht::GetResult> got;
  net.dht.peer(1)->Get("l:b", [&](dht::GetResult r) { got = std::move(r); });
  net.scheduler.RunUntilIdle();
  ASSERT_EQ(got->postings.size(), 1u);
  EXPECT_EQ(got->postings[0].doc, 1u);
}

TEST(PublisherTest, UnpublishDeletesEveryTermOfTheDocument) {
  PublisherNet net(4);
  DocStore store;
  Publisher publisher(net.dht.peer(0), &store, {});
  auto d1 = MustParseDoc("<a><b>word</b></a>");
  auto d2 = MustParseDoc("<a><b>word</b></a>");
  publisher.Publish({&d1, &d2}, nullptr);
  net.scheduler.RunUntilIdle();

  ASSERT_TRUE(publisher.Unpublish(0));
  net.scheduler.RunUntilIdle();
  for (const char* key : {"l:a", "l:b", "w:word"}) {
    std::optional<dht::GetResult> got;
    net.dht.peer(1)->Get(key, [&](dht::GetResult r) { got = std::move(r); });
    net.scheduler.RunUntilIdle();
    ASSERT_TRUE(got.has_value()) << key;
    ASSERT_EQ(got->postings.size(), 1u) << key;
    EXPECT_EQ(got->postings[0].doc, 1u) << key;
  }
  EXPECT_EQ(store.Get(0), nullptr);
  EXPECT_FALSE(publisher.Unpublish(0));  // already gone
}

TEST(PublisherTest, AppendsCarryDocumentTypes) {
  PublisherNet net(4);
  DocStore store;
  Publisher publisher(net.dht.peer(0), &store, {});
  auto d1 = MustParseDoc("<dblp><title/></dblp>");
  auto d2 = MustParseDoc("<imdb><title/></imdb>");
  // Install a sniffing interceptor at the owner of l:title.
  const auto owner = net.dht.OwnerOf(dht::HashKey("l:title"));
  std::set<std::string> seen_types;
  net.dht.peer(owner)->SetAppendInterceptor(
      [&seen_types](const dht::AppendRequest& request,
                    const PostingList& /*postings*/) {
        if (request.key == "l:title") {
          seen_types.insert(request.doc_types.begin(),
                            request.doc_types.end());
        }
        return false;  // let the default path store it
      });
  publisher.Publish({&d1, &d2}, nullptr);
  net.scheduler.RunUntilIdle();
  EXPECT_EQ(seen_types, (std::set<std::string>{"dblp", "imdb"}));
}

}  // namespace
}  // namespace kadop::index
