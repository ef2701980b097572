// Wire-size accounting tests: every payload must report a plausible
// SizeBytes that scales with its content — the traffic meter and all
// bandwidth charging depend on it.

#include <gtest/gtest.h>

#include "core/kadop.h"
#include "dht/messages.h"
#include "index/codec.h"
#include "index/dpp_messages.h"
#include "query/messages.h"

namespace kadop {
namespace {

index::PostingList MakePostings(size_t n) {
  index::PostingList out;
  for (uint32_t i = 0; i < n; ++i) {
    out.push_back(index::Posting{0, i, {1, 2, 1}});
  }
  return out;
}

TEST(MessagesTest, PostingBearingPayloadsScaleWithContent) {
  dht::AppendRequest small;
  small.key = "l:a";
  small.postings = MakePostings(10);
  dht::AppendRequest big = small;
  big.postings = MakePostings(1000);
  EXPECT_GT(big.SizeBytes(), small.SizeBytes());
  EXPECT_GE(big.SizeBytes(), index::codec::EncodedBytes(big.postings));

  dht::GetBlock block;
  block.postings = MakePostings(100);
  EXPECT_GE(block.SizeBytes(), index::codec::EncodedBytes(block.postings));

  index::DppStoreBlock store_block;
  store_block.block_key = "ovf:1:l:a";
  store_block.postings = MakePostings(50);
  EXPECT_GE(store_block.SizeBytes(),
            index::codec::EncodedBytes(store_block.postings));

  query::ReducedListMessage reduced;
  reduced.postings = MakePostings(7);
  EXPECT_GE(reduced.SizeBytes(),
            index::codec::EncodedBytes(reduced.postings));
  // The completeness flag rides in the fixed header: no extra bytes.
  query::ReducedListMessage short_list;
  short_list.postings = MakePostings(7);
  short_list.complete = false;
  EXPECT_EQ(short_list.SizeBytes(), reduced.SizeBytes());
}

TEST(MessagesTest, DocTypesAreCharged) {
  dht::AppendRequest req;
  req.key = "l:a";
  const size_t before = req.SizeBytes();
  req.doc_types = {"dblp", "imdb", "site"};
  EXPECT_GT(req.SizeBytes(), before + 10);
}

TEST(MessagesTest, RouteEnvelopeWrapsInnerSize) {
  auto inner = std::make_shared<dht::AppendRequest>();
  inner->key = "l:a";
  inner->postings = MakePostings(20);
  dht::RouteEnvelope env;
  env.inner = inner;
  EXPECT_GT(env.SizeBytes(), inner->SizeBytes());
  dht::RouteEnvelope empty;
  EXPECT_GT(empty.SizeBytes(), 0u);
}

TEST(MessagesTest, ControlPayloadsAreSmall) {
  EXPECT_LT(dht::LocateRequest().SizeBytes(), 64u);
  EXPECT_LT(dht::LocateResponse().SizeBytes(), 64u);
  EXPECT_LT(dht::AppendAck().SizeBytes(), 64u);
  EXPECT_LT(index::DppAppendDone().SizeBytes(), 64u);
  EXPECT_LT(index::DppDeleteDone().SizeBytes(), 64u);
  EXPECT_LT(index::DppDirResponse().SizeBytes(), 64u);
}

TEST(MessagesTest, FilterMessagesChargeTheBloomVector) {
  bloom::StructuralFilterParams params;
  params.levels = 12;
  auto abf = std::make_shared<bloom::AncestorBloomFilter>(
      bloom::AncestorBloomFilter::Build(MakePostings(5000), params));
  query::AbfMessage msg;
  msg.filter = abf;
  EXPECT_GE(msg.SizeBytes(), abf->SizeBytes());
  EXPECT_GT(abf->SizeBytes(), 500u);

  query::AbfMessage empty;
  EXPECT_LT(empty.SizeBytes(), 64u);
}

TEST(MessagesTest, ReducePlanScalesWithNodes) {
  query::ReducePlan plan;
  for (int i = 0; i < 5; ++i) {
    query::ReducePlanNode node;
    node.node = i;
    node.term_key = "l:term" + std::to_string(i);
    plan.nodes.push_back(node);
  }
  query::ReduceStart start;
  start.plan = plan;
  EXPECT_GT(start.SizeBytes(), 5 * 8u);
}

TEST(MessagesTest, DirResponseChargesConditionsAndTypes) {
  index::DppDirResponse resp;
  index::DppBlockInfo info;
  info.key = "ovf:1:l:author";
  info.types = {"dblp"};
  resp.blocks.assign(10, info);
  EXPECT_GE(resp.SizeBytes(), 10 * (info.key.size() + 36));
}

TEST(MessagesTest, DirectoryEntryAndReducePlanPinTheirSizes) {
  // A directory entry: key, the condition's two raw bounds, the count and
  // the 4-byte holder (charged whether or not a holder is named), plus
  // each type name with its terminator.
  index::DppBlockInfo info;
  info.key = "ovf:1:l:author";
  const size_t fixed = info.key.size() + index::codec::RawBytes(2);
  EXPECT_EQ(info.WireBytes(), fixed + 12);
  info.holder = 3;
  EXPECT_EQ(info.WireBytes(), fixed + 12);
  info.types = {"dblp"};
  EXPECT_EQ(info.WireBytes(), fixed + 12 + 5);

  // A reduce plan: a 32-byte header plus, per node, its term key and 20
  // bytes of ids, links and owner.
  query::ReducePlan plan;
  EXPECT_EQ(plan.WireBytes(), 32u);
  query::ReducePlanNode node;
  node.term_key = "l:author";
  plan.nodes.push_back(node);
  node.owner = 7;
  plan.nodes.push_back(node);
  EXPECT_EQ(plan.WireBytes(), 32u + 2 * (node.term_key.size() + 20));
}

TEST(MessagesTest, HandoffMessageChargesAllParts) {
  core::HandoffMessage msg;
  msg.key = "l:a";
  const size_t base = msg.SizeBytes();
  msg.postings = MakePostings(100);
  const size_t with_postings = msg.SizeBytes();
  // `base` already charged the empty list's one-byte count varint.
  EXPECT_EQ(with_postings, base - index::codec::EncodedBytes({}) +
                               index::codec::EncodedBytes(msg.postings));
  msg.blob = std::string(500, 'x');
  EXPECT_GE(msg.SizeBytes(), with_postings + 500);
}

TEST(MessagesTest, TypeNamesAreStable) {
  EXPECT_EQ(dht::AppendRequest().TypeName(), "AppendRequest");
  EXPECT_EQ(dht::GetRequest().TypeName(), "GetRequest");
  EXPECT_EQ(index::DppDirRequest().TypeName(), "DppDirRequest");
  EXPECT_EQ(query::ReduceStart().TypeName(), "ReduceStart");
  EXPECT_EQ(core::DocQueryRequest().TypeName(), "DocQueryRequest");
}

}  // namespace
}  // namespace kadop
