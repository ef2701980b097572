// Wire-size accounting tests: every payload must report a plausible
// SizeBytes that scales with its content — the traffic meter and all
// bandwidth charging depend on it.

#include <gtest/gtest.h>

#include <type_traits>

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

// A data payload carries its codec stream. These helpers also fill and
// read a field holding the decoded list or answers, so the pinned sizes
// below hold for both layouts: carrying the bytes must not change a size.
template <typename Field>
void PutPostings(Field* field, const index::PostingList& list) {
  if constexpr (std::is_same_v<Field, index::PostingList>) {
    *field = list;
  } else {
    *field = index::codec::EncodePostings(list);
  }
}

template <typename Field>
index::PostingList GotPostings(const Field& field) {
  if constexpr (std::is_same_v<Field, index::PostingList>) {
    return field;
  } else {
    index::PostingList out;
    EXPECT_TRUE(index::codec::DecodePostings(field, &out).ok());
    return out;
  }
}

template <typename Field>
void PutAnswers(Field* field, const std::vector<index::Answer>& answers) {
  if constexpr (std::is_same_v<Field, std::vector<index::Answer>>) {
    *field = answers;
  } else {
    *field = index::codec::EncodeAnswers({}, answers);
  }
}

template <typename Field>
std::vector<index::Answer> GotAnswers(const Field& field, size_t arity) {
  if constexpr (std::is_same_v<Field, std::vector<index::Answer>>) {
    return field;
  } else {
    std::vector<index::DocId> matched;
    std::vector<index::Answer> out;
    EXPECT_TRUE(index::codec::DecodeAnswers(field.data(), field.size(), arity,
                                            &matched, &out)
                    .ok());
    EXPECT_TRUE(matched.empty());
    return out;
  }
}

TEST(MessagesTest, PostingBearingPayloadsScaleWithContent) {
  dht::AppendRequest small;
  small.key = "l:a";
  PutPostings(&small.postings, MakePostings(10));
  dht::AppendRequest big = small;
  PutPostings(&big.postings, MakePostings(1000));
  EXPECT_GT(big.SizeBytes(), small.SizeBytes());
  EXPECT_GE(big.SizeBytes(), index::codec::EncodedBytes(MakePostings(1000)));

  dht::GetBlock block;
  PutPostings(&block.postings, MakePostings(100));
  EXPECT_GE(block.SizeBytes(), index::codec::EncodedBytes(MakePostings(100)));

  index::DppStoreBlock store_block;
  store_block.block_key = "ovf:1:l:a";
  PutPostings(&store_block.postings, MakePostings(50));
  EXPECT_GE(store_block.SizeBytes(),
            index::codec::EncodedBytes(MakePostings(50)));

  query::ReducedListMessage reduced;
  PutPostings(&reduced.postings, MakePostings(7));
  EXPECT_GE(reduced.SizeBytes(), index::codec::EncodedBytes(MakePostings(7)));
  // The completeness flag rides in the fixed header: no extra bytes.
  query::ReducedListMessage short_list;
  PutPostings(&short_list.postings, MakePostings(7));
  short_list.complete = false;
  EXPECT_EQ(short_list.SizeBytes(), reduced.SizeBytes());

  // Exact sizes for one fixed list (100 postings, 302 encoded bytes): the
  // fixed fields plus the stream. Each receiver's decode returns the list.
  const index::PostingList list = MakePostings(100);
  dht::AppendRequest append;
  append.key = "l:a";
  append.doc_types = {"dblp"};
  PutPostings(&append.postings, list);
  EXPECT_EQ(append.SizeBytes(), 318u);
  EXPECT_EQ(GotPostings(append.postings), list);
  append.dedup_id = 9;  // a retry-capable append carries its dedup id
  EXPECT_EQ(append.SizeBytes(), 326u);

  dht::GetBlock get_block;
  PutPostings(&get_block.postings, list);
  EXPECT_EQ(get_block.SizeBytes(), 318u);
  EXPECT_EQ(GotPostings(get_block.postings), list);

  index::DppAppendToBlock to_block;
  to_block.block_key = "ovf:1:l:a";
  PutPostings(&to_block.postings, list);
  EXPECT_EQ(to_block.SizeBytes(), 319u);
  EXPECT_EQ(GotPostings(to_block.postings), list);

  index::DppStoreBlock stored;
  stored.block_key = "ovf:1:l:a";
  PutPostings(&stored.postings, list);
  EXPECT_EQ(stored.SizeBytes(), 319u);
  EXPECT_EQ(GotPostings(stored.postings), list);

  query::ReducedListMessage shipped;
  PutPostings(&shipped.postings, list);
  EXPECT_EQ(shipped.SizeBytes(), 338u);
  EXPECT_EQ(GotPostings(shipped.postings), list);

  core::HandoffMessage handoff;
  handoff.key = "l:a";
  PutPostings(&handoff.postings, list);
  EXPECT_EQ(handoff.SizeBytes(), 321u);
  EXPECT_EQ(GotPostings(handoff.postings), list);
  // A blob's handoff carries the empty list's one-byte stream.
  core::HandoffMessage blob;
  blob.key = "doc:1:2";
  blob.blob = "uri";
  PutPostings(&blob.postings, {});
  EXPECT_EQ(blob.SizeBytes(), 27u);
  EXPECT_TRUE(GotPostings(blob.postings).empty());
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
  PutPostings(&inner->postings, MakePostings(20));
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

  // A phase-2 answer reply: 8 fixed bytes plus the answer stream with no
  // matched docs (two zero counts when empty). Its receiver decodes it
  // with the pattern's arity.
  core::DocQueryResponse none;
  PutAnswers(&none.answers, {});
  EXPECT_EQ(none.SizeBytes(), 10u);
  std::vector<index::Answer> answers;
  for (uint32_t doc = 0; doc < 3; ++doc) {
    for (uint32_t k = 0; k < 4; ++k) {
      answers.push_back(index::Answer{
          index::DocId{2, doc}, {{1, 40, 1}, {2 + 3 * k, 3 + 3 * k, 2}}});
    }
  }
  core::DocQueryResponse reply;
  PutAnswers(&reply.answers, answers);
  EXPECT_EQ(reply.SizeBytes(), 60u);
  EXPECT_EQ(GotAnswers(reply.answers, 2), answers);
}

TEST(MessagesTest, HandoffMessageChargesAllParts) {
  core::HandoffMessage msg;
  msg.key = "l:a";
  PutPostings(&msg.postings, {});
  const size_t base = msg.SizeBytes();
  PutPostings(&msg.postings, MakePostings(100));
  const size_t with_postings = msg.SizeBytes();
  // `base` already charged the empty list's one-byte count varint.
  EXPECT_EQ(with_postings, base - index::codec::EncodedBytes({}) +
                               index::codec::EncodedBytes(MakePostings(100)));
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
