// Seeded property tests for the posting codec (src/index/codec.h): the
// group-delta + varint encoding must round-trip every sorted posting list
// byte-exactly, EncodedBytes must predict the buffer size without
// allocating, encoded size must be monotone in list length, the block
// encoder must emit independently decodable posting-aligned blocks, and
// malformed input must fail with a Corruption status instead of crashing.
// The answer-tuple codec gets the same treatment (AnswerCodecTest).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "index/codec.h"
#include "index/posting.h"

namespace kadop::index {
namespace {

/// Clustered random list in canonical order: few peers, ascending docs,
/// random (but valid, end >= start) SIDs, occasional exact duplicates.
PostingList RandomSortedList(std::mt19937_64& rng, size_t n) {
  PostingList list;
  list.reserve(n);
  std::uniform_int_distribution<uint32_t> peer_d(0, 7);
  std::uniform_int_distribution<uint32_t> doc_d(0, 500);
  std::uniform_int_distribution<uint32_t> start_d(1, 1 << 20);
  std::uniform_int_distribution<uint32_t> width_d(0, 1 << 10);
  std::uniform_int_distribution<uint16_t> level_d(0, 24);
  std::uniform_int_distribution<int> dup_d(0, 9);
  while (list.size() < n) {
    const uint32_t start = start_d(rng);
    Posting p{peer_d(rng), doc_d(rng), {start, start + width_d(rng),
                                        level_d(rng)}};
    list.push_back(p);
    if (dup_d(rng) == 0 && list.size() < n) list.push_back(p);  // duplicate
  }
  std::sort(list.begin(), list.end());
  return list;
}

void ExpectRoundtrip(const PostingList& list) {
  const std::vector<uint8_t> buf = codec::EncodePostings(list);
  EXPECT_EQ(buf.size(), codec::EncodedBytes(list));
  PostingList decoded;
  const Status st = codec::DecodePostings(buf, &decoded);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(decoded, list);
}

TEST(CodecTest, RoundtripRandomSortedLists) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    for (size_t n : {0u, 1u, 2u, 17u, 256u, 1000u}) {
      ExpectRoundtrip(RandomSortedList(rng, n));
    }
  }
}

TEST(CodecTest, RoundtripAdversarialLists) {
  ExpectRoundtrip({});
  ExpectRoundtrip({Posting{0, 0, {0, 0, 0}}});
  const uint32_t u32 = std::numeric_limits<uint32_t>::max();
  const uint16_t u16 = std::numeric_limits<uint16_t>::max();
  ExpectRoundtrip({Posting{u32, u32, {u32, u32, u16}}});
  // A full run of exact duplicates (publish retries can store these).
  ExpectRoundtrip(PostingList(64, Posting{3, 9, {100, 200, 5}}));
  // Same (peer, doc) group with many SIDs, including start == end.
  PostingList group;
  for (uint32_t s = 1; s <= 50; ++s) group.push_back({1, 1, {s, s, 7}});
  ExpectRoundtrip(group);
  // Peer changes with doc resetting to a *smaller* absolute value: the
  // doc field must be encoded absolute, not as an unsigned delta.
  ExpectRoundtrip({Posting{0, 400, {5, 6, 1}}, Posting{1, 2, {5, 6, 1}}});
}

TEST(CodecTest, EncodedSizeIsMonotoneInLength) {
  std::mt19937_64 rng(42);
  const PostingList list = RandomSortedList(rng, 500);
  size_t prev = codec::EncodedBytes({});
  for (size_t n = 1; n <= list.size(); ++n) {
    PostingList prefix(list.begin(), list.begin() + static_cast<long>(n));
    const size_t bytes = codec::EncodedBytes(prefix);
    EXPECT_GT(bytes, prev - 1) << "shrank at length " << n;
    EXPECT_GE(bytes, prev) << "not monotone at length " << n;
    prev = bytes;
  }
}

TEST(CodecTest, CompressionBeatsRawOnClusteredLists) {
  std::mt19937_64 rng(7);
  const PostingList list = RandomSortedList(rng, 2000);
  EXPECT_LT(codec::EncodedBytes(list), codec::RawBytes(list));
  // The fig3 acceptance bar: at least 2x on clustered data.
  EXPECT_LE(2 * codec::EncodedBytes(list), codec::RawBytes(list));
}

TEST(CodecTest, SingleBytesMatchesOneElementStream) {
  std::mt19937_64 rng(9);
  const PostingList list = RandomSortedList(rng, 50);
  for (const Posting& p : list) {
    EXPECT_EQ(codec::EncodedSingleBytes(p), codec::EncodedBytes({p}));
  }
}

TEST(CodecTest, TruncatedInputFailsWithCorruption) {
  std::mt19937_64 rng(3);
  const PostingList list = RandomSortedList(rng, 40);
  const std::vector<uint8_t> buf = codec::EncodePostings(list);
  for (size_t len = 0; len < buf.size(); ++len) {
    PostingList out;
    const Status st = codec::DecodePostings(buf.data(), len, &out);
    EXPECT_FALSE(st.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
  }
}

TEST(CodecTest, TrailingBytesFailWithCorruption) {
  std::vector<uint8_t> buf =
      codec::EncodePostings({Posting{1, 2, {3, 4, 1}}});
  buf.push_back(0);
  PostingList out;
  const Status st = codec::DecodePostings(buf, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
}

TEST(CodecTest, AbsurdCountFailsInsteadOfAllocating) {
  // varint(2^60): a malicious count must be rejected by the plausibility
  // check, not turned into a giant reserve.
  const std::vector<uint8_t> buf{0x80, 0x80, 0x80, 0x80, 0x80,
                                 0x80, 0x80, 0x80, 0x10};
  PostingList out;
  EXPECT_EQ(codec::DecodePostings(buf, &out).code(),
            StatusCode::kCorruption);
}

/// A 10-byte varint whose last byte is `last`: bits 63.. of the value.
std::vector<uint8_t> TenByteVarint(uint8_t last) {
  std::vector<uint8_t> buf(9, 0x80);
  buf.push_back(last);
  return buf;
}

TEST(CodecTest, OverlongVarintFailsWithCorruption) {
  // 0x02 in the 10th byte is bit 64: the value does not fit in 64 bits and
  // must not truncate to 0 (which would decode as a valid empty list).
  const std::vector<uint8_t> overlong = TenByteVarint(0x02);
  PostingList out;
  const Status st = codec::DecodePostings(overlong, &out);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(st.message(), "codec: truncated posting count");

  // 0x01 in the 10th byte is 2^63, a well-formed varint: it parses and is
  // then refused by the count plausibility check instead.
  EXPECT_EQ(codec::DecodePostings(TenByteVarint(0x01), &out).message(),
            "codec: posting count exceeds buffer");
}

TEST(CodecTest, BlockEncoderEmitsAlignedStandaloneBlocks) {
  std::mt19937_64 rng(5);
  const PostingList list = RandomSortedList(rng, 1000);
  codec::BlockEncoder enc(128);
  PostingList reassembled;
  size_t blocks = 0;
  auto drain = [&](codec::BlockEncoder::Block block) {
    ++blocks;
    EXPECT_LE(block.postings.size(), 128u);
    const codec::BlockHeader expected{block.bounds, block.count};
    EXPECT_EQ(block.bytes.size(), codec::BlockHeaderBytes(expected) +
                                      codec::EncodedBytes(block.postings));
    // Posting-aligned: every block decodes standalone.
    codec::BlockHeader header;
    PostingList decoded;
    ASSERT_TRUE(codec::DecodeBlockWithHeader(block.bytes.data(),
                                             block.bytes.size(), &header,
                                             &decoded)
                    .ok());
    EXPECT_EQ(decoded, block.postings);
    reassembled.insert(reassembled.end(), decoded.begin(), decoded.end());
  };
  for (const Posting& p : list) {
    enc.Add(p);
    if (enc.BlockFull()) drain(enc.Flush());
  }
  if (enc.pending() > 0) drain(enc.Flush());
  EXPECT_EQ(reassembled, list);
  EXPECT_EQ(blocks, (list.size() + 127) / 128);
}

// ---------------------------------------------------------------------------
// Block-header framing.

std::vector<codec::BlockEncoder::Block> EncodeBlocks(const PostingList& list,
                                                     size_t per_block) {
  codec::BlockEncoder enc(per_block);
  std::vector<codec::BlockEncoder::Block> blocks;
  for (const Posting& p : list) {
    enc.Add(p);
    if (enc.BlockFull()) blocks.push_back(enc.Flush());
  }
  if (enc.pending() > 0) blocks.push_back(enc.Flush());
  return blocks;
}

TEST(CodecTest, BlockHeaderRoundtripsExactBoundsAndCount) {
  std::mt19937_64 rng(21);
  const PostingList list = RandomSortedList(rng, 700);
  PostingList reassembled;
  for (const auto& block : EncodeBlocks(list, 128)) {
    // The in-memory block mirror carries the exact first/last posting.
    ASSERT_FALSE(block.postings.empty());
    EXPECT_EQ(block.bounds.lo, block.postings.front());
    EXPECT_EQ(block.bounds.hi, block.postings.back());
    EXPECT_EQ(block.count, block.postings.size());

    // The wire framing round-trips header and payload, cross-checked.
    codec::BlockHeader header;
    PostingList decoded;
    ASSERT_TRUE(codec::DecodeBlockWithHeader(block.bytes.data(),
                                             block.bytes.size(), &header,
                                             &decoded)
                    .ok());
    EXPECT_EQ(header.count, block.count);
    EXPECT_EQ(header.bounds.lo, block.bounds.lo);
    EXPECT_EQ(header.bounds.hi, block.bounds.hi);
    EXPECT_EQ(decoded, block.postings);

    // Header-only parse never touches the payload.
    size_t payload = 0;
    ASSERT_TRUE(codec::ParseBlockHeader(block.bytes.data(),
                                        block.bytes.size(), &header, &payload)
                    .ok());
    EXPECT_EQ(payload, codec::BlockHeaderBytes(header));
    reassembled.insert(reassembled.end(), decoded.begin(), decoded.end());
  }
  EXPECT_EQ(reassembled, list);
}

TEST(CodecTest, BlockBytesAreHeaderThenBareStream) {
  // The framing is exactly AppendBlockHeader + EncodePostings, so a reader
  // that strips the header sees the bare stream every decoder accepts.
  std::mt19937_64 rng(23);
  const PostingList list = RandomSortedList(rng, 300);
  for (const auto& block : EncodeBlocks(list, 64)) {
    std::vector<uint8_t> expected;
    codec::AppendBlockHeader(expected,
                             codec::BlockHeader{block.bounds, block.count});
    const std::vector<uint8_t> bare = codec::EncodePostings(block.postings);
    expected.insert(expected.end(), bare.begin(), bare.end());
    EXPECT_EQ(block.bytes, expected);
  }
}

TEST(CodecTest, BlockHeaderCorruptionIsRejected) {
  std::mt19937_64 rng(29);
  const PostingList list = RandomSortedList(rng, 100);
  const auto blocks = EncodeBlocks(list, 100);
  ASSERT_EQ(blocks.size(), 1u);
  const std::vector<uint8_t>& good = blocks[0].bytes;

  codec::BlockHeader header;
  PostingList out;
  size_t payload = 0;

  // Bad magic byte.
  std::vector<uint8_t> bad_magic = good;
  bad_magic[0] ^= 0xFF;
  EXPECT_EQ(codec::ParseBlockHeader(bad_magic.data(), bad_magic.size(),
                                    &header, &payload)
                .code(),
            StatusCode::kCorruption);

  // Truncation at every header prefix. The loop uses scratch outputs:
  // ParseBlockHeader resets them on entry, and `payload` is needed intact
  // for the tamper below.
  ASSERT_TRUE(
      codec::ParseBlockHeader(good.data(), good.size(), &header, &payload)
          .ok());
  for (size_t len = 0; len < payload; ++len) {
    codec::BlockHeader scratch_header;
    size_t scratch_payload = 0;
    EXPECT_EQ(codec::ParseBlockHeader(good.data(), len, &scratch_header,
                                      &scratch_payload)
                  .code(),
              StatusCode::kCorruption)
        << "header prefix of length " << len << " parsed";
  }

  // A tampered header over an intact payload: ParseBlockHeader cannot
  // tell, but the decode cross-check must refuse to mis-skip. Flip a low
  // bit of the hi-posting's level varint (the last header byte).
  std::vector<uint8_t> tampered = good;
  tampered[payload - 1] ^= 0x01;
  EXPECT_EQ(codec::DecodeBlockWithHeader(tampered.data(), tampered.size(),
                                         &header, &out)
                .code(),
            StatusCode::kCorruption);

  // A header spliced onto a truncated payload.
  std::vector<uint8_t> cut(good.begin(), good.end() - 3);
  EXPECT_EQ(
      codec::DecodeBlockWithHeader(cut.data(), cut.size(), &header, &out)
          .code(),
      StatusCode::kCorruption);

  // An overlong varint (bit 64 set) as the header's posting count.
  std::vector<uint8_t> overlong_count{good[0]};
  const std::vector<uint8_t> overlong = TenByteVarint(0x02);
  overlong_count.insert(overlong_count.end(), overlong.begin(),
                        overlong.end());
  const Status st = codec::ParseBlockHeader(
      overlong_count.data(), overlong_count.size(), &header, &payload);
  EXPECT_EQ(st.code(), StatusCode::kCorruption);
  EXPECT_EQ(st.message(), "codec: truncated block header count");
}

TEST(CodecTest, WireBytesIsTheMemoizedEncodedSize) {
  std::mt19937_64 rng(11);
  const PostingList list = RandomSortedList(rng, 300);
  EXPECT_EQ(codec::WireBytes(list), codec::EncodedBytes(list));
  codec::WireSizeMemo memo;
  const size_t first = codec::MemoizedWireBytes(list, &memo);
  EXPECT_EQ(first, codec::EncodedBytes(list));
  EXPECT_EQ(memo.bytes, first);
  EXPECT_EQ(codec::MemoizedWireBytes(list, &memo), first);
  // The memo revalidates on length change: growing the payload after a
  // first sizing (messages_test's handoff case) must re-size, not serve
  // the stale bytes.
  PostingList grown = list;
  grown.push_back(grown.back());
  EXPECT_EQ(codec::MemoizedWireBytes(grown, &memo),
            codec::EncodedBytes(grown));
}

// ---------------------------------------------------------------------------
// Answer-tuple codec (EncodeAnswers / DecodeAnswers / EncodedAnswerBytes).

struct Reply {
  std::vector<DocId> matched;
  std::vector<Answer> answers;
};

xml::StructuralId RandomSid(std::mt19937_64& rng) {
  std::uniform_int_distribution<uint32_t> start_d(1, 1 << 18);
  std::uniform_int_distribution<uint32_t> width_d(0, 1 << 9);
  std::uniform_int_distribution<uint16_t> level_d(1, 12);
  const uint32_t start = start_d(rng);
  return {start, start + width_d(rng), level_d(rng)};
}

/// Seeded holder reply of an `arity`-node branching pattern: documents in
/// ascending order with peer resets (the doc id drops when the peer
/// changes), 0-5 answers per matched doc, a root column that mostly
/// repeats, and other columns drawn independently so they decrease as
/// often as they grow.
Reply RandomReply(std::mt19937_64& rng, size_t arity, size_t docs) {
  std::uniform_int_distribution<uint32_t> peer_step(0, 2);
  std::uniform_int_distribution<uint32_t> doc_step(1, 40);
  std::uniform_int_distribution<int> per_doc(0, 5);
  std::uniform_int_distribution<int> new_root(0, 3);
  Reply r;
  DocId doc{0, 500};
  for (size_t i = 0; i < docs; ++i) {
    if (const uint32_t step = peer_step(rng); step > 0) {
      doc = DocId{doc.peer + step, doc_step(rng)};
    } else {
      doc.doc += doc_step(rng);
    }
    r.matched.push_back(doc);
    const int n = per_doc(rng);
    xml::StructuralId root = RandomSid(rng);
    for (int a = 0; a < n; ++a) {
      if (a > 0 && new_root(rng) == 0) root = RandomSid(rng);
      Answer ans{doc, {root}};
      for (size_t k = 1; k < arity; ++k) ans.elements.push_back(RandomSid(rng));
      r.answers.push_back(std::move(ans));
    }
  }
  return r;
}

void ExpectAnswerRoundtrip(const Reply& reply, size_t arity) {
  const std::vector<uint8_t> buf =
      codec::EncodeAnswers(reply.matched, reply.answers);
  EXPECT_EQ(buf.size(), codec::EncodedAnswerBytes(reply.matched, reply.answers));
  // Stale output contents must be replaced, not appended to.
  std::vector<DocId> matched{DocId{9, 9}};
  std::vector<Answer> answers{Answer{DocId{9, 9}, {}}};
  const Status st =
      codec::DecodeAnswers(buf.data(), buf.size(), arity, &matched, &answers);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(matched, reply.matched);
  EXPECT_EQ(answers, reply.answers);
}

Status DecodeReply(const std::vector<uint8_t>& buf, size_t arity) {
  std::vector<DocId> matched;
  std::vector<Answer> answers;
  return codec::DecodeAnswers(buf.data(), buf.size(), arity, &matched,
                              &answers);
}

TEST(AnswerCodecTest, RoundtripRandomBranchingReplies) {
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    std::mt19937_64 rng(seed);
    for (size_t arity : {1u, 2u, 3u, 5u}) {
      for (size_t docs : {0u, 1u, 2u, 40u, 300u}) {
        ExpectAnswerRoundtrip(RandomReply(rng, arity, docs), arity);
      }
    }
  }
}

TEST(AnswerCodecTest, RoundtripAdversarialReplies) {
  // Empty reply, and a matched doc with no answer tuple.
  ExpectAnswerRoundtrip({}, 3);
  ExpectAnswerRoundtrip({{DocId{4, 7}}, {}}, 3);
  // Single answer; its first sid equals the zero sid the run starts from,
  // so it is coded as a one-byte repeat.
  ExpectAnswerRoundtrip(
      {{DocId{0, 0}}, {Answer{DocId{0, 0}, {xml::StructuralId{}}}}}, 1);
  // //a[//b]//c in one document: the root repeats while the b column
  // decreases and the c column grows, then both reverse.
  const DocId d{2, 11};
  Reply branching{{d},
                  {Answer{d, {{1, 90, 1}, {40, 45, 2}, {10, 12, 2}}},
                   Answer{d, {{1, 90, 1}, {20, 25, 2}, {50, 52, 3}}},
                   Answer{d, {{1, 90, 1}, {60, 65, 2}, {5, 6, 3}}}}};
  ExpectAnswerRoundtrip(branching, 3);
  // Peer resets with a smaller doc id, and documents out of order: the
  // peer and doc deltas wrap mod 2^32, so any order round-trips.
  const DocId a{0, 400}, b{1, 2}, c{0, 3};
  ExpectAnswerRoundtrip(
      {{a, b, c},
       {Answer{a, {{5, 6, 1}}}, Answer{b, {{5, 6, 1}}}, Answer{c, {{7, 7, 2}}},
        Answer{a, {{8, 9, 2}}}}},
      1);
  // Extreme field values.
  const uint32_t u32 = std::numeric_limits<uint32_t>::max();
  const uint16_t u16 = std::numeric_limits<uint16_t>::max();
  const DocId top{u32, u32};
  ExpectAnswerRoundtrip(
      {{top}, {Answer{top, {{u32, u32, u16}, {0, u32, 0}}},
               Answer{top, {{0, 0, u16}, {u32, u32, 0}}}}},
      2);
}

TEST(AnswerCodecTest, EncodedAnswerBytesIsTheEncodeSize) {
  std::mt19937_64 rng(21);
  for (size_t arity : {1u, 2u, 3u, 4u}) {
    const Reply reply = RandomReply(rng, arity, 200);
    EXPECT_EQ(codec::EncodedAnswerBytes(reply.matched, reply.answers),
              codec::EncodeAnswers(reply.matched, reply.answers).size());
  }
  EXPECT_EQ(codec::EncodedAnswerBytes({}, {}), 2u);  // two zero counts
}

TEST(AnswerCodecTest, StreamIsFarSmallerThanRawTuples) {
  // Dense replies (several answers per document, repeating root): the
  // stream must beat the raw 8 B doc + 18 B per sid tuple several times.
  std::mt19937_64 rng(22);
  const Reply reply = RandomReply(rng, 2, 500);
  const size_t raw = reply.matched.size() * 8 +
                     reply.answers.size() * (8 + codec::RawBytes(2));
  EXPECT_LE(3 * codec::EncodedAnswerBytes(reply.matched, reply.answers), raw);
}

TEST(AnswerCodecTest, EveryTruncationFailsWithCorruption) {
  std::mt19937_64 rng(23);
  const Reply reply = RandomReply(rng, 3, 12);
  const std::vector<uint8_t> buf =
      codec::EncodeAnswers(reply.matched, reply.answers);
  for (size_t len = 0; len < buf.size(); ++len) {
    std::vector<DocId> matched;
    std::vector<Answer> answers;
    const Status st =
        codec::DecodeAnswers(buf.data(), len, 3, &matched, &answers);
    EXPECT_EQ(st.code(), StatusCode::kCorruption) << "prefix " << len;
    EXPECT_TRUE(matched.empty());
    EXPECT_TRUE(answers.empty());
  }
  std::vector<uint8_t> trailing = buf;
  trailing.push_back(0);
  EXPECT_EQ(DecodeReply(trailing, 3).code(), StatusCode::kCorruption);
}

TEST(AnswerCodecTest, ByteFlipsFailOrDecodeWellFormedAnswers) {
  // The stream carries no checksum, so a flipped byte can yield another
  // well-formed stream. Every flip must therefore either fail with
  // kCorruption or decode to answers of the right arity with valid sids —
  // never crash, over-read or over-allocate (run under ASan in CI).
  std::mt19937_64 rng(24);
  const Reply reply = RandomReply(rng, 3, 10);
  const std::vector<uint8_t> buf =
      codec::EncodeAnswers(reply.matched, reply.answers);
  size_t rejected = 0;
  for (size_t i = 0; i < buf.size(); ++i) {
    for (uint8_t mask : {0x01, 0x02, 0x10, 0x40, 0x80, 0xff}) {
      std::vector<uint8_t> flipped = buf;
      flipped[i] ^= mask;
      std::vector<DocId> matched;
      std::vector<Answer> answers;
      const Status st = codec::DecodeAnswers(flipped.data(), flipped.size(),
                                             3, &matched, &answers);
      if (!st.ok()) {
        EXPECT_EQ(st.code(), StatusCode::kCorruption);
        ++rejected;
        continue;
      }
      for (const Answer& a : answers) {
        ASSERT_EQ(a.elements.size(), 3u);
        for (const auto& sid : a.elements) EXPECT_GE(sid.end, sid.start);
      }
    }
  }
  EXPECT_GT(rejected, 0u);
  // Setting the continuation bit of the final byte always truncates.
  std::vector<uint8_t> open_end = buf;
  open_end.back() ^= 0x80;
  EXPECT_EQ(DecodeReply(open_end, 3).code(), StatusCode::kCorruption);
}

TEST(AnswerCodecTest, OverlongVarintsFailWithCorruption) {
  // As the matched-doc count...
  EXPECT_EQ(DecodeReply(TenByteVarint(0x02), 2).code(),
            StatusCode::kCorruption);
  // ...and as a sid token inside a run: one answer of arity 1 whose token
  // is a 10-byte varint carrying bit 64.
  std::vector<uint8_t> buf{0x00, 0x01, 0x00, 0x00, 0x01};
  const std::vector<uint8_t> overlong = TenByteVarint(0x02);
  buf.insert(buf.end(), overlong.begin(), overlong.end());
  buf.push_back(0x00);  // width
  buf.push_back(0x01);  // level
  EXPECT_EQ(DecodeReply(buf, 1).code(), StatusCode::kCorruption);
}

TEST(AnswerCodecTest, AbsurdCountsAndFieldsFailWithCorruption) {
  // Counts the buffer cannot hold are refused before any allocation.
  const std::vector<uint8_t> huge_matched{0x80, 0x80, 0x80, 0x80, 0x80,
                                          0x80, 0x80, 0x80, 0x10};
  EXPECT_EQ(DecodeReply(huge_matched, 2).code(), StatusCode::kCorruption);
  std::vector<uint8_t> huge_answers{0x00};
  huge_answers.insert(huge_answers.end(), huge_matched.begin(),
                      huge_matched.end());
  EXPECT_EQ(DecodeReply(huge_answers, 2).code(), StatusCode::kCorruption);
  // Answers need a positive arity.
  const std::vector<uint8_t> one_answer{0x00, 0x01, 0x00, 0x00, 0x01, 0x00};
  EXPECT_TRUE(DecodeReply(one_answer, 1).ok());
  EXPECT_EQ(DecodeReply(one_answer, 0).code(), StatusCode::kCorruption);
  // A run of length zero, and a run longer than the answers left.
  EXPECT_EQ(DecodeReply({0x00, 0x01, 0x00, 0x00, 0x00, 0x00}, 1).code(),
            StatusCode::kCorruption);
  EXPECT_EQ(DecodeReply({0x00, 0x01, 0x00, 0x00, 0x02, 0x00, 0x00}, 1).code(),
            StatusCode::kCorruption);
  // A start delta below zero: zigzag(-1) + 1 = 2 against the zero sid.
  EXPECT_EQ(DecodeReply({0x00, 0x01, 0x00, 0x00, 0x01, 0x02, 0x00, 0x01}, 1)
                .code(),
            StatusCode::kCorruption);
  // A level beyond 16 bits: varint(2^16) = 80 80 04.
  EXPECT_EQ(DecodeReply({0x00, 0x01, 0x00, 0x00, 0x01, 0x01, 0x00, 0x80, 0x80,
                         0x04},
                        1)
                .code(),
            StatusCode::kCorruption);
  // A peer delta beyond 32 bits: varint(2^32) = 80 80 80 80 10.
  EXPECT_EQ(DecodeReply({0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00, 0x00}, 1)
                .code(),
            StatusCode::kCorruption);
}

}  // namespace
}  // namespace kadop::index
