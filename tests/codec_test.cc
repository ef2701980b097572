// Seeded property tests for the posting codec (src/index/codec.h): the
// group-delta + varint encoding must round-trip every sorted posting list
// byte-exactly, EncodedBytes must predict the buffer size without
// allocating, encoded size must be monotone in list length, the block
// encoder must emit independently decodable posting-aligned blocks, and
// malformed input must fail with a Corruption status instead of crashing.

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
  const Status heap = codec::DecodePostings(overlong, &out);
  EXPECT_EQ(heap.code(), StatusCode::kCorruption);
  EXPECT_EQ(heap.message(), "codec: truncated posting count");
  std::vector<Posting> span(4);
  size_t decoded = 0;
  const Status batch = codec::DecodePostingsInto(
      overlong.data(), overlong.size(), span.data(), span.size(), &decoded);
  EXPECT_EQ(batch.code(), StatusCode::kCorruption);
  EXPECT_EQ(batch.message(), "codec: truncated posting count");

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

TEST(CodecTest, DecodePostingsIntoMatchesHeapPath) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    std::mt19937_64 rng(seed);
    for (size_t n : {0u, 1u, 40u, 500u}) {
      const PostingList list = RandomSortedList(rng, n);
      const std::vector<uint8_t> buf = codec::EncodePostings(list);
      std::vector<Posting> span(list.size() + 3);  // slack capacity is fine
      size_t decoded = 0;
      ASSERT_TRUE(codec::DecodePostingsInto(buf.data(), buf.size(),
                                            span.data(), span.size(),
                                            &decoded)
                      .ok());
      ASSERT_EQ(decoded, list.size());
      EXPECT_TRUE(std::equal(list.begin(), list.end(), span.begin()));
    }
  }
}

TEST(CodecTest, DecodePostingsIntoRejectsEveryTruncation) {
  std::mt19937_64 rng(13);
  const PostingList list = RandomSortedList(rng, 40);
  const std::vector<uint8_t> buf = codec::EncodePostings(list);
  std::vector<Posting> span(list.size());
  for (size_t len = 0; len < buf.size(); ++len) {
    size_t decoded = 0;
    const Status st = codec::DecodePostingsInto(buf.data(), len, span.data(),
                                                span.size(), &decoded);
    EXPECT_FALSE(st.ok()) << "prefix of length " << len << " decoded";
    EXPECT_EQ(st.code(), StatusCode::kCorruption);
  }
}

TEST(CodecTest, DecodePostingsIntoRejectsInsufficientCapacity) {
  std::mt19937_64 rng(17);
  const PostingList list = RandomSortedList(rng, 20);
  const std::vector<uint8_t> buf = codec::EncodePostings(list);
  std::vector<Posting> span(list.size() - 1);
  size_t decoded = 0;
  EXPECT_EQ(codec::DecodePostingsInto(buf.data(), buf.size(), span.data(),
                                      span.size(), &decoded)
                .code(),
            StatusCode::kCorruption);
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

}  // namespace
}  // namespace kadop::index
