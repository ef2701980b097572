// Seeded property tests for the posting codec (src/index/codec.h): the
// group-delta + varint encoding must round-trip every sorted posting list
// byte-exactly, EncodedBytes must predict the buffer size without
// allocating, encoded size must be monotone in list length, every encode
// must record its ratio, and malformed input must fail with a Corruption
// status instead of crashing. The answer-tuple codec gets the same
// treatment (AnswerCodecTest), and seeded mutation fuzzers drive both
// decoders (CodecFuzzTest).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "index/codec.h"
#include "index/posting.h"
#include "obs/metrics.h"

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

TEST(CodecTest, EncodeRecordsTheRatioOfWhatItEncodes) {
  // Every posting payload is its EncodePostings stream, so each encode
  // (and nothing else) counts its raw and encoded bytes.
  std::mt19937_64 rng(11);
  const PostingList list = RandomSortedList(rng, 300);
  auto& registry = obs::MetricRegistry::Default();
  const uint64_t raw0 = registry.GetCounter("codec.raw_bytes")->value();
  const uint64_t enc0 = registry.GetCounter("codec.encoded_bytes")->value();
  EXPECT_EQ(codec::EncodedBytes(list), codec::EncodePostings(list).size());
  EXPECT_EQ(registry.GetCounter("codec.raw_bytes")->value() - raw0,
            codec::RawBytes(list));
  EXPECT_EQ(registry.GetCounter("codec.encoded_bytes")->value() - enc0,
            codec::EncodedBytes(list));
  EXPECT_EQ(codec::DecodePayload(codec::EncodePostings(list)), list);
}

// ---------------------------------------------------------------------------
// Posting layout: run header varint(doc << 2 | new_peer << 1 | multi), the
// peer delta only on a new peer, varint(run_len - 2) only on a multi run,
// and per posting varint(dstart) varint(width << 1 | level_changed) plus
// the level only when it changes (docs/wire_format.md).

Status DecodeBytes(const std::vector<uint8_t>& buf) {
  PostingList out;
  return codec::DecodePostings(buf, &out);
}

TEST(CodecTest, LayoutIsPinnedByGoldenBytes) {
  const PostingList list{Posting{0, 5, {10, 20, 3}}, Posting{0, 5, {12, 14, 3}},
                         Posting{2, 1, {1, 1, 4}}};
  const std::vector<uint8_t> golden{
      0x03,                    // count
      0x15, 0x00,              // doc 5, multi; run_len - 2 = 0
      0x0a, 0x15, 0x03,        // start 10, width 10 + level bit, level 3
      0x02, 0x04,              // start +2, width 2, level carries
      0x06, 0x02,              // doc 1 absolute, new peer; peer delta 2
      0x01, 0x01, 0x04};       // start 1, width 0 + level bit, level 4
  EXPECT_EQ(codec::EncodePostings(list), golden);
  ExpectRoundtrip(list);
}

TEST(CodecTest, LevelChangesRoundtripInsideAndAcrossRuns) {
  // Levels change inside a run, carry across a run boundary unchanged,
  // change at a run boundary, and return to 0 (the stream's start level).
  const PostingList list{
      Posting{1, 1, {2, 9, 1}},  Posting{1, 1, {3, 4, 2}},
      Posting{1, 1, {5, 6, 2}},  Posting{1, 2, {2, 9, 2}},
      Posting{1, 3, {1, 3, 5}},  Posting{4, 0, {7, 8, 0}},
      Posting{4, 0, {7, 8, 9}},  Posting{4, 6, {0, 0, 9}}};
  ExpectRoundtrip(list);
  // Each of the five level changes costs exactly one one-byte varint.
  PostingList flat = list;
  for (Posting& p : flat) p.sid.level = 0;
  EXPECT_EQ(codec::EncodedBytes(list), codec::EncodedBytes(flat) + 5);
}

TEST(CodecTest, WidthsRoundtripAtShiftedVarintBoundaries) {
  // The level bit shares the width varint, so widths 64 and 8192 are the
  // first to need one more byte.
  const uint32_t start = 100;
  for (const auto& [below, above] :
       {std::pair<uint32_t, uint32_t>{63, 64}, {8191, 8192}}) {
    for (uint16_t level : {uint16_t{0}, uint16_t{7}}) {
      const Posting lo{0, 0, {start, start + below, level}};
      const Posting hi{0, 0, {start, start + above, level}};
      ExpectRoundtrip({lo});
      ExpectRoundtrip({hi});
      ExpectRoundtrip({lo, hi});
      EXPECT_EQ(codec::EncodedBytes({hi}), codec::EncodedBytes({lo}) + 1)
          << "width " << above << " level " << level;
    }
  }
  const uint32_t u32 = std::numeric_limits<uint32_t>::max();
  ExpectRoundtrip({Posting{0, 0, {0, u32, 1}}});
}

TEST(CodecTest, RunsOfOneTwoAndThreeRoundtrip) {
  // A run of one has no length field; longer runs add varint(len - 2).
  for (size_t len : {1u, 2u, 3u}) {
    PostingList list;
    for (uint32_t s = 0; s < len; ++s) list.push_back({0, 4, {s, s + 1, 2}});
    list.push_back({0, 9, {1, 2, 2}});  // a second run after it
    ExpectRoundtrip(list);
    const size_t header = 1 + (len > 1 ? 1 : 0);
    // count + run headers + (dstart, width) per posting + one level byte.
    EXPECT_EQ(codec::EncodedBytes(list), 1 + header + 1 + 2 * (len + 1) + 1)
        << "run of " << len;
  }
}

TEST(CodecTest, MidListPeerChangeRoundtrips) {
  // Two peer changes mid-list, each to a smaller doc id than the last.
  const PostingList list{Posting{0, 3, {1, 2, 1}}, Posting{0, 8, {1, 2, 1}},
                         Posting{3, 2, {1, 2, 1}}, Posting{3, 2, {4, 5, 1}},
                         Posting{3, 7, {1, 2, 1}}, Posting{7, 0, {1, 2, 1}}};
  ExpectRoundtrip(list);
  // Keeping peer 0 for the middle runs drops one one-byte peer delta.
  PostingList fewer = list;
  for (size_t i = 2; i < 5; ++i) fewer[i].peer = 0;
  fewer[2].doc = fewer[3].doc = 9;
  fewer[4].doc = 14;
  ExpectRoundtrip(fewer);
  EXPECT_EQ(codec::EncodedBytes(fewer) + 1, codec::EncodedBytes(list));
}

TEST(CodecTest, SizeWalkEqualsEncoderOnSeededLists) {
  // Real lists hold one level per term; random ones change it often.
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    std::mt19937_64 rng(seed);
    PostingList list = RandomSortedList(rng, 1 + seed * 37 % 700);
    if (seed % 2 == 0) {
      for (Posting& p : list) p.sid.level = 3;
    }
    EXPECT_EQ(codec::EncodedBytes(list), codec::EncodePostings(list).size())
        << "seed " << seed;
    for (size_t i = 0; i < list.size(); i += 17) {
      EXPECT_EQ(codec::EncodedSingleBytes(list[i]),
                codec::EncodePostings({list[i]}).size());
    }
  }
}

TEST(CodecTest, NonCanonicalStreamsFailWithCorruption) {
  // Each stream below decodes to a list whose encoding differs, so the
  // decoder refuses it: every accepted stream re-encodes byte-exactly.
  const std::vector<std::vector<uint8_t>> cases{
      // new-peer bit with a zero peer delta
      {0x01, 0x06, 0x00, 0x01, 0x00},
      // multi run whose length runs past the count
      {0x02, 0x01, 0x01, 0x01, 0x00, 0x01, 0x00},
      // level bit on an unchanged level (0 -> 0)
      {0x01, 0x00, 0x01, 0x01, 0x00},
      // a second run on the same (peer, doc)
      {0x02, 0x04, 0x01, 0x00, 0x00, 0x01, 0x00},
      // a padded varint: 0x80 0x00 is a two-byte 0
      {0x01, 0x00, 0x80, 0x00, 0x00},
      // equal starts with a falling width: (1, 5) then (1, 3)
      {0x02, 0x01, 0x00, 0x01, 0x08, 0x00, 0x04},
      // equal start and width with a falling level: 2 then 1
      {0x02, 0x01, 0x00, 0x01, 0x01, 0x02, 0x00, 0x01, 0x01}};
  for (size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(DecodeBytes(cases[i]).code(), StatusCode::kCorruption)
        << "case " << i;
  }
  // The same shapes written canonically decode.
  EXPECT_TRUE(DecodeBytes({0x01, 0x06, 0x01, 0x01, 0x00}).ok());
  EXPECT_TRUE(DecodeBytes({0x02, 0x01, 0x00, 0x01, 0x00, 0x01, 0x00}).ok());
  EXPECT_TRUE(DecodeBytes({0x02, 0x04, 0x01, 0x00, 0x08, 0x01, 0x00}).ok());
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
  // A written sid equal to the zero sid it is coded against (start delta
  // 0, width 0, no level bit): refused before the trailing bytes are read.
  EXPECT_EQ(DecodeReply({0x00, 0x01, 0x00, 0x00, 0x01, 0x01, 0x00, 0x80, 0x80,
                         0x04},
                        1)
                .code(),
            StatusCode::kCorruption);
  // A level beyond 16 bits: start delta +1, the level bit set and
  // varint(2^16) = 80 80 04.
  const Status wide_level = DecodeReply(
      {0x00, 0x01, 0x00, 0x00, 0x01, 0x03, 0x01, 0x80, 0x80, 0x04}, 1);
  EXPECT_EQ(wide_level.code(), StatusCode::kCorruption);
  EXPECT_EQ(wide_level.message(), "codec: answer sid overflow");
  // The same stream one level lower decodes.
  EXPECT_TRUE(
      DecodeReply({0x00, 0x01, 0x00, 0x00, 0x01, 0x03, 0x01, 0xff, 0xff, 0x03},
                  1)
          .ok());
  // A peer delta beyond 32 bits: varint(2^32) = 80 80 80 80 10.
  EXPECT_EQ(DecodeReply({0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00, 0x00}, 1)
                .code(),
            StatusCode::kCorruption);
}

// Answer sids carry the posting codec's level bit, against a last level
// kept per pattern node across runs.

TEST(AnswerCodecTest, LayoutIsPinnedByGoldenBytes) {
  const DocId a{1, 4}, b{1, 9};
  const Reply reply{{a},
                    {Answer{a, {{1, 50, 1}, {3, 4, 2}}},
                     Answer{a, {{1, 50, 1}, {6, 7, 2}}},
                     Answer{b, {{2, 30, 1}, {5, 6, 3}}}}};
  const std::vector<uint8_t> golden{
      0x01, 0x01, 0x04,        // one matched doc: peer 1, doc 4
      0x03,                    // three answers
      0x01, 0x04, 0x02,        // run (1, 4) of two answers
      0x03, 0x63, 0x01,        // start +1, width 49 + level bit, level 1
      0x07, 0x03, 0x02,        // start +3, width 1 + level bit, level 2
      0x00,                    // root repeats
      0x07, 0x02,              // start +3, width 1, level 2 carries
      0x00, 0x05, 0x01,        // run (1, 9) of one answer
      0x05, 0x38,              // start +2, width 28, level 1 carries
      0x0b, 0x03, 0x03};       // start +5, width 1 + level bit, level 3
  EXPECT_EQ(codec::EncodeAnswers(reply.matched, reply.answers), golden);
  ExpectAnswerRoundtrip(reply, 2);
}

TEST(AnswerCodecTest, PerNodeLevelsChangeAndCarryAcrossRuns) {
  // Levels change inside a run, per node, and at run boundaries.
  const DocId a{0, 1}, b{0, 2}, c{3, 0};
  const Reply changing{
      {a, b, c},
      {Answer{a, {{1, 90, 1}, {4, 5, 2}, {6, 7, 3}}},
       Answer{a, {{1, 90, 1}, {8, 9, 4}, {10, 11, 3}}},
       Answer{b, {{2, 40, 2}, {3, 4, 4}, {5, 6, 1}}},
       Answer{c, {{1, 9, 2}, {2, 3, 4}, {4, 5, 1}}},
       Answer{c, {{1, 9, 2}, {6, 7, 0}, {8, 9, 6}}}}};
  ExpectAnswerRoundtrip(changing, 3);
  // With one level per node, only each node's first written sid pays for
  // its level: one byte per node over an all-zero-level reply.
  std::mt19937_64 rng(25);
  Reply steady = RandomReply(rng, 3, 100);
  Reply zero = steady;
  for (size_t i = 0; i < steady.answers.size(); ++i) {
    for (size_t k = 0; k < 3; ++k) {
      steady.answers[i].elements[k].level = static_cast<uint16_t>(k + 1);
      zero.answers[i].elements[k].level = 0;
    }
  }
  ExpectAnswerRoundtrip(steady, 3);
  ExpectAnswerRoundtrip(zero, 3);
  EXPECT_EQ(codec::EncodedAnswerBytes(steady.matched, steady.answers),
            codec::EncodedAnswerBytes(zero.matched, zero.answers) + 3);
}

TEST(AnswerCodecTest, NonCanonicalStreamsFailWithCorruption) {
  // One answer of arity 1 in run (0, 0) starts {0x00, 0x01, 0x00, 0x00,
  // 0x01}; each tail below makes a stream whose decoding re-encodes to
  // other bytes, or whose level does not fit in 16 bits.
  const std::vector<uint8_t> head{0x00, 0x01, 0x00, 0x00, 0x01};
  const std::vector<std::vector<uint8_t>> tails{
      {0x01, 0x00},              // a written sid equal to the zero sid
      {0x03, 0x01, 0x00},        // level bit on an unchanged level
      {0x03, 0x01, 0x80, 0x80, 0x04},  // level 2^16
      {0x83, 0x00, 0x00}};       // a padded start token
  for (size_t i = 0; i < tails.size(); ++i) {
    std::vector<uint8_t> buf = head;
    buf.insert(buf.end(), tails[i].begin(), tails[i].end());
    EXPECT_EQ(DecodeReply(buf, 1).code(), StatusCode::kCorruption)
        << "tail " << i;
  }
  std::vector<uint8_t> canonical = head;
  canonical.insert(canonical.end(), {0x03, 0x00});
  EXPECT_TRUE(DecodeReply(canonical, 1).ok());
  // Two runs on the same document: runs are maximal.
  EXPECT_EQ(DecodeReply({0x00, 0x02, 0x00, 0x05, 0x01, 0x03, 0x00, 0x00, 0x00,
                         0x01, 0x03, 0x00},
                        1)
                .code(),
            StatusCode::kCorruption);
  EXPECT_TRUE(DecodeReply({0x00, 0x02, 0x00, 0x05, 0x01, 0x03, 0x00, 0x00,
                           0x01, 0x01, 0x03, 0x00},
                          1)
                  .ok());
}

// ---------------------------------------------------------------------------
// Seeded mutation fuzzers over the two receive paths: DecodePostings and
// DecodeAnswers. Each mutant is a valid stream
// with one to three bytes flipped, cut short, or spliced (a prefix of one
// valid stream followed by the suffix of another). Every mutant must fail
// with kCorruption or decode to a valid result that re-encodes to exactly
// the mutant's bytes, since the decoders accept only canonical streams.
// The budget is fixed; CI also runs it under ASan/UBSan, where an
// over-read or overflow on any mutant fails the test.

constexpr int kFuzzRounds = 4000;  // mutants per decoder
constexpr size_t kFuzzArity = 3;   // answer-stream pattern size

enum class Mutation { kFlip, kTruncate, kSplice };

std::vector<uint8_t> Mutate(std::mt19937_64& rng, Mutation op,
                            const std::vector<uint8_t>& valid,
                            const std::vector<uint8_t>& other) {
  auto pick = [&rng](size_t n) {
    return std::uniform_int_distribution<size_t>(0, n - 1)(rng);
  };
  std::vector<uint8_t> out = valid;
  switch (op) {
    case Mutation::kFlip:
      for (size_t flips = 1 + pick(3); flips > 0; --flips) {
        out[pick(out.size())] ^= static_cast<uint8_t>(1 + pick(255));
      }
      break;
    case Mutation::kTruncate:
      out.resize(pick(out.size()));
      break;
    case Mutation::kSplice: {
      out.resize(pick(out.size() + 1));
      const size_t from = pick(other.size() + 1);
      out.insert(out.end(), other.begin() + static_cast<long>(from),
                 other.end());
      break;
    }
  }
  return out;
}

/// A small seeded list (so mutations land on headers as often as on
/// postings): half with one level per list, as real term lists have.
PostingList FuzzList(std::mt19937_64& rng) {
  PostingList list =
      RandomSortedList(rng, std::uniform_int_distribution<size_t>(0, 24)(rng));
  if (rng() % 2 == 0) {
    for (Posting& p : list) p.sid.level = 4;
  }
  return list;
}

/// Runs `decode` on kFuzzRounds mutants of `make()`'s valid streams and
/// returns how many it rejected; `decode` checks every accepted mutant.
template <typename Make, typename Decode>
size_t FuzzDecoder(uint64_t seed, Make&& make, Decode&& decode) {
  std::mt19937_64 rng(seed);
  size_t rejected = 0;
  for (int round = 0; round < kFuzzRounds; ++round) {
    const std::vector<uint8_t> valid = make(rng);
    const std::vector<uint8_t> other = make(rng);
    const auto op = static_cast<Mutation>(round % 3);
    const std::vector<uint8_t> mutant = Mutate(rng, op, valid, other);
    const Status st = decode(mutant);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kCorruption) << st.ToString();
      ++rejected;
    }
  }
  return rejected;
}

TEST(CodecFuzzTest, DecodePostingsAcceptsOnlyCanonicalStreams) {
  const size_t rejected = FuzzDecoder(
      101,
      [](std::mt19937_64& rng) { return codec::EncodePostings(FuzzList(rng)); },
      [](const std::vector<uint8_t>& bytes) {
        PostingList out;
        const Status st = codec::DecodePostings(bytes, &out);
        if (st.ok()) {
          EXPECT_TRUE(IsSortedPostingList(out));
          if (IsSortedPostingList(out)) {
            EXPECT_EQ(codec::EncodePostings(out), bytes);
          }
        } else {
          EXPECT_TRUE(out.empty() || st.code() == StatusCode::kCorruption);
        }
        return st;
      });
  EXPECT_GT(rejected, 0u);
}

TEST(CodecFuzzTest, DecodeAnswersAcceptsOnlyCanonicalStreams) {
  const size_t rejected = FuzzDecoder(
      103,
      [](std::mt19937_64& rng) {
        const Reply reply = RandomReply(rng, kFuzzArity, rng() % 6);
        return codec::EncodeAnswers(reply.matched, reply.answers);
      },
      [](const std::vector<uint8_t>& bytes) {
        std::vector<DocId> matched;
        std::vector<Answer> answers;
        const Status st = codec::DecodeAnswers(bytes.data(), bytes.size(),
                                               kFuzzArity, &matched,
                                               &answers);
        if (!st.ok()) {
          EXPECT_TRUE(matched.empty());
          EXPECT_TRUE(answers.empty());
          return st;
        }
        for (const Answer& a : answers) {
          EXPECT_EQ(a.elements.size(), kFuzzArity);
          for (const auto& sid : a.elements) EXPECT_GE(sid.end, sid.start);
        }
        EXPECT_EQ(codec::EncodeAnswers(matched, answers), bytes);
        return st;
      });
  EXPECT_GT(rejected, 0u);
}

}  // namespace
}  // namespace kadop::index
