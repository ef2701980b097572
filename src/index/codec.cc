#include "index/codec.h"

#include <limits>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/profile_clock.h"

namespace kadop::index::codec {

namespace {

/// Codec-wide counters. `encode_ns`/`decode_ns` are wall-clock and only
/// move when obs::SetWallClockProfiling(true) has opted this process into
/// nondeterministic timing (micro benches do; nothing under src/ does).
/// In deterministic runs ProfileNowNs() is 0, the deltas are 0, and
/// same-seed metric snapshots stay byte-identical.
struct CodecCounters {
  obs::Counter* raw_bytes;
  obs::Counter* encoded_bytes;
  obs::Counter* encodes;
  obs::Counter* decodes;
  obs::Counter* encode_ns;
  obs::Counter* decode_ns;
};

CodecCounters& C() {
  static CodecCounters c = [] {
    auto& r = obs::MetricRegistry::Default();
    return CodecCounters{
        r.GetCounter("codec.raw_bytes"),    r.GetCounter("codec.encoded_bytes"),
        r.GetCounter("codec.encodes"),      r.GetCounter("codec.decodes"),
        r.GetCounter("codec.encode_ns"),    r.GetCounter("codec.decode_ns"),
    };
  }();
  return c;
}

void AppendVarint(std::vector<uint8_t>& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<uint8_t>(v));
}

[[nodiscard]] bool ReadVarint(const uint8_t* data, size_t size, size_t* pos,
                              uint64_t* v) {
  if (*pos < size && data[*pos] < 0x80) {  // most fields fit in one byte
    *v = data[(*pos)++];
    return true;
  }
  uint64_t value = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= size) return false;
    const uint8_t byte = data[(*pos)++];
    if (shift == 63 && byte > 0x01) return false;  // bits beyond 2^64
    value |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      // A zero final byte after the first pads the value: the encoder
      // never writes one, so accepting it would break canonical form.
      if (byte == 0 && shift > 0) return false;
      *v = value;
      return true;
    }
  }
  return false;  // > 10 bytes: malformed
}

/// Shared traversal for the encoder and the size functions: walks the runs
/// of `list[0, n)` and feeds each varint (or its length) to `emit`, so
/// `EncodedBytes` and `EncodedSingleBytes` are exact by construction.
template <typename Emit>
void WalkEncoded(const Posting* list, size_t n, Emit&& emit) {
  emit(n);
  uint32_t prev_peer = 0;
  uint32_t prev_doc = 0;
  uint16_t prev_level = 0;
  size_t i = 0;
  while (i < n) {
    const uint32_t peer = list[i].peer;
    const uint32_t doc = list[i].doc;
    size_t end = i + 1;
    while (end < n && list[end].peer == peer && list[end].doc == doc) ++end;
    const bool new_peer = peer != prev_peer;
    const bool multi = end - i > 1;
    const uint64_t doc_field = new_peer ? doc : doc - prev_doc;
    emit(doc_field << 2 | uint64_t{new_peer} << 1 | uint64_t{multi});
    if (new_peer) emit(peer - prev_peer);
    if (multi) emit(static_cast<uint64_t>(end - i - 2));
    uint32_t prev_start = 0;
    for (; i < end; ++i) {
      const xml::StructuralId& sid = list[i].sid;
      KADOP_CHECK(sid.end >= sid.start, "codec: sid interval end < start");
      const bool level_changed = sid.level != prev_level;
      emit(sid.start - prev_start);
      emit(uint64_t{sid.end - sid.start} << 1 | uint64_t{level_changed});
      if (level_changed) emit(sid.level);
      prev_start = sid.start;
      prev_level = sid.level;
    }
    prev_peer = peer;
    prev_doc = doc;
  }
}

[[nodiscard]] uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

[[nodiscard]] int64_t UnZigZag(uint64_t z) {
  return static_cast<int64_t>(z >> 1) ^ -static_cast<int64_t>(z & 1);
}

/// The (peer, doc) fields shared by matched docs and answer runs: the
/// posting codec's convention, mod 2^32 so unsorted input round-trips.
struct DocDeltas {
  DocId prev;

  template <typename Emit>
  void Write(const DocId& d, Emit& emit) {
    emit(static_cast<uint32_t>(d.peer - prev.peer));
    emit(d.peer != prev.peer ? d.doc : static_cast<uint32_t>(d.doc - prev.doc));
    prev = d;
  }

  [[nodiscard]] bool Read(const uint8_t* data, size_t size, size_t* pos,
                          DocId* d) {
    uint64_t dpeer = 0;
    uint64_t doc_field = 0;
    if (!ReadVarint(data, size, pos, &dpeer) ||
        !ReadVarint(data, size, pos, &doc_field) ||
        dpeer > std::numeric_limits<uint32_t>::max() ||
        doc_field > std::numeric_limits<uint32_t>::max()) {
      return false;
    }
    d->peer = static_cast<uint32_t>(prev.peer + dpeer);
    d->doc = dpeer != 0 ? static_cast<uint32_t>(doc_field)
                        : static_cast<uint32_t>(prev.doc + doc_field);
    prev = *d;
    return true;
  }
};

/// Shared traversal for `EncodeAnswers` and `EncodedAnswerBytes`, so the
/// size function is exact by construction.
template <typename Emit>
void WalkAnswers(const std::vector<DocId>& matched_docs,
                 const std::vector<Answer>& answers, Emit&& emit) {
  DocDeltas docs;
  emit(matched_docs.size());
  for (const DocId& d : matched_docs) docs.Write(d, emit);
  docs = DocDeltas{};
  emit(answers.size());
  const size_t arity = answers.empty() ? 0 : answers.front().elements.size();
  const xml::StructuralId zero;
  std::vector<uint16_t> last_level(arity, 0);  // per node, across runs
  size_t i = 0;
  while (i < answers.size()) {
    const DocId doc = answers[i].doc;
    size_t end = i;
    while (end < answers.size() && answers[end].doc == doc) ++end;
    docs.Write(doc, emit);
    emit(static_cast<uint64_t>(end - i));
    for (size_t a = i; a < end; ++a) {
      KADOP_CHECK(answers[a].elements.size() == arity,
                  "codec: answers of mixed arity");
      for (size_t k = 0; k < arity; ++k) {
        const xml::StructuralId& sid = answers[a].elements[k];
        const xml::StructuralId& prev =
            a == i ? zero : answers[a - 1].elements[k];
        if (sid == prev) {
          emit(0);
        } else {
          KADOP_CHECK(sid.end >= sid.start,
                      "codec: sid interval end < start");
          const bool level_changed = sid.level != last_level[k];
          emit(ZigZag(static_cast<int64_t>(sid.start) -
                      static_cast<int64_t>(prev.start)) +
               1);
          emit(uint64_t{sid.end - sid.start} << 1 | uint64_t{level_changed});
          if (level_changed) emit(sid.level);
        }
        last_level[k] = sid.level;
      }
    }
    i = end;
  }
}

}  // namespace

size_t VarintLen(uint64_t v) {
  size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

std::vector<uint8_t> EncodePostings(const PostingList& list) {
  KADOP_CHECK(IsSortedPostingList(list), "codec: encoding an unsorted list");
  const uint64_t t0 = obs::ProfileNowNs();
  std::vector<uint8_t> out;
  out.reserve(list.size() * 4 + 4);
  WalkEncoded(list.data(), list.size(),
              [&out](uint64_t v) { AppendVarint(out, v); });
  C().encodes->Increment();
  C().encode_ns->Increment(obs::ProfileNowNs() - t0);
  C().raw_bytes->Increment(RawBytes(list));
  C().encoded_bytes->Increment(out.size());
  return out;
}

Status DecodePostings(const uint8_t* data, size_t size, PostingList* out) {
  const uint64_t t0 = obs::ProfileNowNs();
  out->clear();
  size_t pos = 0;
  uint64_t count = 0;
  if (!ReadVarint(data, size, &pos, &count)) {
    return Status::Corruption("codec: truncated posting count");
  }
  // Every posting needs >= 2 payload bytes; reject counts the buffer can't
  // possibly hold before reserving.
  if (count > (size - pos) / 2) {
    return Status::Corruption("codec: posting count exceeds buffer");
  }
  out->reserve(count);
  constexpr uint64_t kMax32 = std::numeric_limits<uint32_t>::max();
  uint64_t prev_peer = 0;
  uint64_t prev_doc = 0;
  uint64_t prev_level = 0;
  while (out->size() < count) {
    uint64_t head = 0;
    uint64_t dpeer = 0;
    uint64_t extra = 0;
    if (!ReadVarint(data, size, &pos, &head)) {
      return Status::Corruption("codec: truncated run header");
    }
    const uint64_t doc_field = head >> 2;
    const uint64_t remaining = count - out->size();
    if (((head & 2) != 0 && !ReadVarint(data, size, &pos, &dpeer)) ||
        ((head & 1) != 0 && !ReadVarint(data, size, &pos, &extra))) {
      return Status::Corruption("codec: truncated run header");
    }
    // Canonical form only: a new-peer bit carries a non-zero delta, a
    // multi run holds 2..remaining postings, and a run on the same peer
    // moves to a later doc (runs are maximal).
    if (((head & 2) != 0) != (dpeer != 0) ||
        ((head & 1) != 0 && (remaining < 2 || extra > remaining - 2)) ||
        (dpeer == 0 && doc_field == 0 && !out->empty()) ||
        dpeer > kMax32 - prev_peer ||
        doc_field > (dpeer != 0 ? kMax32 : kMax32 - prev_doc)) {
      return Status::Corruption("codec: malformed run header");
    }
    const uint64_t peer = prev_peer + dpeer;
    const uint64_t doc = dpeer != 0 ? doc_field : prev_doc + doc_field;
    const uint64_t run_len = (head & 1) != 0 ? extra + 2 : 1;
    uint64_t prev_start = 0;
    uint64_t prev_width = 0;
    for (uint64_t k = 0; k < run_len; ++k) {
      uint64_t dstart = 0;
      uint64_t width_field = 0;
      if (!ReadVarint(data, size, &pos, &dstart) ||
          !ReadVarint(data, size, &pos, &width_field)) {
        return Status::Corruption("codec: truncated posting");
      }
      uint64_t level = prev_level;
      if ((width_field & 1) != 0) {
        if (!ReadVarint(data, size, &pos, &level)) {
          return Status::Corruption("codec: truncated posting");
        }
        // A set level bit must change the level.
        if (level == prev_level) {
          return Status::Corruption("codec: non-canonical posting");
        }
      }
      const uint64_t width = width_field >> 1;
      // prev_start <= 2^32, so neither sum can wrap once dstart is bounded.
      const uint64_t start = prev_start + dstart;
      if (dstart > kMax32 || start + width > kMax32 ||
          level > std::numeric_limits<uint16_t>::max()) {
        return Status::Corruption("codec: posting field overflow");
      }
      // Postings sharing a start keep (end, level) order, so every
      // accepted stream decodes to a sorted list.
      if (dstart == 0 && k > 0 &&
          (width < prev_width || (width == prev_width && level < prev_level))) {
        return Status::Corruption("codec: non-canonical posting");
      }
      out->push_back(Posting{static_cast<uint32_t>(peer),
                             static_cast<uint32_t>(doc),
                             {static_cast<uint32_t>(start),
                              static_cast<uint32_t>(start + width),
                              static_cast<uint16_t>(level)}});
      prev_start = start;
      prev_width = width;
      prev_level = level;
    }
    prev_peer = peer;
    prev_doc = doc;
  }
  if (pos != size) {
    return Status::Corruption("codec: trailing bytes after postings");
  }
  C().decodes->Increment();
  C().decode_ns->Increment(obs::ProfileNowNs() - t0);
  return Status::OK();
}

Status DecodePostings(const std::vector<uint8_t>& buffer, PostingList* out) {
  return DecodePostings(buffer.data(), buffer.size(), out);
}

PostingList DecodePayload(const std::vector<uint8_t>& stream) {
  PostingList out;
  const Status status = DecodePostings(stream, &out);
  KADOP_CHECK(status.ok(), "codec: a payload's posting stream is corrupt");
  return out;
}

size_t EncodedBytes(const PostingList& list) {
  size_t total = 0;
  WalkEncoded(list.data(), list.size(),
              [&total](uint64_t v) { total += VarintLen(v); });
  return total;
}

size_t EncodedSingleBytes(const Posting& posting) {
  size_t total = 0;
  WalkEncoded(&posting, 1, [&total](uint64_t v) { total += VarintLen(v); });
  return total;
}

double EstimatedWirePostingBytes() {
  // A fixed, conservative round number: the DBLP mix measures 3.30 B per
  // posting (BENCH_codec.json). The planner only needs relative strategy
  // costs, not exact sizes (docs/wire_format.md#planner).
  return 6.0;
}

std::vector<uint8_t> EncodeAnswers(const std::vector<DocId>& matched_docs,
                                   const std::vector<Answer>& answers) {
  std::vector<uint8_t> out;
  out.reserve(EncodedAnswerBytes(matched_docs, answers));
  WalkAnswers(matched_docs, answers,
              [&out](uint64_t v) { AppendVarint(out, v); });
  return out;
}

size_t EncodedAnswerBytes(const std::vector<DocId>& matched_docs,
                          const std::vector<Answer>& answers) {
  size_t total = 0;
  WalkAnswers(matched_docs, answers,
              [&total](uint64_t v) { total += VarintLen(v); });
  return total;
}

Status DecodeAnswers(const uint8_t* data, size_t size, size_t arity,
                     std::vector<DocId>* matched_docs,
                     std::vector<Answer>* answers) {
  matched_docs->clear();
  answers->clear();
  auto fail = [&](const char* what) {
    matched_docs->clear();
    answers->clear();
    return Status::Corruption(what);
  };
  size_t pos = 0;
  uint64_t matched = 0;
  // A matched doc takes >= 2 bytes: reject counts the buffer can't hold
  // before allocating.
  if (!ReadVarint(data, size, &pos, &matched) || matched > (size - pos) / 2) {
    return fail("codec: bad matched-doc count");
  }
  matched_docs->resize(matched);
  DocDeltas docs;
  for (DocId& d : *matched_docs) {
    if (!docs.Read(data, size, &pos, &d)) {
      return fail("codec: truncated matched doc");
    }
  }
  uint64_t count = 0;
  // An answer takes >= `arity` bytes (one per repeated sid), and a
  // zero-arity answer is meaningless.
  if (!ReadVarint(data, size, &pos, &count) ||
      (count > 0 && (arity == 0 || count > (size - pos) / arity))) {
    return fail("codec: bad answer count");
  }
  answers->reserve(count);
  docs = DocDeltas{};
  const xml::StructuralId zero;
  std::vector<uint16_t> last_level(arity, 0);  // per node, across runs
  while (answers->size() < count) {
    DocId doc;
    uint64_t run_len = 0;
    if (!docs.Read(data, size, &pos, &doc) ||
        !ReadVarint(data, size, &pos, &run_len)) {
      return fail("codec: truncated answer run header");
    }
    // Runs are maximal, so a run never repeats the previous run's doc.
    if (run_len == 0 || run_len > count - answers->size() ||
        (!answers->empty() && answers->back().doc == doc)) {
      return fail("codec: malformed answer run header");
    }
    for (uint64_t r = 0; r < run_len; ++r) {
      Answer a;
      a.doc = doc;
      a.elements.resize(arity);
      for (size_t k = 0; k < arity; ++k) {
        const xml::StructuralId& prev =
            r == 0 ? zero : answers->back().elements[k];
        uint64_t token = 0;
        if (!ReadVarint(data, size, &pos, &token)) {
          return fail("codec: truncated answer");
        }
        xml::StructuralId& sid = a.elements[k];
        if (token == 0) {
          sid = prev;
          last_level[k] = sid.level;
          continue;
        }
        const int64_t dstart = UnZigZag(token - 1);
        uint64_t width_field = 0;
        uint64_t level = last_level[k];
        if (!ReadVarint(data, size, &pos, &width_field) ||
            ((width_field & 1) != 0 &&
             !ReadVarint(data, size, &pos, &level))) {
          return fail("codec: truncated answer");
        }
        const uint64_t width = width_field >> 1;
        // Bound the delta before adding, so the sum cannot overflow.
        const int64_t base = prev.start;
        constexpr int64_t kMax = std::numeric_limits<uint32_t>::max();
        if (dstart < -base || dstart > kMax - base ||
            width > static_cast<uint64_t>(kMax - (base + dstart)) ||
            level > std::numeric_limits<uint16_t>::max()) {
          return fail("codec: answer sid overflow");
        }
        sid.start = static_cast<uint32_t>(base + dstart);
        sid.end = static_cast<uint32_t>(sid.start + width);
        sid.level = static_cast<uint16_t>(level);
        // The encoder writes a repeat as 0 and sets the level bit only on a
        // change; anything else would not re-encode to the same bytes.
        if (sid == prev ||
            ((width_field & 1) != 0 && level == last_level[k])) {
          return fail("codec: non-canonical answer sid");
        }
        last_level[k] = sid.level;
      }
      answers->push_back(std::move(a));
    }
  }
  if (pos != size) return fail("codec: trailing bytes after answers");
  return Status::OK();
}

double EstimatedWireAnswerBytes(size_t nodes) {
  // The raw tuple (8 B doc id + 18 B per node) over a ~9x ratio, kept
  // conservative: DBLP twigs measure 3.58 B per answer at 2 nodes and
  // 5.04 B at 3 (docs/wire_format.md#planner). Like
  // EstimatedWirePostingBytes it only steers strategy choice, never a
  // byte charge.
  return 1.0 + 2.0 * static_cast<double>(nodes);
}

}  // namespace kadop::index::codec
