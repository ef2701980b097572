#ifndef KADOP_BLOOM_DYADIC_H_
#define KADOP_BLOOM_DYADIC_H_

#include <cstdint>
#include <string>
#include <vector>

namespace kadop::bloom {

/// A dyadic interval within the domain [1, 2^l]: at level j the domain is
/// partitioned into 2^(l-j) disjoint intervals of length 2^j. The i-th
/// (1-based) interval at level j is [(i-1)*2^j + 1, i*2^j].
struct DyadicInterval {
  uint32_t lo = 0;
  uint32_t hi = 0;
  uint8_t level = 0;

  [[nodiscard]] uint32_t Length() const { return hi - lo + 1; }

  /// Dense 64-bit code (level, index) — the hashing identity of the
  /// interval.
  [[nodiscard]] uint64_t Code() const {
    const uint64_t idx = (lo - 1) >> level;
    return (static_cast<uint64_t>(level) << 56) | idx;
  }

  [[nodiscard]] bool Contains(const DyadicInterval& other) const {
    return lo <= other.lo && other.hi <= hi;
  }

  friend bool operator==(const DyadicInterval&, const DyadicInterval&) =
      default;

  std::string ToString() const {
    std::string out = "[";  // appends only (g++ 12 -Wrestrict at -O3)
    out += std::to_string(lo);
    out += ',';
    out += std::to_string(hi);
    out += "]@";
    out += std::to_string(level);
    return out;
  }
};

/// Number of levels needed so that [1, 2^l] covers positions up to
/// `max_position` (l >= 1).
[[nodiscard]] int LevelsFor(uint32_t max_position);

/// The dyadic cover D[x, y]: the unique minimal set of disjoint dyadic
/// intervals whose union is [x, y]. At most 2*l intervals. Requires
/// 1 <= x <= y <= 2^l.
[[nodiscard]] std::vector<DyadicInterval> DyadicCover(uint32_t x, uint32_t y, int l);

/// The dyadic containers Dc[x, y]: every dyadic interval that contains
/// [x, y]. They form a chain from the smallest container up to [1, 2^l]
/// (l + 1 - j* entries).
[[nodiscard]] std::vector<DyadicInterval> DyadicContainers(uint32_t x, uint32_t y, int l);

/// The ancestors of a dyadic interval `iv` from `from_level` (>= iv.level,
/// exclusive of levels below) up to level `to_level` inclusive — i.e. the
/// containers of `iv` restricted to levels [iv.level, to_level].
[[nodiscard]] std::vector<DyadicInterval> DyadicAncestors(const DyadicInterval& iv,
                                            int to_level);

}  // namespace kadop::bloom

#endif  // KADOP_BLOOM_DYADIC_H_
