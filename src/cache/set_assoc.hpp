// Set-associative LRU cache over 64-bit line ids.
//
// Line ids are global: co-running programs use disjoint id ranges so the
// shared cache sees two address spaces, exactly like two hyper-threads with
// distinct code segments.
//
// The whole interface is one operation, access(line), which touches the line
// and reports a hit. Callers count hits and misses themselves: the
// simulators attribute them per fetch stream, the only split a shared cache
// can give a party. Two internal representations, selected by associativity
// at construction, with identical hit/miss sequences (both are exact true
// LRU with empty ways treated as least-recent):
//   * packed (assoc <= 4, every paper run) — per set, the ways' 16-bit
//     partial tags live in one uint64_t probed with a SWAR zero-lane test,
//     full tags (way-index order) confirm the candidate lanes, and recency
//     is a 2-bit-per-way permutation byte updated through a precomputed
//     promote table; all three share one 64-byte record, so a probe touches
//     one cache line. A probe is one lane load + one multiply-mask test +
//     (on hit) one table lookup; no per-way scan, no prefix rotation.
//   * generic (assoc > 4) — ways kept in recency order in a small
//     contiguous array; probe is a linear scan and a hit rotates the prefix.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <vector>

#include "cache/geometry.hpp"

namespace codelayout {
namespace set_assoc_detail {

// kPromote[order * 4 + way]: the recency permutation after promoting `way`
// to MRU — the way moves to position 0, everything previously above it
// shifts one position deeper, relative order otherwise preserved. Entries
// for non-permutation order bytes are never indexed (the cache maintains
// valid permutations from construction on).
constexpr std::array<std::uint8_t, 256 * 4> make_promote_table() {
  std::array<std::uint8_t, 256 * 4> table{};
  for (unsigned order = 0; order < 256; ++order) {
    for (unsigned way = 0; way < 4; ++way) {
      unsigned out = way;
      unsigned shift = 2;
      for (unsigned p = 0; p < 4 && shift < 8; ++p) {
        const unsigned w = (order >> (2 * p)) & 3;
        if (w == way) continue;
        out |= w << shift;
        shift += 2;
      }
      table[order * 4 + way] = static_cast<std::uint8_t>(out);
    }
  }
  return table;
}

inline constexpr auto kPromote = make_promote_table();

}  // namespace set_assoc_detail

class SetAssocCache {
 public:
  explicit SetAssocCache(const CacheGeometry& geom);

  /// Touches `line`, installing it on a miss; returns true on hit. The set
  /// index is the line id modulo the set count (physical index bits above
  /// the line offset).
  bool access(std::uint64_t line) {
    return packed_ ? access_packed(line) : access_generic(line);
  }

 private:
  static constexpr std::uint64_t kEmpty = ~std::uint64_t{0};
  // Broadcast/borrow masks for the 4x16-bit SWAR zero-lane test.
  static constexpr std::uint64_t kLaneLsb = 0x0001000100010001ull;
  static constexpr std::uint64_t kLaneMsb = 0x8000800080008000ull;
  static constexpr std::uint32_t kPackedMaxAssoc = 4;

  /// 16-bit mix of the line id. Collisions are fine (the full tag confirms);
  /// the multiply spreads the low bits so same-set lines rarely share a lane
  /// pattern.
  static std::uint16_t partial_tag(std::uint64_t line) {
    return static_cast<std::uint16_t>((line * 0x9e3779b97f4a7c15ull) >> 48);
  }

  bool access_packed(std::uint64_t line);
  bool access_generic(std::uint64_t line);

  std::uint64_t set_mask_;
  std::uint32_t assoc_;
  bool packed_;
  // Packed: everything one probe reads, in one 64-byte line per set.
  struct alignas(64) Set4 {
    // Full tags in way-index order; kEmpty marks an invalid way.
    std::uint64_t tags[kPackedMaxAssoc];
    // The ways' 16-bit partial tags, one lane each.
    std::uint64_t lanes;
    // Recency permutation, 2 bits per position; position p's bits hold the
    // way at recency rank p (p = 0 is MRU, assoc-1 is LRU).
    std::uint8_t order;
  };
  std::vector<Set4> sets4_;
  // Generic: full tags in recency order (slot 0 is MRU); kEmpty marks an
  // invalid way.
  std::vector<std::uint64_t> ways_;
};

// The packed 4-way probe is inline: it is the per-event cost of every
// I-cache simulation at the paper's geometry.
inline bool SetAssocCache::access_packed(std::uint64_t line) {
  Set4& set = sets4_[line & set_mask_];
  const std::uint64_t lanes = set.lanes;
  // SWAR zero-lane test: a lane of `diff` is zero iff that way's partial tag
  // matches. Borrow propagation can flag spurious lanes above a true match;
  // never the reverse (a zero lane is always flagged), and every candidate
  // is confirmed against the full tag, so false positives only cost a load.
  const std::uint64_t diff = lanes ^ (kLaneLsb * partial_tag(line));
  std::uint64_t cand = (diff - kLaneLsb) & ~diff & kLaneMsb;
  while (cand != 0) {
    const auto lane = static_cast<std::uint32_t>(std::countr_zero(cand)) >> 4;
    if (lane < assoc_ && set.tags[lane] == line) {
      set.order = set_assoc_detail::kPromote[set.order * 4u + lane];
      return true;
    }
    cand &= cand - 1;
  }
  // Miss: the victim is the way at the LRU position. Empty ways start at the
  // permutation tail and are never promoted until filled, so they are
  // consumed before any real eviction — the same fill order as the generic
  // recency array.
  const std::uint8_t order = set.order;
  const std::uint32_t victim = (order >> (2 * (assoc_ - 1))) & 3u;
  set.tags[victim] = line;
  const std::uint32_t shift = 16 * victim;
  set.lanes = (lanes & ~(std::uint64_t{0xffff} << shift)) |
              (std::uint64_t{partial_tag(line)} << shift);
  set.order = set_assoc_detail::kPromote[order * 4u + victim];
  return false;
}

}  // namespace codelayout
