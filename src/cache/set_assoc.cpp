#include "cache/set_assoc.hpp"

namespace codelayout {
namespace {

// Positions 0..3 hold ways 0..3: a valid permutation for any assoc <= 4
// (positions >= assoc never matter — their ways are never promoted, so they
// stay at the tail).
constexpr std::uint8_t kIdentityOrder = 0b11'10'01'00;

}  // namespace

SetAssocCache::SetAssocCache(const CacheGeometry& geom) {
  geom.validate();  // includes the power-of-two set-count requirement
  set_mask_ = geom.sets() - 1;
  assoc_ = geom.associativity;
  packed_ = assoc_ <= kPackedMaxAssoc;
  if (packed_) {
    sets4_.assign(geom.sets(),
                  Set4{{kEmpty, kEmpty, kEmpty, kEmpty}, 0, kIdentityOrder});
  } else {
    ways_.assign(geom.sets() * assoc_, kEmpty);
  }
}

bool SetAssocCache::access_generic(std::uint64_t line) {
  std::uint64_t* base = &ways_[(line & set_mask_) * assoc_];
  // Probe MRU-first; on hit rotate the prefix so the hit way becomes MRU.
  for (std::uint32_t i = 0; i < assoc_; ++i) {
    if (base[i] == line) {
      for (std::uint32_t j = i; j > 0; --j) base[j] = base[j - 1];
      base[0] = line;
      return true;
    }
  }
  // Miss: evict the LRU way (the last slot).
  for (std::uint32_t j = assoc_ - 1; j > 0; --j) base[j] = base[j - 1];
  base[0] = line;
  return false;
}

}  // namespace codelayout
