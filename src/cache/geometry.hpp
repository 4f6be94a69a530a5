// Cache geometry (paper Sec. III-A: 32 KB, 4-way, 64 B lines — the L1
// instruction cache of the Xeon E5520 testbed and of the Pin simulator).
#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "support/check.hpp"

namespace codelayout {

struct CacheGeometry {
  std::uint64_t size_bytes = 32 * 1024;
  std::uint32_t associativity = 4;
  std::uint32_t line_bytes = 64;

  [[nodiscard]] std::uint64_t lines() const { return size_bytes / line_bytes; }
  [[nodiscard]] std::uint64_t sets() const {
    return lines() / associativity;
  }

  /// The widest set a cache may have: every probe of a cache wider than
  /// four ways scans its set linearly.
  static constexpr std::uint32_t kMaxAssociativity = 1024;
  /// The most lines a cache may hold (64 MiB at 64 B lines): the simulator
  /// allocates every way up front, once per simulation.
  static constexpr std::uint64_t kMaxLines = std::uint64_t{1} << 20;

  /// Rejects any geometry the set-indexed cache cannot represent, or whose
  /// simulation would be unbounded in memory or probe time; the checks live
  /// here (not in SetAssocCache construction) so an invalid sweep point or
  /// wire request fails at validation with a message naming the bad value.
  void validate() const {
    CL_CHECK(line_bytes > 0 && associativity > 0);
    CL_CHECK_MSG(associativity <= kMaxAssociativity,
                 "associativity " << associativity << " exceeds "
                                  << kMaxAssociativity << " ways");
    CL_CHECK_MSG(size_bytes % (static_cast<std::uint64_t>(line_bytes) *
                               associativity) == 0,
                 "cache size not divisible into sets");
    CL_CHECK_MSG(lines() <= kMaxLines,
                 "cache of " << lines() << " lines exceeds " << kMaxLines);
    CL_CHECK(sets() > 0);
    CL_CHECK_MSG((sets() & (sets() - 1)) == 0,
                 "set count must be a power of two (size / (line * assoc) = "
                     << sets() << " sets for " << to_string() << ")");
  }

  /// "32K/4/64" — size (K/M-suffixed when even), ways, line bytes. The
  /// canonical text form parse_geometry() reads back.
  [[nodiscard]] std::string to_string() const {
    std::string out;
    if (size_bytes >= 1024 * 1024 && size_bytes % (1024 * 1024) == 0) {
      out = std::to_string(size_bytes / (1024 * 1024)) + "M";
    } else if (size_bytes >= 1024 && size_bytes % 1024 == 0) {
      out = std::to_string(size_bytes / 1024) + "K";
    } else {
      out = std::to_string(size_bytes);
    }
    out += '/';
    out += std::to_string(associativity);
    out += '/';
    out += std::to_string(line_bytes);
    return out;
  }

  friend bool operator==(const CacheGeometry&, const CacheGeometry&) = default;
  friend auto operator<=>(const CacheGeometry&,
                          const CacheGeometry&) = default;
};

/// The paper's L1I configuration.
inline constexpr CacheGeometry kL1I{32 * 1024, 4, 64};

}  // namespace codelayout
