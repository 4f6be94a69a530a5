// Trace serialization (paper Sec. II-F "Instrumentation" records traces and a
// symbol mapping to files between the profiling run and the analysis).
//
// Format v2: magic, version, granularity, event count, run count, then
// LEB128-varint (symbol, length) pairs of the trace's maximal runs (a run
// longer than 2^32 - 1 events splits into adjacent pairs). The writer finds
// the runs on the fly and the reader expands them into the flat symbol
// buffer. RLE + varints exploit loop-heavy traces' repetitiveness. v1
// streams (fixed-width u32 pairs) remain readable.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/trace.hpp"

namespace codelayout {

/// Longest trace read_trace accepts, in events. A stream declaring more is
/// rejected from its header, before any run expands: a single ~12-byte pair
/// can otherwise declare 2^32 - 1 events (16 GiB of symbols). Suite traces
/// are at most ~800k events.
inline constexpr std::uint64_t kMaxTraceEvents = std::uint64_t{1} << 26;

/// One serialized run: `length` consecutive events of `symbol`.
struct RlePair {
  Symbol symbol;
  std::uint32_t length;

  friend bool operator==(const RlePair&, const RlePair&) = default;
};

std::vector<RlePair> rle_encode(const Trace& trace);

/// Rebuilds a trace from RLE pairs. Throws ContractError on a zero-length
/// run (no valid encoder emits one).
Trace rle_decode(const std::vector<RlePair>& pairs, Trace::Granularity g);

/// Writes/reads the binary trace format. read_trace throws ContractError on a
/// corrupt or hostile stream: bad magic, unsupported version, a declared
/// event count above kMaxTraceEvents, truncated payload or varint, varint
/// overflow, zero-length run, or a run-length sum that mismatches (or
/// overflows past) the declared event count.
void write_trace(std::ostream& os, const Trace& trace);
Trace read_trace(std::istream& is);

/// File-path convenience wrappers.
void save_trace(const std::string& path, const Trace& trace);
Trace load_trace(const std::string& path);

}  // namespace codelayout
