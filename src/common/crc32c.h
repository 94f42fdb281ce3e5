// CRC32C (Castagnoli) — the checksum framing every durable artifact uses
// (WAL record frames, checkpoint footers, run data pages and footers).
//
// On x86-64 CPUs with SSE4.2, Crc32c runs the `crc32` instruction 8 bytes
// per step; elsewhere it runs a byte-at-a-time table loop. The choice is
// made once, at first use, from the CPU's feature bits, so a binary built
// without -msse4.2 still takes the fast path. Both implement the same
// polynomial, so the checksums are byte-identical and every file written
// by one reads under the other (tests/common_test.cc pins this).

#ifndef SSIDB_COMMON_CRC32C_H_
#define SSIDB_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

#include "src/common/slice.h"

namespace ssidb {

/// Extend `crc` (0 for a fresh checksum) with `data`. Streaming-friendly:
/// Crc32c(Crc32c(0, a), b) == Crc32c(0, a+b).
uint32_t Crc32c(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(Slice s) { return Crc32c(0, s.data(), s.size()); }

namespace crc32c_internal {

/// The table loop Crc32c falls back to on CPUs without SSE4.2. Exposed
/// only so the tests can compare it with the dispatched implementation.
uint32_t Portable(uint32_t crc, const void* data, size_t n);

/// True when Crc32c runs the hardware instruction on this CPU.
bool UsesHardware();

}  // namespace crc32c_internal

}  // namespace ssidb

#endif  // SSIDB_COMMON_CRC32C_H_
