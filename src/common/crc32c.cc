#include "src/common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define SSIDB_CRC32C_SSE42 1
#endif

namespace ssidb {
namespace {

// CRC32C polynomial, reflected representation.
constexpr uint32_t kPoly = 0x82f63b78u;

std::array<uint32_t, 256> BuildTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (c >> 1) ^ kPoly : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

const std::array<uint32_t, 256>& Table() {
  static const std::array<uint32_t, 256> table = BuildTable();
  return table;
}

#ifdef SSIDB_CRC32C_SSE42
// The SSE4.2 `crc32` instruction computes the same reflected CRC32C step
// as the table loop, on 8 bytes at a time. Compiled for SSE4.2 regardless
// of the build's -m flags; only called once the CPU is known to have it.
__attribute__((target("sse4.2"))) uint32_t Sse42(uint32_t crc,
                                                  const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint64_t c = crc ^ 0xffffffffu;
  for (; n >= 8; n -= 8, p += 8) {
    uint64_t word;
    memcpy(&word, p, sizeof(word));  // Unaligned load, no aliasing UB.
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; --n, ++p) c32 = _mm_crc32_u8(c32, *p);
  return c32 ^ 0xffffffffu;
}
#endif

using CrcFn = uint32_t (*)(uint32_t, const void*, size_t);

CrcFn Choose() {
#ifdef SSIDB_CRC32C_SSE42
  if (__builtin_cpu_supports("sse4.2")) return Sse42;
#endif
  return crc32c_internal::Portable;
}

CrcFn Chosen() {
  static const CrcFn fn = Choose();
  return fn;
}

}  // namespace

namespace crc32c_internal {

uint32_t Portable(uint32_t crc, const void* data, size_t n) {
  const auto& table = Table();
  const unsigned char* p = static_cast<const unsigned char*>(data);
  uint32_t c = crc ^ 0xffffffffu;
  for (size_t i = 0; i < n; ++i) {
    c = table[(c ^ p[i]) & 0xff] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

bool UsesHardware() { return Chosen() != &Portable; }

}  // namespace crc32c_internal

uint32_t Crc32c(uint32_t crc, const void* data, size_t n) {
  return Chosen()(crc, data, n);
}

}  // namespace ssidb
