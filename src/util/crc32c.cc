#include "util/crc32c.h"

#include <cstring>

#include "util/cpu.h"

#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(_M_X64))
#define TINPROV_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace tinprov {

namespace {

constexpr uint32_t kPoly = 0x82f63b78u;  // reflected Castagnoli

struct Tables {
  // table[k][b]: CRC of byte b followed by k zero bytes — the slice-by-8
  // construction (process 8 input bytes per iteration, one XOR each).
  uint32_t t[8][256];
};

Tables BuildTables() {
  Tables tables{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPoly : crc >> 1;
    }
    tables.t[0][b] = crc;
  }
  for (int k = 1; k < 8; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      const uint32_t prev = tables.t[k - 1][b];
      tables.t[k][b] = (prev >> 8) ^ tables.t[0][prev & 0xff];
    }
  }
  return tables;
}

const Tables& GetTables() {
  static const Tables tables = BuildTables();
  return tables;
}

}  // namespace

namespace crc32c_internal {

uint32_t ExtendTable(uint32_t crc, const uint8_t* data, size_t n) {
  const Tables& tb = GetTables();
  crc = ~crc;
  while (n >= 8) {
    // Byte-wise loads keep the kernel endian- and alignment-agnostic;
    // the table lookups dominate either way.
    const uint32_t lo = crc ^ (uint32_t{data[0]} | uint32_t{data[1]} << 8 |
                               uint32_t{data[2]} << 16 | uint32_t{data[3]} << 24);
    const uint32_t hi = uint32_t{data[4]} | uint32_t{data[5]} << 8 |
                        uint32_t{data[6]} << 16 | uint32_t{data[7]} << 24;
    crc = tb.t[7][lo & 0xff] ^ tb.t[6][(lo >> 8) & 0xff] ^
          tb.t[5][(lo >> 16) & 0xff] ^ tb.t[4][lo >> 24] ^
          tb.t[3][hi & 0xff] ^ tb.t[2][(hi >> 8) & 0xff] ^
          tb.t[1][(hi >> 16) & 0xff] ^ tb.t[0][hi >> 24];
    data += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ tb.t[0][(crc ^ *data++) & 0xff];
  }
  return ~crc;
}

#if defined(TINPROV_CRC32C_SSE42)

bool HardwareAvailable() { return cpu::DetectSse42(); }

// Compiled for SSE4.2 on its own, so the rest of the library stays
// portable; only reached after the CPUID check above.
__attribute__((target("sse4.2"))) uint32_t ExtendHardware(
    uint32_t crc, const uint8_t* data, size_t n) {
  // The instruction consumes bytes in memory order with the reflected
  // polynomial, exactly as the table path does.
  uint64_t wide = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    wide = _mm_crc32_u64(wide, word);
    data += 8;
    n -= 8;
  }
  uint32_t narrow = static_cast<uint32_t>(wide);
  while (n-- > 0) narrow = _mm_crc32_u8(narrow, *data++);
  return ~narrow;
}

#else

bool HardwareAvailable() { return false; }

uint32_t ExtendHardware(uint32_t crc, const uint8_t* data, size_t n) {
  return ExtendTable(crc, data, n);
}

#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n) {
  // TINPROV_SIMD=scalar keeps the portable path, so the scalar CI leg
  // still exercises it.
  static const bool hardware =
      crc32c_internal::HardwareAvailable() &&
      cpu::ActiveSimdLevel() != cpu::SimdLevel::kScalar;
  return hardware ? crc32c_internal::ExtendHardware(crc, data, n)
                  : crc32c_internal::ExtendTable(crc, data, n);
}

}  // namespace tinprov
