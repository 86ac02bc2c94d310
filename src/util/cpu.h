// Host CPU feature detection for the runtime SIMD dispatch in
// util/simd.h. One binary ships scalar, SSE2, and AVX2 variants of the
// hot kernels (compiled in per-ISA translation units); this header
// answers "which may we run here?" once at startup.
//
// `TINPROV_SIMD=scalar|sse2|avx2` overrides the choice for testing —
// the dispatch-equivalence suite runs the full ctest suite at every
// level — but never upward past what the CPU supports: requesting avx2
// on a non-AVX2 host clamps (with a stderr warning) instead of
// faulting, so the same CI leg is valid on any runner.
#ifndef TINPROV_UTIL_CPU_H_
#define TINPROV_UTIL_CPU_H_

#include <optional>
#include <string_view>

namespace tinprov::cpu {

/// Instruction-set tiers the kernel dispatch table is compiled for,
/// ordered so "at most X" comparisons work. AVX-512 hosts run the AVX2
/// table (no 512-bit variants yet; see DetectAvx512 for reporting).
enum class SimdLevel { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// Highest level this CPU supports, probed once via CPUID (cached).
/// SSE2 is architectural on x86-64; non-x86 targets report kScalar.
SimdLevel DetectSimdLevel();

/// True when the host additionally supports AVX-512F. Reporting only —
/// surfaces in /statusz so a future 512-bit table knows its audience.
bool DetectAvx512();

/// True when the host supports SSE4.2 (cached CPUID), whose crc32
/// instruction util/crc32c.h uses unless TINPROV_SIMD=scalar.
bool DetectSse42();

/// The level the dispatch table actually uses: DetectSimdLevel()
/// clamped down by a TINPROV_SIMD override if one is set. Resolved on
/// first call and cached for the process lifetime — the kernel tables
/// in util/simd.h latch it, so flipping the env var later has no
/// effect.
SimdLevel ActiveSimdLevel();

/// "scalar", "sse2", or "avx2".
const char* SimdLevelName(SimdLevel level);

/// Parses a TINPROV_SIMD value (case-insensitive); nullopt when the
/// string names no known level.
std::optional<SimdLevel> ParseSimdLevel(std::string_view name);

}  // namespace tinprov::cpu

#endif  // TINPROV_UTIL_CPU_H_
