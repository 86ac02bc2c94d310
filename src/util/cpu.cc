#include "util/cpu.h"

#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace tinprov::cpu {

namespace {

SimdLevel ProbeSimdLevel() {
#if defined(__x86_64__) || defined(_M_X64) || defined(__i386__)
  // __builtin_cpu_supports folds in the OSXSAVE/XCR0 check for AVX
  // state, so a kernel that disabled AVX context switching reports
  // false here even when CPUID alone would say yes.
#if defined(__GNUC__) || defined(__clang__)
  if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
  if (__builtin_cpu_supports("sse2")) return SimdLevel::kSse2;
#endif
#if defined(__x86_64__) || defined(_M_X64)
  // SSE2 is architectural on x86-64 even if the builtin is unavailable.
  return SimdLevel::kSse2;
#else
  return SimdLevel::kScalar;
#endif
#else
  return SimdLevel::kScalar;
#endif
}

bool ProbeAvx512() {
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(_M_X64) || defined(__i386__))
  return __builtin_cpu_supports("avx512f");
#else
  return false;
#endif
}

bool ProbeSse42() {
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(_M_X64) || defined(__i386__))
  return __builtin_cpu_supports("sse4.2");
#else
  return false;
#endif
}

SimdLevel ResolveActiveLevel() {
  const SimdLevel detected = DetectSimdLevel();
  const char* env = std::getenv("TINPROV_SIMD");
  if (env == nullptr || env[0] == '\0') return detected;
  const std::optional<SimdLevel> requested = ParseSimdLevel(env);
  if (!requested.has_value()) {
    std::fprintf(stderr,
                 "tinprov: ignoring unknown TINPROV_SIMD=%s "
                 "(want scalar|sse2|avx2)\n",
                 env);
    return detected;
  }
  if (*requested > detected) {
    std::fprintf(stderr,
                 "tinprov: TINPROV_SIMD=%s exceeds host support; "
                 "clamping to %s\n",
                 env, SimdLevelName(detected));
    return detected;
  }
  return *requested;
}

}  // namespace

SimdLevel DetectSimdLevel() {
  static const SimdLevel level = ProbeSimdLevel();
  return level;
}

bool DetectAvx512() {
  static const bool has = ProbeAvx512();
  return has;
}

bool DetectSse42() {
  static const bool has = ProbeSse42();
  return has;
}

SimdLevel ActiveSimdLevel() {
  static const SimdLevel level = ResolveActiveLevel();
  return level;
}

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kSse2:
      return "sse2";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

std::optional<SimdLevel> ParseSimdLevel(std::string_view name) {
  const std::string lower = AsciiLower(name);
  if (lower == "scalar") return SimdLevel::kScalar;
  if (lower == "sse2") return SimdLevel::kSse2;
  if (lower == "avx2") return SimdLevel::kAvx2;
  return std::nullopt;
}

}  // namespace tinprov::cpu
