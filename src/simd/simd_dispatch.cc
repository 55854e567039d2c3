/**
 * @file
 * Runtime SIMD dispatch: CPUID detection plus the FOVE_SIMD override.
 *
 * The vector TUs are compiled with -mavx2 / -mavx512f -mavx512dq and
 * therefore must never execute on a CPU without those extensions; this
 * TU (compiled for the baseline target) owns the decision.
 * PCE_HAVE_AVX2_KERNELS / PCE_HAVE_AVX512_KERNELS are defined by CMake
 * when the toolchain/target could build the respective TU at all.
 */

#include "simd/tile_kernels.hh"

#include <algorithm>
#include <string>

#include "common/env.hh"

namespace pce::simd {

const TileKernels &scalarTileKernels();
#ifdef PCE_HAVE_AVX2_KERNELS
const TileKernels &avx2TileKernels();
#endif
#ifdef PCE_HAVE_AVX512_KERNELS
const TileKernels &avx512TileKernels();
#endif

const char *
simdLevelName(SimdLevel level)
{
    switch (level) {
    case SimdLevel::Avx512:
        return "avx512";
    case SimdLevel::Avx2:
        return "avx2";
    case SimdLevel::Scalar:
        break;
    }
    return "scalar";
}

SimdLevel
detectedSimdLevel()
{
    // GCC's __builtin_cpu_supports includes the OS's XCR0 state, so a
    // kernel that does not save the wider registers reports no support.
#ifdef PCE_HAVE_AVX512_KERNELS
    static const bool has_avx512 = __builtin_cpu_supports("avx512f") &&
                                   __builtin_cpu_supports("avx512dq");
    if (has_avx512)
        return SimdLevel::Avx512;
#endif
#ifdef PCE_HAVE_AVX2_KERNELS
    static const bool has_avx2 = __builtin_cpu_supports("avx2");
    if (has_avx2)
        return SimdLevel::Avx2;
#endif
    return SimdLevel::Scalar;
}

SimdLevel
activeSimdLevel()
{
    if (envSimdOff())
        return SimdLevel::Scalar;
    const std::string v = envString("FOVE_SIMD", "auto");
    // "avx2" caps the level at AVX2; "avx512" (the widest level) and
    // "auto" take the best detected one. A request is clamped to what
    // the CPU supports rather than crashing on an unsupported
    // instruction.
    if (v == "avx2")
        return effectiveSimdLevel(SimdLevel::Avx2);
    return detectedSimdLevel();
}

SimdLevel
effectiveSimdLevel(SimdLevel requested)
{
    return std::min(requested, detectedSimdLevel());
}

const TileKernels &
tileKernels(SimdLevel level)
{
    switch (effectiveSimdLevel(level)) {
#ifdef PCE_HAVE_AVX512_KERNELS
    case SimdLevel::Avx512:
        return avx512TileKernels();
#endif
#ifdef PCE_HAVE_AVX2_KERNELS
    case SimdLevel::Avx2:
        return avx2TileKernels();
#endif
    default:
        return scalarTileKernels();
    }
}

} // namespace pce::simd
