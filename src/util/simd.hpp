/// \file simd.hpp
/// \brief Portable hints for the auto-vectorizer in batched hot loops.
///
/// The batched Monte-Carlo kernels are written so the compiler's
/// auto-vectorizer can handle them (contiguous double arrays, no
/// loop-carried dependencies beyond reductions). Two things block it in
/// practice: possible pointer aliasing between the scratch arrays, and
/// conservatively assumed dependencies. STATLEAK_RESTRICT and
/// STATLEAK_VEC_LOOP remove those blocks.
///
/// Both are gated behind the STATLEAK_SIMD CMake option (default ON). With
/// the option OFF they expand to nothing, which is useful for isolating a
/// suspected vectorization miscompile — the kernels are valid either way,
/// and the bit-identity tests pass in both configurations because the
/// source expression shapes (and thus the IEEE-754 operation order per
/// lane) are unchanged; the pragmas only permit lane-parallel execution of
/// independent lanes.
///
/// The same option gates the AVX-512 variants of the Monte-Carlo hot loops
/// (the lane-parallel draws, the first-order delay kernel and the leakage
/// kernel). Each such
/// loop is one source body, compiled twice through thin wrappers: a
/// baseline one, and one marked STATLEAK_TARGET_AVX512. host_simd_isa()
/// picks the variant from CPUID at run time — there is no option, flag or
/// environment variable for it. The attribute is applied per function, never
/// per translation unit: a .cpp compiled with -mavx512* could leave its
/// AVX-512 copies of shared inline functions in the link, and those crash
/// CPUs without AVX-512. Both variants give the same bits, because the
/// build turns floating-point contraction off (-ffp-contract=off): an
/// AVX-512 body could otherwise fuse a multiply and an add into an FMA
/// that the baseline body rounds twice.

#pragma once

#include <cstdint>

#if defined(STATLEAK_SIMD)
#if defined(__clang__)
#define STATLEAK_VEC_LOOP _Pragma("clang loop vectorize(enable) interleave(enable)")
#elif defined(__GNUC__)
#define STATLEAK_VEC_LOOP _Pragma("GCC ivdep")
#else
#define STATLEAK_VEC_LOOP
#endif
#if defined(__GNUC__) || defined(__clang__)
#define STATLEAK_RESTRICT __restrict__
#else
#define STATLEAK_RESTRICT
#endif
#else  // !STATLEAK_SIMD
#define STATLEAK_VEC_LOOP
#define STATLEAK_RESTRICT
#endif

#if defined(STATLEAK_SIMD) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define STATLEAK_AVX512_VARIANT 1
#define STATLEAK_TARGET_AVX512 [[gnu::target("avx512f,avx512dq,avx512vl")]]
#else
#define STATLEAK_AVX512_VARIANT 0
#define STATLEAK_TARGET_AVX512
#endif

#if defined(__GNUC__) || defined(__clang__)
/// Marks the one source body an ISA wrapper instantiates: it must be
/// inlined so that it is compiled for the wrapper's target.
#define STATLEAK_ALWAYS_INLINE [[gnu::always_inline]] inline
#else
#define STATLEAK_ALWAYS_INLINE inline
#endif

namespace statleak {

/// Eight doubles / 64-bit integers in one GCC/Clang vector type. It compiles
/// to whatever vector width the calling function targets: four SSE2
/// registers in a baseline body, one zmm register in an AVX-512 one. Casts
/// between these types reinterpret the bits. Vectors cross function
/// boundaries only by reference: passing or returning one by value would
/// change the ABI between variants (GCC warns with -Wpsabi). Between a
/// baseline and an AVX-512 function they do not cross at all: their
/// alignment is 16 bytes in baseline code and 64 in AVX-512 code, which
/// loads them with aligned moves, so such calls pass plain double arrays.
typedef double F64x8 __attribute__((vector_size(64)));
typedef std::int64_t I64x8 __attribute__((vector_size(64)));
typedef std::uint64_t U64x8 __attribute__((vector_size(64)));

/// Instruction-set variant of the SIMD hot loops (the Monte-Carlo kernels
/// and the SSTA cone retime's lane kernel).
enum class SimdIsa { kBaseline, kAvx512 };

inline const char* to_string(SimdIsa isa) {
  return isa == SimdIsa::kAvx512 ? "avx512" : "baseline";
}

/// The variant this host runs: kAvx512 when the CPU has AVX-512 F, DQ and
/// VL and the build compiled that variant in; kBaseline otherwise.
inline SimdIsa host_simd_isa() {
#if STATLEAK_AVX512_VARIANT
  static const SimdIsa isa = __builtin_cpu_supports("avx512f") &&
                                     __builtin_cpu_supports("avx512dq") &&
                                     __builtin_cpu_supports("avx512vl")
                                 ? SimdIsa::kAvx512
                                 : SimdIsa::kBaseline;
  return isa;
#else
  return SimdIsa::kBaseline;
#endif
}

}  // namespace statleak
