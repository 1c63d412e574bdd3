// Internal: per-ISA instantiations of the blocked GEMM drivers.
//
// gemm_kernel_body.inc (fp32) and gemm_s8_kernel_body.inc (int8) are
// compiled once per target ISA (arch_base at the toolchain default,
// arch_v3 at -march=x86-64-v3 and arch_v512 at -march=x86-64-v4 when the
// build adds those TUs); gemm.cpp picks an instantiation at runtime via
// __builtin_cpu_supports. Not part of the public cal_kernels API —
// include kernels/gemm.hpp.
#pragma once

#include <cstddef>
#include <cstdint>

namespace cal::kernels {

// Computes rows [i_begin, i_end) of C (+)= op(A)·op(B) where op transposes
// when ta/tb is set; row-major with logical dims m x k x n and explicit
// leading dimensions (row strides) so batched callers can point into a
// larger buffer. lda strides the STORED A (m x k, or k x m when ta); same
// for ldb/ldc.
#define CAL_GEMM_ROWS_ARGS                                                  \
  const float *a, const float *b, float *c, std::size_t m, std::size_t k,   \
      std::size_t n, std::size_t lda, std::size_t ldb, std::size_t ldc,     \
      bool ta, bool tb, bool accumulate, std::size_t i_begin,               \
      std::size_t i_end

// Rows [i_begin, i_end) of the int8 GEMM: C[i,j] (+)= scale_a[i] *
// scale_b[j] * sum_p A[i,p]·B[p,j] with an exact int32 inner product.
// B arrives pre-packed (the pack_b entry below, once per GEMM); scale_b
// runs along the output channels (columns of C).
#define CAL_GEMM_S8_ROWS_ARGS                                               \
  const std::int8_t *a, const std::int8_t *bpack, float *c, std::size_t m,  \
      std::size_t k, std::size_t n, const float *scale_a,                   \
      const float *scale_b, bool accumulate, std::size_t i_begin,           \
      std::size_t i_end

// Packs all of op(B) (k x n, or n x k when tb) into the int8 panel layout.
#define CAL_GEMM_S8_PACK_ARGS                                               \
  const std::int8_t *b, std::size_t k, std::size_t n, bool tb,              \
      std::int8_t *out

/// Per-ISA fp32 entry point: the self-packing row driver.
using GemmRowsFn = void (*)(CAL_GEMM_ROWS_ARGS);

/// Per-ISA int8 entry points. packed_b_bytes sizes the packed image of the
/// WHOLE B operand (the int8 path packs once per GEMM, no cache blocking:
/// every shape this repo serves fits the packed panel in L2).
/// quantize_rows is the activation quantizer (per-row symmetric, round
/// half away from zero) — it lives here because it runs ahead of every
/// int8 GEMM on the serving hot path and needs the widest available ISA;
/// all paths use the identical operation sequence, so output is
/// bit-identical across ISAs. isa names the selected tier ("avx512",
/// "avx2", "scalar") so benches can gate speedup floors per tier.
struct GemmS8Ops {
  std::size_t (*packed_b_bytes)(std::size_t k, std::size_t n);
  void (*pack_b)(CAL_GEMM_S8_PACK_ARGS);
  void (*rows)(CAL_GEMM_S8_ROWS_ARGS);
  void (*quantize_rows)(const float* x, std::size_t rows, std::size_t cols,
                        std::int8_t* out, float* scales);
  const char* isa;
};

namespace arch_base {
GemmRowsFn f32_ops();
const GemmS8Ops& s8_ops();
}  // namespace arch_base
namespace arch_v3 {  // defined only when CMake adds the TU
GemmRowsFn f32_ops();
const GemmS8Ops& s8_ops();
}  // namespace arch_v3
namespace arch_v512 {  // defined only when CMake adds the TU
const GemmS8Ops& s8_ops();
}  // namespace arch_v512

namespace detail {
/// The runtime-selected int8 ops table (internal; quant.cpp rides the
/// dispatched quantize_rows so activations quantize at the host's ISA).
const GemmS8Ops& s8_dispatch();
}  // namespace detail

}  // namespace cal::kernels
