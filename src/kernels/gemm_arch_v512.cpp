// x86-64-v4 (AVX-512BW) instantiation of the INT8 GEMM driver only.
// Compiled with -march=x86-64-v4 when CALLOC_ENABLE_AVX512 is on (see
// CMakeLists.txt); gemm.cpp dispatches to it at runtime only when the CPU
// reports the full avx512 f/bw/dq/vl/cd set. The fp32 body is deliberately
// NOT instantiated here: fp32 serving promises bit-identical results
// across deploys, and a wider fp32 micro-kernel would change the
// reduction shape. The int8 path has no such hazard — its
// int32 inner product is exact on every ISA.
#define CAL_GEMM_ARCH_NS arch_v512
#include "gemm_s8_kernel_body.inc"
