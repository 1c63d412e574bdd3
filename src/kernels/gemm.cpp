#include "kernels/gemm.hpp"

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/ensure.hpp"
#include "kernels/gemm_arch.hpp"

namespace cal::kernels {
namespace {

// --- ISA dispatch ---------------------------------------------------------

#if defined(CALLOC_GEMM_HAVE_V3) || defined(CALLOC_GEMM_HAVE_V512)
bool cpu_is_v3() {
  // Haswell-era x86-64-v3: everything the v3 TU may emit is implied by
  // these three on real silicon.
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("bmi2");
}
#endif

GemmRowsFn f32() {
  static const GemmRowsFn rows = []() -> GemmRowsFn {
#if defined(CALLOC_GEMM_HAVE_V3)
    if (cpu_is_v3()) return arch_v3::f32_ops();
#endif
    return arch_base::f32_ops();
  }();
  return rows;
}

const GemmS8Ops& s8() {
  static const GemmS8Ops& ops = *[]() -> const GemmS8Ops* {
#if defined(CALLOC_GEMM_HAVE_V512)
    // x86-64-v4 = the full 512-bit quintet; the v512 TU may emit any of it.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512cd"))
      return &arch_v512::s8_ops();
#endif
#if defined(CALLOC_GEMM_HAVE_V3)
    if (cpu_is_v3()) return &arch_v3::s8_ops();
#endif
    return &arch_base::s8_ops();
  }();
  return ops;
}

// --- fp32 dispatch --------------------------------------------------------

void gemm_impl(const float* a, const float* b, float* c, std::size_t m,
               std::size_t k, std::size_t n, bool ta, bool tb,
               bool accumulate) {
  // Dense leading dimensions: the stored row widths of each operand.
  const std::size_t lda = ta ? m : k;
  const std::size_t ldb = tb ? k : n;
  const std::size_t ldc = n;
  f32()(a, b, c, m, k, n, lda, ldb, ldc, ta, tb, accumulate, 0, m);
}

void check_args(std::span<const float> a, std::span<const float> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n) {
  CAL_ENSURE(m > 0 && k > 0 && n > 0,
             "gemm dims must be positive: " << m << "x" << k << "x" << n);
  CAL_ENSURE(a.size() == m * k, "gemm lhs span has " << a.size()
                                                     << " floats, expected "
                                                     << m * k);
  CAL_ENSURE(b.size() == k * n, "gemm rhs span has " << b.size()
                                                     << " floats, expected "
                                                     << k * n);
  CAL_ENSURE(c.size() == m * n, "gemm out span has " << c.size()
                                                     << " floats, expected "
                                                     << m * n);
}

// --- batched dispatch -----------------------------------------------------

struct ResolvedStrides {
  std::size_t stride_a, stride_b, stride_c, lda, ldb, ldc;
};

ResolvedStrides resolve_strides(const BatchStrides& s, std::size_t m,
                                std::size_t k, std::size_t n, bool ta,
                                bool tb) {
  ResolvedStrides r{};
  r.lda = s.lda != 0 ? s.lda : (ta ? m : k);
  r.ldb = s.ldb != 0 ? s.ldb : (tb ? k : n);
  r.ldc = s.ldc != 0 ? s.ldc : n;
  r.stride_a = s.stride_a != 0 ? s.stride_a : (ta ? k : m) * r.lda;
  r.stride_b = s.stride_b != 0 ? s.stride_b : (tb ? n : k) * r.ldb;
  r.stride_c = s.stride_c != 0 ? s.stride_c : m * r.ldc;
  return r;
}

// Greatest element offset touched in a batch of stored rows x cols views,
// plus one: the minimum span size.
std::size_t batched_extent(std::size_t batch, std::size_t stride,
                           std::size_t rows, std::size_t cols,
                           std::size_t ld) {
  return (batch - 1) * stride + (rows - 1) * ld + cols;
}

void check_batched(std::span<const float> a, std::span<const float> b,
                   std::span<float> c, std::size_t batch, std::size_t m,
                   std::size_t k, std::size_t n, const ResolvedStrides& r,
                   bool ta, bool tb) {
  CAL_ENSURE(batch > 0 && m > 0 && n > 0, "batched gemm dims must be positive: "
                                              << batch << " of " << m << "x"
                                              << k << "x" << n);
  CAL_ENSURE(r.ldc >= n, "batched gemm ldc " << r.ldc << " < n " << n);
  if (k > 0) {
    const std::size_t rows_a = ta ? k : m;
    const std::size_t cols_a = ta ? m : k;
    const std::size_t rows_b = tb ? n : k;
    const std::size_t cols_b = tb ? k : n;
    CAL_ENSURE(r.lda >= cols_a,
               "batched gemm lda " << r.lda << " < row width " << cols_a);
    CAL_ENSURE(r.ldb >= cols_b,
               "batched gemm ldb " << r.ldb << " < row width " << cols_b);
    const std::size_t need_a =
        batched_extent(batch, r.stride_a, rows_a, cols_a, r.lda);
    const std::size_t need_b =
        batched_extent(batch, r.stride_b, rows_b, cols_b, r.ldb);
    CAL_ENSURE(a.size() >= need_a, "batched gemm lhs span has "
                                       << a.size() << " floats, needs >= "
                                       << need_a);
    CAL_ENSURE(b.size() >= need_b, "batched gemm rhs span has "
                                       << b.size() << " floats, needs >= "
                                       << need_b);
  }
  const std::size_t need_c = batched_extent(batch, r.stride_c, m, n, r.ldc);
  CAL_ENSURE(c.size() >= need_c, "batched gemm out span has "
                                     << c.size() << " floats, needs >= "
                                     << need_c);
}

void gemm_batched_impl(const float* a, const float* b, float* c,
                       std::size_t batch, std::size_t m, std::size_t k,
                       std::size_t n, const ResolvedStrides& r, bool ta,
                       bool tb, bool accumulate) {
  if (k == 0) {
    // Empty reduction: the product is the zero matrix.
    if (!accumulate)
      for (std::size_t e = 0; e < batch; ++e)
        for (std::size_t i = 0; i < m; ++i)
          std::fill_n(c + e * r.stride_c + i * r.ldc, n, 0.0F);
    return;
  }
  const GemmRowsFn rows = f32();
  for (std::size_t e = 0; e < batch; ++e)
    rows(a + e * r.stride_a, b + e * r.stride_b, c + e * r.stride_c, m, k, n,
         r.lda, r.ldb, r.ldc, ta, tb, accumulate, 0, m);
}

// --- int8 dispatch --------------------------------------------------------

void check_args_s8(std::span<const std::int8_t> a,
                   std::span<const std::int8_t> b, std::span<float> c,
                   std::size_t m, std::size_t k, std::size_t n,
                   std::span<const float> scale_a,
                   std::span<const float> scale_b) {
  CAL_ENSURE(m > 0 && n > 0,
             "gemm_s8 dims must be positive: " << m << "x" << k << "x" << n);
  CAL_ENSURE(a.size() == m * k, "gemm_s8 lhs span has " << a.size()
                                                        << " bytes, expected "
                                                        << m * k);
  CAL_ENSURE(b.size() == k * n, "gemm_s8 rhs span has " << b.size()
                                                        << " bytes, expected "
                                                        << k * n);
  CAL_ENSURE(c.size() == m * n, "gemm_s8 out span has " << c.size()
                                                        << " floats, expected "
                                                        << m * n);
  CAL_ENSURE(scale_a.size() == m, "gemm_s8 scale_a has " << scale_a.size()
                                                         << ", expected m = "
                                                         << m);
  CAL_ENSURE(scale_b.size() == n, "gemm_s8 scale_b has " << scale_b.size()
                                                         << ", expected n = "
                                                         << n);
}

void gemm_s8_impl(const std::int8_t* a, const std::int8_t* b, float* c,
                  std::size_t m, std::size_t k, std::size_t n,
                  const float* scale_a, const float* scale_b, bool tb,
                  bool accumulate) {
  if (k == 0) {
    if (!accumulate) std::fill_n(c, m * n, 0.0F);
    return;
  }
  const GemmS8Ops& ops = s8();
  const std::size_t packed = ops.packed_b_bytes(k, n);
  thread_local std::vector<std::int8_t> t_bpack;
  if (t_bpack.size() < packed) t_bpack.resize(packed);
  ops.pack_b(b, k, n, tb, t_bpack.data());
  ops.rows(a, t_bpack.data(), c, m, k, n, scale_a, scale_b, accumulate, 0, m);
}

}  // namespace

void gemm_nn(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate) {
  check_args(a, b, c, m, k, n);
  gemm_impl(a.data(), b.data(), c.data(), m, k, n, false, false, accumulate);
}

void gemm_nt(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate) {
  check_args(a, b, c, m, k, n);
  gemm_impl(a.data(), b.data(), c.data(), m, k, n, false, true, accumulate);
}

void gemm_tn(std::span<const float> a, std::span<const float> b,
             std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
             bool accumulate) {
  check_args(a, b, c, m, k, n);
  gemm_impl(a.data(), b.data(), c.data(), m, k, n, true, false, accumulate);
}

void gemm_naive(std::span<const float> a, std::span<const float> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n, bool accumulate) {
  check_args(a, b, c, m, k, n);
  if (!accumulate) std::fill(c.begin(), c.end(), 0.0F);
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a.data() + i * k;
    float* orow = c.data() + i * n;
    for (std::size_t kk = 0; kk < k; ++kk) {
      // No zero-skip: 0·NaN and 0·Inf must propagate per IEEE 754.
      const float av = arow[kk];
      const float* brow = b.data() + kk * n;
      for (std::size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

void gemm_batched_nn(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, std::size_t batch, std::size_t m,
                     std::size_t k, std::size_t n, const BatchStrides& strides,
                     bool accumulate) {
  const ResolvedStrides r = resolve_strides(strides, m, k, n, false, false);
  check_batched(a, b, c, batch, m, k, n, r, false, false);
  gemm_batched_impl(a.data(), b.data(), c.data(), batch, m, k, n, r, false,
                    false, accumulate);
}

void gemm_batched_nt(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, std::size_t batch, std::size_t m,
                     std::size_t k, std::size_t n, const BatchStrides& strides,
                     bool accumulate) {
  const ResolvedStrides r = resolve_strides(strides, m, k, n, false, true);
  check_batched(a, b, c, batch, m, k, n, r, false, true);
  gemm_batched_impl(a.data(), b.data(), c.data(), batch, m, k, n, r, false,
                    true, accumulate);
}

void gemm_batched_tn(std::span<const float> a, std::span<const float> b,
                     std::span<float> c, std::size_t batch, std::size_t m,
                     std::size_t k, std::size_t n, const BatchStrides& strides,
                     bool accumulate) {
  const ResolvedStrides r = resolve_strides(strides, m, k, n, true, false);
  check_batched(a, b, c, batch, m, k, n, r, true, false);
  gemm_batched_impl(a.data(), b.data(), c.data(), batch, m, k, n, r, true,
                    false, accumulate);
}

void gemm_s8_nn(std::span<const std::int8_t> a, std::span<const std::int8_t> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n, std::span<const float> scale_a,
                std::span<const float> scale_b, bool accumulate) {
  check_args_s8(a, b, c, m, k, n, scale_a, scale_b);
  gemm_s8_impl(a.data(), b.data(), c.data(), m, k, n, scale_a.data(),
               scale_b.data(), false, accumulate);
}

void gemm_s8_nt(std::span<const std::int8_t> a, std::span<const std::int8_t> b,
                std::span<float> c, std::size_t m, std::size_t k,
                std::size_t n, std::span<const float> scale_a,
                std::span<const float> scale_b, bool accumulate) {
  check_args_s8(a, b, c, m, k, n, scale_a, scale_b);
  gemm_s8_impl(a.data(), b.data(), c.data(), m, k, n, scale_a.data(),
               scale_b.data(), true, accumulate);
}

const char* gemm_s8_isa() { return s8().isa; }

namespace detail {
const GemmS8Ops& s8_dispatch() { return s8(); }
}  // namespace detail

}  // namespace cal::kernels
