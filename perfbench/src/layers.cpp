#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "attacks/attack.hpp"
#include "autograd/ops.hpp"
#include "common/rng.hpp"
#include "kernels/gemm.hpp"
#include "kernels/quant.hpp"
#include "nn/optimizer.hpp"
#include "serve/lru_cache.hpp"
#include "serve/service.hpp"

namespace perfbench {
namespace {

/// Median per-call time (µs) over `reps` repetitions, each running `f`
/// until at least `min_ms` elapsed.
template <typename F>
double per_call_us(F&& f, std::size_t reps = 7, double min_ms = 20.0) {
  f();  // warm caches and lazily built state
  std::vector<double> samples;
  for (std::size_t r = 0; r < reps; ++r) {
    std::size_t calls = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      f();
      ++calls;
      elapsed = ms_between(t0, Clock::now());
    } while (elapsed < min_ms);
    samples.push_back(1000.0 * elapsed / static_cast<double>(calls));
  }
  return median(samples);
}

cal::Tensor first_rows(const cal::Tensor& x, std::size_t n) {
  n = std::min(n, x.rows());
  cal::Tensor out({n, x.cols()});
  std::copy(x.data(), x.data() + n * x.cols(), out.data());
  return out;
}

std::vector<float> random_matrix(std::size_t rows, std::size_t cols,
                                 cal::Rng& rng) {
  std::vector<float> out(rows * cols);
  for (float& v : out) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return out;
}

// Forward shapes of Building 3 (A=78 APs, E=128, D=64, M=R=89 RPs) at the
// serving batch cap B=32, plus the training weight-gradient shapes.
constexpr std::size_t kB = 32, kA = 78, kE = 128, kD = 64, kM = 89;

struct Shape {
  const char* op;
  std::size_t m, k, n;
};

std::string shape_name(const Shape& s) {
  return std::string("kernels.") + s.op + "." + std::to_string(s.m) + "x" +
         std::to_string(s.k) + "x" + std::to_string(s.n) + ".gflops";
}

void measure_kernels(Report& r, std::uint64_t seed) {
  cal::Rng rng(seed ^ 0x6E33ULL);
  const Shape fp32[] = {
      {"gemm_nn", kB, kA, kE},  // query embedding
      {"gemm_nn", kB, kE, kD},  // query projection
      {"gemm_nn", kM, kA, kE},  // anchor embedding
      {"gemm_nn", kM, kE, kD},  // anchor key projection
      {"gemm_nt", kB, kD, kM},  // anchor scores
      {"gemm_nn", kB, kM, kM},  // attend over V, and the head
      {"gemm_tn", kA, kB, kE},  // embedding weight gradient
      {"gemm_tn", kE, kB, kD},  // projection weight gradient
      {"gemm_tn", kM, kB, kM},  // head weight gradient
  };
  for (const Shape& s : fp32) {
    const std::string op = s.op;
    // Stored operand shapes: nn A m x k, B k x n; nt B n x k; tn A k x m.
    const auto a = random_matrix(s.m, s.k, rng);
    const auto b = random_matrix(s.k, s.n, rng);
    std::vector<float> c(s.m * s.n);
    const double us = per_call_us([&] {
      if (op == "gemm_nn") cal::kernels::gemm_nn(a, b, c, s.m, s.k, s.n);
      if (op == "gemm_nt") cal::kernels::gemm_nt(a, b, c, s.m, s.k, s.n);
      if (op == "gemm_tn") cal::kernels::gemm_tn(a, b, c, s.m, s.k, s.n);
    });
    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const auto bytes = (s.m * s.k + s.k * s.n + s.m * s.n) * sizeof(float);
    r.add(shape_name(s), flops / (us * 1e3), "GFLOP/s");
    std::printf("  %-34s %.0f flop, %zu B moved (computed), %.3f us\n",
                shape_name(s).c_str(), flops, bytes, us);
  }
  const Shape int8[] = {
      {"gemm_s8_nn", kB, kA, kE},
      {"gemm_s8_nn", kB, kE, kD},
      {"gemm_s8_nt", kB, kD, kM},
      {"gemm_s8_nn", kB, kM, kM},
  };
  for (const Shape& s : int8) {
    const bool nt = std::string(s.op) == "gemm_s8_nt";
    const auto a = cal::kernels::quantize_rows(random_matrix(s.m, s.k, rng),
                                               s.m, s.k);
    const auto w = random_matrix(nt ? s.n : s.k, nt ? s.k : s.n, rng);
    const auto b = nt ? cal::kernels::quantize_rows(w, s.n, s.k)
                      : cal::kernels::quantize_per_output_channel(w, s.k, s.n);
    std::vector<float> c(s.m * s.n);
    const double us = per_call_us([&] {
      if (nt)
        cal::kernels::gemm_s8_nt(a.data, b.data, c, s.m, s.k, s.n, a.scales,
                                 b.scales);
      else
        cal::kernels::gemm_s8_nn(a.data, b.data, c, s.m, s.k, s.n, a.scales,
                                 b.scales);
    });
    const double flops = 2.0 * static_cast<double>(s.m * s.k * s.n);
    const auto bytes = s.m * s.k + s.k * s.n + s.m * s.n * sizeof(float);
    r.add(shape_name(s), flops / (us * 1e3), "GOP/s");
    std::printf("  %-34s %.0f op, %zu B moved (computed), %.3f us\n",
                shape_name(s).c_str(), flops, bytes, us);
  }
  const auto x = random_matrix(kB, kA, rng);
  std::vector<std::int8_t> q(kB * kA);
  std::vector<float> scales(kB);
  r.add("kernels.quantize_rows_us", per_call_us([&] {
          cal::kernels::quantize_rows(x, kB, kA, q, scales);
        }),
        "us");
}

}  // namespace

void measure_layers(const LayerInputs& in, Report& r, SpanLog& spans,
                    std::int64_t parent) {
  const SpanScope scope(spans, "replay.layers", parent);
  cal::core::Calloc& model = in.model;

  // core: the sequential forward at batch 1 and at the observed mean batch.
  std::unique_ptr<cal::baselines::ILocalizer> int8;
  r.add("core.quantize_ms",
        per_call_us([&] { int8 = model.quantize_int8(); }, 5, 5.0) / 1000.0,
        "ms");
  const cal::Tensor b1 = first_rows(in.traffic, 1);
  const auto bmean_rows = static_cast<std::size_t>(
      std::max(1.0, std::round(in.mean_batch)));
  const cal::Tensor bmean = first_rows(in.traffic, bmean_rows);
  r.add("core.predict_us_b1.fp32", per_call_us([&] { model.predict(b1); }),
        "us");
  r.add("core.predict_us_bmean.fp32",
        per_call_us([&] { model.predict(bmean); }), "us");
  r.add("core.predict_us_b1.int8", per_call_us([&] { int8->predict(b1); }),
        "us");
  r.add("core.predict_us_bmean.int8",
        per_call_us([&] { int8->predict(bmean); }), "us");

  // nn + autograd: one forward, backward and Adam step on a batch of 32,
  // on a fresh copy so the served weights stay untouched.
  {
    cal::core::CallocModel net(model.model().config());
    const auto labels = model.model().anchor_labels();
    net.set_anchors(model.model().anchor_matrix(),
                    std::vector<std::size_t>(labels.begin(), labels.end()));
    cal::nn::Adam opt(net.parameters(), 2e-3F);
    const cal::Tensor xb = first_rows(in.scenario.train.normalized(), 32);
    const auto yb = in.scenario.train.labels().first(xb.rows());
    r.add("nn.train_step_ms", per_call_us([&] {
            opt.zero_grad();
            auto loss = cal::autograd::cross_entropy(
                net.forward(cal::autograd::constant(xb)), yb);
            cal::autograd::backward(loss);
            opt.step();
          }, 5, 20.0) / 1000.0,
          "ms");
  }

  // attacks: FGSM over a lesson-sized batch (the training set), PGD over
  // one device capture.
  {
    cal::attacks::GradientSource& grads = *model.gradient_source();
    const cal::Tensor lesson = in.scenario.train.normalized();
    cal::attacks::AttackConfig fgsm;
    fgsm.phi_percent = 50.0;
    r.add("attacks.fgsm_ms", per_call_us([&] {
            cal::attacks::fgsm_attack(grads, lesson,
                                      in.scenario.train.labels(), fgsm);
          }, 5, 10.0) / 1000.0,
          "ms");
    const auto& capture = in.scenario.device_tests.front();
    const cal::Tensor cx = capture.normalized();
    cal::attacks::AttackConfig pgd;
    pgd.epsilon = 0.3;
    pgd.phi_percent = 50.0;
    r.add("attacks.pgd_ms", per_call_us([&] {
            cal::attacks::pgd_attack(grads, cx, capture.labels(), pgd);
          }, 3, 1.0) / 1000.0,
          "ms");
  }

  measure_kernels(r, in.seed);

  // serve.screen / serve.cache: the per-row work of the engine's claim.
  const std::size_t rows = in.traffic.rows();
  std::size_t row = 0;
  r.add("serve.screen.distance_us", per_call_us([&] {
          in.screen.distance(in.traffic.row(row));
          row = (row + 1) % rows;
        }),
        "us");
  cal::serve::FingerprintCache cache(
      std::max<std::size_t>(in.cache_capacity, rows),
      cal::serve::ServiceConfig{}.cache_quant_step);
  for (std::size_t i = 0; i < rows; ++i)
    cache.insert(cache.make_key(in.traffic.row(i)), i);
  r.add("serve.cache.lookup_us", per_call_us([&] {
          cache.lookup(cache.make_key(in.traffic.row(row)));
          row = (row + 1) % rows;
        }),
        "us");
}

}  // namespace perfbench
