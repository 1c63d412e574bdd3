// Single-threaded replay of a workload's own inputs through the layers
// the engine and the trainer call internally, for the traced run's
// per-layer metrics.
#pragma once

#include <cstdint>

#include "core/calloc.hpp"
#include "harness.hpp"
#include "serve/screening.hpp"
#include "sim/collector.hpp"

namespace perfbench {

struct LayerInputs {
  cal::core::Calloc& model;  ///< the workload's trained fp32 model
  const cal::sim::Scenario& scenario;
  const cal::Tensor& traffic;  ///< the rows the workload sends, normalised
  const cal::serve::AnchorScreen& screen;
  std::size_t cache_capacity = 0;
  double mean_batch = 1.0;  ///< the engine's observed mean batch
  std::uint64_t seed = 0;
};

/// Adds core.predict_*, core.quantize_ms, nn.train_step_ms,
/// attacks.fgsm_ms, attacks.pgd_ms, kernels.*, serve.screen.distance_us
/// and serve.cache.lookup_us to `r`; prints each kernel's operation
/// count and computed bytes moved.
void measure_layers(const LayerInputs& in, Report& r, SpanLog& spans,
                    std::int64_t parent);

}  // namespace perfbench
