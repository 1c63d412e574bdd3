// The serving side of the benchmark: venue set-up (survey, short
// curriculum, weights on disk), deployment through ModelRegistry and
// ServeEngine, the open-loop and closed-loop load phases, and the output
// check every served row goes through.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/calloc.hpp"
#include "harness.hpp"
#include "serve/engine.hpp"
#include "serve/registry.hpp"
#include "sim/collector.hpp"

namespace perfbench {

/// Latency limit of the open-loop phase, measured from each request's
/// due time.
inline constexpr double kSloMs = 5.0;

/// Survey seed of Table II building `b`. The venue datasets are fixed,
/// like the paper's collected ones; the workload seed drives everything
/// drawn at run time (request picks, fleet streams, attacked APs, reload
/// cadence).
std::uint64_t survey_seed(std::size_t building);

/// Lane settings every serving workload shares.
inline constexpr std::size_t kMaxBatch = 32;
inline constexpr std::size_t kQueueCapacity = 4096;
inline constexpr std::size_t kWindow = 256;  ///< phase B in-flight bound
/// Mean interval between hot reloads (each drawn in [0.5, 1.5] x this).
inline constexpr double kReloadIntervalMs = 250.0;

/// One serving workload's configuration.
struct ServeConfig {
  std::vector<std::size_t> buildings;  ///< Table II indices, one tenant each
  cal::serve::Precision precision = cal::serve::Precision::Fp32;
  std::size_t pool_size = 3;  ///< engine threads = replica slots per tenant
  std::size_t cache_capacity = 0;
  std::size_t drift_window = 0;
  /// sim::fleet_request_stream's repeat probability; 0 gives fresh uniform
  /// rows of the merged device capture.
  double repeat_prob = 0.0;
  double open_loop_rps = 0.0;  ///< phase A rate
  /// Venue hot-reloaded (reload_tenant -> publish -> deploy) during
  /// phase A from a control thread.
  std::optional<std::size_t> reload_venue;
};

/// One tenant: its survey, trained weights on disk, and request pool.
struct Venue {
  std::size_t building = 0;
  cal::sim::Scenario scenario;
  cal::data::FingerprintDataset merged;  ///< every device capture
  cal::Tensor traffic;                   ///< merged, normalised
  cal::core::CallocConfig model_cfg;
  std::string weights_path;
  cal::serve::TenantKey key;
};

/// Survey a venue (timed as sim.scenario).
std::unique_ptr<Venue> survey_venue(std::size_t building, SpanLog& spans,
                                    std::int64_t parent,
                                    std::vector<double>& scenario_ms);

/// Curriculum statistics of the set-up fits.
struct FitStats {
  double fit_s = 0.0;
  std::size_t epochs = 0;
  std::size_t adaptations = 0;
};

/// Train `v` with `cfg` and write its weights to `weights_path`.
FitStats fit_venue(Venue& v, const cal::core::CallocConfig& cfg,
                   const std::string& weights_path, SpanLog& spans,
                   std::int64_t parent);

/// A fresh replica of the venue's trained model (fp32).
std::unique_ptr<cal::core::Calloc> load_replica(const Venue& v);

/// Registry + engine serving a set of venues. Members are destroyed
/// engine first, then registry, then venues (the factories borrow them).
struct Deployment {
  std::vector<std::unique_ptr<Venue>> venues;
  cal::serve::ModelRegistry registry;
  std::unique_ptr<cal::serve::ServeEngine> engine;
};

cal::serve::TenantSpec tenant_spec(const Venue& v, const ServeConfig& cfg);

/// Register every venue, publish, start the engine. Records the publish
/// and engine-start times.
void deploy(Deployment& d, const ServeConfig& cfg, SpanLog& spans,
            std::int64_t parent, std::vector<double>& publish_ms);

/// The answer a served row must carry.
struct Expected {
  std::size_t rp = 0;
  cal::serve::Verdict verdict = cal::serve::Verdict::Accept;
  /// Sequential answers of every row sharing this row's cache key: a
  /// cache hit must return one of them.
  std::vector<std::size_t> cached;
};

/// Sequential predict (at the tenant's precision), the deployed screen's
/// verdict, and the cache-key answer set for every traffic row.
std::vector<std::vector<Expected>> expected_answers(const Deployment& d,
                                                    const ServeConfig& cfg);

/// Whether a served result matches its expectation.
bool answer_ok(const Expected& e, const cal::serve::ServeResult& r);

/// One request of a generated stream.
struct Request {
  std::uint32_t venue = 0;
  std::uint32_t row = 0;
};

/// `n` requests drawn from `seed` by sim::fleet_request_stream.
std::vector<Request> make_stream(const Deployment& d, const ServeConfig& cfg,
                                 std::size_t n, std::uint64_t seed);

/// Measurements of the load phases.
struct ServeMeasure {
  Outcomes open;     ///< phase A
  Outcomes closed;   ///< phase B
  std::vector<double> latency_ms;     ///< phase A, due -> ready, served only
  std::vector<double> gen_late_ms;    ///< phase A send lateness
  /// Lateness the generator would have had if every submit() returned
  /// at once: its own bookkeeping and preemption, without the engine's.
  std::vector<double> gen_own_late_ms;
  std::vector<double> submit_us;      ///< phase A submit() cost
  std::vector<double> engine_ms;      ///< phase A ServeResult::latency_ms
  double error_sum_m = 0.0;           ///< localised results, both phases
  std::size_t localized = 0;
  std::vector<double> publish_ms;     ///< reloads during phase A
  std::vector<double> deploy_ms;
  std::size_t reloads = 0;
};

/// Phase A: open loop at cfg.open_loop_rps for `seconds`, timed from due
/// times, with the control thread reloading cfg.reload_venue if set.
void run_open_loop(Deployment& d, const ServeConfig& cfg,
                   const std::vector<std::vector<Expected>>& expected,
                   const std::vector<Request>& stream, double seconds,
                   std::uint64_t seed, SpanLog& spans, std::int64_t parent,
                   ServeMeasure& m);

/// Phase B: closed loop from one generator with at most kWindow requests
/// in flight, for `seconds`. Returns Served per second.
double run_closed_loop(Deployment& d,
                       const std::vector<std::vector<Expected>>& expected,
                       const std::vector<Request>& stream, double seconds,
                       SpanLog& spans, std::int64_t parent, ServeMeasure& m);

}  // namespace perfbench
