#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <span>
#include <stdexcept>

#include "attacks/attack.hpp"
#include "eval/harness.hpp"
#include "layers.hpp"
#include "obs/trace.hpp"
#include "serving.hpp"

namespace perfbench {
namespace {

using cal::baselines::ILocalizer;
using cal::data::FingerprintDataset;

constexpr std::size_t kServeSetups = 3;
/// train-b1's set-up is one ~30 ms survey; on a shared VM whole runs saw
/// it up to 40% slower while the rest of the run was not, so the median
/// is taken over enough surveys to span a few hundred ms.
constexpr std::size_t kTrainSetups = 15;
/// Rounds of phase A + phase B in a serving run, and how many phase A
/// rounds may be discarded before the run is invalid.
constexpr std::size_t kRounds = 16;
constexpr std::size_t kMaxDiscardedRounds = 16;
constexpr double kMinRoundRequests = 2000.0;

// Phase A rates are fixed: about a third of the parent commit's phase B
// saturation on each workload (see perfbench/README.md).
ServeConfig b3_fp32_config() {
  ServeConfig c;
  c.buildings = {2};
  c.precision = cal::serve::Precision::Fp32;
  c.pool_size = 3;
  c.open_loop_rps = 38000.0;
  return c;
}

ServeConfig fleet_int8_config() {
  ServeConfig c;
  c.buildings = {0, 2, 4};
  c.precision = cal::serve::Precision::Int8;
  c.pool_size = 2;  // + generator + reload control thread = 4 threads
  c.cache_capacity = 256;
  c.drift_window = 512;
  c.repeat_prob = 0.7;
  c.open_loop_rps = 34000.0;
  c.reload_venue = 1;  // Building 3
  return c;
}

/// train-b1's traced run serves its trained model with serve-b3-fp32's
/// lane, so the serve.* layers have numbers on every workload.
ServeConfig b1_replay_config() {
  ServeConfig c = b3_fp32_config();
  c.buildings = {0};
  c.open_loop_rps = 20000.0;
  return c;
}

std::string weights_path(const RunOptions& opt, std::size_t building) {
  return opt.out_dir + "/weights-" + opt.workload + "-b" +
         std::to_string(building + 1) + ".bin";
}

struct GridResult {
  double seconds = 0.0;
  double error_sum_m = 0.0;  ///< sum of per-cell mean errors
  double worst_m = 0.0;
  std::size_t cells = 0;
  std::size_t rows = 0;

  double robust_m() const { return error_sum_m / static_cast<double>(cells); }
  void merge(const GridResult& g) {
    seconds += g.seconds;
    error_sum_m += g.error_sum_m;
    worst_m = std::max(worst_m, g.worst_m);
    cells += g.cells;
    rows += g.rows;
  }
};

using cal::attacks::AttackKind;
constexpr AttackKind kAttacks[] = {AttackKind::Fgsm, AttackKind::Pgd,
                                   AttackKind::Mim};
constexpr double kEpsilons[] = {0.1, 0.3, 0.5};
constexpr double kPhis[] = {10.0, 50.0, 100.0};

/// The paper's Fig. 6 grid for the given attacks and epsilons (of
/// kEpsilons) x phi {10, 50, 100} on every capture. The attacked APs are
/// drawn from `seed` and the cell's position in the full grid, so a grid
/// run in parts draws the same cells as one run whole.
GridResult attack_grid(ILocalizer& victim,
                       cal::attacks::GradientSource& grads,
                       const std::vector<const FingerprintDataset*>& captures,
                       std::span<const AttackKind> kinds,
                       std::span<const double> epsilons, std::uint64_t seed,
                       SpanLog& spans, std::int64_t parent) {
  GridResult g;
  const SpanScope grid(spans, "eval.attack_grid", parent);
  const auto t0 = Clock::now();
  for (const AttackKind kind : kinds) {
    for (const double eps : epsilons) {
      const auto e = static_cast<std::size_t>(
          std::find(std::begin(kEpsilons), std::end(kEpsilons), eps) -
          std::begin(kEpsilons));
      // Position within this attack's part of the full grid.
      std::uint64_t cell = e * std::size(kPhis) * captures.size();
      for (const double phi : kPhis) {
        for (const FingerprintDataset* capture : captures) {
          cal::attacks::AttackConfig atk;
          atk.epsilon = eps;
          atk.phi_percent = phi;
          atk.selection = cal::attacks::TargetSelection::Random;
          atk.seed = seed * 1000003ULL +
                     static_cast<std::uint64_t>(kind) * 1000 + cell++;
          const SpanScope cell_span(spans, "eval.evaluate_under_attack",
                                    grid.handle(), g.cells);
          const auto stats =
              cal::eval::evaluate_under_attack(victim, *capture, kind, atk,
                                               grads);
          g.error_sum_m += stats.error_m.mean;
          g.worst_m = std::max(g.worst_m, stats.error_m.max);
          ++g.cells;
          g.rows += capture->num_samples();
        }
      }
    }
  }
  g.seconds = seconds_since(t0);
  return g;
}

double clean_error_m(ILocalizer& model, const cal::sim::Scenario& sc,
                     SpanLog& spans, std::int64_t parent) {
  double sum = 0.0;
  for (const auto& test : sc.device_tests) {
    const SpanScope span(spans, "eval.evaluate_clean", parent);
    sum += cal::eval::evaluate_clean(model, test).error_m.mean;
  }
  return sum / static_cast<double>(sc.device_tests.size());
}

void print_stats(const char* when, const cal::serve::MultiTenantStats& s) {
  const auto& a = s.aggregate;
  std::printf(
      "  engine stats %s: completed %zu, batches %zu (mean %.2f), "
      "over_quota %zu, queue_full %zu, breaker %zu, rejected-route %zu, "
      "expired %zu, faulted %zu, shed %zu, cache hits %zu, flagged %zu, "
      "screen-rejected %zu, drift flushes %zu, reload flushes %zu\n",
      when, a.completed, a.batches, a.mean_batch_size, a.over_quota,
      a.queue_full, a.breaker_denied, s.route_rejected, a.expired, a.faulted,
      a.shed, a.cache_hits, a.flagged, a.rejected, a.drift_flushes,
      s.reload_flushes);
}

/// Everything the serving phases measured.
struct ServePhases {
  ServeMeasure m;     ///< every measured round, pooled
  ServeMeasure cold;  ///< the first phase A round, on a freshly started engine
  /// Per round: phase A latency p50 / p99 and phase B throughput (tracer
  /// on, untraced); traced runs add phase B with the harness spans and
  /// with the engine's tracer off.
  std::vector<double> p50_ms, p99_ms, rps, rps_traced, rps_tracer_off;
  Outcomes discarded;  ///< phase A rounds discarded for generator lateness
  std::size_t discarded_rounds = 0;
  std::string invalid;  ///< set when too many rounds were discarded
  cal::serve::MultiTenantStats stats;

  Outcomes outcomes() const {
    Outcomes o = m.open;
    o += m.closed;
    o += discarded;
    return o;
  }
};

void append(ServeMeasure& into, const ServeMeasure& from) {
  const auto cat = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  into.open += from.open;
  into.closed += from.closed;
  cat(into.latency_ms, from.latency_ms);
  cat(into.gen_late_ms, from.gen_late_ms);
  cat(into.gen_own_late_ms, from.gen_own_late_ms);
  cat(into.submit_us, from.submit_us);
  cat(into.engine_ms, from.engine_ms);
  into.error_sum_m += from.error_sum_m;
  into.localized += from.localized;
  cat(into.publish_ms, from.publish_ms);
  cat(into.deploy_ms, from.deploy_ms);
  into.reloads += from.reloads;
}

/// kRounds rounds of phase A (open loop) and phase B (closed loop), each
/// phase_s / kRounds long. Interleaving the phases spreads each one over
/// the whole run, so a slow stretch of the machine hits one round, and
/// the reported figures are medians over rounds. The first round starts
/// on the freshly deployed engine: a cold start that overflows the queue
/// or misses the SLO counts like any other round.
ServePhases serve_phases(Deployment& d, const ServeConfig& cfg,
                         const RunOptions& opt, double phase_s,
                         SpanLog& spans, std::int64_t root) {
  ServePhases p;
  // Short runs still give every round enough requests for a p99.
  const double round_s =
      std::max(phase_s / kRounds, kMinRoundRequests / cfg.open_loop_rps);
  // Harness-only work, outside any timed region: the answer every row
  // must carry, and the request streams.
  const auto expected = expected_answers(d, cfg);
  const auto stream_a = static_cast<std::size_t>(
      std::max(1.0, std::round(cfg.open_loop_rps * round_s)));
  const auto stream_b = make_stream(d, cfg, 1U << 18, opt.seed ^ 0xB0BULL);
  SpanLog untraced(false);
  std::size_t round = 0;
  while (p.rps.size() < kRounds) {
    if (p.discarded_rounds >= kMaxDiscardedRounds) {
      p.invalid = "open-loop generator fell behind its schedule in " +
                  std::to_string(p.discarded_rounds) + " rounds";
      break;
    }
    ServeMeasure a;
    {
      const SpanScope span(spans, "phase.A", root, round);
      const std::uint64_t seed = opt.seed ^ (0xA11CEULL + round++);
      run_open_loop(d, cfg, expected, make_stream(d, cfg, stream_a, seed),
                    round_s, seed, spans, span.handle(), a);
    }
    if (round == 1) p.cold = a;
    // A round whose generator fell behind its own schedule by more than
    // the SLO measures the generator, not the system: it is discarded,
    // not reported (its requests still count as attempted and, if so,
    // failed). Lateness caused by slow submit() calls is the engine's and
    // does not count against the generator.
    const double own_p99 = percentile(a.gen_own_late_ms, 99);
    if (own_p99 > kSloMs) {
      std::printf("  phase A round discarded: generator's own p99 lateness "
                  "%.4f ms > %.0f ms\n",
                  own_p99, kSloMs);
      p.discarded += a.open;
      ++p.discarded_rounds;
      continue;
    }
    // A round that served too few requests for a p99 (a stalled engine
    // denying most of them) counts in the outcomes and the pooled
    // samples, but has no p50/p99 of its own.
    if (percentile_supported(a.latency_ms.size(), 99.0)) {
      p.p50_ms.push_back(percentile(a.latency_ms, 50));
      p.p99_ms.push_back(percentile(a.latency_ms, 99));
    } else {
      std::printf("  phase A round %zu: %zu of %zu served, too few for a "
                  "p99\n",
                  round - 1, a.open.served, a.open.attempted);
    }
    append(p.m, a);
    p.rps.push_back(run_closed_loop(d, expected, stream_b, round_s,
                                    untraced, -1, p.m));
    if (opt.trace) {
      const SpanScope b(spans, "phase.B", root, round);
      p.rps_traced.push_back(run_closed_loop(d, expected, stream_b,
                                             round_s, spans, b.handle(),
                                             p.m));
      cal::obs::Tracer::instance().set_enabled(false);
      p.rps_tracer_off.push_back(run_closed_loop(
          d, expected, stream_b, round_s, untraced, -1, p.m));
      cal::obs::Tracer::instance().set_enabled(true);
    }
  }
  p.stats = d.engine->stats();
  print_stats("after the phases", p.stats);
  return p;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// serve.*, obs.* and harness.gen_* metrics of a deployment that ran
/// serve_phases in a traced run. Reloads the first venue three more
/// times on the idle engine so every workload has deploy samples.
void add_serve_layers(Deployment& d, const ServeConfig& cfg,
                      const ServePhases& p, std::vector<double> publish_ms,
                      Report& r) {
  std::vector<double> deploy_ms = p.m.deploy_ms;
  publish_ms.insert(publish_ms.end(), p.m.publish_ms.begin(),
                    p.m.publish_ms.end());
  const Venue& v = *d.venues.front();
  for (int i = 0; i < 3; ++i) {
    const auto t0 = Clock::now();
    d.registry.reload_tenant(v.key, tenant_spec(v, cfg));
    auto snap = d.registry.publish();
    const auto t1 = Clock::now();
    d.engine->deploy(std::move(snap));
    publish_ms.push_back(ms_between(t0, t1));
    deploy_ms.push_back(ms_between(t1, Clock::now()));
  }
  const auto& a = p.stats.aggregate;
  r.add("serve.submit_us_p50", percentile(p.m.submit_us, 50), "us");
  r.add("serve.submit_us_p99", percentile(p.m.submit_us, 99), "us");
  r.add("serve.engine_latency_ms_p50", percentile(p.m.engine_ms, 50), "ms");
  r.add("serve.mean_batch", a.mean_batch_size, "rows");
  r.add("serve.batches", static_cast<double>(a.batches), "count");
  r.add("serve.denied.over_quota", static_cast<double>(a.over_quota),
        "count");
  r.add("serve.denied.queue_full", static_cast<double>(a.queue_full),
        "count");
  r.add("serve.denied.breaker_open", static_cast<double>(a.breaker_denied),
        "count");
  r.add("serve.denied.rejected", static_cast<double>(p.stats.route_rejected),
        "count");
  r.add("serve.screen.scan_ratio",
        ratio(static_cast<double>(a.anchors_scanned),
              static_cast<double>(a.anchors_scanned + a.anchors_pruned)),
        "fraction");
  r.add("serve.screen.flagged_frac",
        ratio(static_cast<double>(a.flagged), static_cast<double>(a.screened)),
        "fraction");
  r.add("serve.cache.hit_ratio",
        ratio(static_cast<double>(a.cache_hits),
              static_cast<double>(a.completed)),
        "fraction");
  r.add("serve.cache.drift_flushes", static_cast<double>(a.drift_flushes),
        "count");
  r.add("serve.reload_flushes", static_cast<double>(p.stats.reload_flushes),
        "count");
  r.add("serve.registry.publish_ms", median(publish_ms), "ms");
  r.add("serve.engine.deploy_ms", median(deploy_ms), "ms");
  std::vector<double> scrape_ms;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    const std::string text = d.engine->metrics().prometheus_text();
    scrape_ms.push_back(ms_between(t0, Clock::now()));
    if (text.empty()) throw std::runtime_error("empty metrics scrape");
  }
  r.add("obs.metrics_scrape_ms", median(scrape_ms), "ms");
  r.add("obs.tracer_overhead_frac",
        1.0 - ratio(median(p.rps), median(p.rps_tracer_off)), "fraction");
  r.add("serve.cold.latency_p99_ms", percentile(p.cold.latency_ms, 99), "ms");
  r.add("serve.cold.denied",
        static_cast<double>(p.cold.open.attempted - p.cold.open.served),
        "count");
  r.add("serve.cold.gen_late_p99_ms", percentile(p.cold.gen_late_ms, 99),
        "ms");
  r.add("harness.gen_late_p99_ms", percentile(p.m.gen_late_ms, 99), "ms");
  r.add("harness.gen_late_max_ms",
        *std::max_element(p.m.gen_late_ms.begin(), p.m.gen_late_ms.end()),
        "ms");
  r.add("harness.trace_overhead_frac",
        1.0 - ratio(median(p.rps_traced), median(p.rps)), "fraction");
}

void add_fit_layers(const FitStats& f, const std::vector<double>& scenario_ms,
                    Report& r) {
  r.add("core.fit_epochs", static_cast<double>(f.epochs), "count");
  r.add("core.fit_adaptations", static_cast<double>(f.adaptations), "count");
  r.add("core.epoch_ms", 1000.0 * f.fit_s / static_cast<double>(f.epochs),
        "ms");
  r.add("sim.scenario_ms", median(scenario_ms), "ms");
}

void print_latency(const ServePhases& p) {
  const ServeMeasure& m = p.m;
  const auto tail = supported_tail(m.latency_ms);
  std::printf("  phase A: %zu sent, %zu served, %zu within %.0f ms of due; "
              "latency p50 %.4f ms",
              m.open.attempted, m.open.served, m.open.served_in_slo, kSloMs,
              percentile(m.latency_ms, 50));
  if (tail)
    std::printf(", tail p%g %.4f ms (n=%zu)", tail->percentile, tail->value,
                tail->n);
  std::printf("; generator late p99 %.4f ms, max %.4f ms; reloads %zu; "
              "%zu rounds discarded\n",
              percentile(m.gen_late_ms, 99),
              *std::max_element(m.gen_late_ms.begin(), m.gen_late_ms.end()),
              m.reloads, p.discarded_rounds);
  std::printf("  per round: phase A p50 / p99 ms:");
  for (std::size_t r = 0; r < p.p50_ms.size(); ++r)
    std::printf(" %.4f/%.4f", p.p50_ms[r], p.p99_ms[r]);
  std::printf("\n  per round: phase B req/s:");
  for (const double rps : p.rps) std::printf(" %.0f", rps);
  std::printf("\n");
}

RunResult run_serve(const ServeConfig& cfg, const RunOptions& opt) {
  RunResult out;
  SpanLog spans(opt.trace);
  const std::int64_t root = spans.begin("workload");
  // A short fixed curriculum per venue: serving needs a trained model,
  // not the paper's full schedule.
  cal::core::CallocConfig short_cfg;
  short_cfg.num_lessons = 4;
  short_cfg.train.max_epochs_per_lesson = 5;

  // Set-up, several times: survey, short curriculum, publish, engine start.
  std::vector<double> setup_s, fit_s, scenario_ms, publish_ms;
  FitStats fit;
  std::unique_ptr<Deployment> d;
  for (std::size_t k = 0; k < kServeSetups; ++k) {
    d.reset();
    const auto t0 = Clock::now();
    const SpanScope setup(spans, "setup", root, k);
    auto next = std::make_unique<Deployment>();
    fit = {};
    for (const std::size_t b : cfg.buildings) {
      auto v = survey_venue(b, spans, setup.handle(), scenario_ms);
      const FitStats f =
          fit_venue(*v, short_cfg, weights_path(opt, b), spans, setup.handle());
      fit.fit_s += f.fit_s;
      fit.epochs += f.epochs;
      fit.adaptations += f.adaptations;
      next->venues.push_back(std::move(v));
    }
    deploy(*next, cfg, spans, setup.handle(), publish_ms);
    setup_s.push_back(seconds_since(t0));
    fit_s.push_back(fit.fit_s);
    d = std::move(next);
  }
  std::printf("  set-up x%zu: median %.4f s (Calloc::fit %.4f s, %zu epochs)\n",
              kServeSetups, median(setup_s), median(fit_s), fit.epochs);

  // Pre-deployment robustness check of every venue at its served
  // precision, with the fp32 model's own gradients.
  GridResult grid;
  double clean_sum = 0.0;
  for (const auto& v : d->venues) {
    auto fp32 = load_replica(*v);
    std::unique_ptr<ILocalizer> int8;
    ILocalizer* victim = fp32.get();
    if (cfg.precision == cal::serve::Precision::Int8) {
      int8 = fp32->quantize_int8();
      victim = int8.get();
    }
    clean_sum += clean_error_m(*victim, v->scenario, spans, root);
    grid.merge(attack_grid(*victim, *fp32->gradient_source(), {&v->merged},
                           kAttacks, kEpsilons, opt.seed + v->building, spans,
                           root));
  }
  std::printf("  robustness check: %zu cells, %zu rows in %.4f s\n",
              grid.cells, grid.rows, grid.seconds);

  ServePhases p = serve_phases(*d, cfg, opt, opt.seconds / 2.0, spans, root);
  out.invalid = p.invalid;
  if (!out.invalid.empty()) return out;
  print_latency(p);
  out.outcomes = p.outcomes();
  out.correct = out.outcomes.mismatched == 0;

  Report& e = out.end_to_end;
  e.add("setup_s", median(setup_s), "s");
  e.add("throughput_rps", median(p.rps), "req/s");
  e.add("latency_p50_ms", median(p.p50_ms), "ms");
  out.printed_only.add("latency_p99_ms", median(p.p99_ms), "ms");
  e.add("slo_met_frac", slo_met_frac(p.m.open), "fraction");
  e.add("loc_error_m", p.m.error_sum_m / static_cast<double>(p.m.localized),
        "m");
  e.add("peak_rss_mb", peak_rss_mb(), "MB");
  e.add("train_s", median(fit_s), "s");
  e.add("attack_eval_s", grid.seconds, "s");
  e.add("clean_error_m", clean_sum / static_cast<double>(d->venues.size()),
        "m");
  e.add("robust_error_m", grid.robust_m(), "m");
  e.add("worst_error_m", grid.worst_m, "m");

  if (opt.trace) {
    Report& r = out.per_layer;
    add_fit_layers(fit, scenario_ms, r);
    // Replay on Building 3 where served (its shapes are the kernels').
    const auto it = std::find_if(
        d->venues.begin(), d->venues.end(),
        [](const auto& v) { return v->building == 2; });
    const Venue& v = it != d->venues.end() ? **it : *d->venues.front();
    auto model = load_replica(v);
    measure_layers({*model, v.scenario, v.traffic,
                    d->engine->tenant_screen(v.key), cfg.cache_capacity,
                    p.stats.aggregate.mean_batch_size, opt.seed},
                   r, spans, root);
    add_serve_layers(*d, cfg, p, publish_ms, r);
  }
  spans.end(root);
  if (opt.trace)
    spans.write_json(opt.out_dir + "/spans-" + opt.workload + ".json");
  return out;
}

RunResult run_train(const RunOptions& opt) {
  RunResult out;
  SpanLog spans(opt.trace);
  const std::int64_t root = spans.begin("workload");

  // Set-up is the survey only.
  std::vector<double> setup_s, scenario_ms;
  std::unique_ptr<Venue> venue;
  for (std::size_t k = 0; k < kTrainSetups; ++k) {
    venue.reset();
    const auto t0 = Clock::now();
    venue = survey_venue(0, spans, root, scenario_ms);
    setup_s.push_back(seconds_since(t0));
  }
  std::printf("  set-up x%zu (s):", kTrainSetups);
  for (const double t : setup_s) std::printf(" %.4f", t);
  std::printf("\n");
  const cal::sim::Scenario& sc = venue->scenario;
  std::vector<const FingerprintDataset*> captures;
  for (const auto& test : sc.device_tests) captures.push_back(&test);

  // Single-fingerprint requests to the trained model from one client in
  // a closed loop: each answer must equal the batched answer for the
  // same row. Run as short chunks (one pass over every device capture)
  // after the fit and after every (attack, epsilon) block of the grid
  // below, so they sample the whole run; the figures are medians over
  // chunks.
  std::vector<cal::Tensor> inputs;
  for (const auto* test : captures) inputs.push_back(test->normalized());
  Outcomes& o = out.outcomes;
  std::vector<double> chunk_p50, chunk_rps, all_latency_ms;
  double error_sum = 0.0;
  std::size_t located = 0;
  const auto request_chunk = [&](cal::core::Calloc& model) {
    const SpanScope span(spans, "requests", root);
    std::vector<std::vector<std::size_t>> batched;
    for (const auto& x : inputs) batched.push_back(model.predict(x));
    std::vector<double> latency_ms;
    const auto t0 = Clock::now();
    for (std::size_t d = 0; d < captures.size(); ++d) {
      const FingerprintDataset& test = *captures[d];
      const cal::Tensor& x = inputs[d];
      cal::Tensor one({1, x.cols()});
      for (std::size_t row = 0; row < x.rows(); ++row) {
        std::copy(x.row(row).begin(), x.row(row).end(), one.data());
        const auto r0 = Clock::now();
        const std::int64_t req = spans.begin("core.predict", span.handle(),
                                             o.attempted);
        const std::size_t rp = model.predict(one).at(0);
        spans.end(req);
        const double ms = ms_between(r0, Clock::now());
        ++o.attempted;
        ++o.served;
        if (rp != batched[d][row]) {
          ++o.mismatched;
          continue;
        }
        latency_ms.push_back(ms);
        if (ms <= kSloMs) ++o.served_in_slo;
        const auto& rps = test.rp_positions();
        error_sum += cal::data::distance_m(rps.at(rp),
                                           rps.at(test.labels()[row]));
        ++located;
      }
    }
    chunk_rps.push_back(static_cast<double>(latency_ms.size()) /
                        seconds_since(t0));
    chunk_p50.push_back(percentile(latency_ms, 50));
    all_latency_ms.insert(all_latency_ms.end(), latency_ms.begin(),
                          latency_ms.end());
  };

  // Paper-default curriculum, then the Fig. 6 grid with the model's own
  // gradients; repeated on identical inputs until the run time is used.
  std::vector<double> train_s, attack_s;
  std::unique_ptr<cal::core::Calloc> model;
  FitStats fit;
  double clean = 0.0;
  GridResult grid;
  const auto t_work = Clock::now();
  do {
    model = std::make_unique<cal::core::Calloc>();
    const auto t0 = Clock::now();
    {
      const SpanScope span(spans, "core.fit", root);
      model->fit(sc.train);
    }
    train_s.push_back(seconds_since(t0));
    FitStats f{train_s.back(), model->report().total_epochs, 0};
    for (const auto& lesson : model->report().lessons)
      f.adaptations += lesson.adaptations;
    request_chunk(*model);
    const double c = clean_error_m(*model, sc, spans, root);
    GridResult g;
    for (const AttackKind kind : kAttacks) {
      for (const double eps : kEpsilons) {
        g.merge(attack_grid(*model, *model->gradient_source(), captures,
                            std::span(&kind, 1), std::span(&eps, 1),
                            opt.seed, spans, root));
        request_chunk(*model);
      }
    }
    attack_s.push_back(g.seconds);
    // Identical inputs must give identical models and errors.
    if (train_s.size() > 1 &&
        (f.epochs != fit.epochs || c != clean ||
         g.robust_m() != grid.robust_m() || g.worst_m != grid.worst_m)) {
      std::printf("  MISMATCH: repeated fit or grid differs on identical "
                  "inputs\n");
      ++o.mismatched;
    }
    fit = f;
    clean = c;
    grid = g;
  } while (seconds_since(t_work) < opt.seconds);
  std::printf("  %zu fit+grid rounds: fit %zu epochs, %zu adaptations; "
              "grid %zu cells, %zu rows; %zu single-fingerprint requests\n",
              train_s.size(), fit.epochs, fit.adaptations, grid.cells,
              grid.rows, o.attempted);
  std::printf("  request chunks, req/s:");
  for (const double rps : chunk_rps) std::printf(" %.0f", rps);
  std::printf("\n");
  out.correct = o.mismatched == 0;

  Report& e = out.end_to_end;
  e.add("setup_s", median(setup_s), "s");
  e.add("throughput_rps", median(chunk_rps), "req/s");
  e.add("latency_p50_ms", median(chunk_p50), "ms");
  out.printed_only.add("latency_p99_ms", percentile(all_latency_ms, 99),
                       "ms");
  e.add("slo_met_frac", slo_met_frac(o), "fraction");
  e.add("loc_error_m", error_sum / static_cast<double>(located), "m");
  e.add("peak_rss_mb", peak_rss_mb(), "MB");
  e.add("train_s", median(train_s), "s");
  e.add("attack_eval_s", median(attack_s), "s");
  e.add("clean_error_m", clean, "m");
  e.add("robust_error_m", grid.robust_m(), "m");
  e.add("worst_error_m", grid.worst_m, "m");

  if (opt.trace) {
    Report& r = out.per_layer;
    add_fit_layers(fit, scenario_ms, r);
    // Serve the trained model for the serve.* layers (traced runs only).
    const ServeConfig cfg = b1_replay_config();
    Deployment d;
    model->save_weights(weights_path(opt, 0));
    venue->model_cfg = cal::core::CallocConfig{};
    venue->weights_path = weights_path(opt, 0);
    d.venues.push_back(std::move(venue));
    std::vector<double> publish_ms;
    deploy(d, cfg, spans, root, publish_ms);
    const ServePhases p =
        serve_phases(d, cfg, opt, opt.seconds / 4.0, spans, root);
    out.invalid = p.invalid;
    if (!out.invalid.empty()) return out;
    print_latency(p);
    o += p.outcomes();
    if (p.outcomes().mismatched > 0)
      out.correct = false;
    const Venue& v = *d.venues.front();
    measure_layers({*model, v.scenario, v.traffic,
                    d.engine->tenant_screen(v.key), cfg.cache_capacity,
                    p.stats.aggregate.mean_batch_size, opt.seed},
                   r, spans, root);
    add_serve_layers(d, cfg, p, publish_ms, r);
  }
  spans.end(root);
  if (opt.trace)
    spans.write_json(opt.out_dir + "/spans-" + opt.workload + ".json");
  return out;
}

}  // namespace

RunResult run_workload(const RunOptions& opt) {
  if (opt.workload == "serve-b3-fp32") return run_serve(b3_fp32_config(), opt);
  if (opt.workload == "serve-fleet-int8")
    return run_serve(fleet_int8_config(), opt);
  if (opt.workload == "train-b1") return run_train(opt);
  throw std::invalid_argument("unknown workload " + opt.workload);
}

}  // namespace perfbench
