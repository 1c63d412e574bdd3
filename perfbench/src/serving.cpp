#include "serving.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>

#include <sys/prctl.h>

#include "common/rng.hpp"
#include "serve/lru_cache.hpp"
#include "serve/screening.hpp"
#include "sim/building.hpp"
#include "sim/fleet.hpp"

namespace perfbench {

using cal::serve::Admission;
using cal::serve::ServeResult;
using cal::serve::ServeStatus;
using cal::serve::Verdict;

std::uint64_t survey_seed(std::size_t building) { return 2024 + building; }

std::unique_ptr<Venue> survey_venue(std::size_t building, SpanLog& spans,
                                    std::int64_t parent,
                                    std::vector<double>& scenario_ms) {
  auto v = std::make_unique<Venue>();
  v->building = building;
  const cal::sim::BuildingSpec spec = cal::sim::table2_buildings().at(building);
  {
    SpanScope span(spans, "sim.make_scenario", parent);
    const auto t0 = Clock::now();
    v->scenario = cal::sim::make_scenario(spec, survey_seed(building));
    scenario_ms.push_back(ms_between(t0, Clock::now()));
  }
  v->merged = cal::sim::merged_device_capture(v->scenario);
  v->traffic = v->merged.normalized();
  v->key = {spec.name, 0, "OP3"};
  return v;
}

FitStats fit_venue(Venue& v, const cal::core::CallocConfig& cfg,
                   const std::string& weights_path, SpanLog& spans,
                   std::int64_t parent) {
  cal::core::Calloc model(cfg);
  FitStats out;
  {
    SpanScope span(spans, "core.fit", parent);
    const auto t0 = Clock::now();
    model.fit(v.scenario.train);
    out.fit_s = seconds_since(t0);
  }
  out.epochs = model.report().total_epochs;
  for (const auto& lesson : model.report().lessons)
    out.adaptations += lesson.adaptations;
  model.save_weights(weights_path);
  v.model_cfg = cfg;
  v.weights_path = weights_path;
  return out;
}

std::unique_ptr<cal::core::Calloc> load_replica(const Venue& v) {
  auto replica = std::make_unique<cal::core::Calloc>(v.model_cfg);
  replica->load_weights(v.weights_path, v.scenario.train);
  return replica;
}

cal::serve::TenantSpec tenant_spec(const Venue& v, const ServeConfig& cfg) {
  cal::serve::TenantSpec spec;
  const Venue* venue = &v;
  spec.factory = [venue]() -> std::unique_ptr<cal::baselines::ILocalizer> {
    return load_replica(*venue);
  };
  spec.num_aps = v.scenario.train.num_aps();
  spec.anchors = cal::serve::anchor_database_from(v.scenario.train);
  spec.service.screening =
      cal::serve::calibrate_thresholds(spec.anchors, v.traffic);
  spec.service.num_workers = cfg.pool_size;
  spec.service.max_batch = kMaxBatch;
  spec.service.queue_capacity = kQueueCapacity;
  spec.service.cache_capacity = cfg.cache_capacity;
  spec.service.drift.window = cfg.drift_window;
  spec.precision = cfg.precision;
  return spec;
}

void deploy(Deployment& d, const ServeConfig& cfg, SpanLog& spans,
            std::int64_t parent, std::vector<double>& publish_ms) {
  for (const auto& v : d.venues)
    d.registry.register_tenant(v->key, tenant_spec(*v, cfg));
  std::shared_ptr<const cal::serve::DeploymentSnapshot> snap;
  {
    SpanScope span(spans, "serve.publish", parent);
    const auto t0 = Clock::now();
    snap = d.registry.publish();
    publish_ms.push_back(ms_between(t0, Clock::now()));
  }
  SpanScope span(spans, "serve.engine_start", parent);
  cal::serve::EngineConfig ecfg;
  ecfg.pool_size = cfg.pool_size;
  d.engine = std::make_unique<cal::serve::ServeEngine>(std::move(snap), ecfg);
  d.engine->reset_telemetry_clocks();
}

std::vector<std::vector<Expected>> expected_answers(const Deployment& d,
                                                    const ServeConfig& cfg) {
  std::vector<std::vector<Expected>> out;
  const float quant_step = cal::serve::ServiceConfig{}.cache_quant_step;
  for (const auto& v : d.venues) {
    auto fp32 = load_replica(*v);
    std::unique_ptr<cal::baselines::ILocalizer> int8;
    cal::baselines::ILocalizer* model = fp32.get();
    if (cfg.precision == cal::serve::Precision::Int8) {
      int8 = fp32->quantize_int8();
      model = int8.get();
    }
    const cal::serve::AnchorScreen& screen = d.engine->tenant_screen(v->key);
    const std::size_t rows = v->traffic.rows();
    const std::size_t cols = v->traffic.cols();
    std::vector<Expected> exp(rows);
    cal::Tensor one({1, cols});
    for (std::size_t r = 0; r < rows; ++r) {
      const auto fp = v->traffic.row(r);
      std::copy(fp.begin(), fp.end(), one.data());
      exp[r].rp = model->predict(one).at(0);
      exp[r].verdict = screen.classify(screen.distance(fp));
    }
    if (cfg.cache_capacity > 0) {
      const cal::serve::FingerprintCache keys(cfg.cache_capacity, quant_step);
      std::map<cal::serve::FingerprintCache::Key, std::vector<std::size_t>>
          answers;
      std::vector<cal::serve::FingerprintCache::Key> row_key(rows);
      for (std::size_t r = 0; r < rows; ++r) {
        row_key[r] = keys.make_key(v->traffic.row(r));
        answers[row_key[r]].push_back(exp[r].rp);
      }
      for (std::size_t r = 0; r < rows; ++r)
        exp[r].cached = answers[row_key[r]];
    }
    out.push_back(std::move(exp));
  }
  return out;
}

bool answer_ok(const Expected& e, const ServeResult& r) {
  if (r.status != ServeStatus::Served || r.verdict != e.verdict) return false;
  if (e.verdict == Verdict::Reject) return !r.localized;
  if (!r.localized) return false;
  if (r.from_cache)
    return std::find(e.cached.begin(), e.cached.end(), r.rp) != e.cached.end();
  return r.rp == e.rp;
}

std::vector<Request> make_stream(const Deployment& d, const ServeConfig& cfg,
                                 std::size_t n, std::uint64_t seed) {
  std::vector<Request> out(n);
  std::vector<cal::sim::Scenario> fleet;
  // Merged-capture row of each (venue, device) test set's first row.
  std::vector<std::vector<std::size_t>> offset;
  for (const auto& v : d.venues) {
    fleet.push_back(v->scenario);
    std::vector<std::size_t> off;
    std::size_t acc = 0;
    for (const auto& test : v->scenario.device_tests) {
      off.push_back(acc);
      acc += test.num_samples();
    }
    offset.push_back(std::move(off));
  }
  const auto stream =
      cal::sim::fleet_request_stream(fleet, n, seed, cfg.repeat_prob);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].venue = static_cast<std::uint32_t>(stream[i].venue);
    out[i].row = static_cast<std::uint32_t>(
        offset[stream[i].venue][stream[i].device] + stream[i].row);
  }
  return out;
}

namespace {

/// Account one resolved request: served or not, checked, located.
bool account(const Venue& v, const Expected& e, std::uint32_t row,
             const ServeResult& res, Outcomes& o, ServeMeasure& m) {
  if (res.status != ServeStatus::Served) return false;
  ++o.served;
  if (!answer_ok(e, res)) {
    ++o.mismatched;
    return false;
  }
  if (res.localized) {
    const auto& rps = v.merged.rp_positions();
    m.error_sum_m += cal::data::distance_m(rps.at(res.rp),
                                           rps.at(v.merged.labels()[row]));
    ++m.localized;
  }
  return true;
}

std::vector<float> fingerprint(const Venue& v, std::uint32_t row) {
  const auto fp = v.traffic.row(row);
  return {fp.begin(), fp.end()};
}

/// Hot-reloads cfg.reload_venue (reload_tenant -> publish -> deploy)
/// every kReloadIntervalMs x U(0.5, 1.5), drawn from the seed, from its
/// own control thread. The control thread owns the registry while it
/// runs, so publish() never lands on the generator's send schedule.
class Reloader {
 public:
  Reloader(Deployment& d, const ServeConfig& cfg, Clock::time_point t0,
           std::uint64_t seed, SpanLog& spans, std::int64_t parent,
           ServeMeasure& m)
      : thread_([&d, &cfg, t0, seed, &spans, parent, &m, this] {
          try {
            loop(d, cfg, t0, seed, spans, parent, m);
          } catch (...) {
            failure_ = std::current_exception();
          }
        }) {}
  Reloader(const Reloader&) = delete;
  Reloader& operator=(const Reloader&) = delete;
  ~Reloader() { stop(); }

  /// Stop, join, and rethrow a failure of the control thread.
  void finish() {
    stop();
    if (failure_) std::rethrow_exception(failure_);
  }

 private:
  void stop() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  void loop(Deployment& d, const ServeConfig& cfg, Clock::time_point next,
            std::uint64_t seed, SpanLog& spans, std::int64_t parent,
            ServeMeasure& m) {
    const Venue& v = *d.venues.at(*cfg.reload_venue);
    cal::Rng rng(seed ^ 0x5E10ADULL);
    for (;;) {
      next += std::chrono::microseconds(std::llround(
          1000.0 * kReloadIntervalMs * rng.uniform(0.5, 1.5)));
      {
        std::unique_lock lock(mu_);
        if (cv_.wait_until(lock, next, [&] { return stop_; })) return;
      }
      const std::int64_t reload = spans.begin("serve.reload", parent);
      const auto r0 = Clock::now();
      d.registry.reload_tenant(v.key, tenant_spec(v, cfg));
      auto snap = d.registry.publish();
      const auto r1 = Clock::now();
      d.engine->deploy(std::move(snap));
      const auto r2 = Clock::now();
      spans.end(reload);
      spans.add("serve.publish", spans.to_ms(r0), spans.to_ms(r1), reload);
      spans.add("serve.deploy", spans.to_ms(r1), spans.to_ms(r2), reload);
      m.publish_ms.push_back(ms_between(r0, r1));
      m.deploy_ms.push_back(ms_between(r1, r2));
      ++m.reloads;
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::exception_ptr failure_;
  std::thread thread_;  // last: starts after the members it uses
};

}  // namespace

void run_open_loop(Deployment& d, const ServeConfig& cfg,
                   const std::vector<std::vector<Expected>>& expected,
                   const std::vector<Request>& stream, double seconds,
                   std::uint64_t seed, SpanLog& spans, std::int64_t parent,
                   ServeMeasure& m) {
  cal::serve::ServeEngine& engine = *d.engine;
  const auto n = static_cast<std::size_t>(
      std::max(1.0, std::round(cfg.open_loop_rps * seconds)));
  struct Sent {
    Request req;
    Admission admission = Admission::Rejected;
    Clock::time_point due, start, end;
    std::future<ServeResult> result;
  };
  std::vector<Sent> sent;
  sent.reserve(n);

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  std::optional<Reloader> reloader;
  if (cfg.reload_venue) reloader.emplace(d, cfg, t0, seed, spans, parent, m);

  // The generator sleeps until each due time rather than spinning: a
  // spinning generator keeps a fourth core busy, and on a shared host the
  // workers then wait for a core whenever one is taken away. A 1 ns timer
  // slack keeps the wake-ups close to the schedule (Linux).
  prctl(PR_SET_TIMERSLACK, 1UL);
  const double period_ns = 1e9 / cfg.open_loop_rps;
  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point due =
        t0 + std::chrono::nanoseconds(
                 std::llround(period_ns * static_cast<double>(i)));
    Clock::time_point now = Clock::now();
    if (due > now) {
      std::this_thread::sleep_until(due);
      now = Clock::now();
    }
    const Request req = stream[i % stream.size()];
    const Venue& v = *d.venues[req.venue];
    auto sub = engine.submit(v.key, fingerprint(v, req.row));
    sent.push_back({req, sub.admission, due, now, Clock::now(),
                    std::move(sub.result)});
  }
  if (reloader) reloader->finish();

  // Every timestamp above is taken in untraced runs too, so the spans
  // are built afterwards and cost the measured loop nothing.
  Clock::time_point own = Clock::time_point::min();
  for (std::size_t i = 0; i < sent.size(); ++i) {
    Sent& s = sent[i];
    ++m.open.attempted;
    m.gen_late_ms.push_back(ms_between(s.due, s.start));
    // The generator's own delay before this send: from when it was free
    // (previous submit returned) and the request was due, to the send.
    const Clock::time_point ready =
        i == 0 ? s.due : std::max(s.due, sent[i - 1].end);
    own = std::max(s.due, own) + std::max(Clock::duration::zero(),
                                          s.start - ready);
    const double own_late_ms = ms_between(s.due, own);
    m.gen_own_late_ms.push_back(own_late_ms);
    m.submit_us.push_back(1000.0 * ms_between(s.start, s.end));
    const ServeResult res = s.result.get();
    // Due -> send, then ServeResult::latency_ms from admission inside
    // submit() to ready. The part of submit() before admission is left
    // out (serve.submit_us reports it). The generator's own lateness is
    // the harness's, not the system's, and is left out; lateness from
    // earlier slow submit() calls stays in.
    const double from_due =
        ms_between(s.due, s.start) - own_late_ms +
        (s.admission == Admission::Accepted ? res.latency_ms : 0.0);
    if (spans.enabled()) {
      const double due_ms = spans.to_ms(s.due);
      const std::uint64_t id = spans.new_id();
      const std::int64_t request =
          spans.add("request", due_ms, due_ms + from_due, parent, id);
      spans.add("serve.submit", spans.to_ms(s.start), spans.to_ms(s.end),
                request, id);
    }
    const Venue& v = *d.venues[s.req.venue];
    if (!account(v, expected[s.req.venue][s.req.row], s.req.row, res, m.open,
                 m))
      continue;
    m.latency_ms.push_back(from_due);
    m.engine_ms.push_back(res.latency_ms);
    if (from_due <= kSloMs) ++m.open.served_in_slo;
  }
}

double run_closed_loop(Deployment& d,
                       const std::vector<std::vector<Expected>>& expected,
                       const std::vector<Request>& stream, double seconds,
                       SpanLog& spans, std::int64_t parent, ServeMeasure& m) {
  cal::serve::ServeEngine& engine = *d.engine;
  struct InFlight {
    Request req;
    std::future<ServeResult> result;
    std::int64_t span = -1;
  };
  std::deque<InFlight> inflight;
  std::size_t next = 0;
  std::size_t served_in_window = 0;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::nanoseconds(std::llround(seconds * 1e9));
  Clock::time_point last = start;

  const auto resolve = [&](InFlight& f) {
    const ServeResult res = f.result.get();
    spans.end(f.span);
    const Venue& v = *d.venues[f.req.venue];
    account(v, expected[f.req.venue][f.req.row], f.req.row, res, m.closed,
            m);
    return res.status == ServeStatus::Served;
  };
  for (Clock::time_point now = start; now < deadline; now = Clock::now()) {
    while (inflight.size() < kWindow) {
      const Request req = stream[next++ % stream.size()];
      const Venue& v = *d.venues[req.venue];
      const std::uint64_t id = spans.new_id();
      const std::int64_t request = spans.begin("request", parent, id);
      const std::int64_t submit = spans.begin("serve.submit", request, id);
      auto sub = engine.submit(v.key, fingerprint(v, req.row));
      spans.end(submit);
      ++m.closed.attempted;
      inflight.push_back({req, std::move(sub.result), request});
    }
    const bool served = resolve(inflight.front());
    inflight.pop_front();
    if (served) ++served_in_window;
    last = Clock::now();
  }
  const double window_s = std::chrono::duration<double>(last - start).count();
  while (!inflight.empty()) {
    resolve(inflight.front());
    inflight.pop_front();
  }
  if (window_s <= 0.0) throw std::runtime_error("empty closed-loop window");
  return static_cast<double>(served_in_window) / window_s;
}

}  // namespace perfbench
