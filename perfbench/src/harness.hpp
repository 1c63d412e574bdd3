// Measurement arithmetic shared by every workload: order statistics, the
// tail-percentile rule, outcome fractions, in-memory spans with self
// time, and the result line the benchmark prints last.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point t) {
  return std::chrono::duration<double>(Clock::now() - t).count();
}

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// Percentile by linear interpolation between closest ranks (p in
/// [0,100]). Throws on an empty sample.
double percentile(std::vector<double> xs, double p);
double median(std::vector<double> xs);

/// True when `n` samples leave at least 10 samples beyond percentile `p`.
bool percentile_supported(std::size_t n, double p);

/// The highest percentile of {99.99, 99.9, 99, 90, 50} that leaves at
/// least 10 samples beyond it, with its value and the sample count.
/// Empty when even the median is unsupported (fewer than 20 samples).
struct Tail {
  double percentile = 0.0;
  double value = 0.0;
  std::size_t n = 0;
};
std::optional<Tail> supported_tail(const std::vector<double>& xs);

// ---------------------------------------------------------------------------
// Request outcomes
// ---------------------------------------------------------------------------

/// What happened to the requests of one or more phases. Every attempted
/// request is exactly one of served / not served; a served request whose
/// answer fails the output check is also counted in `mismatched`.
struct Outcomes {
  std::size_t attempted = 0;
  std::size_t served = 0;
  std::size_t served_in_slo = 0;  ///< served within the SLO of its due time
  std::size_t mismatched = 0;

  Outcomes& operator+=(const Outcomes& o);
  /// Requests that count as failed: not served, or served wrong.
  std::size_t failed() const { return attempted - served + mismatched; }
};

/// failed / attempted. Denials, expiries, faults, drops and mismatches
/// all count; the denominator is every request attempted.
double failed_frac(const Outcomes& o);
/// served_in_slo / attempted: a denied or failed request misses the SLO.
double slo_met_frac(const Outcomes& o);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

/// One traced interval. Spans of one request or phase share `id`;
/// `parent` indexes the causing span in the log (-1 for a root).
struct Span {
  const char* name = "";  ///< a string literal
  double start_ms = 0.0;  ///< since the log's epoch
  double end_ms = 0.0;
  std::int64_t parent = -1;
  std::uint64_t id = 0;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (clipped to the span).
std::vector<double> self_times_ms(const std::vector<Span>& spans);

/// Thread-safe in-memory span log. Disabled logs record nothing and
/// return -1 handles, so untraced runs pay one branch per call site.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);
  bool enabled() const { return enabled_; }
  double now_ms() const { return ms_between(epoch_, Clock::now()); }
  double to_ms(Clock::time_point t) const { return ms_between(epoch_, t); }
  /// A fresh id for the spans of one request (0 on a disabled log).
  std::uint64_t new_id() { return enabled_ ? ++last_id_ : 0; }
  /// Open a span now; close it with end(). Returns its handle.
  std::int64_t begin(const char* name, std::int64_t parent = -1,
                     std::uint64_t id = 0);
  void end(std::int64_t handle);
  /// Record a finished span with explicit bounds.
  std::int64_t add(const char* name, double start_ms, double end_ms,
                   std::int64_t parent = -1, std::uint64_t id = 0);
  std::vector<Span> spans() const;
  /// Write per-name totals (count, total and self ms) over every span,
  /// and the spans themselves, at most 20000 per name, each with its
  /// index in the log (which `parent` refers to).
  void write_json(const std::string& path) const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> last_id_{0};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span scope; a no-op on a disabled log.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::int64_t parent = -1,
            std::uint64_t id = 0)
      : log_(log), handle_(log.begin(name, parent, id)) {}
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { log_.end(handle_); }
  std::int64_t handle() const { return handle_; }

 private:
  SpanLog& log_;
  std::int64_t handle_;
};

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics of one run, printed by name and unit.
class Report {
 public:
  void add(std::string name, double value, std::string unit);
  /// Human-readable `name = value unit` lines.
  std::string table() const;
  /// The one-line result object: {correct, attempted, failed, metrics}.
  std::string json_line(bool correct, std::size_t attempted,
                        std::size_t failed) const;

 private:
  std::vector<Metric> metrics_;
};

/// Peak resident set size of this process (getrusage), in MB.
double peak_rss_mb();

/// Shortest round-trip decimal form of a double ("nan"/"inf" as null).
std::string json_number(double v);

}  // namespace perfbench
