#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) throw std::invalid_argument("percentile of empty sample");
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(std::vector<double> xs) { return percentile(std::move(xs), 50); }

bool percentile_supported(std::size_t n, double p) {
  // Samples strictly beyond the p-th percentile: n * (100 - p) / 100.
  // Integer arithmetic in hundredths of a percent avoids 0.1-style
  // rounding deciding the boundary case.
  const auto beyond_x1e4 = static_cast<long long>(n) *
                           std::llround((100.0 - p) * 100.0);
  return beyond_x1e4 >= 10LL * 100 * 100;
}

std::optional<Tail> supported_tail(const std::vector<double>& xs) {
  for (const double p : {99.99, 99.9, 99.0, 90.0, 50.0}) {
    if (percentile_supported(xs.size(), p))
      return Tail{p, percentile(xs, p), xs.size()};
  }
  return std::nullopt;
}

Outcomes& Outcomes::operator+=(const Outcomes& o) {
  attempted += o.attempted;
  served += o.served;
  served_in_slo += o.served_in_slo;
  mismatched += o.mismatched;
  return *this;
}

double failed_frac(const Outcomes& o) {
  if (o.attempted == 0) throw std::invalid_argument("no attempted requests");
  return static_cast<double>(o.failed()) / static_cast<double>(o.attempted);
}

double slo_met_frac(const Outcomes& o) {
  if (o.attempted == 0) throw std::invalid_argument("no attempted requests");
  return static_cast<double>(o.served_in_slo) /
         static_cast<double>(o.attempted);
}

std::vector<double> self_times_ms(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int64_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
      children[static_cast<std::size_t>(p)].push_back(i);
  }
  std::vector<double> self(spans.size());
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double s = spans[i].start_ms;
    const double e = spans[i].end_ms;
    iv.clear();
    for (const std::size_t c : children[i]) {
      const double cs = std::max(s, spans[c].start_ms);
      const double ce = std::min(e, spans[c].end_ms);
      if (ce > cs) iv.emplace_back(cs, ce);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double run_s = 0.0;
    double run_e = -1.0;
    bool open = false;
    for (const auto& [cs, ce] : iv) {
      if (open && cs <= run_e) {
        run_e = std::max(run_e, ce);
        continue;
      }
      if (open) covered += run_e - run_s;
      run_s = cs;
      run_e = ce;
      open = true;
    }
    if (open) covered += run_e - run_s;
    self[i] = std::max(0.0, (e - s) - covered);
  }
  return self;
}

SpanLog::SpanLog(bool enabled) : enabled_(enabled) {}

std::int64_t SpanLog::begin(const char* name, std::int64_t parent,
                            std::uint64_t id) {
  if (!enabled_) return -1;
  const double t = now_ms();
  std::lock_guard lock(mu_);
  spans_.push_back({name, t, t, parent, id});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::end(std::int64_t handle) {
  if (!enabled_ || handle < 0) return;
  const double t = now_ms();
  std::lock_guard lock(mu_);
  spans_[static_cast<std::size_t>(handle)].end_ms = t;
}

std::int64_t SpanLog::add(const char* name, double start_ms, double end_ms,
                          std::int64_t parent, std::uint64_t id) {
  if (!enabled_) return -1;
  std::lock_guard lock(mu_);
  spans_.push_back({name, start_ms, end_ms, parent, id});
  return static_cast<std::int64_t>(spans_.size() - 1);
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void SpanLog::write_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  const std::vector<double> self = self_times_ms(all);
  struct Totals {
    std::size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Totals> by_name;
  for (std::size_t i = 0; i < all.size(); ++i) {
    Totals& t = by_name[all[i].name];
    ++t.count;
    t.total_ms += all[i].end_ms - all[i].start_ms;
    t.self_ms += self[i];
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"layers\": {");
  bool first = true;
  for (const auto& [name, t] : by_name) {
    std::fprintf(f, "%s\n  %s: {\"count\": %zu, \"total_ms\": %s, "
                    "\"self_ms\": %s}",
                 first ? "" : ",", json_string(name).c_str(), t.count,
                 json_number(t.total_ms).c_str(),
                 json_number(t.self_ms).c_str());
    first = false;
  }
  // Per-request spans run to millions; the file keeps the first
  // kWrittenPerName of each name (the totals above cover all of them).
  constexpr std::size_t kWrittenPerName = 20000;
  std::map<std::string, std::size_t> written;
  std::fprintf(f, "},\n\"spans\": [");
  first = true;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    if (++written[s.name] > kWrittenPerName) continue;
    std::fprintf(f, "%s\n  {\"index\": %zu, \"name\": %s, \"start\": %s, "
                    "\"end\": %s, \"parent\": %lld, \"id\": %llu}",
                 first ? "" : ",", i, json_string(s.name).c_str(),
                 json_number(s.start_ms).c_str(),
                 json_number(s.end_ms).c_str(),
                 static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.id));
    first = false;
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

void Report::add(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

std::string Report::table() const {
  std::ostringstream out;
  for (const Metric& m : metrics_)
    out << "  " << m.name << " = " << json_number(m.value) << ' ' << m.unit
        << '\n';
  return out.str();
}

std::string Report::json_line(bool correct, std::size_t attempted,
                              std::size_t failed) const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i == 0 ? "" : ", ") << json_string(m.name)
        << ": {\"value\": " << json_number(m.value)
        << ", \"unit\": " << json_string(m.unit) << '}';
  }
  out << "}}";
  return out.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace perfbench
