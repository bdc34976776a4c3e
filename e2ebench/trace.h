// Timing and span recording for the end-to-end benchmark.
//
// Spans are kept in memory and written as one JSON document when the run
// ends, so recording one costs a vector append. Only the benchmark's own
// code records spans, around its calls into the program's layers.

#ifndef E2EBENCH_TRACE_H_
#define E2EBENCH_TRACE_H_

#include <sys/resource.h>

#include <chrono>
#include <cstdio>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

inline int64_t NanosSinceEpoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// getrusage(RUSAGE_SELF) figures the benchmark reports.
struct Usage {
  double user_s = 0.0;
  double sys_s = 0.0;
  long minor_faults = 0;
  long max_rss_kb = 0;
};

inline Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
                 static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  usage.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
                static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  usage.minor_faults = ru.ru_minflt;
  usage.max_rss_kb = ru.ru_maxrss;
  return usage;
}

/// In-memory span log: a name, a start, an end and the parent span's id
/// (-1 for a root). Disabled logs record nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {
    origin_ = Clock::now();
  }

  bool enabled() const { return enabled_; }

  /// Opens a span now and returns its id (-1 when disabled).
  int Begin(const std::string& name, int parent) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, Clock::now(), Clock::time_point()});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end = Clock::now();
  }

  /// Records a span whose bounds were measured elsewhere.
  int Add(const std::string& name, int parent, Clock::time_point start,
          Clock::time_point end) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, start, end});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// The spans as a JSON array; times are microseconds since the log was
  /// created. Span names are the benchmark's own identifiers and need no
  /// escaping.
  std::string ToJson() const {
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "%s\n{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                    "\"start_us\": %.3f, \"end_us\": %.3f}",
                    i == 0 ? "" : ",", i, span.name.c_str(), span.parent,
                    Micros(span.start), Micros(span.end));
      out += line;
    }
    out += "\n]\n";
    return out;
  }

 private:
  double Micros(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  struct Span {
    std::string name;
    int parent;
    Clock::time_point start;
    Clock::time_point end;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Scoped span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int parent)
      : log_(log), id_(log->Begin(name, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace e2ebench

#endif  // E2EBENCH_TRACE_H_
