// In-memory span recorder for the traced run. Spans are taken around calls
// into the program's public functions from the benchmark's own code (the
// library itself carries no tracing). Each span has a name, start and end
// on one steady clock, the span that caused it and a request id; spans of
// one request share the id. The recorder keeps everything in memory and
// writes it out once, at the end of the run.
#ifndef DDUP_PERFBENCH_TRACE_H_
#define DDUP_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the recorder's spans; -1 = root
  int64_t request = -1;
};

class Tracer {
 public:
  // Spans are recorded only while enabled; a disabled tracer costs one
  // branch per call.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  // Opens a span under the calling thread's innermost open span. Returns
  // its id, or -1 when disabled.
  int64_t Begin(const std::string& name, int64_t request = -1) {
    if (!enabled_) return -1;
    std::vector<int64_t>& stack = Stack();
    Span span;
    span.name = name;
    span.start_ns = NowNs();
    span.parent = stack.empty() ? -1 : stack.back();
    span.request = request;
    int64_t id;
    {
      std::lock_guard<std::mutex> lock(mu_);
      id = static_cast<int64_t>(spans_.size());
      spans_.push_back(std::move(span));
    }
    stack.push_back(id);
    return id;
  }

  void End(int64_t id) {
    if (id < 0) return;
    const int64_t end = NowNs();
    std::vector<int64_t>& stack = Stack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = end;
  }

  // Records a span whose interval the benchmark knows but did not bracket
  // itself, such as a stage time the program reports for work inside
  // `parent` (-1: a root span). Returns its id, or -1 when disabled.
  int64_t Add(const std::string& name, int64_t parent, int64_t start_ns,
              int64_t end_ns, int64_t request = -1) {
    if (!enabled_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }

  // Per span name: count, total time and self time (duration minus the
  // part its children cover), in ms.
  struct Row {
    int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> SelfTimes() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> child_ms(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ms[static_cast<size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-6;
      }
    }
    std::map<std::string, Row> rows;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const double ms =
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) * 1e-6;
      Row& row = rows[spans_[i].name];
      ++row.count;
      row.total_ms += ms;
      row.self_ms += ms - child_ms[i];
    }
    return rows;
  }

  // One JSON object per line: name, start/end (ns), parent id, request id.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"parent\":%lld,\"request\":%lld}\n",
                   i, s.name.c_str(), static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

 private:
  static std::vector<int64_t>& Stack() {
    thread_local std::vector<int64_t> stack;
    return stack;
  }

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// Brackets one call: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int64_t request = -1)
      : tracer_(tracer), id_(tracer.Begin(name, request)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int64_t id() const { return id_; }

 private:
  Tracer& tracer_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // DDUP_PERFBENCH_TRACE_H_
