// Span recorder for the benchmark's traced run. Spans are recorded by the
// benchmark around its own calls into each engine layer, kept in memory,
// and written out once when the run ends; nothing inside src/ is touched.

#ifndef VDBBENCH_TRACE_H_
#define VDBBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace vdbbench {

/// One recorded call: `parent` is the enclosing span on the same thread
/// (-1 at the top), `op` the id of the top-level span that caused it, so
/// all spans of one operation share it. Times are steady-clock
/// nanoseconds since the recorder was created.
struct Span {
  int id = 0;
  int parent = -1;
  int op = 0;
  std::string name;
  std::string label;  // e.g. the TPC-H query of an Execute span
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

class Tracer {
 public:
  Tracer() : epoch_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Switch between traced and untraced rounds. Only call while no span
  /// is open on any thread.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  /// Reserves an id and returns it; the span is stored by Finish.
  int NextId() {
    std::lock_guard<std::mutex> lock(mu_);
    return next_id_++;
  }
  void Finish(Span span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
  }
  /// Spans recorded so far, in completion order.
  std::vector<Span> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  const std::chrono::steady_clock::time_point epoch_;
  bool enabled_ = false;
  std::mutex mu_;  // guards next_id_ and spans_
  int next_id_ = 0;
  std::vector<Span> spans_;
};

/// RAII span around one call. A no-op while the tracer is disabled, so the
/// untraced run pays one branch per call site. Nesting follows the
/// thread's stack of open spans.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::string label = "")
      : tracer_(tracer->enabled() ? tracer : nullptr) {
    if (tracer_ == nullptr) return;
    span_.id = tracer_->NextId();
    span_.name = name;
    span_.label = std::move(label);
    span_.parent = current_ == nullptr ? -1 : current_->span_.id;
    span_.op = current_ == nullptr ? span_.id : current_->span_.op;
    outer_ = current_;
    current_ = this;
    span_.start_ns = tracer_->NowNs();
  }
  ~ScopedSpan() {
    if (tracer_ == nullptr) return;
    span_.end_ns = tracer_->NowNs();
    current_ = outer_;
    tracer_->Finish(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void Set(const char* key, double value) {
    if (tracer_ != nullptr) span_.attrs.emplace_back(key, value);
  }

 private:
  Tracer* tracer_;
  ScopedSpan* outer_ = nullptr;
  Span span_;
  static inline thread_local ScopedSpan* current_ = nullptr;
};

}  // namespace vdbbench

#endif  // VDBBENCH_TRACE_H_
