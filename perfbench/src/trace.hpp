#pragma once

// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded from the benchmark's own code around calls into the
// library's public functions; nothing inside the library is instrumented.
// They stay in memory until the run ends and are then written as Chrome
// trace-event JSON (load it in chrome://tracing or Perfetto). A span's self
// time is its duration minus the part of its interval its children cover.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Tracer {
 public:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Opens a span whose parent is the innermost open span. Returns its id
  /// (kNoParent when tracing is off).
  std::size_t begin(std::string name) {
    if (!enabled_) {
      return kNoParent;
    }
    const std::size_t parent = open_.empty() ? kNoParent : open_.back();
    spans_.push_back({std::move(name), now_ns(), 0, parent});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  /// Closes the innermost open span.
  void end() {
    if (!enabled_ || open_.empty()) {
      return;
    }
    spans_[open_.back()].end_ns = now_ns();
    open_.pop_back();
  }

  /// Records a closed child span of `parent` over [start_ns, end_ns) on the
  /// trace clock — used for supersteps, whose times the engine reports.
  void add(std::string name, std::int64_t start_ns, std::int64_t end_ns,
           std::size_t parent) {
    if (enabled_) {
      spans_.push_back({std::move(name), start_ns, end_ns, parent});
    }
  }

  [[nodiscard]] std::int64_t start_of(std::size_t id) const {
    return spans_.at(id).start_ns;
  }

  /// Sum of self time per span name, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes every span as a Chrome "complete" event, with its id, parent
  /// and self time in args. Returns false when the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::size_t parent = kNoParent;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  [[nodiscard]] std::vector<std::int64_t> self_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// RAII wrapper for Tracer::begin/end.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))) {}
  ~ScopedSpan() { tracer_.end(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::size_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

}  // namespace perfbench
