#include "trace.hpp"

#include <algorithm>
#include <fstream>

namespace perfbench {

std::vector<std::int64_t> Tracer::self_ns() const {
  // Children of one parent are sequential on the coordinating thread, so
  // their union is the sum of their clipped durations.
  std::vector<std::int64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent == kNoParent) {
      continue;
    }
    const Span& p = spans_[s.parent];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      self[s.parent] -= hi - lo;
    }
  }
  return self;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::map<std::string, double> out;
  const std::vector<std::int64_t> self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  const std::vector<std::int64_t> self = self_ns();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << static_cast<double>(s.start_ns) * 1e-3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ",\"args\":{\"id\":" << i << ",\"parent\":"
        << (s.parent == kNoParent ? -1 : static_cast<long long>(s.parent))
        << ",\"self_us\":" << static_cast<double>(self[i]) * 1e-3 << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench
