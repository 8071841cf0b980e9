#include "spans.hpp"

#include <ostream>

namespace perfbench {

std::int64_t BenchSpans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

void BenchSpans::open(const char* name) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : spans_[open_.back()].id;
  span.start_ns = now_ns();
  open_.push_back(spans_.size());
  spans_.push_back(span);
}

void BenchSpans::close() {
  if (!enabled_ || open_.empty()) return;
  spans_[open_.back()].end_ns = now_ns();
  open_.pop_back();
}

void BenchSpans::write_json(std::ostream& os) const {
  os << "{\"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i == 0 ? "\n" : ",\n") << "{\"id\": " << s.id
       << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
       << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
       << '}';
  }
  os << "\n]}\n";
}

}  // namespace perfbench
