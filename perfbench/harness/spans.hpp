// The benchmark's own span recorder: wall-clock spans around the calls the
// harness makes into each layer (simulator blocks, op and query issue, wire
// replay batches, directory and table probes). Spans nest through a stack,
// so each carries its parent; they stay in memory and are written out once
// the traced run ends. Disabled, open() and close() cost one branch.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <vector>

namespace perfbench {

class BenchSpans {
 public:
  struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< 0 = root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one. `name` must be a literal.
  void open(const char* name);
  /// Closes the innermost open span.
  void close();

  class Scope {
   public:
    Scope(BenchSpans& spans, const char* name) : spans_(spans) {
      spans_.open(name);
    }
    ~Scope() { spans_.close(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    BenchSpans& spans_;
  };

  /// {"spans": [{"id", "parent", "name", "start_ns", "end_ns"}, ...]}
  void write_json(std::ostream& os) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_ = false;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;  ///< indexes into spans_
};

}  // namespace perfbench
