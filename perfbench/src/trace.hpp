// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's side of each layer boundary
// (around parse_sql, compile_plan, Database::run, a service round trip)
// plus the operator self-times the engine already reports, kept in memory
// while the run measures, and written out once when it ends. All spans of
// one request share its `request` id; `parent` is the index of the span
// that caused it (-1 for a request's root). Not thread-safe: one thread
// records.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t request = 0;
    std::int64_t parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  /// Records a span and returns its index (for children's `parent`).
  std::int64_t add(std::string name, std::uint64_t request,
                   std::int64_t parent, double start_s, double end_s) {
    spans_.push_back({std::move(name), request, parent, start_s, end_s});
    return static_cast<std::int64_t>(spans_.size()) - 1;
  }
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// Writes the spans as a JSON array; false when the file cannot be written.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    out << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << (i ? ",\n" : "") << "{\"id\": " << i << ", \"name\": \""
          << s.name << "\", \"request\": " << s.request
          << ", \"parent\": " << s.parent << ", \"start_us\": "
          << static_cast<std::int64_t>(s.start_s * 1e6)
          << ", \"end_us\": " << static_cast<std::int64_t>(s.end_s * 1e6)
          << "}";
    }
    out << "\n]\n";
    return static_cast<bool>(out);
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
