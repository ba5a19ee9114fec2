// In-memory span recorder for the traced run.
//
// A span is a named [start, end) interval on std::chrono::steady_clock with
// the index of the span that encloses it (-1 for a tick's root span) and the
// simulation tick it belongs to, so all spans of one tick share an id.
// Spans stay in memory and are written out once, after the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  long tick = 0;
  /// Free tag; Controller::tick spans carry their tick class here.
  int tag = 0;

  [[nodiscard]] double ms() const {
    return static_cast<double>(end_ns - start_ns) * 1e-6;
  }
};

class Tracer {
 public:
  [[nodiscard]] static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  /// Open a span under `parent` (-1 for none); returns its index.
  int open(const char* name, int parent, long tick, int tag = 0) {
    spans_.push_back({name, now_ns(), 0, parent, tick, tag});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  /// One JSON object per line: name, start/end (ns), parent index, tick.
  void write_jsonl(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"name\":\"" << s.name
          << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
          << ",\"parent\":" << s.parent << ",\"tick\":" << s.tick
          << ",\"tag\":" << s.tag << "}\n";
    }
  }

 private:
  std::vector<Span> spans_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, int parent, long tick,
             int tag = 0)
      : tracer_(tracer), index_(tracer.open(name, parent, tick, tag)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int index() const { return index_; }

 private:
  Tracer& tracer_;
  int index_;
};

}  // namespace perfbench
