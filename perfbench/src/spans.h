// In-memory span recording for the traced run.
//
// The benchmark wraps each call it makes into a layer of the program in
// a span: name, start, end, parent span and request id. Spans stay in
// memory while the run measures and are written out as JSON lines when
// it ends. A span's self time is its duration minus the part of it that
// its child spans cover.

#ifndef PERFBENCH_SRC_SPANS_H_
#define PERFBENCH_SRC_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 for a root span.
  uint64_t request = 0;
  const char* name = "";
  uint64_t start_ns = 0;  ///< Since the recorder's epoch.
  uint64_t end_ns = 0;
  /// Placed from a duration the program reported, not timed here (the
  /// storage stages inside one Ingest call, laid back to back).
  bool placed = false;
};

/// Thread-safe span sink. Ids are assigned at Begin; Close stores the
/// finished record.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  uint64_t NowNs() const;
  uint64_t NextId();
  void Add(const SpanRecord& record);

  /// Self time per span, in the order spans were added.
  std::map<std::string, std::vector<uint64_t>> SelfTimesByName() const;
  /// Durations per span name.
  std::map<std::string, std::vector<uint64_t>> DurationsByName() const;

  /// Writes one JSON object per line; false when the file cannot be
  /// written.
  bool WriteJsonLines(const std::string& path) const;

  size_t size() const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  uint64_t next_id_ = 1;
};

/// RAII span: opens at construction, records at End() or destruction.
class Span {
 public:
  Span(SpanRecorder* recorder, const char* name, uint64_t request,
       uint64_t parent = 0);
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void End();
  uint64_t id() const { return record_.id; }
  uint64_t start_ns() const { return record_.start_ns; }
  uint64_t duration_ns() const { return record_.end_ns - record_.start_ns; }

 private:
  SpanRecorder* recorder_;
  SpanRecord record_;
  bool open_ = true;
};

/// Median of `values` (0 when empty); reorders its argument.
double Median(std::vector<uint64_t> values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SPANS_H_
