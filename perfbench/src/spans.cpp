#include "perfbench/src/spans.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

uint64_t SpanRecorder::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count());
}

uint64_t SpanRecorder::NextId() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanRecorder::Add(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(record);
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, std::vector<uint64_t>> SpanRecorder::SelfTimesByName()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<const SpanRecord*>> children;
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0) children[span.parent].push_back(&span);
  }
  std::map<std::string, std::vector<uint64_t>> out;
  for (const SpanRecord& span : spans_) {
    // Merge the children's intervals, clipped to the parent, and
    // subtract the covered length.
    std::vector<std::pair<uint64_t, uint64_t>> cover;
    auto it = children.find(span.id);
    if (it != children.end()) {
      for (const SpanRecord* child : it->second) {
        uint64_t lo = std::max(child->start_ns, span.start_ns);
        uint64_t hi = std::min(child->end_ns, span.end_ns);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
    }
    std::sort(cover.begin(), cover.end());
    uint64_t covered = 0, reach = 0;
    for (const auto& [lo, hi] : cover) {
      uint64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out[span.name].push_back(span.end_ns - span.start_ns - covered);
  }
  return out;
}

std::map<std::string, std::vector<uint64_t>> SpanRecorder::DurationsByName()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<uint64_t>> out;
  for (const SpanRecord& span : spans_) {
    out[span.name].push_back(span.end_ns - span.start_ns);
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& s : spans_) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"start_ns\":%llu,\"end_ns\":%llu%s}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns),
                 s.placed ? ",\"placed\":true" : "");
  }
  return std::fclose(f) == 0;
}

Span::Span(SpanRecorder* recorder, const char* name, uint64_t request,
           uint64_t parent)
    : recorder_(recorder) {
  record_.id = recorder->NextId();
  record_.parent = parent;
  record_.request = request;
  record_.name = name;
  record_.start_ns = recorder->NowNs();
}

void Span::End() {
  if (!open_) return;
  open_ = false;
  record_.end_ns = recorder_->NowNs();
  recorder_->Add(record_);
}

double Median(std::vector<uint64_t> values) {
  if (values.empty()) return 0;
  size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  double hi = static_cast<double>(values[mid]);
  if (values.size() % 2 == 1) return hi;
  double lo = static_cast<double>(
      *std::max_element(values.begin(), values.begin() + mid));
  return (lo + hi) / 2;
}

}  // namespace perfbench
