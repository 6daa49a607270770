// Process-wide evaluation counters and latency histograms.
//
// The hot kernels (homomorphism search, semijoin reduction) bump these
// relaxed atomics; the engine snapshots them before and after a phase and
// reports the delta in EngineStats. Counters are global on purpose: the
// kernels are leaf routines shared by every caller, and threading a stats
// sink through every signature would tax the non-engine entry points.
//
// LatencyHistogram is the lock-free recording primitive behind the
// server's per-stage latency metrics (docs/OBSERVABILITY.md): fixed
// log-linear buckets (4 sub-buckets per power of two, so bucket bounds
// are within 25% of any value), relaxed-atomic recording from any
// thread, mergeable, with p50/p90/p99 extraction from a plain snapshot.
//
// StatField is the row type of the field tables declared next to each
// stats struct (EngineStats, ServerCounters, StorageStats, the two
// replication structs): one row names a counter once, and both the
// STATS JSON (FieldsJson) and the METRICS exposition
// (server::RequestMetrics::RenderPrometheus) are rendered from it.

#ifndef WDPT_SRC_COMMON_METRICS_H_
#define WDPT_SRC_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>

namespace wdpt::metrics {

/// Completed homomorphism searches (ForEachHomomorphism calls).
std::atomic<uint64_t>& HomomorphismCalls();

/// Pairwise semijoin reduction passes inside decomposition evaluation.
std::atomic<uint64_t>& SemijoinPasses();

/// CSR column-index probes (Relation::RowsMatching lookups). The hot
/// kernels count probes in a local variable and flush the total here
/// once per search/join call, so the shared cache line is touched once
/// per call rather than once per probe.
std::atomic<uint64_t>& CsrProbes();

/// Galloping posting-list intersections performed when an atom has two
/// or more bound columns (src/common/algo.h GallopIntersect callers).
std::atomic<uint64_t>& GallopIntersections();

/// High-water mark, in bytes, across all kernel scratch Arenas in the
/// process (src/common/arena.h). A maximum, not a counter: it only
/// ever ratchets up.
std::atomic<uint64_t>& ArenaBytesPeak();

/// Ratchets ArenaBytesPeak() up to at least `bytes`.
void RecordArenaPeak(uint64_t bytes);

/// Relaxed snapshot helper.
inline uint64_t Load(std::atomic<uint64_t>& counter) {
  return counter.load(std::memory_order_relaxed);
}

/// Relaxed increment helper for the hot paths.
inline void Bump(std::atomic<uint64_t>& counter) {
  counter.fetch_add(1, std::memory_order_relaxed);
}

/// One row of a stats struct's field table: the key of the field in the
/// STATS JSON object, the METRICS family it is exposed as (nullptr for
/// STATS-only fields) and the member both read. A family ending in
/// `_total` is a counter, any other family a gauge.
template <typename Stats>
struct StatField {
  const char* key;
  const char* family;
  uint64_t Stats::*member;
};

/// `stats` as a single-line JSON object: one `"key":value` per row of
/// `fields`, in row order.
template <typename Stats, size_t N>
std::string FieldsJson(const Stats& stats,
                       const StatField<Stats> (&fields)[N]) {
  std::string json = "{";
  for (const StatField<Stats>& field : fields) {
    if (json.size() > 1) json += ',';
    json += '"';
    json += field.key;
    json += "\":";
    json += std::to_string(stats.*field.member);
  }
  json += '}';
  return json;
}

/// Bucket count of LatencyHistogram. Buckets 0..3 are exact ([v, v+1)
/// for v < 4); from there each power of two splits into 4 sub-buckets,
/// up to 2^63, so every uint64_t value (nanoseconds in practice) has a
/// bucket and no recording can overflow the array.
inline constexpr size_t kHistogramBuckets = 252;

/// A point-in-time copy of a LatencyHistogram, for quantile extraction
/// and rendering. Plain data: copy and aggregate freely.
struct HistogramSnapshot {
  std::array<uint64_t, kHistogramBuckets> counts{};
  uint64_t count = 0;
  uint64_t sum = 0;

  /// The q-quantile (q in [0, 1]) of the recorded values, linearly
  /// interpolated inside the containing bucket; 0 when empty. The
  /// log-linear buckets bound the relative error by 25%.
  uint64_t QuantileNs(double q) const;

  double MeanNs() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
};

/// Fixed-bucket concurrent latency histogram. Record() is wait-free
/// (three relaxed fetch_adds); readers take Snapshot() and work on the
/// plain copy. Counts are monotone, so a snapshot taken under
/// concurrent recording is a valid (if slightly stale) histogram.
class LatencyHistogram {
 public:
  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(uint64_t value) {
    counts_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
  }

  /// Adds `other`'s current contents into this histogram (per-bucket;
  /// both sides may keep recording concurrently).
  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      uint64_t c = other.counts_[i].load(std::memory_order_relaxed);
      if (c != 0) counts_[i].fetch_add(c, std::memory_order_relaxed);
    }
    count_.fetch_add(other.count_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }

  HistogramSnapshot Snapshot() const {
    HistogramSnapshot s;
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      s.counts[i] = counts_[i].load(std::memory_order_relaxed);
    }
    s.count = count_.load(std::memory_order_relaxed);
    s.sum = sum_.load(std::memory_order_relaxed);
    return s;
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// The bucket holding `value`: identity below 4, then
  /// 4 * (floor(log2 v) - 1) + (two bits below the leading bit).
  static size_t BucketIndex(uint64_t value) {
    if (value < 4) return static_cast<size_t>(value);
    int msb = 63 - std::countl_zero(value);
    size_t sub = static_cast<size_t>((value >> (msb - 2)) & 3);
    return 4 * static_cast<size_t>(msb - 1) + sub;
  }

  /// Smallest value falling into bucket `index` (inverse of BucketIndex).
  static uint64_t BucketLowerBound(size_t index) {
    if (index < 4) return index;
    int msb = static_cast<int>(index / 4) + 1;
    uint64_t sub = index % 4;
    return (4 + sub) << (msb - 2);
  }

  /// Exclusive upper bound of bucket `index` (UINT64_MAX for the last).
  static uint64_t BucketUpperBound(size_t index) {
    return index + 1 < kHistogramBuckets ? BucketLowerBound(index + 1)
                                         : UINT64_MAX;
  }

 private:
  std::array<std::atomic<uint64_t>, kHistogramBuckets> counts_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
};

}  // namespace wdpt::metrics

#endif  // WDPT_SRC_COMMON_METRICS_H_
