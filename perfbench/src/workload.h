// Workload definitions for the end-to-end server benchmark: the music
// catalog, the query shapes, the seeded request stream and
// the seeded INGEST op stream.
//
// Everything here is a pure function of (workload, seed): the server
// only ever receives the generated query text and ingest bodies.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "src/server/client.h"

namespace perfbench {

/// The eight query shapes. The first five are the loadgen's scan mix;
/// the last three are keyed by one band and make up the point mix.
enum class Shape : uint8_t {
  kStd,      ///< Standard enumeration of the base query.
  kMax,      ///< Maximal enumeration of the base query.
  kLim10,    ///< Standard enumeration capped at 10 rows.
  kFig1,     ///< The Fig. 1 two-OPT query.
  kCand,     ///< Candidate EVAL of a fixed mapping on the base query.
  kPoint,    ///< Enumeration of the base query with the band bound.
  kPcand,    ///< Candidate EVAL of one recording of the band.
  kPartial,  ///< PARTIAL-EVAL of ?band=bandK on the base query.
};
inline constexpr size_t kShapeCount = 8;

const char* ShapeName(Shape shape);
bool IsKeyed(Shape shape);

/// One generated request: a shape plus, for keyed shapes, the band.
struct Request {
  Shape shape = Shape::kStd;
  uint32_t band = 0;
};

/// The query frame a request is sent as.
wdpt::server::QueryCall MakeCall(const Request& request, bool cache_bypass);

struct WorkloadSpec {
  const char* name;
  uint32_t bands;
  std::vector<Shape> shapes;
  /// Every query carries `cache-control: bypass`.
  bool cache_bypass;
  /// Reads sent between two INGEST batches: whole rounds of the mix.
  unsigned reads_per_write;

  /// Untimed requests during set-up.
  unsigned warmup_requests;
};

/// The spec named `name`, or null.
const WorkloadSpec* FindWorkload(std::string_view name);
std::vector<std::string> WorkloadNames();

/// The loadgen's deterministic catalog: every band records four
/// titles; ratings, recency and formation years have fixed gaps.
std::string CatalogTriples(uint32_t bands);

/// Zipf(s) over ranks 1..n, sampled by inverse CDF; rank r is band r-1.
class Zipf {
 public:
  Zipf(uint32_t n, double s);
  uint32_t Sample(std::mt19937_64& rng) const;

 private:
  std::vector<double> cdf_;
};

/// The reader's request sequence: shapes in seeded shuffled rounds (each
/// round holds every shape of the mix once, so shares are exact) and
/// Zipf(1.0) band keys.
class RequestStream {
 public:
  RequestStream(const WorkloadSpec& spec, uint64_t seed);
  Request Next();

 private:
  std::mt19937_64 rng_;
  Zipf zipf_;
  std::vector<Shape> round_;
  size_t next_ = 0;
};

/// The INGEST op stream: kSets disjoint sets of kTriplesPerSet triples
/// that are absent from the catalog and use only catalog terms. The
/// imported data holds set 0; batch k (k >= 1) removes set (k-1) mod
/// kSets and adds set k mod kSets, so every batch is 10 effective ops,
/// |D| stays constant, and the state after batch k is the catalog plus
/// set k mod kSets.
class IngestPlan {
 public:
  static constexpr size_t kSets = 4;
  static constexpr size_t kTriplesPerSet = 5;

  IngestPlan(uint32_t bands, uint64_t seed);

  /// The triples of set j, one "s p o" line each.
  std::string SetTriples(size_t j) const;
  /// The INGEST body of batch k >= 1.
  std::string BatchBody(uint64_t k) const;
  static size_t StateOf(uint64_t k) { return k % kSets; }
  static constexpr uint64_t kOpsPerBatch = 2 * kTriplesPerSet;

 private:
  std::vector<std::vector<std::string>> sets_;
};

/// Per-stream seed derivation: distinct streams for (seed, salt).
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
