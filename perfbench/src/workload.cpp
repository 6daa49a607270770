#include "perfbench/src/workload.h"

#include <algorithm>
#include <cmath>
#include <set>

namespace perfbench {

namespace {

using wdpt::server::QueryCall;
using wdpt::sparql::RequestMode;

const std::string kBaseQuery =
    "SELECT ?rec ?band ?rating WHERE "
    "(((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
    "OPT (?rec, NME_rating, ?rating))";

const std::string kFig1Query =
    "SELECT ?band ?year WHERE "
    "((((?rec, recorded_by, ?band) AND (?rec, published, after_2010)) "
    "OPT (?rec, NME_rating, ?rating)) OPT (?band, formed_in, ?year))";

/// Uniform double in [0, 1) from 53 bits of the generator (identical on
/// every platform, unlike std::uniform_real_distribution).
double Uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::string Band(uint32_t b) { return "band" + std::to_string(b); }

std::string Rec(uint32_t b, uint32_t r) {
  return "rec" + std::to_string(b) + "_" + std::to_string(r);
}

std::string PointQuery(uint32_t band) {
  return "SELECT ?rec ?rating WHERE "
         "(((?rec, recorded_by, " +
         Band(band) +
         ") AND (?rec, published, after_2010)) "
         "OPT (?rec, NME_rating, ?rating))";
}

const std::vector<WorkloadSpec>& Specs() {
  static const std::vector<WorkloadSpec> specs = {
      {"scan-mix", 1000,
       {Shape::kStd, Shape::kMax, Shape::kLim10, Shape::kFig1, Shape::kCand},
       /*cache_bypass=*/true, /*reads_per_write=*/5, /*warmup_requests=*/10},
      {"ingest-read", 8000,
       {Shape::kPoint, Shape::kPcand, Shape::kPartial},
       /*cache_bypass=*/false, /*reads_per_write=*/6,
       /*warmup_requests=*/100},
  };
  return specs;
}

}  // namespace

const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kStd: return "std";
    case Shape::kMax: return "max";
    case Shape::kLim10: return "lim10";
    case Shape::kFig1: return "fig1";
    case Shape::kCand: return "cand";
    case Shape::kPoint: return "point";
    case Shape::kPcand: return "pcand";
    case Shape::kPartial: return "partial";
  }
  return "unknown";
}

bool IsKeyed(Shape shape) {
  return shape == Shape::kPoint || shape == Shape::kPcand ||
         shape == Shape::kPartial;
}

QueryCall MakeCall(const Request& request, bool cache_bypass) {
  QueryCall call(kBaseQuery);
  switch (request.shape) {
    case Shape::kStd:
      break;
    case Shape::kMax:
      call.Mode(RequestMode::kMax);
      break;
    case Shape::kLim10:
      call.MaxResults(10);
      break;
    case Shape::kFig1:
      call.text = kFig1Query;
      break;
    case Shape::kCand:
      call.Candidate("?rec=rec0_0 ?band=band0");
      break;
    case Shape::kPoint:
      call.text = PointQuery(request.band);
      break;
    case Shape::kPcand:
      call.Candidate("?rec=" + Rec(request.band, request.band % 4) +
                     " ?band=" + Band(request.band));
      break;
    case Shape::kPartial:
      call.Mode(RequestMode::kPartial).Candidate("?band=" +
                                                 Band(request.band));
      break;
  }
  return call.CacheBypass(cache_bypass);
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Specs()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : Specs()) names.emplace_back(spec.name);
  return names;
}

std::string CatalogTriples(uint32_t bands) {
  std::string out;
  for (uint32_t b = 0; b < bands; ++b) {
    std::string band = Band(b);
    if (b % 2 == 0) {
      out += band + " formed_in year" + std::to_string(1960 + b % 60) + "\n";
    }
    for (uint32_t r = 0; r < 4; ++r) {
      std::string rec = Rec(b, r);
      out += rec + " recorded_by " + band + "\n";
      if ((b * 31 + r) % 10 < 8) {
        out += rec + " published after_2010\n";
      }
      if ((b * 17 + r) % 10 < 5) {
        out += rec + " NME_rating " + std::to_string(1 + (b + r) % 10) + "\n";
      }
    }
  }
  return out;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  // splitmix64 finalizer over the pair.
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

Zipf::Zipf(uint32_t n, double s) : cdf_(n) {
  double sum = 0;
  for (uint32_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint32_t Zipf::Sample(std::mt19937_64& rng) const {
  double u = Uniform(rng);
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;
  return static_cast<uint32_t>(it - cdf_.begin());
}

RequestStream::RequestStream(const WorkloadSpec& spec, uint64_t seed)
    : rng_(MixSeed(seed, 1000)),
      zipf_(spec.bands, 1.0),
      round_(spec.shapes),
      next_(spec.shapes.size()) {}

Request RequestStream::Next() {
  if (next_ == round_.size()) {
    for (size_t i = round_.size(); i > 1; --i) {
      std::swap(round_[i - 1], round_[rng_() % i]);
    }
    next_ = 0;
  }
  Request request;
  request.shape = round_[next_++];
  if (IsKeyed(request.shape)) request.band = zipf_.Sample(rng_);
  return request;
}

IngestPlan::IngestPlan(uint32_t bands, uint64_t seed) : sets_(kSets) {
  std::mt19937_64 rng(MixSeed(seed, 7));
  Zipf zipf(bands, 1.0);
  std::set<std::string> used;
  for (std::vector<std::string>& set : sets_) {
    while (set.size() < kTriplesPerSet) {
      // Only triples the catalog lacks, built from terms it has: a
      // missing recency, a missing rating, or a missing formation year.
      uint32_t b = zipf.Sample(rng);
      uint32_t r = static_cast<uint32_t>(rng() % 4);
      std::string triple;
      switch (rng() % 3) {
        case 0:
          if ((b * 31 + r) % 10 >= 8) {
            triple = Rec(b, r) + " published after_2010";
          }
          break;
        case 1:
          if ((b * 17 + r) % 10 >= 5) {
            triple = Rec(b, r) + " NME_rating " +
                     std::to_string(1 + rng() % 10);
          }
          break;
        default:
          if (b % 2 == 1) {
            triple = Band(b) + " formed_in year" +
                     std::to_string(1960 + 2 * (rng() % 30));
          }
          break;
      }
      if (!triple.empty() && used.insert(triple).second) {
        set.push_back(std::move(triple));
      }
    }
  }
}

std::string IngestPlan::SetTriples(size_t j) const {
  std::string out;
  for (const std::string& triple : sets_[j]) out += triple + "\n";
  return out;
}

std::string IngestPlan::BatchBody(uint64_t k) const {
  std::string body;
  for (const std::string& triple : sets_[StateOf(k - 1)]) {
    body += "remove " + triple + "\n";
  }
  for (const std::string& triple : sets_[StateOf(k)]) {
    body += "add " + triple + "\n";
  }
  return body;
}

}  // namespace perfbench
