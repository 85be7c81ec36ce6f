// Bounded streaming histogram: log-bucketed (HDR-style), mergeable, with a
// documented relative-error bound on reported percentiles.
//
// The profiling-grade MetricsRegistry retained every sample in a vector —
// fine for a one-shot profile, unbounded under sustained serving. A
// StreamingHistogram holds a fixed array of geometrically sized buckets
// instead: memory is O(bucket count) regardless of how many samples are
// recorded, record() is an index computation plus an increment, and two
// histograms with the same config merge by adding bucket counts (the
// per-thread record / snapshot-and-merge pattern).
//
// Error bound: bucket k covers [min_value * g^k, min_value * g^(k+1)) with
// growth g = (1 + rel_error)^2, and percentile() reports the geometric
// midpoint of the bucket holding the nearest-rank sample. Every value in a
// bucket is within rel_error (relative) of that midpoint, so
//
//     |percentile(p) - exact_nearest_rank_percentile(p)|
//         <= rel_error * exact_nearest_rank_percentile(p)
//
// for any sample distribution, as long as the exact value lies inside the
// bucketed range [min_value, max_value). Values below min_value land in an
// underflow bucket (reported as the tracked exact minimum — absolute error
// < min_value, not relative) and values at or above max_value in an
// overflow bucket (reported as the tracked exact maximum). min/max/count/
// sum are tracked exactly, so p0/p100 and mean are exact.
//
// Thread safety: none by design. Record under the owner's lock (the
// MetricsRegistry and FleetServer already serialize their stats updates)
// or record into per-thread instances and merge().
#pragma once

#include <optional>
#include <vector>

#include "obs/json.hpp"

namespace ispb::obs {

/// Bucket layout of a StreamingHistogram. Two histograms merge iff their
/// configs are identical.
struct HistogramConfig {
  /// Smallest value resolved relatively; below this is the underflow bucket.
  f64 min_value = 1e-3;
  /// Values >= max_value collapse into the overflow bucket.
  f64 max_value = 1e7;
  /// Documented relative error bound on percentile estimates.
  f64 rel_error = 0.025;

  [[nodiscard]] bool operator==(const HistogramConfig&) const = default;
};

class StreamingHistogram {
 public:
  explicit StreamingHistogram(HistogramConfig config = {});

  /// Records one sample. Non-finite samples are counted but attributed to
  /// the underflow (for -inf/NaN) or overflow (+inf) bucket.
  void record(f64 value);

  /// Adds every sample of `other` into this histogram.
  /// Throws ContractError when the configs differ.
  void merge(const StreamingHistogram& other);

  /// Nearest-rank percentile estimate (p in [0, 100]); nullopt when empty.
  /// See the header comment for the error bound.
  [[nodiscard]] std::optional<f64> percentile(f64 p) const;

  [[nodiscard]] u64 count() const { return count_; }
  [[nodiscard]] f64 sum() const { return sum_; }
  /// Exact tracked extrema; nullopt when empty.
  [[nodiscard]] std::optional<f64> min() const;
  [[nodiscard]] std::optional<f64> max() const;
  [[nodiscard]] std::optional<f64> mean() const;

  /// Fixed at construction: the O(1)-in-sample-count memory guarantee.
  [[nodiscard]] std::size_t bucket_count() const { return buckets_.size(); }
  [[nodiscard]] const HistogramConfig& config() const { return config_; }

  /// Drops every sample, keeping the bucket layout.
  void reset();

  /// Summary export: count/sum/min/max/mean/p50/p90/p99 + the error bound.
  [[nodiscard]] Json to_json() const;

 private:
  [[nodiscard]] std::size_t bucket_index(f64 value) const;
  [[nodiscard]] f64 bucket_value(std::size_t index) const;

  HistogramConfig config_;
  f64 inv_log_growth_ = 0.0;  ///< 1 / ln((1 + rel_error)^2)
  std::vector<u64> buckets_;  ///< [underflow, log buckets..., overflow]
  u64 count_ = 0;
  f64 sum_ = 0.0;
  f64 min_ = 0.0;  ///< valid iff count_ > 0
  f64 max_ = 0.0;  ///< valid iff count_ > 0
};

}  // namespace ispb::obs
