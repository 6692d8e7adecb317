#pragma once
/// \file latency_histogram.hpp
/// Log-linear histogram over non-negative 64-bit values (nanosecond
/// latencies, sizes, counts): every power-of-two octave is split into
/// `kSubBuckets` equal linear sub-buckets, so the relative bucket width is
/// bounded by 2^{1-kSubBits} (~6%) at every magnitude, while the whole
/// range [0, 2^64) needs under 2k buckets.
///
/// Why not stats::IntHistogram (exact per-value counts)? Latencies span
/// six orders of magnitude; a dense exact histogram anchored at the
/// minimum would hold millions of cells. Why not a P² streaming quantile
/// estimator (Jain & Chlamtac 1985)? P² is O(1) per quantile but
/// approximate in a data-dependent way and — the killer for replicated
/// runs — two P² states cannot be merged. This
/// histogram records in O(1), extracts any quantile in O(#buckets), and
/// merges LOSSLESSLY: merge(h(A), h(B)) equals h(A ++ B) bucket for
/// bucket, so per-replicate histograms folded in replicate order give the
/// same answer for any thread count. Merge is associative and commutative
/// (property-tested in tests/obs/latency_histogram_test.cpp).
///
/// Quantile contract: quantile(q) returns the upper edge of the bucket
/// holding the ceil(q * count)-th smallest observation (clamped to the
/// exact observed min/max, which are tracked separately; the extreme
/// ranks return that exact min/max). The true order statistic lies in
/// that bucket, so the estimate is exact for values below kSubBuckets and
/// within one bucket width (relative error <= 2^{1-kSubBits}) above —
/// tested against stats::exact_quantile.

#include <cstdint>
#include <vector>

namespace bbb::obs {

/// Mergeable log-linear histogram with exact min/max and saturating sum.
class LatencyHistogram {
 public:
  /// Sub-bucket resolution: 2^kSubBits linear buckets per octave.
  static constexpr std::uint32_t kSubBits = 5;
  static constexpr std::uint32_t kSubBuckets = 1u << kSubBits;

  LatencyHistogram() = default;

  /// Record one observation (O(1); grows the bucket vector on first touch
  /// of a new magnitude).
  void record(std::uint64_t value) { record_n(value, 1); }

  /// Record `count` observations of the same value as one O(1) update.
  void record_n(std::uint64_t value, std::uint64_t count);

  /// Fold `other` in. Lossless: the bucket vector afterwards equals the
  /// one a single histogram over both observation streams would hold.
  void merge(const LatencyHistogram& other);

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  /// Exact smallest / largest recorded value. 0 when empty.
  [[nodiscard]] std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  /// Sum of all recorded values, saturating at uint64 max (the mean is a
  /// lower bound once saturated() reports true).
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] bool saturated() const noexcept { return saturated_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(count_);
  }

  /// q-quantile per the bucket-upper-edge contract in the file comment.
  /// q is clamped to [0, 1]; 0 when empty.
  [[nodiscard]] std::uint64_t quantile(double q) const noexcept;

  [[nodiscard]] std::uint64_t p50() const noexcept { return quantile(0.50); }
  [[nodiscard]] std::uint64_t p99() const noexcept { return quantile(0.99); }
  [[nodiscard]] std::uint64_t p999() const noexcept { return quantile(0.999); }

  /// Bucket index of `value` (stable across instances — the merge key).
  [[nodiscard]] static std::uint32_t bucket_index(std::uint64_t value) noexcept;
  /// Smallest / largest value mapping to bucket `index`.
  [[nodiscard]] static std::uint64_t bucket_lower(std::uint32_t index) noexcept;
  [[nodiscard]] static std::uint64_t bucket_upper(std::uint32_t index) noexcept;

  /// Occupied bucket counts (trailing zero buckets trimmed lazily; two
  /// histograms over the same observations compare equal).
  [[nodiscard]] const std::vector<std::uint64_t>& buckets() const noexcept {
    return buckets_;
  }

  friend bool operator==(const LatencyHistogram& a,
                         const LatencyHistogram& b) noexcept {
    return a.count_ == b.count_ && a.sum_ == b.sum_ && a.min_ == b.min_ &&
           a.max_ == b.max_ && a.saturated_ == b.saturated_ &&
           a.buckets_ == b.buckets_;
  }

 private:
  std::vector<std::uint64_t> buckets_;  // grown to the highest touched index
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  bool saturated_ = false;
};

}  // namespace bbb::obs
