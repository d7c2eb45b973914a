// LogHistogram: fixed-bucket, mergeable log-linear latency histogram.
//
// Every power of two is split into 32 equal sub-buckets (values below 32
// get one bucket each), so a bucket is at most ~3% wide at any magnitude
// and the whole non-negative int64 range fits in 1888 counters. The array
// is allocated once, so recording never allocates and the benchmark's own
// memory stays out of peak_rss_mb however many samples a run takes.
// Quantiles interpolate linearly inside the bucket holding the requested
// rank, so they are not quantized to bucket edges.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace e2e {

class LogHistogram {
 public:
  void Add(int64_t value) {
    if (value < 0) value = 0;
    ++counts_[Bucket(value)];
    ++total_;
    sum_ += static_cast<double>(value);
  }

  void Merge(const LogHistogram& other) {
    for (size_t b = 0; b < kBuckets; ++b) counts_[b] += other.counts_[b];
    total_ += other.total_;
    sum_ += other.sum_;
  }

  int64_t count() const { return total_; }
  double sum() const { return sum_; }

  /// Value at quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double target = q * static_cast<double>(total_);
    int64_t seen = 0;
    size_t last = 0;
    for (size_t b = 0; b < kBuckets; ++b) {
      const int64_t c = counts_[b];
      if (c == 0) continue;
      last = b;
      if (static_cast<double>(seen + c) >= target) {
        const double frac = (target - static_cast<double>(seen)) /
                            static_cast<double>(c);
        return Lower(b) + Width(b) * frac;
      }
      seen += c;
    }
    return Lower(last) + Width(last);
  }

  /// Number of samples strictly above quantile q (how many samples a tail
  /// percentile rests on).
  int64_t SamplesAbove(double q) const {
    return total_ - static_cast<int64_t>(q * static_cast<double>(total_));
  }

 private:
  static constexpr int kSubBits = 5;
  static constexpr int64_t kSub = int64_t{1} << kSubBits;
  static constexpr size_t kBuckets = static_cast<size_t>((64 - kSubBits) * kSub);

  static size_t Bucket(int64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int msb = 63 - __builtin_clzll(static_cast<unsigned long long>(v));
    const int shift = msb - kSubBits;
    const int64_t sub = (v >> shift) - kSub;
    return static_cast<size_t>((shift + 1) * kSub + sub);
  }
  static double Lower(size_t b) {
    if (b < static_cast<size_t>(kSub)) return static_cast<double>(b);
    const int shift = static_cast<int>(b / kSub) - 1;
    return static_cast<double>((kSub + static_cast<int64_t>(b % kSub))
                               << shift);
  }
  static double Width(size_t b) {
    if (b < static_cast<size_t>(kSub)) return 1.0;
    return static_cast<double>(int64_t{1} << (b / kSub - 1));
  }

  std::array<int64_t, kBuckets> counts_{};
  int64_t total_ = 0;
  double sum_ = 0.0;
};

}  // namespace e2e
