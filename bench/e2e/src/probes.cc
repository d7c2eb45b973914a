#include <algorithm>
#include <cstring>
#include <functional>

#include "bench.h"
#include "cracking/kernel.h"
#include "distributed/wire.h"

namespace e2e {

using scrack::Index;
using scrack::Value;

namespace {

constexpr int kReps = 3;

/// Median seconds of `kReps` timed calls of `run`, each after `prepare`.
double MedianSeconds(const std::function<void()>& prepare,
                     const std::function<void()>& run) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kReps; ++rep) {
    prepare();
    const int64_t t0 = NowNs();
    run();
    seconds.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return Median(seconds);
}

}  // namespace

void KernelProbe(const scrack::Column& base, Report* report) {
  const Index n = base.size();
  const double bytes = static_cast<double>(n) * sizeof(Value);
  std::vector<Value> scratch(static_cast<size_t>(n));
  auto restore = [&] {
    std::memcpy(scratch.data(), base.data(), static_cast<size_t>(bytes));
  };
  auto check = [report](bool ok) {
    ++report->attempted;
    if (!ok) ++report->failed;
  };
  const Value mid = n / 2;

  Index split = 0;
  const double two = MedianSeconds(restore, [&] {
    scrack::KernelCounters counters;
    split = scrack::CrackInTwo(scratch.data(), 0, n, mid, &counters);
  });
  check(split == mid);

  std::pair<Index, Index> bounds;
  const double three = MedianSeconds(restore, [&] {
    scrack::KernelCounters counters;
    bounds = scrack::CrackInThree(scratch.data(), 0, n, n / 3, 2 * n / 3,
                                  &counters);
  });
  check(bounds.first == n / 3 && bounds.second == 2 * n / 3);

  // The workload's own shape: a narrow range materialized while the piece
  // splits around its lower bound.
  std::vector<Value> out;
  const Value qhi = std::min<Value>(mid + 10, n);
  const double split_mat = MedianSeconds(restore, [&] {
    scrack::KernelCounters counters;
    out.clear();
    split = scrack::SplitAndMaterialize(scratch.data(), 0, n, mid, qhi, mid,
                                        &out, &counters);
  });
  check(split == mid && static_cast<Value>(out.size()) == qhi - mid);

  scrack::RangeSum sum;
  const double fold = MedianSeconds([] {}, [&] {
    sum = scrack::SumInRange(base.data(), 0, n, n / 4, 3 * n / 4);
  });
  const Expected expected = PermutationAnswer(n, n / 4, 3 * n / 4);
  check(sum.count == expected.count && sum.sum == expected.sum);

  report->Set("kernel.crack_in_two_gbps", bytes / two * 1e-9, "GB/s", kReps);
  report->Set("kernel.crack_in_three_gbps", bytes / three * 1e-9, "GB/s",
              kReps);
  report->Set("kernel.split_materialize_gbps", bytes / split_mat * 1e-9,
              "GB/s", kReps);
  report->Set("kernel.sum_in_range_gbps", bytes / fold * 1e-9, "GB/s", kReps);
}

double FindPieceNs(const scrack::CrackerIndex& index,
                   const std::vector<Value>& bounds) {
  if (bounds.empty()) return 0.0;
  // Enough passes for ~2M lookups, so the loop runs for milliseconds.
  const size_t passes = std::max<size_t>(1, (size_t{1} << 21) / bounds.size());
  Index sink = 0;
  const double seconds = MedianSeconds([] {}, [&] {
    for (size_t p = 0; p < passes; ++p) {
      for (Value v : bounds) sink += index.FindPiece(v).begin;
    }
  });
  // The sink feeds a branch the optimizer cannot drop.
  if (sink == -1) return -1.0;
  return seconds * 1e9 / static_cast<double>(passes * bounds.size());
}

bool WireProbe(const std::vector<TimedTransport::Message>& messages,
               double* encode_ns, double* decode_ns) {
  if (messages.empty()) return false;
  std::vector<scrack::wire::Request> requests(messages.size());
  std::vector<scrack::wire::Response> responses(messages.size());
  for (size_t i = 0; i < messages.size(); ++i) {
    if (!scrack::wire::Decode(messages[i].request, &requests[i]).ok() ||
        !scrack::wire::Decode(messages[i].response, &responses[i]).ok()) {
      return false;
    }
  }
  constexpr size_t kPasses = 64;
  const double pairs = static_cast<double>(kPasses * messages.size());
  std::vector<uint8_t> buffer;
  size_t encoded = 0;
  const double encode = MedianSeconds([] {}, [&] {
    for (size_t p = 0; p < kPasses; ++p) {
      for (size_t i = 0; i < messages.size(); ++i) {
        buffer.clear();
        scrack::wire::Encode(requests[i], &buffer);
        scrack::wire::Encode(responses[i], &buffer);
        encoded += buffer.size();
      }
    }
  });
  scrack::wire::Request request;
  scrack::wire::Response response;
  bool decoded = true;
  const double decode = MedianSeconds([] {}, [&] {
    for (size_t p = 0; p < kPasses; ++p) {
      for (const TimedTransport::Message& m : messages) {
        decoded &= scrack::wire::Decode(m.request, &request).ok();
        decoded &= scrack::wire::Decode(m.response, &response).ok();
      }
    }
  });
  *encode_ns = encode * 1e9 / pairs;
  *decode_ns = decode * 1e9 / pairs;
  return decoded && encoded > 0;
}

}  // namespace e2e
