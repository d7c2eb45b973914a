// e2e_bench: one workload of the end-to-end benchmark in one process.
//
//   e2e_bench --workload cold-mixed|serve-read|serve-rw|cluster-tcp
//             [--seed N] [--seconds S] [--trace] [--smoke] [--self-test]
//             [--trace-dir DIR]
//
// Prints each metric on its own line and, as the last line, one JSON
// object: {"workload", "correct", "attempted", "failed", "metrics": {name:
// {"value", "unit", "samples"}}, "meta": {...}}. Exits 1 when any answer
// disagreed with the oracle or any call failed. bench/e2e/run.py is the
// intended entry point; it builds this binary and aggregates its reports.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "bench.h"
#include "cracking/kernel.h"
#include "util/cache_info.h"
#include "util/simd.h"

namespace e2e {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    std::string value;
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
      arg = arg.substr(0, eq);
    }
    auto take = [&]() -> bool {
      if (eq != std::string::npos) return true;
      if (i + 1 >= argc) return false;
      value = argv[++i];
      return true;
    };
    if (arg == "--workload") {
      if (!take()) return false;
      options->workload = value;
    } else if (arg == "--seed") {
      if (!take()) return false;
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      if (!take()) return false;
      options->seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace-dir") {
      if (!take()) return false;
      options->trace_dir = value;
    } else if (arg == "--trace") {
      options->trace = true;
    } else if (arg == "--smoke") {
      options->smoke = true;
    } else if (arg == "--self-test") {
      options->self_test = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return false;
    }
  }
  return options->seconds > 0;
}

std::string MetaJson(const Options& options) {
  const scrack::CacheInfo cache = scrack::CacheInfo::Detect();
  std::string meta = "{";
  meta += "\"hardware_concurrency\":" +
          std::to_string(std::thread::hardware_concurrency());
  meta += ",\"l1_bytes\":" + std::to_string(cache.l1_bytes);
  meta += ",\"l2_bytes\":" + std::to_string(cache.l2_bytes);
  meta += ",\"l3_bytes\":" + std::to_string(cache.l3_bytes);
  meta += std::string(",\"avx2_compiled\":") +
          (scrack::simd::CompiledWithAvx2() ? "true" : "false");
  meta += std::string(",\"avx2_dispatched\":") +
          (scrack::simd::Supported() ? "true" : "false");
  meta += ",\"compiler\":" + JsonString(E2E_COMPILER);
  meta += ",\"build_type\":" + JsonString(E2E_BUILD_TYPE);
  meta += ",\"seed\":" + std::to_string(options.seed);
  meta += ",\"seconds\":" + JsonNumber(options.seconds);
  meta += ",\"scale\":" + JsonString(options.smoke ? "smoke" : "full");
  return meta + "}";
}

}  // namespace

Scale ScaleFor(const Options& options) {
  if (options.smoke) {
    return Scale{1'000'000, 100, 1'000'000, 5'000, 2};
  }
  // cold-mixed: 8e7 values (640 MB) is twice the 300 MiB L3 of the
  // reference machine, and three fresh 8e7 processes fit one run.
  return Scale{80'000'000, 1'000, 10'000'000, 50'000, 3};
}

Expected PermutationAnswer(scrack::Index n, scrack::Value lo,
                           scrack::Value hi) {
  lo = std::clamp<scrack::Value>(lo, 0, n);
  hi = std::clamp<scrack::Value>(hi, lo, n);
  const int64_t count = hi - lo;
  // count * (lo + hi - 1) is even: if count is odd, lo + hi - 1 is.
  return Expected{count, count * (lo + hi - 1) / 2};
}

bool Matches(const scrack::Query& query, const scrack::QueryOutput& output,
             const Expected& expected) {
  switch (query.mode) {
    case scrack::OutputMode::kMaterialize: {
      // Every tuple inside the range, and the exact sum.
      scrack::RangeSum in_range;
      output.result.ForEachSegment([&](const scrack::Value* data,
                                       scrack::Index len) {
        const scrack::RangeSum part =
            scrack::SumInRange(data, 0, len, query.low, query.high);
        in_range.count += part.count;
        in_range.sum += part.sum;
      });
      return output.result.count() == expected.count &&
             in_range.count == expected.count && in_range.sum == expected.sum;
    }
    case scrack::OutputMode::kCount:
      return output.count == expected.count;
    case scrack::OutputMode::kSum:
      return output.count == expected.count && output.sum == expected.sum;
    default:
      return false;
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace e2e

int main(int argc, char** argv) {
  e2e::Options options;
  if (!e2e::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload W [--seed N] [--seconds S] "
                 "[--trace] [--smoke] [--self-test] [--trace-dir DIR]\n");
    return 2;
  }
  e2e::Report report;
  if (options.workload == "cold-mixed") {
    report = e2e::RunColdMixed(options);
  } else if (options.workload == "serve-read") {
    report = e2e::RunServe(options, /*with_writer=*/false);
  } else if (options.workload == "serve-rw") {
    report = e2e::RunServe(options, /*with_writer=*/true);
  } else if (options.workload == "cluster-tcp") {
    report = e2e::RunCluster(options);
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }

  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  for (const auto& [name, metric] : report.metrics) {
    std::printf("%-34s %16.4f %-6s (%lld samples)\n", name.c_str(),
                metric.value, metric.unit.c_str(),
                static_cast<long long>(metric.samples));
  }
  std::string json = "{\"workload\":" + e2e::JsonString(options.workload);
  json += std::string(",\"correct\":") + (report.failed == 0 ? "true" : "false");
  json += ",\"attempted\":" + std::to_string(report.attempted);
  json += ",\"failed\":" + std::to_string(report.failed);
  json += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : report.metrics) {
    if (!first) json += ",";
    first = false;
    json += e2e::JsonString(name) + ":{\"value\":" +
            e2e::JsonNumber(metric.value) +
            ",\"unit\":" + e2e::JsonString(metric.unit) +
            ",\"samples\":" + std::to_string(metric.samples) + "}";
  }
  json += "},\"meta\":" + e2e::MetaJson(options) + "}";
  std::printf("%s\n", json.c_str());
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
