// Shared declarations of the end-to-end benchmark binary (e2e_bench).
//
// One process runs one workload and prints one JSON report on its last
// line; bench/e2e/run.py builds the binary, launches the processes and
// turns their reports into the benchmark's result line.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cracking/engine.h"
#include "index/cracker_index.h"
#include "storage/column.h"
#include "trace.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;      ///< measure per-layer metrics (slower; spans on)
  bool smoke = false;      ///< small inputs, same code paths; never reported
  bool self_test = false;  ///< corrupt one answer; the run must fail
  std::string trace_dir = ".";
};

/// Input sizes. The full scale is what the benchmark reports; the smoke
/// scale exists so a contributor can iterate in seconds.
struct Scale {
  scrack::Index cold_n;        ///< cold-mixed column (values)
  int64_t cold_block;          ///< cold-mixed queries per pattern (13 blocks)
  scrack::Index serve_n;       ///< serve-read / serve-rw / cluster-tcp
  int64_t pool;                ///< converged range pool size
  int setups;                  ///< set-ups per serving run (median reported)
};
Scale ScaleFor(const Options& options);

struct Metric {
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;  ///< how many observations the value rests on
};

struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  ///< human-readable extra lines

  void Set(const std::string& name, double value, const std::string& unit,
           int64_t samples = 1) {
    metrics[name] = Metric{value, unit, samples};
  }
};

/// Closed-form answer of [lo, hi) over a unique permutation of [0, n).
struct Expected {
  int64_t count = 0;
  int64_t sum = 0;
};
Expected PermutationAnswer(scrack::Index n, scrack::Value lo,
                           scrack::Value hi);

/// Whether `output` answers `query` as `expected` says (count for every
/// mode, plus the sum for kSum and kMaterialize).
bool Matches(const scrack::Query& query, const scrack::QueryOutput& output,
             const Expected& expected);

/// ru_maxrss of this process, in MiB.
double PeakRssMb();

/// Median of a non-empty sample.
double Median(std::vector<double> values);

// Workloads (workloads.cc).
Report RunColdMixed(const Options& options);
Report RunServe(const Options& options, bool with_writer);
Report RunCluster(const Options& options);

// Layer probes (probes.cc), run after a traced workload.

/// GB/s of the dispatched kernels on a copy of `base`; each result is
/// checked against the closed form (mismatches count as failures).
void KernelProbe(const scrack::Column& base, Report* report);

/// Mean nanoseconds of CrackerIndex::FindPiece over `bounds`.
double FindPieceNs(const scrack::CrackerIndex& index,
                   const std::vector<scrack::Value>& bounds);

/// Mean nanoseconds to encode (decode) one captured request plus its
/// response; false if a captured message does not decode.
bool WireProbe(const std::vector<TimedTransport::Message>& messages,
               double* encode_ns, double* decode_ns);

}  // namespace e2e
