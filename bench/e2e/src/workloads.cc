// The four workloads. Each builds its stack from public library calls,
// generates every input from the seed, checks every answer against the
// closed form, and measures from outside: timing calls into public
// functions and diffing CurrentStats().
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"
#include "distributed/coordinator_engine.h"
#include "distributed/storage_node.h"
#include "distributed/tcp_server.h"
#include "distributed/tcp_transport.h"
#include "harness/engine_factory.h"
#include "parallel/epoch_engine.h"
#include "util/rng.h"
#include "workload/workload.h"

namespace e2e {

using scrack::Column;
using scrack::EngineConfig;
using scrack::EngineStats;
using scrack::Index;
using scrack::OutputMode;
using scrack::Query;
using scrack::QueryOutput;
using scrack::SelectEngine;
using scrack::Status;
using scrack::Value;

namespace {

// The timed phase is split into windows of this length (at least five);
// QPS, p50 and p99 are the median over windows, which rides out the
// sub-second bursts of a shared machine.
constexpr double kWindowSeconds = 0.5;
constexpr int kMinWindows = 5;
// serve-rw: a run whose writer completes less than this share of its
// scheduled cycles did not deliver its traffic; the missing cycles count as
// failed operations.
constexpr double kWriterMinShare = 0.95;
constexpr int kSampleStride = 16;  // traced serving runs record every 16th
// The per-layer metrics use every recorded span; the trace file keeps the
// earliest ones only, so a converged serve-read leg (millions of requests)
// stays a few tens of MB.
constexpr size_t kMaxWrittenSpans = size_t{1} << 18;
constexpr int kColdSetups = 1001;  // engine constructions per cold process
constexpr Index kFullCheckTuples = 1 << 16;  // larger results: SpotCheck...
constexpr size_t kFullCheckStride = 128;     // ...except every 128th query
constexpr Value kRangeWidth = 100;     // serving reads
constexpr Value kColdWidth = 10;       // cold-mixed queries
constexpr Value kUpdateSpan = 1000;    // the writer's merging read
constexpr int64_t kWriterPeriodNs = 1'000'000;  // 1,000 cycles/s
constexpr size_t kMaxOutstandingDeletes = 64;
constexpr int kClusterNodes = 4;
constexpr int kServeReaders = 3;
constexpr int kClusterClients = 2;
constexpr uint64_t kGolden = 0x9E3779B97F4A7C15ULL;

/// Bench-only decorator for --self-test: adds one to the count of the
/// `corrupt_at`-th answer and passes every other call through untouched.
class CorruptingEngine : public SelectEngine {
 public:
  CorruptingEngine(std::unique_ptr<SelectEngine> inner, int64_t corrupt_at)
      : inner_(std::move(inner)), corrupt_at_(corrupt_at) {}

  Status Select(Value low, Value high, scrack::QueryResult* result) override {
    return inner_->Select(low, high, result);
  }
  Status Execute(const Query& query, QueryOutput* output) override {
    Status status = inner_->Execute(query, output);
    if (calls_.fetch_add(1) == corrupt_at_) {
      ++output->count;
      if (query.mode == OutputMode::kMaterialize) {
        output->result.AddOwned({0});
      }
    }
    return status;
  }
  std::string name() const override { return inner_->name(); }
  Status StageInsert(Value v) override { return inner_->StageInsert(v); }
  Status StageDelete(Value v) override { return inner_->StageDelete(v); }
  EngineStats CurrentStats() const override { return inner_->CurrentStats(); }
  const scrack::CrackerColumn* audit_column() const override {
    return inner_->audit_column();
  }

 private:
  const std::unique_ptr<SelectEngine> inner_;
  const int64_t corrupt_at_;
  std::atomic<int64_t> calls_{0};
};

using scrack::RangeQuery;

/// `count` seeded ranges of `width` values with low in [0, limit - width].
std::vector<RangeQuery> MakePool(uint64_t seed, int64_t count, Value limit,
                                 Value width) {
  scrack::Rng rng(seed ^ 0x5EEDF00DULL);
  std::vector<RangeQuery> pool(static_cast<size_t>(count));
  for (RangeQuery& r : pool) {
    r.low = rng.UniformValue(0, limit - width + 1);
    r.high = r.low + width;
  }
  return pool;
}

/// Every 4th read materializes; the rest are dashboard sums.
OutputMode ReadMode(int64_t k) {
  return k % 4 == 3 ? OutputMode::kMaterialize : OutputMode::kSum;
}

double Seconds(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Quantile of a histogram of nanoseconds, in microseconds.
double Us(const LogHistogram& h, double q) { return h.Quantile(q) * 1e-3; }

/// Writes trace_<workload>.jsonl. Its header carries the per-layer call
/// counts and duration/self-time quantiles over every recorded span, so the
/// summary matches the run's metrics even though the file keeps only the
/// earliest spans. `overhead_pct` is NaN where this process cannot know it
/// (cold-mixed runs its untraced and traced legs in separate processes).
void WriteTrace(const Options& options, const TraceAnalysis& analysis,
                double overhead_pct, Report* report) {
  const size_t written = std::min(analysis.spans.size(), kMaxWrittenSpans);
  auto number = [](double v) {
    return std::isfinite(v) ? std::to_string(v) : std::string("null");
  };
  std::string layers;
  for (int k = 0; k < kNumSpanKinds; ++k) {
    const LayerTimes& layer = analysis.layers[static_cast<size_t>(k)];
    if (layer.duration.count() == 0) continue;
    layers += std::string(layers.empty() ? "" : ",") + "\"" +
              SpanKindName(static_cast<SpanKind>(k)) + "\":{\"calls\":" +
              std::to_string(layer.duration.count()) +
              ",\"p50_us\":" + number(Us(layer.duration, 0.5)) +
              ",\"p99_us\":" + number(Us(layer.duration, 0.99)) +
              ",\"self_p50_us\":" + number(Us(layer.self, 0.5)) +
              ",\"self_p99_us\":" + number(Us(layer.self, 0.99)) + "}";
  }
  const std::string header =
      "{\"workload\":\"" + options.workload +
      "\",\"seed\":" + std::to_string(options.seed) + ",\"sample_stride\":" +
      std::to_string(options.workload == "cold-mixed" ? 1 : kSampleStride) +
      ",\"overhead_pct\":" + number(overhead_pct) +
      ",\"spans\":" + std::to_string(analysis.spans.size()) +
      ",\"written\":" + std::to_string(written) +
      ",\"dropped\":" + std::to_string(analysis.dropped) + ",\"layers\":{" +
      layers + "}}";
  const std::string path =
      options.trace_dir + "/trace_" + options.workload + ".jsonl";
  if (WriteJsonl(path, header, analysis.spans, kMaxWrittenSpans)) {
    report->notes.push_back("trace: " + std::to_string(written) + " of " +
                            std::to_string(analysis.spans.size()) +
                            " spans written to " + path);
  } else {
    report->notes.push_back("trace: could not write " + path);
  }
}

/// Per-query work counters of the cracking layer, from a stats diff.
void CrackingMetrics(const EngineStats& before, const EngineStats& after,
                     double engine_seconds, Report* report) {
  const double queries =
      static_cast<double>(std::max<int64_t>(1, after.queries - before.queries));
  const double touched =
      static_cast<double>(after.tuples_touched - before.tuples_touched);
  report->Set("cracking.touched_per_query", touched / queries, "tuples");
  report->Set("cracking.swaps_per_query",
              static_cast<double>(after.swaps - before.swaps) / queries,
              "swaps");
  report->Set("cracking.materialized_per_query",
              static_cast<double>(after.materialized - before.materialized) /
                  queries,
              "tuples");
  if (engine_seconds > 0) {
    report->Set("cracking.touched_gbps",
                touched * sizeof(Value) / engine_seconds * 1e-9, "GB/s");
  }
  report->Set("epoch.shared_ratio",
              static_cast<double>(after.shared_reads - before.shared_reads) /
                  queries,
              "ratio");
  report->Set("epoch.escalations_per_kq",
              static_cast<double>(after.escalations - before.escalations) /
                  queries * 1000.0,
              "count");
  report->Set("pending.updates_merged",
              static_cast<double>(after.updates_merged - before.updates_merged),
              "count");
}

/// Fig. 17's Mixed workload with a fixed pattern order: each of the 13
/// synthetic patterns runs for one block, in the paper's row order. The
/// library's kMixed draws the order from the seed; fixing it keeps the
/// sequence's shape, and so its cost, alike across seeds, while the seed
/// still sets the data, the random patterns' positions and the engine's
/// pivots. As in kMixed, a block is the start of its pattern generated for
/// the whole sequence length, so it dwells on part of the pattern and
/// leaves large uncracked pieces for later blocks; reversed patterns are
/// that start, reversed.
std::vector<RangeQuery> MixedSequence(Index n, int64_t block,
                                              uint64_t seed) {
  using scrack::WorkloadKind;
  const std::vector<WorkloadKind> kinds = scrack::Fig17SyntheticKinds();
  std::vector<RangeQuery> out;
  for (size_t b = 0; b < kinds.size(); ++b) {
    WorkloadKind kind = kinds[b];
    const bool reversed = kind == WorkloadKind::kSeqReverse ||
                          kind == WorkloadKind::kZoomOut ||
                          kind == WorkloadKind::kSeqZoomOut;
    if (kind == WorkloadKind::kSeqReverse) kind = WorkloadKind::kSequential;
    if (kind == WorkloadKind::kZoomOut) kind = WorkloadKind::kZoomIn;
    if (kind == WorkloadKind::kSeqZoomOut) kind = WorkloadKind::kSeqZoomIn;
    scrack::WorkloadParams params;
    params.n = n;
    params.num_queries = block * static_cast<int64_t>(kinds.size());
    params.selectivity = kColdWidth;
    params.seed = seed + 0x1000 + b;
    const std::vector<RangeQuery> pattern =
        scrack::MakeWorkload(kind, params);
    const auto first = pattern.begin();
    const auto last = first + block;
    if (reversed) {
      out.insert(out.end(), std::make_reverse_iterator(last),
                 std::make_reverse_iterator(first));
    } else {
      out.insert(out.end(), first, last);
    }
  }
  return out;
}

/// Cheaper oracle for very large materialized results (the zoom patterns
/// return most of the column): the count exactly, and 1,024 evenly spaced
/// tuples of each segment inside the range. Every kFullCheckStride-th
/// query and every smaller result still get the full check.
bool SpotCheck(const scrack::QueryResult& result, const Query& query,
               const Expected& expected) {
  if (result.count() != expected.count) return false;
  bool ok = true;
  result.ForEachSegment([&](const Value* data, Index len) {
    const Index step = std::max<Index>(1, len / 1024);
    for (Index i = 0; i < len; i += step) {
      ok &= data[i] >= query.low && data[i] < query.high;
    }
  });
  return ok;
}

}  // namespace

// ------------------------------------------------------------ cold-mixed --

Report RunColdMixed(const Options& options) {
  const Scale scale = ScaleFor(options);
  Report report;
  const Column base = Column::UniquePermutation(scale.cold_n, options.seed);
  const std::vector<RangeQuery> queries =
      MixedSequence(scale.cold_n, scale.cold_block, options.seed);
  EngineConfig config = EngineConfig::Detected();
  config.seed = options.seed;

  // Set-up is engine construction only: the lazy copy lands in query 1.
  // It takes a few hundred nanoseconds, so it is repeated and the median
  // reported; the median of 1,001 repeats within a few percent.
  std::vector<double> setups;
  std::unique_ptr<SelectEngine> engine;
  for (int i = 0; i < kColdSetups; ++i) {
    engine.reset();
    const int64_t t0 = NowNs();
    const Status created = scrack::CreateEngine("mdd1r", &base, config, &engine);
    setups.push_back(Seconds(NowNs() - t0));
    if (!created.ok()) {
      std::fprintf(stderr, "mdd1r: %s\n", created.ToString().c_str());
      report.failed = report.attempted = 1;
      return report;
    }
  }
  if (options.self_test) {
    engine = std::make_unique<CorruptingEngine>(
        std::move(engine), static_cast<int64_t>(queries.size() / 2));
  }

  const EngineStats before = engine->CurrentStats();
  LogHistogram latency;
  int64_t total_ns = 0;
  int64_t first_ns = 0;
  SetTracing(options.trace);
  for (size_t i = 0; i < queries.size(); ++i) {
    const Query query{queries[i].low, queries[i].high,
                      OutputMode::kMaterialize, 1};
    QueryOutput output;
    const int64_t t0 = NowNs();
    Status status;
    if (options.trace) {
      RequestScope scope(static_cast<int64_t>(i), SpanKind::kRequest, query);
      status = engine->Execute(query, &output);
    } else {
      status = engine->Execute(query, &output);
    }
    const int64_t ns = NowNs() - t0;
    latency.Add(ns);
    total_ns += ns;
    if (i == 0) first_ns = ns;
    ++report.attempted;
    const Expected expected =
        PermutationAnswer(scale.cold_n, query.low, query.high);
    const bool full_check =
        expected.count <= kFullCheckTuples || i % kFullCheckStride == 0;
    if (!status.ok() ||
        !(full_check ? Matches(query, output, expected)
                     : SpotCheck(output.result, query, expected))) {
      ++report.failed;
    }
  }
  SetTracing(false);
  const EngineStats after = engine->CurrentStats();

  const int64_t q = latency.count();
  report.Set("setup_s", Median(setups), "s", kColdSetups);
  report.Set("first_query_ms", static_cast<double>(first_ns) * 1e-6, "ms");
  report.Set("qps", static_cast<double>(q) / Seconds(total_ns), "1/s", q);
  report.Set("p50_us", Us(latency, 0.50), "us", q);
  report.Set("p99_us", Us(latency, 0.99), "us", q);
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("total_s", Seconds(total_ns), "s", q);
  report.Set("p999_us", Us(latency, 0.999), "us", latency.SamplesAbove(0.999));

  if (options.trace) {
    CrackingMetrics(before, after, Seconds(total_ns), &report);
    const scrack::CrackerIndex& index = engine->audit_column()->index();
    std::vector<Value> bounds;
    for (const RangeQuery& rq : queries) {
      bounds.push_back(rq.low);
      bounds.push_back(rq.high);
    }
    report.Set("index.pieces", static_cast<double>(index.num_cracks() + 1),
               "count");
    report.Set("index.find_piece_ns", FindPieceNs(index, bounds), "ns");
    engine.reset();
    KernelProbe(base, &report);
    WriteTrace(options, Analyze(CollectSpans()), std::nan(""), &report);
  }
  return report;
}

// ------------------------------------------------------- serving stacks --

namespace {

/// One built serving stack. Members are destroyed in reverse order: the
/// engine (and with it every client connection) first, then the servers,
/// then the nodes they serve.
struct Stack {
  std::vector<std::unique_ptr<scrack::StorageNode>> nodes;
  std::vector<std::unique_ptr<scrack::TcpNodeServer>> servers;
  std::vector<Value> lowers;
  TimedTransport* timed_transport = nullptr;
  std::unique_ptr<SelectEngine> engine;

  void StopServers() {
    for (auto& server : servers) server->Stop();
  }
};

/// epoch(crack); traced: the crack engine under the epoch layer is timed.
Status BuildEpochCrack(const Column* base, const EngineConfig& config,
                       bool traced, int node,
                       std::unique_ptr<SelectEngine>* out) {
  if (!traced) return scrack::CreateEngine("epoch(crack)", base, config, out);
  std::unique_ptr<SelectEngine> crack;
  SCRACK_RETURN_NOT_OK(scrack::CreateEngine("crack", base, config, &crack));
  *out = std::make_unique<scrack::EpochEngine>(std::make_unique<TimedEngine>(
      SpanKind::kCrack, node, std::move(crack), /*force=*/false));
  return Status::OK();
}

/// coord(4,epoch(crack)): each node behind an in-process TcpNodeServer on
/// loopback, reached through a default-option TcpTransport. Traced: every
/// node engine and the transport are timed.
Status BuildCluster(const Column& base, const EngineConfig& config,
                    bool traced, Stack* stack) {
  stack->lowers = scrack::CoordinatorEngine::ComputeLowers(base, kClusterNodes);
  if (static_cast<int>(stack->lowers.size()) != kClusterNodes) {
    return Status::Internal("cluster boundaries collapsed");
  }
  std::vector<std::vector<Value>> slices =
      scrack::CoordinatorEngine::DealSlices(base, stack->lowers);
  std::vector<scrack::TcpEndpoint> endpoints;
  for (int i = 0; i < kClusterNodes; ++i) {
    EngineConfig node_config = config;
    node_config.seed = config.seed + static_cast<uint64_t>(i) * kGolden;
    std::unique_ptr<scrack::StorageNode> node;
    SCRACK_RETURN_NOT_OK(scrack::StorageNode::Create(
        Column(std::move(slices[static_cast<size_t>(i)])), i,
        [&](const Column* node_base, int index,
            std::unique_ptr<SelectEngine>* out) {
          std::unique_ptr<SelectEngine> engine;
          SCRACK_RETURN_NOT_OK(
              BuildEpochCrack(node_base, node_config, traced, index, &engine));
          if (traced) {
            engine = std::make_unique<TimedEngine>(
                SpanKind::kNode, index, std::move(engine), /*force=*/true);
          }
          *out = std::move(engine);
          return Status::OK();
        },
        &node));
    auto server = std::make_unique<scrack::TcpNodeServer>();
    SCRACK_RETURN_NOT_OK(server->Start(node.get(), 0));
    endpoints.push_back(scrack::TcpEndpoint{"127.0.0.1", server->port()});
    stack->nodes.push_back(std::move(node));
    stack->servers.push_back(std::move(server));
  }
  std::unique_ptr<scrack::Transport> transport =
      std::make_unique<scrack::TcpTransport>(endpoints,
                                             scrack::TcpTransportOptions{});
  if (traced) {
    auto timed = std::make_unique<TimedTransport>(std::move(transport));
    stack->timed_transport = timed.get();
    transport = std::move(timed);
  }
  return scrack::CoordinatorEngine::CreateOverTransport(
      stack->lowers, std::move(transport), "epoch(crack)", kClusterNodes,
      &stack->engine);
}

enum class StackKind { kServe, kCluster };

/// The engine serving value `v`: the cluster node whose range holds it
/// (the largest i with lowers[i] <= v), or 0 for the single serve-* engine.
size_t EngineOf(const std::vector<Value>& lowers, Value v) {
  const auto above = std::upper_bound(lowers.begin(), lowers.end(), v);
  return above == lowers.begin()
             ? 0
             : static_cast<size_t>(above - lowers.begin()) - 1;
}

struct SetupResult {
  double setup_s = 0;
  std::vector<double> first_query_ms;  ///< one per fresh engine
};

/// Builds a stack and runs the warm-up pass over the pool (every range
/// once, in the timed phase's mode mix); both count as set-up. The first
/// query to reach each fresh engine (the one engine of serve-*, each of the
/// four nodes of cluster-tcp) pays its copy and first crack; those
/// latencies are the first-query samples. Which node the pool's very first
/// range lands on depends on the seed, so one sample per node keeps the
/// figure from depending on it.
Status SetUp(StackKind kind, const Column& base, const EngineConfig& config,
             bool traced, const std::vector<RangeQuery>& pool, Index n,
             std::unique_ptr<Stack>* stack, SetupResult* result,
             Report* report) {
  const int64_t t0 = NowNs();
  *stack = std::make_unique<Stack>();
  SCRACK_RETURN_NOT_OK(
      kind == StackKind::kServe
          ? BuildEpochCrack(&base, config, traced, -1, &(*stack)->engine)
          : BuildCluster(base, config, traced, stack->get()));
  SelectEngine* engine = (*stack)->engine.get();
  const std::vector<Value>& lowers = (*stack)->lowers;
  std::vector<bool> warmed(std::max<size_t>(1, lowers.size()), false);
  for (size_t k = 0; k < pool.size(); ++k) {
    // An engine's first query is always a kSum, so the first-query figure
    // does not depend on where in the mode mix the seed puts it.
    const size_t e = EngineOf(lowers, pool[k].low);
    const bool first = !warmed[e];
    warmed[e] = true;
    const Query query{pool[k].low, pool[k].high,
                      first ? OutputMode::kSum
                            : ReadMode(static_cast<int64_t>(k)),
                      1};
    QueryOutput output;
    const int64_t q0 = NowNs();
    const Status status = engine->Execute(query, &output);
    if (first) {
      result->first_query_ms.push_back(static_cast<double>(NowNs() - q0) *
                                       1e-6);
    }
    ++report->attempted;
    if (!status.ok() ||
        !Matches(query, output, PermutationAnswer(n, query.low, query.high))) {
      ++report->failed;
    }
  }
  result->setup_s = Seconds(NowNs() - t0);
  return Status::OK();
}

/// Latencies of one client, one histogram per window of the timed phase.
struct ClientResult {
  std::vector<LogHistogram> windows;  // sized before the phase starts
  int64_t attempted = 0;
  int64_t failed = 0;
};

struct WriterResult {
  LogHistogram cycle;       ///< from each cycle's scheduled start
  LogHistogram merge_read;  ///< the merging read alone
  int64_t scheduled = 0;    ///< cycles the phase's schedule holds
  int64_t attempted = 0;
  int64_t failed = 0;
};

struct Phase {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int windows = kMinWindows;
  int64_t window_ns() const {
    return std::max<int64_t>(1, (end_ns - start_ns) / windows);
  }
};

/// Closed-loop reader: picks pool ranges uniformly until the phase ends.
/// Its counters stay local until the end: the clients' results sit side by
/// side in one vector, and per-query increments there would share cache
/// lines across readers.
void RunClient(SelectEngine* engine, const std::vector<RangeQuery>& pool, Index n,
               uint64_t seed, int client, bool traced, const Phase& phase,
               ClientResult* result) {
  scrack::Rng rng(seed * 1000003ULL + static_cast<uint64_t>(client));
  int64_t attempted = 0;
  int64_t failed = 0;
  for (int64_t k = 0;; ++k) {
    const int64_t t0 = NowNs();
    if (t0 >= phase.end_ns) break;
    const RangeQuery& range = pool[rng.Uniform(pool.size())];
    const Query query{range.low, range.high, ReadMode(k), 1};
    QueryOutput output;
    Status status;
    if (traced && k % kSampleStride == 0) {
      RequestScope scope((static_cast<int64_t>(client) << 40) | k,
                         SpanKind::kRequest, query);
      status = engine->Execute(query, &output);
    } else {
      status = engine->Execute(query, &output);
    }
    const int64_t t1 = NowNs();
    ++attempted;
    if (!status.ok() ||
        !Matches(query, output, PermutationAnswer(n, range.low, range.high))) {
      ++failed;
    }
    if (t1 < phase.end_ns) {
      const int64_t w = std::min<int64_t>(
          phase.windows - 1, (t1 - phase.start_ns) / phase.window_ns());
      result->windows[static_cast<size_t>(w)].Add(t1 - t0);
    }
  }
  result->attempted = attempted;
  result->failed = failed;
}

/// serve-rw writer: 1,000 cycles/s on a fixed schedule in [0.9n, n). A
/// cycle stages a delete of a present value or re-inserts a deleted one,
/// then counts the 1,000 values around it, which merges the update.
void RunWriter(SelectEngine* engine, Index n, uint64_t seed,
               const Phase& phase, WriterResult* result) {
  const Value band_lo = n - n / 10;
  const Value band_hi = n;
  scrack::Rng rng(seed ^ 0xD1E7E5ULL);
  std::vector<Value> deleted;
  result->scheduled =
      (phase.end_ns - phase.start_ns + kWriterPeriodNs - 1) / kWriterPeriodNs;
  for (int64_t k = 0;; ++k) {
    // A writer that falls behind runs its late cycles back to back, and
    // stops with the phase: cycles it could not start in time are missing
    // (see RunPhase), rather than running afterwards without the readers.
    const int64_t scheduled = phase.start_ns + k * kWriterPeriodNs;
    if (scheduled >= phase.end_ns || NowNs() >= phase.end_ns) break;
    const int64_t wait = scheduled - NowNs();
    if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));

    const bool remove = deleted.empty() ||
                        (deleted.size() < kMaxOutstandingDeletes &&
                         rng.Uniform(2) == 0);
    Value v = 0;
    if (remove) {
      do {
        v = rng.UniformValue(band_lo, band_hi);
      } while (std::find(deleted.begin(), deleted.end(), v) != deleted.end());
    } else {
      const size_t i = rng.Uniform(deleted.size());
      v = deleted[i];
      deleted[i] = deleted.back();
      deleted.pop_back();
    }
    const Query query{std::max(band_lo, v - kUpdateSpan / 2),
                      std::min(band_hi, v + kUpdateSpan / 2),
                      OutputMode::kCount, 1};
    RequestScope cycle(k, SpanKind::kUpdate, query);
    Status status = remove ? engine->StageDelete(v) : engine->StageInsert(v);
    if (remove) deleted.push_back(v);
    QueryOutput output;
    const int64_t r0 = NowNs();
    if (status.ok()) {
      SpanScope merge(SpanKind::kMergeRead, -1, query);
      status = engine->Execute(query, &output);
    }
    const int64_t t1 = NowNs();
    Expected expected = PermutationAnswer(n, query.low, query.high);
    for (Value d : deleted) {
      if (d >= query.low && d < query.high) --expected.count;
    }
    ++result->attempted;
    if (!status.ok() || !Matches(query, output, expected)) ++result->failed;
    result->cycle.Add(t1 - scheduled);
    result->merge_read.Add(t1 - r0);
  }
}

struct PhaseResult {
  std::vector<LogHistogram> windows;  ///< readers, merged
  LogHistogram all;                   ///< readers, whole phase
  WriterResult writer;
  double window_seconds = 0;
  double reader_seconds = 0;  ///< summed reader latency (engine time)
  EngineStats before;
  EngineStats after;
};

/// The timed phase: `clients` closed-loop readers (plus the writer when
/// asked) for `seconds`, then joins every thread.
PhaseResult RunPhase(SelectEngine* engine, const std::vector<RangeQuery>& pool,
                     Index n, uint64_t seed, int clients, bool with_writer,
                     bool traced, double seconds, Report* report) {
  PhaseResult out;
  out.before = engine->CurrentStats();
  Phase phase;
  phase.start_ns = NowNs();
  phase.end_ns = phase.start_ns + static_cast<int64_t>(seconds * 1e9);
  phase.windows = std::max(kMinWindows,
                           static_cast<int>(seconds / kWindowSeconds));
  out.window_seconds = Seconds(phase.window_ns());
  out.windows.resize(static_cast<size_t>(phase.windows));
  std::vector<ClientResult> results(static_cast<size_t>(clients));
  for (ClientResult& r : results) r.windows.resize(out.windows.size());
  SetTracing(traced);
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < clients; ++c) {
      threads.emplace_back(RunClient, engine, std::cref(pool), n, seed, c,
                           traced, std::cref(phase),
                           &results[static_cast<size_t>(c)]);
    }
    if (with_writer) {
      threads.emplace_back(RunWriter, engine, n, seed, std::cref(phase),
                           &out.writer);
    }
    for (std::thread& t : threads) t.join();
  }
  SetTracing(false);
  out.after = engine->CurrentStats();
  for (const ClientResult& r : results) {
    for (size_t w = 0; w < out.windows.size(); ++w) {
      out.windows[w].Merge(r.windows[w]);
      out.all.Merge(r.windows[w]);
    }
    report->attempted += r.attempted;
    report->failed += r.failed;
  }
  WriterResult& writer = out.writer;
  if (writer.attempted <
      kWriterMinShare * static_cast<double>(writer.scheduled)) {
    report->notes.push_back("writer: ran " + std::to_string(writer.attempted) +
                            " of " + std::to_string(writer.scheduled) +
                            " scheduled cycles");
    const int64_t missing = writer.scheduled - writer.attempted;
    writer.attempted += missing;
    writer.failed += missing;
  }
  report->attempted += writer.attempted;
  report->failed += writer.failed;
  out.reader_seconds = out.all.sum() * 1e-9;
  return out;
}

/// Median across windows of a per-window figure.
template <typename F>
double MedianWindow(const PhaseResult& phase, F figure) {
  std::vector<double> values;
  for (const LogHistogram& h : phase.windows) values.push_back(figure(h));
  return Median(values);
}

double WindowQps(const PhaseResult& phase) {
  return MedianWindow(phase, [&](const LogHistogram& h) {
    return static_cast<double>(h.count()) / phase.window_seconds;
  });
}

/// Everything a serving workload shares: cold-to-converged set-up (median
/// of several), the untraced timed phase, and in trace mode a second,
/// traced phase over a hand-built stack plus the layer probes.
Report RunServing(const Options& options, StackKind kind, bool with_writer) {
  const Scale scale = ScaleFor(options);
  const Index n = scale.serve_n;
  Report report;
  const Column base = Column::UniquePermutation(n, options.seed);
  // serve-*: reads stay below the writer's band; cluster-tcp spans [0, n).
  const Value limit = kind == StackKind::kServe ? n - n / 10 : n;
  const std::vector<RangeQuery> pool =
      MakePool(options.seed, scale.pool, limit, kRangeWidth);
  EngineConfig config = EngineConfig::Detected();
  config.seed = options.seed;
  const int clients =
      kind == StackKind::kServe ? kServeReaders : kClusterClients;

  std::vector<double> setups;
  std::vector<double> firsts;
  std::unique_ptr<Stack> stack;
  auto set_up = [&](bool traced) {
    stack.reset();
    SetupResult setup;
    const Status status =
        SetUp(kind, base, config, traced, pool, n, &stack, &setup, &report);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up: %s\n", status.ToString().c_str());
      ++report.failed;
      return false;
    }
    if (!traced) {
      setups.push_back(setup.setup_s);
      firsts.insert(firsts.end(), setup.first_query_ms.begin(),
                    setup.first_query_ms.end());
    }
    return true;
  };
  if (!set_up(/*traced=*/false)) return report;
  if (options.self_test) {
    stack->engine = std::make_unique<CorruptingEngine>(std::move(stack->engine),
                                                       1000);
  }
  const PhaseResult plain =
      RunPhase(stack->engine.get(), pool, n, options.seed, clients,
               with_writer, /*traced=*/false, options.seconds, &report);
  // Read before the extra set-ups below: freed stacks leave memory in
  // per-thread malloc arenas, which made a later reading wander by ~7%.
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  for (int i = 1; i < scale.setups; ++i) {
    if (!set_up(/*traced=*/false)) return report;
  }
  const double qps = WindowQps(plain);
  report.Set("setup_s", Median(setups), "s",
             static_cast<int64_t>(setups.size()));
  report.Set("first_query_ms", Median(firsts), "ms",
             static_cast<int64_t>(firsts.size()));
  report.Set("qps", qps, "1/s", static_cast<int64_t>(plain.windows.size()));
  report.Set("p50_us",
             MedianWindow(plain, [](const LogHistogram& h) { return Us(h, 0.5); }),
             "us", plain.all.count());
  report.Set("p99_us",
             MedianWindow(plain, [](const LogHistogram& h) { return Us(h, 0.99); }),
             "us", plain.all.count());
  report.Set("p999_us", Us(plain.all, 0.999), "us",
             plain.all.SamplesAbove(0.999));
  if (with_writer) {
    report.Set("update_p50_us", Us(plain.writer.cycle, 0.5), "us",
               plain.writer.cycle.count());
    report.Set("writer_cycles_per_s",
               static_cast<double>(plain.writer.cycle.count()) /
                   options.seconds,
               "1/s", plain.writer.scheduled);
  }
  if (!options.trace) return report;

  // Traced run: the same stack built by hand with decorators at each layer
  // boundary, its own set-up, and a timed phase of the same length.
  if (!set_up(/*traced=*/true)) return report;
  const PhaseResult traced =
      RunPhase(stack->engine.get(), pool, n, options.seed, clients,
               with_writer, /*traced=*/true, options.seconds, &report);
  stack->StopServers();
  const double traced_qps = WindowQps(traced);
  const double overhead_pct = (qps / traced_qps - 1.0) * 100.0;

  report.Set("trace.overhead_pct", overhead_pct, "%");
  CrackingMetrics(traced.before, traced.after, traced.reader_seconds, &report);
  const TraceAnalysis analysis = Analyze(CollectSpans());
  auto layer = [&](SpanKind k) -> const LayerTimes& {
    return analysis.layers[static_cast<size_t>(k)];
  };

  // Index: piece count and FindPiece cost over the pool's own bounds.
  std::vector<std::vector<Value>> bounds(std::max<size_t>(1, stack->nodes.size()));
  for (const RangeQuery& r : pool) {
    for (Value v : {r.low, r.high}) bounds[EngineOf(stack->lowers, v)].push_back(v);
  }
  double pieces = 0;
  double find_ns = 0;
  for (size_t i = 0; i < bounds.size(); ++i) {
    const scrack::CrackerColumn* column =
        kind == StackKind::kServe ? stack->engine->audit_column()
                                  : stack->nodes[i]->engine()->audit_column();
    pieces += static_cast<double>(column->index().num_cracks() + 1);
    find_ns += FindPieceNs(column->index(), bounds[i]) *
               static_cast<double>(bounds[i].size());
  }
  const double lookups = 2.0 * static_cast<double>(pool.size());
  report.Set("index.pieces", pieces, "count");
  report.Set("index.find_piece_ns", find_ns / lookups, "ns");

  if (kind == StackKind::kServe) {
    // The request span is the epoch call; its children are the crack calls
    // of escalated queries.
    report.Set("epoch.self_us_p50", Us(layer(SpanKind::kRequest).self, 0.5),
               "us", layer(SpanKind::kRequest).self.count());
  } else {
    report.Set("epoch.self_us_p50", Us(layer(SpanKind::kNode).self, 0.5), "us",
               layer(SpanKind::kNode).self.count());
  }
  if (with_writer) {
    report.Set("pending.merge_read_us_p50", Us(traced.writer.merge_read, 0.5),
               "us", traced.writer.merge_read.count());
    report.Set("pending.update_us_p50", Us(traced.writer.cycle, 0.5), "us",
               traced.writer.cycle.count());
  }
  if (kind == StackKind::kCluster) {
    const EngineStats& a = traced.after;
    const EngineStats& b = traced.before;
    const double fan_outs =
        static_cast<double>(std::max<int64_t>(1, a.fan_outs - b.fan_outs));
    const double routed = static_cast<double>(a.nodes_routed - b.nodes_routed);
    report.Set("coord.routed_per_query", routed / fan_outs, "nodes");
    // The epoch layer runs on the nodes: count its reads per node request.
    report.Set("epoch.shared_ratio",
               static_cast<double>(a.shared_reads - b.shared_reads) /
                   std::max(1.0, routed),
               "ratio");
    report.Set("epoch.escalations_per_kq",
               static_cast<double>(a.escalations - b.escalations) /
                   std::max(1.0, routed) * 1000.0,
               "count");
    report.Set("coord.self_us_p50", Us(layer(SpanKind::kRequest).self, 0.5),
               "us", layer(SpanKind::kRequest).self.count());
    report.Set("wire.bytes_per_query",
               static_cast<double>(a.wire_bytes - b.wire_bytes) / fan_outs,
               "bytes");
    double encode_ns = 0;
    double decode_ns = 0;
    ++report.attempted;
    if (!WireProbe(stack->timed_transport->TakeCaptured(), &encode_ns,
                   &decode_ns)) {
      ++report.failed;
    }
    report.Set("wire.encode_ns", encode_ns, "ns");
    report.Set("wire.decode_ns", decode_ns, "ns");
    const LayerTimes& transport = layer(SpanKind::kTransport);
    report.Set("transport.call_us_p50", Us(transport.duration, 0.5), "us",
               transport.duration.count());
    report.Set("transport.call_us_p99", Us(transport.duration, 0.99), "us",
               transport.duration.count());
    report.Set("transport.self_us_p50", Us(transport.self, 0.5), "us",
               transport.self.count());
    report.Set("transport.failures",
               static_cast<double>(
                   (a.transport_timeouts - b.transport_timeouts) +
                   (a.transport_reconnects - b.transport_reconnects) +
                   (a.transport_retries - b.transport_retries) +
                   (a.node_failures - b.node_failures)),
               "count");
    report.Set("node.engine_us_p50", Us(layer(SpanKind::kNode).duration, 0.5),
               "us", layer(SpanKind::kNode).duration.count());
  }
  stack.reset();
  KernelProbe(base, &report);
  WriteTrace(options, analysis, overhead_pct, &report);
  return report;
}

}  // namespace

Report RunServe(const Options& options, bool with_writer) {
  return RunServing(options, StackKind::kServe, with_writer);
}

Report RunCluster(const Options& options) {
  return RunServing(options, StackKind::kCluster, /*with_writer=*/false);
}

}  // namespace e2e
