// Spans at the layer boundaries of a traced run.
//
// The traced run rebuilds each workload's stack by hand with bench-only
// decorators at every layer boundary, so no library file changes:
//
//   request    one client request, around the outermost engine call
//   update     one serve-rw writer cycle (stage + merging read)
//   merge_read the writer's merging read inside a cycle
//   transport  one TcpTransport::Call, around the real transport
//   node       a storage node's whole engine, on the node's server thread
//   crack      the crack engine under an EpochEngine (only escalated
//              queries reach it; shared reads never do)
//
// A span records its kind, start, end, parent span and request id. Spans on
// the client's thread inherit both from a thread-local context; a node span
// runs on a server thread that knows neither, so Analyze() attributes it to
// the transport call on the same node, carrying the same query, that
// contains it and ends first — calls to one node are serialized on its
// connection, so that call is the one the node was answering. A call
// claims one node span; node spans of unsampled calls are dropped.
//
// Spans stay in per-thread buffers in memory while the run measures and are
// written out once, at the end (WriteJsonl). Recording never locks: each
// thread claims a buffer slot with one atomic increment on its first span.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "cracking/engine.h"
#include "distributed/transport.h"
#include "histogram.h"
#include "storage/query.h"

namespace e2e {

enum class SpanKind : uint8_t {
  kRequest,
  kUpdate,
  kMergeRead,
  kTransport,
  kNode,
  kCrack,
};
constexpr int kNumSpanKinds = 6;

const char* SpanKindName(SpanKind kind);

struct Span {
  int64_t id = -1;
  int64_t parent = -1;   ///< -1: a root, or not yet attributed
  int64_t request = -1;  ///< -1: not yet attributed
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t self_ns = 0;   ///< set by Analyze(): duration minus child cover
  scrack::Value low = 0;
  scrack::Value high = 0;
  int32_t node = -1;     ///< storage node, for transport and node spans
  scrack::OutputMode mode = scrack::OutputMode::kCount;
  SpanKind kind = SpanKind::kRequest;
};

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

/// Spans are recorded only while enabled; the traced run switches it on
/// for its timed phase, so set-up and warm-up traffic stays out.
void SetTracing(bool on);
bool TracingEnabled();

/// Every span recorded so far, across threads. Call only once every
/// recording thread has been joined.
std::vector<Span> CollectSpans();

/// RAII span. Records when tracing is on and either `force` is set or the
/// thread is inside a sampled request (a request id or an open parent span
/// in its context). While open it is the parent of spans nested on the same
/// thread.
class SpanScope {
 public:
  SpanScope(SpanKind kind, int node, const scrack::Query& query,
            bool force = false);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool active_ = false;
  int64_t saved_parent_ = -1;
  Span span_;
};

/// Opens a request-level span and marks the thread as inside sampled
/// request `request_id` until destroyed.
class RequestScope {
 public:
  RequestScope(int64_t request_id, SpanKind kind, const scrack::Query& query);
  ~RequestScope();
  RequestScope(const RequestScope&) = delete;
  RequestScope& operator=(const RequestScope&) = delete;

 private:
  int64_t saved_request_;
  scrack::Query saved_query_;
  SpanScope span_;
};

/// Bench-only engine decorator: one span of `kind` per call into `inner`.
/// Forwards audit_column() and CurrentStats(), so an EpochEngine wrapped
/// around it classifies and reports exactly as around `inner` itself.
class TimedEngine : public scrack::SelectEngine {
 public:
  TimedEngine(SpanKind kind, int node,
              std::unique_ptr<scrack::SelectEngine> inner, bool force);

  scrack::Status Select(scrack::Value low, scrack::Value high,
                        scrack::QueryResult* result) override;
  scrack::Status Execute(const scrack::Query& query,
                         scrack::QueryOutput* output) override;
  std::string name() const override { return inner_->name(); }
  scrack::Status StageInsert(scrack::Value v) override;
  scrack::Status StageDelete(scrack::Value v) override;
  scrack::EngineStats CurrentStats() const override {
    return inner_->CurrentStats();
  }
  scrack::Status Validate() const override { return inner_->Validate(); }
  const scrack::CrackerColumn* audit_column() const override {
    return inner_->audit_column();
  }

 private:
  const SpanKind kind_;
  const int node_;
  const std::unique_ptr<scrack::SelectEngine> inner_;
  const bool force_;
};

/// Bench-only transport decorator: one span per Call made inside a sampled
/// request, and a copy of the first kMaxCaptured request/response pairs it
/// carries (the warm-up pass fills it, before the timed phase) for the wire
/// encode/decode probe.
class TimedTransport : public scrack::Transport {
 public:
  static constexpr int64_t kMaxCaptured = 4096;

  struct Message {
    std::vector<uint8_t> request;
    std::vector<uint8_t> response;
  };

  explicit TimedTransport(std::unique_ptr<scrack::Transport> inner);

  int num_nodes() const override { return inner_->num_nodes(); }
  scrack::Status Call(int node, const std::vector<uint8_t>& request,
                      std::vector<uint8_t>* response) override;
  scrack::TransportCounters counters() const override {
    return inner_->counters();
  }

  /// The captured pairs; call after the calling threads have been joined.
  std::vector<Message> TakeCaptured();

 private:
  const std::unique_ptr<scrack::Transport> inner_;
  std::vector<Message> captured_;  // fixed size; slot i owned by its claimer
  std::atomic<int64_t> next_capture_{0};
};

/// Per-kind duration and self-time distributions of an analyzed trace.
struct LayerTimes {
  LogHistogram duration;
  LogHistogram self;
};

struct TraceAnalysis {
  std::array<LayerTimes, kNumSpanKinds> layers;
  std::vector<Span> spans;  ///< attributed spans of sampled requests
  int64_t dropped = 0;      ///< spans that belong to no sampled request
};

/// Attributes node spans to transport calls, drops spans outside sampled
/// requests, and computes each span's self time: its duration minus the
/// part of its interval that its children cover.
TraceAnalysis Analyze(std::vector<Span> spans);

/// Writes `header` (one JSON object) and then one JSON object per span,
/// for at most the first `max_spans` spans.
bool WriteJsonl(const std::string& path, const std::string& header,
                const std::vector<Span>& spans, size_t max_spans);

}  // namespace e2e
