#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <tuple>
#include <utility>

namespace e2e {

using scrack::OutputMode;
using scrack::Query;
using scrack::Status;
using scrack::Value;

namespace {

// Threads that ever record: main, clients, writer, node connection threads
// of the traced stack. A thread past the limit records nothing.
constexpr int kMaxThreads = 256;

struct ThreadBuffer {
  std::deque<Span> spans;  // deque: growing never copies recorded spans
  int64_t next_seq = 0;
  int64_t slot = 0;
};

std::array<std::unique_ptr<ThreadBuffer>, kMaxThreads> g_buffers;
std::atomic<int> g_next_slot{0};
std::atomic<bool> g_enabled{false};

struct ThreadState {
  ThreadBuffer* buffer = nullptr;
  bool out_of_slots = false;
  int64_t request = -1;
  int64_t parent = -1;
  Query query;
};
thread_local ThreadState t_state;

ThreadBuffer* MyBuffer() {
  if (t_state.buffer == nullptr && !t_state.out_of_slots) {
    const int slot = g_next_slot.fetch_add(1, std::memory_order_relaxed);
    if (slot >= kMaxThreads) {
      t_state.out_of_slots = true;
      return nullptr;
    }
    g_buffers[static_cast<size_t>(slot)] = std::make_unique<ThreadBuffer>();
    t_state.buffer = g_buffers[static_cast<size_t>(slot)].get();
    t_state.buffer->slot = slot;
  }
  return t_state.buffer;
}

SpanKind EnterRequest(int64_t request_id, const Query& query, SpanKind kind) {
  t_state.request = request_id;
  t_state.query = query;
  return kind;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRequest: return "request";
    case SpanKind::kUpdate: return "update";
    case SpanKind::kMergeRead: return "merge_read";
    case SpanKind::kTransport: return "transport";
    case SpanKind::kNode: return "node";
    case SpanKind::kCrack: return "crack";
  }
  return "?";
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetTracing(bool on) { g_enabled.store(on, std::memory_order_release); }

bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> CollectSpans() {
  std::vector<Span> all;
  const int used = std::min(g_next_slot.load(), kMaxThreads);
  for (int i = 0; i < used; ++i) {
    const ThreadBuffer* buffer = g_buffers[static_cast<size_t>(i)].get();
    if (buffer == nullptr) continue;
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
  }
  return all;
}

SpanScope::SpanScope(SpanKind kind, int node, const Query& query, bool force) {
  if (!TracingEnabled()) return;
  if (!force && t_state.request < 0 && t_state.parent < 0) return;
  ThreadBuffer* buffer = MyBuffer();
  if (buffer == nullptr) return;
  active_ = true;
  span_.id = ((buffer->slot + 1) << 40) | buffer->next_seq++;
  span_.parent = t_state.parent;
  span_.request = t_state.request;
  span_.kind = kind;
  span_.node = node;
  span_.low = query.low;
  span_.high = query.high;
  span_.mode = query.mode;
  saved_parent_ = t_state.parent;
  t_state.parent = span_.id;
  span_.start_ns = NowNs();
}

SpanScope::~SpanScope() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_state.parent = saved_parent_;
  t_state.buffer->spans.push_back(span_);
}

RequestScope::RequestScope(int64_t request_id, SpanKind kind,
                           const Query& query)
    : saved_request_(t_state.request),
      saved_query_(t_state.query),
      span_(EnterRequest(request_id, query, kind), -1, query) {}

RequestScope::~RequestScope() {
  t_state.request = saved_request_;
  t_state.query = saved_query_;
}

TimedEngine::TimedEngine(SpanKind kind, int node,
                         std::unique_ptr<scrack::SelectEngine> inner,
                         bool force)
    : kind_(kind), node_(node), inner_(std::move(inner)), force_(force) {}

Status TimedEngine::Select(Value low, Value high,
                           scrack::QueryResult* result) {
  SpanScope span(kind_, node_, Query{low, high, OutputMode::kMaterialize, 1},
                 force_);
  return inner_->Select(low, high, result);
}

Status TimedEngine::Execute(const Query& query, scrack::QueryOutput* output) {
  SpanScope span(kind_, node_, query, force_);
  return inner_->Execute(query, output);
}

Status TimedEngine::StageInsert(Value v) {
  SpanScope span(kind_, node_, Query{v, v + 1, OutputMode::kCount, 1},
                 force_);
  return inner_->StageInsert(v);
}

Status TimedEngine::StageDelete(Value v) {
  SpanScope span(kind_, node_, Query{v, v + 1, OutputMode::kCount, 1},
                 force_);
  return inner_->StageDelete(v);
}

TimedTransport::TimedTransport(std::unique_ptr<scrack::Transport> inner)
    : inner_(std::move(inner)),
      captured_(static_cast<size_t>(kMaxCaptured)) {}

Status TimedTransport::Call(int node, const std::vector<uint8_t>& request,
                            std::vector<uint8_t>* response) {
  Status status;
  {
    SpanScope span(SpanKind::kTransport, node, t_state.query);
    status = inner_->Call(node, request, response);
  }
  if (status.ok() &&
      next_capture_.load(std::memory_order_relaxed) < kMaxCaptured) {
    const int64_t slot =
        next_capture_.fetch_add(1, std::memory_order_relaxed);
    if (slot < kMaxCaptured) {
      captured_[static_cast<size_t>(slot)] = Message{request, *response};
    }
  }
  return status;
}

std::vector<TimedTransport::Message> TimedTransport::TakeCaptured() {
  const int64_t n = std::min(next_capture_.load(), kMaxCaptured);
  std::vector<Message> out(std::make_move_iterator(captured_.begin()),
                           std::make_move_iterator(captured_.begin() + n));
  return out;
}

TraceAnalysis Analyze(std::vector<Span> spans) {
  TraceAnalysis analysis;
  std::sort(spans.begin(), spans.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  auto find = [&spans](int64_t id) -> Span* {
    auto it = std::lower_bound(
        spans.begin(), spans.end(), id,
        [](const Span& s, int64_t key) { return s.id < key; });
    return it != spans.end() && it->id == id ? &*it : nullptr;
  };

  // Node spans: the containing transport call on the same node for the
  // same query that ends first.
  auto key_less = [](const Span& a, const Span& b) {
    return std::make_tuple(a.node, a.low, a.high, a.mode) <
           std::make_tuple(b.node, b.low, b.high, b.mode);
  };
  std::vector<Span> calls;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kTransport) calls.push_back(s);
  }
  std::sort(calls.begin(), calls.end(), key_less);
  // A call carries one node request. A node span from an unsampled call
  // for the same query can also fall inside a sampled call that waited for
  // the connection; the call's own request is the one served last.
  std::vector<Span*> claimed(calls.size(), nullptr);
  for (Span& s : spans) {
    if (s.kind != SpanKind::kNode || s.parent >= 0) continue;
    const auto range = std::equal_range(calls.begin(), calls.end(), s, key_less);
    auto best = range.second;
    for (auto it = range.first; it != range.second; ++it) {
      if (it->start_ns <= s.start_ns && it->end_ns >= s.end_ns &&
          (best == range.second || it->end_ns < best->end_ns)) {
        best = it;
      }
    }
    if (best == range.second) continue;
    Span*& owner = claimed[static_cast<size_t>(best - calls.begin())];
    if (owner != nullptr && owner->end_ns > s.end_ns) continue;
    if (owner != nullptr) owner->parent = owner->request = -1;
    owner = &s;
    s.parent = best->id;
    s.request = best->request;
  }
  // Spans nested under a node span inherit its request (depth <= 2 here,
  // but resolve to a fixed point regardless).
  for (bool changed = true; changed;) {
    changed = false;
    for (Span& s : spans) {
      if (s.request >= 0 || s.parent < 0) continue;
      const Span* parent = find(s.parent);
      if (parent != nullptr && parent->request >= 0) {
        s.request = parent->request;
        changed = true;
      }
    }
  }

  const auto unsampled = std::remove_if(
      spans.begin(), spans.end(), [](const Span& s) { return s.request < 0; });
  analysis.dropped = spans.end() - unsampled;
  spans.erase(unsampled, spans.end());
  std::vector<Span>& kept = spans;
  // `kept` is still sorted by id. Children are grouped by parent index and
  // sorted by start, so each parent's covered time is one sweep.
  struct Child {
    size_t parent;
    int64_t start;
    int64_t end;
  };
  std::vector<Child> children;
  for (const Span& s : kept) {
    if (s.parent < 0) continue;
    auto it = std::lower_bound(
        kept.begin(), kept.end(), s.parent,
        [](const Span& p, int64_t key) { return p.id < key; });
    if (it != kept.end() && it->id == s.parent) {
      children.push_back(
          Child{static_cast<size_t>(it - kept.begin()), s.start_ns, s.end_ns});
    }
  }
  std::sort(children.begin(), children.end(),
            [](const Child& a, const Child& b) {
              return std::tie(a.parent, a.start) < std::tie(b.parent, b.start);
            });
  size_t c = 0;
  for (size_t i = 0; i < kept.size(); ++i) {
    Span& s = kept[i];
    int64_t covered = 0;
    int64_t reach = s.start_ns;
    for (; c < children.size() && children[c].parent == i; ++c) {
      const int64_t from = std::max(children[c].start, reach);
      const int64_t to = std::min(children[c].end, s.end_ns);
      if (to > from) {
        covered += to - from;
        reach = to;
      }
    }
    const int64_t duration = s.end_ns - s.start_ns;
    s.self_ns = duration - covered;
    LayerTimes& layer = analysis.layers[static_cast<size_t>(s.kind)];
    layer.duration.Add(duration);
    layer.self.Add(s.self_ns);
  }
  std::sort(kept.begin(), kept.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  analysis.spans = std::move(kept);
  return analysis;
}

bool WriteJsonl(const std::string& path, const std::string& header,
                const std::vector<Span>& spans, size_t max_spans) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "%s\n", header.c_str());
  for (size_t i = 0; i < std::min(spans.size(), max_spans); ++i) {
    const Span& s = spans[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"self_ns\":%lld,\"node\":%d,\"low\":%lld,\"high\":%lld,"
                 "\"mode\":\"%s\"}\n",
                 SpanKindName(s.kind), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.self_ns), s.node,
                 static_cast<long long>(s.low),
                 static_cast<long long>(s.high),
                 scrack::OutputModeName(s.mode));
  }
  return std::fclose(out) == 0;
}

}  // namespace e2e
