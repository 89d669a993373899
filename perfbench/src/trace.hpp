// In-memory spans around the benchmark's calls into the toolkit, written
// out when the run ends.  Spans are recorded from one thread (the one that
// runs the workload); a span's parent is the span open when it began.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;  // "<layer>.<call>", e.g. "logs.ingest"
  double start_s = 0.0;  // seconds since the tracer was created
  double end_s = 0.0;
  int parent = -1;  // index into the span list; -1 = root
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  // An enabled tracer can stop and resume recording, so a traced run can
  // interleave untraced passes and measure the tracing overhead in-run.
  void SetRecording(bool on) { recording_ = on; }
  [[nodiscard]] bool Recording() const { return enabled_ && recording_; }
  // Open a span; returns its index (-1 when not recording).
  int Begin(const std::string& name);
  void End(int index);

  [[nodiscard]] const std::vector<Span>& Spans() const { return spans_; }

 private:
  bool enabled_;
  bool recording_ = true;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), index_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// Per-name totals: summed duration, summed self time (duration minus the
// part of the span's interval its direct children cover) and call count.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  int calls = 0;
};

[[nodiscard]] std::vector<double> SelfTimes(const std::vector<Span>& spans);
[[nodiscard]] std::map<std::string, SpanTotals> TotalsByName(
    const std::vector<Span>& spans);
// Totals keyed by layer: the name's prefix before the first '.'.
[[nodiscard]] std::map<std::string, SpanTotals> TotalsByLayer(
    const std::vector<Span>& spans);

// Chrome trace-event JSON ("X" complete events, microseconds), loadable in
// chrome://tracing or Perfetto.
[[nodiscard]] std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench
