#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

int Tracer::Begin(const std::string& name) {
  if (!Recording()) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = std::chrono::duration<double>(
                     std::chrono::steady_clock::now() - origin_)
                     .count();
  spans_.push_back(std::move(span));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::End(int index) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - origin_)
          .count();
  // Spans close in LIFO order under RAII; tolerate an out-of-order close.
  const auto it = std::find(open_.begin(), open_.end(), index);
  if (it != open_.end()) open_.erase(it, open_.end());
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const auto& span : spans) {
    if (span.parent < 0) continue;
    children[static_cast<std::size_t>(span.parent)].emplace_back(span.start_s,
                                                                 span.end_s);
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0.0;
    double run_begin = 0.0;
    double run_end = 0.0;
    bool in_run = false;
    for (const auto& [begin_raw, end_raw] : kids) {
      const double begin = std::max(begin_raw, span.start_s);
      const double end = std::min(end_raw, span.end_s);
      if (end <= begin) continue;
      if (in_run && begin <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (in_run) covered += run_end - run_begin;
      run_begin = begin;
      run_end = end;
      in_run = true;
    }
    if (in_run) covered += run_end - run_begin;
    self[i] = std::max(0.0, (span.end_s - span.start_s) - covered);
  }
  return self;
}

namespace {

std::map<std::string, SpanTotals> Totals(const std::vector<Span>& spans,
                                         bool by_layer) {
  const auto self = SelfTimes(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    std::string key = spans[i].name;
    if (by_layer) key = key.substr(0, key.find('.'));
    auto& entry = totals[key];
    entry.total_s += spans[i].end_s - spans[i].start_s;
    entry.self_s += self[i];
    ++entry.calls;
  }
  return totals;
}

}  // namespace

std::map<std::string, SpanTotals> TotalsByName(const std::vector<Span>& spans) {
  return Totals(spans, false);
}

std::map<std::string, SpanTotals> TotalsByLayer(const std::vector<Span>& spans) {
  return Totals(spans, true);
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buffer[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}",
                  i == 0 ? "" : ",", span.name.c_str(),
                  span.name.substr(0, span.name.find('.')).c_str(),
                  span.start_s * 1e6, (span.end_s - span.start_s) * 1e6, i,
                  span.parent);
    out += buffer;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
