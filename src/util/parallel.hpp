// Minimal blocking thread pool + parallel_for used by the fleet simulator and
// the analysis passes.  Design points:
//
//  - Work is partitioned into contiguous index ranges (one chunk per worker by
//    default) so per-node simulation state stays cache-local and results can
//    be written into pre-sized output slots without synchronization.
//  - Determinism: parallelism never changes results because all random streams
//    are keyed by entity identity (see util/rng.hpp), and reductions are
//    performed in index order after the parallel region.
//  - The pool is created on demand and shared process-wide; pass
//    `max_threads = 1` to force serial execution (useful in tests).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

#include "util/thread_annotations.hpp"

namespace astra {

// Resolve a --threads style knob: 0 = hardware concurrency, else as given.
[[nodiscard]] inline unsigned ResolveThreadCount(unsigned threads) noexcept {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

class ThreadPool {
 public:
  explicit ThreadPool(unsigned thread_count);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned ThreadCount() const noexcept {
    return static_cast<unsigned>(workers_.size());
  }

  // Enqueue a task; tasks must not throw (the pool is used for numeric
  // kernels that report failure through their captured state).
  void Submit(std::function<void()> task);

  // Block until all submitted tasks have completed.
  void Wait();

  // Process-wide shared pool sized to the hardware concurrency.
  [[nodiscard]] static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::queue<std::function<void()>> queue_ ASTRA_GUARDED_BY(mutex_);
  std::vector<std::thread> workers_;
  std::size_t in_flight_ ASTRA_GUARDED_BY(mutex_) = 0;
  bool stopping_ ASTRA_GUARDED_BY(mutex_) = false;
};

// Invoke fn(begin, end) over disjoint chunks of [0, count) in parallel and
// wait for completion.  `fn` must be safe to call concurrently on disjoint
// ranges.  With count==0 this is a no-op; small ranges run inline.
void ParallelForRanges(std::size_t count,
                       const std::function<void(std::size_t, std::size_t)>& fn,
                       unsigned max_threads = 0);

// Element-wise convenience wrapper: fn(i) for each i in [0, count).
template <typename Fn>
void ParallelFor(std::size_t count, Fn&& fn, unsigned max_threads = 0) {
  ParallelForRanges(
      count,
      [&fn](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) fn(i);
      },
      max_threads);
}

// Run fn(shard, begin, end) over `shard_count` contiguous, balanced ranges
// of [0, count) and wait.  Unlike ParallelFor, the shard index is exposed so
// callers can fill per-shard accumulators without synchronization and then
// reduce them in index order (the determinism idiom used by the ingest and
// analysis pipelines).  shard_count is clamped to count; <= 1 runs inline.
// Shards run with genuine shard_count-way concurrency even when the shared
// pool is smaller (a dedicated pool is spun up), so `--threads=N` means N
// workers regardless of what hardware_concurrency reports.
void ParallelShards(std::size_t count, std::size_t shard_count,
                    const std::function<void(std::size_t, std::size_t,
                                             std::size_t)>& fn);

// The contiguous, balanced partition of [0, count) ParallelShards uses,
// exposed so callers can construct per-shard state (e.g. seed an engine with
// its shard's first global record index) before the parallel region runs.
// shard_count is clamped to count; count == 0 yields no ranges.
[[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>> SplitIndexRanges(
    std::size_t count, std::size_t shard_count);

// Below this many records BuildAnalysisArtifacts (core/engine.cpp) runs
// serially: shard setup and the MergeFrom reduction cost more than they
// save, and the serial path is byte-identical anyway.  The ingest-side
// analogue is logs/parallel_ingest.hpp's kParallelIngestMinBytes.
inline constexpr std::size_t kParallelAnalysisMinItems = std::size_t{1} << 15;

// The determinism-safe shard+reduce idiom in one helper: build one State per
// balanced contiguous range of [0, count) with make(range_begin), fill each
// concurrently with fill(state, begin, end), then reduce left-to-right in
// shard INDEX order via State::MergeFrom.  Because the reduction order is a
// pure function of (count, shard_count), the result is identical at any
// level of actual hardware concurrency.
//
// State must provide `[[nodiscard]] bool MergeFrom(const State&)` (the
// analyzer-engine contract, core/engine.hpp); MergeFrom must accept any
// state produced by the same make() — a false return here is a programmer
// error (mismatched configs), not a data condition.
template <typename State, typename MakeFn, typename FillFn>
[[nodiscard]] State ShardedReduce(std::size_t count, std::size_t shard_count,
                                  const MakeFn& make, const FillFn& fill) {
  const auto ranges = SplitIndexRanges(count, shard_count);
  if (ranges.empty()) return make(0);
  std::vector<State> partials;
  partials.reserve(ranges.size());
  for (const auto& range : ranges) partials.push_back(make(range.first));
  ParallelShards(ranges.size(), ranges.size(),
                 [&](std::size_t, std::size_t begin, std::size_t end) {
                   for (std::size_t s = begin; s < end; ++s) {
                     fill(partials[s], ranges[s].first, ranges[s].second);
                   }
                 });
  State merged = std::move(partials.front());
  for (std::size_t s = 1; s < partials.size(); ++s) {
    if (!merged.MergeFrom(partials[s])) break;  // unreachable for same-config states
  }
  return merged;
}

}  // namespace astra
