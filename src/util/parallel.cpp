#include "util/parallel.hpp"

#include <algorithm>

namespace astra {

ThreadPool::ThreadPool(unsigned thread_count) {
  if (thread_count == 0) thread_count = 1;
  workers_.reserve(thread_count);
  for (unsigned i = 0; i < thread_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock lock(mutex_);
  idle_.wait(lock, [this] { return in_flight_ == 0; });
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool(std::max(1u, std::thread::hardware_concurrency()));
  return pool;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_available_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

std::vector<std::pair<std::size_t, std::size_t>> SplitIndexRanges(
    std::size_t count, std::size_t shard_count) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  if (count == 0 || shard_count == 0) return ranges;
  shard_count = std::min(shard_count, count);
  const std::size_t base = count / shard_count;
  const std::size_t extra = count % shard_count;
  ranges.reserve(shard_count);
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t end = begin + base + (s < extra ? 1 : 0);
    ranges.emplace_back(begin, end);
    begin = end;
  }
  return ranges;
}

void ParallelShards(std::size_t count, std::size_t shard_count,
                    const std::function<void(std::size_t, std::size_t,
                                             std::size_t)>& fn) {
  const auto ranges = SplitIndexRanges(count, std::max<std::size_t>(shard_count, 1));
  if (ranges.size() <= 1) {
    if (!ranges.empty()) fn(0, 0, count);
    return;
  }

  const auto submit_all = [&](ThreadPool& pool) {
    for (std::size_t s = 0; s < ranges.size(); ++s) {
      pool.Submit([&fn, s, range = ranges[s]] { fn(s, range.first, range.second); });
    }
    pool.Wait();
  };

  ThreadPool& shared = ThreadPool::Shared();
  if (shared.ThreadCount() >= ranges.size()) {
    submit_all(shared);
  } else {
    // The caller asked for more concurrency than the shared pool provides
    // (small machine, explicit --threads): honour it with a dedicated pool.
    ThreadPool dedicated(static_cast<unsigned>(ranges.size()));
    submit_all(dedicated);
  }
}

}  // namespace astra
