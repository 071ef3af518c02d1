#include "common/thread_pool.h"

#include <stdexcept>

namespace ice {

namespace {
thread_local bool t_on_pool_thread = false;
}  // namespace

bool ThreadPool::on_pool_thread() { return t_on_pool_thread; }

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) {
    throw std::invalid_argument("ThreadPool: need at least one thread");
  }
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t ThreadPool::drain_job(ChunkJob* job) {
  std::size_t executed = 0;
  std::exception_ptr first_error;
  for (;;) {
    const std::size_t c = job->next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job->num_chunks) break;
    try {
      job->invoke(job->ctx, c);
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
    ++executed;
  }
  if (first_error) {
    std::lock_guard lock(mu_);
    if (!job->error) job->error = first_error;
  }
  return executed;
}

ThreadPool::ChunkJob* ThreadPool::claimable_job() const {
  for (ChunkJob* job = jobs_; job != nullptr; job = job->later) {
    if (job->next.load(std::memory_order_relaxed) < job->num_chunks) {
      return job;
    }
  }
  return nullptr;
}

void ThreadPool::run_chunks_erased(std::size_t num_chunks,
                                   void (*invoke)(void*, std::size_t),
                                   void* ctx) {
  if (num_chunks == 0) return;
  ChunkJob job;
  job.invoke = invoke;
  job.ctx = ctx;
  job.num_chunks = num_chunks;
  {
    std::lock_guard lock(mu_);
    if (stopping_) {
      throw std::logic_error("ThreadPool::run_chunks after shutdown");
    }
    // Append: jobs_ is oldest-first, and workers serve the oldest job that
    // still has unclaimed chunks.
    ChunkJob** tail = &jobs_;
    while (*tail != nullptr) tail = &(*tail)->later;
    *tail = &job;
  }
  cv_.notify_all();
  const std::size_t mine = drain_job(&job);
  std::unique_lock lock(mu_);
  // Unlink: every chunk is claimed, so no new worker may enter the job.
  ChunkJob** link = &jobs_;
  while (*link != &job) link = &(*link)->later;
  *link = job.later;
  job.done += mine;
  // The job lives on this stack frame: wait until every worker that entered
  // has left (they update `done`/`workers` under mu_ as they leave).
  job_cv_.wait(lock, [&job] {
    return job.done == job.num_chunks && job.workers == 0;
  });
  if (job.error) std::rethrow_exception(job.error);
}

void ThreadPool::worker_loop() {
  t_on_pool_thread = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      // Serve the oldest broadcast with unclaimed chunks, else a queued
      // task. An exhausted job stays linked until its poster unlinks it, so
      // it is skipped rather than entered: a worker would only spin on its
      // counter.
      ChunkJob* job = nullptr;
      cv_.wait(lock, [&] {
        job = claimable_job();
        return job != nullptr || stopping_ || !queue_.empty();
      });
      if (job != nullptr) {
        ++job->workers;
        lock.unlock();
        const std::size_t executed = drain_job(job);
        lock.lock();
        job->done += executed;
        --job->workers;
        job_cv_.notify_all();
        continue;  // re-check queue / next job
      }
      if (queue_.empty()) return;  // stopping_, nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace ice
