#include "tensor/task_pool.h"

namespace hs {

TaskPool& TaskPool::instance() {
    static TaskPool pool;
    return pool;
}

TaskPool::~TaskPool() {
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
}

int TaskPool::workers() const {
    std::lock_guard<std::mutex> lock(mu_);
    return static_cast<int>(threads_.size());
}

void TaskPool::ensure_workers_locked(int n) {
    if (n > kMaxThreads) n = kMaxThreads;
    while (static_cast<int>(threads_.size()) < n)
        threads_.emplace_back([this] { worker_main(); });
}

bool TaskPool::claim_locked(Job*& job, int& index) {
    if (head_ == nullptr) return false;
    job = head_;
    index = job->next++;
    if (job->next >= job->n) {  // fully claimed; stragglers only execute
        head_ = job->qnext;
        if (head_ == nullptr) tail_ = nullptr;
    }
    return true;
}

void TaskPool::execute(std::unique_lock<std::mutex>& lock, Job* job,
                       int index) {
    lock.unlock();
    job->fn(job->ctx, index);
    lock.lock();
    if (++job->done == job->n) done_cv_.notify_all();
}

void TaskPool::worker_main() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
        work_cv_.wait(lock, [&] { return head_ != nullptr || stop_; });
        if (head_ == nullptr) return;  // stop_ and nothing queued
        Job* job = nullptr;
        int index = 0;
        if (claim_locked(job, index)) execute(lock, job, index);
    }
}

void TaskPool::run(int n, void (*fn)(void*, int), void* ctx) {
    if (n <= 1) {
        if (n == 1) fn(ctx, 0);
        return;
    }
    Job job{fn, ctx, n};
    std::unique_lock<std::mutex> lock(mu_);
    ensure_workers_locked(n - 1);
    if (tail_ != nullptr) {
        tail_->qnext = &job;
    } else {
        head_ = &job;
    }
    tail_ = &job;
    // Wake one pool thread per task beyond the caller's own, not the whole
    // pool: a 2-way row split on the serving path must not rouse every
    // thread a wider fan-out once spawned.
    for (int i = 1; i < n; ++i) work_cv_.notify_one();
    // Participate until our job is fully done. While any queue entry is
    // claimable — ours first in FIFO order, another submitter's otherwise —
    // help execute it; once everything claimable is taken, sleep until a
    // job completes and re-check.
    while (job.done < job.n) {
        Job* j = nullptr;
        int index = 0;
        if (claim_locked(j, index)) {
            execute(lock, j, index);
        } else {
            done_cv_.wait(lock);
        }
    }
}

} // namespace hs
