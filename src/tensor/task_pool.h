#pragma once

// Shared persistent worker pool (DESIGN.md §15). Two very different fan-out
// customers sit on top of this one primitive:
//  * intra-op GEMM row tiling (qgemm in tensor/gemm_int8.h) — microsecond
//    tasks on the serving hot path;
//  * the pruning-search evaluation fan-out (core/search.h) — millisecond
//    forward passes per Monte-Carlo action sample.
//
// Design constraints, in order:
//  * zero allocation on the hot path — a Job lives on the submitting
//    thread's stack and is linked into an intrusive FIFO; dispatch is a
//    short critical section claiming one (job, index) pair at a time;
//  * concurrent submitters do NOT serialize. A whole-run dispatch mutex
//    would queue concurrent tiled ops from several ServingEngine workers
//    head-to-tail; here their index claims simply interleave in FIFO
//    order;
//  * the calling thread participates: it claims work like a pool thread
//    (its own job's indices or, while those are taken, another job's —
//    helping instead of spinning), so an n-task job on an otherwise idle
//    process wakes only n−1 pool threads and run(1, ..) never touches the
//    pool at all;
//  * pool threads spawn lazily up to kMaxThreads (sized by the widest
//    run() seen) and join at process exit;
//  * run() may be re-entered from inside a task (a search lane evaluating
//    through a tiled kernel): the inner call pushes its own job and the
//    executing thread keeps claiming, so nested fan-outs drain instead of
//    deadlocking.

#include <mutex>
#include <condition_variable>
#include <thread>
#include <vector>

namespace hs {

class TaskPool {
public:
    /// Hard cap on pool threads (the caller of every run() is an extra).
    static constexpr int kMaxThreads = 16;

    static TaskPool& instance();

    /// Run fn(ctx, i) for every i in [0, n), blocking until all return.
    /// The calling thread executes tasks too. Safe to call concurrently
    /// from many threads and recursively from inside a task. fn must not
    /// throw (wrap and capture; see core/search.cpp for the idiom).
    void run(int n, void (*fn)(void* ctx, int i), void* ctx);

    /// Pool threads currently alive (test/introspection hook).
    [[nodiscard]] int workers() const;

    TaskPool(const TaskPool&) = delete;
    TaskPool& operator=(const TaskPool&) = delete;

private:
    /// One fan-out in flight; lives on the submitter's stack.
    struct Job {
        void (*fn)(void*, int);
        void* ctx;
        int n;
        int next = 0;  ///< next unclaimed index (guarded by mu_)
        int done = 0;  ///< finished indices (guarded by mu_)
        Job* qnext = nullptr;
    };

    TaskPool() = default;
    ~TaskPool();
    void ensure_workers_locked(int n);
    void worker_main();
    /// Claim the next (job, index) pair; pops jobs whose indices are
    /// exhausted. Returns false when the queue is empty.
    bool claim_locked(Job*& job, int& index);
    /// Execute one claimed pair outside the lock, then mark it done.
    void execute(std::unique_lock<std::mutex>& lock, Job* job, int index);

    mutable std::mutex mu_;
    std::condition_variable work_cv_;  ///< queue became non-empty
    std::condition_variable done_cv_;  ///< some job fully completed
    Job* head_ = nullptr;
    Job* tail_ = nullptr;
    std::vector<std::thread> threads_;
    bool stop_ = false;
};

} // namespace hs
