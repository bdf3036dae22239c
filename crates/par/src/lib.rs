//! `kronpriv-par` — a deterministic parallel compute layer built around a persistent
//! [`Executor`] worker pool.
//!
//! The hot kernels of Algorithm 1 (triangle counting, the smooth-sensitivity bound, the
//! structural-agreement statistics) are all "map a pure function over an index range, combine
//! the pieces" computations. This crate runs them on a pool of long-lived worker threads while
//! keeping one hard guarantee: **the result is byte-identical for every worker count**,
//! including one. That guarantee is what lets the rest of the workspace (seeded experiments,
//! the server's identical-seed ⇒ identical-response contract) treat the thread count as a pure
//! performance knob.
//!
//! Determinism comes from two rules, both enforced here rather than by callers:
//!
//! 1. **Fixed chunk boundaries.** The index range is split into chunks whose boundaries depend
//!    only on the range length and the caller's chunk size — never on the thread count. Threads
//!    *claim* chunks dynamically (so load imbalance costs nothing), but the set of chunks is the
//!    same for 1 thread and for 64.
//! 2. **Reduction in chunk order.** [`Executor::map_reduce`] folds the per-chunk results in
//!    chunk index order on the calling thread, so even non-associative combines (floating-point
//!    sums) give the same answer regardless of which thread computed which chunk.
//!
//! [`Executor::fold_reduce`] trades the second rule for memory: each *participant* folds chunks
//! into one private accumulator (e.g. an `O(n)` counter array) and the accumulators are merged
//! afterwards. Which chunks land in which accumulator does depend on scheduling, so that entry
//! point requires an associative **and commutative** merge (integer sums, `max`, bitwise or) —
//! exactly the merges the workspace kernels use — and then the same byte-identical guarantee
//! holds.
//!
//! # Executor lifecycle
//!
//! [`Executor::new`] spawns its helper threads **once**; every subsequent `map_reduce` /
//! `fold_reduce` call hands the pool a job through a [`Mutex`]/[`Condvar`] queue instead of
//! paying a `thread::spawn` + `join` round trip (tens of microseconds) per call. The calling
//! thread always participates in its own job, so an `Executor::new(t)` runs a kernel on up to
//! `t` threads using `t - 1` pooled helpers. Dropping the executor drains the pool: workers
//! finish their current task, observe the shutdown flag and exit, and `Drop` joins every one of
//! them — no threads outlive the executor.
//!
//! Nested calls are deadlock-free by construction: a worker that itself calls into the shared
//! executor participates in the nested job inline and, on completion, *retracts* whatever
//! helper slots nobody claimed — it never blocks waiting for an idle worker.
//!
//! A panic inside a kernel closure poisons **only its own call**: every participant runs chunks
//! under `catch_unwind`, the first payload is recorded, remaining chunks are abandoned, and the
//! payload is re-raised on the calling thread after all helpers have detached. The pool threads
//! survive and the next call on the same executor proceeds normally, so existing panic
//! containment — e.g. the server job store's `catch_unwind` — keeps working.
//!
//! # Work-aware sequential cutoff
//!
//! Every entry point takes a [`Work`] hint: the caller's estimate of the cost of one element.
//! When the estimated total work is too small to amortize waking even one helper
//! (`len · ns_per_item < 2 ×` [`SPAWN_AMORTIZATION_NS`]), the call runs inline on the calling
//! thread with no queue traffic at all; above that, the helper count is capped so every
//! participant has at least [`SPAWN_AMORTIZATION_NS`] of estimated work. The decision is a pure
//! function of the input *shape* `(len, chunk_size, work)` — never of the thread count — and
//! the inline path is exactly the reference loop the parallel path must reproduce bit for bit,
//! so the cutoff can never change a result.
//!
//! # Instrumentation
//!
//! Every call records its cutoff decision into the process-global `kronpriv-obs` registry:
//! calls and planned chunks per mode (`inline` / `pooled`) and per [`Work`] class, engaged
//! helper counts, whole-call run time, queue wait from job publication to worker attach, and
//! per-worker busy nanoseconds (`kronpriv_par_*` — see the `metrics` module). The counters are
//! strictly write-only from this crate's point of view: nothing the executor schedules ever
//! depends on an instrument value or a clock reading, so the byte-identical guarantee is
//! untouched (the cutoff remains a pure function of the input shape).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::fmt;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
// lint:allow(determinism-time, reason = "write-only latency instrumentation: Instant readings feed kronpriv-obs histograms and never influence scheduling or results")
use std::time::Instant;

use kronpriv_par_queue::{RawRunnable, Runnable};

mod metrics;
use metrics::{exec_metrics, INLINE, POOLED};

/// Estimated nanoseconds of kernel work needed to amortize handing a job to one pooled helper
/// (a `Condvar` wake plus queue bookkeeping, measured in the tens of microseconds with
/// scheduling jitter). A call runs inline unless every participant — the caller plus each
/// helper — would get at least this much estimated work.
pub const SPAWN_AMORTIZATION_NS: u64 = 100_000;

/// A per-element cost estimate: how many nanoseconds one index of a kernel's range costs.
///
/// The executor multiplies it by the range length to decide, purely from the input shape,
/// whether parallelism can pay for itself (see [`SPAWN_AMORTIZATION_NS`]). The estimate only
/// steers scheduling — results are byte-identical whatever hint is passed — so order-of-
/// magnitude accuracy is all that matters. Use the named classes where they fit and
/// [`Work::per_item_ns`] when the per-element cost is itself a function of the input (e.g. one
/// BFS per element costs `O(nodes + edges)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Work {
    ns_per_item: u64,
}

impl Work {
    /// A few arithmetic operations per element (pool-adjacent-violators steps, noise adds).
    pub const LIGHT: Work = Work::per_item_ns(25);
    /// A short data-dependent scan per element (sorted-neighbor intersections, per-node
    /// degree work).
    pub const MODERATE: Work = Work::per_item_ns(400);
    /// A full objective evaluation or similar multi-microsecond computation per element.
    pub const HEAVY: Work = Work::per_item_ns(20_000);

    /// A custom estimate of `ns` nanoseconds per element (clamped to at least 1).
    pub const fn per_item_ns(ns: u64) -> Work {
        Work { ns_per_item: if ns == 0 { 1 } else { ns } }
    }

    /// Estimated total cost of a `len`-element range.
    fn total_ns(self, len: usize) -> u128 {
        self.ns_per_item as u128 * len as u128
    }

    /// The metrics label for this hint: one of the named classes, or `custom` for any other
    /// [`Work::per_item_ns`] estimate. Used to break the executor counters down by work class.
    pub fn class(self) -> &'static str {
        if self == Work::LIGHT {
            "light"
        } else if self == Work::MODERATE {
            "moderate"
        } else if self == Work::HEAVY {
            "heavy"
        } else {
            "custom"
        }
    }

    /// `class()` as a dense index into the per-class instrument arrays.
    fn class_index(self) -> usize {
        match self.class() {
            "light" => 0,
            "moderate" => 1,
            "heavy" => 2,
            _ => 3,
        }
    }
}

/// The auto thread count, resolved from the OS **once per process** and cached: the server
/// resolves `--compute-threads 0` on every request, and `available_parallelism` is a syscall.
fn auto_thread_count() -> NonZeroUsize {
    static AUTO: OnceLock<NonZeroUsize> = OnceLock::new();
    *AUTO.get_or_init(|| thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
}

/// A persistent deterministic executor: `threads - 1` pooled helper threads plus the calling
/// thread, servicing [`Executor::map_reduce`] / [`Executor::fold_reduce`] with byte-identical
/// results for every thread count.
///
/// Construction spawns the helpers once; see the crate docs for the lifecycle, panic and
/// work-cutoff contracts. The executor is `Sync`: one instance is meant to be shared (e.g.
/// behind an [`Arc`]) by every component that runs kernels — the server builds exactly one at
/// startup.
pub struct Executor {
    threads: NonZeroUsize,
    /// `None` when `threads == 1`: a sequential executor never spawns or queues anything.
    pool: Option<Pool>,
}

impl Executor {
    /// An executor with exactly `threads` participants (the calling thread plus `threads - 1`
    /// pooled helpers); `0` means "one per available hardware thread" (see [`Executor::auto`]).
    pub fn new(threads: usize) -> Executor {
        let threads = NonZeroUsize::new(threads).unwrap_or_else(auto_thread_count);
        let pool = match threads.get() {
            1 => None,
            t => Some(Pool::start(t - 1)),
        };
        Executor { threads, pool }
    }

    /// One participant per available hardware thread. The OS is asked once per process and the
    /// answer is cached (falling back to 1 when it cannot say).
    pub fn auto() -> Executor {
        Executor::new(0)
    }

    /// Exactly one participant: no helper threads are spawned and every call degenerates to the
    /// plain sequential loop, which is also the reference the determinism tests compare
    /// against.
    pub fn sequential() -> Executor {
        Executor::new(1)
    }

    /// The configured participant count (≥ 1): the calling thread plus the pooled helpers.
    pub fn threads(&self) -> usize {
        self.threads.get()
    }

    /// Deterministic chunked map-reduce over `0..len`.
    ///
    /// `map` is applied to each fixed chunk (the last one may be short) and must be a pure
    /// function of its range; `fold` combines the per-chunk results **in chunk order** on the
    /// calling thread, starting from `init`. Because the chunk boundaries depend only on
    /// `len` and `chunk_size`, the result is byte-identical for every thread count even when
    /// `fold` is not associative (floating-point accumulation). `work` is the caller's
    /// per-element cost estimate steering the sequential cutoff (see [`Work`]).
    pub fn map_reduce<M, A>(
        &self,
        len: usize,
        chunk_size: usize,
        work: Work,
        map: impl Fn(Range<usize>) -> M + Sync,
        mut fold: impl FnMut(A, M) -> A,
        init: A,
    ) -> A
    where
        M: Send,
    {
        let chunk_size = chunk_size.max(1);
        let chunks = len.div_ceil(chunk_size);
        let helpers = self.plan_helpers(len, chunks, work);
        let _call_span = record_call(work, chunks, helpers);
        if helpers == 0 {
            let mut acc = init;
            for c in 0..chunks {
                acc = fold(acc, map(chunk_range(c, chunk_size, len)));
            }
            return acc;
        }

        // Each participant keeps its chunk results tagged with the chunk start; sorting the
        // union by start restores chunk order whichever participant computed which chunk.
        let parts = self.fold_pooled(len, chunk_size, helpers, Vec::new, |results, range| {
            results.push((range.start, map(range)));
        });
        let mut results: Vec<(usize, M)> = parts.into_iter().flat_map(|(_, part)| part).collect();
        debug_assert_eq!(results.len(), chunks, "every chunk is claimed exactly once");
        results.sort_unstable_by_key(|&(start, _)| start);
        results.into_iter().fold(init, |acc, (_, m)| fold(acc, m))
    }

    /// Chunked fold with one private accumulator **per participant**, for kernels whose natural
    /// accumulator is large (an `O(n)` counter array) and whose merge is cheap.
    ///
    /// Each participant builds an accumulator with `identity` the first time it claims a chunk,
    /// folds every chunk it claims into it via `fold_chunk`, and the accumulators are merged on
    /// the calling thread with `merge`. Chunk boundaries are fixed exactly as in
    /// [`Executor::map_reduce`], but chunk→participant assignment is dynamic, so the result is
    /// thread-count-independent **iff `merge` is associative and commutative** and `fold_chunk`
    /// commutes across chunks (true for the element-wise integer sums, `max`es and bitwise ors
    /// the workspace kernels use). With one participant this is the plain sequential fold and
    /// `merge` is never called.
    pub fn fold_reduce<A>(
        &self,
        len: usize,
        chunk_size: usize,
        work: Work,
        identity: impl Fn() -> A + Sync,
        fold_chunk: impl Fn(&mut A, Range<usize>) + Sync,
        mut merge: impl FnMut(A, A) -> A,
    ) -> A
    where
        A: Send,
    {
        let chunk_size = chunk_size.max(1);
        let chunks = len.div_ceil(chunk_size);
        let helpers = self.plan_helpers(len, chunks, work);
        let _call_span = record_call(work, chunks, helpers);
        if helpers == 0 {
            let mut acc = identity();
            for c in 0..chunks {
                fold_chunk(&mut acc, chunk_range(c, chunk_size, len));
            }
            return acc;
        }

        let mut parts = self.fold_pooled(len, chunk_size, helpers, identity, fold_chunk);
        // Merge in order of each participant's first claimed chunk: a canonical order that a
        // commutative merge is free to ignore but which keeps runs comparable in practice.
        parts.sort_unstable_by_key(|&(first_chunk, _)| first_chunk);
        let mut parts = parts.into_iter().map(|(_, acc)| acc);
        let first = parts.next().expect("len > 0, so at least one chunk was folded");
        parts.fold(first, &mut merge)
    }

    /// The pooled half of both entry points: runs a [`FoldJob`] on the calling thread plus up
    /// to `helpers` pooled workers and returns every participant's accumulator, tagged with
    /// its first claimed chunk. A panic in any chunk is re-raised here, after every
    /// participant has detached.
    fn fold_pooled<A: Send>(
        &self,
        len: usize,
        chunk_size: usize,
        helpers: usize,
        identity: impl Fn() -> A + Sync,
        fold_chunk: impl Fn(&mut A, Range<usize>) + Sync,
    ) -> Vec<(usize, A)> {
        let job = FoldJob {
            next: AtomicUsize::new(0),
            chunks: len.div_ceil(chunk_size),
            chunk_size,
            len,
            identity,
            fold_chunk,
            accumulators: Mutex::new(Vec::new()),
            panic: Mutex::new(None),
        };
        let pool = self.pool.as_ref().expect("helpers are only planned for a pooled executor");
        pool.run_shared(&job, helpers);
        let (panicked, parts) = job.finish();
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        parts
    }

    /// Helper-thread budget for a call, `0` meaning "run inline". A pure function of the input
    /// shape `(len, chunks, work)` and the pool size — never of scheduling — so together with
    /// the fixed chunk boundaries it cannot affect results.
    fn plan_helpers(&self, len: usize, chunks: usize, work: Work) -> usize {
        let Some(pool) = &self.pool else { return 0 };
        if chunks <= 1 {
            return 0;
        }
        // Every participant (the caller included) must have at least the amortization budget of
        // estimated work, otherwise queue traffic dominates the kernel itself.
        let affordable =
            (work.total_ns(len) / SPAWN_AMORTIZATION_NS as u128).min(usize::MAX as u128) as usize;
        pool.workers.len().min(chunks - 1).min(affordable.saturating_sub(1))
    }
}

impl fmt::Debug for Executor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Executor").field("threads", &self.threads.get()).finish()
    }
}

/// The fixed boundaries of chunk `c`: a pure function of `(c, chunk_size, len)`.
fn chunk_range(c: usize, chunk_size: usize, len: usize) -> Range<usize> {
    let start = c * chunk_size;
    start..(start + chunk_size).min(len)
}

/// Records one executor call's cutoff decision and returns the RAII span timing the call.
/// Reporting only: the returned span exposes nothing the caller could branch on.
fn record_call(work: Work, chunks: usize, helpers: usize) -> kronpriv_obs::Span {
    let m = exec_metrics();
    let mode = if helpers == 0 { INLINE } else { POOLED };
    m.calls[mode][work.class_index()].inc();
    m.chunks[mode].add(chunks as u64);
    if helpers > 0 {
        m.helpers_engaged.add(helpers as u64);
    }
    m.call_ns[mode].span()
}

type PanicPayload = Box<dyn Any + Send + 'static>;

/// The pooled job behind both entry points: each participant lazily builds one private
/// accumulator and folds every chunk it claims into it, then parks the accumulator (tagged with
/// its first chunk index) for the caller to merge.
struct FoldJob<A, I, F> {
    next: AtomicUsize,
    chunks: usize,
    chunk_size: usize,
    len: usize,
    identity: I,
    fold_chunk: F,
    accumulators: Mutex<Vec<(usize, A)>>,
    panic: Mutex<Option<PanicPayload>>,
}

impl<A, I, F> FoldJob<A, I, F> {
    /// Claims the next chunk index, or `None` when the job is exhausted (or aborted).
    fn claim(&self) -> Option<usize> {
        let c = self.next.fetch_add(1, Ordering::Relaxed);
        (c < self.chunks).then_some(c)
    }

    /// Records the first panic payload and aborts further chunk claims for the job.
    fn record_panic(&self, payload: PanicPayload) {
        let mut slot = match self.panic.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        };
        if slot.is_none() {
            *slot = Some(payload);
        }
        drop(slot);
        // Parking the claim counter at `chunks` makes every later `claim` fail fast: the
        // results are about to be discarded by `resume_unwind`, so finishing the range is pure
        // waste.
        self.next.store(self.chunks, Ordering::Relaxed);
    }

    /// Tears the job down after every participant has detached: the recorded panic (if any)
    /// and the per-participant accumulators.
    #[allow(clippy::type_complexity)]
    fn finish(mut self) -> (Option<PanicPayload>, Vec<(usize, A)>) {
        let panicked = match self.panic.get_mut() {
            Ok(slot) => slot.take(),
            Err(poisoned) => poisoned.into_inner().take(),
        };
        let parts = match self.accumulators.into_inner() {
            Ok(parts) => parts,
            Err(poisoned) => poisoned.into_inner(),
        };
        (panicked, parts)
    }
}

impl<A, I, F> Runnable for FoldJob<A, I, F>
where
    A: Send,
    I: Fn() -> A + Sync,
    F: Fn(&mut A, Range<usize>) + Sync,
{
    fn run(&self) {
        let mut acc: Option<(usize, A)> = None;
        while let Some(c) = self.claim() {
            let step = panic::catch_unwind(AssertUnwindSafe(|| {
                let (_, acc) = acc.get_or_insert_with(|| (c, (self.identity)()));
                (self.fold_chunk)(acc, chunk_range(c, self.chunk_size, self.len));
            }));
            if let Err(payload) = step {
                self.record_panic(payload);
                return; // the partial accumulator dies with the poisoned call
            }
        }
        if let Some(part) = acc {
            self.accumulators
                .lock()
                .expect("no code panics while holding the part lock")
                .push(part);
        }
    }
}

// The erased-pointer corner of the pool lives in `kronpriv-par-queue`: jobs live on the
// submitting thread's stack, so the queue stores a lifetime-erased pointer to them. That
// erasure is the workspace's only unsafe code, isolated in the micro-crate so this crate can
// `#![forbid(unsafe_code)]`. Its safety argument is the drain protocol in [`Pool::run_shared`]:
// a worker only dereferences the pointer between incrementing and decrementing the job's
// `attached` counter, both under the pool mutex, and the submitting thread does not return
// (and therefore does not invalidate the referent) until it has removed the job from the queue
// and observed `attached == 0` under that same mutex. After the removal no worker can attach
// anymore, so the wait is a true barrier on every dereference.

/// Per-job pool bookkeeping. `attached` counts the workers currently inside the job's `run`;
/// it is only ever mutated under the pool mutex (the atomic is for shared mutability, not for
/// lock-free access), which is what makes the submitting thread's drain wait race-free.
struct JobState {
    runnable: RawRunnable,
    attached: AtomicUsize,
    /// When the job was published to the queue — read only to report queue-wait latency.
    // lint:allow(determinism-time, reason = "write-only latency instrumentation: the timestamp feeds the queue-wait histogram and never influences scheduling or results")
    published: Instant,
}

/// A queue entry: the job plus how many more helpers may still join it. The entry is removed
/// when the last helper slot is claimed — or retracted by the submitting thread on completion.
struct QueuedJob {
    job: Arc<JobState>,
    helper_slots: usize,
}

struct PoolState {
    jobs: VecDeque<QueuedJob>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for jobs (or shutdown).
    work_cv: Condvar,
    /// Submitting threads park here waiting for their job's `attached` count to reach zero.
    done_cv: Condvar,
}

/// The persistent helper pool: `workers` long-lived threads parked on `work_cv`.
struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Pool {
    fn start(workers: usize) -> Pool {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState { jobs: VecDeque::new(), shutdown: false }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("kronpriv-exec-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn executor worker thread")
            })
            .collect();
        Pool { shared, workers }
    }

    /// Publishes `job` with `helper_slots` helper slots, participates in it on the calling
    /// thread, then retracts the unclaimed slots and waits until every attached helper has
    /// detached. On return the caller has exclusive access to the job again.
    fn run_shared(&self, job: &(dyn Runnable + Sync), helper_slots: usize) {
        let state = Arc::new(JobState {
            runnable: RawRunnable::erase(job),
            attached: AtomicUsize::new(0),
            // lint:allow(determinism-time, reason = "write-only latency instrumentation: the timestamp feeds the queue-wait histogram and never influences scheduling or results")
            published: Instant::now(),
        });
        {
            let mut guard = self.shared.state.lock().expect("pool mutex never poisoned");
            guard.jobs.push_back(QueuedJob { job: Arc::clone(&state), helper_slots });
        }
        if helper_slots == 1 {
            self.shared.work_cv.notify_one();
        } else {
            self.shared.work_cv.notify_all();
        }
        // The guard drains even if `job.run()` somehow unwound: returning with the job still
        // published would leave workers holding a dangling pointer.
        let drain = DrainGuard { shared: &self.shared, job: state };
        job.run();
        drop(drain);
    }
}

impl Drop for Pool {
    /// Graceful shutdown: flag, wake everyone, join everyone. Outstanding jobs cannot exist
    /// here — every job borrows the executor for the duration of its call.
    fn drop(&mut self) {
        self.shared.state.lock().expect("pool mutex never poisoned").shutdown = true;
        self.shared.work_cv.notify_all();
        for worker in self.workers.drain(..) {
            worker.join().expect("executor workers never panic");
        }
    }
}

/// Retracts a job from the queue and waits for attached helpers to detach (see
/// [`Pool::run_shared`]).
struct DrainGuard<'p> {
    shared: &'p PoolShared,
    job: Arc<JobState>,
}

impl Drop for DrainGuard<'_> {
    fn drop(&mut self) {
        let mut guard = self.shared.state.lock().expect("pool mutex never poisoned");
        // Retract the helper slots nobody claimed; after this no worker can attach anymore.
        guard.jobs.retain(|queued| !Arc::ptr_eq(&queued.job, &self.job));
        // `attached` only moves under this mutex, so the wait cannot miss a detach.
        while self.job.attached.load(Ordering::Relaxed) > 0 {
            guard = self.shared.done_cv.wait(guard).expect("pool mutex never poisoned");
        }
    }
}

fn worker_loop(shared: &PoolShared, index: usize) {
    let busy_ns = metrics::worker_busy_counter(index);
    let mut guard = shared.state.lock().expect("pool mutex never poisoned");
    loop {
        if let Some(front) = guard.jobs.front_mut() {
            // Claiming a helper slot and attaching happen under ONE lock acquisition: a
            // submitting thread that retracts the job afterwards is guaranteed to see this
            // participant in `attached` and wait for it.
            front.helper_slots -= 1;
            let job = Arc::clone(&front.job);
            if front.helper_slots == 0 {
                guard.jobs.pop_front();
            }
            job.attached.fetch_add(1, Ordering::Relaxed);
            drop(guard);
            // lint:allow(determinism-time, reason = "reporting only: neither latency feeds back into any scheduling decision")
            let attach = Instant::now();
            exec_metrics()
                .queue_wait_ns
                .record_ns(duration_ns(attach.duration_since(job.published)));
            job.runnable.run();
            busy_ns.add(duration_ns(attach.elapsed()));
            guard = shared.state.lock().expect("pool mutex never poisoned");
            job.attached.fetch_sub(1, Ordering::Relaxed);
            shared.done_cv.notify_all();
        } else if guard.shutdown {
            return;
        } else {
            guard = shared.work_cv.wait(guard).expect("pool mutex never poisoned");
        }
    }
}

/// A duration in whole nanoseconds, saturating rather than panicking on absurd values.
// lint:allow(determinism-time, reason = "pure unit conversion for the latency histograms; no clock is read here")
fn duration_ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::catch_unwind;
    use std::sync::atomic::AtomicU64;

    /// Forces the parallel path for any non-trivial range: with 1ms per element even two
    /// elements clear the amortization threshold.
    const FORCE_PARALLEL: Work = Work::per_item_ns(1_000_000);

    #[test]
    fn thread_counts_resolve() {
        assert_eq!(Executor::sequential().threads(), 1);
        assert_eq!(Executor::new(7).threads(), 7);
        assert!(Executor::new(0).threads() >= 1);
        assert!(Executor::auto().threads() >= 1);
        assert_eq!(Executor::auto().threads(), Executor::new(0).threads());
    }

    #[test]
    fn map_reduce_sums_integers_for_any_thread_count() {
        let expected: u64 = (0..10_000u64).sum();
        for threads in [1, 2, 3, 8, 32] {
            let exec = Executor::new(threads);
            let got = exec.map_reduce(
                10_000,
                97,
                FORCE_PARALLEL,
                |range| range.map(|i| i as u64).sum::<u64>(),
                |acc: u64, m| acc + m,
                0,
            );
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn map_reduce_is_bit_identical_for_float_folds() {
        // A deliberately non-associative fold: floating-point accumulation of values at wildly
        // different magnitudes. Chunk-order reduction must make every thread count agree with
        // the single-threaded chunked fold bit for bit.
        let value =
            |i: usize| ((i % 17) as f64).exp() * if i.is_multiple_of(3) { 1e-12 } else { 1e3 };
        let fold = |exec: &Executor| {
            exec.map_reduce(
                5_000,
                61,
                FORCE_PARALLEL,
                |range| range.map(value).sum::<f64>(),
                |acc: f64, m| acc + m,
                0.0,
            )
        };
        let reference = fold(&Executor::sequential());
        for threads in [2, 5, 16] {
            assert_eq!(
                fold(&Executor::new(threads)).to_bits(),
                reference.to_bits(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn work_hint_never_changes_the_result() {
        // The cutoff is pure scheduling: the inline path (LIGHT on a small range) and the
        // pooled path (forced parallel) must agree bit for bit on the same executor.
        let exec = Executor::new(4);
        let run = |work: Work| {
            exec.map_reduce(
                2_500,
                37,
                work,
                |range| range.map(|i| (i as f64).sqrt()).sum::<f64>(),
                |acc: f64, m| acc + m,
                0.0,
            )
        };
        assert_eq!(run(Work::LIGHT).to_bits(), run(FORCE_PARALLEL).to_bits());
    }

    #[test]
    fn small_work_runs_inline_without_touching_the_pool() {
        // 100 elements × 25ns is far below the amortization threshold: the helper plan must be
        // zero (the body observes it by noting which thread runs chunks).
        let exec = Executor::new(8);
        let main_thread = thread::current().id();
        let ran_elsewhere = exec.map_reduce(
            100,
            1,
            Work::LIGHT,
            |_range| thread::current().id() != main_thread,
            |acc: bool, m| acc || m,
            false,
        );
        assert!(!ran_elsewhere, "sub-threshold work must stay on the calling thread");
    }

    #[test]
    fn map_reduce_visits_every_chunk_exactly_once() {
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let ranges = exec.map_reduce(
                103,
                10,
                FORCE_PARALLEL,
                |range| vec![range],
                |mut acc: Vec<Range<usize>>, m| {
                    acc.extend(m);
                    acc
                },
                Vec::new(),
            );
            // Chunk-order reduction ⇒ the ranges tile 0..103 in order.
            assert_eq!(ranges.len(), 11);
            assert_eq!(ranges.first().unwrap().start, 0);
            assert_eq!(ranges.last().unwrap().end, 103);
            for pair in ranges.windows(2) {
                assert_eq!(pair[0].end, pair[1].start);
            }
        }
    }

    #[test]
    fn fold_reduce_matches_sequential_for_commutative_merges() {
        // Element-wise histogram accumulation: the shape the per-node kernels use.
        let reference = Executor::sequential().fold_reduce(
            1_000,
            13,
            FORCE_PARALLEL,
            || vec![0u64; 10],
            |acc, range| {
                for i in range {
                    acc[i % 10] += (i as u64) % 7;
                }
            },
            |a, _b| a,
        );
        for threads in [2, 8] {
            let got = Executor::new(threads).fold_reduce(
                1_000,
                13,
                FORCE_PARALLEL,
                || vec![0u64; 10],
                |acc, range| {
                    for i in range {
                        acc[i % 10] += (i as u64) % 7;
                    }
                },
                |mut a, b| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    a
                },
            );
            assert_eq!(got, reference, "threads {threads}");
        }
    }

    #[test]
    fn map_reduce_folds_chunks_in_order_for_any_thread_count() {
        // `Vec::push` does not commute: only chunk-order reduction returns the starts sorted.
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            let got = exec.map_reduce(
                100,
                9,
                FORCE_PARALLEL,
                |range| range.start,
                |mut acc: Vec<usize>, start| {
                    acc.push(start);
                    acc
                },
                Vec::new(),
            );
            let expected: Vec<usize> = (0..100).step_by(9).collect();
            assert_eq!(got, expected, "threads {threads}");
        }
    }

    #[test]
    fn empty_ranges_return_the_identity() {
        let exec = Executor::new(4);
        assert_eq!(exec.map_reduce(0, 8, Work::LIGHT, |_| 1u32, |a: u32, m| a + m, 0), 0);
        assert_eq!(
            exec.fold_reduce(0, 8, Work::LIGHT, || 41u32, |acc, _| *acc += 1, |a, b| a + b),
            41
        );
    }

    #[test]
    fn oversized_thread_counts_and_tiny_inputs_work() {
        let exec = Executor::new(64);
        let got =
            exec.map_reduce(3, 1000, FORCE_PARALLEL, |range| range.len(), |a: usize, m| a + m, 0);
        assert_eq!(got, 3);
    }

    #[test]
    fn worker_panics_propagate_to_the_caller() {
        for threads in [1, 4] {
            let exec = Executor::new(threads);
            let result = catch_unwind(AssertUnwindSafe(|| {
                exec.map_reduce(
                    100,
                    10,
                    FORCE_PARALLEL,
                    |range| {
                        if range.contains(&55) {
                            panic!("kernel exploded");
                        }
                        range.len()
                    },
                    |a: usize, m| a + m,
                    0,
                )
            }));
            assert!(result.is_err(), "threads {threads}");
        }
    }

    #[test]
    fn pool_reuse_is_bit_identical_across_many_consecutive_calls() {
        // The tentpole regression test: one executor, many calls — no per-call state may leak
        // from one job into the next.
        let value =
            |i: usize| ((i % 13) as f64).ln_1p() * if i.is_multiple_of(2) { 1.0 } else { -1e6 };
        let reference = Executor::sequential().map_reduce(
            4_096,
            53,
            FORCE_PARALLEL,
            |range| range.map(value).sum::<f64>(),
            |acc: f64, m| acc + m,
            0.0,
        );
        for threads in [1, 2, 8] {
            let exec = Executor::new(threads);
            for call in 0..100 {
                let got = exec.map_reduce(
                    4_096,
                    53,
                    FORCE_PARALLEL,
                    |range| range.map(value).sum::<f64>(),
                    |acc: f64, m| acc + m,
                    0.0,
                );
                assert_eq!(got.to_bits(), reference.to_bits(), "threads {threads}, call {call}");
            }
        }
    }

    #[test]
    fn a_panicking_task_poisons_only_its_own_call() {
        let exec = Executor::new(4);
        let sum = |exec: &Executor| {
            exec.map_reduce(
                1_000,
                10,
                FORCE_PARALLEL,
                |range| range.sum::<usize>(),
                |a: usize, m| a + m,
                0,
            )
        };
        let healthy = sum(&exec);
        for round in 0..10 {
            let poisoned = catch_unwind(AssertUnwindSafe(|| {
                exec.map_reduce(
                    1_000,
                    10,
                    FORCE_PARALLEL,
                    |range| {
                        if range.contains(&500) {
                            panic!("round {round} exploded");
                        }
                        range.len()
                    },
                    |a: usize, m| a + m,
                    0,
                )
            }));
            assert!(poisoned.is_err(), "round {round}");
            // The very next call on the same pool must succeed and agree with the first.
            assert_eq!(sum(&exec), healthy, "round {round}");
        }
    }

    #[test]
    fn nested_calls_on_the_same_executor_complete() {
        // A worker that re-enters the executor participates inline and retracts unclaimed
        // slots, so nesting can never deadlock — the shape the KronFit chain fan-out uses.
        let exec = Executor::new(4);
        let got = exec.map_reduce(
            8,
            1,
            FORCE_PARALLEL,
            |outer| {
                outer
                    .map(|i| {
                        exec.map_reduce(
                            64,
                            4,
                            FORCE_PARALLEL,
                            |inner| inner.map(|j| (i * 1_000 + j) as u64).sum::<u64>(),
                            |acc: u64, m| acc + m,
                            0,
                        )
                    })
                    .sum::<u64>()
            },
            |acc: u64, m| acc + m,
            0,
        );
        let expected: u64 = (0..8).flat_map(|i| (0..64).map(move |j| (i * 1_000 + j) as u64)).sum();
        assert_eq!(got, expected);
    }

    #[test]
    fn cutoff_decisions_are_visible_in_the_global_registry() {
        use kronpriv_obs::Registry;
        let registry = Registry::global();
        // HEAVY and MODERATE are reserved for this test within this crate's test binary, so
        // the per-class deltas below cannot race with the other tests (which use LIGHT or
        // custom hints).
        let pooled =
            registry.counter("kronpriv_par_calls_total", &[("mode", "pooled"), ("work", "heavy")]);
        let inline = registry
            .counter("kronpriv_par_calls_total", &[("mode", "inline"), ("work", "moderate")]);
        let (pooled_before, inline_before) = (pooled.get(), inline.get());

        let exec = Executor::new(4);
        // 1_000 × 20_000ns clears the amortization threshold with 100 chunks: pooled.
        let sum = exec.map_reduce(1_000, 10, Work::HEAVY, |r| r.len(), |a: usize, m| a + m, 0);
        assert_eq!(sum, 1_000);
        // 10 × 400ns is far below it: inline.
        let sum = exec.map_reduce(10, 2, Work::MODERATE, |r| r.len(), |a: usize, m| a + m, 0);
        assert_eq!(sum, 10);

        assert_eq!(pooled.get(), pooled_before + 1, "pooled heavy call must be counted");
        assert_eq!(inline.get(), inline_before + 1, "inline moderate call must be counted");
        assert!(registry.render().contains("kronpriv_par_calls_total{mode=\"pooled\""));
    }

    #[test]
    fn work_classes_have_stable_names() {
        assert_eq!(Work::LIGHT.class(), "light");
        assert_eq!(Work::MODERATE.class(), "moderate");
        assert_eq!(Work::HEAVY.class(), "heavy");
        assert_eq!(Work::per_item_ns(123).class(), "custom");
        assert_eq!(FORCE_PARALLEL.class(), "custom");
    }

    #[test]
    fn drop_drains_the_pool_without_leaking_work() {
        // Every call completes fully before it returns, so dropping right after a call must
        // join all workers (a leaked worker would abort the test binary's clean exit; a lost
        // chunk would break the count).
        let touched = AtomicU64::new(0);
        {
            let exec = Executor::new(8);
            let chunks = exec.map_reduce(
                512,
                8,
                FORCE_PARALLEL,
                |_range| {
                    touched.fetch_add(1, Ordering::Relaxed);
                    1u64
                },
                |a: u64, m| a + m,
                0,
            );
            assert_eq!(chunks, 64);
        }
        assert_eq!(touched.load(Ordering::Relaxed), 64, "drop must not replay or lose chunks");
    }
}
