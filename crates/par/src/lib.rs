//! Deterministic parallelism primitives for the 2PCP workspace, run on one
//! persistent worker pool.
//!
//! Every layer of the stack (MTTKRP kernels, dense matrix products, the
//! Phase-1 block fan-out, the MapReduce engine) funnels its threading
//! through this crate, so the whole system shares one thread-budget policy
//! ([`ParConfig`]) and one set of determinism guarantees:
//!
//! * [`par_map`] / [`par_map_owned`] — indexed, work-stealing maps that
//!   propagate the lowest-indexed worker `Err` and surface worker *panics*
//!   as [`ParError::Panic`] instead of aborting the process;
//! * [`par_chunks_mut`] — disjoint partition of an output buffer: each
//!   element is written by exactly one worker, so results are bit-identical
//!   to a serial run for **any** thread count;
//! * [`par_chunks_reduce`] — fixed chunking (boundaries depend only on the
//!   input size, never on the thread count) plus an *ordered* reduction of
//!   the per-chunk accumulators, so floating-point results are bit-identical
//!   regardless of how many threads executed the chunks.
//!
//! # The pool
//!
//! Parallel regions run on one process-global pool of
//! `available_parallelism() − 1` workers, started on the first region that
//! fans out and never torn down. A region is one job of `n` task indices
//! claimed from an atomic cursor; the calling thread always works on its
//! own job until the cursor runs out, then waits on a latch for the tasks
//! still in flight. Hence concurrent top-level callers cannot deadlock (each
//! can finish its job alone), and a budget above the hardware — say
//! `with_threads(7)` on two cores — runs its 7 tasks, with the same chunking
//! and the same bits, on at most `available_parallelism()` threads. A task
//! panic is caught and re-raised on the caller after the latch; the pool
//! stays usable. An idle worker yields its core for a few tens of
//! microseconds before it parks, so back-to-back regions skip the wake-up.
//!
//! # When a region fans out
//!
//! One policy, owned here, decides:
//!
//! * [`ParConfig::for_work`] clamps a kernel's budget to serial below
//!   [`PAR_GRAIN`] multiply-adds, the pool's measured break-even;
//! * a region opened *inside* a pool task runs inline, serially, on that
//!   task's thread, and `for_work` hands kernels there a serial budget. The
//!   outermost fan-out owns the budget — Phase 1's blocks or the MapReduce
//!   mappers — and the kernels below it run as plain serial kernels on the
//!   worker that owns the block;
//! * at `threads == 1` every primitive is a plain sequential loop over the
//!   same chunk boundaries, with the same reduction order.
//!
//! None of the three changes a result: the primitives are deterministic in
//! the thread count.

use std::any::Any;
use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Multiply-adds below which a kernel stays on the calling thread (see
/// [`ParConfig::for_work`]).
///
/// Set from the pool's measured break-even for a square dense product on a
/// 2-core host: a 32³ `matmul` (2¹⁵ multiply-adds) is no faster on two
/// threads than on one, a 64³ one (2¹⁸) is 1.2–1.6× faster. The `par_dispatch`
/// group of the `kernels` bench measures the table (`BENCH_kernels.json`).
pub const PAR_GRAIN: usize = 1 << 18;

/// The shared thread-budget policy.
///
/// A `ParConfig` always carries a *resolved* budget of at least one thread.
/// Construct one with [`ParConfig::auto`] (the hardware budget),
/// [`ParConfig::serial`] or [`ParConfig::with_threads`], and pass
/// it down: `TwoPcpConfig`, `AlsOptions` and `MrConfig` all embed one so the
/// driver, Phase 1, Phase 2 and the MapReduce substrate draw from a single
/// budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParConfig {
    threads: usize,
}

impl ParConfig {
    /// The hardware budget: [`std::thread::available_parallelism`] (or 1
    /// when even that is unavailable), read once per process.
    pub fn auto() -> Self {
        ParConfig {
            threads: hardware_threads(),
        }
    }

    /// A single-threaded budget: primitives run sequentially on the calling
    /// thread (same chunking, same reduction order, no pool).
    pub fn serial() -> Self {
        ParConfig { threads: 1 }
    }

    /// An explicit budget of `n` threads; `0` means "decide automatically"
    /// and resolves exactly like [`ParConfig::auto`]. A budget above the
    /// hardware keeps its chunking but runs on at most
    /// `available_parallelism()` threads.
    pub fn with_threads(n: usize) -> Self {
        if n == 0 {
            ParConfig::auto()
        } else {
            ParConfig { threads: n }
        }
    }

    /// The resolved thread budget (always ≥ 1).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// This budget for a kernel of `multiply_adds` multiply-adds: serial
    /// below [`PAR_GRAIN`] and inside a pool task, unchanged otherwise.
    ///
    /// Handing a region to the pool costs microseconds of queue and latch
    /// traffic, so every kernel applies this before fanning out. Inside a
    /// pool task the kernel's regions run inline anyway, and a serial
    /// budget also gives it its one-thread geometry (one band instead of
    /// `threads` bands that each re-stream the input). The clamp is
    /// result-neutral because the primitives are deterministic in the
    /// thread count.
    #[inline]
    #[must_use]
    pub fn for_work(&self, multiply_adds: usize) -> ParConfig {
        if multiply_adds < PAR_GRAIN || IN_TASK.get() {
            ParConfig::serial()
        } else {
            *self
        }
    }

    /// `true` when the budget is a single thread.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }
}

impl Default for ParConfig {
    fn default() -> Self {
        ParConfig::auto()
    }
}

/// [`std::thread::available_parallelism`], read once (it walks cgroup
/// files on Linux, too slow for a per-product call).
fn hardware_threads() -> usize {
    static HARDWARE: OnceLock<usize> = OnceLock::new();
    *HARDWARE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Failure of a parallel region.
#[derive(Debug)]
pub enum ParError<E> {
    /// A worker returned `Err`; this is the error of the lowest-indexed
    /// failing item (deterministic regardless of scheduling).
    Worker(E),
    /// A worker panicked; the payload is converted to a message so the
    /// caller can degrade gracefully instead of unwinding the whole
    /// process.
    Panic {
        /// The panic payload, stringified when possible.
        message: String,
    },
}

impl<E: std::fmt::Display> std::fmt::Display for ParError<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::Worker(e) => write!(f, "worker error: {e}"),
            ParError::Panic { message } => write!(f, "worker panicked: {message}"),
        }
    }
}

impl<E: std::fmt::Display + std::fmt::Debug> std::error::Error for ParError<E> {}

fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Locks a mutex of this module. Tasks run under `catch_unwind` and never
/// hold these locks, and every guarded update is a single assignment, so a
/// poisoned lock still guards valid data.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The body of a parallel region: called once per task index.
type Task<'a> = dyn Fn(usize) + Sync + 'a;

thread_local! {
    /// Set while this thread runs a pool task (for good, on pool workers):
    /// regions opened inside a task run inline.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

type JobQueue = VecDeque<Arc<Job>>;
/// Jobs waiting for helpers, oldest first.
static QUEUE: Mutex<JobQueue> = Mutex::new(VecDeque::new());
/// Signalled when a job is queued.
static WAKE: Condvar = Condvar::new();
/// Regions submitted so far (see [`idle`]).
static SUBMITTED: AtomicUsize = AtomicUsize::new(0);
/// How long an idle worker keeps yielding before it parks.
const SPIN: Duration = Duration::from_micros(50);

/// One parallel region: `n` task indices, claimed from `next` by the
/// submitter and by up to `helpers` pool workers.
struct Job {
    /// The region's body, with its borrow's lifetime erased (see
    /// [`run_region`]); only called for a claimed index `< n`.
    task: &'static Task<'static>,
    n: usize,
    next: AtomicUsize,
    /// Helper slots still open to pool workers.
    helpers: AtomicUsize,
    /// Tasks finished; the latch opens at `n`.
    done: Mutex<usize>,
    all_done: Condvar,
    /// The lowest-indexed task panic, re-raised by the submitter.
    panic: Mutex<Option<(usize, Box<dyn Any + Send>)>>,
}

impl Job {
    /// Takes a helper slot when the job still has unclaimed tasks.
    fn try_join(&self) -> bool {
        self.next.load(Ordering::Relaxed) < self.n
            && self
                .helpers
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |h| h.checked_sub(1))
                .is_ok()
    }

    /// Claims and runs tasks until the cursor runs out, then credits them
    /// to the latch. The `done` mutex orders every task's writes before the
    /// submitter's return.
    fn work(&self) {
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.n {
                break;
            }
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (self.task)(i))) {
                let mut first = lock(&self.panic);
                if first.as_ref().is_none_or(|(j, _)| i < *j) {
                    *first = Some((i, payload));
                }
            }
            ran += 1;
        }
        if ran > 0 {
            let mut done = lock(&self.done);
            *done += ran;
            if *done == self.n {
                self.all_done.notify_all();
            }
        }
    }
}

/// Waits for every task of a job when dropped, so [`run_region`] cannot
/// return — normally or by unwinding — while a task may still run.
struct Latch<'a>(&'a Job);

impl Drop for Latch<'_> {
    fn drop(&mut self) {
        let job = self.0;
        let mut done = lock(&job.done);
        while *done < job.n {
            done = job
                .all_done
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The pool's worker count, starting the workers on first use.
///
/// The workers are process-global and never joined: they own nothing but
/// the queue, park on [`WAKE`] when it is empty, and end with the process.
fn pool_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        (1..hardware_threads())
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("tpcp-par-{i}"))
                    .spawn(worker_loop)
                    .is_ok()
            })
            .count()
    })
}

/// Waits, with the queue unlocked, until a region may have been queued.
///
/// A parked worker takes tens of microseconds to wake, as long as a
/// small product itself; so an idle worker first yields its core for
/// [`SPIN`] while watching [`SUBMITTED`], catching back-to-back regions
/// (Phase 2's product sequences, serving batches) without that latency,
/// and only then parks on [`WAKE`]. `SUBMITTED` is only a hint, read
/// `Relaxed`: the job itself is read under the queue lock.
fn idle(queue: MutexGuard<'static, JobQueue>) -> MutexGuard<'static, JobQueue> {
    let seen = SUBMITTED.load(Ordering::Relaxed);
    drop(queue);
    let start = Instant::now();
    while SUBMITTED.load(Ordering::Relaxed) == seen && start.elapsed() < SPIN {
        std::thread::yield_now();
    }
    let queue = lock(&QUEUE);
    if queue.is_empty() {
        WAKE.wait(queue).unwrap_or_else(PoisonError::into_inner)
    } else {
        queue
    }
}

fn worker_loop() {
    IN_TASK.set(true);
    loop {
        let job = {
            let mut queue = lock(&QUEUE);
            loop {
                match queue.front() {
                    Some(job) if job.try_join() => break Arc::clone(job),
                    // Exhausted, or every helper slot taken.
                    Some(_) => drop(queue.pop_front()),
                    None => queue = idle(queue),
                }
            }
        };
        job.work();
    }
}

/// How many threads a region of `n` tasks on `cfg` runs on: 1 (inline, on
/// the caller) for a serial budget, a single task, or a region opened
/// inside a pool task; otherwise the budget capped at `n` and the hardware.
fn region_width(cfg: &ParConfig, n: usize) -> usize {
    let want = cfg.threads().min(n);
    if want <= 1 || IN_TASK.get() {
        return 1;
    }
    want.min(pool_workers() + 1)
}

/// Runs `task(i)` for every `i in 0..n` on the caller plus up to
/// `width − 1` pool workers, returning once every task has finished. The
/// lowest-indexed task panic is re-raised here, after the latch.
fn run_region(width: usize, n: usize, task: &Task<'_>) {
    // SAFETY: only the lifetime of the borrow is erased. `task` is called
    // solely by `Job::work`, for an index it claimed below `n`, and each
    // such call is credited to the latch after it returns or unwinds (the
    // unwind is caught). `latch` is dropped — waiting for all `n` credits —
    // before this function returns or unwinds, so every call finishes while
    // the borrow is live. Afterwards, threads still holding the `Arc<Job>`
    // see an exhausted cursor and never read `task` again.
    let task = unsafe { std::mem::transmute::<&Task<'_>, &'static Task<'static>>(task) };
    let job = Arc::new(Job {
        task,
        n,
        next: AtomicUsize::new(0),
        helpers: AtomicUsize::new(width - 1),
        done: Mutex::new(0),
        all_done: Condvar::new(),
        panic: Mutex::new(None),
    });
    {
        let latch = Latch(&job);
        lock(&QUEUE).push_back(Arc::clone(&job));
        SUBMITTED.fetch_add(1, Ordering::Relaxed);
        for _ in 1..width {
            WAKE.notify_one();
        }
        // Never already set: a region opened inside a task runs inline.
        IN_TASK.set(true);
        job.work();
        IN_TASK.set(false);
        lock(&QUEUE).retain(|queued| !Arc::ptr_eq(queued, &job));
        drop(latch);
    }
    let panic = lock(&job.panic).take();
    if let Some((_, payload)) = panic {
        resume_unwind(payload);
    }
}

/// A value handed between threads exactly once.
type Slot<X> = Mutex<Option<X>>;

/// Takes the item out of a slot filled exactly once.
fn take<I>(slot: &Slot<I>) -> I {
    lock(slot).take().expect("each slot is taken exactly once")
}

/// Runs `call(i)` for `i in 0..n`, catching panics, and collects results in
/// index order. Shared core of [`par_map`] / [`par_map_owned`].
fn run_indexed<T, E, G>(cfg: &ParConfig, n: usize, call: G) -> Result<Vec<T>, ParError<E>>
where
    T: Send,
    E: Send,
    G: Fn(usize) -> Result<T, E> + Sync,
{
    let guarded = |i: usize| -> Result<T, ParError<E>> {
        match catch_unwind(AssertUnwindSafe(|| call(i))) {
            Ok(Ok(v)) => Ok(v),
            Ok(Err(e)) => Err(ParError::Worker(e)),
            Err(payload) => Err(ParError::Panic {
                message: panic_message(payload.as_ref()),
            }),
        }
    };

    let width = region_width(cfg, n);
    if width <= 1 {
        // Sequential fast path: short-circuits at the lowest-indexed
        // failure, matching the pooled error selection below.
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(guarded(i)?);
        }
        return Ok(out);
    }

    // One worker result per index, filled exactly once by whichever thread
    // claimed it.
    let slots: Vec<Slot<Result<T, ParError<E>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    run_region(width, n, &|i| {
        let result = guarded(i);
        *lock(&slots[i]) = Some(result);
    });

    let mut out = Vec::with_capacity(n);
    for slot in &slots {
        match take(slot) {
            Ok(v) => out.push(v),
            // Slots are scanned in index order, so the first error seen is
            // the lowest-indexed one — deterministic even though workers
            // finished in arbitrary order.
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Indexed work-stealing map over a borrowed slice.
///
/// Applies `f(index, &item)` to every item on up to `cfg.threads()` pool
/// threads (work-stealing via an atomic cursor, so uneven per-item cost
/// balances out) and returns the results in input order.
///
/// # Errors
/// The lowest-indexed worker `Err` as [`ParError::Worker`], or
/// [`ParError::Panic`] when a worker panicked — the panic is caught and
/// reported instead of unwinding through the caller.
pub fn par_map<I, T, E, F>(cfg: &ParConfig, items: &[I], f: F) -> Result<Vec<T>, ParError<E>>
where
    I: Sync,
    T: Send,
    E: Send,
    F: Fn(usize, &I) -> Result<T, E> + Sync,
{
    run_indexed(cfg, items.len(), |i| f(i, &items[i]))
}

/// [`par_map`] over owned items: each item is moved into exactly one worker
/// invocation (required when the worker consumes its input, as the
/// MapReduce mappers and reducers do).
///
/// # Errors
/// Identical semantics to [`par_map`].
pub fn par_map_owned<I, T, E, F>(
    cfg: &ParConfig,
    items: Vec<I>,
    f: F,
) -> Result<Vec<T>, ParError<E>>
where
    I: Send,
    T: Send,
    E: Send,
    F: Fn(usize, I) -> Result<T, E> + Sync,
{
    let slots: Vec<Slot<I>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    run_indexed(cfg, slots.len(), |i| f(i, take(&slots[i])))
}

/// Splits `data` into consecutive chunks of `chunk_len` elements (the last
/// chunk may be shorter) and runs `f(chunk_index, chunk)` with each chunk
/// assigned to exactly one worker.
///
/// Because the chunks partition the output, every element is written by a
/// single worker and the result is **bit-identical to a serial run** for
/// any thread count. Chunks are dealt round-robin onto `cfg.threads()`
/// lanes — use this for dense kernels whose per-chunk cost is uniform. A
/// worker panic propagates to the caller (the closure is expected to be
/// infallible).
pub fn par_chunks_mut<T, F>(cfg: &ParConfig, data: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    par_chunks_mut_scratch(cfg, data, chunk_len, || (), |idx, chunk, ()| f(idx, chunk));
}

/// The indexed chunks one lane of [`par_chunks_mut_scratch`] writes.
type Lane<'a, T> = Vec<(usize, &'a mut [T])>;

/// [`par_chunks_mut`] with **lane-local scratch**: each lane builds one
/// scratch value with `make_scratch` and reuses it across every chunk it
/// executes (the serial path builds exactly one).
///
/// This hoists per-chunk workspace allocations out of hot sweep loops (the
/// MTTKRP row scratch, the dimension-tree gather buffers) without touching
/// the determinism story: scratch is pure workspace — a closure must not
/// carry information from one chunk into the next through it — so the
/// chunk→lane assignment stays result-neutral and outputs remain
/// bit-identical for any thread count.
pub fn par_chunks_mut_scratch<T, S, F>(
    cfg: &ParConfig,
    data: &mut [T],
    chunk_len: usize,
    make_scratch: impl Fn() -> S + Sync,
    f: F,
) where
    T: Send,
    S: Send,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    if data.is_empty() {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let n_chunks = data.len().div_ceil(chunk_len);
    let width = region_width(cfg, n_chunks);
    if width <= 1 {
        let mut scratch = make_scratch();
        for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
            f(idx, chunk, &mut scratch);
        }
        return;
    }
    let lanes = cfg.threads().min(n_chunks);
    let mut per_lane: Vec<Lane<'_, T>> = (0..lanes).map(|_| Vec::new()).collect();
    for (idx, chunk) in data.chunks_mut(chunk_len).enumerate() {
        per_lane[idx % lanes].push((idx, chunk));
    }
    let per_lane: Vec<Slot<Lane<'_, T>>> =
        per_lane.into_iter().map(|l| Mutex::new(Some(l))).collect();
    run_region(width, lanes, &|lane| {
        let mut scratch = make_scratch();
        for (idx, chunk) in take(&per_lane[lane]) {
            f(idx, chunk, &mut scratch);
        }
    });
}

/// Fixed chunking + ordered reduction over the index range `0..n_items`.
///
/// The range is cut into chunks of `chunk_size` (last one shorter); each
/// chunk gets a **fresh** accumulator from `make_acc`, is filled by
/// `work(range, &mut acc)`, and the per-chunk accumulators are folded with
/// `merge` in ascending chunk order. Chunk boundaries depend only on
/// `(n_items, chunk_size)` — never on the thread budget — and the fold
/// order is fixed, so the result is bit-identical for any thread count
/// (including 1, where the same chunked computation runs sequentially).
///
/// Use this for reductions whose floating-point result depends on
/// accumulation order (sparse MTTKRP, Gram accumulation): determinism comes
/// from fixing that order structurally, not from hoping threads race
/// benignly. A worker panic propagates to the caller.
pub fn par_chunks_reduce<A, F, M>(
    cfg: &ParConfig,
    n_items: usize,
    chunk_size: usize,
    make_acc: impl Fn() -> A + Sync,
    work: F,
    merge: M,
) -> A
where
    A: Send,
    F: Fn(Range<usize>, &mut A) + Sync,
    M: FnMut(A, A) -> A,
{
    par_chunks_reduce_scratch(
        cfg,
        n_items,
        chunk_size,
        make_acc,
        || (),
        |range, acc, ()| work(range, acc),
        merge,
    )
}

/// [`par_chunks_reduce`] with **worker-local scratch**: each participating
/// thread builds one scratch value and reuses it across every chunk it
/// claims (the serial path builds exactly one). Accumulators stay
/// per-chunk — they carry the results that merge in ascending chunk order
/// — but pure workspace (the MTTKRP Hadamard-row buffer, odometer
/// coordinates) no longer re-allocates per chunk. Scratch must not carry
/// information between chunks, so the work-stealing chunk→worker
/// assignment stays result-neutral.
#[allow(clippy::too_many_arguments)]
pub fn par_chunks_reduce_scratch<A, S, F, M>(
    cfg: &ParConfig,
    n_items: usize,
    chunk_size: usize,
    make_acc: impl Fn() -> A + Sync,
    make_scratch: impl Fn() -> S + Sync,
    work: F,
    mut merge: M,
) -> A
where
    A: Send,
    S: Send,
    F: Fn(Range<usize>, &mut A, &mut S) + Sync,
    M: FnMut(A, A) -> A,
{
    if n_items == 0 {
        return make_acc();
    }
    let chunk_size = chunk_size.max(1);
    let n_chunks = n_items.div_ceil(chunk_size);
    let range_of = |c: usize| c * chunk_size..((c + 1) * chunk_size).min(n_items);

    let width = region_width(cfg, n_chunks);
    if width <= 1 {
        let mut scratch = make_scratch();
        let mut acc = make_acc();
        work(range_of(0), &mut acc, &mut scratch);
        for c in 1..n_chunks {
            let mut next = make_acc();
            work(range_of(c), &mut next, &mut scratch);
            acc = merge(acc, next);
        }
        return acc;
    }

    // One task per participating thread, each stealing chunks from a
    // shared cursor with its own scratch.
    let next_chunk = AtomicUsize::new(0);
    let slots: Vec<Slot<A>> = (0..n_chunks).map(|_| Mutex::new(None)).collect();
    run_region(width, width, &|_| {
        let mut scratch = make_scratch();
        loop {
            let c = next_chunk.fetch_add(1, Ordering::Relaxed);
            if c >= n_chunks {
                break;
            }
            let mut acc = make_acc();
            work(range_of(c), &mut acc, &mut scratch);
            *lock(&slots[c]) = Some(acc);
        }
    });

    let mut chunks = slots.iter().map(take);
    let first = chunks.next().expect("n_chunks >= 1");
    chunks.fold(first, merge)
}

/// A named, joinable background worker thread for *pipelined* side work —
/// tasks that overlap the main thread rather than fan out from it (the
/// storage layer's I/O prefetcher is the canonical user).
///
/// Unlike a parallel region, a `Background` outlives the call that
/// spawned it; the closure must therefore have its own exit condition
/// (typically a disconnected channel). Dropping the handle joins the
/// thread, so a `Background` can never outlive the owner that holds it —
/// the discipline a parallel region keeps (no task outlives its region),
/// stretched over an object lifetime instead of a call.
///
/// A worker panic is contained: it surfaces when the owner joins (via
/// [`Background::join`]) as `Err(message)`, and is swallowed on implicit
/// drop-join (the owner is likely already unwinding).
pub struct Background {
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Background {
    /// Spawns `f` on a named OS thread.
    ///
    /// # Errors
    /// The OS-level spawn failure, if thread creation fails.
    pub fn spawn<F>(name: &str, f: F) -> std::io::Result<Background>
    where
        F: FnOnce() + Send + 'static,
    {
        let handle = std::thread::Builder::new().name(name.to_owned()).spawn(f)?;
        Ok(Background {
            handle: Some(handle),
        })
    }

    /// Waits for the worker to finish.
    ///
    /// # Errors
    /// The stringified panic payload when the worker panicked.
    pub fn join(mut self) -> Result<(), String> {
        match self.handle.take() {
            Some(handle) => handle.join().map_err(|p| panic_message(p.as_ref())),
            None => Ok(()),
        }
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            // The worker's exit condition (e.g. channel disconnect) must
            // already hold by the time the owner drops us; a panic here is
            // deliberately swallowed — drop is not a reporting channel.
            let _ = handle.join();
        }
    }
}

/// Rows per [`par_chunks_mut`] chunk so that `rows` split over `threads`
/// workers evenly, rounded up to a multiple of `tile`.
///
/// The rounding hands each worker whole kernel row-tiles (e.g. the tiled
/// matmul microkernel's register-block height), so only the final chunk of
/// the final worker ever sees a ragged tile edge. Because
/// [`par_chunks_mut`] partitions the *output*, the chunk geometry is
/// result-neutral: any `(threads, tile)` pair yields bit-identical values.
pub fn tile_rows_per_chunk(rows: usize, threads: usize, tile: usize) -> usize {
    let base = rows.div_ceil(threads.max(1)).max(1);
    base.next_multiple_of(tile.max(1))
}

/// A chunk size that depends only on the input size: at least `min_chunk`
/// items per chunk, and at most `max_chunks` chunks overall.
///
/// Feeding this into [`par_chunks_reduce`] keeps chunk boundaries (and
/// therefore floating-point results) stable across thread budgets while
/// bounding both per-chunk overhead (accumulator allocation + merge) and
/// scheduling granularity.
pub fn fixed_chunk_size(n_items: usize, min_chunk: usize, max_chunks: usize) -> usize {
    min_chunk.max(1).max(n_items.div_ceil(max_chunks.max(1)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_resolution() {
        assert_eq!(ParConfig::serial().threads(), 1);
        assert!(ParConfig::serial().is_serial());
        assert_eq!(ParConfig::with_threads(7).threads(), 7);
        assert!(ParConfig::with_threads(0).threads() >= 1);
        assert!(ParConfig::auto().threads() >= 1);
    }

    #[test]
    fn for_work_serializes_below_the_grain_only() {
        let cfg = ParConfig::with_threads(8);
        assert!(cfg.for_work(PAR_GRAIN - 1).is_serial());
        assert_eq!(cfg.for_work(PAR_GRAIN).threads(), 8);
        assert_eq!(cfg.for_work(PAR_GRAIN * 4).threads(), 8);
    }

    #[test]
    fn for_work_is_serial_inside_a_pool_task() {
        let cfg = ParConfig::with_threads(2);
        let agree = par_map(&cfg, &[(); 4], |_, ()| {
            Ok::<_, ()>(IN_TASK.get() == cfg.for_work(PAR_GRAIN).is_serial())
        })
        .unwrap();
        assert!(agree.into_iter().all(|ok| ok));
    }

    #[test]
    fn par_map_preserves_order_at_every_thread_count() {
        let items: Vec<usize> = (0..103).collect();
        for t in [1usize, 2, 4, 7] {
            let cfg = ParConfig::with_threads(t);
            let out: Vec<usize> =
                par_map(&cfg, &items, |i, &x| Ok::<_, ()>(i * 1000 + x * 3)).unwrap();
            let expect: Vec<usize> = (0..103).map(|i| i * 1000 + i * 3).collect();
            assert_eq!(out, expect, "threads={t}");
        }
    }

    #[test]
    fn par_map_propagates_lowest_indexed_error() {
        let items: Vec<usize> = (0..64).collect();
        for t in [1usize, 4] {
            let cfg = ParConfig::with_threads(t);
            let err = par_map(&cfg, &items, |_, &x| {
                if x % 10 == 7 {
                    Err(format!("bad {x}"))
                } else {
                    Ok(x)
                }
            })
            .unwrap_err();
            match err {
                ParError::Worker(msg) => assert_eq!(msg, "bad 7", "threads={t}"),
                other => panic!("expected worker error, got {other:?}"),
            }
        }
    }

    #[test]
    fn par_map_surfaces_worker_panic_as_error() {
        let items: Vec<usize> = (0..16).collect();
        for t in [1usize, 4] {
            let cfg = ParConfig::with_threads(t);
            let err = par_map(&cfg, &items, |_, &x| -> Result<usize, String> {
                if x == 11 {
                    panic!("worker {x} exploded");
                }
                Ok(x)
            })
            .unwrap_err();
            match err {
                ParError::Panic { message } => {
                    assert!(message.contains("exploded"), "message: {message}")
                }
                other => panic!("expected panic error, got {other:?}"),
            }
        }
    }

    #[test]
    fn worker_err_beats_later_panic() {
        // Item 3 errors, item 9 panics: the lowest-indexed failure wins.
        let items: Vec<usize> = (0..16).collect();
        let err = par_map(&ParConfig::with_threads(4), &items, |_, &x| {
            if x == 9 {
                panic!("later panic");
            }
            if x == 3 {
                return Err("first error");
            }
            Ok(x)
        })
        .unwrap_err();
        assert!(matches!(err, ParError::Worker("first error")));
    }

    #[test]
    fn par_map_owned_moves_items() {
        let items: Vec<String> = (0..20).map(|i| format!("item{i}")).collect();
        let out = par_map_owned(&ParConfig::with_threads(3), items, |i, s| {
            Ok::<_, ()>(format!("{i}:{s}"))
        })
        .unwrap();
        assert_eq!(out[13], "13:item13");
        assert_eq!(out.len(), 20);
    }

    #[test]
    fn par_map_empty_input() {
        let out: Vec<u8> =
            par_map(&ParConfig::auto(), &[] as &[u8], |_, &x| Ok::<_, ()>(x)).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn chunks_mut_partitions_exactly_once() {
        for t in [1usize, 2, 4, 7] {
            let mut data = vec![0u32; 97];
            par_chunks_mut(&ParConfig::with_threads(t), &mut data, 10, |idx, chunk| {
                for v in chunk.iter_mut() {
                    *v += 1 + idx as u32;
                }
            });
            for (i, &v) in data.iter().enumerate() {
                assert_eq!(v, 1 + (i / 10) as u32, "threads={t}, index {i}");
            }
        }
    }

    #[test]
    fn chunks_reduce_is_identical_across_thread_counts() {
        // Sum of 1/(i+1) — floating-point, so the merge order matters; the
        // fixed chunking must make every thread count agree bitwise.
        let n = 10_000;
        let run = |threads: usize| -> f64 {
            par_chunks_reduce(
                &ParConfig::with_threads(threads),
                n,
                768,
                || 0.0f64,
                |range, acc| {
                    for i in range {
                        *acc += 1.0 / (i as f64 + 1.0);
                    }
                },
                |a, b| a + b,
            )
        };
        let reference = run(1);
        for t in [2usize, 3, 4, 7, 16] {
            assert_eq!(run(t).to_bits(), reference.to_bits(), "threads={t}");
        }
    }

    #[test]
    fn chunks_reduce_merges_in_chunk_order() {
        // Concatenating chunk-index vectors exposes the fold order.
        let order = par_chunks_reduce(
            &ParConfig::with_threads(4),
            50,
            8,
            Vec::new,
            |range, acc: &mut Vec<usize>| acc.push(range.start / 8),
            |mut a, b| {
                a.extend(b);
                a
            },
        );
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn chunks_reduce_empty_input_yields_fresh_accumulator() {
        let acc = par_chunks_reduce(
            &ParConfig::auto(),
            0,
            64,
            || 42i64,
            |_, _| unreachable!("no chunks for empty input"),
            |a, _| a,
        );
        assert_eq!(acc, 42);
    }

    /// Bits of a three-level nested computation: `par_map` over items,
    /// `par_chunks_mut` over each item's output, `par_chunks_reduce` per
    /// output element. Also checks that the inner regions ran inline, on
    /// the thread that owns the item.
    fn nested_bits(cfg: &ParConfig) -> Vec<Vec<u64>> {
        let items: Vec<usize> = (0..6).collect();
        par_map(cfg, &items, |_, &x| {
            let owner = std::thread::current().id();
            let mut out = vec![0.0f64; 40];
            par_chunks_mut(cfg, &mut out, 5, |ci, chunk| {
                assert_eq!(
                    std::thread::current().id(),
                    owner,
                    "nested region fanned out"
                );
                for (j, v) in chunk.iter_mut().enumerate() {
                    *v = par_chunks_reduce(
                        cfg,
                        500,
                        64,
                        || 0.0f64,
                        |range, acc| {
                            assert_eq!(std::thread::current().id(), owner);
                            for i in range {
                                *acc += 1.0 / ((i + x + ci * 5 + j) as f64 + 1.0);
                            }
                        },
                        |a, b| a + b,
                    );
                }
            });
            Ok::<_, ()>(out.iter().map(|v| v.to_bits()).collect())
        })
        .unwrap()
    }

    #[test]
    fn back_to_back_regions_reuse_the_pool_threads() {
        let seen = Mutex::new(std::collections::HashSet::new());
        let note = || {
            lock(&seen).insert(std::thread::current().id());
        };
        let cfg = ParConfig::with_threads(4);
        let items: Vec<usize> = (0..8).collect();
        for _ in 0..1000 {
            let mut data = vec![0u8; 64];
            par_chunks_mut(&cfg, &mut data, 8, |_, _| note());
            par_map(&cfg, &items, |_, _| {
                note();
                Ok::<_, ()>(())
            })
            .unwrap();
            par_chunks_reduce(&cfg, 64, 8, || (), |_, ()| note(), |(), ()| ());
        }
        let distinct = lock(&seen).len();
        assert!(
            distinct <= hardware_threads(),
            "{distinct} threads ran tasks on {} cores",
            hardware_threads()
        );
        assert_eq!(pool_workers(), hardware_threads() - 1);
    }

    #[test]
    fn nested_regions_run_inline_with_serial_bits() {
        let reference = nested_bits(&ParConfig::serial());
        for t in [2usize, 4, 7] {
            assert_eq!(
                nested_bits(&ParConfig::with_threads(t)),
                reference,
                "threads={t}"
            );
        }
    }

    #[test]
    fn concurrent_callers_each_get_their_own_bits() {
        let reference = nested_bits(&ParConfig::serial());
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for caller in 0..8usize {
                let (reference, start) = (&reference, &start);
                scope.spawn(move || {
                    start.wait();
                    let cfg = ParConfig::with_threads(2 + caller % 3);
                    for _ in 0..20 {
                        assert_eq!(&nested_bits(&cfg), reference, "caller {caller}");
                        let mut data = vec![0usize; 257];
                        par_chunks_mut(&cfg, &mut data, 16, |idx, chunk| {
                            chunk.iter_mut().for_each(|v| *v = idx * 1000 + caller);
                        });
                        assert!(data
                            .iter()
                            .enumerate()
                            .all(|(i, &v)| v == (i / 16) * 1000 + caller));
                    }
                });
            }
        });
    }

    #[test]
    fn task_panic_leaves_the_pool_usable() {
        let cfg = ParConfig::with_threads(4);
        let items: Vec<usize> = (0..32).collect();
        let err = par_map(&cfg, &items, |_, &x| -> Result<usize, ()> {
            assert!(x != 5, "item {x} exploded");
            Ok(x)
        })
        .unwrap_err();
        assert!(matches!(err, ParError::Panic { ref message } if message.contains("item 5")));

        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut data = vec![0u32; 64];
            par_chunks_mut(&cfg, &mut data, 4, |idx, _| {
                assert!(idx != 9, "chunk {idx} exploded")
            });
        }))
        .unwrap_err();
        assert!(panic_message(unwound.as_ref()).contains("chunk 9"));

        let out = par_map(&cfg, &items, |_, &x| Ok::<_, ()>(x * 2)).unwrap();
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn budget_above_the_hardware_is_bitwise_serial() {
        let (serial, wide) = (ParConfig::with_threads(1), ParConfig::with_threads(7));
        let items: Vec<f64> = (0..50).map(|i| i as f64 * 0.37).collect();
        let map = |cfg: &ParConfig| -> Vec<u64> {
            par_map(cfg, &items, |i, &x| {
                Ok::<_, ()>((x.sin() * i as f64).to_bits())
            })
            .unwrap()
        };
        assert_eq!(map(&wide), map(&serial));

        let owned = |cfg: &ParConfig| -> Vec<u64> {
            par_map_owned(cfg, items.clone(), |i, x| {
                Ok::<_, ()>((x.exp() + i as f64).to_bits())
            })
            .unwrap()
        };
        assert_eq!(owned(&wide), owned(&serial));

        let chunks = |cfg: &ParConfig| -> Vec<u64> {
            let mut out = vec![0.0f64; 203];
            par_chunks_mut_scratch(
                cfg,
                &mut out,
                29,
                Vec::new,
                |idx, chunk, scratch: &mut Vec<f64>| {
                    scratch.clear();
                    scratch.extend((0..chunk.len()).map(|j| ((idx * 29 + j) as f64).sqrt()));
                    chunk.copy_from_slice(scratch);
                },
            );
            out.iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(chunks(&wide), chunks(&serial));

        let reduce = |cfg: &ParConfig| -> u64 {
            par_chunks_reduce(
                cfg,
                10_000,
                333,
                || 0.0f64,
                |range, acc| range.for_each(|i| *acc += (i as f64).ln_1p()),
                |a, b| a + b,
            )
            .to_bits()
        };
        assert_eq!(reduce(&wide), reduce(&serial));
    }

    #[test]
    fn background_runs_and_joins() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        let (tx, rx) = mpsc::channel::<u32>();
        let done = std::sync::Arc::new(AtomicBool::new(false));
        let done2 = done.clone();
        let worker = Background::spawn("test-worker", move || {
            // Exit condition: channel disconnect.
            let mut sum = 0;
            while let Ok(v) = rx.recv() {
                sum += v;
            }
            assert_eq!(sum, 6);
            done2.store(true, Ordering::SeqCst);
        })
        .unwrap();
        for v in [1, 2, 3] {
            tx.send(v).unwrap();
        }
        drop(tx);
        worker.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
    }

    #[test]
    fn background_join_reports_panic() {
        let worker = Background::spawn("test-panicker", || panic!("worker blew up")).unwrap();
        let err = worker.join().unwrap_err();
        assert!(err.contains("blew up"), "got {err}");
    }

    #[test]
    fn tile_rows_round_up_to_whole_tiles() {
        // Plain even split when tile = 1 (the reference kernel).
        assert_eq!(tile_rows_per_chunk(100, 4, 1), 25);
        // Rounded to the next tile multiple otherwise.
        assert_eq!(tile_rows_per_chunk(100, 4, 4), 28);
        assert_eq!(tile_rows_per_chunk(100, 3, 4), 36);
        // Degenerate guards: zero threads/tile behave like 1.
        assert_eq!(tile_rows_per_chunk(10, 0, 0), 10);
        assert_eq!(tile_rows_per_chunk(1, 8, 4), 4);
    }

    #[test]
    fn fixed_chunk_size_depends_only_on_input() {
        assert_eq!(fixed_chunk_size(100, 512, 64), 512);
        assert_eq!(fixed_chunk_size(100_000, 512, 64), 1563);
        assert_eq!(fixed_chunk_size(0, 512, 64), 512);
        // Degenerate guards.
        assert_eq!(fixed_chunk_size(10, 0, 0), 10);
    }
}
