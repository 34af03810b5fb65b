//! Deterministic scoped data-parallelism for the M3D workspace.
//!
//! Every hot path of the reproduction — GNN training, fault simulation,
//! dataset generation, evaluation — fans out through this crate. The
//! guarantee that makes that safe for a *reproduction* (where numbers in
//! tables must be explainable) is **determinism**: for a fixed input, the
//! result of every function here is bitwise identical regardless of the
//! thread count.
//!
//! Three design rules deliver that guarantee:
//!
//! 1. **Chunking is a function of the input length only.** Work is split
//!    into chunks whose boundaries never depend on the thread count (see
//!    [`default_chunk_size`]). Threads *claim* chunks dynamically (for load
//!    balance), but which items share a chunk is fixed.
//! 2. **Results are reassembled in chunk-index order.** Maps preserve item
//!    order; [`par_fold`] merges per-chunk accumulators left-to-right by
//!    chunk index, so floating-point sums associate the same way at any
//!    thread count — including the `threads = 1` fallback, which walks the
//!    identical chunk sequence inline without spawning.
//! 3. **Per-item work must be pure.** Closures may use per-thread scratch
//!    ([`par_map_init`]) but the output for an item must not depend on
//!    which thread ran it or on scratch history.
//!
//! # Thread-count configuration
//!
//! The pool width comes from, in order of precedence:
//!
//! 1. a scoped [`with_threads`] override (used by tests and benches),
//! 2. the `M3D_THREADS` environment variable (parsed once per process),
//! 3. [`std::thread::available_parallelism`].
//!
//! `M3D_THREADS=1` (or a single-core host) selects the documented serial
//! fallback: the same chunk walk, inline on the calling thread.
//!
//! Nested calls (a `par_*` invoked from inside a worker closure) run
//! serially on the worker — parallelism lives at the outermost call site,
//! so pipelines never oversubscribe the machine.
//!
//! # Examples
//!
//! ```
//! let items: Vec<u64> = (0..1000).collect();
//! let doubled = m3d_par::par_map(&items, |&x| x * 2);
//! assert_eq!(doubled[999], 1998);
//!
//! // Deterministic float reduction: identical bits at any thread count.
//! let xs: Vec<f32> = (0..1000).map(|i| (i as f32).sin()).collect();
//! let sum = |threads: usize| {
//!     m3d_par::with_threads(threads, || {
//!         m3d_par::par_fold(
//!             &xs,
//!             m3d_par::default_chunk_size(xs.len()),
//!             || 0.0f32,
//!             |acc, _, &x| acc + x,
//!             |a, b| a + b,
//!         )
//!     })
//! };
//! assert_eq!(sum(1).to_bits(), sum(8).to_bits());
//! ```

#![warn(missing_docs)]

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, OnceLock};

/// Upper bound on the number of chunks the default policy creates.
///
/// Large enough that dynamic claiming balances uneven per-item cost across
/// any realistic core count, small enough that per-chunk overhead (one
/// channel send) is negligible. Fixed — never derived from the thread
/// count — so chunk boundaries, and therefore reduction order, are a
/// function of the input length only.
const DEFAULT_MAX_CHUNKS: usize = 64;

thread_local! {
    /// Scoped thread-count override (0 = none). Thread-local so parallel
    /// tests cannot race each other through a global.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
    /// Set inside pool workers: nested `par_*` calls run serially.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
    /// Scoped break-even override for [`par_gate`] (`u64::MAX` = none).
    static THRESHOLD_OVERRIDE: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// The default chunk size for `len` items: at most `DEFAULT_MAX_CHUNKS` (64)
/// chunks, never empty. A function of `len` only — see the crate docs for
/// why that matters.
pub fn default_chunk_size(len: usize) -> usize {
    len.div_ceil(DEFAULT_MAX_CHUNKS).max(1)
}

fn configured_threads() -> usize {
    static ENV: OnceLock<usize> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("M3D_THREADS")
            .ok()
            .and_then(|s| s.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    })
}

/// The pool width the next `par_*` call on this thread will use.
///
/// Inside a worker closure this is always 1 (nested calls are serial).
pub fn num_threads() -> usize {
    if IN_WORKER.with(Cell::get) {
        return 1;
    }
    let o = THREAD_OVERRIDE.with(Cell::get);
    if o > 0 {
        o
    } else {
        configured_threads()
    }
}

/// Runs `f` with the pool width pinned to `n` on this thread (restored on
/// exit, including on panic). Used by the determinism tests and the
/// `BENCH_pipeline` harness to compare `threads = 1` against `threads = N`
/// inside one process.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    assert!(n > 0, "thread count must be positive");
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(n)));
    f()
}

/// Ratio between estimated serial work and dispatch overhead below which
/// [`par_gate`] recommends staying serial: the pool must be able to win
/// back at least this multiple of its own spawn/join cost before it is
/// worth engaging.
const GATE_WORK_FACTOR: u64 = 8;

/// One-per-process calibration of the break-even work size (in element
/// units) for a pool dispatch. Measures (a) the wall cost of a minimal
/// two-worker dispatch — scope spawn, chunk claim, channel send, join —
/// and (b) the per-element cost of a simple float multiply-add stream,
/// then sets the break-even at [`GATE_WORK_FACTOR`] dispatch-costs worth
/// of elements. `M3D_PAR_THRESHOLD` (elements; `0` = always parallel)
/// skips the measurement entirely.
///
/// The calibration is timing-derived and therefore varies per process —
/// which is safe precisely because [`par_gate`] only ever chooses between
/// two paths that are bitwise identical by this crate's chunking rules.
fn calibrated_break_even() -> u64 {
    static CAL: OnceLock<u64> = OnceLock::new();
    *CAL.get_or_init(|| {
        if let Some(v) = std::env::var("M3D_PAR_THRESHOLD")
            .ok()
            .and_then(|s| s.trim().parse::<u64>().ok())
        {
            return v;
        }
        // (a) dispatch overhead: two one-item chunks at width 2 — the
        // smallest dispatch that actually spawns workers. Minimum of a
        // few trials filters scheduler noise.
        let items = [0u8; 2];
        let mut dispatch_ns = u64::MAX;
        for _ in 0..4 {
            let t = std::time::Instant::now();
            with_threads(2, || {
                par_chunks(&items, 1, |_, c| std::hint::black_box(c.len()))
            });
            dispatch_ns = dispatch_ns.min(t.elapsed().as_nanos() as u64);
        }
        // (b) per-element cost of the unit the callers estimate in: one
        // float multiply-add with a streamed operand.
        let n = 1usize << 16;
        let buf: Vec<f32> = (0..n).map(|i| (i as f32) * 0.5 + 1.0).collect();
        let t = std::time::Instant::now();
        let mut acc = 0.0f32;
        for &v in &buf {
            acc += v * 1.000_1;
        }
        std::hint::black_box(acc);
        let elem_ns = (t.elapsed().as_nanos() as f64 / n as f64).max(0.05);
        let break_even = (dispatch_ns as f64 * GATE_WORK_FACTOR as f64 / elem_ns) as u64;
        // Sanity clamp: a mismeasured calibration must never pin every
        // call site serial (upper bound) or make the gate a no-op that
        // parallelizes trivia (lower bound).
        break_even.clamp(1 << 12, 1 << 26)
    })
}

/// The break-even work size (element units) the next [`par_gate`] call on
/// this thread will use: the scoped [`with_par_threshold`] override if
/// set, else the per-process calibration (or `M3D_PAR_THRESHOLD`).
pub fn par_break_even() -> u64 {
    let o = THRESHOLD_OVERRIDE.with(Cell::get);
    if o != u64::MAX {
        o
    } else {
        calibrated_break_even()
    }
}

/// Cost-model gate for adaptive parallel granularity: returns the pool
/// width a call site should use for an operation of `work_elements`
/// estimated element-units (one element-unit ≈ one float multiply-add) —
/// [`num_threads`] when the work amortizes the calibrated dispatch
/// overhead, `1` (serial) otherwise.
///
/// Gating is **bitwise safe by construction**: every `par_*` entry point
/// in this crate produces identical bits at width 1 and width N (chunk
/// boundaries are length-only, reduction is chunk-ordered), so a
/// timing-derived serial/parallel decision can change wall time but never
/// a computed value. The property test `gate_decisions_never_change_bits`
/// pins that down.
///
/// # Examples
///
/// ```
/// let items: Vec<f32> = (0..64).map(|i| i as f32).collect();
/// // Tiny work: run serial rather than paying a pool dispatch.
/// let width = m3d_par::par_gate(items.len() as u64);
/// let out = m3d_par::with_threads(width, || m3d_par::par_map(&items, |&x| x * 2.0));
/// assert_eq!(out.len(), 64);
/// ```
pub fn par_gate(work_elements: u64) -> usize {
    let n = num_threads();
    if n <= 1 || work_elements < par_break_even() {
        1
    } else {
        n
    }
}

/// Runs `f` with the [`par_gate`] break-even pinned to `break_even`
/// element-units on this thread (restored on exit, including on panic).
/// `0` forces every gated call site parallel, `u64::MAX - 1` (or any huge
/// value) forces them serial; the determinism tests use both to prove the
/// decision never changes computed bits.
pub fn with_par_threshold<R>(break_even: u64, f: impl FnOnce() -> R) -> R {
    assert!(
        break_even != u64::MAX,
        "u64::MAX is the no-override sentinel"
    );
    struct Restore(u64);
    impl Drop for Restore {
        fn drop(&mut self) {
            THRESHOLD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THRESHOLD_OVERRIDE.with(|c| c.replace(break_even)));
    f()
}

/// Typed report of a panic inside a worker closure.
///
/// Returned by the `try_*` entry points ([`try_par_map`],
/// [`try_par_map_init`], [`try_par_chunks`], [`try_par_fold`]), which
/// `catch_unwind` each chunk instead of letting the panic poison the whole
/// run. Sibling chunks always run to completion, and when several chunks
/// panic the error reported is the one with the **smallest chunk index** —
/// so the returned error is deterministic at any thread count, like every
/// other result in this crate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic {
    /// Index of the (lowest-indexed) chunk whose closure panicked.
    pub chunk: usize,
    /// The panic payload rendered as text (`&str` / `String` payloads are
    /// preserved; anything else becomes a placeholder).
    pub message: String,
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker panic in chunk {}: {}", self.chunk, self.message)
    }
}

impl std::error::Error for WorkerPanic {}

/// Renders a `catch_unwind` payload as text.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Per-chunk `[queue_us, exec_us]` timing measured by whichever thread ran
/// the chunk. Queue latency is the gap between the dispatch starting and
/// the chunk starting to execute.
type ChunkTiming = [u64; 2];

/// Records one finished dispatch into `m3d-obs`, on the calling thread,
/// with per-chunk observations folded **in chunk-index order** — the same
/// rule `par_fold` uses for accumulators — so metric aggregation order is
/// a function of the input, never of worker interleaving.
fn record_dispatch(
    threads: usize,
    chunks: usize,
    items: usize,
    call_start: std::time::Instant,
    timings: &[ChunkTiming],
) {
    let wall_us = call_start.elapsed().as_micros() as u64;
    let busy_us: u64 = timings.iter().map(|&[_, exec_us]| exec_us).sum();
    m3d_obs::observe_batch("par.queue_us", timings.iter().map(|&[q, _]| q as f64));
    m3d_obs::observe_batch("par.exec_us", timings.iter().map(|&[_, e]| e as f64));
    m3d_obs::counter("par.calls", 1);
    m3d_obs::counter("par.chunks", chunks as u64);
    m3d_obs::counter("par.items", items as u64);
    // Cumulative wall/busy time and the capacity in use: the telemetry
    // plane diffs these over rolling windows for live pool utilization.
    m3d_obs::counter("par.wall_us", wall_us);
    m3d_obs::counter("par.busy_us", busy_us);
    m3d_obs::counter("par.capacity_us", threads as u64 * wall_us);
    m3d_obs::gauge("par.threads", threads as f64);
    m3d_obs::record_pool(threads, chunks, items, wall_us, busy_us);
}

/// The engine: applies `chunk_fn` to every `chunk_size`-sized chunk of
/// `items` and returns the per-chunk results in chunk order. `init` builds
/// per-worker scratch (once per worker thread; once total when serial).
///
/// When `m3d-obs` recording is enabled, the outermost call also reports
/// per-chunk queue/exec timing and a pool-utilization event. Workers only
/// *measure* timestamps; all recording happens on the calling thread after
/// chunk-order reassembly, so results — and event order — are untouched.
fn chunk_results<T: Sync, S, R: Send>(
    items: &[T],
    chunk_size: usize,
    init: impl Fn() -> S + Sync,
    chunk_fn: impl Fn(&mut S, usize, &[T]) -> R + Sync,
) -> Vec<R> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let n_chunks = items.len().div_ceil(chunk_size);
    let threads = num_threads().min(n_chunks);
    // Nested (in-worker) calls stay invisible to obs: their recording
    // order would depend on which worker ran them.
    let obs_on = m3d_obs::enabled() && !IN_WORKER.with(Cell::get);
    let call_start = std::time::Instant::now();
    if threads <= 1 {
        // Serial fallback: the identical chunk walk, inline.
        let mut scratch = init();
        let mut timings: Vec<ChunkTiming> = Vec::new();
        let out = items
            .chunks(chunk_size)
            .enumerate()
            .map(|(ci, c)| {
                let t0 = std::time::Instant::now();
                let r = chunk_fn(&mut scratch, ci, c);
                if obs_on {
                    let queue_us = t0.duration_since(call_start).as_micros() as u64;
                    timings.push([queue_us, t0.elapsed().as_micros() as u64]);
                }
                r
            })
            .collect();
        if obs_on {
            record_dispatch(1, n_chunks, items.len(), call_start, &timings);
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R, ChunkTiming)>();
    let mut out: Vec<Option<(R, ChunkTiming)>> = Vec::with_capacity(n_chunks);
    out.resize_with(n_chunks, || None);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (next, init, chunk_fn) = (&next, &init, &chunk_fn);
            scope.spawn(move || {
                struct WorkerGuard;
                impl Drop for WorkerGuard {
                    fn drop(&mut self) {
                        IN_WORKER.with(|c| c.set(false));
                        m3d_obs::set_pool_worker(false);
                    }
                }
                IN_WORKER.with(|c| c.set(true));
                m3d_obs::set_pool_worker(true);
                let _guard = WorkerGuard;
                let mut scratch = init();
                loop {
                    let ci = next.fetch_add(1, Ordering::Relaxed);
                    if ci >= n_chunks {
                        break;
                    }
                    let lo = ci * chunk_size;
                    let hi = (lo + chunk_size).min(items.len());
                    let t0 = std::time::Instant::now();
                    let r = chunk_fn(&mut scratch, ci, &items[lo..hi]);
                    let timing = if obs_on {
                        let queue_us = t0.duration_since(call_start).as_micros() as u64;
                        [queue_us, t0.elapsed().as_micros() as u64]
                    } else {
                        [0, 0]
                    };
                    if tx.send((ci, r, timing)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);
        // Collect while workers run; ends when every sender is dropped.
        for (ci, r, timing) in rx {
            out[ci] = Some((r, timing));
        }
    });
    // A worker panic propagates out of the scope above, so every slot is
    // filled here.
    let mut results = Vec::with_capacity(n_chunks);
    let mut timings: Vec<ChunkTiming> = Vec::with_capacity(if obs_on { n_chunks } else { 0 });
    for slot in out {
        let (r, timing) = slot.expect("every chunk completed");
        results.push(r);
        if obs_on {
            timings.push(timing);
        }
    }
    if obs_on {
        record_dispatch(threads, n_chunks, items.len(), call_start, &timings);
    }
    results
}

/// Fallible engine wrapper: runs the same chunk walk as [`chunk_results`]
/// but catches a panic in `chunk_fn` per chunk. Sibling chunks are
/// unaffected — every chunk still runs — and the error returned is the one
/// from the smallest panicking chunk index, so the outcome (value *or*
/// error) is deterministic at any thread count.
fn try_chunk_results<T: Sync, S, R: Send>(
    items: &[T],
    chunk_size: usize,
    init: impl Fn() -> S + Sync,
    chunk_fn: impl Fn(&mut S, usize, &[T]) -> R + Sync,
) -> Result<Vec<R>, WorkerPanic> {
    let wrapped = chunk_results(items, chunk_size, init, |scratch, ci, c| {
        catch_unwind(AssertUnwindSafe(|| chunk_fn(scratch, ci, c))).map_err(|payload| WorkerPanic {
            chunk: ci,
            message: panic_message(payload),
        })
    });
    // `wrapped` is in chunk order, so the first `Err` has the smallest
    // chunk index. Panics go to the flight recorder here, on the calling
    // thread in chunk order, so dump content never depends on worker
    // interleaving.
    let mut out = Vec::with_capacity(wrapped.len());
    let mut first_err: Option<WorkerPanic> = None;
    for r in wrapped {
        match r {
            Ok(v) => out.push(v),
            Err(p) => {
                m3d_obs::flight_record(
                    "pool",
                    "panic",
                    format!("chunk {}: {}", p.chunk, p.message),
                );
                first_err.get_or_insert(p);
            }
        }
    }
    match first_err {
        Some(e) => Err(e),
        None => Ok(out),
    }
}

/// Order-preserving parallel map: `out[i] = f(&items[i])`.
///
/// Deterministic for pure `f`: the output is identical at any thread
/// count.
///
/// # Panics
///
/// A panic in `f` does **not** abort sibling workers mid-chunk: every
/// other chunk runs to completion, then the panic resumes on the calling
/// thread when the scope joins. Callers that want the panic as a typed
/// error instead should use [`try_par_map`].
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    par_map_init(items, || (), |(), item| f(item))
}

/// Fallible [`par_map`]: a panic in `f` becomes a [`WorkerPanic`] carrying
/// the chunk index, instead of unwinding through the caller. All sibling
/// chunks still run; with several panicking chunks the lowest chunk index
/// wins, so the `Err` is deterministic at any thread count.
pub fn try_par_map<T: Sync, R: Send>(
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Result<Vec<R>, WorkerPanic> {
    try_par_map_init(items, || (), |(), item| f(item))
}

/// Order-preserving parallel map with per-worker scratch state.
///
/// `init` runs once per worker thread (once total on the serial path);
/// `f` receives the scratch and one item. The scratch is for *reusable
/// allocations* (e.g. a fault-propagation scratchpad): `f`'s output must
/// not depend on scratch history, or determinism is lost.
pub fn par_map_init<T: Sync, S, R: Send>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Vec<R> {
    let chunk = default_chunk_size(items.len());
    let per_chunk = chunk_results(items, chunk, init, |scratch, _, c| {
        c.iter().map(|item| f(scratch, item)).collect::<Vec<R>>()
    });
    let mut out = Vec::with_capacity(items.len());
    for c in per_chunk {
        out.extend(c);
    }
    out
}

/// Fallible [`par_map_init`]: a panic in `f` becomes a [`WorkerPanic`]
/// carrying the chunk index (the [`default_chunk_size`] chunking, as used
/// by `par_map_init` itself).
pub fn try_par_map_init<T: Sync, S, R: Send>(
    items: &[T],
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, &T) -> R + Sync,
) -> Result<Vec<R>, WorkerPanic> {
    let chunk = default_chunk_size(items.len());
    let per_chunk = try_chunk_results(items, chunk, init, |scratch, _, c| {
        c.iter().map(|item| f(scratch, item)).collect::<Vec<R>>()
    })?;
    let mut out = Vec::with_capacity(items.len());
    for c in per_chunk {
        out.extend(c);
    }
    Ok(out)
}

/// Splits `0..len` into the [`default_chunk_size`] layout and runs `f` on
/// each index range in parallel; returns one result per range, in range
/// order.
///
/// The range boundaries are a function of `len` only, so for a pure `f`
/// the output is identical at any thread count. This is the row-panel
/// primitive behind the blocked GNN kernels: each panel owns a disjoint
/// range of output rows, computes into private storage, and the panels are
/// reassembled in order.
///
/// # Examples
///
/// ```
/// let sums = m3d_par::par_ranges(10, |r| r.sum::<usize>());
/// let total: usize = sums.into_iter().sum();
/// assert_eq!(total, 45);
/// ```
pub fn par_ranges<R: Send>(len: usize, f: impl Fn(std::ops::Range<usize>) -> R + Sync) -> Vec<R> {
    let chunk = default_chunk_size(len);
    let ranges: Vec<std::ops::Range<usize>> = (0..len)
        .step_by(chunk)
        .map(|s| s..(s + chunk).min(len))
        .collect();
    par_map(&ranges, |r| f(r.clone()))
}

/// Applies `f` to fixed `chunk_size`-sized chunks in parallel; returns one
/// result per chunk, in chunk order. `f` receives the chunk index and the
/// chunk slice.
pub fn par_chunks<T: Sync, R: Send>(
    items: &[T],
    chunk_size: usize,
    f: impl Fn(usize, &[T]) -> R + Sync,
) -> Vec<R> {
    chunk_results(items, chunk_size, || (), |(), ci, c| f(ci, c))
}

/// Fallible [`par_chunks`]: a panic in `f` becomes a [`WorkerPanic`]
/// carrying the index of the chunk that panicked.
pub fn try_par_chunks<T: Sync, R: Send>(
    items: &[T],
    chunk_size: usize,
    f: impl Fn(usize, &[T]) -> R + Sync,
) -> Result<Vec<R>, WorkerPanic> {
    try_chunk_results(items, chunk_size, || (), |(), ci, c| f(ci, c))
}

/// Deterministic parallel fold: each chunk folds its items (in item order,
/// with the global item index) into a fresh accumulator from `acc`; the
/// per-chunk accumulators are then merged **left-to-right in chunk-index
/// order** on the calling thread.
///
/// Because chunk boundaries depend only on `items.len()` and `chunk_size`,
/// and the merge order is fixed, floating-point reductions are bitwise
/// reproducible regardless of thread count. Returns `acc()` for empty
/// input.
pub fn par_fold<T: Sync, A: Send>(
    items: &[T],
    chunk_size: usize,
    acc: impl Fn() -> A + Sync,
    fold: impl Fn(A, usize, &T) -> A + Sync,
    merge: impl Fn(A, A) -> A,
) -> A {
    let partials = chunk_results(
        items,
        chunk_size,
        || (),
        |(), ci, c| {
            let base = ci * chunk_size;
            let mut a = acc();
            for (off, item) in c.iter().enumerate() {
                a = fold(a, base + off, item);
            }
            a
        },
    );
    let mut it = partials.into_iter();
    let first = match it.next() {
        Some(a) => a,
        None => return acc(),
    };
    it.fold(first, merge)
}

/// Fallible [`par_fold`]: a panic in `fold` becomes a [`WorkerPanic`]
/// carrying the chunk index; the left-to-right merge then never runs.
/// `merge` itself executes on the calling thread outside the pool, so a
/// panic there unwinds normally.
pub fn try_par_fold<T: Sync, A: Send>(
    items: &[T],
    chunk_size: usize,
    acc: impl Fn() -> A + Sync,
    fold: impl Fn(A, usize, &T) -> A + Sync,
    merge: impl Fn(A, A) -> A,
) -> Result<A, WorkerPanic> {
    let partials = try_chunk_results(
        items,
        chunk_size,
        || (),
        |(), ci, c| {
            let base = ci * chunk_size;
            let mut a = acc();
            for (off, item) in c.iter().enumerate() {
                a = fold(a, base + off, item);
            }
            a
        },
    )?;
    let mut it = partials.into_iter();
    let first = match it.next() {
        Some(a) => a,
        None => return Ok(acc()),
    };
    Ok(it.fold(first, merge))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_order_at_every_thread_count() {
        let items: Vec<usize> = (0..257).collect();
        let want: Vec<usize> = items.iter().map(|&x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = with_threads(threads, || par_map(&items, |&x| x * 3 + 1));
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn float_fold_is_bitwise_reproducible() {
        // A sum whose value genuinely depends on association order.
        let xs: Vec<f32> = (0..10_000)
            .map(|i| ((i * 2654435761_usize) as f32).sin() * 1e3)
            .collect();
        let run = |threads: usize| {
            with_threads(threads, || {
                par_fold(
                    &xs,
                    default_chunk_size(xs.len()),
                    || 0.0f32,
                    |a, _, &x| a + x,
                    |a, b| a + b,
                )
            })
        };
        let reference = run(1).to_bits();
        for threads in [2, 3, 4, 7, 16] {
            assert_eq!(run(threads).to_bits(), reference, "threads = {threads}");
        }
    }

    #[test]
    fn fold_indices_are_global() {
        let items = vec![1u64; 100];
        let sum_idx = with_threads(4, || {
            par_fold(&items, 7, || 0u64, |a, i, _| a + i as u64, |a, b| a + b)
        });
        assert_eq!(sum_idx, (0..100).sum::<u64>());
    }

    #[test]
    fn chunks_see_fixed_boundaries() {
        let items: Vec<u8> = vec![0; 103];
        for threads in [1, 5] {
            let sizes = with_threads(threads, || par_chunks(&items, 10, |ci, c| (ci, c.len())));
            assert_eq!(sizes.len(), 11);
            assert!(sizes.iter().take(10).all(|&(_, n)| n == 10));
            assert_eq!(sizes[10], (10, 3));
        }
    }

    #[test]
    fn scratch_is_reused_within_a_worker() {
        // init must run at most `threads` times (exactly once when serial).
        let inits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..100).collect();
        let out = with_threads(3, || {
            par_map_init(
                &items,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<u32>::new()
                },
                |scratch, &x| {
                    scratch.push(x);
                    x
                },
            )
        });
        assert_eq!(out, items);
        assert!(inits.load(Ordering::Relaxed) <= 3);
    }

    #[test]
    fn nested_calls_run_serially() {
        let items: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..4).collect();
        let got = with_threads(4, || {
            par_map(&items, |&x| {
                assert_eq!(num_threads(), 1, "nested calls must be serial");
                par_map(&inner, |&y| x * 10 + y)
            })
        });
        assert_eq!(got[7], vec![70, 71, 72, 73]);
        // The guard resets: top-level calls parallelize again.
        assert!(num_threads() >= 1);
    }

    #[test]
    fn empty_input_is_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert!(par_chunks(&empty, 4, |_, c| c.len()).is_empty());
        let folded = par_fold(&empty, 4, || 42u32, |a, _, _| a, |a, _| a);
        assert_eq!(folded, 42);
    }

    #[test]
    fn worker_panics_propagate() {
        let items: Vec<usize> = (0..64).collect();
        let result = catch_unwind(|| {
            with_threads(4, || {
                par_map(&items, |&x| {
                    assert!(x != 40, "boom");
                    x
                })
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn panicking_chunk_does_not_abort_siblings() {
        // Satellite guarantee: a panic in one chunk never cancels work in
        // sibling chunks. Every item outside the panicking chunk must have
        // been processed, whichever of `par_map` (panic propagates at scope
        // join) or `try_par_map` (typed error) the caller used.
        let items: Vec<usize> = (0..64).collect();
        let chunk = default_chunk_size(items.len()); // 1 → chunk == item
        assert_eq!(chunk, 1);
        let processed = AtomicUsize::new(0);
        let result = with_threads(4, || {
            try_par_map(&items, |&x| {
                if x == 9 {
                    panic!("chaos: injected worker panic");
                }
                processed.fetch_add(1, Ordering::Relaxed);
                x
            })
        });
        let err = result.expect_err("the injected panic must surface as Err");
        assert_eq!(err.chunk, 9);
        assert!(err.message.contains("injected worker panic"), "{err}");
        assert_eq!(
            processed.load(Ordering::Relaxed),
            items.len() - 1,
            "all sibling chunks ran to completion"
        );
    }

    #[test]
    fn try_error_is_deterministic_across_thread_counts() {
        // Several chunks panic; the reported chunk index must always be
        // the smallest, at any thread count.
        let items: Vec<usize> = (0..256).collect();
        for threads in [1, 2, 4, 8] {
            let err = with_threads(threads, || {
                try_par_map(&items, |&x| {
                    assert!(x % 50 != 3, "boom at {x}");
                    x
                })
            })
            .expect_err("must fail");
            // 256 items → chunk size 4; first failing item is 3 → chunk 0.
            assert_eq!(err.chunk, 0, "threads = {threads}");
        }
    }

    #[test]
    fn try_variants_match_plain_ones_on_success() {
        let items: Vec<u64> = (0..300).collect();
        let ok = try_par_map(&items, |&x| x * 7).expect("no panic");
        assert_eq!(ok, par_map(&items, |&x| x * 7));
        let folded = try_par_fold(
            &items,
            default_chunk_size(items.len()),
            || 0u64,
            |a, _, &x| a + x,
            |a, b| a + b,
        )
        .expect("no panic");
        assert_eq!(folded, (0..300).sum::<u64>());
        let chunks = try_par_chunks(&items, 32, |ci, c| (ci, c.len())).expect("no panic");
        assert_eq!(chunks, par_chunks(&items, 32, |ci, c| (ci, c.len())));
        let empty: Vec<u64> = Vec::new();
        assert_eq!(try_par_map(&empty, |&x| x), Ok(Vec::new()));
        assert_eq!(
            try_par_fold(&empty, 4, || 5u64, |a, _, _| a, |a, b| a + b),
            Ok(5)
        );
    }

    #[test]
    fn try_par_fold_reports_panicking_chunk() {
        let items: Vec<usize> = (0..100).collect();
        let err = with_threads(3, || {
            try_par_fold(
                &items,
                10,
                || 0usize,
                |a, i, _| {
                    assert!(i != 57, "fold chaos");
                    a + 1
                },
                |a, b| a + b,
            )
        })
        .expect_err("must fail");
        assert_eq!(err.chunk, 5, "item 57 lives in chunk 5 of size 10");
        assert!(err.message.contains("fold chaos"));
    }

    #[test]
    fn worker_panic_displays_chunk_and_message() {
        let e = WorkerPanic {
            chunk: 3,
            message: "boom".into(),
        };
        assert_eq!(e.to_string(), "worker panic in chunk 3: boom");
    }

    #[test]
    fn default_chunking_is_len_only() {
        assert_eq!(default_chunk_size(0), 1);
        assert_eq!(default_chunk_size(1), 1);
        assert_eq!(default_chunk_size(64), 1);
        assert_eq!(default_chunk_size(65), 2);
        assert_eq!(default_chunk_size(6400), 100);
    }

    #[test]
    fn par_ranges_covers_exactly_and_in_order() {
        for len in [0usize, 1, 3, 64, 65, 200, 6401] {
            let ranges = par_ranges(len, |r| r);
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next, "ranges must tile 0..{len} in order");
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, len);
        }
    }

    #[test]
    fn par_ranges_is_thread_count_invariant() {
        let serial = with_threads(1, || par_ranges(1000, |r| r.sum::<usize>()));
        let wide = with_threads(8, || par_ranges(1000, |r| r.sum::<usize>()));
        assert_eq!(serial, wide);
    }

    #[test]
    fn gate_decisions_never_change_bits() {
        // The satellite contract: forcing the gate serial and forcing it
        // parallel must produce bitwise-identical results, because both
        // sides of the decision share chunk boundaries and merge order.
        let xs: Vec<f32> = (0..5000)
            .map(|i| ((i * 2654435761_usize) as f32).sin() * 1e3)
            .collect();
        let run = |break_even: u64| {
            with_par_threshold(break_even, || {
                let width = par_gate(xs.len() as u64);
                with_threads(width.max(1), || {
                    par_fold(
                        &xs,
                        default_chunk_size(xs.len()),
                        || 0.0f32,
                        |a, _, &x| a + x,
                        |a, b| a + b,
                    )
                })
            })
        };
        let serial = with_threads(4, || run(u64::MAX - 1));
        let parallel = with_threads(4, || run(0));
        assert_eq!(serial.to_bits(), parallel.to_bits());
    }

    #[test]
    fn gate_respects_threshold_and_width() {
        with_threads(4, || {
            with_par_threshold(1000, || {
                assert_eq!(par_gate(999), 1, "below break-even stays serial");
                assert_eq!(par_gate(1000), 4, "at break-even goes parallel");
            });
            with_par_threshold(0, || {
                assert_eq!(par_gate(0), 4, "zero threshold always parallel");
            });
        });
        with_threads(1, || {
            with_par_threshold(0, || {
                assert_eq!(par_gate(u64::MAX - 1), 1, "width 1 is always serial");
            });
        });
    }

    #[test]
    fn threshold_override_restores_on_exit() {
        let base = par_break_even();
        with_par_threshold(123, || assert_eq!(par_break_even(), 123));
        assert_eq!(par_break_even(), base);
        let caught = catch_unwind(|| with_par_threshold(7, || panic!("x")));
        assert!(caught.is_err());
        assert_eq!(par_break_even(), base, "override must unwind-restore");
    }

    #[test]
    fn calibration_is_sane_and_stable() {
        let a = calibrated_break_even();
        let b = calibrated_break_even();
        assert_eq!(a, b, "calibration is once per process");
        if std::env::var_os("M3D_PAR_THRESHOLD").is_none() {
            assert!((1 << 12..=1 << 26).contains(&a), "break-even {a} unclamped");
        }
    }

    #[test]
    fn with_threads_restores_on_exit() {
        let base = num_threads();
        with_threads(7, || assert_eq!(num_threads(), 7));
        assert_eq!(num_threads(), base);
        let caught = catch_unwind(|| with_threads(5, || panic!("x")));
        assert!(caught.is_err());
        assert_eq!(num_threads(), base, "override must unwind-restore");
    }
}
