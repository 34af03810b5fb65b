//! Std-only observability substrate for the M3D diagnosis pipeline:
//! hierarchical span tracing, a deterministic metrics registry, and a
//! profiling report renderer.
//!
//! # Design
//!
//! - **Off by default, zero-ish cost when off.** Every recording entry
//!   point checks one relaxed atomic and returns immediately when
//!   observability is disabled, so instrumented hot paths stay cheap.
//! - **Determinism-preserving.** Recording is a pure *read* of pipeline
//!   state: spans and metrics are recorded only from orchestrating
//!   threads (worker threads at most measure timestamps that the caller
//!   records in chunk order), so enabling tracing never changes chunk
//!   boundaries, merge order, RNG draws, or any computed result.
//! - **Two sinks.** A trace buffer of [`Event::Span`] / [`Event::Pool`]
//!   events (wall-clock structure of a run) and a [`Registry`] of
//!   counters/gauges/histograms/series (aggregate health of a run).
//!   Both serialize to JSON-lines via [`Event::render_line`].
//!
//! # Usage
//!
//! ```
//! m3d_obs::reset();
//! m3d_obs::set_enabled(true);
//! {
//!     let mut span = m3d_obs::span("fault_simulation");
//!     span.add("faults", 12);
//!     m3d_obs::counter("tdf.fsim.calls", 1);
//! }
//! let trace = m3d_obs::trace_events();
//! assert_eq!(trace.len(), 1);
//! m3d_obs::set_enabled(false);
//! ```

#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod report;
pub mod rolling;
pub mod slo;

pub use event::Event;
pub use flight::{
    flight_capacity, flight_clear, flight_dropped, flight_enabled, flight_events, flight_record,
    flight_render, set_flight_capacity, set_flight_enabled, FlightEvent, DEFAULT_FLIGHT_CAPACITY,
};
pub use json::Json;
pub use metrics::{Histogram, Registry, LATENCY_MS_BOUNDS, QUEUE_DEPTH_BOUNDS, TIME_US_BOUNDS};
pub use rolling::{SnapshotRing, Stamped};
pub use slo::{SloInputs, SloSpec, SloStatus};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_ENABLED: AtomicBool = AtomicBool::new(true);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static TRACE: Mutex<Vec<Event>> = Mutex::new(Vec::new());
static REGISTRY: Mutex<Registry> = Mutex::new(Registry::new());

thread_local! {
    /// Stack of open spans on this thread: `(id, name)`.
    static STACK: RefCell<Vec<(u64, &'static str)>> = const { RefCell::new(Vec::new()) };
    /// Set while this thread runs `m3d-par` pool work (see
    /// [`set_pool_worker`]).
    static POOL_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Shared process-wide time origin for span `t_us` offsets.
pub(crate) fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Locks `m`, recovering the data from a poisoned lock: observability
/// must keep working after a guarded worker panic elsewhere.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Turns recording on or off. Off is the default; when off, every
/// recording call is a single relaxed atomic load.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether recording is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns the *trace* sink (span and pool events) on or off without
/// touching the metrics registry. On by default. A long-running server
/// sets this off so metrics keep accumulating while the unbounded trace
/// buffer stays empty.
pub fn set_trace_enabled(on: bool) {
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// Whether the trace sink is currently enabled (and recording overall).
pub fn trace_enabled() -> bool {
    enabled() && TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Marks the calling thread as a thread-pool worker (`m3d-par` sets this
/// around its worker loops). Spans opened on a pool worker are inert:
/// their order in the trace would depend on which worker ran them, so
/// only orchestrating threads record spans. Work a pool runs inline (a
/// width-1 or gated-serial call) stays on the orchestrating thread and
/// is traced as usual.
pub fn set_pool_worker(on: bool) {
    POOL_WORKER.with(|w| w.set(on));
}

/// Clears the trace buffer, the metrics registry, and the id counter.
/// Open spans on other threads keep their already-allocated ids.
pub fn reset() {
    lock(&TRACE).clear();
    lock(&REGISTRY).clear();
    NEXT_ID.store(1, Ordering::Relaxed);
}

/// An RAII guard for one traced span. Created by [`span`]; records a
/// [`Event::Span`] with its wall time and counters when dropped.
#[derive(Debug)]
#[must_use = "a span measures the scope it lives in; bind it to a variable"]
pub struct SpanGuard {
    active: bool,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    t_us: u64,
    start: Instant,
    counters: Vec<(&'static str, u64)>,
}

impl SpanGuard {
    /// Adds `n` to the per-span counter `name` (no-op when disabled).
    pub fn add(&mut self, name: &'static str, n: u64) {
        if !self.active {
            return;
        }
        match self.counters.iter_mut().find(|(k, _)| *k == name) {
            Some((_, v)) => *v += n,
            None => self.counters.push((name, n)),
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            if s.last().map(|(id, _)| *id) == Some(self.id) {
                s.pop();
            }
        });
        let dur_us = self.start.elapsed().as_micros() as u64;
        lock(&TRACE).push(Event::Span {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            t_us: self.t_us,
            dur_us,
            counters: self
                .counters
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        });
    }
}

/// Opens a span named `name`, nested under the innermost open span on
/// this thread. Returns an inert guard when recording is disabled or the
/// thread is a pool worker ([`set_pool_worker`]).
pub fn span(name: &'static str) -> SpanGuard {
    if !trace_enabled() || POOL_WORKER.with(Cell::get) {
        return SpanGuard {
            active: false,
            id: 0,
            parent: None,
            name,
            t_us: 0,
            start: Instant::now(),
            counters: Vec::new(),
        };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map(|(id, _)| *id);
        s.push((id, name));
        parent
    });
    SpanGuard {
        active: true,
        id,
        parent,
        name,
        t_us: epoch().elapsed().as_micros() as u64,
        start: Instant::now(),
        counters: Vec::new(),
    }
}

/// Name of the innermost open span on this thread, if any.
pub fn current_span() -> Option<&'static str> {
    STACK.with(|s| s.borrow().last().map(|(_, name)| *name))
}

/// Records one thread-pool dispatch for utilization accounting,
/// attributed to the innermost open span on the calling thread.
pub fn record_pool(threads: usize, chunks: usize, items: usize, wall_us: u64, busy_us: u64) {
    if !trace_enabled() {
        return;
    }
    let in_span = current_span().unwrap_or("").to_string();
    lock(&TRACE).push(Event::Pool {
        in_span,
        threads,
        chunks,
        items,
        wall_us,
        busy_us,
    });
}

/// Adds `n` to the global monotonic counter `name`.
pub fn counter(name: &str, n: u64) {
    if enabled() {
        lock(&REGISTRY).counter(name, n);
    }
}

/// Sets the global gauge `name` to `v`.
pub fn gauge(name: &str, v: f64) {
    if enabled() {
        lock(&REGISTRY).gauge(name, v);
    }
}

/// Records `v` into the global histogram `name` with the default
/// latency buckets ([`TIME_US_BOUNDS`]).
pub fn observe(name: &str, v: f64) {
    if enabled() {
        lock(&REGISTRY).observe(name, v);
    }
}

/// Records `v` into the global histogram `name`, creating it with
/// `bounds` on first use.
pub fn observe_with(name: &str, bounds: &[f64], v: f64) {
    if enabled() {
        lock(&REGISTRY).observe_with(name, bounds, v);
    }
}

/// Records every value in `values` into the global histogram `name`
/// under one registry lock (the batch form of [`observe`]).
pub fn observe_batch(name: &str, values: impl IntoIterator<Item = f64>) {
    if enabled() {
        lock(&REGISTRY).observe_all(name, values);
    }
}

/// Appends `v` to the global ordered series `name`.
pub fn series_push(name: &str, v: f64) {
    if enabled() {
        lock(&REGISTRY).series_push(name, v);
    }
}

/// A copy of the trace buffer (span and pool events, completion order).
pub fn trace_events() -> Vec<Event> {
    lock(&TRACE).clone()
}

/// The metrics registry exported as events (deterministic order).
pub fn metrics_events() -> Vec<Event> {
    lock(&REGISTRY).events()
}

/// A point-in-time copy of the whole metrics registry.
pub fn registry_snapshot() -> Registry {
    lock(&REGISTRY).clone()
}

fn write_jsonl(path: &std::path::Path, events: &[Event]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for e in events {
        writeln!(out, "{}", e.render_line())?;
    }
    out.flush()
}

/// Writes the trace buffer to `path` as JSON-lines.
pub fn write_trace(path: &std::path::Path) -> std::io::Result<()> {
    write_jsonl(path, &trace_events())
}

/// Writes the metrics registry to `path` as JSON-lines.
pub fn write_metrics(path: &std::path::Path) -> std::io::Result<()> {
    write_jsonl(path, &metrics_events())
}

/// Renders the recorded spans as a human-readable indented tree.
pub fn render_tree() -> String {
    report::render_span_tree(&trace_events())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Global-state tests must not interleave; every test takes this.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn disabled_recording_is_inert() {
        let _x = exclusive();
        reset();
        set_enabled(false);
        {
            let mut s = span("outer");
            s.add("n", 3);
            counter("c", 1);
            observe("h", 1.0);
            record_pool(4, 8, 100, 10, 40);
        }
        assert!(trace_events().is_empty());
        assert!(metrics_events().is_empty());
    }

    #[test]
    fn spans_nest_and_record_counters() {
        let _x = exclusive();
        reset();
        set_enabled(true);
        {
            let mut outer = span("outer");
            outer.add("items", 2);
            outer.add("items", 3);
            {
                let _inner = span("inner");
                record_pool(4, 8, 100, 10, 40);
            }
        }
        set_enabled(false);
        let events = trace_events();
        assert_eq!(events.len(), 3);
        // Completion order: pool (inside inner), inner, outer.
        let Event::Pool { in_span, .. } = &events[0] else {
            panic!("expected pool first: {events:?}");
        };
        assert_eq!(in_span, "inner");
        let Event::Span { name, parent, .. } = &events[1] else {
            panic!("expected span: {events:?}");
        };
        assert_eq!(name, "inner");
        assert!(parent.is_some());
        let Event::Span {
            name,
            parent,
            counters,
            ..
        } = &events[2]
        else {
            panic!("expected span: {events:?}");
        };
        assert_eq!(name, "outer");
        assert_eq!(*parent, None);
        assert_eq!(counters, &[("items".to_string(), 5)]);
    }

    #[test]
    fn trace_gate_keeps_metrics_but_drops_spans() {
        let _x = exclusive();
        reset();
        set_enabled(true);
        set_trace_enabled(false);
        {
            let _s = span("quiet");
            counter("served", 3);
            record_pool(4, 8, 100, 10, 40);
        }
        set_trace_enabled(true);
        set_enabled(false);
        assert!(trace_events().is_empty());
        assert_eq!(registry_snapshot().counter_value("served"), Some(3));
    }

    #[test]
    fn reset_clears_both_sinks() {
        let _x = exclusive();
        reset();
        set_enabled(true);
        {
            let _s = span("x");
            counter("c", 2);
        }
        set_enabled(false);
        assert!(!trace_events().is_empty());
        reset();
        assert!(trace_events().is_empty());
        assert!(metrics_events().is_empty());
    }

    #[test]
    fn write_and_parse_round_trip_on_disk() {
        let _x = exclusive();
        reset();
        set_enabled(true);
        {
            let _s = span("stage");
            counter("hits", 7);
            series_push("loss", 0.5);
        }
        set_enabled(false);
        let dir = std::env::temp_dir();
        let trace = dir.join(format!("obs_trace_{}.jsonl", std::process::id()));
        let metrics = dir.join(format!("obs_metrics_{}.jsonl", std::process::id()));
        write_trace(&trace).unwrap();
        write_metrics(&metrics).unwrap();
        for p in [&trace, &metrics] {
            let text = std::fs::read_to_string(p).unwrap();
            for line in text.lines() {
                Event::parse_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
            }
            std::fs::remove_file(p).unwrap();
        }
    }
}
