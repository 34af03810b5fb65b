//! Batch workloads: the product's request path called in-process, one
//! failure log at a time — `Diagnoser::diagnose` → `back_trace` →
//! `FaultLocalizer::enhance` → final report.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use m3d_diagnosis::DiagnosisReport;
use m3d_fault_localization::{DiagSample, PolicyAction, PolicyOutcome, TestEnv};
use m3d_hetgraph::back_trace;
use m3d_part::DesignConfig;
use m3d_tdf::FailureLog;

use crate::chips::{self, PoolSpec};
use crate::runner;
use crate::setup::{self, Ready, SetupLayers, SetupSpec};
use crate::stats::{self, mean, ms, quantile, Digest, Metrics, Outcome, Quality};
use crate::Args;

/// One batch workload.
pub struct BatchWorkload {
    pub setup: SetupSpec,
    /// The test chips; every run diagnoses whole passes over them.
    pub pool: PoolSpec,
    /// Set-ups per run (`setup_s` is their median).
    pub setup_reps: usize,
    /// Passes over the pool per run, at the least.
    pub min_passes: usize,
}

/// Per-call timings and sizes of one traced request.
struct OpTrace {
    diagnose_ms: f64,
    back_trace_ms: f64,
    enhance_us: f64,
    total_ms: f64,
    candidates: usize,
    cover: bool,
    subgraph_nodes: usize,
    entries: usize,
    flops_per_obs: f64,
    action: PolicyAction,
}

/// The request path. With `trace`, each call into a crate is timed.
fn request(r: &Ready<'_>, log: &FailureLog, trace: bool) -> (PolicyOutcome, Option<OpTrace>) {
    let t0 = Instant::now();
    let report = r.diagnoser.diagnose(log);
    let t1 = Instant::now();
    let subgraph = back_trace(&r.env.het, r.fsim, &r.env.scan, log);
    let t2 = Instant::now();
    let nodes = subgraph.as_ref().map_or(0, |s| s.node_count());
    let sample = DiagSample {
        injected: Vec::new(),
        log: log.clone(),
        subgraph,
        faulty_tier: None,
        miv_truth: Vec::new(),
    };
    let t3 = Instant::now();
    let outcome = r.localizer.enhance(&r.env.design, &report, &sample);
    let t4 = Instant::now();
    let trace = trace.then(|| OpTrace {
        diagnose_ms: ms(t1 - t0),
        back_trace_ms: ms(t2 - t1),
        enhance_us: (t4 - t3).as_secs_f64() * 1e6,
        total_ms: ms(t4 - t0),
        candidates: report.candidates().len(),
        cover: !report.candidates().iter().any(|c| c.score.is_perfect()),
        subgraph_nodes: nodes,
        entries: log.len(),
        flops_per_obs: log
            .entries()
            .iter()
            .map(|e| r.env.scan.candidate_flops(e.obs).len())
            .sum::<usize>() as f64
            / log.len().max(1) as f64,
        action: outcome.action,
    });
    (outcome, trace)
}

/// The exact final report, as compared across passes and digested.
pub fn render(report: &DiagnosisReport, action: PolicyAction) -> String {
    format!("{report}action={action:?}\n")
}

/// Every this many pool logs, one runs again after the timed phase.
const RECHECK_EVERY: usize = 10;

/// Test chips come from a stream disjoint from the training seed.
pub fn test_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x7e57
}

pub fn run(w: &BatchWorkload, args: &Args, process_start: Instant) -> Result<Outcome, String> {
    let mut setups: Vec<(f64, SetupLayers)> = Vec::new();
    let mut result = None;
    for rep in 0..w.setup_reps {
        let t0 = if rep == 0 {
            process_start
        } else {
            Instant::now()
        };
        let last = rep + 1 == w.setup_reps;
        result = setup::with_setup(&w.setup, args.trace, |ready, layers| {
            setups.push((t0.elapsed().as_secs_f64(), layers));
            eprintln!(
                "set-up {}: {:.2}s, peak RSS {:.1} MB",
                rep + 1,
                t0.elapsed().as_secs_f64(),
                stats::peak_rss_mb()
            );
            last.then(|| measure(w, args, &ready))
        });
    }
    let mut out = result.expect("at least one set-up");
    if args.trace {
        let layers: Vec<SetupLayers> = setups.iter().map(|s| s.1).collect();
        let s = &w.setup;
        let reference = TestEnv::build(s.bench, DesignConfig::Syn1, Some(s.target));
        for l in &layers {
            setup::check_layers(l, &reference)?;
        }
        setup::put_layers(&mut out.metrics, &layers);
    } else {
        let totals: Vec<f64> = setups.iter().map(|s| s.0).collect();
        out.metrics.put("setup_s", stats::median(&totals), "s");
        out.metrics.put("peak_rss_mb", stats::peak_rss_mb(), "MB");
    }
    Ok(out)
}

fn measure(w: &BatchWorkload, args: &Args, r: &Ready<'_>) -> Outcome {
    let pool = chips::draw_pool(r.env, r.fsim, w.setup.mode, w.pool, test_seed(args.seed));
    let mut first: Vec<Option<String>> = vec![None; pool.len()];
    let mut quality = Quality::default();
    let mut digest = Digest::default();
    let mut traces = Vec::new();
    let mut paired_calls_ms = 0.0;
    let mut op = |i: usize, traced: bool| {
        let chip = &pool[i];
        let res = catch_unwind(AssertUnwindSafe(|| request(r, &chip.log, traced)));
        let Ok((outcome, trace)) = res else {
            return false;
        };
        if let Some(t) = trace {
            if runner::paired(i) {
                paired_calls_ms += t.diagnose_ms + t.back_trace_ms + t.enhance_us * 1e-3;
            }
            traces.push(t);
        }
        let rendered = render(&outcome.report, outcome.action);
        let mut ok = !outcome.report.degraded() && outcome.action != PolicyAction::Degraded;
        match &first[i] {
            None => {
                quality.add(
                    outcome.report.resolution(),
                    outcome.report.first_hit_index(&chip.injected),
                );
                digest.add(rendered.as_bytes());
                first[i] = Some(rendered);
            }
            Some(prev) => ok &= *prev == rendered,
        }
        if !ok {
            eprintln!("log {i}: unexpected degraded or non-repeatable report");
        }
        ok
    };
    let mut timed = runner::passes(pool.len(), args.seconds, w.min_passes, args.trace, &mut op);
    // A pass can outlast the run's time, so every RECHECK_EVERY-th log runs
    // once more after the timed phase: its report must not change.
    for i in (0..pool.len()).step_by(RECHECK_EVERY) {
        timed.attempted += 1;
        timed.failed += u64::from(!op(i, false));
    }
    println!(
        "digest {} seed={} reports={} {}",
        args.workload,
        args.seed,
        pool.len(),
        digest.hex()
    );
    let mut m = Metrics::default();
    if args.trace {
        // The three timed calls against the untraced latency of the same
        // logs in the same run; the remainder is the request's own glue
        // (copying the log into a sample) plus the cost of tracing.
        let untraced_ms: f64 = timed.paired_ms.iter().map(|(_, [u, _])| u).sum();
        m.put(
            "trace.accounted_pct",
            paired_calls_ms / untraced_ms * 100.0,
            "%",
        );
        put_traced(&mut m, &traces, pool.len());
        runner::put_obs_overhead(&mut m, &timed.paired_ms);
        m.put("host.passes", timed.passes as f64, "count");
    } else {
        let lat = &timed.latency_ms;
        m.put("logs_per_s", lat.len() as f64 / timed.wall_s, "1/s");
        m.put("latency_p50_ms", quantile(lat, 0.5), "ms");
        m.put("latency_p90_ms", quantile(lat, 0.9), "ms");
        quality.put(&mut m);
        m.put(
            "success_rate",
            1.0 - timed.failed as f64 / timed.attempted as f64,
            "ratio",
        );
    }
    Outcome {
        attempted: timed.attempted,
        failed: timed.failed,
        metrics: m,
    }
}

/// Policy actions per pass over the pool.
pub fn put_actions(m: &mut Metrics, actions: impl Iterator<Item = PolicyAction>, passes: f64) {
    let mut counts = [0usize; 4];
    for a in actions {
        counts[a as usize] += 1;
    }
    for (name, action) in [
        ("core.action.prune", PolicyAction::Prune),
        ("core.action.reorder", PolicyAction::Reorder),
        ("core.action.pass_through", PolicyAction::PassThrough),
        ("core.action.degraded", PolicyAction::Degraded),
    ] {
        m.put(name, counts[action as usize] as f64 / passes, "count");
    }
}

/// Per-layer request metrics.
fn put_traced(m: &mut Metrics, traces: &[OpTrace], pool: usize) {
    let col = |f: fn(&OpTrace) -> f64| traces.iter().map(f).collect::<Vec<_>>();
    let sum = |xs: &[f64]| xs.iter().sum::<f64>();
    let diag = col(|t| t.diagnose_ms);
    let bt = col(|t| t.back_trace_ms);
    let enh_ms: Vec<f64> = col(|t| t.enhance_us).iter().map(|us| us * 1e-3).collect();
    let total = col(|t| t.total_ms);
    // Sums are per pass: each pass diagnoses every pool log once.
    let passes = (traces.len() / pool.max(1)).max(1) as f64;
    put_call_times(m, &diag, &bt, passes);
    m.put(
        "diagnosis.candidates",
        mean(&col(|t| t.candidates as f64)),
        "count",
    );
    m.put(
        "diagnosis.cover_frac",
        mean(&col(|t| f64::from(u8::from(t.cover)))),
        "ratio",
    );
    m.put(
        "hetgraph.subgraph_nodes",
        mean(&col(|t| t.subgraph_nodes as f64)),
        "count",
    );
    m.put(
        "dft.entries_per_log",
        mean(&col(|t| t.entries as f64)),
        "count",
    );
    m.put(
        "dft.flops_per_obs",
        mean(&col(|t| t.flops_per_obs)),
        "count",
    );
    m.put("core.enhance_us", mean(&enh_ms) * 1e3, "us");
    put_actions(m, traces.iter().map(|t| t.action), passes);
    let op_ms = sum(&total);
    m.put("share.diagnose_pct", sum(&diag) / op_ms * 100.0, "%");
    m.put("share.back_trace_pct", sum(&bt) / op_ms * 100.0, "%");
    m.put("share.enhance_pct", sum(&enh_ms) / op_ms * 100.0, "%");
    m.put("trace.latency_p50_ms", quantile(&total, 0.5), "ms");
    // In-process, a request's compute is its three calls and its overhead
    // the glue around them (copying the log into a sample).
    let calls: Vec<f64> = traces
        .iter()
        .map(|t| t.diagnose_ms + t.back_trace_ms + t.enhance_us * 1e-3)
        .collect();
    let glue: Vec<f64> = total.iter().zip(&calls).map(|(t, c)| t - c).collect();
    m.put("serve.compute_ms", mean(&calls), "ms");
    m.put("serve.overhead_ms", quantile(&glue, 0.5), "ms");
}

/// Per-call diagnose and back-trace times: p50, p90 and the per-pass sum.
pub fn put_call_times(m: &mut Metrics, diagnose_ms: &[f64], back_trace_ms: &[f64], passes: f64) {
    let sum = |xs: &[f64]| xs.iter().sum::<f64>() / passes;
    m.put(
        "diagnosis.diagnose_ms.p50",
        quantile(diagnose_ms, 0.5),
        "ms",
    );
    m.put(
        "diagnosis.diagnose_ms.p90",
        quantile(diagnose_ms, 0.9),
        "ms",
    );
    m.put("diagnosis.diagnose_ms.sum", sum(diagnose_ms), "ms");
    m.put(
        "hetgraph.back_trace_ms.p50",
        quantile(back_trace_ms, 0.5),
        "ms",
    );
    m.put(
        "hetgraph.back_trace_ms.p90",
        quantile(back_trace_ms, 0.9),
        "ms",
    );
    m.put("hetgraph.back_trace_ms.sum", sum(back_trace_ms), "ms");
}
