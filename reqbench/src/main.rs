//! Request-path benchmark: one failure log in → `Diagnoser::diagnose` →
//! `back_trace` → `FaultLocalizer::enhance` → final report out, on
//! paper-scale designs in-process and behind `m3d-serve`.
//!
//! ```text
//! cargo run --release --manifest-path reqbench/Cargo.toml -- \
//!     --workload aes-bypass --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed`, and the end-to-end metrics (`--trace 0`) or the per-layer
//! metrics (`--trace 1`). Any failed request exits with code 1.

mod batch;
mod chips;
mod runner;
mod served;
mod setup;
mod stats;

use std::time::Instant;

use m3d_dft::ObsMode;
use m3d_fault_localization::{FrameworkConfig, InjectionKind};
use m3d_netlist::generate::Benchmark;
use m3d_serve::{BundleSource, BundleSpec};

use batch::BatchWorkload;
use chips::PoolSpec;
use served::ServedWorkload;
use setup::{SetupSpec, TRAIN_SAMPLES};
use stats::{Metrics, Outcome};

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// End-to-end metrics, in output order, with their units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("logs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("accuracy", "ratio"),
    ("resolution", "count"),
    ("first_hit_index", "rank"),
    ("success_rate", "ratio"),
];

/// Per-layer metrics of the traced run, in output order, with their
/// units. A metric a workload has no layer for reads 0.
const PER_LAYER: [(&str, &str); 45] = [
    ("m3d.build_s", "s"),
    ("tdf.atpg_s", "s"),
    ("tdf.patterns", "count"),
    ("tdf.fault_coverage", "ratio"),
    ("tdf.good_sim_s", "s"),
    ("hetgraph.build_s", "s"),
    ("diagnosis.new_s", "s"),
    ("core.sample_gen_s", "s"),
    ("core.train_s", "s"),
    ("diagnosis.diagnose_ms.p50", "ms"),
    ("diagnosis.diagnose_ms.p90", "ms"),
    ("diagnosis.diagnose_ms.sum", "ms"),
    ("diagnosis.candidates", "count"),
    ("diagnosis.cover_frac", "ratio"),
    ("hetgraph.back_trace_ms.p50", "ms"),
    ("hetgraph.back_trace_ms.p90", "ms"),
    ("hetgraph.back_trace_ms.sum", "ms"),
    ("hetgraph.subgraph_nodes", "count"),
    ("dft.entries_per_log", "count"),
    ("dft.flops_per_obs", "count"),
    ("core.enhance_us", "us"),
    ("core.action.prune", "count"),
    ("core.action.reorder", "count"),
    ("core.action.pass_through", "count"),
    ("core.action.degraded", "count"),
    ("share.diagnose_pct", "%"),
    ("share.back_trace_pct", "%"),
    ("share.enhance_pct", "%"),
    ("share.compute_pct", "%"),
    ("share.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
    ("trace.latency_p50_ms", "ms"),
    ("serve.compute_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.completed", "count"),
    ("serve.degraded", "count"),
    ("serve.overloaded", "count"),
    ("serve.deadline_exceeded", "count"),
    ("serve.protocol_errors", "count"),
    ("serve.panics_contained", "count"),
    ("obs.overhead_pct", "%"),
    ("obs.overhead_resolved", "bool"),
    ("obs.noise_floor_pct", "%"),
    ("host.threads", "count"),
    ("host.passes", "count"),
];

enum Workload {
    Batch(BatchWorkload),
    Served(ServedWorkload),
}

fn workload(name: &str) -> Option<Workload> {
    // Training and test chips carry the same kind of faults.
    let batch = |bench, target, mode, kind, size, heavy_share, setup_reps, min_passes| {
        Workload::Batch(BatchWorkload {
            setup: SetupSpec {
                bench,
                target,
                mode,
                train_kind: kind,
                train_seed: 1,
                framework: FrameworkConfig::default(),
            },
            pool: PoolSpec {
                kind,
                size,
                heavy_share,
            },
            setup_reps,
            min_passes,
        })
    };
    match name {
        // AES sized to the paper's 97K gates, bypass observation, single
        // transition-delay faults. 12% of seeded injections are heavy
        // (measured over 128 000 candidates, 11.6–12.4% per seed). p90
        // falls among the heavy chips, so it rests on a few requests; two
        // passes time each of them twice.
        "aes-bypass" => Some(batch(
            Benchmark::Aes,
            64_000,
            ObsMode::Bypass,
            InjectionKind::Single,
            200,
            0.12,
            3,
            2,
        )),
        // netcard sized to the paper's 220K gates, compacted observation,
        // 2–5 same-tier faults per chip. Heavy chips: 2 in 64 000.
        "netcard-edt-multi" => Some(batch(
            Benchmark::Netcard,
            223_000,
            ObsMode::Compacted,
            InjectionKind::MultiSameTier,
            100,
            0.0,
            2,
            1,
        )),
        // The 754-gate AES behind `m3d-serve`, enhancement on, trained on
        // the paper's 360 samples.
        "serve-1client" => Some(Workload::Served(ServedWorkload {
            spec: BundleSpec {
                source: BundleSource::Generated {
                    bench: Benchmark::Aes,
                    target: Some(300),
                },
                enhance_samples: TRAIN_SAMPLES,
                ..BundleSpec::default()
            },
            pool: PoolSpec {
                kind: InjectionKind::Single,
                size: 400,
                heavy_share: 0.0,
            },
            // Start-up takes a quarter second and its run-to-run spread
            // is wide, so take the median of more of them.
            setup_reps: 9,
        })),
        _ => None,
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Orders the metrics as the table says, filling absent per-layer ones
/// with 0 and refusing any metric the table does not list.
fn finish(mut out: Outcome, table: &[(&'static str, &'static str)]) -> Result<Outcome, String> {
    let mut ordered = Metrics::default();
    for &(name, unit) in table {
        let found = out.metrics.0.iter().position(|m| m.name == name);
        let value = match found {
            Some(i) => {
                let m = out.metrics.0.swap_remove(i);
                if m.unit != unit {
                    return Err(format!("{name}: unit {} is not {unit}", m.unit));
                }
                m.value
            }
            None if table.len() == END_TO_END.len() => {
                return Err(format!("end-to-end metric {name} was not measured"))
            }
            None => 0.0,
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite"));
        }
        ordered.put(name, value, unit);
    }
    if let Some(extra) = out.metrics.0.first() {
        return Err(format!("metric {} is not in the table", extra.name));
    }
    out.metrics = ordered;
    Ok(out)
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("reqbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!(
            "reqbench: unknown workload {} (aes-bypass, netcard-edt-multi, serve-1client)",
            args.workload
        );
        std::process::exit(2);
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let result = m3d_par::with_threads(threads, || match &w {
        Workload::Batch(b) => batch::run(b, &args, process_start),
        Workload::Served(s) => served::run(s, &args, process_start),
    });
    let table: &[(&'static str, &'static str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let out = result.and_then(|mut out| {
        if args.trace {
            out.metrics.put("host.threads", threads as f64, "count");
        }
        finish(out, table)
    });
    match out {
        Ok(out) => {
            println!("{}", out.json());
            if out.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("reqbench: {e}");
            std::process::exit(1);
        }
    }
}
