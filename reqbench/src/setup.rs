//! Program set-up: design build, scan stitching, ATPG, heterogeneous
//! graph, good-machine simulation, diagnosis engine, training-sample
//! generation and model training — everything the product does once
//! before it can answer its first failure log. Each call is timed.

use std::time::Instant;

use m3d_dft::{ObsMode, ScanChains, ScanConfig};
use m3d_diagnosis::{Diagnoser, DiagnosisConfig};
use m3d_fault_localization::{
    generate_samples, DiagSample, FaultLocalizer, FrameworkConfig, InjectionKind, TestEnv,
};
use m3d_hetgraph::HetGraph;
use m3d_netlist::generate::Benchmark;
use m3d_part::DesignConfig;
use m3d_tdf::{generate_patterns, AtpgConfig, FaultSim};

use crate::stats::{median, Metrics};

/// The paper's training-set size per configuration.
pub const TRAIN_SAMPLES: usize = 360;

/// What to build and train.
pub struct SetupSpec {
    pub bench: Benchmark,
    pub target: usize,
    pub mode: ObsMode,
    pub train_kind: InjectionKind,
    pub train_seed: u64,
    pub framework: FrameworkConfig,
}

/// Seconds spent in each set-up call, plus the ATPG result size.
#[derive(Clone, Copy, Default)]
pub struct SetupLayers {
    pub build_s: f64,
    pub atpg_s: f64,
    pub hetgraph_s: f64,
    pub good_sim_s: f64,
    pub diag_new_s: f64,
    pub sample_gen_s: f64,
    pub train_s: f64,
    pub patterns: usize,
    pub fault_coverage: f64,
}

/// The ready-to-serve state one set-up produces.
pub struct Ready<'a> {
    pub env: &'a TestEnv,
    pub fsim: &'a FaultSim<'a>,
    pub diagnoser: &'a Diagnoser<'a>,
    pub localizer: &'a FaultLocalizer,
}

fn timed<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = f();
    *slot = t.elapsed().as_secs_f64();
    r
}

/// The test environment spelled out call by call, with the settings
/// `TestEnv::build` uses, so that each call is timed on its own.
fn env_by_calls(spec: &SetupSpec, l: &mut SetupLayers) -> TestEnv {
    let design = timed(&mut l.build_s, || {
        DesignConfig::Syn1.build_sized(spec.bench, Some(spec.target))
    });
    let nl = design.netlist();
    let scan = ScanChains::new(nl, ScanConfig::for_flop_count(nl.flops().len()));
    let max_patterns = (nl.gate_count() / 2).clamp(256, 4096);
    let test_set = timed(&mut l.atpg_s, || {
        generate_patterns(&design, &AtpgConfig::new(1, max_patterns))
    });
    let het = timed(&mut l.hetgraph_s, || HetGraph::new(&design));
    TestEnv {
        design,
        scan,
        test_set,
        het,
    }
}

/// Checks that the call-by-call set-up of a traced run built the same
/// test set as the product's own `TestEnv::build` did in `reference`.
pub fn check_layers(layers: &SetupLayers, reference: &TestEnv) -> Result<(), String> {
    let (patterns, coverage) = (
        reference.test_set.pattern_count(),
        reference.test_set.fault_coverage,
    );
    if layers.patterns == patterns && layers.fault_coverage == coverage {
        Ok(())
    } else {
        Err(format!(
            "traced set-up built {} patterns at coverage {}, TestEnv::build {patterns} at {coverage}",
            layers.patterns, layers.fault_coverage
        ))
    }
}

/// Builds and trains everything per `spec`, then hands the ready state to
/// `then`. The untraced set-up is the product's `TestEnv::build`; a traced
/// one times each of its calls (see [`check_layers`]).
pub fn with_setup<R>(
    spec: &SetupSpec,
    traced: bool,
    then: impl FnOnce(Ready<'_>, SetupLayers) -> R,
) -> R {
    let mut l = SetupLayers::default();
    let env = if traced {
        env_by_calls(spec, &mut l)
    } else {
        TestEnv::build(spec.bench, DesignConfig::Syn1, Some(spec.target))
    };
    l.patterns = env.test_set.pattern_count();
    l.fault_coverage = env.test_set.fault_coverage;
    let fsim = timed(&mut l.good_sim_s, || env.fault_sim());
    let diagnoser = timed(&mut l.diag_new_s, || {
        Diagnoser::new(&fsim, &env.scan, spec.mode, DiagnosisConfig::default())
    });
    let train = timed(&mut l.sample_gen_s, || {
        generate_samples(
            &env,
            &fsim,
            spec.mode,
            spec.train_kind,
            TRAIN_SAMPLES,
            spec.train_seed,
        )
    });
    let localizer = timed(&mut l.train_s, || {
        let refs: Vec<&DiagSample> = train.iter().collect();
        FaultLocalizer::train(&refs, &spec.framework)
    });
    drop(train);
    then(
        Ready {
            env: &env,
            fsim: &fsim,
            diagnoser: &diagnoser,
            localizer: &localizer,
        },
        l,
    )
}

/// Per-layer set-up metrics: the median of each call over the set-ups.
pub fn put_layers(m: &mut Metrics, reps: &[SetupLayers]) {
    let med = |f: fn(&SetupLayers) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    m.put("m3d.build_s", med(|l| l.build_s), "s");
    m.put("tdf.atpg_s", med(|l| l.atpg_s), "s");
    m.put("tdf.patterns", med(|l| l.patterns as f64), "count");
    m.put("tdf.fault_coverage", med(|l| l.fault_coverage), "ratio");
    m.put("tdf.good_sim_s", med(|l| l.good_sim_s), "s");
    m.put("hetgraph.build_s", med(|l| l.hetgraph_s), "s");
    m.put("diagnosis.new_s", med(|l| l.diag_new_s), "s");
    m.put("core.sample_gen_s", med(|l| l.sample_gen_s), "s");
    m.put("core.train_s", med(|l| l.train_s), "s");
}
