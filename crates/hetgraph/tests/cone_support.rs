//! The failing-cone support kernel (`m3d_tdf::ConeSupport`) against a
//! retained per-entry reference, over both cone structures it runs on.
//!
//! The reference counts the way diagnosis phase 1 and back-tracing did
//! before the kernel: per failing entry, one `HashSet` of transition-
//! active sites over the cones of every candidate scan cell, then one
//! `HashMap` increment per member. The kernel must return the same
//! per-site counts for `Diagnoser::cone_sites` and for
//! `HetGraph::topedges`, and back-tracing must return the same sub-graph
//! as the reference count fed through the same threshold. Diagnosis
//! reports and sub-graphs must also be identical at pool widths 1 and 4.
//!
//! Logs are drawn at random: single-fault and 2–5-fault injections in
//! bypass and compacted mode, and arbitrary entry lists collected through
//! `FromIterator` (duplicates included, which the collection removes).

use std::collections::{HashMap, HashSet};
use std::sync::OnceLock;

use m3d_dft::{ObsMode, ScanChains, ScanConfig};
use m3d_diagnosis::{Diagnoser, DiagnosisConfig};
use m3d_hetgraph::{back_trace, extract, HetGraph, SubGraph};
use m3d_netlist::generate::Benchmark;
use m3d_netlist::{FlopId, SiteId, SitePos};
use m3d_part::{DesignConfig, M3dDesign};
use m3d_tdf::{generate_patterns, AtpgConfig, ConeSupport, FailEntry, FailureLog, Fault, FaultSim};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One small design with everything a log needs, leaked so the borrowing
/// engines can live in a static.
struct Fixture {
    design: &'static M3dDesign,
    scan: &'static ScanChains,
    fsim: &'static FaultSim<'static>,
    het: HetGraph,
    /// One engine per observation mode, in `ObsMode::ALL` order.
    diagnosers: Vec<Diagnoser<'static>>,
    detected: Vec<Fault>,
}

fn build(bench: Benchmark, target: usize) -> Fixture {
    let design: &'static M3dDesign = Box::leak(Box::new(
        DesignConfig::Syn1.build_sized(bench, Some(target)),
    ));
    let ts = Box::leak(Box::new(generate_patterns(
        design,
        &AtpgConfig::new(1, 256),
    )));
    let nl = design.netlist();
    let scan: &'static ScanChains = Box::leak(Box::new(ScanChains::new(
        nl,
        ScanConfig::for_flop_count(nl.flops().len()),
    )));
    let fsim: &'static FaultSim<'static> = Box::leak(Box::new(FaultSim::new(design, &ts.patterns)));
    let diagnosers = ObsMode::ALL
        .into_iter()
        .map(|mode| Diagnoser::new(fsim, scan, mode, DiagnosisConfig::default()))
        .collect();
    let detected = m3d_tdf::full_fault_list(design)
        .into_iter()
        .zip(&ts.detected)
        .filter(|&(_, &d)| d)
        .map(|(f, _)| f)
        .collect();
    Fixture {
        design,
        scan,
        fsim,
        het: HetGraph::new(design),
        diagnosers,
        detected,
    }
}

fn fixture(bench: usize) -> &'static Fixture {
    static AES: OnceLock<Fixture> = OnceLock::new();
    static NETCARD: OnceLock<Fixture> = OnceLock::new();
    match bench {
        0 => AES.get_or_init(|| build(Benchmark::Aes, 300)),
        _ => NETCARD.get_or_init(|| build(Benchmark::Netcard, 400)),
    }
}

/// The per-entry count the kernel replaces, sorted by site.
fn reference_support(
    fx: &Fixture,
    log: &FailureLog,
    cone: impl Fn(FlopId) -> Vec<SiteId>,
) -> Vec<(SiteId, u32)> {
    let mut counts: HashMap<SiteId, u32> = HashMap::new();
    for entry in log.entries() {
        let (blk, bit) = fx.fsim.patterns().locate(entry.pattern);
        let mut set: HashSet<SiteId> = HashSet::new();
        for flop in fx.scan.candidate_flops(entry.obs) {
            for site in cone(flop) {
                if fx.fsim.transition_mask(site, blk) & (1u64 << bit) != 0 {
                    set.insert(site);
                }
            }
        }
        for site in set {
            *counts.entry(site).or_insert(0) += 1;
        }
    }
    let mut v: Vec<(SiteId, u32)> = counts.into_iter().collect();
    v.sort_unstable();
    v
}

fn topedge_sites(het: &HetGraph, flop: FlopId) -> Vec<SiteId> {
    het.topedges(flop).iter().map(|te| te.site).collect()
}

/// Back-tracing over the reference count: the strict intersection, or
/// the best-supported sites when it is empty.
fn reference_back_trace(fx: &Fixture, log: &FailureLog) -> Option<SubGraph> {
    let counts = reference_support(fx, log, |f| topedge_sites(&fx.het, f));
    let c_max = counts.iter().map(|&(_, c)| c).max()?;
    let threshold = c_max.min(log.len() as u32);
    let sites: Vec<SiteId> = counts
        .into_iter()
        .filter(|&(_, c)| c >= threshold)
        .map(|(s, _)| s)
        .collect();
    Some(extract(&fx.het, fx.fsim, sites))
}

fn assert_same_subgraph(a: &Option<SubGraph>, b: &Option<SubGraph>, what: &str) {
    match (a, b) {
        (None, None) => {}
        (Some(a), Some(b)) => {
            assert_eq!(a.sites, b.sites, "{what}: sites");
            assert_eq!(a.miv_nodes, b.miv_nodes, "{what}: MIV nodes");
            assert_eq!(a.data.graph, b.data.graph, "{what}: topology");
            assert_eq!(a.data.features, b.data.features, "{what}: features");
        }
        _ => panic!("{what}: one side has no sub-graph"),
    }
}

/// A random log: `kind` 0 = one injected fault, 1 = 2–5 faults, 2 = an
/// arbitrary entry list (with repeats) collected through `FromIterator`.
fn random_log(fx: &Fixture, kind: usize, mode: ObsMode, seed: u64) -> FailureLog {
    let mut rng = StdRng::seed_from_u64(seed);
    if kind < 2 {
        let k = if kind == 0 {
            1
        } else {
            rng.gen_range(2..6usize)
        };
        let picks: Vec<Fault> = fx.detected.choose_multiple(&mut rng, k).copied().collect();
        let dets = fx.fsim.detections(&mut fx.fsim.detector(), &picks);
        return FailureLog::from_detections(&dets, fx.scan, mode);
    }
    let flops = fx.design.netlist().flops().len();
    let patterns = fx.fsim.patterns().len() as u32;
    let n = rng.gen_range(1..40usize);
    let mut entries: Vec<FailEntry> = (0..n)
        .map(|_| {
            let flop = FlopId::new(rng.gen_range(0..flops));
            FailEntry {
                pattern: rng.gen_range(0..patterns),
                obs: fx.scan.observe(&[flop], mode)[0],
            }
        })
        .collect();
    let repeats: Vec<FailEntry> = entries.iter().step_by(3).copied().collect();
    entries.extend(repeats);
    entries.into_iter().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn kernel_matches_the_per_entry_reference(
        bench in 0usize..2,
        kind in 0usize..3,
        compacted in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let fx = fixture(bench);
        let mode = ObsMode::ALL[usize::from(compacted)];
        let diag = &fx.diagnosers[usize::from(compacted)];
        let log = random_log(fx, kind, mode, seed);
        prop_assume!(!log.is_empty());
        // Every constructor yields distinct entries, which the kernel's
        // one-bit-per-entry fail masks rely on.
        prop_assert!(log.entries().windows(2).all(|w| w[0] < w[1]));

        // One scratch across both cone sources: reuse must not leak
        // counts from one call into the next.
        let mut scratch = ConeSupport::default();
        for (name, got, want) in [
            (
                "cone_sites",
                scratch.count(fx.fsim, fx.scan, &log, |f| diag.cone_sites(f).iter().copied()),
                reference_support(fx, &log, |f| diag.cone_sites(f).to_vec()),
            ),
            (
                "topedges",
                scratch.count(fx.fsim, fx.scan, &log, |f| {
                    fx.het.topedges(f).iter().map(|te| te.site)
                }),
                reference_support(fx, &log, |f| topedge_sites(&fx.het, f)),
            ),
        ] {
            let mut got = got;
            got.sort_unstable();
            prop_assert_eq!(got, want, "{}", name);
        }

        let one = m3d_par::with_threads(1, || back_trace(&fx.het, fx.fsim, fx.scan, &log));
        let four = m3d_par::with_threads(4, || back_trace(&fx.het, fx.fsim, fx.scan, &log));
        assert_same_subgraph(&one, &reference_back_trace(fx, &log), "kernel vs reference");
        assert_same_subgraph(&one, &four, "1 vs 4 threads");

        let report = m3d_par::with_threads(1, || diag.diagnose(&log));
        let wide = m3d_par::with_threads(4, || diag.diagnose(&log));
        let forced = m3d_par::with_threads(4, || {
            m3d_par::with_par_threshold(0, || diag.diagnose(&log))
        });
        prop_assert_eq!(&report, &wide);
        prop_assert_eq!(&report, &forced);
    }
}

/// `Diagnoser::cone_sites(f)` is `HetGraph::topedges(f)` plus the MIV
/// site of the net driven by every output site in the Topedge cone, and
/// nothing else. The Topedge BFS reaches an MIV node only on the path to
/// a far-tier branch; the diagnosis DFS adds the MIV of every cone net,
/// including MIVs that only feed branches outside the cone. The two
/// structures therefore stay separate: each caller keeps the cone it has
/// always counted over.
#[test]
fn cone_sites_are_topedges_plus_driven_net_mivs() {
    let mut extras_total = 0usize;
    for bench in [
        Benchmark::Aes,
        Benchmark::Tate,
        Benchmark::Netcard,
        Benchmark::Leon3mp,
    ] {
        let design = DesignConfig::Syn1.build_sized(bench, Some(400));
        let nl = design.netlist();
        let scan = ScanChains::new(nl, ScanConfig::for_flop_count(nl.flops().len()));
        let patterns = m3d_tdf::PatternSet::random(nl, 64, 1);
        let fsim = FaultSim::new(&design, &patterns);
        let diag = Diagnoser::new(&fsim, &scan, ObsMode::Bypass, DiagnosisConfig::default());
        let het = HetGraph::new(&design);
        let mut extras = 0usize;
        for f in 0..nl.flops().len() {
            let flop = FlopId::new(f);
            let top = topedge_sites(&het, flop);
            let mut want = top.clone();
            for &site in &top {
                if let SitePos::Output(_) = design.sites().pos(site) {
                    let net = m3d_tdf::site_net(&design, site);
                    if let Some(m) = design.miv_on_net(net) {
                        want.push(design.miv_site(m as usize));
                    }
                }
            }
            want.sort_unstable();
            want.dedup();
            let mut top_sorted = top;
            top_sorted.sort_unstable();
            top_sorted.dedup();
            extras += want.len() - top_sorted.len();
            assert_eq!(
                diag.cone_sites(flop),
                want.as_slice(),
                "{bench:?} flop {f}: cone_sites = topedges + driven-net MIVs"
            );
        }
        extras_total += extras;
    }
    assert!(
        extras_total > 0,
        "the structures differ somewhere, or the relation pins nothing"
    );
}
