//! Test chips: seeded fault injections turned into tester failure logs,
//! then a pool chosen from them by failing-cone volume and log size.
//!
//! Diagnosis and back-trace cost grow with the failing-cone volume of a
//! log — for every entry, the fan-in cone sizes of the scan cells that
//! could have observed it. On paper-scale AES that volume splits into a
//! light class and a heavy class two orders of magnitude apart, and the
//! heavy class is about 12% of chips. A plain random pool of a few hundred
//! chips lets the heavy count, and with it the throughput and the latency
//! tail, swing from seed to seed. The pool is therefore stratified at the
//! natural mix: each workload states the heavy share measured on its own
//! traffic, the heavy chips sit at evenly spaced volume quantiles (volume
//! sets their cost), and the light chips at evenly spaced quantiles of
//! (fault count, volume).
//!
//! Evenly spaced picks leave out each class's rarest extreme, a share too
//! small for a pool of a few hundred chips. Among light AES chips that
//! extreme matters: 0.13% of them (seeds 401–410) have 4–32 times the
//! median volume, and one such chip raised a run's peak RSS by 35 MB.
//! When light chips were picked by entry count instead, such a chip came
//! in at random, in about a third of the seeds.

use m3d_dft::ObsMode;
use m3d_fault_localization::{InjectionKind, TestEnv};
use m3d_part::Tier;
use m3d_tdf::{BlockDetector, FailureLog, Fault, FaultSim};

/// One test chip: the injected faults and the log the tester saw.
pub struct Chip {
    pub injected: Vec<Fault>,
    pub log: FailureLog,
}

/// How the pool is drawn.
#[derive(Clone, Copy)]
pub struct PoolSpec {
    pub kind: InjectionKind,
    /// Chips in the pool.
    pub size: usize,
    /// Share of heavy chips among this workload's seeded injections, as
    /// measured over many seeds; the pool holds exactly this share.
    pub heavy_share: f64,
}

/// Seeded candidates per pool chip. With this many, the quantile picks sit
/// close to those of the workload's whole fault population, whatever the
/// seed; simulating them takes well under a second.
const CANDIDATES_PER_CHIP: usize = 64;

/// A chip is heavy when its cone volume is at least this multiple of the
/// candidates' median volume.
const HEAVY_FACTOR: u64 = 32;

/// SplitMix64: a small seeded generator for the injection draws.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Draws one injection: a single detected fault, or 2–5 distinct
/// detected faults of one tier.
fn draw(
    kind: InjectionKind,
    detected: &[Fault],
    by_tier: &[Vec<Fault>; 2],
    rng: &mut SplitMix,
) -> Vec<Fault> {
    match kind {
        InjectionKind::MultiSameTier => {
            let pool = &by_tier[rng.below(2)];
            let k = (2 + rng.below(4)).min(pool.len());
            let mut picked: Vec<Fault> = Vec::with_capacity(k);
            while picked.len() < k {
                let f = pool[rng.below(pool.len())];
                if !picked.contains(&f) {
                    picked.push(f);
                }
            }
            picked
        }
        _ => vec![detected[rng.below(detected.len())]],
    }
}

/// Sum over the log's entries of the fan-in cone sizes of every scan cell
/// that could have produced the entry.
fn cone_volume(env: &TestEnv, log: &FailureLog) -> u64 {
    log.entries()
        .iter()
        .flat_map(|e| env.scan.candidate_flops(e.obs))
        .map(|f| env.het.topedges(f).len() as u64)
        .sum()
}

/// `n` items at evenly spaced quantiles of `sorted`.
fn spaced<T: Copy>(sorted: &[T], n: usize) -> Vec<T> {
    if sorted.is_empty() {
        return Vec::new();
    }
    (0..n)
        .map(|j| sorted[((2 * j + 1) * sorted.len() / (2 * n)).min(sorted.len() - 1)])
        .collect()
}

/// Draws the pool for `seed`. Chips keep their draw order.
///
/// # Panics
///
/// Panics when the design has no detected fault to inject or too few
/// candidates produce a non-empty log.
pub fn draw_pool(
    env: &TestEnv,
    fsim: &FaultSim<'_>,
    mode: ObsMode,
    spec: PoolSpec,
    seed: u64,
) -> Vec<Chip> {
    let detected = env.detected_faults();
    assert!(!detected.is_empty(), "no detected fault to inject");
    let by_tier = [Tier::Top, Tier::Bottom].map(|t| {
        detected
            .iter()
            .copied()
            .filter(|f| env.design.tier_of_site(f.site) == Some(t))
            .collect::<Vec<_>>()
    });
    assert!(
        by_tier.iter().all(|faults| faults.len() >= 2),
        "each tier needs two detected faults"
    );
    let start = std::time::Instant::now();
    let mut rng = SplitMix(seed);
    let injections: Vec<Vec<Fault>> = (0..spec.size * CANDIDATES_PER_CHIP)
        .map(|_| draw(spec.kind, &detected, &by_tier, &mut rng))
        .collect();
    // Candidates keep only what ranking needs, and the chosen chips are
    // simulated again below: holding every candidate's log would add the
    // benchmark's own memory to the process's peak RSS, which is a metric.
    let simulate = |det: &mut BlockDetector<'_>, faults: &[Fault]| {
        FailureLog::from_detections(&fsim.detections(det, faults), &env.scan, mode)
    };
    let sizes = m3d_par::par_map_init(
        &injections,
        || fsim.detector(),
        |det, faults| {
            let log = simulate(det, faults);
            (cone_volume(env, &log), log.len())
        },
    );
    // (volume, draw index) of every candidate that failed at all.
    let mut ranked: Vec<(u64, usize)> = sizes
        .iter()
        .enumerate()
        .filter(|(_, &(_, entries))| entries > 0)
        .map(|(i, &(volume, _))| (volume, i))
        .collect();
    assert!(ranked.len() >= spec.size, "too few failing candidates");
    ranked.sort_unstable();
    let median = ranked[ranked.len() / 2].0;
    let split = ranked.partition_point(|&(v, _)| v < median.saturating_mul(HEAVY_FACTOR));
    let (light, heavy) = ranked.split_at(split);
    eprintln!(
        "candidates: {} failing in {:.2}s, heavy share {:.4}, peak RSS {:.1} MB",
        ranked.len(),
        start.elapsed().as_secs_f64(),
        heavy.len() as f64 / ranked.len() as f64,
        crate::stats::peak_rss_mb()
    );
    // Light chips rank by fault count, then cone volume.
    let mut light: Vec<((usize, u64), usize)> = light
        .iter()
        .map(|&(volume, i)| ((injections[i].len(), volume), i))
        .collect();
    light.sort_unstable();
    let n_heavy = (spec.size as f64 * spec.heavy_share).round() as usize;
    assert!(
        n_heavy <= heavy.len() && spec.size - n_heavy <= light.len(),
        "too few candidates in a class"
    );
    let mut chosen: Vec<usize> = spaced(&light, spec.size - n_heavy)
        .into_iter()
        .map(|(_, i)| i)
        .chain(spaced(heavy, n_heavy).into_iter().map(|(_, i)| i))
        .collect();
    chosen.sort_unstable();
    let logs = m3d_par::par_map_init(
        &chosen,
        || fsim.detector(),
        |det, &i| simulate(det, &injections[i]),
    );
    chosen
        .into_iter()
        .zip(logs)
        .map(|(i, log)| Chip {
            injected: injections[i].clone(),
            log,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::spaced;

    #[test]
    fn spaced_picks_quantile_midpoints() {
        let xs: Vec<u32> = (0..10).collect();
        assert_eq!(spaced(&xs, 2), vec![2, 7]);
        assert_eq!(spaced(&xs, 10), xs);
        assert!(spaced::<u32>(&[], 3).is_empty());
    }
}
