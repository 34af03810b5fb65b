//! The timed phase: whole passes over the log pool until the run's time
//! is up, one request at a time.

use std::time::{Duration, Instant};

use crate::stats::{median, ms, quantile, Metrics};

/// What the timed phase recorded.
pub struct Timed {
    /// Latency of every untraced request, in ms.
    pub latency_ms: Vec<f64>,
    /// Wall time of the whole timed phase, in s.
    pub wall_s: f64,
    /// Traced runs only: (log index, [untraced, traced] ms) for every
    /// [`paired`] log of every pass.
    pub paired_ms: Vec<(usize, [f64; 2])>,
    pub attempted: u64,
    pub failed: u64,
    pub passes: usize,
}

/// Runs `op(log index, traced)` over `n` logs in whole passes until
/// `seconds` have passed and at least `min_passes` passes are done. `op`
/// returns whether the request succeeded.
///
/// In a traced run every log runs traced, and every [`paired`] log also
/// runs untraced right next to it (in alternating order, so warm caches
/// favour neither). The tracing overhead is then measured against the
/// same log a few milliseconds apart, not against a pass that a noisy
/// neighbour may have slowed, at 1.5 passes' cost instead of 2.
pub fn passes(
    n: usize,
    seconds: u64,
    min_passes: usize,
    trace: bool,
    mut op: impl FnMut(usize, bool) -> bool,
) -> Timed {
    let budget = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut t = Timed {
        latency_ms: Vec::new(),
        wall_s: 0.0,
        paired_ms: Vec::new(),
        attempted: 0,
        failed: 0,
        passes: 0,
    };
    let mut timed = |t: &mut Timed, i: usize, traced: bool| {
        let t0 = Instant::now();
        let ok = op(i, traced);
        let dt = t0.elapsed();
        t.attempted += 1;
        t.failed += u64::from(!ok);
        if !traced {
            t.latency_ms.push(ms(dt));
        }
        ms(dt)
    };
    loop {
        for i in 0..n {
            if trace && !paired(i) {
                timed(&mut t, i, true);
            } else if trace {
                let pair = if i % 4 == 0 {
                    let u = timed(&mut t, i, false);
                    [u, timed(&mut t, i, true)]
                } else {
                    let traced = timed(&mut t, i, true);
                    [timed(&mut t, i, false), traced]
                };
                t.paired_ms.push((i, pair));
            } else {
                timed(&mut t, i, false);
            }
        }
        t.passes += 1;
        eprintln!(
            "pass {}: {:.2}s elapsed, peak RSS {:.1} MB",
            t.passes,
            start.elapsed().as_secs_f64(),
            crate::stats::peak_rss_mb()
        );
        if t.passes >= min_passes && start.elapsed() >= budget {
            t.wall_s = start.elapsed().as_secs_f64();
            return t;
        }
    }
}

/// Whether a traced run also times log `i` untraced: every other log.
pub fn paired(i: usize) -> bool {
    i.is_multiple_of(2)
}

/// Tracing overhead from the paired requests: the median over requests
/// of traced / untraced − 1. It is reported only when it stands above
/// three standard errors of that median; otherwise it is unresolved and
/// the metric reads 0 (`null` on stderr).
pub fn put_obs_overhead(m: &mut Metrics, paired_ms: &[(usize, [f64; 2])]) {
    let d: Vec<f64> = paired_ms.iter().map(|(_, [u, t])| t / u - 1.0).collect();
    let overhead = median(&d) * 100.0;
    // Standard error of a median: 1.2533 σ / √n, with σ from the IQR.
    let sigma = (quantile(&d, 0.75) - quantile(&d, 0.25)) / 1.349;
    let floor = 3.0 * 1.2533 * sigma / (d.len() as f64).sqrt() * 100.0;
    let resolved = overhead > floor;
    if resolved {
        eprintln!("obs.overhead_pct: {overhead:.3} (noise floor {floor:.3}%)");
    } else {
        eprintln!("obs.overhead_pct: null (measured {overhead:.3}%, noise floor {floor:.3}%)");
    }
    m.put(
        "obs.overhead_pct",
        if resolved { overhead } else { 0.0 },
        "%",
    );
    m.put(
        "obs.overhead_resolved",
        f64::from(u8::from(resolved)),
        "bool",
    );
    m.put("obs.noise_floor_pct", floor, "%");
}
