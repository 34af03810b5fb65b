//! Failing-cone support: the counting step shared by cause-effect
//! diagnosis (suspect extraction) and back-tracing (Fig. 3).
//!
//! For a failure log and a per-flop cone structure, the *support* of a
//! fault site is the number of log entries whose failing cone contains
//! the site with a transition under the entry's pattern. An entry's
//! failing cone is the union of the cones of every scan cell its
//! observation point could map to (one cell in bypass mode, several under
//! response compaction).
//!
//! Counting entry by entry walks every cone site once per entry. Entries
//! that share an observation point share the same cone union, so the
//! kernel groups them: per observation, one `u64` fail mask per pattern
//! block, one walk over the cone union (deduplicated by an epoch-stamped
//! `seen` array), and `popcount(transition & fail_mask)` per block added
//! into a dense per-site counter.

use std::sync::Mutex;

use m3d_dft::{ObsPoint, ScanChains};
use m3d_netlist::{FlopId, SiteId};

use crate::fault::site_net;
use crate::fsim::FaultSim;
use crate::log::FailureLog;

/// Reusable scratch for the failing-cone support count: two site-sized
/// `u32` arrays (epoch-stamped `seen` marks and the dense counter) that
/// are allocated on first use and kept across logs.
///
/// # Examples
///
/// ```
/// use m3d_dft::{ObsMode, ScanChains, ScanConfig};
/// use m3d_part::DesignConfig;
/// use m3d_netlist::generate::Benchmark;
/// use m3d_tdf::{generate_patterns, AtpgConfig, ConeSupport, FailureLog, FaultSim};
///
/// let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
/// let ts = generate_patterns(&design, &AtpgConfig::new(1, 128));
/// let nl = design.netlist();
/// let scan = ScanChains::new(nl, ScanConfig::for_flop_count(nl.flops().len()));
/// let fsim = FaultSim::new(&design, &ts.patterns);
/// let fault = m3d_tdf::full_fault_list(&design)[10];
/// let dets = fsim.detections(&mut fsim.detector(), &[fault]);
/// let log = FailureLog::from_detections(&dets, &scan, ObsMode::Bypass);
///
/// // Count over the flops' D-pin sites only (a one-site "cone").
/// let d_pin = |f: m3d_netlist::FlopId| [design.sites().input_site(nl.flops()[f.index()], 0)];
/// let support = ConeSupport::default().count(&fsim, &scan, &log, d_pin);
/// assert!(support.iter().all(|&(_, c)| c as usize <= log.len()));
/// ```
#[derive(Debug, Default)]
pub struct ConeSupport {
    epoch: u32,
    seen: Vec<u32>,
    count: Vec<u32>,
    /// Sites with a non-zero count, in first-touch order.
    touched: Vec<SiteId>,
    /// `(obs, block, bit)` per entry, sorted, then folded into `groups`.
    keys: Vec<(ObsPoint, usize, u8)>,
    /// Per observation group: `(obs, first, end)` into `masks`.
    groups: Vec<(ObsPoint, usize, usize)>,
    /// `(block, fail mask)` runs, one per (group, pattern block).
    masks: Vec<(usize, u64)>,
}

impl ConeSupport {
    /// Counts, for every site, the log entries whose failing cone holds
    /// the site with a transition under the entry's pattern. `cone(f)`
    /// lists the sites of flop `f`'s cone; a site listed twice, or in the
    /// cones of two candidate flops of one observation, counts once per
    /// entry.
    ///
    /// Returns the sites with a non-zero count, in no particular order.
    /// Every entry must reference a pattern of `fsim` and scan cells of
    /// `scan` (callers range-check untrusted logs first).
    pub fn count<I>(
        &mut self,
        fsim: &FaultSim<'_>,
        scan: &ScanChains,
        log: &FailureLog,
        mut cone: impl FnMut(FlopId) -> I,
    ) -> Vec<(SiteId, u32)>
    where
        I: IntoIterator<Item = SiteId>,
    {
        let n = fsim.design().sites().len();
        if self.seen.len() < n {
            self.seen.resize(n, 0);
            self.count.resize(n, 0);
        }
        self.group(fsim, log);
        let design = fsim.design();
        let blocks = fsim.block_sims();
        for gi in 0..self.groups.len() {
            let (obs, lo, hi) = self.groups[gi];
            self.epoch = match self.epoch.checked_add(1) {
                Some(e) => e,
                None => {
                    self.seen.fill(0);
                    1
                }
            };
            let epoch = self.epoch;
            for flop in scan.candidate_flops(obs) {
                for site in cone(flop) {
                    let i = site.index();
                    if self.seen[i] == epoch {
                        continue;
                    }
                    self.seen[i] = epoch;
                    let net = site_net(design, site);
                    let hits: u32 = self.masks[lo..hi]
                        .iter()
                        .map(|&(blk, mask)| (blocks[blk].transition(net) & mask).count_ones())
                        .sum();
                    if hits > 0 {
                        if self.count[i] == 0 {
                            self.touched.push(site);
                        }
                        self.count[i] += hits;
                    }
                }
            }
        }
        let out = self
            .touched
            .iter()
            .map(|&s| (s, std::mem::take(&mut self.count[s.index()])))
            .collect();
        self.touched.clear();
        out
    }

    /// Observation groups formed by the last [`ConeSupport::count`]: the
    /// number of cone-union walks it made.
    pub fn obs_groups(&self) -> usize {
        self.groups.len()
    }

    /// Folds the log's entries into per-observation fail masks, grouped
    /// by observation point, then by pattern block. One bit per entry is
    /// exact because a [`FailureLog`]'s entries are distinct (every
    /// constructor deduplicates `(pattern, obs)` pairs).
    fn group(&mut self, fsim: &FaultSim<'_>, log: &FailureLog) {
        let patterns = fsim.patterns();
        self.keys.clear();
        self.keys.extend(log.entries().iter().map(|e| {
            let (blk, bit) = patterns.locate(e.pattern);
            (e.obs, blk, bit)
        }));
        self.keys.sort_unstable();
        self.groups.clear();
        self.masks.clear();
        for &(obs, blk, bit) in &self.keys {
            if self.groups.last().is_none_or(|g| g.0 != obs) {
                self.groups.push((obs, self.masks.len(), self.masks.len()));
            }
            let g = self.groups.last_mut().expect("a group is open");
            match self.masks.last_mut() {
                Some((b, mask)) if g.2 > g.1 && *b == blk => {
                    debug_assert_eq!(*mask & (1u64 << bit), 0, "duplicate log entry");
                    *mask |= 1u64 << bit;
                }
                _ => {
                    self.masks.push((blk, 1u64 << bit));
                    g.2 += 1;
                }
            }
        }
    }
}

/// Scratch shared by every caller in the process: at most one per
/// concurrent caller, each grown to the largest design it has counted.
static SCRATCH: Mutex<Vec<ConeSupport>> = Mutex::new(Vec::new());

/// Runs `f` with a [`ConeSupport`] scratch borrowed from a process-wide
/// pool (a new one when every pooled scratch is in use), then returns it.
/// Diagnosis and back-tracing of one log share one scratch this way, and
/// no log allocates the site-sized arrays afresh.
pub fn with_cone_support<R>(f: impl FnOnce(&mut ConeSupport) -> R) -> R {
    let lock = || {
        SCRATCH
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    };
    let mut scratch = lock().pop().unwrap_or_default();
    let out = f(&mut scratch);
    lock().push(scratch);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{generate_patterns, AtpgConfig};
    use m3d_dft::{ObsMode, ScanConfig};
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;

    /// Counts of one log, sorted by site, over a cone of the flop's D pin
    /// listed twice (it must still count once per entry).
    fn d_pin_counts(
        scratch: &mut ConeSupport,
        bench: Benchmark,
        mode: ObsMode,
    ) -> Vec<(SiteId, u32)> {
        let design = DesignConfig::Syn1.build_sized(bench, Some(300));
        let ts = generate_patterns(&design, &AtpgConfig::new(1, 128));
        let nl = design.netlist();
        let scan = ScanChains::new(nl, ScanConfig::for_flop_count(nl.flops().len()));
        let fsim = FaultSim::new(&design, &ts.patterns);
        let fault = crate::full_fault_list(&design)
            .into_iter()
            .zip(&ts.detected)
            .filter(|&(_, &d)| d)
            .nth(7)
            .map(|(f, _)| f)
            .expect("a detected fault");
        let dets = fsim.detections(&mut fsim.detector(), &[fault]);
        let log = FailureLog::from_detections(&dets, &scan, mode);
        let mut got = scratch.count(&fsim, &scan, &log, |f| {
            let d = design.sites().input_site(nl.flops()[f.index()], 0);
            [d, d]
        });
        assert!(scratch.obs_groups() > 1, "the log spans several groups");
        got.sort_unstable();
        got
    }

    #[test]
    fn reuse_across_designs_and_epoch_wrap_keep_counts_exact() {
        let mut scratch = ConeSupport::default();
        let aes = d_pin_counts(&mut scratch, Benchmark::Aes, ObsMode::Compacted);
        assert!(!aes.is_empty());
        // The next call wraps the epoch counter back to the epochs the
        // same log's groups just stamped: without a reset, every site of
        // its first group would read as already seen.
        scratch.epoch = u32::MAX;
        assert_eq!(
            d_pin_counts(&mut scratch, Benchmark::Aes, ObsMode::Compacted),
            aes
        );
        // A differently sized design reuses (and grows) the same arrays.
        let netcard = d_pin_counts(
            &mut ConeSupport::default(),
            Benchmark::Netcard,
            ObsMode::Bypass,
        );
        assert_eq!(
            d_pin_counts(&mut scratch, Benchmark::Netcard, ObsMode::Bypass),
            netcard
        );
        assert_eq!(
            d_pin_counts(&mut scratch, Benchmark::Aes, ObsMode::Compacted),
            aes
        );
    }
}
