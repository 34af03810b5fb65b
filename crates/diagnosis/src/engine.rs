//! Cause-effect ATPG diagnosis (the commercial-tool stand-in).
//!
//! Given a failure log, the engine (1) extracts suspect sites by tracing
//! the fan-in cones of failing observation points, filtered to sites that
//! transition under the failing pattern, (2) fault-simulates each suspect
//! and scores its predicted failure signature against the log, and (3)
//! ranks and retains candidates. When no single fault explains the log
//! (systematic multi-fault chips), an iterative-cover pass selects a set of
//! faults that jointly explain the failures.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};

use m3d_dft::{ObsMode, ScanChains};
use m3d_netlist::{FlopId, GateId, NetId, SiteId};
use m3d_tdf::{FailEntry, FailureLog, Fault, FaultSim, Polarity};

use crate::report::{Candidate, DiagnosisReport, MatchScore};

/// Per-worker scratch for the cone DFS: epoch-stamped visited marks, so
/// the gate/net-sized arrays are allocated once per worker instead of once
/// per flop.
struct ConeScratch {
    epoch: u32,
    gate_mark: Vec<u32>,
    net_mark: Vec<u32>,
    stack: Vec<NetId>,
}

/// Retention knobs for the ranked report.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiagnosisConfig {
    /// Keep candidates explaining at least this fraction of the failures
    /// the best candidate explains (`tfsf` relative cut).
    pub retain_ratio: f64,
    /// Hard cap on report length.
    pub max_candidates: usize,
    /// Suspect-frequency cap for simulation (extraction and the
    /// multi-fault cover phase).
    pub max_cover_suspects: usize,
    /// A site becomes a suspect when it appears in at least this fraction
    /// of the per-entry suspect sets (1.0 = strict intersection; real
    /// tools over-approximate, which is where reported resolution > 1
    /// comes from).
    pub suspect_entry_frac: f64,
}

impl Default for DiagnosisConfig {
    fn default() -> Self {
        DiagnosisConfig {
            retain_ratio: 0.55,
            max_candidates: 64,
            max_cover_suspects: 160,
            suspect_entry_frac: 0.5,
        }
    }
}

/// Returned by [`Diagnoser::try_diagnose`] when the caller's cancel flag
/// was observed set before the report was complete (a per-request deadline
/// expired). The partial work is discarded — there is no partial report.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("diagnosis cancelled past its deadline")
    }
}

impl std::error::Error for Cancelled {}

/// The diagnosis engine, reusable across failure logs of one test setup.
///
/// # Examples
///
/// ```no_run
/// use m3d_dft::{ObsMode, ScanChains, ScanConfig};
/// use m3d_diagnosis::{Diagnoser, DiagnosisConfig};
/// use m3d_netlist::generate::Benchmark;
/// use m3d_part::DesignConfig;
/// use m3d_tdf::{generate_patterns, AtpgConfig, FaultSim};
///
/// let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
/// let ts = generate_patterns(&design, &AtpgConfig::new(1, 256));
/// let scan = ScanChains::new(
///     design.netlist(),
///     ScanConfig::for_flop_count(design.netlist().flops().len()),
/// );
/// let fsim = FaultSim::new(&design, &ts.patterns);
/// let diagnoser =
///     Diagnoser::new(&fsim, &scan, ObsMode::Bypass, DiagnosisConfig::default());
/// ```
#[derive(Debug)]
pub struct Diagnoser<'a> {
    fsim: &'a FaultSim<'a>,
    scan: &'a ScanChains,
    mode: ObsMode,
    config: DiagnosisConfig,
    /// Per flop: every fault site in its structural fan-in cone.
    cone_sites: Vec<Vec<SiteId>>,
    /// Optional per-site SCOAP observability: a rank tie-breaker inside a
    /// score band (lower = easier to observe = ranked first).
    obs_prior: Option<Vec<u32>>,
    /// Optional per-site untestable mask: proven-untestable suspects are
    /// dropped before fault simulation (they can never match a log).
    untestable: Option<Vec<bool>>,
}

impl<'a> Diagnoser<'a> {
    /// Builds the engine, precomputing per-flop fan-in cones (done once per
    /// test setup, amortized over every failure log — the same argument the
    /// paper makes for its top-level graph).
    pub fn new(
        fsim: &'a FaultSim<'a>,
        scan: &'a ScanChains,
        mode: ObsMode,
        config: DiagnosisConfig,
    ) -> Self {
        let design = fsim.design();
        let nl = design.netlist();
        // Per-flop backward cone DFS, fanned over the pool. The visited
        // marks are epoch-stamped per-worker scratch (zeroing two
        // gate/net-sized arrays per flop is quadratic at paper scale);
        // each flop's cone is independent of scratch history, so the
        // result is identical at any thread count. The cost gate keeps
        // small test designs serial — worker-dispatch overhead exceeds a
        // handful of tiny cone walks — and cannot change the cones.
        let cone_work = nl.flops().len() as u64 * 4096;
        let cone_sites = m3d_par::with_threads(m3d_par::par_gate(cone_work), || {
            m3d_par::par_map_init(
                nl.flops(),
                || ConeScratch {
                    epoch: 0,
                    gate_mark: vec![0u32; nl.gate_count()],
                    net_mark: vec![0u32; nl.net_count()],
                    stack: Vec::new(),
                },
                |scr, &fg| {
                    scr.epoch += 1;
                    let epoch = scr.epoch;
                    let mut sites = Vec::new();
                    // The flop's own D pin is a suspect.
                    sites.push(design.sites().input_site(fg, 0));
                    scr.stack.clear();
                    scr.stack.push(nl.gate(fg).inputs()[0]);
                    while let Some(net) = scr.stack.pop() {
                        if scr.net_mark[net.index()] == epoch {
                            continue;
                        }
                        scr.net_mark[net.index()] = epoch;
                        if let Some(m) = design.miv_on_net(net) {
                            sites.push(design.miv_site(m as usize));
                        }
                        let driver: GateId = nl.net(net).driver();
                        if scr.gate_mark[driver.index()] == epoch {
                            continue;
                        }
                        scr.gate_mark[driver.index()] = epoch;
                        if let Some(out) = design.sites().output_site(nl, driver) {
                            sites.push(out);
                        }
                        if nl.gate(driver).kind().is_combinational() {
                            for (pin, &inp) in nl.gate(driver).inputs().iter().enumerate() {
                                sites.push(design.sites().input_site(driver, pin as u8));
                                scr.stack.push(inp);
                            }
                        }
                    }
                    sites.sort_unstable();
                    sites.dedup();
                    sites
                },
            )
        });
        Diagnoser {
            fsim,
            scan,
            mode,
            config,
            cone_sites,
            obs_prior: None,
            untestable: None,
        }
    }

    /// Attaches a per-site observability prior (SCOAP CO, one value per
    /// fault site). Candidates tied within a rank band order by ascending
    /// observability cost; an all-zero prior leaves ranking unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `co` does not have one entry per fault site.
    pub fn with_observability_prior(mut self, co: Vec<u32>) -> Self {
        assert_eq!(
            co.len(),
            self.fsim.design().sites().len(),
            "one CO value per fault site"
        );
        self.obs_prior = Some(co);
        self
    }

    /// Attaches a per-site untestable mask (e.g. from
    /// `m3d_dataflow::StaticProofs::prunable_sites`). Masked suspects are
    /// dropped before fault simulation; because a proven-untestable fault
    /// never produces failures, the reported candidates are unchanged —
    /// only the simulation work shrinks.
    ///
    /// # Panics
    ///
    /// Panics if `untestable` does not have one entry per fault site.
    pub fn with_untestable_sites(mut self, untestable: Vec<bool>) -> Self {
        assert_eq!(
            untestable.len(),
            self.fsim.design().sites().len(),
            "one flag per fault site"
        );
        self.untestable = Some(untestable);
        self
    }

    /// The observation mode the engine diagnoses under.
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// The fault sites of `flop`'s structural fan-in cone, ascending: the
    /// flop's D pin, every pin and output reached backwards through
    /// combinational gates, and the MIV site of every net on the way.
    ///
    /// # Panics
    ///
    /// Panics if `flop` is not a flop of the design.
    pub fn cone_sites(&self, flop: FlopId) -> &[SiteId] {
        &self.cone_sites[flop.index()]
    }

    fn is_pruned(&self, site: SiteId) -> bool {
        self.untestable.as_ref().is_some_and(|u| u[site.index()])
    }

    fn prior_of(&self, site: SiteId) -> u32 {
        self.obs_prior.as_ref().map_or(0, |p| p[site.index()])
    }

    /// Whether a log entry references a pattern and observation point that
    /// exist in this test setup. Failure logs are *untrusted input* (they
    /// come from a tester datalog); entries referencing out-of-range
    /// patterns or scan cells are dropped by [`Diagnoser::diagnose`] with a
    /// degraded tag rather than indexing out of bounds.
    fn entry_in_range(&self, entry: &FailEntry) -> bool {
        self.fsim.patterns().checked_locate(entry.pattern).is_some()
            && self
                .scan
                .candidate_flops(entry.obs)
                .iter()
                .all(|f| f.index() < self.cone_sites.len())
    }

    /// Per-site failing-cone support of a log: how many entries have the
    /// site, transitioning under the entry's pattern, in the cone of some
    /// scan cell the entry's observation could map to. Sorted most
    /// supported first, ties by site. Entries must already be
    /// range-checked.
    fn support(&self, log: &FailureLog) -> Vec<(SiteId, u32)> {
        let mut freq = m3d_tdf::with_cone_support(|s| {
            s.count(self.fsim, self.scan, log, |f| {
                self.cone_sites[f.index()].iter().copied()
            })
        });
        freq.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        freq
    }

    /// Predicted failure entries for a fault set, using the caller's
    /// propagation scratch (one [`m3d_tdf::BlockDetector`] per worker when
    /// suspects are scored in parallel).
    fn predicted_entries(
        &self,
        det: &mut m3d_tdf::BlockDetector<'_>,
        faults: &[Fault],
    ) -> HashSet<FailEntry> {
        let dets = self.fsim.detections(det, faults);
        FailureLog::from_detections(&dets, self.scan, self.mode)
            .entries()
            .iter()
            .copied()
            .collect()
    }

    fn score_against(predicted: &HashSet<FailEntry>, tester: &HashSet<FailEntry>) -> MatchScore {
        let tfsf = tester.intersection(predicted).count() as u32;
        MatchScore {
            tfsf,
            tfsp: tester.len() as u32 - tfsf,
            tpsf: predicted.len() as u32 - tfsf,
        }
    }

    /// Simulates both polarities of a site and keeps the better match.
    fn best_candidate(
        &self,
        det: &mut m3d_tdf::BlockDetector<'_>,
        site: SiteId,
        tester: &HashSet<FailEntry>,
    ) -> (Candidate, HashSet<FailEntry>) {
        let design = self.fsim.design();
        let mut best: Option<(Candidate, HashSet<FailEntry>)> = None;
        for pol in Polarity::ALL {
            let fault = Fault::new(site, pol);
            let predicted = self.predicted_entries(det, &[fault]);
            let score = Self::score_against(&predicted, tester);
            let cand = Candidate {
                fault,
                score,
                tier: design.tier_of_site(site),
            };
            let better = match &best {
                None => true,
                Some((b, _)) => score.value() > b.score.value(),
            };
            if better {
                best = Some((cand, predicted));
            }
        }
        best.expect("both polarities evaluated")
    }

    /// Diagnoses one failure log into a ranked candidate report.
    ///
    /// An empty log (the chip passed) yields an empty report. Entries
    /// referencing patterns or scan cells that do not exist in this test
    /// setup (a malformed or mismatched tester log) are dropped and the
    /// report is tagged [`DiagnosisReport::degraded`] — graceful
    /// degradation instead of an out-of-bounds panic.
    pub fn diagnose(&self, log: &FailureLog) -> DiagnosisReport {
        let never = AtomicBool::new(false);
        match self.try_diagnose(log, &never) {
            Ok(report) => report,
            Err(Cancelled) => unreachable!("flag is never set"),
        }
    }

    /// [`Diagnoser::diagnose`] with cooperative cancellation: the caller
    /// owns `cancel` (e.g. a deadline reaper sets it when a request's
    /// budget expires) and the engine polls it at phase boundaries and
    /// between suspect simulations, abandoning the remaining cone-scoring
    /// work with `Err(Cancelled)`.
    ///
    /// Cancellation is pure control flow: with the flag never set, the
    /// computation — and therefore the report — is bit-identical to
    /// [`Diagnoser::diagnose`] at any thread count.
    ///
    /// # Errors
    ///
    /// [`Cancelled`] when the flag was observed set before the report was
    /// complete. No partial report is returned.
    pub fn try_diagnose(
        &self,
        log: &FailureLog,
        cancel: &AtomicBool,
    ) -> Result<DiagnosisReport, Cancelled> {
        let mut span = m3d_obs::span("diagnosis");
        span.add("entries", log.entries().len() as u64);
        let dropped = log.entries().iter().any(|e| !self.entry_in_range(e));
        let sanitized: FailureLog;
        let log = if dropped {
            sanitized = log
                .entries()
                .iter()
                .filter(|e| self.entry_in_range(e))
                .copied()
                .collect();
            &sanitized
        } else {
            log
        };
        let mut report = self.diagnose_trusted(log, cancel)?;
        if dropped {
            report.mark_degraded();
            span.add("degraded", 1);
            m3d_obs::counter("diagnosis.degraded_reports", 1);
        }
        span.add("candidates", report.candidates().len() as u64);
        m3d_obs::counter("diagnosis.reports", 1);
        m3d_obs::counter("diagnosis.candidates", report.candidates().len() as u64);
        Ok(report)
    }

    /// A zero-score placeholder a cancelled scoring worker returns; the
    /// whole result vector is discarded once the cancel flag is seen, so
    /// placeholders never reach a report.
    fn cancelled_stub(site: SiteId) -> (Candidate, HashSet<FailEntry>) {
        (
            Candidate {
                fault: Fault::new(site, Polarity::ALL[0]),
                score: MatchScore::default(),
                tier: None,
            },
            HashSet::new(),
        )
    }

    /// [`Diagnoser::diagnose`] after entry sanitization.
    fn diagnose_trusted(
        &self,
        log: &FailureLog,
        cancel: &AtomicBool,
    ) -> Result<DiagnosisReport, Cancelled> {
        if log.is_empty() {
            return Ok(DiagnosisReport::default());
        }
        if cancel.load(Ordering::Relaxed) {
            return Err(Cancelled);
        }
        let tester: HashSet<FailEntry> = log.entries().iter().copied().collect();

        // Phase 1: frequency-based suspect extraction. A strict
        // intersection would under-approximate what commercial tools
        // report; sites appearing in most per-entry cones are suspects.
        // The support list, cut to the suspect cap, is also the candidate
        // pool of the phase-2 cover.
        let mut span = m3d_obs::span("diagnosis.suspects");
        let mut freq = self.support(log);
        span.add("supported", freq.len() as u64);
        freq.truncate(self.config.max_cover_suspects);
        let n_entries = log.entries().len() as u32;
        let needed = ((f64::from(n_entries) * self.config.suspect_entry_frac).ceil() as u32).max(1);
        // `freq` is sorted by descending support, so the sites supported
        // by enough entries are a prefix of it.
        let mut suspects: Vec<(SiteId, u32)> = freq
            .iter()
            .copied()
            .take_while(|&(_, c)| c >= needed)
            .collect();
        // Proven-untestable suspects would simulate to an empty signature
        // and score zero; drop them here (after the truncation, so the
        // slot allocation — and with it the report — is unchanged).
        if self.untestable.is_some() {
            let before = suspects.len();
            suspects.retain(|&(s, _)| !self.is_pruned(s));
            m3d_obs::counter(
                "diagnosis.suspects_pruned",
                (before - suspects.len()) as u64,
            );
        }
        span.add("suspects", suspects.len() as u64);
        drop(span);

        // Score every suspect in parallel: each candidate re-simulates two
        // polarities over the full pattern set, which is the dominant cost
        // of a diagnosis at paper scale. Suspects are independent and the
        // map is order-preserving with one propagation scratch per worker,
        // so the report is bitwise identical at any thread count — which
        // is also why the cost gate (suspects × design size) can keep
        // small-design diagnoses serial without changing any report.
        let span = m3d_obs::span("diagnosis.score");
        let score_work = self.scoring_work(suspects.len());
        let scored: Vec<(Candidate, HashSet<FailEntry>)> =
            m3d_par::with_threads(m3d_par::par_gate(score_work), || {
                m3d_par::par_map_init(
                    &suspects,
                    || self.fsim.detector(),
                    |det, &(s, _)| {
                        // Deadline early-out: skip the two simulations and
                        // return a stub; the batch result is discarded.
                        if cancel.load(Ordering::Relaxed) {
                            return Self::cancelled_stub(s);
                        }
                        self.best_candidate(det, s, &tester)
                    },
                )
            });
        if cancel.load(Ordering::Relaxed) {
            return Err(Cancelled);
        }
        drop(span);

        let single_explains = scored.iter().any(|(c, _)| c.score.is_perfect());

        if !single_explains {
            // Phase 2: iterative cover for multi-fault chips. Every
            // selected candidate explains a *disjoint share* of the log,
            // so the single-fault retention floor does not apply — the
            // cover itself is the retention decision.
            let span = m3d_obs::span("diagnosis.cover");
            let selected = self.cover_diagnosis(&freq, &tester, scored, cancel)?;
            drop(span);
            let _span = m3d_obs::span("diagnosis.rank");
            return Ok(self.rank_cover(selected));
        }

        let _span = m3d_obs::span("diagnosis.rank");
        Ok(self.rank_and_retain(scored))
    }

    /// Work estimate for scoring `n` suspects, for the `m3d-par` cost
    /// gate: each suspect re-simulates two polarities over the design, so
    /// design size is the per-suspect element count.
    fn scoring_work(&self, n: usize) -> u64 {
        n as u64 * self.fsim.design().netlist().gate_count() as u64 * 2
    }

    /// Greedy cover: repeatedly pick the suspect explaining the most
    /// residual failures, until the log is explained or progress stops.
    /// `freq` is phase 1's support list, most supported first, cut to the
    /// suspect cap.
    fn cover_diagnosis(
        &self,
        freq: &[(SiteId, u32)],
        tester: &HashSet<FailEntry>,
        seed: Vec<(Candidate, HashSet<FailEntry>)>,
        cancel: &AtomicBool,
    ) -> Result<Vec<(Candidate, HashSet<FailEntry>)>, Cancelled> {
        let by_freq: Vec<(SiteId, u32)> = freq
            .iter()
            .copied()
            .filter(|&(s, _)| !self.is_pruned(s))
            .collect();

        let mut pool: HashMap<SiteId, (Candidate, HashSet<FailEntry>)> = seed
            .into_iter()
            .map(|(c, p)| (c.fault.site, (c, p)))
            .collect();
        // Batch-simulate the cover suspects the seed pass did not already
        // score, fanned over the pool like the phase-1 scoring.
        let missing: Vec<SiteId> = by_freq
            .iter()
            .map(|&(s, _)| s)
            .filter(|s| !pool.contains_key(s))
            .collect();
        let missing_work = self.scoring_work(missing.len());
        let scored_missing = m3d_par::with_threads(m3d_par::par_gate(missing_work), || {
            m3d_par::par_map_init(
                &missing,
                || self.fsim.detector(),
                |det, &s| {
                    if cancel.load(Ordering::Relaxed) {
                        return Self::cancelled_stub(s);
                    }
                    self.best_candidate(det, s, tester)
                },
            )
        });
        if cancel.load(Ordering::Relaxed) {
            return Err(Cancelled);
        }
        for (site, cand) in missing.into_iter().zip(scored_missing) {
            pool.insert(site, cand);
        }

        let mut residual: HashSet<FailEntry> = tester.clone();
        let mut selected: Vec<(Candidate, HashSet<FailEntry>)> = Vec::new();
        let mut used: HashSet<SiteId> = HashSet::new();
        for _round in 0..6 {
            if residual.is_empty() {
                break;
            }
            // Pick the unused candidate explaining the most residual
            // failures with the fewest mispredictions.
            let best = pool
                .values()
                .filter(|(c, _)| !used.contains(&c.fault.site))
                .map(|(c, p)| {
                    let explained = residual.intersection(p).count() as i64;
                    let extra = p.difference(tester).count() as i64;
                    (explained * 2 - extra, c.fault.site)
                })
                .max_by_key(|&(gain, site)| (gain, std::cmp::Reverse(site)));
            let Some((gain, site)) = best else { break };
            if gain <= 0 {
                break;
            }
            used.insert(site);
            let (cand, pred) = pool[&site].clone();
            residual.retain(|e| !pred.contains(e));
            selected.push((cand, pred));
        }

        // Add signature-equivalent suspects of every selected candidate
        // (indistinguishable faults inflate resolution, as on real tools).
        let selected_sigs: Vec<HashSet<FailEntry>> =
            selected.iter().map(|(_, p)| p.clone()).collect();
        for (site, _) in &by_freq {
            if used.contains(site) {
                continue;
            }
            if let Some((cand, pred)) = pool.get(site) {
                if selected_sigs.iter().any(|sig| sig == pred) && !pred.is_empty() {
                    selected.push((*cand, pred.clone()));
                    used.insert(*site);
                }
            }
        }
        Ok(selected)
    }

    /// Ranks a multi-fault cover: candidates sorted by explained failures,
    /// all retained (each one carries a distinct share of the log).
    fn rank_cover(&self, mut selected: Vec<(Candidate, HashSet<FailEntry>)>) -> DiagnosisReport {
        selected.retain(|(c, _)| c.score.tfsf > 0);
        selected.sort_by(|(a, _), (b, _)| {
            b.score
                .tfsf
                .cmp(&a.score.tfsf)
                .then(
                    self.prior_of(a.fault.site)
                        .cmp(&self.prior_of(b.fault.site)),
                )
                .then(a.fault.site.cmp(&b.fault.site))
        });
        let candidates: Vec<Candidate> = selected
            .into_iter()
            .take(self.config.max_candidates)
            .map(|(c, _)| c)
            .collect();
        DiagnosisReport::new(candidates)
    }

    /// Ranks candidates the way commercial delay diagnosis does — by
    /// explained failures (`tfsf`). Simulated-but-unseen failures (`tpsf`)
    /// do *not* rank within a class: gross-delay simulation over-predicts
    /// for real small-delay defects, so a candidate with extra predicted
    /// failures may still be the defect. Ties order structurally.
    fn rank_and_retain(&self, mut scored: Vec<(Candidate, HashSet<FailEntry>)>) -> DiagnosisReport {
        scored.retain(|(c, _)| c.score.tfsf > 0);
        let best_tfsf = scored.iter().map(|(c, _)| c.score.tfsf).max().unwrap_or(0);
        // Candidates explaining within half of the best are statistically
        // indistinguishable under small-delay uncertainty; they share a
        // rank band and order structurally inside it.
        let band = |tfsf: u32| -> u32 { u32::from(tfsf * 2 > best_tfsf) };
        // Inside a band, an attached SCOAP prior ranks easier-to-observe
        // sites first (a zero prior degenerates to structural order).
        scored.sort_by(|(a, _), (b, _)| {
            band(b.score.tfsf)
                .cmp(&band(a.score.tfsf))
                .then(
                    self.prior_of(a.fault.site)
                        .cmp(&self.prior_of(b.fault.site)),
                )
                .then(a.fault.site.cmp(&b.fault.site))
        });
        let floor = (f64::from(best_tfsf) * self.config.retain_ratio).ceil() as u32;
        let candidates: Vec<Candidate> = scored
            .into_iter()
            .filter(|(c, _)| c.score.is_perfect() || c.score.tfsf >= floor)
            .take(self.config.max_candidates)
            .map(|(c, _)| c)
            .collect();
        DiagnosisReport::new(candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_dft::ScanConfig;
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;
    use m3d_tdf::{generate_patterns, AtpgConfig};
    use rand::rngs::StdRng;
    use rand::{seq::SliceRandom, Rng, SeedableRng};

    struct Env {
        design: m3d_part::M3dDesign,
        ts: m3d_tdf::TestSet,
        scan: ScanChains,
    }

    fn env() -> Env {
        let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let ts = generate_patterns(&design, &AtpgConfig::new(1, 256));
        let scan = ScanChains::new(
            design.netlist(),
            ScanConfig::for_flop_count(design.netlist().flops().len()),
        );
        Env { design, ts, scan }
    }

    fn detected_faults(e: &Env) -> Vec<Fault> {
        m3d_tdf::full_fault_list(&e.design)
            .into_iter()
            .zip(&e.ts.detected)
            .filter(|&(_, &d)| d)
            .map(|(f, _)| f)
            .collect()
    }

    #[test]
    fn single_fault_diagnosis_is_accurate() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let diag = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        let faults = detected_faults(&e);
        let mut rng = StdRng::seed_from_u64(5);
        let mut accurate = 0;
        let trials = 12;
        for _ in 0..trials {
            let f = faults[rng.gen_range(0..faults.len())];
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &[f]);
            let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
            let report = diag.diagnose(&log);
            assert!(report.resolution() >= 1);
            if report.is_accurate(&[f]) {
                accurate += 1;
            }
        }
        assert!(
            accurate >= trials - 1,
            "bypass single-fault accuracy {accurate}/{trials}"
        );
    }

    #[test]
    fn compaction_degrades_resolution() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let faults = detected_faults(&e);
        let mut rng = StdRng::seed_from_u64(6);
        let mut res = [0usize; 2];
        for _ in 0..8 {
            let f = faults[rng.gen_range(0..faults.len())];
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &[f]);
            for (i, mode) in ObsMode::ALL.into_iter().enumerate() {
                let diag = Diagnoser::new(&fsim, &e.scan, mode, DiagnosisConfig::default());
                let log = FailureLog::from_detections(&dets, &e.scan, mode);
                res[i] += diag.diagnose(&log).resolution();
            }
        }
        assert!(
            res[1] >= res[0],
            "compacted resolution ({}) should not beat bypass ({})",
            res[1],
            res[0]
        );
    }

    #[test]
    fn multi_fault_cover_explains_logs() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let diag = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        let faults = detected_faults(&e);
        let mut rng = StdRng::seed_from_u64(8);
        let mut any_hit = 0;
        for _ in 0..5 {
            let picks: Vec<Fault> = faults.choose_multiple(&mut rng, 3).copied().collect();
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &picks);
            let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
            let report = diag.diagnose(&log);
            if report.first_hit_index(&picks).is_some() {
                any_hit += 1;
            }
        }
        assert!(any_hit >= 4, "cover diagnosis hit {any_hit}/5");
    }

    #[test]
    fn out_of_range_entries_degrade_instead_of_panicking() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let diag = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        let f = detected_faults(&e)[0];
        let mut det = fsim.detector();
        let dets = fsim.detections(&mut det, &[f]);
        let clean = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
        let clean_report = diag.diagnose(&clean);
        assert!(!clean_report.degraded());

        // A malformed tester log: the real entries plus one referencing a
        // nonexistent pattern and one referencing a nonexistent scan cell
        // (what `fail pattern 4294967295 flop 4294967295` parses to).
        let poisoned: FailureLog = clean
            .entries()
            .iter()
            .copied()
            .chain([
                FailEntry {
                    pattern: u32::MAX,
                    obs: m3d_dft::ObsPoint::Flop(FlopId::new(u32::MAX as usize)),
                },
                FailEntry {
                    pattern: 0,
                    obs: m3d_dft::ObsPoint::Flop(FlopId::new(e.design.netlist().flops().len() + 7)),
                },
            ])
            .collect();
        let report = diag.diagnose(&poisoned);
        assert!(report.degraded(), "dropped entries must tag the report");
        assert_eq!(
            report.candidates(),
            clean_report.candidates(),
            "valid entries still diagnose normally"
        );

        // A log of *only* junk entries degrades to an empty report.
        let junk: FailureLog = std::iter::once(FailEntry {
            pattern: u32::MAX,
            obs: m3d_dft::ObsPoint::Flop(FlopId::new(u32::MAX as usize)),
        })
        .collect();
        let report = diag.diagnose(&junk);
        assert!(report.degraded());
        assert_eq!(report.resolution(), 0);
    }

    #[test]
    fn zero_prior_and_untestable_pruning_leave_reports_identical() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let n = e.design.sites().len();
        let plain = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        let zeroed = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default())
            .with_observability_prior(vec![0; n]);
        let cp = m3d_dataflow::ConstProp::compute(e.design.netlist());
        let proofs = m3d_dataflow::StaticProofs::compute(&e.design, &cp);
        assert!(proofs.untestable_count() > 0);
        let pruned = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default())
            .with_untestable_sites(proofs.prunable_sites());

        let faults = detected_faults(&e);
        let mut rng = StdRng::seed_from_u64(21);
        for trial in 0..6 {
            // Mix single- and multi-fault logs to cover both rank paths.
            let k = 1 + trial % 3;
            let picks: Vec<Fault> = faults.choose_multiple(&mut rng, k).copied().collect();
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &picks);
            let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
            let base = plain.diagnose(&log);
            assert_eq!(base.candidates(), zeroed.diagnose(&log).candidates());
            assert_eq!(base.candidates(), pruned.diagnose(&log).candidates());
        }
    }

    #[test]
    fn observability_prior_reorders_only_within_score_ties() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let scoap = m3d_dataflow::Scoap::compute(e.design.netlist());
        let co: Vec<u32> = e
            .design
            .sites()
            .iter()
            .map(|(s, _)| scoap.site_measures(&e.design, s).co)
            .collect();
        let plain = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        let prior = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default())
            .with_observability_prior(co);
        let faults = detected_faults(&e);
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..6 {
            let f = faults[rng.gen_range(0..faults.len())];
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &[f]);
            let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
            let a = plain.diagnose(&log);
            let b = prior.diagnose(&log);
            // Same candidate *set*; the prior only permutes rank order.
            let key = |c: &Candidate| (c.fault.site, c.fault.polarity);
            let mut sa: Vec<_> = a.candidates().iter().map(key).collect();
            let mut sb: Vec<_> = b.candidates().iter().map(key).collect();
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn empty_log_gives_empty_report() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let diag = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        assert_eq!(diag.diagnose(&FailureLog::default()).resolution(), 0);
    }

    #[test]
    fn cancellation_is_pure_control_flow() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let diag = Diagnoser::new(&fsim, &e.scan, ObsMode::Bypass, DiagnosisConfig::default());
        let faults = detected_faults(&e);
        let mut det = fsim.detector();
        let dets = fsim.detections(&mut det, &[faults[3]]);
        let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);

        // An unset flag yields exactly the plain report.
        let clear = AtomicBool::new(false);
        let report = diag.try_diagnose(&log, &clear).expect("not cancelled");
        assert_eq!(report, diag.diagnose(&log));

        // A pre-set flag cancels before any work, even for empty logs'
        // non-empty siblings; the empty log still short-circuits to Ok.
        let set = AtomicBool::new(true);
        assert_eq!(diag.try_diagnose(&log, &set), Err(Cancelled));
        assert!(diag.try_diagnose(&FailureLog::default(), &set).is_ok());
    }
}
