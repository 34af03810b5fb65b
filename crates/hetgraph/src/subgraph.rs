//! Back-tracing (Fig. 3) and sub-graph extraction with Table II features.

use std::collections::HashMap;

use m3d_dft::ScanChains;
use m3d_gnn::{GcnGraph, GraphData, Matrix};
use m3d_netlist::{SiteId, SitePos};
use m3d_tdf::{FailureLog, FaultSim};

use crate::graph::HetGraph;

/// Number of node features (the 13 rows of the paper's Table II).
pub const FEATURE_DIM: usize = 13;

/// Extra feature columns appended when the [`HetGraph`] carries SCOAP
/// measures ([`HetGraph::with_scoap`]): normalized CC0, CC1, CO.
pub const SCOAP_FEATURE_DIM: usize = 3;

/// Names of the optional SCOAP feature columns, in column order (these
/// follow the Table II columns when present).
pub const SCOAP_FEATURE_NAMES: [&str; SCOAP_FEATURE_DIM] = [
    "SCOAP 0-controllability (normalized)",
    "SCOAP 1-controllability (normalized)",
    "SCOAP observability (normalized)",
];

/// Human-readable names of the Table II features, in column order.
pub const FEATURE_NAMES: [&str; FEATURE_DIM] = [
    "fan-in edges (circuit)",
    "fan-out edges (circuit)",
    "topedges connected",
    "tier-level location",
    "level in topological order",
    "is gate output",
    "connects to MIV",
    "fan-in edges (sub-graph)",
    "fan-out edges (sub-graph)",
    "mean topedge length",
    "std topedge length",
    "mean topedge MIV count",
    "std topedge MIV count",
];

/// A homogeneous sub-graph extracted by back-tracing, ready for the GNN
/// models: node list, induced topology, and the Table II feature matrix.
#[derive(Clone, Debug)]
pub struct SubGraph {
    /// The fault sites retained by back-tracing, ascending.
    pub sites: Vec<SiteId>,
    /// Node features + induced topology for the GCN.
    pub data: GraphData,
    /// MIV nodes within the sub-graph: `(node index, MIV index)`.
    pub miv_nodes: Vec<(usize, u32)>,
}

impl SubGraph {
    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.sites.len()
    }

    /// The node index of a site, if present.
    pub fn node_of(&self, site: SiteId) -> Option<usize> {
        self.sites.binary_search(&site).ok()
    }

    /// Synthesizes a minority-class sample by appending a dummy buffer at
    /// the output of `node` (the paper's graph oversampling: the circuit
    /// function is unchanged, the topology is perturbed).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn with_dummy_buffer(&self, node: usize) -> SubGraph {
        assert!(node < self.node_count(), "node {node} out of range");
        let n = self.node_count();
        let g = &self.data.graph;
        // New node takes over `node`'s outgoing neighbourhood.
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for v in 0..n {
            for &u in g.neighbors(v) {
                let u = u as usize;
                if u <= v {
                    continue; // undirected: visit each pair once
                }
                edges.push((v, u));
            }
        }
        edges.push((node, n)); // buffer hangs off the node
        let mut feats = Matrix::zeros(n + 1, self.data.features.cols());
        for r in 0..n {
            feats.row_mut(r).copy_from_slice(self.data.features.row(r));
        }
        // The buffer inherits locality from its driver but is a fresh
        // single-input single-output gate output.
        let src: Vec<f32> = self.data.features.row(node).to_vec();
        let buf = feats.row_mut(n);
        buf.copy_from_slice(&src);
        buf[0] = 1.0 / 4.0; // one fan-in edge (normalized like extract())
        buf[5] = 1.0; // is a gate output
        SubGraph {
            sites: self.sites.clone(),
            data: GraphData::new(GcnGraph::from_edges(n + 1, &edges), feats),
            miv_nodes: self.miv_nodes.clone(),
        }
    }
}

/// The back-tracing algorithm of Fig. 3: intersects, over every erroneous
/// response, the transition-active fan-in cones of the response's
/// Topnodes; extracts the induced circuit-level sub-graph.
///
/// Returns `None` when the log is empty or the intersection is empty (no
/// single site explains every response — e.g. heavy multi-fault chips).
///
/// # Examples
///
/// See the crate-level example in [`crate`].
pub fn back_trace(
    het: &HetGraph,
    fsim: &FaultSim<'_>,
    scan: &ScanChains,
    log: &FailureLog,
) -> Option<SubGraph> {
    if log.is_empty() {
        return None;
    }
    let mut span = m3d_obs::span("back_trace");
    // Per site: the number of responses whose N — the union over the
    // response's Topnodes of transition-active cone members — holds it.
    let (counts, obs_groups) = m3d_tdf::with_cone_support(|s| {
        let counts = s.count(fsim, scan, log, |f| {
            het.topedges(f).iter().map(|te| te.site)
        });
        (counts, s.obs_groups())
    });
    span.add("entries", log.len() as u64);
    span.add("obs_groups", obs_groups as u64);
    span.add("sites_touched", counts.len() as u64);
    let needed = log.len() as u32;
    // Strict intersection first (Fig. 3, line 11). Multi-fault chips whose
    // responses come from different faults can intersect to nothing; fall
    // back to the best-supported sites so the GNN models still get a
    // sub-graph (the paper's framework keeps predicting tiers for
    // multi-fault chips — Section VII-A).
    let c_max = counts.iter().map(|&(_, c)| c).max().unwrap_or(0);
    if c_max == 0 {
        return None;
    }
    // `c_max == needed` is the strict intersection; otherwise keep the
    // best-supported sites.
    let threshold = c_max.min(needed);
    // Collect by reference: consuming `counts` would let `collect` reuse
    // its allocation, and the sub-graph would keep the capacity of every
    // supported site for as long as it lives.
    let mut sites: Vec<SiteId> = counts
        .iter()
        .filter(|&&(_, c)| c >= threshold)
        .map(|&(s, _)| s)
        .collect();
    sites.sort_unstable();
    if sites.is_empty() {
        return None;
    }
    Some(extract(het, fsim, sites))
}

/// Builds the sub-graph induced on `sites` with Table II features.
pub fn extract(het: &HetGraph, fsim: &FaultSim<'_>, sites: Vec<SiteId>) -> SubGraph {
    let design = fsim.design();
    let n = sites.len();
    let index: HashMap<u32, usize> = sites.iter().enumerate().map(|(i, s)| (s.0, i)).collect();

    // Induced edges + per-node sub-graph degrees.
    let mut edges: Vec<(usize, usize)> = Vec::new();
    let mut sub_in = vec![0u32; n];
    let mut sub_out = vec![0u32; n];
    for (i, &site) in sites.iter().enumerate() {
        for &succ in het.successors(site) {
            if let Some(&j) = index.get(&succ) {
                edges.push((i, j));
                sub_out[i] += 1;
                sub_in[j] += 1;
            }
        }
    }

    let (max_level, max_dist, flops) = het.normalizers();
    let cols = FEATURE_DIM
        + if het.has_scoap() {
            SCOAP_FEATURE_DIM
        } else {
            0
        };
    let mut feats = Matrix::zeros(n, cols);
    let mut miv_nodes = Vec::new();
    for (i, &site) in sites.iter().enumerate() {
        let f = het.site_features(site);
        let scoap = het.scoap(site);
        let row = feats.row_mut(i);
        row[0] = f32::from(f.fan_in) / 4.0;
        row[1] = (f32::from(f.fan_out) / 8.0).min(2.0);
        row[2] = f.top_edges as f32 / flops.max(1) as f32;
        row[3] = f.tier;
        row[4] = f.level as f32 / max_level;
        row[5] = f32::from(u8::from(f.is_output));
        row[6] = f32::from(u8::from(f.touches_miv));
        row[7] = sub_in[i] as f32 / 4.0;
        row[8] = (sub_out[i] as f32 / 8.0).min(2.0);
        row[9] = f.mean_dist / max_dist;
        row[10] = f.std_dist / max_dist;
        row[11] = (f.mean_mivs / 4.0).min(2.0);
        row[12] = (f.std_mivs / 4.0).min(2.0);
        if let Some([cc0, cc1, co]) = scoap {
            row[13] = cc0;
            row[14] = cc1;
            row[15] = co;
        }
        if let SitePos::Miv(m) = design.sites().pos(site) {
            miv_nodes.push((i, m));
        }
    }

    SubGraph {
        sites,
        data: GraphData::new(GcnGraph::from_edges(n, &edges), feats),
        miv_nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use m3d_dft::{ObsMode, ScanConfig};
    use m3d_netlist::generate::Benchmark;
    use m3d_part::DesignConfig;
    use m3d_tdf::{generate_patterns, AtpgConfig, Fault, FaultSim, Polarity};

    struct Env {
        design: m3d_part::M3dDesign,
        ts: m3d_tdf::TestSet,
        scan: ScanChains,
        het: HetGraph,
    }

    fn env() -> Env {
        let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
        let ts = generate_patterns(&design, &AtpgConfig::new(1, 256));
        let scan = ScanChains::new(
            design.netlist(),
            ScanConfig::for_flop_count(design.netlist().flops().len()),
        );
        let het = HetGraph::new(&design);
        Env {
            design,
            ts,
            scan,
            het,
        }
    }

    fn some_detected_fault(e: &Env, skip: usize) -> Fault {
        m3d_tdf::full_fault_list(&e.design)
            .into_iter()
            .zip(&e.ts.detected)
            .filter(|&(_, &d)| d)
            .map(|(f, _)| f)
            .nth(skip)
            .expect("detected fault exists")
    }

    #[test]
    fn back_tracing_keeps_the_injected_site() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        for skip in [0, 33, 77, 150] {
            let fault = some_detected_fault(&e, skip);
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &[fault]);
            for mode in ObsMode::ALL {
                let log = FailureLog::from_detections(&dets, &e.scan, mode);
                if log.is_empty() {
                    continue;
                }
                let sg =
                    back_trace(&e.het, &fsim, &e.scan, &log).expect("single-fault logs back-trace");
                assert!(
                    sg.node_of(fault.site).is_some(),
                    "{mode:?}: injected site must survive back-tracing"
                );
            }
        }
    }

    #[test]
    fn subgraph_features_have_table2_shape() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let fault = some_detected_fault(&e, 5);
        let mut det = fsim.detector();
        let dets = fsim.detections(&mut det, &[fault]);
        let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
        let sg = back_trace(&e.het, &fsim, &e.scan, &log).unwrap();
        assert_eq!(sg.data.features.cols(), FEATURE_DIM);
        assert_eq!(sg.data.features.rows(), sg.node_count());
        assert_eq!(FEATURE_NAMES.len(), FEATURE_DIM);
        // Sub-graph is smaller than the whole circuit.
        assert!(sg.node_count() < e.het.node_count());
        assert!(sg.node_count() > 0);
    }

    #[test]
    fn compacted_subgraphs_are_no_smaller_than_bypass() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let mut total = [0usize; 2];
        for skip in [3, 9, 27] {
            let fault = some_detected_fault(&e, skip);
            let mut det = fsim.detector();
            let dets = fsim.detections(&mut det, &[fault]);
            for (k, mode) in ObsMode::ALL.into_iter().enumerate() {
                let log = FailureLog::from_detections(&dets, &e.scan, mode);
                if let Some(sg) = back_trace(&e.het, &fsim, &e.scan, &log) {
                    total[k] += sg.node_count();
                }
            }
        }
        assert!(
            total[1] >= total[0],
            "compaction widens the suspect space: {total:?}"
        );
    }

    #[test]
    fn scoap_graph_extends_features_by_three_columns() {
        let e = env();
        let het = HetGraph::with_scoap(&e.design);
        assert!(het.has_scoap());
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let fault = some_detected_fault(&e, 5);
        let mut det = fsim.detector();
        let dets = fsim.detections(&mut det, &[fault]);
        let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
        let sg = back_trace(&het, &fsim, &e.scan, &log).unwrap();
        assert_eq!(sg.data.features.cols(), FEATURE_DIM + SCOAP_FEATURE_DIM);
        for r in 0..sg.data.features.rows() {
            for c in FEATURE_DIM..FEATURE_DIM + SCOAP_FEATURE_DIM {
                let v = sg.data.features.row(r)[c];
                assert!((0.0..=1.0).contains(&v), "row {r} col {c}: {v}");
            }
        }
        // Oversampling preserves the widened shape.
        let aug = sg.with_dummy_buffer(0);
        assert_eq!(aug.data.features.cols(), FEATURE_DIM + SCOAP_FEATURE_DIM);
        // The plain graph still produces 13 columns for the same log.
        let plain = back_trace(&e.het, &fsim, &e.scan, &log).unwrap();
        assert_eq!(plain.data.features.cols(), FEATURE_DIM);
        assert_eq!(plain.sites, sg.sites);
    }

    #[test]
    fn empty_log_yields_no_subgraph() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        assert!(back_trace(&e.het, &fsim, &e.scan, &FailureLog::default()).is_none());
    }

    #[test]
    fn dummy_buffer_adds_one_node() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        let fault = some_detected_fault(&e, 11);
        let mut det = fsim.detector();
        let dets = fsim.detections(&mut det, &[fault]);
        let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
        let sg = back_trace(&e.het, &fsim, &e.scan, &log).unwrap();
        let aug = sg.with_dummy_buffer(0);
        assert_eq!(aug.data.graph.node_count(), sg.node_count() + 1);
        assert_eq!(aug.data.features.rows(), sg.node_count() + 1);
        // The buffer is attached to node 0.
        assert!(aug.data.graph.neighbors(sg.node_count()).contains(&0));
    }

    #[test]
    fn miv_fault_subgraph_contains_its_miv_node() {
        let e = env();
        let fsim = FaultSim::new(&e.design, &e.ts.patterns);
        // Find a detected MIV fault.
        let mut miv_fault = None;
        'search: for m in 0..e.design.miv_count() {
            for p in Polarity::ALL {
                let f = Fault::new(e.design.miv_site(m), p);
                let mut det = fsim.detector();
                if !fsim.detections(&mut det, &[f]).is_empty() {
                    miv_fault = Some(f);
                    break 'search;
                }
            }
        }
        let Some(fault) = miv_fault else {
            panic!("expected at least one detectable MIV fault");
        };
        let mut det = fsim.detector();
        let dets = fsim.detections(&mut det, &[fault]);
        let log = FailureLog::from_detections(&dets, &e.scan, ObsMode::Bypass);
        let sg = back_trace(&e.het, &fsim, &e.scan, &log).unwrap();
        let node = sg.node_of(fault.site).expect("MIV site retained");
        assert!(sg.miv_nodes.iter().any(|&(n, _)| n == node));
    }
}
