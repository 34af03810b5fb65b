//! Transition-delay-fault testing substrate: two-frame logic simulation,
//! the TDF fault model (including MIV faults), event-driven fault
//! simulation, random-fill ATPG with fault dropping, tester failure
//! logs, and the failing-cone support count that diagnosis and
//! back-tracing share.
//!
//! Together with `m3d-dft` this crate replaces the commercial ATPG/tester
//! toolchain of the paper's data-generation flow (Fig. 4): a design goes in,
//! TDF patterns and per-injection failure logs come out.
//!
//! # Examples
//!
//! ```
//! use m3d_dft::{ObsMode, ScanChains, ScanConfig};
//! use m3d_netlist::generate::Benchmark;
//! use m3d_part::DesignConfig;
//! use m3d_tdf::{
//!     full_fault_list, generate_patterns, AtpgConfig, FailureLog, FaultSim,
//! };
//!
//! let design = DesignConfig::Syn1.build_sized(Benchmark::Aes, Some(300));
//! let test_set = generate_patterns(&design, &AtpgConfig::new(1, 256));
//! let scan = ScanChains::new(
//!     design.netlist(),
//!     ScanConfig::for_flop_count(design.netlist().flops().len()),
//! );
//!
//! // Inject one fault and read the tester log.
//! let fault = full_fault_list(&design)[10];
//! let sim = FaultSim::new(&design, &test_set.patterns);
//! let dets = sim.detections(&mut sim.detector(), &[fault]);
//! let log = FailureLog::from_detections(&dets, &scan, ObsMode::Bypass);
//! println!("{} erroneous responses", log.len());
//! ```

#![warn(missing_docs)]

mod atpg;
mod fault;
mod fsim;
mod log;
mod log_io;
mod pattern;
mod sim;
mod support;
mod timing;

pub use atpg::{
    generate_patterns, generate_patterns_pruned, undetected_faults, AtpgConfig, TestSet,
};
pub use fault::{
    full_fault_list, injection_scope, site_net, testable_sites, Fault, InjectionScope, Polarity,
};
pub use fsim::{BlockDetector, Detection, FaultSim};
pub use log::{FailEntry, FailureLog};
pub use log_io::{read_failure_log, write_failure_log, ParseLogError};
pub use pattern::{PatternBlock, PatternId, PatternSet};
pub use sim::{eval_single_frame, BlockSim, Simulator};
pub use support::{with_cone_support, ConeSupport};
pub use timing::{StaticTiming, TimingModel};
