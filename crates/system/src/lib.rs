//! # system
//!
//! Multi-GPU system assembly for the FinePack reproduction: the switched
//! PCIe fabric, the communication paradigms under comparison, the
//! event-driven iteration runner, and the experiment drivers behind every
//! figure of the paper's evaluation.
//!
//! The flow mirrors §V: workload generators produce per-GPU kernel
//! traces; [`gpu_model`] replays them into timed remote-store egress
//! streams; a [`Runner`] pushes those streams through a [`Paradigm`]'s
//! egress path (FinePack, raw P2P, write-combining, GPS) or through the
//! DMA model, over a [`Fabric`] of per-GPU full-duplex links; iteration
//! barriers enforce the bulk-synchronous release semantics.
//!
//! # Examples
//!
//! ```
//! use system::{speedup_row, Paradigm, SystemConfig};
//! use workloads::{Pagerank, RunSpec};
//!
//! let cfg = SystemConfig::paper(2);
//! let row = speedup_row(&Pagerank::default(), &cfg, &RunSpec::tiny(), &Paradigm::FIG9);
//! // FinePack recovers most of the infinite-bandwidth opportunity.
//! let fp = row.speedup(Paradigm::FinePack).unwrap();
//! let p2p = row.speedup(Paradigm::P2pStores).unwrap();
//! assert!(fp > p2p);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod audit;
mod budget;
mod config;
mod experiment;
mod fault;
mod fingerprint;
mod link;
mod paradigm;
mod report;
mod runner;
mod topology;

pub use audit::{audit_config_for, audit_run, AuditOutcome};
pub use budget::{BudgetKind, BudgetTrip, RunBudget, RunnerDiag};
pub use config::{CreditConfig, FlowControlMode, SystemConfig};
pub use experiment::{
    bandwidth_sweep, dma_plan, fault_sweep, geomean_speedup, prepare_apps, run_suite,
    run_suite_prepared, run_suite_supervised, scaling_curve, single_gpu_time, speedup_row,
    speedup_row_prepared, subheader_sweep, FaultSweepPoint, PreparedApp, PreparedWorkload,
    ScalingPoint, SpeedupRow, SuitePoint, SuiteResult, SupervisedSuite, Supervision,
};
pub use fault::{FabricFault, FaultProfile, Outage, RunError, RunnerError};
pub use fingerprint::{CanonicalBytes, ConfigFingerprint, FingerprintBuilder};
pub use link::{Fabric, FcStats, Link, LinkDelivery};
pub use paradigm::Paradigm;
pub use report::{
    iteration_unique_bytes, RunReport, TrafficBreakdown, UniqueTracker, REPORT_SCHEMA_VERSION,
};
pub use runner::{DmaPlan, Runner};
pub use topology::{RoutedFabric, SendOutcome, Topology};
