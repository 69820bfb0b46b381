//! Traced-mode probes: after the traced pass, re-issue the calls that
//! `PreparedWorkload::new` and the runner make internally, so their
//! host time can be split out until spans inside the simulator exist.
//!
//! - GPU replay: `Gpu::execute_kernel` on every (iteration, GPU) trace,
//!   exactly as `PreparedWorkload::new` replays them.
//! - RWQ and packetizer: each GPU's replayed egress stream pushed
//!   through a fresh `FinePackEgress`, released at every fence and at
//!   kernel end.
//! - Data link layer (faulty-audit only): one fault-free `try_run` per
//!   point, whose time is subtracted from the faulted run's.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use finepack::{EgressPath, FinePackEgress, PayloadMode};
use gpu_model::{AddressMap, Gpu, GpuId, KernelRun};
use system::{PreparedWorkload, SystemConfig};

use crate::passes::{BenchWorkload, Scale};

/// Bytes of physical memory per GPU in the node address map, as
/// `PreparedWorkload::new` lays it out.
const GPU_MEMORY: u64 = 16 << 30;

/// Host time of the re-issued calls.
#[derive(Debug, Clone, Default)]
pub struct Probes {
    /// Seconds in `Gpu::execute_kernel`.
    pub replay_s: f64,
    /// Trace ops replayed.
    pub replay_ops: u64,
    /// Seconds replaying egress streams through `FinePackEgress`.
    pub egress_replay_s: f64,
    /// Packets the egress replay emitted.
    pub egress_packets: u64,
    /// Seconds of fault-free `try_run` per paradigm (faulty-audit only).
    pub clean_run_s: BTreeMap<String, f64>,
}

/// Runs every probe of `workload` on the same inputs as its pass.
pub fn run_probes(workload: BenchWorkload, seed: u64, scale: Scale) -> Probes {
    let mut probes = Probes::default();
    for point in workload.points(seed, scale) {
        let cfg = &point.cfg;
        let map = AddressMap::new(cfg.num_gpus, GPU_MEMORY);
        for iter in 0..point.spec.iterations {
            for g in 0..cfg.num_gpus {
                let gpu = Gpu::new(cfg.gpu, GpuId::new(g), map);
                let trace = point.app.trace(&point.spec, iter, gpu.id());
                let t = Instant::now();
                let run = black_box(gpu.execute_kernel(black_box(&trace)));
                probes.replay_s += t.elapsed().as_secs_f64();
                probes.replay_ops += trace.ops.len() as u64;
                let t = Instant::now();
                probes.egress_packets += replay_egress(&run, gpu.id(), cfg);
                probes.egress_replay_s += t.elapsed().as_secs_f64();
            }
        }
        if workload.audits() {
            let mut clean = point.cfg;
            clean.fault = None;
            let prep = PreparedWorkload::new(point.app.as_ref(), &clean, &point.spec);
            for &p in workload.paradigms() {
                let t = Instant::now();
                let report = prep.try_run(&clean, p);
                *probes.clean_run_s.entry(p.to_string()).or_insert(0.0) +=
                    t.elapsed().as_secs_f64();
                black_box(report.is_ok());
            }
        }
    }
    probes
}

/// Pushes one kernel's remote stores and atomics through a FinePack
/// egress in issue order, releasing at each fence and at kernel end,
/// and returns the packets emitted.
fn replay_egress(run: &KernelRun, src: GpuId, cfg: &SystemConfig) -> u64 {
    let mut egress = FinePackEgress::new(src, cfg.finepack, cfg.framing);
    egress.set_payload_mode(PayloadMode::Extents);
    let mut stores: Vec<_> = run
        .egress
        .iter()
        .map(|s| (s, false))
        .chain(run.atomics.iter().map(|s| (s, true)))
        .collect();
    stores.sort_by_key(|(s, _)| s.time);
    let mut fences = run.fences.iter().peekable();
    let mut packets = 0u64;
    for (s, atomic) in stores {
        while fences.next_if(|f| **f <= s.time).is_some() {
            packets += egress.release().len() as u64;
        }
        let out = if atomic {
            egress.push_atomic(&s.store, s.time)
        } else {
            egress.push(&s.store, s.time)
        };
        packets += out.expect("replayed stores are block-aligned").len() as u64;
    }
    packets + egress.release().len() as u64
}
