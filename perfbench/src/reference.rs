//! Paper reference values and the fidelity errors measured against them.
//!
//! Provenance: FinePack (HPCA 2023), evaluated on 4 GV100 GPUs over a
//! PCIe 4.0 switch.
//! - Fig 9: geomean speedup over one GPU across the eight suite apps —
//!   bulk DMA ~1.7x, raw P2P stores ~0.8x, FinePack 2.4x, infinite
//!   interconnect bandwidth 3.4x.
//! - Fig 10: FinePack moves 2.7x fewer interconnect bytes than raw P2P
//!   stores (geomean across apps).
//! - Fig 11: 42 GPU stores are aggregated per FinePack packet on
//!   average across apps.
//!
//! The "measured" Fig 9 column of the repository's EXPERIMENTS.md
//! (FinePack 2.20x, P2P 1.12x) predates credited flow control; the live
//! model reads FinePack 1.603x and P2P 0.390x. The errors below are
//! always computed from the live model, never from that table.

/// Fig 9 geomean speedup of bulk DMA.
pub const FIG9_DMA: f64 = 1.7;
/// Fig 9 geomean speedup of raw P2P stores.
pub const FIG9_P2P: f64 = 0.8;
/// Fig 9 geomean speedup of FinePack.
pub const FIG9_FP: f64 = 2.4;
/// Fig 9 geomean speedup with infinite interconnect bandwidth (the
/// opportunity bound; reported for context, not scored).
pub const FIG9_INF: f64 = 3.4;
/// Fig 10: raw-P2P wire bytes over FinePack wire bytes, geomean.
pub const FIG10_P2P_OVER_FP_WIRE: f64 = 2.7;
/// Fig 11: mean stores aggregated per FinePack packet.
pub const FIG11_STORES_PER_PACKET: f64 = 42.0;

/// The five fidelity-error metric names, in report order.
pub const FIDELITY_METRICS: [&str; 5] = [
    "fig9_fp_err_pct",
    "fig9_dma_err_pct",
    "fig9_p2p_err_pct",
    "fig10_wire_err_pct",
    "fig11_spp_err_pct",
];

/// Held-out check: the fidelity errors (in [`FIDELITY_METRICS`] order)
/// measured at the default seed, which the model's constants were
/// tuned on, and at seed 7, which they were not. Close agreement says
/// the errors are properties of the model, not of one input.
pub const HELD_OUT: [(u64, [f64; 5]); 2] = [
    (DEFAULT_SEED, [33.20, 24.30, 51.22, 22.12, 60.22]),
    (7, [33.16, 24.30, 51.16, 22.10, 60.43]),
];

/// The simulator's default experiment seed (`RunSpec::paper`).
pub const DEFAULT_SEED: u64 = 0xF14E_9ACC;

/// Relative error of `measured` against `paper`, in percent.
pub fn err_pct(measured: f64, paper: f64) -> f64 {
    100.0 * (measured - paper).abs() / paper
}

/// The live model's headline figures, from one Fig 9 suite pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Headline {
    /// Geomean speedups over one GPU.
    pub dma: f64,
    /// Raw P2P stores.
    pub p2p: f64,
    /// FinePack.
    pub fp: f64,
    /// Infinite interconnect bandwidth (context; not scored).
    pub inf: f64,
    /// Geomean across apps of P2P wire bytes over FinePack wire bytes.
    pub p2p_over_fp_wire: f64,
    /// Mean across apps of FinePack stores per packet.
    pub stores_per_packet: f64,
}

impl Headline {
    /// The five fidelity errors, in [`FIDELITY_METRICS`] order.
    pub fn errors(&self) -> [f64; 5] {
        [
            err_pct(self.fp, FIG9_FP),
            err_pct(self.dma, FIG9_DMA),
            err_pct(self.p2p, FIG9_P2P),
            err_pct(self.p2p_over_fp_wire, FIG10_P2P_OVER_FP_WIRE),
            err_pct(self.stores_per_packet, FIG11_STORES_PER_PACKET),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_fig9_values_reproduce_the_recorded_errors() {
        // The live FinePack and P2P geomeans named in the module docs.
        assert!((err_pct(1.603, FIG9_FP) - HELD_OUT[0].1[0]).abs() < 0.05);
        assert!((err_pct(0.390, FIG9_P2P) - HELD_OUT[0].1[2]).abs() < 0.1);
    }
}
