//! Intra-warp L1 store coalescing.
//!
//! A warp store writes up to 32 lanes × 1–8 bytes. The L1 cache merges
//! lanes that touch the same 128B cache block into as few transactions as
//! possible; remote stores then leave the GPU at exactly this granularity,
//! because peer-GPU writes are not cached or combined in L2 (§III).
//! This module reproduces that behaviour and is the source of the
//! store-size distributions in Figure 4.
//!
//! The kernel keeps one `u128` byte mask per touched cache block. Every
//! lane of one warp store shares its `value_seed`, so the byte at an
//! address is [`store_byte`]`(addr, seed)` whichever lane wrote it: the
//! "later lane wins" rule reduces to a mask union, and a transaction is
//! just an extent `(addr, len)` until a caller needs its payload.

use crate::config::GpuConfig;
use crate::trace::{store_byte, AccessPattern};

/// One post-coalescing store transaction (local or remote).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreTxn {
    /// First byte address (node-global physical).
    pub addr: u64,
    /// Payload bytes.
    pub data: Vec<u8>,
}

impl StoreTxn {
    /// Payload length in bytes.
    pub fn len(&self) -> u32 {
        self.data.len() as u32
    }

    /// True if empty (never produced by [`coalesce_warp_store`]).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

/// The payload of the extent `addr..addr + len` for a store seeded with
/// `value_seed`.
///
/// Built by `push` into an empty `Vec`, not by an exact-capacity
/// `collect`: payloads live until the run ends, and the doubling growth
/// measured lower peak RSS on the paper suite than exact-size buffers.
pub(crate) fn extent_payload(addr: u64, len: u32, value_seed: u64) -> Vec<u8> {
    let mut data = Vec::new();
    for a in addr..addr + u64::from(len) {
        data.push(store_byte(a, value_seed));
    }
    data
}

/// Reusable per-warp-store working set: one `(block_base, byte_mask)`
/// per cache block the store touches. Holding it across calls keeps the
/// replay loop free of allocations.
#[derive(Debug, Default)]
pub(crate) struct BlockMasks {
    blocks: Vec<(u64, u128)>,
}

impl BlockMasks {
    /// Coalesces one warp store and calls `emit(addr, len)` once per
    /// transaction, in ascending address order. A transaction never
    /// crosses a cache block.
    ///
    /// Relies on [`GpuConfig::validate`]: `warp_size <= 32` (the width
    /// of `active_mask`) and `cache_block_bytes <= 128` (the mask width).
    pub(crate) fn coalesce(
        &mut self,
        cfg: &GpuConfig,
        pattern: &AccessPattern,
        bytes_per_lane: u32,
        active_mask: u32,
        mut emit: impl FnMut(u64, u32),
    ) {
        let block = u64::from(cfg.cache_block_bytes);
        let blocks = &mut self.blocks;
        blocks.clear();
        let mut lanes = active_mask & lane_bits(cfg.warp_size);
        while lanes != 0 {
            let lane = lanes.trailing_zeros();
            lanes &= lanes - 1;
            let mut cur = pattern.lane_addr(lane, bytes_per_lane);
            let end = cur + u64::from(bytes_per_lane);
            // A lane range spanning blocks is split across them.
            while cur < end {
                let base = cur & !(block - 1);
                let n = (end.min(base + block) - cur) as u32;
                let bits = ones(n) << (cur - base);
                match blocks.last_mut() {
                    Some((b, m)) if *b == base => *m |= bits,
                    _ => blocks.push((base, bits)),
                }
                cur += u64::from(n);
            }
        }
        // Lanes fill blocks in address order unless they are scattered;
        // sorting an already sorted list is a single linear pass.
        blocks.sort_unstable_by_key(|&(base, _)| base);
        blocks.dedup_by(|(base, mask), (keep_base, keep_mask)| {
            let same = base == keep_base;
            if same {
                *keep_mask |= *mask;
            }
            same
        });
        for &(base, mut mask) in blocks.iter() {
            while mask != 0 {
                let start = mask.trailing_zeros();
                let run = (mask >> start).trailing_ones();
                emit(base + u64::from(start), run);
                mask &= !(ones(run) << start);
            }
        }
    }
}

/// The `active_mask` bits that name real lanes of a `warp_size`-wide warp.
fn lane_bits(warp_size: u32) -> u32 {
    if warp_size >= u32::BITS {
        u32::MAX
    } else {
        (1 << warp_size) - 1
    }
}

/// A mask of the low `n` bits, `n <= 128`.
fn ones(n: u32) -> u128 {
    if n >= u128::BITS {
        u128::MAX
    } else {
        (1 << n) - 1
    }
}

/// Coalesces one warp store instruction into L1-egress transactions.
///
/// Lanes are grouped by cache block; within a block, contiguous runs of
/// written bytes become one transaction each (lanes writing the same byte
/// resolve to the highest-numbered lane, matching warp store semantics;
/// all lanes share `value_seed`, so every lane writes the same value).
///
/// # Examples
///
/// ```
/// use gpu_model::{coalesce_warp_store, AccessPattern, GpuConfig};
///
/// let cfg = GpuConfig::gv100();
/// // 32 lanes × 4B contiguous: one 128B transaction.
/// let txns = coalesce_warp_store(
///     &cfg,
///     &AccessPattern::Contiguous { base: 0x1000 },
///     4,
///     u32::MAX,
///     0,
/// );
/// assert_eq!(txns.len(), 1);
/// assert_eq!(txns[0].len(), 128);
/// ```
pub fn coalesce_warp_store(
    cfg: &GpuConfig,
    pattern: &AccessPattern,
    bytes_per_lane: u32,
    active_mask: u32,
    value_seed: u64,
) -> Vec<StoreTxn> {
    let mut txns = Vec::new();
    BlockMasks::default().coalesce(cfg, pattern, bytes_per_lane, active_mask, |addr, len| {
        txns.push(StoreTxn {
            addr,
            data: extent_payload(addr, len, value_seed),
        });
    });
    txns
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use sim_engine::DetRng;

    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::gv100()
    }

    /// The original per-byte coalescer, kept as the differential oracle:
    /// a map from block base to (byte address -> writing lane), one
    /// insert per written byte, later lanes overwriting earlier ones.
    fn oracle_coalesce(
        cfg: &GpuConfig,
        pattern: &AccessPattern,
        bytes_per_lane: u32,
        active_mask: u32,
        value_seed: u64,
    ) -> Vec<StoreTxn> {
        let block = u64::from(cfg.cache_block_bytes);
        let mut blocks: BTreeMap<u64, BTreeMap<u64, u32>> = BTreeMap::new();
        for lane in 0..cfg.warp_size {
            if active_mask & (1 << lane) == 0 {
                continue;
            }
            let addr = pattern.lane_addr(lane, bytes_per_lane);
            for b in 0..u64::from(bytes_per_lane) {
                let byte_addr = addr + b;
                let base = byte_addr / block * block;
                blocks.entry(base).or_default().insert(byte_addr, lane);
            }
        }
        let mut txns = Vec::new();
        for bytes in blocks.values() {
            let mut run_start: Option<u64> = None;
            let mut prev: u64 = 0;
            let mut data: Vec<u8> = Vec::new();
            for &byte_addr in bytes.keys() {
                match run_start {
                    Some(_) if byte_addr == prev + 1 => {}
                    Some(start) => {
                        txns.push(StoreTxn {
                            addr: start,
                            data: std::mem::take(&mut data),
                        });
                        run_start = Some(byte_addr);
                    }
                    None => run_start = Some(byte_addr),
                }
                prev = byte_addr;
                data.push(store_byte(byte_addr, value_seed));
            }
            if let Some(start) = run_start {
                txns.push(StoreTxn { addr: start, data });
            }
        }
        txns
    }

    /// One random warp store shape: pattern, bytes per lane, mask.
    fn random_store(rng: &mut DetRng) -> (AccessPattern, u32, u32) {
        const WIDTHS: [u32; 7] = [1, 2, 3, 4, 8, 16, 130];
        let bytes_per_lane = WIDTHS[rng.next_u64_below(WIDTHS.len() as u64) as usize];
        // Misaligned bases: any byte offset inside a small window.
        let base = rng.next_u64_below(1 << 16);
        let pattern = match rng.next_u64_below(4) {
            0 => AccessPattern::Contiguous { base },
            1 => AccessPattern::Strided {
                base,
                stride: [0, 1, 4, 32, 128, 4096][rng.next_u64_below(6) as usize],
            },
            2 => AccessPattern::Scattered {
                addrs: (0..32).map(|_| base + rng.next_u64_below(1024)).collect(),
            },
            // Fully overlapping lanes: every lane writes the same range.
            _ => AccessPattern::Scattered {
                addrs: vec![base; 32],
            },
        };
        let active_mask = match rng.next_u64_below(4) {
            0 => u32::MAX,
            1 => 0,
            _ => rng.next_u64() as u32,
        };
        (pattern, bytes_per_lane, active_mask)
    }

    #[test]
    fn mask_kernel_matches_per_byte_oracle() {
        let cfg = cfg();
        let mut rng = DetRng::new(0x69_0013, "coalescer-oracle");
        let mut nonempty = 0;
        for case in 0..12_000 {
            let (pattern, bpl, mask) = random_store(&mut rng);
            let seed = rng.next_u64();
            let got = coalesce_warp_store(&cfg, &pattern, bpl, mask, seed);
            let want = oracle_coalesce(&cfg, &pattern, bpl, mask, seed);
            assert_eq!(
                got, want,
                "case {case}: {pattern:?} bpl={bpl} mask={mask:#x}"
            );
            nonempty += usize::from(!got.is_empty());
        }
        // The generator must not degenerate into empty stores.
        assert!(nonempty > 8_000, "{nonempty}");
    }

    #[test]
    fn mask_kernel_matches_oracle_on_narrow_configs() {
        // Smaller warps and cache blocks exercise the lane and block
        // clipping that the GV100 geometry never reaches.
        let mut rng = DetRng::new(0x69_0014, "coalescer-narrow");
        for (warp_size, block) in [(8, 32), (16, 64), (32, 16)] {
            let cfg = GpuConfig {
                warp_size,
                cache_block_bytes: block,
                sector_bytes: 16.min(block),
                ..GpuConfig::gv100()
            };
            cfg.validate();
            for _ in 0..1_000 {
                let (pattern, bpl, mask) = random_store(&mut rng);
                let seed = rng.next_u64();
                assert_eq!(
                    coalesce_warp_store(&cfg, &pattern, bpl, mask, seed),
                    oracle_coalesce(&cfg, &pattern, bpl, mask, seed),
                    "warp={warp_size} block={block} {pattern:?} bpl={bpl} mask={mask:#x}"
                );
            }
        }
    }

    #[test]
    fn contiguous_warp_coalesces_to_one_line() {
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Contiguous { base: 0x2000 },
            4,
            u32::MAX,
            7,
        );
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].addr, 0x2000);
        assert_eq!(txns[0].len(), 128);
    }

    #[test]
    fn contiguous_but_misaligned_splits_at_line_boundary() {
        // Base 0x2040: 128B of writes spanning two cache blocks.
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Contiguous { base: 0x2040 },
            4,
            u32::MAX,
            0,
        );
        assert_eq!(txns.len(), 2);
        assert_eq!(txns[0].len(), 64);
        assert_eq!(txns[1].len(), 64);
        assert_eq!(txns[1].addr, 0x2080);
    }

    #[test]
    fn wide_lane_spanning_blocks_is_split() {
        // One lane writing 130B from a misaligned base covers three blocks.
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Contiguous { base: 0x7f },
            130,
            0x1,
            0,
        );
        let extents: Vec<(u64, u32)> = txns.iter().map(|t| (t.addr, t.len())).collect();
        assert_eq!(extents, vec![(0x7f, 1), (0x80, 128), (0x100, 1)]);
    }

    #[test]
    fn fully_scattered_yields_per_lane_txns() {
        // Each lane writes 8B to a distinct cache block.
        let addrs: Vec<u64> = (0..32).map(|i| 0x10_0000 + i * 4096).collect();
        let txns = coalesce_warp_store(&cfg(), &AccessPattern::Scattered { addrs }, 8, u32::MAX, 0);
        assert_eq!(txns.len(), 32);
        assert!(txns.iter().all(|t| t.len() == 8));
    }

    #[test]
    fn scattered_out_of_order_blocks_come_out_ascending() {
        let addrs: Vec<u64> = (0..32).rev().map(|i| i * 256).collect();
        let txns = coalesce_warp_store(&cfg(), &AccessPattern::Scattered { addrs }, 4, u32::MAX, 0);
        assert_eq!(txns.len(), 32);
        assert!(txns.windows(2).all(|w| w[0].addr < w[1].addr));
    }

    #[test]
    fn strided_by_32_produces_sector_sized_runs() {
        // 4B per lane, 32B stride: 4 lanes' worth of disjoint 4B runs per block.
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Strided {
                base: 0,
                stride: 32,
            },
            4,
            u32::MAX,
            0,
        );
        assert_eq!(txns.len(), 32);
        assert!(txns.iter().all(|t| t.len() == 4));
    }

    #[test]
    fn inactive_lanes_are_skipped() {
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Contiguous { base: 0 },
            4,
            0x0000_000F, // only lanes 0-3
            0,
        );
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].len(), 16);
    }

    #[test]
    fn no_active_lanes_is_empty() {
        let txns = coalesce_warp_store(&cfg(), &AccessPattern::Contiguous { base: 0 }, 4, 0, 0);
        assert!(txns.is_empty());
    }

    #[test]
    fn overlapping_lanes_merge() {
        // All lanes write the same 4 bytes.
        let addrs = vec![0x40; 32];
        let txns = coalesce_warp_store(&cfg(), &AccessPattern::Scattered { addrs }, 4, u32::MAX, 3);
        assert_eq!(txns.len(), 1);
        assert_eq!(txns[0].len(), 4);
    }

    #[test]
    fn payload_matches_store_byte() {
        let txns = coalesce_warp_store(
            &cfg(),
            &AccessPattern::Contiguous { base: 0x80 },
            4,
            0x1,
            99,
        );
        assert_eq!(txns.len(), 1);
        for (i, b) in txns[0].data.iter().enumerate() {
            assert_eq!(*b, store_byte(0x80 + i as u64, 99));
        }
    }
}
