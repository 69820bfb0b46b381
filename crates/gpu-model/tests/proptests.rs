//! Randomized property tests for the GPU model: the L1 coalescer must
//! cover exactly the bytes the warp wrote, with per-lane conflict
//! resolution, and replay must route cleanly by address ownership.

use std::collections::{HashMap, HashSet};

use gpu_model::{
    coalesce_warp_store, store_byte, AccessPattern, AddressMap, Gpu, GpuConfig, GpuId, KernelTrace,
    MemoryImage, TraceOp,
};
use sim_engine::DetRng;

fn scattered_warp(rng: &mut DetRng) -> (Vec<u64>, u32, u32) {
    let elem = [1u32, 2, 4, 8][rng.next_u64_below(4) as usize];
    let addrs: Vec<u64> = (0..32)
        .map(|_| rng.next_u64_below(4096) * u64::from(elem))
        .collect();
    let mask = rng.next_u64() as u32;
    (addrs, elem, mask)
}

/// The union of transaction byte ranges equals the union of active
/// lanes' write ranges; transactions never overlap; data honors
/// highest-lane-wins on conflicts.
#[test]
fn coalescer_covers_exactly_the_written_bytes() {
    let cfg = GpuConfig::gv100();
    let mut rng = DetRng::new(0x69_0001, "coalescer");
    for _ in 0..256 {
        let (addrs, elem, mask) = scattered_warp(&mut rng);
        let seed = rng.next_u64();
        let txns = coalesce_warp_store(
            &cfg,
            &AccessPattern::Scattered {
                addrs: addrs.clone(),
            },
            elem,
            mask,
            seed,
        );
        // Expected byte set with highest-lane-wins resolution.
        let mut expected: HashMap<u64, ()> = HashMap::new();
        for lane in 0..32u32 {
            if mask & (1 << lane) == 0 {
                continue;
            }
            for b in 0..u64::from(elem) {
                expected.insert(addrs[lane as usize] + b, ());
            }
        }
        let mut covered: HashMap<u64, ()> = HashMap::new();
        for t in &txns {
            assert!(!t.is_empty());
            // A transaction never crosses a cache block.
            let first_block = t.addr / 128;
            let last_block = (t.addr + u64::from(t.len()) - 1) / 128;
            assert_eq!(first_block, last_block);
            for i in 0..u64::from(t.len()) {
                let dup = covered.insert(t.addr + i, ());
                assert!(dup.is_none(), "byte {:#x} covered twice", t.addr + i);
                // Every data byte is the deterministic store pattern.
                assert_eq!(t.data[i as usize], store_byte(t.addr + i, seed));
            }
        }
        assert_eq!(covered.len(), expected.len());
        for k in expected.keys() {
            assert!(covered.contains_key(k));
        }
    }
}

/// Replay routes every coalesced transaction by ownership: each remote
/// egress goes to the owner of its address, never back to the issuing
/// GPU, and stays inside the owner's window; local plus remote bytes
/// equal the distinct bytes the warp stores wrote.
#[test]
fn replay_routes_by_ownership_and_conserves_bytes() {
    const WINDOW: u64 = 1 << 20;
    let map = AddressMap::new(4, WINDOW);
    let mut rng = DetRng::new(0x69_0002, "routing");
    for _ in 0..200 {
        let src = GpuId::new(rng.next_u64_below(4) as u8);
        let gpu = Gpu::new(GpuConfig::tiny(), src, map);
        let mut trace = KernelTrace::new("route");
        let mut written = 0u64;
        for _ in 0..rng.next_in_range(1, 16) {
            // Lanes land near window boundaries so stores mix local and
            // remote bytes, and wide lanes straddle cache blocks.
            let addrs: Vec<u64> = (0..32)
                .map(|_| rng.next_in_range(1, 4) * WINDOW - 256 + rng.next_u64_below(512))
                .collect();
            let bytes_per_lane = [1u32, 4, 8, 130][rng.next_u64_below(4) as usize];
            let active_mask = rng.next_u64() as u32;
            let mut bytes = HashSet::new();
            for (lane, &a) in addrs.iter().enumerate() {
                if active_mask & (1 << lane) != 0 {
                    bytes.extend(a..a + u64::from(bytes_per_lane));
                }
            }
            written += bytes.len() as u64;
            trace.push(TraceOp::WarpStore {
                pattern: AccessPattern::Scattered { addrs },
                bytes_per_lane,
                active_mask,
                value_seed: rng.next_u64(),
            });
        }
        let run = gpu.execute_kernel(&trace);
        for t in &run.egress {
            let s = &t.store;
            assert_eq!(s.src, src);
            assert_ne!(s.dst, src);
            assert_eq!(s.dst, map.owner(s.addr));
            assert_eq!(s.dst, map.owner(s.addr + u64::from(s.len()) - 1));
        }
        let remote: u64 = run.egress.iter().map(|t| u64::from(t.store.len())).sum();
        assert_eq!(remote, run.stats.remote_bytes);
        assert_eq!(run.stats.local_bytes + run.stats.remote_bytes, written);
    }
}

/// MemoryImage::same_contents is an equivalence on random write sets.
#[test]
fn memory_image_equivalence() {
    let mut rng = DetRng::new(0x69_0003, "memimage");
    for _ in 0..100 {
        let n = rng.next_u64_below(64) as usize;
        let writes: Vec<(u64, usize, u8)> = (0..n)
            .map(|_| {
                (
                    rng.next_u64_below(65536),
                    rng.next_in_range(1, 32) as usize,
                    rng.next_u64() as u8,
                )
            })
            .collect();
        let mut a = MemoryImage::new();
        let mut b = MemoryImage::new();
        for (addr, len, v) in &writes {
            a.write(*addr, &vec![*v; *len]);
        }
        for (addr, len, v) in &writes {
            b.write(*addr, &vec![*v; *len]);
        }
        assert!(a.same_contents(&b));
        assert!(b.same_contents(&a));
        if let Some((addr, _, _)) = writes.first() {
            // Flip one byte: the images must now differ.
            let cur = a.read(*addr, 1)[0];
            b.write(*addr, &[cur ^ 0xFF]);
            assert!(!a.same_contents(&b));
        }
    }
}
