//! Micro-benchmarks of FinePack's hot hardware-model paths:
//! remote-write-queue insertion, packetization, wire encode/decode, L1
//! warp-store coalescing, and the simulator's event queue. These bound
//! the simulator's throughput and double as regression guards for the
//! data structures.
//!
//! Harness discipline mirrors `finepack-sim bench`: each path runs
//! explicit untimed warmup batches, then N measured reps reported as
//! mean and sample standard deviation. Plain `Instant` timing keeps the
//! harness dependency-free; absolute numbers are machine-dependent.

use std::time::Instant;

use finepack::{
    packetize, EgressPath, FinePackConfig, FinePackEgress, FinePackPacket, FlushReason,
    RemoteWriteQueue,
};
use gpu_model::{coalesce_warp_store, AccessPattern, GpuConfig, GpuId, RemoteStore};
use protocol::FramingModel;
use sim_engine::{EventQueue, SimTime, Table};

/// Untimed warmup batches before each measured path.
const WARMUP: usize = 3;

fn stores(n: u64, stride: u64, len: usize) -> Vec<RemoteStore> {
    (0..n)
        .map(|i| RemoteStore {
            src: GpuId::new(0),
            dst: GpuId::new(1),
            addr: 0x10_0000 + i * stride,
            data: vec![(i & 0xFF) as u8; len],
        })
        .collect()
}

/// Runs `f` for [`WARMUP`] untimed batches, then `reps` timed batches;
/// returns `(mean, sigma)` ns per element (sample standard deviation,
/// n-1 denominator).
fn time_per_elem<F: FnMut() -> R, R>(reps: usize, elems: u64, mut f: F) -> (f64, f64) {
    for _ in 0..WARMUP {
        std::hint::black_box(f());
    }
    let samples: Vec<f64> = (0..reps.max(2))
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_nanos() as f64 / elems as f64
        })
        .collect();
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (samples.len() - 1) as f64;
    (mean, var.sqrt())
}

fn main() {
    let mut table = Table::new(
        format!(
            "hot-path micro-benchmarks (ns per element, {WARMUP} warmup + N reps, mean and sigma)"
        ),
        &["path", "ns/elem", "sigma"],
    );
    let mut row = |name: &str, (mean, sigma): (f64, f64)| {
        table.row(&[
            name.to_string(),
            format!("{mean:.1}"),
            format!("{sigma:.1}"),
        ]);
    };

    // Remote-write-queue insertion, scattered vs dense stores.
    for (name, stride, len) in [
        ("rwq_insert/scattered_8B", 192u64, 8usize),
        ("rwq_insert/dense_128B", 128, 128),
    ] {
        let batch = stores(1024, stride, len);
        let ns = time_per_elem(21, batch.len() as u64, || {
            let mut rwq = RemoteWriteQueue::new(GpuId::new(0), FinePackConfig::paper(4));
            for s in &batch {
                let _ = rwq.insert(s).expect("valid store");
            }
            rwq.flush_all(FlushReason::Release)
        });
        row(name, ns);
    }

    // Event-queue schedule+pop churn: the store loop's credit retries
    // and any caller-driven event loop run on this heap.
    {
        const N: u64 = 65_536;
        let ns = time_per_elem(11, N, || {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..N {
                q.schedule(SimTime::from_ps(i * 700), i as u32);
            }
            let mut popped = 0u64;
            while q.pop().is_some() {
                popped += 1;
            }
            popped
        });
        row("event_queue/heap_64k", ns);
    }

    // Packetization of a full flush batch.
    let cfg = FinePackConfig::paper(4);
    let mut rwq = RemoteWriteQueue::new(GpuId::new(0), cfg);
    for s in stores(60, 192, 8) {
        rwq.insert(&s).expect("valid store");
    }
    let batch = rwq.flush_all(FlushReason::Release).remove(0);
    row(
        "packetize_60_stores",
        time_per_elem(101, 1, || {
            packetize(std::hint::black_box(&batch), &cfg, GpuId::new(0))
        }),
    );

    // Wire encode/decode of an aggregated packet.
    let pkt = packetize(&batch, &cfg, GpuId::new(0)).remove(0);
    let wire = pkt.encode();
    row(
        "packet_encode",
        time_per_elem(101, 1, || std::hint::black_box(&pkt).encode()),
    );
    row(
        "packet_decode",
        time_per_elem(101, 1, || {
            FinePackPacket::decode(
                std::hint::black_box(&wire),
                cfg.subheader,
                GpuId::new(0),
                GpuId::new(1),
            )
            .expect("valid wire")
        }),
    );

    // L1 warp-store coalescing.
    let gpu = GpuConfig::gv100();
    let contiguous = AccessPattern::Contiguous { base: 0x1000 };
    let scattered = AccessPattern::Scattered {
        addrs: (0..32).map(|i| 0x10_0000 + i * 4096).collect(),
    };
    row(
        "coalesce_contiguous_warp",
        time_per_elem(101, 1, || {
            coalesce_warp_store(&gpu, std::hint::black_box(&contiguous), 4, u32::MAX, 7)
        }),
    );
    row(
        "coalesce_scattered_warp",
        time_per_elem(101, 1, || {
            coalesce_warp_store(&gpu, std::hint::black_box(&scattered), 8, u32::MAX, 7)
        }),
    );

    // Full egress pipeline end to end.
    let batch = stores(4096, 192, 8);
    let ns = time_per_elem(11, batch.len() as u64, || {
        let mut fp = FinePackEgress::new(
            GpuId::new(0),
            FinePackConfig::paper(4),
            FramingModel::pcie_gen4(),
        );
        let mut packets = Vec::new();
        for s in &batch {
            packets.extend(fp.push(s, SimTime::ZERO).expect("valid store"));
        }
        packets.extend(fp.release());
        packets
    });
    row("egress_pipeline/finepack_end_to_end", ns);

    table.print();
}
