//! Shared measurement helpers for the experiment modules.

use speedybox_nf::Nf;
use speedybox_packet::{Packet, PacketBuilder};
use speedybox_platform::cycles::CycleModel;
use speedybox_platform::metrics::RunStats;
use speedybox_platform::{Chain, Platform};

/// Builds a chain on `platform`, original or SpeedyBox-enabled.
#[must_use]
pub fn chain_on(platform: Platform, nfs: Vec<Box<dyn Nf>>, speedybox: bool) -> Chain {
    let chain = if speedybox { Chain::speedybox(nfs) } else { Chain::original(nfs) };
    chain.with_platform(platform)
}

/// Builds an `n`-packet single-flow sequence with `payload_len`-byte
/// payloads, padded to 64 B frames (the paper's micro-benchmark packets).
#[must_use]
pub fn flow_packets(n: usize, src_port: u16, payload_len: usize) -> Vec<Packet> {
    let mut b = PacketBuilder::tcp();
    b.src(format!("10.0.0.1:{src_port}").parse().unwrap())
        .dst("10.0.0.2:80".parse().unwrap())
        .pad_to(64);
    (0..n)
        .map(|i| {
            #[allow(clippy::cast_possible_truncation)] // mod 23, and seq counters
            let payload: Vec<u8> = (0..payload_len).map(|j| b'a' + ((i + j) % 23) as u8).collect();
            #[allow(clippy::cast_possible_truncation)]
            b.seq(i as u32).payload(&payload).build()
        })
        .collect()
}

/// Steady-state measurements extracted from a run.
#[derive(Debug, Clone, Copy)]
pub struct SteadyState {
    /// Mean CPU work per packet (ring-hop CPU cost included, ring transit
    /// delay not — it is latency, not work).
    pub work_cycles: f64,
    /// Mean wall latency per packet, in cycles (transit included).
    pub latency_cycles: f64,
    /// Mean wall latency in microseconds.
    pub latency_us: f64,
}

/// Computes steady-state per-packet numbers from a run's stats.
#[must_use]
pub fn steady_state(stats: &RunStats, model: &CycleModel) -> SteadyState {
    let n = stats.sent.max(1) as f64;
    let work = stats.work_cycles.iter().sum::<u64>() as f64 / n;
    let latency = stats.mean_latency_cycles();
    SteadyState {
        work_cycles: work,
        latency_cycles: latency,
        #[allow(clippy::cast_possible_truncation)] // positive cycle count
        latency_us: model.micros(latency as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_packets_share_a_flow() {
        let pkts = flow_packets(5, 1000, 10);
        let t0 = pkts[0].five_tuple().unwrap();
        assert!(pkts.iter().all(|p| p.five_tuple().unwrap() == t0));
        assert!(pkts.iter().all(|p| p.len() >= 64));
    }

    #[test]
    fn steady_state_means_per_packet() {
        use speedybox_mat::OpCounter;
        use speedybox_platform::metrics::{PathKind, ProcessedPacket};
        let model = CycleModel::new();
        let mut stats = RunStats::default();
        for work in [1000u64, 3000] {
            stats.record(ProcessedPacket {
                packet: None,
                work_cycles: work,
                latency_cycles: work + 500,
                path: PathKind::Baseline,
                ops: OpCounter::default(),
            });
        }
        let ss = steady_state(&stats, &model);
        assert!((ss.work_cycles - 2000.0).abs() < 1e-9);
        assert!((ss.latency_cycles - 2500.0).abs() < 1e-9);
        assert!((ss.latency_us - model.micros(2500)).abs() < 1e-9);
    }
}
