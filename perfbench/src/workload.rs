//! Seeded trace generation for the three traffic mixes.
//!
//! Every flow is TCP: a SYN, its data packets, then a FIN. A fixed number
//! of flows is live at once; the next packet comes from a randomly picked
//! live flow, and a finished flow's slot goes to a fresh one. A candidate
//! flow whose 20-bit FID equals a live flow's is skipped: under such a
//! collision a foreign FIN frees the owner's NAT mapping on the original
//! chain but not on SpeedyBox's fast path, so outputs would diverge for a
//! reason the benchmark does not measure.

use std::collections::HashSet;
use std::net::{Ipv4Addr, SocketAddrV4};

use speedybox_packet::{FiveTuple, Packet, PacketBuilder, Protocol, TcpFlags};

/// Ethernet + IPv4 + TCP header bytes of a generated frame.
const HEADERS: usize = 54;

/// Classic IMIX frame sizes with their 7:4:1 weights.
const IMIX: [(usize, u64); 3] = [(64, 7), (576, 4), (1500, 1)];

/// Contents that chain2's Snort rules alert or log on.
const SUSPICIOUS: [&[u8]; 3] = [b"evil", b"XFIL", b"probe"];

/// Filler alphabet without letters, so clean payloads never match a rule.
const FILLER: &[u8] = b"0123456789 /:.-_+=#";

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Long flows of minimum-size frames: the fast path's read side.
    Elephants,
    /// Short flows: recording, rule install and teardown.
    MiceChurn,
    /// IMIX frames through the IDS chain: payload inspection dominates.
    IdsImix,
}

/// The shape of a workload's trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Flows in one pass of the trace.
    pub flows: usize,
    /// Flows live at once.
    pub live: usize,
    /// Median data packets per flow (log-normal).
    pub median_data: f64,
    /// Log-normal sigma of the data-packet count.
    pub sigma: f64,
    /// IMIX frame sizes instead of 64-B frames.
    pub imix: bool,
    /// Fraction of flows whose payloads carry a Snort content.
    pub suspicious: f64,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [Workload::Elephants, Workload::MiceChurn, Workload::IdsImix];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Elephants => "elephants-64b",
            Workload::MiceChurn => "mice-churn",
            Workload::IdsImix => "ids-imix",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The registry chain the workload drives.
    pub fn chain(self) -> &'static str {
        match self {
            Workload::Elephants | Workload::MiceChurn => "chain1",
            Workload::IdsImix => "chain2",
        }
    }

    /// The full-size trace shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::Elephants => Shape {
                flows: 1024,
                live: 512,
                median_data: 128.0,
                sigma: 0.1,
                imix: false,
                suspicious: 0.0,
            },
            Workload::MiceChurn => Shape {
                flows: 30_000,
                live: 1024,
                median_data: 3.0,
                sigma: 0.8,
                imix: false,
                suspicious: 0.0,
            },
            Workload::IdsImix => Shape {
                flows: 1000,
                live: 256,
                median_data: 64.0,
                sigma: 0.8,
                imix: true,
                suspicious: 0.2,
            },
        }
    }
}

/// SplitMix64: a small, fast, seedable generator. The benchmark owns its
/// randomness so a seed means the same trace on every build.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A generated trace: one pass of packets in arrival order.
#[derive(Debug)]
pub struct Trace {
    /// The packets, in arrival order.
    pub packets: Vec<Packet>,
    /// Flows in the pass.
    pub flows: usize,
    /// Candidate flows skipped because their FID was live or their
    /// 5-tuple already used.
    pub skipped: usize,
}

/// A live flow being emitted.
struct Live {
    template: PacketBuilder,
    fid: u32,
    seq: u32,
    data_left: usize,
    fin_sent: bool,
    pattern: Option<&'static [u8]>,
}

/// Generates `workload`'s trace for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Trace {
    generate_shape(workload.shape(), seed)
}

/// Generates a trace of the given shape; the same shape and seed give
/// byte-identical packets.
pub fn generate_shape(shape: Shape, seed: u64) -> Trace {
    let mut rng = Rng::new(seed ^ 0x5bee_d1b0_0000_0000);
    let filler: Vec<u8> =
        (0..4096).map(|_| FILLER[rng.below(FILLER.len() as u64) as usize]).collect();
    let mut used: HashSet<FiveTuple> = HashSet::new();
    let mut live_fids: HashSet<u32> = HashSet::new();
    let mut live: Vec<Live> = Vec::with_capacity(shape.live);
    let mut packets = Vec::new();
    let mut created = 0usize;
    let mut skipped = 0usize;
    let mut payload = Vec::with_capacity(1500);
    loop {
        while created < shape.flows && live.len() < shape.live.max(1) {
            let tuple = FiveTuple::new(
                Ipv4Addr::new(
                    10,
                    rng.below(256) as u8,
                    rng.below(256) as u8,
                    1 + rng.below(254) as u8,
                ),
                1024 + rng.below(64_000) as u16,
                Ipv4Addr::new(10, 99, 99, 99),
                80,
                Protocol::Tcp,
            );
            let fid = tuple.fid().index() as u32;
            if live_fids.contains(&fid) || !used.insert(tuple) {
                skipped += 1;
                continue;
            }
            live_fids.insert(fid);
            let mut template = PacketBuilder::tcp();
            template
                .src(SocketAddrV4::new(tuple.src_ip, tuple.src_port))
                .dst(SocketAddrV4::new(tuple.dst_ip, tuple.dst_port))
                .pad_to(64);
            let pattern = (rng.unit() < shape.suspicious)
                .then(|| SUSPICIOUS[rng.below(SUSPICIOUS.len() as u64) as usize]);
            live.push(Live {
                template,
                fid,
                seq: 0,
                data_left: lognormal(&mut rng, shape.median_data, shape.sigma),
                fin_sent: false,
                pattern,
            });
            created += 1;
        }
        if live.is_empty() {
            break;
        }
        let i = rng.below(live.len() as u64) as usize;
        let flow = &mut live[i];
        if flow.seq == 0 {
            flow.template.flags(TcpFlags::SYN).seq(0).payload(&[]);
        } else if flow.data_left > 0 {
            let frame = if shape.imix { imix_frame(&mut rng) } else { 64 };
            fill_payload(&mut payload, frame - HEADERS, &filler, flow.pattern, &mut rng);
            flow.template.flags(TcpFlags::ACK | TcpFlags::PSH).seq(flow.seq).payload(&payload);
            flow.data_left -= 1;
        } else {
            flow.template.flags(TcpFlags::FIN | TcpFlags::ACK).seq(flow.seq).payload(&[]);
            flow.fin_sent = true;
        }
        flow.seq += 1;
        packets.push(flow.template.build());
        if flow.fin_sent {
            live_fids.remove(&flow.fid);
            live.swap_remove(i);
        }
    }
    Trace { packets, flows: created, skipped }
}

/// A log-normal data-packet count with the given median, at least 1.
fn lognormal(rng: &mut Rng, median: f64, sigma: f64) -> usize {
    let u1 = rng.unit().max(1e-12);
    let u2 = rng.unit();
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (median.ln() + sigma * z).exp().round().clamp(1.0, 20.0 * median) as usize
}

/// An IMIX frame size.
fn imix_frame(rng: &mut Rng) -> usize {
    let total: u64 = IMIX.iter().map(|&(_, w)| w).sum();
    let mut pick = rng.below(total);
    for &(frame, w) in &IMIX {
        if pick < w {
            return frame;
        }
        pick -= w;
    }
    unreachable!("pick is below the weight total")
}

/// Fills `out` with `len` filler bytes, embedding `pattern` at a random
/// offset when it fits.
fn fill_payload(
    out: &mut Vec<u8>,
    len: usize,
    filler: &[u8],
    pattern: Option<&[u8]>,
    rng: &mut Rng,
) {
    let start = rng.below((filler.len() - len) as u64) as usize;
    out.clear();
    out.extend_from_slice(&filler[start..start + len]);
    if let Some(p) = pattern.filter(|p| p.len() <= len) {
        let off = rng.below((len - p.len() + 1) as u64) as usize;
        out[off..off + p.len()].copy_from_slice(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts packets whose FID belongs to a different live flow — zero for
    /// every generated trace. A flow is live from its SYN to its FIN.
    fn live_fid_conflicts(packets: &[Packet]) -> usize {
        let mut owners: std::collections::HashMap<u32, FiveTuple> =
            std::collections::HashMap::new();
        let mut conflicts = 0;
        for p in packets {
            let tuple = p.five_tuple().expect("generated packets parse");
            let fid = tuple.fid().index() as u32;
            let flags = p.tcp_flags();
            if flags.syn() {
                if owners.insert(fid, tuple).is_some() {
                    conflicts += 1;
                }
            } else if owners.get(&fid) != Some(&tuple) {
                conflicts += 1;
            }
            if flags.closes_flow() {
                owners.remove(&fid);
            }
        }
        conflicts
    }

    fn small(workload: Workload) -> Shape {
        let shape = workload.shape();
        Shape { flows: shape.flows.min(600), live: shape.live.min(64), ..shape }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = generate_shape(small(w), 7);
            let b = generate_shape(small(w), 7);
            let c = generate_shape(small(w), 8);
            assert_eq!(a.packets.len(), b.packets.len(), "{}", w.name());
            assert!(a.packets.iter().zip(&b.packets).all(|(x, y)| x.as_bytes() == y.as_bytes()));
            let same = a.packets.len() == c.packets.len()
                && a.packets.iter().zip(&c.packets).all(|(x, y)| x.as_bytes() == y.as_bytes());
            assert!(!same, "{}: seeds 7 and 8 gave the same trace", w.name());
        }
    }

    #[test]
    fn no_two_live_flows_share_a_fid() {
        for w in Workload::ALL {
            let t = generate(w, 3);
            assert_eq!(t.flows, w.shape().flows);
            assert_eq!(live_fid_conflicts(&t.packets), 0, "{}", w.name());
        }
    }

    #[test]
    fn skipping_is_exercised_and_the_checker_sees_collisions() {
        // Tiny FID-space pressure: many live flows make a skip likely, and
        // a hand-built collision must be caught by the checker.
        let t = generate(Workload::MiceChurn, 11);
        assert!(t.skipped > 0, "30k flows over a 20-bit FID space should hit a live FID");
        let mut owner = None;
        let mut probe = Rng::new(1);
        let mut seen: std::collections::HashMap<u32, FiveTuple> = std::collections::HashMap::new();
        while owner.is_none() {
            let tuple = FiveTuple::new(
                Ipv4Addr::new(10, probe.below(256) as u8, probe.below(256) as u8, 1),
                1024 + probe.below(64_000) as u16,
                Ipv4Addr::new(10, 99, 99, 99),
                80,
                Protocol::Tcp,
            );
            match seen.insert(tuple.fid().index() as u32, tuple) {
                Some(prev) if prev != tuple => owner = Some((prev, tuple)),
                _ => {}
            }
        }
        let (a, b) = owner.expect("found a colliding pair");
        let syn = |t: FiveTuple| {
            PacketBuilder::tcp()
                .src(SocketAddrV4::new(t.src_ip, t.src_port))
                .dst(SocketAddrV4::new(t.dst_ip, t.dst_port))
                .flags(TcpFlags::SYN)
                .build()
        };
        assert_eq!(live_fid_conflicts(&[syn(a), syn(b)]), 1);
    }

    #[test]
    fn shapes_match_their_descriptions() {
        let e = generate(Workload::Elephants, 1);
        assert!(e.packets.iter().all(|p| p.len() == 64));
        let per_flow = e.packets.len() as f64 / e.flows as f64;
        assert!((120.0..140.0).contains(&per_flow), "elephant flows average {per_flow} packets");

        let m = generate(Workload::MiceChurn, 1);
        let syns = m.packets.iter().filter(|p| p.tcp_flags().syn()).count() as f64;
        let share = syns / m.packets.len() as f64;
        assert!((0.12..0.22).contains(&share), "mice initial-packet share {share}");

        let ids = generate(Workload::IdsImix, 1);
        assert!(ids.packets.iter().any(|p| p.len() == 1500));
        assert!(ids.packets.iter().any(|p| p.len() == 576));
    }
}
