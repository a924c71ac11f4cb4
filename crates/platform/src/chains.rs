//! Ready-made service chains from the paper's evaluation (§VII).
//!
//! Each builder returns the boxed NF list plus cloned handles to the
//! stateful NFs so callers can inspect counters, logs and backends — our
//! NFs share their state through `Arc`, so a clone observes the chain's
//! live state.

use std::net::Ipv4Addr;

use speedybox_mat::state_fn::PayloadAccess;
use speedybox_nf::dosguard::DosGuard;
use speedybox_nf::ipfilter::IpFilter;
use speedybox_nf::maglev::Maglev;
use speedybox_nf::mazunat::MazuNat;
use speedybox_nf::monitor::Monitor;
use speedybox_nf::snort::SnortLite;
use speedybox_nf::synthetic::{SyntheticNf, SyntheticSf};
use speedybox_nf::vpn::VpnGateway;
use speedybox_nf::Nf;

/// Default rule set used wherever a Snort instance is needed.
pub const DEFAULT_SNORT_RULES: &str = r#"
alert tcp any any -> any 80 (msg:"suspicious GET"; content:"evil";)
alert tcp any any -> any any (msg:"exfil marker"; content:"XFIL";)
log tcp any any -> any any (msg:"debug probe"; content:"probe";)
pass tcp any any -> any any (content:"healthcheck";)
log udp any any -> any any (msg:"udp beacon"; content:"beacon";)
"#;

/// A chain of `n` pass-through IPFilters with `rules` ACL entries each —
/// Fig 4 / Fig 8's workload ("The ACL rules of the IPFilters are carefully
/// modified to avoid packet drops").
#[must_use]
pub fn ipfilter_chain(n: usize, rules: usize) -> Vec<Box<dyn Nf>> {
    (0..n).map(|_| Box::new(IpFilter::pass_through(rules)) as Box<dyn Nf>).collect()
}

/// Fig 5's chain: `n` identical synthetic NFs whose only work is a
/// Snort-inspection-equivalent payload-READ state function.
#[must_use]
pub fn synthetic_sf_chain(n: usize, scan_passes: u32) -> Vec<Box<dyn Nf>> {
    (0..n)
        .map(|i| {
            Box::new(
                SyntheticNf::forward(format!("synthetic-{i}"))
                    .with_state_function(SyntheticSf { access: PayloadAccess::Read, scan_passes }),
            ) as Box<dyn Nf>
        })
        .collect()
}

/// Handles into the Snort+Monitor chain (Fig 6/7).
#[derive(Debug, Clone)]
pub struct SnortMonitorHandles {
    /// The IDS (shared log).
    pub snort: SnortLite,
    /// The monitor (shared counters).
    pub monitor: Monitor,
}

/// Fig 6/7's chain: Snort followed by a Monitor. "Both of them have header
/// actions and state functions, and thus will benefit from the two
/// optimizations simultaneously."
///
/// # Panics
/// Panics if the built-in rule set fails to parse (programming error).
#[must_use]
pub fn snort_monitor_chain() -> (Vec<Box<dyn Nf>>, SnortMonitorHandles) {
    let snort = SnortLite::from_rules_text(DEFAULT_SNORT_RULES).expect("built-in rules parse");
    let monitor = Monitor::new();
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(snort.clone()), Box::new(monitor.clone())];
    (nfs, SnortMonitorHandles { snort, monitor })
}

/// Handles into Chain 1 (§VII-B3).
#[derive(Debug, Clone)]
pub struct Chain1Handles {
    /// The NAT (mappings).
    pub nat: MazuNat,
    /// The load balancer (backends/connections).
    pub maglev: Maglev,
    /// The monitor (counters).
    pub monitor: Monitor,
}

/// Chain 1 of the real-world evaluation:
/// MazuNAT → Maglev → Monitor → IPFilter (the §II motivation chain).
///
/// `backends` is the Maglev pool size.
#[must_use]
pub fn chain1(backends: usize) -> (Vec<Box<dyn Nf>>, Chain1Handles) {
    let nat = MazuNat::new(Ipv4Addr::new(198, 51, 100, 1), (40000, 60000));
    let maglev = Maglev::new(
        (0..backends.max(1))
            .map(|i| (format!("backend-{i}"), format!("10.1.0.{}:8080", i + 1).parse().unwrap()))
            .collect::<Vec<(String, _)>>(),
        251,
    );
    let monitor = Monitor::new();
    let fw = IpFilter::pass_through(30);
    let nfs: Vec<Box<dyn Nf>> = vec![
        Box::new(nat.clone()),
        Box::new(maglev.clone()),
        Box::new(monitor.clone()),
        Box::new(fw),
    ];
    (nfs, Chain1Handles { nat, maglev, monitor })
}

/// Handles into Chain 2 (§VII-B3).
#[derive(Debug, Clone)]
pub struct Chain2Handles {
    /// The IDS (shared log).
    pub snort: SnortLite,
    /// The monitor (shared counters).
    pub monitor: Monitor,
}

/// Chain 2 of the real-world evaluation: IPFilter → Snort → Monitor.
///
/// # Panics
/// Panics if the built-in rule set fails to parse (programming error).
#[must_use]
pub fn chain2() -> (Vec<Box<dyn Nf>>, Chain2Handles) {
    let fw = IpFilter::pass_through(30);
    let snort = SnortLite::from_rules_text(DEFAULT_SNORT_RULES).expect("built-in rules parse");
    let monitor = Monitor::new();
    let nfs: Vec<Box<dyn Nf>> =
        vec![Box::new(fw), Box::new(snort.clone()), Box::new(monitor.clone())];
    (nfs, Chain2Handles { snort, monitor })
}

/// The VPN tunnel walkthrough (`examples/vpn_tunnel.rs`): tunnel ingress →
/// monitored core → tunnel egress, all on security association `spi`. The
/// in-chain encap/decap pair annihilates under consolidation, so the
/// flow's fast-path rule reduces to the monitor's counter alone.
#[must_use]
pub fn vpn_tunnel_chain(spi: u32) -> (Vec<Box<dyn Nf>>, Monitor) {
    let monitor = Monitor::new();
    let nfs: Vec<Box<dyn Nf>> = vec![
        Box::new(VpnGateway::encap(spi)),
        Box::new(monitor.clone()),
        Box::new(VpnGateway::decap(spi)),
    ];
    (nfs, monitor)
}

/// The Fig 3 DoS-mitigation walkthrough (`examples/dos_mitigation.rs`):
/// MazuNAT followed by a DoS guard that flips the flow's rule to `drop`
/// through the Event Table once `threshold` SYNs are seen.
#[must_use]
pub fn dos_mitigation_chain(threshold: u64) -> (Vec<Box<dyn Nf>>, DosGuard) {
    let nat = MazuNat::new(Ipv4Addr::new(198, 51, 100, 1), (40000, 60000));
    let guard = DosGuard::new(threshold);
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(nat), Box::new(guard.clone())];
    (nfs, guard)
}

/// The Maglev failover walkthrough (`examples/maglev_failover.rs`): a lone
/// load balancer over `backends` backends whose recurring `maglev.reroute`
/// event re-routes flows off failed backends on the fast path.
#[must_use]
pub fn maglev_failover_chain(backends: usize) -> (Vec<Box<dyn Nf>>, Maglev) {
    let maglev = Maglev::new(
        (0..backends.max(1))
            .map(|i| (format!("backend-{i}"), format!("10.1.0.{}:8080", i + 1).parse().unwrap()))
            .collect::<Vec<(String, _)>>(),
        251,
    );
    (vec![Box::new(maglev.clone()) as Box<dyn Nf>], maglev)
}

/// The Snort inspection walkthrough (`examples/snort_inspect.rs`): the IDS
/// alone, with the default rule set — its payload-READ state function keeps
/// inspecting on the fast path.
///
/// # Panics
/// Panics if the built-in rule set fails to parse (programming error).
#[must_use]
pub fn snort_chain() -> (Vec<Box<dyn Nf>>, SnortLite) {
    let snort = SnortLite::from_rules_text(DEFAULT_SNORT_RULES).expect("built-in rules parse");
    (vec![Box::new(snort.clone()) as Box<dyn Nf>], snort)
}

/// Every chain name the CLI accepts, with the parameterized forms shown in
/// their `name:<N>` shape, plus a one-line description. `lint --all`,
/// `speedybox chains` and the simulation harness's `--all` sweep iterate
/// this.
pub const CHAIN_REGISTRY: &[(&str, &str)] = &[
    ("chain1", "MazuNAT -> Maglev -> Monitor -> IPFilter (paper §VII-B3)"),
    ("chain2", "IPFilter -> Snort -> Monitor (paper §VII-B3)"),
    ("snort-monitor", "Snort -> Monitor (paper Fig 6/7)"),
    ("ipfilter:<N>", "N pass-through firewalls (paper Fig 4/8)"),
    ("synthetic:<N>", "N Snort-like synthetic NFs (paper Fig 5)"),
    ("vpn-tunnel", "VPN encap -> Monitor -> VPN decap (in-chain annihilation)"),
    ("dos-mitigation", "MazuNAT -> DosGuard (paper Fig 3 event rewrite)"),
    ("maglev-failover", "Maglev alone with recurring reroute event"),
    ("snort", "Snort alone (payload-READ state function)"),
];

/// The concrete chain names sweep tools (`lint --all`, `sim --all`) run
/// over: every registry entry, parameterized ones pinned to representative
/// sizes.
pub const ALL_CHAINS: &[&str] = &[
    "chain1",
    "chain2",
    "snort-monitor",
    "ipfilter:3",
    "synthetic:3",
    "vpn-tunnel",
    "dos-mitigation",
    "maglev-failover",
    "snort",
];

/// Cloned handles into whichever stateful NFs a registry chain contains.
/// Our NFs share state through `Arc`, so a handle observes (and can
/// mutate — e.g. [`Maglev::fail_backend`]) the live chain. Harnesses use
/// these to inject faults and to cross-check NF-level counters.
#[derive(Debug, Clone, Default)]
pub struct ChainHooks {
    /// The NAT, when present (chain1, dos-mitigation).
    pub nat: Option<MazuNat>,
    /// The load balancer, when present (chain1, maglev-failover).
    pub maglev: Option<Maglev>,
    /// The monitor, when present.
    pub monitor: Option<Monitor>,
    /// The IDS, when present.
    pub snort: Option<SnortLite>,
    /// The DoS guard, when present (dos-mitigation).
    pub dos: Option<DosGuard>,
}

/// Builds a chain by registry name, returning the NFs plus handles to the
/// chain's stateful NFs. `ipfilter:<N>` and `synthetic:<N>` take a chain
/// length.
///
/// # Errors
/// Returns a message naming the unknown chain or the malformed length.
pub fn build_chain_hooks(name: &str) -> Result<(Vec<Box<dyn Nf>>, ChainHooks), String> {
    if let Some(n) = name.strip_prefix("ipfilter:") {
        let n: usize = n.parse().map_err(|_| format!("bad chain length in {name}"))?;
        return Ok((ipfilter_chain(n, 200), ChainHooks::default()));
    }
    if let Some(n) = name.strip_prefix("synthetic:") {
        let n: usize = n.parse().map_err(|_| format!("bad chain length in {name}"))?;
        return Ok((synthetic_sf_chain(n, 80), ChainHooks::default()));
    }
    match name {
        "chain1" => {
            let (nfs, h) = chain1(8);
            let hooks = ChainHooks {
                nat: Some(h.nat),
                maglev: Some(h.maglev),
                monitor: Some(h.monitor),
                ..ChainHooks::default()
            };
            Ok((nfs, hooks))
        }
        "chain2" => {
            let (nfs, h) = chain2();
            let hooks = ChainHooks {
                snort: Some(h.snort),
                monitor: Some(h.monitor),
                ..ChainHooks::default()
            };
            Ok((nfs, hooks))
        }
        "snort-monitor" => {
            let (nfs, h) = snort_monitor_chain();
            let hooks = ChainHooks {
                snort: Some(h.snort),
                monitor: Some(h.monitor),
                ..ChainHooks::default()
            };
            Ok((nfs, hooks))
        }
        "vpn-tunnel" => {
            let (nfs, monitor) = vpn_tunnel_chain(0x1001);
            Ok((nfs, ChainHooks { monitor: Some(monitor), ..ChainHooks::default() }))
        }
        "dos-mitigation" => {
            let (nfs, dos) = dos_mitigation_chain(5);
            Ok((nfs, ChainHooks { dos: Some(dos), ..ChainHooks::default() }))
        }
        "maglev-failover" => {
            let (nfs, maglev) = maglev_failover_chain(4);
            Ok((nfs, ChainHooks { maglev: Some(maglev), ..ChainHooks::default() }))
        }
        "snort" => {
            let (nfs, snort) = snort_chain();
            Ok((nfs, ChainHooks { snort: Some(snort), ..ChainHooks::default() }))
        }
        other => Err(format!("unknown chain: {other} (try `speedybox chains`)")),
    }
}

/// Builds a chain by registry name, discarding the handles.
///
/// # Errors
/// Returns a message naming the unknown chain or the malformed length.
pub fn build_chain(name: &str) -> Result<Vec<Box<dyn Nf>>, String> {
    build_chain_hooks(name).map(|(nfs, _)| nfs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_build_with_hooks() {
        for name in ALL_CHAINS {
            let (nfs, _) = build_chain_hooks(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(!nfs.is_empty(), "{name} built an empty chain");
        }
        assert!(build_chain_hooks("nope").is_err());
        assert!(build_chain_hooks("ipfilter:x").is_err());
    }

    #[test]
    fn hooks_expose_the_expected_nfs() {
        let (_, h) = build_chain_hooks("chain1").unwrap();
        assert!(h.nat.is_some() && h.maglev.is_some() && h.monitor.is_some());
        let (_, h) = build_chain_hooks("dos-mitigation").unwrap();
        assert!(h.dos.is_some());
        let (_, h) = build_chain_hooks("ipfilter:2").unwrap();
        assert!(h.nat.is_none() && h.maglev.is_none());
    }

    #[test]
    fn builders_produce_expected_lengths() {
        assert_eq!(ipfilter_chain(3, 10).len(), 3);
        assert_eq!(synthetic_sf_chain(2, 5).len(), 2);
        assert_eq!(snort_monitor_chain().0.len(), 2);
        assert_eq!(chain1(4).0.len(), 4);
        assert_eq!(chain2().0.len(), 3);
        assert_eq!(vpn_tunnel_chain(0x1001).0.len(), 3);
        assert_eq!(dos_mitigation_chain(5).0.len(), 2);
        assert_eq!(maglev_failover_chain(4).0.len(), 1);
        assert_eq!(snort_chain().0.len(), 1);
    }

    #[test]
    fn chain1_flows_share_one_template_until_torn_down() {
        use speedybox_packet::{PacketBuilder, TcpFlags};

        use crate::Chain;

        let segment = |f: u16, flags: u8| {
            PacketBuilder::tcp()
                .src(format!("10.0.{}.1:{}", f / 200, 1024 + f).parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .flags(flags)
                .payload(b"x")
                .build()
        };
        let mut chain = Chain::speedybox(chain1(8).0);
        for f in 0..256 {
            chain.process(segment(f, TcpFlags::SYN));
        }
        let global = &chain.sbox().expect("speedybox").global;
        assert_eq!(global.len(), 256, "every flow installed its rule");
        assert_eq!(global.templates(), 1, "chain1's flows share one template");
        for f in 0..256 {
            chain.process(segment(f, TcpFlags::FIN | TcpFlags::ACK));
        }
        let global = &chain.sbox().expect("speedybox").global;
        assert!(global.is_empty(), "FIN tore every flow down");
        global.collect_generations();
        assert_eq!(global.templates(), 0, "and the cache with them");
    }

    #[test]
    fn handles_observe_chain_state() {
        use speedybox_packet::PacketBuilder;

        use crate::Chain;

        let (nfs, handles) = chain2();
        let mut chain = Chain::speedybox(nfs);
        let pkts: Vec<_> = (0..5)
            .map(|i| {
                PacketBuilder::tcp()
                    .src("10.0.0.1:1234".parse().unwrap())
                    .dst("10.0.0.2:80".parse().unwrap())
                    .payload(format!("pkt {i} with evil inside").as_bytes())
                    .build()
            })
            .collect();
        chain.run(pkts);
        assert_eq!(handles.monitor.flow_count(), 1);
        assert_eq!(handles.snort.log().len(), 5, "every packet matched the alert rule");
    }
}
