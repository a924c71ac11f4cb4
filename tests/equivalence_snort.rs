//! §VII-C1: "Testing Snort (different conditional branches)".
//!
//! "We inject three sets of flows containing suspicious payloads that
//! match all the three types of inspection rules (Pass/Alert/Log) of Snort
//! to cover the conditional branches sufficiently. We examine and find the
//! log outputs are identical."

use speedybox::nf::snort::{LogEntry, SnortLite};
use speedybox::nf::Nf;
use speedybox::packet::{Packet, PacketBuilder, TcpFlags};
use speedybox::platform::{Chain, Platform};

const RULES: &str = r#"
pass tcp any any -> any any (content:"healthcheck";)
alert tcp any any -> any 80 (msg:"evil GET"; content:"evil";)
alert tcp any any -> any any (msg:"exfil"; content:"XFIL"; content:"BEGIN";)
alert tcp any any -> any any (msg:"traversal"; pcre:"/(\.\./)+etc/";)
log tcp any any -> any any (msg:"probe"; content:"probe";)
log udp any any -> any any (msg:"udp beacon"; content:"beacon";)
"#;

/// Three TCP flow classes (pass/alert/log) plus a UDP log flow, 5 packets
/// each, interleaved round-robin the way real traffic arrives.
fn traffic() -> Vec<Packet> {
    let tcp_flows: [(&str, &[u8]); 5] = [
        ("10.0.0.1:1000", b"healthcheck evil probe"), // pass rule wins
        ("10.0.0.1:2000", b"GET /evil HTTP/1.1"),     // alert (port 80)
        ("10.0.0.1:3000", b"XFIL BEGIN data data"),   // alert (two contents)
        ("10.0.0.1:4000", b"a probe packet"),         // log
        ("10.0.0.1:4500", b"GET /../../etc/passwd"),  // alert (pcre)
    ];
    let mut out = Vec::new();
    for round in 0..5u32 {
        for (src, payload) in tcp_flows {
            out.push(
                PacketBuilder::tcp()
                    .src(src.parse().unwrap())
                    .dst("10.0.0.2:80".parse().unwrap())
                    .seq(round)
                    .payload(payload)
                    .build(),
            );
        }
        out.push(
            PacketBuilder::udp()
                .src("10.0.0.1:5000".parse().unwrap())
                .dst("10.0.0.2:53".parse().unwrap())
                .payload(b"udp beacon ping")
                .build(),
        );
    }
    out
}

fn run_bess(speedybox: bool) -> Vec<LogEntry> {
    let ids = SnortLite::from_rules_text(RULES).expect("rules parse");
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(ids.clone())];
    let mut chain = if speedybox { Chain::speedybox(nfs) } else { Chain::original(nfs) };
    chain.run(traffic());
    ids.log()
}

fn run_onvm(speedybox: bool) -> Vec<LogEntry> {
    let ids = SnortLite::from_rules_text(RULES).expect("rules parse");
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(ids.clone())];
    let mut chain = if speedybox {
        Chain::speedybox(nfs).with_platform(Platform::Onvm)
    } else {
        Chain::original(nfs).with_platform(Platform::Onvm)
    };
    chain.run(traffic());
    ids.log()
}

#[test]
fn log_outputs_identical_on_bess() {
    let original = run_bess(false);
    let speedy = run_bess(true);
    assert!(!original.is_empty(), "rules must fire");
    assert_eq!(original, speedy);
}

#[test]
fn log_outputs_identical_on_onvm() {
    let original = run_onvm(false);
    let speedy = run_onvm(true);
    assert_eq!(original, speedy);
}

#[test]
fn all_three_branches_covered() {
    let log = run_bess(true);
    // Pass flow: silent. Two alert flows and two log flows fire per packet.
    let alerts = log.iter().filter(|e| e.action == speedybox::nf::snort::RuleAction::Alert).count();
    let logs = log.iter().filter(|e| e.action == speedybox::nf::snort::RuleAction::Log).count();
    assert_eq!(alerts, 15, "3 alert flows x 5 packets (incl. the pcre rule)");
    assert_eq!(logs, 10, "2 log flows x 5 packets");
    assert!(log.iter().any(|e| e.msg == "traversal"), "pcre rule fires");
    assert!(!log.iter().any(|e| e.msg.contains("healthcheck")), "pass flow is silent");
}

#[test]
fn fin_cleanup_then_new_flow_reinspects() {
    let ids = SnortLite::from_rules_text(RULES).expect("rules parse");
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(ids.clone())];
    let mut chain = Chain::speedybox(nfs);
    let mk = |flags: u8, payload: &[u8]| {
        PacketBuilder::tcp()
            .src("10.0.0.1:2000".parse().unwrap())
            .dst("10.0.0.2:80".parse().unwrap())
            .flags(flags)
            .payload(payload)
            .build()
    };
    chain.process(mk(TcpFlags::SYN, b""));
    chain.process(mk(TcpFlags::ACK, b"evil one"));
    chain.process(mk(TcpFlags::FIN | TcpFlags::ACK, b""));
    // New connection on the same 5-tuple: must take the slow path again
    // and still inspect.
    let out = chain.process(mk(TcpFlags::ACK, b"evil two"));
    assert_eq!(out.path, speedybox::platform::PathKind::Initial);
    assert_eq!(ids.log().len(), 2);
}
