//! Teardown of the one flow record the classifier and the Global MAT
//! share: `GlobalMat::remove_flow` takes a flow's rule but leaves a record
//! a packet owns, so the classifier still knows the flow; a record only
//! the control plane installed goes with its rule; and a stand-alone
//! Global MAT, with no classifier to drive its table's clock, still
//! evicts the least-recently-installed record when full.

use std::sync::Arc;

use speedybox::mat::{GlobalMat, LocalMat, NfId, OpCounter, PacketClass};
use speedybox::packet::{Fid, Packet, PacketBuilder};
use speedybox::platform::chains::ipfilter_chain;
use speedybox::platform::runtime::{SboxConfig, SpeedyBox};
use speedybox::platform::{Chain, PathKind, Platform};

fn flow(port: u16, n: usize) -> Vec<Packet> {
    (0..n)
        .map(|i| {
            PacketBuilder::tcp()
                .src(format!("10.0.0.1:{port}").parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .payload(format!("packet-{i}").as_bytes())
                .build()
        })
        .collect()
}

/// A subsequent packet whose rule was removed is steered subsequent (the
/// record is still there), misses the fast path and re-records through
/// the fallback arm, per packet and in a batch, on both platforms.
#[test]
fn removed_rule_leaves_the_flow_record() {
    use PathKind::{Initial, Subsequent};
    let pkts = flow(1000, 4);
    let tuple = pkts[0].five_tuple().unwrap();
    let fid = tuple.fid();
    for platform in Platform::ALL {
        for batched in [false, true] {
            let label = format!("{platform:?}, batched {batched}");
            let mut chain = Chain::speedybox(ipfilter_chain(3, 30)).with_platform(platform);
            let mut outcomes = Vec::new();
            for half in pkts.chunks(2) {
                if !outcomes.is_empty() {
                    let sbox = chain.sbox().unwrap();
                    sbox.global.remove_flow(fid);
                    assert_eq!(sbox.classifier.peek(&tuple), PacketClass::Subsequent, "{label}");
                    let record = sbox.global.record(fid).expect("the flow's record stays");
                    assert!(record.rule().is_none(), "{label}: its rule is gone");
                }
                if batched {
                    let mut out = Vec::new();
                    chain.process_batch_into(&mut half.to_vec(), &mut out);
                    outcomes.extend(out);
                } else {
                    outcomes.extend(half.iter().cloned().map(|p| chain.process(p)));
                }
            }
            let paths: Vec<PathKind> = outcomes.iter().map(|o| o.path).collect();
            assert_eq!(paths, [Initial, Subsequent, Initial, Subsequent], "{label}");
            assert_eq!(outcomes[2].ops.consolidations, 1, "{label}: the fallback installs");
            let snap = chain.telemetry().snapshot();
            assert_eq!((snap.flows_opened, snap.flows_closed), (1, 0), "{label}");
            assert_eq!((snap.fastpath_hits, snap.fastpath_misses), (2, 1), "{label}");
            assert_eq!((snap.rules_installed, snap.rules_removed), (2, 1), "{label}");
        }
    }
}

/// A record the control plane installed and no packet claimed holds
/// nothing but its rule: removing the rule removes the record, counting
/// a removed rule and no closed flow.
#[test]
fn removing_an_unclaimed_rule_removes_its_record() {
    let sbox = SpeedyBox::new(1, SboxConfig::default());
    let fid = Fid::new(77);
    sbox.global.install(fid, &mut OpCounter::default());
    assert_eq!(sbox.classifier.len(), 1, "an owner-less record");
    sbox.global.remove_flow(fid);
    assert!(sbox.global.record(fid).is_none());
    assert!(sbox.classifier.is_empty());
    let snap = sbox.telemetry.snapshot();
    assert_eq!((snap.rules_removed, snap.flows_closed), (1, 0));
}

#[test]
fn stand_alone_installs_evict_the_least_recently_installed() {
    let gm = GlobalMat::with_limits(vec![Arc::new(LocalMat::new(NfId::new(0)))], 1, 3);
    let mut ops = OpCounter::default();
    for n in 1..=5 {
        gm.install(Fid::new(n), &mut ops);
    }
    let kept: Vec<u32> = (1..=5).filter(|&n| gm.contains(Fid::new(n))).collect();
    assert_eq!(kept, [3, 4, 5]);
}
