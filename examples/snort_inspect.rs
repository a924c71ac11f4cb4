//! Snort-lite on the fast path: payload inspection keeps running for
//! subsequent packets (as a recorded payload-READ state function) and the
//! alert/log output is identical with and without SpeedyBox — the paper's
//! §VII-C1 equivalence test as a runnable walkthrough.
//!
//! Run with: `cargo run --example snort_inspect`

use speedybox::nf::snort::SnortLite;
use speedybox::nf::Nf;
use speedybox::packet::PacketBuilder;
use speedybox::platform::Chain;

const RULES: &str = r#"
pass tcp any any -> any any (content:"healthcheck";)
alert tcp any any -> any 80 (msg:"evil GET"; content:"evil";)
log tcp any any -> any any (msg:"probe seen"; content:"probe";)
"#;

fn run(speedybox: bool) -> Vec<(String, String)> {
    let ids = SnortLite::from_rules_text(RULES).expect("rules parse");
    let nfs: Vec<Box<dyn Nf>> = vec![Box::new(ids.clone())];
    let mut chain = if speedybox { Chain::speedybox(nfs) } else { Chain::original(nfs) };

    // Three flows exercising the three rule classes (Pass/Alert/Log).
    let flows: [(&str, &[u8]); 3] = [
        ("10.0.0.1:1000", b"healthcheck ok but also evil"), // pass wins
        ("10.0.0.1:2000", b"GET /evil HTTP/1.1"),           // alert
        ("10.0.0.1:3000", b"routine probe traffic"),        // log
    ];
    for (src, payload) in flows {
        for i in 0..4 {
            let p = PacketBuilder::tcp()
                .src(src.parse().unwrap())
                .dst("10.0.0.2:80".parse().unwrap())
                .seq(i)
                .payload(payload)
                .build();
            chain.process(p);
        }
    }
    ids.log().into_iter().map(|e| (e.action.to_string(), e.msg)).collect()
}

fn main() {
    let original = run(false);
    let speedy = run(true);

    println!("IDS output, original chain ({} entries):", original.len());
    for (action, msg) in &original {
        println!("  [{action}] {msg}");
    }
    println!("\nIDS output, SpeedyBox fast path ({} entries):", speedy.len());
    for (action, msg) in &speedy {
        println!("  [{action}] {msg}");
    }

    assert_eq!(original, speedy, "logs must be identical (paper §VII-C1)");
    println!("\nlogs identical across original and consolidated paths ✓");
    println!("(pass-rule flow produced no output; alert flow alerted on every packet;");
    println!(" log flow logged on every packet — including fast-path packets)");
}
