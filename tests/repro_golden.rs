//! Figure fence: every paper table and figure must regenerate byte for
//! byte. `tests/golden/repro_all.txt` is the output of `repro all`; each
//! experiment's rendered report is compared with its section of it.
//!
//! A change that is meant to move a figure regenerates the file with
//! `cargo run --release -p speedybox-bench --bin repro -- all >
//! tests/golden/repro_all.txt` and says why in its change notes.

use speedybox_bench::experiments;

const GOLDEN: &str = include_str!("golden/repro_all.txt");

#[test]
fn every_experiment_matches_the_golden_repro_output() {
    let separator = format!("{}\n", "=".repeat(78));
    let sections: Vec<&str> = GOLDEN.split(separator.as_str()).skip(1).collect();
    assert_eq!(sections.len(), experiments::ALL.len(), "one golden section per experiment");
    for (name, golden) in experiments::ALL.iter().zip(sections) {
        let report = experiments::render(name).expect("known experiment");
        assert_eq!(format!("{report}\n"), golden, "{name} drifted from the golden output");
    }
}
