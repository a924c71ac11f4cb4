//! `repro` — regenerate the SpeedyBox paper's tables and figures.
//!
//! ```text
//! cargo run --release -p speedybox-bench --bin repro -- all
//! cargo run --release -p speedybox-bench --bin repro -- fig4 fig9
//! ```
//!
//! Available experiments: fig4, fig5, fig6, fig7, fig8, fig9, table2,
//! table3, ablation, all.

use speedybox_bench::experiments;

const USAGE: &str = "usage: repro [fig4|fig5|fig6|fig7|fig8|fig9|table2|table3|ablation|all]...";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }
    for arg in &args {
        if arg == "all" {
            for name in experiments::ALL {
                println!("{}", "=".repeat(78));
                println!("{}", experiments::render(name).expect("known experiment"));
            }
        } else if let Some(report) = experiments::render(arg) {
            println!("{report}");
        } else {
            eprintln!("unknown experiment: {arg}\n{USAGE}");
            std::process::exit(2);
        }
    }
}
