//! Sweep the adversary's network parameters and watch their effect on
//! HTTP/2 multiplexing — the paper's Section IV study (Table I + Fig. 5
//! + Section IV-D) in one binary.
//!
//! ```sh
//! cargo run --release -p h2priv-core --example network_sweep -- [trials]
//! ```

use h2priv_core::experiments::{run, Experiment, Fig5, Section4d, Table1};

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(25);

    eprintln!("jitter sweep ({trials} trials/point)...");
    println!("Table I — effect of jitter:");
    println!("{}", Table1.table(&run(&Table1, trials, 10_000, 0)));

    eprintln!("bandwidth sweep ({trials} trials/point)...");
    println!("\nFig. 5 — effect of bandwidth limitation (50 ms jitter):");
    println!("{}", Fig5.table(&run(&Fig5, trials, 20_000, 0)));

    eprintln!("targeted-drop sweep ({trials} trials/point)...");
    let drops = Section4d {
        rates: &[0.5, 0.8, 0.9],
        stop_on_reset: true,
    };
    println!("\nSection IV-D — targeted drops forcing stream reset:");
    println!("{}", drops.table(&run(&drops, trials, 30_000, 0)));
}
