//! Reproduction of the paper's Section V evaluation on the isidewith
//! model: runs many attacked page loads and prints a Table II-style
//! accuracy table.
//!
//! ```sh
//! cargo run --release -p h2priv-core --example isidewith_attack -- [trials]
//! ```

use h2priv_core::experiments::{run, Experiment, Table2};

fn main() {
    let trials: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(30);
    eprintln!("running {trials} attacked page loads (Table II)...");
    println!("{}", Table2.table(&run(&Table2, trials, 77_000, 0)));
}
