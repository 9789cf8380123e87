//! `run defense_matrix` under its own name: the attack × defense ×
//! transport matrix, with the trial count as the first argument.
//!
//! ```sh
//! cargo run --release -p h2priv-bench --bin defense_matrix -- [trials=25] [--jobs N] [--out FILE]
//! ```

fn main() {
    let entry = h2priv_core::experiments::named("defense_matrix").expect("registered");
    h2priv_bench::run_experiment(entry, 1);
}
