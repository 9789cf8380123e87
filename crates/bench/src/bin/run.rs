//! Runs one registered experiment in-process: prints its table, with the
//! paper's numbers beside it, on stdout, and writes its JSON report to
//! `--out FILE`, or to stderr without it.
//!
//! ```sh
//! cargo run --release -p h2priv-bench --bin run -- <experiment> [trials] \
//!     [--jobs N] [--out FILE] [--trace out.jsonl] [--metrics] [--quiet]
//! ```
//!
//! Run it without an experiment to list the registered names.

fn main() {
    h2priv_bench::run_experiment(h2priv_bench::experiment_arg(1), 2);
}
