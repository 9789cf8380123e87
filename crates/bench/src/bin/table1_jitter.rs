//! Regenerates **Table I** — effect of jitter on HTTP/2 multiplexing of
//! the 6th object (the result HTML).
//!
//! ```sh
//! cargo run --release -p h2priv-bench --bin table1_jitter -- [trials=100] [--jobs N] [--trace out.jsonl] [--metrics]
//! ```

use h2priv_bench::{jobs_arg, obs, odetail, oinfo, shard, trials_arg};
use h2priv_core::campaign::TABLE1;
use h2priv_core::experiments::table1;
use h2priv_core::report::{pct, render_table, to_json};

fn main() {
    if shard::maybe_worker(&TABLE1) {
        return;
    }
    let o = obs::init();
    let trials = trials_arg(TABLE1.default_trials);
    let jobs = jobs_arg();
    odetail!("Table I: {trials} downloads per jitter value...");
    let rows = table1(trials, TABLE1.base_seed, jobs);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.jitter_ms.to_string(),
                pct(r.pct_not_multiplexed),
                format!("{:.1}", r.retransmissions_avg),
                pct(r.retrans_increase_pct),
            ]
        })
        .collect();
    oinfo!(
        "{}",
        render_table(
            &[
                "increase in delay per request (ms)",
                "object not multiplexed (%)",
                "retransmissions (avg)",
                "increase in retransmissions (%)",
            ],
            &table
        )
    );
    oinfo!("paper Table I: 0/25/50/100 ms -> 32/46/54/54 % ; retrans +0/+33/+130/+194 %");
    odetail!("{}", to_json(&rows));
    obs::finish(&o);
}
