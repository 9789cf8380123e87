//! Sweeps the full Section V attack across increasing network-fault
//! intensity (bursty loss, reordering, duplication, and a link flap at
//! the top end) and reports attack serialization / identification rates
//! against impairment level, writing the JSON report next to the other
//! figures.
//!
//! ```sh
//! cargo run --release -p h2priv-bench --bin robustness_sweep -- [trials=50] [--jobs N] [--trace out.jsonl] [--metrics]
//! ```

use h2priv_bench::{jobs_arg, obs, odetail, oinfo, out, shard, trials_arg};
use h2priv_core::campaign::{robustness_report, ROBUSTNESS_SWEEP};
use h2priv_core::experiments::{robustness_sweep, ROBUSTNESS_INTENSITIES};
use h2priv_core::report::{pct, pct_opt, render_table};

fn main() {
    if shard::maybe_worker(&ROBUSTNESS_SWEEP) {
        return;
    }
    let o = obs::init();
    let trials = trials_arg(ROBUSTNESS_SWEEP.default_trials);
    let jobs = jobs_arg();
    odetail!("robustness sweep: {trials} attacked downloads per intensity...");
    let rows = robustness_sweep(
        trials,
        ROBUSTNESS_SWEEP.base_seed,
        &ROBUSTNESS_INTENSITIES,
        jobs,
    );
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}", r.intensity),
                pct(r.burst_loss_pct),
                pct(r.reorder_pct),
                if r.flap { "yes".into() } else { "no".into() },
                pct_opt(r.pct_html_serialized),
                pct_opt(r.pct_success),
                pct_opt(r.retransmissions_avg),
                format!(
                    "{}/{}/{}/{}",
                    r.completed, r.stalled, r.aborted, r.horizon_exhausted
                ),
                r.retries_used.to_string(),
            ]
        })
        .collect();
    oinfo!(
        "{}",
        render_table(
            &[
                "intensity",
                "burst loss (%)",
                "reorder (%)",
                "flap",
                "HTML serialized (%)",
                "attack success (%)",
                "retransmissions (avg)",
                "ok/stall/abort/horizon",
                "retries",
            ],
            &table
        )
    );
    oinfo!("reading: the attack's forced serialization should survive mild");
    oinfo!("impairment and decay gracefully — every degraded trial is classified,");
    oinfo!("never silently folded into a success percentage.");

    let json = robustness_report(&rows);
    let out_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/robustness_sweep.json"
    );
    out::write_result_file(out_path, &json);
    odetail!("wrote {out_path}");
    out::stderr_str(&json);
    obs::finish(&o);
}
