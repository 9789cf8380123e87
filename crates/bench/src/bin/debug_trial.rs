//! Deep-dive diagnostics for a single attacked trial: per-object serve
//! timing, degrees, predictor units, and the inferred vs true ranking.
//!
//! ```sh
//! cargo run --release -p h2priv-bench --bin debug_trial -- [seed=1] [--trace out.jsonl] [--metrics]
//! ```

use h2priv_bench::{obs, oinfo};
use h2priv_core::attack::AttackConfig;
use h2priv_core::experiment::run_isidewith_trial;
use h2priv_util::telemetry;

fn main() {
    let o = obs::init();
    let seed: u64 = h2priv_bench::count_arg(1, "seed", 1, "[seed=1]");
    let batch = telemetry::open_batch(&format!("debug_trial/seed_{seed}"));
    let trial = {
        let _tele = telemetry::trial_slot(batch, 0);
        run_isidewith_trial(seed, Some(AttackConfig::full_attack()))
    };

    oinfo!("attack events: {:?}", trial.result.attack.events);
    oinfo!(
        "client: rereq={} resets={} broken={} tcp_retx={} | server tcp_retx={}",
        trial.result.client.h2_rerequests,
        trial.result.client.resets_sent,
        trial.result.client.connection_broken,
        trial.result.client_tcp.retransmits(),
        trial.result.server_tcp.retransmits(),
    );

    oinfo!("\n-- objects of interest (ground truth) --");
    let mut interest = vec![
        (h2priv_web::ObjectId(4), "api/submit".to_string()),
        (trial.iw.html, "HTML".to_string()),
    ];
    for (i, img) in trial.iw.images.iter().enumerate() {
        interest.push((*img, format!("I{} ({})", i + 1, trial.iw.result_order[i])));
    }
    for (obj, label) in &interest {
        let mux = trial.result.degree(*obj);
        let serves: Vec<String> = trial
            .result
            .serve_log
            .iter()
            .filter(|s| s.object == *obj)
            .map(|s| {
                format!(
                    "copy{} req@{:.2}s fb@{} done@{} killed={}",
                    s.copy,
                    s.requested_at.as_secs_f64(),
                    s.first_byte_at
                        .map(|t| format!("{:.2}s", t.as_secs_f64()))
                        .unwrap_or("-".into()),
                    s.completed_at
                        .map(|t| format!("{:.2}s", t.as_secs_f64()))
                        .unwrap_or("-".into()),
                    s.killed
                )
            })
            .collect();
        oinfo!("  {label:<28} degrees={:?}", mux.per_copy);
        for s in serves {
            oinfo!("      {s}");
        }
    }

    {
        use h2priv_netsim::packet::Direction;
        let stream = trial.result.trace.stream(Direction::ServerToClient);
        let last_pkt = trial
            .result
            .trace
            .packets
            .last()
            .map(|p| p.time.as_secs_f64())
            .unwrap_or(0.0);
        let last_rec = stream
            .records()
            .last()
            .map(|r| r.completed_at.as_secs_f64())
            .unwrap_or(0.0);
        oinfo!(
            "\n-- s2c records={} desynced={} contiguous_end={} last_pkt@{last_pkt:.2}s last_rec@{last_rec:.2}s",
            stream.records().len(),
            stream.desynced(),
            stream.contiguous_end()
        );
    }
    {
        // Which entities bracket the HTML's best copy?
        use h2priv_core::metrics::entities;
        let ents = entities(&trial.result.wire_map);
        for e in ents.iter().filter(|e| e.id.object == trial.iw.html) {
            oinfo!(
                "\n-- html copy{} offsets [{}, {}) bytes={}",
                e.id.copy,
                e.start,
                e.end,
                e.bytes
            );
            for o in ents
                .iter()
                .filter(|o| o.id != e.id && o.start < e.end && o.end > e.start)
            {
                oinfo!(
                    "     overlapped by obj{} copy{} [{}, {}) bytes={}",
                    o.id.object.0,
                    o.id.copy,
                    o.start,
                    o.end,
                    o.bytes
                );
            }
        }
    }
    oinfo!("\n-- client request records (objects of interest) --");
    for (obj, label) in &interest {
        for r in trial
            .result
            .client
            .requests
            .iter()
            .filter(|r| r.object == *obj)
        {
            oinfo!(
                "  {label:<24} a{} {} iss@{:.2}s hdr@{} data@{} done@{} reset={}",
                r.attempt,
                r.stream,
                r.issued_at.as_secs_f64(),
                r.headers_at
                    .map(|t| format!("{:.2}", t.as_secs_f64()))
                    .unwrap_or("-".into()),
                r.first_data_at
                    .map(|t| format!("{:.2}", t.as_secs_f64()))
                    .unwrap_or("-".into()),
                r.completed_at
                    .map(|t| format!("{:.2}", t.as_secs_f64()))
                    .unwrap_or("-".into()),
                r.reset
            );
        }
    }
    oinfo!("\n-- predictor units --");
    for u in &trial.prediction.units {
        oinfo!(
            "  [{:>8.3}s..{:>8.3}s] est={:>6} recs={:>3} -> {:?}",
            u.unit.start.as_secs_f64(),
            u.unit.end.as_secs_f64(),
            u.unit.estimated_payload,
            u.unit.records,
            u.label
        );
    }

    oinfo!(
        "\npredicted order: {:?}",
        trial
            .predicted_order()
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
    );
    oinfo!(
        "truth order:     {:?}",
        trial
            .iw
            .result_order
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
    );
    oinfo!("sequence success: {:?}", trial.sequence_success());
    oinfo!("html outcome: {:?}", trial.html_outcome());
    obs::finish(&o);
}
