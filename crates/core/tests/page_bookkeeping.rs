//! The page-load model's bookkeeping, checked on both transports.
//!
//! The browser's request records and the server's serve log are the
//! ground truth every metric joins against, and the attack drives the
//! recovery paths (re-requests, reset volleys, duplicate copies) that
//! write them. These invariants hold on every trial, attacked or not,
//! over TCP/HTTP-2 and over QUIC/HTTP-3 alike.

use h2priv_core::attack::{AttackConfig, TransportKind};
use h2priv_core::experiment::{run_isidewith_trial_with, IsideWithTrial, TrialOptions};
use h2priv_netsim::time::SimTime;
use std::collections::{HashMap, HashSet};

fn trial(seed: u64, attack: Option<AttackConfig>, transport: TransportKind) -> IsideWithTrial {
    run_isidewith_trial_with(TrialOptions {
        transport,
        ..TrialOptions::new(seed, attack)
    })
}

/// Checks every bookkeeping invariant of one trial; returns its
/// re-request and reset counts so the caller can see the recovery paths
/// ran.
fn check(label: &str, t: &IsideWithTrial) -> (u64, u64) {
    let report = &t.result.client;

    let mut streams = HashSet::new();
    for r in &report.requests {
        assert!(
            streams.insert(r.stream),
            "{label}: stream {:?} reused",
            r.stream
        );
        assert!(
            r.completed_at.is_none() || !r.reset,
            "{label}: completed request on {:?} marked reset",
            r.stream
        );
    }

    let mut attempts: HashMap<u32, u32> = HashMap::new();
    let mut completed: HashMap<u32, SimTime> = HashMap::new();
    for r in &report.requests {
        let next = attempts.entry(r.object.0).or_insert(0);
        assert_eq!(
            r.attempt, *next,
            "{label}: object {} attempt order",
            r.object.0
        );
        *next += 1;
        if let Some(at) = r.completed_at {
            let first = completed.entry(r.object.0).or_insert(at);
            *first = (*first).min(at);
        }
    }
    let mut requested = 0u64;
    let mut resets = 0u64;
    for o in &report.objects {
        assert_eq!(
            o.attempts,
            attempts.get(&o.object.0).copied().unwrap_or(0),
            "{label}: object {} attempts against its records",
            o.object.0
        );
        assert_eq!(
            o.completed_at,
            completed.get(&o.object.0).copied(),
            "{label}: object {} completion against its earliest record",
            o.object.0
        );
        requested += u64::from(o.requested_at.is_some());
        resets += u64::from(o.resets);
    }

    let plan_done: Option<Vec<SimTime>> =
        t.iw.site
            .plan
            .iter()
            .map(|s| report.objects[s.object.0 as usize].completed_at)
            .collect();
    assert_eq!(
        report.page_completed_at,
        plan_done.and_then(|done| done.into_iter().max()),
        "{label}: page completion against the plan objects'"
    );

    let gets = report.requests.len() as u64;
    assert!(
        gets <= requested + report.h2_rerequests + resets,
        "{label}: {gets} GETs from {requested} objects, {} re-requests and {resets} resets",
        report.h2_rerequests
    );

    let mut copies: HashMap<u32, u16> = HashMap::new();
    for s in &t.result.serve_log {
        if let Some(prev) = copies.insert(s.object.0, s.copy) {
            assert!(s.copy > prev, "{label}: object {} copy order", s.object.0);
        }
        assert!(
            !s.killed || s.completed_at.is_none(),
            "{label}: killed copy of object {} completed",
            s.object.0
        );
    }
    (report.h2_rerequests, resets)
}

#[test]
fn request_records_and_serve_log_keep_their_invariants_on_both_transports() {
    for transport in [TransportKind::Tcp, TransportKind::Quic] {
        let (mut rerequests, mut resets) = (0, 0);
        for seed in 6_000..6_010 {
            for attack in [None, Some(AttackConfig::full_attack())] {
                let label = format!("{transport:?} seed {seed} attacked {}", attack.is_some());
                let (r, s) = check(&label, &trial(seed, attack, transport));
                rerequests += r;
                resets += s;
            }
        }
        // The attacked trials exercise both recovery paths.
        assert!(rerequests > 0, "{transport:?}: no re-request in any trial");
        assert!(resets > 0, "{transport:?}: no reset volley in any trial");
    }
}
