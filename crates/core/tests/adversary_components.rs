//! Integration tests of the adversary's measurement components against
//! ground truth from real simulated page loads.

use h2priv_core::attack::AttackConfig;
use h2priv_core::experiment::{
    run_isidewith_h3_trial, run_isidewith_trial, run_site_trial, TrialOptions,
};
use h2priv_core::partial::{explain_units, PartialConfig};
use h2priv_core::predictor::SizeMap;
use h2priv_netsim::packet::Direction;
use h2priv_netsim::time::SimDuration;
use h2priv_web::sites::blog_site;

/// The monitor's GET count (record-header heuristic over ciphertext)
/// must equal the client's true GET count.
#[test]
fn monitor_get_count_matches_ground_truth() {
    for seed in [1u64, 2, 3] {
        let trial = run_isidewith_trial(
            9_000 + seed,
            Some(AttackConfig::jitter_only(SimDuration::from_millis(25))),
        );
        let true_gets = trial.result.client.requests.len() as u64;
        let counted = trial.result.attack.gets_seen;
        assert_eq!(
            counted, true_gets,
            "seed {seed}: monitor counted {counted}, client issued {true_gets}"
        );
    }
}

/// The capture's server→client stream recovers exactly the bytes the
/// server sealed (ground truth wire map), as back-to-back records.
#[test]
fn reassembled_stream_matches_server_wire_map() {
    let trial = run_isidewith_trial(9_100, None);
    let stream = trial.result.trace.stream(Direction::ServerToClient);
    let sealed_end = trial
        .result
        .wire_map
        .spans()
        .last()
        .map(|s| s.end)
        .expect("server sent records");
    assert_eq!(
        stream.contiguous_end(),
        sealed_end,
        "every sealed byte observed"
    );
    assert!(!stream.desynced());
    let mut at = 0;
    for r in stream.records() {
        assert_eq!(r.stream_offset, at, "records tile the stream");
        at += 5 + u64::from(r.body_len);
    }
    assert_eq!(at, sealed_end, "record parsing covered the whole stream");
}

/// QUIC datagrams never carry a SYN, so on H3 neither direction's TLS
/// stream starts, whatever the datagrams hold.
#[test]
fn h3_trial_streams_stay_empty() {
    let trial = run_isidewith_h3_trial(9_150, Some(AttackConfig::full_attack()));
    let t = &trial.result.trace;
    assert!(t.data_packets(Direction::ServerToClient).count() > 100);
    for dir in [Direction::ClientToServer, Direction::ServerToClient] {
        assert!(t.stream(dir).records().is_empty(), "{dir}");
        assert_eq!(t.stream(dir).contiguous_end(), 0, "{dir}");
    }
}

/// The adversary's analysis window excludes pre-attack units.
#[test]
fn windowed_prediction_excludes_pre_attack_traffic() {
    let trial = run_isidewith_trial(9_200, Some(AttackConfig::full_attack()));
    let window = trial.attack_window().expect("attack ran");
    let windowed = trial.windowed_prediction();
    assert!(
        windowed.units.iter().all(|u| u.unit.start >= window),
        "windowed prediction leaked early units"
    );
    assert!(
        windowed.units.len() < trial.prediction.units.len(),
        "window should exclude the pre-attack page traffic"
    );
}

/// Partial (subset-sum) matching explains merged units that the exact
/// matcher cannot, on genuinely multiplexed baseline traffic.
#[test]
fn partial_matching_explains_merged_units() {
    // Two-object site with zero gap: baseline produces one merged unit.
    let site = h2priv_web::sites::two_object_site(9_500, 7_200, SimDuration::ZERO);
    let result = run_site_trial(site, &TrialOptions::new(9_300, None));
    let map = SizeMap::new(vec![("o1".into(), 9_500), ("o2".into(), 7_200)], 0.03);
    let prediction = result.predict(&map);
    // Exact matching fails on the merged unit...
    assert!(
        !(prediction.contains("o1") && prediction.contains("o2")),
        "expected exact matching to fail on multiplexed transfer"
    );
    // ...partial matching decomposes it.
    let explained = explain_units(&prediction.units, &map, &PartialConfig::default());
    let decomposed = explained.iter().any(|(_, m)| {
        m.as_ref().is_some_and(|m| {
            m.labels.contains(&"o1".to_string()) && m.labels.contains(&"o2".to_string())
        })
    });
    assert!(
        decomposed,
        "partial matcher should explain the merged unit: {explained:?}"
    );
}

/// The capture contains both directions and plausible volume.
#[test]
fn trace_has_both_directions_and_handshake() {
    let trial = run_isidewith_trial(9_400, None);
    let t = &trial.result.trace;
    let c2s = t.in_direction(Direction::ClientToServer).count();
    let s2c = t.in_direction(Direction::ServerToClient).count();
    assert!(c2s > 60, "c2s packets: {c2s}");
    assert!(s2c > 300, "s2c packets: {s2c}");
    // SYN/SYN-ACK visible at the gateway.
    assert!(t
        .packets
        .iter()
        .any(|p| p.header.flags.syn && !p.header.flags.ack));
    assert!(t
        .packets
        .iter()
        .any(|p| p.header.flags.syn && p.header.flags.ack));
}

/// GET sizing: every request HEADERS record on the wire exceeds the
/// monitor threshold; every control record stays below it.
#[test]
fn wire_record_sizes_respect_monitor_threshold() {
    let trial = run_isidewith_trial(9_500, None);
    let stream = trial.result.trace.stream(Direction::ClientToServer);
    let gets = trial.result.client.requests.len();
    let big: Vec<u16> = stream
        .app_records()
        .filter(|r| r.body_len >= 80)
        .map(|r| r.body_len)
        .collect();
    assert_eq!(
        big.len(),
        gets,
        "GET-sized records must match requests exactly"
    );
}

/// A non-isidewith site works through the same pipeline (API
/// generality): attack a blog page targeting its hero image.
#[test]
fn attack_pipeline_generalizes_to_other_sites() {
    let mut attack = AttackConfig::jitter_only(SimDuration::from_millis(120));
    attack.trigger_get = 3;
    let result = run_site_trial(blog_site(), &TrialOptions::new(9_600, Some(attack)));
    assert!(
        result.client.page_completed_at.is_some(),
        "page must still load"
    );
    let map = SizeMap::new(
        vec![
            ("hero".into(), 52_000),
            ("post".into(), 23_500),
            ("app".into(), 31_000),
        ],
        0.03,
    );
    let prediction = result.predict(&map);
    assert!(
        prediction.contains("hero") || prediction.contains("post") || prediction.contains("app"),
        "spaced requests should expose at least one object size"
    );
}
