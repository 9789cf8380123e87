//! End-to-end page loads over the full stack: netsim path topology,
//! TCP, TLS records, HTTP/2 endpoints, website model.

use h2priv_h2::{ClientConfig, ClientNode, MuxPolicy, ServerConfig, ServerNode};
use h2priv_netsim::middlebox::Passthrough;
use h2priv_netsim::prelude::*;
use h2priv_web::sites::{blog_site, two_object_site};
use h2priv_web::{IsideWith, ObjectId};

fn run_page_load(
    site: h2priv_web::Site,
    seed: u64,
    server_cfg: ServerConfig,
) -> (h2priv_h2::ClientReport, Simulator, PathTopology) {
    run_page_load_against(site.clone(), site, seed, server_cfg)
}

/// [`run_page_load`] with the server holding `server_site`, which may
/// lack objects the client's site plans.
fn run_page_load_against(
    site: h2priv_web::Site,
    server_site: h2priv_web::Site,
    seed: u64,
    server_cfg: ServerConfig,
) -> (h2priv_h2::ClientReport, Simulator, PathTopology) {
    let mut sim = Simulator::new(seed);
    let cfg = PathConfig::default();
    let client = ClientNode::new(site, ClientConfig::default());
    let server = ServerNode::new(server_site, server_cfg);
    let topo = PathTopology::build(&mut sim, client, Box::new(Passthrough), server, &cfg);
    sim.run_until(SimTime::from_secs(90));
    let report = sim.node_mut::<ClientNode>(topo.client).take_report();
    (report, sim, topo)
}

#[test]
fn blog_page_load_completes() {
    let (report, _sim, _topo) = run_page_load(blog_site(), 7, ServerConfig::default());
    assert!(!report.connection_broken);
    assert!(report.page_started_at.is_some(), "h2 layer became ready");
    assert!(
        report.page_completed_at.is_some(),
        "all objects should complete; outcomes: {:?}",
        report.objects
    );
    // All five objects fully received with correct byte counts.
    let site = blog_site();
    for obj in site.objects() {
        let done: u64 = report
            .requests
            .iter()
            .filter(|r| r.object == obj.id && r.completed_at.is_some())
            .map(|r| r.bytes)
            .max()
            .unwrap_or(0);
        assert_eq!(done, obj.size, "object {} byte count", obj.path);
    }
    // No pathological behaviour on a clean network.
    assert_eq!(report.resets_sent, 0);
    assert_eq!(report.h2_rerequests, 0);
}

#[test]
fn two_object_site_with_zero_gap_multiplexes() {
    let site = two_object_site(60_000, 50_000, h2priv_netsim::time::SimDuration::ZERO);
    let (report, sim, topo) = run_page_load(site, 11, ServerConfig::default());
    assert!(report.page_completed_at.is_some());
    let server = sim.node_ref::<ServerNode>(topo.server);
    // Ground truth: the two objects' data spans interleave on the wire.
    let map = server.wire_map();
    let seq: Vec<u32> = map
        .spans()
        .iter()
        .filter(|s| s.tag.is_object_data())
        .map(|s| s.tag.object_id)
        .collect();
    let transitions = seq.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        transitions >= 3,
        "expected interleaved object data, got transition count {transitions} in {seq:?}"
    );
}

#[test]
fn two_object_site_with_large_gap_serializes() {
    let site = two_object_site(
        20_000,
        15_000,
        h2priv_netsim::time::SimDuration::from_millis(600),
    );
    let (report, sim, topo) = run_page_load(site, 13, ServerConfig::default());
    assert!(report.page_completed_at.is_some());
    let server = sim.node_ref::<ServerNode>(topo.server);
    let seq: Vec<u32> = server
        .wire_map()
        .spans()
        .iter()
        .filter(|s| s.tag.is_object_data())
        .map(|s| s.tag.object_id)
        .collect();
    let transitions = seq.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(transitions, 1, "expected serial transfer, got {seq:?}");
}

#[test]
fn serial_mux_policy_never_interleaves() {
    let site = two_object_site(60_000, 50_000, h2priv_netsim::time::SimDuration::ZERO);
    let server_cfg = ServerConfig {
        mux: MuxPolicy::Serial,
        ..ServerConfig::default()
    };
    let (report, sim, topo) = run_page_load(site, 17, server_cfg);
    assert!(report.page_completed_at.is_some());
    let server = sim.node_ref::<ServerNode>(topo.server);
    let seq: Vec<u32> = server
        .wire_map()
        .spans()
        .iter()
        .filter(|s| s.tag.is_object_data())
        .map(|s| s.tag.object_id)
        .collect();
    let transitions = seq.windows(2).filter(|w| w[0] != w[1]).count();
    assert_eq!(transitions, 1, "serial policy must not interleave: {seq:?}");
}

#[test]
fn isidewith_page_load_completes_and_requests_follow_plan_order() {
    let mut seed_rng = h2priv_netsim::rng::SimRng::new(99);
    let iw = IsideWith::generate(&mut seed_rng);
    let (report, sim, topo) = run_page_load(iw.site.clone(), 23, ServerConfig::default());
    assert!(!report.connection_broken);
    assert!(
        report.page_completed_at.is_some(),
        "page should complete; incomplete objects: {:?}",
        report
            .objects
            .iter()
            .filter(|o| o.completed_at.is_none())
            .map(|o| o.object)
            .collect::<Vec<_>>()
    );
    // The HTML is the 6th GET on the wire (paper Section IV).
    let first_attempts: Vec<ObjectId> = report
        .requests
        .iter()
        .filter(|r| r.attempt == 0)
        .map(|r| r.object)
        .collect();
    assert_eq!(
        first_attempts[5], iw.html,
        "HTML must be the 6th object requested"
    );
    // The 8 images are requested in survey-result order.
    let image_positions: Vec<usize> = iw
        .images
        .iter()
        .map(|img| {
            first_attempts
                .iter()
                .position(|o| o == img)
                .expect("image requested")
        })
        .collect();
    for w in image_positions.windows(2) {
        assert!(
            w[0] < w[1],
            "image requests out of order: {image_positions:?}"
        );
    }
    // Server served every object exactly once on a clean network.
    let server = sim.node_ref::<ServerNode>(topo.server);
    for obj in iw.site.objects() {
        assert_eq!(
            server.copies_served(obj.id),
            1,
            "object {} copies",
            obj.path
        );
    }
}

#[test]
fn deterministic_page_load_same_seed() {
    let run = |seed| {
        let (report, _, _) = run_page_load(blog_site(), seed, ServerConfig::default());
        report
            .requests
            .iter()
            .map(|r| (r.object, r.issued_at, r.completed_at))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6), "different seeds should differ in timing");
}

#[test]
fn image_burst_is_heavily_multiplexed_at_baseline() {
    // The paper reports 80–99 % degree of multiplexing for the emblem
    // images without an adversary. We check the weaker structural claim
    // here (the metric itself lives in h2priv-core): the image bursts'
    // data spans interleave heavily.
    let mut seed_rng = h2priv_netsim::rng::SimRng::new(3);
    let iw = IsideWith::generate(&mut seed_rng);
    let (report, sim, topo) = run_page_load(iw.site.clone(), 31, ServerConfig::default());
    assert!(report.page_completed_at.is_some());
    let server = sim.node_ref::<ServerNode>(topo.server);
    let image_ids: Vec<u32> = iw.images.iter().map(|i| i.0).collect();
    let seq: Vec<u32> = server
        .wire_map()
        .spans()
        .iter()
        .filter(|s| s.tag.is_object_data() && image_ids.contains(&s.tag.object_id))
        .map(|s| s.tag.object_id)
        .collect();
    let transitions = seq.windows(2).filter(|w| w[0] != w[1]).count();
    assert!(
        transitions > 8,
        "expected interleaving within the image burst, got {transitions} transitions"
    );
}

#[test]
fn server_push_delivers_objects_without_gets() {
    // Push the blog's two images with the HTML: the client must complete
    // the page while issuing GETs only for the non-pushed objects.
    let site = blog_site();
    let server_cfg = ServerConfig {
        push_manifest: vec![(
            h2priv_web::ObjectId(0),
            vec![h2priv_web::ObjectId(2), h2priv_web::ObjectId(3)],
        )],
        ..ServerConfig::default()
    };
    let (report, sim, topo) = run_page_load(site.clone(), 41, server_cfg);
    assert!(
        report.page_completed_at.is_some(),
        "pushed page must complete: {:?}",
        report.objects
    );
    // No GET was issued for the pushed images (their only request record
    // is the synthesized push acceptance on an even stream).
    for pushed in [2u32, 3] {
        let reqs: Vec<_> = report
            .requests
            .iter()
            .filter(|r| r.object == h2priv_web::ObjectId(pushed))
            .collect();
        assert_eq!(reqs.len(), 1, "exactly one (pushed) record for obj{pushed}");
        assert!(
            !reqs[0].stream.is_client_initiated(),
            "pushed object must arrive on a server-initiated stream"
        );
        assert!(reqs[0].completed_at.is_some(), "pushed object completed");
    }
    // Ground truth: the server served each object exactly once.
    let server = sim.node_ref::<ServerNode>(topo.server);
    for obj in site.objects() {
        assert_eq!(server.copies_served(obj.id), 1, "object {}", obj.path);
    }
}

#[test]
fn pushed_and_requested_transfers_share_the_connection() {
    let site = blog_site();
    let server_cfg = ServerConfig {
        push_manifest: vec![(h2priv_web::ObjectId(0), vec![h2priv_web::ObjectId(4)])],
        ..ServerConfig::default()
    };
    let (report, sim, topo) = run_page_load(site, 43, server_cfg);
    assert!(report.page_completed_at.is_some());
    // The pushed object's bytes are labelled on the same wire map.
    let server = sim.node_ref::<ServerNode>(topo.server);
    assert!(server.wire_map().object_bytes(4) >= 31_000);
}

/// The blog site without its last planned object, `/app.js`, a leaf no
/// other step waits on.
fn blog_site_without_app_js() -> (h2priv_web::Site, ObjectId) {
    let site = blog_site();
    let missing = site.by_path("/app.js").expect("blog plans /app.js").id;
    let objects = site
        .objects()
        .iter()
        .filter(|o| o.id != missing)
        .cloned()
        .collect();
    let plan = site
        .plan
        .iter()
        .filter(|s| s.object != missing)
        .cloned()
        .collect();
    (
        h2priv_web::Site::new("blog-without-app", objects, plan),
        missing,
    )
}

#[test]
fn a_get_for_an_unknown_path_is_refused() {
    let (server_site, missing) = blog_site_without_app_js();
    let (report, sim, topo) =
        run_page_load_against(blog_site(), server_site, 47, ServerConfig::default());
    let server = sim.node_ref::<ServerNode>(topo.server);
    // RST_STREAM(REFUSED_STREAM): no worker, no served copy.
    assert_eq!(server.copies_served(missing), 0);
    assert!(server.serve_log().iter().all(|s| s.object != missing));
    let refused: Vec<_> = report
        .requests
        .iter()
        .filter(|r| r.object == missing)
        .collect();
    assert!(!refused.is_empty(), "the client asked for {missing:?}");
    assert!(
        refused.iter().all(|r| r.reset && r.completed_at.is_none()),
        "every GET for the missing object ends reset: {refused:?}"
    );
    for o in report.objects.iter().filter(|o| o.object != missing) {
        assert!(o.completed_at.is_some(), "object {:?} completes", o.object);
    }
    assert!(report.page_completed_at.is_none());
}
