//! The paper's Section VII defense sketch: **priority randomization**.
//!
//! > "the client can opt for a different priority/order of object
//! > delivery every time, thereby confusing the adversary."
//!
//! Implemented as a site transformation: the result page requests the
//! eight emblem images in a random order *independent of the survey
//! result*. Sizes still identify which party each image belongs to, but
//! the position-based ranking inference — the actual secret — collapses
//! to chance. The `defense_matrix` experiment measures that, as its
//! [`Defense::PriorityRandomization`] cells.

use crate::attack::TransportKind;
use h2priv_h2::{ClientConfig, ServerConfig, ShapingConfig};
use h2priv_netsim::rng::SimRng;
use h2priv_web::{IsideWith, Site, Trigger};

/// A pluggable server/transport-side countermeasure. Attached to a trial
/// via [`TrialOptions::defense`](crate::experiment::TrialOptions::defense);
/// [`Defense::None`] changes nothing — no extra RNG draws, no config
/// changes, byte-identical runs.
///
/// Each variant maps onto knobs that already live in the endpoint/site
/// layers; this enum is only the selection surface the experiment
/// matrix iterates over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// No countermeasure (the attacked baseline).
    None,
    /// The paper's Section VII sketch: deliver the emblem images in a
    /// random order independent of the survey result
    /// ([`randomize_image_order`]).
    PriorityRandomization,
    /// RFC 8467-style size quantisation: H2 pads every ApplicationData
    /// TLS record's plaintext to a multiple of `block`; H3 pads every
    /// stream datagram to a multiple of `block` with PADDING frames.
    RecordPadding {
        /// Pad block size in bytes.
        block: usize,
    },
    /// Constant-rate output shaping with dummy-cell cover traffic
    /// (BuFLO/Tamaraw-style; see [`ShapingConfig`]). H2/TCP only.
    Shaping,
    /// Dummy-object injection: the site serves `count` decoys sized to
    /// collide with real objects in the adversary's size map
    /// ([`Site::with_dummy_objects`]).
    DummyObjects {
        /// Number of decoy objects appended to the site.
        count: u32,
    },
    /// Connection-migration-style traffic splitting: the server
    /// alternates response datagrams between the tapped primary path
    /// and an untapped second path in bursts. H3/QUIC only.
    TrafficSplit {
        /// Datagrams per path before alternating.
        burst: u32,
    },
}

impl Defense {
    /// The canonical presets the defense matrix evaluates.
    pub const ALL: [Defense; 6] = [
        Defense::None,
        Defense::PriorityRandomization,
        Defense::RecordPadding { block: 4_096 },
        Defense::Shaping,
        Defense::DummyObjects { count: 4 },
        Defense::TrafficSplit { burst: 8 },
    ];

    /// Stable label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Defense::None => "none",
            Defense::PriorityRandomization => "priority_randomization",
            Defense::RecordPadding { .. } => "record_padding",
            Defense::Shaping => "shaping",
            Defense::DummyObjects { .. } => "dummy_objects",
            Defense::TrafficSplit { .. } => "traffic_split",
        }
    }

    /// Whether the defense is implementable on the given transport.
    /// Shaping lives in the H2 frame scheduler (QUIC's own round-robin
    /// fills that role); traffic splitting needs QUIC's connection-ID
    /// routing (a TCP connection cannot hop paths mid-stream).
    pub fn supported_on(&self, transport: TransportKind) -> bool {
        match self {
            Defense::Shaping => transport == TransportKind::Tcp,
            Defense::TrafficSplit { .. } => transport == TransportKind::Quic,
            _ => true,
        }
    }

    /// Applies the endpoint-config side of the defense. `None` and the
    /// site-transformation defenses leave the configs untouched.
    pub fn configure(&self, server: &mut ServerConfig, client: &mut ClientConfig) {
        match *self {
            Defense::RecordPadding { block } => {
                server.pad_block = block;
                // The H2 client must unframe padded records; the QUIC
                // client ignores PADDING frames natively and never
                // reads this flag.
                client.strip_padding = true;
            }
            Defense::Shaping => server.shaping = Some(ShapingConfig::default()),
            Defense::TrafficSplit { burst } => server.split_burst = burst,
            Defense::None | Defense::PriorityRandomization | Defense::DummyObjects { .. } => {}
        }
    }

    /// Applies the site-transformation side of the defense. For plain
    /// config defenses this is `iw.site.clone()`, exactly what an
    /// undefended trial serves.
    pub fn transform_site(&self, iw: &IsideWith, seed: u64) -> Site {
        match *self {
            Defense::PriorityRandomization => {
                let mut shuffle_rng = SimRng::new(seed ^ 0xDEF5);
                randomize_image_order(iw, &mut shuffle_rng)
            }
            Defense::DummyObjects { count } => iw.site.with_dummy_objects(count),
            _ => iw.site.clone(),
        }
    }
}

/// Rebuilds an isidewith site so the image burst requests the emblems in
/// a freshly randomized order (delivery order ⟂ result order), keeping
/// the measured burst gaps.
///
/// Only the emblem images the plan actually requests participate in the
/// permutation; images missing from the plan (a truncated degenerate
/// plan, or a site rewritten by another defense transformation) are
/// skipped rather than panicking. A site whose plan contains none of the
/// images is returned unchanged. For a fully-planned site the RNG draw
/// sequence — and therefore the produced order — is identical to the
/// original implementation.
pub fn randomize_image_order(iw: &IsideWith, rng: &mut SimRng) -> Site {
    let site = iw.site.clone();
    // (image, plan position) for the images that are actually planned,
    // in request order.
    let planned: Vec<(h2priv_web::ObjectId, usize)> = iw
        .images
        .iter()
        .filter_map(|img| site.plan_position(*img).map(|pos| (*img, pos)))
        .collect();
    if planned.is_empty() {
        return site;
    }
    let mut order: Vec<_> = planned.iter().map(|(img, _)| *img).collect();
    for i in (1..order.len()).rev() {
        let j = rng.range_u64(0, i as u64) as usize;
        order.swap(i, j);
    }
    // The image plan steps are contiguous; rewrite their objects in the
    // new order, preserving each step's trigger/gap structure.
    let positions: Vec<usize> = planned.iter().map(|(_, pos)| *pos).collect();
    let mut plan = site.plan.clone();
    for (slot, pos) in positions.iter().enumerate() {
        plan[*pos].object = order[slot];
    }
    // Fix up AfterRequest chains inside the burst so they reference the
    // new predecessor.
    for w in positions.windows(2) {
        let prev_obj = plan[w[0]].object;
        if let Trigger::AfterRequest { prev, .. } = &mut plan[w[1]].trigger {
            *prev = prev_obj;
        }
    }
    // Anything after the burst that chained off the old last planned
    // image.
    let old_last = planned.last().expect("non-empty").0;
    let new_last = plan[*positions.last().expect("non-empty")].object;
    for (i, step) in plan.iter_mut().enumerate() {
        if positions.contains(&i) {
            continue;
        }
        if let Trigger::AfterRequest { prev, .. } = &mut step.trigger {
            if *prev == old_last {
                *prev = new_last;
            }
        }
    }
    Site::new(site.name.clone(), site.objects().to_vec(), plan)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn randomized_site_keeps_inventory_and_gap_structure() {
        let mut rng = SimRng::new(1);
        let iw = IsideWith::generate(&mut rng);
        let defended = randomize_image_order(&iw, &mut rng);
        assert_eq!(defended.len(), iw.site.len());
        // The image burst still requests exactly the 8 emblem objects.
        let burst: Vec<_> = defended
            .plan
            .iter()
            .filter(|s| iw.images.contains(&s.object))
            .map(|s| s.object)
            .collect();
        assert_eq!(burst.len(), 8);
        let mut sorted = burst.clone();
        sorted.sort();
        let mut expect = iw.images.to_vec();
        expect.sort();
        assert_eq!(sorted, expect);
    }

    #[test]
    fn shuffle_changes_order_for_some_seed() {
        let mut rng = SimRng::new(2);
        let iw = IsideWith::generate(&mut rng);
        let orders: Vec<Vec<_>> = (0..8)
            .map(|s| {
                let mut rng = SimRng::new(s);
                let site = randomize_image_order(&iw, &mut rng);
                site.plan
                    .iter()
                    .filter(|st| iw.images.contains(&st.object))
                    .map(|st| st.object)
                    .collect()
            })
            .collect();
        assert!(orders.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn shuffle_is_a_valid_permutation() {
        let mut rng = SimRng::new(7);
        let iw = IsideWith::generate(&mut rng);
        let defended = randomize_image_order(&iw, &mut rng);
        let burst: Vec<_> = defended
            .plan
            .iter()
            .filter(|s| iw.images.contains(&s.object))
            .map(|s| s.object)
            .collect();
        // Every emblem exactly once: a permutation, not a re-sampling.
        assert_eq!(burst.len(), iw.images.len());
        for img in iw.images.iter() {
            assert_eq!(burst.iter().filter(|o| *o == img).count(), 1);
        }
        // And the non-image steps are untouched.
        let others = |site: &Site| -> Vec<_> {
            site.plan
                .iter()
                .filter(|s| !iw.images.contains(&s.object))
                .map(|s| s.object)
                .collect::<Vec<_>>()
        };
        assert_eq!(others(&defended), others(&iw.site));
    }

    #[test]
    fn shuffle_is_deterministic_under_fixed_seed() {
        let mut rng = SimRng::new(11);
        let iw = IsideWith::generate(&mut rng);
        let order = |seed: u64| -> Vec<_> {
            let mut rng = SimRng::new(seed);
            randomize_image_order(&iw, &mut rng)
                .plan
                .iter()
                .filter(|s| iw.images.contains(&s.object))
                .map(|s| s.object)
                .collect::<Vec<_>>()
        };
        assert_eq!(order(99), order(99));
        // At least one other seed produces a different order, so the
        // equality above is not vacuous.
        assert!((0..8).any(|s| order(s) != order(99)));
    }

    #[test]
    fn shuffle_preserves_gap_and_trigger_structure() {
        let mut rng = SimRng::new(13);
        let iw = IsideWith::generate(&mut rng);
        let defended = randomize_image_order(&iw, &mut rng);
        // Position by position, the plan keeps the same trigger shape and
        // measured gaps — only the object identities move. The burst gaps
        // are what the paper's Table II measures; the defense must not
        // disturb them.
        assert_eq!(defended.plan.len(), iw.site.plan.len());
        for (orig, new) in iw.site.plan.iter().zip(defended.plan.iter()) {
            match (&orig.trigger, &new.trigger) {
                (Trigger::AtStart { gap: a }, Trigger::AtStart { gap: b }) => {
                    assert_eq!(a, b);
                }
                (Trigger::AfterRequest { gap: a, .. }, Trigger::AfterRequest { gap: b, .. }) => {
                    assert_eq!(a, b)
                }
                (o, n) => assert_eq!(
                    std::mem::discriminant(o),
                    std::mem::discriminant(n),
                    "trigger kind changed"
                ),
            }
        }
    }

    #[test]
    fn degenerate_plan_with_missing_images_is_skipped_not_panicked() {
        // A transformed site whose plan omits some emblem steps (the
        // shape dummy-object/defense rewrites can produce) must shuffle
        // the planned subset and leave everything else alone.
        let mut rng = SimRng::new(21);
        let iw = IsideWith::generate(&mut rng);
        let dropped = iw.images[3];
        let plan: Vec<_> = iw
            .site
            .plan
            .iter()
            .filter(|s| s.object != dropped)
            .copied()
            .collect();
        let degenerate = Site::new(
            iw.site.name.clone(),
            iw.site.objects().to_vec(),
            plan.clone(),
        );
        let degenerate_iw = IsideWith {
            site: degenerate,
            ..iw.clone()
        };
        let defended = randomize_image_order(&degenerate_iw, &mut rng);
        let burst: Vec<_> = defended
            .plan
            .iter()
            .filter(|s| iw.images.contains(&s.object))
            .map(|s| s.object)
            .collect();
        // The seven planned emblems are still a permutation; the dropped
        // one never reappears.
        assert_eq!(burst.len(), 7);
        assert!(!burst.contains(&dropped));
        let mut sorted = burst.clone();
        sorted.sort();
        let mut expect: Vec<_> = iw
            .images
            .iter()
            .copied()
            .filter(|o| *o != dropped)
            .collect();
        expect.sort();
        assert_eq!(sorted, expect);
        assert_eq!(defended.plan.len(), plan.len());
    }

    #[test]
    fn plan_without_any_images_passes_through_unchanged() {
        let mut rng = SimRng::new(23);
        let iw = IsideWith::generate(&mut rng);
        let plan: Vec<_> = iw
            .site
            .plan
            .iter()
            .filter(|s| !iw.images.contains(&s.object))
            .copied()
            .collect();
        let degenerate_iw = IsideWith {
            site: Site::new(
                iw.site.name.clone(),
                iw.site.objects().to_vec(),
                plan.clone(),
            ),
            ..iw
        };
        let defended = randomize_image_order(&degenerate_iw, &mut rng);
        assert_eq!(defended.plan, plan);
    }

    #[test]
    fn defended_plan_chains_are_consistent() {
        let mut rng = SimRng::new(3);
        let iw = IsideWith::generate(&mut rng);
        let defended = randomize_image_order(&iw, &mut rng);
        // Every AfterRequest predecessor must appear earlier in the plan.
        for (i, step) in defended.plan.iter().enumerate() {
            if let Trigger::AfterRequest { prev, .. } = step.trigger {
                let prev_pos = defended
                    .plan
                    .iter()
                    .position(|s| s.object == prev)
                    .expect("predecessor planned");
                assert!(prev_pos < i, "step {i} depends on later step {prev_pos}");
            }
        }
    }
}
