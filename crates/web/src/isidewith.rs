//! The paper's target website: a model of `www.isidewith.com`.
//!
//! Section V of the paper describes the survey-result page:
//!
//! * a dynamic result HTML of ≈9500 bytes — the **6th object** the client
//!   downloads (five objects of the quiz page precede it);
//! * 47 embedded objects (JS, CSS, images);
//! * among them **8 political-party emblem images of 5–16 KB**, requested
//!   by a result-page script in the order the parties appear in the
//!   user's survey result — the order the adversary wants to infer;
//! * the measured inter-request gaps of Table II (sub-millisecond within
//!   the image burst).
//!
//! [`IsideWith::generate`] builds one trial: the party order is a random
//! permutation (standing in for the paper's ~500 volunteers), everything
//! else is fixed.

use crate::object::{MediaType, ObjectId, ServiceProfile, WebObject};
use crate::site::{PlanStep, Site, Trigger};
use core::fmt;
use h2priv_netsim::rng::SimRng;
use h2priv_netsim::time::SimDuration;
use h2priv_util::impl_to_json;

/// The eight political parties whose emblem images appear on the result
/// page. The variant order defines the canonical image inventory order
/// (not the per-user result order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Party {
    /// Democratic Party.
    Democratic,
    /// Republican Party.
    Republican,
    /// Libertarian Party.
    Libertarian,
    /// Green Party.
    Green,
    /// Constitution Party.
    Constitution,
    /// American Solidarity Party.
    AmericanSolidarity,
    /// Reform Party.
    Reform,
    /// Socialist Party.
    Socialist,
}

impl_to_json!(
    enum Party {
        Democratic,
        Republican,
        Libertarian,
        Green,
        Constitution,
        AmericanSolidarity,
        Reform,
        Socialist,
    }
);

impl Party {
    /// All parties in canonical order.
    pub const ALL: [Party; 8] = [
        Party::Democratic,
        Party::Republican,
        Party::Libertarian,
        Party::Green,
        Party::Constitution,
        Party::AmericanSolidarity,
        Party::Reform,
        Party::Socialist,
    ];

    /// Stable lower-case labels, in canonical order: the size map's
    /// labels and the emblem file names.
    const LABELS: [&'static str; 8] = [
        "democratic",
        "republican",
        "libertarian",
        "green",
        "constitution",
        "american-solidarity",
        "reform",
        "socialist",
    ];

    /// Canonical index of this party.
    pub fn index(self) -> usize {
        Party::ALL
            .iter()
            .position(|p| *p == self)
            .expect("party in ALL")
    }

    /// This party's stable lower-case label.
    pub fn label(self) -> &'static str {
        Party::LABELS[self.index()]
    }

    /// The party whose [`Party::label`] is `label`, if any.
    pub fn from_label(label: &str) -> Option<Party> {
        let i = Party::LABELS.iter().position(|l| *l == label)?;
        Some(Party::ALL[i])
    }
}

impl fmt::Display for Party {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Emblem image sizes in bytes, canonical party order. All within the
/// paper's 5–16 KB range and mutually separated by more than the
/// predictor's matching tolerance, like the real site's PNGs.
pub const PARTY_IMAGE_SIZES: [u64; 8] =
    [5_200, 6_350, 7_800, 10_200, 10_900, 12_300, 14_100, 15_850];

/// Size of the result HTML in bytes (paper: "an HTML file of size ≈9500
/// bytes").
pub const RESULT_HTML_SIZE: u64 = 9_500;

/// Number of embedded objects on the result page (paper: 47).
pub const EMBEDDED_OBJECT_COUNT: usize = 47;

/// Inventory ids of the fixed objects.
const QUIZ_PAGE_OBJECTS: u32 = 5; // the five objects downloaded before the HTML
/// Inventory id of the result HTML (6th object downloaded).
pub const HTML_ID: ObjectId = ObjectId(QUIZ_PAGE_OBJECTS);
const RESULTS_JS_ID: u32 = 6; // first embedded asset: the script that fetches the emblems
const EMBEDDED_PLAIN: u32 = 36; // embedded assets that are not emblems or tails
const FIRST_IMAGE_ID: u32 = 6 + EMBEDDED_PLAIN; // = 42
const TAIL_COUNT: u32 = 3;

/// Sizes for the 36 plain embedded assets (deterministic, realistic mix
/// of small CSS/JS/sprites up to a couple of larger bundles).
const EMBEDDED_SIZES: [u64; EMBEDDED_PLAIN as usize] = [
    18_400, 2_150, 3_800, 27_300, 1_950, 44_100, 6_800, 3_250, 58_700, 2_700, 8_900, 21_600, 4_450,
    1_800, 33_200, 7_350, 2_480, 16_750, 5_600, 12_850, 3_050, 48_300, 2_250, 8_600, 19_850, 4_120,
    36_400, 2_900, 7_050, 14_600, 3_550, 25_800, 1_850, 11_300, 4_700, 41_700,
];

/// Measured inter-request gaps within the image burst, Table II row 1
/// (`I2..I8` relative to the previous image request), in microseconds.
pub const IMAGE_BURST_GAPS_US: [u64; 7] = [400, 2_000, 300, 100, 300, 2_000, 500];

/// A generated isidewith trial: the site plus the ground truth the
/// adversary tries to infer.
#[derive(Debug, Clone)]
pub struct IsideWith {
    /// The site model (inventory + request plan for this trial's result
    /// order).
    pub site: Site,
    /// The result HTML object (always [`HTML_ID`]).
    pub html: ObjectId,
    /// The emblem-image objects in *request order* — i.e. the survey
    /// result order. `images[0]` is the user's best-matching party.
    pub images: [ObjectId; 8],
    /// The ground-truth party order (same order as `images`).
    pub result_order: [Party; 8],
}

impl IsideWith {
    /// Builds one trial with the party order drawn from `rng` (a uniform
    /// random permutation, standing in for a volunteer's survey result).
    pub fn generate(rng: &mut SimRng) -> IsideWith {
        let mut order = Party::ALL;
        // Fisher–Yates with the simulation RNG.
        for i in (1..order.len()).rev() {
            let j = rng.range_u64(0, i as u64) as usize;
            order.swap(i, j);
        }
        Self::with_result_order(order)
    }

    /// Builds a trial with a fixed party order (deterministic tests).
    pub fn with_result_order(result_order: [Party; 8]) -> IsideWith {
        let mut objects: Vec<WebObject> = Vec::new();
        let mut add = |path: String, media: MediaType, size: u64, service: ServiceProfile| {
            let id = ObjectId(objects.len() as u32);
            objects.push(WebObject {
                id,
                path,
                media,
                size,
                service,
            });
            id
        };

        // --- five quiz-page objects downloaded before the result HTML ---
        add(
            "/quiz".into(),
            MediaType::Html,
            13_400,
            ServiceProfile::dynamic_html(),
        );
        add(
            "/static/css/main.css".into(),
            MediaType::Css,
            31_200,
            ServiceProfile::static_asset(),
        );
        add(
            "/static/js/app.js".into(),
            MediaType::Js,
            84_000,
            ServiceProfile::static_asset(),
        );
        add(
            "/static/js/vendor.js".into(),
            MediaType::Js,
            148_000,
            ServiceProfile::static_asset(),
        );
        // The survey submission itself: a slow dynamic API call whose
        // long transmission usually overlaps the result HTML (the page
        // polls it while the user is redirected to the results).
        add(
            "/api/survey/submit".into(),
            MediaType::Json,
            48_300,
            ServiceProfile::api_json(),
        );

        // --- the object of interest: the survey-result HTML (6th) ---
        let html = add(
            "/results/2020".into(),
            MediaType::Html,
            RESULT_HTML_SIZE,
            ServiceProfile::dynamic_html(),
        );
        debug_assert_eq!(html, HTML_ID);

        // --- 36 plain embedded assets; the first is the results script ---
        add(
            "/static/js/results.js".into(),
            MediaType::Js,
            22_600,
            ServiceProfile::static_asset(),
        );
        for (i, size) in EMBEDDED_SIZES.iter().enumerate().skip(1) {
            let media = match i % 3 {
                0 => MediaType::Css,
                1 => MediaType::Js,
                _ => MediaType::Image,
            };
            let ext = match media {
                MediaType::Css => "css",
                MediaType::Js => "js",
                _ => "png",
            };
            add(
                format!("/static/asset{i:02}.{ext}"),
                media,
                *size,
                ServiceProfile::static_asset(),
            );
        }

        // --- the eight emblem images, canonical party order ---
        for (party, size) in Party::ALL.iter().zip(PARTY_IMAGE_SIZES) {
            add(
                format!("/static/img/emblem_{party}.png"),
                MediaType::Image,
                size,
                ServiceProfile::static_asset(),
            );
        }

        // --- three trailing beacons/analytics ---
        add(
            "/static/js/analytics.js".into(),
            MediaType::Js,
            8_700,
            ServiceProfile::static_asset(),
        );
        add(
            "/api/beacon".into(),
            MediaType::Json,
            2_100,
            ServiceProfile::api_json(),
        );
        add(
            "/static/img/footer.png".into(),
            MediaType::Image,
            6_600,
            ServiceProfile::static_asset(),
        );

        debug_assert_eq!(objects.len(), 6 + EMBEDDED_OBJECT_COUNT);

        // ---------------- request plan ----------------
        let ms = SimDuration::from_millis;
        let mut plan = vec![
            PlanStep {
                object: ObjectId(0),
                trigger: Trigger::AtStart {
                    gap: SimDuration::ZERO,
                },
            },
            PlanStep {
                object: ObjectId(1),
                trigger: Trigger::AfterFirstByte {
                    parent: ObjectId(0),
                    gap: ms(30),
                },
            },
            PlanStep {
                object: ObjectId(2),
                trigger: Trigger::AfterRequest {
                    prev: ObjectId(1),
                    gap: ms(480),
                },
            },
            PlanStep {
                object: ObjectId(3),
                trigger: Trigger::AfterRequest {
                    prev: ObjectId(2),
                    gap: ms(500),
                },
            },
            PlanStep {
                object: ObjectId(4),
                trigger: Trigger::AfterRequest {
                    prev: ObjectId(3),
                    gap: ms(520),
                },
            },
            // The user submits the survey: result HTML 500 ms after the
            // previous request (Table II).
            PlanStep {
                object: html,
                trigger: Trigger::AfterRequest {
                    prev: ObjectId(4),
                    gap: ms(500),
                },
            },
            // The preload scanner discovers the first embedded asset
            // shortly after the HTML's first bytes arrive (observed on
            // the wire as the next GET following the HTML's by a fraction
            // of a second — Table II measures 160 ms on the real site).
            // Parse/scheduling time varies a lot between runs, which is
            // what occasionally lets the HTML finish single-threaded
            // (the paper's 32 % baseline).
            PlanStep {
                object: ObjectId(RESULTS_JS_ID),
                trigger: Trigger::AfterFirstByte {
                    parent: html,
                    gap: ms(80),
                },
            },
        ];
        // Remaining plain assets: a pipeline burst after results.js.
        let asset_gaps_ms: [u64; 35] = [
            4, 9, 2, 14, 6, 3, 22, 5, 8, 2, 17, 4, 11, 3, 6, 28, 2, 9, 5, 13, 3, 7, 19, 2, 6, 4,
            10, 3, 8, 15, 2, 5, 12, 4, 7,
        ];
        for (i, gap) in asset_gaps_ms.iter().enumerate() {
            let id = ObjectId(RESULTS_JS_ID + 1 + i as u32);
            let prev = ObjectId(RESULTS_JS_ID + i as u32);
            plan.push(PlanStep {
                object: id,
                trigger: Trigger::AfterRequest {
                    prev,
                    gap: ms(*gap),
                },
            });
        }

        // The emblem burst: results.js execution fires the first image a
        // while after the script finished downloading (Table II measures
        // 780 ms between I1 and the request before it).
        let image_ids: Vec<ObjectId> = result_order
            .iter()
            .map(|p| ObjectId(FIRST_IMAGE_ID + p.index() as u32))
            .collect();
        plan.push(PlanStep {
            object: image_ids[0],
            trigger: Trigger::AfterComplete {
                parent: ObjectId(RESULTS_JS_ID),
                gap: ms(700),
            },
        });
        for (i, gap_us) in IMAGE_BURST_GAPS_US.iter().enumerate() {
            plan.push(PlanStep {
                object: image_ids[i + 1],
                trigger: Trigger::AfterRequest {
                    prev: image_ids[i],
                    gap: SimDuration::from_micros(*gap_us),
                },
            });
        }

        // Tails: 26 ms after the last image (Table II's T(next) for I8).
        let first_tail = ObjectId(FIRST_IMAGE_ID + 8);
        plan.push(PlanStep {
            object: first_tail,
            trigger: Trigger::AfterRequest {
                prev: image_ids[7],
                gap: ms(26),
            },
        });
        for i in 1..TAIL_COUNT {
            plan.push(PlanStep {
                object: ObjectId(first_tail.0 + i),
                trigger: Trigger::AfterRequest {
                    prev: ObjectId(first_tail.0 + i - 1),
                    gap: ms(60),
                },
            });
        }

        let site = Site::new("www.isidewith.com", objects, plan);
        IsideWith {
            site,
            html,
            images: image_ids.try_into().expect("eight images"),
            result_order,
        }
    }

    /// The adversary's pre-compiled image-size → party mapping (paper
    /// Section V: "our adversary has a pre-compiled list of image size to
    /// political party mapping").
    pub fn adversary_size_map() -> Vec<(Party, u64)> {
        Party::ALL.iter().copied().zip(PARTY_IMAGE_SIZES).collect()
    }

    /// The inventory object for a party's emblem image.
    pub fn image_of(&self, party: Party) -> ObjectId {
        ObjectId(FIRST_IMAGE_ID + party.index() as u32)
    }

    /// The nine objects of interest: the HTML plus the 8 images in
    /// request order (paper: "the adversary has 9 different objects of
    /// interest").
    pub fn objects_of_interest(&self) -> Vec<ObjectId> {
        let mut v = vec![self.html];
        v.extend_from_slice(&self.images);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inventory_matches_paper_counts() {
        let mut rng = SimRng::new(1);
        let iw = IsideWith::generate(&mut rng);
        assert_eq!(iw.site.len(), 6 + EMBEDDED_OBJECT_COUNT); // 53 objects
        assert_eq!(iw.site.object(iw.html).size, RESULT_HTML_SIZE);
        // HTML is the 6th request in the plan.
        assert_eq!(iw.site.plan_position(iw.html), Some(5));
        // Every image within 5–16 KB.
        for img in iw.images {
            let size = iw.site.object(img).size;
            assert!((5_000..=16_000).contains(&size), "image size {size}");
        }
    }

    #[test]
    fn image_sizes_are_separated_beyond_tolerance() {
        // Predictor tolerance is ±3%; adjacent sizes must differ by more.
        let mut sizes = PARTY_IMAGE_SIZES;
        sizes.sort_unstable();
        for w in sizes.windows(2) {
            assert!(w[1] as f64 > w[0] as f64 * 1.065, "sizes too close: {w:?}");
        }
        // And the HTML must not be confusable with any image.
        for s in sizes {
            let ratio = RESULT_HTML_SIZE as f64 / s as f64;
            assert!(
                !(0.97..=1.03).contains(&ratio),
                "HTML size collides with image size {s}"
            );
        }
    }

    #[test]
    fn result_order_is_a_permutation() {
        let mut rng = SimRng::new(42);
        let iw = IsideWith::generate(&mut rng);
        let mut seen = iw.result_order.to_vec();
        seen.sort_by_key(|p| p.index());
        assert_eq!(seen, Party::ALL.to_vec());
    }

    #[test]
    fn different_seeds_give_different_orders() {
        let orders: Vec<_> = (0..16)
            .map(|s| {
                let mut rng = SimRng::new(s);
                IsideWith::generate(&mut rng).result_order
            })
            .collect();
        assert!(orders.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn images_in_plan_follow_result_order() {
        let order = [
            Party::Socialist,
            Party::Green,
            Party::Democratic,
            Party::Republican,
            Party::Libertarian,
            Party::Constitution,
            Party::AmericanSolidarity,
            Party::Reform,
        ];
        let iw = IsideWith::with_result_order(order);
        for (i, party) in order.iter().enumerate() {
            assert_eq!(iw.images[i], iw.image_of(*party));
        }
        // Plan positions of the images are consecutive and ordered.
        let positions: Vec<usize> = iw
            .images
            .iter()
            .map(|o| iw.site.plan_position(*o).unwrap())
            .collect();
        for w in positions.windows(2) {
            assert_eq!(w[1], w[0] + 1);
        }
    }

    #[test]
    fn size_map_covers_all_parties() {
        let map = IsideWith::adversary_size_map();
        assert_eq!(map.len(), 8);
        let iw = IsideWith::with_result_order(Party::ALL);
        for (party, size) in map {
            assert_eq!(iw.site.object(iw.image_of(party)).size, size);
        }
    }

    #[test]
    fn labels_round_trip_and_match_display() {
        for party in Party::ALL {
            assert_eq!(Party::from_label(party.label()), Some(party));
            assert_eq!(party.to_string(), party.label());
        }
        assert_eq!(Party::AmericanSolidarity.label(), "american-solidarity");
        assert_eq!(Party::from_label("result-html"), None);
        assert_eq!(Party::from_label("Green"), None);
    }

    #[test]
    fn objects_of_interest_are_nine() {
        let iw = IsideWith::with_result_order(Party::ALL);
        assert_eq!(iw.objects_of_interest().len(), 9);
    }
}
