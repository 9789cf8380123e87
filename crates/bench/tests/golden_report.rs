//! Golden-report regression: the experiment binaries' JSON output must be
//! byte-identical to the fixture produced before the serde_json → in-tree
//! writer swap. Guards the writer's pretty layout (2-space indent, `": "`
//! separators) and float formatting, and the determinism of the trial
//! pipeline behind the rows.

use h2priv_core::experiments::{run, Experiment, Fig1};

#[test]
fn fig1_report_matches_golden_fixture_byte_for_byte() {
    let golden_path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/golden_fig1.json"
    );
    let golden = std::fs::read_to_string(golden_path).expect("golden fixture present");
    let rendered = Fig1.report(&run(&Fig1, 1, 61_000, 1));
    assert_eq!(
        rendered, golden,
        "report output drifted from the golden fixture"
    );
}
