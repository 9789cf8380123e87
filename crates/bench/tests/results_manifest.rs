//! `results/MANIFEST` names every committed artefact under `results/`
//! with the registered experiment, trials and base seed that regenerate
//! it and the CRC-32 of its bytes. `scripts/verify.sh` reruns each
//! `run <experiment> <trials>` in release and compares the bytes; this
//! test ties the manifest to the committed files and to the registry, so
//! neither drifts unnoticed.

use h2priv_core::experiments::named;
use h2priv_util::crc32::crc32;
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn manifest_names_every_artefact_with_its_seed_and_crc() {
    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"));
    let manifest = std::fs::read_to_string(dir.join("MANIFEST")).expect("results/MANIFEST");
    let mut listed = BTreeSet::new();
    for line in manifest.lines() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let cols: Vec<&str> = line.split_whitespace().collect();
        let [experiment, trials, seed, file, crc] = cols[..] else {
            panic!("malformed manifest line: {line}");
        };
        let entry =
            named(experiment).unwrap_or_else(|| panic!("{file}: no experiment {experiment}"));
        assert_eq!(seed.parse(), Ok(entry.base_seed), "{file}: base seed");
        assert!(
            trials.parse::<usize>().is_ok_and(|t| t > 0),
            "{file}: trials"
        );
        assert!(
            file.ends_with(".json") || file.ends_with(".txt"),
            "{file}: a JSON report or a text table"
        );
        let bytes = std::fs::read(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(
            format!("{:08x}", crc32(&bytes)),
            crc,
            "{file}: CRC-32 of the committed bytes"
        );
        assert!(listed.insert(file.to_owned()), "{file} is listed twice");
    }
    let present: BTreeSet<String> = std::fs::read_dir(dir)
        .expect("results/")
        .map(|e| {
            e.expect("results/ entry")
                .file_name()
                .into_string()
                .expect("UTF-8 name")
        })
        .filter(|name| name != "MANIFEST")
        .collect();
    assert_eq!(
        listed, present,
        "the manifest lists exactly the files under results/"
    );
}
