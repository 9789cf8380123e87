//! Per-trial digests and the pinned references they are checked against.

use h2priv_core::experiment::{IsideWithTrial, ObjectAttackOutcome};

/// 64-bit FNV-1a: a fixed, toolchain-independent hash, so pinned digests
/// stay valid across Rust releases (the standard hashers promise no
/// stable output).
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Feeds an integer.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Feeds a length-prefixed string.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The hash so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of one line of text.
pub fn line_digest(line: &str) -> u64 {
    Fnv::default().bytes(line.as_bytes()).finish()
}

/// Digest of everything a trial publishes: how it ended, the simulator's
/// event count and end time, both endpoints' transport counters, the
/// middlebox, attack and capture counters, defense overheads, every
/// predicted unit with its label, and the outcome verdicts the experiment
/// reads (`images` is empty where the experiment skips them).
pub fn trial_digest(
    trial: &IsideWithTrial,
    html: &ObjectAttackOutcome,
    images: &[ObjectAttackOutcome],
    sequence: &[bool],
) -> u64 {
    let r = &trial.result;
    let mut h = Fnv::default();
    h.str(r.outcome.label())
        .u64(r.sim_events)
        .u64(r.ended_at.as_nanos());
    for s in [&r.server_tcp, &r.client_tcp] {
        for v in [
            s.segments_sent,
            s.fast_retransmits,
            s.timeout_retransmits,
            s.acks_sent,
            s.dup_acks_sent,
            s.dup_acks_received,
            s.rto_events,
            s.bytes_sent,
            s.bytes_acked,
            s.bytes_delivered,
            s.segments_received,
            s.out_of_order_segments,
        ] {
            h.u64(v);
        }
    }
    let m = &r.mbox_stats;
    for v in [
        m.observed_c2s,
        m.observed_s2c,
        m.forwarded,
        m.delayed,
        m.dropped,
        r.attack.gets_seen,
        r.attack.packets_dropped,
        r.attack.packets_delayed,
        r.trace.len() as u64,
        r.pad_overhead_bytes,
        r.dummy_cells_sent,
        r.split_alt_datagrams,
    ] {
        h.u64(v);
    }
    h.u64(trial.prediction.units.len() as u64);
    for u in &trial.prediction.units {
        h.u64(u.unit.start.as_nanos())
            .u64(u.unit.end.as_nanos())
            .u64(u.unit.estimated_payload)
            .u64(u.unit.records as u64)
            .str(u.label.as_deref().unwrap_or(""));
    }
    for o in std::iter::once(html).chain(images) {
        h.u64(u64::from(o.object.0))
            .u64(o.best_degree.to_bits())
            .u64(u64::from(o.identified))
            .u64(u64::from(o.success));
    }
    for &ok in sequence {
        h.u64(u64::from(ok));
    }
    h.finish()
}

/// A pinned per-trial digest list: entry `k` is the digest of pool entry
/// `k` of `workload` at `base_seed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reference {
    /// Workload name.
    pub workload: String,
    /// Base seed the pool was generated from.
    pub base_seed: u64,
    /// Digests by pool entry.
    pub digests: Vec<u64>,
}

impl Reference {
    /// Renders the reference file: `#` comments, `workload` and
    /// `base_seed` lines, then one hex digest per line in entry order.
    pub fn render(&self, comment: &str) -> String {
        let mut out = String::new();
        for line in comment.lines() {
            out.push_str(&format!("# {line}\n"));
        }
        out.push_str(&format!("workload {}\n", self.workload));
        out.push_str(&format!("base_seed {}\n", self.base_seed));
        for d in &self.digests {
            out.push_str(&format!("{d:016x}\n"));
        }
        out
    }

    /// Parses [`Reference::render`] output.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut workload = None;
        let mut base_seed = None;
        let mut digests = Vec::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(w) = line.strip_prefix("workload ") {
                workload = Some(w.to_string());
            } else if let Some(b) = line.strip_prefix("base_seed ") {
                base_seed = Some(
                    b.parse()
                        .map_err(|_| format!("line {}: bad base_seed", n + 1))?,
                );
            } else {
                digests.push(
                    u64::from_str_radix(line, 16)
                        .map_err(|_| format!("line {}: bad digest {line:?}", n + 1))?,
                );
            }
        }
        Ok(Reference {
            workload: workload.ok_or("reference has no workload line")?,
            base_seed: base_seed.ok_or("reference has no base_seed line")?,
            digests,
        })
    }
}

/// Observed `(entry, digest)` pairs that differ from the pinned list; an
/// entry beyond the pinned list counts as a mismatch.
pub fn count_mismatches(pinned: &[u64], observed: &[(usize, u64)]) -> usize {
    observed
        .iter()
        .filter(|(k, d)| pinned.get(*k) != Some(d))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_published_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(line_digest("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(line_digest("foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn reference_roundtrips_and_rejects_garbage() {
        let r = Reference {
            workload: "table2_h2".to_string(),
            base_seed: 41_000,
            digests: vec![0, 1, u64::MAX],
        };
        let text = r.render("pinned\nsecond line");
        assert!(text.starts_with("# pinned\n# second line\n"));
        assert_eq!(Reference::parse(&text).unwrap(), r);
        assert!(Reference::parse("workload x\nbase_seed 1\nzz\n").is_err());
        assert!(Reference::parse("base_seed 1\n").is_err());
    }

    #[test]
    fn mismatches_count_wrong_and_unknown_entries() {
        let pinned = [10, 20, 30];
        assert_eq!(count_mismatches(&pinned, &[(0, 10), (2, 30)]), 0);
        // Entry 1 differs, entry 1 again differs, entry 7 is not pinned.
        assert_eq!(
            count_mismatches(&pinned, &[(1, 21), (1, 22), (0, 10), (7, 0)]),
            3
        );
        assert_eq!(count_mismatches(&[], &[]), 0);
    }
}
