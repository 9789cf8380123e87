//! Wall-clock spans recorded by the traced run around the calls into
//! each layer, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use h2priv_util::alloc;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name (`trial`, `web`, `sim`, `predictor`, `metrics`, ...).
    pub name: &'static str,
    /// Identifier shared by every span of one trial.
    pub trial: u64,
    /// Index of the enclosing span in the same recorder, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Allocations made on this thread inside the span.
    pub allocs: u64,
    /// Bytes those allocations requested.
    pub alloc_bytes: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records the spans of one thread's work.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    open: Option<usize>,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder {
            epoch,
            open: None,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span `name` of trial `trial`, nested in the span
    /// currently open on this recorder, counting its allocations.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        trial: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let index = self.spans.len();
        let parent = self.open;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            trial,
            parent,
            start_ns,
            end_ns: start_ns,
            allocs: 0,
            alloc_bytes: 0,
        });
        self.open = Some(index);
        let (out, allocs, alloc_bytes) = alloc::counting(|| f(self));
        let end_ns = self.now_ns();
        self.open = parent;
        let span = &mut self.spans[index];
        span.end_ns = end_ns;
        span.allocs = allocs;
        span.alloc_bytes = alloc_bytes;
        out
    }
}

/// Self time of every span: its duration minus the part of it that the
/// union of its direct children covers.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.ns().saturating_sub(covered)
        })
        .collect()
}

/// Per-layer totals over many spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    /// Spans of this name.
    pub count: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Sum of full durations, ns.
    pub total_ns: u64,
    /// Allocations made in the span but not in its children.
    pub self_allocs: u64,
    /// Bytes of those allocations.
    pub self_alloc_bytes: u64,
}

/// Adds the self time and self allocations of `spans` (one recorder's
/// worth, so parent indices resolve) to per-name totals.
pub fn add_layer_totals(spans: &[Span], out: &mut BTreeMap<&'static str, LayerTotal>) {
    let selfs = self_ns(spans);
    let mut child_allocs = vec![(0u64, 0u64); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_allocs[p].0 += s.allocs;
            child_allocs[p].1 += s.alloc_bytes;
        }
    }
    for ((s, self_time), (ca, cb)) in spans.iter().zip(selfs).zip(child_allocs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.self_ns += self_time;
        t.total_ns += s.ns();
        t.self_allocs += s.allocs.saturating_sub(ca);
        t.self_alloc_bytes += s.alloc_bytes.saturating_sub(cb);
    }
}

/// Appends the spans as JSON lines. Span `i` gets id `base + i` and names
/// its parent by id, so batches from many recorders can share one file.
pub fn to_jsonl(spans: &[Span], base: usize, out: &mut String) {
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| (base + p).to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"trial\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"allocs\":{},\"alloc_bytes\":{}}}",
            base + i,
            s.name,
            s.trial,
            s.start_ns,
            s.end_ns,
            s.allocs,
            s.alloc_bytes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            trial: 0,
            parent,
            start_ns,
            end_ns,
            allocs: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("trial", None, 0, 100),
            span("web", Some(0), 0, 10),
            span("sim", Some(0), 10, 70),
            // Overlaps sim by 10 ns: counted once.
            span("predictor", Some(0), 60, 80),
            span("metrics", Some(0), 90, 100),
        ];
        assert_eq!(self_ns(&spans), vec![10, 10, 60, 20, 10]);
    }

    #[test]
    fn recorder_nests_spans_under_the_open_one() {
        let mut rec = Recorder::new(Instant::now());
        rec.span("trial", 7, |rec| {
            rec.span("web", 7, |_| ());
            rec.span("sim", 7, |rec| rec.span("inner", 7, |_| ()));
        });
        let parents: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("trial", None),
                ("web", Some(0)),
                ("sim", Some(0)),
                ("inner", Some(2))
            ]
        );
        let mut totals = BTreeMap::new();
        add_layer_totals(&rec.spans, &mut totals);
        let sum: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(
            sum, totals["trial"].total_ns,
            "self times partition the root"
        );
    }

    #[test]
    fn jsonl_ids_are_offset_by_base() {
        let spans = vec![span("trial", None, 0, 5), span("sim", Some(0), 1, 4)];
        let mut out = String::new();
        to_jsonl(&spans, 10, &mut out);
        let lines: Vec<&str> = out.lines().collect();
        assert!(lines[0].starts_with("{\"id\":10,\"name\":\"trial\""));
        assert!(lines[1].contains("\"id\":11") && lines[1].contains("\"parent\":10"));
    }
}
