//! In-memory span recording for the traced run.
//!
//! A span is `{request id, name, start, end, parent}` with times in
//! nanoseconds since the run's origin. Spans are recorded from the
//! benchmark's own code around calls into each layer's public functions,
//! kept in memory per client thread, and written out when the run ends.
//!
//! A span's *self time* is its duration minus the part of it that its
//! children cover. For one request tree, the self times of every layer
//! span plus the root's own self time (the *unattributed* time: inside
//! the request, claimed by no layer) add up to the root's duration
//! exactly — [`Reconciliation::add`] checks that for every tree.
//!
//! Each tree is folded into its tracer's running [`Reconciliation`] as it
//! finishes; only the first [`KEPT_TREES`] trees of a tracer keep their
//! spans for the span file, so memory stays bounded on long runs.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Request this span belongs to; every span of a tree shares it.
    pub req: u64,
    /// Layer span name, e.g. `protocol.encode`.
    pub name: &'static str,
    /// Start, ns since the tracer's origin.
    pub start: u64,
    /// End, ns since the tracer's origin.
    pub end: u64,
    /// Index of the parent span in the same tracer, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Trees per tracer whose spans are kept for the span file.
pub const KEPT_TREES: usize = 5_000;

/// Name of the root span of a client-visible request: its self time is
/// the request's unattributed time.
pub const REQUEST: &str = "request";

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    kept: usize,
    rec: Reconciliation,
}

impl Tracer {
    /// An empty tracer whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::new(), kept: 0, rec: Reconciliation::default() }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span starting now; close it with [`Tracer::end`].
    pub fn begin(&mut self, req: u64, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.record(req, name, now, now, parent)
    }

    /// Close span `id` now.
    pub fn end(&mut self, id: usize) {
        let now = self.now();
        self.spans[id].end = now;
    }

    /// Record a span with explicit bounds.
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span { req, name, start, end, parent });
        self.spans.len() - 1
    }

    /// Time `f` as a span named `name` under `parent`.
    pub fn span<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(req, name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Close root span `root` now and fold its tree — every span
    /// recorded since it — into the running reconciliation.
    pub fn end_tree(&mut self, root: usize) {
        self.end(root);
        let tree: Vec<Span> = self.spans[root..]
            .iter()
            .map(|s| Span { parent: s.parent.map(|p| p - root), ..s.clone() })
            .collect();
        self.rec.add(&tree);
        if self.kept < KEPT_TREES {
            self.kept += 1;
        } else {
            self.spans.truncate(root);
        }
    }

    /// The kept spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every finished tree, reconciled.
    pub fn reconciliation(&self) -> &Reconciliation {
        &self.rec
    }

    /// Copy `other`'s spans (keeping parent links) and reconciliation
    /// into this tracer.
    pub fn absorb(&mut self, other: &Tracer) {
        let base = self.spans.len();
        self.spans.extend(
            other.spans.iter().map(|s| Span { parent: s.parent.map(|p| p + base), ..s.clone() }),
        );
        self.rec.merge(&other.rec);
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` after clipping each to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(kids, s.start, s.end))
        .collect()
}

/// The outcome of reconciling request trees.
#[derive(Debug, Default)]
pub struct Reconciliation {
    /// Request trees checked.
    pub roots: usize,
    /// Trees whose layer self times plus unattributed time differ from
    /// the root's duration (overlapping siblings, or a child outside its
    /// parent).
    pub mismatches: usize,
    /// Unattributed ns of every [`REQUEST`] root.
    pub unattributed: Vec<u64>,
    /// Per span name: (sum of self ns, span count).
    pub self_by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl Reconciliation {
    /// Check, for every root in `spans`, that the self times of all its
    /// descendants plus its own self time equal its duration, and fold
    /// the self times in.
    pub fn add(&mut self, spans: &[Span]) {
        let selfs = self_times(spans);
        let mut root_of = vec![0usize; spans.len()];
        let mut attributed = vec![0u64; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            // Parents are opened before their children, so the parent's
            // root is already known.
            root_of[i] = s.parent.map_or(i, |p| root_of[p]);
            if s.parent.is_some() {
                attributed[root_of[i]] += selfs[i];
            }
            let e = self.self_by_name.entry(s.name).or_insert((0, 0));
            e.0 += selfs[i];
            e.1 += 1;
        }
        for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.parent.is_none()) {
            self.roots += 1;
            if attributed[i] + selfs[i] != s.duration() {
                self.mismatches += 1;
            }
            if s.name == REQUEST {
                self.unattributed.push(selfs[i]);
            }
        }
    }

    /// Fold another reconciliation in.
    pub fn merge(&mut self, other: &Reconciliation) {
        self.roots += other.roots;
        self.mismatches += other.mismatches;
        self.unattributed.extend_from_slice(&other.unattributed);
        for (name, (ns, n)) in &other.self_by_name {
            let e = self.self_by_name.entry(name).or_insert((0, 0));
            e.0 += ns;
            e.1 += n;
        }
    }

    /// Mean self time in µs of spans named `name` (0 when none).
    pub fn mean_self_us(&self, name: &str) -> f64 {
        match self.self_by_name.get(name) {
            Some(&(ns, n)) if n > 0 => ns as f64 / n as f64 / 1e3,
            _ => 0.0,
        }
    }
}

/// Reconcile every tree in `spans`.
#[cfg(test)]
pub fn reconcile(spans: &[Span]) -> Reconciliation {
    let mut out = Reconciliation::default();
    out.add(spans);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { req, name, start, end, parent }
    }

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            span(1, "request", 0, 100, None),
            span(1, "protocol.encode", 10, 30, Some(0)),
            span(1, "serve.wire", 40, 90, Some(0)),
            span(1, "serve.server", 50, 60, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn attributed_plus_unattributed_equals_client_total() {
        let spans = vec![
            span(1, "request", 0, 100, None),
            span(1, "protocol.encode", 10, 30, Some(0)),
            span(1, "serve.wire", 40, 90, Some(0)),
            span(1, "serve.server", 50, 60, Some(2)),
            span(1, "protocol.decode", 90, 97, Some(0)),
            span(2, "request", 200, 260, None),
            span(2, "core.snapshot", 200, 210, Some(5)),
            span(2, "core.query", 210, 255, Some(5)),
        ];
        let r = reconcile(&spans);
        assert_eq!(r.roots, 2);
        assert_eq!(r.mismatches, 0);
        // Request 1: 100 total = 20 + 40 + 10 + 7 attributed + 23 left.
        // Request 2: 60 total = 10 + 45 attributed + 5 left.
        assert_eq!(r.unattributed, vec![23, 5]);
        assert_eq!(r.self_by_name["serve.wire"], (40, 1));
        assert_eq!(r.mean_self_us("serve.server"), 0.01);
    }

    #[test]
    fn overlapping_or_escaping_children_fail_reconciliation() {
        // Two siblings covering the same 10 ns: attributed time would be
        // counted twice.
        let overlap = vec![
            span(1, "request", 0, 100, None),
            span(1, "a", 10, 40, Some(0)),
            span(1, "b", 30, 50, Some(0)),
        ];
        assert_eq!(reconcile(&overlap).mismatches, 1);
        // A child that runs past its parent's end.
        let escape = vec![span(1, "request", 0, 50, None), span(1, "a", 40, 80, Some(0))];
        assert_eq!(self_times(&escape), vec![40, 40]);
        assert_eq!(reconcile(&escape).mismatches, 1);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.record(1, "request", 0, 10, None);
        let mut b = Tracer::new(origin);
        let root = b.begin(2, "request", None);
        b.span(2, "core.query", Some(root), || ());
        b.end_tree(root);
        a.absorb(&b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let r = reconcile(a.spans());
        assert_eq!((r.roots, r.mismatches), (2, 0));
        // The absorbed tracer brought its own finished tree along.
        assert_eq!((a.reconciliation().roots, a.reconciliation().mismatches), (1, 0));
    }

    #[test]
    fn trees_beyond_the_kept_sample_are_counted_but_dropped() {
        let mut t = Tracer::new(Instant::now());
        for req in 0..KEPT_TREES as u64 + 3 {
            let root = t.begin(req, REQUEST, None);
            t.span(req, "protocol.encode", Some(root), || ());
            t.end_tree(root);
        }
        assert_eq!(t.spans().len(), 2 * KEPT_TREES);
        let rec = t.reconciliation();
        assert_eq!((rec.roots, rec.mismatches), (KEPT_TREES + 3, 0));
        assert_eq!(rec.unattributed.len(), KEPT_TREES + 3);
        assert_eq!(rec.self_by_name["protocol.encode"].1, KEPT_TREES as u64 + 3);
    }
}
