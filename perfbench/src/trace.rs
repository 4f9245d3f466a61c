//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions. Each span carries its layer, batch, start,
//! end and parent; self time is a span's duration minus the part of it its
//! children cover. Spans stay in memory and are written out once, at the
//! end of the run.

use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub layer: &'static str,
    pub batch: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
}

/// A span buffer. Threads record into their own [`Tracer::fork`] and the
/// owner [`Tracer::absorb`]s them after joining.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    /// Global id of this buffer's first span (non-zero for forks).
    base: usize,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new(), base: 0 }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, layer: &'static str, batch: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span { layer, batch, start_ns, end_ns: start_ns, parent });
        self.base + self.spans.len() - 1
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.now_ns();
        self.spans[id - self.base].end_ns = end;
    }

    /// Time `f` under a span.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        batch: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(layer, batch, parent);
        let out = f();
        self.close(id);
        out
    }

    /// An empty buffer on the same clock whose ids follow this one's,
    /// offset by `slot` reserved blocks (one per concurrent thread).
    pub fn fork(&self, slot: usize) -> Tracer {
        Tracer { epoch: self.epoch, spans: Vec::new(), base: FORK_STRIDE * (slot + 1) }
    }

    /// Append a joined fork's spans, remapping its ids into this buffer.
    pub fn absorb(&mut self, fork: Tracer) {
        let offset = self.spans.len();
        let remap = |id: SpanId| if id >= fork.base { id - fork.base + offset } else { id };
        for mut s in fork.spans {
            s.parent = s.parent.map(remap);
            self.spans.push(s);
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer (ns), summed over spans.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let children = self.children();
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let covered = covered_ns(s, &children[i], &self.spans);
            *out.entry(s.layer).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(covered);
        }
        out
    }

    /// Over all root spans: the share of their time their children cover.
    pub fn child_coverage(&self) -> f64 {
        let children = self.children();
        let (mut covered, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                covered += covered_ns(s, &children[i], &self.spans);
                total += s.end_ns - s.start_ns;
            }
        }
        if total == 0 {
            1.0
        } else {
            covered as f64 / total as f64
        }
    }

    fn children(&self) -> Vec<Vec<SpanId>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        children
    }

    /// The spans as a JSON array (one object per span).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"layer\":\"{}\",\"batch\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}{}\n",
                s.layer,
                s.batch,
                s.start_ns,
                s.end_ns,
                if i + 1 < self.spans.len() { "," } else { "" }
            ));
        }
        out.push(']');
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

/// Id block reserved per fork; far above any single run's span count.
const FORK_STRIDE: usize = 1 << 40;

/// Length of the union of `kids`' intervals, clipped to `parent`.
fn covered_ns(parent: &Span, kids: &[SpanId], spans: &[Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = kids
        .iter()
        .map(|&k| (spans[k].start_ns.max(parent.start_ns), spans[k].end_ns.min(parent.end_ns)))
        .filter(|(a, b)| b > a)
        .collect();
    iv.sort_unstable();
    let (mut total, mut cur) = (0u64, None::<(u64, u64)>);
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(layer: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { layer, batch: 0, start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let mut t = Tracer::new();
        t.spans = vec![
            span("batch", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 40, 70, Some(0)),
        ];
        let st = t.self_times();
        assert_eq!(st["batch"], 40); // children cover 10..70
        assert_eq!(st["a"], 40);
        assert_eq!(st["b"], 30);
        assert!((t.child_coverage() - 0.6).abs() < 1e-12);
    }

    #[test]
    fn forks_remap_parents() {
        let mut t = Tracer::new();
        let root = t.open("batch", 0, None);
        let mut f = t.fork(0);
        let s = f.open("shard", 0, Some(root));
        f.time("matcher", 0, Some(s), || ());
        f.close(s);
        t.close(root);
        t.absorb(f);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[2].parent, Some(1));
    }
}
