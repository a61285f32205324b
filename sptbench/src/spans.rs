//! In-memory span recorder for the traced mode.
//!
//! The benchmark records a span around each of its own calls into a crate
//! (name, start, end, parent, and the id of the op it belongs to). Stage
//! durations the program reports itself (`StageTimings`, `SimTraceStats`)
//! become synthetic child spans laid end to end from their parent's start.
//! A layer's self time is its duration minus the part of its interval that
//! its children cover. Spans stay in memory until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.what`, e.g. `core.transform`; the layer is the crate.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// The op this span belongs to; shared by all spans of one op.
    pub op: u64,
}

/// Handle of an open span (`None` while recording is off).
pub type SpanId = Option<usize>;

/// A single-threaded span recorder; each client thread owns one.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch`; `on` starts it recording.
    pub fn new(epoch: Instant, on: bool) -> Self {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Switches recording on or off for the ops that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Tags the spans that follow with op id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.on {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes `id` (and anything still open inside it).
    pub fn exit(&mut self, id: SpanId) {
        let Some(idx) = id else { return };
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Appends children of `parent` with the given durations (seconds),
    /// laid end to end from the parent's start and clipped to its end.
    /// Returns the child ids in order (`None` for a skipped zero length).
    pub fn children(&mut self, parent: SpanId, parts: &[(&'static str, f64)]) -> Vec<SpanId> {
        let Some(p) = parent else {
            return vec![None; parts.len()];
        };
        let (mut at, end) = (self.spans[p].start_ns, self.spans[p].end_ns);
        let op = self.spans[p].op;
        let mut ids = Vec::with_capacity(parts.len());
        for &(name, secs) in parts {
            let len = (secs.max(0.0) * 1e9) as u64;
            if len == 0 {
                ids.push(None);
                continue;
            }
            let stop = (at + len).min(end.max(at));
            ids.push(Some(self.spans.len()));
            self.spans.push(Span {
                name,
                start_ns: at,
                end_ns: stop,
                parent: Some(p),
                op,
            });
            at = stop;
        }
        ids
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves every span of `other` into `self`, re-basing parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span path (`parent/.../name`): (total seconds, span
    /// count), where a span's self time is its duration minus the union of
    /// its children's intervals.
    pub fn self_times(&self) -> BTreeMap<String, (f64, u64)> {
        let mut kids: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        let mut paths: Vec<String> = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            // Parents precede their children, so their paths exist already.
            paths.push(match s.parent {
                Some(p) => {
                    kids[p].push((s.start_ns, s.end_ns));
                    format!("{}/{}", paths[p], s.name)
                }
                None => s.name.to_string(),
            });
        }
        let mut out: BTreeMap<String, (f64, u64)> = BTreeMap::new();
        for ((s, children), path) in self.spans.iter().zip(kids.iter_mut()).zip(paths) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let covered = covered_ns(children, s.start_ns, s.end_ns);
            let e = out.entry(path).or_insert((0.0, 0));
            e.0 += dur.saturating_sub(covered) as f64 * 1e-9;
            e.1 += 1;
        }
        out
    }

    /// Tab-separated dump: `op name start_ns end_ns parent` per line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("op\tname\tstart_ns\tend_ns\tparent\n");
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{parent}",
                s.op, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}
