//! Spans the benchmark records around the calls it makes into each layer.
//!
//! There is no tracing inside the program yet: a span here brackets one
//! public call (or one layer probe of the replay) as seen from outside.
//! Spans stay in memory and are written out when the round ends. With the
//! tracer off — every end-to-end number — `begin`/`end` read no clock.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in the log.
    pub id: u32,
    /// The span open when this one began.
    pub parent: Option<u32>,
    /// The operation it belongs to; spans of one operation share it.
    pub op: Option<u32>,
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
}

impl Span {
    /// Length in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass it to Tracer::end"]
pub struct Open(Option<u32>);

/// An in-memory span log.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: Option<u32>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Tracer {
        Tracer::new(true)
    }

    /// A tracer that records nothing and costs a branch per call.
    pub fn off() -> Tracer {
        Tracer::new(false)
    }

    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
        }
    }

    /// A recording tracer on the same clock, for another thread; fold it
    /// back with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: None,
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Operation id given to spans begun from now on.
    pub fn set_op(&mut self, op: Option<u32>) {
        self.op = op;
    }

    /// Open a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span; spans close innermost first.
    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let now = self.epoch.elapsed().as_nanos() as u64;
            assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = now;
        }
    }

    /// Append the spans another thread recorded.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + base,
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many, and their summed **self** time — a span's
    /// length minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p as usize] += s.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns().saturating_sub(covered[s.id as usize]);
        }
        out
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        let opt = |v: Option<u32>| v.map_or("null".to_string(), |v| v.to_string());
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.op),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::off();
        let a = t.begin("core.query");
        t.end(a);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::on();
        t.set_op(Some(7));
        let parent = t.begin("core.query");
        let child = t.begin("mseed.decode");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.end(child);
        t.end(parent);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].op, Some(7));
        let selfs = t.self_times();
        let (n, parent_self) = selfs["core.query"];
        assert_eq!(n, 1);
        assert_eq!(parent_self, spans[0].duration_ns() - spans[1].duration_ns());
        assert!(selfs["mseed.decode"].1 >= 2_000_000);
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let mut main = Tracer::on();
        let a = main.begin("op");
        main.end(a);
        let mut other = main.fork();
        let b = other.begin("server.roundtrip");
        let c = other.begin("server.codec");
        other.end(c);
        other.end(b);
        main.absorb(other);
        assert_eq!(main.spans()[2].parent, Some(1));
        assert_eq!(main.spans()[2].id, 2);
    }
}
