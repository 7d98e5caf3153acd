//! In-memory span recorder for the `--trace 1` run.
//!
//! Spans are recorded from the benchmark's own files, around the calls into
//! each layer's public functions, kept in memory and written out when the
//! run ends. With tracing off every call is a branch on a bool, so the
//! end-to-end run pays nothing measurable.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Hard cap so a long traced run cannot grow without bound; spans past it
/// are counted, not kept.
const MAX_SPANS: usize = 2_000_000;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<u32>,
    /// Identifier shared by all spans of one request (the update's xid;
    /// 0 for spans outside any request).
    pub xid: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle returned by [`Trace::begin`]; `None` inside when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

#[derive(Debug)]
pub struct Trace {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    dropped: u64,
}

impl Trace {
    pub fn new(on: bool) -> Trace {
        Trace {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Toggles recording mid-run (the traced run measures its own overhead
    /// by timing the same loop with recording off, then on).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, xid: u64) -> SpanId {
        if !self.on {
            return SpanId(None);
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return SpanId(None);
        }
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            xid,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
        // Spans close innermost-first; anything still open above `id` was
        // abandoned by an early return and closes with it.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
            self.spans[top as usize].end_ns = now;
        }
    }

    /// Times one call into a layer.
    pub fn time<R>(&mut self, name: &'static str, xid: u64, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, xid);
        let r = f();
        self.end(id);
        r
    }

    /// Records a span stamped on another clock (the event loop's), e.g. the
    /// per-update stage spans taken at the two TCP endpoints.
    pub fn record(&mut self, name: &'static str, xid: u64, start_ns: u64, end_ns: u64) {
        if !self.on {
            return;
        }
        if self.spans.len() >= MAX_SPANS {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            xid,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span: its duration minus the part its direct children
    /// cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Per span name: `(count, total ns, self ns)`.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let own = self.self_times_ns();
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, own_ns) in self.spans.iter().zip(own) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += own_ns;
        }
        out
    }

    /// Writes one JSON object per span, then one summary line per name.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"xid\": {}}}",
                s.name, s.start_ns, s.end_ns, s.xid
            )?;
        }
        for (name, (count, total, own)) in self.totals() {
            writeln!(
                w,
                "{{\"summary\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {own}}}"
            )?;
        }
        writeln!(w, "{{\"dropped_spans\": {}}}", self.dropped)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a trace by hand so the arithmetic is exact.
    fn hand_built() -> Trace {
        let mut t = Trace::new(true);
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            xid: 7,
        };
        t.spans = vec![
            span("proxy.on_flowmod", 0, 100, None),
            span("table.apply", 10, 30, Some(0)),
            span("engine.generate", 40, 90, Some(0)),
            span("sat.solve", 50, 80, Some(2)),
        ];
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let t = hand_built();
        // on_flowmod: 100 - (20 + 50); generate: 50 - 30; leaves keep all.
        assert_eq!(t.self_times_ns(), vec![30, 20, 20, 30]);
        let totals = t.totals();
        assert_eq!(totals["proxy.on_flowmod"], (1, 100, 30));
        assert_eq!(totals["engine.generate"], (1, 50, 20));
    }

    #[test]
    fn nesting_follows_begin_end_order() {
        let mut t = Trace::new(true);
        let outer = t.begin("outer", 1);
        let inner = t.begin("inner", 1);
        t.end(inner);
        let sibling = t.begin("sibling", 1);
        t.end(sibling);
        t.end(outer);
        let after = t.begin("after", 2);
        t.end(after);
        let parents: Vec<_> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert!(t.spans()[0].end_ns >= t.spans()[2].end_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Trace::new(false);
        let id = t.begin("x", 0);
        t.end(id);
        assert_eq!(t.time("y", 0, || 5), 5);
        t.record("z", 0, 1, 2);
        assert!(t.spans().is_empty());
    }
}
