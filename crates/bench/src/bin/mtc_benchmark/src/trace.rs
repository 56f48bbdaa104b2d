//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Kept in a pre-allocated buffer and written out when the run ends.

use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// The operation this span belongs to; spans of one operation share it.
    pub op: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    /// Spans not kept because the buffer was full.
    pub dropped: u64,
}

impl Tracer {
    /// A recorder that keeps at most `capacity` spans and never reallocates.
    pub fn with_capacity(capacity: usize) -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Starts a span, so that spans it causes can name it as their parent;
    /// `None` once the buffer is full.
    pub fn open(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
    ) -> Option<SpanId> {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return None;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() as SpanId - 1)
    }

    /// Ends a span started by [`open`](Tracer::open).
    pub fn close(&mut self, id: Option<SpanId>, end: Instant) {
        if let Some(id) = id {
            self.spans[id as usize].end_ns = self.ns(end);
        }
    }

    /// Records a finished span.
    pub fn add(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        let id = self.open(name, op, parent, start);
        self.close(id, end);
        id
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .collect()
    }

    /// Writes one tab-separated line per span: id, parent (`-` for a root),
    /// op, name, start and end in nanoseconds since the recorder was made.
    pub fn write_tsv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of that interval its
/// child spans cover. Children of one parent are sequential here (one
/// thread), so the covered part is the sum of their durations, clipped to
/// the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            covered[p as usize] += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(name: &'static str, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("pump", None, 100, 1100),
            span("log_reader", Some(0), 100, 300),
            span("distribute", Some(0), 300, 1000),
            span("apply", Some(2), 400, 900),
            // A child that overhangs its parent only counts the overlap.
            span("late", Some(0), 1050, 1200),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 200, 200, 500, 150]);
    }

    #[test]
    fn full_buffer_drops_and_counts() {
        let mut t = Tracer::with_capacity(2);
        let now = Instant::now();
        let later = now + Duration::from_micros(5);
        let a = t.add("op", 0, None, now, later);
        let b = t.add("child", 0, a, now, later);
        assert_eq!((a, b), (Some(0), Some(1)));
        assert_eq!(t.add("op", 1, None, now, later), None);
        assert_eq!(t.dropped, 1);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.durations("child"), vec![5_000]);
    }
}
