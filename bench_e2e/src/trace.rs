//! Spans around the benchmark's own calls into each layer.
//!
//! A span is a named interval on one lane (the thread that made the call),
//! with an id (one per ingest call or query request) and an optional
//! parent. Spans are kept in memory and written out when the run ends; a
//! disabled tracer records nothing, so the untraced pass pays only for the
//! timestamps it needs for its own end-to-end metrics.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub lane: &'static str,
    pub name: &'static str,
    pub id: u64,
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
    /// For `ingest` spans: the call offered an epoch boundary (a cut).
    pub cut: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant, on: bool) -> Self {
        Tracer {
            origin,
            on,
            spans: Vec::with_capacity(if on { 1 << 18 } else { 0 }),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds from the origin to `t`.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record `[start, end)`; returns the span's index for children, or
    /// `None` when tracing is off.
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        lane: &'static str,
        name: &'static str,
        id: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
        cut: bool,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            lane,
            name,
            id,
            parent,
            start: self.at(start),
            end: self.at(end),
            cut,
        });
        Some(self.spans.len() - 1)
    }

    /// Take over another lane's spans (same origin), re-basing parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 48);
        out.push_str("lane\tname\tid\tparent\tstart_ns\tend_ns\tcut\n");
        for s in &self.spans {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.lane, s.name, s.id, parent, s.start, s.end, s.cut as u8
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the time its children
/// cover (children nest inside their parent and do not overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur());
        }
    }
    own
}
