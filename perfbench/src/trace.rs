//! Benchmark-side spans around the public calls into the cluster.
//!
//! A span is recorded only in a traced run (`--trace 1`); untraced runs call
//! straight through, so end-to-end figures never pay for observation. Spans
//! stay in memory and are written out once, as JSON lines, when the run
//! ends. Nothing here reaches inside the program: the per-layer numbers that
//! spans cannot see come from the cluster's own public counters.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span; [`NO_PARENT`] for a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// One timed call. `(wire, vt)` identifies the message a call carried: the
/// injector's client index and the virtual time `send` stamped, or zeros
/// for calls that carry no single message.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub wire: u32,
    pub vt: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f`, recording a span around it when tracing is on. The span
    /// id is returned so children can name it as their parent.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, SpanId) {
        if !self.enabled {
            return (f(), NO_PARENT);
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            wire: 0,
            vt: 0,
        });
        (out, id)
    }

    /// Opens a long-lived parent span (a phase); close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            wire: 0,
            vt: 0,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Tags span `id` with the message it carried.
    pub fn tag(&mut self, id: SpanId, wire: u32, vt: u64) {
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.wire = wire;
            s.vt = vt;
        }
    }

    /// Durations (µs) of every span called `name` whose parent is `parent`.
    pub fn micros_of(&self, name: &str, parent: SpanId) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.parent == parent)
            .map(Span::micros)
            .collect()
    }

    pub fn get(&self, id: SpanId) -> Option<&Span> {
        self.spans.get(id as usize)
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"wire\":{},\"vt\":{}}}",
                s.name, s.start_ns, s.end_ns, s.wire, s.vt
            )?;
        }
        out.flush()
    }
}
