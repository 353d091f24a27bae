//! Spans recorded from the benchmark's own files, around the calls into
//! each layer (spans inside the program are a later change): name, start,
//! end, the span that caused it, and the request it belongs to. Kept in
//! memory, written out once when the run ends.
//!
//! A [`Tracer`] is also how a thread reads the machine's speed
//! ([`crate::speed`]): one per timing thread, recording or not.

use crate::speed::Speedometer;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<u32>,
    /// Spans of one request (one timed operation) share this.
    pub request: u64,
    /// The speed factor in force when the span opened.
    pub speed: f64,
}

impl Span {
    /// Duration at the reference speed, in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6 * self.speed
    }
}

/// One thread's span recorder. Switched off it reads no clock and
/// records nothing, so the untraced iterations of a traced run — the
/// base of `trace_overhead_pct` — pay nothing for it.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u64,
    speedometer: Speedometer,
    /// The factor [`Tracer::speed`] last returned; spans opened since
    /// carry it, so a span is scaled like the sample it is part of.
    speed: f64,
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`. Starts off.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            on: false,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            speedometer: Speedometer::default(),
            speed: 1.0,
        }
    }

    /// The factor that scales a wall-clock duration starting now to the
    /// reference speed. Reads the machine's speed again if the last
    /// reading is stale, so call it before a timing starts, not inside.
    pub fn speed(&mut self) -> f64 {
        self.speed = self.speedometer.factor();
        self.speed
    }

    /// Every speed-probe time this thread took, in nanoseconds.
    pub fn speed_readings(&self) -> &[f64] {
        self.speedometer.readings()
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    pub fn set_on(&mut self, on: bool) {
        assert!(self.open.is_empty(), "tracing toggled inside a span");
        self.on = on;
    }

    /// Start a new request: every span until the next call carries `id`.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span that later spans nest under, until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let now = self.now();
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.iter().rev().nth(1).copied(),
            request: self.request,
            speed: self.speed,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let at = self.open.pop().expect("exit without enter");
        self.spans[at as usize].end_ns = self.now();
    }

    /// Time `f` as a leaf span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn ms_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Take over another thread's spans (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span: its duration minus the part its child spans cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Write every span as JSON (`parent` is a span `id` or null).
    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (id, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"request\":{},\"speed\":{:.4}}}",
                if id == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                s.request,
                s.speed
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(Instant::now());
        t.set_on(true);
        t.request(7);
        t.enter("outer");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[0].parent, None);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[1].request, 7);
        let own = t.self_ns();
        let (outer, inner) = (&t.spans[0], &t.spans[1]);
        assert_eq!(
            own[0],
            (outer.end_ns - outer.start_ns) - (inner.end_ns - inner.start_ns)
        );
        assert!(t.ms_of("inner")[0] >= 2.0 * t.spans[1].speed);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(Instant::now());
        t.enter("outer");
        assert_eq!(t.span("inner", || 5), 5);
        t.exit();
        assert!(t.spans.is_empty());
    }

    #[test]
    fn absorbed_spans_keep_their_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let mut b = Tracer::new(origin);
        a.set_on(true);
        b.set_on(true);
        a.span("a", || ());
        b.enter("b.outer");
        b.span("b.inner", || ());
        b.exit();
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
