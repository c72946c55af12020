//! The clock the cases run under: times exactly the public layer call a
//! case makes and, in the traced run, records a span and the program's own
//! counters around it.

use cadapt_core::counters::{CounterSnapshot, Recording};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// One recorded interval. Spans of one pass share `pass`; `parent` indexes
/// the enclosing span in the same log.
#[derive(Debug, Clone)]
pub struct Span {
    pub pass: u32,
    pub name: String,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// In-memory span log, written out once when the run ends.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`SpanLog::close`].
    pub fn open(&mut self, pass: u32, name: &str, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            pass,
            name: name.to_string(),
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) -> Duration {
        let now = self.origin.elapsed();
        let span = &mut self.spans[id];
        span.end = now;
        span.end - span.start
    }

    /// The log as JSON lines, one span per line.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{id},\"pass\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.pass,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            ));
        }
        out
    }
}

/// Handed to every case: `time` wraps the one public call the case makes.
#[derive(Debug)]
pub struct Probe<'a> {
    /// Duration of the last timed call.
    pub elapsed: Duration,
    /// Counters of the timed calls since the last [`Probe::reset`] (traced
    /// runs only; zero otherwise).
    pub counts: CounterSnapshot,
    trace: Option<(&'a mut SpanLog, u32, Option<usize>)>,
}

impl<'a> Probe<'a> {
    /// An untraced probe: a bare clock, counters off.
    pub fn plain() -> Probe<'static> {
        Probe {
            elapsed: Duration::ZERO,
            counts: CounterSnapshot::ZERO,
            trace: None,
        }
    }

    /// A tracing probe: each timed call becomes a span under `parent` and
    /// runs inside a counter recording.
    pub fn traced(log: &'a mut SpanLog, pass: u32, parent: Option<usize>) -> Probe<'a> {
        Probe {
            elapsed: Duration::ZERO,
            counts: CounterSnapshot::ZERO,
            trace: Some((log, pass, parent)),
        }
    }

    /// Time one call into the layer named `span`.
    pub fn time<T>(&mut self, span: &str, f: impl FnOnce() -> T) -> T {
        match &mut self.trace {
            None => {
                let start = Instant::now();
                let out = black_box(f());
                self.elapsed = start.elapsed();
                out
            }
            Some((log, pass, parent)) => {
                let id = log.open(*pass, span, *parent);
                let recording = Recording::start();
                let out = black_box(f());
                let counts = recording.finish();
                self.elapsed = log.close(id);
                self.counts = self.counts.plus(counts);
                out
            }
        }
    }
}
