//! Bench-side spans: the benchmark times the calls it makes into each
//! layer from its own files, keeps the spans in memory and writes them as
//! one Chrome trace-event file when the traced run ends. Spans the
//! program itself records through `atom_obs` can be merged in under the
//! bench span that caused them.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::json::Value;

/// Round id of spans not tied to one round.
pub const NO_ROUND: i64 = -1;

/// Identifier of a recorded span (its index in the tracer).
pub type SpanId = usize;

#[derive(Clone, Debug)]
struct SpanRecord {
    name: String,
    /// `bench` for spans the benchmark put around a call, `program` for
    /// spans merged from `atom_obs`.
    category: &'static str,
    parent: Option<SpanId>,
    round: i64,
    start_us: u64,
    end_us: u64,
    track: u32,
}

/// An in-memory span recorder. A disabled tracer still times (callers
/// need the durations) but stores nothing.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            spans: Mutex::new(Vec::new()),
        }
    }

    fn micros(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Times `work` and records it as span `name` under `parent`.
    /// Returns the work's result, its duration and the span id (usable as
    /// the parent of spans recorded inside `work`'s layer afterwards).
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        round: i64,
        work: impl FnOnce() -> T,
    ) -> (T, Duration, Option<SpanId>) {
        let start = Instant::now();
        let result = work();
        let end = Instant::now();
        let id = self.record(name, "bench", parent, round, start, end, 0);
        (result, end - start, id)
    }

    /// Opens a span now; close it with [`Tracer::close`]. For spans whose
    /// children must name them as parent while they are still open.
    pub fn open(&self, name: &str, parent: Option<SpanId>, round: i64) -> Option<SpanId> {
        let now = Instant::now();
        self.record(name, "bench", parent, round, now, now, 0)
    }

    /// Sets the end of a span opened with [`Tracer::open`] to now.
    pub fn close(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let end = self.micros(Instant::now());
            self.spans.lock().expect("span store poisoned")[id].end_us = end;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn record(
        &self,
        name: &str,
        category: &'static str,
        parent: Option<SpanId>,
        round: i64,
        start: Instant,
        end: Instant,
        track: u32,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(SpanRecord {
            name: name.to_string(),
            category,
            parent,
            round,
            start_us: self.micros(start),
            end_us: self.micros(end),
            track,
        });
        Some(spans.len() - 1)
    }

    /// Merges the program's own `atom_obs` spans, recorded while bench
    /// span `parent` (which started at `parent_start`) was open. `atom_obs`
    /// stamps spans against its own epoch, so they are re-based onto the
    /// earliest program span coinciding with the parent's start — exact to
    /// within the few microseconds between the two clock reads.
    pub fn merge_program_spans(
        &self,
        parent: Option<SpanId>,
        parent_start: Instant,
        program: &[atom_obs::SpanRecord],
    ) {
        if !self.enabled || program.is_empty() {
            return;
        }
        let first = program.iter().map(|s| s.start_us).min().unwrap_or(0);
        let base = self.micros(parent_start);
        let mut spans = self.spans.lock().expect("span store poisoned");
        for span in program {
            let start_us = base + (span.start_us - first);
            spans.push(SpanRecord {
                name: format!("program.{}", span.phase),
                category: "program",
                parent,
                round: i64::from(span.round),
                start_us,
                end_us: start_us + span.dur_us,
                // Track 0 is the bench thread; program worker `tid`s follow.
                track: span.tid + 1,
            });
        }
    }

    /// Number of spans recorded so far.
    #[cfg(test)]
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span store poisoned").len()
    }

    /// The Chrome trace-event document (`chrome://tracing`, Perfetto):
    /// one complete (`"ph": "X"`) event per span, with the span's id,
    /// parent id, round id and end time in `args`.
    pub fn chrome_trace(&self, workload: &str) -> Value {
        let spans = self.spans.lock().expect("span store poisoned");
        let events = spans
            .iter()
            .enumerate()
            .map(|(id, span)| {
                Value::obj([
                    ("name", Value::str(span.name.clone())),
                    ("cat", Value::str(span.category)),
                    ("ph", Value::str("X")),
                    ("ts", Value::num(span.start_us as f64)),
                    (
                        "dur",
                        Value::num(span.end_us.saturating_sub(span.start_us) as f64),
                    ),
                    ("pid", Value::num(0.0)),
                    ("tid", Value::num(f64::from(span.track))),
                    (
                        "args",
                        Value::obj([
                            ("id", Value::num(id as f64)),
                            (
                                "parent",
                                span.parent.map_or(Value::Null, |p| Value::num(p as f64)),
                            ),
                            ("round", Value::num(span.round as f64)),
                            ("start_us", Value::num(span.start_us as f64)),
                            ("end_us", Value::num(span.end_us as f64)),
                        ]),
                    ),
                ])
            })
            .collect();
        Value::obj([
            ("displayTimeUnit", Value::str("ms")),
            ("workload", Value::str(workload)),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_carry_name_start_end_parent_and_round() {
        let tracer = Tracer::new(true);
        let batch = tracer.open("batch", None, 3);
        let ((), took, child) = tracer.time("engine.run_rounds", batch, 3, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        tracer.close(batch);
        assert!(took >= Duration::from_millis(2));
        let trace = tracer.chrome_trace("unit");
        let events = trace.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 2);
        let args = |i: usize, key: &str| events[i].get("args").unwrap().get(key).cloned().unwrap();
        assert_eq!(
            events[1].get("name").unwrap().as_str(),
            Some("engine.run_rounds")
        );
        assert_eq!(args(1, "parent"), Value::num(batch.unwrap() as f64));
        assert_eq!(args(1, "id"), Value::num(child.unwrap() as f64));
        assert_eq!(args(1, "round"), Value::num(3.0));
        assert_eq!(args(0, "parent"), Value::Null);
        // The parent closed after the child ended.
        assert!(args(0, "end_us").as_f64() >= args(1, "end_us").as_f64());
        assert!(events[1].get("dur").unwrap().as_f64().unwrap() >= 2000.0);
    }

    #[test]
    fn a_disabled_tracer_times_but_stores_nothing() {
        let tracer = Tracer::new(false);
        let (value, took, id) = tracer.time("x", None, NO_ROUND, || 7);
        assert_eq!((value, id), (7, None));
        assert!(took < Duration::from_secs(1));
        assert_eq!(tracer.len(), 0);
    }
}
