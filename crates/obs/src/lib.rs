//! Span tracing and operation counters for the Atom reproduction.
//!
//! This crate is the observability floor the rest of the workspace reports
//! through: a process-global, lock-cheap recorder for *phase spans*
//! (setup / intake / verify / mix / exit, keyed by round and group) plus
//! named *operation counters* (crypto batch sizes, transport frame volume),
//! emitters that render collected snapshots as a Chrome trace-event JSON
//! file (loadable in Perfetto / `chrome://tracing`) or a human text summary
//! with p50/p99 per phase per round, and the workspace's one JSON codec
//! ([`json`]).
//!
//! Counters always count. Spans and notes are **off by default** and cost
//! one relaxed atomic load per site until [`set_enabled`]`(true)` is
//! called, so an untraced run reads no clock for them. Recording never
//! touches protocol state or randomness: traced runs must stay
//! byte-identical to untraced ones, and CI asserts exactly that.
//!
//! The crate deliberately depends on nothing but `std`. Spans are coarse
//! (one per phase × round × group × hop), so a plain `Mutex<Vec<_>>` is
//! cheap relative to the work each span brackets; counters are static
//! relaxed atomics registered on first use.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
pub mod json;

pub use emit::{chrome_trace_json, metrics_json, text_summary};

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Sentinel `gid` for spans that are not specific to one group
/// (trustee setup, exit assembly, failure notes).
pub const GID_NONE: u32 = u32::MAX;

/// Global enable flag for spans and notes; [`span`] and [`note`] check it first.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The process index stamped on local snapshots (fleet member index).
static PROCESS: AtomicU32 = AtomicU32::new(0);

/// Monotonic epoch all span timestamps are measured against. Set lazily on
/// the first timestamp so an untraced process never touches the clock.
static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Next thread id handed out by [`thread_id`].
static NEXT_TID: AtomicU32 = AtomicU32::new(0);

/// Collected spans for this process.
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Registered static counters (see [`Counter`]).
static COUNTERS: Mutex<Vec<&'static Counter>> = Mutex::new(Vec::new());

/// Dynamically-named counters (see [`count`]).
static DYN_COUNTERS: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

/// Dynamically-named high-water-mark gauges (see [`gauge_max`]). Kept apart
/// from [`DYN_COUNTERS`] because counters merge additively while gauges merge
/// by maximum — peak memory summed across samples would be nonsense.
static DYN_GAUGES: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    /// Small dense per-thread id used as the Perfetto track id. Assigned on
    /// first use so worker threads get stable, compact tids.
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Turn span and note recording on or off process-wide. Disabled (the
/// default) makes every span and note site a single relaxed load. Counters
/// count either way.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Record which fleet process this is (0 = coordinator). Stamped on
/// [`local_snapshot`] and used as the Perfetto `pid` track.
pub fn set_process(process: u32) {
    PROCESS.store(process, Ordering::Relaxed);
}

/// The fleet process index previously set via [`set_process`] (default 0).
pub fn process() -> u32 {
    PROCESS.load(Ordering::Relaxed)
}

/// Microseconds since the process trace epoch.
fn now_us() -> u64 {
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
}

/// The calling thread's compact trace id.
fn thread_id() -> u32 {
    TID.with(|tid| *tid)
}

/// Clear all recorded spans and reset every counter to zero. Call between
/// independent traced runs sharing one process (e.g. sweep cells) so spans
/// from an earlier run's round N don't bleed into the next run's round N.
pub fn reset() {
    SPANS.lock().expect("span store poisoned").clear();
    for counter in COUNTERS.lock().expect("counter registry poisoned").iter() {
        counter.value.store(0, Ordering::Relaxed);
    }
    DYN_COUNTERS.lock().expect("dyn counters poisoned").clear();
    DYN_GAUGES.lock().expect("dyn gauges poisoned").clear();
}

/// One recorded phase span: `phase` ran for `dur_us` starting at `start_us`
/// (microseconds since the process epoch) on worker thread `tid`, attributed
/// to `round`/`gid` (`gid == `[`GID_NONE`] when not group-specific). `note`
/// carries free-text detail (why a round failed) and is usually empty.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Short phase name: `setup`, `intake`, `verify`, `mix`, `exit`, `failed`.
    pub phase: String,
    /// Protocol round the span belongs to.
    pub round: u32,
    /// Group id, or [`GID_NONE`] for round-wide spans.
    pub gid: u32,
    /// Compact worker-thread id (Perfetto track within the process).
    pub tid: u32,
    /// Start time, microseconds since the process trace epoch.
    pub start_us: u64,
    /// Duration in microseconds (0 for instant markers).
    pub dur_us: u64,
    /// Optional free-text detail (e.g. why the engine failed a round).
    pub note: String,
}

/// Live span guard returned by [`span`]; records a [`SpanRecord`] when
/// dropped. Inert (no clock reads, no allocation) while recording is
/// disabled.
#[must_use = "a span measures the scope it is alive for"]
pub struct Span {
    start: Option<(&'static str, u32, u32, u64)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((phase, round, gid, start_us)) = self.start.take() {
            let end_us = now_us();
            record(SpanRecord {
                phase: phase.to_string(),
                round,
                gid,
                tid: thread_id(),
                start_us,
                dur_us: end_us.saturating_sub(start_us),
                note: String::new(),
            });
        }
    }
}

/// Open a phase span; the returned guard records it on drop. Use
/// [`GID_NONE`] for spans not tied to one group.
pub fn span(phase: &'static str, round: u32, gid: u32) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { start: None };
    }
    Span {
        start: Some((phase, round, gid, now_us())),
    }
}

/// Record an instant marker with free-text detail (e.g. why a round failed).
/// No-op while recording is disabled.
pub fn note(phase: &'static str, round: u32, detail: &str) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    record(SpanRecord {
        phase: phase.to_string(),
        round,
        gid: GID_NONE,
        tid: thread_id(),
        start_us: now_us(),
        dur_us: 0,
        note: detail.to_string(),
    });
}

fn record(span: SpanRecord) {
    SPANS.lock().expect("span store poisoned").push(span);
}

/// A named, statically-allocated operation counter. Declare one per
/// instrumentation site:
///
/// ```
/// static FIXED_BASE_CALLS: atom_obs::Counter =
///     atom_obs::Counter::new("crypto.fixed_base.calls");
/// FIXED_BASE_CALLS.add(1);
/// ```
///
/// `add` is a relaxed fetch-add, whether recording is enabled or not. The
/// counter registers itself in the global snapshot registry on its first
/// increment.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
    registered: AtomicBool,
}

impl Counter {
    /// A new counter reported under `name` (dot-separated, e.g.
    /// `crypto.multiexp.terms`).
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            value: AtomicU64::new(0),
            registered: AtomicBool::new(false),
        }
    }

    /// Add `n` to the counter.
    pub fn add(&'static self, n: u64) {
        if !self.registered.swap(true, Ordering::Relaxed) {
            COUNTERS
                .lock()
                .expect("counter registry poisoned")
                .push(self);
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The counter's current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Add `n` to a dynamically-named counter (for names only known at runtime,
/// e.g. per-peer transport volume). Hotter sites should prefer a static
/// [`Counter`]. Only a name's first count allocates: transports count
/// every send.
pub fn count(name: &str, n: u64) {
    let mut map = DYN_COUNTERS.lock().expect("dyn counters poisoned");
    match map.get_mut(name) {
        Some(value) => *value += n,
        None => drop(map.insert(name.to_string(), n)),
    }
}

/// Raise a dynamically-named high-water-mark gauge to at least `value`.
/// Samples merge by maximum, so the snapshot reports the peak ever observed
/// (e.g. peak in-flight intake submissions), not a running sum.
pub fn gauge_max(name: &str, value: u64) {
    let mut map = DYN_GAUGES.lock().expect("dyn gauges poisoned");
    let slot = map.entry(name.to_string()).or_insert(0);
    *slot = (*slot).max(value);
}

/// The peak value a [`gauge_max`] gauge has reached, or `None` if the gauge
/// was never touched since the last [`reset`].
pub fn gauge_peak(name: &str) -> Option<u64> {
    DYN_GAUGES
        .lock()
        .expect("dyn gauges poisoned")
        .get(name)
        .copied()
}

/// The value of counter or gauge `name` in [`counter_snapshot`], 0 if it was
/// never touched since the last [`reset`].
pub fn counter(name: &str) -> u64 {
    let found = counter_snapshot().into_iter().find(|(n, _)| n == name);
    found.map_or(0, |(_, value)| value)
}

/// Current values of every counter touched so far, sorted by name.
/// High-water-mark gauges ride along so snapshots and telemetry frames carry
/// them for free.
pub fn counter_snapshot() -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = COUNTERS
        .lock()
        .expect("counter registry poisoned")
        .iter()
        .map(|counter| (counter.name.to_string(), counter.get()))
        .collect();
    out.extend(
        DYN_COUNTERS
            .lock()
            .expect("dyn counters poisoned")
            .iter()
            .map(|(name, value)| (name.clone(), *value)),
    );
    out.extend(
        DYN_GAUGES
            .lock()
            .expect("dyn gauges poisoned")
            .iter()
            .map(|(name, value)| (name.clone(), *value)),
    );
    out.sort();
    out
}

/// One process's collected telemetry: its counters plus a set of spans.
/// A fleet's members ship theirs to the coordinator inside `telemetry`
/// control frames, a batch of new spans at a time; the coordinator keeps
/// one per process, its own included, for the fleet trace and metrics
/// files (one Perfetto process track per `process`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Fleet process index the data came from (Perfetto `pid`).
    pub process: u32,
    /// Counter values at snapshot time, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Recorded spans (typically filtered to one round).
    pub spans: Vec<SpanRecord>,
}

/// Snapshot this process's counters plus the spans of `round` (or all
/// rounds when `round` is `None`), stamped with [`process`].
pub fn local_snapshot(round: Option<u32>) -> Snapshot {
    let spans = (SPANS.lock().expect("span store poisoned").iter())
        .filter(|span| round.is_none_or(|round| span.round == round))
        .cloned()
        .collect();
    Snapshot {
        process: process(),
        counters: counter_snapshot(),
        spans,
    }
}

/// The spans recorded after the first `from`, in recording order: with
/// `from` the count already taken, a caller reads each span once without
/// draining the store other readers share.
pub fn spans_since(from: usize) -> Vec<SpanRecord> {
    let spans = SPANS.lock().expect("span store poisoned");
    spans.get(from..).unwrap_or_default().to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The recorder is process-global, so tests that flip `ENABLED` or
    /// inspect stores serialize through this lock.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn exclusive() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    #[test]
    fn disabled_recording_keeps_counting_but_records_no_spans() {
        let _guard = exclusive();
        set_enabled(false);
        reset();
        {
            let _span = span("mix", 7, 3);
        }
        note("stall", 7, "detail");
        static TEST_DISABLED: Counter = Counter::new("test.disabled");
        TEST_DISABLED.add(5);
        count("test.disabled.dyn", 6);
        gauge_max("test.disabled.peak", 7);
        assert!(local_snapshot(Some(7)).spans.is_empty());
        assert_eq!(TEST_DISABLED.get(), 5);
        assert_eq!(counter("test.disabled"), 5);
        assert_eq!(counter("test.disabled.dyn"), 6);
        assert_eq!(counter("test.disabled.peak"), 7);
        assert_eq!(counter("test.disabled.never"), 0);
    }

    #[test]
    fn enabled_spans_capture_phase_round_gid_and_duration() {
        let _guard = exclusive();
        set_enabled(true);
        reset();
        {
            let _span = span("setup", 2, 1);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        note("stall", 2, "no task progress");
        set_enabled(false);
        let spans = local_snapshot(Some(2)).spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].phase, "setup");
        assert_eq!((spans[0].round, spans[0].gid), (2, 1));
        assert!(
            spans[0].dur_us >= 1_000,
            "slept 2ms, got {}",
            spans[0].dur_us
        );
        assert_eq!(spans[1].phase, "stall");
        assert_eq!(spans[1].gid, GID_NONE);
        assert_eq!(spans[1].dur_us, 0);
        assert_eq!(spans[1].note, "no task progress");
        assert!(local_snapshot(Some(3)).spans.is_empty());
    }

    #[test]
    fn gauges_keep_the_peak_and_reset_clears_them() {
        let _guard = exclusive();
        set_enabled(true);
        reset();
        gauge_max("test.gauge.peak", 4);
        gauge_max("test.gauge.peak", 9);
        gauge_max("test.gauge.peak", 2);
        assert_eq!(gauge_peak("test.gauge.peak"), Some(9));
        assert!(counter_snapshot().contains(&("test.gauge.peak".to_string(), 9)));
        set_enabled(false);
        gauge_max("test.gauge.peak", 100); // disabled: still the peak
        assert_eq!(gauge_peak("test.gauge.peak"), Some(100));
        reset();
        assert_eq!(gauge_peak("test.gauge.peak"), None);
    }

    #[test]
    fn counters_snapshot_sorted_and_reset_zeroes() {
        let _guard = exclusive();
        set_enabled(true);
        reset();
        static TEST_B: Counter = Counter::new("test.b");
        static TEST_A: Counter = Counter::new("test.a");
        TEST_B.add(2);
        TEST_A.add(1);
        TEST_A.add(1);
        count("test.dyn.z", 9);
        set_enabled(false);
        let snapshot = counter_snapshot();
        let ours: Vec<_> = snapshot
            .iter()
            .filter(|(name, _)| name.starts_with("test."))
            .cloned()
            .collect();
        assert_eq!(
            ours,
            vec![
                ("test.a".to_string(), 2),
                ("test.b".to_string(), 2),
                ("test.dyn.z".to_string(), 9),
            ]
        );
        reset();
        assert_eq!(TEST_A.get(), 0);
        assert!(counter_snapshot()
            .iter()
            .all(|(name, _)| !name.starts_with("test.dyn")));
    }

    #[test]
    fn local_snapshot_filters_by_round_and_stamps_process() {
        let _guard = exclusive();
        set_enabled(true);
        reset();
        set_process(3);
        {
            let _a = span("mix", 0, 0);
        }
        {
            let _b = span("mix", 1, 0);
        }
        set_enabled(false);
        let snapshot = local_snapshot(Some(1));
        assert_eq!(snapshot.process, 3);
        assert_eq!(snapshot.spans.len(), 1);
        assert_eq!(snapshot.spans[0].round, 1);
        let all = local_snapshot(None);
        assert_eq!(all.spans.len(), 2);
        set_process(0);
    }

    #[test]
    fn spans_since_reads_each_span_once_and_leaves_the_store() {
        let _guard = exclusive();
        set_enabled(true);
        reset();
        note("stall", 0, "first");
        let first = spans_since(0);
        note("failed", 1, "second");
        let second = spans_since(first.len());
        set_enabled(false);
        assert_eq!(first.len(), 1);
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].note, "second");
        assert_eq!(spans_since(2), Vec::new());
        assert_eq!(local_snapshot(None).spans.len(), 2, "nothing was drained");
        reset();
        assert_eq!(
            spans_since(5),
            Vec::new(),
            "a cursor past a reset reads nothing"
        );
    }
}
