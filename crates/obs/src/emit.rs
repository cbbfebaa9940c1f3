//! Renderers for collected telemetry: Chrome trace-event JSON (one Perfetto
//! process track per fleet process), a per-process counter dump, and a human
//! text summary with p50/p99 per phase per round. Both files are
//! [`Value`]s written by [`crate::json`]'s one writer, so `fig_trace` and
//! the tests read them back through its parser.

use crate::json::{Json, Value};
use crate::{Snapshot, SpanRecord, GID_NONE};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// An object of `pairs`, in order.
fn object(pairs: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        (pairs.into_iter())
            .map(|(key, value)| (key.to_string(), value))
            .collect(),
    )
}

/// Render `snapshots` as Chrome trace-event JSON, loadable in Perfetto or
/// `chrome://tracing`. Every snapshot becomes one process track (`pid` =
/// fleet process index, named via a `process_name` metadata event); spans
/// become complete (`"ph": "X"`) events with `ts`/`dur` in microseconds and
/// `round`/`gid`/`note` in `args`.
pub fn chrome_trace_json(snapshots: &[Snapshot]) -> String {
    let mut events = Vec::new();
    for snapshot in snapshots {
        let pid = Value::Num(snapshot.process.into());
        let name = Value::Str(format!("atom process {}", snapshot.process));
        events.push(object(vec![
            ("name", Value::Str("process_name".into())),
            ("ph", Value::Str("M".into())),
            ("pid", pid.clone()),
            ("tid", Value::Num(0.0)),
            ("args", object(vec![("name", name)])),
        ]));
        for span in &snapshot.spans {
            let gid = match span.gid {
                GID_NONE => Value::Str("-".into()),
                gid => Value::Num(gid.into()),
            };
            let mut args = vec![("round", Value::Num(span.round.into())), ("gid", gid)];
            if !span.note.is_empty() {
                args.push(("note", span.note.to_value()));
            }
            events.push(object(vec![
                ("name", span.phase.to_value()),
                ("cat", Value::Str("atom".into())),
                ("ph", Value::Str("X".into())),
                ("ts", span.start_us.to_value()),
                ("dur", span.dur_us.to_value()),
                ("pid", pid.clone()),
                ("tid", Value::Num(span.tid.into())),
                ("args", object(args)),
            ]));
        }
    }
    object(vec![("traceEvents", Value::Arr(events))]).to_pretty()
}

/// Render each snapshot's counters as JSON: an array of per-process objects,
/// each counter a member of its process's `counters`, sorted by name.
pub fn metrics_json(snapshots: &[Snapshot]) -> String {
    let processes = (snapshots.iter())
        .map(|snapshot| {
            let counters = (snapshot.counters.iter())
                .map(|(name, value)| (name.clone(), value.to_value()))
                .collect();
            object(vec![
                ("process", Value::Num(snapshot.process.into())),
                ("counters", Value::Obj(counters)),
            ])
        })
        .collect();
    object(vec![("processes", Value::Arr(processes))]).to_pretty()
}

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted duration sample.
fn percentile_us(durations: &mut [u64], p: u32) -> u64 {
    if durations.is_empty() {
        return 0;
    }
    durations.sort_unstable();
    let rank = (durations.len() * p as usize).div_ceil(100).max(1);
    durations[rank - 1]
}

/// Human-readable per-round, per-phase latency table: span count, total,
/// p50 and p99 duration for every `(round, phase)` that recorded at least
/// one span, followed by any notes (why a round failed).
pub fn text_summary(snapshots: &[Snapshot]) -> String {
    let mut groups: BTreeMap<(u32, String), Vec<u64>> = BTreeMap::new();
    let mut notes: Vec<&SpanRecord> = Vec::new();
    for snapshot in snapshots {
        for span in &snapshot.spans {
            if !span.note.is_empty() {
                notes.push(span);
            }
            groups
                .entry((span.round, span.phase.clone()))
                .or_default()
                .push(span.dur_us);
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:>5}  {:<8} {:>6} {:>12} {:>12} {:>12}",
        "round", "phase", "spans", "total_ms", "p50_ms", "p99_ms"
    );
    for ((round, phase), mut durations) in groups {
        let total: u64 = durations.iter().sum();
        let p50 = percentile_us(&mut durations, 50);
        let p99 = percentile_us(&mut durations, 99);
        let _ = writeln!(
            out,
            "{:>5}  {:<8} {:>6} {:>12.3} {:>12.3} {:>12.3}",
            round,
            phase,
            durations.len(),
            total as f64 / 1_000.0,
            p50 as f64 / 1_000.0,
            p99 as f64 / 1_000.0
        );
    }
    for span in notes {
        let _ = writeln!(
            out,
            "note  round {} {}: {}",
            span.round, span.phase, span.note
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(phase: &str, round: u32, gid: u32, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            phase: phase.to_string(),
            round,
            gid,
            tid: 1,
            start_us,
            dur_us,
            note: String::new(),
        }
    }

    fn sample() -> Vec<Snapshot> {
        vec![
            Snapshot {
                process: 0,
                counters: vec![("crypto.multiexp.calls".to_string(), 4)],
                spans: vec![
                    span("mix", 0, 1, 10, 100),
                    span("setup", 0, GID_NONE, 0, 50),
                ],
            },
            Snapshot {
                process: 2,
                counters: vec![("net.frames".to_string(), 7)],
                spans: vec![span("mix", 0, 3, 20, 300)],
            },
        ]
    }

    /// The `traceEvents` of a rendered trace, parsed back.
    fn events(snapshots: &[Snapshot]) -> Vec<Value> {
        let trace = crate::json::parse(&chrome_trace_json(snapshots)).unwrap();
        trace.field("traceEvents").unwrap()
    }

    /// Member `key` of `event`'s `args`.
    fn arg<T: Json>(event: &Value, key: &str) -> Result<T, String> {
        event.field::<Value>("args")?.field(key)
    }

    /// The events whose `ph` is `ph`.
    fn phased<'a>(events: &'a [Value], ph: &str) -> Vec<&'a Value> {
        let of = |event: &&Value| event.field::<String>("ph").is_ok_and(|p| p == ph);
        events.iter().filter(of).collect()
    }

    #[test]
    fn chrome_trace_has_one_track_per_process_and_all_spans() {
        let events = events(&sample());
        let tracks: Vec<u64> = (phased(&events, "M").iter())
            .map(|event| event.field("pid").unwrap())
            .collect();
        assert_eq!(tracks, vec![0, 2]);
        let spans = phased(&events, "X");
        assert_eq!(spans.len(), 3);
        let on_2: Vec<_> = (spans.iter())
            .filter(|e| e.field::<u64>("pid") == Ok(2))
            .collect();
        assert_eq!(on_2.len(), 1);
        assert_eq!(on_2[0].field::<u64>("dur"), Ok(300));
        assert!((spans.iter()).any(|e| arg::<String>(e, "gid").is_ok_and(|gid| gid == "-")));
    }

    #[test]
    fn chrome_trace_escapes_notes() {
        let mut snapshots = sample();
        let note = "peer \"p1\" lost\nretrying";
        snapshots[0].spans[0].note = note.to_string();
        let events = events(&snapshots);
        let notes: Vec<String> = (events.iter())
            .filter_map(|e| arg(e, "note").ok())
            .collect();
        assert_eq!(notes, vec![note.to_string()]);
    }

    #[test]
    fn metrics_json_lists_each_process() {
        let metrics = crate::json::parse(&metrics_json(&sample())).unwrap();
        let processes: Vec<Value> = metrics.field("processes").unwrap();
        let counter = |at: usize, name: &str| -> Result<u64, String> {
            processes[at].field::<Value>("counters")?.field(name)
        };
        assert_eq!(processes.len(), 2);
        assert_eq!(processes[0].field::<u64>("process"), Ok(0));
        assert_eq!(counter(0, "crypto.multiexp.calls"), Ok(4));
        assert_eq!(processes[1].field::<u64>("process"), Ok(2));
        assert_eq!(counter(1, "net.frames"), Ok(7));
    }

    /// Both files read back through the codec to exactly what was rendered:
    /// a hostile note, a round-wide span and a counter past 32 bits.
    #[test]
    fn both_files_parse_back_to_every_span_and_counter() {
        let mut snapshots = sample();
        snapshots[1].spans.push(SpanRecord {
            note: "a \"quote\", a \\ back\nslash\tand \u{1}".to_string(),
            ..span("failed", 9, GID_NONE, (1 << 40) + 3, 0)
        });
        snapshots[1]
            .counters
            .push(("net.bytes".to_string(), (1 << 33) + 1));
        let events = events(&snapshots);
        assert_eq!(phased(&events, "M").len(), snapshots.len());
        let spans = phased(&events, "X");
        let rendered: Vec<(u32, &SpanRecord)> = (snapshots.iter())
            .flat_map(|s| s.spans.iter().map(move |span| (s.process, span)))
            .collect();
        assert_eq!(spans.len(), rendered.len());
        for (event, (pid, span)) in spans.iter().zip(rendered) {
            let gid = match span.gid {
                GID_NONE => Value::Str("-".into()),
                gid => Value::Num(gid.into()),
            };
            assert_eq!(event.field::<String>("name"), Ok(span.phase.clone()));
            assert_eq!(event.field::<u64>("ts"), Ok(span.start_us));
            assert_eq!(event.field::<u64>("dur"), Ok(span.dur_us));
            assert_eq!(event.field::<u64>("pid"), Ok(pid.into()));
            assert_eq!(event.field::<u64>("tid"), Ok(span.tid.into()));
            assert_eq!(arg::<u64>(event, "round"), Ok(span.round.into()));
            assert_eq!(arg::<Value>(event, "gid"), Ok(gid));
            let note = arg::<String>(event, "note").unwrap_or_default();
            assert_eq!(note, span.note);
        }
        let metrics = crate::json::parse(&metrics_json(&snapshots)).unwrap();
        let processes: Vec<Value> = metrics.field("processes").unwrap();
        assert_eq!(processes.len(), snapshots.len());
        for (object, snapshot) in processes.iter().zip(&snapshots) {
            assert_eq!(object.field::<u64>("process"), Ok(snapshot.process.into()));
            let counters = object.field::<Value>("counters").unwrap();
            for (name, value) in &snapshot.counters {
                assert_eq!(counters.field::<u64>(name), Ok(*value), "{name}");
            }
        }
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut durations = vec![400, 100, 200, 300];
        assert_eq!(percentile_us(&mut durations, 50), 200);
        assert_eq!(percentile_us(&mut durations, 99), 400);
        assert_eq!(percentile_us(&mut [], 50), 0);
        assert_eq!(percentile_us(&mut [7], 99), 7);
    }

    #[test]
    fn text_summary_groups_by_round_and_phase() {
        let mut snapshots = sample();
        snapshots[0].spans.push(SpanRecord {
            note: "no task progress for 1s".to_string(),
            ..span("stall", 0, GID_NONE, 500, 0)
        });
        let summary = text_summary(&snapshots);
        assert!(summary.contains("round"));
        assert!(summary.contains("mix"));
        assert!(summary.contains("setup"));
        assert!(summary.contains("note  round 0 stall: no task progress for 1s"));
    }
}
