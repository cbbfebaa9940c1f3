//! Renderers for collected telemetry: Chrome trace-event JSON (one Perfetto
//! process track per fleet process), a per-process counter dump, and a human
//! text summary with p50/p99 per phase per round.
//!
//! The workspace builds offline against a no-op vendored `serde`, so both
//! JSON emitters are hand-rolled, as is `atom-bench`'s JSON codec.
//! Each trace event is written on its own line so downstream tooling
//! (`fig_trace`) can scan line-by-line instead of parsing JSON.

use crate::{Snapshot, SpanRecord, GID_NONE};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Escape `text` for embedding in a JSON string literal.
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ch if (ch as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", ch as u32);
            }
            ch => out.push(ch),
        }
    }
    out
}

/// Render `snapshots` as Chrome trace-event JSON, loadable in Perfetto or
/// `chrome://tracing`. Every snapshot becomes one process track (`pid` =
/// fleet process index, named via a `process_name` metadata event); spans
/// become complete (`"ph":"X"`) events with `ts`/`dur` in microseconds and
/// `round`/`gid`/`note` in `args`. One event per line.
pub fn chrome_trace_json(snapshots: &[Snapshot]) -> String {
    let mut events = Vec::new();
    for snapshot in snapshots {
        let pid = snapshot.process;
        events.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":0,\
             \"args\":{{\"name\":\"atom process {pid}\"}}}}"
        ));
        for span in &snapshot.spans {
            let gid = match span.gid {
                GID_NONE => "\"-\"".to_string(),
                gid => gid.to_string(),
            };
            let mut event = format!(
                "{{\"name\":\"{}\",\"cat\":\"atom\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":{pid},\"tid\":{},\"args\":{{\"round\":{},\"gid\":{gid}",
                json_escape(&span.phase),
                span.start_us,
                span.dur_us,
                span.tid,
                span.round,
            );
            if !span.note.is_empty() {
                let _ = write!(event, ",\"note\":\"{}\"", json_escape(&span.note));
            }
            events.push(event + "}}");
        }
    }
    format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n"))
}

/// Render each snapshot's counters as JSON: an array of per-process objects,
/// one counter per line, sorted by name within each process.
pub fn metrics_json(snapshots: &[Snapshot]) -> String {
    let objects: Vec<String> = (snapshots.iter())
        .map(|snapshot| {
            let counters: Vec<String> = (snapshot.counters.iter())
                .map(|(name, value)| format!("\n  \"{}\": {value}", json_escape(name)))
                .collect();
            let process = snapshot.process;
            format!(
                "{{\"process\":{process},\"counters\":{{{}\n}}}}",
                counters.join(",")
            )
        })
        .collect();
    format!("{{\"processes\":[\n{}\n]}}\n", objects.join(",\n"))
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

    #[test]
    fn chrome_trace_has_one_track_per_process_and_all_spans() {
        let json = chrome_trace_json(&sample());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
        assert_eq!(json.matches("\"process_name\"").count(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert!(json.contains("\"pid\":2"));
        assert!(json.contains("\"dur\":300"));
        assert!(json.contains("\"gid\":\"-\""));
    }

    #[test]
    fn chrome_trace_escapes_notes() {
        let mut snapshots = sample();
        snapshots[0].spans[0].note = "peer \"p1\" lost\nretrying".to_string();
        let json = chrome_trace_json(&snapshots);
        assert!(json.contains("\\\"p1\\\" lost\\nretrying"));
    }

    #[test]
    fn metrics_json_lists_each_process() {
        let json = metrics_json(&sample());
        assert!(json.contains("\"process\":0"));
        assert!(json.contains("\"crypto.multiexp.calls\": 4"));
        assert!(json.contains("\"process\":2"));
        assert!(json.contains("\"net.frames\": 7"));
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
