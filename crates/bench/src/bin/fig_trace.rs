//! Renders the per-phase cost breakdown of a recorded fleet trace: reads
//! the Chrome trace-event JSON the coordinator of `atom-node --trace`
//! writes (the first argument, default `trace.json`), through
//! `atom_obs::json`, and prints, per fleet process and fleet-wide, how
//! the span time splits across the engine phases. `docs/observability.md`
//! shows how to record a trace.

use std::collections::BTreeMap;

use atom_obs::json::{self, Value};

/// One complete (`"ph":"X"`) event of a trace.
struct TraceEvent {
    phase: String,
    pid: u64,
    dur_us: u64,
}

/// Every span event of the trace, in file order. Metadata (`"ph":"M"`)
/// events are skipped; a malformed span event fails the read rather than
/// being silently dropped.
fn span_events(trace: &str) -> Result<Vec<TraceEvent>, String> {
    let events: Vec<Value> = json::parse(trace)?.field("traceEvents")?;
    events
        .iter()
        .filter(|event| event.field::<String>("ph").is_ok_and(|ph| ph == "X"))
        .map(|event| {
            Ok(TraceEvent {
                phase: event.field("name")?,
                pid: event.field("pid")?,
                dur_us: event.field("dur")?,
            })
        })
        .collect()
}

fn print_breakdown(events: &[TraceEvent]) {
    // (pid, phase) -> (spans, total µs); BTreeMap keeps the output stable.
    let mut per_process: BTreeMap<(u64, String), (u64, u64)> = BTreeMap::new();
    let mut fleet: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for event in events {
        let slot = per_process
            .entry((event.pid, event.phase.clone()))
            .or_default();
        slot.0 += 1;
        slot.1 += event.dur_us;
        let slot = fleet.entry(event.phase.clone()).or_default();
        slot.0 += 1;
        slot.1 += event.dur_us;
    }
    let fleet_total: u64 = fleet.values().map(|(_, us)| us).sum();

    println!(
        "fig_trace: {} span events across {} processes",
        events.len(),
        per_process
            .keys()
            .map(|(pid, _)| pid)
            .collect::<std::collections::BTreeSet<_>>()
            .len()
    );
    println!(
        "\n{:>8} {:<8} {:>7} {:>12} {:>7}",
        "process", "phase", "spans", "total_ms", "share"
    );
    for ((pid, phase), (spans, us)) in &per_process {
        let share = if fleet_total > 0 {
            *us as f64 / fleet_total as f64 * 100.0
        } else {
            0.0
        };
        println!(
            "{pid:>8} {phase:<8} {spans:>7} {:>12.3} {share:>6.1}%",
            *us as f64 / 1_000.0
        );
    }

    let peak = fleet.values().map(|(_, us)| *us).max().unwrap_or(0);
    if peak == 0 {
        return;
    }
    const WIDTH: f64 = 50.0;
    println!("\nfleet-wide phase cost (total recorded span time):");
    for (phase, (spans, us)) in &fleet {
        let bar = "#".repeat((*us as f64 / peak as f64 * WIDTH).round() as usize);
        let share = *us as f64 / fleet_total as f64 * 100.0;
        println!(
            "{phase:>8} | {bar:<52} {:>10.3} ms {share:>5.1}%  ({spans} spans)",
            *us as f64 / 1_000.0
        );
    }
}

fn main() {
    let events = atom_bench::read_recorded(
        "trace.json",
        "-p atom-runtime --bin atom-node -- --index 0 --addrs 127.0.0.1:7401,127.0.0.1:7402 \
         --trace trace.json",
        span_events,
    );
    assert!(!events.is_empty(), "the trace holds no span events");
    print_breakdown(&events);
}
