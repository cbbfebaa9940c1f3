//! The `BENCH_scale.json` baseline: sustained throughput of the TCP engine
//! as OS processes are added — the paper's headline horizontal-scaling
//! claim, measured end to end on this machine.
//!
//! The throughput bin's `--processes` sweep emits the file
//! ([`ScaleBaseline::to_json`]); the `fig_scale` bin reads it back
//! ([`ScaleBaseline::parse`]) and renders the throughput-vs-processes
//! curve. Emitter and parser live together here so the round-trip is unit
//! tested, both through [`crate::json`].

use crate::json::{self, json_record, Json};

/// One (processes, workers-per-process) cell of the scaling sweep. Each
/// cell is measured twice — with the prebuilt directory and with
/// `--sharded` distributed setup — so the recorded file carries both
/// curves plus the sharded run's setup latency.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleCell {
    /// OS processes the deployment was split across (1 = coordinator only).
    pub processes: usize,
    /// Engine worker threads per process.
    pub workers_per_process: usize,
    /// Delivered messages per wall-clock second, prebuilt directory.
    pub msgs_per_sec: f64,
    /// Same, with the sharded directory derived inside the run.
    pub sharded_msgs_per_sec: f64,
    /// Max per-round setup latency of the sharded run, milliseconds.
    pub setup_ms: f64,
    /// Median duration of the `setup` spans of the cell's instrumented
    /// runs, milliseconds; 0.0 when the sweep ran without `--trace`.
    pub setup_p50_ms: f64,
    /// Median `intake` span duration, milliseconds (0.0 untraced).
    pub intake_p50_ms: f64,
    /// Median per-hop `mix` span duration, milliseconds (0.0 untraced).
    pub mix_p50_ms: f64,
    /// Median `verify` span duration, milliseconds (0.0 untraced).
    pub verify_p50_ms: f64,
}

/// The recorded scaling sweep: workload parameters plus one [`ScaleCell`]
/// per (processes, workers) pair.
#[derive(Clone, Debug, PartialEq)]
pub struct ScaleBaseline {
    /// Anytrust groups in the swept deployment.
    pub groups: usize,
    /// Rounds in flight at once.
    pub rounds: usize,
    /// Submissions per round.
    pub messages: usize,
    /// Mixing iterations.
    pub iterations: usize,
    /// The measured cells, in sweep order.
    pub cells: Vec<ScaleCell>,
}

json_record! {
    ScaleCell {
        processes, workers_per_process, msgs_per_sec, sharded_msgs_per_sec, setup_ms,
        setup_p50_ms, intake_p50_ms, mix_p50_ms, verify_p50_ms
    }
}

json_record! { ScaleBaseline { groups, rounds, messages, iterations, "sweep" = cells } }

impl ScaleBaseline {
    /// The canonical `BENCH_scale.json` text (stable field order, readable
    /// diffs).
    pub fn to_json(&self) -> String {
        crate::recorded_json(self, &[("transport", "tcp-loopback")])
    }

    /// Parses what [`ScaleBaseline::to_json`] wrote. Intolerant of missing
    /// fields — a truncated or hand-mangled baseline fails loudly rather
    /// than rendering nonsense.
    pub fn parse(json: &str) -> Result<Self, String> {
        Self::from_value(&json::parse(json)?)
    }

    /// The swept process counts, ascending and deduplicated.
    pub fn process_counts(&self) -> Vec<usize> {
        let mut counts: Vec<usize> = self.cells.iter().map(|cell| cell.processes).collect();
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    /// The swept workers-per-process values, ascending and deduplicated.
    pub fn worker_counts(&self) -> Vec<usize> {
        let mut counts: Vec<usize> = self
            .cells
            .iter()
            .map(|cell| cell.workers_per_process)
            .collect();
        counts.sort_unstable();
        counts.dedup();
        counts
    }

    /// The cell of one (processes, workers) pair, if it was measured.
    pub fn cell(&self, processes: usize, workers: usize) -> Option<&ScaleCell> {
        self.cells
            .iter()
            .find(|cell| cell.processes == processes && cell.workers_per_process == workers)
    }
}

/// Renders the throughput-vs-processes curve from a recorded baseline: the
/// full (processes × workers) table, then a bar chart of both curves —
/// prebuilt and sharded directory — at the widest measured worker count.
/// This is the figure the paper's horizontal-scaling claim rests on; on
/// loopback the processes share one machine, so the curve shows engine and
/// transport scaling, not added hardware (that needs `--addrs` pointed at
/// real NICs — see `docs/operations.md`).
pub fn print_fig_scale(baseline: &ScaleBaseline) {
    println!(
        "fig_scale: throughput vs processes — {}-group trap deployment, \
         {} rounds x {} messages, {} iterations, real host compute",
        baseline.groups, baseline.rounds, baseline.messages, baseline.iterations
    );
    println!(
        "{:>10} {:>9} {:>12} {:>14} {:>10}",
        "processes", "workers", "msgs/sec", "sharded msgs/s", "setup"
    );
    for cell in &baseline.cells {
        println!(
            "{:>10} {:>9} {:>12.1} {:>14.1} {:>7.1} ms",
            cell.processes,
            cell.workers_per_process,
            cell.msgs_per_sec,
            cell.sharded_msgs_per_sec,
            cell.setup_ms
        );
    }

    let Some(&workers) = baseline.worker_counts().last() else {
        return;
    };
    let series: Vec<&ScaleCell> = baseline
        .process_counts()
        .into_iter()
        .filter_map(|processes| baseline.cell(processes, workers))
        .collect();
    let peak = series
        .iter()
        .flat_map(|cell| [cell.msgs_per_sec, cell.sharded_msgs_per_sec])
        .fold(0.0f64, f64::max);
    if peak <= 0.0 {
        return;
    }
    const WIDTH: f64 = 50.0;
    println!("\nmsgs/sec vs processes at {workers} workers/process (# prebuilt, + sharded):");
    for cell in series {
        let bar =
            |rate: f64, glyph: &str| glyph.repeat((rate / peak * WIDTH).round().max(0.0) as usize);
        println!(
            "{:>3} | {:<52} {:>8.1}",
            cell.processes,
            bar(cell.msgs_per_sec, "#"),
            cell.msgs_per_sec
        );
        println!(
            "    | {:<52} {:>8.1}  (setup {:.1} ms)",
            bar(cell.sharded_msgs_per_sec, "+"),
            cell.sharded_msgs_per_sec,
            cell.setup_ms
        );
    }

    // Per-phase medians are recorded only when the sweep ran with --trace;
    // an untraced baseline carries zeros and the breakdown is omitted.
    let traced: Vec<&ScaleCell> = baseline
        .cells
        .iter()
        .filter(|cell| {
            cell.setup_p50_ms > 0.0
                || cell.intake_p50_ms > 0.0
                || cell.mix_p50_ms > 0.0
                || cell.verify_p50_ms > 0.0
        })
        .collect();
    if traced.is_empty() {
        return;
    }
    println!("\nper-phase span medians (ms, instrumented runs):");
    println!(
        "{:>10} {:>9} {:>10} {:>10} {:>10} {:>10}",
        "processes", "workers", "setup", "intake", "mix", "verify"
    );
    for cell in traced {
        println!(
            "{:>10} {:>9} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            cell.processes,
            cell.workers_per_process,
            cell.setup_p50_ms,
            cell.intake_p50_ms,
            cell.mix_p50_ms,
            cell.verify_p50_ms
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ScaleBaseline {
        ScaleBaseline {
            groups: 8,
            rounds: 2,
            messages: 64,
            iterations: 3,
            cells: vec![
                ScaleCell {
                    processes: 1,
                    workers_per_process: 1,
                    msgs_per_sec: 101.5,
                    sharded_msgs_per_sec: 99.2,
                    setup_ms: 14.5,
                    setup_p50_ms: 12.25,
                    intake_p50_ms: 3.5,
                    mix_p50_ms: 1.75,
                    verify_p50_ms: 0.5,
                },
                ScaleCell {
                    processes: 2,
                    workers_per_process: 4,
                    msgs_per_sec: 180.0,
                    sharded_msgs_per_sec: 175.4,
                    setup_ms: 9.1,
                    setup_p50_ms: 0.0,
                    intake_p50_ms: 0.0,
                    mix_p50_ms: 0.0,
                    verify_p50_ms: 0.0,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips() {
        let baseline = sample();
        let parsed = ScaleBaseline::parse(&baseline.to_json()).expect("parse own serialization");
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn parse_rejects_truncated_files() {
        let json = sample().to_json();
        assert!(ScaleBaseline::parse(&json[..json.len() / 2]).is_err());
        assert!(ScaleBaseline::parse("{}").is_err());
        assert!(ScaleBaseline::parse("{\"sweep\": []}").is_err());
    }

    #[test]
    fn axes_are_sorted_and_deduplicated() {
        let baseline = sample();
        assert_eq!(baseline.process_counts(), vec![1, 2]);
        assert_eq!(baseline.worker_counts(), vec![1, 4]);
        assert_eq!(baseline.cell(2, 4).unwrap().msgs_per_sec, 180.0);
        assert!(baseline.cell(3, 1).is_none());
    }
}
