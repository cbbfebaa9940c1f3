//! Running one workload untraced, and what every run reports: the result
//! line the driver reads, the table a person reads, and the result file.

use std::time::Instant;

use crate::catalogue::{self, Metric, END_TO_END, PER_LAYER};
use crate::json::Value;
use crate::spans::Tracer;
use crate::stats;
use crate::sys;
use crate::workloads::{BatchOutcome, Shape, Workload};

/// Set-up units per run. `setup_s` is the median unit; the timed region
/// cycles over the rounds all of them built.
pub const SETUP_UNITS: usize = 3;

/// What one run of one workload produced.
pub struct RunReport {
    pub workload: &'static str,
    /// The workload's one-line reason for existing.
    pub why: &'static str,
    pub traced: bool,
    pub seed: u64,
    pub seconds: f64,
    /// Every correctness check passed.
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    /// The listed metrics: end-to-end for an untraced run, per-layer for a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// Metrics only some workloads define. Printed and filed, not bounded.
    pub also: Vec<Metric>,
    /// The sizes actually used.
    pub sizes: Value,
    pub errors: Vec<String>,
}

/// Sums what the batches of a timed region did.
#[derive(Default)]
pub struct Region {
    pub batches: usize,
    pub offered: usize,
    pub delivered: usize,
    pub wall_s: f64,
    pub loadgen_cpu: f64,
    pub batch_ms: Vec<f64>,
    pub deliver_ms: Vec<f64>,
    pub ack_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub errors: Vec<String>,
}

impl Region {
    pub fn add(&mut self, outcome: &BatchOutcome) {
        self.batches += 1;
        self.offered += outcome.offered;
        self.delivered += outcome.delivered;
        self.wall_s += outcome.wall.as_secs_f64();
        self.loadgen_cpu += outcome.loadgen_cpu;
        self.batch_ms.push(outcome.wall.as_secs_f64() * 1e3);
        self.deliver_ms.extend_from_slice(&outcome.deliver_ms);
        self.ack_ms.extend_from_slice(&outcome.ack_ms);
        self.late_ms.extend_from_slice(&outcome.late_ms);
        if let Some(error) = &outcome.error {
            self.errors
                .push(format!("batch {}: {error}", self.batches - 1));
        }
    }
}

/// The sizes a run used, for the result file.
pub fn sizes(shape: &Shape, batches: usize) -> Value {
    Value::obj([
        ("groups", Value::num(shape.groups as f64)),
        ("group_size", Value::num(3.0)),
        ("iterations", Value::num(3.0)),
        ("message_len", Value::num(shape.message_len as f64)),
        ("round_msgs", Value::num(shape.round_msgs as f64)),
        (
            "rounds_per_batch",
            Value::num(shape.rounds_per_batch as f64),
        ),
        ("setup_units", Value::num(SETUP_UNITS as f64)),
        (
            "prebuilt_rounds",
            Value::num((SETUP_UNITS * shape.rounds_per_unit) as f64),
        ),
        ("warm_msgs", Value::num(shape.warm_msgs as f64)),
        ("batches_timed", Value::num(batches as f64)),
    ])
}

/// Runs the set-up units, returning the workload and each unit's seconds.
pub fn set_up(shape: &Shape, seed: u64, tracer: &Tracer) -> Result<(Workload, Vec<f64>), String> {
    let mut workload = Workload::new(shape.clone(), seed);
    let mut unit_s = Vec::with_capacity(SETUP_UNITS);
    for unit in 0..SETUP_UNITS {
        let started = Instant::now();
        let span = tracer.open("setup.unit", None, unit as i64);
        let result = workload.setup_unit(tracer, span);
        tracer.close(span);
        unit_s.push(started.elapsed().as_secs_f64());
        result.map_err(|e| format!("set-up unit {unit}: {e}"))?;
    }
    Ok((workload, unit_s))
}

/// The untraced run: set-up, then back-to-back batches for `seconds`,
/// every output checked.
pub fn run_untraced(shape: &Shape, seed: u64, seconds: f64) -> Result<RunReport, String> {
    let tracer = Tracer::new(false);
    let (mut workload, unit_s) = set_up(shape, seed, &tracer)?;

    let mut region = Region::default();
    let cpu_before = sys::process_cpu_seconds();
    let started = Instant::now();
    while region.batches == 0 || started.elapsed().as_secs_f64() < seconds {
        let outcome = workload.run_batch(region.batches, &tracer, false);
        region.add(&outcome);
    }
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = sys::process_cpu_seconds() - cpu_before - region.loadgen_cpu;
    drop(workload);

    let mut errors = region.errors.clone();
    if region.delivered == 0 {
        return Err(format!("nothing was delivered: {}", errors.join("; ")));
    }
    let deliver = stats::sorted(region.deliver_ms.clone());
    let mut metrics = Vec::new();
    let mut push = |name: &str, value: Option<f64>, unit: &'static str, samples: usize| match value
    {
        Some(value) => metrics.push(Metric::new(name, value, unit, samples)),
        None => errors.push(format!("{name}: too few samples ({samples}) to report")),
    };
    push(
        "msgs_per_s",
        Some(region.delivered as f64 / wall_s),
        "1/s",
        region.delivered,
    );
    push(
        "cpu_ms_per_msg",
        Some(cpu_s * 1e3 / region.delivered as f64),
        "ms",
        region.delivered,
    );
    push(
        "deliver_p50_ms",
        stats::median(&deliver),
        "ms",
        deliver.len(),
    );
    push(
        "deliver_p90_ms",
        stats::tail_percentile(&deliver, 90.0),
        "ms",
        deliver.len(),
    );
    push("setup_s", stats::median(&unit_s), "s", unit_s.len());

    // What only some workloads define, or what does not repeat well enough
    // to carry a bound: printed and filed for the reader.
    let mut also = Vec::new();
    let mut note = |name: &str, value: Option<f64>, unit: &'static str, samples: usize| {
        also.extend(value.map(|value| Metric::new(name, value, unit, samples)));
    };
    let failed = region.offered - region.delivered;
    note(
        "failed_share",
        Some(failed as f64 / region.offered as f64),
        "ratio",
        region.offered,
    );
    let batch = stats::sorted(region.batch_ms.clone());
    note("batch_p50_ms", stats::median(&batch), "ms", batch.len());
    note(
        "batch_p90_ms",
        stats::tail_percentile(&batch, 90.0),
        "ms",
        batch.len(),
    );
    note(
        "deliver_p99_ms",
        stats::tail_percentile(&deliver, 99.0),
        "ms",
        deliver.len(),
    );
    let ack = stats::sorted(region.ack_ms.clone());
    note("ack_p50_ms", stats::median(&ack), "ms", ack.len());
    note(
        "ack_p99_ms",
        stats::tail_percentile(&ack, 99.0),
        "ms",
        ack.len(),
    );
    let late = stats::sorted(region.late_ms.clone());
    note(
        "loadgen_late_p99_ms",
        stats::tail_percentile(&late, 99.0),
        "ms",
        late.len(),
    );
    note(
        "setup_total_s",
        Some(unit_s.iter().sum()),
        "s",
        unit_s.len(),
    );
    note("peak_rss_mib", Some(sys::peak_rss_mib()), "MiB", 1);

    if let Err(error) = catalogue::check_complete(&metrics, END_TO_END.iter().map(|m| m.0)) {
        errors.push(error);
    }
    Ok(RunReport {
        workload: shape.name,
        why: shape.why,
        traced: false,
        seed,
        seconds,
        correct: errors.is_empty(),
        attempted: region.offered,
        failed,
        metrics,
        also,
        sizes: sizes(shape, region.batches),
        errors,
    })
}

impl RunReport {
    /// The line the driver reads: exactly `correct`, `attempted`, `failed`
    /// and the listed metrics with value and unit.
    pub fn result_line(&self) -> String {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name.clone(),
                Value::obj([("value", Value::num(m.value)), ("unit", Value::str(m.unit))]),
            )
        });
        Value::obj([
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::num(self.attempted as f64)),
            ("failed", Value::num(self.failed as f64)),
            ("metrics", Value::obj(metrics)),
        ])
        .to_line()
    }

    /// The table a person reads: every metric by name with its unit and
    /// sample count.
    pub fn print_table(&self) {
        println!(
            "== {} ({}, seed {}, {} s) — all sockets on host loopback, real compute ==",
            self.workload,
            if self.traced { "traced" } else { "untraced" },
            self.seed,
            self.seconds
        );
        println!("   why: {}", self.why);
        println!("   sizes: {}", self.sizes.to_line());
        for metric in self.metrics.iter().chain(&self.also) {
            println!(
                "   {:<36} {:>16.4} {:<6} (n={})",
                metric.name, metric.value, metric.unit, metric.samples
            );
        }
        println!(
            "   attempted {} failed {} correct {}",
            self.attempted, self.failed, self.correct
        );
        for error in &self.errors {
            println!("   ERROR: {error}");
        }
    }

    /// The result file: the run's numbers with their sample counts, the
    /// sizes used, and where it was measured.
    pub fn to_file(&self, host: &Value) -> Value {
        let direction = |name: &str| -> Value {
            END_TO_END
                .iter()
                .map(|m| (m.0, m.2))
                .chain(PER_LAYER.iter().map(|m| (m.0, m.2)))
                .find(|(listed, _)| *listed == name)
                .map_or(Value::Null, |(_, better)| Value::str(better.as_str()))
        };
        let table = |metrics: &[Metric]| {
            Value::Arr(
                metrics
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name.clone())),
                            ("value", Value::num(m.value)),
                            ("unit", Value::str(m.unit)),
                            ("samples", Value::num(m.samples as f64)),
                            ("better", direction(&m.name)),
                        ])
                    })
                    .collect(),
            )
        };
        Value::obj([
            ("workload", Value::str(self.workload)),
            ("traced", Value::Bool(self.traced)),
            ("seed", Value::num(self.seed as f64)),
            ("seconds", Value::num(self.seconds)),
            ("host", host.clone()),
            ("sizes", self.sizes.clone()),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::num(self.attempted as f64)),
            ("failed", Value::num(self.failed as f64)),
            ("metrics", table(&self.metrics)),
            ("also", table(&self.also)),
            (
                "errors",
                Value::Arr(self.errors.iter().cloned().map(Value::Str).collect()),
            ),
        ])
    }
}
