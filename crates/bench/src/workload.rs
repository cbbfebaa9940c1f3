//! The `BENCH_workload.json` baseline: deterministic traffic models pulled
//! through the engine's streaming intake, plus the adversary scenario
//! suite's verdicts.
//!
//! Two kinds of rows are recorded. **Pattern rows** drive the
//! [`atom_workload`] generators — Zipf microblog fan-in shaped by a
//! diurnal curve, dialing bursts, trap and NIZK variants — through a
//! bounded [intake window](atom_runtime::EngineOptions::intake_window), so
//! a million-submission round is generated, verified and mixed without
//! ever materializing the offered load; each row records throughput and
//! the peak number of in-flight intake submissions (the bounded-memory
//! evidence). **Scenario rows** record the adversary suite's verdicts —
//! submission flood vs the intake cap, a slow-loris member vs the round
//! clock, equivocating setup frames — together with the control-traffic
//! throughput that proves the defense does not cost liveness.
//!
//! The `workload` bin emits the file ([`WorkloadBaseline::to_json`]); the
//! `fig_workload` bin reads it back ([`WorkloadBaseline::parse`]) and
//! renders it. Emitter and parser live together so the round-trip is unit
//! tested, both through [`crate::json`].

use std::sync::Arc;
use std::time::Instant;

use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::derive_setup;
use atom_runtime::scenarios::{self, ScenarioOptions};
use atom_runtime::{Engine, EngineOptions, RoundJob, RoundSubmissions};
use atom_workload::{
    dialing_burst_counts, DiurnalCurve, TrafficPattern, WorkloadSource, WorkloadSpec,
};

use crate::json::{self, json_record, Json};
use crate::netbench::serialize_reports;

/// One traffic pattern pulled through the streaming intake.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadRow {
    /// Pattern name (`microblog_trap`, `microblog_nizk`, `dialing_trap`).
    pub name: String,
    /// User population the generator draws from.
    pub users: usize,
    /// Rounds the load was spread over (diurnal / burst shaping).
    pub rounds: usize,
    /// Total submissions offered across the rounds.
    pub submissions: usize,
    /// Delivered plaintexts (must equal `submissions` for a healthy run).
    pub delivered: usize,
    /// Intake window the run used (chunks in flight at once; 0 = all).
    pub window: usize,
    /// Submissions per intake chunk — at most `window × chunk` of the
    /// offered load is ever resident.
    pub chunk: usize,
    /// Peak in-flight intake submissions observed by the
    /// `engine.intake.peak_in_flight` gauge — the bounded-memory evidence.
    pub peak_in_flight: u64,
    /// Wall-clock of the full run, milliseconds.
    pub elapsed_ms: f64,
    /// Delivered messages per wall-clock second.
    pub msgs_per_sec: f64,
    /// 1 when the run was re-executed through the materialized intake path
    /// and the two report streams compared byte-identical; 0 when the
    /// equivalence check was skipped (large committed baselines).
    pub streaming_identical: u64,
}

/// One adversary scenario's outcome.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioRow {
    /// Scenario name (`submission_flood`, `slow_loris`,
    /// `equivocating_setup`).
    pub name: String,
    /// The verdict string the harness extracted (abort reason or
    /// conviction), proving the round failed *for the right reason*.
    pub verdict: String,
    /// Submissions the adversary (or control run) offered.
    pub submitted: usize,
    /// Control-traffic messages delivered after the attack was contained.
    pub delivered: usize,
    /// Control-traffic throughput — the liveness floor.
    pub msgs_per_sec: f64,
}

json_record! {
    WorkloadRow {
        name, users, rounds, submissions, delivered, window, chunk, peak_in_flight, elapsed_ms,
        msgs_per_sec, streaming_identical
    }
}
json_record! { ScenarioRow { name, verdict, submitted, delivered, msgs_per_sec } }

impl WorkloadRow {
    /// Refuses a row that lost messages or, with an intake window set,
    /// whose peak residency was unobserved or over `window × chunk`.
    fn check(&self) -> Result<(), String> {
        let peak = self.peak_in_flight as usize;
        let broken = if self.delivered != self.submissions {
            "every submission was delivered"
        } else if self.window > 0 && !(0 < peak && peak <= self.window * self.chunk) {
            "0 < peak_in_flight <= window * chunk"
        } else {
            return Ok(());
        };
        Err(format!("the run broke the claim that {broken}: {self:?}"))
    }
}

/// The defence each adversary scenario's verdict must name.
const DEFENCES: [(&str, &str); 3] = [
    ("submission_flood", "over the intake cap"),
    ("slow_loris", "deadline"),
    ("equivocating_setup", "conflicting setup frames"),
];

impl ScenarioRow {
    /// Refuses a scenario whose verdict does not name its defence, or
    /// whose control traffic was not delivered in full.
    fn check(&self) -> Result<(), String> {
        let defence = DEFENCES.iter().find(|(name, _)| *name == self.name);
        let broken = if !defence.is_some_and(|(_, defence)| self.verdict.contains(defence)) {
            "the verdict names the scenario's defence"
        } else if self.submitted == 0 || self.delivered != self.submitted {
            "the control traffic was delivered"
        } else {
            return Ok(());
        };
        Err(format!("the run broke the claim that {broken}: {self:?}"))
    }
}

/// Parameters of one workload sweep.
#[derive(Clone, Debug)]
pub struct WorkloadSweepSpec {
    /// Anytrust groups.
    pub groups: usize,
    /// Mixing iterations.
    pub iterations: usize,
    /// User population for the generators.
    pub users: usize,
    /// Rounds the diurnal / burst schedules spread load over.
    pub rounds: usize,
    /// Submissions of the headline `microblog_trap` row. The NIZK row runs
    /// a tenth of this (NIZK proofs are ~4× slower to make and verify) and
    /// the dialing row a quarter; each row records its actual size.
    pub submissions: usize,
    /// Intake window (chunks in flight at once).
    pub window: usize,
    /// Submissions per intake chunk. With the window this bounds intake
    /// memory: at most `window × chunk` submissions are ever resident.
    pub chunk: usize,
    /// Master seed; every row derives from it deterministically.
    pub seed: u64,
    /// Re-run every pattern through the materialized intake path and
    /// byte-compare. Doubles the work and materializes the full offered
    /// load — only for CI-sized runs.
    pub check_equivalence: bool,
}

impl Default for WorkloadSweepSpec {
    fn default() -> Self {
        Self {
            groups: 4,
            iterations: 2,
            users: 100_000,
            rounds: 4,
            submissions: 2_000,
            window: 8,
            chunk: 1_024,
            seed: 0xA70_10AD,
            check_equivalence: false,
        }
    }
}

/// The recorded workload baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadBaseline {
    /// Anytrust groups of every pattern run.
    pub groups: usize,
    /// Mixing iterations.
    pub iterations: usize,
    /// User population of the generators.
    pub users: usize,
    /// Master seed of the sweep.
    pub seed: u64,
    /// Pattern rows, in sweep order.
    pub rows: Vec<WorkloadRow>,
    /// Adversary scenario rows, in suite order.
    pub scenarios: Vec<ScenarioRow>,
}

/// The round-`r` config of a workload deployment: like the scenario
/// harness's but parameterized on the defense, so trap and NIZK rows run
/// the same topology.
pub fn workload_config(spec: &WorkloadSweepSpec, defense: Defense, round: u64) -> AtomConfig {
    let mut config = AtomConfig::test_default();
    config.defense = defense;
    config.num_groups = spec.groups;
    config.num_servers = (spec.groups * 2).max(config.group_size);
    config.iterations = spec.iterations;
    config.message_len = 32;
    config.round = round;
    config.beacon_seed = spec.seed ^ round;
    config
}

/// Runs the per-round sources of one pattern through the engine — streaming
/// intake bounded by `spec.window` — and measures the row. When
/// `spec.check_equivalence` is set the same jobs are re-run through the
/// materialized path and the report streams byte-compared.
fn run_pattern(
    spec: &WorkloadSweepSpec,
    workers: usize,
    name: &str,
    pattern: TrafficPattern,
    defense: Defense,
    counts: &[usize],
) -> Result<WorkloadRow, String> {
    let mut sources = Vec::with_capacity(counts.len());
    let mut setups = Vec::with_capacity(counts.len());
    let mut jobs = Vec::with_capacity(counts.len());
    for (round, &count) in counts.iter().enumerate() {
        let config = workload_config(spec, defense, round as u64);
        let setup = Arc::new(derive_setup(&config).map_err(|e| format!("derive setup: {e}"))?);
        let source = Arc::new(
            WorkloadSource::new(
                Arc::clone(&setup),
                WorkloadSpec {
                    pattern: pattern.clone(),
                    defense,
                    submissions: count,
                    seed: spec.seed ^ (round as u64).wrapping_mul(0x9E37),
                },
            )
            .map_err(|e| format!("workload source: {e}"))?,
        );
        jobs.push(RoundJob::new(
            setup.as_ref().clone(),
            RoundSubmissions::Stream(Arc::clone(&source) as _),
            spec.seed ^ round as u64,
        ));
        sources.push(source);
        setups.push(setup);
    }
    let total: usize = counts.iter().sum();

    let mut options = EngineOptions::with_workers(workers);
    options.intake_window = spec.window;
    options.intake_chunk = spec.chunk;
    let was_enabled = atom_obs::enabled();
    atom_obs::set_enabled(true);
    atom_obs::reset();
    let start = Instant::now();
    let reports = Engine::new(options)
        .run_rounds(jobs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("pattern {name}: {e}"))?;
    let elapsed = start.elapsed();
    let peak_in_flight = atom_obs::gauge_peak("engine.intake.peak_in_flight").unwrap_or(0);
    atom_obs::set_enabled(was_enabled);

    let delivered: usize = reports.iter().map(|r| r.output.plaintexts.len()).sum();
    let streaming_identical = if spec.check_equivalence {
        let materialized: Vec<RoundJob> = sources
            .iter()
            .zip(&setups)
            .enumerate()
            .map(|(round, (source, setup))| {
                Ok(RoundJob::new(
                    setup.as_ref().clone(),
                    source
                        .materialize()
                        .map_err(|e| format!("materialize: {e}"))?,
                    spec.seed ^ round as u64,
                ))
            })
            .collect::<Result<_, String>>()?;
        let baseline = Engine::with_workers(workers)
            .run_rounds(materialized)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("materialized {name}: {e}"))?;
        if serialize_reports(&reports) != serialize_reports(&baseline) {
            return Err(format!(
                "pattern {name}: streaming and materialized intake diverged"
            ));
        }
        1
    } else {
        0
    };

    let secs = elapsed.as_secs_f64();
    let row = WorkloadRow {
        name: name.to_string(),
        users: spec.users,
        rounds: counts.len(),
        submissions: total,
        delivered,
        window: spec.window,
        chunk: spec.chunk,
        peak_in_flight,
        elapsed_ms: secs * 1e3,
        msgs_per_sec: if secs > 0.0 {
            delivered as f64 / secs
        } else {
            f64::INFINITY
        },
        streaming_identical,
    };
    row.check()?;
    Ok(row)
}

/// Runs the full sweep: the three pattern rows, then the adversary
/// scenario suite. A sweep that lost a message, overran its intake window
/// or saw an attack stopped by the wrong defence is an `Err`.
pub fn run_workload(spec: &WorkloadSweepSpec, workers: usize) -> Result<WorkloadBaseline, String> {
    let zipf = TrafficPattern::ZipfMicroblog {
        users: spec.users,
        exponent: 1.1,
    };
    let dialing = TrafficPattern::Dialing { users: spec.users };

    // Diurnal shaping for the microblog rows; top-of-the-hour bursts for
    // dialing. Row sizes scale off the headline count (see the spec docs).
    let curve = DiurnalCurve::standard();
    let trap_counts = curve.round_counts(spec.rounds, spec.submissions);
    let nizk_counts = curve.round_counts(spec.rounds, (spec.submissions / 10).max(1));
    let dial_base = (spec.submissions / 4).max(1) / spec.rounds.max(1);
    let dial_counts = dialing_burst_counts(spec.rounds, dial_base.max(1), 3, 4);

    let rows = vec![
        run_pattern(
            spec,
            workers,
            "microblog_trap",
            zipf.clone(),
            Defense::Trap,
            &trap_counts,
        )?,
        run_pattern(
            spec,
            workers,
            "microblog_nizk",
            zipf,
            Defense::Nizk,
            &nizk_counts,
        )?,
        run_pattern(
            spec,
            workers,
            "dialing_trap",
            dialing,
            Defense::Trap,
            &dial_counts,
        )?,
    ];

    // The adversary suite runs at its own (small, fixed) sizes: these rows
    // record *verdicts* and the control-traffic liveness floor, not bulk
    // throughput.
    let mut options = ScenarioOptions::with_seed(spec.seed ^ 0xAD7E);
    options.workers = workers;
    let suite = [
        scenarios::submission_flood(3, 5_000, 6, &options).map_err(|e| format!("flood: {e}"))?,
        scenarios::slow_loris(
            3,
            4,
            std::time::Duration::from_millis(600),
            std::time::Duration::from_millis(150),
            &options,
        )
        .map_err(|e| format!("slow loris: {e}"))?,
        scenarios::equivocating_setup(3, 4, &options).map_err(|e| format!("equivocation: {e}"))?,
    ];
    let scenarios = suite
        .into_iter()
        .map(|report| {
            let row = ScenarioRow {
                name: report.scenario.to_string(),
                verdict: report.verdict.clone(),
                submitted: report.submitted,
                delivered: report.delivered,
                msgs_per_sec: report.msgs_per_sec(),
            };
            row.check().map(|()| row)
        })
        .collect::<Result<_, _>>()?;

    Ok(WorkloadBaseline {
        groups: spec.groups,
        iterations: spec.iterations,
        users: spec.users,
        seed: spec.seed,
        rows,
        scenarios,
    })
}

json_record! { WorkloadBaseline { groups, iterations, users, seed, "patterns" = rows, scenarios } }

impl WorkloadBaseline {
    /// The canonical `BENCH_workload.json` text (stable field order,
    /// readable diffs).
    pub fn to_json(&self) -> String {
        crate::recorded_json(self, &[])
    }

    /// Parses what [`WorkloadBaseline::to_json`] wrote. Intolerant of
    /// missing fields.
    pub fn parse(json: &str) -> Result<Self, String> {
        Self::from_value(&json::parse(json)?)
    }

    /// The pattern row of `name`, if recorded.
    pub fn row(&self, name: &str) -> Option<&WorkloadRow> {
        self.rows.iter().find(|row| row.name == name)
    }

    /// The scenario row of `name`, if recorded.
    pub fn scenario(&self, name: &str) -> Option<&ScenarioRow> {
        self.scenarios.iter().find(|row| row.name == name)
    }
}

/// Renders the workload baseline: the pattern table (throughput and peak
/// intake residency), then the adversary suite's verdicts.
pub fn print_fig_workload(baseline: &WorkloadBaseline) {
    println!(
        "fig_workload: deterministic traffic models through streaming intake — \
         {} groups, {} iterations, {} users, seed {:#x}",
        baseline.groups, baseline.iterations, baseline.users, baseline.seed
    );
    println!(
        "{:<16} {:>7} {:>10} {:>10} {:>12} {:>10} {:>11} {:>10} {:>6}",
        "pattern",
        "rounds",
        "offered",
        "delivered",
        "window*chunk",
        "peak",
        "elapsed",
        "msgs/s",
        "ident"
    );
    for row in &baseline.rows {
        println!(
            "{:<16} {:>7} {:>10} {:>10} {:>12} {:>10} {:>8.1} ms {:>10.1} {:>6}",
            row.name,
            row.rounds,
            row.submissions,
            row.delivered,
            format!("{}x{}", row.window, row.chunk),
            row.peak_in_flight,
            row.elapsed_ms,
            row.msgs_per_sec,
            if row.streaming_identical == 1 {
                "yes"
            } else {
                "-"
            }
        );
    }
    println!("\nadversary suite (attack contained + control traffic flows):");
    for row in &baseline.scenarios {
        println!(
            "  {:<20} {:>8} offered, {:>6} control delivered at {:>8.1} msg/s",
            row.name, row.submitted, row.delivered, row.msgs_per_sec
        );
        println!("    verdict: {}", row.verdict);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> WorkloadBaseline {
        WorkloadBaseline {
            groups: 4,
            iterations: 2,
            users: 1_000_000,
            seed: 0xA70,
            rows: vec![WorkloadRow {
                name: "microblog_trap".into(),
                users: 1_000_000,
                rounds: 4,
                submissions: 1_000_000,
                delivered: 1_000_000,
                window: 8,
                chunk: 1_024,
                peak_in_flight: 4_096,
                elapsed_ms: 123_456.7,
                msgs_per_sec: 8_100.2,
                streaming_identical: 0,
            }],
            scenarios: vec![ScenarioRow {
                name: "submission_flood".into(),
                verdict: "submission flood: round 1 offers 5000 \"submissions\"".into(),
                submitted: 5_000,
                delivered: 6,
                msgs_per_sec: 11.5,
            }],
        }
    }

    #[test]
    fn json_round_trips() {
        let baseline = sample();
        let parsed = WorkloadBaseline::parse(&baseline.to_json()).expect("parse own output");
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn parse_rejects_truncated_files() {
        let json = sample().to_json();
        assert!(WorkloadBaseline::parse(&json[..json.len() / 2]).is_err());
        assert!(WorkloadBaseline::parse("{}").is_err());
        assert!(WorkloadBaseline::parse("{\"patterns\": [], \"scenarios\": []}").is_err());
    }

    #[test]
    fn verdict_strings_with_quotes_survive_the_round_trip() {
        let baseline = sample();
        let parsed = WorkloadBaseline::parse(&baseline.to_json()).unwrap();
        assert_eq!(
            parsed.scenario("submission_flood").unwrap().verdict,
            baseline.scenarios[0].verdict
        );
    }

    #[test]
    fn hostile_strings_round_trip_exactly() {
        let mut baseline = sample();
        baseline.scenarios[0].verdict =
            "a \"quoted\" {braced} back\\slash, a tab\t, a newline\n and é".into();
        let parsed = WorkloadBaseline::parse(&baseline.to_json()).expect("parse own output");
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn check_refuses_lost_messages_and_overrun_windows() {
        let row = || sample().rows[0].clone();
        assert_eq!(row().check(), Ok(()));
        let broken: [fn(&mut WorkloadRow); 3] = [
            |r| r.delivered -= 1,
            |r| r.peak_in_flight = 0,
            |r| r.peak_in_flight = (r.window * r.chunk) as u64 + 1,
        ];
        for breaks in broken {
            let mut row = row();
            breaks(&mut row);
            assert!(row.check().is_err(), "{row:?}");
        }
        let mut unwindowed = row();
        (unwindowed.window, unwindowed.peak_in_flight) = (0, 0);
        assert_eq!(unwindowed.check(), Ok(()));
    }

    #[test]
    fn check_refuses_the_wrong_defence_and_lost_control_traffic() {
        let scenario = || ScenarioRow {
            name: "slow_loris".into(),
            verdict: "round 0 outlived its 150ms deadline".into(),
            submitted: 4,
            delivered: 4,
            msgs_per_sec: 900.0,
        };
        assert_eq!(scenario().check(), Ok(()));
        let broken: [fn(&mut ScenarioRow); 4] = [
            |s| s.verdict = "malformed data: conflicting setup frames for group 1".into(),
            |s| s.name = "unknown_attack".into(),
            |s| s.delivered = 3,
            |s| (s.submitted, s.delivered) = (0, 0),
        ];
        for breaks in broken {
            let mut row = scenario();
            breaks(&mut row);
            assert!(row.check().is_err(), "{row:?}");
        }
    }

    #[test]
    fn tiny_sweep_streams_byte_identically_and_contains_the_adversaries() {
        let spec = WorkloadSweepSpec {
            groups: 3,
            iterations: 2,
            users: 50,
            rounds: 2,
            submissions: 40,
            window: 2,
            chunk: 4,
            seed: 0x57AE,
            check_equivalence: true,
        };
        let baseline = run_workload(&spec, 2).expect("sweep completes");
        for row in &baseline.rows {
            assert_eq!(row.delivered, row.submissions, "{}", row.name);
            assert_eq!(row.streaming_identical, 1, "{}", row.name);
            assert!(row.peak_in_flight > 0, "{}", row.name);
            assert!(
                row.peak_in_flight <= (spec.window * spec.chunk) as u64,
                "{}: peak {} exceeds the window bound",
                row.name,
                row.peak_in_flight
            );
        }
        assert!(baseline
            .scenario("submission_flood")
            .unwrap()
            .verdict
            .contains("submission flood"));
        assert!(baseline
            .scenario("slow_loris")
            .unwrap()
            .verdict
            .contains("deadline"));
        assert!(baseline
            .scenario("equivocating_setup")
            .unwrap()
            .verdict
            .contains("conflicting setup frames"));
        // The serialization round-trips: reading it back and writing it
        // again reproduces it byte for byte.
        let json = baseline.to_json();
        let parsed = WorkloadBaseline::parse(&json).unwrap();
        assert_eq!(parsed.to_json(), json);
    }
}
