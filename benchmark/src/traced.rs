//! The traced run of one workload: the workload's own batches with the
//! program's recording switched on and off in turn (their difference is
//! the tracing overhead), the same jobs with one thing swapped, a
//! single-threaded replay of one round, and the layer probes. Prints every
//! per-layer metric and leaves one Chrome trace file behind.

use std::sync::Arc;
use std::time::Instant;

use atom_core::config::Defense;
use atom_core::error::{AtomError, AtomResult};
use atom_runtime::{
    Engine, RoundJob, RoundReport, RoundSubmissions, SubmissionBlock, SubmissionSource,
};

use crate::catalogue::{self, PER_LAYER};
use crate::layers::{self, Sink};
use crate::spans::{Tracer, NO_ROUND};
use crate::stats;
use crate::suite::{set_up, sizes, Region, RunReport};
use crate::tcp_pair::TcpPair;
use crate::workloads::{
    collect, delivered_set, encode_frames, output_bytes, plaintext_set, Kind, ProgramTrace, Shape,
    Workload, SUBMIT_RATE, WORKERS,
};

/// Messages of the reduced round the comparisons and the replay run on.
/// The bulk shapes would otherwise spend the whole budget replaying one
/// 2,048-message round on one thread.
const REDUCED_MSGS: usize = 512;

/// Connections of the ingress probes.
const PROBE_CONNS: usize = 1024;

/// Materialized submissions behind the streaming-intake interface: the
/// same round fed through `RoundSubmissions::Stream`.
struct VecSource(RoundSubmissions);

impl SubmissionSource for VecSource {
    fn total(&self) -> usize {
        self.0.len()
    }

    fn defense(&self) -> Defense {
        self.0.defense()
    }

    fn generate(&self, (start, end): (usize, usize)) -> AtomResult<SubmissionBlock> {
        let out_of_range = || AtomError::Config(format!("range {start}..{end} is out of bounds"));
        Ok(match &self.0 {
            RoundSubmissions::Trap(subs) => {
                SubmissionBlock::Trap(subs.get(start..end).ok_or_else(out_of_range)?.to_vec())
            }
            RoundSubmissions::Nizk(subs) => {
                SubmissionBlock::Nizk(subs.get(start..end).ok_or_else(out_of_range)?.to_vec())
            }
            RoundSubmissions::Stream(source) => source.generate((start, end))?,
        })
    }
}

/// Runs `work` — one execution of the comparison jobs — and returns the
/// median seconds of its runs (repeated while cheap) and the last reports.
fn time_runs(
    tracer: &Tracer,
    name: &str,
    mut work: impl FnMut() -> Result<Vec<RoundReport>, String>,
) -> Result<(f64, Vec<RoundReport>), String> {
    let mut seconds = Vec::new();
    let started = Instant::now();
    loop {
        let (reports, took, _) = tracer.time(name, None, NO_ROUND, &mut work);
        let reports = reports.map_err(|e| format!("{name}: {e}"))?;
        seconds.push(took.as_secs_f64());
        if seconds.len() >= 5 || started.elapsed().as_secs_f64() > 0.6 {
            return Ok((stats::median(&seconds).expect("one run"), reports));
        }
    }
}

/// The same jobs with one thing swapped: worker count, transport,
/// directory mode, intake source. Every variant must reproduce the
/// baseline's bytes.
fn comparisons(sink: &mut Sink<'_>, workload: &Workload) -> Result<(), String> {
    let shape = &workload.shape;
    let tracer = sink.tracer;
    let msgs = shape.round_msgs.min(REDUCED_MSGS);
    let rounds: Vec<_> = workload.pool[..shape.rounds_per_batch]
        .iter()
        .map(|input| (input, input.prefix(msgs)))
        .collect();
    let full_jobs = || -> Vec<RoundJob> {
        rounds
            .iter()
            .map(|(input, (subs, _))| input.full_job(subs.clone()))
            .collect()
    };

    let (base_s, base) = time_runs(tracer, "compare.mem_w2", || {
        // Materialized intake with the engine's default chunking.
        collect(Engine::with_workers(WORKERS).run_rounds(full_jobs()))
    })?;
    let base_bytes = output_bytes(&base);
    for ((_, (_, expected)), report) in rounds.iter().zip(&base) {
        if &delivered_set(report) != expected {
            return Err("comparison baseline delivered the wrong plaintexts".into());
        }
    }
    let same = |name: &str, reports: &[RoundReport]| {
        if output_bytes(reports) == base_bytes {
            Ok(())
        } else {
            Err(format!("{name} changed the round output"))
        }
    };

    let (w1_s, w1) = time_runs(tracer, "compare.mem_w1", || {
        collect(Engine::with_workers(1).run_rounds(full_jobs()))
    })?;
    same("one worker", &w1)?;
    sink.push("engine.w2_over_w1", w1_s / base_s, "ratio", 1);

    let mut pair = TcpPair::start(shape.groups)?;
    let (tcp_s, tcp) = time_runs(tracer, "compare.tcp", || {
        let member = rounds
            .iter()
            .map(|(input, _)| input.full_job(input.empty_submissions()))
            .collect();
        pair.run(full_jobs(), member)
    })?;
    drop(pair);
    same("the TCP transport", &tcp)?;
    sink.push("engine.tcp_over_mem", tcp_s / base_s, "ratio", 1);

    let (sharded_s, sharded) = time_runs(tracer, "compare.sharded", || {
        let jobs = rounds
            .iter()
            .map(|(input, (subs, _))| input.sharded_job(subs.clone()))
            .collect();
        collect(Engine::with_workers(WORKERS).run_rounds(jobs))
    })?;
    same("the sharded directory", &sharded)?;
    sink.push("engine.sharded_over_full", sharded_s / base_s, "ratio", 1);

    let (stream_s, stream) = time_runs(tracer, "compare.stream", || {
        let jobs = rounds
            .iter()
            .map(|(input, (subs, _))| {
                input.full_job(RoundSubmissions::Stream(Arc::new(VecSource(subs.clone()))))
            })
            .collect();
        // Streaming intake as the socket workload configures it.
        let mut options = shape.engine_options(WORKERS);
        options.intake_chunk = 64;
        options.intake_window = 8;
        collect(Engine::new(options).run_rounds(jobs))
    })?;
    same("streaming intake", &stream)?;
    sink.push(
        "engine.stream_over_materialized",
        stream_s / base_s,
        "ratio",
        1,
    );
    Ok(())
}

/// The metrics read off the program's own recording of the first traced
/// batch: exact counts, `RoundReport` fields and the totals of the
/// program's existing spans.
fn program_metrics(
    sink: &mut Sink<'_>,
    shape: &Shape,
    program: &ProgramTrace,
    reports: &[RoundReport],
    wall_s: f64,
) {
    let msgs = shape.batch_msgs() as f64;
    let counter = |name: &str| -> f64 {
        program
            .snapshot
            .counters
            .iter()
            .find(|(counter, _)| counter == name)
            .map_or(0.0, |(_, value)| *value as f64)
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    sink.push(
        "crypto.multiexp_terms_per_msg",
        counter("crypto.multiexp.terms") / msgs,
        "count",
        1,
    );
    sink.push(
        "crypto.fixed_base_calls_per_msg",
        counter("crypto.fixed_base.calls") / msgs,
        "count",
        1,
    );
    let (hits, misses) = (
        counter("crypto.table_cache.hits"),
        counter("crypto.table_cache.misses"),
    );
    sink.push(
        "crypto.table_cache_hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
        (hits + misses) as usize,
    );
    let batches = counter("crypto.verify_enc.batches")
        + counter("crypto.verify_reenc.batches")
        + counter("crypto.verify_shuffle.batches");
    let fallbacks = counter("crypto.verify_enc.fallbacks")
        + counter("crypto.verify_reenc.fallbacks")
        + counter("crypto.verify_shuffle.fallbacks");
    sink.push(
        "crypto.verify_fallback_ratio",
        ratio(fallbacks, batches),
        "ratio",
        batches as usize,
    );

    let rounds = reports.len().max(1) as f64;
    let mean =
        |field: &dyn Fn(&RoundReport) -> f64| reports.iter().map(field).sum::<f64>() / rounds;
    sink.push(
        "engine.setup_latency_ms",
        mean(&|r| r.setup_latency.as_secs_f64() * 1e3),
        "ms",
        reports.len(),
    );
    sink.push(
        "engine.round_wall_ms",
        mean(&|r| r.wall_clock.as_secs_f64() * 1e3),
        "ms",
        reports.len(),
    );
    sink.push(
        "engine.mix_envelopes_per_round",
        mean(&|r| r.mix_messages as f64),
        "count",
        reports.len(),
    );
    let bytes: f64 = reports.iter().map(|r| r.mix_bytes as f64).sum();
    sink.push(
        "engine.mix_bytes_per_msg",
        bytes / msgs,
        "bytes",
        reports.len(),
    );
    sink.push(
        "engine.peak_in_flight",
        program.peak_in_flight as f64,
        "count",
        1,
    );

    // Totals of the spans the program already records. They are kept as
    // they are: how much of wall × workers they explain is the finding.
    let mut covered = 0.0;
    for phase in ["setup", "intake", "verify", "mix", "exit"] {
        let spans: Vec<_> = program
            .snapshot
            .spans
            .iter()
            .filter(|s| s.phase == phase)
            .collect();
        let total_ms = spans.iter().fold(0.0, |ms, s| ms + s.dur_us as f64 / 1e3);
        sink.push(
            &format!("engine.span_ms.{phase}"),
            total_ms,
            "ms",
            spans.len(),
        );
        // `verify` nests inside `intake`; count the outer span once.
        if phase != "verify" {
            covered += total_ms / 1e3;
        }
    }
    sink.push(
        "engine.span_coverage",
        covered / (wall_s * WORKERS as f64),
        "ratio",
        1,
    );
}

/// The traced run. `seconds` is split: half for the workload's own
/// batches (untraced and traced in turn), the rest for the comparisons,
/// the replay and the probes, whose cost does not depend on it.
pub fn run_traced(shape: &Shape, seed: u64, seconds: f64) -> Result<(RunReport, Tracer), String> {
    let tracer = Tracer::new(true);
    let (mut workload, _) = set_up(shape, seed, &tracer)?;
    let gen_s: f64 = workload.pool.iter().map(|r| r.gen_seconds).sum();
    let gen_msgs = workload.pool.len() * shape.round_msgs;

    // ---- the workload's own batches, recording off and on in turn.
    let mut region = Region::default();
    let (mut plain_rate, mut traced_rate, mut traced_wall) = (Vec::new(), Vec::new(), Vec::new());
    let mut first_traced = None;
    let started = Instant::now();
    // At least two untraced/traced pairs, so the overhead is a difference of
    // medians and not of two single batches.
    while region.batches < 4 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        let traced = region.batches % 2 == 1;
        let mut outcome = workload.run_batch(region.batches, &tracer, traced);
        region.add(&outcome);
        let rate = outcome.delivered as f64 / outcome.wall.as_secs_f64();
        if traced {
            traced_rate.push(rate);
            traced_wall.push(outcome.wall.as_secs_f64());
            if first_traced.is_none() {
                first_traced = outcome.program.take().map(|program| {
                    (
                        program,
                        std::mem::take(&mut outcome.reports),
                        outcome.wall.as_secs_f64(),
                    )
                });
            }
        } else {
            plain_rate.push(rate);
        }
    }
    let mut errors = region.errors.clone();
    let mut sink = Sink {
        tracer: &tracer,
        metrics: Vec::new(),
    };
    let plain = stats::median(&plain_rate).unwrap_or(f64::NAN);
    let with_tracing = stats::median(&traced_rate).unwrap_or(f64::NAN);
    sink.push(
        "obs.overhead_pct",
        (plain - with_tracing) / plain * 100.0,
        "%",
        region.batches,
    );
    let (program, reports, first_wall_s) =
        first_traced.ok_or_else(|| format!("no traced batch completed: {}", errors.join("; ")))?;
    program_metrics(&mut sink, shape, &program, &reports, first_wall_s);
    sink.push(
        "workload.gen_us_per_msg",
        gen_s * 1e6 / gen_msgs as f64,
        "us",
        gen_msgs,
    );

    // ---- one thing swapped at a time.
    comparisons(&mut sink, &workload)?;

    // ---- one round replayed on this thread, layer by layer.
    let input = &workload.pool[0];
    let replay_msgs = shape.round_msgs.min(REDUCED_MSGS);
    let chunk = match shape.kind {
        Kind::SubmitSocket => 64,
        // The engine's default spreads a round's intake over its workers.
        _ => layers::auto_chunk(replay_msgs),
    };
    let replay = layers::replay_round(&mut sink, shape, input, replay_msgs, chunk)?;
    let (_, expected) = input.prefix(replay_msgs);
    if plaintext_set(replay.output.plaintexts.iter().cloned()) != expected {
        errors.push("the replayed round delivered the wrong plaintexts".into());
    }
    let crypto = layers::crypto_probes(&mut sink, shape, input, &replay.group_batch)?;
    let step_per_ct_s = replay.step_s / replay.step_cts as f64;
    sink.push(
        "core.step_overhead_share",
        1.0 - crypto.step_per_ct_s / step_per_ct_s,
        "ratio",
        replay.step_cts,
    );

    // The budget: replayed layer time, scaled to a batch, against the
    // traced batch's wall × workers. What it does not explain is queue
    // wait, transport, idle workers and copies.
    let derive_s = if shape.kind == Kind::DialTcp {
        crypto.derive_setup_s * shape.rounds_per_batch as f64
    } else {
        0.0
    };
    let scale = shape.batch_msgs() as f64 / replay.msgs as f64;
    let wall_s = stats::median(&traced_wall).unwrap_or(f64::NAN);
    let busy = (replay.total_s() * scale + derive_s) / (wall_s * WORKERS as f64);
    sink.push("engine.busy_share", busy, "ratio", traced_wall.len());
    sink.push(
        "engine.unexplained_share",
        1.0 - busy,
        "ratio",
        traced_wall.len(),
    );

    // ---- the layers the round does not reach by itself.
    layers::submit_probes(&mut sink, input);
    // 1,024 connections on every workload: the workload's own submissions
    // as `submit` frames, repeated if there are fewer (ingress decodes and
    // admits; it does not look inside), each under a client id of its own.
    let probe_round = 0usize;
    let distinct: Vec<Vec<u8>> = workload
        .pool
        .iter()
        .flat_map(|round| encode_frames(&round.submissions, probe_round))
        .take(PROBE_CONNS)
        .collect();
    let probe_frames =
        renumber_clients(distinct.iter().cycle().take(PROBE_CONNS).cloned().collect());
    layers::ingress_probes(
        &mut sink,
        &probe_frames,
        probe_round,
        shape.defense,
        SUBMIT_RATE,
    )?;
    layers::evloop_probes(&mut sink)?;
    layers::transport_probes(&mut sink)?;
    drop(workload);

    let metrics = sink.metrics;
    if let Err(error) = catalogue::check_complete(&metrics, PER_LAYER.iter().map(|m| m.0)) {
        errors.push(error);
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        errors.push(format!("{} is not a finite number", bad.name));
    }
    let report = RunReport {
        workload: shape.name,
        why: shape.why,
        traced: true,
        seed,
        seconds,
        correct: errors.is_empty(),
        attempted: region.offered,
        failed: region.offered - region.delivered,
        metrics,
        also: Vec::new(),
        sizes: sizes(shape, region.batches),
        errors,
    };
    Ok((report, tracer))
}

/// Rewrites the client id of each client-framed `submit` frame to its
/// position, so frames pooled from several rounds stay distinct clients.
/// The id is the little-endian `u64` after the frame kind and round.
fn renumber_clients(mut frames: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
    const CLIENT_AT: usize = atom_net::evloop::CLIENT_HEADER_LEN + 1 + 4;
    for (index, frame) in frames.iter_mut().enumerate() {
        frame[CLIENT_AT..CLIENT_AT + 8].copy_from_slice(&(index as u64).to_le_bytes());
    }
    frames
}
