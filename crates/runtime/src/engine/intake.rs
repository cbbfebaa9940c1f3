//! Submission intake (coordinator only): a round's submissions verified in
//! chunk-sized queue tasks under the streaming window, then merged in chunk
//! order into the iteration-0 batches.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use parking_lot::Mutex;

use atom_core::actor::SOURCE;
use atom_core::directory::RoundSetup;
use atom_core::error::{AtomError, AtomResult};
use atom_core::message::{NizkSubmission, TrapSubmission};
use atom_core::round::{verify_nizk_submissions_range, verify_trap_submissions_range, TrapIntake};
use atom_crypto::commit::Commitment;
use atom_crypto::elgamal::MessageCiphertext;

use super::{exit, EngineOptions, RoundSubmissions, Shared, SubmissionBlock, Task, MIX_LABEL};
use crate::{fill_vec::FillVec, wire};

/// A round's intake chunks and their progress.
pub(super) struct Intake {
    /// Submission index ranges of the intake chunks.
    chunks: Vec<(usize, usize)>,
    /// Chunks scheduled when intake is released: at most
    /// [`EngineOptions::intake_window`] of them (`0` = all) are scheduled —
    /// and therefore materialized — at once.
    window: usize,
    /// Next intake chunk index to schedule under the streaming window
    /// ([`EngineOptions::intake_window`]): each finishing chunk fetch-adds
    /// here and enqueues the claimed index, keeping at most `window` chunks
    /// in flight. Starts at `window`, which is `chunks.len()` when the
    /// window is unbounded, so the fetch-add finds nothing left to schedule.
    next_chunk: AtomicUsize,
    /// Submissions currently materialized by in-flight streaming chunks
    /// (feeds the `engine.intake.peak_in_flight` gauge).
    stream_in_flight: AtomicUsize,
    /// Per-chunk verification results — per-entry-group sub-batches and
    /// (trap variant only) commitments — merged in chunk order, so the first
    /// failing submission wins, exactly like the sequential driver. The
    /// worker filling the last slot takes them all and releases the round's
    /// iteration-0 batches, leaving this empty.
    results: Mutex<FillVec<AtomResult<TrapIntake>>>,
}

impl Intake {
    /// The intake of a round offering `offered` submissions.
    pub(super) fn new(offered: usize, options: &EngineOptions, workers: usize) -> Self {
        let chunks = chunk_ranges(offered, options.intake_chunk, workers);
        let window = match options.intake_window {
            0 => chunks.len(),
            window => window.min(chunks.len()).max(1),
        };
        Self {
            results: Mutex::new(FillVec::new(chunks.len())),
            chunks,
            window,
            next_chunk: AtomicUsize::new(window),
            stream_in_flight: AtomicUsize::new(0),
        }
    }

    /// How many chunks to schedule when intake is released.
    pub(super) fn window(&self) -> usize {
        self.window
    }

    /// What the round waits on while chunks are still unverified.
    pub(super) fn waiting_on(&self) -> Option<(String, Vec<usize>)> {
        let pending = self.results.lock().missing().count();
        let detail = format!("stuck before batch release: {pending} intake chunk(s) unverified");
        (pending > 0).then_some((detail, Vec::new()))
    }
}

/// The submission ranges of a round's intake chunks. `chunk` is the
/// configured submissions-per-chunk (`0` = auto: spread the round evenly
/// over the worker pool). A round with no submissions still gets one
/// (empty) chunk so the release path runs.
pub(super) fn chunk_ranges(
    submissions: usize,
    chunk: usize,
    workers: usize,
) -> Vec<(usize, usize)> {
    if submissions == 0 {
        return vec![(0, 0)];
    }
    let size = if chunk > 0 {
        chunk
    } else {
        submissions.div_ceil(workers)
    }
    .max(1);
    (0..submissions)
        .step_by(size)
        .map(|start| (start, start.saturating_add(size).min(submissions)))
        .collect()
}

/// One intake chunk's submissions, borrowed from a materialized round or
/// from the block a [`SubmissionSource`](super::SubmissionSource) just
/// produced.
enum Chunk<'a> {
    Nizk(&'a [NizkSubmission]),
    Trap(&'a [TrapSubmission]),
}

/// The one route into the range verifiers. `first_index` is the global
/// index of the chunk's first submission.
fn verify_chunk(
    setup: &RoundSetup,
    chunk: Chunk<'_>,
    first_index: usize,
) -> AtomResult<TrapIntake> {
    match chunk {
        Chunk::Nizk(subs) => {
            verify_nizk_submissions_range(setup, subs, first_index).map(|batches| TrapIntake {
                batches,
                commitments: Vec::new(),
            })
        }
        Chunk::Trap(subs) => verify_trap_submissions_range(setup, subs, first_index),
    }
}

/// Verifies one intake chunk of a round's submissions; the worker that
/// completes the round's last chunk merges the results and releases the
/// iteration-0 batches ([`finish_intake`]).
pub(super) fn run_intake_chunk(shared: &Shared<'_>, round: usize, chunk: usize) {
    let _span = atom_obs::span("intake", shared.trace_round(round), atom_obs::GID_NONE);
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    shared.progressed(round);
    job.start_clock();

    let intake = &job.intake;
    let (start, end) = intake.chunks[chunk];
    let setup = job.round_setup();
    // Proof verification dominates intake; give it its own phase so the
    // trace separates crypto cost from chunk bookkeeping.
    let verify_span = atom_obs::span("verify", shared.trace_round(round), atom_obs::GID_NONE);
    let result = match &job.submissions {
        RoundSubmissions::Nizk(subs) => verify_chunk(setup, Chunk::Nizk(&subs[start..end]), start),
        RoundSubmissions::Trap(subs) => verify_chunk(setup, Chunk::Trap(&subs[start..end]), start),
        // Streaming intake: materialize exactly this chunk's range, verify
        // it as the same slice and drop it again. The in-flight accounting
        // brackets the verify so the peak gauge reflects what was actually
        // resident at once.
        RoundSubmissions::Stream(source) => {
            let span = end - start;
            let in_flight = intake.stream_in_flight.fetch_add(span, Ordering::SeqCst) + span;
            atom_obs::gauge_max("engine.intake.peak_in_flight", in_flight as u64);
            atom_obs::count("engine.intake.streamed", span as u64);
            let verified = source.generate((start, end)).and_then(|block| {
                if block.len() != span {
                    return Err(AtomError::Malformed(format!(
                        "submission source returned {} submissions for range \
                         {start}..{end}",
                        block.len()
                    )));
                }
                let chunk = match &block {
                    SubmissionBlock::Nizk(subs) => Chunk::Nizk(subs),
                    SubmissionBlock::Trap(subs) => Chunk::Trap(subs),
                };
                verify_chunk(setup, chunk, start)
            });
            intake.stream_in_flight.fetch_sub(span, Ordering::SeqCst);
            verified
        }
    };
    drop(verify_span);

    // Under a bounded window, a finishing chunk releases the next unclaimed
    // one. This also runs for failed chunks: the release path needs every
    // chunk's slot filled before it can diagnose the round.
    let next = intake.next_chunk.fetch_add(1, Ordering::SeqCst);
    if next < intake.chunks.len() {
        shared
            .sched
            .push_task(Task::IntakeChunk { round, chunk: next });
    }

    let mut results = intake.results.lock();
    if results.set(chunk, result).is_ok() && results.is_full() {
        let full = std::mem::replace(&mut *results, FillVec::new(0)).into_full();
        drop(results);
        finish_intake(shared, round, full.expect("every chunk verified"));
    }
}

/// Merges the verified intake chunks in chunk order and injects the
/// iteration-0 batches. Ranges are contiguous and ascending, so the merged
/// per-group batches equal the single-task (and sequential-driver)
/// bucketing byte for byte; the first failed chunk — which contains the
/// lowest-indexed rejected submission — decides the round's error.
fn finish_intake(shared: &Shared<'_>, round: usize, results: Vec<AtomResult<TrapIntake>>) {
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    let num_groups = job.num_groups();
    let mut batches: Vec<Vec<MessageCiphertext>> = vec![Vec::new(); num_groups];
    let mut commitments: Vec<Vec<Commitment>> = vec![Vec::new(); num_groups];
    for result in results {
        match result {
            Ok(chunk) => {
                for (gid, mut sub) in chunk.batches.into_iter().enumerate() {
                    batches[gid].append(&mut sub);
                }
                for (gid, mut sub) in chunk.commitments.into_iter().enumerate() {
                    commitments[gid].append(&mut sub);
                }
            }
            Err(error) => return shared.fail_job(round, error),
        }
    }

    let routed = batches.iter().map(Vec::len).sum();
    exit::step(shared, round, exit::Input::Released((routed, commitments)));

    for (gid, batch) in batches.into_iter().enumerate() {
        let payload = wire::encode_mix(shared.wire_round(round), 0, SOURCE, Duration::ZERO, &batch);
        job.intake_mix_messages.fetch_add(1, Ordering::Relaxed);
        job.intake_mix_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        // The transport's delivery hook wakes the pool for local
        // destinations; remote ones wake their own process.
        if !shared.send_for_round(round, shared.orchestrator, gid, MIX_LABEL, payload) {
            return;
        }
    }
}
