//! Submission intake (coordinator only): a round's submissions verified in
//! chunk-sized queue tasks, which the round's machine hands out under the
//! streaming window and merges in chunk order into the iteration-0
//! batches; [`release`] sends them.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use atom_core::actor::SOURCE;
use atom_core::directory::RoundSetup;
use atom_core::error::{AtomError, AtomResult};
use atom_core::message::{NizkSubmission, TrapSubmission};
use atom_core::round::{verify_nizk_submissions_range, verify_trap_submissions_range, TrapIntake};
use atom_crypto::elgamal::MessageCiphertext;

use super::phase::{self, Input};
use super::{EngineOptions, RoundSubmissions, Shared, SubmissionBlock, MIX_LABEL};
use crate::wire;

/// A round's intake chunks.
pub(super) struct Intake {
    /// Submission index ranges of the intake chunks.
    pub(super) chunks: Vec<(usize, usize)>,
    /// Submissions currently materialized by in-flight streaming chunks
    /// (feeds the `engine.intake.peak_in_flight` gauge).
    stream_in_flight: AtomicUsize,
}

impl Intake {
    /// The intake of a round offering `offered` submissions.
    pub(super) fn new(offered: usize, options: &EngineOptions, workers: usize) -> Self {
        Self {
            chunks: chunk_ranges(offered, options.intake_chunk, workers),
            stream_in_flight: AtomicUsize::new(0),
        }
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

/// Verifies one intake chunk of a round's submissions and feeds the result
/// to the round's machine.
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

    phase::step(shared, round, Input::Chunk(chunk, result));
}

/// Injects the iteration-0 batches the round's machine released, one per
/// group.
pub(super) fn release(shared: &Shared<'_>, round: usize, batches: Vec<Vec<MessageCiphertext>>) {
    let job = &shared.jobs[round];
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
