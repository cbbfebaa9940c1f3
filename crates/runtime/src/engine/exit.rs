//! Exit: the orchestrator collects every group's exit frame (and, while
//! recording, every member's telemetry snapshot) and finalizes the round
//! through its variant's exit phase; a member resolves a stub report once
//! its own groups have exited.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use atom_core::config::Defense;
use atom_core::error::AtomError;
use atom_core::round::{collect_round_timings, finish_nizk_round, finish_trap_round, RoundOutput};
use atom_crypto::commit::Commitment;

use super::{JobState, RoundReport, Shared, TELEMETRY_LABEL};
use crate::wire::{self, ExitFrame, TelemetryFrame};

/// What a round's finalization collects: intake's release and every exit
/// and telemetry frame.
#[derive(Default)]
pub(super) struct ExitState {
    /// Exit payloads the coordinator has collected, one slot per group of
    /// the round, local and remote.
    payloads: Vec<Option<Vec<Vec<u8>>>>,
    /// Local actors that reached their exit layer (what a member resolves
    /// its rounds on).
    local_exits: usize,
    routed: usize,
    commitments: Vec<Vec<Commitment>>,
    /// Per-group measured compute times, as reported in exit frames.
    computes: Vec<Vec<Duration>>,
    pipelined: Duration,
    /// Mixing traffic accumulated from the groups' exit frames.
    group_mix_messages: u64,
    group_mix_bytes: u64,
    /// Member telemetry snapshots collected at the orchestrator, at most
    /// one per sending process (duplicates are benign no-ops). While
    /// recording is enabled the round finalizes only once these cover
    /// every remotely hosted group, so the merged report and fleet trace
    /// span all processes.
    telemetry: Vec<TelemetryFrame>,
}

impl ExitState {
    pub(super) fn new(num_groups: usize) -> Self {
        Self {
            payloads: vec![None; num_groups],
            computes: vec![Vec::new(); num_groups],
            ..Self::default()
        }
    }

    /// Records what intake released: the routed ciphertext count and (trap
    /// variant) the per-group commitments the exit phase checks.
    pub(super) fn released(&mut self, routed: usize, commitments: Vec<Vec<Commitment>>) {
        self.routed = routed;
        self.commitments = commitments;
    }
}

/// Takes the round's exit state for finalization once every group has
/// exited and, while recording, every remotely hosted group is covered by
/// some member's telemetry snapshot. Members send their snapshot after
/// their last exit frame on the same ordered channel, so this resolves
/// shortly after the exits do. Taking the state is the claim: it happens
/// once, under the exit lock, even when a late snapshot races the last
/// exit frame.
fn claim(shared: &Shared<'_>, job: &JobState, slot: &mut Option<ExitState>) -> Option<ExitState> {
    let exit = slot.as_ref()?;
    let complete = exit.payloads.iter().all(Option::is_some)
        && (!atom_obs::enabled()
            || (0..job.num_groups())
                .filter(|&gid| !shared.role.hosts(gid))
                .all(|gid| exit.telemetry.iter().any(|frame| frame.gids.contains(&gid))));
    if complete {
        slot.take()
    } else {
        None
    }
}

/// Collects one group's exit frame at the orchestrator; the frame that
/// completes the round triggers finalization.
pub(super) fn on_exit_frame(shared: &Shared<'_>, round: usize, node: usize, frame: ExitFrame) {
    if node != shared.orchestrator || !shared.role.coordinator {
        return shared.fail_all("exit frame delivered to a non-orchestrator node");
    }
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    let gid = frame.gid;
    if gid >= job.num_groups() {
        let error = AtomError::Malformed(format!("exit frame from unknown group {gid}"));
        return shared.fail_job(round, error);
    }
    // No group can legitimately exit before the coordinator's directory is
    // assembled: every mix batch descends from the local intake, which only
    // runs post-assembly. An early exit frame is therefore forged or
    // broken — fail the round rather than let finalization read an
    // unassembled directory (a panic that would take down the whole scope).
    if job.setup.get().is_none() {
        let error = AtomError::Malformed(format!(
            "exit frame from group {gid} before the round directory was assembled"
        ));
        return shared.fail_job(round, error);
    }
    let claimed = {
        let mut slot = job.exit.lock();
        let Some(exit) = slot.as_mut() else {
            return; // finalization already claimed the round
        };
        if exit.payloads[gid].is_some() {
            drop(slot);
            let error = AtomError::Malformed(format!("duplicate exit frame from group {gid}"));
            return shared.fail_job(round, error);
        }
        exit.payloads[gid] = Some(frame.payloads);
        exit.computes[gid] = frame.compute;
        exit.group_mix_messages += frame.mix_messages;
        exit.group_mix_bytes += frame.mix_bytes;
        exit.pipelined = exit.pipelined.max(frame.finished_virtual);
        claim(shared, job, &mut slot)
    };
    if let Some(exit) = claimed {
        finalize_round(shared, round, exit);
    }
}

/// Collects one member process's telemetry snapshot at the orchestrator.
/// Observational traffic: a duplicate from the same process is a benign
/// no-op (idempotent), and a misrouted frame is dropped rather than failing
/// anything — telemetry must never be able to abort a round.
pub(super) fn on_telemetry_frame(
    shared: &Shared<'_>,
    round: usize,
    node: usize,
    frame: TelemetryFrame,
) {
    let job = &shared.jobs[round];
    if node != shared.orchestrator || !shared.role.coordinator || job.failed() {
        return;
    }
    let claimed = {
        let mut slot = job.exit.lock();
        let Some(exit) = slot.as_mut() else {
            return;
        };
        if (exit.telemetry.iter()).any(|existing| existing.process == frame.process) {
            return; // duplicate snapshot from a process we already heard
        }
        exit.telemetry.push(frame);
        claim(shared, job, &mut slot)
    };
    if let Some(exit) = claimed {
        finalize_round(shared, round, exit);
    }
}

/// Member-side bookkeeping of a local group reaching its exit layer: once
/// every locally hosted group of the round is done, a non-coordinator has
/// nothing left to compute and resolves the round with a stub report. (The
/// coordinator learns of its own groups' exits from their exit frames.)
pub(super) fn on_local_exit(shared: &Shared<'_>, round: usize, finished_virtual: Duration) {
    if shared.role.coordinator {
        return;
    }
    let job = &shared.jobs[round];
    let all_local_done = {
        let mut slot = job.exit.lock();
        let Some(exit) = slot.as_mut() else {
            return;
        };
        exit.local_exits += 1;
        exit.pipelined = exit.pipelined.max(finished_virtual);
        exit.local_exits == shared.role.hosted_in_round(job.num_groups())
    };
    if !all_local_done {
        return;
    }
    // All local groups are done: ship this process's span/counter snapshot
    // to the orchestrator so the coordinator's merged report and fleet
    // trace cover this process. Observational only — sent exclusively when
    // recording is enabled, after the last local exit frame (ordered
    // delivery per peer means it cannot overtake the exits).
    if atom_obs::enabled() {
        let hosted: Vec<usize> = (shared.role.hosted.iter())
            .copied()
            .filter(|&gid| gid < job.num_groups())
            .collect();
        let from = hosted.first().copied().unwrap_or(0);
        let snapshot = atom_obs::local_snapshot(Some(shared.trace_round(round)));
        let frame = TelemetryFrame {
            round: shared.wire_round(round),
            process: snapshot.process,
            gids: hosted,
            counters: snapshot.counters,
            spans: snapshot.spans,
        };
        let payload = wire::encode_telemetry(&frame);
        if !shared.send_for_round(round, from, shared.orchestrator, TELEMETRY_LABEL, payload) {
            return;
        }
    }
    shared.resolve(round, Ok(member_stub(job)));
}

/// The report a non-coordinator member resolves a round with: local
/// traffic and latency only, empty protocol output (the coordinator holds
/// the authoritative report). All zero for a round it hosts no group of.
pub(super) fn member_stub(job: &JobState) -> RoundReport {
    let pipelined = (job.exit.lock().as_ref()).map_or(Duration::ZERO, |exit| exit.pipelined);
    let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
    let mix_messages = job.group_mix.iter().map(|(m, _)| load(m)).sum();
    let mix_bytes = job.group_mix.iter().map(|(_, b)| load(b)).sum();
    RoundReport {
        output: RoundOutput::default(),
        pipelined_latency: pipelined,
        wall_clock: job.wall_clock(),
        setup_latency: job.setup_latency(),
        mix_messages,
        mix_bytes,
        telemetry: Vec::new(),
    }
}

/// Collects timings, runs the variant-specific exit phase and resolves the
/// round (coordinator only; members resolve through [`on_local_exit`]).
fn finalize_round(shared: &Shared<'_>, round: usize, exit: ExitState) {
    let job = &shared.jobs[round];
    let payloads: Vec<Vec<Vec<u8>>> = (exit.payloads.into_iter())
        .map(Option::unwrap_or_default)
        .collect();
    let (output, wall_clock) = {
        let _span = atom_obs::span("exit", shared.trace_round(round), atom_obs::GID_NONE);
        // Per-iteration compute critical path as reported in the groups'
        // exit frames, via the accounting helper shared with the sequential
        // driver.
        let setup = job.round_setup();
        let mut timings = collect_round_timings(setup, &exit.computes);
        // Same field semantics as the sequential driver: end-to-end wall
        // time of the round in the coordinator process.
        let wall_clock = job.wall_clock();
        timings.wall_clock = wall_clock;
        let (routed, commitments) = (exit.routed, &exit.commitments);
        let output = match job.submissions.defense() {
            Defense::Nizk => finish_nizk_round(payloads, routed, timings),
            Defense::Trap => finish_trap_round(setup, commitments, payloads, routed, timings),
        };
        (output, wall_clock)
    };

    // The exit phase itself can reject a round (trap-check failure,
    // malformed payloads); `resolve` then tells any member still mixing.
    let report = output.map(|output| {
        // Merge the fleet's telemetry: this process's snapshot — taken
        // *after* the exit span above closed — plus every member frame, one
        // Perfetto process track each, in process order.
        let mut telemetry: Vec<atom_obs::Snapshot> = Vec::new();
        if atom_obs::enabled() {
            telemetry.push(atom_obs::local_snapshot(Some(shared.trace_round(round))));
            for frame in exit.telemetry {
                telemetry.push(atom_obs::Snapshot {
                    process: frame.process,
                    counters: frame.counters,
                    spans: frame.spans,
                });
            }
            telemetry.sort_by_key(|snapshot| snapshot.process);
        }
        RoundReport {
            pipelined_latency: exit.pipelined,
            wall_clock,
            setup_latency: job.setup_latency(),
            mix_messages: job.intake_mix_messages.load(Ordering::Relaxed) + exit.group_mix_messages,
            mix_bytes: job.intake_mix_bytes.load(Ordering::Relaxed) + exit.group_mix_bytes,
            output,
            telemetry,
        }
    });
    shared.resolve(round, report);
}

/// What a round waits on once its directory and intake are done: the
/// coordinator names the groups whose exit frames are missing, a member
/// counts its exited groups.
pub(super) fn waiting_on(shared: &Shared<'_>, job: &JobState) -> (String, Vec<usize>) {
    let slot = job.exit.lock();
    let Some(exit) = slot.as_ref() else {
        return ("finalizing: every exit frame arrived".into(), Vec::new());
    };
    if shared.role.coordinator {
        let missing = (0..exit.payloads.len()).filter(|&gid| exit.payloads[gid].is_none());
        let (named, remote) = shared.locate(missing.collect());
        let detail = format!("waiting on exit frames from groups [{named}]");
        return (detail, remote);
    }
    let exited = exit.local_exits;
    let hosted = shared.role.hosted_in_round(job.num_groups());
    let detail = format!("member still mixing: {exited}/{hosted} hosted groups exited");
    (detail, Vec::new())
}
