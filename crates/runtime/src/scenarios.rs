//! Workload scenarios driving the engine end to end.
//!
//! Each scenario builds a deployment, generates submissions, runs the
//! parallel engine and verifies delivery, returning a [`ScenarioReport`]
//! that tests, examples and the throughput harness consume. Covered shapes:
//!
//! * [`server_churn`] — fault-tolerant groups lose a member mid-round and
//!   finish anyway (§4.5).
//! * [`stragglers`] — one slow group, slowed at the transport by
//!   [`slow_groups`]; every message is still delivered and the drips show
//!   on the round's wall clock.
//! * [`defense_matrix`] — the same workload under both the NIZK and trap
//!   variants.
//! * [`batched_intake`] — chunked parallel submission intake: per-submission
//!   chunks, a single intake task, and the sequential driver must all
//!   produce byte-identical round outputs.
//! * [`tcp_loopback`] — the microblog workload split across two engine
//!   instances talking `TcpTransport` on localhost; the coordinator's round
//!   outputs must be byte-identical to the in-memory run.
//! * [`sharded_loopback`] — the same split, but with
//!   [`RoundDirectory::Sharded`](crate::engine::RoundDirectory) jobs: each
//!   engine instance derives only the DKGs of its hosted groups and learns
//!   the rest from `setup` wire frames; the coordinator's outputs must be
//!   byte-identical to an in-memory run with a prebuilt
//!   [`derive_setup`] directory.
//!
//! The **adversary suite** attacks the same deployments and asserts both
//! halves of the defence: the engine names the attack in its verdict, and a
//! paired healthy control round still clears traffic (the liveness floor an
//! [`AdversaryReport`] records):
//!
//! * [`submission_flood`] — a streamed flood over the intake cap must fail
//!   closed at admission, before a single flood submission materializes.
//! * [`slow_loris`] — a member that drips progress forever resets the stall
//!   detector but cannot stop the round clock: the coordinator's deadline
//!   fires and the [`FaultVerdict`] convicts the member as `Slow`.
//! * [`equivocating_setup`] — a forged sharded-setup frame advertising a
//!   different group key is caught by the directory cross-check, whichever
//!   order the conflicting frames arrive in.
//! * [`mauled_reencryption`] — a member publishes a mauled sub-batch next to
//!   an honest re-encryption proof: the NIZK variant convicts that member on
//!   the spot, the trap variant aborts at its trap check.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::adversary::{AdversaryPlan, Misbehavior};
use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::{derive_members, derive_setup, RoundSetup};
use atom_core::error::{AtomError, AtomResult, EngineErrorKind};
use atom_core::message::{make_nizk_submission, make_trap_submission};
use atom_core::round::RoundDriver;
use atom_net::{
    FaultyTransport, InMemoryNetwork, NodeId, SendError, SendFault, TcpOptions, TcpTransport,
    Transport,
};

use crate::engine::{
    Engine, EngineOptions, EngineRole, RoundJob, RoundReport, RoundSubmissions, SubmissionBlock,
    SubmissionSource, SETUP_LABEL,
};
use crate::fault::{FaultKind, FaultVerdict};
use crate::wire::{self, Frame};

/// Common knobs for every scenario.
#[derive(Clone, Debug)]
pub struct ScenarioOptions {
    /// Worker threads for the engine.
    pub workers: usize,
    /// Deterministic seed for the deployment's beacon, submissions and
    /// mixing.
    pub seed: u64,
}

impl Default for ScenarioOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            seed: 7,
        }
    }
}

impl ScenarioOptions {
    /// Options with an explicit seed, every other knob at its default.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }

    /// The scenario's deterministic RNG. Every scenario draws its
    /// submissions from this one constructor, so two scenarios handed equal
    /// options can never silently diverge on seeding.
    pub fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed)
    }

    /// The shared small-deployment config: `groups` groups of the default
    /// test group size, 2 iterations, 32-byte messages, and a beacon seed
    /// derived from the scenario seed. Hoisted here (rather than copied
    /// per scenario) so a knob change reaches every scenario at once.
    pub fn config(&self, defense: Defense, groups: usize, round: u64) -> AtomConfig {
        let mut config = AtomConfig::test_default();
        config.defense = defense;
        config.num_groups = groups;
        config.num_servers = (groups * 2).max(config.group_size);
        config.iterations = 2;
        config.message_len = 32;
        config.round = round;
        config.beacon_seed = self.seed ^ round;
        config
    }

    /// Engine options carrying the scenario's shared knobs. Scenarios that
    /// need more (chunking, caps, deadlines) start from this and override,
    /// so the shared knobs stay shared.
    pub fn engine_options(&self) -> EngineOptions {
        EngineOptions::with_workers(self.workers)
    }

    /// An engine over [`engine_options`](Self::engine_options).
    pub fn engine(&self) -> Engine {
        Engine::new(self.engine_options())
    }
}

/// What a scenario did and observed.
#[derive(Clone, Debug)]
pub struct ScenarioReport {
    /// Rounds executed.
    pub rounds: usize,
    /// Messages submitted across all rounds.
    pub submitted: usize,
    /// Messages delivered across all rounds.
    pub delivered: usize,
    /// Total mixing traffic (messages) through the transport.
    pub mix_messages: u64,
    /// Total mixing traffic (bytes) through the transport.
    pub mix_bytes: u64,
}

impl ScenarioReport {
    fn from_reports(reports: &[RoundReport], submitted: usize) -> Self {
        Self {
            rounds: reports.len(),
            submitted,
            delivered: reports.iter().map(|r| r.output.plaintexts.len()).sum(),
            mix_messages: reports.iter().map(|r| r.mix_messages).sum(),
            mix_bytes: reports.iter().map(|r| r.mix_bytes).sum(),
        }
    }
}

fn collect(reports: Vec<AtomResult<RoundReport>>) -> AtomResult<Vec<RoundReport>> {
    reports.into_iter().collect()
}

/// Decodes zero-padded plaintexts into strings for delivery checks.
fn decode_texts(report: &RoundReport) -> Vec<String> {
    let mut texts: Vec<String> = report
        .output
        .plaintexts
        .iter()
        .map(|p| String::from_utf8_lossy(p.split(|&b| b == 0).next().unwrap_or(&[])).into_owned())
        .collect();
    texts.sort();
    texts
}

/// Builds the microblog workload: `rounds` rounds of `posts_per_round`
/// fixed-length posts each. Shared by [`tcp_loopback`], [`slow_loris`] and
/// the sharded scenarios, which must execute the identical jobs.
fn microblog_jobs(
    groups: usize,
    posts_per_round: usize,
    rounds: usize,
    options: &ScenarioOptions,
) -> AtomResult<Vec<RoundJob>> {
    let mut rng = options.rng();
    let mut jobs = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let config = options.config(Defense::Trap, groups, round as u64);
        let setup = derive_setup(&config)?;
        let prefix = format!("r{round} post");
        let submissions = numbered_submissions(&setup, posts_per_round, &prefix, &mut rng)?;
        let seed = options.seed.wrapping_add(round as u64);
        jobs.push(RoundJob::new(setup, submissions, seed));
    }
    Ok(jobs)
}

/// Server churn mid-round: fault-tolerant groups (`h = 2`) lose one member
/// while mixing is underway and the round still delivers everything.
pub fn server_churn(
    groups: usize,
    messages: usize,
    options: &ScenarioOptions,
) -> AtomResult<ScenarioReport> {
    let mut rng = options.rng();
    let mut config = options.config(Defense::Trap, groups, 0);
    config.required_honest = 2; // tolerate one failure per group
    let setup = derive_setup(&config)?;
    let submissions = numbered_submissions(&setup, messages, "churn", &mut rng)?;

    // A member of group 0 dies between iterations 0 and 1.
    let victim = setup.groups[0].members[0];
    let mut job = RoundJob::new(setup, submissions, options.seed);
    job.churn = vec![(1, victim)];

    let report = options.engine().run_round(job)?;
    let got = decode_texts(&report);
    let want = numbered_texts(messages, "churn");
    if got != want {
        return Err(AtomError::Malformed(format!(
            "churn round lost messages: got {got:?}, want {want:?}"
        )));
    }
    Ok(ScenarioReport::from_reports(
        std::slice::from_ref(&report),
        messages,
    ))
}

/// The send rule of slow servers: each mixing step of a group `slow`
/// picks costs `drip` of wall time, charged where its frames leave. One
/// frame per step carries the drip: the one the group sends to itself
/// (every non-final step of both topologies sends one) and, at the last
/// step, its exit frame to `orchestrator`. So a step is charged once, not
/// once per neighbour, and the group's next step waits on the drip as it
/// would on a slow machine.
pub fn slow_groups(
    slow: impl Fn(usize) -> bool + Send + Sync,
    orchestrator: NodeId,
    drip: Duration,
) -> impl Fn(NodeId, NodeId, &[u8]) -> SendFault + Send + Sync {
    move |from, to, payload| {
        let exit = || to == orchestrator && matches!(wire::decode(payload), Ok(Frame::Exit(_)));
        if slow(from) && (to == from || exit()) {
            SendFault::Delay(drip)
        } else {
            SendFault::Deliver
        }
    }
}

/// Group 0 runs on a slow server: [`slow_groups`] adds `delay` to each of
/// its steps. Delivery must be unaffected, and every one of its steps sits
/// on the round's critical path, so the wall clock must show them all.
pub fn stragglers(
    groups: usize,
    messages: usize,
    delay: Duration,
    options: &ScenarioOptions,
) -> AtomResult<ScenarioReport> {
    let mut rng = options.rng();
    let config = options.config(Defense::Trap, groups, 0);
    let setup = derive_setup(&config)?;
    let submissions = numbered_submissions(&setup, messages, "slow", &mut rng)?;

    let network = InMemoryNetwork::local(groups + 1);
    let slow = FaultyTransport::new(&network, slow_groups(|gid| gid == 0, groups, delay));
    let job = RoundJob::new(setup, submissions, options.seed);
    let role = EngineRole::standalone(groups);
    let report = collect(options.engine().run_rounds_on(vec![job], &slow, &role))?.remove(0);

    if decode_texts(&report) != numbered_texts(messages, "slow") {
        return Err(AtomError::Malformed("straggler round lost messages".into()));
    }
    let critical = delay * config.iterations as u32;
    if report.wall_clock < critical {
        return Err(AtomError::Malformed(format!(
            "straggler round took {:?}, less than its {critical:?} of drips",
            report.wall_clock
        )));
    }
    Ok(ScenarioReport::from_reports(
        std::slice::from_ref(&report),
        messages,
    ))
}

/// Chunked-intake equivalence: the same NIZK-variant round executed with
/// per-submission intake chunks, with one monolithic intake task, and on the
/// sequential [`RoundDriver`] must produce byte-identical outputs — chunking
/// only changes *where* proof verification runs, never what the round says.
pub fn batched_intake(
    groups: usize,
    messages: usize,
    options: &ScenarioOptions,
) -> AtomResult<ScenarioReport> {
    let mut rng = options.rng();
    let config = options.config(Defense::Nizk, groups, 0);
    let setup = derive_setup(&config)?;
    let submissions = (0..messages)
        .map(|i| {
            make_nizk_submission(
                i % groups,
                &setup.groups[i % groups].public_key,
                format!("intake {i}").as_bytes(),
                config.message_len,
                &mut rng,
            )
            .map(|(submission, _)| submission)
        })
        .collect::<AtomResult<Vec<_>>>()?;

    let run = |intake_chunk: usize| -> AtomResult<RoundReport> {
        let mut engine_options = options.engine_options();
        engine_options.intake_chunk = intake_chunk;
        Engine::new(engine_options).run_round(RoundJob::new(
            setup.clone(),
            RoundSubmissions::Nizk(submissions.clone()),
            options.seed,
        ))
    };
    let chunked = run(1)?;
    let single = run(usize::MAX)?;

    let driver = RoundDriver::new(setup.clone());
    let mut driver_rng = options.rng();
    let sequential = driver.run_nizk_round(&submissions, &mut driver_rng)?;

    for (label, output) in [("single-task", &single.output), ("sequential", &sequential)] {
        if chunked.output.plaintexts != output.plaintexts
            || chunked.output.per_group != output.per_group
            || chunked.output.routed_ciphertexts != output.routed_ciphertexts
        {
            return Err(AtomError::Malformed(format!(
                "chunked intake diverged from the {label} round"
            )));
        }
    }
    Ok(ScenarioReport::from_reports(
        std::slice::from_ref(&chunked),
        messages,
    ))
}

/// TCP loopback equivalence: the microblog workload executed once
/// in-process over `InMemoryNetwork` and once split across two engine
/// instances talking [`TcpTransport`] on localhost (run as threads here;
/// the `atom-node` binary in `atom-bench` covers separate OS processes).
/// The coordinator hosts the even group ids, the member the odd ones. The
/// coordinator's `RoundOutput`s must be **byte-identical** to the
/// in-memory run's; returns the TCP run's report.
pub fn tcp_loopback(
    groups: usize,
    posts_per_round: usize,
    rounds: usize,
    options: &ScenarioOptions,
) -> AtomResult<ScenarioReport> {
    let jobs = microblog_jobs(groups, posts_per_round, rounds, options)?;
    let reference = collect(options.engine().run_rounds(jobs.clone()))?;
    let reports = run_loopback_split(groups, jobs.clone(), jobs, options)?;
    check_against_reference(&reports, &reference, "tcp")?;
    Ok(ScenarioReport::from_reports(
        &reports,
        posts_per_round * rounds,
    ))
}

/// Sharded-directory TCP loopback equivalence: the microblog workload as
/// [`RoundDirectory::Sharded`](crate::RoundDirectory::Sharded) jobs split
/// across two engine instances on localhost. Each instance runs **only the
/// DKGs of its hosted groups** and learns the rest from `setup` wire
/// frames, yet the coordinator's `RoundOutput`s must be **byte-identical**
/// to an in-memory run whose directory was derived monolithically up front
/// ([`derive_setup`]). Also asserts the coordinator actually reported a
/// non-zero setup latency. Returns the sharded TCP run's report.
pub fn sharded_loopback(
    groups: usize,
    posts_per_round: usize,
    rounds: usize,
    options: &ScenarioOptions,
) -> AtomResult<ScenarioReport> {
    let (full_jobs, sharded_jobs, member_jobs) =
        sharded_microblog_jobs(groups, posts_per_round, rounds, options)?;
    let reference = collect(options.engine().run_rounds(full_jobs))?;
    let reports = run_loopback_split(groups, sharded_jobs, member_jobs, options)?;
    check_against_reference(&reports, &reference, "sharded")?;
    for (round, report) in reports.iter().enumerate() {
        if report.setup_latency.is_zero() {
            return Err(AtomError::Malformed(format!(
                "sharded round {round} reported no setup latency"
            )));
        }
    }
    Ok(ScenarioReport::from_reports(
        &reports,
        posts_per_round * rounds,
    ))
}

/// [`microblog_jobs`] three ways over the identical configs, submissions
/// and seeds: prebuilt (the in-memory reference), sharded for the
/// coordinator, and sharded without submissions for the member — members
/// never run intake, the same contract `atom-node --sharded` ships.
/// Returns `(full, coordinator, member)`.
fn sharded_microblog_jobs(
    groups: usize,
    posts_per_round: usize,
    rounds: usize,
    options: &ScenarioOptions,
) -> AtomResult<(Vec<RoundJob>, Vec<RoundJob>, Vec<RoundJob>)> {
    let full = microblog_jobs(groups, posts_per_round, rounds, options)?;
    let sharded = |job: &RoundJob, submissions| {
        RoundJob::sharded(job.config().clone(), submissions, job.seed)
    };
    let coordinator = full
        .iter()
        .map(|job| sharded(job, job.submissions.clone()))
        .collect();
    let member = full
        .iter()
        .map(|job| sharded(job, RoundSubmissions::Trap(Vec::new())))
        .collect();
    Ok((full, coordinator, member))
}

/// Runs `coordinator_jobs`/`member_jobs` split across two engine instances
/// talking `TcpTransport` on localhost — even gids (and the orchestrator)
/// on the coordinator, odd gids on the member — and returns the
/// coordinator's reports. Both listeners bind free ports and exchange the
/// resolved addresses afterwards, so concurrent tests cannot race on ports.
fn run_loopback_split(
    groups: usize,
    coordinator_jobs: Vec<RoundJob>,
    member_jobs: Vec<RoundJob>,
    options: &ScenarioOptions,
) -> AtomResult<Vec<RoundReport>> {
    let (coordinator_results, member_results) = run_loopback_split_raw(
        groups,
        coordinator_jobs,
        member_jobs,
        options.engine_options(),
        options,
        |_, _, _| SendFault::Deliver,
        |_| Ok(0),
    )?;
    member_results.into_iter().collect::<AtomResult<Vec<_>>>()?;
    collect(coordinator_results)
}

/// Per-round results of one side of a split run, failures kept in place.
type RawRoundResults = Vec<AtomResult<RoundReport>>;

/// The raw two-instance split: like [`run_loopback_split`], but with the
/// coordinator's own engine options (adversary scenarios arm its
/// deadline), a send rule the member's engine runs behind (a slow member
/// is a [`FaultyTransport`] fault), an `inject` hook that may push forged
/// wire frames through the member's transport before either engine starts
/// (it returns how many; both engines start once they have all landed), and
/// the per-round results returned raw — a coordinator round that *fails* is
/// the observation adversary scenarios exist to capture, not an early exit.
fn run_loopback_split_raw(
    groups: usize,
    coordinator_jobs: Vec<RoundJob>,
    member_jobs: Vec<RoundJob>,
    coordinator_options: EngineOptions,
    options: &ScenarioOptions,
    member_fault: impl Fn(NodeId, NodeId, &[u8]) -> SendFault + Send + Sync + 'static,
    inject: impl FnOnce(&TcpTransport) -> Result<usize, SendError>,
) -> AtomResult<(RawRoundResults, RawRoundResults)> {
    let net_error = |what: &str, error: &dyn std::fmt::Display| {
        AtomError::Malformed(format!("tcp loopback scenario: {what}: {error}"))
    };
    let mut owner: Vec<usize> = (0..groups).map(|gid| gid % 2).collect();
    owner.push(0);
    let coordinator_net = TcpTransport::bind_any(2, owner.clone(), 0, TcpOptions::default())
        .map_err(|e| net_error("binding coordinator", &e))?;
    let member_net = TcpTransport::bind_any(2, owner, 1, TcpOptions::default())
        .map_err(|e| net_error("binding member", &e))?;
    coordinator_net.set_peer_addr(1, member_net.local_addr().to_string());
    member_net.set_peer_addr(0, coordinator_net.local_addr().to_string());
    // Delivery is asynchronous: unless every injected frame is queued before
    // the engines start, the coordinator can act on the first before the
    // rest land (run intake under a forged key, say, ahead of the setup
    // frame that contradicts it).
    let (landed, arrivals) = std::sync::mpsc::channel();
    coordinator_net.set_delivery_hook(Some(Arc::new(move |_| {
        let _ = landed.send(());
    })));
    let injected = inject(&member_net).map_err(|e| net_error("injecting forged frames", &e))?;
    let queued = |node| coordinator_net.pending(node);
    while (0..coordinator_net.nodes()).map(queued).sum::<usize>() < injected {
        let arrival = arrivals.recv_timeout(Duration::from_secs(10));
        arrival.map_err(|e| net_error("awaiting injected frames", &e))?;
    }
    coordinator_net.set_delivery_hook(None);

    let hosted_even: Vec<usize> = (0..groups).step_by(2).collect();
    let hosted_odd: Vec<usize> = (1..groups).step_by(2).collect();
    let member_options = options.engine_options();
    let member_thread = std::thread::spawn(move || {
        Engine::new(member_options).run_rounds_on(
            member_jobs,
            &FaultyTransport::new(&member_net, member_fault),
            &EngineRole::member(hosted_odd),
        )
    });
    let coordinator_results = Engine::new(coordinator_options).run_rounds_on(
        coordinator_jobs,
        &coordinator_net,
        &EngineRole::coordinator(hosted_even),
    );
    let member_results = member_thread
        .join()
        .map_err(|_| AtomError::Malformed("tcp loopback member thread panicked".into()))?;
    Ok((coordinator_results, member_results))
}

/// Byte-equality check of the deterministic `RoundOutput` fields against a
/// reference run.
fn check_against_reference(
    reports: &[RoundReport],
    reference: &[RoundReport],
    what: &str,
) -> AtomResult<()> {
    for (round, (got, want)) in reports.iter().zip(reference).enumerate() {
        if got.output.plaintexts != want.output.plaintexts
            || got.output.per_group != want.output.per_group
            || got.output.routed_ciphertexts != want.output.routed_ciphertexts
        {
            return Err(AtomError::Malformed(format!(
                "{what} round {round} diverged from the in-memory run"
            )));
        }
    }
    Ok(())
}

/// The texts of [`numbered_submissions`], sorted as [`decode_texts`]
/// returns them.
fn numbered_texts(count: usize, prefix: &str) -> Vec<String> {
    let mut texts: Vec<String> = (0..count).map(|i| format!("{prefix} {i}")).collect();
    texts.sort();
    texts
}

/// `count` submissions `"{prefix} {i}"`, dealt round-robin over the entry
/// groups, in the round's defence variant.
fn numbered_submissions(
    setup: &RoundSetup,
    count: usize,
    prefix: &str,
    rng: &mut StdRng,
) -> AtomResult<RoundSubmissions> {
    let config = &setup.config;
    let groups = config.num_groups;
    let text = |i: usize| format!("{prefix} {i}");
    Ok(match config.defense {
        Defense::Nizk => RoundSubmissions::Nizk(
            (0..count)
                .map(|i| {
                    make_nizk_submission(
                        i % groups,
                        &setup.groups[i % groups].public_key,
                        text(i).as_bytes(),
                        config.message_len,
                        rng,
                    )
                    .map(|(submission, _)| submission)
                })
                .collect::<AtomResult<Vec<_>>>()?,
        ),
        Defense::Trap => RoundSubmissions::Trap(
            (0..count)
                .map(|i| {
                    make_trap_submission(
                        i % groups,
                        &setup.groups[i % groups].public_key,
                        &setup.trustees.public_key,
                        config.round,
                        text(i).as_bytes(),
                        config.message_len,
                        rng,
                    )
                    .map(|(submission, _)| submission)
                })
                .collect::<AtomResult<Vec<_>>>()?,
        ),
    })
}

/// The same workload under both defences. Returns `(nizk, trap)` reports;
/// both must deliver everything.
pub fn defense_matrix(
    groups: usize,
    messages: usize,
    options: &ScenarioOptions,
) -> AtomResult<(ScenarioReport, ScenarioReport)> {
    let mut rng = options.rng();

    // NIZK round.
    let nizk_setup = derive_setup(&options.config(Defense::Nizk, groups, 0))?;
    let nizk_submissions = numbered_submissions(&nizk_setup, messages, "both", &mut rng)?;

    // Trap round over the same texts.
    let trap_setup = derive_setup(&options.config(Defense::Trap, groups, 1))?;
    let trap_submissions = numbered_submissions(&trap_setup, messages, "both", &mut rng)?;

    let reports = collect(options.engine().run_rounds(vec![
        RoundJob::new(nizk_setup, nizk_submissions, options.seed),
        RoundJob::new(trap_setup, trap_submissions, options.seed + 1),
    ]))?;

    let want = numbered_texts(messages, "both");
    for report in &reports {
        if decode_texts(report) != want {
            return Err(AtomError::Malformed(
                "a defence variant lost messages".into(),
            ));
        }
    }
    let mut iter = reports.into_iter();
    let nizk = iter.next().expect("nizk report");
    let trap = iter.next().expect("trap report");
    Ok((
        ScenarioReport::from_reports(std::slice::from_ref(&nizk), messages),
        ScenarioReport::from_reports(std::slice::from_ref(&trap), messages),
    ))
}

// ---------------------------------------------------------------------------
// Adversary suite
// ---------------------------------------------------------------------------

/// What an adversary scenario observed: the engine's named verdict on the
/// attacked round, plus a healthy control round under the *same* defensive
/// knobs proving legitimate traffic still flows — the liveness floor.
#[derive(Clone, Debug)]
pub struct AdversaryReport {
    /// Scenario name (`"submission_flood"`, `"slow_loris"`,
    /// `"equivocating_setup"`, `"mauled_reencryption"`).
    pub scenario: &'static str,
    /// The engine's diagnosis of the attacked round, verbatim.
    pub verdict: String,
    /// Messages submitted in the healthy control round.
    pub submitted: usize,
    /// Messages delivered by the healthy control round.
    pub delivered: usize,
    /// Wall-clock duration of the healthy control round.
    pub elapsed: Duration,
}

impl AdversaryReport {
    /// Control-round throughput in messages per second — the number a
    /// liveness floor is asserted against.
    pub fn msgs_per_sec(&self) -> f64 {
        if self.elapsed.is_zero() {
            return f64::INFINITY;
        }
        self.delivered as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs the healthy control round an adversary scenario pairs with its
/// attack: the same deployment shape and the same defensive engine knobs,
/// minus the adversary. Any lost message fails the scenario — an "attack
/// repelled" verdict is worthless if the defence also repels users.
fn control_round(
    scenario: &'static str,
    verdict: String,
    groups: usize,
    messages: usize,
    engine_options: EngineOptions,
    options: &ScenarioOptions,
) -> AtomResult<AdversaryReport> {
    let mut rng = options.rng();
    let setup = derive_setup(&options.config(Defense::Trap, groups, 1))?;
    let submissions = numbered_submissions(&setup, messages, "ctrl", &mut rng)?;
    let started = Instant::now();
    let report =
        Engine::new(engine_options).run_round(RoundJob::new(setup, submissions, options.seed))?;
    let elapsed = started.elapsed();
    let delivered = report.output.plaintexts.len();
    if delivered != messages {
        return Err(AtomError::Malformed(format!(
            "{scenario} control round lost messages: delivered {delivered} of {messages}"
        )));
    }
    Ok(AdversaryReport {
        scenario,
        verdict,
        submitted: messages,
        delivered,
        elapsed,
    })
}

/// A streaming submission source that *counts* every generation request.
/// The flood scenario uses the count as its no-buffering proof: a round
/// rejected at admission must have generated exactly zero submissions.
struct FloodSource {
    setup: Arc<RoundSetup>,
    total: usize,
    seed: u64,
    generated: AtomicUsize,
}

impl SubmissionSource for FloodSource {
    fn total(&self) -> usize {
        self.total
    }

    fn defense(&self) -> Defense {
        Defense::Trap
    }

    fn generate(&self, range: (usize, usize)) -> AtomResult<SubmissionBlock> {
        let (start, end) = range;
        self.generated.fetch_add(end - start, Ordering::SeqCst);
        let groups = self.setup.config.num_groups;
        let mut block = Vec::with_capacity(end - start);
        for index in start..end {
            let mut rng = StdRng::seed_from_u64(self.seed ^ index as u64);
            let gid = index % groups;
            let (submission, _) = make_trap_submission(
                gid,
                &self.setup.groups[gid].public_key,
                &self.setup.trustees.public_key,
                self.setup.config.round,
                format!("flood {index}").as_bytes(),
                self.setup.config.message_len,
                &mut rng,
            )?;
            block.push(submission);
        }
        Ok(SubmissionBlock::Trap(block))
    }
}

/// Submission flood vs. the intake cap: a streamed round offering `flood`
/// submissions against a cap of `cap` must fail closed at admission — a
/// [`ProtocolAbort`](EngineErrorKind::ProtocolAbort) naming the flood and
/// the cap, with **zero** submissions generated (the engine never buffers
/// what it already knows it will reject). The paired control round pushes
/// `cap` legitimate messages through the same capped engine.
pub fn submission_flood(
    groups: usize,
    flood: usize,
    cap: usize,
    options: &ScenarioOptions,
) -> AtomResult<AdversaryReport> {
    if flood <= cap {
        return Err(AtomError::Config(format!(
            "submission_flood wants flood > cap, got {flood} <= {cap}"
        )));
    }
    let setup = derive_setup(&options.config(Defense::Trap, groups, 0))?;
    let source = Arc::new(FloodSource {
        setup: Arc::new(setup.clone()),
        total: flood,
        seed: options.seed,
        generated: AtomicUsize::new(0),
    });
    let mut engine_options = options.engine_options();
    engine_options.intake_cap = cap;

    let outcome = Engine::new(engine_options.clone()).run_round(RoundJob::new(
        setup,
        RoundSubmissions::Stream(source.clone() as Arc<dyn SubmissionSource>),
        options.seed,
    ));
    let verdict = match outcome {
        Ok(_) => {
            return Err(AtomError::Malformed(format!(
                "flood of {flood} was accepted despite the intake cap of {cap}"
            )))
        }
        Err(AtomError::Engine {
            kind: EngineErrorKind::ProtocolAbort,
            reason,
            ..
        }) => reason,
        Err(other) => {
            return Err(AtomError::Malformed(format!(
                "flood round failed for the wrong reason: {other:?}"
            )))
        }
    };
    if !verdict.contains("submission flood") || !verdict.contains("intake cap") {
        return Err(AtomError::Malformed(format!(
            "flood verdict does not name the attack: {verdict}"
        )));
    }
    let generated = source.generated.load(Ordering::SeqCst);
    if generated != 0 {
        return Err(AtomError::Malformed(format!(
            "the engine materialized {generated} flood submissions before failing closed"
        )));
    }
    control_round(
        "submission_flood",
        verdict,
        groups,
        cap,
        engine_options,
        options,
    )
}

/// Slow-loris member: the member instance of a TCP loopback split sends
/// through [`slow_groups`], so every mixing step of its hosted (odd) groups
/// costs `drip` — always making *some* progress, so the stall detector
/// never fires — while the
/// coordinator arms a `deadline` round clock. The round must die with a
/// [`Deadline`](EngineErrorKind::Deadline) verdict implicating the member's
/// groups, and [`FaultVerdict::diagnose`] must convict the member process
/// as [`Slow`](FaultKind::Slow) — the verdict PR 7's recovery loop turns
/// into an eviction. The control round re-runs drip-free under a deadline.
pub fn slow_loris(
    groups: usize,
    posts: usize,
    drip: Duration,
    deadline: Duration,
    options: &ScenarioOptions,
) -> AtomResult<AdversaryReport> {
    if groups < 2 {
        return Err(AtomError::Config(
            "slow_loris wants at least one member-hosted (odd) group".into(),
        ));
    }
    let jobs = microblog_jobs(groups, posts, 1, options)?;
    let mut coordinator_options = options.engine_options();
    coordinator_options.round_deadline = deadline;

    let (coordinator_results, _member_results) = run_loopback_split_raw(
        groups,
        jobs.clone(),
        jobs,
        coordinator_options,
        options,
        slow_groups(|gid| gid % 2 == 1, groups, drip),
        |_| Ok(0),
    )?;
    let error = match coordinator_results.into_iter().next() {
        Some(Err(error)) => error,
        Some(Ok(_)) => {
            return Err(AtomError::Malformed(format!(
                "slow-loris round beat its {deadline:?} deadline despite a {drip:?} drip; \
                 widen the gap between drip and deadline"
            )))
        }
        None => {
            return Err(AtomError::Malformed(
                "slow-loris run produced no round".into(),
            ))
        }
    };
    let AtomError::Engine { kind, reason, .. } = &error else {
        return Err(AtomError::Malformed(format!(
            "slow-loris round failed outside the engine: {error:?}"
        )));
    };
    if *kind != EngineErrorKind::Deadline {
        return Err(AtomError::Malformed(format!(
            "slow-loris round died of {kind}, not the deadline: {reason}"
        )));
    }
    let verdict = reason.clone();

    // The coordinator's ownership map: even gids (and the orchestrator,
    // node `groups`) live on process 0, odd gids on the loris member.
    let mut owners: Vec<usize> = (0..groups).map(|gid| gid % 2).collect();
    owners.push(0);
    let conviction =
        FaultVerdict::diagnose(0, &error, &owners, 0, |_| Vec::new()).ok_or_else(|| {
            AtomError::Malformed(format!(
                "deadline verdict implicated nobody diagnosable: {verdict}"
            ))
        })?;
    if conviction.process != 1 || conviction.kind != FaultKind::Slow {
        return Err(AtomError::Malformed(format!(
            "slow-loris conviction went to process {} as {}, want process 1 as slow",
            conviction.process, conviction.kind
        )));
    }
    // Drip-free, the same deployment must clear a deadline of the same
    // order — armed with headroom so a loaded CI host cannot flake it.
    let mut control_options = options.engine_options();
    control_options.round_deadline = deadline.saturating_mul(100);
    control_round(
        "slow_loris",
        verdict,
        groups,
        posts,
        control_options,
        options,
    )
}

/// Equivocating setup frames: before a sharded loopback round starts, the
/// adversary injects a forged `setup` wire frame for a member-hosted group
/// advertising a *different* group key (here: another group's genuine key,
/// so every field except the key cross-checks clean). Whichever order the
/// forged and genuine frames arrive in, the coordinator's directory
/// cross-check must kill the round naming the conflicting group — it must
/// never pick one frame and mix under an attacker-chosen key.
pub fn equivocating_setup(
    groups: usize,
    posts: usize,
    options: &ScenarioOptions,
) -> AtomResult<AdversaryReport> {
    if groups < 2 {
        return Err(AtomError::Config(
            "equivocating_setup wants at least one member-hosted (odd) group".into(),
        ));
    }
    let (_, sharded_jobs, member_jobs) = sharded_microblog_jobs(groups, posts, 1, options)?;
    let config = sharded_jobs[0].config().clone();
    // The equivocator tells two stories about group 1's key. The forged
    // story passes every public cross-check except the key: membership and
    // threshold are the genuine derived values, and the key is a *valid*
    // group element — group 0's — that simply is not group 1's. The second
    // story carries the genuine key, the one the member must also use to
    // actually participate. Both are injected back-to-back on the same
    // ordered connection, so the coordinator's cross-check meets the
    // conflict deterministically — before intake can misdiagnose the wrong
    // key as a wave of bad user proofs.
    let honest = derive_setup(&config)?;
    let story = |public_key| {
        wire::encode_setup(&wire::SetupFrame {
            round: 0,
            gid: 1,
            members: derive_members(&config, 1).unwrap_or_default(),
            threshold: config.group_threshold(),
            public_key,
        })
    };
    let forged = story(honest.groups[0].public_key);
    let genuine = story(honest.groups[1].public_key);

    let (coordinator_results, _member_results) = run_loopback_split_raw(
        groups,
        sharded_jobs,
        member_jobs,
        options.engine_options(),
        options,
        |_, _, _| SendFault::Deliver,
        move |member_net| {
            member_net.send(1, 0, SETUP_LABEL.into(), forged)?;
            member_net.send(1, 0, SETUP_LABEL.into(), genuine)?;
            Ok(2)
        },
    )?;
    let error = match coordinator_results.into_iter().next() {
        Some(Err(error)) => error,
        Some(Ok(_)) => {
            return Err(AtomError::Malformed(
                "the coordinator mixed under an equivocated setup frame".into(),
            ))
        }
        None => {
            return Err(AtomError::Malformed(
                "equivocation run produced no round".into(),
            ))
        }
    };
    let verdict = format!("{error}");
    if !verdict.contains("conflicting setup frames for group 1") {
        return Err(AtomError::Malformed(format!(
            "equivocation verdict does not name the conflict: {verdict}"
        )));
    }
    control_round(
        "equivocating_setup",
        verdict,
        groups,
        posts,
        options.engine_options(),
        options,
    )
}

/// A mauled re-encryption: member 2 of group 0 proves its first-iteration
/// re-encryption honestly, then publishes a sub-batch with one group element
/// shifted. Under `Defense::Nizk` the aggregated `ReEncProof` no longer
/// matches what was published and the verdict names the member; under
/// `Defense::Trap` nothing checks the hop, and the garbled message surfaces
/// at the round's trap check.
pub fn mauled_reencryption(
    groups: usize,
    posts: usize,
    defense: Defense,
    options: &ScenarioOptions,
) -> AtomResult<AdversaryReport> {
    let mut rng = options.rng();
    let setup = derive_setup(&options.config(defense, groups, 0))?;
    let submissions = numbered_submissions(&setup, posts, "maul", &mut rng)?;
    let mut job = RoundJob::new(setup, submissions, options.seed);
    job.adversary = Some(AdversaryPlan {
        group: 0,
        member: 2,
        iteration: 0,
        action: Misbehavior::MaulReencryption { slot: 0 },
    });
    let verdict = match options.engine().run_round(job) {
        Err(error) => format!("{error}"),
        Ok(_) => {
            return Err(AtomError::Malformed(
                "a mauled re-encryption went undetected".into(),
            ))
        }
    };
    control_round(
        "mauled_reencryption",
        verdict,
        groups,
        posts,
        options.engine_options(),
        options,
    )
}
