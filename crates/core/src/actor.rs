//! The per-group mixing state machine, in two parts.
//!
//! A [`GroupInbox`] buffers a group's inbound sub-batches per iteration and
//! hands the next iteration out once **all** of its senders' sub-batches
//! arrived; it needs only the config, so it exists before the directory.
//! A [`GroupStepper`] then runs [`group_mix_iteration`] over that batch and
//! emits the outputs — sub-batches addressed to neighbour groups, or the
//! decoded exit payloads on the final layer. Nothing else synchronizes
//! groups, which is what lets the parallel runtime (`atom-runtime`) run
//! groups barrier-free: a fast group may be several iterations ahead of a
//! straggler.
//!
//! Two properties make execution reproducible and byte-equivalent to the
//! sequential [`RoundDriver`](crate::round::RoundDriver):
//!
//! * **Per-group RNG streams.** Each stepper draws randomness from its own
//!   `StdRng` seeded by `group_stream_seed(master, round, gid)`, so the
//!   bytes a group produces depend only on its inputs and its own stream —
//!   never on how its execution interleaves with other groups.
//! * **Deterministic batch assembly.** A group's iteration-`i` input batch
//!   is the concatenation of the inbound sub-batches ordered by sender:
//!   the round orchestrator ([`SOURCE`]) alone at iteration 0, the sending
//!   groups by ascending id afterwards, matching the order the sequential
//!   driver produces.
//!
//! The stepper also tracks a per-group *virtual clock*: each inbound batch
//! carries its simulated arrival time (sender finish time plus link
//! latency), and the group's finish time for an iteration is
//! `max(arrivals, previous finish) + measured compute`. Exit outputs carry
//! the group's final virtual time, from which a pipelined end-to-end latency
//! (Fig. 9–11 accounting without the per-iteration barrier) falls out.

use std::collections::btree_map::{BTreeMap, Entry};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_crypto::elgamal::{MessageCiphertext, PublicKey};
use atom_topology::network::Topology;

use crate::adversary::AdversaryPlan;
use crate::config::{AtomConfig, Defense};
use crate::directory::{GroupContext, RoundSetup};
use crate::error::{AtomError, AtomResult};
use crate::group::{group_mix_iteration, GroupStepOptions};
use crate::message::{nizk_payload_len, trap_payload_len};

/// Pseudo group id of the round orchestrator, the one sender of every
/// group's iteration-0 batch (real ids occupy `0..num_groups`).
pub const SOURCE: usize = usize::MAX;

/// Derives the RNG seed of group `gid`'s stream for `round` from a master
/// seed (splitmix64-style finalizer over the mixed inputs).
pub(crate) fn group_stream_seed(master: u64, round: u64, gid: usize) -> u64 {
    let mut x = master
        ^ round.wrapping_mul(0xa24b_aed4_963e_e407)
        ^ (gid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-group execution options beyond the common [`GroupStepOptions`].
#[derive(Clone, Debug)]
pub struct ActorConfig {
    /// Defence and intra-group parallelism options.
    pub options: GroupStepOptions,
    /// Active-adversary plan (applied only when it names this group).
    pub adversary: Option<AdversaryPlan>,
    /// Servers failed before the round started.
    pub failed_servers: Vec<usize>,
    /// Mid-round churn: `(iteration, server)` pairs — `server` fails before
    /// this group runs `iteration`. The participating set is recomputed,
    /// which succeeds as long as the group retains `threshold` live members
    /// (§4.5: any `k − (h−1)` members can finish the round).
    pub churn: Vec<(usize, usize)>,
}

impl ActorConfig {
    /// Options for a well-behaved group with the given defence settings.
    pub(crate) fn new(options: GroupStepOptions) -> Self {
        Self {
            options,
            adversary: None,
            failed_servers: Vec::new(),
            churn: Vec::new(),
        }
    }
}

/// One output of a group step.
#[derive(Clone, Debug)]
pub enum ActorOutput {
    /// A sub-batch to deliver to group `to` as part of its `iteration` input.
    Forward {
        /// The iteration the receiving group will consume this batch in.
        iteration: usize,
        /// Destination group id.
        to: usize,
        /// The re-encrypted sub-batch.
        batch: Vec<MessageCiphertext>,
        /// The sender's virtual clock when the batch left the group.
        sent_virtual: Duration,
    },
    /// The group reached the exit layer and decoded its payloads.
    Exit {
        /// Decoded mix payloads (traps and inner ciphertexts, or plaintexts
        /// in the NIZK variant).
        plaintexts: Vec<Vec<u8>>,
        /// The group's virtual clock at the end of its last iteration.
        finished_virtual: Duration,
        /// Measured compute time of each of the group's iterations.
        compute: Vec<Duration>,
    },
}

/// A complete iteration: `(iteration, batch, ready)`, `ready` being the
/// latest virtual arrival of its sub-batches.
type Ready = (usize, Vec<MessageCiphertext>, Duration);

/// One group's inbound sub-batches. See the module docs.
pub struct GroupInbox {
    gid: usize,
    /// Per iteration, the senders whose sub-batches complete it: the
    /// orchestrator at iteration 0, afterwards every group that lists this
    /// one as a neighbour in the previous iteration.
    senders: Vec<Vec<usize>>,
    /// The iteration handed out next; past the last once the exit layer
    /// was handed out.
    next: usize,
    pending: BTreeMap<usize, BTreeMap<usize, Vec<MessageCiphertext>>>,
    arrivals: Vec<Duration>,
}

impl GroupInbox {
    /// The inbox of group `gid` in a round of `config`.
    pub fn new(config: &AtomConfig, gid: usize) -> Self {
        let topology = config.topology();
        let iterations = topology.iterations();
        let mut senders = vec![vec![SOURCE]];
        for iteration in 1..iterations {
            let from = (0..config.num_groups)
                .filter(|&h| topology.neighbors(h, iteration - 1).contains(&gid))
                .collect();
            senders.push(from);
        }
        Self {
            gid,
            senders,
            next: 0,
            pending: BTreeMap::new(),
            arrivals: vec![Duration::ZERO; iterations],
        }
    }

    /// Records one inbound sub-batch for `iteration` from `from` (a group
    /// id, or [`SOURCE`]), sent at `arrival` on the sender's virtual clock.
    /// Sub-batches may arrive in any order and for any future iteration; a
    /// sub-batch after the exit layer was handed out, for a past
    /// iteration, from a group that is not one of the iteration's senders,
    /// or a second one from a sender is refused.
    pub fn record(
        &mut self,
        iteration: usize,
        from: usize,
        batch: Vec<MessageCiphertext>,
        arrival: Duration,
    ) -> AtomResult<()> {
        let (gid, next) = (self.gid, self.next);
        let refused = if next == self.senders.len() {
            format!("group {gid} received a batch after its exit layer")
        } else if iteration >= self.senders.len() || iteration < next {
            format!("group {gid} received a batch for iteration {iteration} (next is {next})")
        } else if !self.senders[iteration].contains(&from) {
            let sender = match from {
                SOURCE => "the orchestrator".to_string(),
                from => format!("group {from}"),
            };
            format!(
                "group {gid} received an iteration-{iteration} batch from {sender}, which is not \
                 one of its senders"
            )
        } else {
            match self.pending.entry(iteration).or_default().entry(from) {
                Entry::Occupied(_) => format!(
                    "group {gid} received a duplicate iteration-{iteration} batch from {from}"
                ),
                Entry::Vacant(slot) => {
                    slot.insert(batch);
                    self.arrivals[iteration] = self.arrivals[iteration].max(arrival);
                    return Ok(());
                }
            }
        };
        Err(AtomError::Malformed(refused))
    }

    /// Hands out the next iteration once every one of its senders'
    /// sub-batches arrived, assembled in ascending sender order.
    pub fn take(&mut self) -> Option<Ready> {
        let iteration = self.next;
        if self.pending.get(&iteration)?.len() < self.senders[iteration].len() {
            return None;
        }
        let batch = self.pending.remove(&iteration)?.into_values().flatten();
        self.next += 1;
        Some((iteration, batch.collect(), self.arrivals[iteration]))
    }
}

/// One group's mixing: its context, RNG stream, participating set, churn
/// and virtual clock. See the module docs.
pub struct GroupStepper {
    gid: usize,
    group: GroupContext,
    group_keys: Vec<PublicKey>,
    participating: Vec<u64>,
    failed: Vec<usize>,
    config: ActorConfig,
    padded_len: usize,
    rng: StdRng,
    topology: Box<dyn Topology + Send + Sync>,
    compute: Vec<Duration>,
    /// Virtual time at which the group finished its latest iteration.
    clock: Duration,
}

impl GroupStepper {
    /// Builds the stepper for group `gid` of `setup`.
    ///
    /// `master_seed` must be shared by every group of the round; each
    /// derives its private stream via `group_stream_seed`. Fails if the
    /// initial failure set already exceeds the group's tolerance.
    pub fn new(
        setup: &RoundSetup,
        gid: usize,
        master_seed: u64,
        config: ActorConfig,
    ) -> AtomResult<Self> {
        let group = setup.groups[gid].clone();
        let participating = group.participating(&config.failed_servers)?;
        let topology = setup.config.topology();
        let padded_len = match config.options.defense {
            Defense::Nizk => nizk_payload_len(setup.config.message_len),
            Defense::Trap => trap_payload_len(setup.config.message_len),
        };
        Ok(Self {
            gid,
            group,
            group_keys: setup.groups.iter().map(|g| g.public_key).collect(),
            participating,
            failed: config.failed_servers.clone(),
            padded_len,
            rng: StdRng::seed_from_u64(group_stream_seed(master_seed, setup.config.round, gid)),
            compute: Vec::with_capacity(topology.iterations()),
            topology,
            clock: Duration::ZERO,
            config,
        })
    }

    /// Runs one iteration the group's inbox handed out and returns what it
    /// emits: a sub-batch per neighbour group, or the exit on the last
    /// layer.
    pub fn step(&mut self, (iteration, batch, ready): Ready) -> AtomResult<Vec<ActorOutput>> {
        // Mid-round churn: recompute the participating set if servers
        // scheduled to fail before this iteration.
        let churned: Vec<usize> = self
            .config
            .churn
            .iter()
            .filter(|(at, server)| *at == iteration && !self.failed.contains(server))
            .map(|(_, server)| *server)
            .collect();
        if !churned.is_empty() {
            self.failed.extend(churned);
            self.participating = self.group.participating(&self.failed)?;
        }

        let neighbors = self.topology.neighbors(self.gid, iteration);
        let next_keys: Vec<PublicKey> = neighbors.iter().map(|&n| self.group_keys[n]).collect();
        let adversary = self
            .config
            .adversary
            .filter(|plan| plan.applies_to(self.gid, iteration));

        let start = Instant::now();
        let output = group_mix_iteration(
            &self.group,
            &self.participating,
            batch,
            &next_keys,
            self.padded_len,
            &self.config.options,
            adversary.as_ref(),
            &mut self.rng,
        )?;
        let elapsed = start.elapsed();
        self.compute.push(elapsed);
        // Group-local virtual clock: wait for the slowest arrival, then run.
        self.clock = self.clock.max(ready) + elapsed;
        let now = self.clock;

        if neighbors.is_empty() {
            return Ok(vec![ActorOutput::Exit {
                plaintexts: output.plaintexts,
                finished_virtual: now,
                compute: self.compute.clone(),
            }]);
        }
        let forwards = neighbors.into_iter().zip(output.outputs);
        let forward = |(to, batch)| ActorOutput::Forward {
            iteration: iteration + 1,
            to,
            batch,
            sent_virtual: now,
        };
        Ok(forwards.map(forward).collect())
    }
}

/// A group's inbox and stepper composed on one thread: the group of the
/// sequential [`RoundDriver`](crate::round::RoundDriver).
pub(crate) struct GroupActor {
    inbox: GroupInbox,
    stepper: GroupStepper,
}

impl GroupActor {
    /// Builds group `gid`'s inbox and stepper (see [`GroupStepper::new`]).
    pub(crate) fn new(
        setup: &RoundSetup,
        gid: usize,
        master_seed: u64,
        config: ActorConfig,
    ) -> AtomResult<Self> {
        let stepper = GroupStepper::new(setup, gid, master_seed, config)?;
        let inbox = GroupInbox::new(&setup.config, gid);
        Ok(Self { inbox, stepper })
    }

    /// Records one inbound sub-batch and runs every iteration that becomes
    /// complete, returning all emitted outputs.
    pub(crate) fn on_batch(
        &mut self,
        iteration: usize,
        from: usize,
        batch: Vec<MessageCiphertext>,
    ) -> AtomResult<Vec<ActorOutput>> {
        self.inbox.record(iteration, from, batch, Duration::ZERO)?;
        let mut outputs = Vec::new();
        while let Some(ready) = self.inbox.take() {
            outputs.extend(self.stepper.step(ready)?);
        }
        Ok(outputs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AtomConfig;
    use crate::directory::derive_setup;
    use crate::message::MixPayload;
    use atom_crypto::elgamal::encrypt_message;
    use atom_crypto::encoding::encode_message_padded;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(99)
    }

    fn actor_config() -> ActorConfig {
        ActorConfig::new(GroupStepOptions::new(Defense::Trap))
    }

    fn encrypt_batch(
        setup: &RoundSetup,
        gid: usize,
        payloads: &[&[u8]],
        padded_len: usize,
        rng: &mut StdRng,
    ) -> Vec<MessageCiphertext> {
        payloads
            .iter()
            .map(|payload| {
                let framed = MixPayload::Plaintext(payload.to_vec())
                    .to_bytes(padded_len)
                    .unwrap();
                let points = encode_message_padded(&framed, padded_len).unwrap();
                encrypt_message(&setup.groups[gid].public_key, &points, rng).0
            })
            .collect()
    }

    #[test]
    fn group_stream_seed_separates_rounds_and_groups() {
        let base = group_stream_seed(7, 0, 0);
        assert_ne!(base, group_stream_seed(7, 0, 1));
        assert_ne!(base, group_stream_seed(7, 1, 0));
        assert_ne!(base, group_stream_seed(8, 0, 0));
        assert_eq!(base, group_stream_seed(7, 0, 0));
    }

    #[test]
    fn actor_buffers_until_all_inputs_arrive() {
        let mut rng = rng();
        let mut config = AtomConfig::test_default();
        config.num_groups = 2;
        config.iterations = 2;
        let setup = derive_setup(&config).unwrap();
        let mut actors: Vec<GroupActor> = (0..2)
            .map(|gid| GroupActor::new(&setup, gid, 42, actor_config()).unwrap())
            .collect();
        let padded_len = actors[0].stepper.padded_len;

        let batch = encrypt_batch(&setup, 0, &[b"a", b"b"], padded_len, &mut rng);
        let from_g0 = actors[0].on_batch(0, SOURCE, batch).unwrap();
        // Square topology over two groups: one sub-batch per neighbour.
        assert_eq!(from_g0.len(), 2);
        let from_g1 = actors[1].on_batch(0, SOURCE, Vec::new()).unwrap();
        assert_eq!(from_g1.len(), 2);

        // Group 1 expects iteration-1 sub-batches from both groups; deliver
        // group 0's first and observe buffering, then group 1's own to
        // trigger the exit layer (iteration 1 is the last of two).
        let pick = |outputs: &[ActorOutput]| -> (usize, Vec<MessageCiphertext>) {
            outputs
                .iter()
                .find_map(|output| match output {
                    ActorOutput::Forward {
                        iteration,
                        to: 1,
                        batch,
                        ..
                    } => Some((*iteration, batch.clone())),
                    _ => None,
                })
                .expect("a sub-batch addressed to group 1")
        };
        let (iteration, sub) = pick(&from_g0);
        assert_eq!(iteration, 1);
        let outputs = actors[1].on_batch(iteration, 0, sub).unwrap();
        assert!(
            outputs.is_empty(),
            "must buffer until the sub-batch from group 1 itself arrives"
        );

        let (iteration, sub) = pick(&from_g1);
        let outputs = actors[1].on_batch(iteration, 1, sub).unwrap();
        match &outputs[..] {
            [ActorOutput::Exit { plaintexts, .. }] => {
                assert_eq!(plaintexts.len(), 1, "group 1 holds one of the two messages");
            }
            other => panic!("expected an exit, got {other:?}"),
        }
    }

    #[test]
    fn stale_and_duplicate_batches_rejected() {
        let config = AtomConfig::test_default();
        let setup = derive_setup(&config).unwrap();
        let mut actor = GroupActor::new(&setup, 0, 1, actor_config()).unwrap();
        actor.on_batch(0, SOURCE, Vec::new()).unwrap();
        // Iteration 0 already ran: stale.
        assert!(matches!(
            actor.on_batch(0, SOURCE, Vec::new()),
            Err(AtomError::Malformed(_))
        ));
        // Duplicate sender for a future iteration.
        let mut actor = GroupActor::new(&setup, 0, 1, actor_config()).unwrap();
        actor.on_batch(1, 2, Vec::new()).unwrap();
        assert!(matches!(
            actor.on_batch(1, 2, Vec::new()),
            Err(AtomError::Malformed(_))
        ));
        // Beyond the last iteration.
        assert!(matches!(
            actor.on_batch(99, SOURCE, Vec::new()),
            Err(AtomError::Malformed(_))
        ));
    }

    #[test]
    fn a_sub_batch_from_no_sender_of_its_iteration_is_refused() {
        let config = AtomConfig::test_default();
        let mut inbox = GroupInbox::new(&config, 0);
        let refused = |inbox: &mut GroupInbox, iteration, from| match inbox.record(
            iteration,
            from,
            Vec::new(),
            Duration::ZERO,
        ) {
            Err(AtomError::Malformed(reason)) => reason,
            other => panic!("want a refusal, got {other:?}"),
        };
        let want = "group 0 received an iteration-1 batch from the orchestrator, which is not one \
                    of its senders";
        assert_eq!(refused(&mut inbox, 1, SOURCE), want);
        let want = "group 0 received an iteration-0 batch from group 2, which is not one of its \
                    senders";
        assert_eq!(refused(&mut inbox, 0, 2), want);
        let want = "group 0 received an iteration-1 batch from group 4, which is not one of its \
                    senders";
        assert_eq!(refused(&mut inbox, 1, config.num_groups), want);
        // None of them was counted: the orchestrator's batch alone
        // completes iteration 0.
        inbox.record(0, SOURCE, Vec::new(), Duration::ZERO).unwrap();
        assert!(matches!(inbox.take(), Some((0, _, _))));
        assert!(inbox.take().is_none());
    }

    #[test]
    fn virtual_clock_accumulates_arrivals_and_compute() {
        let mut rng = rng();
        let mut config = AtomConfig::test_default();
        config.num_groups = 1;
        config.iterations = 1;
        let setup = derive_setup(&config).unwrap();
        let mut actor = GroupActor::new(&setup, 0, 5, actor_config()).unwrap();
        let padded_len = actor.stepper.padded_len;
        let batch = encrypt_batch(&setup, 0, &[b"x"], padded_len, &mut rng);
        let arrival = Duration::from_millis(120);
        actor.inbox.record(0, SOURCE, batch, arrival).unwrap();
        let ready = actor.inbox.take().expect("iteration 0 is complete");
        assert_eq!(ready.2, arrival);
        let outputs = actor.stepper.step(ready).unwrap();
        match &outputs[..] {
            [ActorOutput::Exit {
                finished_virtual, ..
            }] => {
                assert!(*finished_virtual >= Duration::from_millis(120));
            }
            other => panic!("expected exit, got {other:?}"),
        }
    }

    #[test]
    fn churn_recomputes_participants_mid_round() {
        let mut rng = rng();
        let mut config = AtomConfig::test_default();
        config.num_groups = 1;
        config.iterations = 2;
        config.required_honest = 2; // tolerate one failure
        config.group_size = 3;
        let setup = derive_setup(&config).unwrap();
        let victim = setup.groups[0].members[0];
        let mut cfg = actor_config();
        cfg.churn = vec![(1, victim)];
        let mut actor = GroupActor::new(&setup, 0, 9, cfg).unwrap();
        assert_eq!(actor.stepper.participating, vec![1, 2]);

        let padded_len = actor.stepper.padded_len;
        let batch = encrypt_batch(&setup, 0, &[b"m"], padded_len, &mut rng);
        let outputs = actor.on_batch(0, SOURCE, batch).unwrap();
        // Single group, two iterations: iteration 0 forwards to itself.
        let mut exited = false;
        for output in outputs {
            if let ActorOutput::Forward {
                iteration,
                to,
                batch,
                ..
            } = output
            {
                assert_eq!(to, 0);
                for inner in actor.on_batch(iteration, 0, batch).unwrap() {
                    if let ActorOutput::Exit { plaintexts, .. } = inner {
                        assert_eq!(plaintexts.len(), 1);
                        exited = true;
                    }
                }
            }
        }
        assert!(exited);
        // The victim was dropped from the participating set.
        assert_eq!(actor.stepper.participating, vec![2, 3]);
    }

    #[test]
    fn too_much_churn_aborts() {
        let mut rng = rng();
        let mut config = AtomConfig::test_default();
        config.num_groups = 1;
        config.iterations = 2;
        let setup = derive_setup(&config).unwrap();
        // threshold == group_size: any churn is fatal.
        let victim = setup.groups[0].members[0];
        let mut cfg = actor_config();
        cfg.churn = vec![(1, victim)];
        let mut actor = GroupActor::new(&setup, 0, 9, cfg).unwrap();
        let padded_len = actor.stepper.padded_len;
        let batch = encrypt_batch(&setup, 0, &[b"m"], padded_len, &mut rng);
        let outputs = actor.on_batch(0, SOURCE, batch).unwrap();
        let ActorOutput::Forward {
            iteration, batch, ..
        } = &outputs[0]
        else {
            panic!("expected forward");
        };
        assert!(matches!(
            actor.on_batch(*iteration, 0, batch.clone()),
            Err(AtomError::TooManyFailures { .. })
        ));
    }
}
