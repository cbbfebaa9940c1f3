//! The re-entrant per-group mixing actor.
//!
//! [`GroupActor`] wraps one anytrust group's share of a round as a
//! message-driven state machine: inbound sub-batches are buffered per
//! iteration, and as soon as **all** of a group's expected inputs for its
//! next iteration have arrived the actor runs [`group_mix_iteration`] and
//! emits the outputs — sub-batches addressed to neighbour groups, or the
//! decoded exit payloads on the final layer. Nothing else synchronizes
//! groups, which is what lets the parallel runtime (`atom-runtime`) run
//! groups barrier-free: a fast group may be several iterations ahead of a
//! straggler.
//!
//! Two properties make actor execution reproducible and byte-equivalent to
//! the sequential [`RoundDriver`](crate::round::RoundDriver):
//!
//! * **Per-group RNG streams.** Each actor draws randomness from its own
//!   `StdRng` seeded by [`group_stream_seed`]`(master, round, gid)`, so the
//!   bytes a group produces depend only on its inputs and its own stream —
//!   never on how its execution interleaves with other groups.
//! * **Deterministic batch assembly.** A group's iteration-`i` input batch
//!   is the concatenation of the inbound sub-batches ordered by sender group
//!   id (with the round orchestrator as the lowest, [`SOURCE`]), matching
//!   the order the sequential driver produces.
//!
//! The actor also tracks a per-group *virtual clock*: each inbound batch
//! carries its simulated arrival time (sender finish time plus link
//! latency), and the actor's finish time for an iteration is
//! `max(arrivals, previous finish) + measured compute`. Exit outputs carry
//! the group's final virtual time, from which a pipelined end-to-end latency
//! (Fig. 9–11 accounting without the per-iteration barrier) falls out.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_crypto::elgamal::{MessageCiphertext, PublicKey};
use atom_topology::network::Topology;

use crate::adversary::AdversaryPlan;
use crate::config::Defense;
use crate::directory::{GroupContext, RoundSetup};
use crate::error::{AtomError, AtomResult};
use crate::group::{group_mix_iteration, GroupStepOptions};
use crate::message::{nizk_payload_len, trap_payload_len};

/// Pseudo group id of the round orchestrator, the sender of every group's
/// iteration-0 batch. Sorts below every real group id during batch assembly
/// (real ids occupy `0..num_groups`; the orchestrator is mapped in front).
pub const SOURCE: usize = usize::MAX;

/// Derives the RNG seed of group `gid`'s stream for `round` from a master
/// seed (splitmix64-style finalizer over the mixed inputs).
pub fn group_stream_seed(master: u64, round: u64, gid: usize) -> u64 {
    let mut x = master
        ^ round.wrapping_mul(0xa24b_aed4_963e_e407)
        ^ (gid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Per-actor execution options beyond the common [`GroupStepOptions`].
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
    pub fn new(options: GroupStepOptions) -> Self {
        Self {
            options,
            adversary: None,
            failed_servers: Vec::new(),
            churn: Vec::new(),
        }
    }
}

/// One output of [`GroupActor::on_batch`].
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
    },
}

/// A single group's mixing state machine. See the module docs.
pub struct GroupActor {
    gid: usize,
    group: GroupContext,
    group_keys: Vec<PublicKey>,
    participating: Vec<u64>,
    failed: Vec<usize>,
    config: ActorConfig,
    padded_len: usize,
    rng: StdRng,
    topology: Box<dyn Topology + Send + Sync>,
    iterations: usize,
    expected_inbound: Vec<usize>,
    next_iteration: usize,
    pending: BTreeMap<usize, BTreeMap<usize, Vec<MessageCiphertext>>>,
    compute: Vec<Duration>,
    virtual_ready: Vec<Duration>,
    /// Virtual time at which the group finished its latest iteration.
    clock: Duration,
    done: bool,
}

impl GroupActor {
    /// Builds the actor for group `gid` of `setup`.
    ///
    /// `master_seed` must be shared by every actor of the round; each actor
    /// derives its private stream via [`group_stream_seed`]. Fails if the
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
        let iterations = topology.iterations();
        let num_groups = setup.config.num_groups;

        // How many inbound sub-batches each iteration waits for: one from
        // the orchestrator at iteration 0, afterwards one from every group
        // that lists us as a neighbour in the previous iteration.
        let mut expected_inbound = Vec::with_capacity(iterations);
        expected_inbound.push(1);
        for iteration in 1..iterations {
            let senders = (0..num_groups)
                .filter(|&h| topology.neighbors(h, iteration - 1).contains(&gid))
                .count();
            expected_inbound.push(senders);
        }

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
            topology,
            iterations,
            expected_inbound,
            next_iteration: 0,
            pending: BTreeMap::new(),
            compute: Vec::with_capacity(iterations),
            virtual_ready: vec![Duration::ZERO; iterations],
            clock: Duration::ZERO,
            config,
            done: false,
        })
    }

    /// The group id this actor plays.
    pub fn gid(&self) -> usize {
        self.gid
    }

    /// Measured compute time of each completed iteration.
    pub fn compute_times(&self) -> &[Duration] {
        &self.compute
    }

    /// Records the simulated arrival time of an inbound batch for
    /// `iteration`. Call before [`Self::on_batch`]; the actor keeps the
    /// maximum per iteration.
    pub fn note_arrival(&mut self, iteration: usize, arrival: Duration) {
        if let Some(slot) = self.virtual_ready.get_mut(iteration) {
            if arrival > *slot {
                *slot = arrival;
            }
        }
    }

    /// Delivers one inbound sub-batch and runs every iteration that becomes
    /// ready, returning all emitted outputs.
    ///
    /// Re-entrant: sub-batches may arrive in any order and for any future
    /// iteration; the actor buffers them and only steps iteration `i` once
    /// all [`expected`](RoundSetup) inputs for `i` are present. `from` is the
    /// sending group id, or [`SOURCE`] for the orchestrator's iteration-0
    /// injection.
    pub fn on_batch(
        &mut self,
        iteration: usize,
        from: usize,
        batch: Vec<MessageCiphertext>,
    ) -> AtomResult<Vec<ActorOutput>> {
        if self.done {
            return Err(AtomError::Malformed(format!(
                "group {} received a batch after its exit layer",
                self.gid
            )));
        }
        if iteration >= self.iterations || iteration < self.next_iteration {
            return Err(AtomError::Malformed(format!(
                "group {} received a batch for iteration {iteration} (next is {})",
                self.gid, self.next_iteration
            )));
        }
        // Map SOURCE in front of every real group id so assembly order is
        // simply ascending keys.
        let order_key = if from == SOURCE { 0 } else { from + 1 };
        let slot = self.pending.entry(iteration).or_default();
        if slot.insert(order_key, batch).is_some() {
            return Err(AtomError::Malformed(format!(
                "group {} received a duplicate iteration-{iteration} batch from {from}",
                self.gid
            )));
        }

        let mut outputs = Vec::new();
        while !self.done && self.ready() {
            self.step(&mut outputs)?;
        }
        Ok(outputs)
    }

    fn ready(&self) -> bool {
        self.pending
            .get(&self.next_iteration)
            .map(|slot| slot.len() >= self.expected_inbound[self.next_iteration])
            .unwrap_or(false)
    }

    fn step(&mut self, outputs: &mut Vec<ActorOutput>) -> AtomResult<()> {
        let iteration = self.next_iteration;

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

        let batch: Vec<MessageCiphertext> = self
            .pending
            .remove(&iteration)
            .map(|slot| slot.into_values().flatten().collect())
            .unwrap_or_default();

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
        self.clock = self.clock.max(self.virtual_ready[iteration]) + elapsed;
        let now = self.clock;
        self.next_iteration += 1;

        if neighbors.is_empty() {
            self.done = true;
            outputs.push(ActorOutput::Exit {
                plaintexts: output.plaintexts,
                finished_virtual: now,
            });
        } else {
            for (neighbor, sub_batch) in neighbors.into_iter().zip(output.outputs) {
                outputs.push(ActorOutput::Forward {
                    iteration: iteration + 1,
                    to: neighbor,
                    batch: sub_batch,
                    sent_virtual: now,
                });
            }
        }
        Ok(())
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
        let padded_len = actors[0].padded_len;

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
    fn virtual_clock_accumulates_arrivals_and_compute() {
        let mut rng = rng();
        let mut config = AtomConfig::test_default();
        config.num_groups = 1;
        config.iterations = 1;
        let setup = derive_setup(&config).unwrap();
        let mut actor = GroupActor::new(&setup, 0, 5, actor_config()).unwrap();
        actor.note_arrival(0, Duration::from_millis(120));
        let padded_len = actor.padded_len;
        let batch = encrypt_batch(&setup, 0, &[b"x"], padded_len, &mut rng);
        let outputs = actor.on_batch(0, SOURCE, batch).unwrap();
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
        assert_eq!(actor.participating, vec![1, 2]);

        let padded_len = actor.padded_len;
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
        assert_eq!(actor.participating, vec![2, 3]);
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
        let padded_len = actor.padded_len;
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
