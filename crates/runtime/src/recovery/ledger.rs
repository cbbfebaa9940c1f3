//! The recovery ledger and the pure functions every fleet process computes
//! identically: who hosts which servers, where a batch ends and what an
//! eviction log digests to.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use super::{owner_map_excluding, Action, Fleet};
use crate::fault::FaultVerdict;
use crate::wire::{self, RejoinFrame};

/// The servers hosted by fleet process `process`: server `s` lives on
/// process `s mod processes`, so a dead process's servers need no
/// directory lookup.
pub(crate) fn process_servers(num_servers: usize, processes: usize, process: usize) -> Vec<usize> {
    (0..num_servers)
        .filter(|s| s % processes == process)
        .collect()
}

/// The exclusive end of the batch containing `round`: batches are aligned
/// to multiples of `batch`, capped at `rounds`. No attempt crosses one.
pub(crate) fn batch_end(round: usize, batch: usize, rounds: usize) -> usize {
    assert!(batch >= 1, "batch must be at least one round");
    (((round / batch) + 1) * batch).min(rounds)
}

/// A 32-byte integrity digest of an eviction log: four FNV-64 lanes over
/// each verdict's wire encoding, in log order. It catches divergence
/// between the coordinator's log and a member's mirror; it is not an
/// adversarial hash.
pub(crate) fn eviction_log_digest(log: &[FaultVerdict]) -> [u8; 32] {
    let mut bytes = Vec::new();
    log.iter()
        .for_each(|verdict| wire::encode_verdict(&mut bytes, verdict));
    let mut digest = [0u8; 32];
    for (lane, chunk) in (0u64..).zip(digest.chunks_mut(8)) {
        let seed = 0xcbf2_9ce4_8422_2325 ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let fnv = |hash: u64, &byte: &u8| (hash ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        chunk.copy_from_slice(&bytes.iter().fold(seed, fnv).to_le_bytes());
    }
    digest
}

/// Both sides' view of who has been evicted and how each round heals.
/// Members mirror each plan through [`RecoveryLedger::apply_plan`], the
/// update `evict` takes too, so both sides derive byte-identical jobs.
#[derive(Clone, Debug, Default)]
pub(crate) struct RecoveryLedger {
    /// Standing verdicts, one per process still out: the log plans carry.
    active: Vec<FaultVerdict>,
    /// round → evicted-server set its directory was built with, frozen at
    /// its first go so a *retried* round keeps its membership and heals by
    /// Lagrange/escrow instead of re-forming.
    frozen: BTreeMap<usize, Vec<usize>>,
    /// round → servers that failed mid-flight (its Lagrange/escrow set).
    failed: BTreeMap<usize, BTreeSet<usize>>,
}

impl RecoveryLedger {
    /// The processes currently evicted, ascending.
    pub(crate) fn dead_processes(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.active.iter().map(|v| v.process).collect();
        set.into_iter().collect()
    }

    /// Whether `process` is admitted: no standing verdict names it.
    pub(crate) fn admits(&self, process: usize) -> bool {
        self.active.iter().all(|v| v.process != process)
    }

    /// The servers currently evicted.
    pub(crate) fn active_servers(&self) -> BTreeSet<usize> {
        self.active.iter().flat_map(|v| v.servers.clone()).collect()
    }

    /// The digest members must echo in their acks.
    pub(crate) fn digest(&self) -> [u8; 32] {
        eviction_log_digest(&self.active)
    }

    /// The evicted-server set round `round`'s directory is built with.
    pub(crate) fn evicted_for(&self, round: usize) -> Vec<usize> {
        let active = || self.active_servers().into_iter().collect();
        self.frozen.get(&round).cloned().unwrap_or_else(active)
    }

    /// The mid-flight failure set of round `round`, ascending.
    pub(crate) fn failed_for(&self, round: usize) -> Vec<usize> {
        self.failed
            .get(&round)
            .into_iter()
            .flatten()
            .copied()
            .collect()
    }

    /// Whether any of `rounds` is frozen: some go committed it.
    pub(crate) fn any_frozen(&self, rounds: Range<usize>) -> bool {
        self.frozen.range(rounds).next().is_some()
    }

    /// Coordinator side: convict `verdict`, retrying from `retry_round`,
    /// through the update members mirror the plan with.
    pub(crate) fn evict(&mut self, verdict: FaultVerdict, retry_round: usize) {
        let log: Vec<FaultVerdict> = self.active.iter().cloned().chain([verdict]).collect();
        self.apply_plan(&log, retry_round);
    }

    /// Coordinator side: welcome `process` back; later plans include it.
    pub(crate) fn readmit(&mut self, process: usize) {
        self.active.retain(|v| v.process != process);
    }

    /// Adopt the eviction log `evictions` for a batch starting at
    /// `plan_round`. Servers new to our log become mid-flight failures of
    /// that round if it is frozen, so it heals in place; every later round
    /// is unfrozen, so its directory re-forms over the survivors.
    pub(crate) fn apply_plan(&mut self, evictions: &[FaultVerdict], plan_round: usize) {
        let known = self.active_servers();
        let servers = evictions.iter().flat_map(|v| v.servers.clone());
        let fresh: BTreeSet<usize> = servers.filter(|s| !known.contains(s)).collect();
        self.active = evictions.to_vec();
        if !fresh.is_empty() && self.frozen.contains_key(&plan_round) {
            self.failed.entry(plan_round).or_default().extend(fresh);
        }
        self.frozen.retain(|&round, _| round <= plan_round);
        self.failed.retain(|&round, _| round <= plan_round);
    }

    /// Freezes the membership of `rounds` as the go that commits them finds
    /// it; a round already frozen keeps its first membership.
    pub(crate) fn freeze(&mut self, rounds: Range<usize>) {
        for round in rounds {
            let evicted = self.evicted_for(round);
            self.frozen.entry(round).or_insert(evicted);
        }
    }

    /// The [`Action::Prepare`] of `rounds` at `offset` under this log.
    pub(crate) fn prepare(&self, rounds: Range<usize>, offset: usize, fleet: Fleet) -> Action {
        let owner = owner_map_excluding(fleet.0, fleet.1, &self.dead_processes());
        let evicted = rounds.clone().map(|r| self.evicted_for(r)).collect();
        let failed = rounds.clone().map(|r| self.failed_for(r)).collect();
        Action::Prepare(rounds, offset, owner, evicted, failed)
    }

    /// One `rejoin` frame over this log, naming `rounds` at `offset`. The
    /// coordinator's (process 0) plan, go and done frames are responses
    /// carrying the whole log; a member's ack and request carry its digest.
    pub(crate) fn handshake(
        &self,
        rounds: Range<usize>,
        process: usize,
        offset: usize,
        commit: bool,
    ) -> RejoinFrame {
        let (round, end, response, digest) =
            (rounds.start, rounds.end, process == 0, self.digest());
        let evictions = self.active.iter().filter(|_| response).cloned().collect();
        RejoinFrame {
            round,
            end,
            process,
            offset,
            response,
            commit,
            digest,
            evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;
    use crate::{RoundDirectory, RoundJob, RoundSubmissions};
    use atom_core::config::AtomConfig;
    use atom_core::directory::derive_setup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The deployment the ledger's jobs are derived for.
    struct Spec {
        groups: usize,
        rounds: usize,
        honest: usize,
    }

    /// The jobs of `rounds` under `ledger`'s membership, derived the way a
    /// driver derives a plan's (without submissions).
    fn batch_jobs(
        ledger: &RecoveryLedger,
        spec: &Spec,
        rounds: Range<usize>,
    ) -> Result<Vec<RoundJob>, String> {
        rounds
            .map(|round| {
                let mut config = AtomConfig::test_default();
                (config.num_groups, config.num_servers) = (spec.groups, spec.groups * 3);
                (config.required_honest, config.round) = (spec.honest, round as u64);
                config.beacon_seed = round as u64;
                config.evicted_servers = ledger.evicted_for(round);
                let setup = derive_setup(&config).map_err(|error| format!("{error:?}"))?;
                let submissions = RoundSubmissions::Trap(Vec::new());
                let mut job = RoundJob::new(setup, submissions, round as u64);
                job.failed_servers = ledger.failed_for(round);
                Ok(job)
            })
            .collect()
    }

    impl RecoveryLedger {
        /// One round derived and then frozen: what a plan and its go do
        /// to a batch of one.
        fn job_for_round(&mut self, spec: &Spec, round: usize) -> Result<RoundJob, String> {
            let mut jobs = batch_jobs(self, spec, round..round + 1)?;
            self.freeze(round..round + 1);
            Ok(jobs.remove(0))
        }
    }

    fn verdict(process: usize, servers: Vec<usize>, round: usize) -> FaultVerdict {
        FaultVerdict {
            round,
            process,
            kind: FaultKind::Dead,
            servers,
            reason: "test".into(),
        }
    }

    #[test]
    fn batch_end_aligns_and_caps() {
        assert_eq!(batch_end(0, 2, 7), 2);
        assert_eq!(batch_end(1, 2, 7), 2);
        assert_eq!(batch_end(2, 2, 7), 4);
        assert_eq!(batch_end(6, 2, 7), 7);
        assert_eq!(batch_end(0, 10, 3), 3);
    }

    #[test]
    fn process_servers_partition_the_server_set() {
        let (num_servers, processes) = (11, 3);
        let mut seen = Vec::new();
        for process in 0..processes {
            seen.extend(process_servers(num_servers, processes, process));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..num_servers).collect::<Vec<_>>());
    }

    #[test]
    fn eviction_log_digest_tracks_content() {
        let empty = eviction_log_digest(&[]);
        let one = eviction_log_digest(&[verdict(1, vec![1, 4], 0)]);
        let other = eviction_log_digest(&[verdict(2, vec![2, 5], 0)]);
        assert_ne!(empty, one);
        assert_ne!(one, other);
        assert_eq!(one, eviction_log_digest(&[verdict(1, vec![1, 4], 0)]));
    }

    fn job_fingerprint(job: &RoundJob) -> (Vec<usize>, Vec<usize>, Vec<[u8; 32]>) {
        let RoundDirectory::Full(setup) = &job.directory else {
            panic!("prebuilt directory expected");
        };
        (
            setup.config.evicted_servers.clone(),
            job.failed_servers.clone(),
            setup
                .groups
                .iter()
                .map(|group| group.public_key.0.compress().to_bytes())
                .collect(),
        )
    }

    #[test]
    fn member_mirror_matches_coordinator_ledger() {
        let spec = Spec {
            groups: 3,
            rounds: 3,
            honest: 2,
        };
        let victims = process_servers(9, 3, 2);

        // Coordinator: build round 0, observe the failure, retry round 0
        // and move on to round 1.
        let mut coordinator = RecoveryLedger::default();
        let before = coordinator.job_for_round(&spec, 0).unwrap();
        coordinator.evict(verdict(2, victims.clone(), 0), 0);
        let retried = coordinator.job_for_round(&spec, 0).unwrap();
        let reformed = coordinator.job_for_round(&spec, 1).unwrap();

        // Member: built round 0 too, then mirrors the plan.
        let mut member = RecoveryLedger::default();
        let _ = member.job_for_round(&spec, 0).unwrap();
        member.apply_plan(&coordinator.active, 0);
        assert_eq!(member.digest(), coordinator.digest());
        assert_eq!(member.dead_processes(), vec![2]);
        let member_retried = member.job_for_round(&spec, 0).unwrap();
        let member_reformed = member.job_for_round(&spec, 1).unwrap();

        // The retried detection round keeps its membership (same DKG keys
        // as the pre-failure build) and heals the victims mid-flight; the
        // next round re-forms without them. Coordinator and member agree
        // byte-for-byte on both.
        let original = job_fingerprint(&before);
        let retried = job_fingerprint(&retried);
        assert_eq!(retried.0, original.0);
        assert_eq!(retried.2, original.2);
        assert_eq!(retried.1, victims);
        assert_eq!(retried, job_fingerprint(&member_retried));
        let reformed = job_fingerprint(&reformed);
        assert_eq!(reformed.0, victims);
        assert!(reformed.1.is_empty());
        assert_eq!(reformed, job_fingerprint(&member_reformed));
    }

    /// A batch derived from a plan that a newer eviction supersedes before
    /// its go freezes nothing: the retried rounds re-form without the
    /// evicted servers instead of healing them under the old membership.
    #[test]
    fn superseded_plan_leaves_no_round_frozen() {
        let spec = Spec {
            groups: 3,
            rounds: 4,
            honest: 2,
        };
        let victims = process_servers(9, 3, 2);
        let mut ledger = RecoveryLedger::default();
        let planned = batch_jobs(&ledger, &spec, 0..2).unwrap();
        ledger.evict(verdict(2, victims.clone(), 0), 0);
        let retried = batch_jobs(&ledger, &spec, 0..2).unwrap();
        for (round, (planned, retried)) in planned.iter().zip(&retried).enumerate() {
            assert!(job_fingerprint(planned).0.is_empty(), "round {round}");
            assert_eq!(ledger.evicted_for(round), victims, "round {round}");
            let (evicted, failed, _) = job_fingerprint(retried);
            assert_eq!(evicted, victims, "round {round} re-forms");
            assert!(failed.is_empty(), "round {round} heals nothing in place");
        }
    }

    #[test]
    fn rejoined_member_rebuilds_identical_fresh_rounds() {
        let spec = Spec {
            groups: 3,
            rounds: 4,
            honest: 2,
        };
        let mut coordinator = RecoveryLedger::default();
        let _ = coordinator.job_for_round(&spec, 1).unwrap();
        coordinator.evict(verdict(2, process_servers(9, 3, 2), 1), 1);
        let _ = coordinator.job_for_round(&spec, 1).unwrap();
        let _ = coordinator.job_for_round(&spec, 2).unwrap();
        coordinator.readmit(2);
        assert!(coordinator.active.is_empty());
        let fresh = coordinator.job_for_round(&spec, 3).unwrap();

        // The restarted process starts from an empty ledger plus the plan.
        let mut rejoiner = RecoveryLedger::default();
        rejoiner.apply_plan(&coordinator.active, 3);
        let mirrored = rejoiner.job_for_round(&spec, 3).unwrap();
        assert_eq!(job_fingerprint(&fresh), job_fingerprint(&mirrored));
        assert!(job_fingerprint(&fresh).0.is_empty());
    }

    /// A seeded walk over the coordinator's ledger calls — batch builds,
    /// convictions at the retry round, readmissions at a healed boundary —
    /// with a member mirroring every plan through `apply_plan`: both sides
    /// build the same job for every committed round.
    #[test]
    fn ledger_mirror_agrees_over_a_seeded_walk() {
        use rand::Rng;
        let spec = Spec {
            groups: 3,
            rounds: 10_000,
            honest: 2,
        };
        let mut rng = StdRng::seed_from_u64(0x1ED6E4);
        let mut coordinator = RecoveryLedger::default();
        let mut member = RecoveryLedger::default();
        // `next` is the round the next plan starts at; `healed` whether a
        // batch just succeeded there — the only place readmission happens.
        let (mut next, mut healed) = (0, true);
        let (mut commits, mut evictions, mut readmissions) = (0, 0, 0);
        for step in 0..200 {
            match rng.gen_range(0..4) {
                0 => {
                    let process = rng.gen_range(1..3);
                    if !coordinator.dead_processes().contains(&process) {
                        let servers = process_servers(9, 3, process);
                        coordinator.evict(verdict(process, servers, next), next);
                        (healed, evictions) = (false, evictions + 1);
                    }
                }
                1 if healed => {
                    if let Some(&process) = coordinator.dead_processes().first() {
                        coordinator.readmit(process);
                        readmissions += 1;
                    }
                }
                _ => {
                    member.apply_plan(&coordinator.active, next);
                    assert_eq!(member.digest(), coordinator.digest(), "step {step}");
                    let end = batch_end(next, 3, spec.rounds);
                    for round in next..end {
                        let ours = coordinator.job_for_round(&spec, round);
                        let theirs = member.job_for_round(&spec, round);
                        assert_eq!(
                            ours.map(|job| job_fingerprint(&job)),
                            theirs.map(|job| job_fingerprint(&job)),
                            "step {step}, round {round}"
                        );
                    }
                    // The batch completes, or fails from some round on.
                    (next, healed) = if rng.gen_bool(0.5) {
                        (end, true)
                    } else {
                        (rng.gen_range(next..end), false)
                    };
                    commits += 1;
                }
            }
        }
        assert!(commits > 50 && evictions > 10 && readmissions > 3);
    }
}
