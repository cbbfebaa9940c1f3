//! The coordinator's recovery ledger, and the pure functions of a fleet's
//! shape: who hosts which servers and where a batch ends.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

use crate::fault::FaultVerdict;
use crate::wire::RejoinFrame;

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

/// The coordinator's record of who has been evicted and how each round
/// heals. Members keep none: each plan carries the membership it yields.
#[derive(Clone, Debug, Default)]
pub(crate) struct RecoveryLedger {
    /// Standing verdicts, one per process still out.
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

    /// Convicts `verdict`, retrying from `retry_round`. Its servers new to
    /// the log become mid-flight failures of that round if it is frozen, so
    /// it heals in place; every later round is unfrozen, so its directory
    /// re-forms over the survivors.
    pub(crate) fn evict(&mut self, verdict: FaultVerdict, retry_round: usize) {
        let known = self.active_servers();
        let fresh = verdict.servers.iter().filter(|s| !known.contains(s));
        if self.frozen.contains_key(&retry_round) {
            self.failed.entry(retry_round).or_default().extend(fresh);
        }
        self.active.push(verdict);
        self.frozen.retain(|&round, _| round <= retry_round);
        self.failed.retain(|&round, _| round <= retry_round);
    }

    /// Welcomes `process` back; later plans include it.
    pub(crate) fn readmit(&mut self, process: usize) {
        self.active.retain(|v| v.process != process);
    }

    /// Freezes the membership of `rounds` as the go that commits them finds
    /// it; a round already frozen keeps its first membership.
    pub(crate) fn freeze(&mut self, rounds: Range<usize>) {
        for round in rounds {
            let evicted = self.evicted_for(round);
            self.frozen.entry(round).or_insert(evicted);
        }
    }

    /// The coordinator's frame of `rounds` at `offset` — a plan, its go
    /// with `commit`, or the done sentinel: the evicted processes and, per
    /// round, the servers its directory excludes and those it heals around.
    pub(crate) fn plan(&self, rounds: Range<usize>, offset: usize, commit: bool) -> RejoinFrame {
        RejoinFrame {
            round: rounds.start,
            end: rounds.end,
            process: 0,
            offset,
            response: true,
            commit,
            dead: self.dead_processes(),
            evicted: rounds.clone().map(|r| self.evicted_for(r)).collect(),
            failed: rounds.map(|r| self.failed_for(r)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::prepare;
    use super::*;
    use crate::fault::FaultKind;
    use crate::recovery::Action;
    use crate::wire::{self, Frame};
    use crate::{RoundJob, RoundSubmissions};
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

    /// Round `round`'s job (without submissions) built without `evicted`
    /// and healing around `failed`, the way a driver derives it.
    fn job(
        spec: &Spec,
        round: usize,
        evicted: Vec<usize>,
        failed: Vec<usize>,
    ) -> Result<RoundJob, String> {
        let mut config = AtomConfig::test_default();
        (config.num_groups, config.num_servers) = (spec.groups, spec.groups * 3);
        (config.required_honest, config.round) = (spec.honest, round as u64);
        config.beacon_seed = round as u64;
        config.evicted_servers = evicted;
        let setup = derive_setup(&config).map_err(|error| format!("{error:?}"))?;
        let submissions = RoundSubmissions::Trap(Vec::new());
        let mut job = RoundJob::new(setup, submissions, round as u64);
        job.failed_servers = failed;
        Ok(job)
    }

    /// The jobs of `rounds` under `ledger`'s membership.
    fn batch_jobs(
        ledger: &RecoveryLedger,
        spec: &Spec,
        rounds: Range<usize>,
    ) -> Result<Vec<RoundJob>, String> {
        let membership = |r| (r, ledger.evicted_for(r), ledger.failed_for(r));
        let jobs = rounds.map(membership);
        jobs.map(|(round, evicted, failed)| job(spec, round, evicted, failed))
            .collect()
    }

    /// The jobs a member derives from `plan` once it crossed the wire:
    /// those of the `Prepare` it yields.
    fn plan_jobs(plan: &RejoinFrame, spec: &Spec) -> Result<Vec<RoundJob>, String> {
        let Ok(Frame::Rejoin(plan)) = wire::decode(&wire::encode_rejoin(plan)) else {
            panic!("a plan decodes");
        };
        let Action::Prepare((rounds, _, _, [evicted, failed])) = prepare(&plan, (spec.groups, 3))
        else {
            panic!("a plan prepares its attempt");
        };
        let membership = rounds.zip(evicted.into_iter().zip(failed));
        membership
            .map(|(round, (evicted, failed))| job(spec, round, evicted, failed))
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

    fn job_fingerprint(job: &RoundJob) -> (Vec<usize>, Vec<usize>, Vec<[u8; 32]>) {
        let setup = derive_setup(job.config()).expect("the job's directory");
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

    /// The retried detection round keeps its membership (same DKG keys as
    /// the pre-failure build) and heals the victims mid-flight; the next
    /// round re-forms without them.
    #[test]
    fn retried_round_heals_and_next_round_reforms() {
        let spec = Spec {
            groups: 3,
            rounds: 3,
            honest: 2,
        };
        let victims = process_servers(9, 3, 2);
        let mut coordinator = RecoveryLedger::default();
        let before = coordinator.job_for_round(&spec, 0).unwrap();
        coordinator.evict(verdict(2, victims.clone(), 0), 0);
        assert_eq!(coordinator.dead_processes(), vec![2]);
        let retried = job_fingerprint(&coordinator.job_for_round(&spec, 0).unwrap());
        let reformed = job_fingerprint(&coordinator.job_for_round(&spec, 1).unwrap());
        let original = job_fingerprint(&before);
        assert_eq!(retried.0, original.0);
        assert_eq!(retried.2, original.2);
        assert_eq!(retried.1, victims);
        assert_eq!(reformed.0, victims);
        assert!(reformed.1.is_empty());
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

    /// A restarted process keeps no ledger: the coordinator's plan, once it
    /// crossed the wire, derives the same fresh round the coordinator does.
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
        let plan = coordinator.plan(3..4, 9, false);
        let fresh = coordinator.job_for_round(&spec, 3).unwrap();
        let rebuilt = plan_jobs(&plan, &spec).unwrap();
        assert!(plan.dead.is_empty());
        assert_eq!(job_fingerprint(&fresh), job_fingerprint(&rebuilt[0]));
        assert!(job_fingerprint(&fresh).0.is_empty());
    }

    /// A seeded walk over the coordinator's ledger calls — batch builds,
    /// convictions at the retry round, readmissions at a healed boundary:
    /// for every committed round, the job a member derives from the plan
    /// after the wire is the one the ledger derives.
    #[test]
    fn plans_carry_the_ledger_over_a_seeded_walk() {
        use rand::Rng;
        let spec = Spec {
            groups: 3,
            rounds: 10_000,
            honest: 2,
        };
        let mut rng = StdRng::seed_from_u64(0x1ED6E4);
        let mut coordinator = RecoveryLedger::default();
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
                    let end = batch_end(next, 3, spec.rounds);
                    let plan = coordinator.plan(next..end, step, false);
                    assert_eq!(plan.dead, coordinator.dead_processes(), "step {step}");
                    let theirs = plan_jobs(&plan, &spec).unwrap();
                    for (round, theirs) in (next..end).zip(&theirs) {
                        let ours = coordinator.job_for_round(&spec, round).unwrap();
                        assert_eq!(
                            job_fingerprint(&ours),
                            job_fingerprint(theirs),
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
