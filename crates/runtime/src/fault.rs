//! Structured fault verdicts: the bridge from a dead round to an eviction.
//!
//! When a round fails with an [`AtomError::Engine`] the error carries the
//! transport nodes implicated in the failure (the mailboxes a stall was
//! still waiting on, or the peer a send could not reach). This module turns
//! that raw evidence into a [`FaultVerdict`] — which *process* is at fault,
//! which *servers* that process hosted, and how confident the diagnosis is
//! — which the coordinator appends to its eviction log. Its next plan
//! carries the membership that log yields, so every surviving process
//! prepares the identical healed directory from the same bytes.
//!
//! [`slow_groups`] is the other side of a `Slow` verdict: the send rule
//! that makes a server slow at the transport, the way drills and tests
//! inject one.

use std::time::Duration;

use atom_core::error::{AtomError, EngineErrorKind};
use atom_net::{NodeId, SendFault};

use crate::wire::{self, Frame};

/// How a fault verdict classifies the failed process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The process is gone: its peer reset the connection, or it produced
    /// no frames at all before the stall timeout. Evict immediately.
    Dead,
    /// The process (or one of its servers) provably deviated — it sent an
    /// abort, a malformed frame, or failed a protocol check. Evict and
    /// attribute.
    Blamed,
    /// The process was implicated but the evidence is circumstantial
    /// (e.g. a stall that points at several processes). Evict it to heal
    /// the round, but a real deployment would only deprioritize it.
    Slow,
}

impl std::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FaultKind::Dead => "dead",
            FaultKind::Blamed => "blamed",
            FaultKind::Slow => "slow",
        })
    }
}

/// One entry of the fleet's eviction log: a process (and the servers it
/// hosted) convicted of killing round `round`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultVerdict {
    /// The round whose failure produced this verdict.
    pub round: usize,
    /// The convicted fleet process index.
    pub process: usize,
    /// Classification of the conviction.
    pub kind: FaultKind,
    /// Global server ids the process hosted — the ids fed into
    /// [`AtomConfig::evicted_servers`](atom_core::config::AtomConfig::evicted_servers).
    pub servers: Vec<usize>,
    /// Human-readable evidence (the engine error's diagnosis).
    pub reason: String,
}

impl FaultVerdict {
    /// Diagnoses a failed round: maps the engine error's implicated
    /// transport nodes through `owners` (node → fleet process, the
    /// coordinator's group-ownership map) and convicts the process owning
    /// the most implicated nodes (other ties broken toward the lowest
    /// index). `servers_of` supplies the global server ids a process hosts.
    ///
    /// Returns `None` when the error carries no usable evidence — a
    /// non-engine error, an engine error with no implicated nodes, nodes
    /// that only point back at the coordinator itself (`own_process`), or a
    /// stall whose top vote two processes share, which names no culprit:
    /// evicting nobody is better than evicting at random.
    pub fn diagnose(
        round: usize,
        error: &AtomError,
        owners: &[usize],
        own_process: usize,
        servers_of: impl Fn(usize) -> Vec<usize>,
    ) -> Option<FaultVerdict> {
        let AtomError::Engine {
            kind,
            reason,
            nodes,
        } = error
        else {
            return None;
        };
        let mut votes = vec![0usize; owners.iter().max().map_or(0, |max| max + 1)];
        let owned = nodes.iter().filter_map(|&node| owners.get(node));
        for &owner in owned.filter(|&&owner| owner != own_process) {
            votes[owner] += 1;
        }
        let process = votes
            .iter()
            .enumerate()
            .filter(|(_, votes)| **votes > 0)
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(process, _)| process)?;
        let implicated = votes.iter().filter(|votes| **votes > 0).count();
        let tied = votes.iter().filter(|&&v| v == votes[process]).count() > 1;
        let kind = match kind {
            // A lost transport names the unreachable peer exactly.
            EngineErrorKind::TransportLost => FaultKind::Dead,
            // A stall pointing at a single process is as good as dead; one
            // pointing at several is circumstantial, and one whose top vote
            // several share names no culprit.
            EngineErrorKind::Stall if tied => return None,
            EngineErrorKind::Stall if implicated == 1 => FaultKind::Dead,
            EngineErrorKind::Stall => FaultKind::Slow,
            // The aborting peer holds the authoritative error; convicting
            // the first implicated node is the best available attribution.
            EngineErrorKind::ProtocolAbort => FaultKind::Blamed,
            // A blown round deadline means the peer *was* making progress —
            // a drip-feeding slow-loris, not a corpse. Evicting it as Slow
            // keeps the door open for a later readmission.
            EngineErrorKind::Deadline => FaultKind::Slow,
        };
        Some(FaultVerdict {
            round,
            process,
            kind,
            servers: servers_of(process),
            reason: reason.clone(),
        })
    }
}

/// The send rule of slow servers, for an [`atom_net::FaultyTransport`]:
/// each mixing step of a group `slow` picks costs `drip` of wall time,
/// charged where its frames leave. One frame per step carries the drip:
/// the one the group sends to itself (every non-final step of both
/// topologies sends one) and, at the last step, its exit frame to
/// `orchestrator`. So a step is charged once, not once per neighbour, and
/// the group's next step waits on the drip as it would on a slow machine.
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

#[cfg(test)]
mod tests {
    use super::*;

    fn engine_error(kind: EngineErrorKind, nodes: Vec<usize>) -> AtomError {
        AtomError::Engine {
            kind,
            reason: "test failure".into(),
            nodes,
        }
    }

    /// owners: nodes 0,1 on process 0 (the coordinator), 2,3 on 1, 4,5 on 2.
    const OWNERS: [usize; 6] = [0, 0, 1, 1, 2, 2];

    #[test]
    fn transport_lost_convicts_the_unreachable_peer() {
        let error = engine_error(EngineErrorKind::TransportLost, vec![4]);
        let verdict = FaultVerdict::diagnose(3, &error, &OWNERS, 0, |p| vec![p * 10]).unwrap();
        assert_eq!(verdict.round, 3);
        assert_eq!(verdict.process, 2);
        assert_eq!(verdict.kind, FaultKind::Dead);
        assert_eq!(verdict.servers, vec![20]);
        assert_eq!(verdict.reason, "test failure");
    }

    #[test]
    fn single_process_stall_is_dead_multi_process_is_slow() {
        let error = engine_error(EngineErrorKind::Stall, vec![2, 3]);
        let verdict = FaultVerdict::diagnose(0, &error, &OWNERS, 0, |_| Vec::new()).unwrap();
        assert_eq!((verdict.process, verdict.kind), (1, FaultKind::Dead));

        // Nodes across two processes: circumstantial, majority wins.
        let error = engine_error(EngineErrorKind::Stall, vec![2, 3, 4]);
        let verdict = FaultVerdict::diagnose(0, &error, &OWNERS, 0, |_| Vec::new()).unwrap();
        assert_eq!((verdict.process, verdict.kind), (1, FaultKind::Slow));

        // A tie names no culprit, so it convicts nobody.
        let error = engine_error(EngineErrorKind::Stall, vec![3, 5]);
        assert!(FaultVerdict::diagnose(0, &error, &OWNERS, 0, |_| Vec::new()).is_none());
    }

    #[test]
    fn deadline_is_slow_even_with_one_implicated_node() {
        // Unlike a stall, a single-node deadline conviction stays `Slow`:
        // the peer demonstrably kept sending, just not fast enough.
        let error = engine_error(EngineErrorKind::Deadline, vec![2]);
        let verdict = FaultVerdict::diagnose(0, &error, &OWNERS, 0, |_| Vec::new()).unwrap();
        assert_eq!((verdict.process, verdict.kind), (1, FaultKind::Slow));
    }

    #[test]
    fn evidence_free_errors_yield_no_verdict() {
        // No implicated nodes.
        let error = engine_error(EngineErrorKind::Stall, Vec::new());
        assert!(FaultVerdict::diagnose(0, &error, &OWNERS, 0, |_| Vec::new()).is_none());
        // Nodes that only point at the diagnosing process itself.
        let error = engine_error(EngineErrorKind::Stall, vec![0, 1]);
        assert!(FaultVerdict::diagnose(0, &error, &OWNERS, 0, |_| Vec::new()).is_none());
        // Non-engine errors carry no node evidence at all.
        let error = AtomError::Config("nope".into());
        assert!(FaultVerdict::diagnose(0, &error, &OWNERS, 0, |_| Vec::new()).is_none());
        // Out-of-range nodes are ignored rather than panicking.
        let error = engine_error(EngineErrorKind::Stall, vec![99]);
        assert!(FaultVerdict::diagnose(0, &error, &OWNERS, 0, |_| Vec::new()).is_none());
    }
}
