//! Two engine processes — a coordinator and one member — joined by a real
//! [`TcpTransport`] on loopback, hosted as two threads of the benchmark
//! process so one command owns all load and every span.
//!
//! Back-to-back `run_rounds_on` calls share the transport. The engine has
//! no notion of "the next call": a member racing ahead would hand the
//! coordinator setup frames for rounds it has not been told about yet. So
//! each call is fenced the way the fleet's recovery epochs are — a
//! disjoint wire round-id range per call ([`EngineOptions::round_offset`])
//! and a rendezvous after it (the coordinator waits for the member's
//! completion message before starting the next call).

use std::sync::mpsc::{channel, Receiver, Sender};
use std::thread::JoinHandle;

use atom_net::{TcpOptions, TcpTransport};
use atom_runtime::{Engine, EngineOptions, EngineRole, RoundJob, RoundReport};

struct MemberCall {
    jobs: Vec<RoundJob>,
    round_offset: usize,
}

/// A coordinator/member engine pair over loopback TCP.
pub struct TcpPair {
    groups: usize,
    coordinator: TcpTransport,
    calls: Sender<Option<MemberCall>>,
    done: Receiver<Result<(), String>>,
    member: Option<JoinHandle<()>>,
    next_offset: usize,
}

/// Groups alternate between the two processes; the orchestrator node (the
/// transport's last) lives with the coordinator, process 0.
fn owner_map(groups: usize) -> Vec<usize> {
    let mut owner: Vec<usize> = (0..groups).map(|gid| gid % 2).collect();
    owner.push(0);
    owner
}

fn hosted(groups: usize, process: usize) -> Vec<usize> {
    (0..groups).filter(|gid| gid % 2 == process).collect()
}

/// One worker per process, and the call's own wire round-id range.
fn options(round_offset: usize) -> EngineOptions {
    let mut options = EngineOptions::with_workers(1);
    options.round_offset = round_offset;
    options
}

impl TcpPair {
    /// Binds both listeners on free loopback ports, exchanges the resolved
    /// addresses, starts the member thread and connects both directions.
    pub fn start(groups: usize) -> Result<Self, String> {
        let bind = |me: usize| {
            TcpTransport::bind_any(2, owner_map(groups), me, TcpOptions::default())
                .map_err(|e| format!("bind tcp process {me}: {e}"))
        };
        let coordinator = bind(0)?;
        let member_transport = bind(1)?;
        coordinator.set_peer_addr(1, member_transport.local_addr().to_string());
        member_transport.set_peer_addr(0, coordinator.local_addr().to_string());

        let (calls, inbox) = channel::<Option<MemberCall>>();
        let (report, done) = channel::<Result<(), String>>();
        let member = std::thread::Builder::new()
            .name("bench-member".into())
            .spawn(move || {
                let connected = member_transport
                    .connect_peers()
                    .map_err(|e| format!("member connect: {e}"));
                if report.send(connected).is_err() {
                    return;
                }
                let role = EngineRole::member(hosted(groups, 1));
                while let Ok(Some(call)) = inbox.recv() {
                    let outcome = Engine::new(options(call.round_offset))
                        .run_rounds_on(call.jobs, &member_transport, &role)
                        .into_iter()
                        .collect::<Result<Vec<_>, _>>()
                        .map(|_| ())
                        .map_err(|e| format!("member round: {e}"));
                    if report.send(outcome).is_err() {
                        break;
                    }
                }
                member_transport.shutdown();
            })
            .map_err(|e| format!("spawn member thread: {e}"))?;
        coordinator
            .connect_peers()
            .map_err(|e| format!("coordinator connect: {e}"))?;
        let pair = Self {
            groups,
            coordinator,
            calls,
            done,
            member: Some(member),
            next_offset: 0,
        };
        pair.done
            .recv()
            .map_err(|_| "member thread died while connecting".to_string())??;
        Ok(pair)
    }

    /// One `run_rounds_on` call on both processes (one worker each).
    /// `coordinator_jobs` carry the submissions; `member_jobs` are the
    /// same rounds with none. Returns the coordinator's reports.
    pub fn run(
        &mut self,
        coordinator_jobs: Vec<RoundJob>,
        member_jobs: Vec<RoundJob>,
    ) -> Result<Vec<RoundReport>, String> {
        let round_offset = self.next_offset;
        self.next_offset += coordinator_jobs.len();
        self.calls
            .send(Some(MemberCall {
                jobs: member_jobs,
                round_offset,
            }))
            .map_err(|_| "member thread is gone".to_string())?;
        let role = EngineRole::coordinator(hosted(self.groups, 0));
        let reports = Engine::new(options(round_offset))
            .run_rounds_on(coordinator_jobs, &self.coordinator, &role)
            .into_iter()
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("coordinator round: {e}"));
        // Rendezvous: the member must be out of its engine run before the
        // next call's frames may be sent.
        let member = self
            .done
            .recv()
            .map_err(|_| "member thread died mid-call".to_string())?;
        let reports = reports?;
        member?;
        Ok(reports)
    }
}

impl Drop for TcpPair {
    fn drop(&mut self) {
        let _ = self.calls.send(None);
        if let Some(member) = self.member.take() {
            let _ = member.join();
        }
        self.coordinator.shutdown();
    }
}
