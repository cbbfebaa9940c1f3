//! The one supervisor of fleet child processes, [`ProcessFleet`], and the
//! `node` mode in which a harness bin runs as one fleet process
//! (`atom_runtime::fleet`, the process `atom-node` also runs). The
//! `recovery` bin spawns its members this way, and the equivalence tests
//! spawn every process of their fleets so.

use std::ffi::OsString;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use atom_runtime::fleet::{node_main, NodeArgs, READY_LINE};

/// The leading argument that makes a harness binary run as one fleet
/// process ([`node_main`]) instead of as itself. `recovery` re-executes
/// itself this way ([`this_exe_as_node`]), and the equivalence tests spawn
/// `recovery` so, rather than `atom-node`, which `cargo run --bin` would
/// not build.
pub const NODE_MODE: &str = "node";

/// Runs this process as a fleet process if it was launched as one
/// (`<exe> node <flags>`) and returns its exit status; `None` for any
/// other invocation.
pub fn node_mode() -> Option<i32> {
    let mut argv = std::env::args().skip(1);
    (argv.next().as_deref() == Some(NODE_MODE)).then(|| node_main(argv))
}

/// The program that runs this executable in `NODE_MODE`, for
/// [`ProcessFleet::spawn`].
pub fn this_exe_as_node() -> Vec<OsString> {
    let exe = std::env::current_exe().expect("own binary path");
    vec![exe.into(), NODE_MODE.into()]
}

enum FleetEvent {
    /// The member printed [`READY_LINE`]. Carries the member's spawn
    /// generation so a restarted member's readiness is never confused with
    /// its predecessor's.
    Ready(usize, u64),
    /// The member's stdout hit EOF — it exited (or crashed).
    Eof(usize, u64),
}

struct FleetMember {
    /// Process index in the deployment (its `--index`).
    index: usize,
    child: Child,
    ready: bool,
    /// Its stdout hit EOF: it exited, or is exiting.
    eof: bool,
    reaped: Option<ExitStatus>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Bumped by [`ProcessFleet::restart_member`]; events from a previous
    /// child of this slot carry an older generation and are ignored.
    generation: u64,
}

impl FleetMember {
    /// Unless it is reaped already, waits for the child to exit —
    /// SIGKILLing it first when `kill` — and logs how it died on stderr, so
    /// a churn post-mortem shows it beside the member's output.
    fn reap(&mut self, epoch: Instant, kill: bool) {
        if self.reaped.is_none() {
            if kill {
                let _ = self.child.kill();
            }
            if let Ok(status) = self.child.wait() {
                let (index, ms) = (self.index, epoch.elapsed().as_millis());
                eprintln!("[p{index} +{ms}ms] exited ({})", describe_exit(&status));
                self.reaped = Some(status);
            }
        }
    }
}

/// Human-readable exit description, including the fatal signal — a
/// SIGKILLed member reads `signal 9`, not an opaque failure.
fn describe_exit(status: &ExitStatus) -> String {
    use std::os::unix::process::ExitStatusExt;
    let core = status.core_dumped().then_some(" (core dumped)");
    match (status.code(), status.signal()) {
        (Some(code), _) => format!("exit code {code}"),
        (None, Some(signal)) => format!("signal {signal}{}", core.unwrap_or_default()),
        _ => format!("{status}"),
    }
}

fn spawn_reader(
    index: usize,
    generation: u64,
    stdout: std::process::ChildStdout,
    tx: mpsc::Sender<FleetEvent>,
    epoch: Instant,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        while let Some(Ok(line)) = lines.next() {
            if line == READY_LINE {
                let _ = tx.send(FleetEvent::Ready(index, generation));
            } else {
                let ms = epoch.elapsed().as_millis();
                eprintln!("[p{index} +{ms}ms] {line}");
            }
        }
        let _ = tx.send(FleetEvent::Eof(index, generation));
    })
}

/// The child processes of one N-process deployment: spawned together,
/// readiness-handshaked, monitored, and — on **every** exit path, including
/// a panicking or early-returning caller — killed and reaped (`Drop`), so
/// no fleet ever leaks an orphan child.
///
/// Each child is `program` run with one [`NodeArgs`]'s flags, so it knows
/// its real process index: usually the members, with the caller as the
/// coordinator, but a coordinator child (index 0) is supervised the same
/// way. A child prints `READY_LINE` on stdout once it has joined.
pub struct ProcessFleet {
    /// The executable plus the arguments before the node flags.
    program: Vec<OsString>,
    members: Vec<FleetMember>,
    events: mpsc::Receiver<FleetEvent>,
    events_tx: mpsc::Sender<FleetEvent>,
    epoch: Instant,
}

impl ProcessFleet {
    /// Spawns one child per node: `program` (an executable plus any
    /// leading arguments, e.g. [`this_exe_as_node`]) followed by
    /// [`NodeArgs::argv`]. A monitor thread per child watches its stdout
    /// for `READY_LINE` and forwards every other line to this process's
    /// stderr, prefixed with the child's index and the milliseconds since
    /// the fleet spawned: the whole fleet's output, attributed and in order.
    pub fn spawn(program: Vec<OsString>, nodes: Vec<NodeArgs>) -> Result<Self, String> {
        let (events_tx, events) = mpsc::channel();
        let mut fleet = Self {
            program,
            members: Vec::new(),
            events,
            events_tx,
            epoch: Instant::now(),
        };
        for node in &nodes {
            let member = fleet.launch(node, 0)?;
            fleet.members.push(member);
        }
        Ok(fleet)
    }

    /// Starts one child for `node` and its stdout monitor.
    fn launch(&self, node: &NodeArgs, generation: u64) -> Result<FleetMember, String> {
        let index = node.index;
        let (exe, leading) = self.program.split_first().ok_or("an empty fleet program")?;
        let mut child = Command::new(exe)
            .args(leading)
            .args(node.argv()?)
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|error| format!("spawn fleet process {index}: {error}"))?;
        let stdout = child.stdout.take().expect("fleet member stdout piped");
        let tx = self.events_tx.clone();
        Ok(FleetMember {
            index,
            child,
            ready: false,
            eof: false,
            reaped: None,
            reader: Some(spawn_reader(index, generation, stdout, tx, self.epoch)),
            generation,
        })
    }

    /// Blocks until every member signalled readiness. A member that exits
    /// first, or a deadline overrun, kills the whole fleet and reports
    /// which member failed — setup problems surface as errors, not hangs.
    pub fn await_ready(&mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while self.members.iter().any(|member| !member.ready) {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.events.recv_timeout(left) {
                Ok(event) => {
                    self.record(event);
                    let premature = self.members.iter().find(|m| m.eof && !m.ready);
                    if let Some(index) = premature.map(|member| member.index) {
                        self.kill_all();
                        return Err(format!(
                            "fleet member process {index} exited before signalling readiness"
                        ));
                    }
                }
                Err(_) => {
                    let waiting: Vec<usize> = (self.members.iter())
                        .filter(|member| !member.ready)
                        .map(|member| member.index)
                        .collect();
                    self.kill_all();
                    return Err(format!(
                        "fleet members {waiting:?} not ready after {timeout:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Marks the member an event is about ready, or at EOF. Events of an
    /// earlier generation are ignored.
    fn record(&mut self, event: FleetEvent) {
        let (FleetEvent::Ready(index, generation) | FleetEvent::Eof(index, generation)) = event;
        let member = (self.members.iter_mut())
            .find(|member| member.index == index && member.generation == generation);
        match (event, member) {
            (FleetEvent::Ready(..), Some(member)) => member.ready = true,
            (FleetEvent::Eof(..), Some(member)) => member.eof = true,
            (_, None) => {}
        }
    }

    /// Waits (bounded) for every child to exit, then checks the statuses.
    /// A child still running at the deadline is killed; any non-success
    /// status is reported. Either way every child is reaped before this
    /// returns.
    pub fn finish(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            let running: Vec<usize> = (self.members.iter())
                .filter(|member| !member.eof && member.reaped.is_none())
                .map(|member| member.index)
                .collect();
            if running.is_empty() {
                break;
            }
            let left = deadline.saturating_duration_since(Instant::now());
            let Ok(event) = self.events.recv_timeout(left) else {
                self.kill_all();
                return Err(format!(
                    "fleet processes {running:?} still running after {timeout:?}; killed"
                ));
            };
            self.record(event);
        }
        // Every child closed its stdout: reap each, then join the monitor
        // threads.
        let epoch = self.epoch;
        for member in &mut self.members {
            member.reap(epoch, false);
        }
        self.kill_all();
        let failures: Vec<String> = (self.members.iter())
            .filter_map(|member| Some((member.index, member.reaped?)))
            .filter(|(_, status)| !status.success())
            .map(|(index, status)| {
                let exit = describe_exit(&status);
                format!("fleet member process {index} exited with {exit}")
            })
            .collect();
        failures.is_empty().then_some(()).ok_or(failures.join("; "))
    }

    /// Kills one member by its deployment process index (fault injection:
    /// the chaos tests kill a member mid-round and assert the coordinator
    /// evicts it and the surviving fleet heals).
    pub fn kill_member(&mut self, index: usize) {
        let epoch = self.epoch;
        if let Some(member) = self.members.iter_mut().find(|m| m.index == index) {
            member.reap(epoch, true);
        }
    }

    /// The exit status of member `index`, if it has been reaped — on Unix
    /// the status carries the fatal signal, so a chaos test can assert the
    /// member died of SIGKILL rather than of its own accord.
    pub fn member_status(&self, index: usize) -> Option<ExitStatus> {
        self.members
            .iter()
            .find(|m| m.index == index)
            .and_then(|m| m.reaped)
    }

    /// Restarts a dead member slot as `node` (same process index — rejoin
    /// drills restart the killed process on its old address). Errors if
    /// the old child is still running. The new child gets a fresh
    /// generation, so stale events from its predecessor are ignored; wait
    /// for it with [`ProcessFleet::await_ready`].
    pub fn restart_member(&mut self, node: NodeArgs) -> Result<(), String> {
        let (index, epoch) = (node.index, self.epoch);
        let slot = (self.members.iter())
            .position(|m| m.index == index)
            .ok_or_else(|| format!("no fleet member with process index {index}"))?;
        let member = &mut self.members[slot];
        if member.reaped.is_none() && !matches!(member.child.try_wait(), Ok(Some(_))) {
            return Err(format!("fleet member {index} is still running"));
        }
        member.reap(epoch, false);
        if let Some(reader) = member.reader.take() {
            let _ = reader.join();
        }
        let generation = member.generation + 1;
        self.members[slot] = self.launch(&node, generation)?;
        eprintln!("[p{index} +{}ms] restarted", epoch.elapsed().as_millis());
        Ok(())
    }

    /// Kills and reaps every still-running member and joins the monitor
    /// threads. Idempotent; also what `Drop` runs, so no exit path —
    /// including a caller panic — orphans a child process.
    pub fn kill_all(&mut self) {
        for member in &mut self.members {
            member.reap(self.epoch, true);
            if let Some(reader) = member.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

impl Drop for ProcessFleet {
    fn drop(&mut self) {
        self.kill_all();
    }
}
