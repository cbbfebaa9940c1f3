//! The fleet process's command line and run: the [`NetSpec`] every process
//! derives its rounds from (a multi-process run shares no memory), its
//! flags ([`NodeArgs`]), `run_node` and [`node_main`]; also the canonical
//! bytes of round outputs ([`serialize_reports`]) and the loopback
//! addresses of a fleet about to spawn ([`free_addrs`]).

use std::io::Write;
use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use atom_core::config::{AtomConfig, Defense};
use atom_net::NodeId;

use crate::RoundReport;

/// Everything a process needs to derive a multi-process workload
/// deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetSpec {
    /// Anytrust groups in the deployment.
    pub groups: usize,
    /// Rounds. A fleet runs them in batches of `NodeArgs::batch`, by
    /// default one batch, so every round is in flight at once.
    pub rounds: usize,
    /// Submissions per round.
    pub messages: usize,
    /// Mixing iterations.
    pub iterations: usize,
    /// Deterministic seed for setup, submissions and mixing.
    pub seed: u64,
    /// Engine stall detector (`EngineOptions::stall_timeout`): how long a
    /// process waits with no task progress before failing its unresolved
    /// rounds. Every process of a deployment agrees on it, so it lives in
    /// the spec; `docs/operations.md` tabulates the clocks derived from it.
    pub stall_timeout: Duration,
    /// Enables `atom-obs` recording in every process: members ship their
    /// telemetry to the coordinator, which awaits their last frames, so it
    /// is on fleet-wide or not at all. Round outputs are byte-identical
    /// either way.
    pub trace: bool,
    /// Coordinator round clock (`EngineOptions::round_deadline`; zero =
    /// disabled), the slow-loris countermeasure: armed on the coordinator
    /// only, which owns the diagnosis; a member that also deadlined would
    /// race its `abort` against the verdict and turn `Slow` into `Blamed`.
    pub round_deadline: Duration,
    /// Slow-loris drip (zero = none), a chaos-drill knob: member process 1
    /// sends through [`slow_groups`](crate::fault::slow_groups), so each
    /// mixing step of its hosted groups costs this much wall time.
    pub loris: Duration,
    /// Honest members assumed per group (`h`): the DKG threshold becomes
    /// `k − (h − 1)`, so `h − 1` member losses per group heal by Lagrange
    /// reweighting alone and only deeper losses need the buddy escrow. The
    /// default (1) keeps the historical all-shares threshold; the recovery
    /// harness runs with 2 so evictions exercise both healing paths.
    pub honest: usize,
}

impl Default for NetSpec {
    fn default() -> Self {
        Self {
            groups: 4,
            rounds: 2,
            messages: 16,
            iterations: 2,
            seed: 0xA70,
            stall_timeout: Duration::from_secs(120),
            round_deadline: Duration::ZERO,
            loris: Duration::ZERO,
            trace: false,
            honest: 1,
        }
    }
}

/// The deployment configuration of round `round` under `spec`.
pub(crate) fn round_config(spec: &NetSpec, round: usize) -> AtomConfig {
    let mut config = AtomConfig::test_default();
    config.defense = Defense::Trap;
    config.num_groups = spec.groups;
    config.num_servers = (spec.groups * 3).max(config.group_size);
    config.required_honest = spec.honest;
    config.iterations = spec.iterations;
    config.message_len = 32;
    config.round = round as u64;
    config.beacon_seed = spec.seed ^ round as u64;
    config
}

/// The group ids process `index` hosts under an owner map
/// (`recovery::owner_map_excluding`).
pub(crate) fn hosted_groups(owner: &[NodeId], index: usize) -> Vec<usize> {
    let groups = owner.len() - 1; // last node is the orchestrator
    (0..groups).filter(|&gid| owner[gid] == index).collect()
}

/// Canonical bytes of the deterministic fields of round outputs
/// (`plaintexts`, `per_group`, `routed_ciphertexts`). Two runs of the same
/// spec — whatever the transport, worker count or process layout — must
/// serialize identically; timings and traffic are excluded because wall
/// clocks are not reproducible.
pub fn serialize_reports(reports: &[RoundReport]) -> Vec<u8> {
    let mut out = Vec::new();
    let put_bytes = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    };
    out.extend_from_slice(&(reports.len() as u32).to_le_bytes());
    for report in reports {
        let output = &report.output;
        out.extend_from_slice(&(output.routed_ciphertexts as u32).to_le_bytes());
        out.extend_from_slice(&(output.per_group.len() as u32).to_le_bytes());
        for group in &output.per_group {
            out.extend_from_slice(&(group.len() as u32).to_le_bytes());
            for payload in group {
                put_bytes(&mut out, payload);
            }
        }
        out.extend_from_slice(&(output.plaintexts.len() as u32).to_le_bytes());
        for payload in &output.plaintexts {
            put_bytes(&mut out, payload);
        }
    }
    out
}

/// The kernel's ephemeral port range (`ip_local_port_range`), from which
/// every port-0 bind and outgoing connect draws; Linux's default when it
/// cannot be read.
fn ephemeral_ports() -> RangeInclusive<u16> {
    let range = std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range");
    let bounds: Vec<u16> = (range.unwrap_or_default().split_whitespace())
        .filter_map(|bound| bound.parse().ok())
        .collect();
    match bounds[..] {
        [low, high] => low..=high,
        _ => 32768..=60999,
    }
}

/// Reserves `count` distinct loopback addresses for processes about to
/// spawn, which must know them before they start (the race-free
/// `TcpTransport::bind_any` + `set_peer_addr` dance only works within one
/// process). The ports lie below the ephemeral range, so no port-0 bind
/// or outgoing connect of another test can take one before its process
/// binds it. They come from a cursor this process shares, offset by its id
/// so parallel test binaries start apart, and a port that will not bind
/// now is skipped.
pub fn free_addrs(count: usize) -> Vec<String> {
    static CURSOR: AtomicUsize = AtomicUsize::new(0);
    let ports = usize::from(*ephemeral_ports().start()).saturating_sub(1024);
    let start = std::process::id() as usize * 7919;
    let addrs: Vec<String> = (0..ports)
        .map(|_| start + CURSOR.fetch_add(1, Ordering::Relaxed))
        .map(|cursor| format!("127.0.0.1:{}", 1024 + cursor % ports))
        .filter(|addr| std::net::TcpListener::bind(addr).is_ok())
        .take(count)
        .collect();
    assert_eq!(addrs.len(), count, "too few free ports bind");
    addrs
}

/// The command line of one fleet process: `atom-node`'s flags, read by
/// `NodeArgs::parse`, written by [`NodeArgs::argv`] and run by
/// `run_node`. Every harness that spawns fleet processes goes through
/// this one codec, so the flag-agreement rules of `docs/operations.md`
/// live in one place.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeArgs {
    /// The workload (`--groups`, `--rounds`, `--messages`, `--iterations`,
    /// `--seed`, `--stall-timeout-ms`, `--honest`); every
    /// process of a deployment must get the same one.
    pub spec: NetSpec,
    /// One listen address per process, in process-index order (`--addrs`).
    pub addrs: Vec<String>,
    /// This process's index in `addrs`; 0 is the coordinator (`--index`).
    pub index: usize,
    /// Engine worker threads (`--workers`); free to differ per process.
    pub workers: usize,
    /// Members only (`--rejoin`): announce as a restarted process instead
    /// of expecting to be in the fleet from round 0.
    pub rejoin: bool,
    /// Coordinator: rounds per batch (`--batch`), the readmission boundary
    /// spacing and the most rounds one attempt runs; `None` runs every
    /// round in one batch (`NodeArgs::rounds_per_batch`). A member reads
    /// the flag but ignores it: it runs the rounds and wire-round offset
    /// each plan names.
    pub batch: Option<usize>,
    /// Coordinator: write the canonical round outputs here (`--out`).
    pub out: Option<String>,
    /// Coordinator: write the merged fleet Chrome trace here (`--trace`).
    /// Every process passes it to turn recording on; members ignore the
    /// path. Mirrors `spec.trace`.
    pub trace: Option<String>,
    /// Coordinator: write the merged counter snapshots here
    /// (`--metrics-out`, needs `--trace`).
    pub metrics_out: Option<String>,
}

impl Default for NodeArgs {
    fn default() -> Self {
        Self {
            spec: NetSpec::default(),
            addrs: Vec::new(),
            index: 0,
            workers: 2,
            rejoin: false,
            batch: None,
            out: None,
            trace: None,
            metrics_out: None,
        }
    }
}

/// What [`node_main`] prints after a flag error.
const NODE_USAGE: &str = "usage: atom-node --index I --addrs HOST:PORT,HOST:PORT[,..] \
     [--groups G] [--rounds R] [--messages M] [--iterations N] [--seed S] \
     [--stall-timeout-ms T] [--honest H] [--workers W] [--rejoin] [--batch B] \
     [--out PATH] [--trace PATH [--metrics-out PATH]]";

/// The value after `flag`, or the error that it is missing.
pub fn flag_value(flag: &str, value: Option<String>) -> Result<String, String> {
    value.ok_or_else(|| format!("{flag} needs an argument"))
}

/// The number after `flag`, or the error that it is missing or malformed.
pub fn flag_number<T: std::str::FromStr>(flag: &str, value: Option<String>) -> Result<T, String> {
    let value = flag_value(flag, value)?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs a number, got {value:?}"))
}

impl NodeArgs {
    /// Reads a fleet process's flags (without the program name). Every
    /// check runs here, before the process binds anything, so a bad
    /// command line is an error on every process rather than a panic on
    /// one of them mid-run.
    pub(crate) fn parse(argv: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut args = Self::default();
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let (spec, flag) = (&mut args.spec, flag.as_str());
            match flag {
                "--index" => args.index = flag_number(flag, argv.next())?,
                "--addrs" => {
                    args.addrs = (flag_value(flag, argv.next())?.split(','))
                        .map(str::trim)
                        .filter(|addr| !addr.is_empty())
                        .map(String::from)
                        .collect()
                }
                "--groups" => spec.groups = flag_number(flag, argv.next())?,
                "--rounds" => spec.rounds = flag_number(flag, argv.next())?,
                "--messages" => spec.messages = flag_number(flag, argv.next())?,
                "--iterations" => spec.iterations = flag_number(flag, argv.next())?,
                "--seed" => spec.seed = flag_number(flag, argv.next())?,
                "--stall-timeout-ms" => {
                    spec.stall_timeout = Duration::from_millis(flag_number(flag, argv.next())?)
                }
                "--honest" => spec.honest = flag_number(flag, argv.next())?,
                "--workers" => args.workers = flag_number(flag, argv.next())?,
                "--rejoin" => args.rejoin = true,
                "--batch" => args.batch = Some(flag_number(flag, argv.next())?),
                "--out" => args.out = Some(flag_value(flag, argv.next())?),
                "--trace" => args.trace = Some(flag_value(flag, argv.next())?),
                "--metrics-out" => args.metrics_out = Some(flag_value(flag, argv.next())?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        args.spec.trace = args.trace.is_some();
        if args.addrs.len() < 2 {
            return Err(format!(
                "--addrs needs at least coordinator + one member (got {})",
                args.addrs.len()
            ));
        }
        if args.index >= args.addrs.len() {
            return Err(format!(
                "--index {} out of range for {} addresses",
                args.index,
                args.addrs.len()
            ));
        }
        if args.metrics_out.is_some() && args.trace.is_none() {
            return Err("--metrics-out needs --trace (recording is off otherwise)".into());
        }
        if let Err(error) = round_config(&args.spec, 0).validate() {
            return Err(format!("the workload flags name no deployment: {error:?}"));
        }
        if args.spec.rounds == 0 {
            return Err("--rounds must be at least one round".into());
        }
        if args.batch == Some(0) {
            return Err("--batch must be at least one round".into());
        }
        if args.rejoin && args.index == 0 {
            return Err("--rejoin is for a restarted member; the coordinator never rejoins".into());
        }
        Ok(args)
    }

    /// Rounds per batch: `--batch`, or all of `--rounds` in one batch, which
    /// the coordinator's epoch fence multiplies (`round_offset = epoch ×
    /// batch`).
    pub(crate) fn rounds_per_batch(&self) -> usize {
        self.batch.unwrap_or(self.spec.rounds)
    }

    /// The flags `NodeArgs::parse` reads back as `self`. Refuses what no
    /// flag can carry rather than dropping it: the in-process drill knobs
    /// (`NetSpec::loris`, `NetSpec::round_deadline`), a stall timeout finer
    /// than a millisecond, and a `spec.trace` without a `--trace` path.
    pub fn argv(&self) -> Result<Vec<String>, String> {
        let spec = &self.spec;
        let stall_ms = spec.stall_timeout.as_millis() as u64;
        if !spec.loris.is_zero() || !spec.round_deadline.is_zero() {
            return Err(
                "loris and round_deadline are in-process drill knobs; no flag carries them".into(),
            );
        }
        if Duration::from_millis(stall_ms) != spec.stall_timeout {
            return Err("--stall-timeout-ms carries whole milliseconds only".into());
        }
        if spec.trace != self.trace.is_some() {
            return Err("spec.trace is set exactly when --trace has a path".into());
        }
        let valued = [
            ("--index", Some(self.index.to_string())),
            ("--addrs", Some(self.addrs.join(","))),
            ("--groups", Some(spec.groups.to_string())),
            ("--rounds", Some(spec.rounds.to_string())),
            ("--messages", Some(spec.messages.to_string())),
            ("--iterations", Some(spec.iterations.to_string())),
            ("--seed", Some(spec.seed.to_string())),
            ("--stall-timeout-ms", Some(stall_ms.to_string())),
            ("--honest", Some(spec.honest.to_string())),
            ("--workers", Some(self.workers.to_string())),
            ("--batch", self.batch.map(|batch| batch.to_string())),
            ("--out", self.out.clone()),
            ("--trace", self.trace.clone()),
            ("--metrics-out", self.metrics_out.clone()),
        ];
        let valued = (valued.into_iter()).filter_map(|(flag, value)| Some([flag.into(), value?]));
        let rejoin = self.rejoin.then(|| "--rejoin".into());
        Ok(valued.flatten().chain(rejoin).collect())
    }
}

/// Prints [`READY_LINE`]: this process has joined the fleet.
fn announce_ready() {
    println!("{READY_LINE}");
    std::io::stdout().flush().expect("flush readiness signal");
}

/// One fleet process start to finish: join the mesh and drive its recovery
/// machine ([`super`]) — the handshake loop on a member, the
/// coordinator's loop on process 0, which writes the `--trace` and
/// `--metrics-out` files from the fleet's telemetry, a failed run's too,
/// then checks that no message was lost and writes `--out` from its round
/// reports. Member-side round failures during churn are not fatal: the
/// coordinator owns the diagnosis. A lost message or an unrecoverable
/// fleet is an `Err`.
pub(crate) fn run_node(args: &NodeArgs) -> Result<(), String> {
    let (spec, index, addrs) = (&args.spec, args.index, args.addrs.clone());
    let (batch, workers) = (args.rounds_per_batch(), args.workers);
    if index != 0 {
        super::run_healing_member(spec, addrs, index, workers, args.rejoin, announce_ready)?;
        println!("atom-node member {index}: left the deployment cleanly");
        return Ok(());
    }
    let outcome =
        super::run_recovery_coordinator(spec, batch, addrs, workers, None, announce_ready);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err((error, telemetry)) => {
            write_telemetry(args, &telemetry)?;
            return Err(format!("recovery failed: {error}"));
        }
    };
    write_telemetry(args, &outcome.telemetry)?;
    let reports = outcome.reports;
    let delivered: usize = reports.iter().map(|r| r.output.plaintexts.len()).sum();
    if delivered != spec.rounds * spec.messages {
        return Err(format!(
            "{delivered} of {} messages delivered; no message may be lost",
            spec.rounds * spec.messages
        ));
    }
    println!(
        "atom-node coordinator: {} processes, {} groups, {} rounds x {} messages \
         -> {delivered} delivered, engine {:.2?} ({:.1} msgs/sec), {} epoch(s), \
         {} eviction(s), {} rejoin(s), {} control frame(s) dropped",
        args.addrs.len(),
        spec.groups,
        spec.rounds,
        spec.messages,
        outcome.engine,
        delivered as f64 / outcome.engine.as_secs_f64(),
        outcome.epochs,
        outcome.evictions.len(),
        outcome.rejoins.len(),
        outcome.control_dropped,
    );
    if let Some(latency) = outcome.healed_latency {
        println!("atom-node coordinator: detection -> first healed round in {latency:.2?}");
    }
    match &args.out {
        Some(path) => write_file(path, &serialize_reports(&reports)),
        None => Ok(()),
    }
}

/// The coordinator's `--trace` and `--metrics-out` files, and the trace's
/// text summary on stdout.
fn write_telemetry(args: &NodeArgs, telemetry: &[atom_obs::Snapshot]) -> Result<(), String> {
    if let Some(path) = &args.trace {
        write_file(path, atom_obs::chrome_trace_json(telemetry).as_bytes())?;
        print!("{}", atom_obs::text_summary(telemetry));
    }
    match &args.metrics_out {
        Some(path) => write_file(path, atom_obs::metrics_json(telemetry).as_bytes()),
        None => Ok(()),
    }
}

/// Writes `bytes` to `path` and says so on stdout.
fn write_file(path: &str, bytes: &[u8]) -> Result<(), String> {
    std::fs::write(path, bytes).map_err(|error| format!("write {path}: {error}"))?;
    println!("wrote {path}");
    Ok(())
}

/// `atom-node`'s program, also what a harness bin runs when re-executed as
/// a fleet process: parse `argv` (the flags, without the program name),
/// `run_node` it, and return the exit status — 2 for a flag error, 1 for
/// a failed run.
pub fn node_main(argv: impl IntoIterator<Item = String>) -> i32 {
    let args = match NodeArgs::parse(argv) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("atom-node: {error}\n{NODE_USAGE}");
            return 2;
        }
    };
    match run_node(&args) {
        Ok(()) => 0,
        Err(error) => {
            eprintln!("atom-node process {}: {error}", args.index);
            1
        }
    }
}

/// The readiness line every fleet process prints on stdout once it has
/// joined the fleet (bound its address and connected to every peer).
/// A supervisor waits for it, so a child that dies during setup is caught
/// immediately.
pub const READY_LINE: &str = "atom-process-ready";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::{batch_jobs, fleet_jobs};
    use crate::recovery::owner_map_excluding;
    use crate::{Engine, RoundJob, RoundSubmissions};
    use atom_core::directory::derive_setup;

    /// Reserved ports come from below the ephemeral range, so nothing else
    /// of this host's is handed them on a port-0 bind or a connect.
    #[test]
    fn free_addrs_are_distinct_bindable_and_below_the_ephemeral_range() {
        let (addrs, ephemeral) = (free_addrs(64), ephemeral_ports());
        let port = |addr: &String| addr.parse::<std::net::SocketAddr>().unwrap().port();
        let ports: std::collections::BTreeSet<u16> = addrs.iter().map(port).collect();
        assert_eq!(
            ports.len(),
            addrs.len(),
            "a port was reserved twice: {addrs:?}"
        );
        for addr in &addrs {
            assert!(
                !ephemeral.contains(&port(addr)),
                "{addr} lies in {ephemeral:?}"
            );
            std::net::TcpListener::bind(addr).unwrap_or_else(|error| panic!("{addr}: {error}"));
        }
    }

    #[test]
    fn owner_map_round_robins_groups_and_pins_the_orchestrator() {
        let owner_map = |groups, processes| owner_map_excluding(groups, processes, &[]);
        assert_eq!(owner_map(4, 2), vec![0, 1, 0, 1, 0]);
        assert_eq!(owner_map(3, 1), vec![0, 0, 0, 0]);
        assert_eq!(hosted_groups(&owner_map(4, 2), 0), vec![0, 2]);
        assert_eq!(hosted_groups(&owner_map(4, 2), 1), vec![1, 3]);
        assert_eq!(hosted_groups(&owner_map(4, 3), 2), vec![2]);
    }

    /// Equal submissions encrypt to equal group keys, so this also pins
    /// the directory the submissions were made under.
    #[test]
    fn job_derivation_is_deterministic() {
        let spec = NetSpec::default();
        let a = fleet_jobs(&spec);
        let b = fleet_jobs(&spec);
        assert_eq!(a.len(), b.len());
        for (ja, jb) in a.iter().zip(&b) {
            assert_eq!((ja.seed, ja.config()), (jb.seed, jb.config()));
            let (RoundSubmissions::Trap(sa), RoundSubmissions::Trap(sb)) =
                (&ja.submissions, &jb.submissions)
            else {
                panic!("fleet rounds are trap rounds");
            };
            assert_eq!(sa.len(), spec.messages);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn sharded_jobs_match_the_prebuilt_jobs_byte_for_byte() {
        let spec = NetSpec {
            groups: 2,
            rounds: 2,
            messages: 4,
            ..NetSpec::default()
        };
        let jobs = fleet_jobs(&spec);
        assert!(jobs.iter().all(|job| job.full_setup().is_none()));
        let prebuilt = (jobs.iter())
            .map(|job| {
                let setup = derive_setup(job.config()).unwrap();
                RoundJob::new(setup, job.submissions.clone(), job.seed)
            })
            .collect();
        let reference: Vec<_> = Engine::with_workers(2)
            .run_rounds(prebuilt)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        let sharded: Vec<_> = Engine::with_workers(2)
            .run_rounds(jobs)
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            serialize_reports(&reference),
            serialize_reports(&sharded),
            "sharded derivation must not change a single output byte"
        );
        assert!(sharded
            .iter()
            .all(|r| r.setup_latency > Duration::from_nanos(0)));
    }

    #[test]
    fn memberless_sharded_jobs_skip_submission_generation() {
        let spec = NetSpec::default();
        let none = vec![Vec::new(); spec.rounds];
        for job in batch_jobs(&spec, 0..spec.rounds, &none, &none, false) {
            match &job.submissions {
                RoundSubmissions::Trap(subs) => assert!(subs.is_empty()),
                other => panic!("expected trap submissions, got {other:?}"),
            }
            assert!(job.full_setup().is_none(), "no prebuilt directory");
        }
    }

    #[test]
    fn serialization_covers_every_deterministic_field() {
        let spec = NetSpec {
            groups: 2,
            rounds: 1,
            messages: 4,
            ..NetSpec::default()
        };
        let reports: Vec<_> = Engine::with_workers(2)
            .run_rounds(fleet_jobs(&spec))
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        let bytes = serialize_reports(&reports);
        let again = serialize_reports(&reports);
        assert_eq!(bytes, again);
        assert!(bytes.len() > 4, "serialization must not be empty");
    }

    fn parse(line: &str) -> Result<NodeArgs, String> {
        NodeArgs::parse(line.split_whitespace().map(String::from))
    }

    fn addrs(line: &str) -> Vec<String> {
        line.split(',').map(String::from).collect()
    }

    #[test]
    fn node_args_round_trip_through_their_command_line() {
        let plain = NodeArgs {
            spec: NetSpec {
                groups: 8,
                rounds: 3,
                messages: 20,
                iterations: 3,
                seed: 0xBE_AC0,
                stall_timeout: Duration::from_millis(1500),
                ..NetSpec::default()
            },
            addrs: addrs("127.0.0.1:1,127.0.0.1:2,127.0.0.1:3"),
            index: 2,
            workers: 4,
            ..NodeArgs::default()
        };
        let coordinator = NodeArgs {
            out: Some("/tmp/out.bin".into()),
            index: 0,
            ..plain.clone()
        };
        let batched = NodeArgs {
            spec: NetSpec {
                honest: 2,
                ..plain.spec.clone()
            },
            batch: Some(4),
            ..plain.clone()
        };
        let rejoin = NodeArgs {
            rejoin: true,
            ..batched.clone()
        };
        let traced = NodeArgs {
            spec: NetSpec {
                trace: true,
                ..plain.spec.clone()
            },
            index: 0,
            trace: Some("/tmp/trace.json".into()),
            metrics_out: Some("/tmp/metrics.json".into()),
            ..plain.clone()
        };
        // No `--batch`: the coordinator plans one batch of every round.
        assert_eq!((plain.batch, plain.rounds_per_batch()), (None, 3));
        assert_eq!(batched.rounds_per_batch(), 4);
        for args in [plain, coordinator, batched, rejoin, traced] {
            let argv = args.argv().expect("every flag carries");
            assert_eq!(NodeArgs::parse(argv.clone()), Ok(args), "{argv:?}");
        }
    }

    /// The literal `atom-node` command lines of `ci.yml`, the operator
    /// guide and `atom-node`'s module docs, each with the deployment it
    /// has always meant.
    #[test]
    fn documented_command_lines_parse_to_the_deployments_they_mean() {
        let cases = [
            (
                "--index 1 --addrs 127.0.0.1:7401,127.0.0.1:7402 --groups 4 --rounds 2 --messages 8",
                1,
                NetSpec {
                    messages: 8,
                    ..NetSpec::default()
                },
            ),
            (
                "--index 1 --addrs 127.0.0.1:7421,127.0.0.1:7422 --groups 4 --rounds 2 \
                 --messages 12 --trace /tmp/member_trace_ignored.json",
                1,
                NetSpec {
                    messages: 12,
                    trace: true,
                    ..NetSpec::default()
                },
            ),
            (
                "--index 2 --addrs 127.0.0.1:7401,127.0.0.1:7402,127.0.0.1:7403 --groups 6 \
                 --rounds 2",
                2,
                NetSpec {
                    groups: 6,
                    ..NetSpec::default()
                },
            ),
            (
                "--index 2 --addrs HOST1:7401,HOST2:7401,HOST3:7401 --groups 3 --rounds 100 \
                 --honest 2 --batch 4 --stall-timeout-ms 2000",
                2,
                NetSpec {
                    groups: 3,
                    rounds: 100,
                    honest: 2,
                    stall_timeout: Duration::from_secs(2),
                    ..NetSpec::default()
                },
            ),
            (
                "--index 0 --batch 1 --addrs 127.0.0.1:7401,127.0.0.1:7402 --groups 4 --rounds 2 \
                 --messages 8",
                0,
                NetSpec {
                    messages: 8,
                    ..NetSpec::default()
                },
            ),
        ];
        for (line, index, spec) in &cases {
            let args = parse(line).expect(line);
            assert_eq!(
                (args.index, args.workers, &args.spec),
                (*index, 2, spec),
                "{line}"
            );
        }
        let heal = parse(cases[3].0).unwrap();
        assert!(!heal.rejoin && heal.batch == Some(4));
        // CI's smoke: the coordinator plans one-round batches, and the
        // member, which has no `--batch`, runs them.
        assert_eq!(parse(cases[4].0).unwrap().rounds_per_batch(), 1);
        assert_eq!(parse(cases[0].0).unwrap().batch, None);
        let coordinator = parse(
            "--index 0 --addrs 127.0.0.1:7421,127.0.0.1:7422 --groups 4 --rounds 2 --messages 12 \
             --out /tmp/traced.bin --trace /tmp/ci_trace.json --metrics-out /tmp/ci_metrics.json",
        )
        .unwrap();
        assert_eq!(coordinator.out.as_deref(), Some("/tmp/traced.bin"));
        assert_eq!(coordinator.trace.as_deref(), Some("/tmp/ci_trace.json"));
        assert_eq!(
            coordinator.metrics_out.as_deref(),
            Some("/tmp/ci_metrics.json")
        );
        assert!(coordinator.spec.trace);
    }

    #[test]
    fn bad_command_lines_are_errors() {
        let base = "--index 0 --addrs 127.0.0.1:1,127.0.0.1:2";
        for line in [
            "--index 0 --addrs 127.0.0.1:1",
            "--index 2 --addrs 127.0.0.1:1,127.0.0.1:2",
            &format!("{base} --metrics-out /tmp/m.json"),
            &format!("{base} --rounds two"),
            &format!("{base} --rounds"),
            &format!("{base} --tcp-member"),
            &format!("{base} --heal"),
            &format!("{base} --honest 0"),
            &format!("{base} --groups 0"),
            &format!("{base} --batch 0"),
            &format!("{base} --rounds 0"),
            &format!("{base} --sharded"),
            &format!("{base} --rejoin"),
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
        assert!(parse(base).is_ok());
    }

    #[test]
    fn the_writer_refuses_what_no_flag_carries() {
        let args = parse("--index 1 --addrs 127.0.0.1:1,127.0.0.1:2").unwrap();
        let with = |edit: fn(&mut NodeArgs)| {
            let mut args = args.clone();
            edit(&mut args);
            args.argv()
        };
        assert!(with(|a| a.spec.loris = Duration::from_millis(5)).is_err());
        assert!(with(|a| a.spec.round_deadline = Duration::from_secs(1)).is_err());
        assert!(with(|a| a.spec.stall_timeout = Duration::from_micros(1500)).is_err());
        assert!(with(|a| a.spec.trace = true).is_err());
        assert!(with(|_| ()).is_ok());
    }
}
