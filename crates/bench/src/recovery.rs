//! The recorded baseline for the recovery experiment (`BENCH_recovery.json`).
//!
//! The `recovery` bin runs a fleet through a kill → evict → heal → rejoin
//! cycle (`atom_runtime::fleet`) and emits this file; the `fig_recovery` bin
//! reads it back and renders the healing timeline. Emitter and parser live
//! together and round-trip under unit test, both through `atom_obs::json`.

use atom_obs::json::{self, Json};
use atom_obs::json_record;

/// What one recovered fleet run measured: the deployment shape, the churn
/// history, and the two paper-facing numbers — detection-to-healed-round
/// latency and the healed rounds' throughput.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryBaseline {
    /// OS processes in the deployment (coordinator included).
    pub processes: usize,
    /// Anytrust groups.
    pub groups: usize,
    /// Rounds in the workload.
    pub rounds: usize,
    /// Submissions per round.
    pub messages: usize,
    /// Mixing iterations per round.
    pub iterations: usize,
    /// Rounds per batch (re-formation / readmission boundary spacing).
    pub batch: usize,
    /// Assumed honest members per group (`h`); `h − 1` losses heal by
    /// Lagrange reweighting, deeper losses via buddy escrow.
    pub honest: usize,
    /// Processes evicted over the run.
    pub evictions: usize,
    /// Processes readmitted after a restart.
    pub rejoins: usize,
    /// Batch attempts (plan/ack/go handshakes) the run took.
    pub epochs: usize,
    /// The member's SIGKILL → the first conviction, milliseconds.
    pub kill_to_verdict_ms: f64,
    /// Fault detection → completion of the first round finished after
    /// detection, milliseconds: the recovery latency.
    pub detection_to_healed_ms: f64,
    /// Delivered messages per wall-clock second across the whole recovered
    /// run — churn, retries and healing included.
    pub msgs_per_sec: f64,
    /// Delivered messages per second counting only rounds completed after
    /// the first detection (the healed fleet's throughput).
    pub healed_msgs_per_sec: f64,
    /// Wall clock of the whole run, milliseconds.
    pub wall_ms: f64,
}

json_record! {
    RecoveryBaseline {
        processes, groups, rounds, messages, iterations, batch, honest, evictions, rejoins,
        epochs, kill_to_verdict_ms, detection_to_healed_ms, msgs_per_sec, healed_msgs_per_sec,
        wall_ms
    }
}

impl RecoveryBaseline {
    /// The canonical `BENCH_recovery.json` text (stable field order,
    /// readable diffs).
    pub fn to_json(&self) -> String {
        crate::recorded_json(self)
    }

    /// Parses what [`RecoveryBaseline::to_json`] wrote. Intolerant of
    /// missing fields.
    pub fn parse(json: &str) -> Result<Self, String> {
        Self::from_value(&json::parse(json)?)
    }

    /// Refuses a run that did not heal (no eviction, readmission, recovery
    /// latency or healed throughput) or took over 250 ms to convict the kill.
    pub fn check(&self) -> Result<(), String> {
        let broken = if self.evictions == 0 {
            "a member was evicted"
        } else if self.rejoins == 0 {
            "the restarted member was readmitted"
        } else if self.kill_to_verdict_ms > 250.0 {
            "the kill was convicted within 250 ms"
        } else if !(self.detection_to_healed_ms > 0.0 && self.healed_msgs_per_sec > 0.0) {
            "the healed rounds were timed"
        } else {
            return Ok(());
        };
        Err(format!("the run broke the claim that {broken}: {self:?}"))
    }
}

/// Renders the healing timeline from a recorded baseline: deployment
/// shape, churn history, and the latency/throughput of the healed fleet
/// next to the overall run.
pub fn print_fig_recovery(baseline: &RecoveryBaseline) {
    println!(
        "fig_recovery: eviction and rejoin under churn — {} processes, \
         {} groups, {} rounds x {} messages (batch {}, h = {})",
        baseline.processes,
        baseline.groups,
        baseline.rounds,
        baseline.messages,
        baseline.batch,
        baseline.honest
    );
    println!(
        "  churn: {} eviction(s), {} rejoin(s), {} epoch(s) to finish {} rounds",
        baseline.evictions, baseline.rejoins, baseline.epochs, baseline.rounds
    );
    println!(
        "  kill → verdict:                 {:>8.1} ms\n  detection → first healed round: {:>8.1} ms",
        baseline.kill_to_verdict_ms, baseline.detection_to_healed_ms
    );
    println!("  {:>22} {:>12}", "", "msgs/sec");
    let widest = baseline.msgs_per_sec.max(baseline.healed_msgs_per_sec);
    for (label, value) in [
        ("whole run (w/ churn)", baseline.msgs_per_sec),
        ("healed rounds only", baseline.healed_msgs_per_sec),
    ] {
        let bar = if widest > 0.0 {
            "#".repeat(((value / widest) * 40.0).round() as usize)
        } else {
            String::new()
        };
        println!("  {label:>22} {value:>12.1} {bar}");
    }
    println!(
        "  wall clock: {:.1} ms — a fleet that heals keeps delivering; the \
         pre-recovery harness would have failed every round after the kill",
        baseline.wall_ms
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RecoveryBaseline {
        RecoveryBaseline {
            processes: 3,
            groups: 3,
            rounds: 6,
            messages: 12,
            iterations: 2,
            batch: 2,
            honest: 2,
            evictions: 1,
            rejoins: 1,
            epochs: 5,
            kill_to_verdict_ms: 3.5,
            detection_to_healed_ms: 412.5,
            msgs_per_sec: 88.0,
            healed_msgs_per_sec: 120.5,
            wall_ms: 818.2,
        }
    }

    #[test]
    fn json_round_trips() {
        let baseline = sample();
        let parsed = RecoveryBaseline::parse(&baseline.to_json()).expect("parse own output");
        assert_eq!(parsed, baseline);
    }

    #[test]
    fn parse_rejects_truncated_files() {
        let json = sample().to_json();
        assert!(RecoveryBaseline::parse(&json[..json.len() / 3]).is_err());
        assert!(RecoveryBaseline::parse("{}").is_err());
    }

    #[test]
    fn check_refuses_a_run_that_did_not_heal() {
        assert_eq!(sample().check(), Ok(()));
        let committed = include_str!("../../../BENCH_recovery.json");
        assert_eq!(
            RecoveryBaseline::parse(committed).map(|b| b.check()),
            Ok(Ok(()))
        );
        let broken: [fn(&mut RecoveryBaseline); 5] = [
            |b| b.evictions = 0,
            |b| b.rejoins = 0,
            |b| b.kill_to_verdict_ms = 250.5,
            |b| b.detection_to_healed_ms = 0.0,
            |b| b.healed_msgs_per_sec = 0.0,
        ];
        for breaks in broken {
            let mut baseline = sample();
            breaks(&mut baseline);
            assert!(baseline.check().is_err(), "{baseline:?}");
        }
    }
}
