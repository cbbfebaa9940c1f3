//! The names, units and directions of every metric the benchmark emits —
//! the same table `BENCHMARK.json` carries (a unit test holds the two
//! together). Emitting a metric that is not listed here, or failing to
//! emit one that is, fails the run.

/// A measured value with its unit and how many samples stand behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            samples,
        }
    }
}

/// Which way a metric is better.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: `(name, unit, better, bound)`. Every workload emits
/// every one of them on an untraced run. `bound` is the share of the
/// parent's median by which the metric may worsen before a change counts
/// as a regression.
pub const END_TO_END: &[(&str, &str, Better, f64)] = &[
    ("msgs_per_s", "1/s", Higher, 0.20),
    ("cpu_ms_per_msg", "ms", Lower, 0.20),
    ("deliver_p50_ms", "ms", Lower, 0.25),
    ("deliver_p90_ms", "ms", Lower, 0.25),
    ("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics: `(name, unit, better)`. Every workload emits every
/// one of them on a traced run. They carry no bound.
pub const PER_LAYER: &[(&str, &str, Better)] = &[
    // crypto: primitives replayed on one of the workload's group batches.
    ("crypto.shuffle_us_per_ct", "us", Lower),
    ("crypto.reenc_us_per_ct", "us", Lower),
    ("crypto.shuffle_prove_us_per_ct", "us", Lower),
    ("crypto.shuffle_verify_us_per_ct", "us", Lower),
    ("crypto.reenc_prove_us_per_ct", "us", Lower),
    ("crypto.reenc_verify_us_per_ct", "us", Lower),
    ("crypto.enc_verify_us_per_proof", "us", Lower),
    ("crypto.cca2_open_us", "us", Lower),
    ("crypto.dkg_ms_per_group", "ms", Lower),
    ("crypto.table_build_us", "us", Lower),
    // crypto: exact counts from the program's counters, first traced batch.
    ("crypto.multiexp_terms_per_msg", "count", Lower),
    ("crypto.fixed_base_calls_per_msg", "count", Lower),
    ("crypto.table_cache_hit_ratio", "ratio", Higher),
    ("crypto.verify_fallback_ratio", "ratio", Lower),
    // core: single-threaded replay of one round.
    ("core.intake_us_per_msg", "us", Lower),
    ("core.group_step_us_per_ct", "us", Lower),
    ("core.step_overhead_share", "ratio", Lower),
    ("core.exit_us_per_msg", "us", Lower),
    ("core.derive_setup_ms", "ms", Lower),
    ("core.derive_group_ms", "ms", Lower),
    ("topology.form_group_us", "us", Lower),
    // wire: the replayed round's own frames.
    ("wire.mix_encode_us_per_ct", "us", Lower),
    ("wire.mix_decode_us_per_ct", "us", Lower),
    ("wire.mix_bytes_per_ct", "bytes", Lower),
    ("wire.submit_decode_us", "us", Lower),
    ("wire.submit_bytes", "bytes", Lower),
    ("wire.exit_roundtrip_us_per_msg", "us", Lower),
    // ingress: the socket edge on its own (paced and burst probes).
    ("ingress.offer_ns", "ns", Lower),
    ("ingress.drain_ms", "ms", Lower),
    ("ingress.connect_us_per_conn", "us", Lower),
    ("ingress.burst_admit_per_s", "1/s", Higher),
    ("ingress.ack_p50_ms", "ms", Lower),
    ("ingress.ack_p99_ms", "ms", Lower),
    ("ingress.accepted", "count", Higher),
    ("ingress.shed", "count", Lower),
    ("ingress.rejected", "count", Lower),
    ("loadgen.late_p99_ms", "ms", Lower),
    // net: the event loop and the two transports on their own.
    ("net.evloop.poll_us_c0", "us", Lower),
    ("net.evloop.poll_us_c1024", "us", Lower),
    ("net.evloop.echo_rtt_us_c1", "us", Lower),
    ("net.evloop.echo_rtt_us_c1024", "us", Lower),
    ("net.evloop.idle_cpu_share", "ratio", Lower),
    ("net.tcp.rtt_us_4k", "us", Lower),
    ("net.tcp.rtt_us_256k", "us", Lower),
    ("net.tcp.mb_per_s", "MB/s", Higher),
    ("net.tcp.connect_ms", "ms", Lower),
    ("net.mem.send_recv_us", "us", Lower),
    // engine: the traced batches, and the same jobs with one thing swapped.
    ("engine.w2_over_w1", "ratio", Higher),
    ("engine.busy_share", "ratio", Higher),
    ("engine.unexplained_share", "ratio", Lower),
    ("engine.tcp_over_mem", "ratio", Lower),
    ("engine.sharded_over_full", "ratio", Lower),
    ("engine.stream_over_materialized", "ratio", Lower),
    ("engine.setup_latency_ms", "ms", Lower),
    ("engine.round_wall_ms", "ms", Lower),
    ("engine.mix_envelopes_per_round", "count", Lower),
    ("engine.mix_bytes_per_msg", "bytes", Lower),
    ("engine.peak_in_flight", "count", Lower),
    ("engine.span_ms.setup", "ms", Lower),
    ("engine.span_ms.intake", "ms", Lower),
    ("engine.span_ms.verify", "ms", Lower),
    ("engine.span_ms.mix", "ms", Lower),
    ("engine.span_ms.exit", "ms", Lower),
    ("engine.span_coverage", "ratio", Higher),
    ("workload.gen_us_per_msg", "us", Lower),
    ("obs.overhead_pct", "%", Lower),
];

/// The per-layer counts that depend only on the inputs, never on timing:
/// two runs of the same commit and seed must report them identically.
pub const EXACT_COUNTS: &[&str] = &[
    "crypto.multiexp_terms_per_msg",
    "crypto.fixed_base_calls_per_msg",
    "crypto.table_cache_hit_ratio",
    "crypto.verify_fallback_ratio",
    "wire.mix_bytes_per_ct",
    "wire.submit_bytes",
    "engine.mix_envelopes_per_round",
    "engine.mix_bytes_per_msg",
];

/// Checks that `metrics` is exactly the listed set, in any order.
pub fn check_complete<'a>(
    metrics: &[Metric],
    listed: impl Iterator<Item = &'a str>,
) -> Result<(), String> {
    let listed: Vec<&str> = listed.collect();
    for name in &listed {
        match metrics.iter().filter(|m| m.name == *name).count() {
            1 => {}
            0 => return Err(format!("metric {name} was not measured")),
            _ => return Err(format!("metric {name} was measured twice")),
        }
    }
    match metrics.iter().find(|m| !listed.contains(&m.name.as_str())) {
        Some(extra) => Err(format!("metric {} is not in the catalogue", extra.name)),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// `BENCHMARK.json` at the repo root must list exactly this catalogue
    /// and the four workloads, within the contract's limits.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let field = |entry: &json::Value, key: &str| -> String {
            entry
                .get(key)
                .and_then(|v| v.as_str())
                .expect(key)
                .to_string()
        };

        let end_to_end = doc.get("end_to_end").unwrap().as_arr().unwrap();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, (name, unit, better, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(field(entry, "name"), *name);
            assert_eq!(field(entry, "unit"), *unit);
            assert_eq!(field(entry, "better"), better.as_str());
            assert_eq!(entry.get("bound").unwrap().as_f64(), Some(*bound));
            assert!(*bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.0 == "setup_s" && m.1 == "s" && m.2 == Lower));

        let per_layer = doc.get("per_layer").unwrap().as_arr().unwrap();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        assert!(per_layer.len() <= 128);
        for (entry, (name, unit, better)) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(field(entry, "name"), *name);
            assert_eq!(field(entry, "unit"), *unit);
            assert_eq!(field(entry, "better"), better.as_str());
        }

        let workloads = doc.get("workloads").unwrap().as_arr().unwrap();
        let shapes = crate::workloads::shapes();
        assert_eq!(workloads.len(), shapes.len());
        for (entry, shape) in workloads.iter().zip(&shapes) {
            assert_eq!(field(entry, "name"), shape.name);
            assert_eq!(field(entry, "why"), shape.why);
            assert!(shape.why.len() <= 200 && !shape.why.contains('\n'));
        }

        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        names.extend(shapes.iter().map(|s| s.name));
        for name in &names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for unit in END_TO_END
            .iter()
            .map(|m| m.1)
            .chain(PER_LAYER.iter().map(|m| m.1))
        {
            assert!(unit.len() <= 16);
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
    }

    #[test]
    fn completeness_check_names_the_missing_extra_or_repeated_metric() {
        let metric = |name: &str| Metric::new(name, 1.0, "ms", 1);
        let listed = ["a", "b"];
        assert!(check_complete(&[metric("a"), metric("b")], listed.into_iter()).is_ok());
        assert!(check_complete(&[metric("a")], listed.into_iter())
            .unwrap_err()
            .contains("b was not measured"));
        assert!(
            check_complete(&[metric("a"), metric("b"), metric("c")], listed.into_iter())
                .unwrap_err()
                .contains("c is not in the catalogue")
        );
        assert!(
            check_complete(&[metric("a"), metric("a"), metric("b")], listed.into_iter())
                .unwrap_err()
                .contains("a was measured twice")
        );
    }
}
