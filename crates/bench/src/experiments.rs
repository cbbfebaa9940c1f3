//! The paper's evaluation (§6) as one dispatch: one function per table,
//! figure or ablation, each returning the [`Artifact`] it prints, and one
//! renderer for all of them.

use std::cell::OnceCell;
use std::fmt;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::derive_setup;
use atom_core::group::{group_mix_iteration, GroupStepOptions};
use atom_core::message::{nizk_payload_len, trap_payload_len, MixPayload};
use atom_crypto::dkg::{run_dkg, DkgParams};
use atom_crypto::elgamal::encrypt_message;
use atom_crypto::encoding::encode_message_padded;
use atom_sim::deployment::{riposte_latency_seconds, vuvuzela_latency_seconds};
use atom_sim::{estimate_round, DeploymentSpec, PrimitiveCosts};
use atom_topology::groups::{required_group_size, GroupSecurityParams};
use atom_topology::network::{ButterflyNetwork, SquareNetwork, Topology};

/// One row's cells, each a `format!` string over local names.
macro_rules! cells {
    ($($cell:literal),*) => { vec![$(format!($cell)),*] };
}

/// The seed of every RNG the measured artifacts draw from.
const SEED: u64 = 0xA70B_BE4C;

/// How large a `paper` run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Sizes that run in seconds in a debug build: a smoke run, not data.
    Toy,
    /// The default: every artifact in a few seconds of a release build.
    Quick,
    /// `--full`: the larger sizes, closer to the paper's.
    Full,
}

/// What makes one artifact, at one run's sizes.
type Make = fn(&Run) -> Artifact;

/// Every artifact by name, in the order a run that names none prints them.
const ARTIFACTS: [(&str, Make); 12] = [
    ("table3", table3),
    ("table4", table4),
    ("table12", table12),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("fig13", fig13),
    ("topology", topology),
    ("msgsize", msgsize),
];

/// Prints the named artifacts, or every one when `names` is empty, each
/// followed by a blank line. An unknown name runs nothing and returns the
/// usage.
pub fn paper(names: &[String], scale: Scale) -> Result<(), String> {
    let find = |name: &String| ARTIFACTS.iter().find(|(known, _)| known == name);
    if let Some(unknown) = names.iter().find(|name| find(name).is_none()) {
        let known = ARTIFACTS.map(|(known, _)| known).join(" ");
        let usage = "usage: paper [ARTIFACT...] [--full]\nartifacts:";
        return Err(format!("unknown artifact {unknown:?}\n{usage} {known}"));
    }
    let chosen: Vec<_> = match names {
        [] => ARTIFACTS.iter().collect(),
        _ => names.iter().filter_map(find).collect(),
    };
    let run = Run {
        scale,
        costs: OnceCell::new(),
    };
    for (_, artifact) in chosen {
        println!("{}", artifact(&run));
    }
    Ok(())
}

/// One run's sizes, and the host costs its modelled artifacts share.
struct Run {
    scale: Scale,
    costs: OnceCell<PrimitiveCosts>,
}

impl Run {
    /// The toy, quick or full one of `sizes`, by this run's scale.
    fn pick<T>(&self, [toy, quick, full]: [T; 3]) -> T {
        match self.scale {
            Scale::Toy => toy,
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }

    /// This host's primitive costs, measured once per run for Fig. 9–11
    /// and Table 12 (Table 3 measures its own, at its own batch).
    fn costs(&self) -> &PrimitiveCosts {
        self.costs.get_or_init(|| {
            let costs = PrimitiveCosts::measure(self.pick([16, 128, 512]));
            println!("calibrated costs: {costs:?}");
            costs
        })
    }
}

/// One table or figure as it prints: a title, the column names, one row
/// of cells per line, and the paper's reference line (none when empty).
struct Artifact {
    title: String,
    columns: &'static [&'static str],
    rows: Vec<Vec<String>>,
    paper: &'static str,
}

/// The one renderer: every column as wide as its widest cell, the first
/// left-aligned and the others right-aligned.
impl fmt::Display for Artifact {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let header = self.columns.iter().map(|name| name.to_string()).collect();
        let lines: Vec<&Vec<String>> = std::iter::once(&header).chain(&self.rows).collect();
        let width = |column: usize| lines.iter().map(|line| line[column].chars().count()).max();
        writeln!(f, "{}", self.title)?;
        for line in &lines {
            write!(f, "{:<w$}", line[0], w = width(0).unwrap_or(0))?;
            for (column, cell) in line.iter().enumerate().skip(1) {
                write!(f, "  {cell:>w$}", w = width(column).unwrap_or(0))?;
            }
            writeln!(f)?;
        }
        match self.paper {
            "" => Ok(()),
            paper => writeln!(f, "{paper}"),
        }
    }
}

/// One primitive's latency in a set of costs.
type Field = fn(&PrimitiveCosts) -> f64;

/// Table 3: primitive latencies measured on this machine, next to the
/// paper's values.
fn table3(run: &Run) -> Artifact {
    let measured = PrimitiveCosts::measure(run.pick([16, 256, 1024]));
    let paper = PrimitiveCosts::paper_table3();
    let fields: [(&str, Field); 11] = [
        ("Enc", |c| c.enc),
        ("ReEnc", |c| c.reenc),
        ("Shuffle (per msg)", |c| c.shuffle_per_msg),
        ("EncProof prove", |c| c.encproof_prove),
        ("EncProof verify", |c| c.encproof_verify),
        ("ReEncProof prove", |c| c.reencproof_prove),
        ("ReEncProof verify", |c| c.reencproof_verify),
        ("ReEncProof prove (+ per batch)", |c| {
            c.reencproof_prove_fixed
        }),
        ("ReEncProof verify (+ per batch)", |c| {
            c.reencproof_verify_fixed
        }),
        ("ShufProof prove (per msg)", |c| c.shufproof_prove_per_msg),
        ("ShufProof verify (per msg)", |c| c.shufproof_verify_per_msg),
    ];
    let rows = fields.iter().map(|(label, field)| {
        let (measured, paper) = (field(&measured), field(&paper));
        cells!["{label}", "{measured:.3e}", "{paper:.3e}"]
    });
    Artifact {
        title: "Table 3: cryptographic primitive latency (seconds)".into(),
        columns: &["primitive", "measured", "paper"],
        rows: rows.collect(),
        paper: "",
    }
}

/// Table 4: anytrust group setup (DKG/DVSS) latency for varying group sizes.
fn table4(run: &Run) -> Artifact {
    let sizes: &[usize] = run.pick([&[4], &[4, 8, 16, 32], &[4, 8, 16, 32, 64]]);
    let mut rng = StdRng::seed_from_u64(SEED);
    let rows = sizes.iter().map(|size| {
        let params = DkgParams::anytrust(*size).expect("valid size");
        let start = Instant::now();
        run_dkg(&params, &mut rng).expect("dkg");
        let seconds = start.elapsed().as_secs_f64();
        cells!["{size}", "{seconds:.4}"]
    });
    Artifact {
        title: "Table 4: anytrust group setup latency".into(),
        columns: &["group size", "seconds"],
        rows: rows.collect(),
        paper: "(paper: 4→7.4ms, 8→29.4ms, 16→93.3ms, 32→361.8ms, 64→1432.1ms)",
    }
}

/// Seconds for one mixing iteration of the first group (of `size`
/// members) of a two-group deployment: `count` ciphertexts of `len`-byte
/// messages, re-encrypted towards the second group on `threads` threads.
fn time_iteration(defense: Defense, size: usize, count: usize, threads: usize, len: usize) -> f64 {
    let config = AtomConfig {
        num_servers: 2 * size,
        num_groups: 2,
        group_size: size,
        defense,
        message_len: len,
        beacon_seed: 7,
        ..AtomConfig::test_default()
    };
    let padded = match defense {
        Defense::Nizk => nizk_payload_len(len),
        Defense::Trap => trap_payload_len(len),
    };
    let setup = derive_setup(&config).expect("bench setup");
    let (group, mut rng) = (&setup.groups[0], StdRng::seed_from_u64(SEED));
    let batch = (0..count)
        .map(|i| {
            let payload = MixPayload::Plaintext(format!("bench message {i}").into_bytes());
            let payload = payload.to_bytes(padded).expect("payload fits");
            let points = encode_message_padded(&payload, padded).expect("encode");
            encrypt_message(&group.public_key, &points, &mut rng).0
        })
        .collect();
    let alive = group.participating(&[]).expect("no failures");
    let (next, mut rng) = ([setup.groups[1].public_key], StdRng::seed_from_u64(SEED));
    let step = GroupStepOptions {
        parallelism: threads,
        ..GroupStepOptions::new(defense)
    };
    let start = Instant::now();
    group_mix_iteration(group, &alive, batch, &next, padded, &step, None, &mut rng)
        .expect("mixing iteration");
    start.elapsed().as_secs_f64()
}

/// The Fig. 5/6 sweep: for each `(x, group size, messages)`, x and the
/// NIZK and trap seconds of one mixing iteration. The trap variant mixes
/// twice the messages (real + trap).
fn mixing_sweep(
    points: impl Iterator<Item = (usize, usize, usize)>,
) -> impl Iterator<Item = (usize, f64, f64)> {
    let time = |defense, size, count| time_iteration(defense, size, count, 1, 32);
    points.map(move |(x, size, count)| {
        let nizk = time(Defense::Nizk, size, count);
        (x, nizk, time(Defense::Trap, size, 2 * count))
    })
}

/// Fig. 5: time per mixing iteration as the number of messages varies.
fn fig5(run: &Run) -> Artifact {
    let (size, counts): (usize, &[usize]) = run.pick([
        (2, &[4, 8]),
        (8, &[64, 128, 256, 512]),
        (32, &[128, 512, 2048, 8192, 16384]),
    ]);
    let points = counts.iter().map(|&count| (count, size, count));
    let rows = mixing_sweep(points).map(|(count, nizk, trap)| {
        let ratio = nizk / trap;
        cells!["{count}", "{nizk:.3}", "{trap:.3}", "{ratio:.2}"]
    });
    Artifact {
        title: format!(
            "Figure 5: time per mixing iteration vs number of messages (group of {size})"
        ),
        columns: &["messages", "NIZK (s)", "trap (s)", "ratio"],
        rows: rows.collect(),
        paper: "(paper, 32 servers: linear in messages; NIZK ≈ 4× trap)",
    }
}

/// Fig. 6: time per mixing iteration as the group size varies.
fn fig6(run: &Run) -> Artifact {
    let count = run.pick([4, 128, 1024]);
    let sizes: &[usize] = run.pick([&[2, 3], &[4, 8, 16, 32], &[4, 8, 16, 32, 64]]);
    let points = sizes.iter().map(|&size| (size, size, count));
    let rows =
        mixing_sweep(points).map(|(size, nizk, trap)| cells!["{size}", "{nizk:.3}", "{trap:.3}"]);
    Artifact {
        title: format!("Figure 6: time per mixing iteration vs group size ({count} messages)"),
        columns: &["group size", "NIZK (s)", "trap (s)"],
        rows: rows.collect(),
        paper: "(paper: linear in group size)",
    }
}

/// Fig. 7: speed-up of one mixing iteration as the number of worker
/// threads grows, relative to the smallest thread count.
fn fig7(run: &Run) -> Artifact {
    let (size, count) = run.pick([(2, 4), (4, 256), (8, 1024)]);
    let threads: &[usize] = run.pick([&[1, 2], &[1, 2, 4], &[4, 8, 16, 36]]);
    let times = |defense| -> Vec<f64> {
        let time = |&t| time_iteration(defense, size, count, t, 32);
        threads.iter().map(time).collect()
    };
    let (trap, nizk) = (times(Defense::Trap), times(Defense::Nizk));
    let rows = threads.iter().enumerate().map(|(i, t)| {
        let (trap, nizk) = (trap[0] / trap[i], nizk[0] / nizk[i]);
        cells!["{t}", "{trap:.2}", "{nizk:.2}"]
    });
    Artifact {
        title: format!("Figure 7: speed-up vs number of cores (group of {size}, {count} messages)"),
        columns: &["threads", "trap speedup", "NIZK speedup"],
        rows: rows.collect(),
        paper: "(paper: near-linear for trap, sub-linear for NIZK)",
    }
}

/// Seconds one round of `spec` takes in the model, at this run's costs.
fn modelled(run: &Run, spec: &DeploymentSpec) -> f64 {
    estimate_round(spec, run.costs()).total_seconds()
}

/// Fig. 9: end-to-end latency vs number of users for microblogging and
/// dialing on a 1,024-server deployment.
fn fig9(run: &Run) -> Artifact {
    let users = [250_000, 500_000, 750_000, 1_000_000, 1_500_000, 2_000_000];
    let rows = users.map(|users| {
        let micro = modelled(run, &DeploymentSpec::paper_microblogging(1024, users));
        let dial = modelled(run, &DeploymentSpec::paper_dialing(1024, users));
        cells!["{users}", "{micro:.1}", "{dial:.1}"]
    });
    Artifact {
        title: "Figure 9: end-to-end latency vs number of messages (1,024 servers)".into(),
        columns: &["users", "microblogging (s)", "dialing (s)"],
        rows: rows.into(),
        paper: "(paper: linear; ~28 min for one million users)",
    }
}

/// The Fig. 10/11 sweep: for each server count, the modelled latency of
/// `users` microblogging users, in units of `unit` seconds, and the
/// speed-up over the first count.
fn speedup_sweep(run: &Run, users: u64, servers: &[usize], unit: f64) -> Vec<Vec<String>> {
    let base = modelled(run, &DeploymentSpec::paper_microblogging(servers[0], users));
    (servers.iter())
        .map(|&servers| {
            let total = modelled(run, &DeploymentSpec::paper_microblogging(servers, users));
            let (latency, speedup) = (total / unit, base / total);
            cells!["{servers}", "{latency:.1}", "{speedup:.2}"]
        })
        .collect()
}

/// Fig. 10: speed-up over 128 servers when routing one million
/// microblogging messages.
fn fig10(run: &Run) -> Artifact {
    Artifact {
        title: "Figure 10: speed-up vs number of servers (1M microblogging messages)".into(),
        columns: &["servers", "latency (s)", "speed-up"],
        rows: speedup_sweep(run, 1_000_000, &[128, 256, 512, 1024], 1.0),
        paper: "(paper: 128→3.81h, 256→1.89h, 512→0.94h, 1024→0.47h; linear speed-up)",
    }
}

/// Fig. 11: simulated speed-up of 2^10–2^15 servers routing one billion
/// messages (half a billion microblogging users).
fn fig11(run: &Run) -> Artifact {
    let servers: Vec<usize> = (10..=15).map(|exponent| 1 << exponent).collect();
    Artifact {
        title: "Figure 11: simulated speed-up, one billion messages".into(),
        columns: &["servers", "latency (hours)", "speed-up"],
        rows: speedup_sweep(run, 500_000_000, &servers, 3600.0),
        paper: "(paper: 2^10→483.6h ... 2^15→20.5h; sub-linear beyond ~2^13)",
    }
}

/// Table 12: latency to support one million users, Atom under the
/// calibrated model against the Riposte and Vuvuzela/Alpenhorn models,
/// each on three 36-core machines: a typical 1 GB/s PRG per core, and
/// hybrid decryption at this host's encryption rate but no fewer than
/// 20,000 operations per second per core.
fn table12(run: &Run) -> Artifact {
    let users = 1_000_000;
    // Three significant figures: Vuvuzela's dialing round is a fraction of
    // a minute (0.07 under Table 3's costs, 0.003 under this host's) and
    // Riposte's is over an hour; a fixed precision shows one of them as 0.
    let minutes = |seconds: f64| match seconds / 60.0 {
        m if m > 0.0 => format!("{m:.*}", (2.0 - m.log10().floor()).min(6.0) as usize),
        m => format!("{m:.1}"),
    };
    let atom = [128, 256, 512, 1024].map(|servers| {
        let micro = modelled(run, &DeploymentSpec::paper_microblogging(servers, users));
        let dial = modelled(run, &DeploymentSpec::paper_dialing(servers, users));
        let (micro, dial) = (minutes(micro), minutes(dial));
        cells!["Atom {servers}x mixed", "{micro}", "{dial}"]
    });
    let riposte = minutes(riposte_latency_seconds(users, 160, 1.0e9, 36));
    let hybrid_ops = (1.0 / run.costs().enc.max(1e-6)).max(20_000.0);
    let vuvuzela = minutes(vuvuzela_latency_seconds(users, hybrid_ops, 3, 36));
    let mut rows = Vec::from(atom);
    rows.push(cells!["Riposte 3x c4.8xlarge", "{riposte}", "-"]);
    rows.push(cells![
        "Vuvuzela/Alpenhorn 3x c4.8xlarge",
        "-",
        "{vuvuzela}"
    ]);
    Artifact {
        title: "Table 12: latency to support one million users (minutes)".into(),
        columns: &["system", "microblog", "dialing"],
        rows,
        paper: "(paper: Atom 1024 = 28.2 min microblog, 23.7x faster than Riposte; Vuvuzela 56x faster than Atom for dialing)",
    }
}

/// Fig. 13 (Appendix B): required group size vs required honest servers.
fn fig13(run: &Run) -> Artifact {
    let rows = (1..=run.pick([2, 20, 20])).map(|h| {
        let k = required_group_size(&GroupSecurityParams::paper_defaults(h)).expect("satisfiable");
        cells!["{h}", "{k}"]
    });
    Artifact {
        title:
            "Figure 13: required group size k vs required honest servers h (f=0.2, G=1024, 2^-64)"
                .into(),
        columns: &["h", "k"],
        rows: rows.collect(),
        paper: "(paper: k=32 at h=1, rising to ~65-70 at h=20)",
    }
}

/// Ablation: square vs iterated-butterfly topology at 1,024 groups (the
/// butterfly needs O(log² G) iterations).
fn topology(_: &Run) -> Artifact {
    let row = |name: &str, network: &dyn Topology| {
        let (iterations, beta) = (network.iterations(), network.branching_factor());
        cells!["{name}", "{iterations}", "{beta}"]
    };
    let square = row("square", &SquareNetwork::paper_default(1024));
    let butterfly = row("butterfly", &ButterflyNetwork::for_groups(1024));
    Artifact {
        title: "Ablation: topology choice at 1024 groups".into(),
        columns: &["topology", "iterations", "beta"],
        rows: vec![square, butterfly],
        paper: "(the square network's shallower depth is why the paper uses it)",
    }
}

/// Ablation: trap-variant mixing-iteration time vs message length.
fn msgsize(run: &Run) -> Artifact {
    let (size, count) = run.pick([(2, 4), (4, 64), (8, 256)]);
    let lens: &[usize] = run.pick([&[32, 64], &[32, 64, 160], &[32, 64, 160, 320]]);
    let rows = lens.iter().map(|len| {
        let seconds = time_iteration(Defense::Trap, size, count, 1, *len);
        cells!["{len}", "{seconds:.3}"]
    });
    Artifact {
        title: format!(
            "Ablation: mixing-iteration time vs message length ({count} messages, group of {size})"
        ),
        columns: &["message bytes", "seconds"],
        rows: rows.collect(),
        paper: "(paper §6.1: latency increases linearly with the message size)",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_artifact_runs_at_toy_sizes() {
        let run = Run {
            scale: Scale::Toy,
            costs: OnceCell::new(),
        };
        for (name, artifact) in ARTIFACTS {
            let artifact = artifact(&run);
            assert!(!artifact.rows.is_empty(), "{name} printed no rows");
            for row in &artifact.rows {
                assert_eq!(row.len(), artifact.columns.len(), "{name}: {row:?}");
            }
            assert!(artifact.to_string().starts_with(&artifact.title));
        }
        // Fig. 7 divides every row by its first row's own time.
        assert_eq!(fig7(&run).rows[0][1..], ["1.00", "1.00"]);
    }

    #[test]
    fn table12_keeps_the_papers_order_under_table3_costs() {
        let run = Run {
            scale: Scale::Toy,
            costs: OnceCell::from(PrimitiveCosts::paper_table3()),
        };
        let rows = table12(&run).rows;
        let minutes = |prefix: &str, column: usize| -> Vec<f64> {
            rows.iter()
                .filter(|row| row[0].starts_with(prefix))
                .map(|row| row[column].parse().expect("column applies to this system"))
                .collect()
        };
        let atom_micro = minutes("Atom", 1);
        let atom_dial = minutes("Atom", 2);
        let riposte = minutes("Riposte", 1);
        let vuvuzela = minutes("Vuvuzela", 2);
        assert_eq!((atom_micro.len(), riposte.len(), vuvuzela.len()), (4, 1, 1));

        // Atom scales horizontally: 128 → 1,024 servers cuts both latencies.
        for latencies in [&atom_micro, &atom_dial] {
            assert!(
                latencies.windows(2).all(|pair| pair[1] < pair[0]),
                "Atom latency must fall as servers are added: {latencies:?}"
            );
        }
        // Riposte's quadratic server work loses to Atom at 1,024 servers ...
        assert!(
            atom_micro[3] < riposte[0],
            "Atom 1024 {} min vs Riposte {} min",
            atom_micro[3],
            riposte[0]
        );
        // ... while centralized Vuvuzela still dials faster than Atom.
        assert!(
            vuvuzela[0] < atom_dial[3],
            "Vuvuzela {} min vs Atom 1024 {} min",
            vuvuzela[0],
            atom_dial[3]
        );
    }
}
