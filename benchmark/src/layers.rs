//! Per-layer measurements of a traced run. Every number here is a
//! bench-side span around a call into one layer's public function, on the
//! inputs the workload itself used, single-threaded, at the workload's own
//! batch shape: a sequential replay of one round (intake → wire → group
//! steps → exit), the crypto primitives on one of that round's group
//! batches, and the network and ingress layers on their own.

use std::io::Write;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use atom_core::actor::SOURCE;
use atom_core::config::Defense;
use atom_core::directory::{derive_group, derive_members, derive_setup};
use atom_core::group::{group_mix_iteration, GroupStepOptions};
use atom_core::message::{nizk_payload_len, trap_payload_len};
use atom_core::round::{
    finish_nizk_round, finish_trap_round, verify_nizk_submissions_range,
    verify_trap_submissions_range, RoundOutput, RoundTimings,
};
use atom_crypto::batch::{
    mul_fixed, verify_encryption_batch, verify_reencryption_batch, verify_shuffle_batch,
    EncVerification, ShuffleVerification,
};
use atom_crypto::cca2;
use atom_crypto::commit::Commitment;
use atom_crypto::dkg::{reconstruct_group_secret, run_dkg, DkgParams};
use atom_crypto::elgamal::{reencrypt_message, shuffle, KeyPair, MessageCiphertext, SecretKey};
use atom_crypto::nizk::reenc::{prove_reencryption, ReEncStatement};
use atom_crypto::nizk::shuffle::prove_shuffle;
use atom_net::{
    Event, EventLoop, EvloopOptions, InMemoryNetwork, TcpOptions, TcpTransport, Transport,
};
use atom_runtime::wire::{self, ExitFrame, Frame};
use atom_runtime::{AdmissionQueue, IngressOptions, IngressServer, RoundSubmissions, TokenBucket};
use atom_topology::groups::form_group;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::catalogue::Metric;
use crate::spans::{SpanId, Tracer, NO_ROUND};
use crate::stats;
use crate::sys;
use crate::workloads::{socket_intake, RoundInput, Shape, WORKERS};

/// Where per-layer metrics are collected.
pub struct Sink<'a> {
    pub tracer: &'a Tracer,
    pub metrics: Vec<Metric>,
}

impl Sink<'_> {
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric::new(name, value, unit, samples));
    }

    /// Median seconds per call of `work`. Cheap calls are repeated until
    /// about 40 ms have gone by (at least three times); a call that alone
    /// takes longer than that is made twice. Every call is a span.
    fn probe<T>(
        &self,
        name: &str,
        parent: Option<SpanId>,
        mut work: impl FnMut() -> T,
    ) -> (f64, usize) {
        let budget = Duration::from_millis(40);
        let started = Instant::now();
        let mut samples = Vec::new();
        loop {
            let (result, took, _) = self.tracer.time(name, parent, NO_ROUND, &mut work);
            std::hint::black_box(result);
            samples.push(took.as_secs_f64());
            let enough = if samples[0] > budget.as_secs_f64() {
                2
            } else {
                3
            };
            if samples.len() >= enough && (started.elapsed() >= budget || samples.len() >= 200) {
                break;
            }
        }
        (
            stats::median(&samples).expect("at least one sample"),
            samples.len(),
        )
    }
}

fn micros(seconds: f64) -> f64 {
    seconds * 1e6
}

fn padded_len(shape: &Shape) -> usize {
    match shape.defense {
        Defense::Trap => trap_payload_len(shape.message_len),
        Defense::Nizk => nizk_payload_len(shape.message_len),
    }
}

/// Seconds each layer took in one sequential replay of a round.
pub struct Replay {
    pub msgs: usize,
    pub intake_s: f64,
    pub wire_s: f64,
    pub step_s: f64,
    pub exit_s: f64,
    /// Ciphertexts that went through a group step, summed over steps.
    pub step_cts: usize,
    /// The first group's iteration-0 batch: the input of the crypto probes.
    pub group_batch: Vec<MessageCiphertext>,
    pub output: RoundOutput,
}

impl Replay {
    /// Replayed seconds of intake, wire, group steps and exit together.
    pub fn total_s(&self) -> f64 {
        self.intake_s + self.wire_s + self.step_s + self.exit_s
    }
}

/// Replays the first `msgs` submissions of `input` as one round on this
/// thread: chunked intake verification, then for every iteration and
/// group the wire decode of its inbound frames, the group step and the
/// wire encode of its outbound sub-batches, then the exit frames and the
/// exit phase. Emits the `core.*` and `wire.mix_*` metrics.
pub fn replay_round(
    sink: &mut Sink<'_>,
    shape: &Shape,
    input: &RoundInput,
    msgs: usize,
    intake_chunk: usize,
) -> Result<Replay, String> {
    let tracer = sink.tracer;
    let round = input.config.round as i64;
    let root = tracer.open("replay", None, round);
    let setup = input.setup.as_ref();
    let groups = shape.groups;
    let (submissions, _) = input.prefix(msgs);

    // ---- intake: the engine verifies in chunks; so does the replay.
    let mut batches: Vec<Vec<MessageCiphertext>> = vec![Vec::new(); groups];
    let mut commitments: Vec<Vec<Commitment>> = vec![Vec::new(); groups];
    let mut intake_s = 0.0;
    for start in (0..msgs).step_by(intake_chunk.max(1)) {
        let end = (start + intake_chunk.max(1)).min(msgs);
        match &submissions {
            RoundSubmissions::Trap(subs) => {
                let (intake, took, _) = tracer.time("core.intake", root, round, || {
                    verify_trap_submissions_range(setup, &subs[start..end], start)
                });
                intake_s += took.as_secs_f64();
                let intake = intake.map_err(|e| format!("replay intake: {e}"))?;
                for gid in 0..groups {
                    batches[gid].extend(intake.batches[gid].iter().cloned());
                    commitments[gid].extend(intake.commitments[gid].iter().cloned());
                }
            }
            RoundSubmissions::Nizk(subs) => {
                let (intake, took, _) = tracer.time("core.intake", root, round, || {
                    verify_nizk_submissions_range(setup, &subs[start..end], start)
                });
                intake_s += took.as_secs_f64();
                let intake = intake.map_err(|e| format!("replay intake: {e}"))?;
                for gid in 0..groups {
                    batches[gid].extend(intake[gid].iter().cloned());
                }
            }
            RoundSubmissions::Stream(_) => unreachable!("inputs are materialized"),
        }
    }
    let routed: usize = batches.iter().map(Vec::len).sum();
    let group_batch = batches[0].clone();

    // ---- mixing: every hop goes through the wire codec, as in the engine.
    let topology = input.config.topology();
    let options = GroupStepOptions::new(shape.defense);
    let mut rng = StdRng::seed_from_u64(input.job_seed);
    let (mut encode_s, mut decode_s, mut step_s) = (0.0, 0.0, 0.0);
    let (mut wire_cts, mut wire_bytes, mut step_cts) = (0usize, 0usize, 0usize);
    let mut encode = |iteration: usize, from: usize, batch: &[MessageCiphertext]| {
        let (bytes, took, _) = tracer.time("wire.encode_mix", root, round, || {
            wire::encode_mix(0, iteration, from, Duration::ZERO, batch)
        });
        encode_s += took.as_secs_f64();
        wire_cts += batch.len();
        wire_bytes += bytes.len();
        bytes
    };
    // inbound[gid]: encoded frames waiting for the group's next iteration,
    // in sender order (the orchestrator's injection first).
    let mut inbound: Vec<Vec<Vec<u8>>> = batches
        .iter()
        .map(|batch| vec![encode(0, SOURCE, batch)])
        .collect();
    let mut exit_payloads: Vec<Vec<Vec<u8>>> = vec![Vec::new(); groups];
    for iteration in 0..topology.iterations() {
        let mut next: Vec<Vec<Vec<u8>>> = vec![Vec::new(); groups];
        for gid in 0..groups {
            let mut batch = Vec::new();
            for frame in std::mem::take(&mut inbound[gid]) {
                let (decoded, took, _) =
                    tracer.time("wire.decode_mix", root, round, || wire::decode(&frame));
                decode_s += took.as_secs_f64();
                match decoded {
                    Ok(Frame::Mix(envelope)) => batch.extend(envelope.batch),
                    other => {
                        return Err(format!("replay decoded {other:?} instead of a mix frame"))
                    }
                }
            }
            let group = &setup.groups[gid];
            let participating = group
                .participating(&[])
                .map_err(|e| format!("replay participating: {e}"))?;
            let neighbors = topology.neighbors(gid, iteration);
            let next_keys: Vec<_> = neighbors
                .iter()
                .map(|&n| setup.groups[n].public_key)
                .collect();
            step_cts += batch.len();
            let (output, took, _) = tracer.time("core.group_step", root, round, || {
                group_mix_iteration(
                    group,
                    &participating,
                    batch,
                    &next_keys,
                    padded_len(shape),
                    &options,
                    None,
                    &mut rng,
                )
            });
            step_s += took.as_secs_f64();
            let output = output.map_err(|e| format!("replay group step: {e}"))?;
            if neighbors.is_empty() {
                exit_payloads[gid] = output.plaintexts;
            } else {
                for (neighbor, sub_batch) in neighbors.into_iter().zip(output.outputs) {
                    next[neighbor].push(encode(iteration + 1, gid, &sub_batch));
                }
            }
        }
        inbound = next;
    }

    // ---- exit: each group's frame to the orchestrator, then the exit phase.
    let mut exit_wire_s = 0.0;
    let mut collected: Vec<Vec<Vec<u8>>> = Vec::with_capacity(groups);
    for (gid, payloads) in exit_payloads.into_iter().enumerate() {
        let frame = ExitFrame {
            round: 0,
            gid,
            finished_virtual: Duration::ZERO,
            mix_messages: 0,
            mix_bytes: 0,
            compute: vec![Duration::ZERO; topology.iterations()],
            payloads,
        };
        let (decoded, took, _) = tracer.time("wire.exit_roundtrip", root, round, || {
            wire::decode(&wire::encode_exit(&frame))
        });
        exit_wire_s += took.as_secs_f64();
        match decoded {
            Ok(Frame::Exit(frame)) => collected.push(frame.payloads),
            other => return Err(format!("replay decoded {other:?} instead of an exit frame")),
        }
    }
    let (output, took, _) = tracer.time("core.exit", root, round, || match shape.defense {
        Defense::Trap => finish_trap_round(
            setup,
            &commitments,
            collected,
            routed,
            RoundTimings::default(),
        ),
        Defense::Nizk => finish_nizk_round(collected, routed, RoundTimings::default()),
    });
    let exit_s = took.as_secs_f64();
    let output = output.map_err(|e| format!("replay exit phase: {e}"))?;
    tracer.close(root);

    sink.push(
        "core.intake_us_per_msg",
        micros(intake_s) / msgs as f64,
        "us",
        msgs,
    );
    sink.push(
        "core.group_step_us_per_ct",
        micros(step_s) / step_cts as f64,
        "us",
        step_cts,
    );
    sink.push(
        "core.exit_us_per_msg",
        micros(exit_s) / msgs as f64,
        "us",
        msgs,
    );
    sink.push(
        "wire.mix_encode_us_per_ct",
        micros(encode_s) / wire_cts as f64,
        "us",
        wire_cts,
    );
    sink.push(
        "wire.mix_decode_us_per_ct",
        micros(decode_s) / wire_cts as f64,
        "us",
        wire_cts,
    );
    sink.push(
        "wire.mix_bytes_per_ct",
        wire_bytes as f64 / wire_cts as f64,
        "bytes",
        wire_cts,
    );
    sink.push(
        "wire.exit_roundtrip_us_per_msg",
        micros(exit_wire_s) / msgs as f64,
        "us",
        msgs,
    );
    Ok(Replay {
        msgs,
        intake_s,
        wire_s: encode_s + decode_s + exit_wire_s,
        step_s,
        exit_s,
        step_cts,
        group_batch,
        output,
    })
}

/// What the crypto probes measured that the engine budget needs.
pub struct CryptoCosts {
    /// Seconds of crypto primitives one ciphertext costs in one group step
    /// (every member's shuffle and re-encryption, plus proofs under NIZK).
    pub step_per_ct_s: f64,
    /// Seconds of one `derive_setup` (a sharded round pays it in the call).
    pub derive_setup_s: f64,
}

/// The crypto primitives, timed on (at most 256 ciphertexts of) one of the
/// replayed round's group batches, plus the directory derivations.
pub fn crypto_probes(
    sink: &mut Sink<'_>,
    shape: &Shape,
    input: &RoundInput,
    group_batch: &[MessageCiphertext],
) -> Result<CryptoCosts, String> {
    let root = sink.tracer.open("probe.crypto", None, NO_ROUND);
    let setup = input.setup.as_ref();
    let group = &setup.groups[0];
    let pk = &group.public_key;
    let next_pk = &setup.groups[1 % shape.groups].public_key;
    let cts = &group_batch[..group_batch.len().min(256)];
    let n = cts.len() as f64;
    if cts.is_empty() {
        return Err("the replayed round left group 0 without ciphertexts to probe".into());
    }
    let mut rng = StdRng::seed_from_u64(input.job_seed ^ 0xC0DE);
    let crypto = |e| format!("crypto probe: {e}");

    // Shuffle, and a k-link proof chain over it.
    let (shuffle_s, reps) = sink.probe("crypto.shuffle", root, || shuffle(pk, cts, &mut rng));
    sink.push(
        "crypto.shuffle_us_per_ct",
        micros(shuffle_s) / n,
        "us",
        reps,
    );
    let members = group.threshold;
    let mut stages = vec![cts.to_vec()];
    let mut witnesses = Vec::new();
    for _ in 0..members {
        let (shuffled, witness) =
            shuffle(pk, stages.last().expect("seeded"), &mut rng).map_err(crypto)?;
        stages.push(shuffled);
        witnesses.push(witness);
    }
    let (prove_s, reps) = sink.probe("crypto.prove_shuffle", root, || {
        prove_shuffle(pk, &stages[0], &stages[1], &witnesses[0], &mut rng)
    });
    sink.push(
        "crypto.shuffle_prove_us_per_ct",
        micros(prove_s) / n,
        "us",
        reps,
    );
    let mut proofs = Vec::new();
    for link in 0..members {
        proofs.push(
            prove_shuffle(
                pk,
                &stages[link],
                &stages[link + 1],
                &witnesses[link],
                &mut rng,
            )
            .map_err(crypto)?,
        );
    }
    let links: Vec<ShuffleVerification<'_>> = proofs
        .iter()
        .enumerate()
        .map(|(link, proof)| ShuffleVerification {
            pk,
            inputs: &stages[link],
            outputs: &stages[link + 1],
            proof,
        })
        .collect();
    let (verify_s, reps) = sink.probe("crypto.verify_shuffle_batch", root, || {
        verify_shuffle_batch(&links).map_err(|(link, e)| format!("link {link}: {e}"))
    });
    verify_shuffle_batch(&links).map_err(|(_, e)| crypto(e))?;
    let shuffle_verify_s = verify_s / (members as f64 * n);
    sink.push(
        "crypto.shuffle_verify_us_per_ct",
        micros(shuffle_verify_s),
        "us",
        reps,
    );

    // Re-encryption toward the next group, its proofs and their batch check.
    let participating = group
        .participating(&[])
        .map_err(|e| format!("participating: {e}"))?;
    let member = participating[0];
    let share = group.share(member);
    let peel = share.peel_exponent(&participating).map_err(crypto)?;
    let peel_public = share
        .peel_verification_key(&participating, member)
        .map_err(crypto)?;
    let fresh = &stages[1];
    let (reenc_s, reps) = sink.probe("crypto.reencrypt", root, || {
        fresh
            .iter()
            .map(|ct| reencrypt_message(&peel, Some(next_pk), ct, &mut rng))
            .collect::<Vec<_>>()
    });
    sink.push("crypto.reenc_us_per_ct", micros(reenc_s) / n, "us", reps);
    // The exit layer peels without adding a layer; only the step estimate
    // below needs it.
    let (reenc_exit_s, _) = sink.probe("crypto.reencrypt_exit", root, || {
        fresh
            .iter()
            .map(|ct| reencrypt_message(&peel, None, ct, &mut rng))
            .collect::<Vec<_>>()
    });
    let reencrypted: Vec<_> = fresh
        .iter()
        .map(|ct| reencrypt_message(&peel, Some(next_pk), ct, &mut rng))
        .collect();
    let statements: Vec<ReEncStatement<'_>> = fresh
        .iter()
        .zip(&reencrypted)
        .map(|(input, (output, _))| ReEncStatement {
            peel_public: &peel_public,
            next_pk: Some(next_pk),
            input,
            output,
        })
        .collect();
    let (reenc_prove_s, reps) = sink.probe("crypto.prove_reencryption", root, || {
        statements
            .iter()
            .zip(&reencrypted)
            .map(|(statement, (_, witnesses))| prove_reencryption(statement, witnesses, &mut rng))
            .collect::<Vec<_>>()
    });
    sink.push(
        "crypto.reenc_prove_us_per_ct",
        micros(reenc_prove_s) / n,
        "us",
        reps,
    );
    let reenc_proofs = statements
        .iter()
        .zip(&reencrypted)
        .map(|(statement, (_, witnesses))| prove_reencryption(statement, witnesses, &mut rng))
        .collect::<Result<Vec<_>, _>>()
        .map_err(crypto)?;
    let (reenc_verify_s, reps) = sink.probe("crypto.verify_reencryption_batch", root, || {
        verify_reencryption_batch(&statements, &reenc_proofs).map_err(|(i, e)| format!("{i}: {e}"))
    });
    verify_reencryption_batch(&statements, &reenc_proofs).map_err(|(_, e)| crypto(e))?;
    sink.push(
        "crypto.reenc_verify_us_per_ct",
        micros(reenc_verify_s) / n,
        "us",
        reps,
    );

    // Submission proofs, in one intake chunk of 64 submissions.
    let items: Vec<EncVerification<'_>> = match &input.submissions {
        RoundSubmissions::Trap(subs) => subs
            .iter()
            .take(64)
            .flat_map(|s| {
                s.ciphertexts
                    .iter()
                    .zip(&s.proofs)
                    .map(|(ciphertext, proof)| EncVerification {
                        pk: &setup.groups[s.entry_group].public_key,
                        group_id: s.entry_group as u64,
                        ciphertext,
                        proof,
                    })
            })
            .collect(),
        RoundSubmissions::Nizk(subs) => subs
            .iter()
            .take(64)
            .map(|s| EncVerification {
                pk: &setup.groups[s.entry_group].public_key,
                group_id: s.entry_group as u64,
                ciphertext: &s.ciphertext,
                proof: &s.proof,
            })
            .collect(),
        RoundSubmissions::Stream(_) => unreachable!("inputs are materialized"),
    };
    let (enc_verify_s, reps) = sink.probe("crypto.verify_encryption_batch", root, || {
        verify_encryption_batch(&items).map_err(|(i, e)| format!("{i}: {e}"))
    });
    verify_encryption_batch(&items).map_err(|(_, e)| crypto(e))?;
    sink.push(
        "crypto.enc_verify_us_per_proof",
        micros(enc_verify_s) / items.len() as f64,
        "us",
        reps,
    );

    // The trap variant's inner layer: one CCA2 open by the trustees.
    let trustee_shares: Vec<_> = setup.trustees.shares.iter().collect();
    let trustee_secret = SecretKey(
        reconstruct_group_secret(&trustee_shares[..setup.trustees.shares[0].params.threshold])
            .map_err(crypto)?,
    );
    let aad = input.config.round.to_le_bytes();
    let inner = cca2::encrypt(
        &setup.trustees.public_key,
        &aad,
        &vec![7u8; shape.message_len],
        &mut rng,
    );
    let (open_s, reps) = sink.probe("crypto.cca2_open", root, || {
        cca2::decrypt(&trustee_secret, &setup.trustees.public_key, &aad, &inner)
    });
    sink.push("crypto.cca2_open_us", micros(open_s), "us", reps);

    // Directory: one group's DKG, a fixed-base table for a new key, and
    // the derivations the engine runs per sharded round.
    let params =
        DkgParams::new(input.config.group_size, input.config.group_threshold()).map_err(crypto)?;
    let (dkg_s, reps) = sink.probe("crypto.run_dkg", root, || run_dkg(&params, &mut rng));
    sink.push("crypto.dkg_ms_per_group", dkg_s * 1e3, "ms", reps);
    // A cold fixed-base multiplication: a key the table cache has never
    // seen (made outside the timed call), so the call builds its window
    // table — what every new group key costs once per process.
    let mut fresh_key = KeyPair::generate(&mut rng).public.0;
    let scalar = peel;
    let (table_s, reps) = sink.probe("crypto.table_build", root, || {
        let product = mul_fixed(&fresh_key, &scalar);
        fresh_key = product;
        product
    });
    sink.push("crypto.table_build_us", micros(table_s), "us", reps);
    let (setup_s, reps) = sink.probe("core.derive_setup", root, || derive_setup(&input.config));
    sink.push("core.derive_setup_ms", setup_s * 1e3, "ms", reps);
    let (group_s, reps) = sink.probe("core.derive_group", root, || derive_group(&input.config, 0));
    sink.push("core.derive_group_ms", group_s * 1e3, "ms", reps);
    let config = &input.config;
    let (form_s, reps) = sink.probe("topology.form_group", root, || {
        let formed = form_group(
            config.num_servers,
            config.num_groups,
            config.group_size,
            config.beacon_seed,
            config.num_groups - 1,
        );
        (formed, derive_members(config, config.num_groups - 1))
    });
    sink.push("topology.form_group_us", micros(form_s), "us", reps);
    sink.tracer.close(root);

    // What the primitives above predict one ciphertext costs in one group
    // step: every participating member shuffles and re-encrypts it once
    // (the last of the round's iterations re-encrypts toward no one), and
    // in the NIZK variant proves both and has both verified.
    let iterations = input.config.iterations as f64;
    let reenc_mean_s = (reenc_s * (iterations - 1.0) + reenc_exit_s) / iterations;
    let mut per_ct = shuffle_s / n + reenc_mean_s / n;
    if shape.defense == Defense::Nizk {
        per_ct += prove_s / n + shuffle_verify_s + reenc_prove_s / n + reenc_verify_s / n;
    }
    Ok(CryptoCosts {
        step_per_ct_s: per_ct * members as f64,
        derive_setup_s: setup_s,
    })
}

/// The wire codec on one `submit` frame of the workload's own variant
/// and message size.
pub fn submit_probes(sink: &mut Sink<'_>, input: &RoundInput) {
    let (submissions, _) = input.prefix(1);
    let frame =
        crate::workloads::encode_frames(&submissions, input.config.round as usize).remove(0);
    let payload = &frame[atom_net::evloop::CLIENT_HEADER_LEN..];
    let (decode_s, reps) = sink.probe("wire.decode_submit", None, || wire::decode(payload));
    sink.push("wire.submit_decode_us", micros(decode_s), "us", reps);
    sink.push("wire.submit_bytes", payload.len() as f64, "bytes", 1);
}

/// The socket edge on its own: admission arithmetic, then real sockets —
/// a paced probe (ack latency from the due time, generator lateness) and
/// a burst probe (every frame written at once). `frames` are client-framed
/// `submit` frames of the workload's own submissions, all for `round`.
pub fn ingress_probes(
    sink: &mut Sink<'_>,
    frames: &[Vec<u8>],
    round: usize,
    defense: Defense,
    rate: f64,
) -> Result<(), String> {
    let root = sink.tracer.open("probe.ingress", None, NO_ROUND);
    // Rate limit + admission queue, per submission, without sockets.
    let (offer_s, reps) = sink.probe("ingress.offer", root, || {
        let mut bucket = TokenBucket::new(1e9, 1e9);
        let mut queue: AdmissionQueue<u64> = AdmissionQueue::new(1 << 20);
        for i in 0..10_000u64 {
            std::hint::black_box(bucket.admit(Duration::from_nanos(i * 250)));
            std::hint::black_box(queue.offer(i));
        }
        queue.len()
    });
    sink.push(
        "ingress.offer_ns",
        offer_s * 1e9 / 10_000.0,
        "ns",
        reps * 10_000,
    );

    let conns = frames.len();
    let paced = socket_intake(frames, round, defense, rate, sink.tracer, root)?;
    let acks = stats::sorted(paced.outcomes.iter().filter_map(|o| o.ack_ms()).collect());
    let late = stats::sorted(paced.outcomes.iter().map(|o| o.late_ms()).collect());
    let p99 = |sorted: &[f64]| stats::tail_percentile(sorted, 99.0).unwrap_or(f64::NAN);
    sink.push(
        "ingress.ack_p50_ms",
        stats::median(&acks).unwrap_or(f64::NAN),
        "ms",
        acks.len(),
    );
    sink.push("ingress.ack_p99_ms", p99(&acks), "ms", acks.len());
    sink.push("loadgen.late_p99_ms", p99(&late), "ms", late.len());
    sink.push(
        "ingress.connect_us_per_conn",
        micros(paced.connect.as_secs_f64()) / conns as f64,
        "us",
        conns,
    );
    sink.push(
        "ingress.drain_ms",
        paced.drain.as_secs_f64() * 1e3,
        "ms",
        conns,
    );
    sink.push(
        "ingress.accepted",
        paced.stats.admitted as f64,
        "count",
        conns,
    );
    sink.push(
        "ingress.shed",
        (paced.stats.shed_rate + paced.stats.shed_queue) as f64,
        "count",
        conns,
    );
    sink.push(
        "ingress.rejected",
        (paced.stats.malformed + paced.stats.wrong_round) as f64,
        "count",
        conns,
    );
    if paced.stats.admitted as usize != conns {
        return Err(format!(
            "ingress probe admitted {} of {conns}",
            paced.stats.admitted
        ));
    }

    let burst = socket_intake(frames, round, defense, 0.0, sink.tracer, root)?;
    let first_due = burst.outcomes.iter().map(|o| o.due).min();
    let last_ack = burst.outcomes.iter().filter_map(|o| o.acked).max();
    let burst_s = match (first_due, last_ack) {
        (Some(start), Some(end)) => end.saturating_duration_since(start).as_secs_f64(),
        _ => f64::NAN,
    };
    sink.push(
        "ingress.burst_admit_per_s",
        burst.stats.admitted as f64 / burst_s,
        "1/s",
        conns,
    );
    sink.tracer.close(root);
    Ok(())
}

fn open_idle(addr: std::net::SocketAddr, count: usize) -> Result<Vec<TcpStream>, String> {
    (0..count)
        .map(|i| TcpStream::connect(addr).map_err(|e| format!("idle connection {i}: {e}")))
        .collect()
}

/// The event loop on its own, driven from this thread: the cost of one
/// scan pass and of one frame → reply exchange with no and with 1,024
/// idle neighbours, and what an idle server with 1,024 open connections
/// burns.
pub fn evloop_probes(sink: &mut Sink<'_>) -> Result<(), String> {
    const IDLE: usize = 1024;
    let root = sink.tracer.open("probe.evloop", None, NO_ROUND);
    let options = EvloopOptions {
        max_connections: IDLE + 64,
        ..EvloopOptions::default()
    };
    let mut evloop =
        EventLoop::bind("127.0.0.1:0", options.clone()).map_err(|e| format!("bind evloop: {e}"))?;
    let addr = evloop.local_addr();
    let mut events = Vec::new();
    let mut echo = |evloop: &mut EventLoop, client: &mut TcpStream| -> Result<(), String> {
        client
            .write_all(&atom_net::client_frame(b"ping"))
            .map_err(|e| format!("echo write: {e}"))?;
        // Poll until the frame surfaces, reply, then read the reply back.
        let mut replied = false;
        while !replied {
            events.clear();
            evloop.poll(&mut events);
            for event in events.drain(..) {
                if let Event::Frame { conn, payload } = event {
                    evloop.send(conn, &payload);
                    replied = true;
                }
            }
        }
        atom_net::read_client_frame(client, 1 << 10)
            .map(|_| ())
            .map_err(|e| format!("echo read: {e}"))
    };

    let (poll0_s, reps) = sink.probe("net.evloop.poll", root, || {
        let mut events = Vec::new();
        evloop.poll(&mut events)
    });
    sink.push("net.evloop.poll_us_c0", micros(poll0_s), "us", reps);
    let mut client = TcpStream::connect(addr).map_err(|e| format!("echo client: {e}"))?;
    client.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut failure = None;
    let (rtt1_s, reps) = sink.probe("net.evloop.echo", root, || {
        if let Err(e) = echo(&mut evloop, &mut client) {
            failure = Some(e);
        }
    });
    sink.push("net.evloop.echo_rtt_us_c1", micros(rtt1_s), "us", reps);

    // This thread is the loop's only driver, so the idle connections are
    // opened a listen backlog's worth at a time and accepted in between.
    let mut idle = Vec::with_capacity(IDLE);
    while idle.len() < IDLE {
        idle.extend(open_idle(addr, 64.min(IDLE - idle.len()))?);
        let deadline = Instant::now() + Duration::from_secs(10);
        while evloop.connections() < idle.len() + 1 && Instant::now() < deadline {
            let mut events = Vec::new();
            evloop.poll(&mut events);
        }
        if evloop.connections() < idle.len() + 1 {
            return Err(format!(
                "event loop accepted {} of {} connections",
                evloop.connections(),
                idle.len() + 1
            ));
        }
    }
    let (poll_s, reps) = sink.probe("net.evloop.poll", root, || {
        let mut events = Vec::new();
        evloop.poll(&mut events)
    });
    sink.push("net.evloop.poll_us_c1024", micros(poll_s), "us", reps);
    let (rtt_s, reps) = sink.probe("net.evloop.echo", root, || {
        if let Err(e) = echo(&mut evloop, &mut client) {
            failure = Some(e);
        }
    });
    sink.push("net.evloop.echo_rtt_us_c1024", micros(rtt_s), "us", reps);
    drop(idle);
    drop(client);
    evloop.close_all();
    drop(evloop);
    if let Some(error) = failure {
        return Err(error);
    }

    // An ingress server (its own thread) holding 1,024 idle connections:
    // the CPU the process burns while nothing happens.
    let server = IngressServer::bind(
        "127.0.0.1:0",
        IngressOptions {
            evloop: options,
            ..IngressOptions::default()
        },
    )
    .map_err(|e| format!("bind idle ingress: {e}"))?;
    let idle = open_idle(server.local_addr(), IDLE)?;
    std::thread::sleep(Duration::from_millis(100)); // let the accepts finish
    let window = Duration::from_millis(500);
    let cpu_before = sys::process_cpu_seconds();
    let ((), took, _) = sink
        .tracer
        .time("net.evloop.idle_serve", root, NO_ROUND, || {
            std::thread::sleep(window)
        });
    let idle_cpu = sys::process_cpu_seconds() - cpu_before;
    sink.push(
        "net.evloop.idle_cpu_share",
        idle_cpu / took.as_secs_f64(),
        "ratio",
        1,
    );
    drop(idle);
    server.shutdown();
    sink.tracer.close(root);
    Ok(())
}

/// The two mesh transports on their own: loopback TCP round trips at two
/// payload sizes, one-way streaming rate and connection set-up, against
/// the in-memory network's send + drain.
pub fn transport_probes(sink: &mut Sink<'_>) -> Result<(), String> {
    let root = sink.tracer.open("probe.transport", None, NO_ROUND);
    // Node 0 lives in process 0, node 1 in process 1.
    let bind = |me: usize| {
        TcpTransport::bind_any(2, vec![0, 1], me, TcpOptions::default())
            .map_err(|e| format!("bind tcp: {e}"))
    };
    let (pair, connect, _) = sink.tracer.time("net.tcp.connect", root, NO_ROUND, || {
        let (a, b) = (bind(0)?, bind(1)?);
        a.set_peer_addr(1, b.local_addr().to_string());
        b.set_peer_addr(0, a.local_addr().to_string());
        a.connect_peers().map_err(|e| format!("connect: {e}"))?;
        b.connect_peers().map_err(|e| format!("connect: {e}"))?;
        Ok::<_, String>((a, b))
    });
    let (a, b) = pair?;
    sink.push("net.tcp.connect_ms", connect.as_secs_f64() * 1e3, "ms", 1);
    let wait_for = |transport: &TcpTransport, node: usize, frames: usize| {
        let mut seen = 0;
        while seen < frames {
            let drained = transport.drain(node).len();
            seen += drained;
            if drained == 0 {
                std::thread::yield_now();
            }
        }
    };
    for (name, span, size) in [
        ("net.tcp.rtt_us_4k", "net.tcp.rtt_4k", 4 << 10),
        ("net.tcp.rtt_us_256k", "net.tcp.rtt_256k", 256 << 10),
    ] {
        let payload = vec![0x5Au8; size];
        let (rtt_s, reps) = sink.probe(span, root, || {
            a.send(0, 1, "bench/ping".into(), payload.clone());
            wait_for(&b, 1, 1);
            b.send(1, 0, "bench/pong".into(), payload.clone());
            wait_for(&a, 0, 1);
        });
        sink.push(name, micros(rtt_s), "us", reps);
    }
    let payload = vec![0xA5u8; 256 << 10];
    let frames = 64;
    let (stream_s, reps) = sink.probe("net.tcp.stream", root, || {
        for _ in 0..frames {
            a.send(0, 1, "bench/stream".into(), payload.clone());
        }
        wait_for(&b, 1, frames);
    });
    sink.push(
        "net.tcp.mb_per_s",
        (frames * payload.len()) as f64 / 1e6 / stream_s,
        "MB/s",
        reps,
    );
    a.shutdown();
    b.shutdown();

    let memory = InMemoryNetwork::local(2);
    let payload = vec![0x5Au8; 4 << 10];
    let (mem_s, reps) = sink.probe("net.mem.send_recv", root, || {
        memory.send(0, 1, "bench/ping", payload.clone());
        memory.drain(1).len()
    });
    sink.push("net.mem.send_recv_us", micros(mem_s), "us", reps);
    sink.tracer.close(root);
    Ok(())
}

/// The engine workers the replay's intake chunking mirrors.
pub fn auto_chunk(msgs: usize) -> usize {
    msgs.div_ceil(WORKERS).max(1)
}
