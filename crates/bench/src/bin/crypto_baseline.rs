//! Crypto-engine perf baseline: times the key batched-engine paths against
//! their naive counterparts, the shuffle argument at the frozen benchmark's
//! own shape, and writes `BENCH_crypto.json` (repo root) so CI and future
//! sessions can compare against a recorded baseline.
//!
//! Usage: `cargo run --release -p atom-bench --bin crypto_baseline --
//! [--out PATH] [--iters N]`
//!
//! The emitted JSON holds mean microseconds per operation plus the speedup
//! ratios the acceptance gates care about (`fixed_base_speedup`,
//! `lockstep_speedup`, `enc_batch_speedup`, `reenc_aggregation_speedup`)
//! and the absolute gates: `point_decode_ns` (validating a wire point is a
//! range check, not arithmetic: ≤ 200 ns where the Jacobi-symbol check it
//! replaced took ≈ 2,000), `shuffle_proof_bytes_per_ct` (≤ 0.35 of the
//! 352 B per ciphertext the per-element proof took) and the exact count
//! `shuffle_verify_chain_terms` (the `crypto.multiexp.terms` a chain
//! verification spends, ≤ (k+1)·2L·n + n + (6+2L)·k — a counter, so the gate
//! cannot trip on a contended host). The binary asserts the gates itself, so
//! a regression fails CI.
//!
//! The `EncProof` batch gate sits at 2×: its denominator — the naive
//! ladder — is pure exponentiation and runs at the kernel's speed, while
//! the batched path spends about 45 % of its time in transcript hashing and
//! scalar bookkeeping that no multiply touches (measured 2.25×; 4.2× on the
//! slower kernel before PR 12, when the gate was 3×).

use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use curve25519_dalek::constants::RISTRETTO_BASEPOINT_POINT;
use curve25519_dalek::field::{PowTable, P, U256};
use curve25519_dalek::ristretto::CompressedRistretto;
use curve25519_dalek::scalar::Scalar;

use atom_bench::json::Value;
use atom_crypto::batch::{
    verify_encryption_batch, verify_shuffle_batch, EncVerification, ShuffleVerification,
};
use atom_crypto::elgamal::{encrypt_message, reencrypt_message, shuffle, KeyPair};
use atom_crypto::encoding::{encode_chunk, encode_message, PAYLOAD_PER_POINT};
use atom_crypto::keccak::Shake256;
use atom_crypto::nizk::enc::{prove_encryption, verify_encryption};
use atom_crypto::nizk::reenc::{
    prove_reencryption_slice, verify_reencryption_slice, ReEncStatement,
};
use atom_crypto::nizk::shuffle::{prove_shuffle, ShuffleProof};

const BATCH: usize = 16;
/// Sub-batch sizes the aggregated `ReEncProof` is timed at.
const REENC_SIZES: [usize; 3] = [1, 16, 128];
/// Members in the benchmarked shuffle chain (one proof per member): the
/// frozen benchmark's group size.
const SHUF_MEMBERS: usize = 3;
/// Messages flowing through the benchmarked shuffle chain: one group's
/// share of a `bulk_nizk` round.
const SHUF_MSGS: usize = 512;
/// Their length: the benchmark's 160-byte microblog post, six components.
const SHUF_MSG_LEN: usize = 160;
/// Bases raised to one exponent by the lockstep measurement: the components
/// of a 160-byte trap message, i.e. one `reencrypt_message` peel.
const LOCKSTEP_BASES: usize = 7;

struct Args {
    out: String,
    iters: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        out: "BENCH_crypto.json".to_string(),
        iters: 20,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--out" => args.out = iter.next().expect("--out needs a path"),
            "--iters" => {
                args.iters = iter
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--iters needs a number")
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Minimum microseconds per call of `f` over `iters` timed runs (one
/// warm-up). The minimum — not the mean — is reported because it is robust
/// to scheduler noise on shared or single-core hosts; a noisy-neighbor
/// stall inflates some samples but never deflates the fastest one, so the
/// speedup gates below cannot fail spuriously.
fn time_us<T>(iters: usize, mut f: impl FnMut() -> T) -> f64 {
    std::hint::black_box(f());
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64() * 1e6);
    }
    best
}

/// Rounds of alternation in [`time_pair_us`] and the `ReEncProof` sweep.
const ALTERNATIONS: usize = 8;

/// [`time_us`] of two closures whose *ratio* a gate asserts, sampled in
/// alternating rounds: a host whose speed drifts between phases (shared VMs
/// do, by 12–25 %) then moves both sides of the ratio instead of one.
fn time_pair_us<A, B>(
    iters: usize,
    mut a: impl FnMut() -> A,
    mut b: impl FnMut() -> B,
) -> (f64, f64) {
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..ALTERNATIONS {
        best_a = best_a.min(time_us(iters, &mut a));
        best_b = best_b.min(time_us(iters, &mut b));
    }
    (best_a, best_b)
}

fn pow_naive(base: &U256, exp: &U256) -> U256 {
    let mut acc = U256::ONE;
    for i in (0..256).rev() {
        acc = P.mul(&acc, &acc);
        if exp.bit(i) {
            acc = P.mul(&acc, base);
        }
    }
    acc
}

/// The pre-optimization `EncProof` verifier, reconstructed: every
/// scalar-point multiplication runs the naive 256-bit square-and-multiply
/// ladder (what the seed's vendored group did for *all* multiplications,
/// including the basepoint-table stand-in). This is the "naive path" the
/// batch-verification speedup is measured against.
fn verify_encryption_naive(
    pk: &atom_crypto::PublicKey,
    group_id: u64,
    ct: &atom_crypto::MessageCiphertext,
    proof: &atom_crypto::nizk::enc::EncProof,
) {
    let naive_mul = |s: &Scalar, p: &curve25519_dalek::ristretto::RistrettoPoint| {
        let bytes = p.compress().to_bytes();
        let exp = U256::from_le_bytes(s.as_bytes());
        let base = U256::from_le_bytes(&bytes);
        pow_naive(&base, &exp)
    };
    // Recompute the Fiat-Shamir challenge exactly as the verifier does
    // (the transcript layout is part of the proof format).
    let mut t = atom_crypto::transcript::Transcript::new(b"atom-enc-proof");
    t.append_point(b"group-pk", &pk.0);
    t.append_u64(b"entry-group-id", group_id);
    t.append_u64(b"components", ct.components.len() as u64);
    for component in &ct.components {
        t.append_point(b"R", &component.r);
        t.append_point(b"c", &component.c);
        match &component.y {
            Some(y) => t.append_point(b"Y", y),
            None => t.append_bytes(b"Y", b"bottom"),
        }
    }
    for a in &proof.announcements {
        t.append_point(b"announcement", a);
    }
    let challenge = t.challenge_scalar(b"challenge");
    let basepoint = RISTRETTO_BASEPOINT_POINT;
    for ((component, a), u) in ct
        .components
        .iter()
        .zip(proof.announcements.iter())
        .zip(proof.responses.iter())
    {
        let lhs = naive_mul(u, &basepoint);
        let a_bytes = U256::from_le_bytes(&a.compress().to_bytes());
        let rhs = P.mul(&a_bytes, &naive_mul(&challenge, &component.r));
        // Group elements are classes {v, p − v}: equal up to sign.
        assert!(lhs == rhs || lhs == P.neg(&rhs), "honest proof must verify");
    }
}

fn main() {
    let args = parse_args();

    let base = U256([0x1234_5678_9abc_def0, 77, 3, 0x0fff_ffff_ffff]);
    let exp = U256([
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d >> 2,
    ]);

    // Every gated ratio — `lockstep_speedup`, `fixed_base_speedup`,
    // `enc_batch_speedup_vs_naive`, `reenc_aggregation_speedup` — samples
    // its two sides alternately (see `time_pair_us`).
    let table_build_us = time_us(args.iters, || PowTable::new(&P, &base));
    let table_kib = PowTable::BYTES as f64 / 1024.0;
    let table = PowTable::new(&P, &base);
    // Well under a microsecond: blocks of 100 calls per sample, so the
    // timer's own ~0.1 µs is not a sixth of the reading.
    let (pow_naive_us, pow_fixed_base_us) = time_pair_us(
        args.iters,
        || pow_naive(&base, &exp),
        || {
            for _ in 0..100 {
                std::hint::black_box(table.pow(&P, std::hint::black_box(&exp)));
            }
        },
    );
    let pow_fixed_base_us = pow_fixed_base_us / 100.0;
    let lockstep_bases: [U256; LOCKSTEP_BASES] =
        core::array::from_fn(|i| P.mul(&base, &U256::from_u64(i as u64 + 2)));
    let (pow_windowed_us, pow_lockstep_us) = time_pair_us(
        args.iters,
        || P.pow(&base, &exp),
        || {
            let mut lanes = lockstep_bases;
            P.pow_lockstep(&mut lanes, &exp);
            lanes
        },
    );
    let pow_lockstep_us = pow_lockstep_us / LOCKSTEP_BASES as f64;
    let lockstep_speedup = pow_windowed_us / pow_lockstep_us;
    // The single multiplications are nanosecond-scale: time blocks of 1000
    // chained calls per sample so each sample is well above timer
    // resolution.
    let mul_fold_us = time_us(args.iters, || {
        let mut acc = base;
        for _ in 0..1000 {
            acc = P.mul(&acc, &exp);
        }
        acc
    }) / 1000.0;

    // Per wire point: validating a received encoding, and embedding one
    // full chunk of message bytes. Blocks of 1000 calls, as above —
    // microseconds per block are nanoseconds per call.
    let encodings: Vec<CompressedRistretto> = (0..1000u32)
        .map(|i| (Scalar::from(u64::from(i) + 2) * RISTRETTO_BASEPOINT_POINT).compress())
        .collect();
    let point_decode_ns = time_us(args.iters, || {
        for encoding in &encodings {
            std::hint::black_box(encoding.decompress().expect("valid encoding"));
        }
    });
    let chunk = [0xa5u8; PAYLOAD_PER_POINT];
    let embed_ns_per_point = time_us(args.iters, || {
        for _ in 0..1000 {
            std::hint::black_box(encode_chunk(std::hint::black_box(&chunk)).unwrap());
        }
    });

    // EncProof: per-proof vs batch over BATCH submissions.
    let mut rng = StdRng::seed_from_u64(1);
    let kp = KeyPair::generate(&mut rng);
    let enc_items: Vec<_> = (0..BATCH)
        .map(|i| {
            let points = encode_message(format!("baseline {i}").as_bytes()).unwrap();
            let (ct, randomness) = encrypt_message(&kp.public, &points, &mut rng);
            let proof = prove_encryption(&kp.public, 0, &ct, &randomness, &mut rng).unwrap();
            (ct, proof)
        })
        .collect();
    let enc_refs: Vec<EncVerification<'_>> = enc_items
        .iter()
        .map(|(ct, proof)| EncVerification {
            pk: &kp.public,
            group_id: 0,
            ciphertext: ct,
            proof,
        })
        .collect();
    let enc_per_proof_us = time_us(args.iters, || {
        for (ct, proof) in &enc_items {
            verify_encryption(&kp.public, 0, ct, proof).unwrap();
        }
    });
    let (enc_naive_us, enc_batch_us) = time_pair_us(
        args.iters,
        || {
            for (ct, proof) in &enc_items {
                verify_encryption_naive(&kp.public, 0, ct, proof);
            }
        },
        || verify_encryption_batch(&enc_refs).unwrap(),
    );

    // ReEncProof: one aggregated proof per sub-batch, proved and verified at
    // each sub-batch size; reported per ciphertext.
    let server = KeyPair::generate(&mut rng);
    let next = KeyPair::generate(&mut rng);
    let (reenc_inputs, reenc_outputs): (Vec<_>, Vec<_>) = (0..REENC_SIZES[2])
        .map(|i| {
            let points = encode_message(format!("hop {i}").as_bytes()).unwrap();
            let (input, _) = encrypt_message(&server.public, &points, &mut rng);
            let reencrypted =
                reencrypt_message(&server.secret.0, Some(&next.public), &input, &mut rng);
            (input, reencrypted)
        })
        .unzip();
    let (reenc_outputs, reenc_witnesses): (Vec<_>, Vec<_>) = reenc_outputs.into_iter().unzip();
    let statements: Vec<ReEncStatement<'_>> = reenc_inputs
        .iter()
        .zip(&reenc_outputs)
        .map(|(input, output)| ReEncStatement {
            peel_public: &server.public.0,
            next_pk: Some(&next.public),
            input,
            output,
        })
        .collect();
    let witnesses: Vec<&[_]> = reenc_witnesses.iter().map(Vec::as_slice).collect();
    // Each round of the sweep visits every size, so the sizes 1 and 128 the
    // aggregation gate divides are sampled alternately.
    let mut reenc_us_per_ct = [(f64::INFINITY, f64::INFINITY); REENC_SIZES.len()];
    for _ in 0..ALTERNATIONS {
        for ((prove_us, verify_us), n) in reenc_us_per_ct.iter_mut().zip(REENC_SIZES) {
            let (statements, witnesses) = (&statements[..n], &witnesses[..n]);
            let prove = time_us(args.iters, || {
                prove_reencryption_slice(statements, witnesses, &mut rng).unwrap()
            });
            let proof = prove_reencryption_slice(statements, witnesses, &mut rng).unwrap();
            let verify = time_us(args.iters, || {
                verify_reencryption_slice(statements, &proof).unwrap()
            });
            *prove_us = prove_us.min(prove / n as f64);
            *verify_us = verify_us.min(verify / n as f64);
        }
    }
    let [(reenc_prove_1, reenc_verify_1), (reenc_prove_16, reenc_verify_16), (reenc_prove_128, reenc_verify_128)] =
        reenc_us_per_ct;
    let reenc_aggregation_speedup =
        (reenc_prove_1 + reenc_verify_1) / (reenc_prove_128 + reenc_verify_128);

    // The sponge under every transcript: absorb cost per byte over 64 rate
    // blocks (the permutation itself is ~2.9 ns/byte of that).
    let block = [0x5au8; 136 * 64];
    let keccak_absorb_ns_per_byte = time_us(args.iters, || {
        let mut xof = Shake256::new();
        xof.absorb(&block);
        xof
    }) * 1e3
        / block.len() as f64;

    // ShufProof at the shape of a `bulk_nizk` group step: proving one link,
    // and one combined RLC check over the SHUF_MEMBERS-link chain (each
    // link's output is the next link's input, exactly what the group engine
    // hands to `verify_shuffle_batch`), per ciphertext and link.
    let group = KeyPair::generate(&mut rng);
    let initial: Vec<_> = (0..SHUF_MSGS)
        .map(|i| {
            let points = encode_message(&[i as u8; SHUF_MSG_LEN]).unwrap();
            encrypt_message(&group.public, &points, &mut rng).0
        })
        .collect();
    let shuf_components = initial[0].components.len();
    let mut stages = vec![initial];
    let mut shuffle_proofs: Vec<ShuffleProof> = Vec::with_capacity(SHUF_MEMBERS);
    let mut shuffle_prove_us_per_ct = f64::INFINITY;
    for _ in 0..SHUF_MEMBERS {
        let inputs = stages.last().unwrap();
        let (outputs, witness) = shuffle(&group.public, inputs, &mut rng).unwrap();
        let started = Instant::now();
        let proof = prove_shuffle(&group.public, inputs, &outputs, &witness, &mut rng).unwrap();
        shuffle_prove_us_per_ct =
            shuffle_prove_us_per_ct.min(started.elapsed().as_secs_f64() * 1e6 / SHUF_MSGS as f64);
        shuffle_proofs.push(proof);
        stages.push(outputs);
    }
    let shuffle_items: Vec<ShuffleVerification<'_>> = shuffle_proofs
        .iter()
        .enumerate()
        .map(|(link, proof)| ShuffleVerification {
            pk: &group.public,
            inputs: &stages[link],
            outputs: &stages[link + 1],
            proof,
        })
        .collect();
    let chain_cts = (SHUF_MEMBERS * SHUF_MSGS) as f64;
    let shuffle_verify_chain_us_per_ct =
        time_us(args.iters, || verify_shuffle_batch(&shuffle_items).unwrap()) / chain_cts;
    let shuffle_proof_bytes_per_ct = shuffle_proofs[0].encoded_len() as f64 / SHUF_MSGS as f64;
    // What one chain verification feeds its multi-exponentiations, read
    // from the program's own counter: every distinct point once.
    let multiexp_terms = || {
        atom_obs::counter_snapshot()
            .into_iter()
            .find(|(name, _)| name == "crypto.multiexp.terms")
            .map_or(0, |(_, value)| value)
    };
    atom_obs::set_enabled(true);
    let terms_before = multiexp_terms();
    verify_shuffle_batch(&shuffle_items).unwrap();
    let shuffle_verify_chain_terms = multiexp_terms() - terms_before;
    atom_obs::set_enabled(false);
    let shuffle_verify_chain_terms_bound = (SHUF_MEMBERS + 1) * 2 * shuf_components * SHUF_MSGS
        + SHUF_MSGS
        + (6 + 2 * shuf_components) * SHUF_MEMBERS;

    let fields = [
        ("batch_size", BATCH as f64),
        ("pow_naive_us", pow_naive_us),
        ("pow_windowed_us", pow_windowed_us),
        ("pow_lockstep_us", pow_lockstep_us),
        ("pow_fixed_base_us", pow_fixed_base_us),
        ("table_build_us", table_build_us),
        ("table_kib", table_kib),
        ("mul_fold_us", mul_fold_us),
        ("point_decode_ns", point_decode_ns),
        ("embed_ns_per_point", embed_ns_per_point),
        ("enc_verify_naive_us", enc_naive_us),
        ("enc_verify_per_proof_us", enc_per_proof_us),
        ("enc_verify_batch_us", enc_batch_us),
        ("reenc_prove_us_per_ct_1", reenc_prove_1),
        ("reenc_verify_us_per_ct_1", reenc_verify_1),
        ("reenc_prove_us_per_ct_16", reenc_prove_16),
        ("reenc_verify_us_per_ct_16", reenc_verify_16),
        ("reenc_prove_us_per_ct_128", reenc_prove_128),
        ("reenc_verify_us_per_ct_128", reenc_verify_128),
        ("keccak_absorb_ns_per_byte", keccak_absorb_ns_per_byte),
        ("shuffle_prove_us_per_ct", shuffle_prove_us_per_ct),
        (
            "shuffle_verify_chain_us_per_ct",
            shuffle_verify_chain_us_per_ct,
        ),
        ("shuffle_proof_bytes_per_ct", shuffle_proof_bytes_per_ct),
        (
            "shuffle_verify_chain_terms",
            shuffle_verify_chain_terms as f64,
        ),
        (
            "shuffle_verify_chain_terms_bound",
            shuffle_verify_chain_terms_bound as f64,
        ),
        ("windowed_speedup", pow_naive_us / pow_windowed_us),
        ("lockstep_speedup", lockstep_speedup),
        ("fixed_base_speedup", pow_naive_us / pow_fixed_base_us),
        ("enc_batch_speedup_vs_naive", enc_naive_us / enc_batch_us),
        (
            "enc_batch_speedup_vs_per_proof",
            enc_per_proof_us / enc_batch_us,
        ),
        ("reenc_aggregation_speedup", reenc_aggregation_speedup),
    ];
    let fields = fields.map(|(key, n)| (key.to_string(), Value::Num(n)));
    let json = atom_bench::recorded_json(&Value::Obj(fields.into()), &[]);
    print!("{json}");
    std::fs::write(&args.out, &json).expect("write baseline json");
    eprintln!("wrote {}", args.out);

    assert!(
        pow_naive_us / pow_fixed_base_us >= 6.0,
        "fixed-base exponentiation must be at least 6x over the naive ladder"
    );
    assert!(
        lockstep_speedup >= 1.25,
        "seven bases through one exponent in lockstep must each cost at most 1/1.25 of a lone pow"
    );
    assert!(
        point_decode_ns <= 200.0,
        "validating a wire point must stay a range check (<= 200 ns)"
    );
    assert!(
        enc_naive_us / enc_batch_us >= 2.0,
        "batched EncProof verification must be at least 2x over the naive path"
    );
    assert!(
        reenc_aggregation_speedup >= 2.5,
        "one ReEncProof over 128 messages must cost at most 1/2.5 of 128 single-message proofs"
    );
    assert!(
        shuffle_verify_chain_terms <= shuffle_verify_chain_terms_bound as u64,
        "a chain verification must spend one multi-exponentiation term per distinct point"
    );
    assert!(
        shuffle_proof_bytes_per_ct <= 0.35 * 11.0 * 32.0,
        "a ShufProof must stay within 0.35 of the per-element proof's 352 B per ciphertext"
    );
}
