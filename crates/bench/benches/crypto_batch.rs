//! Criterion microbenchmarks for the batched crypto engine: naive vs
//! windowed vs fixed-base exponentiation, the multiply and square kernel,
//! per-proof vs RLC-batched `EncProof` verification, and one `ReEncProof` per
//! message vs one per sub-batch.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use curve25519_dalek::field::{PowTable, P, U256};
use curve25519_dalek::ristretto::RistrettoPoint;
use curve25519_dalek::scalar::Scalar;

use atom_crypto::batch::{verify_encryption_batch, verify_reencryption_batch, EncVerification};
use atom_crypto::elgamal::{encrypt_message, reencrypt_message, KeyPair};
use atom_crypto::encoding::encode_message;
use atom_crypto::nizk::enc::{prove_encryption, verify_encryption, EncProof};
use atom_crypto::nizk::reenc::{
    prove_reencryption, prove_reencryption_slice, verify_reencryption_slice, ReEncStatement,
};
use atom_crypto::MessageCiphertext;

/// Square-and-multiply over all 256 exponent bits: the pre-optimization
/// ladder, kept here as the comparison baseline.
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

fn bench_field(c: &mut Criterion) {
    let base = U256([0x1234_5678_9abc_def0, 77, 3, 0x0fff_ffff_ffff]);
    let exp = U256([
        0x9e37_79b9_7f4a_7c15,
        0xbf58_476d_1ce4_e5b9,
        0x94d0_49bb_1331_11eb,
        0x2545_f491_4f6c_dd1d >> 2,
    ]);

    let mut group = c.benchmark_group("field");
    group.sample_size(50);
    group.bench_function("pow_naive", |b| b.iter(|| pow_naive(&base, &exp)));
    group.bench_function("pow_windowed", |b| b.iter(|| P.pow(&base, &exp)));
    let table = PowTable::new(&P, &base);
    group.bench_function("pow_fixed_base", |b| b.iter(|| table.pow(&P, &exp)));

    // Both operands are below `p` already (small top limbs), i.e. canonical.
    group.bench_function("mul_fold", |b| b.iter(|| P.mul(&base, &exp)));
    group.bench_function("sqr", |b| b.iter(|| P.sqr(&base)));
    group.finish();
}

fn enc_batch(count: usize) -> (KeyPair, Vec<(MessageCiphertext, EncProof)>) {
    let mut rng = StdRng::seed_from_u64(1);
    let kp = KeyPair::generate(&mut rng);
    let items = (0..count)
        .map(|i| {
            let points = encode_message(format!("bench submission {i}").as_bytes()).unwrap();
            let (ct, randomness) = encrypt_message(&kp.public, &points, &mut rng);
            let proof = prove_encryption(&kp.public, 0, &ct, &randomness, &mut rng).unwrap();
            (ct, proof)
        })
        .collect();
    (kp, items)
}

fn bench_verification(c: &mut Criterion) {
    const BATCH: usize = 16;
    let (kp, items) = enc_batch(BATCH);
    let refs: Vec<EncVerification<'_>> = items
        .iter()
        .map(|(ct, proof)| EncVerification {
            pk: &kp.public,
            group_id: 0,
            ciphertext: ct,
            proof,
        })
        .collect();

    let mut group = c.benchmark_group("verify");
    group.sample_size(20);
    group.bench_function("enc_per_proof_16", |b| {
        b.iter(|| {
            for (ct, proof) in &items {
                verify_encryption(&kp.public, 0, ct, proof).unwrap();
            }
        })
    });
    group.bench_function("enc_batch_16", |b| {
        b.iter(|| verify_encryption_batch(&refs).unwrap())
    });

    let mut rng = StdRng::seed_from_u64(2);
    let server = KeyPair::generate(&mut rng);
    let next = KeyPair::generate(&mut rng);
    let hops: Vec<_> = (0..BATCH)
        .map(|i| {
            let points = encode_message(format!("bench hop {i}").as_bytes()).unwrap();
            let (input, _) = encrypt_message(&server.public, &points, &mut rng);
            let (output, witnesses) =
                reencrypt_message(&server.secret.0, Some(&next.public), &input, &mut rng);
            (input, output, witnesses)
        })
        .collect();
    let statements: Vec<ReEncStatement<'_>> = hops
        .iter()
        .map(|(input, output, _)| ReEncStatement {
            peel_public: &server.public.0,
            next_pk: Some(&next.public),
            input,
            output,
        })
        .collect();
    let witnesses: Vec<&[_]> = hops.iter().map(|(_, _, w)| w.as_slice()).collect();
    let single_proofs: Vec<_> = statements
        .iter()
        .zip(&witnesses)
        .map(|(stmt, witnesses)| prove_reencryption(stmt, witnesses, &mut rng).unwrap())
        .collect();
    let proof = prove_reencryption_slice(&statements, &witnesses, &mut rng).unwrap();

    group.bench_function("reenc_proof_per_message_16", |b| {
        b.iter(|| verify_reencryption_batch(&statements, &single_proofs).unwrap())
    });
    group.bench_function("reenc_proof_per_sub_batch_16", |b| {
        b.iter(|| verify_reencryption_slice(&statements, &proof).unwrap())
    });
    group.finish();
}

fn bench_multiscalar(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let points: Vec<RistrettoPoint> = (0..16).map(|_| RistrettoPoint::random(&mut rng)).collect();
    let scalars: Vec<Scalar> = (0..16).map(|_| Scalar::random(&mut rng)).collect();

    let mut group = c.benchmark_group("multiexp");
    group.sample_size(20);
    group.bench_function("separate_16", |b| {
        b.iter(|| {
            scalars
                .iter()
                .zip(points.iter())
                .map(|(s, p)| s * p)
                .sum::<RistrettoPoint>()
        })
    });
    group.bench_function("straus_16", |b| {
        b.iter(|| RistrettoPoint::multiscalar_mul(&scalars, &points))
    });
    group.finish();
}

criterion_group!(benches, bench_field, bench_verification, bench_multiscalar);
criterion_main!(benches);
