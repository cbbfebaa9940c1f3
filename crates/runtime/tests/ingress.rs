//! End-to-end tests of the client ingress tier: real sockets into an
//! [`IngressServer`], admitted submissions streamed into an engine round.
//!
//! The load-bearing assertion is *equivalence*: a round fed by the
//! ingress server over TCP loopback produces byte-identical output to the
//! same submissions materialized directly into a `RoundJob` — the socket
//! path adds admission control, not semantics, whether the clients come one
//! at a time or as a concurrent swarm. Around it: floods past the
//! admission queue shed (observably, via `atom-obs`) instead of growing
//! memory, over-rate clients get retry hints, malformed and slow-drip
//! clients are convicted without disturbing their honest neighbours.

use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::{derive_setup, RoundSetup};
use atom_core::message::make_nizk_submission;
use atom_core::NizkSubmission;
use atom_net::evloop::{client_frame, read_client_frame, EvloopOptions};
use atom_runtime::wire::{self, ClientSubmission, Frame, SubmitFrame};
use atom_runtime::{
    Engine, EngineOptions, IngressOptions, IngressServer, RoundJob, RoundSubmissions,
};
use curve25519_dalek::field::{P, U256};
use rand::rngs::StdRng;
use rand::SeedableRng;

const APP: u16 = 5;

/// `atom-obs` state is process-global: tests that read it hold this.
static OBS_LOCK: Mutex<()> = Mutex::new(());

fn test_setup(seed: u64) -> (AtomConfig, RoundSetup) {
    let mut config = AtomConfig::test_default();
    config.defense = Defense::Nizk;
    config.num_groups = 3;
    config.num_servers = (config.num_groups * 2).max(config.group_size);
    config.iterations = 2;
    config.message_len = 32;
    config.beacon_seed = seed;
    let setup = derive_setup(&config).unwrap();
    (config, setup)
}

fn test_submissions(config: &AtomConfig, setup: &RoundSetup, n: usize) -> Vec<NizkSubmission> {
    let mut rng = StdRng::seed_from_u64(0x1234_5678);
    (0..n)
        .map(|i| {
            let gid = i % config.num_groups;
            make_nizk_submission(
                gid,
                &setup.groups[gid].public_key,
                format!("client {i}").as_bytes(),
                config.message_len,
                &mut rng,
            )
            .unwrap()
            .0
        })
        .collect()
}

fn ingress_options(config: &AtomConfig) -> IngressOptions {
    IngressOptions {
        round: config.round as usize,
        defense: Defense::Nizk,
        app: APP,
        rate: 10_000.0,
        burst: 1_000.0,
        queue_capacity: 1 << 12,
        retry_after: Duration::from_millis(50),
        evloop: EvloopOptions::default(),
    }
}

/// Sends one submission as client `index` on a fresh connection and
/// returns the decoded ack.
fn submit_once(
    server: &IngressServer,
    round: usize,
    index: u64,
    submission: &NizkSubmission,
) -> wire::SubmitAckFrame {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let payload = wire::encode_submit(&SubmitFrame {
        round,
        client: index,
        app: APP,
        submission: ClientSubmission::Nizk(submission.clone()),
    });
    use std::io::Write;
    stream.write_all(&client_frame(&payload)).unwrap();
    let ack = read_client_frame(&mut stream, 1 << 20).unwrap();
    match wire::decode(&ack).unwrap() {
        Frame::SubmitAck(ack) => ack,
        other => panic!("expected a submit ack, got {other:?}"),
    }
}

#[test]
fn socket_fed_round_is_byte_identical_to_the_materialized_path() {
    let (config, setup) = test_setup(0xE0_01);
    let submissions = test_submissions(&config, &setup, 12);
    let server = IngressServer::bind("127.0.0.1:0", ingress_options(&config)).unwrap();

    // Clients submit in a scrambled order over individual connections —
    // the ingress tier's sort-by-client-index must erase arrival order.
    for &index in &[7usize, 2, 11, 0, 5, 9, 1, 10, 4, 8, 3, 6] {
        let ack = submit_once(
            &server,
            config.round as usize,
            index as u64,
            &submissions[index],
        );
        assert!(!ack.shed, "client {index} was shed");
        assert_eq!(ack.retry_after, Duration::ZERO);
    }

    let source = server.source(12, Duration::from_secs(10)).unwrap();
    server.shutdown();

    // Stream the admitted submissions through a bounded intake window and
    // watch the in-flight gauge.
    let mut options = EngineOptions::with_workers(2);
    options.intake_window = 2;
    options.intake_chunk = 4;
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    atom_obs::reset();
    let streamed = Engine::new(options)
        .run_round(RoundJob::new(
            setup.clone(),
            RoundSubmissions::Stream(Arc::new(source)),
            0xE0_01,
        ))
        .unwrap();
    let peak = atom_obs::gauge_peak("engine.intake.peak_in_flight").unwrap_or(0);
    assert!(
        peak > 0 && peak <= (2 * 4) as u64,
        "intake window leaked: peak {peak} in flight"
    );

    let materialized = Engine::with_workers(2)
        .run_round(RoundJob::new(
            setup,
            RoundSubmissions::Nizk(submissions),
            0xE0_01,
        ))
        .unwrap();

    assert_eq!(streamed.output.plaintexts, materialized.output.plaintexts);
    assert_eq!(streamed.output.per_group, materialized.output.per_group);
    assert_eq!(
        streamed.output.routed_ciphertexts,
        materialized.output.routed_ciphertexts
    );
    assert_eq!(streamed.output.plaintexts.len(), 12);
}

/// A concurrent swarm on the one ingress thread: every connection is open
/// before any client sends a byte (128 fit the listener's backlog, so no
/// connect waits out a dropped SYN), each client submits once and gets
/// exactly one ack, none shed, and the admitted round mixes byte-identically
/// to the same submissions materialized.
#[test]
fn a_concurrent_swarm_is_admitted_whole_and_mixes_like_the_materialized_round() {
    const CLIENTS: usize = 128;
    let (config, setup) = test_setup(0xE0_09);
    let submissions = test_submissions(&config, &setup, CLIENTS);
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    atom_obs::reset();
    let server = IngressServer::bind("127.0.0.1:0", ingress_options(&config)).unwrap();

    let mut clients: Vec<TcpStream> = (0..CLIENTS)
        .map(|_| TcpStream::connect(server.local_addr()).unwrap())
        .collect();
    use std::io::Write;
    for (index, (stream, submission)) in clients.iter_mut().zip(&submissions).enumerate() {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let payload = wire::encode_submit(&SubmitFrame {
            round: config.round as usize,
            client: index as u64,
            app: APP,
            submission: ClientSubmission::Nizk(submission.clone()),
        });
        stream.write_all(&client_frame(&payload)).unwrap();
    }
    for (index, stream) in clients.iter_mut().enumerate() {
        match wire::decode(&read_client_frame(stream, 1 << 20).unwrap()).unwrap() {
            Frame::SubmitAck(ack) => assert!(!ack.shed, "client {index} was shed"),
            other => panic!("client {index}: expected a submit ack, got {other:?}"),
        }
    }
    assert_eq!(server.stats().admitted, CLIENTS as u64);
    let peak = atom_obs::gauge_peak("net.evloop.connections.peak").unwrap_or(0);
    assert!(
        peak >= CLIENTS as u64,
        "only {peak} connections open at once"
    );

    let source = server.source(CLIENTS, Duration::from_secs(10)).unwrap();
    server.shutdown();
    // Exactly one ack each: the next thing a client reads is the close.
    for (index, stream) in clients.iter_mut().enumerate() {
        assert!(
            read_client_frame(stream, 1 << 20).is_err(),
            "client {index} got a second frame"
        );
    }

    let streamed = Engine::with_workers(2)
        .run_round(RoundJob::new(
            setup.clone(),
            RoundSubmissions::Stream(Arc::new(source)),
            0xE0_09,
        ))
        .unwrap();
    let materialized = Engine::with_workers(2)
        .run_round(RoundJob::new(
            setup,
            RoundSubmissions::Nizk(submissions),
            0xE0_09,
        ))
        .unwrap();
    assert_eq!(streamed.output.plaintexts, materialized.output.plaintexts);
    assert_eq!(streamed.output.per_group, materialized.output.per_group);
    assert_eq!(
        streamed.output.routed_ciphertexts,
        materialized.output.routed_ciphertexts
    );
    assert_eq!(streamed.output.plaintexts.len(), CLIENTS);
}

#[test]
fn duplicate_client_indices_keep_the_first_submission() {
    let (config, setup) = test_setup(0xE0_02);
    let submissions = test_submissions(&config, &setup, 3);
    let server = IngressServer::bind("127.0.0.1:0", ingress_options(&config)).unwrap();

    for (index, submission) in submissions.iter().enumerate() {
        assert!(!submit_once(&server, config.round as usize, index as u64, submission).shed);
    }
    // Client 1 submits again with different bytes; the replay is admitted
    // at the queue but deduplicated at source time.
    assert!(!submit_once(&server, config.round as usize, 1, &submissions[2]).shed);

    let source = server.source(4, Duration::from_secs(10)).unwrap();
    use atom_runtime::SubmissionSource as _;
    assert_eq!(source.total(), 3, "duplicate client index survived dedup");
    let atom_runtime::SubmissionBlock::Nizk(block) = source.generate((0, 3)).unwrap() else {
        panic!("nizk ingress must yield nizk blocks");
    };
    assert_eq!(block, submissions, "dedup must keep first-arrival bytes");
}

#[test]
fn a_flood_past_the_admission_queue_sheds_observably() {
    let (config, setup) = test_setup(0xE0_03);
    let submissions = test_submissions(&config, &setup, 1);
    let mut options = ingress_options(&config);
    options.queue_capacity = 4;
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    atom_obs::reset();
    let server = IngressServer::bind("127.0.0.1:0", options).unwrap();

    // 20 distinct clients flood a queue that holds 4: exactly 4 admitted,
    // 16 shed with retry hints, and nobody hangs or OOMs.
    let mut shed = 0;
    for index in 0..20u64 {
        let ack = submit_once(&server, config.round as usize, index, &submissions[0]);
        if ack.shed {
            assert_eq!(ack.retry_after, Duration::from_millis(50));
            shed += 1;
        }
    }
    assert_eq!(shed, 16, "queue bound not enforced");
    let stats = server.stats();
    assert_eq!(stats.offered, 20);
    assert_eq!(stats.admitted, 4);
    assert_eq!(stats.shed_queue, 16);
    assert_eq!(stats.offered, stats.admitted + stats.shed_queue);

    // The shed counter is observable through atom-obs, not just stats().
    assert_eq!(atom_obs::counter("ingress.shed.queue"), 16);

    // Draining the queue restores capacity: the server is alive, not hung.
    let source = server.source(4, Duration::from_secs(5)).unwrap();
    use atom_runtime::SubmissionSource as _;
    assert_eq!(source.total(), 4);
    assert!(!submit_once(&server, config.round as usize, 99, &submissions[0]).shed);
}

#[test]
fn over_rate_clients_are_shed_with_a_retry_hint() {
    let (config, setup) = test_setup(0xE0_04);
    let submissions = test_submissions(&config, &setup, 1);
    let mut options = ingress_options(&config);
    options.rate = 5.0;
    options.burst = 2.0;
    let server = IngressServer::bind("127.0.0.1:0", options).unwrap();

    // One connection fires 8 submissions back to back: the 2-token burst
    // admits the head, the rest are shed (refill over the test's few
    // milliseconds is < 1 token).
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    use std::io::Write;
    let mut admitted = 0;
    let mut shed = 0;
    for index in 0..8u64 {
        let payload = wire::encode_submit(&SubmitFrame {
            round: config.round as usize,
            client: index,
            app: APP,
            submission: ClientSubmission::Nizk(submissions[0].clone()),
        });
        stream.write_all(&client_frame(&payload)).unwrap();
        let ack = read_client_frame(&mut stream, 1 << 20).unwrap();
        match wire::decode(&ack).unwrap() {
            Frame::SubmitAck(ack) if ack.shed => {
                assert!(ack.retry_after > Duration::ZERO, "shed ack without a hint");
                shed += 1;
            }
            Frame::SubmitAck(_) => admitted += 1,
            other => panic!("expected a submit ack, got {other:?}"),
        }
    }
    assert_eq!(admitted, 2, "burst allowance misapplied");
    assert_eq!(shed, 6);
    assert_eq!(server.stats().shed_rate, 6);

    // A different connection has its own bucket and is admitted at once.
    assert!(!submit_once(&server, config.round as usize, 50, &submissions[0]).shed);
}

#[test]
fn wrong_round_submissions_are_shed_not_convicted() {
    let (config, setup) = test_setup(0xE0_05);
    let submissions = test_submissions(&config, &setup, 1);
    let server = IngressServer::bind("127.0.0.1:0", ingress_options(&config)).unwrap();

    // An early client targets the next round: shed with a retry hint, and
    // the connection survives to submit the right round.
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    use std::io::Write;
    for (round_offset, expect_shed) in [(1usize, true), (0, false)] {
        let payload = wire::encode_submit(&SubmitFrame {
            round: config.round as usize + round_offset,
            client: 0,
            app: APP,
            submission: ClientSubmission::Nizk(submissions[0].clone()),
        });
        stream.write_all(&client_frame(&payload)).unwrap();
        let ack = read_client_frame(&mut stream, 1 << 20).unwrap();
        match wire::decode(&ack).unwrap() {
            Frame::SubmitAck(ack) => assert_eq!(ack.shed, expect_shed),
            other => panic!("expected a submit ack, got {other:?}"),
        }
    }
    assert_eq!(server.stats().wrong_round, 1);
}

#[test]
fn malformed_and_non_submit_frames_close_the_connection() {
    let (config, setup) = test_setup(0xE0_06);
    let submissions = test_submissions(&config, &setup, 1);
    let _obs = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    atom_obs::reset();
    let server = IngressServer::bind("127.0.0.1:0", ingress_options(&config)).unwrap();

    use std::io::Write;
    // Undecodable garbage in a well-framed payload.
    let mut garbage = TcpStream::connect(server.local_addr()).unwrap();
    garbage
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    garbage.write_all(&client_frame(&[0xFF, 1, 2, 3])).unwrap();
    assert!(
        read_client_frame(&mut garbage, 1 << 20).is_err(),
        "garbage submission must close the connection, not be acked"
    );

    // A well-formed frame of a kind clients never send (here the server's
    // own `submit_ack`) on the client edge is also a violation.
    let mesh = wire::encode_submit_ack(&wire::SubmitAckFrame {
        round: config.round as usize,
        shed: false,
        retry_after: Duration::ZERO,
    });
    let mut wrong_kind = TcpStream::connect(server.local_addr()).unwrap();
    wrong_kind
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    wrong_kind.write_all(&client_frame(&mesh)).unwrap();
    assert!(read_client_frame(&mut wrong_kind, 1 << 20).is_err());

    // An honest submission re-encoded: one ciphertext point `v` swapped for
    // `p − v`, the other residue of the same group element. Each element
    // has one encoding, so this is malformed, not an equal frame in
    // different bytes.
    let point = submissions[0].ciphertext.components[0]
        .c
        .compress()
        .to_bytes();
    let mut reencoded = wire::encode_submit(&SubmitFrame {
        round: config.round as usize,
        client: 0,
        app: APP,
        submission: ClientSubmission::Nizk(submissions[0].clone()),
    });
    let point_at = reencoded
        .windows(32)
        .position(|window| window == point)
        .unwrap();
    reencoded[point_at..point_at + 32]
        .copy_from_slice(&P.neg(&U256::from_le_bytes(&point)).to_le_bytes());
    let mut twin = TcpStream::connect(server.local_addr()).unwrap();
    twin.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    twin.write_all(&client_frame(&reencoded)).unwrap();
    assert!(read_client_frame(&mut twin, 1 << 20).is_err());

    assert_eq!(server.stats().malformed, 3);
    assert_eq!(atom_obs::counter("ingress.rejected.malformed"), 3);

    // Honest traffic is untouched by the convictions.
    assert!(!submit_once(&server, config.round as usize, 0, &submissions[0]).shed);
}

#[test]
fn a_slow_drip_client_is_convicted_while_honest_clients_are_served() {
    let (config, setup) = test_setup(0xE0_07);
    let submissions = test_submissions(&config, &setup, 2);
    let mut options = ingress_options(&config);
    options.evloop.idle_timeout = Duration::from_millis(200);
    let server = IngressServer::bind("127.0.0.1:0", options).unwrap();

    // The dripper trickles one byte of a valid frame header at a time —
    // never completing a frame, never triggering the length cap.
    let mut dripper = TcpStream::connect(server.local_addr()).unwrap();
    dripper
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    use std::io::{Read, Write};
    let frame = client_frame(&[0u8; 64]);
    let drip_deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut convicted = false;
    'drip: for chunk in frame.chunks(1) {
        if dripper.write_all(chunk).is_err() {
            convicted = true;
            break 'drip;
        }
        // While the dripper stalls, honest clients flow through.
        assert!(!submit_once(&server, config.round as usize, 0, &submissions[0]).shed);
        std::thread::sleep(Duration::from_millis(60));
        if std::time::Instant::now() > drip_deadline {
            break;
        }
    }
    if !convicted {
        // The write side may outlive the conviction; the read side sees
        // the close.
        let mut buf = [0u8; 1];
        convicted = matches!(dripper.read(&mut buf), Ok(0) | Err(_));
    }
    assert!(convicted, "slow-drip client outlived the idle timeout");
    assert!(!submit_once(&server, config.round as usize, 1, &submissions[1]).shed);
}

#[test]
fn shutdown_of_an_idle_server_holding_many_connections_is_prompt() {
    let (config, _) = test_setup(0xE0_08);
    let server = IngressServer::bind("127.0.0.1:0", ingress_options(&config)).unwrap();
    // A listen backlog's worth at a time; nobody sends a byte.
    let mut idle = Vec::new();
    for _ in 0..4 {
        idle.extend((0..64).map(|_| TcpStream::connect(server.local_addr()).unwrap()));
        // Accepts are first-come: once a later connection has been judged
        // (garbage closes it), every earlier one is held by the loop.
        use std::io::Write;
        let mut probe = TcpStream::connect(server.local_addr()).unwrap();
        probe.write_all(&client_frame(&[0xFF])).unwrap();
        assert!(read_client_frame(&mut probe, 1 << 20).is_err());
    }
    assert_eq!(idle.len(), 256);

    // The ingress thread is parked in the kernel with nothing to wake it:
    // `shutdown` has to, and must not wait out an idle sweep (1.25 s).
    let start = std::time::Instant::now();
    server.shutdown();
    assert!(
        start.elapsed() < Duration::from_millis(100),
        "shutdown took {:?}",
        start.elapsed()
    );
}
