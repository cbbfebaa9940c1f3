//! The server mesh's receive side, read from process-global state: the
//! `net.evloop.*` counters, the descriptor table and `/proc/self/task`.
//!
//! A test binary of its own for the reason `evloop_parked.rs` is one: the
//! unit tests of `atom-net`, running in parallel threads of one process,
//! would disturb that state. Every test here holds [`serial`] for its
//! whole body.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use atom_net::{client_frame, NodeId, TcpOptions, TcpTransport, Transport};
use atom_obs::counter;

/// Serializes the tests.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Routes `transport`'s delivery hook into a channel.
fn arrivals(transport: &TcpTransport) -> Receiver<NodeId> {
    let (tx, rx) = channel();
    transport.set_delivery_hook(Some(Arc::new(move |node| {
        let _ = tx.send(node);
    })));
    rx
}

/// A mesh frame from node 1 to node 0, as a peer process writes it: a
/// client frame whose payload is `from u32 ‖ to u32 ‖ label_len u16 ‖
/// label ‖ body`.
fn frame_to_node_0(body: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&1u32.to_le_bytes());
    payload.extend_from_slice(&0u32.to_le_bytes());
    payload.extend_from_slice(&4u16.to_le_bytes());
    payload.extend_from_slice(b"test");
    payload.extend_from_slice(body);
    client_frame(&payload)
}

/// The soft `RLIMIT_NOFILE`, from `/proc/self/limits`.
fn descriptor_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[test]
fn an_accept_failure_mutes_the_mesh_listener_until_a_peer_hangs_up() {
    let _serial = serial();
    if descriptor_limit().is_none_or(|limit| limit > 1 << 16) {
        eprintln!("skipped: exhausting this descriptor table is not cheap");
        return;
    }
    let transport = TcpTransport::bind_any(2, vec![0, 1], 0, TcpOptions::default()).unwrap();
    let delivered = arrivals(&transport);
    let addr = transport.local_addr();
    let wait = Duration::from_secs(5);
    let mut first = TcpStream::connect(addr).unwrap();
    first.write_all(&frame_to_node_0(b"first")).unwrap();
    assert_eq!(delivered.recv_timeout(wait), Ok(0));

    // A second peer reaches the backlog once the process has no descriptor
    // left to accept it with.
    let mut hog = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hog.push(file);
    }
    hog.pop(); // the second peer's own socket
    let errors = counter("net.evloop.accept_errors");
    let mut second = TcpStream::connect(addr).unwrap();
    second.write_all(&frame_to_node_0(b"second")).unwrap();
    let deadline = Instant::now() + wait;
    while counter("net.evloop.accept_errors") == errors {
        assert!(Instant::now() < deadline, "the loop never tried to accept");
        std::thread::yield_now();
    }

    // The backlog is still readable; a listener left registered would end
    // every wait at once (at the parent, the accept thread spun instead).
    let wakeups = counter("net.evloop.wakeups");
    let early = delivered.recv_timeout(Duration::from_millis(100));
    assert!(early.is_err(), "accepted without a descriptor");
    let woken = counter("net.evloop.wakeups") - wakeups;
    assert!(woken <= 3, "{woken} wake-ups in 100 ms: the listener spins");

    // The first peer hanging up frees a descriptor, and brings the
    // listener back: the second peer is accepted and delivers.
    drop(first);
    let second_arrived = delivered.recv_timeout(wait);
    drop(hog);
    assert_eq!(second_arrived, Ok(0), "the second peer never got through");
    assert_eq!(counter("net.evloop.accept_errors") - errors, 1);
    let bodies: Vec<Vec<u8>> = transport.drain(0).into_iter().map(|e| e.payload).collect();
    assert_eq!(bodies, [b"first".to_vec(), b"second".to_vec()]);
    transport.shutdown();
}

/// This process's threads, by id, with the names the kernel knows them by.
fn threads() -> BTreeMap<u32, String> {
    let tasks = std::fs::read_dir("/proc/self/task").unwrap();
    let named = tasks.filter_map(|task| {
        let path = task.ok()?.path();
        let id = path.file_name()?.to_str()?.parse().ok()?;
        let name = std::fs::read_to_string(path.join("comm")).ok()?;
        Some((id, name.trim_end().to_owned()))
    });
    named.collect()
}

/// Threads started since `before`, less the one the harness may start at
/// any moment for the other test of this binary: libtest names a test's
/// thread after the test (the kernel keeps 15 bytes of it). A thread the
/// code under test spawns inherits its spawner's name, never that one.
fn started_since(before: &BTreeMap<u32, String>) -> Vec<u32> {
    const OTHER_TEST: &str = "an_accept_failure_mutes_the_mesh_listener_until_a_peer_hangs_up";
    let all = threads().into_iter();
    let new = all.filter(|(id, name)| !before.contains_key(id) && !OTHER_TEST.starts_with(name));
    new.map(|(id, _)| id).collect()
}

#[test]
fn a_transport_receives_on_one_thread_whatever_its_peer_count() {
    let _serial = serial();
    let before = threads();
    let owner = vec![0, 1, 2, 3];
    let bind = |me| TcpTransport::bind_any(4, owner.clone(), me, TcpOptions::default());
    let mesh: Vec<TcpTransport> = (0..4).map(|me| bind(me).unwrap()).collect();
    for transport in &mesh {
        for (process, peer) in mesh.iter().enumerate() {
            transport.set_peer_addr(process, peer.local_addr().to_string());
        }
    }
    let delivered: Vec<Receiver<NodeId>> = mesh.iter().map(arrivals).collect();
    for transport in &mesh {
        transport.connect_peers().unwrap();
    }
    // One frame each way over every pair: each loop holds three peers.
    for (from, transport) in mesh.iter().enumerate() {
        for to in (0..4).filter(|&to| to != from) {
            transport
                .send(from, to, "mesh".into(), vec![from as u8])
                .unwrap();
        }
    }
    for (node, arrivals) in delivered.iter().enumerate() {
        for _ in 0..3 {
            assert_eq!(arrivals.recv_timeout(Duration::from_secs(5)), Ok(node));
        }
    }
    let started = started_since(&before);
    assert_eq!(started.len(), 4, "threads for 4 transports: {started:?}");

    for transport in &mesh {
        transport.shutdown();
    }
    // A joined thread leaves `/proc/self/task` a moment after `join`.
    let deadline = Instant::now() + Duration::from_secs(5);
    while started.iter().any(|id| threads().contains_key(id)) {
        assert!(Instant::now() < deadline, "a mesh thread outlived shutdown");
        std::thread::yield_now();
    }
}
