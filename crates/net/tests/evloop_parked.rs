//! What a parked [`EventLoop`] costs, read from the counters it publishes.
//!
//! These live in a test binary of their own because they assert on
//! process-global state — the `net.evloop.*` counters of `atom_obs`, and
//! in one case the process's descriptor table — that the loop's unit tests,
//! running in parallel threads of one process, would disturb. Every test
//! here holds [`serial`] for its whole body.

use std::fs::File;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use atom_net::evloop::{client_frame, CloseReason, Event, EventLoop, EvloopOptions};
use atom_obs::counter;

/// Serializes the tests.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// An 80 s idle timeout puts the first sweep 10 s away: nothing but
/// readiness ends a `wait` in these tests.
fn bind() -> EventLoop {
    let options = EvloopOptions {
        idle_timeout: Duration::from_secs(80),
        ..EvloopOptions::default()
    };
    EventLoop::bind("127.0.0.1:0", options).unwrap()
}

/// Opens `n` connections, a listen backlog's worth at a time (this thread
/// is also the one that accepts), and drives the loop until it holds them.
fn connect(evloop: &mut EventLoop, n: usize) -> Vec<TcpStream> {
    let addr = evloop.local_addr();
    let mut clients = Vec::with_capacity(n);
    let deadline = Instant::now() + Duration::from_secs(10);
    while clients.len() < n {
        let target = evloop.connections() + 64.min(n - clients.len());
        clients.extend((evloop.connections()..target).map(|_| TcpStream::connect(addr).unwrap()));
        while evloop.connections() < target {
            assert!(Instant::now() < deadline, "accepts never finished");
            evloop.wait(&mut Vec::new(), Some(Duration::from_millis(50)));
        }
    }
    clients
}

#[test]
fn idle_connections_cost_no_wake_ups_and_one_frame_readies_one_source() {
    let _serial = serial();
    let mut evloop = bind();
    let mut clients = connect(&mut evloop, 256);

    let (wakeups, start) = (counter("net.evloop.wakeups"), Instant::now());
    let mut events = Vec::new();
    assert!(!evloop.wait(&mut events, Some(Duration::from_millis(200))));
    assert!(start.elapsed() >= Duration::from_millis(200), "woke early");
    assert!(events.is_empty(), "idle connections produced {events:?}");
    let woken = counter("net.evloop.wakeups") - wakeups;
    assert!(woken <= 2, "{woken} wake-ups over 256 idle connections");

    let ready = counter("net.evloop.ready");
    clients[170].write_all(&client_frame(b"only me")).unwrap();
    assert!(evloop.wait(&mut events, Some(Duration::from_secs(5))));
    assert!(
        matches!(&events[..], [Event::Frame { payload, .. }] if payload == b"only me"),
        "a single wait surfaced {events:?}"
    );
    assert_eq!(counter("net.evloop.ready") - ready, 1);
}

/// The soft `RLIMIT_NOFILE`, from `/proc/self/limits`.
fn descriptor_limit() -> Option<u64> {
    let limits = std::fs::read_to_string("/proc/self/limits").ok()?;
    let line = limits.lines().find(|l| l.starts_with("Max open files"))?;
    line.split_whitespace().nth(3)?.parse().ok()
}

#[test]
fn an_accept_failure_silences_the_listener_until_a_connection_closes() {
    let _serial = serial();
    if descriptor_limit().is_none_or(|limit| limit > 1 << 16) {
        eprintln!("skipped: exhausting this descriptor table is not cheap");
        return;
    }
    let mut evloop = bind();
    let mut first = connect(&mut evloop, 1);
    // A second client waits in the backlog while the process runs out of
    // descriptors to accept it with.
    let _second = TcpStream::connect(evloop.local_addr()).unwrap();
    let mut hog = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hog.push(file);
    }

    let errors = counter("net.evloop.accept_errors");
    let mut events = Vec::new();
    evloop.wait(&mut events, Some(Duration::from_secs(5)));
    assert_eq!(counter("net.evloop.accept_errors") - errors, 1);
    assert_eq!(evloop.connections(), 1);

    // The backlog is still readable; a listener left registered would end
    // every one of these waits at once.
    let (wakeups, start) = (counter("net.evloop.wakeups"), Instant::now());
    while start.elapsed() < Duration::from_millis(100) {
        evloop.wait(&mut events, Some(Duration::from_millis(100)));
    }
    let woken = counter("net.evloop.wakeups") - wakeups;
    assert!(woken <= 3, "{woken} wake-ups in 100 ms: the listener spins");
    assert!(events.is_empty(), "{events:?}");

    // Closing the first connection frees the one descriptor the second
    // needs, and brings the listener back.
    first.clear();
    let deadline = Instant::now() + Duration::from_secs(5);
    while evloop.connections() != 1 || events.len() < 2 {
        assert!(Instant::now() < deadline, "never recovered: {events:?}");
        evloop.wait(&mut events, Some(Duration::from_millis(50)));
    }
    drop(hog);
    assert!(
        matches!(
            &events[..],
            [
                Event::Closed {
                    reason: CloseReason::Eof,
                    ..
                },
                Event::Opened { .. }
            ] | [
                Event::Opened { .. },
                Event::Closed {
                    reason: CloseReason::Eof,
                    ..
                }
            ]
        ),
        "{events:?}"
    );
    assert_eq!(counter("net.evloop.accept_errors") - errors, 1);
}
