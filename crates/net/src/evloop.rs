//! Single-threaded, event-driven transport: one readiness loop
//! multiplexing thousands of connections.
//!
//! A thread per connection is a wall for client fan-in, where *millions*
//! of users must reach the coordinator (conf. SOSP'17 §6: Atom's
//! horizontal-scaling claim is about exactly this edge). [`EventLoop`] is
//! one listener, per-connection read and write buffers, and a single
//! thread parked in [`EventLoop::wait`]. Both edges of a process run on it:
//! the client ingress and the server mesh ([`crate::tcp`], whose frames are
//! client frames carrying an envelope prefix).
//!
//! Readiness comes from the kernel: the listener and every connection sit,
//! level-triggered and keyed by [`ConnId`], in an `epoll(7)` set behind the
//! vendored `polling` stand-in (the workspace's only `unsafe`; Linux only).
//! A pass touches only the sockets the kernel reported, so an idle
//! connection costs nothing, and takes one bounded `read` from each: level
//! mode reports a socket with more to give again, so none monopolizes a
//! pass. (`poll(2)` was measured and rejected: blocking on 1,024 sockets
//! costs it ≈ 350 µs of CPU per call, `epoll_wait` ≈ 30.)
//!
//! ## Client frame layout
//!
//! The one framing of the workspace; a client talks only to the process
//! it dialed, so it carries no addressing (the mesh puts its envelope
//! prefix inside the payload). All integers little-endian:
//!
//! ```text
//! magic       u32  = 0x434F5441 ("ATOC")
//! version     u8   = 1
//! payload_len u32  (bounded by EvloopOptions::max_frame before use)
//! payload     [u8; payload_len]
//! ```
//!
//! The header is this module's validation boundary: bad magic, bad
//! version or an oversized length claim closes the connection before a
//! single byte of payload is buffered beyond what already arrived. The
//! payload stays opaque — protocol validation of untrusted bytes belongs
//! to `atom_runtime::wire`.
//!
//! ## Conviction of slow and unresponsive clients
//!
//! * **Idle timeout** — measured from the last *completed frame* (or the
//!   accept), not the last byte. A slow-drip client feeding one byte per
//!   tick keeps a byte-activity timer alive forever; keying on frame
//!   completion convicts it after [`EvloopOptions::idle_timeout`], checked
//!   by a syscall-free sweep of every connection each eighth of the timeout.
//! * **Write backpressure** — [`EventLoop::send`] buffers at most
//!   [`EvloopOptions::max_write_buffer`] unflushed bytes per connection.
//!   A client that stops draining its socket is closed rather than
//!   allowed to grow the buffer without bound.

use std::collections::BTreeMap;
use std::io::ErrorKind::{ConnectionAborted, Interrupted, InvalidData, WouldBlock};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::Arc;
use std::time::{Duration, Instant};

use polling::{Event as Interest, Events, Poller};

/// Magic leading every client frame: "ATOC" in little-endian byte order.
/// The mesh speaks the same header, so a cross-wired connection ends in
/// the mesh's envelope check, or in the wire decoder's counted rejection.
pub const CLIENT_MAGIC: u32 = 0x434F_5441;
/// Client framing version this loop speaks.
pub const CLIENT_VERSION: u8 = 1;
/// Bytes in a client frame header (`magic u32 ‖ version u8 ‖ len u32`).
pub const CLIENT_HEADER_LEN: usize = 4 + 1 + 4;

/// The listener's key in the readiness set; no [`ConnId`] is 0.
const LISTENER: u64 = 0;

static WAKEUPS: atom_obs::Counter = atom_obs::Counter::new("net.evloop.wakeups");
static READY: atom_obs::Counter = atom_obs::Counter::new("net.evloop.ready");

/// Tuning knobs of an [`EventLoop`].
#[derive(Clone, Debug)]
pub struct EvloopOptions {
    /// Upper bound on a frame's payload length; larger claims close the
    /// connection before any allocation sized by the claim.
    pub max_frame: usize,
    /// A connection that completes no frame for this long is convicted
    /// and closed ([`CloseReason::IdleTimeout`]). Keyed on completed
    /// frames, so slow-drip clients cannot stay alive byte by byte.
    pub idle_timeout: Duration,
    /// Maximum concurrently open connections; accepts beyond this are
    /// closed immediately (counted as `net.evloop.overflow`).
    pub max_connections: usize,
    /// Per-connection cap on unflushed outbound bytes; exceeding it
    /// closes the connection ([`CloseReason::Backpressure`]).
    pub max_write_buffer: usize,
}

impl Default for EvloopOptions {
    fn default() -> Self {
        Self {
            max_frame: 1 << 20,
            idle_timeout: Duration::from_secs(10),
            max_connections: 4096,
            max_write_buffer: 256 << 10,
        }
    }
}

/// Identity of one accepted connection, unique for the lifetime of the
/// loop. The low bits carry a monotonic sequence number; the high bits
/// carry the socket's raw fd at accept time, so an id remains meaningful
/// in logs even after the kernel recycles the descriptor.
pub type ConnId = u64;

/// Why a connection was closed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CloseReason {
    /// The peer closed its half; everything buffered was parsed first.
    Eof,
    /// The peer violated the framing (bad magic/version, oversized
    /// length claim); the message says which check failed.
    Malformed(String),
    /// No frame completed within [`EvloopOptions::idle_timeout`].
    IdleTimeout,
    /// The peer stopped draining its socket and the unflushed write
    /// buffer exceeded [`EvloopOptions::max_write_buffer`].
    Backpressure,
    /// The local side closed it deliberately ([`EventLoop::close`] or
    /// [`EventLoop::close_all`]).
    Shutdown,
    /// A socket-level error; the message carries the `io::Error` text.
    Io(String),
}

/// One observation surfaced by [`EventLoop::poll`].
#[derive(Clone, Debug)]
pub enum Event {
    /// A connection was accepted.
    Opened {
        /// Identity of the new connection.
        conn: ConnId,
        /// The peer's socket address.
        peer: SocketAddr,
    },
    /// A complete, well-framed payload arrived.
    Frame {
        /// Connection the frame arrived on.
        conn: ConnId,
        /// The frame's payload (opaque to the loop).
        payload: Vec<u8>,
    },
    /// A connection ended; no further events reference `conn`.
    Closed {
        /// Identity of the closed connection.
        conn: ConnId,
        /// Why it ended.
        reason: CloseReason,
    },
}

struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    /// Outbound bytes the socket has not taken yet.
    write_buf: Vec<u8>,
    /// Whether write interest is registered: exactly while bytes pend.
    want_write: bool,
    /// Instant of the last *completed* frame (or the accept).
    last_frame: Instant,
}

/// Ends a parked [`EventLoop::wait`] from any other thread.
#[derive(Clone)]
pub struct Waker(Arc<Poller>);

impl Waker {
    /// Wakes the loop; calls before its next `wait` coalesce into one.
    pub fn wake(&self) {
        let _ = self.0.notify(); // fails only once the loop is gone
    }
}

/// The readiness loop: owns the listener and every accepted connection.
/// Not `Sync` — it belongs to exactly one thread, which calls
/// [`EventLoop::wait`] in a cycle and reacts to the returned [`Event`]s.
pub struct EventLoop {
    listener: TcpListener,
    local_addr: SocketAddr,
    options: EvloopOptions,
    poller: Arc<Poller>,
    /// The kernel's report, and the copy a pass iterates while it mutates the loop.
    ready: Events,
    batch: Vec<Interest>,
    /// Most bytes one pass reads from one ready connection (64 KiB: a 256 KiB
    /// mesh frame in four passes, where 16 KiB cost measurable throughput).
    chunk: Box<[u8]>,
    conns: BTreeMap<ConnId, Conn>,
    next_seq: u64,
    /// `Closed` events of this pass and of `send`/`close` calls since the
    /// last one; every pass ends by handing them over.
    closed: Vec<Event>,
    /// False from an `accept` failure (`EMFILE`) until a close or a sweep: a
    /// level-triggered listener nobody can drain would end every `wait` at once.
    accepting: bool,
    /// When the idle sweep is next due; the last pass's (or the bind's) time.
    next_sweep: Instant,
    now: Instant,
}

impl EventLoop {
    /// Binds the listener (port `0` picks a free port — see
    /// [`EventLoop::local_addr`]) with an accept queue of
    /// [`EvloopOptions::max_connections`] (capped by the kernel's
    /// `somaxconn`), and registers it for readiness.
    pub fn bind(addr: &str, options: EvloopOptions) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        polling::set_backlog(&listener, options.max_connections)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Arc::new(Poller::new()?);
        poller.add(&listener, Interest::readable(LISTENER))?;
        let now = Instant::now();
        Ok(Self {
            listener,
            local_addr,
            next_sweep: now + options.idle_timeout / 8,
            now,
            options,
            poller,
            ready: Events::new(),
            batch: Vec::new(),
            chunk: vec![0; 64 << 10].into_boxed_slice(),
            conns: BTreeMap::new(),
            next_seq: 0,
            closed: Vec::new(),
            accepting: true,
        })
    }

    /// The listener's resolved address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Number of currently open connections.
    pub fn connections(&self) -> usize {
        self.conns.len()
    }

    /// A handle other threads use to end a parked [`EventLoop::wait`].
    pub fn waker(&self) -> Waker {
        Waker(Arc::clone(&self.poller))
    }

    /// One pass that never blocks: [`EventLoop::wait`] with a zero timeout.
    pub fn poll(&mut self, events: &mut Vec<Event>) -> bool {
        self.wait(events, Some(Duration::ZERO))
    }

    /// One pass, parked in the kernel until a socket is ready, a [`Waker`]
    /// fires, `timeout` passes (`None`: no limit) or the idle sweep is due
    /// (reckoned from the last pass): accepts, frames what is readable,
    /// flushes what became writable, convicts idle connections. Returns
    /// whether it appended to `events`.
    pub fn wait(&mut self, events: &mut Vec<Event>, timeout: Option<Duration>) -> bool {
        let until_sweep = self.next_sweep.saturating_duration_since(self.now);
        let park = match timeout {
            _ if !self.closed.is_empty() => Duration::ZERO,
            Some(timeout) => timeout.min(until_sweep),
            None => until_sweep,
        };
        // Only a broken set (`EBADF`, `EINVAL`) fails: nothing a retry fixes.
        let waited = self.poller.wait(&mut self.ready, Some(park));
        waited.expect("epoll_wait on the loop's own descriptor");
        self.pass(events, Instant::now())
    }

    /// One pass's work on what the kernel reported, at `now`: it stamps
    /// each frame and accept, and the idle sweep runs once due.
    fn pass(&mut self, events: &mut Vec<Event>, now: Instant) -> bool {
        let before = events.len();
        let mut batch = std::mem::take(&mut self.batch);
        batch.extend(self.ready.iter());
        WAKEUPS.add(1);
        READY.add(batch.len() as u64);
        for ready in batch.drain(..) {
            match ready.key {
                LISTENER => self.accept_ready(now, events),
                _ => self.service(ready, now, events),
            }
        }
        self.batch = batch;
        self.now = now;
        if now >= self.next_sweep {
            self.next_sweep = now + self.options.idle_timeout / 8;
            self.sweep_idle(now);
        }
        events.append(&mut self.closed);
        events.len() > before
    }

    /// Queues `payload` as one client frame on `conn` and flushes what the
    /// socket takes at once; later passes flush the rest as it becomes
    /// writable. Returns `false` — and convicts the connection for
    /// backpressure — when the unflushed backlog would exceed
    /// [`EvloopOptions::max_write_buffer`]; also `false` for unknown ids.
    pub fn send(&mut self, conn: ConnId, payload: &[u8]) -> bool {
        let frame = client_frame(payload);
        let max = self.options.max_write_buffer;
        let Some(c) = self.conns.get_mut(&conn) else {
            return false;
        };
        // Drain what the peer is ready to take before judging backlog.
        let mut verdict = flush_writes(&self.poller, conn, c).err();
        if verdict.is_none() && c.write_buf.len() + frame.len() > max {
            verdict = Some(CloseReason::Backpressure);
        }
        if verdict.is_none() {
            c.write_buf.extend_from_slice(&frame);
            verdict = flush_writes(&self.poller, conn, c).err();
        }
        if let Some(reason) = verdict {
            self.drop_conn(conn, reason);
            return false;
        }
        true
    }

    /// Closes one connection deliberately (flushing nothing further);
    /// unknown ids are ignored.
    pub fn close(&mut self, conn: ConnId) {
        self.drop_conn(conn, CloseReason::Shutdown);
    }

    /// Closes every open connection (used at server shutdown).
    pub fn close_all(&mut self) {
        while let Some((&id, _)) = self.conns.first_key_value() {
            self.drop_conn(id, CloseReason::Shutdown);
        }
    }

    /// Drains the listener's backlog.
    fn accept_ready(&mut self, now: Instant, events: &mut Vec<Event>) {
        loop {
            let (stream, peer) = match self.listener.accept() {
                Ok(accepted) => accepted,
                Err(e) if e.kind() == WouldBlock => return,
                // A signal, or a peer that gave up while queued: go on.
                Err(e) if matches!(e.kind(), Interrupted | ConnectionAborted) => continue,
                Err(_) => {
                    // Out of descriptors, typically, and the backlog stays
                    // readable: stop asking until a close or a sweep.
                    atom_obs::count("net.evloop.accept_errors", 1);
                    return self.set_accepting(false);
                }
            };
            if self.conns.len() >= self.options.max_connections {
                atom_obs::count("net.evloop.overflow", 1);
                let _ = stream.shutdown(Shutdown::Both);
                continue;
            }
            self.next_seq += 1;
            let conn: ConnId = ((stream.as_raw_fd() as u64) << 32) | (self.next_seq & 0xFFFF_FFFF);
            let registered = stream.set_nonblocking(true).is_ok()
                && self.poller.add(&stream, Interest::readable(conn)).is_ok();
            if !registered {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let (read_buf, write_buf) = (Vec::new(), Vec::new());
            let fresh = Conn {
                stream,
                read_buf,
                write_buf,
                want_write: false,
                last_frame: now,
            };
            self.conns.insert(conn, fresh);
            atom_obs::count("net.evloop.accepted", 1);
            atom_obs::gauge_max("net.evloop.connections.peak", self.conns.len() as u64);
            events.push(Event::Opened { conn, peer });
        }
    }

    /// Services one connection the kernel reported: flushes if it became
    /// writable, takes one bounded read if it became readable.
    fn service(&mut self, ready: Interest, now: Instant, events: &mut Vec<Event>) {
        let id: ConnId = ready.key;
        let Some(c) = self.conns.get_mut(&id) else {
            return; // closed earlier in this pass
        };
        let mut verdict = None;
        if ready.writable && c.want_write {
            verdict = flush_writes(&self.poller, id, c).err();
        }
        if ready.readable && verdict.is_none() {
            verdict = match c.stream.read(&mut self.chunk) {
                // Parse what already arrived, then report EOF.
                Ok(0) => Some(CloseReason::Eof),
                Ok(n) => {
                    c.read_buf.extend_from_slice(&self.chunk[..n]);
                    None
                }
                // Readiness is a hint; a socket with data is reported again.
                Err(e) if matches!(e.kind(), WouldBlock | Interrupted) => None,
                Err(e) => Some(CloseReason::Io(e.to_string())),
            };
            if let Err(m) = parse_frames(c, id, self.options.max_frame, now, events) {
                verdict = Some(CloseReason::Malformed(m));
            }
        }
        if let Some(reason) = verdict {
            self.drop_conn(id, reason);
        }
    }

    /// Convicts every connection that completed no frame for
    /// [`EvloopOptions::idle_timeout`]; touches no socket.
    fn sweep_idle(&mut self, now: Instant) {
        let mut convicted = Vec::new();
        for (id, c) in &self.conns {
            if now.duration_since(c.last_frame) > self.options.idle_timeout {
                convicted.push(*id);
            }
        }
        for id in convicted {
            atom_obs::count("net.evloop.idle_convictions", 1);
            self.drop_conn(id, CloseReason::IdleTimeout);
        }
        self.set_accepting(true);
    }

    /// Registers (`on`) or drops the listener's read interest.
    fn set_accepting(&mut self, on: bool) {
        let mut interest = Interest::none(LISTENER);
        interest.readable = on;
        if on != self.accepting && self.poller.modify(&self.listener, interest).is_ok() {
            self.accepting = on;
        }
    }

    fn drop_conn(&mut self, id: ConnId, reason: CloseReason) {
        if let Some(c) = self.conns.remove(&id) {
            if matches!(reason, CloseReason::Malformed(_)) {
                atom_obs::count("net.evloop.malformed", 1);
            }
            let _ = self.poller.delete(&c.stream);
            let _ = c.stream.shutdown(Shutdown::Both);
            drop(c); // frees the descriptor the listener may be waiting for
            self.set_accepting(true);
            self.closed.push(Event::Closed { conn: id, reason });
        }
    }
}

/// Writes a connection's pending bytes as far as the socket allows, then
/// registers write interest if some remain and drops it if none do.
fn flush_writes(poller: &Poller, id: ConnId, c: &mut Conn) -> Result<(), CloseReason> {
    while !c.write_buf.is_empty() {
        match c.stream.write(&c.write_buf) {
            Ok(0) => return Err(CloseReason::Io("write returned 0".into())),
            Ok(n) => drop(c.write_buf.drain(..n)),
            Err(e) if e.kind() == WouldBlock => break,
            Err(e) if e.kind() == Interrupted => continue,
            Err(e) => return Err(CloseReason::Io(e.to_string())),
        }
    }
    let pending = !c.write_buf.is_empty();
    if pending != c.want_write {
        let mut interest = Interest::readable(id);
        interest.writable = pending;
        let changed = poller.modify(&c.stream, interest);
        changed.map_err(|e| CloseReason::Io(e.to_string()))?;
        c.want_write = pending;
    }
    Ok(())
}

/// Validates a client frame header — magic, version, and a length claim
/// of at most `max_frame` — and returns the payload length it claims. The
/// one header check of the workspace, for the loop and for client drivers.
fn check_header(header: &[u8; CLIENT_HEADER_LEN], max_frame: usize) -> Result<usize, String> {
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != CLIENT_MAGIC {
        return Err(format!("bad client frame magic 0x{magic:08X}"));
    }
    if header[4] != CLIENT_VERSION {
        return Err(format!("unsupported client frame version {}", header[4]));
    }
    let len = u32::from_le_bytes([header[5], header[6], header[7], header[8]]) as usize;
    if len > max_frame {
        return Err(format!(
            "frame claims {len} payload bytes, cap is {max_frame}"
        ));
    }
    Ok(len)
}

/// Extracts every complete frame from a connection's read buffer, emitting
/// `Frame` events and refreshing the idle timer; an error is the violation.
fn parse_frames(
    c: &mut Conn,
    id: ConnId,
    max_frame: usize,
    now: Instant,
    events: &mut Vec<Event>,
) -> Result<(), String> {
    let mut consumed = 0usize;
    while let Some(header) = c.read_buf[consumed..].first_chunk() {
        let end = consumed + CLIENT_HEADER_LEN + check_header(header, max_frame)?;
        let Some(payload) = c.read_buf.get(consumed + CLIENT_HEADER_LEN..end) else {
            break;
        };
        events.push(Event::Frame {
            conn: id,
            payload: payload.to_vec(),
        });
        consumed = end;
        c.last_frame = now;
        atom_obs::count("net.evloop.frames", 1);
    }
    if consumed > 0 {
        c.read_buf.drain(..consumed);
    }
    Ok(())
}

/// Encodes one client frame (`ATOC` header + payload) — the encoding
/// side of the framing [`EventLoop`] decodes; used by client drivers.
pub fn client_frame(payload: &[u8]) -> Vec<u8> {
    [&client_header(payload.len())[..], payload].concat()
}

/// The header [`client_frame`] puts ahead of a `payload_len`-byte payload,
/// for writers that assemble the payload in place.
pub(crate) fn client_header(payload_len: usize) -> [u8; CLIENT_HEADER_LEN] {
    let [m0, m1, m2, m3] = CLIENT_MAGIC.to_le_bytes();
    let [l0, l1, l2, l3] = (payload_len as u32).to_le_bytes();
    [m0, m1, m2, m3, CLIENT_VERSION, l0, l1, l2, l3]
}

/// Blocking helper for simple clients: reads exactly one client frame
/// from `stream` and returns its payload. `max_frame` bounds the length
/// claim before allocation.
pub fn read_client_frame(stream: &mut TcpStream, max_frame: usize) -> io::Result<Vec<u8>> {
    let mut header = [0u8; CLIENT_HEADER_LEN];
    stream.read_exact(&mut header)?;
    let claimed = check_header(&header, max_frame);
    let len = claimed.map_err(|m| io::Error::new(InvalidData, m))?;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn options() -> EvloopOptions {
        EvloopOptions {
            idle_timeout: Duration::from_secs(5),
            ..EvloopOptions::default()
        }
    }

    /// Parks in `wait` until `done(events)` or the deadline; panics on timeout.
    fn poll_until(
        evloop: &mut EventLoop,
        events: &mut Vec<Event>,
        timeout: Duration,
        mut done: impl FnMut(&[Event]) -> bool,
    ) {
        let deadline = Instant::now() + timeout;
        while !done(events) {
            assert!(
                Instant::now() < deadline,
                "poll_until timed out; events: {events:?}"
            );
            evloop.wait(events, Some(Duration::from_millis(50)));
        }
    }

    fn frames(events: &[Event]) -> Vec<(ConnId, Vec<u8>)> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Frame { conn, payload } => Some((*conn, payload.clone())),
                _ => None,
            })
            .collect()
    }

    fn closes(events: &[Event]) -> Vec<(ConnId, CloseReason)> {
        events
            .iter()
            .filter_map(|e| match e {
                Event::Closed { conn, reason } => Some((*conn, reason.clone())),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn frame_roundtrip_over_a_real_socket() {
        let mut evloop = EventLoop::bind("127.0.0.1:0", options()).unwrap();
        let addr = evloop.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&client_frame(b"hello ingress")).unwrap();

        let mut events = Vec::new();
        poll_until(&mut evloop, &mut events, Duration::from_secs(5), |ev| {
            !frames(ev).is_empty()
        });
        let got = frames(&events);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, b"hello ingress");

        assert!(evloop.send(got[0].0, b"ack!"));
        let mut drained = Vec::new();
        // A pass or two flushes the ack.
        for _ in 0..10 {
            evloop.poll(&mut drained);
        }
        let reply = read_client_frame(&mut client, 1 << 20).unwrap();
        assert_eq!(reply, b"ack!");
    }

    #[test]
    fn multiplexes_many_connections_on_one_loop() {
        let mut evloop = EventLoop::bind("127.0.0.1:0", options()).unwrap();
        let addr = evloop.local_addr();
        let n = 50usize;
        let mut clients: Vec<TcpStream> = (0..n)
            .map(|i| {
                let mut s = TcpStream::connect(addr).unwrap();
                s.write_all(&client_frame(format!("client-{i}").as_bytes()))
                    .unwrap();
                s
            })
            .collect();

        let mut events = Vec::new();
        poll_until(&mut evloop, &mut events, Duration::from_secs(10), |ev| {
            frames(ev).len() >= n
        });
        let got = frames(&events);
        assert_eq!(got.len(), n);
        let mut ids: Vec<ConnId> = got.iter().map(|(c, _)| *c).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "every frame arrived on a distinct connection");
        assert_eq!(evloop.connections(), n);

        // Echo each payload back on its own connection.
        for (conn, payload) in &got {
            assert!(evloop.send(*conn, payload));
        }
        let mut drained = Vec::new();
        for _ in 0..20 {
            evloop.poll(&mut drained);
        }
        let mut replies: Vec<String> = clients
            .iter_mut()
            .map(|s| String::from_utf8(read_client_frame(s, 1 << 20).unwrap()).unwrap())
            .collect();
        replies.sort();
        let mut expect: Vec<String> = (0..n).map(|i| format!("client-{i}")).collect();
        expect.sort();
        assert_eq!(replies, expect);
    }

    #[test]
    fn malformed_magic_closes_only_that_connection() {
        let mut evloop = EventLoop::bind("127.0.0.1:0", options()).unwrap();
        let addr = evloop.local_addr();
        let mut bad = TcpStream::connect(addr).unwrap();
        bad.write_all(b"GARBAGE???").unwrap();
        let mut good = TcpStream::connect(addr).unwrap();
        good.write_all(&client_frame(b"still fine")).unwrap();

        let mut events = Vec::new();
        poll_until(&mut evloop, &mut events, Duration::from_secs(5), |ev| {
            !frames(ev).is_empty() && !closes(ev).is_empty()
        });
        let cl = closes(&events);
        assert_eq!(cl.len(), 1);
        assert!(
            matches!(&cl[0].1, CloseReason::Malformed(m) if m.contains("magic")),
            "unexpected close: {:?}",
            cl[0].1
        );
        assert_eq!(frames(&events)[0].1, b"still fine");
        assert_eq!(evloop.connections(), 1);
    }

    #[test]
    fn oversized_length_claim_rejected_at_the_header() {
        let opts = EvloopOptions {
            max_frame: 1024,
            ..options()
        };
        let mut evloop = EventLoop::bind("127.0.0.1:0", opts).unwrap();
        let addr = evloop.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut header = Vec::new();
        header.extend_from_slice(&CLIENT_MAGIC.to_le_bytes());
        header.push(CLIENT_VERSION);
        header.extend_from_slice(&u32::MAX.to_le_bytes());
        client.write_all(&header).unwrap();

        let mut events = Vec::new();
        poll_until(&mut evloop, &mut events, Duration::from_secs(5), |ev| {
            !closes(ev).is_empty()
        });
        let cl = closes(&events);
        assert!(
            matches!(&cl[0].1, CloseReason::Malformed(m) if m.contains("cap")),
            "unexpected close: {:?}",
            cl[0].1
        );
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut evloop = EventLoop::bind("127.0.0.1:0", options()).unwrap();
        let addr = evloop.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut frame = client_frame(b"x");
        frame[4] = 9;
        client.write_all(&frame).unwrap();
        let mut events = Vec::new();
        poll_until(&mut evloop, &mut events, Duration::from_secs(5), |ev| {
            !closes(ev).is_empty()
        });
        assert!(
            matches!(&closes(&events)[0].1, CloseReason::Malformed(m) if m.contains("version"))
        );
    }

    /// Passes at the synthetic instant `now`, each after a real park of at
    /// most 10 ms, until `done`; panics after 500 of them.
    fn pass_until(
        evloop: &mut EventLoop,
        events: &mut Vec<Event>,
        now: Instant,
        done: impl Fn(&EventLoop, &[Event]) -> bool,
    ) {
        for _ in 0..500 {
            if done(evloop, events) {
                return;
            }
            let parked = evloop
                .poller
                .wait(&mut evloop.ready, Some(Duration::from_millis(10)));
            parked.unwrap();
            evloop.pass(events, now);
        }
        panic!("no pass got there; events: {events:?}");
    }

    /// The idle clock at synthetic instants `at(ms)`, over real sockets:
    /// one header byte per 40 ms never resets it, a healthy client is
    /// served meanwhile, and the dripper is closed with `IdleTimeout` at
    /// the first sweep more than 150 ms after its accept.
    #[test]
    fn slow_drip_client_is_convicted_without_hanging_the_loop() {
        let opts = EvloopOptions {
            idle_timeout: Duration::from_millis(150),
            ..EvloopOptions::default()
        };
        let mut evloop = EventLoop::bind("127.0.0.1:0", opts).unwrap();
        let addr = evloop.local_addr();
        let base = Instant::now();
        let at = |ms: u64| base + Duration::from_millis(ms);
        let mut dripper = TcpStream::connect(addr).unwrap();
        let mut healthy = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        pass_until(&mut evloop, &mut events, at(0), |evloop, _| {
            evloop.connections() == 2
        });
        let drip_addr = dripper.local_addr().unwrap();
        let drip = (events.iter())
            .find_map(|e| match e {
                Event::Opened { conn, peer } if *peer == drip_addr => Some(*conn),
                _ => None,
            })
            .unwrap();

        let frame = client_frame(b"never finishes");
        for (step, byte) in (0u64..).zip(&frame[..4]) {
            dripper.write_all(&[*byte]).unwrap();
            let prompt = format!("prompt {step}");
            healthy.write_all(&client_frame(prompt.as_bytes())).unwrap();
            let read = step as usize + 1;
            pass_until(&mut evloop, &mut events, at(40 * step), |evloop, events| {
                evloop.conns[&drip].read_buf.len() == read && frames(events).len() == read
            });
            assert_eq!(frames(&events)[step as usize].1, prompt.as_bytes());
            assert!(closes(&events).is_empty(), "closed at {} ms", 40 * step);
        }

        healthy.write_all(&client_frame(b"prompt 4")).unwrap();
        pass_until(&mut evloop, &mut events, at(160), |_, events| {
            frames(events).len() == 5 && !closes(events).is_empty()
        });
        assert_eq!(closes(&events), vec![(drip, CloseReason::IdleTimeout)]);
        assert_eq!(evloop.connections(), 1, "the healthy client stays");
    }

    /// The accept queue holds `max_connections`, not std's 128: a loop
    /// that accepts nothing for a while loses no SYN of a connect burst.
    #[test]
    fn the_accept_queue_holds_max_connections() {
        let opts = EvloopOptions {
            max_connections: 512,
            ..options()
        };
        let evloop = EventLoop::bind("127.0.0.1:0", opts).unwrap();
        let addr = evloop.local_addr();
        let connected: Vec<TcpStream> = (0..300)
            .map(|i| {
                let stream = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
                stream.unwrap_or_else(|error| panic!("connect {i}: {error}"))
            })
            .collect();
        assert_eq!(connected.len(), 300);
    }

    #[test]
    fn unresponsive_reader_is_convicted_for_backpressure() {
        let opts = EvloopOptions {
            max_frame: 1 << 22,
            max_write_buffer: 4096,
            ..options()
        };
        let mut evloop = EventLoop::bind("127.0.0.1:0", opts).unwrap();
        let addr = evloop.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        client.write_all(&client_frame(b"hi")).unwrap();

        let mut events = Vec::new();
        poll_until(&mut evloop, &mut events, Duration::from_secs(5), |ev| {
            !frames(ev).is_empty()
        });
        let conn = frames(&events)[0].0;

        // The client never reads. Keep shoving large frames until the OS
        // socket buffer fills and our bounded write buffer overflows.
        let big = vec![0xABu8; 256 << 10];
        let mut convicted = false;
        for _ in 0..256 {
            if !evloop.send(conn, &big) {
                convicted = true;
                break;
            }
        }
        assert!(convicted, "send never hit the backpressure cap");
        let mut drained = Vec::new();
        evloop.poll(&mut drained);
        assert!(closes(&drained)
            .iter()
            .any(|(c, r)| *c == conn && *r == CloseReason::Backpressure));
        assert_eq!(evloop.connections(), 0);
    }

    #[test]
    fn accepts_beyond_max_connections_are_shed() {
        let opts = EvloopOptions {
            max_connections: 2,
            ..options()
        };
        let mut evloop = EventLoop::bind("127.0.0.1:0", opts).unwrap();
        let addr = evloop.local_addr();
        let _a = TcpStream::connect(addr).unwrap();
        let _b = TcpStream::connect(addr).unwrap();
        let mut events = Vec::new();
        poll_until(&mut evloop, &mut events, Duration::from_secs(5), |ev| {
            ev.iter()
                .filter(|e| matches!(e, Event::Opened { .. }))
                .count()
                >= 2
        });
        assert_eq!(evloop.connections(), 2);

        let mut third = TcpStream::connect(addr).unwrap();
        third
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        // The overflow accept is closed immediately: our read sees EOF or
        // a reset, never data.
        let deadline = Instant::now() + Duration::from_secs(5);
        let shed = loop {
            assert!(Instant::now() < deadline, "third connection never shed");
            let mut ev = Vec::new();
            evloop.poll(&mut ev);
            let mut byte = [0u8; 1];
            match third.read(&mut byte) {
                Ok(0) => break true,
                Ok(_) => break false,
                Err(e) if e.kind() == io::ErrorKind::ConnectionReset => break true,
                Err(_) => {}
            }
        };
        assert!(
            shed,
            "overflow connection delivered data instead of closing"
        );
        assert_eq!(evloop.connections(), 2);
    }

    #[test]
    fn split_delivery_reassembles_frames() {
        let mut evloop = EventLoop::bind("127.0.0.1:0", options()).unwrap();
        let addr = evloop.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        let frame = client_frame(b"split across writes");
        let (a, b) = frame.split_at(7);
        client.write_all(a).unwrap();
        let mut events = Vec::new();
        for _ in 0..5 {
            evloop.poll(&mut events);
        }
        assert!(frames(&events).is_empty(), "half a frame must not surface");
        client.write_all(b).unwrap();
        poll_until(&mut evloop, &mut events, Duration::from_secs(5), |ev| {
            !frames(ev).is_empty()
        });
        assert_eq!(frames(&events)[0].1, b"split across writes");
    }

    #[test]
    fn two_frames_in_one_write_both_surface() {
        let mut evloop = EventLoop::bind("127.0.0.1:0", options()).unwrap();
        let addr = evloop.local_addr();
        let mut client = TcpStream::connect(addr).unwrap();
        let mut bytes = client_frame(b"first");
        bytes.extend_from_slice(&client_frame(b"second"));
        client.write_all(&bytes).unwrap();
        let mut events = Vec::new();
        poll_until(&mut evloop, &mut events, Duration::from_secs(5), |ev| {
            frames(ev).len() >= 2
        });
        let got = frames(&events);
        assert_eq!(got[0].1, b"first");
        assert_eq!(got[1].1, b"second");
        assert_eq!(got[0].0, got[1].0);
    }

    #[test]
    fn a_large_ack_finishes_flushing_through_writable_readiness() {
        let opts = EvloopOptions {
            max_write_buffer: 16 << 20,
            ..options()
        };
        let mut evloop = EventLoop::bind("127.0.0.1:0", opts).unwrap();
        let mut client = TcpStream::connect(evloop.local_addr()).unwrap();
        client.write_all(&client_frame(b"send me a lot")).unwrap();
        let mut events = Vec::new();
        poll_until(&mut evloop, &mut events, Duration::from_secs(5), |ev| {
            !frames(ev).is_empty()
        });
        let conn = frames(&events)[0].0;

        // Far more than a loopback socket buffers: the one `send` leaves a
        // backlog and registers write interest.
        let ack: Vec<u8> = (0..8usize << 20).map(|i| (i % 251) as u8).collect();
        assert!(evloop.send(conn, &ack));
        assert!(evloop.conns[&conn].want_write, "nothing was left unflushed");

        // The client starts reading; passes alone must finish the flush.
        let reader = thread::spawn(move || {
            let reply = read_client_frame(&mut client, 16 << 20).unwrap();
            (client, reply)
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while evloop.conns[&conn].want_write {
            assert!(Instant::now() < deadline, "the backlog never drained");
            evloop.wait(&mut events, Some(Duration::from_millis(50)));
        }
        assert!(evloop.conns[&conn].write_buf.is_empty());
        assert!(closes(&events).is_empty(), "closed: {:?}", closes(&events));
        let (_client, reply) = reader.join().unwrap();
        assert!(reply == ack, "the ack arrived damaged");

        // With the interest gone an idle, writable socket wakes nobody.
        let start = Instant::now();
        assert!(!evloop.wait(&mut events, Some(Duration::from_millis(100))));
        assert!(start.elapsed() >= Duration::from_millis(100));
    }

    #[test]
    fn a_waker_ends_a_parked_wait_from_another_thread() {
        // An 80 s idle timeout puts the next sweep 10 s away: only the
        // waker can end this wait early.
        let opts = EvloopOptions {
            idle_timeout: Duration::from_secs(80),
            ..EvloopOptions::default()
        };
        let mut evloop = EventLoop::bind("127.0.0.1:0", opts).unwrap();
        let waker = evloop.waker();
        let (parking_tx, parking_rx) = std::sync::mpsc::channel();
        let other = thread::spawn(move || {
            parking_rx.recv().unwrap();
            waker.wake();
        });
        // Whichever side runs first, the wake-up is not lost: a wake before
        // the wait ends it at once, one during it ends it parked.
        parking_tx.send(()).unwrap();
        let start = Instant::now();
        let mut events = Vec::new();
        assert!(!evloop.wait(&mut events, None));
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "wait(None) ran to the sweep"
        );
        assert!(events.is_empty());
        other.join().unwrap();
    }
}
