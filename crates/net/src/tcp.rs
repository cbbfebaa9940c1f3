//! Multi-process [`Transport`] backend over blocking TCP sockets.
//!
//! [`TcpTransport`] lets the node ids of one logical deployment span
//! several OS processes: each process hosts the mailboxes of the nodes
//! assigned to it and forwards everything else to the process that owns the
//! destination. The build environment has no async runtime (the vendored
//! dependency set is `std`-only), so the backend is deliberately classic:
//! blocking sockets, one listener per process, one reader thread per
//! inbound connection and one lazily-established outbound stream per peer
//! process.
//!
//! ## Frame layout
//!
//! Envelopes travel as length-delimited frames (all integers
//! little-endian):
//!
//! ```text
//! magic    u32  = 0x4D4F5441 ("ATOM")
//! version  u8   = 1
//! from     u32  sending node id
//! to       u32  receiving node id
//! label_len u16 ‖ payload_len u32
//! label    [u8; label_len]   (UTF-8, validated)
//! payload  [u8; payload_len]
//! ```
//!
//! The frame header is the *transport's* validation boundary: magic and
//! version are checked, `label_len`/`payload_len` are bounded
//! ([`TcpOptions::max_frame`]) before any allocation, and `to` must be a
//! node this process hosts. A malformed frame poisons only its connection —
//! the reader logs and hangs up, exactly what a real deployment does with a
//! misbehaving peer. The *payload* stays opaque here; protocol-level
//! validation of untrusted bytes happens in `atom_runtime::wire`, which
//! treats every decoded field as adversarial.
//!
//! ## Lifecycle
//!
//! [`TcpTransport::bind`] starts the listener (an address of port `0`
//! picks a free port, see [`TcpTransport::local_addr`]),
//! [`TcpTransport::connect_peers`] establishes outbound streams with a
//! retry loop so processes may start in any order, and
//! [`TcpTransport::shutdown`] tears the sockets down and joins the
//! listener and the readers. A send that hits a dead peer gets one
//! reconnect-and-resend repair and then returns a [`SendError`] naming the
//! unreachable process: the runtime matches on it and fails the affected
//! round (the recovery handshake convicts the process), which is strictly
//! better than silently dropping protocol traffic and deadlocking the
//! round.

use std::borrow::Cow;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use crate::transport::{DeliveryHook, Envelope, Mailboxes, NodeId, SendError, Transport};

const FRAME_MAGIC: u32 = 0x4D4F_5441; // "ATOM" in little-endian byte order.
const FRAME_VERSION: u8 = 1;
const FRAME_HEADER_LEN: usize = 4 + 1 + 4 + 4 + 2 + 4;
const MAX_LABEL_LEN: usize = 1024;

/// Tuning knobs of a [`TcpTransport`].
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// Total retry budget when establishing an outbound connection to a
    /// peer process (peers may start later than we do).
    pub connect_timeout: Duration,
    /// Upper bound on a frame's payload length; larger claims are rejected
    /// before any allocation.
    pub max_frame: usize,
    /// Sets `TCP_NODELAY` on every stream (mixing batches are
    /// latency-sensitive and already coalesced).
    pub nodelay: bool,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(10),
            max_frame: 64 << 20,
            nodelay: true,
        }
    }
}

/// Whether a send may establish the outbound stream it needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dial {
    /// Connect if no stream exists and repair a dead one once — every
    /// protocol send.
    IfNeeded,
    /// Write only over a stream that is already established: never
    /// connects, never retries. Recovery courtesy-copies plans to convicted
    /// processes this way: a slow-but-alive victim still holds its
    /// connection open and learns of its eviction, while a genuinely
    /// crashed one costs nothing (no connect-timeout stall).
    Never,
}

struct TcpInner {
    /// `owner[node]` is the index (into `peer_addrs`) of the process
    /// hosting `node`'s mailbox. Mutable because fleet recovery reassigns
    /// a dead process's nodes to survivors ([`TcpTransport::set_owner`]);
    /// the vector's length — the node-id space — never changes.
    owner: Mutex<Vec<usize>>,
    /// This process's index.
    me: usize,
    /// One outbound stream slot per process (slot `me` stays empty).
    outbound: Vec<Mutex<Option<TcpStream>>>,
    /// Listen address of every process. Entries other than `me`'s may be
    /// filled in after construction ([`TcpTransport::set_peer_addr`]) so a
    /// mesh can bind every listener on port `0` first and exchange the
    /// resolved addresses afterwards — no reserve-then-rebind races.
    peer_addrs: Mutex<Vec<String>>,
    /// Clones of the accepted inbound streams, so `shutdown` can force the
    /// detached reader threads off their blocking reads (without this, an
    /// in-process "restart" leaves the old readers absorbing frames meant
    /// for the new transport on the same address).
    inbound: Mutex<Vec<TcpStream>>,
    /// Join handles of the per-connection reader threads, pushed by the
    /// accept loop and joined by `shutdown` after the inbound streams are
    /// closed. Without the join there is a teardown window where a reader
    /// whose peer never closes its half outlives the transport.
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// Readers currently running (incremented before spawn, decremented
    /// at reader exit) — lets teardown tests assert none leaked.
    live_readers: AtomicUsize,
    /// One mailbox per node of the deployment, hosted here or not (see
    /// [`reader_loop`]).
    mailboxes: Mailboxes,
    options: TcpOptions,
    closing: AtomicBool,
}

/// A [`Transport`] whose nodes are partitioned across OS processes. See the
/// module docs for the frame layout and lifecycle.
pub struct TcpTransport {
    inner: Arc<TcpInner>,
    local_addr: SocketAddr,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Binds the listener of process `me` and starts accepting inbound
    /// connections.
    ///
    /// `peer_addrs[p]` is the listen address of process `p` (as passed to
    /// `TcpListener::bind`; `me`'s entry may use port `0` to pick a free
    /// port). `owner[node]` names the process hosting each node id; every
    /// node whose owner is `me` gets a local mailbox.
    pub fn bind(
        peer_addrs: Vec<String>,
        owner: Vec<usize>,
        me: usize,
        options: TcpOptions,
    ) -> io::Result<Self> {
        assert!(me < peer_addrs.len(), "own process index out of range");
        assert!(
            owner.iter().all(|&p| p < peer_addrs.len()),
            "node owner names an unknown process"
        );
        let listener = TcpListener::bind(&peer_addrs[me])?;
        let local_addr = listener.local_addr()?;
        let inner = Arc::new(TcpInner {
            mailboxes: Mailboxes::new(owner.len()),
            owner: Mutex::new(owner),
            me,
            outbound: (0..peer_addrs.len()).map(|_| Mutex::new(None)).collect(),
            peer_addrs: Mutex::new(peer_addrs),
            inbound: Mutex::new(Vec::new()),
            readers: Mutex::new(Vec::new()),
            live_readers: AtomicUsize::new(0),
            options,
            closing: AtomicBool::new(false),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_inner));
        Ok(Self {
            inner,
            local_addr,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// Binds on a free loopback port with peer addresses unknown:
    /// `processes` empty slots, to be filled via
    /// [`TcpTransport::set_peer_addr`] once the other listeners have bound.
    /// This is how in-process tests and harnesses build a race-free mesh;
    /// multi-process deployments know their addresses up front and use
    /// [`TcpTransport::bind`].
    pub fn bind_any(
        processes: usize,
        owner: Vec<usize>,
        me: usize,
        options: TcpOptions,
    ) -> io::Result<Self> {
        let mut peer_addrs = vec![String::new(); processes];
        peer_addrs[me] = "127.0.0.1:0".to_string();
        let transport = Self::bind(peer_addrs, owner, me, options)?;
        transport.set_peer_addr(me, transport.local_addr().to_string());
        Ok(transport)
    }

    /// Records the (resolved) listen address of peer `process`, replacing
    /// whatever was configured. Outbound connections established later use
    /// the new address; existing streams are untouched.
    pub fn set_peer_addr(&self, process: usize, addr: String) {
        self.inner.peer_addrs.lock()[process] = addr;
    }

    /// The address the listener actually bound (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Reassigns the mailbox of `node` to `process`. Fleet recovery uses
    /// this to hand a dead process's nodes to survivors (and to hand them
    /// back when the process rejoins); envelopes already queued in the
    /// local mailbox stay put, so reassign between rounds and drain first.
    pub fn set_owner(&self, node: NodeId, process: usize) {
        assert!(node < self.nodes(), "unknown node in set_owner");
        assert!(
            process < self.inner.outbound.len(),
            "unknown process in set_owner"
        );
        self.inner.owner.lock()[node] = process;
    }

    /// Sends an envelope straight to `process`, regardless of who owns the
    /// destination mailbox. Recovery handshakes need this: a coordinator
    /// answering a rejoin request must reach the *restarted* process even
    /// while the node's mailbox is still assigned to a survivor.
    /// [`Transport::send`] is this with the owner of `to` and
    /// [`Dial::IfNeeded`].
    pub fn send_to_process(
        &self,
        process: usize,
        from: NodeId,
        to: NodeId,
        label: Cow<'static, str>,
        payload: Vec<u8>,
        dial: Dial,
    ) -> Result<(), SendError> {
        assert!(
            from < self.nodes() && to < self.nodes(),
            "unknown node in TCP send"
        );
        let envelope = Envelope {
            from,
            to,
            label,
            payload,
        };
        let inner = &*self.inner;
        if process != inner.me {
            forward(inner, process, &envelope, dial).map_err(|error| {
                atom_obs::count("net.tcp.send_failures", 1);
                SendError { process, error }
            })?;
        }
        // Metered only once the frame is written: frames that never reached
        // a dead peer must not inflate the fleet's traffic counters.
        if atom_obs::enabled() {
            let label = &envelope.label;
            atom_obs::count(&format!("net.tcp.frames.{label}"), 1);
            atom_obs::count(
                &format!("net.tcp.bytes.{label}"),
                envelope.payload.len() as u64,
            );
            atom_obs::count(&format!("net.tcp.to_process.{process}.frames"), 1);
        }
        if process == inner.me {
            inner.mailboxes.deliver(envelope);
        }
        Ok(())
    }

    /// Drops the outbound stream to `process`, forcing the next send to
    /// reconnect. Call when a peer is known to have restarted on the same
    /// address: the old half-dead socket accepts one buffered write before
    /// erroring, so the lazy in-band repair alone would silently lose the
    /// first frame to the restarted process.
    pub fn reset_peer(&self, process: usize) {
        assert!(
            process < self.inner.outbound.len(),
            "unknown process in reset_peer"
        );
        if let Some(stream) = self.inner.outbound[process].lock().take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    /// Eagerly connects to every peer process, retrying each until
    /// [`TcpOptions::connect_timeout`] elapses (peers may not have bound
    /// their listeners yet). Sends connect lazily as a fallback, but
    /// calling this first keeps connection churn off the mixing path.
    pub fn connect_peers(&self) -> io::Result<()> {
        for (process, slot) in self.inner.outbound.iter().enumerate() {
            if process != self.inner.me {
                connect_retry(&self.inner, process, &mut slot.lock())?;
            }
        }
        Ok(())
    }

    /// Closes every stream and joins the listener thread. Idempotent; also
    /// run on drop.
    pub fn shutdown(&self) {
        if self.inner.closing.swap(true, Ordering::SeqCst) {
            return;
        }
        for slot in &self.inner.outbound {
            if let Some(stream) = slot.lock().take() {
                let _ = stream.shutdown(Shutdown::Both);
            }
        }
        for stream in self.inner.inbound.lock().drain(..) {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Wake the accept loop so it observes `closing`.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.lock().take() {
            let _ = handle.join();
        }
        // With the accept thread gone, no new readers can appear; join
        // the existing ones. Their streams were all shut down above, so
        // each blocking read has already returned (or will immediately),
        // even when the remote peer never closes its half.
        let readers: Vec<JoinHandle<()>> = self.inner.readers.lock().drain(..).collect();
        for handle in readers {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// First retry delay of the exponential backoff in [`connect_retry`].
const CONNECT_BACKOFF_BASE_MS: u64 = 5;
/// Ceiling on a single backoff sleep.
const CONNECT_BACKOFF_CAP_MS: u64 = 200;

/// Backoff before retry `attempt` (0-based): `min(base · 2ᵃ, cap)` plus a
/// deterministic jitter of up to half that, de-phased per `(me, peer)`
/// pair so a fleet restarting in lockstep does not hammer one listener at
/// synchronized instants.
fn connect_backoff(me: usize, peer: usize, attempt: u32) -> Duration {
    let exp = CONNECT_BACKOFF_BASE_MS
        .saturating_mul(1u64 << attempt.min(16))
        .min(CONNECT_BACKOFF_CAP_MS);
    // Cheap multiplicative hash — only the spread matters, not quality.
    let hash = (me as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((peer as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .wrapping_add((attempt as u64).wrapping_mul(0x1656_67B1_9E37_79F9));
    Duration::from_millis(exp + hash % (exp / 2 + 1))
}

/// Fills `slot` — the locked outbound slot of `process` — with a fresh
/// stream unless it already holds one, retrying until
/// [`TcpOptions::connect_timeout`] elapses.
fn connect_retry(inner: &TcpInner, process: usize, slot: &mut Option<TcpStream>) -> io::Result<()> {
    if slot.is_some() {
        return Ok(());
    }
    let deadline = Instant::now() + inner.options.connect_timeout;
    let mut attempt = 0u32;
    loop {
        // Re-read each attempt: the address may be filled in concurrently
        // by `set_peer_addr` while we retry.
        let addr = inner.peer_addrs.lock()[process].clone();
        match TcpStream::connect(&addr) {
            Ok(stream) => {
                if inner.options.nodelay {
                    let _ = stream.set_nodelay(true);
                }
                *slot = Some(stream);
                return Ok(());
            }
            Err(error) => {
                atom_obs::count("net.tcp.connect_retries", 1);
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        error.kind(),
                        format!("connecting to peer process {process} at {addr}: {error}"),
                    ));
                }
                std::thread::sleep(connect_backoff(inner.me, process, attempt));
                attempt += 1;
            }
        }
    }
}

/// Writes `envelope` to the outbound stream of `process`, establishing it
/// first if absent and `dial` allows. A write failure means the peer died
/// since the stream was established (or restarted, leaving a half-dead
/// socket): the slot is cleared — so the next send reconnects cleanly —
/// and, under [`Dial::IfNeeded`], ONE reconnect-and-resend repair is
/// attempted, which a restarted peer listening on the same address picks
/// up, before the failure is reported.
fn forward(inner: &TcpInner, process: usize, envelope: &Envelope, dial: Dial) -> io::Result<()> {
    let mut slot = inner.outbound[process].lock();
    let mut repaired = false;
    loop {
        if dial == Dial::Never && slot.is_none() {
            return Err(io::ErrorKind::NotConnected.into());
        }
        connect_retry(inner, process, &mut slot)?;
        let stream = slot.as_mut().expect("peer stream established above");
        let Err(error) = write_frame(stream, envelope) else {
            return Ok(());
        };
        *slot = None;
        if repaired || dial == Dial::Never {
            return Err(error);
        }
        atom_obs::count("net.tcp.send_repairs", 1);
        repaired = true;
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<TcpInner>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if inner.closing.load(Ordering::SeqCst) {
                    return;
                }
                if inner.options.nodelay {
                    let _ = stream.set_nodelay(true);
                }
                // Without a registered clone, `shutdown` could not force
                // this reader off its blocking read and the join below
                // would hang on a peer that never closes its half — so a
                // failed clone means no reader at all.
                match stream.try_clone() {
                    Ok(clone) => inner.inbound.lock().push(clone),
                    Err(_) => {
                        let _ = stream.shutdown(Shutdown::Both);
                        continue;
                    }
                }
                let reader_inner = Arc::clone(&inner);
                // Readers are joined at teardown: `shutdown` closes the
                // registered stream clones (forcing EOF even under a peer
                // that holds its half open), then drains `readers`.
                inner.live_readers.fetch_add(1, Ordering::SeqCst);
                let handle = std::thread::spawn(move || {
                    reader_loop(stream, &reader_inner);
                    reader_inner.live_readers.fetch_sub(1, Ordering::SeqCst);
                });
                inner.readers.lock().push(handle);
            }
            Err(_) => {
                if inner.closing.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn reader_loop(mut stream: TcpStream, inner: &TcpInner) {
    loop {
        match read_frame(&mut stream, &inner.options) {
            Ok(Some(envelope)) => {
                if inner.closing.load(Ordering::SeqCst) {
                    return;
                }
                // Buffer frames for ANY node of the deployment, not just
                // currently-hosted ones: during recovery a peer may send to
                // a mailbox this process is about to take over (ownership
                // reassignment), and rejoin responses are addressed
                // directly. Only out-of-range node ids poison the
                // connection.
                if envelope.to >= inner.mailboxes.nodes() {
                    eprintln!(
                        "atom-net: dropping connection after a frame for unknown \
                         node {} at process {}",
                        envelope.to, inner.me
                    );
                    return;
                }
                inner.mailboxes.deliver(envelope);
            }
            Ok(None) => return, // clean EOF
            Err(error) => {
                if !inner.closing.load(Ordering::SeqCst) {
                    eprintln!("atom-net: dropping connection on malformed frame: {error}");
                }
                return;
            }
        }
    }
}

fn write_frame(stream: &mut TcpStream, envelope: &Envelope) -> io::Result<()> {
    let label = envelope.label.as_bytes();
    assert!(label.len() <= MAX_LABEL_LEN, "envelope label too long");
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + label.len() + envelope.payload.len());
    frame.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
    frame.push(FRAME_VERSION);
    frame.extend_from_slice(&(envelope.from as u32).to_le_bytes());
    frame.extend_from_slice(&(envelope.to as u32).to_le_bytes());
    frame.extend_from_slice(&(label.len() as u16).to_le_bytes());
    frame.extend_from_slice(&(envelope.payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(label);
    frame.extend_from_slice(&envelope.payload);
    stream.write_all(&frame)
}

/// Reads one frame; `Ok(None)` on clean EOF at a frame boundary. Length
/// fields are untrusted: both are bounds-checked before any allocation.
fn read_frame(stream: &mut TcpStream, options: &TcpOptions) -> io::Result<Option<Envelope>> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    match stream.read_exact(&mut header) {
        Ok(()) => {}
        Err(error) if error.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(error) => return Err(error),
    }
    let malformed = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    if u32::from_le_bytes(header[0..4].try_into().unwrap()) != FRAME_MAGIC {
        return Err(malformed("bad frame magic"));
    }
    if header[4] != FRAME_VERSION {
        return Err(malformed("unsupported frame version"));
    }
    let from = u32::from_le_bytes(header[5..9].try_into().unwrap()) as usize;
    let to = u32::from_le_bytes(header[9..13].try_into().unwrap()) as usize;
    let label_len = u16::from_le_bytes(header[13..15].try_into().unwrap()) as usize;
    let payload_len = u32::from_le_bytes(header[15..19].try_into().unwrap()) as usize;
    if label_len > MAX_LABEL_LEN {
        return Err(malformed("frame label too long"));
    }
    if payload_len > options.max_frame {
        return Err(malformed("frame payload exceeds max_frame"));
    }
    let mut label = vec![0u8; label_len];
    stream.read_exact(&mut label)?;
    let label = String::from_utf8(label).map_err(|_| malformed("frame label is not UTF-8"))?;
    let mut payload = vec![0u8; payload_len];
    stream.read_exact(&mut payload)?;
    Ok(Some(Envelope {
        from,
        to,
        label: Cow::Owned(label),
        payload,
    }))
}

impl Transport for TcpTransport {
    fn nodes(&self) -> usize {
        self.inner.mailboxes.nodes()
    }

    fn is_local(&self, node: NodeId) -> bool {
        node < self.nodes() && self.inner.owner.lock()[node] == self.inner.me
    }

    fn send(
        &self,
        from: NodeId,
        to: NodeId,
        label: Cow<'static, str>,
        payload: Vec<u8>,
    ) -> Result<(), SendError> {
        assert!(to < self.nodes(), "unknown node in TCP send");
        let process = self.inner.owner.lock()[to];
        self.send_to_process(process, from, to, label, payload, Dial::IfNeeded)
    }

    fn drain(&self, node: NodeId) -> Vec<Envelope> {
        self.inner.mailboxes.drain(node)
    }

    fn pending(&self, node: NodeId) -> usize {
        self.inner.mailboxes.pending(node)
    }

    fn set_delivery_hook(&self, hook: Option<DeliveryHook>) {
        self.inner.mailboxes.set_hook(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two transports in one process, exercising both the loopback and the
    /// socket path. Both listeners bind port 0 and exchange resolved
    /// addresses afterwards, so concurrent tests cannot race on ports.
    fn pair(owner: Vec<usize>) -> (TcpTransport, TcpTransport) {
        let a = TcpTransport::bind_any(2, owner.clone(), 0, TcpOptions::default()).unwrap();
        let b = TcpTransport::bind_any(2, owner, 1, TcpOptions::default()).unwrap();
        a.set_peer_addr(1, b.local_addr().to_string());
        b.set_peer_addr(0, a.local_addr().to_string());
        a.connect_peers().unwrap();
        b.connect_peers().unwrap();
        (a, b)
    }

    fn wait_pending(transport: &TcpTransport, node: NodeId) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Transport::pending(transport, node) == 0 {
            assert!(Instant::now() < deadline, "message never arrived");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn local_and_remote_sends_deliver() {
        let (a, b) = pair(vec![0, 0, 1]);
        // Loopback within process 0.
        Transport::send(&a, 0, 1, "local".into(), vec![1, 2]).unwrap();
        let envelope = Transport::drain(&a, 1).pop().unwrap();
        assert_eq!(envelope.payload, vec![1, 2]);
        assert_eq!(envelope.from, 0);
        // Across the socket to process 1.
        Transport::send(&a, 0, 2, "remote".into(), vec![3, 4, 5]).unwrap();
        wait_pending(&b, 2);
        let envelope = Transport::drain(&b, 2).pop().unwrap();
        assert_eq!(envelope.label, "remote");
        assert_eq!(envelope.payload, vec![3, 4, 5]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn delivery_hook_fires_for_remote_arrivals() {
        let (a, b) = pair(vec![0, 1]);
        let hits = Arc::new(Mutex::new(Vec::new()));
        let sink = hits.clone();
        Transport::set_delivery_hook(&b, Some(Arc::new(move |node| sink.lock().push(node))));
        Transport::send(&a, 0, 1, "hooked".into(), vec![9]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while hits.lock().is_empty() {
            assert!(Instant::now() < deadline, "hook never fired");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(*hits.lock(), vec![1]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn malformed_frames_poison_only_their_connection() {
        let (a, b) = pair(vec![0, 1]);
        // A raw connection writing garbage: the reader must hang up without
        // panicking or allocating the claimed length.
        let mut rogue = TcpStream::connect(b.local_addr()).unwrap();
        let mut bogus = Vec::new();
        bogus.extend_from_slice(&FRAME_MAGIC.to_le_bytes());
        bogus.push(FRAME_VERSION);
        bogus.extend_from_slice(&0u32.to_le_bytes()); // from
        bogus.extend_from_slice(&1u32.to_le_bytes()); // to
        bogus.extend_from_slice(&0u16.to_le_bytes()); // label_len
        bogus.extend_from_slice(&u32::MAX.to_le_bytes()); // absurd payload_len
        rogue.write_all(&bogus).unwrap();
        // The healthy connection keeps working.
        Transport::send(&a, 0, 1, "still-fine".into(), vec![7]).unwrap();
        wait_pending(&b, 1);
        assert_eq!(Transport::drain(&b, 1).len(), 1);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn frames_for_unknown_nodes_are_rejected_but_unowned_ones_buffer() {
        let (a, b) = pair(vec![0, 1]);
        // A frame for a node id outside the deployment poisons its
        // connection.
        let mut rogue = TcpStream::connect(b.local_addr()).unwrap();
        let envelope = Envelope {
            from: 1,
            to: 99,
            label: "unknown".into(),
            payload: vec![1],
        };
        write_frame(&mut rogue, &envelope).unwrap();
        // A frame for a valid node this process does NOT currently own is
        // buffered — recovery reassigns mailboxes between rounds and the
        // frame may arrive first.
        let mut early = TcpStream::connect(b.local_addr()).unwrap();
        let envelope = Envelope {
            from: 1,
            to: 0,
            label: "early".into(),
            payload: vec![2],
        };
        write_frame(&mut early, &envelope).unwrap();
        wait_pending(&b, 0);
        assert_eq!(Transport::drain(&b, 0)[0].payload, vec![2]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn ownership_handoff_redirects_sends() {
        // Nodes 1 and 2 start on process 1; after the handoff of node 2,
        // process 0 delivers to itself locally.
        let (a, b) = pair(vec![0, 1, 1]);
        Transport::send(&a, 0, 2, "before".into(), vec![1]).unwrap();
        wait_pending(&b, 2);
        assert_eq!(Transport::drain(&b, 2).len(), 1);
        assert!(!Transport::is_local(&a, 2));
        a.set_owner(2, 0);
        assert!(Transport::is_local(&a, 2));
        assert_eq!(*a.inner.owner.lock(), vec![0, 1, 0]);
        Transport::send(&a, 0, 2, "after".into(), vec![2]).unwrap();
        assert_eq!(Transport::drain(&a, 2)[0].payload, vec![2]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn try_send_is_best_effort_and_never_connects() {
        let (a, b) = pair(vec![0, 1]);
        // Established stream: the frame goes through like a normal send.
        let try_send = |process, to, label: &'static str, payload| {
            a.send_to_process(process, 0, to, label.into(), payload, Dial::Never)
        };
        assert!(try_send(1, 0, "courtesy", vec![9]).is_ok());
        wait_pending(&b, 0);
        assert_eq!(Transport::drain(&b, 0)[0].payload, vec![9]);
        // Local delivery always succeeds.
        assert!(try_send(0, 1, "loop", vec![3]).is_ok());
        assert_eq!(Transport::drain(&a, 1)[0].payload, vec![3]);
        // No established stream (and nobody listening): fails immediately
        // instead of spinning in the connect-retry loop.
        a.reset_peer(1);
        b.shutdown();
        let start = Instant::now();
        let error = try_send(1, 0, "courtesy", vec![9]).unwrap_err();
        assert_eq!(error.process, 1);
        assert_eq!(error.error.kind(), io::ErrorKind::NotConnected);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "blocked on connect"
        );
        a.shutdown();
    }

    #[test]
    fn send_to_process_bypasses_the_owner_map() {
        let (a, b) = pair(vec![0, 1]);
        // Node 0's mailbox is owned by process 0, but the direct-addressed
        // send reaches process 1's buffer for it anyway.
        a.send_to_process(1, 0, 0, "direct".into(), vec![7], Dial::IfNeeded)
            .unwrap();
        wait_pending(&b, 0);
        assert_eq!(Transport::drain(&b, 0)[0].payload, vec![7]);
        // Loopback path.
        a.send_to_process(0, 0, 0, "loop".into(), vec![8], Dial::IfNeeded)
            .unwrap();
        assert_eq!(Transport::drain(&a, 0)[0].payload, vec![8]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn send_repairs_a_dead_stream_to_a_restarted_peer() {
        let owner = vec![0usize, 1];
        let a = TcpTransport::bind_any(2, owner.clone(), 0, TcpOptions::default()).unwrap();
        let b = TcpTransport::bind_any(2, owner.clone(), 1, TcpOptions::default()).unwrap();
        a.set_peer_addr(1, b.local_addr().to_string());
        a.connect_peers().unwrap();
        Transport::send(&a, 0, 1, "first".into(), vec![1]).unwrap();
        wait_pending(&b, 1);
        // The peer process "restarts": same address, fresh listener. The
        // old stream dies with it.
        let addr = b.local_addr();
        b.shutdown();
        drop(b);
        let b2 = TcpTransport::bind(
            vec![String::new(), addr.to_string()],
            owner,
            1,
            TcpOptions::default(),
        )
        .unwrap();
        // The first send after the restart hits the dead socket (possibly
        // only on the second write, once the kernel notices the reset);
        // the repair path reconnects and the frame arrives.
        let deadline = Instant::now() + Duration::from_secs(5);
        while Transport::pending(&b2, 1) == 0 {
            assert!(Instant::now() < deadline, "repair never delivered");
            Transport::send(&a, 0, 1, "after-restart".into(), vec![2]).unwrap();
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(Transport::drain(&b2, 1)[0].payload, vec![2]);
        a.shutdown();
        b2.shutdown();
    }

    /// A peer that never started is an expected input: the send comes back
    /// as a value within the connect budget, is metered as a failure and
    /// not as traffic, and the next send after the peer binds reconnects.
    #[test]
    fn send_to_a_never_started_peer_errs_then_reaches_it_once_bound() {
        let _obs = crate::obs_test_lock();
        atom_obs::set_enabled(true);
        let options = TcpOptions {
            connect_timeout: Duration::from_millis(100),
            ..TcpOptions::default()
        };
        let a = TcpTransport::bind_any(2, vec![0, 1], 0, options).unwrap();
        // Reserve process 1's address and free it again: nobody listens yet.
        let addr = TcpListener::bind("127.0.0.1:0")
            .and_then(|listener| listener.local_addr())
            .unwrap();
        a.set_peer_addr(1, addr.to_string());

        let failures = counter("net.tcp.send_failures");
        let start = Instant::now();
        let error = Transport::send(&a, 0, 1, "never-arrived".into(), vec![1]).unwrap_err();
        // The 100 ms budget plus at most one capped backoff sleep.
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "blocked past the connect budget"
        );
        assert_eq!(error.process, 1);
        assert!(error.to_string().contains(&addr.to_string()), "{error}");
        // (Other tests' failed sends may land in the same global counter.)
        assert!(counter("net.tcp.send_failures") > failures);
        assert_eq!(counter("net.tcp.frames.never-arrived"), 0);

        let b = TcpTransport::bind(
            vec![String::new(), addr.to_string()],
            vec![0, 1],
            1,
            TcpOptions::default(),
        )
        .unwrap();
        Transport::send(&a, 0, 1, "arrived".into(), vec![2]).unwrap();
        wait_pending(&b, 1);
        assert_eq!(Transport::drain(&b, 1)[0].payload, vec![2]);
        assert_eq!(counter("net.tcp.frames.arrived"), 1);
        atom_obs::set_enabled(false);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn connect_backoff_grows_exponentially_to_a_cap() {
        // Deterministic: delay(n) ∈ [exp, 1.5·exp] with exp = min(5·2ⁿ, 200).
        for attempt in 0..24u32 {
            let exp = CONNECT_BACKOFF_BASE_MS
                .saturating_mul(1u64 << attempt.min(16))
                .min(CONNECT_BACKOFF_CAP_MS);
            for (me, peer) in [(0usize, 1usize), (3, 7), (11, 2)] {
                let delay = connect_backoff(me, peer, attempt).as_millis() as u64;
                assert!(
                    delay >= exp && delay <= exp + exp / 2,
                    "attempt {attempt}: delay {delay} outside [{exp}, {}]",
                    exp + exp / 2
                );
            }
        }
        // The jitter actually de-phases distinct processes somewhere.
        assert!((0..8).any(|me| connect_backoff(me, 1, 3) != connect_backoff(me + 8, 1, 3)));
    }

    #[test]
    fn failed_connects_meter_retries() {
        let _obs = crate::obs_test_lock();
        atom_obs::set_enabled(true);
        let before = counter("net.tcp.connect_retries");
        // Nobody listens on the peer address: the connect loop must retry
        // (metering each attempt) until the budget expires.
        let options = TcpOptions {
            connect_timeout: Duration::from_millis(60),
            ..TcpOptions::default()
        };
        let a = TcpTransport::bind_any(2, vec![0, 1], 0, options).unwrap();
        // A port from the dynamic range with no listener; connecting fails
        // fast on loopback.
        a.set_peer_addr(1, "127.0.0.1:59999".to_string());
        assert!(a.connect_peers().is_err());
        let after = counter("net.tcp.connect_retries");
        assert!(
            after > before,
            "net.tcp.connect_retries must increment ({before} -> {after})"
        );
        a.shutdown();
        atom_obs::set_enabled(false);
    }

    fn counter(name: &str) -> u64 {
        atom_obs::counter_snapshot()
            .into_iter()
            .find(|(found, _)| found == name)
            .map(|(_, value)| value)
            .unwrap_or(0)
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_the_listener() {
        let (a, b) = pair(vec![0, 1]);
        a.shutdown();
        a.shutdown();
        b.shutdown();
    }

    /// Regression: reader threads used to be detached, so a peer that
    /// held its half of the connection open could leave a reader alive
    /// (blocked or draining) after `shutdown` returned. Readers are now
    /// joined, so teardown must return promptly with zero readers left —
    /// even under a rogue peer that never closes and never reads.
    #[test]
    fn shutdown_joins_readers_despite_a_peer_that_never_closes() {
        let a = TcpTransport::bind_any(2, vec![0, 1], 0, TcpOptions::default()).unwrap();
        // A rogue "peer": sends one valid frame to prove its reader is
        // live, then sits on the open socket without closing either half.
        let mut rogue = TcpStream::connect(a.local_addr()).unwrap();
        let envelope = Envelope {
            from: 1,
            to: 0,
            label: "rogue".into(),
            payload: vec![9; 16],
        };
        write_frame(&mut rogue, &envelope).unwrap();
        wait_pending(&a, 0);
        assert_eq!(a.inner.live_readers.load(Ordering::SeqCst), 1);

        let start = Instant::now();
        a.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown hung on the reader join"
        );
        assert_eq!(
            a.inner.live_readers.load(Ordering::SeqCst),
            0,
            "a reader thread outlived transport teardown"
        );
        assert!(
            a.inner.readers.lock().is_empty(),
            "join handles not drained"
        );
        drop(rogue);
    }
}
