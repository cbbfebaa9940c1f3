//! Multi-process [`Transport`] backend over TCP.
//!
//! [`TcpTransport`] lets the node ids of one logical deployment span
//! several OS processes: each process hosts the mailboxes of the nodes
//! assigned to it and forwards everything else to the process that owns the
//! destination.
//!
//! ## Threads and frames
//!
//! Receiving costs one thread per process, whatever the peer count: the
//! mesh loop, parked in [`EventLoop::wait`] — the client edge's `epoll`
//! loop — on the listener and every accepted peer connection. Sending stays
//! on the caller's thread, on one lazily dialed stream per peer process
//! (routing it through the loop would add a cross-thread wake-up per
//! frame), but a frame gets [`TcpOptions::connect_timeout`] to be written
//! whole: a peer that stops reading fails the send, never parks it.
//!
//! A mesh frame is a client frame (the `ATOC` header of [`crate::evloop`])
//! whose payload opens with an envelope prefix, integers little-endian:
//!
//! ```text
//! from u32 ‖ to u32 ‖ label_len u16 (≤ 1,024) ‖ label (UTF-8) ‖ body
//! ```
//!
//! The loop checks the header and bounds the length claim (64 MiB) before
//! buffering; the mesh loop checks that `from` and `to` are nodes of the
//! deployment and that the label is UTF-8. A violation poisons only its
//! connection, as a real deployment treats a misbehaving peer. The body
//! stays opaque: `atom_runtime::wire` validates it as adversarial.
//!
//! Each process also has one control inbox, for recovery's handshake:
//! [`TcpTransport::send_control`] addresses a process by writing `from` and
//! `to` as a reserved id that names no node, and the mesh loop queues such
//! a frame for [`TcpTransport::recv_control`], never in a node mailbox.
//!
//! ## Lifecycle
//!
//! [`TcpTransport::connect_peers`] dials every peer with retries, so
//! processes may start in any order; nothing else waits for a peer. A send
//! drops a stream its peer closed (the mesh never writes back on one, so
//! anything to read is EOF or a reset), dials a missing one once and
//! writes: it fails within one connect and one frame write, with a
//! [`SendError`] naming the process. The runtime fails the round and
//! recovery convicts the process, where a silently dropped frame would
//! deadlock the round.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex};

use crate::evloop::{client_header, CloseReason, Event, EventLoop, EvloopOptions, Waker};
use crate::transport::{DeliveryHook, Envelope, Mailboxes, NodeId, SendError, Transport};

/// Bytes of the envelope prefix ahead of the label: `from ‖ to ‖ label_len`.
const PREFIX_LEN: usize = 4 + 4 + 2;
const MAX_LABEL_LEN: usize = 1024;

/// The id a control frame carries as both `from` and `to`: no node's.
const CONTROL: NodeId = u32::MAX as NodeId;

/// The mesh loop's limits. No idle conviction: mesh peers idle between
/// batches, and a close would only cost them a redial (so an `accept`
/// failure mutes the listener until a peer hangs up, not until a sweep).
/// The mesh never writes through it.
const MESH_LOOP: EvloopOptions = EvloopOptions {
    max_frame: 64 << 20,
    idle_timeout: Duration::MAX,
    max_connections: 1024,
    max_write_buffer: 0,
};

/// Tuning knobs of a [`TcpTransport`].
#[derive(Clone, Debug)]
pub struct TcpOptions {
    /// The one (nonzero) budget for reaching a peer: per connect attempt,
    /// per peer for [`TcpTransport::connect_peers`]'s retries, and to write
    /// one frame whole. A send fails within twice this.
    pub connect_timeout: Duration,
}

impl Default for TcpOptions {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(10),
        }
    }
}

/// Whether a send may establish the outbound stream it needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dial {
    /// Dial once if no live stream exists: every protocol send.
    IfNeeded,
    /// Write only over a live stream: how recovery courtesy-copies plans to
    /// convicted processes, so a crashed one costs no stall.
    Never,
}

/// A [`Transport`] whose nodes are partitioned across OS processes.
pub struct TcpTransport {
    /// `owner[node]` is the process hosting `node`'s mailbox. Fleet recovery
    /// reassigns a dead process's nodes ([`TcpTransport::set_owner`]); the
    /// node-id space never changes.
    owner: Mutex<Vec<usize>>,
    /// This process's index.
    me: usize,
    /// One outbound stream slot per process (slot `me` stays empty).
    outbound: Vec<Mutex<Option<TcpStream>>>,
    /// Listen address of every process, filled in after construction
    /// ([`TcpTransport::set_peer_addr`]) when a mesh binds every listener on
    /// port `0` first — no reserve-then-rebind races.
    peer_addrs: Mutex<Vec<String>>,
    /// One mailbox per node of the deployment, hosted here or not; the mesh
    /// loop delivers into them until `closing`.
    mailboxes: Arc<Mailboxes>,
    /// This process's control inbox (module docs).
    control: Arc<ControlInbox>,
    closing: Arc<AtomicBool>,
    options: TcpOptions,
    local_addr: SocketAddr,
    waker: Waker,
    mesh_loop: Mutex<Option<JoinHandle<()>>>,
}

impl TcpTransport {
    /// Binds the listener of process `me` on `peer_addrs[me]` (port `0`
    /// picks a free one) and starts its mesh loop. `peer_addrs[p]` is the
    /// listen address of process `p`, `owner[node]` the process hosting
    /// each node id.
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
        let evloop = EventLoop::bind(&peer_addrs[me], MESH_LOOP)?;
        let (local_addr, waker) = (evloop.local_addr(), evloop.waker());
        let mailboxes = Arc::new(Mailboxes::new(owner.len()));
        let (control, closing) = (Arc::<ControlInbox>::default(), Arc::default());
        let inboxes = (Arc::clone(&mailboxes), Arc::clone(&control));
        let stop = Arc::clone(&closing);
        let mesh_loop = std::thread::spawn(move || mesh_loop(evloop, &inboxes, &stop, me));
        Ok(Self {
            owner: Mutex::new(owner),
            me,
            outbound: (0..peer_addrs.len()).map(|_| Mutex::new(None)).collect(),
            peer_addrs: Mutex::new(peer_addrs),
            mailboxes,
            control,
            closing,
            options,
            local_addr,
            waker,
            mesh_loop: Mutex::new(Some(mesh_loop)),
        })
    }

    /// Binds on a free loopback port with the other `processes − 1` peer
    /// addresses unknown, to be filled via [`TcpTransport::set_peer_addr`]
    /// once their listeners have bound: how in-process tests and harnesses
    /// build a race-free mesh.
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
        self.peer_addrs.lock()[process] = addr;
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
        assert!(process < self.outbound.len(), "unknown process");
        self.owner.lock()[node] = process;
    }

    /// Sends `frame` to the control inbox of `process`, whoever owns which
    /// node: a coordinator answering a rejoin request must reach the
    /// *restarted* process while its nodes are still assigned to a
    /// survivor. A send to this process queues locally.
    pub fn send_control(&self, process: usize, frame: &[u8], dial: Dial) -> Result<(), SendError> {
        if process == self.me {
            push_control(&self.control, frame.to_vec());
            return Ok(());
        }
        self.forward(process, &mesh_frame(CONTROL, CONTROL, "", frame), dial)
    }

    /// Takes the oldest frame of this process's control inbox, waiting
    /// until `deadline` for one; `None` once it passes with the inbox
    /// empty, so a deadline already past only polls.
    pub fn recv_control(&self, deadline: Instant) -> Option<Vec<u8>> {
        let (frames, arrived) = &*self.control;
        let mut frames = frames.lock();
        loop {
            if let Some(frame) = frames.pop_front() {
                return Some(frame);
            }
            let left = deadline.checked_duration_since(Instant::now())?;
            frames = arrived.wait_timeout(frames, left).0;
        }
    }

    /// Eagerly connects to every peer process, retrying each until
    /// [`TcpOptions::connect_timeout`] elapses (peers may not have bound
    /// their listeners yet). Sends dial lazily, once, as a fallback, but
    /// calling this first keeps connection churn off the mixing path.
    pub fn connect_peers(&self) -> io::Result<()> {
        for (process, slot) in self.outbound.iter().enumerate() {
            let (mut slot, mut attempt) = (slot.lock(), 0);
            let deadline = Instant::now() + self.options.connect_timeout;
            while process != self.me && slot.is_none() {
                let left = deadline.saturating_duration_since(Instant::now());
                match self.dial(process, left) {
                    Ok(stream) => *slot = Some(stream),
                    Err(error) if left.is_zero() => return Err(error),
                    Err(_) => {
                        atom_obs::count("net.tcp.connect_retries", 1);
                        let backoff = connect_backoff(self.me, process, attempt);
                        std::thread::sleep(backoff.min(left));
                        attempt += 1;
                    }
                }
            }
        }
        Ok(())
    }

    /// Joins the mesh loop, which closes every inbound connection (even one
    /// whose peer holds it open), then closes the outbound streams.
    /// Idempotent; also run on drop.
    pub fn shutdown(&self) {
        if self.closing.swap(true, Ordering::SeqCst) {
            return;
        }
        self.waker.wake();
        if let Some(handle) = self.mesh_loop.lock().take() {
            let _ = handle.join();
        }
        for slot in &self.outbound {
            slot.lock().take();
        }
    }

    /// One connect attempt to `process` per address it resolves to, each
    /// given `budget` (at least 1 ms), for a nonblocking `TCP_NODELAY`
    /// stream (mixing batches are latency-sensitive and already coalesced).
    fn dial(&self, process: usize, budget: Duration) -> io::Result<TcpStream> {
        // Read per attempt: `set_peer_addr` may fill it in meanwhile.
        let addr = self.peer_addrs.lock()[process].clone();
        let connect =
            |socket| TcpStream::connect_timeout(&socket, budget.max(Duration::from_millis(1)));
        let stream = addr.to_socket_addrs().and_then(|sockets| {
            let none = Err(ErrorKind::AddrNotAvailable.into());
            sockets.fold(none, |tried, socket| tried.or_else(|_| connect(socket)))
        });
        let stream = stream.map_err(|error| {
            let context = format!("connecting to peer process {process} at {addr}: {error}");
            io::Error::new(error.kind(), context)
        })?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    }

    /// Writes `frame` to the outbound stream of `process`, once [`live`]
    /// passes it; a missing one gets one connect attempt if `dial` allows.
    /// A failure leaves the slot empty, so the next send dials afresh.
    fn forward(&self, process: usize, frame: &[u8], dial: Dial) -> Result<(), SendError> {
        let budget = self.options.connect_timeout;
        let mut slot = self.outbound[process].lock();
        let stream = match (slot.take().and_then(live), dial) {
            (Some(stream), _) => Ok(stream),
            (None, Dial::IfNeeded) => self.dial(process, budget),
            (None, Dial::Never) => Err(ErrorKind::NotConnected.into()),
        };
        let sent = stream.and_then(|mut stream| {
            write_frame(&mut stream, frame, budget)?;
            *slot = Some(stream);
            Ok(())
        });
        sent.map_err(|error| {
            if error.kind() == ErrorKind::TimedOut {
                atom_obs::count("net.tcp.send_timeouts", 1);
            }
            atom_obs::count("net.tcp.send_failures", 1);
            SendError { process, error }
        })
    }
}

/// The nonblocking outbound `stream` while its peer holds it open. The
/// mesh never writes back on it, so anything but "nothing to read yet" is
/// EOF or a reset: the stream is stale, and dropped.
fn live(stream: TcpStream) -> Option<TcpStream> {
    let open = matches!(stream.peek(&mut [0]), Err(error) if error.kind() == ErrorKind::WouldBlock);
    if !open {
        atom_obs::count("net.tcp.stale_streams", 1);
    }
    open.then_some(stream)
}

/// Writes all of `frame` to the nonblocking `stream` within `budget`: one
/// nonblocking `write`, then, if the socket buffer filled, one blocking
/// `write` of the rest under a `budget` write timeout, which Linux spends
/// across the whole call; a peer reading a byte at a time cannot stretch
/// it. Whatever is still unwritten then is a timeout.
fn write_frame(stream: &mut TcpStream, frame: &[u8], budget: Duration) -> io::Result<()> {
    let written = match stream.write(frame) {
        Ok(written) => written,
        Err(error) if error.kind() == ErrorKind::WouldBlock => 0,
        Err(error) => return Err(error),
    };
    if written == frame.len() {
        return Ok(());
    }
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(budget))?;
    let rest = stream.write(&frame[written..]);
    stream.set_nonblocking(true)?;
    match rest {
        Ok(rest) if written + rest == frame.len() => Ok(()),
        Err(error) if error.kind() != ErrorKind::WouldBlock => Err(error),
        // The timeout expired with part of the frame, or none of it, out.
        _ => Err(ErrorKind::TimedOut.into()),
    }
}

/// Where the mesh loop delivers: the node mailboxes and the control inbox.
type Inboxes = (Arc<Mailboxes>, Arc<ControlInbox>);

/// Control frames in arrival order, and the wake-up of whoever waits on
/// them ([`TcpTransport::recv_control`]).
type ControlInbox = (Mutex<VecDeque<Vec<u8>>>, Condvar);

fn push_control((frames, arrived): &ControlInbox, frame: Vec<u8>) {
    frames.lock().push_back(frame);
    arrived.notify_all();
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The process's one receive thread: parks until a peer connection is
/// readable, delivers the envelopes of its complete frames — a control
/// frame to the control inbox, any other to its node's mailbox — and hangs
/// up on any peer that sends a bad one, until `closing`.
fn mesh_loop(mut evloop: EventLoop, inboxes: &Inboxes, closing: &AtomicBool, me: usize) {
    let (mailboxes, control) = inboxes;
    let mut events = Vec::new();
    while !closing.load(Ordering::SeqCst) {
        evloop.wait(&mut events, None);
        for event in events.drain(..) {
            let violation = match event {
                Event::Frame { conn, payload } => match open_envelope(payload, mailboxes.nodes()) {
                    Ok(envelope) => {
                        match envelope.to {
                            CONTROL => push_control(control, envelope.payload),
                            _ => mailboxes.deliver(envelope),
                        }
                        continue;
                    }
                    Err(violation) => {
                        evloop.close(conn);
                        violation
                    }
                },
                Event::Closed {
                    reason: CloseReason::Malformed(violation),
                    ..
                } => violation,
                _ => continue,
            };
            eprintln!("atom-net: process {me} hung up on a peer: {violation}");
        }
    }
    evloop.close_all();
}

/// Splits a mesh frame's payload into its envelope. Both node ids must name
/// nodes of the deployment, but not necessarily ones hosted here: during
/// recovery a peer may send to a mailbox this process is about to take over
/// (ownership reassignment). The reserved [`CONTROL`] id passes only as the
/// control address, in both fields at once.
fn open_envelope(mut frame: Vec<u8>, nodes: usize) -> Result<Envelope, String> {
    let Some(&[f0, f1, f2, f3, t0, t1, t2, t3, l0, l1]) = frame.first_chunk::<PREFIX_LEN>() else {
        return Err(format!("{}-byte frame has no envelope prefix", frame.len()));
    };
    let from = u32::from_le_bytes([f0, f1, f2, f3]) as usize;
    let to = u32::from_le_bytes([t0, t1, t2, t3]) as usize;
    let control = from == CONTROL && to == CONTROL;
    if !control && (from >= nodes || to >= nodes) {
        return Err(format!("frame from node {from} to node {to} of {nodes}"));
    }
    let label_len = u16::from_le_bytes([l0, l1]) as usize;
    if label_len > MAX_LABEL_LEN {
        return Err(format!("{label_len}-byte frame label"));
    }
    let end = PREFIX_LEN + label_len;
    let label = frame.get(PREFIX_LEN..end).ok_or("label overruns frame")?;
    let label = std::str::from_utf8(label).map_err(|_| "frame label is not UTF-8")?;
    let label = Cow::Owned(label.to_owned());
    frame.drain(..end);
    Ok(Envelope {
        from,
        to,
        label,
        payload: frame,
    })
}

/// Encodes one mesh frame (layout in the module docs).
fn mesh_frame(from: NodeId, to: NodeId, label: &str, payload: &[u8]) -> Vec<u8> {
    assert!(label.len() <= MAX_LABEL_LEN, "envelope label too long");
    let [f0, f1, f2, f3] = (from as u32).to_le_bytes();
    let [t0, t1, t2, t3] = (to as u32).to_le_bytes();
    let [l0, l1] = (label.len() as u16).to_le_bytes();
    let prefix = [f0, f1, f2, f3, t0, t1, t2, t3, l0, l1];
    let header = client_header(PREFIX_LEN + label.len() + payload.len());
    [&header[..], &prefix, label.as_bytes(), payload].concat()
}

/// First delay and ceiling of `connect_peers`'s exponential backoff.
const CONNECT_BACKOFF_BASE_MS: u64 = 5;
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

impl Transport for TcpTransport {
    fn nodes(&self) -> usize {
        self.mailboxes.nodes()
    }

    fn is_local(&self, node: NodeId) -> bool {
        node < self.nodes() && self.owner.lock()[node] == self.me
    }

    fn send(
        &self,
        from: NodeId,
        to: NodeId,
        label: Cow<'static, str>,
        payload: Vec<u8>,
    ) -> Result<(), SendError> {
        assert!(from < self.nodes() && to < self.nodes(), "unknown node");
        let process = self.owner.lock()[to];
        if process != self.me {
            self.forward(
                process,
                &mesh_frame(from, to, &label, &payload),
                Dial::IfNeeded,
            )?;
        }
        // Metered only once the frame is written: frames that never reached
        // a dead peer must not inflate the fleet's traffic counters.
        atom_obs::count(&format!("net.tcp.frames.{label}"), 1);
        atom_obs::count(&format!("net.tcp.bytes.{label}"), payload.len() as u64);
        atom_obs::count(&format!("net.tcp.to_process.{process}.frames"), 1);
        if process == self.me {
            let envelope = Envelope {
                from,
                to,
                label,
                payload,
            };
            self.mailboxes.deliver(envelope);
        }
        Ok(())
    }

    fn drain(&self, node: NodeId) -> Vec<Envelope> {
        self.mailboxes.drain(node)
    }

    fn pending(&self, node: NodeId) -> usize {
        self.mailboxes.pending(node)
    }

    fn set_delivery_hook(&self, hook: Option<DeliveryHook>) {
        self.mailboxes.set_hook(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evloop::client_frame;
    use atom_obs::counter;
    use std::io::Read;
    use std::net::TcpListener;
    use std::sync::mpsc::{channel, Receiver};

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

    /// Routes `transport`'s delivery hook into a channel.
    fn arrivals(transport: &TcpTransport) -> Receiver<NodeId> {
        let (tx, rx) = channel();
        let hook: DeliveryHook = Arc::new(move |node| {
            let _ = tx.send(node);
        });
        Transport::set_delivery_hook(transport, Some(hook));
        rx
    }

    /// Parks until `node` has mail. The hook goes in before the check, so
    /// no arrival slips between the two.
    fn wait_pending(transport: &TcpTransport, node: NodeId) {
        let delivered = arrivals(transport);
        while Transport::pending(transport, node) == 0 {
            let arrived = delivered.recv_timeout(Duration::from_secs(5));
            arrived.expect("message never arrived");
        }
    }

    /// A mesh frame with arbitrary — possibly invalid — envelope fields.
    fn raw_frame(from: u32, to: u32, label: &[u8], body: &[u8]) -> Vec<u8> {
        let mut payload = Vec::new();
        payload.extend_from_slice(&from.to_le_bytes());
        payload.extend_from_slice(&to.to_le_bytes());
        payload.extend_from_slice(&(label.len() as u16).to_le_bytes());
        payload.extend_from_slice(label);
        payload.extend_from_slice(body);
        client_frame(&payload)
    }

    /// Opens a raw peer connection to `transport` and writes `bytes`.
    fn rogue(transport: &TcpTransport, bytes: &[u8]) -> TcpStream {
        let mut stream = TcpStream::connect(transport.local_addr()).unwrap();
        stream.write_all(bytes).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
    }

    /// Whether the transport hung up on `stream` (EOF or a reset, never
    /// data, within the read timeout).
    fn hung_up(stream: &mut TcpStream) -> bool {
        match stream.read(&mut [0u8; 64]) {
            Ok(read) => read == 0,
            Err(error) => error.kind() == io::ErrorKind::ConnectionReset,
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
        let delivered = arrivals(&b);
        Transport::send(&a, 0, 1, "hooked".into(), vec![9]).unwrap();
        assert_eq!(delivered.recv_timeout(Duration::from_secs(5)), Ok(1));
        assert!(delivered.try_recv().is_err(), "the hook fired twice");
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn malformed_frames_poison_only_their_connection() {
        let (a, b) = pair(vec![0, 1]);
        // A length claim past the 64 MiB cap: the loop must hang up
        // without allocating the claimed length.
        let mut absurd = client_frame(&[]);
        absurd[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        // The retired "ATOM" header, and an envelope prefix cut short.
        let mut retired = b"ATOM".to_vec();
        retired.extend_from_slice(&[1; 15]);
        let short = client_frame(&[0, 0, 0, 0, 1]);
        let mut rogues: Vec<TcpStream> = [absurd, retired, short]
            .iter()
            .map(|bytes| rogue(&b, bytes))
            .collect();
        // The healthy connection keeps working.
        Transport::send(&a, 0, 1, "still-fine".into(), vec![7]).unwrap();
        wait_pending(&b, 1);
        assert_eq!(Transport::drain(&b, 1).len(), 1);
        assert!(rogues.iter_mut().all(hung_up));
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn frames_for_unknown_nodes_are_rejected_but_unowned_ones_buffer() {
        let (a, b) = pair(vec![0, 1]);
        // Node ids outside the deployment, on either end, and a label that
        // is not UTF-8 each poison their connection.
        let mut rogues: Vec<TcpStream> = [
            raw_frame(1, 99, b"unknown", &[1]),
            raw_frame(99, 1, b"unknown", &[1]),
            raw_frame(1, 1, &[0xFF, 0xFE], &[1]),
        ]
        .iter()
        .map(|bytes| rogue(&b, bytes))
        .collect();
        assert!(rogues.iter_mut().all(hung_up));
        // A frame for a valid node this process does NOT currently own is
        // buffered — recovery reassigns mailboxes between rounds and the
        // frame may arrive first.
        let _early = rogue(&b, &raw_frame(1, 0, b"early", &[2]));
        wait_pending(&b, 0);
        assert_eq!(Transport::drain(&b, 0)[0].payload, vec![2]);
        assert_eq!(Transport::pending(&b, 1), 0, "a rejected frame arrived");
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
        assert_eq!(*a.owner.lock(), vec![0, 1, 0]);
        Transport::send(&a, 0, 2, "after".into(), vec![2]).unwrap();
        assert_eq!(Transport::drain(&a, 2)[0].payload, vec![2]);
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn try_send_is_best_effort_and_never_connects() {
        let (a, b) = pair(vec![0, 1]);
        // Established stream: the frame goes through like a normal send.
        let try_send = |process, frame: &[u8]| a.send_control(process, frame, Dial::Never);
        assert!(try_send(1, &[9]).is_ok());
        assert_eq!(b.recv_control(soon()), Some(vec![9]));
        // Local delivery always succeeds.
        assert!(try_send(0, &[3]).is_ok());
        assert_eq!(a.recv_control(Instant::now()), Some(vec![3]));
        // The peer shut down, so its stream is dropped unwritten (and
        // nobody listens): fails immediately instead of connecting.
        b.shutdown();
        let start = Instant::now();
        let error = try_send(1, &[9]).unwrap_err();
        assert_eq!(error.process, 1);
        assert_eq!(error.error.kind(), ErrorKind::NotConnected);
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "blocked on connect"
        );
        a.shutdown();
    }

    /// Five seconds from now: how long a test waits for a frame to arrive.
    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn send_control_bypasses_the_owner_map() {
        // Process 1 hosts no node, yet a control frame reaches it, and
        // lands in no node mailbox on either side.
        let (a, b) = pair(vec![0, 0]);
        a.send_control(1, &[7], Dial::IfNeeded).unwrap();
        assert_eq!(b.recv_control(soon()), Some(vec![7]));
        // Loopback path.
        a.send_control(0, &[8], Dial::IfNeeded).unwrap();
        assert_eq!(a.recv_control(soon()), Some(vec![8]));
        assert_eq!(a.recv_control(Instant::now()), None, "an inbox left a copy");
        for node in 0..2 {
            assert_eq!(
                Transport::pending(&a, node) + Transport::pending(&b, node),
                0
            );
        }
        a.shutdown();
        b.shutdown();
    }

    /// The reserved id passes only as the control address: in one field
    /// alone it is an unknown node and poisons its connection.
    #[test]
    fn the_control_id_passes_only_as_the_control_address() {
        let (a, b) = pair(vec![0, 1]);
        let control = CONTROL as u32;
        let mut rogues: Vec<TcpStream> = [
            raw_frame(control, 1, b"", &[1]),
            raw_frame(1, control, b"", &[1]),
        ]
        .iter()
        .map(|bytes| rogue(&b, bytes))
        .collect();
        assert!(rogues.iter_mut().all(hung_up));
        let _peer = rogue(&b, &raw_frame(control, control, b"", &[5]));
        assert_eq!(b.recv_control(soon()), Some(vec![5]));
        assert_eq!(Transport::pending(&b, 1), 0, "a rejected frame arrived");
        a.shutdown();
        b.shutdown();
    }

    /// A peer that accepts a connection and never reads fills the socket
    /// buffers; the send that finds them full must come back as a value
    /// naming the peer within twice the write budget, however many bytes
    /// it got out. The sender runs on its own thread, behind a guard, so a
    /// send that blocks fails this test rather than hanging it.
    #[test]
    fn send_to_a_peer_that_never_reads_errs_within_the_write_budget() {
        let budget = Duration::from_millis(200);
        let options = TcpOptions {
            connect_timeout: budget,
        };
        let a = TcpTransport::bind_any(2, vec![0, 1], 0, options).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        a.set_peer_addr(1, listener.local_addr().unwrap().to_string());
        a.connect_peers().unwrap();
        let _peer = listener.accept().unwrap();
        let timeouts = counter("net.tcp.send_timeouts");

        let (done, outcome) = channel();
        let sender = std::thread::spawn(move || {
            for _ in 0..64 {
                let start = Instant::now();
                let sent = Transport::send(&a, 0, 1, "wedged".into(), vec![0; 1 << 20]);
                if let Err(error) = sent {
                    let _ = done.send(Ok((start.elapsed(), error)));
                    return;
                }
            }
            let _ = done.send(Err("64 MiB went out to a peer that never reads"));
        });
        let outcome = outcome.recv_timeout(Duration::from_secs(10));
        let (elapsed, error) = outcome.expect("the send blocked").unwrap();
        sender.join().unwrap();
        assert!(elapsed < budget * 2, "the failing send took {elapsed:?}");
        assert_eq!(error.process, 1);
        assert_eq!(error.error.kind(), ErrorKind::TimedOut, "{error}");
        assert!(counter("net.tcp.send_timeouts") > timeouts);
    }

    #[test]
    fn first_send_after_a_peer_restart_arrives() {
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
        let delivered = arrivals(&b2);
        // The first send after the restart finds the old stream closed,
        // drops it unwritten and dials the new listener.
        Transport::send(&a, 0, 1, "after-restart".into(), vec![2]).unwrap();
        assert_eq!(delivered.recv_timeout(Duration::from_secs(5)), Ok(1));
        assert_eq!(Transport::drain(&b2, 1)[0].payload, vec![2]);
        a.shutdown();
        b2.shutdown();
    }

    /// A peer that shut down closed its end of the stream: the next send
    /// drops the stream, dials once, is refused and names the peer — well
    /// inside the default 10 s budget.
    #[test]
    fn send_to_a_peer_that_has_shut_down_errs_within_a_second() {
        let (a, b) = pair(vec![0, 1]);
        Transport::send(&a, 0, 1, "before".into(), vec![1]).unwrap();
        wait_pending(&b, 1);
        b.shutdown();
        let start = Instant::now();
        let error = Transport::send(&a, 0, 1, "after".into(), vec![2]).unwrap_err();
        assert!(
            start.elapsed() < Duration::from_secs(1),
            "the failing send took {:?}",
            start.elapsed()
        );
        assert_eq!(error.process, 1);
        assert!(error.to_string().contains("process 1"), "{error}");
        a.shutdown();
    }

    /// A listener whose accept queue is full drops SYNs, and a plain
    /// connect to it waits out the kernel's SYN retries (minutes). Each
    /// attempt of `connect_peers` has its own timeout, so it errs within
    /// twice its budget. It runs on its own thread, behind a guard, so an
    /// attempt that blocks fails this test rather than hanging it.
    #[test]
    fn connect_peers_honours_its_budget_against_a_listener_that_drops_syns() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut held = Vec::new();
        let full = loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
                Ok(stream) if held.len() < 1024 => held.push(stream),
                Err(error) if error.kind() == ErrorKind::TimedOut => break true,
                _ => break false,
            }
        };
        if !full {
            eprintln!(
                "skipped: the accept queue took {} connections without filling",
                held.len()
            );
            return;
        }
        let budget = Duration::from_millis(200);
        let options = TcpOptions {
            connect_timeout: budget,
        };
        let a = TcpTransport::bind_any(2, vec![0, 1], 0, options).unwrap();
        a.set_peer_addr(1, addr.to_string());
        let (done, outcome) = channel();
        let dialer = std::thread::spawn(move || {
            let start = Instant::now();
            let connected = a.connect_peers();
            let _ = done.send((start.elapsed(), connected));
        });
        let outcome = outcome.recv_timeout(Duration::from_secs(10));
        let (elapsed, connected) = outcome.expect("connect_peers blocked");
        dialer.join().unwrap();
        assert!(
            connected.is_err(),
            "connected to a listener that drops SYNs"
        );
        assert!(elapsed < budget * 2, "connect_peers took {elapsed:?}");
    }

    /// A peer that never started is an expected input: the send comes back
    /// as a value within the connect budget, is metered as a failure and
    /// not as traffic, and the next send after the peer binds reconnects.
    #[test]
    fn send_to_a_never_started_peer_errs_then_reaches_it_once_bound() {
        let options = TcpOptions {
            connect_timeout: Duration::from_millis(100),
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
        // One connect attempt, which the refusal ends at once.
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
        let before = counter("net.tcp.connect_retries");
        // Nobody listens on the peer address: the connect loop must retry
        // (metering each attempt) until the budget expires.
        let options = TcpOptions {
            connect_timeout: Duration::from_millis(60),
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
    }

    #[test]
    fn shutdown_is_idempotent_and_joins_the_listener() {
        let (a, b) = pair(vec![0, 1]);
        a.shutdown();
        a.shutdown();
        b.shutdown();
    }

    /// A peer that holds its half of the connection open must not keep
    /// the mesh loop — or the connection — alive past `shutdown`: the loop
    /// closes every inbound connection before its thread is joined.
    #[test]
    fn shutdown_joins_the_loop_despite_a_peer_that_never_closes() {
        let a = TcpTransport::bind_any(2, vec![0, 1], 0, TcpOptions::default()).unwrap();
        // A rogue "peer": sends one valid frame to prove the loop holds its
        // connection, then sits on the open socket without closing either
        // half.
        let mut peer = rogue(&a, &raw_frame(1, 0, b"rogue", &[9; 16]));
        wait_pending(&a, 0);

        let start = Instant::now();
        a.shutdown();
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "shutdown hung on the loop join"
        );
        assert!(a.mesh_loop.lock().is_none(), "the loop was not joined");
        assert!(
            hung_up(&mut peer),
            "the rogue's connection outlived teardown"
        );
    }
}
