//! The [`Transport`] abstraction and its in-process backend.
//!
//! Atom's servers communicate over authenticated channels (TLS in the
//! paper's deployment). This reproduction routes every protocol message
//! through the [`Transport`] trait — addressed opaque bytes into a
//! mailbox per node, nothing more — so the same engine code runs against:
//!
//! * [`InMemoryNetwork`] (this module): every node in one process; a send
//!   is a push onto the destination's lock-protected mailbox.
//! * [`TcpTransport`](crate::tcp::TcpTransport): a multi-process backend
//!   shipping the same envelopes as length-delimited frames over TCP,
//!   received on one `epoll` loop thread per process.
//!
//! Both backends store and wake through the one mailbox core in this
//! module. A transport only transports: traffic is counted by the
//! runtime's `RoundReport` and the `net.*` counters of `atom_obs`.
//!
//! A slow or unreachable server is a fault of the frames it sends, so it is
//! injected here too: [`FaultyTransport`] wraps either backend and passes
//! each send through one rule.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// Identifies a protocol endpoint (a server, a trustee, or the orchestrator).
pub type NodeId = usize;

/// An addressed protocol message.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Envelope {
    /// Sending node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Application-level label (used for tracing and per-phase accounting).
    /// Static labels — the common case on the mixing hot path — are borrowed
    /// rather than allocated per message.
    pub label: Cow<'static, str>,
    /// Serialized payload.
    pub payload: Vec<u8>,
}

/// A [`Transport::send`] that reached no mailbox: the process hosting the
/// destination is unreachable. A peer that stops answering is an expected
/// input (§4.5), so it travels as a value the caller matches on.
#[derive(Debug)]
pub struct SendError {
    /// Index of the unreachable peer process.
    pub process: usize,
    /// The connect or write failure that gave the peer away.
    pub error: io::Error,
}

impl fmt::Display for SendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "peer process {} unreachable: {}",
            self.process, self.error
        )
    }
}

impl std::error::Error for SendError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.error)
    }
}

/// Callback a [`Transport`] invokes every time an envelope lands in one of
/// its *local* mailboxes (whether the sender was local or a remote peer).
/// The runtime registers one to turn arrivals into scheduler wake-ups
/// instead of polling; transports with no hook registered just enqueue.
pub(crate) type DeliveryHook = Arc<dyn Fn(NodeId) + Send + Sync>;

/// A mailbox-per-node message substrate.
///
/// Endpoints are dense ids `0..nodes()`. A backend may host only a subset
/// of them locally ([`Transport::is_local`]); sends to non-local nodes are
/// forwarded to the backend that hosts them (over TCP, say), and only local
/// mailboxes can be drained. All methods are callable from any thread.
pub trait Transport: Send + Sync {
    /// Number of endpoints.
    fn nodes(&self) -> usize;

    /// Whether `node`'s mailbox lives in this process.
    fn is_local(&self, node: NodeId) -> bool;

    /// Sends `payload` from `from` to `to`. `Err` means the process hosting
    /// `to` is unreachable and the envelope was not delivered.
    fn send(
        &self,
        from: NodeId,
        to: NodeId,
        label: Cow<'static, str>,
        payload: Vec<u8>,
    ) -> Result<(), SendError>;

    /// Drains every queued envelope for local node `node`.
    fn drain(&self, node: NodeId) -> Vec<Envelope>;

    /// Number of envelopes waiting for local node `node`.
    fn pending(&self, node: NodeId) -> usize;

    /// Registers (or, with `None`, removes) the delivery hook. At most one
    /// hook is active; setting replaces. The hook may be invoked
    /// concurrently from multiple threads and must not call back into the
    /// transport.
    fn set_delivery_hook(&self, hook: Option<DeliveryHook>);
}

/// The receive half every backend shares: one FIFO mailbox per node id and
/// the delivery hook that announces arrivals.
pub(crate) struct Mailboxes {
    queues: Vec<Mutex<VecDeque<Envelope>>>,
    hook: Mutex<Option<DeliveryHook>>,
}

impl Mailboxes {
    pub(crate) fn new(nodes: usize) -> Self {
        Self {
            queues: (0..nodes).map(|_| Mutex::new(VecDeque::new())).collect(),
            hook: Mutex::new(None),
        }
    }

    pub(crate) fn nodes(&self) -> usize {
        self.queues.len()
    }

    /// Queues `envelope` for its destination and fires the hook.
    pub(crate) fn deliver(&self, envelope: Envelope) {
        let to = envelope.to;
        self.queues[to].lock().push_back(envelope);
        // Outside the mailbox lock: the hook may fan out into scheduler
        // state that itself sends.
        let hook = self.hook.lock().clone();
        if let Some(hook) = hook {
            hook(to);
        }
    }

    pub(crate) fn drain(&self, node: NodeId) -> Vec<Envelope> {
        self.queues[node].lock().drain(..).collect()
    }

    pub(crate) fn pending(&self, node: NodeId) -> usize {
        self.queues[node].lock().len()
    }

    pub(crate) fn set_hook(&self, hook: Option<DeliveryHook>) {
        *self.hook.lock() = hook;
    }
}

/// An in-process network connecting `nodes` endpoints.
#[derive(Clone)]
pub struct InMemoryNetwork {
    mailboxes: Arc<Mailboxes>,
}

impl InMemoryNetwork {
    /// A network of `nodes` endpoints, all hosted in this process.
    pub fn local(nodes: usize) -> Self {
        Self {
            mailboxes: Arc::new(Mailboxes::new(nodes)),
        }
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.mailboxes.nodes()
    }

    /// Sends `payload` from `from` to `to`. Infallible: every mailbox is
    /// local.
    pub fn send(
        &self,
        from: NodeId,
        to: NodeId,
        label: impl Into<Cow<'static, str>>,
        payload: Vec<u8>,
    ) {
        assert!(from < self.nodes() && to < self.nodes(), "unknown node");
        let label = label.into();
        if atom_obs::enabled() {
            atom_obs::count(&format!("net.mem.frames.{label}"), 1);
            atom_obs::count(&format!("net.mem.bytes.{label}"), payload.len() as u64);
        }
        self.mailboxes.deliver(Envelope {
            from,
            to,
            label,
            payload,
        });
    }

    /// Drains every queued message for `node`.
    pub fn drain(&self, node: NodeId) -> Vec<Envelope> {
        self.mailboxes.drain(node)
    }

    /// Number of messages waiting for `node`.
    pub fn pending(&self, node: NodeId) -> usize {
        self.mailboxes.pending(node)
    }
}

impl Transport for InMemoryNetwork {
    fn nodes(&self) -> usize {
        InMemoryNetwork::nodes(self)
    }

    fn is_local(&self, _node: NodeId) -> bool {
        true
    }

    fn send(
        &self,
        from: NodeId,
        to: NodeId,
        label: Cow<'static, str>,
        payload: Vec<u8>,
    ) -> Result<(), SendError> {
        InMemoryNetwork::send(self, from, to, label, payload);
        Ok(())
    }

    fn drain(&self, node: NodeId) -> Vec<Envelope> {
        InMemoryNetwork::drain(self, node)
    }

    fn pending(&self, node: NodeId) -> usize {
        InMemoryNetwork::pending(self, node)
    }

    fn set_delivery_hook(&self, hook: Option<DeliveryHook>) {
        self.mailboxes.set_hook(hook);
    }
}

/// What [`FaultyTransport`] does with one send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendFault {
    /// Forward the envelope untouched.
    Deliver,
    /// Stall the sending thread this long, then forward: a slow server.
    Delay(Duration),
    /// Deliver nothing and fail the send naming `process`: a dead peer.
    Unreachable {
        /// The process the returned [`SendError`] names.
        process: usize,
    },
}

/// A [`Transport`] over a borrowed one whose sends first pass through
/// `rule(from, to, &payload)`. Every other operation is forwarded, so
/// deliveries, [`Transport::pending`], [`Transport::drain`] and the
/// delivery hook behave exactly as on the inner transport. A delay blocks
/// only the calling thread: in the engine, the worker sending that group's
/// frames, outside any lock.
pub struct FaultyTransport<'a, R> {
    inner: &'a dyn Transport,
    rule: R,
}

impl<'a, R> FaultyTransport<'a, R>
where
    R: Fn(NodeId, NodeId, &[u8]) -> SendFault + Send + Sync,
{
    /// Wraps `inner`, deciding each send's fault with `rule`.
    pub fn new(inner: &'a dyn Transport, rule: R) -> Self {
        Self { inner, rule }
    }
}

impl<R> Transport for FaultyTransport<'_, R>
where
    R: Fn(NodeId, NodeId, &[u8]) -> SendFault + Send + Sync,
{
    fn nodes(&self) -> usize {
        self.inner.nodes()
    }

    fn is_local(&self, node: NodeId) -> bool {
        self.inner.is_local(node)
    }

    fn send(
        &self,
        from: NodeId,
        to: NodeId,
        label: Cow<'static, str>,
        payload: Vec<u8>,
    ) -> Result<(), SendError> {
        match (self.rule)(from, to, &payload) {
            SendFault::Deliver => {}
            SendFault::Delay(delay) => std::thread::sleep(delay),
            SendFault::Unreachable { process } => {
                let error = io::Error::new(io::ErrorKind::ConnectionRefused, "injected fault");
                return Err(SendError { process, error });
            }
        }
        self.inner.send(from, to, label, payload)
    }

    fn drain(&self, node: NodeId) -> Vec<Envelope> {
        self.inner.drain(node)
    }

    fn pending(&self, node: NodeId) -> usize {
        self.inner.pending(node)
    }

    fn set_delivery_hook(&self, hook: Option<DeliveryHook>) {
        self.inner.set_delivery_hook(hook);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_receive_roundtrip() {
        let net = InMemoryNetwork::local(3);
        net.send(0, 2, "hello", vec![1, 2, 3]);
        assert_eq!(net.pending(2), 1);
        let envelope = net.drain(2).pop().unwrap();
        assert_eq!(envelope.from, 0);
        assert_eq!(envelope.payload, vec![1, 2, 3]);
        assert_eq!(envelope.label, "hello");
        assert!(net.drain(2).is_empty());
        assert!(net.drain(1).is_empty());
    }

    #[test]
    fn sends_feed_the_observability_counters_when_enabled() {
        let _obs = crate::obs_test_lock();
        let net = InMemoryNetwork::local(2);
        // Disabled (the default): nothing is recorded.
        net.send(0, 1, "meter-probe", vec![0u8; 5]);
        let disabled: u64 = atom_obs::counter_snapshot()
            .into_iter()
            .filter(|(name, _)| name == "net.mem.frames.meter-probe")
            .map(|(_, v)| v)
            .sum();
        assert_eq!(disabled, 0);

        atom_obs::set_enabled(true);
        net.send(0, 1, "meter-probe", vec![0u8; 9]);
        net.send(1, 0, "meter-probe", vec![0u8; 4]);
        atom_obs::set_enabled(false);
        let snapshot = atom_obs::counter_snapshot();
        let get = |name: &str| -> u64 {
            snapshot
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        // The label is unique to this test, so exact counts are safe even
        // with other tests running concurrently in this binary.
        assert_eq!(get("net.mem.frames.meter-probe"), 2);
        assert_eq!(get("net.mem.bytes.meter-probe"), 13);
    }

    #[test]
    fn static_labels_are_borrowed_not_allocated() {
        let net = InMemoryNetwork::local(2);
        net.send(0, 1, "static-label", Vec::new());
        let envelope = net.drain(1).pop().unwrap();
        assert!(matches!(envelope.label, std::borrow::Cow::Borrowed(_)));
        // Owned labels still work for dynamic tracing.
        net.send(0, 1, format!("round-{}", 7), Vec::new());
        let envelope = net.drain(1).pop().unwrap();
        assert_eq!(envelope.label, "round-7");
    }

    #[test]
    fn drain_returns_messages_in_order() {
        let net = InMemoryNetwork::local(2);
        for i in 0..5u8 {
            net.send(0, 1, "seq", vec![i]);
        }
        let drained = net.drain(1);
        assert_eq!(drained.len(), 5);
        for (i, envelope) in drained.iter().enumerate() {
            assert_eq!(envelope.payload, vec![i as u8]);
        }
        assert_eq!(net.pending(1), 0);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn sending_to_unknown_node_panics() {
        let net = InMemoryNetwork::local(1);
        net.send(0, 3, "x", Vec::new());
    }

    #[test]
    fn delivery_hook_fires_per_enqueued_envelope() {
        let net = InMemoryNetwork::local(3);
        let hits = Arc::new(Mutex::new(Vec::new()));
        let sink = hits.clone();
        net.set_delivery_hook(Some(Arc::new(move |node| sink.lock().push(node))));
        net.send(0, 2, "a", vec![1]);
        net.send(1, 2, "b", vec![2]);
        net.send(2, 0, "c", vec![3]);
        assert_eq!(*hits.lock(), vec![2, 2, 0]);
        // Removing the hook stops notifications; mailboxes still fill.
        net.set_delivery_hook(None);
        net.send(0, 1, "d", vec![4]);
        assert_eq!(hits.lock().len(), 3);
        assert_eq!(net.pending(1), 1);
    }

    #[test]
    fn delay_rule_stalls_only_the_matching_sends() {
        let delay = Duration::from_millis(100);
        let net = InMemoryNetwork::local(3);
        let slow = FaultyTransport::new(&net, |from, _, _: &[u8]| {
            if from == 1 {
                SendFault::Delay(delay)
            } else {
                SendFault::Deliver
            }
        });
        let timed_send = |from| {
            let start = std::time::Instant::now();
            slow.send(from, 2, "x".into(), vec![from as u8]).unwrap();
            start.elapsed()
        };
        assert!(timed_send(1) >= delay);
        assert!(timed_send(0) < delay);
        let delivered: Vec<Vec<u8>> = net.drain(2).into_iter().map(|e| e.payload).collect();
        assert_eq!(delivered, vec![vec![1], vec![0]]);
    }

    #[test]
    fn unreachable_rule_fails_the_send_and_delivers_nothing() {
        let net = InMemoryNetwork::local(2);
        let dead =
            FaultyTransport::new(&net, |_, _, _: &[u8]| SendFault::Unreachable { process: 7 });
        let error = dead.send(0, 1, "x".into(), vec![1]).unwrap_err();
        assert_eq!(error.process, 7);
        assert!(error.to_string().contains("peer process 7 unreachable"));
        assert_eq!(net.pending(1), 0);
    }

    #[test]
    fn delivering_rule_is_invisible_to_hook_pending_and_drain() {
        // The same traffic through a bare network and through a wrapper
        // that delivers everything must look identical from the receive
        // side: hook calls, pending counts and drained envelopes.
        let observe = |transport: &dyn Transport| {
            let hits = Arc::new(Mutex::new(Vec::new()));
            let sink = hits.clone();
            transport.set_delivery_hook(Some(Arc::new(move |node| sink.lock().push(node))));
            for (from, to) in [(0, 2), (1, 2), (2, 0)] {
                transport
                    .send(from, to, "t".into(), vec![from as u8])
                    .unwrap();
            }
            let pending: Vec<usize> = (0..3).map(|node| transport.pending(node)).collect();
            transport.set_delivery_hook(None);
            transport.send(0, 1, "t".into(), vec![9]).unwrap();
            let drained: Vec<Vec<Envelope>> = (0..3).map(|node| transport.drain(node)).collect();
            let hits = hits.lock().clone();
            (hits, pending, drained)
        };
        let bare = InMemoryNetwork::local(3);
        let inner = InMemoryNetwork::local(3);
        let wrapped = FaultyTransport::new(&inner, |_, _, _: &[u8]| SendFault::Deliver);
        assert_eq!(wrapped.nodes(), 3);
        assert!(wrapped.is_local(2));
        assert_eq!(observe(&bare), observe(&wrapped));
    }
}
