//! The client ingress tier: an [`IngressServer`] accepting `submit`
//! frames over the event-driven client transport and feeding them to the
//! engine as a [`SubmissionSource`].
//!
//! The paper's "millions of users" reach Atom's fleet through exactly
//! this edge: each user opens one connection to the coordinator, sends
//! one [`wire::SubmitFrame`] per round, and gets back a
//! [`wire::SubmitAckFrame`] verdict. The server multiplexes every
//! connection on **one thread** (`atom_net::evloop`) that sleeps in the
//! kernel until a socket is ready or [`IngressServer::shutdown`] wakes it —
//! idle connections cost it nothing — and defends itself in three layers:
//!
//! 1. **Framing/decoding** — the evloop bounds frame sizes and convicts
//!    slow-drip and backpressured connections; `wire::decode` gives the
//!    payload the full adversarial treatment. A malformed submission
//!    closes its connection.
//! 2. **Per-connection token bucket** ([`TokenBucket`]) — no client may
//!    submit faster than `rate` sustained, `burst` instantaneous; excess
//!    is *shed* with a retry-after hint, not queued.
//! 3. **Bounded admission queue** ([`AdmissionQueue`]) — the buffer
//!    between the ingress thread and round intake holds at most
//!    `queue_capacity` submissions; a flood past the bound sheds instead
//!    of growing memory (the requirement: not OOM, not hung).
//!
//! Admitted submissions become an [`IngressSource`] — sorted by client
//! index so the round's intake order (and therefore the round output) is
//! byte-identical to the same submissions materialized directly into a
//! `RoundJob`, regardless of socket arrival order.
//!
//! Every decision is counted through `atom_obs` (`ingress.accepted`,
//! `ingress.shed.rate`, `ingress.shed.queue`,
//! `ingress.rejected.malformed`, `ingress.rejected.round`,
//! `ingress.rejected.variant`) so a flood is observable, not silent.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use atom_core::{AtomError, AtomResult, Defense};
use atom_net::evloop::{ConnId, Event, EventLoop, EvloopOptions, Waker};
use parking_lot::{Condvar, Mutex};

use crate::engine::{SubmissionBlock, SubmissionSource};
use crate::wire::{self, ClientSubmission, Frame, SubmitAckFrame};

/// A deterministic token-bucket rate limiter. Time is *injected* (a
/// `Duration` since an arbitrary epoch) rather than read from a clock, so
/// property tests can drive it with seeded schedules and the limiter's
/// decisions replay exactly.
#[derive(Clone, Debug)]
pub struct TokenBucket {
    rate: f64,
    burst: f64,
    tokens: f64,
    last: Duration,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/second, holding at most
    /// `burst` tokens (and starting full).
    pub fn new(rate: f64, burst: f64) -> Self {
        Self {
            rate: rate.max(0.0),
            burst: burst.max(0.0),
            tokens: burst.max(0.0),
            last: Duration::ZERO,
        }
    }

    /// Charges one token at time `now` (monotone across calls; a
    /// regressing `now` refills nothing). Returns whether the request is
    /// within rate. Over any window `[0, t]` the number of `true`
    /// verdicts never exceeds `burst + rate · t` — the property the test
    /// suite pins down.
    pub fn admit(&mut self, now: Duration) -> bool {
        let elapsed = now.saturating_sub(self.last);
        if elapsed > Duration::ZERO {
            self.tokens = (self.tokens + elapsed.as_secs_f64() * self.rate).min(self.burst);
            self.last = now;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Verdict of [`AdmissionQueue::offer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The item was enqueued.
    Admitted,
    /// The queue was full; the item was dropped (shed).
    Shed,
}

/// A bounded FIFO between the ingress thread and round intake, with
/// shed/admit accounting. The invariant the property tests pin down:
/// `offered() == admitted() + shed()` at every point, and the live
/// length never exceeds the capacity.
#[derive(Debug)]
pub struct AdmissionQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    offered: u64,
    admitted: u64,
    shed: u64,
}

impl<T> AdmissionQueue<T> {
    /// An empty queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        Self {
            items: VecDeque::new(),
            capacity,
            offered: 0,
            admitted: 0,
            shed: 0,
        }
    }

    /// Offers one item: enqueued if there is room, shed otherwise.
    pub fn offer(&mut self, item: T) -> Admission {
        self.offered += 1;
        if self.items.len() >= self.capacity {
            self.shed += 1;
            Admission::Shed
        } else {
            self.items.push_back(item);
            self.admitted += 1;
            Admission::Admitted
        }
    }

    /// Takes everything currently queued (freeing capacity).
    pub fn drain(&mut self) -> Vec<T> {
        self.items.drain(..).collect()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether nothing is currently queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total items ever offered.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Total items ever admitted.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total items ever shed.
    pub fn shed(&self) -> u64 {
        self.shed
    }
}

/// Tuning knobs of an [`IngressServer`].
#[derive(Clone, Debug)]
pub struct IngressOptions {
    /// The round submissions must target; mismatches are shed with a
    /// retry hint (an early client is not an attacker).
    pub round: usize,
    /// The defense variant submissions must carry; a mismatch is a
    /// protocol violation and closes the connection.
    pub defense: Defense,
    /// The application tag submissions must carry.
    pub app: u16,
    /// Sustained per-connection submission rate (tokens/second).
    pub rate: f64,
    /// Instantaneous per-connection burst allowance.
    pub burst: f64,
    /// Bound on the admission queue.
    pub queue_capacity: usize,
    /// Retry hint carried in shed acks.
    pub retry_after: Duration,
    /// Transport-level knobs (idle timeout, frame cap, connection cap).
    pub evloop: EvloopOptions,
}

impl Default for IngressOptions {
    fn default() -> Self {
        Self {
            round: 0,
            defense: Defense::Nizk,
            app: 0,
            rate: 100.0,
            burst: 20.0,
            queue_capacity: 1 << 16,
            retry_after: Duration::from_millis(250),
            evloop: EvloopOptions::default(),
        }
    }
}

/// A snapshot of one server's decision counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IngressStats {
    /// Submissions offered to the admission queue (post rate limit).
    pub offered: u64,
    /// Submissions admitted to the queue.
    pub admitted: u64,
    /// Submissions shed by the per-connection rate limit.
    pub shed_rate: u64,
    /// Submissions shed by the full admission queue.
    pub shed_queue: u64,
    /// Frames rejected as malformed (connection closed).
    pub malformed: u64,
    /// Well-formed submissions for the wrong round or app tag.
    pub wrong_round: u64,
}

struct IngressShared {
    queue: Mutex<AdmissionQueue<(u64, ClientSubmission)>>,
    /// Signalled on every admission; [`IngressServer::source`] waits on it.
    admitted: Condvar,
    shed_rate: AtomicU64,
    malformed: AtomicU64,
    wrong_round: AtomicU64,
    stop: AtomicBool,
}

/// A client-facing ingress server: one listener, one thread, thousands
/// of connections. See the [module docs](self) for the admission layers.
pub struct IngressServer {
    shared: Arc<IngressShared>,
    local_addr: SocketAddr,
    defense: Defense,
    waker: Waker,
    thread: Mutex<Option<JoinHandle<()>>>,
}

impl IngressServer {
    /// Binds the listener (port `0` picks a free port) and starts the
    /// ingress thread.
    pub fn bind(addr: &str, options: IngressOptions) -> io::Result<Self> {
        let evloop = EventLoop::bind(addr, options.evloop.clone())?;
        let local_addr = evloop.local_addr();
        let waker = evloop.waker();
        let shared = Arc::new(IngressShared {
            queue: Mutex::new(AdmissionQueue::new(options.queue_capacity)),
            admitted: Condvar::new(),
            shed_rate: AtomicU64::new(0),
            malformed: AtomicU64::new(0),
            wrong_round: AtomicU64::new(0),
            stop: AtomicBool::new(false),
        });
        let defense = options.defense;
        let serve_shared = Arc::clone(&shared);
        let thread = std::thread::spawn(move || serve(evloop, serve_shared, options));
        Ok(Self {
            shared,
            local_addr,
            defense,
            waker,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The listener's resolved address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Current decision counters.
    pub fn stats(&self) -> IngressStats {
        let queue = self.shared.queue.lock();
        IngressStats {
            offered: queue.offered(),
            admitted: queue.admitted(),
            shed_rate: self.shared.shed_rate.load(Ordering::Relaxed),
            shed_queue: queue.shed(),
            malformed: self.shared.malformed.load(Ordering::Relaxed),
            wrong_round: self.shared.wrong_round.load(Ordering::Relaxed),
        }
    }

    /// Waits until at least `expected` submissions are queued (or the
    /// timeout expires), then drains them into an [`IngressSource`]:
    /// sorted by client index, duplicate client indices dropped (first
    /// kept), ready to stream into a `RoundJob`.
    pub fn source(&self, expected: usize, timeout: Duration) -> AtomResult<IngressSource> {
        let deadline = Instant::now() + timeout;
        let mut queue = self.shared.queue.lock();
        while queue.len() < expected {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let queued = queue.len();
                return Err(AtomError::Config(format!(
                    "ingress source timed out with {queued}/{expected} submissions queued"
                )));
            }
            queue = self.shared.admitted.wait_timeout(queue, left).0;
        }
        let mut items = queue.drain();
        drop(queue);
        items.sort_by_key(|(client, _)| *client);
        items.dedup_by_key(|(client, _)| *client);
        IngressSource::from_items(self.defense, items)
    }

    /// Stops the ingress thread, closes every connection and joins.
    /// Idempotent; also run on drop.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.waker.wake();
        if let Some(handle) = self.thread.lock().take() {
            let _ = handle.join();
        }
    }
}

impl Drop for IngressServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The ingress thread: parks in the event loop until sockets are ready or
/// `shutdown` wakes it, decodes submit frames and runs the admission layers.
fn serve(mut evloop: EventLoop, shared: Arc<IngressShared>, options: IngressOptions) {
    let epoch = Instant::now();
    let mut buckets: HashMap<ConnId, TokenBucket> = HashMap::new();
    let mut events = Vec::new();
    while !shared.stop.load(Ordering::SeqCst) {
        evloop.wait(&mut events, None);
        for event in events.drain(..) {
            match event {
                Event::Opened { conn, .. } => {
                    buckets.insert(conn, TokenBucket::new(options.rate, options.burst));
                }
                Event::Closed { conn, .. } => {
                    buckets.remove(&conn);
                }
                Event::Frame { conn, payload } => {
                    handle_frame(
                        &mut evloop,
                        &shared,
                        &options,
                        &mut buckets,
                        conn,
                        &payload,
                        epoch.elapsed(),
                    );
                }
            }
        }
    }
    evloop.close_all();
}

/// Runs one decoded client frame through validation → rate limit →
/// admission queue, answering with an ack or closing the connection.
fn handle_frame(
    evloop: &mut EventLoop,
    shared: &IngressShared,
    options: &IngressOptions,
    buckets: &mut HashMap<ConnId, TokenBucket>,
    conn: ConnId,
    payload: &[u8],
    now: Duration,
) {
    let frame = match wire::decode(payload) {
        Ok(Frame::Submit(frame)) => frame,
        // Anything else — undecodable bytes or a non-submit frame — is a
        // protocol violation on a client connection.
        _ => {
            shared.malformed.fetch_add(1, Ordering::Relaxed);
            atom_obs::count("ingress.rejected.malformed", 1);
            evloop.close(conn);
            return;
        }
    };
    if frame.round != options.round || frame.app != options.app {
        // An early/late-but-honest client: shed with a retry hint rather
        // than convicting the connection.
        shared.wrong_round.fetch_add(1, Ordering::Relaxed);
        atom_obs::count("ingress.rejected.round", 1);
        send_ack(evloop, conn, options, true);
        return;
    }
    let variant_ok = matches!(
        (&frame.submission, options.defense),
        (ClientSubmission::Nizk(_), Defense::Nizk) | (ClientSubmission::Trap(_), Defense::Trap)
    );
    if !variant_ok {
        shared.malformed.fetch_add(1, Ordering::Relaxed);
        atom_obs::count("ingress.rejected.variant", 1);
        evloop.close(conn);
        return;
    }
    let Some(bucket) = buckets.get_mut(&conn) else {
        return; // connection already closed this pass
    };
    if !bucket.admit(now) {
        shared.shed_rate.fetch_add(1, Ordering::Relaxed);
        atom_obs::count("ingress.shed.rate", 1);
        send_ack(evloop, conn, options, true);
        return;
    }
    let admission = shared.queue.lock().offer((frame.client, frame.submission));
    match admission {
        Admission::Admitted => {
            shared.admitted.notify_one();
            atom_obs::count("ingress.accepted", 1);
            send_ack(evloop, conn, options, false);
        }
        Admission::Shed => {
            atom_obs::count("ingress.shed.queue", 1);
            send_ack(evloop, conn, options, true);
        }
    }
}

fn send_ack(evloop: &mut EventLoop, conn: ConnId, options: &IngressOptions, shed: bool) {
    let ack = SubmitAckFrame {
        round: options.round,
        shed,
        retry_after: if shed {
            options.retry_after
        } else {
            Duration::ZERO
        },
    };
    evloop.send(conn, &wire::encode_submit_ack(&ack));
}

/// The submissions one ingress round admitted, ordered by client index —
/// a [`SubmissionSource`] the engine streams through its bounded intake
/// window exactly like any other source.
pub struct IngressSource {
    submissions: SubmissionBlock,
}

impl IngressSource {
    fn from_items(defense: Defense, items: Vec<(u64, ClientSubmission)>) -> AtomResult<Self> {
        let mut submissions = match defense {
            Defense::Nizk => SubmissionBlock::Nizk(Vec::with_capacity(items.len())),
            Defense::Trap => SubmissionBlock::Trap(Vec::with_capacity(items.len())),
        };
        for (client, submission) in items {
            match (&mut submissions, submission) {
                (SubmissionBlock::Nizk(out), ClientSubmission::Nizk(s)) => out.push(s),
                (SubmissionBlock::Trap(out), ClientSubmission::Trap(s)) => out.push(s),
                _ => {
                    return Err(AtomError::Config(format!(
                        "client {client} admitted with the wrong defense variant"
                    )))
                }
            }
        }
        Ok(Self { submissions })
    }
}

impl SubmissionSource for IngressSource {
    fn total(&self) -> usize {
        self.submissions.len()
    }

    fn defense(&self) -> Defense {
        match &self.submissions {
            SubmissionBlock::Nizk(_) => Defense::Nizk,
            SubmissionBlock::Trap(_) => Defense::Trap,
        }
    }

    fn generate(&self, (start, end): (usize, usize)) -> AtomResult<SubmissionBlock> {
        use SubmissionBlock::{Nizk, Trap};
        let block = match &self.submissions {
            Nizk(all) => all.get(start..end).map(|part| Nizk(part.to_vec())),
            Trap(all) => all.get(start..end).map(|part| Trap(part.to_vec())),
        };
        block.ok_or_else(|| {
            AtomError::Config(format!(
                "ingress source asked for submissions {start}..{end} of {}",
                self.total()
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    // ---- token bucket properties -----------------------------------

    /// Seeded schedules: over every prefix of every schedule, admissions
    /// never exceed `burst + rate · elapsed` (the defining property), and
    /// identical schedules produce identical decision strings.
    #[test]
    fn token_bucket_never_admits_above_rate_times_time_plus_burst() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let rate = 1.0 + (rng.next_u64() % 200) as f64;
            let burst = 1.0 + (rng.next_u64() % 50) as f64;
            let mut bucket = TokenBucket::new(rate, burst);
            let mut now = Duration::ZERO;
            let mut admitted = 0u64;
            for _ in 0..2_000 {
                // Mixed cadence: mostly sub-token gaps, occasional idles.
                let step_us = match rng.next_u64() % 10 {
                    0 => 0,
                    1..=7 => rng.next_u64() % 3_000,
                    _ => rng.next_u64() % 200_000,
                };
                now += Duration::from_micros(step_us);
                if bucket.admit(now) {
                    admitted += 1;
                }
                let bound = burst + rate * now.as_secs_f64();
                assert!(
                    (admitted as f64) <= bound + 1e-6,
                    "seed {seed}: {admitted} admitted by t={now:?}, bound {bound:.3}"
                );
            }
            assert!(admitted > 0, "seed {seed}: schedule admitted nothing");
        }
    }

    #[test]
    fn token_bucket_is_deterministic_for_identical_schedules() {
        let schedule: Vec<Duration> = (0..500)
            .map(|i| Duration::from_micros((i as u64) * 1_700 % 90_000))
            .collect();
        let run = || {
            let mut bucket = TokenBucket::new(50.0, 5.0);
            let mut now = Duration::ZERO;
            schedule
                .iter()
                .map(|step| {
                    now += *step;
                    bucket.admit(now)
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn token_bucket_burst_is_spent_then_refills() {
        let mut bucket = TokenBucket::new(10.0, 3.0);
        // The full burst is available instantly...
        assert!(bucket.admit(Duration::ZERO));
        assert!(bucket.admit(Duration::ZERO));
        assert!(bucket.admit(Duration::ZERO));
        // ...then the bucket is dry until time passes.
        assert!(!bucket.admit(Duration::ZERO));
        assert!(!bucket.admit(Duration::from_millis(40)));
        // 100 ms at 10/s refills one token.
        assert!(bucket.admit(Duration::from_millis(110)));
        assert!(!bucket.admit(Duration::from_millis(110)));
    }

    // ---- admission queue properties --------------------------------

    /// Seeded offer/drain interleavings: the counters always satisfy
    /// `offered == admitted + shed`, the live length never exceeds the
    /// capacity, and nothing is lost — every offered item is either
    /// drained eventually or counted shed.
    #[test]
    fn admission_queue_conserves_every_offer() {
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let capacity = 1 + (rng.next_u64() % 32) as usize;
            let mut queue: AdmissionQueue<u64> = AdmissionQueue::new(capacity);
            let mut drained = 0u64;
            for i in 0..3_000u64 {
                if rng.next_u64() % 13 == 0 {
                    drained += queue.drain().len() as u64;
                } else {
                    queue.offer(i);
                }
                assert!(queue.len() <= capacity, "seed {seed}: capacity violated");
                assert_eq!(
                    queue.offered(),
                    queue.admitted() + queue.shed(),
                    "seed {seed}: conservation violated"
                );
            }
            drained += queue.drain().len() as u64;
            assert_eq!(queue.admitted(), drained, "seed {seed}: items lost");
            assert!(queue.shed() > 0, "seed {seed}: schedule never overflowed");
        }
    }

    #[test]
    fn admission_queue_is_deterministic_under_a_seeded_interleaving() {
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queue: AdmissionQueue<u64> = AdmissionQueue::new(8);
            let mut log = Vec::new();
            for i in 0..500u64 {
                if rng.next_u64() % 7 == 0 {
                    log.push(queue.drain().len() as i64);
                } else {
                    log.push(match queue.offer(i) {
                        Admission::Admitted => -1,
                        Admission::Shed => -2,
                    });
                }
            }
            (log, queue.offered(), queue.admitted(), queue.shed())
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42).0, run(43).0);
    }

    #[test]
    fn admission_queue_sheds_exactly_the_overflow() {
        let mut queue: AdmissionQueue<usize> = AdmissionQueue::new(4);
        for i in 0..10 {
            queue.offer(i);
        }
        assert_eq!(queue.offered(), 10);
        assert_eq!(queue.admitted(), 4);
        assert_eq!(queue.shed(), 6);
        assert_eq!(queue.drain(), vec![0, 1, 2, 3]);
    }
}
