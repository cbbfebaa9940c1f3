//! The benchmark's own load generator: a swarm of real TCP clients driven
//! from **one non-blocking thread** on an **open-loop schedule**.
//!
//! Open loop means frame `i` is *due* at `start + i / rate` whether or
//! not the server has kept up: the driver never waits for an ack before
//! sending the next frame, so a stall in the server shows up as latency
//! on every frame due during the stall instead of as a politely reduced
//! offered load. Every latency is measured from the frame's due time, and
//! the driver reports how late it actually sent each frame — if the
//! generator itself falls behind, the ack latencies are not trustworthy
//! and the report says so.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use atom_net::evloop::{CLIENT_HEADER_LEN, CLIENT_MAGIC, CLIENT_VERSION};
use atom_runtime::wire::{self, Frame};

/// Connections opened between two pauses of [`Swarm::connect`].
const CONNECT_WAVE: usize = 32;
/// The pause: long enough for a server polling every millisecond or so to
/// accept a wave.
const CONNECT_PAUSE: Duration = Duration::from_millis(1);

/// An open-loop send schedule: frame `i` is due at `start + i × interval`.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    start: Instant,
    interval_ns: u64,
}

impl Schedule {
    /// A schedule of `rate` frames per second whose first frame is due at
    /// `start`. Panics on a non-positive rate.
    pub fn new(start: Instant, rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "schedule needs a positive rate"
        );
        Self {
            start,
            interval_ns: (1e9 / rate).round().max(1.0) as u64,
        }
    }

    /// When frame `index` is due.
    pub fn due(&self, index: usize) -> Instant {
        self.start + Duration::from_nanos(self.interval_ns * index as u64)
    }

    /// How many of `total` frames are due at or before `now`.
    pub fn due_count(&self, now: Instant, total: usize) -> usize {
        match now.checked_duration_since(self.start) {
            None => 0,
            Some(elapsed) => {
                let due = elapsed.as_nanos() / u128::from(self.interval_ns) + 1;
                due.min(total as u128) as usize
            }
        }
    }
}

/// What became of one scheduled frame.
#[derive(Clone, Copy, Debug)]
pub struct FrameOutcome {
    /// When the frame was due.
    pub due: Instant,
    /// When the driver first tried to write it (≥ `due`).
    pub started: Instant,
    /// When its `submit_ack` was fully decoded; `None` if no ack came.
    pub acked: Option<Instant>,
    /// Whether the ack said the submission was shed.
    pub shed: bool,
}

impl FrameOutcome {
    /// Due time → ack decoded, milliseconds.
    pub fn ack_ms(&self) -> Option<f64> {
        self.acked
            .map(|at| at.saturating_duration_since(self.due).as_secs_f64() * 1e3)
    }

    /// How late the generator started the frame, milliseconds.
    pub fn late_ms(&self) -> f64 {
        self.started
            .saturating_duration_since(self.due)
            .as_secs_f64()
            * 1e3
    }
}

struct Client {
    stream: TcpStream,
    written: usize,
    ack: Vec<u8>,
    outcome: Option<FrameOutcome>,
    dead: bool,
}

/// A swarm of concurrent real-socket clients, one frame each. Every
/// connection is open before the first byte of any frame is written.
pub struct Swarm {
    clients: Vec<Client>,
}

impl Swarm {
    /// Opens `count` connections to `addr` and switches them to
    /// non-blocking mode. Returns the swarm and the time spent inside
    /// `connect` calls.
    ///
    /// The connects are paced — a pause after every [`CONNECT_WAVE`] — so
    /// the listener's accept backlog (128 in `std`) never overflows: a
    /// dropped SYN is retried by the kernel a full second later, which
    /// would make a round take either 10 ms or 1 s to connect depending on
    /// how the two threads happened to interleave.
    pub fn connect(addr: SocketAddr, count: usize) -> Result<(Self, Duration), String> {
        let mut clients = Vec::with_capacity(count);
        let mut connecting = Duration::ZERO;
        for index in 0..count {
            if index > 0 && index % CONNECT_WAVE == 0 {
                std::thread::sleep(CONNECT_PAUSE);
            }
            let started = Instant::now();
            let stream = TcpStream::connect(addr)
                .map_err(|error| format!("client {index} connect: {error}"))?;
            connecting += started.elapsed();
            stream
                .set_nonblocking(true)
                .and_then(|()| stream.set_nodelay(true))
                .map_err(|error| format!("client {index} socket options: {error}"))?;
            clients.push(Client {
                stream,
                written: 0,
                ack: Vec::new(),
                outcome: None,
                dead: false,
            });
        }
        Ok((Self { clients }, connecting))
    }

    /// Sends `frames[i]` on connection `i` when `schedule` says it is due
    /// and collects every ack, from this one thread, until all frames are
    /// acked or `timeout` has passed since the last frame's due time.
    /// Returns one outcome per frame, in frame order.
    pub fn drive(
        &mut self,
        frames: &[Vec<u8>],
        schedule: &Schedule,
        timeout: Duration,
    ) -> Vec<FrameOutcome> {
        assert_eq!(frames.len(), self.clients.len(), "one frame per connection");
        let total = frames.len();
        let deadline = schedule.due(total.saturating_sub(1)) + timeout;
        let mut started = 0usize;
        // Connections with a frame in flight: written in part or in full,
        // ack not yet decoded. Only these are polled — the rest of the
        // swarm stays idle, as real clients between rounds do.
        let mut active: Vec<usize> = Vec::new();
        loop {
            let mut moved = false;
            let mut at = 0;
            loop {
                // Sending on time comes first: with hundreds of acks
                // outstanding one pass over them takes longer than the gap
                // between two frames, so due frames are started every few
                // connections, not once per pass.
                if at % 16 == 0 {
                    let now = Instant::now();
                    let due = schedule.due_count(now, total);
                    moved |= started < due;
                    while started < due {
                        self.clients[started].outcome = Some(FrameOutcome {
                            due: schedule.due(started),
                            started: now,
                            acked: None,
                            shed: false,
                        });
                        active.push(started);
                        started += 1;
                    }
                }
                let Some(&index) = active.get(at) else { break };
                let client = &mut self.clients[index];
                moved |= service(client, &frames[index]);
                if client.dead || client.outcome.is_some_and(|o| o.acked.is_some()) {
                    active.swap_remove(at);
                } else {
                    at += 1;
                }
            }
            if (started == total && active.is_empty()) || Instant::now() > deadline {
                break;
            }
            if !moved {
                // Nothing due and nothing readable: nap briefly, but never
                // past the next due time.
                let nap = Duration::from_micros(50);
                let until_due = (started < total).then(|| {
                    schedule
                        .due(started)
                        .saturating_duration_since(Instant::now())
                });
                std::thread::sleep(until_due.map_or(nap, |d| d.min(nap)));
            }
        }
        self.clients
            .iter()
            .enumerate()
            .map(|(index, client)| {
                client.outcome.unwrap_or(FrameOutcome {
                    due: schedule.due(index),
                    started: deadline,
                    acked: None,
                    shed: false,
                })
            })
            .collect()
    }
}

/// One non-blocking pass over a client with a frame in flight: progress
/// the write, then the ack read. Returns whether any bytes moved.
fn service(client: &mut Client, frame: &[u8]) -> bool {
    let mut moved = false;
    if client.written < frame.len() {
        match client.stream.write(&frame[client.written..]) {
            Ok(0) => client.dead = true,
            Ok(n) => {
                client.written += n;
                moved = true;
            }
            Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(_) => client.dead = true,
        }
        if client.dead || client.written < frame.len() {
            return moved;
        }
    }
    let mut buf = [0u8; 256];
    match client.stream.read(&mut buf) {
        Ok(0) => client.dead = true,
        Ok(n) => {
            client.ack.extend_from_slice(&buf[..n]);
            moved = true;
            match parse_ack(&client.ack) {
                Ok(Some(shed)) => {
                    if let Some(outcome) = client.outcome.as_mut() {
                        outcome.acked = Some(Instant::now());
                        outcome.shed = shed;
                    }
                }
                Ok(None) => {}
                Err(()) => client.dead = true,
            }
        }
        Err(error) if error.kind() == std::io::ErrorKind::WouldBlock => {}
        Err(_) => client.dead = true,
    }
    moved
}

/// Decodes a client-framed `submit_ack` once enough bytes have arrived:
/// `Ok(Some(shed))` when complete, `Ok(None)` when more bytes are needed,
/// `Err` on anything that is not a well-formed ack.
fn parse_ack(bytes: &[u8]) -> Result<Option<bool>, ()> {
    if bytes.len() < CLIENT_HEADER_LEN {
        return Ok(None);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("four bytes"));
    let len = u32::from_le_bytes(bytes[5..9].try_into().expect("four bytes")) as usize;
    if magic != CLIENT_MAGIC || bytes[4] != CLIENT_VERSION || len > 1 << 16 {
        return Err(());
    }
    let Some(payload) = bytes.get(CLIENT_HEADER_LEN..CLIENT_HEADER_LEN + len) else {
        return Ok(None);
    };
    match wire::decode(payload) {
        Ok(Frame::SubmitAck(ack)) => Ok(Some(ack.shed)),
        _ => Err(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_due_times_are_exact_multiples_of_the_interval() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 4000.0);
        assert_eq!(schedule.due(0), start);
        assert_eq!(schedule.due(1), start + Duration::from_micros(250));
        assert_eq!(schedule.due(4000), start + Duration::from_secs(1));
        // A rate that does not divide a second rounds to whole nanoseconds
        // once, not cumulatively.
        let thirds = Schedule::new(start, 3.0);
        assert_eq!(thirds.due(3), start + Duration::from_nanos(333_333_333 * 3));
    }

    #[test]
    fn due_count_counts_frames_at_or_before_now_and_caps_at_total() {
        let start = Instant::now() + Duration::from_secs(1);
        let schedule = Schedule::new(start, 1000.0);
        assert_eq!(schedule.due_count(start - Duration::from_millis(1), 10), 0);
        assert_eq!(schedule.due_count(start, 10), 1);
        assert_eq!(
            schedule.due_count(start + Duration::from_micros(999), 10),
            1
        );
        assert_eq!(schedule.due_count(start + Duration::from_millis(1), 10), 2);
        assert_eq!(schedule.due_count(start + Duration::from_millis(9), 10), 10);
        assert_eq!(schedule.due_count(start + Duration::from_secs(60), 10), 10);
        assert_eq!(schedule.due_count(start + Duration::from_secs(60), 0), 0);
    }

    #[test]
    fn latencies_are_measured_from_the_due_time_not_the_send_time() {
        let due = Instant::now();
        let outcome = FrameOutcome {
            due,
            started: due + Duration::from_millis(3),
            acked: Some(due + Duration::from_millis(5)),
            shed: false,
        };
        assert!((outcome.late_ms() - 3.0).abs() < 1e-9);
        assert!((outcome.ack_ms().unwrap() - 5.0).abs() < 1e-9);
        let lost = FrameOutcome {
            acked: None,
            ..outcome
        };
        assert_eq!(lost.ack_ms(), None);
    }

    #[test]
    fn acks_parse_only_when_complete_and_well_formed() {
        let ack = atom_net::client_frame(&wire::encode_submit_ack(&wire::SubmitAckFrame {
            round: 4,
            shed: true,
            retry_after: Duration::from_millis(100),
        }));
        assert_eq!(parse_ack(&ack), Ok(Some(true)));
        assert_eq!(parse_ack(&ack[..ack.len() - 1]), Ok(None));
        assert_eq!(parse_ack(&ack[..3]), Ok(None));
        let mut bad = ack.clone();
        bad[0] ^= 0xff;
        assert_eq!(parse_ack(&bad), Err(()));
    }
}
