//! The serialized frame formats exchanged between group actors and the
//! round orchestrator.
//!
//! The engine ships everything through [`atom_net::Transport`] envelopes
//! rather than passing Rust values by reference, so traffic metering sees
//! the true wire size and the TCP transport ships the identical bytes
//! between processes. Eight frame kinds, discriminated by the leading
//! byte (all integers little-endian; kind `0x06` is retired). This is the
//! one statement of their byte layouts; `ARCHITECTURE.md` lists the kinds
//! and links here:
//!
//! ```text
//! mix:   0x01 ‖ round u32 ‖ iteration u32 ‖ from u32 ‖ sent_virtual_nanos u64 ‖ count u32
//!        message:   components u16 ‖ component*
//!        component: flags u8 (bit0: Y present) ‖ R 32B ‖ c 32B ‖ [Y 32B]
//! exit:  0x02 ‖ round u32 ‖ gid u32 ‖ finished_virtual_nanos u64
//!        ‖ mix_messages u64 ‖ mix_bytes u64
//!        ‖ compute_count u32 ‖ compute_nanos u64 *
//!        ‖ payload_count u32 ‖ (len u32 ‖ bytes) *
//! abort: 0x03 ‖ round u32 ‖ reason_len u32 ‖ reason (UTF-8)
//! setup: 0x04 ‖ round u32 ‖ gid u32 ‖ flags u8 (must be 0) ‖ threshold u32
//!        ‖ member_count u32 ‖ member u32 * ‖ group_public_key 32B
//! telemetry:
//!        0x05 ‖ process u32 ‖ flags u8 (bit0: final)
//!        ‖ counter_count u32 ‖ (name_len u16 ‖ name ‖ value u64) *
//!        ‖ span_count u32 ‖ span *
//!        span: phase_len u16 ‖ phase ‖ note_len u16 ‖ note
//!              ‖ round u32 ‖ gid u32 ‖ tid u32 ‖ start_us u64 ‖ dur_us u64
//! rejoin:
//!        0x07 ‖ round u32 ‖ end u32 ‖ process u32 ‖ offset u32 ‖ flags u8
//!        (bit0: response, bit1: commit; a response needs end > round)
//!        ‖ dead: ids ‖ evicted: rounds ‖ failed: rounds
//!        (the evicted processes; per round of round..end, the servers
//!        its directory excludes and the servers it heals around)
//!        ids:    count u32 ‖ id u32 *
//!        rounds: count u32 ‖ ids *   (count is end − round in a
//!                response, 0 in a member's frame)
//! submit:
//!        0x08 ‖ round u32 ‖ client u64 ‖ flags u8 (bit0: trap variant)
//!        ‖ app u16 ‖ entry_group u32 ‖ body
//!        nizk body: ciphertext ‖ proof
//!        trap body: ciphertext ‖ proof ‖ ciphertext ‖ proof
//!                   ‖ trap_commitment 32B
//!        ciphertext: components u16 ‖ component *   (same component
//!                    layout as mix frames)
//!        proof: ann_count u16 ‖ A 32B * ‖ resp_count u16 ‖ u 32B *
//!               (responses are canonical scalars)
//! submit_ack:
//!        0x09 ‖ round u32 ‖ flags u8 (bit0: shed) ‖ retry_after_ms u32
//! ```
//!
//! `from == u32::MAX` in a mix frame encodes the round orchestrator
//! ([`SOURCE`]). Every kind but `telemetry` carries its round right after
//! the kind byte; a telemetry frame belongs to no round and never reaches
//! the engine.
//!
//! This codec is the protocol's trust boundary: over
//! [`TcpTransport`](atom_net::tcp::TcpTransport) these bytes arrive from another process, and a real
//! deployment's neighbour group is not trusted at all. Decoding therefore
//! validates every field through one bounds-checked cursor, which holds
//! each check once: every count is bounded against the actual body
//! *before* any allocation, undefined flag bits are rejected, points must
//! be group elements and responses canonical scalars, and trailing bytes
//! are an error. So every frame has exactly one byte string, and anything
//! adversarial returns [`AtomError`] rather than panicking.
//! The in-process engine runs the same decoder on its own traffic, a
//! deliberate cost that keeps throughput numbers honest about the work a
//! real group must do.

use std::time::Duration;

use atom_core::actor::SOURCE;
use atom_core::error::{AtomError, AtomResult};
use atom_core::{NizkSubmission, TrapSubmission};
use atom_crypto::commit::Commitment;
use atom_crypto::elgamal::{Ciphertext, MessageCiphertext, PublicKey};
use atom_crypto::nizk::enc::EncProof;
use atom_crypto::{RistrettoPoint, Scalar};
use atom_obs::SpanRecord;
use curve25519_dalek::ristretto::CompressedRistretto;

/// A decoded mixing frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MixEnvelope {
    /// Index of the round this batch belongs to (within one engine run).
    pub round: usize,
    /// The iteration the receiving group consumes this batch in.
    pub iteration: usize,
    /// Sender group id, or [`SOURCE`] for the orchestrator.
    pub from: usize,
    /// The sender's virtual clock when the batch left the group.
    pub sent_virtual: Duration,
    /// The sub-batch itself.
    pub batch: Vec<MessageCiphertext>,
}

/// A decoded exit frame: one group's final products, sent to the round
/// orchestrator when the group finishes its last iteration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ExitFrame {
    /// Index of the round within the engine run.
    pub round: usize,
    /// The exiting group.
    pub gid: usize,
    /// The group's virtual clock at the end of its last iteration.
    pub finished_virtual: Duration,
    /// Mixing messages this group pushed through the transport.
    pub mix_messages: u64,
    /// Mixing bytes this group pushed through the transport.
    pub mix_bytes: u64,
    /// Measured compute time of each of the group's iterations.
    pub compute: Vec<Duration>,
    /// The decoded exit payloads (traps and inner ciphertexts, or
    /// plaintexts in the NIZK variant).
    pub payloads: Vec<Vec<u8>>,
}

/// A decoded abort frame: a process observed a round failure and is telling
/// its peers so nobody waits on batches that will never come.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AbortFrame {
    /// Index of the failed round within the engine run.
    pub round: usize,
    /// Human-readable failure description (the authoritative error object
    /// lives with the process that produced it).
    pub reason: String,
}

/// A decoded setup frame: the **public** half of one group's sharded-setup
/// derivation — membership, threshold and the DKG group public key — sent by
/// the process hosting the group to the coordinator and every peer. Secret
/// shares never travel: each process derives its hosted groups' full
/// [`GroupContext`](atom_core::directory::GroupContext)s locally and ships
/// only what [`public_only`](atom_core::directory::GroupContext::public_only)
/// retains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SetupFrame {
    /// Index of the round within the engine run.
    pub round: usize,
    /// The group this frame describes.
    pub gid: usize,
    /// Global server ids of the group's members, in protocol order.
    pub members: Vec<usize>,
    /// Members required to participate in threshold decryption.
    pub threshold: usize,
    /// The group public key established by the DKG.
    pub public_key: PublicKey,
}

/// A decoded telemetry frame: the spans one fleet process recorded since
/// its previous frame, with its counters at the time of sending. A member
/// ships one through its control inbox to the fleet coordinator after each
/// round it completes and a final one when the run ends. Purely
/// observational: no engine reads it, so no round waits on one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetryFrame {
    /// Fleet process index the snapshot came from (Perfetto `pid`).
    pub process: u32,
    /// The `final` flag: the sender's last frame of the run.
    pub last: bool,
    /// Counter name/value pairs at snapshot time.
    pub counters: Vec<(String, u64)>,
    /// The spans recorded since the sender's previous frame.
    pub spans: Vec<SpanRecord>,
}

/// A decoded rejoin frame: every message of the recovery handshake, which
/// [`crate::fleet`] drives. A member's request or ack carries the rounds
/// and offset of the last plan it saw; the coordinator's response — a plan,
/// its go, or the done sentinel — carries the rounds and offset of an
/// attempt and the membership it runs under, which every process prepares
/// the attempt from. Its default is a member's frame naming no round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RejoinFrame {
    /// `round..end`: the rounds a plan's attempt runs, or those of the
    /// plan a member's frame answers.
    pub round: usize,
    /// Exceeds `round` in a response; the decoder rejects any other.
    pub end: usize,
    /// The fleet process index of the sender.
    pub process: usize,
    /// The attempt's wire-round offset (`EngineOptions::round_offset`),
    /// the coordinator's alone to choose and disjoint per attempt.
    pub offset: usize,
    /// `false` for a member's request/ack, `true` for the coordinator's.
    pub response: bool,
    /// Set on the coordinator's go: every survivor has acked and drained,
    /// so the next epoch's frames cannot be confused with stale ones.
    pub commit: bool,
    /// The evicted processes (a response's; empty in a member's frame).
    pub dead: Vec<usize>,
    /// Per round of `round..end`, the servers its directory excludes (a
    /// response's; empty in a member's frame).
    pub evicted: Vec<Vec<usize>>,
    /// Per round of `round..end`, the servers it heals around.
    pub failed: Vec<Vec<usize>>,
}

/// The payload of a [`SubmitFrame`]: one user submission in whichever
/// defense variant the round runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ClientSubmission {
    /// A NIZK-variant submission (one ciphertext plus its proof).
    Nizk(NizkSubmission),
    /// A trap-variant submission (two ciphertexts, two proofs and the
    /// trap commitment).
    Trap(TrapSubmission),
}

impl ClientSubmission {
    /// The entry group the submitting user chose.
    pub fn entry_group(&self) -> usize {
        match self {
            ClientSubmission::Nizk(s) => s.entry_group,
            ClientSubmission::Trap(s) => s.entry_group,
        }
    }
}

/// A decoded submit frame: one client's submission for a round, sent over
/// a client connection (see `atom_net::evloop`) to the ingress tier. This
/// is the protocol's *outermost* trust boundary — the sender is an
/// arbitrary internet host, not even a misbehaving server — so every
/// field gets the full adversarial treatment and a malformed frame
/// convicts only its own connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitFrame {
    /// The round the submission targets (ingress rejects mismatches).
    pub round: usize,
    /// The submitting client's index — the fleet-assigned slot that makes
    /// intake order deterministic regardless of socket arrival order.
    pub client: u64,
    /// Application tag (which anonymity service the payload belongs to);
    /// opaque to the codec, validated by ingress.
    pub app: u16,
    /// The submission itself.
    pub submission: ClientSubmission,
}

/// A decoded submit-ack frame: the ingress tier's per-submission verdict,
/// sent back on the client connection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubmitAckFrame {
    /// The round the acked submission targeted.
    pub round: usize,
    /// `true` when the submission was load-shed (rate limit or full
    /// admission queue) rather than admitted.
    pub shed: bool,
    /// How long a shed client should wait before retrying (zero when
    /// admitted). Millisecond granularity on the wire.
    pub retry_after: Duration,
}

/// Any frame of the inter-group protocol.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Frame {
    /// A mixing sub-batch.
    Mix(MixEnvelope),
    /// A group's exit products.
    Exit(ExitFrame),
    /// A round-failure notification.
    Abort(AbortFrame),
    /// One group's public directory entry (sharded setup).
    Setup(SetupFrame),
    /// One process's span/counter snapshot for a finished round.
    Telemetry(TelemetryFrame),
    /// A catch-up / acknowledgement handshake frame.
    Rejoin(RejoinFrame),
    /// One client's submission for a round (client → ingress).
    Submit(SubmitFrame),
    /// The ingress tier's admit/shed verdict (ingress → client).
    SubmitAck(SubmitAckFrame),
}

const KIND_MIX: u8 = 1;
const KIND_EXIT: u8 = 2;
const KIND_ABORT: u8 = 3;
const KIND_SETUP: u8 = 4;
const KIND_TELEMETRY: u8 = 5;
const KIND_REJOIN: u8 = 7;
const KIND_SUBMIT: u8 = 8;
const KIND_SUBMIT_ACK: u8 = 9;

/// Minimum encoded size of one telemetry counter entry (empty name).
const MIN_COUNTER_LEN: usize = 2 + 8;
/// Minimum encoded size of one telemetry span (empty phase and note).
const MIN_SPAN_LEN: usize = 2 + 2 + 4 + 4 + 4 + 8 + 8;

const MIX_HEADER_LEN: usize = 1 + 4 + 4 + 4 + 8 + 4;
const POINT_LEN: usize = 32;
/// Hard cap on `reason` strings so a corrupt length cannot force a large
/// allocation before the bounds check against the body runs.
const MAX_ABORT_REASON: usize = 4096;
/// Hard cap on onion components in one client submission. A submission
/// carries exactly one user message (two in the trap variant), whose
/// component count is set by the deployment's padded message length —
/// far below this. The count is already bounded against the body before
/// allocation; the cap additionally stops a client from shipping a
/// maximum-size frame that is structurally valid but absurd.
const MAX_SUBMIT_COMPONENTS: usize = 256;
/// Fixed header of a submit frame (kind ‖ round ‖ client ‖ flags ‖ app ‖
/// entry_group).
const SUBMIT_HEADER_LEN: usize = 1 + 4 + 8 + 1 + 2 + 4;

fn put_u16(out: &mut Vec<u8>, value: u16) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

fn put_point(out: &mut Vec<u8>, point: &RistrettoPoint) {
    out.extend_from_slice(&point.compress().to_bytes());
}

/// The longest prefix of `text` of at most `max` bytes that ends on a
/// character boundary, so a truncated string still decodes as UTF-8.
fn truncated(text: &str, max: usize) -> &str {
    let mut cut = text.len().min(max);
    while !text.is_char_boundary(cut) {
        cut -= 1;
    }
    &text[..cut]
}

/// Writes a `len u16 ‖ bytes` string; over-long text is truncated.
fn put_string(out: &mut Vec<u8>, text: &str) {
    let text = truncated(text, u16::MAX as usize);
    put_u16(out, text.len() as u16);
    out.extend_from_slice(text.as_bytes());
}

/// Serializes one onion ciphertext (`components u16 ‖ component*`). The
/// component layout is shared by mix and submit frames.
fn put_ciphertext(out: &mut Vec<u8>, message: &MessageCiphertext) {
    put_u16(out, message.components.len() as u16);
    for component in &message.components {
        out.push(component.y.is_some() as u8);
        put_point(out, &component.r);
        put_point(out, &component.c);
        if let Some(y) = &component.y {
            put_point(out, y);
        }
    }
}

/// Serializes one encryption proof. Counts travel separately because the
/// struct does not force them equal; the verifier enforces the semantic
/// relationship.
fn put_proof(out: &mut Vec<u8>, proof: &EncProof) {
    put_u16(out, proof.announcements.len() as u16);
    for announcement in &proof.announcements {
        put_point(out, announcement);
    }
    put_u16(out, proof.responses.len() as u16);
    for response in &proof.responses {
        out.extend_from_slice(&response.to_bytes());
    }
}

/// Writes a `count u32 ‖ id u32 *` list of server or process ids.
fn put_ids(out: &mut Vec<u8>, ids: &[usize]) {
    put_u32(out, ids.len() as u32);
    ids.iter().for_each(|&id| put_u32(out, id as u32));
}

/// Serializes a mixing sub-batch for transmission.
pub fn encode_mix(
    round: usize,
    iteration: usize,
    from: usize,
    sent_virtual: Duration,
    batch: &[MessageCiphertext],
) -> Vec<u8> {
    let components: usize = batch.iter().map(|m| m.components.len()).sum();
    let mut out =
        Vec::with_capacity(MIX_HEADER_LEN + batch.len() * 2 + components * (1 + 3 * POINT_LEN));
    out.push(KIND_MIX);
    put_u32(&mut out, round as u32);
    put_u32(&mut out, iteration as u32);
    put_u32(
        &mut out,
        if from == SOURCE {
            u32::MAX
        } else {
            from as u32
        },
    );
    put_u64(&mut out, sent_virtual.as_nanos() as u64);
    put_u32(&mut out, batch.len() as u32);
    for message in batch {
        put_ciphertext(&mut out, message);
    }
    out
}

/// Serializes an exit frame.
pub fn encode_exit(frame: &ExitFrame) -> Vec<u8> {
    let mut out = vec![KIND_EXIT];
    put_u32(&mut out, frame.round as u32);
    put_u32(&mut out, frame.gid as u32);
    put_u64(&mut out, frame.finished_virtual.as_nanos() as u64);
    put_u64(&mut out, frame.mix_messages);
    put_u64(&mut out, frame.mix_bytes);
    put_u32(&mut out, frame.compute.len() as u32);
    for compute in &frame.compute {
        put_u64(&mut out, compute.as_nanos() as u64);
    }
    put_u32(&mut out, frame.payloads.len() as u32);
    for payload in &frame.payloads {
        put_u32(&mut out, payload.len() as u32);
        out.extend_from_slice(payload);
    }
    out
}

/// Serializes an abort frame. Reasons longer than the decoder's cap are
/// truncated at a character boundary.
pub(crate) fn encode_abort(round: usize, reason: &str) -> Vec<u8> {
    let reason = truncated(reason, MAX_ABORT_REASON);
    let mut out = vec![KIND_ABORT];
    put_u32(&mut out, round as u32);
    put_u32(&mut out, reason.len() as u32);
    out.extend_from_slice(reason.as_bytes());
    out
}

/// Serializes a setup frame.
pub fn encode_setup(frame: &SetupFrame) -> Vec<u8> {
    let mut out = vec![KIND_SETUP];
    put_u32(&mut out, frame.round as u32);
    put_u32(&mut out, frame.gid as u32);
    out.push(0); // flags: none defined yet
    put_u32(&mut out, frame.threshold as u32);
    put_ids(&mut out, &frame.members);
    put_point(&mut out, &frame.public_key.0);
    out
}

/// Serializes a telemetry frame.
pub(crate) fn encode_telemetry(frame: &TelemetryFrame) -> Vec<u8> {
    let mut out = vec![KIND_TELEMETRY];
    put_u32(&mut out, frame.process);
    out.push(frame.last as u8);
    put_u32(&mut out, frame.counters.len() as u32);
    for (name, value) in &frame.counters {
        put_string(&mut out, name);
        put_u64(&mut out, *value);
    }
    put_u32(&mut out, frame.spans.len() as u32);
    for span in &frame.spans {
        put_string(&mut out, &span.phase);
        put_string(&mut out, &span.note);
        put_u32(&mut out, span.round);
        put_u32(&mut out, span.gid);
        put_u32(&mut out, span.tid);
        put_u64(&mut out, span.start_us);
        put_u64(&mut out, span.dur_us);
    }
    out
}

/// Serializes a rejoin frame.
pub fn encode_rejoin(frame: &RejoinFrame) -> Vec<u8> {
    let mut out = vec![KIND_REJOIN];
    put_u32(&mut out, frame.round as u32);
    put_u32(&mut out, frame.end as u32);
    put_u32(&mut out, frame.process as u32);
    put_u32(&mut out, frame.offset as u32);
    out.push(frame.response as u8 | (frame.commit as u8) << 1);
    put_ids(&mut out, &frame.dead);
    for rounds in [&frame.evicted, &frame.failed] {
        put_u32(&mut out, rounds.len() as u32);
        rounds.iter().for_each(|servers| put_ids(&mut out, servers));
    }
    out
}

/// Serializes a submit frame.
pub fn encode_submit(frame: &SubmitFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(SUBMIT_HEADER_LEN + 512);
    out.push(KIND_SUBMIT);
    put_u32(&mut out, frame.round as u32);
    put_u64(&mut out, frame.client);
    let trap = matches!(frame.submission, ClientSubmission::Trap(_));
    out.push(trap as u8); // flags: bit0 trap variant
    put_u16(&mut out, frame.app);
    put_u32(&mut out, frame.submission.entry_group() as u32);
    match &frame.submission {
        ClientSubmission::Nizk(submission) => {
            put_ciphertext(&mut out, &submission.ciphertext);
            put_proof(&mut out, &submission.proof);
        }
        ClientSubmission::Trap(submission) => {
            for side in 0..2 {
                put_ciphertext(&mut out, &submission.ciphertexts[side]);
                put_proof(&mut out, &submission.proofs[side]);
            }
            out.extend_from_slice(&submission.trap_commitment.0);
        }
    }
    out
}

/// Serializes a submit-ack frame. Retry hints beyond `u32::MAX`
/// milliseconds saturate.
pub fn encode_submit_ack(frame: &SubmitAckFrame) -> Vec<u8> {
    let mut out = vec![KIND_SUBMIT_ACK];
    put_u32(&mut out, frame.round as u32);
    out.push(frame.shed as u8);
    put_u32(
        &mut out,
        u32::try_from(frame.retry_after.as_millis()).unwrap_or(u32::MAX),
    );
    out
}

/// Best-effort extraction of the round index from a (possibly corrupt)
/// frame, so a decode failure can still be attributed to its round. Every
/// frame kind but `telemetry` stores the round as a `u32` right after the
/// kind byte.
pub(crate) fn decode_round(bytes: &[u8]) -> Option<usize> {
    bytes
        .get(1..5)
        .map(|s| u32::from_le_bytes(s.try_into().unwrap()) as usize)
}

/// Parses any serialized frame.
pub fn decode(bytes: &[u8]) -> AtomResult<Frame> {
    let Some(&kind) = bytes.first() else {
        return Err(malformed(format_args!("empty frame")));
    };
    let r = &mut Reader { bytes, at: 1 };
    let frame = match kind {
        KIND_MIX => Frame::Mix(decode_mix(r)?),
        KIND_EXIT => Frame::Exit(decode_exit(r)?),
        KIND_ABORT => Frame::Abort(decode_abort(r)?),
        KIND_SETUP => Frame::Setup(decode_setup(r)?),
        KIND_TELEMETRY => Frame::Telemetry(decode_telemetry(r)?),
        KIND_REJOIN => Frame::Rejoin(decode_rejoin(r)?),
        KIND_SUBMIT => Frame::Submit(decode_submit(r)?),
        KIND_SUBMIT_ACK => Frame::SubmitAck(SubmitAckFrame {
            round: r.u32("submit-ack round")? as usize,
            shed: r.flags(1, "submit-ack frame")? == 1,
            retry_after: Duration::from_millis(r.u32("submit-ack retry hint")?.into()),
        }),
        _ => return Err(malformed(format_args!("unknown frame kind {kind}"))),
    };
    r.finish()?;
    Ok(frame)
}

/// The cursor every decoder reads one untrusted frame through, so each
/// check is written once: reads are bounds-checked and name their field,
/// [`list`](Reader::list) bounds a count before allocating for it,
/// [`flags`](Reader::flags) rejects undefined bits and
/// [`finish`](Reader::finish) rejects trailing bytes. A decoder reads the
/// frame's fields in wire order, straight into the struct literal where
/// the type lists them in that order (Rust evaluates a literal's fields as
/// written).
///
/// The fixed-size reads are `#[inline(always)]`: every point and flags
/// byte of every mix hop passes through them, and a call per field made
/// `mix` decoding ≈ 70 % slower per ciphertext.
struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    #[inline(always)]
    fn take(&mut self, len: usize, what: &str) -> AtomResult<&'a [u8]> {
        let slice = self.bytes[self.at..]
            .get(..len)
            .ok_or_else(|| malformed(format_args!("frame truncated at {what}")))?;
        self.at += len;
        Ok(slice)
    }

    #[inline(always)]
    fn array<const N: usize>(&mut self, what: &str) -> AtomResult<[u8; N]> {
        Ok(self.take(N, what)?.try_into().expect("took N bytes"))
    }

    #[inline(always)]
    fn u8(&mut self, what: &str) -> AtomResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    #[inline(always)]
    fn u16(&mut self, what: &str) -> AtomResult<u16> {
        self.array(what).map(u16::from_le_bytes)
    }

    #[inline(always)]
    fn u32(&mut self, what: &str) -> AtomResult<u32> {
        self.array(what).map(u32::from_le_bytes)
    }

    #[inline(always)]
    fn u64(&mut self, what: &str) -> AtomResult<u64> {
        self.array(what).map(u64::from_le_bytes)
    }

    /// A 32-byte point, accepted only as the one encoding of a group
    /// element.
    #[inline(always)]
    fn point(&mut self, what: &str) -> AtomResult<RistrettoPoint> {
        CompressedRistretto(self.array(what)?)
            .decompress()
            .ok_or_else(|| malformed(format_args!("{what} carries an invalid point")))
    }

    /// A 32-byte scalar in its canonical encoding: the vendored scalar type
    /// only exposes `from_bytes_mod_order`, so canonicality is checked by
    /// re-serializing — a reduced value that does not round-trip was
    /// non-canonical on the wire.
    fn scalar(&mut self, what: &str) -> AtomResult<Scalar> {
        let bytes = self.array(what)?;
        let scalar = Scalar::from_bytes_mod_order(bytes);
        if scalar.to_bytes() != bytes {
            return Err(malformed(format_args!(
                "{what} carries a non-canonical scalar"
            )));
        }
        Ok(scalar)
    }

    /// `len` bytes of UTF-8 text.
    fn text(&mut self, len: usize, what: &str) -> AtomResult<String> {
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| malformed(format_args!("{what} is not UTF-8")))
    }

    /// A `len u16 ‖ bytes` UTF-8 string.
    fn string(&mut self, what: &str) -> AtomResult<String> {
        let len = self.u16(what)?;
        self.text(len.into(), what)
    }

    /// A flags byte with no bit set outside `allowed`.
    #[inline(always)]
    fn flags(&mut self, allowed: u8, what: &str) -> AtomResult<u8> {
        let flags = self.u8(what)?;
        if flags & !allowed != 0 {
            return Err(malformed(format_args!(
                "{what} carries unknown flags {flags:#04x}"
            )));
        }
        Ok(flags)
    }

    /// A `count u32 ‖ entry*` sequence (see [`entries`](Reader::entries)).
    fn list<T>(
        &mut self,
        min_entry_len: usize,
        what: &str,
        read_one: impl FnMut(&mut Self) -> AtomResult<T>,
    ) -> AtomResult<Vec<T>> {
        let count = self.u32(what)?;
        self.entries(count as usize, min_entry_len, what, read_one)
    }

    /// Reads `count` entries with `read_one`. The count is untrusted, so it
    /// is first bounded by the body left — each entry occupies at least
    /// `min_entry_len` bytes — and nothing is allocated for a count the
    /// frame cannot hold.
    fn entries<T>(
        &mut self,
        count: usize,
        min_entry_len: usize,
        what: &str,
        mut read_one: impl FnMut(&mut Self) -> AtomResult<T>,
    ) -> AtomResult<Vec<T>> {
        if count > (self.bytes.len() - self.at) / min_entry_len {
            return Err(malformed(format_args!(
                "frame claims {count} {what} past its end"
            )));
        }
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(read_one(self)?);
        }
        Ok(entries)
    }

    /// The trailing-byte check: a frame is exactly its fields.
    fn finish(&self) -> AtomResult<()> {
        match self.bytes.len() - self.at {
            0 => Ok(()),
            extra => Err(malformed(format_args!("frame has {extra} trailing bytes"))),
        }
    }
}

/// Every decode error: out of line, so the reads inlined into each
/// decoder stay small.
#[cold]
fn malformed(message: std::fmt::Arguments) -> AtomError {
    AtomError::Malformed(message.to_string())
}

/// Rejects an untrusted count above `cap`.
fn capped(count: usize, cap: usize, what: &str) -> AtomResult<usize> {
    if count > cap {
        return Err(malformed(format_args!(
            "frame claims {count} {what} (cap {cap})"
        )));
    }
    Ok(count)
}

/// One onion ciphertext; a component is at least its flags and two points.
fn read_ciphertext(r: &mut Reader, what: &str) -> AtomResult<MessageCiphertext> {
    let count = r.u16(what)?;
    let components = r.entries(count.into(), 1 + 2 * POINT_LEN, "components", |r| {
        let flags = r.flags(1, what)?;
        Ok(Ciphertext {
            r: r.point(what)?,
            c: r.point(what)?,
            y: if flags == 1 {
                Some(r.point(what)?)
            } else {
                None
            },
        })
    })?;
    Ok(MessageCiphertext { components })
}

/// One encryption proof; both counts are also held to the submission cap.
fn read_proof(r: &mut Reader) -> AtomResult<EncProof> {
    let what = "proof announcements";
    let count = capped(r.u16(what)?.into(), MAX_SUBMIT_COMPONENTS, what)?;
    let announcements = r.entries(count, POINT_LEN, what, |r| r.point(what))?;
    let what = "proof responses";
    let count = capped(r.u16(what)?.into(), MAX_SUBMIT_COMPONENTS, what)?;
    let responses = r.entries(count, POINT_LEN, what, |r| r.scalar(what))?;
    Ok(EncProof {
        announcements,
        responses,
    })
}

/// One `ciphertext ‖ proof` pair of a submit body.
fn read_submission_side(r: &mut Reader) -> AtomResult<(MessageCiphertext, EncProof)> {
    let ciphertext = read_ciphertext(r, "submit ciphertext")?;
    let components = ciphertext.components.len();
    capped(components, MAX_SUBMIT_COMPONENTS, "submit components")?;
    Ok((ciphertext, read_proof(r)?))
}

/// A `count u32 ‖ id u32 *` list of server or process ids.
fn read_ids(r: &mut Reader) -> AtomResult<Vec<usize>> {
    r.list(4, "rejoin ids", |r| Ok(r.u32("rejoin id")? as usize))
}

/// A per-round list of server lists, which must hold `rounds` of them: the
/// count is checked before the body bound and any allocation.
fn read_rounds(r: &mut Reader, rounds: usize, what: &str) -> AtomResult<Vec<Vec<usize>>> {
    let count = r.u32(what)? as usize;
    if count != rounds {
        return Err(malformed(format_args!(
            "rejoin frame carries {count} {what} for {rounds} rounds"
        )));
    }
    r.entries(count, 4, what, read_ids)
}

fn decode_mix(r: &mut Reader) -> AtomResult<MixEnvelope> {
    Ok(MixEnvelope {
        round: r.u32("mix round")? as usize,
        iteration: r.u32("mix iteration")? as usize,
        from: match r.u32("mix sender")? {
            u32::MAX => SOURCE,
            from => from as usize,
        },
        sent_virtual: Duration::from_nanos(r.u64("mix send time")?),
        // Each message occupies at least its 2-byte component count.
        batch: r.list(2, "mix messages", |r| read_ciphertext(r, "mix message"))?,
    })
}

fn decode_exit(r: &mut Reader) -> AtomResult<ExitFrame> {
    Ok(ExitFrame {
        round: r.u32("exit round")? as usize,
        gid: r.u32("exit gid")? as usize,
        finished_virtual: Duration::from_nanos(r.u64("exit finish time")?),
        mix_messages: r.u64("exit mix messages")?,
        mix_bytes: r.u64("exit mix bytes")?,
        compute: r.list(8, "compute entries", |r| {
            r.u64("exit compute entry").map(Duration::from_nanos)
        })?,
        payloads: r.list(4, "exit payloads", |r| {
            let len = r.u32("exit payload length")?;
            Ok(r.take(len as usize, "exit payload")?.to_vec())
        })?,
    })
}

fn decode_abort(r: &mut Reader) -> AtomResult<AbortFrame> {
    let round = r.u32("abort round")? as usize;
    let len = r.u32("abort reason length")? as usize;
    capped(len, MAX_ABORT_REASON, "abort reason bytes")?;
    let reason = r.text(len, "abort reason")?;
    Ok(AbortFrame { round, reason })
}

fn decode_setup(r: &mut Reader) -> AtomResult<SetupFrame> {
    let round = r.u32("setup round")? as usize;
    let gid = r.u32("setup gid")? as usize;
    r.flags(0, "setup frame")?;
    let threshold = r.u32("setup threshold")? as usize;
    Ok(SetupFrame {
        round,
        gid,
        threshold,
        members: r.list(4, "setup members", |r| Ok(r.u32("setup member")? as usize))?,
        public_key: PublicKey(r.point("setup group key")?),
    })
}

fn decode_telemetry(r: &mut Reader) -> AtomResult<TelemetryFrame> {
    Ok(TelemetryFrame {
        process: r.u32("telemetry process")?,
        last: r.flags(1, "telemetry frame")? == 1,
        counters: r.list(MIN_COUNTER_LEN, "telemetry counters", |r| {
            Ok((r.string("counter name")?, r.u64("counter value")?))
        })?,
        spans: r.list(MIN_SPAN_LEN, "telemetry spans", |r| {
            Ok(SpanRecord {
                phase: r.string("span phase")?,
                note: r.string("span note")?,
                round: r.u32("span round")?,
                gid: r.u32("span gid")?,
                tid: r.u32("span tid")?,
                start_us: r.u64("span start")?,
                dur_us: r.u64("span duration")?,
            })
        })?,
    })
}

fn decode_rejoin(r: &mut Reader) -> AtomResult<RejoinFrame> {
    let round = r.u32("rejoin round")? as usize;
    let end = r.u32("rejoin end")? as usize;
    let process = r.u32("rejoin process")? as usize;
    let offset = r.u32("rejoin offset")? as usize;
    let flags = r.flags(0b11, "rejoin frame")?;
    let response = flags & 1 == 1;
    if response && end <= round {
        return Err(malformed(format_args!("rejoin response runs no round")));
    }
    let rounds = if response { end - round } else { 0 };
    Ok(RejoinFrame {
        round,
        end,
        process,
        offset,
        response,
        commit: flags & 2 == 2,
        dead: read_ids(r)?,
        evicted: read_rounds(r, rounds, "evicted lists")?,
        failed: read_rounds(r, rounds, "failed lists")?,
    })
}

fn decode_submit(r: &mut Reader) -> AtomResult<SubmitFrame> {
    let round = r.u32("submit round")? as usize;
    let client = r.u64("submit client")?;
    let trap = r.flags(1, "submit frame")? == 1;
    let app = r.u16("submit app tag")?;
    let entry_group = r.u32("submit entry group")? as usize;
    let submission = if trap {
        let (ct0, proof0) = read_submission_side(r)?;
        let (ct1, proof1) = read_submission_side(r)?;
        ClientSubmission::Trap(TrapSubmission {
            entry_group,
            ciphertexts: [ct0, ct1],
            proofs: [proof0, proof1],
            trap_commitment: Commitment(r.array("submit trap commitment")?),
        })
    } else {
        let (ciphertext, proof) = read_submission_side(r)?;
        ClientSubmission::Nizk(NizkSubmission {
            entry_group,
            ciphertext,
            proof,
        })
    };
    Ok(SubmitFrame {
        round,
        client,
        app,
        submission,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_crypto::elgamal::{encrypt_message, KeyPair};
    use atom_crypto::encoding::encode_message_padded;
    use curve25519_dalek::field::{P, U256};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Puts each 32-byte string that no group element has in place of the
    /// last occurrence of `point` in the valid frame `clean`, and expects
    /// every one convicted:
    /// zero, a value ≥ p, and `p − v` for the point's encoding `v` — the
    /// other residue of the same element, which a relay could otherwise
    /// swap in to change a frame's bytes but not its meaning.
    fn assert_invalid_points_rejected(clean: &[u8], point: &RistrettoPoint) {
        assert!(decode(clean).is_ok());
        let valid = point.compress().to_bytes();
        let point_at = clean
            .windows(POINT_LEN)
            .rposition(|window| window == valid)
            .expect("the frame carries the point");
        let twin = P.neg(&U256::from_le_bytes(&valid)).to_le_bytes();
        for invalid in [[0u8; POINT_LEN], [0xff; POINT_LEN], twin] {
            let mut bytes = clean.to_vec();
            bytes[point_at..point_at + POINT_LEN].copy_from_slice(&invalid);
            let error = decode(&bytes).unwrap_err();
            assert!(
                format!("{error:?}").contains("invalid point"),
                "want the point error for {invalid:02x?}, got {error:?}"
            );
        }
    }

    fn sample_batch(fresh: bool) -> Vec<MessageCiphertext> {
        let mut rng = StdRng::seed_from_u64(11);
        let keys = KeyPair::generate(&mut rng);
        (0..3u8)
            .map(|i| {
                let points = encode_message_padded(&[i; 8], 32).unwrap();
                let (mut ct, _) = encrypt_message(&keys.public, &points, &mut rng);
                if !fresh {
                    // Populate the auxiliary component so both encodings are
                    // exercised.
                    for component in &mut ct.components {
                        component.y = Some(component.r);
                    }
                }
                ct
            })
            .collect()
    }

    fn decode_mix_frame(bytes: &[u8]) -> AtomResult<MixEnvelope> {
        match decode(bytes)? {
            Frame::Mix(envelope) => Ok(envelope),
            other => panic!("expected a mix frame, got {other:?}"),
        }
    }

    #[test]
    fn roundtrip_fresh_and_inflight_batches() {
        for fresh in [true, false] {
            let batch = sample_batch(fresh);
            let bytes = encode_mix(3, 5, 2, Duration::from_millis(250), &batch);
            let envelope = decode_mix_frame(&bytes).unwrap();
            assert_eq!(envelope.round, 3);
            assert_eq!(envelope.iteration, 5);
            assert_eq!(envelope.from, 2);
            assert_eq!(envelope.sent_virtual, Duration::from_millis(250));
            assert_eq!(envelope.batch, batch);
        }
    }

    #[test]
    fn source_sender_roundtrips() {
        let bytes = encode_mix(0, 0, SOURCE, Duration::ZERO, &[]);
        let envelope = decode_mix_frame(&bytes).unwrap();
        assert_eq!(envelope.from, SOURCE);
        assert!(envelope.batch.is_empty());
    }

    #[test]
    fn exit_frame_roundtrips() {
        let frame = ExitFrame {
            round: 7,
            gid: 3,
            finished_virtual: Duration::from_micros(1234),
            mix_messages: 42,
            mix_bytes: 98765,
            compute: vec![Duration::from_millis(3), Duration::from_millis(5)],
            payloads: vec![vec![1, 2, 3], Vec::new(), vec![0; 64]],
        };
        let bytes = encode_exit(&frame);
        assert_eq!(decode(&bytes).unwrap(), Frame::Exit(frame));
    }

    #[test]
    fn abort_frame_roundtrips_and_caps_reasons() {
        let bytes = encode_abort(9, "trap check failed");
        match decode(&bytes).unwrap() {
            Frame::Abort(frame) => {
                assert_eq!(frame.round, 9);
                assert_eq!(frame.reason, "trap check failed");
            }
            other => panic!("expected abort, got {other:?}"),
        }
        // Over-long reasons are truncated on encode, never rejected.
        let long = "x".repeat(3 * MAX_ABORT_REASON);
        let bytes = encode_abort(1, &long);
        match decode(&bytes).unwrap() {
            Frame::Abort(frame) => assert_eq!(frame.reason.len(), MAX_ABORT_REASON),
            other => panic!("expected abort, got {other:?}"),
        }
    }

    fn sample_setup() -> SetupFrame {
        let mut rng = StdRng::seed_from_u64(21);
        SetupFrame {
            round: 6,
            gid: 2,
            members: vec![4, 9, 1],
            threshold: 2,
            public_key: KeyPair::generate(&mut rng).public,
        }
    }

    #[test]
    fn setup_frame_roundtrips() {
        let frame = sample_setup();
        let bytes = encode_setup(&frame);
        assert_eq!(decode(&bytes).unwrap(), Frame::Setup(frame));
        // A memberless frame is still well-formed (the decoder cannot know
        // the deployment's group size; the engine validates that).
        let empty = SetupFrame {
            members: Vec::new(),
            ..sample_setup()
        };
        let bytes = encode_setup(&empty);
        assert_eq!(decode(&bytes).unwrap(), Frame::Setup(empty));
    }

    fn sample_telemetry() -> TelemetryFrame {
        TelemetryFrame {
            process: 2,
            last: true,
            counters: vec![
                ("crypto.multiexp.calls".to_string(), 12),
                ("net.frames".to_string(), 7),
            ],
            spans: vec![
                atom_obs::SpanRecord {
                    phase: "mix".to_string(),
                    round: 8,
                    gid: 1,
                    tid: 4,
                    start_us: 1_000,
                    dur_us: 250,
                    note: String::new(),
                },
                atom_obs::SpanRecord {
                    phase: "stall".to_string(),
                    round: 8,
                    gid: u32::MAX,
                    tid: 0,
                    start_us: 9_000,
                    dur_us: 0,
                    note: "no task progress".to_string(),
                },
            ],
        }
    }

    #[test]
    fn telemetry_frame_roundtrips() {
        let frame = sample_telemetry();
        let bytes = encode_telemetry(&frame);
        assert_eq!(decode(&bytes).unwrap(), Frame::Telemetry(frame));
        // An empty snapshot (process hosted nothing measurable) is still
        // well-formed.
        let empty = TelemetryFrame {
            last: false,
            counters: Vec::new(),
            spans: Vec::new(),
            ..sample_telemetry()
        };
        let bytes = encode_telemetry(&empty);
        assert_eq!(decode(&bytes).unwrap(), Frame::Telemetry(empty));
    }

    /// Every kind that carries a round: `telemetry` belongs to none.
    #[test]
    fn decode_round_works_for_every_kind() {
        let mix = encode_mix(3, 0, SOURCE, Duration::ZERO, &[]);
        let exit = encode_exit(&ExitFrame {
            round: 4,
            gid: 0,
            finished_virtual: Duration::ZERO,
            mix_messages: 0,
            mix_bytes: 0,
            compute: Vec::new(),
            payloads: Vec::new(),
        });
        let abort = encode_abort(5, "r");
        let setup = encode_setup(&sample_setup());
        let rejoin = encode_rejoin(&sample_rejoin());
        let submit = encode_submit(&sample_submit(false));
        let ack = encode_submit_ack(&SubmitAckFrame {
            round: 14,
            shed: true,
            retry_after: Duration::from_millis(250),
        });
        assert_eq!(decode_round(&mix), Some(3));
        assert_eq!(decode_round(&exit), Some(4));
        assert_eq!(decode_round(&abort), Some(5));
        assert_eq!(decode_round(&setup), Some(6));
        assert_eq!(decode_round(&rejoin), Some(12));
        assert_eq!(decode_round(&submit), Some(13));
        assert_eq!(decode_round(&ack), Some(14));
        assert_eq!(decode_round(&[1, 2]), None);
    }

    #[test]
    fn corrupted_point_rejected() {
        let batch = sample_batch(true);
        let mut bytes = encode_mix(1, 1, 0, Duration::ZERO, &batch);
        // Zero out the first point: an invalid encoding.
        let start = MIX_HEADER_LEN + 2 + 1;
        for b in &mut bytes[start..start + POINT_LEN] {
            *b = 0;
        }
        assert!(decode(&bytes).is_err());
    }

    // ------------------------------------------------------------------
    // Adversarial decoder suite: every input below models bytes from an
    // untrusted peer. The contract is AtomError out — never a panic, never
    // an allocation sized by an attacker-controlled field.
    // ------------------------------------------------------------------

    /// One valid frame of every kind, `rejoin` as a request and as a plan,
    /// `submit` in both variants.
    fn sample_frames() -> [Vec<u8>; 10] {
        let batch = sample_batch(false);
        [
            encode_mix(1, 2, 0, Duration::from_millis(1), &batch),
            encode_exit(&ExitFrame {
                round: 1,
                gid: 2,
                finished_virtual: Duration::from_millis(9),
                mix_messages: 3,
                mix_bytes: 4,
                compute: vec![Duration::from_millis(1)],
                payloads: vec![vec![5; 10]],
            }),
            encode_abort(1, "reason"),
            encode_setup(&sample_setup()),
            encode_telemetry(&sample_telemetry()),
            encode_rejoin(&sample_rejoin()),
            encode_rejoin(&sample_plan()),
            encode_submit(&sample_submit(false)),
            encode_submit(&sample_submit(true)),
            encode_submit_ack(&SubmitAckFrame {
                round: 2,
                shed: true,
                retry_after: Duration::from_millis(40),
            }),
        ]
    }

    /// Encodes a decoded frame back with the public encoders.
    fn encode(frame: &Frame) -> Vec<u8> {
        match frame {
            Frame::Mix(m) => encode_mix(m.round, m.iteration, m.from, m.sent_virtual, &m.batch),
            Frame::Exit(frame) => encode_exit(frame),
            Frame::Abort(frame) => encode_abort(frame.round, &frame.reason),
            Frame::Setup(frame) => encode_setup(frame),
            Frame::Telemetry(frame) => encode_telemetry(frame),
            Frame::Rejoin(frame) => encode_rejoin(frame),
            Frame::Submit(frame) => encode_submit(frame),
            Frame::SubmitAck(frame) => encode_submit_ack(frame),
        }
    }

    /// The generic decoder harness, over every frame kind: each strict
    /// prefix and the frame plus one byte are rejected, and flipping any
    /// byte (`^ 0x01`, `^ 0x80`, `^ 0xFF`) either is rejected or decodes
    /// to a frame that re-encodes to exactly the flipped bytes — one byte
    /// string per frame, so a relay cannot change a frame's bytes without
    /// changing its meaning.
    #[test]
    fn every_frame_kind_rejects_truncation_and_padding_and_stays_canonical_under_bit_flips() {
        for full in sample_frames() {
            let kind = full[0];
            assert_eq!(encode(&decode(&full).unwrap()), full, "kind {kind}");
            for len in 0..full.len() {
                assert!(
                    decode(&full[..len]).is_err(),
                    "kind {kind}: prefix of {len}/{} bytes must be rejected",
                    full.len()
                );
            }
            let padded = [&full[..], &[0]].concat();
            assert!(decode(&padded).is_err(), "kind {kind}: trailing byte");
            for at in 0..full.len() {
                for mask in [0x01u8, 0x80, 0xFF] {
                    let mut flipped = full.clone();
                    flipped[at] ^= mask;
                    if let Ok(frame) = decode(&flipped) {
                        assert_eq!(
                            encode(&frame),
                            flipped,
                            "kind {kind}: byte {at} ^ {mask:#04x} decodes to a frame with other bytes"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn every_header_truncation_errors_cleanly() {
        for full in sample_frames() {
            for len in 0..full.len() {
                assert!(
                    decode(&full[..len]).is_err(),
                    "prefix of {len}/{} bytes must be rejected",
                    full.len()
                );
            }
            decode(&full).unwrap();
        }
    }

    #[test]
    fn truncated_and_trailing_bytes_rejected() {
        let batch = sample_batch(true);
        let bytes = encode_mix(1, 1, 0, Duration::ZERO, &batch);
        assert!(decode(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode(&bytes[..MIX_HEADER_LEN - 2]).is_err());
        let mut padded = bytes.clone();
        padded.push(0);
        assert!(decode(&padded).is_err());
    }

    #[test]
    fn unknown_kind_rejected() {
        assert!(decode(&[]).is_err());
        assert!(decode(&[0]).is_err());
        assert!(decode(&[10, 1, 2, 3]).is_err());
        assert!(decode(&[0xFF, 1, 2, 3]).is_err());
        // The retired evict kind, even over a well-formed rejoin body.
        let mut retired = encode_rejoin(&sample_plan());
        retired[0] = 6;
        assert!(decode(&retired).is_err());
    }

    #[test]
    fn mix_count_overflow_vs_payload_length_rejected_before_allocation() {
        // A header claiming u32::MAX messages over an empty body: the
        // decoder must reject from the body-length bound, not allocate.
        let mut bytes = encode_mix(0, 0, 0, Duration::ZERO, &[]);
        let count_at = MIX_HEADER_LEN - 4;
        bytes[count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("claims"),
            "want the bounds error, got {error:?}"
        );

        // Same for the per-message component count.
        let batch = sample_batch(true);
        let mut bytes = encode_mix(0, 0, 0, Duration::ZERO, &batch);
        bytes[MIX_HEADER_LEN..MIX_HEADER_LEN + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn exit_count_overflows_rejected_before_allocation() {
        let frame = ExitFrame {
            round: 0,
            gid: 0,
            finished_virtual: Duration::ZERO,
            mix_messages: 0,
            mix_bytes: 0,
            compute: Vec::new(),
            payloads: Vec::new(),
        };
        let clean = encode_exit(&frame);
        // compute_count lives right after the two u64 counters.
        let compute_count_at = 1 + 4 + 4 + 8 + 8 + 8;
        let mut bytes = clean.clone();
        bytes[compute_count_at..compute_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bytes).is_err());
        // payload_count is the final u32 of the empty frame.
        let payload_count_at = clean.len() - 4;
        let mut bytes = clean.clone();
        bytes[payload_count_at..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bytes).is_err());
        // A payload length pointing past the end.
        let frame = ExitFrame {
            payloads: vec![vec![7; 8]],
            ..frame
        };
        let mut bytes = encode_exit(&frame);
        let len_at = bytes.len() - 8 - 4;
        bytes[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn abort_reason_length_lies_rejected() {
        let mut bytes = encode_abort(2, "short");
        // Claim more bytes than the body holds.
        bytes[5..9].copy_from_slice(&100u32.to_le_bytes());
        assert!(decode(&bytes).is_err());
        // Claim past the hard cap.
        let mut bytes = encode_abort(2, "short");
        bytes[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode(&bytes).is_err());
        // Non-UTF-8 reasons are rejected, not lossily accepted.
        let mut bytes = encode_abort(2, "ab");
        let end = bytes.len();
        bytes[end - 2] = 0xff;
        bytes[end - 1] = 0xfe;
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn non_canonical_and_invalid_point_encodings_rejected() {
        let batch = sample_batch(false);
        let clean = encode_mix(0, 0, 0, Duration::ZERO, &batch);
        // `c` of the first component and `Y` of the last (the fixture sets
        // `Y = R`; the helper replaces the later of equal encodings).
        let last = batch[2].components.last().unwrap();
        assert_invalid_points_rejected(&clean, &batch[0].components[0].c);
        assert_invalid_points_rejected(&clean, &last.y.unwrap());
    }

    #[test]
    fn unknown_component_flags_rejected() {
        let batch = sample_batch(true);
        let mut bytes = encode_mix(0, 0, 0, Duration::ZERO, &batch);
        bytes[MIX_HEADER_LEN + 2] = 0x82; // undefined flag bits
        assert!(decode(&bytes).is_err());
    }

    // Setup-frame adversarial coverage, mirroring the mix/exit/abort suites:
    // AtomError out, never a panic, never an attacker-sized allocation.

    /// Byte offset of the member-count field in an encoded setup frame.
    const SETUP_COUNT_AT: usize = 1 + 4 + 4 + 1 + 4;

    #[test]
    fn setup_member_count_overflow_rejected_before_allocation() {
        // u32::MAX members claimed over a 3-member body: the bounds check
        // against the remaining bytes must fire before any allocation.
        let mut bytes = encode_setup(&sample_setup());
        bytes[SETUP_COUNT_AT..SETUP_COUNT_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("claims"),
            "want the bounds error, got {error:?}"
        );
        // A count that is too *small* leaves trailing bytes, also rejected.
        let mut bytes = encode_setup(&sample_setup());
        bytes[SETUP_COUNT_AT..SETUP_COUNT_AT + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn setup_unknown_flags_rejected() {
        let flags_at = 1 + 4 + 4;
        for flags in [1u8, 0x80, 0xff] {
            let mut bytes = encode_setup(&sample_setup());
            bytes[flags_at] = flags;
            let error = decode(&bytes).unwrap_err();
            assert!(
                format!("{error:?}").contains("flags"),
                "want the flags error, got {error:?}"
            );
        }
    }

    #[test]
    fn setup_invalid_and_non_canonical_points_rejected() {
        let setup = sample_setup();
        assert_invalid_points_rejected(&encode_setup(&setup), &setup.public_key.0);
    }

    #[test]
    fn setup_trailing_bytes_rejected() {
        let mut bytes = encode_setup(&sample_setup());
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    // Telemetry-frame adversarial coverage, mirroring the other suites.

    /// Byte offset of the flags byte in an encoded telemetry frame.
    const TELEMETRY_FLAGS_AT: usize = 1 + 4;

    #[test]
    fn telemetry_count_overflows_rejected_before_allocation() {
        let clean = encode_telemetry(&sample_telemetry());
        // u32::MAX counters claimed over a 2-counter body.
        let counter_count_at = TELEMETRY_FLAGS_AT + 1;
        let mut bytes = clean.clone();
        bytes[counter_count_at..counter_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("claims"),
            "want the counter bounds error, got {error:?}"
        );
        // Span count sits after the two counter entries.
        let frame = sample_telemetry();
        let span_count_at = counter_count_at
            + 4
            + frame
                .counters
                .iter()
                .map(|(name, _)| MIN_COUNTER_LEN + name.len())
                .sum::<usize>();
        let mut bytes = clean.clone();
        bytes[span_count_at..span_count_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("claims"),
            "want the span bounds error, got {error:?}"
        );
        // A counter-name length pointing past the end of the frame.
        let name_len_at = counter_count_at + 4;
        let mut bytes = clean.clone();
        bytes[name_len_at..name_len_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn telemetry_unknown_flags_rejected() {
        for flags in [2u8, 0x80, 0xff] {
            let mut bytes = encode_telemetry(&sample_telemetry());
            bytes[TELEMETRY_FLAGS_AT] = flags;
            let error = decode(&bytes).unwrap_err();
            assert!(
                format!("{error:?}").contains("flags"),
                "want the flags error, got {error:?}"
            );
        }
    }

    #[test]
    fn telemetry_trailing_bytes_rejected() {
        let mut bytes = encode_telemetry(&sample_telemetry());
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn telemetry_non_utf8_strings_rejected() {
        let frame = TelemetryFrame {
            counters: vec![("ab".to_string(), 1)],
            spans: Vec::new(),
            ..sample_telemetry()
        };
        let mut bytes = encode_telemetry(&frame);
        // The counter name's two bytes sit between its u16 length and the
        // u64 value at the tail of the frame (span count is the final u32).
        let name_at = bytes.len() - 4 - 8 - 2;
        bytes[name_at] = 0xff;
        bytes[name_at + 1] = 0xfe;
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("UTF-8"),
            "want the UTF-8 error, got {error:?}"
        );
    }

    // Rejoin-frame adversarial coverage, mirroring the other suites.

    /// A member's ack of the plan of rounds 12..14: no membership.
    fn sample_rejoin() -> RejoinFrame {
        RejoinFrame {
            round: 12,
            end: 14,
            process: 1,
            offset: 3,
            response: false,
            commit: false,
            dead: Vec::new(),
            evicted: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// The coordinator's plan of rounds 12..14 without processes 2 and 3:
    /// round 12 heals around servers 4 and 5, round 13 re-forms without
    /// them.
    fn sample_plan() -> RejoinFrame {
        RejoinFrame {
            process: 0,
            response: true,
            dead: vec![2, 3],
            evicted: vec![Vec::new(), vec![4, 5]],
            failed: vec![vec![4, 5], Vec::new()],
            ..sample_rejoin()
        }
    }

    /// Byte offset of a rejoin frame's dead list, right after its header.
    const DEAD_AT: usize = 1 + 4 + 4 + 4 + 4 + 1;
    /// Byte offsets, in a [`sample_plan`] frame, of its evicted-list count
    /// and of round 13's evicted-server count.
    const EVICTED_AT: usize = DEAD_AT + 4 + 2 * 4;
    const ROUND_13_EVICTED_AT: usize = EVICTED_AT + 4 + 4;

    /// Little-endian `u32`s.
    fn words(values: &[u32]) -> Vec<u8> {
        values
            .iter()
            .flat_map(|value| value.to_le_bytes())
            .collect()
    }

    #[test]
    fn evict_frame_roundtrips() {
        // A plan's membership survives the trip, laid out as its dead
        // processes, then per round the servers excluded, then per round
        // those healed around.
        let plan = sample_plan();
        let bytes = encode_rejoin(&plan);
        let tail = words(&[2, 2, 3, 2, 0, 2, 4, 5, 2, 2, 4, 5, 0]);
        assert_eq!(&bytes[DEAD_AT..], &tail[..]);
        assert_eq!(decode(&bytes).unwrap(), Frame::Rejoin(plan));
    }

    #[test]
    fn rejoin_frame_roundtrips() {
        for frame in [sample_rejoin(), sample_plan()] {
            for commit in [false, true] {
                let frame = RejoinFrame {
                    commit,
                    ..frame.clone()
                };
                let bytes = encode_rejoin(&frame);
                assert_eq!(decode(&bytes).unwrap(), Frame::Rejoin(frame));
            }
        }
        // A plan with nobody evicted (a fresh fleet's handshake) is
        // well-formed.
        let empty = RejoinFrame {
            dead: Vec::new(),
            evicted: vec![Vec::new(); 2],
            failed: vec![Vec::new(); 2],
            ..sample_plan()
        };
        let bytes = encode_rejoin(&empty);
        assert_eq!(decode(&bytes).unwrap(), Frame::Rejoin(empty));
        // A response must run a round; a member's frame may name none (a
        // restarted member has seen no plan yet).
        for (round, end) in [(12, 12), (12, 11), (0, 0), (u32::MAX as usize, 0)] {
            for commit in [false, true] {
                let plan = RejoinFrame {
                    round,
                    end,
                    commit,
                    ..sample_plan()
                };
                let error = decode(&encode_rejoin(&plan)).unwrap_err();
                assert!(
                    matches!(&error, AtomError::Malformed(reason) if reason.contains("no round")),
                    "plan of rounds {round}..{end}: want Malformed, got {error:?}"
                );
                let request = RejoinFrame {
                    round,
                    end,
                    commit,
                    ..sample_rejoin()
                };
                let bytes = encode_rejoin(&request);
                assert_eq!(decode(&bytes).unwrap(), Frame::Rejoin(request));
            }
        }
    }

    /// A response carries one evicted and one failed list per round of
    /// `round..end`, a member's frame none: any other count is rejected.
    #[test]
    fn rejoin_round_lists_must_match_the_rounds() {
        let plan = sample_plan();
        let short = RejoinFrame {
            failed: vec![Vec::new()],
            ..plan.clone()
        };
        let long = RejoinFrame {
            evicted: vec![Vec::new(); 3],
            ..plan.clone()
        };
        let request = RejoinFrame {
            response: false,
            ..plan
        };
        for frame in [short, long, request] {
            let error = decode(&encode_rejoin(&frame)).unwrap_err();
            assert!(
                format!("{error:?}").contains("rounds"),
                "{frame:?}: want the round-count error, got {error:?}"
            );
        }
    }

    #[test]
    fn evict_count_overflows_rejected_before_allocation() {
        // u32::MAX servers claimed over a 2-server body.
        let mut bytes = encode_rejoin(&sample_plan());
        bytes[ROUND_13_EVICTED_AT..ROUND_13_EVICTED_AT + 4]
            .copy_from_slice(&u32::MAX.to_le_bytes());
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("claims"),
            "want the bounds error, got {error:?}"
        );
        // u32::MAX per-round lists: the count must be the plan's two
        // rounds, checked before any allocation.
        let mut bytes = encode_rejoin(&sample_plan());
        bytes[EVICTED_AT..EVICTED_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("for 2 rounds"),
            "want the round-count error, got {error:?}"
        );
    }

    #[test]
    fn evict_trailing_bytes_rejected() {
        let mut bytes = encode_rejoin(&sample_plan());
        bytes.push(0);
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejoin_unknown_flags_rejected() {
        let flags_at = DEAD_AT - 1;
        for flags in [4u8, 0x80, 0xff] {
            let mut bytes = encode_rejoin(&sample_rejoin());
            bytes[flags_at] = flags;
            let error = decode(&bytes).unwrap_err();
            assert!(
                format!("{error:?}").contains("flags"),
                "want the flags error, got {error:?}"
            );
        }
    }

    #[test]
    fn rejoin_evict_count_overflow_rejected_before_allocation() {
        // u32::MAX dead processes claimed over a plan's body: the bound
        // must fire before any allocation.
        let mut bytes = encode_rejoin(&sample_plan());
        bytes[DEAD_AT..DEAD_AT + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("claims"),
            "want the bounds error, got {error:?}"
        );
        // A count that is too small misreads the rest, also rejected.
        let mut bytes = encode_rejoin(&sample_plan());
        bytes[DEAD_AT..DEAD_AT + 4].copy_from_slice(&1u32.to_le_bytes());
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn rejoin_trailing_bytes_rejected() {
        for frame in [sample_rejoin(), sample_plan()] {
            let mut bytes = encode_rejoin(&frame);
            bytes.push(0);
            assert!(decode(&bytes).is_err(), "{frame:?} plus a byte");
        }
    }

    /// A real submission of each defense variant, built with the same
    /// constructors clients use.
    fn sample_submit(trap: bool) -> SubmitFrame {
        let mut rng = StdRng::seed_from_u64(31);
        let group = KeyPair::generate(&mut rng);
        let trustee = KeyPair::generate(&mut rng);
        let submission = if trap {
            let (submission, _) = atom_core::make_trap_submission(
                2,
                &group.public,
                &trustee.public,
                13,
                b"trap msg",
                32,
                &mut rng,
            )
            .unwrap();
            ClientSubmission::Trap(submission)
        } else {
            let (submission, _) =
                atom_core::make_nizk_submission(2, &group.public, b"nizk msg", 32, &mut rng)
                    .unwrap();
            ClientSubmission::Nizk(submission)
        };
        SubmitFrame {
            round: 13,
            client: 0xDEAD_BEEF_0042,
            app: 7,
            submission,
        }
    }

    #[test]
    fn submit_frame_roundtrips_both_variants() {
        for trap in [false, true] {
            let frame = sample_submit(trap);
            let bytes = encode_submit(&frame);
            assert_eq!(decode(&bytes).unwrap(), Frame::Submit(frame));
        }
    }

    #[test]
    fn submit_ack_roundtrips_and_saturates_retry_hint() {
        for (shed, retry) in [
            (false, Duration::ZERO),
            (true, Duration::from_millis(125)),
            (true, Duration::from_secs(1 << 40)),
        ] {
            let frame = SubmitAckFrame {
                round: 3,
                shed,
                retry_after: retry,
            };
            let bytes = encode_submit_ack(&frame);
            match decode(&bytes).unwrap() {
                Frame::SubmitAck(decoded) => {
                    assert_eq!(decoded.round, 3);
                    assert_eq!(decoded.shed, shed);
                    let expect_ms = u32::try_from(retry.as_millis()).unwrap_or(u32::MAX) as u64;
                    assert_eq!(decoded.retry_after, Duration::from_millis(expect_ms));
                }
                other => panic!("expected submit-ack, got {other:?}"),
            }
        }
    }

    #[test]
    fn submit_unknown_flags_rejected() {
        let flags_at = 1 + 4 + 8;
        for flags in [2u8, 0x80, 0xff] {
            let mut bytes = encode_submit(&sample_submit(false));
            bytes[flags_at] = flags;
            let error = decode(&bytes).unwrap_err();
            assert!(
                format!("{error:?}").contains("flags"),
                "want the flags error, got {error:?}"
            );
        }
    }

    #[test]
    fn submit_ack_unknown_flags_rejected() {
        let flags_at = 1 + 4;
        for flags in [2u8, 0x80, 0xff] {
            let mut bytes = encode_submit_ack(&SubmitAckFrame {
                round: 0,
                shed: false,
                retry_after: Duration::ZERO,
            });
            bytes[flags_at] = flags;
            let error = decode(&bytes).unwrap_err();
            assert!(
                format!("{error:?}").contains("flags"),
                "want the flags error, got {error:?}"
            );
        }
    }

    #[test]
    fn submit_component_count_overflow_rejected_before_allocation() {
        // The ciphertext's component count lives right after the fixed
        // header. Claim u16::MAX components over the real body: the bound
        // against the remaining bytes must fire before any allocation.
        let count_at = SUBMIT_HEADER_LEN;
        let mut bytes = encode_submit(&sample_submit(false));
        bytes[count_at..count_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("claims"),
            "want the bounds error, got {error:?}"
        );
    }

    #[test]
    fn submit_proof_count_overflow_rejected_before_allocation() {
        // Point the announcement count past the end of the body.
        let frame = sample_submit(false);
        let ciphertext_len = match &frame.submission {
            ClientSubmission::Nizk(s) => {
                2 + s.ciphertext.components.len()
                    * (1 + 2 * POINT_LEN
                        + s.ciphertext.components[0].y.is_some() as usize * POINT_LEN)
            }
            ClientSubmission::Trap(_) => unreachable!(),
        };
        let ann_count_at = SUBMIT_HEADER_LEN + ciphertext_len;
        let mut bytes = encode_submit(&frame);
        bytes[ann_count_at..ann_count_at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("claims"),
            "want the bounds error, got {error:?}"
        );
    }

    #[test]
    fn submit_oversized_component_cap_enforced() {
        // A structurally complete ciphertext with more components than
        // any real submission: body-consistent, so only the cap fires.
        let mut rng = StdRng::seed_from_u64(33);
        let keys = KeyPair::generate(&mut rng);
        let points = encode_message_padded(&[7u8; 8], 32).unwrap();
        let (ct, _) = encrypt_message(&keys.public, &points, &mut rng);
        let component = ct.components[0];
        let huge = MessageCiphertext {
            components: vec![component; MAX_SUBMIT_COMPONENTS + 1],
        };
        let mut frame = sample_submit(false);
        if let ClientSubmission::Nizk(s) = &mut frame.submission {
            s.ciphertext = huge;
        }
        let bytes = encode_submit(&frame);
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("cap"),
            "want the cap error, got {error:?}"
        );
    }

    #[test]
    fn submit_non_canonical_scalar_rejected() {
        // The proof responses close the nizk body; force the last 32
        // bytes to an unreduced encoding (all 0xFF is ≥ the group order).
        let mut bytes = encode_submit(&sample_submit(false));
        let end = bytes.len();
        bytes[end - POINT_LEN..end].fill(0xFF);
        let error = decode(&bytes).unwrap_err();
        assert!(
            format!("{error:?}").contains("scalar"),
            "want the scalar error, got {error:?}"
        );
    }

    #[test]
    fn submit_corrupted_point_rejected() {
        // A ciphertext component and a proof announcement, in both variants.
        for trap in [false, true] {
            let frame = sample_submit(trap);
            let (ciphertext, proof) = match &frame.submission {
                ClientSubmission::Nizk(s) => (&s.ciphertext, &s.proof),
                ClientSubmission::Trap(s) => (&s.ciphertexts[1], &s.proofs[0]),
            };
            let clean = encode_submit(&frame);
            assert_invalid_points_rejected(&clean, &ciphertext.components[0].c);
            assert_invalid_points_rejected(&clean, &proof.announcements[0]);
        }
    }

    #[test]
    fn submit_trailing_bytes_rejected() {
        for trap in [false, true] {
            let mut bytes = encode_submit(&sample_submit(trap));
            bytes.push(0);
            assert!(decode(&bytes).is_err());
        }
        let mut ack = encode_submit_ack(&SubmitAckFrame {
            round: 0,
            shed: false,
            retry_after: Duration::ZERO,
        });
        ack.push(0);
        assert!(decode(&ack).is_err());
    }

    #[test]
    fn submit_trap_truncated_commitment_rejected() {
        let bytes = encode_submit(&sample_submit(true));
        // Slice off half the trailing 32-byte commitment.
        let error = decode(&bytes[..bytes.len() - 16]).unwrap_err();
        assert!(
            format!("{error:?}").contains("commitment")
                || format!("{error:?}").contains("truncated"),
            "want a truncation error, got {error:?}"
        );
    }

    #[test]
    fn telemetry_overlong_note_truncated_at_char_boundary_on_encode() {
        let mut frame = sample_telemetry();
        // 70k of two-byte codepoints: must be cut to ≤ 64 KiB on a char
        // boundary so the decode below still passes.
        frame.spans[1].note = "é".repeat(35_000);
        let bytes = encode_telemetry(&frame);
        match decode(&bytes).unwrap() {
            Frame::Telemetry(decoded) => {
                assert!(decoded.spans[1].note.len() <= u16::MAX as usize);
                assert!(decoded.spans[1].note.chars().all(|ch| ch == 'é'));
            }
            other => panic!("expected telemetry, got {other:?}"),
        }
    }
}
