//! Durable action log: the recovery log and its WAL writer.
//!
//! The recovery log is one sequence of records, appended under the
//! `Recovery` lock while the enqueuing thread still holds its stream's lock,
//! so that order is a valid sequential order of the program for any number
//! of source threads. It has two readers, each present only when wanted:
//!
//! * once `HStreams::durability_opts` gives the log a writer, every record
//!   goes to **one** `hs-wal` partition in that order, so the action
//!   history survives death of the host process itself and a torn tail is a
//!   prefix of that order;
//! * while a card can be lost (a remote domain, or a fault plan armed),
//!   the records are also kept in memory, decoded — the mirror card-loss
//!   degradation replays from. A durable run whose cards are all
//!   in-process and which arms no plan keeps no mirror: nothing could
//!   replay it.
//!
//! The writer lives inside the log: appends, the wait-entry flushes and
//! checkpoints all take the `Recovery` lock and nothing else. This module
//! owns:
//!
//! * the hand-rolled encoding of an action's record (no serde, no bincode —
//!   the WAL payload format is a stability surface of its own, DESIGN.md
//!   §16), written by the enqueue from the built action, and its decoder;
//!   and the one metadata record, a lost card;
//! * [`RecoveryLog`];
//! * checkpoint blob encode/decode (host+card buffer bytes at a quiesce
//!   point, enabling watermark truncation of the log);
//! * run-directory layout helpers, `HStreams::durability_opts`/`recover` and
//!   the [`RecoveryReport`] the latter returns.
//!
//! Durability boundary: appends are buffered in userspace; `flush` at the
//! runtime's wait entries pushes them to the kernel page cache, which is
//! exactly what surviving `kill -9` requires (media durability via fsync is
//! an opt-in). A WAL I/O error never fails an enqueue: the log marks its
//! writer broken, notes the loss of durability on the chaos log and as the
//! `wal.broken` row of `metrics()`, and the run continues in-memory-only.

use crate::sync::Ordering;
use crate::types::{
    Access, BufferId, CostHint, DomainId, Event, HsError, HsResult, Operand, StreamId,
};
use crate::{HStreams, LoggedAction, LoggedOp};
use bytes::Bytes;
use hs_chaos::{ChaosHub, FailureCause, RetryPolicy, WalFault};
use hs_fabric::proto::{put_u32, put_u64, Cursor};
use hs_machine::KernelKind;
use hs_wal::{Wal, WalStats, META_PARTITION};
use std::io;
use std::path::{Path, PathBuf};

/// Event id used for metadata records (see [`hs_wal::META_PARTITION`]):
/// above any real watermark, so retirement never deletes them mid-run.
pub(crate) const META_EV: u64 = u64::MAX;

/// The one WAL partition every action record goes to, in log order.
pub(crate) const ACTION_PARTITION: u32 = 0;

/// Don't bother writing a checkpoint until at least this many framed bytes
/// accumulated since the last one — a checkpoint copies every buffer, so
/// small logs are cheaper to replay than to snapshot (1 MB of records
/// replays in ~10 ms through the normal enqueue path).
const CHECKPOINT_MIN_BYTES: u64 = 1 << 20;

/// Additionally require the log to grow by this multiple of the last
/// snapshot's size between checkpoints: snapshot work stays a small,
/// bounded fraction of append work no matter how large the buffers are.
const CHECKPOINT_BLOB_FACTOR: u64 = 4;

// ---------------------------------------------------------------------------
// Wire encoding (little-endian throughout): fabric's fixed-width `put_*` /
// [`Cursor`], plus the few shapes only the WAL payloads have.

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

fn get_f64(r: &mut Cursor<'_>) -> Option<f64> {
    r.get_u64().map(f64::from_bits)
}

/// The inverse of [`put_bytes`].
fn get_bytes<'a>(r: &mut Cursor<'a>) -> Option<&'a [u8]> {
    let n = r.get_u32()? as usize;
    r.get_bytes(n)
}

/// A byte range, start then end; reversed is refused.
fn get_range(r: &mut Cursor<'_>) -> Option<std::ops::Range<usize>> {
    let (start, end) = (r.get_u64()? as usize, r.get_u64()? as usize);
    (start <= end).then_some(start..end)
}

/// An element count, refused unless the rest of the payload can hold that
/// many elements of at least `elem` bytes each: a list is never sized
/// beyond the bytes that are there to fill it.
fn get_count(r: &mut Cursor<'_>, elem: usize) -> Option<usize> {
    let n = r.get_u32()? as usize;
    (n.checked_mul(elem)? <= r.remaining()).then_some(n)
}

fn access_tag(a: Access) -> u8 {
    match a {
        Access::In => 0,
        Access::Out => 1,
        Access::InOut => 2,
    }
}

fn access_from(tag: u8) -> Option<Access> {
    match tag {
        0 => Some(Access::In),
        1 => Some(Access::Out),
        2 => Some(Access::InOut),
        _ => None,
    }
}

/// A kernel's tag is its index in `KernelKind::ALL`, which lists the kinds
/// in declaration order: the discriminant (`kernel_tags_are_indices_in_all`
/// checks the two agree).
fn kernel_tag(k: KernelKind) -> u8 {
    k as u8
}

fn kernel_from(tag: u8) -> Option<KernelKind> {
    KernelKind::ALL.get(tag as usize).copied()
}

// An action's record is a head — flags, stream, [retry], dependences — then
// its op. The surrounding WAL frame already carries the event id, so it is
// not duplicated here. The flags byte elides the retry block in the common
// no-retry case, so the record stays as short as the action allows. The op
// is encoded when the action is built, from the caller's own terms, and the
// head once the enqueue has found the dependences; the enqueue
// ([`Records::push`]) and recovery's decoder are the two ends of this one
// encoding, and the replay mirror is decoded from the very bytes the WAL
// gets.

fn encode_head(out: &mut Vec<u8>, stream: StreamId, retry: &RetryPolicy, deps: &[Event]) {
    let retry_none = *retry == RetryPolicy::none();
    out.push(if retry_none { 0 } else { 1 });
    put_u32(out, stream.0);
    if !retry_none {
        put_u32(out, retry.max_attempts);
        put_u64(out, retry.base_backoff_us);
        put_f64(out, retry.multiplier);
        put_f64(out, retry.jitter);
    }
    put_u32(out, deps.len() as u32);
    for d in deps {
        put_u64(out, d.0);
    }
}

/// A compute's op: tag 0, name, argument bytes, operands, cost.
pub(crate) fn encode_compute(
    out: &mut Vec<u8>,
    func: &str,
    args: &[u8],
    operands: &[Operand],
    cost: CostHint,
) {
    out.push(0);
    put_bytes(out, func.as_bytes());
    put_bytes(out, args);
    put_u32(out, operands.len() as u32);
    for op in operands {
        put_u64(out, op.buffer.0);
        put_u64(out, op.range.start as u64);
        put_u64(out, op.range.end as u64);
        out.push(access_tag(op.access));
    }
    out.push(kernel_tag(cost.kernel));
    put_f64(out, cost.flops);
    put_u64(out, cost.tile_n);
}

/// A transfer's op, with the endpoints the caller named: tag 1, buffer,
/// range, from, to.
pub(crate) fn encode_xfer(
    out: &mut Vec<u8>,
    buf: BufferId,
    range: &std::ops::Range<usize>,
    from: DomainId,
    to: DomainId,
) {
    out.push(1);
    put_u64(out, buf.0);
    put_u64(out, range.start as u64);
    put_u64(out, range.end as u64);
    put_u32(out, from.0 as u32);
    put_u32(out, to.0 as u32);
}

/// An event-wait's or a marker's op: tag 2.
pub(crate) fn encode_sync(out: &mut Vec<u8>) {
    out.push(2);
}

/// Encode a logged action's payload through the same parts the enqueue
/// writes (the tests' way in: on-disk bytes are pinned against it).
#[cfg(test)]
fn encode_action(la: &LoggedAction, out: &mut Vec<u8>) {
    let deps: Vec<Event> = la.deps.iter().map(|&d| Event(d)).collect();
    encode_head(out, la.stream, &la.retry, &deps);
    match &la.op {
        LoggedOp::Compute {
            func,
            args,
            operands,
            cost,
        } => encode_compute(out, func, args, operands, *cost),
        LoggedOp::Xfer {
            buf,
            range,
            from,
            to,
        } => encode_xfer(out, *buf, range, *from, *to),
        LoggedOp::Sync => encode_sync(out),
    }
}

/// One enqueue call's log records, back to back: what it appends to the
/// WAL and, while a card can be lost, decodes into the replay mirror.
/// Per source thread and reused across calls, so a call allocates nothing
/// here once the lists have grown.
#[derive(Default)]
pub(crate) struct Records {
    bytes: Vec<u8>,
    /// Each record's event id and range of `bytes`.
    spans: Vec<(u64, std::ops::Range<usize>)>,
}

impl Records {
    /// Append action `ev`'s record: its head, then its op as encoded when
    /// the action was built.
    pub(crate) fn push(
        &mut self,
        ev: u64,
        stream: StreamId,
        retry: &RetryPolicy,
        deps: &[Event],
        op: &[u8],
    ) {
        let start = self.bytes.len();
        encode_head(&mut self.bytes, stream, retry, deps);
        self.bytes.extend_from_slice(op);
        self.spans.push((ev, start..self.bytes.len()));
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub(crate) fn clear(&mut self) {
        self.bytes.clear();
        self.spans.clear();
    }

    /// Each record's event id and payload, in push order.
    fn iter(&self) -> impl Iterator<Item = (u64, &[u8])> {
        self.spans
            .iter()
            .map(|(ev, span)| (*ev, &self.bytes[span.clone()]))
    }

    /// The records as replay-mirror entries. The decoder accepts whatever
    /// the encoder writes (`action_wire_round_trip`, and the torn-log
    /// property over seeded actions), so every record yields its entry.
    pub(crate) fn decode_into(&self, out: &mut Vec<LoggedAction>) {
        out.extend(
            self.iter()
                .filter_map(|(ev, payload)| decode_action(ev, payload)),
        );
    }
}

/// Decode one action payload back into a [`LoggedAction`]. Strict: any
/// truncation, unknown tag, reversed range or trailing garbage yields
/// `None` — a record that passed the CRC but fails here is treated as a
/// skipped action by recovery, never a guess. What cannot be judged here
/// (does the stream, buffer or domain exist?) is judged by the enqueue that
/// replays the action.
pub(crate) fn decode_action(ev: u64, payload: &[u8]) -> Option<LoggedAction> {
    let mut r = Cursor::new(payload);
    let flags = r.get_u8()?;
    if flags > 1 {
        return None;
    }
    let stream = StreamId(r.get_u32()?);
    let retry = if flags & 1 != 0 {
        RetryPolicy {
            max_attempts: r.get_u32()?,
            base_backoff_us: r.get_u64()?,
            multiplier: get_f64(&mut r)?,
            jitter: get_f64(&mut r)?,
        }
    } else {
        RetryPolicy::none()
    };
    let n_deps = get_count(&mut r, 8)?;
    let mut deps = Vec::with_capacity(n_deps);
    for _ in 0..n_deps {
        deps.push(r.get_u64()?);
    }
    let op = match r.get_u8()? {
        0 => {
            let func = String::from_utf8(get_bytes(&mut r)?.to_vec()).ok()?;
            let args = Bytes::copy_from_slice(get_bytes(&mut r)?);
            let n_ops = get_count(&mut r, 8 + 16 + 1)?; // buffer, range, access
            let mut operands = Vec::with_capacity(n_ops);
            for _ in 0..n_ops {
                let buffer = BufferId(r.get_u64()?);
                let range = get_range(&mut r)?;
                let access = access_from(r.get_u8()?)?;
                operands.push(Operand {
                    buffer,
                    range,
                    access,
                });
            }
            let kernel = kernel_from(r.get_u8()?)?;
            let flops = get_f64(&mut r)?;
            let tile_n = r.get_u64()?;
            LoggedOp::Compute {
                func,
                args,
                operands,
                cost: CostHint {
                    kernel,
                    flops,
                    tile_n,
                },
            }
        }
        1 => {
            let buf = BufferId(r.get_u64()?);
            let range = get_range(&mut r)?;
            let from = DomainId(r.get_u32()? as usize);
            let to = DomainId(r.get_u32()? as usize);
            LoggedOp::Xfer {
                buf,
                range,
                from,
                to,
            }
        }
        2 => LoggedOp::Sync,
        _ => return None,
    };
    if r.remaining() != 0 {
        return None;
    }
    Some(LoggedAction {
        ev,
        stream,
        op,
        deps,
        retry,
    })
}

// ---------------------------------------------------------------------------
// Checkpoint blobs.

/// One buffer instantiation in a checkpoint blob: (buffer id, domain, bytes).
pub(crate) type CheckpointBuf = (u64, u32, Vec<u8>);

/// Encode a quiesce-point checkpoint: the run it belongs to, the
/// retirement watermark, and every buffer instantiation's bytes (`(buffer
/// id, domain, bytes)`). Card instantiations are included because
/// post-checkpoint actions may read card-resident data produced before the
/// checkpoint — a host-only snapshot would silently lose it.
pub(crate) fn encode_checkpoint(run_id: u64, watermark: u64, bufs: &[CheckpointBuf]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, run_id);
    put_u64(&mut out, watermark);
    put_u32(&mut out, bufs.len() as u32);
    for (id, domain, bytes) in bufs {
        put_u64(&mut out, *id);
        put_u32(&mut out, *domain);
        put_bytes(&mut out, bytes);
    }
    out
}

/// Decode a checkpoint blob into `(run id, watermark, buffers)`; `None` on
/// any structural mismatch (the blob's CRC framing already rejected torn
/// writes — this guards format drift).
pub(crate) fn decode_checkpoint(b: &[u8]) -> Option<(u64, u64, Vec<CheckpointBuf>)> {
    let mut r = Cursor::new(b);
    let run_id = r.get_u64()?;
    let watermark = r.get_u64()?;
    let n = get_count(&mut r, 8 + 4 + 4)?; // id, domain, length of the bytes
    let mut bufs = Vec::with_capacity(n);
    for _ in 0..n {
        let id = r.get_u64()?;
        let domain = r.get_u32()?;
        let bytes = get_bytes(&mut r)?.to_vec();
        bufs.push((id, domain, bytes));
    }
    if r.remaining() != 0 {
        return None;
    }
    Some((run_id, watermark, bufs))
}

// ---------------------------------------------------------------------------
// Run directory layout.

pub(crate) fn run_dir_name(run_id: u64) -> String {
    format!("run-{run_id:016x}")
}

fn parse_run_dir(name: &str) -> Option<u64> {
    u64::from_str_radix(name.strip_prefix("run-")?, 16).ok()
}

/// Run directories under `root`, ascending by run id. Run ids are minted
/// from wall nanoseconds (and recovery always picks an id strictly above
/// every existing one), so ascending id order is creation order: the
/// *first* entry is the authoritative run when a crashed recovery left
/// partial newer generations behind.
pub(crate) fn list_runs(root: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut runs = Vec::new();
    let rd = match std::fs::read_dir(root) {
        Ok(rd) => rd,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(runs),
        Err(e) => return Err(e),
    };
    for ent in rd {
        let ent = ent?;
        if let Some(id) = parse_run_dir(&ent.file_name().to_string_lossy()) {
            if ent.file_type()?.is_dir() {
                runs.push((id, ent.path()));
            }
        }
    }
    runs.sort_by_key(|(id, _)| *id);
    Ok(runs)
}

/// A fresh run id: wall nanoseconds since the epoch. Collisions within one
/// root would need two runs created in the same nanosecond; recovery
/// additionally forces strict monotonicity against existing runs.
pub(crate) fn fresh_run_id() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(1)
        .max(1)
}

// ---------------------------------------------------------------------------
// The metadata record.

/// Payload of the one metadata record the runtime writes, a lost card:
/// tag 4, then the card number (u32 LE).
fn card_lost_payload(card: u32) -> [u8; 5] {
    let c = card.to_le_bytes();
    [4, c[0], c[1], c[2], c[3]]
}

/// The inverse of [`card_lost_payload`]; any other payload is `None`.
fn card_lost_from(payload: &[u8]) -> Option<u32> {
    match *payload {
        [4, a, b, c, d] => Some(u32::from_le_bytes([a, b, c, d])),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// The recovery log.

/// The log's durable half: the run's WAL writer and its bookkeeping.
struct Durable {
    wal: Wal,
    /// An I/O error (real or injected) permanently broke durability for
    /// this run: appends become no-ops, noted once.
    broken: bool,
    /// `appended_bytes` at the last checkpoint (throttles checkpoints).
    ckpt_bytes: u64,
    /// Size of the last checkpoint's buffer snapshot: the throttle scales
    /// with it, so snapshot work amortizes against log growth.
    ckpt_blob_bytes: u64,
    chaos: ChaosHub,
}

impl Durable {
    fn mark_broken(&mut self, why: &str) {
        if !self.broken {
            self.broken = true;
            self.chaos.note(format!("wal: durability lost: {why}"));
        }
    }
}

/// The recovery log behind `Inner::recovery`: while a card can be lost,
/// the entries card-loss degradation replays from, in append order, and —
/// once durability is on — the WAL writer every record is appended to, in
/// that same order (event ids are *not* globally ordered across threads;
/// the log's order is the program's). Every method runs under the
/// `Recovery` lock.
#[derive(Default)]
pub(crate) struct RecoveryLog {
    entries: Vec<LoggedAction>,
    durable: Option<Durable>,
}

impl RecoveryLog {
    /// Append every entry from now on to `wal` as well. Refused when the
    /// log already has a writer.
    fn make_durable(&mut self, wal: Wal, chaos: ChaosHub) -> HsResult<()> {
        if self.durable.is_some() {
            return Err(HsError::InvalidArg("durability already enabled".into()));
        }
        self.durable = Some(Durable {
            wal,
            broken: false,
            ckpt_bytes: 0,
            ckpt_blob_bytes: 0,
            chaos,
        });
        Ok(())
    }

    /// Append one enqueue call's records in order: to the writer, on a
    /// durable log, and `mirror` — the same records decoded, which the
    /// enqueue builds only while a card can be lost — to the in-memory
    /// entries, leaving the vector empty (its capacity is the enqueuing
    /// thread's to reuse). A write error — or an action too large for the
    /// record envelope — loses durability for the run, never the enqueue
    /// itself.
    pub(crate) fn append(&mut self, records: &Records, mirror: &mut Vec<LoggedAction>) {
        if let Some(d) = self.durable.as_mut().filter(|d| !d.broken) {
            for (ev, payload) in records.iter() {
                if let Err(e) = d.wal.append(ACTION_PARTITION, ev, payload) {
                    d.mark_broken(&format!("ev {ev}: {e}"));
                    break;
                }
            }
        }
        self.entries.append(mirror);
    }

    /// The in-memory entries, in log order.
    pub(crate) fn entries(&self) -> &[LoggedAction] {
        &self.entries
    }

    /// Prune the in-memory entries (compaction). Disk records are pruned
    /// only by watermark retirement, never here.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&LoggedAction) -> bool) {
        self.entries.retain(keep);
    }

    /// Push buffered appends to the page cache. Runs at the runtime's wait
    /// entries (`event_wait*`, `stream_synchronize`) and at compaction —
    /// the points where an application could observe completion and act on
    /// it, so everything it could have observed is on disk first. Consults
    /// the chaos hub: an injected [`WalFault::Torn`] flushes and then chops
    /// the action partition's tail (what a mid-write crash leaves);
    /// [`WalFault::Io`] breaks durability like a real I/O error.
    pub(crate) fn flush(&mut self) {
        let Some(d) = &mut self.durable else { return };
        if d.wal.pending_bytes() == 0 || d.broken {
            return;
        }
        let r = match d.chaos.check_wal() {
            Some(WalFault::Io) => {
                d.mark_broken("injected wal io fault");
                return;
            }
            Some(WalFault::Torn) => d
                .wal
                .flush()
                .and_then(|()| d.wal.chop_tail(ACTION_PARTITION, 7)),
            None => d.wal.flush(),
        };
        if let Err(e) = r {
            d.mark_broken(&e.to_string());
        }
    }

    /// The writer's statistics; `None` for an in-memory log.
    pub(crate) fn stats(&self) -> Option<WalStats> {
        self.durable.as_ref().map(|d| d.wal.stats())
    }

    /// True once an I/O error broke the writer (appends are no-ops since).
    pub(crate) fn broken(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| d.broken)
    }

    /// Should the runtime bother gathering a checkpoint snapshot? True once
    /// enough log accumulated since the last checkpoint (and durability is
    /// still intact). "Enough" scales with the last snapshot's size: a
    /// checkpoint copies every buffer, so re-snapshotting before the log
    /// grew by at least that much would spend more than it saves — the
    /// checkpoint work stays a bounded fraction of the append work.
    pub(crate) fn wants_checkpoint(&self) -> bool {
        self.durable.as_ref().is_some_and(|d| {
            let threshold = CHECKPOINT_MIN_BYTES.max(CHECKPOINT_BLOB_FACTOR * d.ckpt_blob_bytes);
            !d.broken && d.wal.stats().appended_bytes - d.ckpt_bytes >= threshold
        })
    }

    /// Publish a checkpoint blob (atomic tmp+rename) and retire every
    /// segment fully below `watermark`. The caller gathered `bufs` at a
    /// quiesce point — all reserved event ids retired — so the snapshot and
    /// the watermark name the same instant. Returns true if written.
    pub(crate) fn checkpoint(&mut self, watermark: u64, bufs: &[CheckpointBuf]) -> bool {
        let Some(d) = self.durable.as_mut().filter(|d| !d.broken) else {
            return false;
        };
        if let Err(e) = d.wal.flush() {
            d.mark_broken(&e.to_string());
            return false;
        }
        let payload = encode_checkpoint(d.wal.run_id(), watermark, bufs);
        let path = d.wal.dir().join("checkpoint.blob");
        // The blob inherits the log's durability boundary: page cache for
        // process death, fsync only when the writer opted into media
        // durability. A torn blob reads as absent either way (CRC).
        let fsync = d.wal.options().fsync;
        if let Err(e) = hs_wal::write_blob(&path, &payload, fsync) {
            d.mark_broken(&e.to_string());
            return false;
        }
        d.ckpt_blob_bytes = payload.len() as u64;
        match d.wal.retire(watermark) {
            Ok(0) => {}
            Ok(n) => d
                .chaos
                .note(format!("wal: checkpoint@{watermark}, {n} segments retired")),
            Err(e) => d.mark_broken(&e.to_string()),
        }
        d.ckpt_bytes = d.wal.stats().appended_bytes;
        true
    }

    /// Record on the meta partition that `card` was lost. Safe from the
    /// degradation path, which holds the world lock exclusively.
    pub(crate) fn append_meta(&mut self, card: u32) {
        if let Some(d) = self.durable.as_mut().filter(|d| !d.broken) {
            if let Err(e) = d
                .wal
                .append(META_PARTITION, META_EV, &card_lost_payload(card))
            {
                d.mark_broken(&e.to_string());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery report.

/// What `HStreams::recover` found and did.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Run id of the crashed run that was recovered.
    pub run_id: u64,
    /// Action records found on disk (after the checkpoint watermark).
    pub records: u32,
    /// Actions re-enqueued through the normal paths.
    pub replayed: u32,
    /// Records dropped: undecodable payloads, vanished streams/buffers, or
    /// sync deps that could not be scheduled. Each is named in `remarks`;
    /// a non-zero count means the recovered state may be incomplete.
    pub skipped: u32,
    /// Records below the checkpoint watermark (already captured by the
    /// checkpoint overlay; not replayed).
    pub checkpointed: u32,
    /// Torn-tail / corrupt-segment notes from the segment scan.
    pub torn: Vec<String>,
    /// Structured failure causes the crashed run had recorded (card
    /// degradations): the restarted process starts with healthy domains,
    /// so these are informational.
    pub prior_failures: Vec<FailureCause>,
    /// Watermark of the checkpoint that was overlaid, if any.
    pub checkpoint_watermark: Option<u64>,
    /// What recovery had to work around, one line each: skipped records,
    /// checkpoint buffers it could not overlay, a checkpoint it could not
    /// persist into the new run. Empty for a clean recovery.
    pub remarks: Vec<String>,
}

// ---------------------------------------------------------------------------
// Turning durability on, and recovering a run.

impl HStreams {
    /// Enable durable action logging into a fresh run directory under
    /// `root`. Must be called before any action is enqueued; from then on
    /// every enqueue appends a checksummed record to the WAL's action
    /// partition, wait entries flush to the page cache (surviving `kill
    /// -9`), and compaction checkpoints + truncates at quiesce points.
    /// Returns the new run id. A broken WAL (disk error) downgrades to
    /// in-memory logging with a note on the chaos log — it never fails an
    /// enqueue after this call succeeds.
    ///
    /// Media durability: `fsync` syncs segment data to media on every
    /// runtime flush, and `batch_ms > 0` group-commits those syncs —
    /// flushes landing within `batch_ms` of the last fsync skip the
    /// syscall (counted on the `wal.fsync_batched` counter) and ride the
    /// next one, trading a bounded post-crash media-durability window for
    /// one fsync per window instead of one per flush. `batch_ms` is ignored
    /// when `fsync` is off; `(root, false, 0)` logs to the page cache only.
    ///
    /// `root` must hold no prior run directories: an existing run is a
    /// crashed (or merely finished) generation that [`HStreams::recover`]
    /// treats as authoritative — and `recover` deletes every *newer* run
    /// as an interrupted-recovery leftover, so a fresh generation minted
    /// here over an old root would be destroyed by the next recovery.
    /// Recover the old run first, or point at a clean root.
    pub fn durability_opts(
        &self,
        root: impl AsRef<Path>,
        fsync: bool,
        batch_ms: u64,
    ) -> HsResult<u64> {
        let root = root.as_ref();
        let runs = list_runs(root)
            .map_err(|e| HsError::ExecFailed(format!("wal: listing {}: {e}", root.display())))?;
        if let Some((id, _)) = runs.first() {
            return Err(HsError::InvalidArg(format!(
                "durability: {} already holds run {:016x} — recover() it or use a fresh \
                 root (recover treats the oldest run as authoritative and deletes newer ones)",
                root.display(),
                id
            )));
        }
        let run_id = fresh_run_id();
        let opts = hs_wal::WalOptions {
            fsync,
            fsync_batch_ms: batch_ms,
            ..hs_wal::WalOptions::default()
        };
        self.enable_durability(root, run_id, opts)?;
        Ok(run_id)
    }

    fn enable_durability(
        &self,
        root: &Path,
        run_id: u64,
        opts: hs_wal::WalOptions,
    ) -> HsResult<()> {
        if self.inner.events.len() != 0 {
            return Err(HsError::InvalidArg(
                "durability must be enabled before any action is enqueued".into(),
            ));
        }
        let dir = root.join(run_dir_name(run_id));
        std::fs::create_dir_all(&dir)
            .map_err(|e| HsError::ExecFailed(format!("wal: creating {}: {e}", dir.display())))?;
        let wal = Wal::create(&dir, run_id, opts)
            .map_err(|e| HsError::ExecFailed(format!("wal: opening {}: {e}", dir.display())))?;
        // Writer first, flag second: an enqueue that observes
        // `durable == true` then takes the Recovery lock and must find the
        // writer there.
        self.inner
            .recovery
            .lock()
            .make_durable(wal, self.inner.chaos.clone())?;
        self.inner.durable.store(true, Ordering::Release);
        Ok(())
    }

    /// Recover a crashed durable run from `root`: scan the oldest run
    /// directory's segments (tolerating torn tails), overlay its checkpoint
    /// blob, and re-enqueue every un-retired action through the normal
    /// paths — re-logged into a fresh run directory, so recovery itself is
    /// crash-safe (an interrupted recovery leaves the source run intact and
    /// a partial newer generation that the next recovery deletes).
    ///
    /// Call on a freshly initialized runtime after recreating the same
    /// kernels, streams and buffers the crashed run had (ids are assigned
    /// in creation order, so "the same init code" suffices). `buffer_write_f64`
    /// is *not* logged — the restarted process re-applies its initial
    /// buffer contents as part of that init, except for state a checkpoint
    /// overlay restores. Afterwards the runtime is live and durable;
    /// `stream_synchronize`/`event_wait` the replayed work as usual.
    pub fn recover(&self, root: impl AsRef<Path>) -> HsResult<RecoveryReport> {
        let root = root.as_ref();
        if self.inner.events.len() != 0 {
            return Err(HsError::InvalidArg(
                "recover requires a fresh runtime (no actions enqueued)".into(),
            ));
        }
        let runs = list_runs(root).map_err(|e| {
            HsError::ExecFailed(format!("recover: listing {}: {e}", root.display()))
        })?;
        let Some((src_id, src_dir)) = runs.first().cloned() else {
            return Err(HsError::InvalidArg(format!(
                "recover: no run directories under {}",
                root.display()
            )));
        };
        // Newer runs are partial re-logs from an interrupted recovery —
        // nothing else can mint a run over a non-empty root, because
        // `durability_opts()` refuses one. The oldest run is authoritative.
        for (_, dir) in &runs[1..] {
            let _ = std::fs::remove_dir_all(dir);
        }
        let scanned = hs_wal::recover_dir(&src_dir).map_err(|e| {
            HsError::ExecFailed(format!("recover: scanning {}: {e}", src_dir.display()))
        })?;
        if let Some(other) = scanned.run_id.filter(|&id| id != src_id) {
            return Err(HsError::ExecFailed(format!(
                "recover: {} holds segments of run {other:#x}, not its own run {src_id:#x}",
                src_dir.display()
            )));
        }
        // A checkpoint that is there must be trusted or refused: the log
        // records below its watermark were retired, so replaying the tail
        // without it would run against init-state buffers.
        let blob = src_dir.join("checkpoint.blob");
        let ckpt = if blob.exists() {
            let (run, wm, bufs) = hs_wal::read_blob(&blob)
                .map_err(|e| HsError::ExecFailed(format!("recover: checkpoint: {e}")))?
                .and_then(|b| decode_checkpoint(&b))
                .ok_or_else(|| {
                    HsError::ExecFailed(format!("recover: {} fails validation", blob.display()))
                })?;
            if run != src_id {
                return Err(HsError::ExecFailed(format!(
                    "recover: {} belongs to run {run:#x}, not its own run {src_id:#x}",
                    blob.display()
                )));
            }
            Some((wm, bufs))
        } else {
            None
        };
        let mut report = RecoveryReport {
            run_id: src_id,
            torn: scanned.torn,
            checkpoint_watermark: ckpt.as_ref().map(|(wm, _)| *wm),
            ..Default::default()
        };
        let wm = ckpt.as_ref().map_or(0, |(wm, _)| *wm);
        // Split the scan into meta records (prior failure history) and
        // replayable actions above the checkpoint watermark.
        let mut actions: Vec<LoggedAction> = Vec::new();
        for r in scanned.records {
            if r.partition == META_PARTITION {
                if let Some(card) = card_lost_from(&r.payload) {
                    report.prior_failures.push(FailureCause::CardLost { card });
                }
                continue;
            }
            if r.ev < wm {
                report.checkpointed += 1;
                continue;
            }
            match decode_action(r.ev, &r.payload) {
                Some(la) => actions.push(la),
                None => {
                    report.skipped += 1;
                    report
                        .remarks
                        .push(format!("recover: undecodable record ev {}", r.ev));
                }
            }
        }
        report.records = actions.len() as u32;
        // Re-log into a fresh generation, strictly newer than the source.
        let new_id = fresh_run_id().max(src_id + 1);
        self.enable_durability(root, new_id, hs_wal::WalOptions::default())?;
        let mut ckpt_persisted = true;
        if let Some((_, bufs)) = &ckpt {
            self.wal_overlay_checkpoint(bufs, &mut report.remarks);
            // Persist the overlaid state into the new generation *now*:
            // the source checkpoint is the only copy of the pre-watermark
            // buffer state (its log records were retired), so until the
            // new run carries it on disk, that state exists solely in
            // memory — a second crash before the new generation's first
            // throttled checkpoint would replay the tail against
            // init-state buffers. Watermark 0: every re-logged record of
            // the new generation is above it.
            ckpt_persisted = self.inner.recovery.lock().checkpoint(0, bufs);
        }
        self.replay_recovered(&actions, &mut report);
        self.wal_flush();
        if ckpt_persisted {
            // The new generation now carries everything; drop the source.
            let _ = std::fs::remove_dir_all(&src_dir);
        } else {
            // Could not write the checkpoint into the new run (durability
            // already noted as lost): keep the source run — it is still
            // the only durable copy of the pre-watermark state, and a
            // later recover() will pick it (the oldest) again.
            report.remarks.push(format!(
                "recover: checkpoint not persisted into run {new_id:016x}; \
                 keeping source run {src_id:016x}"
            ));
        }
        Ok(report)
    }
}

#[cfg(test)]
#[path = "../tests/support/mutate.rs"]
mod mutate;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_actions() -> Vec<LoggedAction> {
        vec![
            LoggedAction {
                ev: 7,
                stream: StreamId(2),
                op: LoggedOp::Compute {
                    func: "dgemm".into(),
                    args: Bytes::copy_from_slice(&[1, 2, 3]),
                    operands: vec![
                        Operand {
                            buffer: BufferId(4),
                            range: 0..256,
                            access: Access::In,
                        },
                        Operand {
                            buffer: BufferId(5),
                            range: 128..512,
                            access: Access::InOut,
                        },
                    ],
                    cost: CostHint {
                        kernel: KernelKind::Dgemm,
                        flops: 1.5e9,
                        tile_n: 512,
                    },
                },
                deps: vec![1, 5],
                retry: RetryPolicy {
                    max_attempts: 3,
                    base_backoff_us: 50,
                    multiplier: 2.0,
                    jitter: 0.1,
                },
            },
            LoggedAction {
                ev: 8,
                stream: StreamId(0),
                op: LoggedOp::Xfer {
                    buf: BufferId(9),
                    range: 64..192,
                    from: DomainId(0),
                    to: DomainId(1),
                },
                deps: vec![],
                retry: RetryPolicy::none(),
            },
            LoggedAction {
                ev: 9,
                stream: StreamId(1),
                op: LoggedOp::Sync,
                deps: vec![7, 8],
                retry: RetryPolicy::none(),
            },
        ]
    }

    fn assert_actions_eq(a: &LoggedAction, b: &LoggedAction) {
        assert_eq!(a.ev, b.ev);
        assert_eq!(a.stream, b.stream);
        assert_eq!(a.deps, b.deps);
        assert_eq!(a.retry.max_attempts, b.retry.max_attempts);
        assert_eq!(a.retry.base_backoff_us, b.retry.base_backoff_us);
        assert_eq!(a.retry.multiplier, b.retry.multiplier);
        assert_eq!(a.retry.jitter, b.retry.jitter);
        match (&a.op, &b.op) {
            (
                LoggedOp::Compute {
                    func: f1,
                    args: a1,
                    operands: o1,
                    cost: c1,
                },
                LoggedOp::Compute {
                    func: f2,
                    args: a2,
                    operands: o2,
                    cost: c2,
                },
            ) => {
                assert_eq!(f1, f2);
                assert_eq!(a1.as_ref(), a2.as_ref());
                assert_eq!(o1.len(), o2.len());
                for (x, y) in o1.iter().zip(o2) {
                    assert_eq!(x.buffer, y.buffer);
                    assert_eq!(x.range, y.range);
                    assert_eq!(access_tag(x.access), access_tag(y.access));
                }
                assert_eq!(c1.kernel, c2.kernel);
                assert_eq!(c1.flops, c2.flops);
                assert_eq!(c1.tile_n, c2.tile_n);
            }
            (
                LoggedOp::Xfer {
                    buf: b1,
                    range: r1,
                    from: fr1,
                    to: t1,
                },
                LoggedOp::Xfer {
                    buf: b2,
                    range: r2,
                    from: fr2,
                    to: t2,
                },
            ) => {
                assert_eq!(b1, b2);
                assert_eq!(r1, r2);
                assert_eq!(fr1, fr2);
                assert_eq!(t1, t2);
            }
            (LoggedOp::Sync, LoggedOp::Sync) => {}
            _ => panic!("op variant mismatch"),
        }
    }

    #[rustfmt::skip]
    const PINNED_SAMPLE_0: [u8; 141] = [
        1, 2, 0, 0, 0, 3, 0, 0, 0, 50, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
        64, 154, 153, 153, 153, 153, 153, 185, 63, 2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0,
        0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 100, 103, 101, 109, 109, 3, 0, 0, 0, 1, 2, 3, 2, 0,
        0, 0, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0,
        0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0,
        0, 0, 0, 2, 0, 0, 0, 0, 192, 11, 90, 214, 65, 0, 2, 0, 0, 0, 0, 0, 0,
    ];

    #[test]
    fn action_wire_round_trip() {
        for la in sample_actions() {
            let mut buf = Vec::new();
            encode_action(&la, &mut buf);
            let back = decode_action(la.ev, &buf).expect("decodes");
            assert_actions_eq(&la, &back);
        }
        // On-disk bytes are a stability surface (`hs_wal::VERSION` 3): the
        // first sample — retry block, dependences, operands, cost — exactly
        // as the encoder wrote it before it moved onto fabric's codec.
        let mut buf = Vec::new();
        encode_action(&sample_actions()[0], &mut buf);
        assert_eq!(buf, PINNED_SAMPLE_0);
    }

    #[test]
    fn kernel_tags_are_indices_in_all() {
        for (i, k) in KernelKind::ALL.iter().enumerate() {
            assert_eq!(kernel_tag(*k) as usize, i, "{k:?}");
            assert_eq!(kernel_from(kernel_tag(*k)), Some(*k));
        }
    }

    /// The hand-written samples plus a dozen seeded records.
    fn good_records() -> Vec<LoggedAction> {
        let mut seed = 0x0123_4567_89ab_cdefu64;
        let seeded = (0..12).map(|i| action_from_seed(100 + i, rng_next(&mut seed)));
        sample_actions().into_iter().chain(seeded).collect()
    }

    #[test]
    fn action_decode_rejects_truncation_and_trailing_garbage() {
        for la in good_records() {
            let mut buf = Vec::new();
            encode_action(&la, &mut buf);
            for cut in 0..buf.len() {
                assert!(
                    decode_action(la.ev, &buf[..cut]).is_none(),
                    "strict prefix of len {cut} must not decode"
                );
            }
            let mut long = buf.clone();
            long.push(0);
            assert!(decode_action(la.ev, &long).is_none());
        }
    }

    /// Untrusted bytes: a record that passed its CRC can still hold
    /// anything. Every single-bit flip of every good record decodes to
    /// nothing or to a well-formed action — ranges forward, no list sized
    /// beyond the payload that had to fill it — and never panics.
    #[test]
    fn action_decode_survives_every_single_bit_flip() {
        for la in good_records() {
            let mut buf = Vec::new();
            encode_action(&la, &mut buf);
            for bit in 0..buf.len() * 8 {
                buf[bit / 8] ^= 1 << (bit % 8);
                if let Some(back) = decode_action(la.ev, &buf) {
                    assert!(back.deps.capacity() <= buf.len(), "bit {bit}: deps");
                    match &back.op {
                        LoggedOp::Compute {
                            func,
                            args,
                            operands,
                            ..
                        } => {
                            assert!(operands.capacity() <= buf.len(), "bit {bit}: operands");
                            assert!(func.len() + args.len() <= buf.len(), "bit {bit}");
                            for op in operands {
                                assert!(op.range.start <= op.range.end, "bit {bit}");
                            }
                        }
                        LoggedOp::Xfer { range, .. } => {
                            assert!(range.start <= range.end, "bit {bit}")
                        }
                        LoggedOp::Sync => {}
                    }
                }
                buf[bit / 8] ^= 1 << (bit % 8);
            }
        }
    }

    /// Records that pass the CRC and cannot run — a stream, a domain that
    /// does not exist, a range written backwards — cost themselves only:
    /// `recover` returns, counts each as skipped and replays the rest.
    #[test]
    fn recover_counts_records_that_cannot_run_as_skipped() {
        use hs_machine::{Device, PlatformCfg};
        let root = std::env::temp_dir().join(format!("hs-durable-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let xfer = |ev, stream, range, to| LoggedAction {
            ev,
            stream: StreamId(stream),
            op: LoggedOp::Xfer {
                buf: BufferId(0),
                range,
                from: DomainId::HOST,
                to: DomainId(to),
            },
            deps: Vec::new(),
            retry: RetryPolicy::none(),
        };
        #[allow(clippy::reversed_empty_ranges)]
        let records = [
            xfer(0, 0, 0..64, 1),
            xfer(1, 99, 0..64, 1),
            xfer(2, 0, 64..0, 1),
            xfer(3, 0, 0..64, 77),
            xfer(4, 0, 0..64, 1),
        ];
        let mut wal = Wal::create(&root.join(run_dir_name(1)), 1, Default::default()).unwrap();
        let mut payload = Vec::new();
        for la in &records {
            payload.clear();
            encode_action(la, &mut payload);
            wal.append(ACTION_PARTITION, la.ev, &payload).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);

        let hs = HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), crate::ExecMode::Sim);
        hs.stream_create(DomainId(1), crate::CpuMask::first(1))
            .unwrap();
        let buf = hs.buffer_create(64, crate::BufProps::default());
        hs.buffer_instantiate(buf, DomainId(1)).unwrap();
        let report = hs.recover(&root).expect("bad records are not an error");
        assert_eq!(
            (report.records, report.replayed, report.skipped),
            (4, 2, 3),
            "{report:?}"
        );
        hs.thread_synchronize().expect("the good records run");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn checkpoint_round_trip() {
        let bufs = vec![
            (0u64, 0u32, vec![1u8, 2, 3]),
            (1, 1, Vec::new()),
            (7, 0, vec![0xFF; 100]),
        ];
        let blob = encode_checkpoint(7, 42, &bufs);
        let (run, wm, back) = decode_checkpoint(&blob).expect("decodes");
        assert_eq!((run, wm), (7, 42));
        assert_eq!(back, bufs);
        assert!(decode_checkpoint(&blob[..blob.len() - 1]).is_none());
        let mut long = blob.clone();
        long.push(9);
        assert!(decode_checkpoint(&long).is_none());
    }

    /// The meta record's bytes are pinned — they are what the seven-variant
    /// failure-cause codec wrote for a lost card before the log carried
    /// only that one record — and anything else on the meta partition is
    /// no prior failure: every shorter prefix, a longer payload, any other
    /// tag.
    #[test]
    fn card_lost_meta_payload_is_pinned() {
        let payload = card_lost_payload(1);
        assert_eq!(payload, [4, 1, 0, 0, 0]);
        assert_eq!(card_lost_from(&payload), Some(1));
        assert_eq!(card_lost_from(&card_lost_payload(u32::MAX)), Some(u32::MAX));
        for cut in 0..payload.len() {
            assert_eq!(card_lost_from(&payload[..cut]), None, "prefix {cut}");
        }
        assert_eq!(card_lost_from(&[4, 1, 0, 0, 0, 0]), None, "6 bytes");
        for tag in [0, 1, 2, 3, 5, 6] {
            assert_eq!(card_lost_from(&[tag, 1, 0, 0, 0]), None, "tag {tag}");
        }
    }

    /// Untrusted bytes past the blob's CRC: 64 seeded mutations of a
    /// checkpoint payload decode to nothing or to buffers that fit in the
    /// bytes that were there — never a list sized beyond them, never a
    /// panic.
    #[test]
    fn checkpoint_decode_survives_seeded_mutations() {
        let bufs = vec![
            (0u64, 0u32, vec![1u8, 2, 3]),
            (1, 1, Vec::new()),
            (7, 0, vec![0xFF; 100]),
            (9, 1, (0..=255).collect()),
        ];
        let good = encode_checkpoint(7, 42, &bufs);
        for seed in 0..64 {
            let mut bad = good.clone();
            super::mutate::mutate(&mut bad, seed);
            if let Some((_, _, back)) = decode_checkpoint(&bad) {
                assert!(back.capacity() <= bad.len(), "seed {seed}: list");
                let bytes: usize = back.iter().map(|(_, _, b)| b.len()).sum();
                assert!(bytes <= bad.len(), "seed {seed}: {bytes} bytes");
            }
        }
    }

    // --------------------------------------------- torn-write property

    fn rng_next(s: &mut u64) -> u64 {
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }

    /// A structurally random action derived from one seed: every op
    /// variant, variable-length deps/operands/args, full retry range.
    fn action_from_seed(ev: u64, seed: u64) -> LoggedAction {
        let mut s = seed | 1;
        let deps = (0..rng_next(&mut s) % 4)
            .map(|_| rng_next(&mut s) % 64)
            .collect();
        let retry = RetryPolicy {
            max_attempts: (rng_next(&mut s) % 8) as u32,
            base_backoff_us: rng_next(&mut s) % 10_000,
            multiplier: 1.0 + (rng_next(&mut s) % 300) as f64 / 100.0,
            jitter: (rng_next(&mut s) % 100) as f64 / 100.0,
        };
        let op = match rng_next(&mut s) % 3 {
            0 => {
                let args: Vec<u8> = (0..rng_next(&mut s) % 32)
                    .map(|_| rng_next(&mut s) as u8)
                    .collect();
                let operands = (0..rng_next(&mut s) % 4)
                    .map(|_| {
                        let start = (rng_next(&mut s) % 1024) as usize;
                        let len = (rng_next(&mut s) % 1024) as usize;
                        Operand {
                            buffer: BufferId(rng_next(&mut s) % 32),
                            range: start..start + len,
                            access: match rng_next(&mut s) % 3 {
                                0 => Access::In,
                                1 => Access::Out,
                                _ => Access::InOut,
                            },
                        }
                    })
                    .collect();
                LoggedOp::Compute {
                    func: format!("k{}", rng_next(&mut s) % 10),
                    args: Bytes::from(args),
                    operands,
                    cost: CostHint {
                        kernel: KernelKind::ALL
                            [(rng_next(&mut s) as usize) % KernelKind::ALL.len()],
                        flops: (rng_next(&mut s) % 1_000_000) as f64,
                        tile_n: rng_next(&mut s) % 4096,
                    },
                }
            }
            1 => {
                let start = rng_next(&mut s) % (1 << 20);
                LoggedOp::Xfer {
                    buf: BufferId(rng_next(&mut s) % 32),
                    range: start as usize..(start + rng_next(&mut s) % (1 << 20)) as usize,
                    from: DomainId((rng_next(&mut s) % 3) as usize),
                    to: DomainId((rng_next(&mut s) % 3) as usize),
                }
            }
            _ => LoggedOp::Sync,
        };
        LoggedAction {
            ev,
            stream: StreamId((rng_next(&mut s) % 4) as u32),
            op,
            deps,
            retry,
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// Random action batches through the real framing, then a torn
        /// write (tail truncation at an arbitrary byte): recovery + decode
        /// yields exactly the longest valid prefix of the batch — every
        /// survivor bit-identical, never a partial or phantom action.
        #[test]
        fn torn_action_log_yields_exactly_longest_valid_prefix(
            seeds in proptest::collection::vec(1u64..u64::MAX, 1..25),
            cut_frac in 0.0f64..1.0,
            tag in 0u64..1_000_000,
        ) {
            let dir = std::env::temp_dir().join(format!(
                "hs-durable-torn-{}-{tag}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();

            let actions: Vec<LoggedAction> = seeds
                .iter()
                .enumerate()
                .map(|(i, seed)| action_from_seed(i as u64 + 1, *seed))
                .collect();
            let mut wal = Wal::create(&dir, 1, hs_wal::WalOptions::default()).unwrap();
            let mut frames = Vec::new();
            let mut scratch = Vec::new();
            for la in &actions {
                scratch.clear();
                encode_action(la, &mut scratch);
                wal.append(ACTION_PARTITION, la.ev, &scratch).unwrap();
                frames.push(8 + 8 + scratch.len() as u64);
            }
            wal.flush().unwrap();
            drop(wal);

            let seg = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| p.is_file())
                .unwrap();
            let data = std::fs::read(&seg).unwrap();
            let cut = (data.len() as f64 * cut_frac) as usize;
            std::fs::write(&seg, &data[..cut]).unwrap();

            let mut expect = 0usize;
            let mut off = hs_wal::HEADER_LEN as u64;
            for f in &frames {
                off += f;
                if off <= cut as u64 {
                    expect += 1;
                } else {
                    break;
                }
            }

            let rec = hs_wal::recover_dir(&dir).unwrap();
            prop_assert_eq!(rec.records.len(), expect, "exactly the longest prefix");
            for (r, la) in rec.records.iter().zip(&actions) {
                prop_assert_eq!(r.ev, la.ev);
                let back = decode_action(r.ev, &r.payload).expect("surviving record decodes");
                assert_actions_eq(la, &back);
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn run_dirs_sort_ascending_and_parse() {
        let root = std::env::temp_dir().join(format!("hs-durable-runs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).unwrap();
        for id in [5u64, 1, 9] {
            std::fs::create_dir_all(root.join(run_dir_name(id))).unwrap();
        }
        std::fs::write(root.join("not-a-run"), b"x").unwrap();
        let runs = list_runs(&root).unwrap();
        assert_eq!(
            runs.iter().map(|(id, _)| *id).collect::<Vec<_>>(),
            [1, 5, 9]
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
