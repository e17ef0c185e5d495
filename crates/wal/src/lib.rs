//! `hs-wal`: a durable, partitioned, checksummed append-only action log.
//!
//! The redpanda/Kafka shape scaled down to what the runtime needs: one
//! directory per run, one file sequence per partition (the runtime keeps
//! two: every action in one, metadata in [`META_PARTITION`]), each segment
//! a fixed header followed by length-prefixed CRC32-checked records. The
//! writer buffers appends in userspace and pushes them to the kernel page
//! cache on [`Wal::flush`] — that is the durability boundary
//! against *process* death (`kill -9`); full media durability is an opt-in
//! fsync per flush. Recovery ([`recover_dir`]) is torn-tail tolerant: each
//! partition yields exactly the longest valid prefix of its record
//! sequence — a record is either returned bit-identical or it and
//! everything after it in the partition is dropped (and the file is
//! physically truncated back to the valid prefix). Never an error for a
//! torn tail, never a phantom record.
//!
//! Retirement: the runtime's event-table compaction watermark (every event
//! id below it is retired) drives [`Wal::retire`] — a segment whose records
//! all carry event ids under the watermark contributes nothing to replay
//! and is deleted. Checkpoint blobs ([`write_blob`]/[`read_blob`]) use the
//! same CRC framing with an atomic tmp+rename publish, so a half-written
//! checkpoint reads as "no checkpoint", not as garbage.
//!
//! The payload bytes are opaque here; the runtime owns the `LoggedAction`
//! encoding. No external dependencies, no `unsafe`.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Segment file magic: "HSWAL1" + two NULs.
pub const MAGIC: [u8; 8] = *b"HSWAL1\0\0";
/// Checkpoint blob magic.
pub const BLOB_MAGIC: [u8; 8] = *b"HSBLOB1\0";
/// On-disk format version in every segment header; a segment of any other
/// version is refused whole at its header. Version 3: the runtime writes
/// every action record to one partition and carries the stream id in the
/// payload, so a version-2 record (stream = partition) would decode as
/// garbage.
pub const VERSION: u16 = 3;
/// Segment header size: magic(8) + version(2) + partition(4) + run_id(8) +
/// seq(4) + crc(4).
pub const HEADER_LEN: usize = 30;
/// Per-record frame overhead: len(4) + crc(4); the length covers the 8-byte
/// event id plus the payload.
pub const RECORD_OVERHEAD: usize = 8;
/// Upper bound on a single record's framed length; anything larger on read
/// is treated as corruption, not an allocation request.
pub const MAX_RECORD: u32 = 64 << 20;

/// Partition id reserved for runtime metadata records (degradation causes,
/// recovery notes) rather than replayable actions.
pub const META_PARTITION: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected), table generated at compile time.

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// Slicing-by-8 companion tables: `CRC_TABLES[k][b]` advances a CRC by one
/// byte `b` positioned `k` bytes before the end of an 8-byte group, so the
/// hot loop folds 8 input bytes per iteration instead of 1. Every record
/// append checksums its payload; this is the difference between the CRC
/// being visible in the enqueue profile and not.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    t[0] = crc_table();
    let mut i = 0;
    while i < 256 {
        let mut c = t[0][i];
        let mut k = 1;
        while k < 8 {
            c = t[0][(c & 0xFF) as usize] ^ (c >> 8);
            t[k][i] = c;
            k += 1;
        }
        i += 1;
    }
    t
}

/// IEEE CRC32 of `bytes` (same polynomial as zlib/ethernet).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, bytes) ^ 0xFFFF_FFFF
}

/// The framed body length (event id + payload) of a record, or
/// `InvalidInput` when the payload would not fit the record envelope the
/// reader enforces: [`recover_dir`] treats any length over [`MAX_RECORD`]
/// as corruption and truncates the partition there, so accepting it at
/// write time would silently discard the record *and every later record in
/// its partition* on recovery. Writer and reader must agree.
fn body_len(payload: &[u8]) -> io::Result<u32> {
    match payload.len().checked_add(8) {
        Some(len) if len <= MAX_RECORD as usize => Ok(len as u32),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "record payload of {} bytes exceeds MAX_RECORD ({MAX_RECORD})",
                payload.len()
            ),
        )),
    }
}

/// Frame one record — length, CRC, event id, payload — into `out`: the
/// exact bytes [`Wal::append`] would write. Callers that stage batches use
/// this to pay the checksum outside the writer lock, then hand the
/// concatenated frames to [`Wal::append_framed`]. An oversized payload
/// (over the [`MAX_RECORD`] envelope the reader enforces) is rejected with
/// `InvalidInput` and appends nothing.
pub fn frame_record(ev: u64, payload: &[u8], out: &mut Vec<u8>) -> io::Result<()> {
    let len = body_len(payload)?;
    put_u32(out, len);
    let crc = crc32_update(crc32_update(0xFFFF_FFFF, &ev.to_le_bytes()), payload) ^ 0xFFFF_FFFF;
    put_u32(out, crc);
    put_u64(out, ev);
    out.extend_from_slice(payload);
    Ok(())
}

/// Walk a pre-framed batch's length prefixes (no CRC work) and confirm it
/// is exactly `records` frames, each within the record-size envelope.
fn validate_frames(framed: &[u8], records: u64) -> io::Result<()> {
    let bad = |why: String| io::Error::new(io::ErrorKind::InvalidInput, why);
    let mut off = 0usize;
    let mut seen = 0u64;
    while off < framed.len() {
        if framed.len() - off < RECORD_OVERHEAD {
            return Err(bad(format!("truncated frame header at offset {off}")));
        }
        let len = get_u32(&framed[off..off + 4]);
        if !(8..=MAX_RECORD).contains(&len) {
            return Err(bad(format!(
                "frame length {len} at offset {off} outside [8, {MAX_RECORD}]"
            )));
        }
        if framed.len() - off - RECORD_OVERHEAD < len as usize {
            return Err(bad(format!("truncated frame body at offset {off}")));
        }
        off += RECORD_OVERHEAD + len as usize;
        seen += 1;
    }
    if seen != records {
        return Err(bad(format!(
            "batch holds {seen} frames, caller said {records}"
        )));
    }
    Ok(())
}

fn crc32_update(state: u32, bytes: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

#[cfg(test)]
mod crc_equivalence {
    #[test]
    fn sliced_crc_matches_bytewise() {
        // Byte-at-a-time reference against the slicing-by-8 hot loop, over
        // lengths that cover the remainder handling on both sides of the
        // 8-byte grouping.
        for len in 0..64usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 31 + 7) as u8).collect();
            let mut reference = 0xFFFF_FFFFu32;
            for &b in &data {
                reference =
                    super::CRC_TABLE[((reference ^ b as u32) & 0xFF) as usize] ^ (reference >> 8);
            }
            reference ^= 0xFFFF_FFFF;
            assert_eq!(super::crc32(&data), reference, "len {len}");
        }
    }
}

// ---------------------------------------------------------------------------
// Little-endian helpers (no byteorder dep).

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn get_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes([b[0], b[1], b[2], b[3]])
}

fn get_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]])
}

fn seg_name(partition: u32, seq: u32) -> String {
    format!("p{partition:08x}-{seq:08}.seg")
}

fn parse_seg_name(name: &str) -> Option<(u32, u32)> {
    let rest = name.strip_prefix('p')?.strip_suffix(".seg")?;
    let (part, seq) = rest.split_once('-')?;
    Some((
        u32::from_str_radix(part, 16).ok()?,
        seq.parse::<u32>().ok()?,
    ))
}

fn encode_header(partition: u32, run_id: u64, seq: u32) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(&MAGIC);
    put_u16(&mut h, VERSION);
    put_u32(&mut h, partition);
    put_u64(&mut h, run_id);
    put_u32(&mut h, seq);
    let crc = crc32(&h);
    put_u32(&mut h, crc);
    h
}

// ---------------------------------------------------------------------------
// Writer.

/// Writer configuration.
#[derive(Clone, Copy, Debug)]
pub struct WalOptions {
    /// Rotate a partition's active segment once it exceeds this many bytes.
    pub segment_bytes: u64,
    /// `fsync` flushed segment files (full media durability). Off by
    /// default: surviving process death only needs the page cache.
    pub fsync: bool,
    /// Group-commit window for fsync, in milliseconds. With `fsync` on and
    /// a nonzero window, a flush syncs to media only when at least this
    /// long has passed since the previous sync — flushes inside the window
    /// reach the page cache as usual and are counted in
    /// [`WalStats::fsync_batched`], their media durability deferred to the
    /// next out-of-window flush. `0` syncs every flush (one fsync per
    /// flush, the pre-batching behavior). Ignored when `fsync` is off.
    pub fsync_batch_ms: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            segment_bytes: 4 << 20,
            fsync: false,
            fsync_batch_ms: 0,
        }
    }
}

/// Cumulative writer statistics, surfaced as `wal.*` gauges by the runtime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Framed bytes appended (headers + record frames).
    pub appended_bytes: u64,
    /// Records appended.
    pub records: u64,
    /// Segment files currently on disk.
    pub segments: u64,
    /// Explicit flushes performed.
    pub flushes: u64,
    /// Cumulative microseconds spent in fsync (0 unless fsync is enabled).
    pub fsync_us: u64,
    /// fsync syscalls issued (one count per flush that synced, however
    /// many partitions it covered).
    pub fsyncs: u64,
    /// Flushes whose fsync was deferred into a group-commit window
    /// ([`WalOptions::fsync_batch_ms`]): they reached the page cache but
    /// shared the next out-of-window flush's sync instead of paying their
    /// own.
    pub fsync_batched: u64,
    /// Segments deleted by [`Wal::retire`].
    pub retired_segments: u64,
}

struct Segment {
    seq: u32,
    path: PathBuf,
    /// Highest event id of any record in this segment.
    max_ev: u64,
    records: u64,
}

struct Partition {
    w: BufWriter<File>,
    active: Segment,
    bytes_in_active: u64,
    closed: Vec<Segment>,
}

/// Append-side handle to one run's log directory. Not internally
/// synchronized: the runtime serializes access under its own lock class.
pub struct Wal {
    dir: PathBuf,
    run_id: u64,
    opts: WalOptions,
    parts: BTreeMap<u32, Partition>,
    stats: WalStats,
    unflushed: u64,
    /// When the last fsync completed (group-commit window anchor). `None`
    /// until the first sync, so the first fsync-enabled flush always syncs.
    last_fsync: Option<Instant>,
}

impl Wal {
    /// Create a writer over a fresh (or empty) run directory. Fails if the
    /// directory already holds segment files — run directories are
    /// single-writer, single-generation.
    pub fn create(dir: &Path, run_id: u64, opts: WalOptions) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        for ent in fs::read_dir(dir)? {
            let ent = ent?;
            if ent.file_name().to_string_lossy().ends_with(".seg") {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("run dir {} already contains segments", dir.display()),
                ));
            }
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            run_id,
            opts,
            parts: BTreeMap::new(),
            stats: WalStats::default(),
            unflushed: 0,
            last_fsync: None,
        })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn run_id(&self) -> u64 {
        self.run_id
    }

    pub fn options(&self) -> WalOptions {
        self.opts
    }

    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Bytes appended since the last [`Wal::flush`] (still in userspace).
    pub fn pending_bytes(&self) -> u64 {
        self.unflushed
    }

    fn open_segment(&mut self, partition: u32, seq: u32) -> io::Result<Partition> {
        let path = self.dir.join(seg_name(partition, seq));
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        let mut w = BufWriter::with_capacity(64 << 10, file);
        let header = encode_header(partition, self.run_id, seq);
        w.write_all(&header)?;
        self.stats.appended_bytes += header.len() as u64;
        self.stats.segments += 1;
        self.unflushed += header.len() as u64;
        Ok(Partition {
            w,
            active: Segment {
                seq,
                path,
                max_ev: 0,
                records: 0,
            },
            bytes_in_active: HEADER_LEN as u64,
            closed: Vec::new(),
        })
    }

    /// Append one record to `partition`. `ev` is the runtime event id the
    /// record describes; retirement compares it against the watermark.
    /// Buffered: the bytes reach the kernel only on rotation, buffer
    /// overflow, or [`Wal::flush`]. Returns the framed byte count (header
    /// plus payload) so callers can track unflushed volume without a
    /// stats round-trip — this sits on the enqueue hot path. A payload over
    /// the [`MAX_RECORD`] envelope is `InvalidInput` (the reader would
    /// truncate the partition at it), with nothing written.
    pub fn append(&mut self, partition: u32, ev: u64, payload: &[u8]) -> io::Result<u64> {
        let len = body_len(payload)?;
        if !self.parts.contains_key(&partition) {
            let p = self.open_segment(partition, 0)?;
            self.parts.insert(partition, p);
        }
        // Rotate first so a record never straddles segments.
        let needs_rotation = {
            let p = &self.parts[&partition];
            p.bytes_in_active >= self.opts.segment_bytes && p.active.records > 0
        };
        if needs_rotation {
            self.rotate(partition)?;
        }
        let mut frame = [0u8; RECORD_OVERHEAD + 8];
        frame[0..4].copy_from_slice(&len.to_le_bytes());
        let crc = crc32_update(crc32_update(0xFFFF_FFFF, &ev.to_le_bytes()), payload) ^ 0xFFFF_FFFF;
        frame[4..8].copy_from_slice(&crc.to_le_bytes());
        frame[8..16].copy_from_slice(&ev.to_le_bytes());
        let p = self.parts.get_mut(&partition).expect("inserted above");
        p.w.write_all(&frame)?;
        p.w.write_all(payload)?;
        let framed = (frame.len() + payload.len()) as u64;
        p.bytes_in_active += framed;
        p.active.records += 1;
        p.active.max_ev = p.active.max_ev.max(ev);
        self.stats.appended_bytes += framed;
        self.stats.records += 1;
        self.unflushed += framed;
        Ok(framed)
    }

    /// Append a batch of pre-framed records (concatenated
    /// [`frame_record`] output) to `partition` in one writer pass. `records`
    /// and `max_ev` describe the batch for segment metadata. The batch
    /// lands in a single segment (records never straddle segments); like
    /// single appends, a segment may overshoot `segment_bytes` by one
    /// batch before rotating. Returns the byte count written. The batch's
    /// frame structure is validated first (`records` frames, each length
    /// within the [`MAX_RECORD`] envelope): a malformed batch is
    /// `InvalidInput` with nothing written, because the reader would stop
    /// the partition at the first bad length and silently drop everything
    /// after it.
    pub fn append_framed(
        &mut self,
        partition: u32,
        framed: &[u8],
        records: u64,
        max_ev: u64,
    ) -> io::Result<u64> {
        if framed.is_empty() {
            return Ok(0);
        }
        validate_frames(framed, records)?;
        if !self.parts.contains_key(&partition) {
            let p = self.open_segment(partition, 0)?;
            self.parts.insert(partition, p);
        }
        let needs_rotation = {
            let p = &self.parts[&partition];
            p.bytes_in_active >= self.opts.segment_bytes && p.active.records > 0
        };
        if needs_rotation {
            self.rotate(partition)?;
        }
        let p = self.parts.get_mut(&partition).expect("inserted above");
        p.w.write_all(framed)?;
        let len = framed.len() as u64;
        p.bytes_in_active += len;
        p.active.records += records;
        p.active.max_ev = p.active.max_ev.max(max_ev);
        self.stats.appended_bytes += len;
        self.stats.records += records;
        self.unflushed += len;
        Ok(len)
    }

    fn rotate(&mut self, partition: u32) -> io::Result<()> {
        let run_id = self.run_id;
        let next_seq = self.parts[&partition].active.seq + 1;
        let path = self.dir.join(seg_name(partition, next_seq));
        let file = OpenOptions::new()
            .create_new(true)
            .write(true)
            .open(&path)?;
        let mut w = BufWriter::with_capacity(64 << 10, file);
        let header = encode_header(partition, run_id, next_seq);
        w.write_all(&header)?;
        self.stats.appended_bytes += header.len() as u64;
        self.stats.segments += 1;
        self.unflushed += header.len() as u64;
        let p = self.parts.get_mut(&partition).expect("caller checked");
        p.w.flush()?;
        // A rotated-out segment's handle is dropped here, after which no
        // flush can reach it — with media durability on, sync it now
        // (regardless of the group-commit window: deferring would lose the
        // only chance).
        if self.opts.fsync {
            let t0 = Instant::now();
            p.w.get_ref().sync_data()?;
            self.stats.fsync_us += t0.elapsed().as_micros() as u64;
            self.stats.fsyncs += 1;
        }
        let old_w = std::mem::replace(&mut p.w, w);
        drop(old_w);
        let old = std::mem::replace(
            &mut p.active,
            Segment {
                seq: next_seq,
                path,
                max_ev: 0,
                records: 0,
            },
        );
        p.closed.push(old);
        p.bytes_in_active = HEADER_LEN as u64;
        Ok(())
    }

    /// Push all buffered appends to the kernel page cache (and to media if
    /// fsync is enabled). After this returns, everything appended so far
    /// survives `kill -9` of the process. With fsync and a group-commit
    /// window ([`WalOptions::fsync_batch_ms`]), flushes inside the window
    /// defer their media sync to the next out-of-window flush — media
    /// durability trails by at most one window instead of paying one fsync
    /// per flush.
    pub fn flush(&mut self) -> io::Result<()> {
        for p in self.parts.values_mut() {
            p.w.flush()?;
        }
        if self.opts.fsync {
            let due = match self.last_fsync {
                None => true,
                Some(t) => {
                    self.opts.fsync_batch_ms == 0
                        || t.elapsed().as_millis() as u64 >= self.opts.fsync_batch_ms
                }
            };
            if due {
                self.sync_all()?;
            } else {
                self.stats.fsync_batched += 1;
            }
        }
        self.stats.flushes += 1;
        self.unflushed = 0;
        Ok(())
    }

    /// Sync every partition's active segment file to media unconditionally,
    /// resetting the group-commit window. Callers must have flushed (or
    /// accept that only kernel-visible bytes are synced).
    pub fn sync_all(&mut self) -> io::Result<()> {
        let t0 = Instant::now();
        for p in self.parts.values_mut() {
            p.w.get_ref().sync_data()?;
        }
        self.stats.fsync_us += t0.elapsed().as_micros() as u64;
        self.stats.fsyncs += 1;
        self.last_fsync = Some(Instant::now());
        Ok(())
    }

    /// Delete every segment whose records are all retired (max event id
    /// strictly below `watermark`). Closed segments are deleted in place;
    /// a fully-retired *active* segment is flushed, deleted, and replaced
    /// by a fresh one so the partition stays appendable. Returns the number
    /// of segments deleted.
    pub fn retire(&mut self, watermark: u64) -> io::Result<u64> {
        let mut deleted = 0u64;
        let part_ids: Vec<u32> = self.parts.keys().copied().collect();
        for id in part_ids {
            {
                let p = self.parts.get_mut(&id).expect("key from keys()");
                let mut keep = Vec::new();
                for seg in p.closed.drain(..) {
                    if seg.records > 0 && seg.max_ev < watermark {
                        fs::remove_file(&seg.path)?;
                        deleted += 1;
                    } else {
                        keep.push(seg);
                    }
                }
                p.closed = keep;
            }
            let retire_active = {
                let p = &self.parts[&id];
                p.active.records > 0 && p.active.max_ev < watermark
            };
            if retire_active {
                let next_seq = {
                    let p = self.parts.get_mut(&id).expect("key from keys()");
                    p.w.flush()?;
                    p.active.seq + 1
                };
                let old = self.parts.remove(&id).expect("key from keys()");
                fs::remove_file(&old.active.path)?;
                deleted += 1;
                let mut fresh = self.open_segment(id, next_seq)?;
                fresh.closed = old.closed;
                self.parts.insert(id, fresh);
            }
        }
        self.stats.retired_segments += deleted;
        self.stats.segments -= deleted;
        Ok(deleted)
    }

    /// Chaos hook: simulate a torn write by flushing `partition` and then
    /// chopping `bytes` off the end of its active segment file. Later
    /// appends still go through, but recovery will stop the partition at
    /// the tear — exactly what a mid-write crash leaves behind.
    pub fn chop_tail(&mut self, partition: u32, bytes: u64) -> io::Result<()> {
        let Some(p) = self.parts.get_mut(&partition) else {
            return Ok(());
        };
        p.w.flush()?;
        let len = p.w.get_ref().metadata()?.len();
        let new_len = len.saturating_sub(bytes).max(HEADER_LEN as u64);
        p.w.get_ref().set_len(new_len)?;
        p.w.get_mut().seek(SeekFrom::End(0))?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Reader.

/// One recovered record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecordRead {
    pub partition: u32,
    pub ev: u64,
    pub payload: Vec<u8>,
}

/// Result of scanning a run directory.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Run id from the segment headers (0 if the directory had none).
    pub run_id: u64,
    /// Valid records, ordered by (partition, segment seq, file offset) —
    /// within a partition that is exactly append order.
    pub records: Vec<RecordRead>,
    /// Human-readable notes about torn tails / corrupt segments dropped.
    pub torn: Vec<String>,
    /// Bytes discarded while truncating torn tails.
    pub truncated_bytes: u64,
}

/// Scan a run directory, returning the longest valid record prefix of every
/// partition. Torn or corrupt tails are truncated in place (best effort)
/// and reported in [`Recovered::torn`] — they are never an error and never
/// yield a partial record.
pub fn recover_dir(dir: &Path) -> io::Result<Recovered> {
    let mut segs: BTreeMap<u32, Vec<(u32, PathBuf)>> = BTreeMap::new();
    for ent in fs::read_dir(dir)? {
        let ent = ent?;
        let name = ent.file_name();
        if let Some((part, seq)) = parse_seg_name(&name.to_string_lossy()) {
            segs.entry(part).or_default().push((seq, ent.path()));
        }
    }
    let mut out = Recovered::default();
    let mut run_id: Option<u64> = None;
    for (part, mut files) in segs {
        files.sort_by_key(|(seq, _)| *seq);
        let mut partition_ok = true;
        for (seq, path) in files {
            if !partition_ok {
                out.torn.push(format!(
                    "partition {part:#x}: segment seq {seq} ignored after earlier tear"
                ));
                continue;
            }
            match read_segment(&path, part, seq, run_id, &mut out) {
                SegmentScan::Clean { seg_run_id } => {
                    run_id.get_or_insert(seg_run_id);
                }
                SegmentScan::Torn { seg_run_id } => {
                    if let Some(r) = seg_run_id {
                        run_id.get_or_insert(r);
                    }
                    partition_ok = false;
                }
            }
        }
    }
    out.run_id = run_id.unwrap_or(0);
    Ok(out)
}

enum SegmentScan {
    Clean { seg_run_id: u64 },
    Torn { seg_run_id: Option<u64> },
}

fn read_segment(
    path: &Path,
    part: u32,
    seq: u32,
    expect_run: Option<u64>,
    out: &mut Recovered,
) -> SegmentScan {
    let mut data = Vec::new();
    match File::open(path).and_then(|mut f| f.read_to_end(&mut data)) {
        Ok(_) => {}
        Err(e) => {
            out.torn
                .push(format!("partition {part:#x} seq {seq}: unreadable: {e}"));
            return SegmentScan::Torn { seg_run_id: None };
        }
    }
    if data.len() < HEADER_LEN
        || data[..8] != MAGIC
        || get_u32(&data[HEADER_LEN - 4..HEADER_LEN]) != crc32(&data[..HEADER_LEN - 4])
    {
        out.torn.push(format!(
            "partition {part:#x} seq {seq}: bad segment header, {} bytes dropped",
            data.len()
        ));
        out.truncated_bytes += data.len() as u64;
        truncate_file(path, 0, out);
        return SegmentScan::Torn { seg_run_id: None };
    }
    let version = u16::from_le_bytes([data[8], data[9]]);
    let hdr_part = get_u32(&data[10..14]);
    let seg_run_id = get_u64(&data[14..22]);
    if version != VERSION || hdr_part != part || expect_run.is_some_and(|r| r != seg_run_id) {
        out.torn.push(format!(
            "partition {part:#x} seq {seq}: header mismatch \
             (version {version}, partition {hdr_part:#x}, run {seg_run_id:#x}), segment dropped"
        ));
        out.truncated_bytes += data.len() as u64;
        return SegmentScan::Torn {
            seg_run_id: Some(seg_run_id),
        };
    }
    let mut off = HEADER_LEN;
    loop {
        if off == data.len() {
            return SegmentScan::Clean { seg_run_id };
        }
        let rest = data.len() - off;
        if rest < RECORD_OVERHEAD {
            break;
        }
        let len = get_u32(&data[off..off + 4]);
        let crc = get_u32(&data[off + 4..off + 8]);
        if !(8..=MAX_RECORD).contains(&len) || rest - RECORD_OVERHEAD < len as usize {
            break;
        }
        let body = &data[off + 8..off + 8 + len as usize];
        if crc32(body) != crc {
            break;
        }
        out.records.push(RecordRead {
            partition: part,
            ev: get_u64(&body[..8]),
            payload: body[8..].to_vec(),
        });
        off += RECORD_OVERHEAD + len as usize;
    }
    let dropped = data.len() - off;
    out.torn.push(format!(
        "partition {part:#x} seq {seq}: torn tail at offset {off}, {dropped} bytes truncated"
    ));
    out.truncated_bytes += dropped as u64;
    truncate_file(path, off as u64, out);
    SegmentScan::Torn {
        seg_run_id: Some(seg_run_id),
    }
}

fn truncate_file(path: &Path, len: u64, out: &mut Recovered) {
    let r = OpenOptions::new()
        .write(true)
        .open(path)
        .and_then(|f| f.set_len(len));
    if let Err(e) = r {
        out.torn
            .push(format!("could not truncate {}: {e}", path.display()));
    }
}

// ---------------------------------------------------------------------------
// Checkpoint blobs.

/// Atomically publish `payload` at `path` with CRC framing: written to a
/// `.tmp` sibling, then renamed into place. A crash at any point leaves
/// either the old blob, no blob, or something the CRC rejects (which
/// [`read_blob`] reports as absent) — never a torn read. `fsync` pushes the
/// bytes to media before the rename: required for power-loss durability,
/// unnecessary for surviving process death (the page cache suffices, same
/// boundary as [`Wal::flush`]).
pub fn write_blob(path: &Path, payload: &[u8], fsync: bool) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut framed = Vec::with_capacity(20 + payload.len());
    framed.extend_from_slice(&BLOB_MAGIC);
    put_u64(&mut framed, payload.len() as u64);
    put_u32(&mut framed, crc32(payload));
    framed.extend_from_slice(payload);
    let mut f = File::create(&tmp)?;
    f.write_all(&framed)?;
    if fsync {
        f.sync_data()?;
    }
    drop(f);
    fs::rename(&tmp, path)
}

/// Read a blob written by [`write_blob`]. `Ok(None)` when the file is
/// missing or fails validation (a half-written or corrupt checkpoint reads
/// as absent).
pub fn read_blob(path: &Path) -> io::Result<Option<Vec<u8>>> {
    let mut data = Vec::new();
    match File::open(path) {
        Ok(mut f) => f.read_to_end(&mut data)?,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    };
    if data.len() < 20 || data[..8] != BLOB_MAGIC {
        return Ok(None);
    }
    // Checked: a length field near `u64::MAX` is corruption, not an
    // overflow.
    let len = usize::try_from(get_u64(&data[8..16])).ok();
    let crc = get_u32(&data[16..20]);
    if len.and_then(|n| n.checked_add(20)) != Some(data.len()) || crc32(&data[20..]) != crc {
        return Ok(None);
    }
    Ok(Some(data[20..].to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "hswal-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn crc32_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn round_trip_multi_partition_preserves_append_order() {
        let dir = tmpdir("roundtrip");
        let mut wal = Wal::create(&dir, 0xABCD, WalOptions::default()).unwrap();
        for i in 0..100u64 {
            wal.append((i % 3) as u32, 1000 + i, format!("rec-{i}").as_bytes())
                .unwrap();
        }
        wal.flush().unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.run_id, 0xABCD);
        assert_eq!(rec.records.len(), 100);
        assert_eq!(rec.truncated_bytes, 0);
        for part in 0..3u32 {
            let evs: Vec<u64> = rec
                .records
                .iter()
                .filter(|r| r.partition == part)
                .map(|r| r.ev)
                .collect();
            let mut sorted = evs.clone();
            sorted.sort_unstable();
            assert_eq!(evs, sorted, "partition order is append order");
        }
        let r7 = rec.records.iter().find(|r| r.ev == 1007).unwrap();
        assert_eq!(r7.payload, b"rec-7");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unflushed_appends_are_buffered() {
        let dir = tmpdir("buffered");
        let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
        wal.append(0, 1, b"x").unwrap();
        assert!(wal.pending_bytes() > 0);
        wal.flush().unwrap();
        assert_eq!(wal.pending_bytes(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn rotation_splits_segments_and_retire_deletes_watermarked_prefix() {
        let dir = tmpdir("rotate");
        let opts = WalOptions {
            segment_bytes: 256,
            fsync: false,
            ..WalOptions::default()
        };
        let mut wal = Wal::create(&dir, 7, opts).unwrap();
        for ev in 1..=50u64 {
            wal.append(0, ev, &[0u8; 32]).unwrap();
        }
        wal.flush().unwrap();
        assert!(wal.stats().segments > 3, "small limit forces rotation");
        let before = wal.stats().segments;

        // Watermark below everything: nothing retired.
        assert_eq!(wal.retire(1).unwrap(), 0);
        // Watermark past everything: every segment (incl. active) goes; the
        // partition stays appendable through a fresh segment.
        let deleted = wal.retire(51).unwrap();
        assert_eq!(deleted, before);
        wal.append(0, 60, b"post-retire").unwrap();
        wal.flush().unwrap();

        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].ev, 60);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_yields_longest_valid_prefix() {
        let dir = tmpdir("torn");
        let mut wal = Wal::create(&dir, 3, WalOptions::default()).unwrap();
        for ev in 1..=10u64 {
            wal.append(0, ev, &[ev as u8; 16]).unwrap();
        }
        wal.flush().unwrap();
        // Chop 5 bytes off the tail: record 10 becomes torn.
        wal.chop_tail(0, 5).unwrap();
        drop(wal);
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.records.len(), 9, "torn last record dropped");
        assert_eq!(rec.records.last().unwrap().ev, 9);
        assert!(!rec.torn.is_empty());
        assert!(rec.truncated_bytes > 0);
        // The file was truncated back: a second scan is clean.
        let rec2 = recover_dir(&dir).unwrap();
        assert_eq!(rec2.records.len(), 9);
        assert_eq!(rec2.truncated_bytes, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_mid_file_stops_partition_without_phantoms() {
        let dir = tmpdir("corrupt");
        let mut wal = Wal::create(&dir, 3, WalOptions::default()).unwrap();
        for ev in 1..=5u64 {
            wal.append(0, ev, b"payload-payload").unwrap();
        }
        wal.flush().unwrap();
        let path = dir.join(seg_name(0, 0));
        drop(wal);
        // Flip one payload byte of record 3.
        let mut data = fs::read(&path).unwrap();
        let rec_len = RECORD_OVERHEAD + 8 + 15;
        let off = HEADER_LEN + 2 * rec_len + RECORD_OVERHEAD + 8 + 3;
        data[off] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.records.len(), 2, "stop at first bad CRC");
        assert_eq!(rec.records.last().unwrap().ev, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_header_drops_segment_and_later_seqs_in_partition() {
        let dir = tmpdir("badhdr");
        let opts = WalOptions {
            segment_bytes: 64,
            fsync: false,
            ..WalOptions::default()
        };
        let mut wal = Wal::create(&dir, 9, opts).unwrap();
        for ev in 1..=20u64 {
            wal.append(0, ev, &[1u8; 16]).unwrap();
            wal.append(1, ev, &[2u8; 16]).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Corrupt the header of partition 0's *second* segment.
        let mut data = fs::read(dir.join(seg_name(0, 1))).unwrap();
        data[3] ^= 0xFF;
        fs::write(dir.join(seg_name(0, 1)), &data).unwrap();
        let rec = recover_dir(&dir).unwrap();
        let p0: Vec<u64> = rec
            .records
            .iter()
            .filter(|r| r.partition == 0)
            .map(|r| r.ev)
            .collect();
        let p1: Vec<u64> = rec
            .records
            .iter()
            .filter(|r| r.partition == 1)
            .map(|r| r.ev)
            .collect();
        assert!(p0.len() < 20, "partition 0 loses its suffix");
        assert_eq!(p0, (1..=p0.len() as u64).collect::<Vec<_>>());
        assert_eq!(p1.len(), 20, "partition 1 unaffected");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn blob_round_trip_and_torn_blob_reads_as_absent() {
        let dir = tmpdir("blob");
        let path = dir.join("checkpoint.blob");
        assert_eq!(read_blob(&path).unwrap(), None);
        write_blob(&path, b"checkpoint contents", true).unwrap();
        assert_eq!(
            read_blob(&path).unwrap().as_deref(),
            Some(b"checkpoint contents".as_ref())
        );
        // Truncate: validation fails, reads as absent.
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 4]).unwrap();
        assert_eq!(read_blob(&path).unwrap(), None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_refuses_dir_with_existing_segments() {
        let dir = tmpdir("refuse");
        let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
        wal.append(0, 1, b"x").unwrap();
        wal.flush().unwrap();
        drop(wal);
        assert!(Wal::create(&dir, 2, WalOptions::default()).is_err());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oversized_records_rejected_at_write_time() {
        let dir = tmpdir("oversize");
        let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
        // Writer and reader must agree on the envelope: a payload the
        // reader would reject as corruption never reaches the file.
        let big = vec![0u8; MAX_RECORD as usize - 7];
        let err = wal.append(0, 1, &big).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let mut framed = Vec::new();
        assert!(frame_record(1, &big, &mut framed).is_err());
        assert!(framed.is_empty(), "rejected frame leaves no bytes behind");
        // The boundary itself is fine: body of exactly MAX_RECORD bytes.
        let fits = vec![1u8; MAX_RECORD as usize - 8];
        frame_record(2, &fits, &mut framed).unwrap();
        wal.append(0, 2, &fits).unwrap();
        wal.flush().unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].payload.len(), fits.len());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_framed_rejects_malformed_batches() {
        let dir = tmpdir("badbatch");
        let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
        let mut good = Vec::new();
        frame_record(1, b"ok", &mut good).unwrap();
        wal.append_framed(0, &good, 1, 1).unwrap();
        // Wrong record count.
        assert!(wal.append_framed(0, &good, 2, 1).is_err());
        // Truncated body.
        assert!(wal.append_framed(0, &good[..good.len() - 1], 1, 1).is_err());
        // Oversized length prefix: the reader would truncate the partition
        // here, so the writer refuses it up front.
        let mut bad = good.clone();
        bad[0..4].copy_from_slice(&(MAX_RECORD + 1).to_le_bytes());
        assert!(wal.append_framed(0, &bad, 1, 1).is_err());
        wal.flush().unwrap();
        let rec = recover_dir(&dir).unwrap();
        assert_eq!(rec.records.len(), 1, "only the valid batch landed");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_track_appends_flushes_and_retirement() {
        let dir = tmpdir("stats");
        let mut wal = Wal::create(&dir, 1, WalOptions::default()).unwrap();
        wal.append(0, 1, b"abc").unwrap();
        wal.append(1, 2, b"defg").unwrap();
        wal.flush().unwrap();
        let s = wal.stats();
        assert_eq!(s.records, 2);
        assert_eq!(s.segments, 2);
        assert_eq!(s.flushes, 1);
        assert!(s.appended_bytes >= (2 * (HEADER_LEN + RECORD_OVERHEAD + 8) + 7) as u64);
        wal.retire(10).unwrap();
        assert_eq!(wal.stats().retired_segments, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_every_flush_when_no_batch_window() {
        let dir = tmpdir("fsync-nowin");
        let opts = WalOptions {
            fsync: true,
            ..WalOptions::default()
        };
        let mut wal = Wal::create(&dir, 1, opts).unwrap();
        for ev in 1..=5u64 {
            wal.append(0, ev, b"payload").unwrap();
            wal.flush().unwrap();
        }
        let s = wal.stats();
        assert_eq!(s.flushes, 5);
        assert_eq!(s.fsyncs, 5, "window 0 syncs every flush");
        assert_eq!(s.fsync_batched, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_defers_fsync_inside_the_window() {
        let dir = tmpdir("fsync-batch");
        let opts = WalOptions {
            fsync: true,
            // A window far longer than this test: everything after the
            // first sync lands inside it.
            fsync_batch_ms: 60_000,
            ..WalOptions::default()
        };
        let mut wal = Wal::create(&dir, 1, opts).unwrap();
        for ev in 1..=5u64 {
            wal.append(0, ev, b"payload").unwrap();
            wal.flush().unwrap();
        }
        let s = wal.stats();
        assert_eq!(s.flushes, 5);
        assert_eq!(s.fsyncs, 1, "first flush syncs, the rest group-commit");
        assert_eq!(s.fsync_batched, 4);
        // Deferred flushes still reached the page cache: the log is fully
        // recoverable.
        assert_eq!(recover_dir(&dir).unwrap().records.len(), 5);
        // An explicit sync_all drains the window unconditionally.
        wal.append(0, 6, b"payload").unwrap();
        wal.flush().unwrap();
        wal.sync_all().unwrap();
        assert_eq!(wal.stats().fsyncs, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_off_never_syncs_regardless_of_window() {
        let dir = tmpdir("fsync-off");
        let opts = WalOptions {
            fsync: false,
            fsync_batch_ms: 5,
            ..WalOptions::default()
        };
        let mut wal = Wal::create(&dir, 1, opts).unwrap();
        wal.append(0, 1, b"x").unwrap();
        wal.flush().unwrap();
        let s = wal.stats();
        assert_eq!(s.fsyncs, 0);
        assert_eq!(s.fsync_batched, 0, "window is ignored when fsync is off");
        assert_eq!(s.fsync_us, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
