//! The hs-fabric wire protocol: length-prefixed, checksummed frames.
//!
//! A remote domain is a worker process on the far end of a byte stream
//! (Unix domain socket, or TCP for a multi-machine hop). Everything that
//! crosses the stream is a *frame*:
//!
//! ```text
//! [magic u32 LE][kind u8][payload_len u32 LE][payload ...][crc32 u32 LE]
//! ```
//!
//! The CRC covers `kind || payload_len || payload` (IEEE 802.3 polynomial,
//! hand-rolled — this crate takes no external dependencies). A bad magic,
//! an oversized length or a CRC mismatch is a *protocol* error: the peer is
//! not speaking hs-fabric, or the stream corrupted, and the connection is
//! unusable from that point on.
//!
//! Payload encodings are fixed-layout little-endian structs built with the
//! `put_*`/`get_*` helpers below; no serde on the wire.
//!
//! **One checksum pass and one copy per side (protocol version 2).** A
//! sender folds the CRC while it gathers the frame and hands header, payload
//! parts and trailer to one vectored write. A receiver reads the header
//! ([`recv_header`]), decides from it where the payload belongs, receives it
//! *there* — a window range, the caller's buffer — and computes the CRC over
//! the bytes as stored ([`FrameHeader::recv_payload_into`]); that single
//! pass is both the wire check and the end-to-end check. [`Kind::WriteAck`]
//! echoes the `Write` frame's CRC as the worker computed it from its window,
//! and the host compares it with the CRC it folded while sending, so a
//! delivered-but-mangled H2D transfer is still detected by the sender
//! without either side reading the payload twice. Versions differ only in
//! what `WriteAck` carries, but a v1 peer would compare it against the
//! wrong thing, so `Hello` refuses any version but its own.

use std::io::{IoSlice, IoSliceMut, Read, Write};

/// `"HSFR"` — first bytes of every frame.
pub const MAGIC: u32 = 0x4853_4652;

/// Protocol version carried in `Hello`/`HelloAck`.
pub const VERSION: u16 = 2;

/// Upper bound on a frame payload, and so on one `Write` or `ReadData`
/// transfer. A window may be larger (up to [`MAX_WINDOW`]), but nothing here
/// splits a transfer: the caller moves such a window in ranges of at most
/// this size. Anything larger is a protocol violation — it protects the
/// receiver from allocating on a corrupt length field.
pub const MAX_PAYLOAD: usize = 256 << 20;

/// Upper bound on the `len` of an [`Kind::Alloc`]: 4 GiB per window. The
/// worker zero-fills what it allocates, so the length is the one number in
/// the protocol that sizes memory on the peer's word alone; above the cap
/// the worker answers `Err` and allocates nothing, and the host's buffer
/// pool refuses the allocation before sending it.
pub const MAX_WINDOW: u64 = 4 << 30;

/// Frame kinds. Requests originate host-side; each has one reply kind.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum Kind {
    /// `role u8 | version u16` — first frame on every connection.
    Hello = 1,
    /// `version u16` — worker accepts the connection.
    HelloAck = 2,
    /// `win u64 | len u64` — register a window on the worker; `len` is at
    /// most [`MAX_WINDOW`].
    Alloc = 3,
    /// Empty — generic success reply (Alloc/Free/Zero/Shutdown).
    Ack = 4,
    /// `win u64` — unregister a window.
    Free = 5,
    /// `win u64` — zero a window (buffer-pool reuse).
    Zero = 6,
    /// `win u64 | off u64 | data…` — H2D payload delivery.
    Write = 7,
    /// `crc u32` — the `Write` frame's CRC, computed by the worker over
    /// the payload as stored in the window (end-to-end check).
    WriteAck = 8,
    /// `win u64 | off u64 | len u64` — D2H payload request.
    Read = 9,
    /// `data…` — the requested bytes.
    ReadData = 10,
    /// `width u32 | name_len u16 | name | args_len u32 | args |
    ///  nbufs u16 | (win u64 | start u64 | end u64 | write u8)*` —
    /// run a named sink function against worker-resident windows.
    Exec = 11,
    /// `status u8 | msg…` — see [`ExecStatus`].
    ExecAck = 12,
    /// Empty — RTT probe.
    Ping = 13,
    /// Empty — RTT reply.
    Pong = 14,
    /// Empty — orderly connection close.
    Shutdown = 15,
    /// `msg…` — worker-side failure of the preceding request.
    Err = 16,
}

impl Kind {
    pub fn from_u8(b: u8) -> Option<Kind> {
        Some(match b {
            1 => Kind::Hello,
            2 => Kind::HelloAck,
            3 => Kind::Alloc,
            4 => Kind::Ack,
            5 => Kind::Free,
            6 => Kind::Zero,
            7 => Kind::Write,
            8 => Kind::WriteAck,
            9 => Kind::Read,
            10 => Kind::ReadData,
            11 => Kind::Exec,
            12 => Kind::ExecAck,
            13 => Kind::Ping,
            14 => Kind::Pong,
            15 => Kind::Shutdown,
            16 => Kind::Err,
            _ => return None,
        })
    }
}

/// Result of a worker-side [`Kind::Exec`], first byte of `ExecAck`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u8)]
pub enum ExecStatus {
    /// Function ran to completion.
    Ok = 0,
    /// The worker has no function of that name registered — the host
    /// falls back to fetch-compute-writeback.
    UnknownFn = 1,
    /// The function ran and failed (panic or execution error); the
    /// message follows.
    Failed = 2,
}

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
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
        t[0][i] = c;
        i += 1;
    }
    // `t[k][b]` advances the CRC of byte `b` across `k` further zero bytes,
    // so sixteen input bytes fold with sixteen independent lookups.
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 16 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// IEEE CRC-32 (the zlib/Ethernet polynomial).
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(CRC_INIT, data) ^ CRC_INIT
}

const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Fold sixteen bytes into a running CRC state (slicing-by-16).
#[inline(always)]
fn crc32_step16(state: u32, ch: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let (a, b, c, d) = (
        word(&ch[0..4]) ^ state,
        word(&ch[4..8]),
        word(&ch[8..12]),
        word(&ch[12..16]),
    );
    t[15][(a & 0xFF) as usize]
        ^ t[14][((a >> 8) & 0xFF) as usize]
        ^ t[13][((a >> 16) & 0xFF) as usize]
        ^ t[12][(a >> 24) as usize]
        ^ t[11][(b & 0xFF) as usize]
        ^ t[10][((b >> 8) & 0xFF) as usize]
        ^ t[9][((b >> 16) & 0xFF) as usize]
        ^ t[8][(b >> 24) as usize]
        ^ t[7][(c & 0xFF) as usize]
        ^ t[6][((c >> 8) & 0xFF) as usize]
        ^ t[5][((c >> 16) & 0xFF) as usize]
        ^ t[4][(c >> 24) as usize]
        ^ t[3][(d & 0xFF) as usize]
        ^ t[2][((d >> 8) & 0xFF) as usize]
        ^ t[1][((d >> 16) & 0xFF) as usize]
        ^ t[0][(d >> 24) as usize]
}

/// `a · b mod P` over GF(2), bit-reflected like the CRC register (bit 31 is
/// x^0).
const fn crc_mulmod(a: u32, mut b: u32) -> u32 {
    let mut m = 1u32 << 31;
    let mut p = 0;
    loop {
        if a & m != 0 {
            p ^= b;
            if a & (m - 1) == 0 {
                return p;
            }
        }
        m >>= 1;
        b = if b & 1 != 0 {
            (b >> 1) ^ 0xEDB8_8320
        } else {
            b >> 1
        };
    }
}

/// `x^(2^n) mod P` for `n` in `0..32`.
static CRC_X2N: [u32; 32] = {
    let mut t = [0u32; 32];
    t[0] = 1 << 30;
    let mut n = 1;
    while n < 32 {
        t[n] = crc_mulmod(t[n - 1], t[n - 1]);
        n += 1;
    }
    t
};

/// The operator that advances a CRC state across `len` zero bytes:
/// `x^(8·len) mod P`, by square-and-multiply.
fn crc_shift_op(mut len: usize) -> u32 {
    let mut op = 1u32 << 31;
    let mut k = 3;
    while len != 0 {
        if len & 1 != 0 {
            op = crc_mulmod(CRC_X2N[k & 31], op);
        }
        len >>= 1;
        k += 1;
    }
    op
}

/// Below this the three-lane split costs more (its combine step) than it
/// saves; control frames stay on the plain loop.
const CRC_LANES_MIN: usize = 4096;

/// Fold `data` into a running (un-finalised) CRC state. Every payload byte
/// on the wire passes through here exactly once per process, so this is the
/// per-byte cost of the whole transport.
///
/// One slicing-by-16 chain is bound by the latency of its table lookups,
/// not by their number, so a bulk payload is cut in three, the three chains
/// run interleaved in one loop, and the states are joined afterwards: the
/// register update is linear, so `state(A‖B) = state(A)·x^(8|B|) ^ state₀(B)`.
fn crc32_update(state: u32, data: &[u8]) -> u32 {
    if data.len() < CRC_LANES_MIN {
        return crc32_update_one_lane(state, data);
    }
    let lane = data.len() / 48 * 16;
    let (l0, rest) = data.split_at(lane);
    let (l1, rest) = rest.split_at(lane);
    let (l2, tail) = rest.split_at(lane);
    let (mut a, mut b, mut c) = (state, 0, 0);
    let lanes = l0
        .chunks_exact(16)
        .zip(l1.chunks_exact(16))
        .zip(l2.chunks_exact(16));
    for ((x, y), z) in lanes {
        a = crc32_step16(a, x);
        b = crc32_step16(b, y);
        c = crc32_step16(c, z);
    }
    let op = crc_shift_op(lane);
    let joined = crc_mulmod(op, crc_mulmod(op, a) ^ b) ^ c;
    crc32_update_one_lane(joined, tail)
}

fn crc32_update_one_lane(mut state: u32, data: &[u8]) -> u32 {
    let mut chunks = data.chunks_exact(16);
    for ch in &mut chunks {
        state = crc32_step16(state, ch);
    }
    crc32_update_bytewise(state, chunks.remainder())
}

/// One byte per step: the tail of the sliced loops, and the reference the
/// tests hold them to.
fn crc32_update_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

// ------------------------------------------------------- payload builders

pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Cursor-style payload reader; every `get_*` checks remaining length so a
/// truncated payload surfaces as `None`, never a panic.
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    pub fn get_u8(&mut self) -> Option<u8> {
        let b = *self.buf.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    pub fn get_u16(&mut self) -> Option<u16> {
        let b = self.buf.get(self.pos..self.pos + 2)?;
        self.pos += 2;
        Some(u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn get_u32(&mut self) -> Option<u32> {
        let b = self.buf.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn get_u64(&mut self) -> Option<u64> {
        let b = self.buf.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    pub fn get_bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let b = self.buf.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(b)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Everything not yet consumed.
    pub fn rest(self) -> &'a [u8] {
        &self.buf[self.pos..]
    }
}

// ------------------------------------------------------------ frame I/O

fn proto_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.into())
}

/// `magic | kind | payload_len`.
const HEADER_LEN: usize = 9;
/// The CRC after the payload.
const TRAILER_LEN: usize = 4;

/// Write every byte of `parts`, in order, with vectored writes: one call
/// when the writer takes it all (sockets and `Vec` do), more after a short
/// write.
fn write_all_vectored<const N: usize>(
    w: &mut impl Write,
    mut parts: [&[u8]; N],
) -> std::io::Result<()> {
    let mut first = 0;
    loop {
        while first < N && parts[first].is_empty() {
            first += 1;
        }
        if first == N {
            return Ok(());
        }
        let iov = parts.map(IoSlice::new);
        let mut n = match w.write_vectored(&iov[first..]) {
            Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        };
        while n > 0 {
            let take = n.min(parts[first].len());
            parts[first] = &parts[first][take..];
            n -= take;
            if parts[first].is_empty() {
                first += 1;
            }
        }
    }
}

/// Fill `body` and then `tail` from `r` with vectored reads, so the last
/// bytes of a payload and the trailer behind it arrive in one call.
fn read_exact_vectored(r: &mut impl Read, body: &mut [u8], tail: &mut [u8]) -> std::io::Result<()> {
    let (mut nb, mut nt) = (0, 0);
    while nb < body.len() || nt < tail.len() {
        let mut iov = [
            IoSliceMut::new(&mut body[nb..]),
            IoSliceMut::new(&mut tail[nt..]),
        ];
        match r.read_vectored(&mut iov) {
            Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => {
                let into_body = n.min(body.len() - nb);
                nb += into_body;
                nt += n - into_body;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// What [`send_frame_parts`] put on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sent {
    /// Frame bytes written, envelope included.
    pub bytes: usize,
    /// The frame's trailer CRC — what a `WriteAck` must echo.
    pub crc: u32,
}

/// Write one frame with one (vectored) write call. `head` is prepended to
/// `data` in the payload — this lets `Write` frames send the `win|off` head
/// and `ReadData` frames a window slice without concatenating anything.
pub fn send_frame_parts(
    w: &mut impl Write,
    kind: Kind,
    head: &[u8],
    data: &[u8],
) -> std::io::Result<Sent> {
    let payload_len = head.len() + data.len();
    if payload_len > MAX_PAYLOAD {
        return Err(proto_err(format!("frame payload {payload_len} too large")));
    }
    let mut hdr = [0u8; HEADER_LEN];
    hdr[..4].copy_from_slice(&MAGIC.to_le_bytes());
    hdr[4] = kind as u8;
    hdr[5..].copy_from_slice(&(payload_len as u32).to_le_bytes());
    let mut crc = crc32_update(CRC_INIT, &hdr[4..]);
    crc = crc32_update(crc, head);
    crc = crc32_update(crc, data) ^ CRC_INIT;
    write_all_vectored(w, [&hdr, head, data, &crc.to_le_bytes()])?;
    w.flush()?;
    Ok(Sent {
        bytes: HEADER_LEN + payload_len + TRAILER_LEN,
        crc,
    })
}

/// Write one frame with a contiguous payload; returns the bytes written.
pub fn send_frame(w: &mut impl Write, kind: Kind, payload: &[u8]) -> std::io::Result<usize> {
    send_frame_parts(w, kind, payload, &[]).map(|sent| sent.bytes)
}

/// A frame whose header has been read and checked and whose payload is
/// still on the wire. The receiver decides from `kind` and `len` where the
/// payload goes — a fresh `Vec` for control frames, the destination window
/// or caller buffer for bulk ones — and every way of consuming it ends by
/// checking the trailer CRC against the bytes *as they were stored*.
pub struct FrameHeader {
    kind: Kind,
    /// Payload bytes not yet received.
    rest: usize,
    /// Payload length as announced.
    len: usize,
    /// Running CRC over everything received so far.
    crc: u32,
}

/// Read and check a frame header (magic, kind, length bound). EOF before
/// the first header byte maps to `ErrorKind::UnexpectedEof` like any other
/// truncation — the caller decides whether that is an orderly close.
pub fn recv_header(r: &mut impl Read) -> std::io::Result<FrameHeader> {
    let mut hdr = [0u8; HEADER_LEN];
    r.read_exact(&mut hdr)?;
    let magic = u32::from_le_bytes([hdr[0], hdr[1], hdr[2], hdr[3]]);
    if magic != MAGIC {
        return Err(proto_err(format!("bad frame magic {magic:#010x}")));
    }
    let kind = Kind::from_u8(hdr[4]).ok_or_else(|| proto_err(format!("bad kind {}", hdr[4])))?;
    let len = u32::from_le_bytes([hdr[5], hdr[6], hdr[7], hdr[8]]) as usize;
    if len > MAX_PAYLOAD {
        return Err(proto_err(format!("frame payload {len} too large")));
    }
    Ok(FrameHeader {
        kind,
        rest: len,
        len,
        crc: crc32_update(CRC_INIT, &hdr[4..]),
    })
}

impl FrameHeader {
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Payload bytes still to receive.
    pub fn remaining(&self) -> usize {
        self.rest
    }

    /// Size of the whole frame on the wire, envelope included.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.len + TRAILER_LEN
    }

    /// Receive the next `head.len()` payload bytes — the fixed-layout part
    /// in front of a bulk payload, which says where the rest belongs.
    pub fn recv_head(&mut self, r: &mut impl Read, head: &mut [u8]) -> std::io::Result<()> {
        if head.len() > self.rest {
            return Err(proto_err(format!(
                "{:?} payload of {} bytes is shorter than its {}-byte head",
                self.kind,
                self.len,
                head.len()
            )));
        }
        r.read_exact(head)?;
        self.crc = crc32_update(self.crc, head);
        self.rest -= head.len();
        Ok(())
    }

    /// Check the finished CRC against the trailer just read.
    fn finish(&self, crc: u32, trailer: [u8; TRAILER_LEN]) -> std::io::Result<u32> {
        let (crc, wire_crc) = (crc ^ CRC_INIT, u32::from_le_bytes(trailer));
        if crc != wire_crc {
            return Err(proto_err(format!(
                "frame CRC mismatch: wire {wire_crc:#010x}, computed {crc:#010x}"
            )));
        }
        Ok(crc)
    }

    /// Receive the rest of the payload straight into `out` (which must be
    /// exactly [`Self::remaining`] bytes) together with the trailer, and
    /// check the CRC over `out` as stored. Returns the frame CRC. On a
    /// mismatch `out` holds the corrupt bytes and the stream is unusable.
    pub fn recv_payload_into(self, r: &mut impl Read, out: &mut [u8]) -> std::io::Result<u32> {
        if out.len() != self.rest {
            return Err(proto_err(format!(
                "{:?} frame carries {} payload bytes, receiver expected {}",
                self.kind,
                self.rest,
                out.len()
            )));
        }
        let mut trailer = [0u8; TRAILER_LEN];
        read_exact_vectored(r, out, &mut trailer)?;
        self.finish(crc32_update(self.crc, out), trailer)
    }

    /// Receive the rest of the payload into a fresh `Vec` (control frames).
    pub fn recv_payload(self, r: &mut impl Read) -> std::io::Result<Vec<u8>> {
        let n = self.rest;
        let mut buf = vec![0u8; n + TRAILER_LEN];
        r.read_exact(&mut buf)?;
        let trailer = [buf[n], buf[n + 1], buf[n + 2], buf[n + 3]];
        buf.truncate(n);
        self.finish(crc32_update(self.crc, &buf), trailer)?;
        Ok(buf)
    }

    /// Receive and discard the rest of the payload, still checking the CRC:
    /// how a receiver that cannot place a bulk payload stays in sync.
    pub fn drain(self, r: &mut impl Read) -> std::io::Result<()> {
        let mut scratch = [0u8; 4096];
        let (mut rest, mut crc) = (self.rest, self.crc);
        while rest > 0 {
            let n = rest.min(scratch.len());
            r.read_exact(&mut scratch[..n])?;
            crc = crc32_update(crc, &scratch[..n]);
            rest -= n;
        }
        let mut trailer = [0u8; TRAILER_LEN];
        r.read_exact(&mut trailer)?;
        self.finish(crc, trailer).map(drop)
    }
}

/// Read one frame; verifies magic and CRC. Returns `(kind, payload,
/// bytes_read)`.
pub fn recv_frame(r: &mut impl Read) -> std::io::Result<(Kind, Vec<u8>, usize)> {
    let hdr = recv_header(r)?;
    let (kind, wire_len) = (hdr.kind(), hdr.wire_len());
    Ok((kind, hdr.recv_payload(r)?, wire_len))
}

/// One buffer operand of an `Exec` frame: raw window id, byte range, write?
pub type ExecBuf = (u64, u64, u64, bool);

/// Encode an `Exec` payload.
pub fn encode_exec(name: &str, args: &[u8], width: u32, bufs: &[ExecBuf]) -> Vec<u8> {
    let mut p = Vec::with_capacity(11 + name.len() + args.len() + bufs.len() * 25);
    put_u32(&mut p, width);
    put_u16(&mut p, name.len() as u16);
    p.extend_from_slice(name.as_bytes());
    put_u32(&mut p, args.len() as u32);
    p.extend_from_slice(args);
    put_u16(&mut p, bufs.len() as u16);
    for &(win, start, end, write) in bufs {
        put_u64(&mut p, win);
        put_u64(&mut p, start);
        put_u64(&mut p, end);
        p.push(u8::from(write));
    }
    p
}

/// Decoded `Exec` payload (worker side).
pub struct ExecFrame<'a> {
    pub name: &'a str,
    pub args: &'a [u8],
    pub width: u32,
    pub bufs: Vec<ExecBuf>,
}

/// Decode an `Exec` payload; `None` on any truncation or bad UTF-8.
pub fn decode_exec(payload: &[u8]) -> Option<ExecFrame<'_>> {
    let mut c = Cursor::new(payload);
    let width = c.get_u32()?;
    let name_len = c.get_u16()? as usize;
    let name = std::str::from_utf8(c.get_bytes(name_len)?).ok()?;
    let args_len = c.get_u32()? as usize;
    let args = c.get_bytes(args_len)?;
    let nbufs = c.get_u16()? as usize;
    let mut bufs = Vec::with_capacity(nbufs);
    for _ in 0..nbufs {
        let win = c.get_u64()?;
        let start = c.get_u64()?;
        let end = c.get_u64()?;
        let write = c.get_u8()? != 0;
        bufs.push((win, start, end, write));
    }
    Some(ExecFrame {
        name,
        args,
        width,
        bufs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic test bytes (xorshift), so a failure names a seed.
    fn noise(seed: u64, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    fn crc32_bytewise(data: &[u8]) -> u32 {
        crc32_update_bytewise(CRC_INIT, data) ^ CRC_INIT
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789" under CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sliced_crc_equals_bytewise_reference() {
        let data = noise(0x5eed, 3 * CRC_LANES_MIN + 300);
        // Every length across several 16-byte groups, at every alignment.
        for start in 0..8 {
            for len in 0..=300 {
                let d = &data[start..start + len];
                assert_eq!(crc32(d), crc32_bytewise(d), "start {start} len {len}");
            }
        }
        // Both sides of the three-lane threshold, lanes of every remainder.
        for len in (CRC_LANES_MIN - 50..CRC_LANES_MIN + 100).chain([data.len() - 7, data.len()]) {
            for start in [0, 3] {
                let d = &data[start..len];
                assert_eq!(crc32(d), crc32_bytewise(d), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc_state_folds_across_any_split() {
        // The frame CRC is folded over header, head and data separately.
        let data = noise(7, 2 * CRC_LANES_MIN);
        for cut in [0, 1, 5, 16, 21, CRC_LANES_MIN, data.len()] {
            let (a, b) = data.split_at(cut);
            let folded = crc32_update(crc32_update(CRC_INIT, a), b) ^ CRC_INIT;
            assert_eq!(folded, crc32_bytewise(&data), "cut {cut}");
        }
    }

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        let n = send_frame(&mut buf, Kind::Alloc, &[1, 2, 3]).expect("send ok");
        assert_eq!(n, buf.len());
        let (kind, payload, m) = recv_frame(&mut buf.as_slice()).expect("recv ok");
        assert_eq!(kind, Kind::Alloc);
        assert_eq!(payload, vec![1, 2, 3]);
        assert_eq!(m, n);
    }

    #[test]
    fn split_payload_equals_contiguous() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        let sent = send_frame_parts(&mut a, Kind::Write, &[9, 9], &[1, 2, 3]).expect("send ok");
        send_frame(&mut b, Kind::Write, &[9, 9, 1, 2, 3]).expect("send ok");
        assert_eq!(a, b);
        assert_eq!(sent.bytes, a.len());
        // The reported CRC is the trailer, and covers kind | len | payload.
        assert_eq!(sent.crc.to_le_bytes(), a[a.len() - 4..]);
        assert_eq!(sent.crc, crc32(&a[4..a.len() - 4]));
    }

    /// Counts calls; takes everything offered, or at most `cap` bytes.
    struct CountingWriter {
        bytes: Vec<u8>,
        calls: usize,
        cap: usize,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.calls += 1;
            let mut room = self.cap;
            for b in bufs {
                let n = b.len().min(room);
                self.bytes.extend_from_slice(&b[..n]);
                room -= n;
            }
            Ok(self.cap - room)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn one_write_call_per_frame() {
        let data = noise(11, 128 << 10);
        let frames: [(Kind, &[u8], &[u8]); 4] = [
            (Kind::Ping, &[], &[]),
            (Kind::Read, &[7u8; 24], &[]),
            (Kind::Write, &[1u8; 16], &data),
            (Kind::ReadData, &[], &data),
        ];
        for (kind, head, body) in frames {
            let mut w = CountingWriter {
                bytes: Vec::new(),
                calls: 0,
                cap: usize::MAX,
            };
            let sent = send_frame_parts(&mut w, kind, head, body).expect("send ok");
            assert_eq!(w.calls, 1, "{kind:?}: one write call on the success path");
            assert_eq!(sent.bytes, w.bytes.len());
            let (k, payload, _) = recv_frame(&mut w.bytes.as_slice()).expect("decodes");
            assert_eq!(k, kind);
            assert_eq!(payload, [head, body].concat());
        }
    }

    #[test]
    fn short_writes_still_deliver_the_whole_frame() {
        let data = noise(12, 1000);
        let mut whole = Vec::new();
        send_frame_parts(&mut whole, Kind::Write, &[1u8; 16], &data).expect("send ok");
        for cap in [1, 3, 9, 25, 26, 500] {
            let mut w = CountingWriter {
                bytes: Vec::new(),
                calls: 0,
                cap,
            };
            send_frame_parts(&mut w, Kind::Write, &[1u8; 16], &data).expect("send ok");
            assert_eq!(w.bytes, whole, "cap {cap}");
        }
    }

    /// Hands out at most `cap` bytes per call, like a socket mid-transfer.
    struct TrickleReader<'a>(&'a [u8], usize);

    impl Read for TrickleReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = buf.len().min(self.1).min(self.0.len());
            buf[..n].copy_from_slice(&self.0[..n]);
            self.0 = &self.0[n..];
            Ok(n)
        }
    }

    #[test]
    fn bulk_payload_lands_in_the_callers_buffer() {
        let data = noise(13, 5000);
        let mut wire = Vec::new();
        let sent = send_frame_parts(&mut wire, Kind::Write, &[4u8; 16], &data).expect("send ok");
        for cap in [1, 7, 4096, usize::MAX] {
            let mut r = TrickleReader(&wire, cap);
            let mut hdr = recv_header(&mut r).expect("header");
            assert_eq!((hdr.kind(), hdr.remaining()), (Kind::Write, 16 + 5000));
            assert_eq!(hdr.wire_len(), wire.len());
            let mut head = [0u8; 16];
            hdr.recv_head(&mut r, &mut head).expect("head");
            assert_eq!(head, [4u8; 16]);
            let mut out = vec![0u8; 5000];
            let crc = hdr.recv_payload_into(&mut r, &mut out).expect("payload");
            assert_eq!(out, data, "cap {cap}");
            assert_eq!(crc, sent.crc, "the receiver's CRC is the sender's");
            assert!(r.0.is_empty(), "trailer consumed");
        }
    }

    #[test]
    fn drain_keeps_the_stream_in_sync_and_checks_the_crc() {
        let data = noise(14, 10_000);
        let mut wire = Vec::new();
        send_frame_parts(&mut wire, Kind::Write, &[4u8; 16], &data).expect("send ok");
        send_frame(&mut wire, Kind::Ping, &[]).expect("send ok");
        let mut r = wire.as_slice();
        recv_header(&mut r)
            .expect("header")
            .drain(&mut r)
            .expect("drains");
        let (kind, _, _) = recv_frame(&mut r).expect("next frame decodes");
        assert_eq!(kind, Kind::Ping);

        wire[9 + 16 + 5000] ^= 1;
        let mut r = wire.as_slice();
        let err = recv_header(&mut r)
            .expect("header")
            .drain(&mut r)
            .expect_err("corrupt payload");
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn receiver_refuses_a_payload_of_the_wrong_size() {
        let mut wire = Vec::new();
        send_frame(&mut wire, Kind::ReadData, &[0u8; 64]).expect("send ok");
        let mut r = wire.as_slice();
        let hdr = recv_header(&mut r).expect("header");
        let err = hdr
            .recv_payload_into(&mut r, &mut [0u8; 32])
            .expect_err("length mismatch");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(r.len(), 64 + 4, "nothing received past the header");

        let mut r = wire.as_slice();
        let mut hdr = recv_header(&mut r).expect("header");
        let err = hdr
            .recv_head(&mut r, &mut [0u8; 65])
            .expect_err("head longer than the payload");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn corrupt_byte_is_detected() {
        let mut buf = Vec::new();
        send_frame(&mut buf, Kind::Write, &[7u8; 64]).expect("send ok");
        let payload_byte = 9 + 10;
        buf[payload_byte] ^= 0x40;
        let err = recv_frame(&mut buf.as_slice()).expect_err("corruption must fail");
        assert!(err.to_string().contains("CRC"), "{err}");
    }

    #[test]
    fn bad_magic_is_detected() {
        let mut buf = Vec::new();
        send_frame(&mut buf, Kind::Ping, &[]).expect("send ok");
        buf[0] = 0;
        let err = recv_frame(&mut buf.as_slice()).expect_err("bad magic must fail");
        assert!(err.to_string().contains("magic"), "{err}");
    }

    #[test]
    fn truncated_frame_is_eof() {
        let mut buf = Vec::new();
        send_frame(&mut buf, Kind::Read, &[0u8; 24]).expect("send ok");
        buf.truncate(buf.len() - 3);
        let err = recv_frame(&mut buf.as_slice()).expect_err("truncation must fail");
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }

    /// Seeded byte mutation over well-formed frames: whatever arrives,
    /// `recv_frame` returns an error — it never panics, never returns a
    /// payload that differs from what was sent, and never sizes a buffer
    /// from a length it has not bounded.
    #[test]
    fn mutated_frames_error_and_never_panic() {
        for seed in 1..=8u64 {
            let payload = noise(seed, 40 + 37 * seed as usize);
            let mut wire = Vec::new();
            send_frame_parts(&mut wire, Kind::Write, &payload[..16], &payload[16..])
                .expect("send ok");
            for cut in 0..wire.len() {
                let err = recv_frame(&mut &wire[..cut]).expect_err("truncated");
                assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}");
            }
            for bit in 0..wire.len() * 8 {
                let mut bad = wire.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                let err = recv_frame(&mut bad.as_slice()).expect_err("bit flip");
                assert!(
                    matches!(
                        err.kind(),
                        std::io::ErrorKind::InvalidData | std::io::ErrorKind::UnexpectedEof
                    ),
                    "seed {seed} bit {bit}: {err}"
                );
            }
            // A length past the bound is refused from the header alone: the
            // reader holds nine bytes, so nothing was allocated or awaited.
            for len in [MAX_PAYLOAD as u32 + 1, u32::MAX] {
                let mut bad = wire[..9].to_vec();
                bad[5..9].copy_from_slice(&len.to_le_bytes());
                let err = recv_frame(&mut bad.as_slice()).expect_err("oversized");
                assert!(err.to_string().contains("too large"), "{err}");
            }
        }
    }

    #[test]
    fn exec_payload_round_trip() {
        let bufs = vec![(3u64, 0u64, 64u64, true), (9, 128, 256, false)];
        let p = encode_exec("tile_gemm_nn", &[1, 2, 3, 4], 4, &bufs);
        let f = decode_exec(&p).expect("decodes");
        assert_eq!(f.name, "tile_gemm_nn");
        assert_eq!(f.args, &[1, 2, 3, 4]);
        assert_eq!(f.width, 4);
        assert_eq!(f.bufs, bufs);
    }

    #[test]
    fn exec_decode_rejects_truncation() {
        let p = encode_exec("k", &[], 1, &[(1, 0, 8, false)]);
        for cut in 1..p.len() {
            assert!(decode_exec(&p[..p.len() - cut]).is_none());
        }
    }

    #[test]
    fn kind_round_trips() {
        for k in 1..=16u8 {
            let kind = Kind::from_u8(k).expect("valid kind");
            assert_eq!(kind as u8, k);
        }
        assert_eq!(Kind::from_u8(0), None);
        assert_eq!(Kind::from_u8(17), None);
    }
}
