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
//! **The CRC.** On a CPU with carry-less multiply (PCLMULQDQ, detected at
//! run time) [`crc32`] folds 64-byte blocks through four 128-bit
//! accumulators and ends in a Barrett reduction; slicing-by-16 tables take
//! inputs under 64 bytes, the last bytes of a fold, and everything on a CPU
//! without it. Both compute the same bits, so the choice never shows on the
//! wire.
//!
//! Payload encodings are fixed-layout little-endian structs built with the
//! `put_*`/`get_*` helpers below; no serde on the wire.
//!
//! **One checksum pass and one copy per side (since protocol version 2).** A
//! sender folds the CRC while it gathers the frame and hands header, payload
//! parts and trailer to one vectored write. A receiver reads the header
//! ([`recv_header`]), decides from it where the payload belongs, receives it
//! *there* — a window range, the caller's buffer — and computes the CRC over
//! the bytes as stored ([`FrameHeader::recv_payload_into`]); that single
//! pass is both the wire check and the end-to-end check. [`Kind::WriteAck`]
//! echoes the `Write` frame's CRC as the worker computed it from its window,
//! and the host compares it with the CRC it folded while sending, so a
//! delivered-but-mangled H2D transfer is still detected by the sender
//! without either side reading the payload twice.
//!
//! **Version 3** adds two fields to [`Hello`]: a card stream's exec
//! connection tells the worker the stream's width and the card's modelled
//! cores, once, and the worker sizes that connection's lanes from them. A
//! peer of another version would send or expect the other `Hello` (and a v1
//! peer another `WriteAck`), so `Hello` refuses any version but its own.

use std::io::{IoSlice, IoSliceMut, Read, Write};

/// `"HSFR"` — first bytes of every frame.
pub const MAGIC: u32 = 0x4853_4652;

/// Protocol version carried in `Hello`/`HelloAck`.
pub const VERSION: u16 = 3;

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
    /// `role u8 | version u16 | width u32 | cores u32` — first frame on
    /// every connection; see [`Hello`].
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
    /// run a named sink function against worker-resident windows. `width`
    /// repeats the stream width of the connection's `Hello`; the worker
    /// sizes lanes from the `Hello` alone and does not read it.
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
    /// fails the task as an unregistered name fails it in-process.
    UnknownFn = 1,
    /// The function ran and failed (panic or execution error); the
    /// message follows.
    Failed = 2,
}

/// The payload of a [`Kind::Hello`]. On a card stream's exec connection
/// `width` is the stream's logical width (its mask's cores) and `cores` the
/// modelled cores of the card it runs on — the two numbers the worker sizes
/// the connection's lanes from; the fixed channels send zeros. Both are the
/// peer's word: the worker bounds what it derives from them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Hello {
    pub role: u8,
    pub width: u32,
    pub cores: u32,
}

impl Hello {
    pub fn encode(&self) -> Vec<u8> {
        let mut p = vec![self.role];
        put_u16(&mut p, VERSION);
        put_u32(&mut p, self.width);
        put_u32(&mut p, self.cores);
        p
    }

    /// Decode a `Hello` payload; the error is the message the worker sends
    /// back in its `Err` frame before it closes the connection.
    pub fn decode(payload: &[u8]) -> Result<Hello, String> {
        let mut c = Cursor::new(payload);
        match (c.get_u8(), c.get_u16()) {
            (Some(role), Some(VERSION)) => match (c.get_u32(), c.get_u32()) {
                (Some(width), Some(cores)) => Ok(Hello { role, width, cores }),
                _ => Err("malformed Hello".to_string()),
            },
            (_, ver) => Err(format!(
                "protocol version mismatch: worker {VERSION}, host {}",
                ver.map_or("unreadable".to_string(), |v| v.to_string())
            )),
        }
    }
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

/// [`crc32`] through the table loop alone, whatever the CPU has: what the
/// tests and the transport bench hold the carry-less path against.
#[doc(hidden)]
pub fn crc32_sliced(data: &[u8]) -> u32 {
    crc32_update_sliced(CRC_INIT, data) ^ CRC_INIT
}

const CRC_INIT: u32 = 0xFFFF_FFFF;

/// Fold `data` into a running (un-finalised) CRC state. Every payload byte
/// on the wire passes through here exactly once per process, so this is the
/// per-byte cost of the whole transport. A CPU with carry-less multiply
/// folds the bulk 64 bytes a step ([`clmul::update`]); the table loop takes
/// short inputs, the last few bytes, and every byte on a CPU without it.
fn crc32_update(state: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= clmul::MIN_LEN && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: the CPU has PCLMULQDQ, checked on the line above.
        let (state, tail) = unsafe { clmul::update(state, data) };
        return crc32_update_sliced(state, tail);
    }
    crc32_update_sliced(state, data)
}

/// Slicing-by-16: sixteen input bytes fold with sixteen independent table
/// lookups.
fn crc32_update_sliced(mut state: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let (blocks, tail) = data.as_chunks::<16>();
    for ch in blocks {
        let w = |i: usize| u32::from_le_bytes([ch[i], ch[i + 1], ch[i + 2], ch[i + 3]]);
        let words = [w(0) ^ state, w(4), w(8), w(12)];
        state = 0;
        for (k, word) in words.into_iter().enumerate() {
            for (b, byte) in word.to_le_bytes().into_iter().enumerate() {
                state ^= t[15 - 4 * k - b][byte as usize];
            }
        }
    }
    crc32_update_bytewise(state, tail)
}

/// One byte per step: the tail of the sliced loop, and the reference the
/// tests hold both fast paths to.
fn crc32_update_bytewise(mut state: u32, data: &[u8]) -> u32 {
    for &b in data {
        state = CRC_TABLES[0][((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// CRC-32 by carry-less multiplication, bit-reflected (Gopal et al., "Fast
/// CRC Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel, 2009): four 128-bit accumulators fold 64 bytes a step, merge into
/// one that folds 16 bytes a step, and a Barrett reduction takes its 128 bits
/// to the 32-bit state. Every constant is `x^n mod P` bit-reflected and
/// shifted left once; `clmul_constants_are_powers_of_x` derives them.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::*;

    /// The shortest input [`update`] takes: the four accumulators' first load.
    pub(super) const MIN_LEN: usize = 64;
    /// `x^(4·128+32)`, `x^(4·128−32)`: an accumulator across 64 bytes.
    pub(super) const FOLD_BY_4: [i64; 2] = [0x1_5444_2BD4, 0x1_C6E4_1596];
    /// `x^(128+32)`, `x^(128−32)`: across 16 bytes.
    pub(super) const FOLD_BY_1: [i64; 2] = [0x1_7519_97D0, 0x0_CCAA_009E];
    /// `x^64`: 96 bits to 64.
    pub(super) const FOLD_64: i64 = 0x1_63CD_6124;
    /// `P` and `µ = ⌊x^64 / P⌋`, reflected to 33 bits.
    pub(super) const BARRETT: [i64; 2] = [0x1_DB71_0641, 0x1_F701_1641];

    #[target_feature(enable = "pclmulqdq")]
    fn load(b: &[u8; 16]) -> __m128i {
        // SAFETY: an unaligned 16-byte load of a 16-byte array.
        unsafe { _mm_loadu_si128(b.as_ptr().cast()) }
    }

    /// `acc`'s two halves times the two constants of `k`, onto `next`.
    #[target_feature(enable = "pclmulqdq")]
    fn fold(acc: __m128i, next: __m128i, k: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    /// Fold every whole 16-byte block of `data` (at least [`MIN_LEN`] bytes)
    /// into `state`; returns the new state and the bytes left over.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) fn update(state: u32, data: &[u8]) -> (u32, &[u8]) {
        let (blocks, tail) = data.as_chunks::<16>();
        let (first, rest) = blocks.split_at(4);
        let mut acc = [0, 1, 2, 3].map(|i| load(&first[i]));
        acc[0] = _mm_xor_si128(acc[0], _mm_cvtsi32_si128(state as i32));
        let (quads, singles) = rest.as_chunks::<4>();
        let k = _mm_set_epi64x(FOLD_BY_4[1], FOLD_BY_4[0]);
        for quad in quads {
            acc = [0, 1, 2, 3].map(|i| fold(acc[i], load(&quad[i]), k));
        }
        let k = _mm_set_epi64x(FOLD_BY_1[1], FOLD_BY_1[0]);
        let mut x = acc[0];
        for next in acc[1..]
            .iter()
            .copied()
            .chain(singles.iter().map(|b| load(b)))
        {
            x = fold(x, next, k);
        }
        let low32 = _mm_set_epi32(0, 0, 0, -1);
        let x = _mm_xor_si128(_mm_clmulepi64_si128::<0x10>(x, k), _mm_srli_si128::<8>(x));
        let x64 = _mm_set_epi64x(0, FOLD_64);
        let x = _mm_xor_si128(
            _mm_clmulepi64_si128::<0x00>(_mm_and_si128(x, low32), x64),
            _mm_srli_si128::<4>(x),
        );
        let pu = _mm_set_epi64x(BARRETT[1], BARRETT[0]);
        let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(x, low32), pu);
        let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
        let state = _mm_cvtsi128_si32(_mm_srli_si128::<4>(_mm_xor_si128(x, t2)));
        (state as u32, tail)
    }
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

/// Encoded size of an [`ExecBuf`].
const EXEC_BUF_LEN: usize = 25;

/// Encode an `Exec` payload.
pub fn encode_exec(name: &str, args: &[u8], width: u32, bufs: &[ExecBuf]) -> Vec<u8> {
    let mut p = Vec::with_capacity(11 + name.len() + args.len() + bufs.len() * EXEC_BUF_LEN);
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
    // The count is the peer's: refuse one the rest of the payload cannot
    // hold before sizing anything by it.
    if nbufs * EXEC_BUF_LEN > c.remaining() {
        return None;
    }
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

    /// Every (start, length) a frame's CRC input can take that a fast path
    /// could get wrong: every length up to 300 and the lengths around the
    /// 16-, 64- and 128-byte block boundaries and around 4096, each at every
    /// start offset in a 16-byte block.
    fn shapes() -> impl Iterator<Item = (usize, usize)> {
        let around = |b: usize| b - 3..=b + 3;
        let lens = (0..=300)
            .chain([16, 64, 128, 4096].into_iter().flat_map(around))
            .chain([4096 + 64 * 7 + 15, 9000]);
        lens.flat_map(|len| (0..16).map(move |start| (start, len)))
    }

    #[test]
    fn sliced_crc_equals_bytewise_reference() {
        let data = noise(0x5eed, 9000 + 16);
        for (start, len) in shapes() {
            let d = &data[start..start + len];
            assert_eq!(
                crc32_sliced(d),
                crc32_bytewise(d),
                "start {start} len {len}"
            );
        }
    }

    /// The carry-less path, called directly (skipped, with a notice, on a CPU
    /// without it), and the dispatched [`crc32`] equal the reference on every
    /// shape.
    #[test]
    fn clmul_crc_equals_the_reference_on_every_frame_shape() {
        let data = noise(0xc1a55, 9000 + 16);
        #[cfg(target_arch = "x86_64")]
        let clmul = std::arch::is_x86_feature_detected!("pclmulqdq");
        #[cfg(not(target_arch = "x86_64"))]
        let clmul = false;
        if !clmul {
            eprintln!("NOTICE: no PCLMULQDQ on this CPU; only the dispatched CRC is checked");
        }
        for (start, len) in shapes() {
            let d = &data[start..start + len];
            let want = crc32_bytewise(d);
            assert_eq!(crc32(d), want, "dispatched: start {start} len {len}");
            #[cfg(target_arch = "x86_64")]
            if clmul && len >= clmul::MIN_LEN {
                // SAFETY: PCLMULQDQ was detected above.
                let (state, tail) = unsafe { clmul::update(CRC_INIT, d) };
                assert!(tail.len() < 16, "len {len}: the fold leaves under a block");
                let got = crc32_update_bytewise(state, tail) ^ CRC_INIT;
                assert_eq!(got, want, "clmul: start {start} len {len}");
            }
        }
    }

    #[test]
    fn crc_state_folds_across_any_split() {
        // The frame CRC is folded over header, head and data separately.
        let data = noise(7, 4096 + 300);
        let want = crc32_bytewise(&data);
        let cuts = (0..=300).chain([4095, 4096, 4097, data.len()]);
        for cut in cuts {
            let (a, b) = data.split_at(cut);
            for update in [crc32_update, crc32_update_sliced] {
                let folded = update(update(CRC_INIT, a), b) ^ CRC_INIT;
                assert_eq!(folded, want, "cut {cut}");
            }
            // Three parts, as a `Write` frame: header, 16-byte head, data.
            let (b, c) = b.split_at(b.len().min(16));
            let folded = crc32_update(crc32_update(crc32_update(CRC_INIT, a), b), c);
            assert_eq!(folded ^ CRC_INIT, want, "cut {cut} + 16");
        }
    }

    /// Each folding constant is `x^n mod P` over GF(2), bit-reflected and
    /// shifted left once; µ is `⌊x^64 / P⌋` and P the polynomial itself, both
    /// reflected to 33 bits.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn clmul_constants_are_powers_of_x() {
        const P: u64 = 0x1_04C1_1DB7;
        let x_pow_mod_p = |n: usize| {
            let mut r = 1u64;
            for _ in 0..n {
                r <<= 1;
                if r >> 32 != 0 {
                    r ^= P;
                }
            }
            r as u32
        };
        let k = |n| i64::from(x_pow_mod_p(n).reverse_bits()) << 1;
        assert_eq!(clmul::FOLD_BY_4, [k(4 * 128 + 32), k(4 * 128 - 32)]);
        assert_eq!(clmul::FOLD_BY_1, [k(128 + 32), k(128 - 32)]);
        assert_eq!(clmul::FOLD_64, k(64));
        let (mut rem, mut mu) = (1u128 << 64, 0u64);
        for bit in (32..=64).rev() {
            if rem >> bit & 1 != 0 {
                rem ^= u128::from(P) << (bit - 32);
                mu |= 1 << (bit - 32);
            }
        }
        let reflect33 = |v: u64| (v.reverse_bits() >> 31) as i64;
        assert_eq!(clmul::BARRETT, [reflect33(P), reflect33(mu)]);
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
    fn hello_round_trips_and_refuses_other_versions() {
        let hello = Hello {
            role: 3,
            width: 30,
            cores: 60,
        };
        let wire = hello.encode();
        assert_eq!(wire.len(), 11);
        assert_eq!(Hello::decode(&wire), Ok(hello));
        for cut in 3..wire.len() {
            assert_eq!(Hello::decode(&wire[..cut]), Err("malformed Hello".into()));
        }
        let mut v2 = wire[..3].to_vec();
        v2[1..3].copy_from_slice(&2u16.to_le_bytes());
        let err = Hello::decode(&v2).expect_err("a v2 Hello");
        assert!(
            err.contains("version mismatch") && err.contains("host 2"),
            "{err}"
        );
        let err = Hello::decode(&[3]).expect_err("no version");
        assert!(err.contains("unreadable"), "{err}");
    }

    #[test]
    fn exec_decode_rejects_truncation() {
        let p = encode_exec("k", &[], 1, &[(1, 0, 8, false)]);
        for cut in 1..p.len() {
            assert!(decode_exec(&p[..p.len() - cut]).is_none());
        }
        // A count of 65,535 operands and none of their bytes.
        let mut p = encode_exec("k", &[], 1, &[]);
        let n = p.len();
        p[n - 2..].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode_exec(&p).is_none());
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
