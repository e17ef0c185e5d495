//! [`RemoteDomain`]: a fabric node whose memory lives in a worker process.
//!
//! The host side of the wire protocol in [`crate::proto`]. A remote domain
//! holds connections to its worker: a fixed set, one per traffic class —
//! control, H2D payload, D2H payload — so a long transfer on the link never
//! serializes against another class, and one exec connection per card stream
//! ([`RemoteDomain::open_exec`], opened with the stream's pipeline), so the
//! worker runs the card's streams side by side as in-process pipelines run
//! them. The overlap the paper measures must survive the process boundary.
//!
//! **Failure semantics.** The first I/O or protocol error on any of the
//! domain's connections *poisons* the domain: the card is marked dead on the
//! shared [`ChaosHub`] and every subsequent operation, exec connections
//! included, fails immediately with [`TransportError::Closed`] without
//! touching a socket. Upper layers map that to
//! `FailureCause::CardLost { card }`, which is exactly the signal the PR 4
//! degradation machinery already consumes — a literal `kill -9` of the
//! worker walks the same remap-and-replay path as an injected `CardDead`.
//! Sockets also carry a read timeout as a backstop, so a wedged (rather
//! than dead) worker converts to `Closed` instead of hanging a drain.
//! [`RemoteDomain::reconnect`] re-opens the fixed set and every exec
//! connection still held, each with its own `Hello`.

use crate::proto::{self, FrameHeader, Hello, Kind};
use crate::transport::{Endpoint, ExecReply, ExecRequest, LinkStats, Transport, TransportError};
use crate::window::WindowMem;
use hs_chaos::{ChaosHub, RetryPolicy};
use parking_lot::Mutex;
use std::io::{IoSlice, IoSliceMut, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Backstop for a wedged worker: a socket read that makes no progress for
/// this long is treated as a dead peer. Orderly kills surface much faster
/// (EOF / ECONNRESET on the next syscall).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// How long `connect` retries while the worker is still binding its socket.
const CONNECT_BUDGET: Duration = Duration::from_secs(5);

/// Connection roles, also the `Hello` role byte: the fixed set, one
/// connection each, and the role of every card stream's exec connection.
const ROLE_CTRL: usize = 0;
const ROLE_H2D: usize = 1;
const ROLE_D2H: usize = 2;
const ROLE_EXEC: usize = 3;
const N_CHANNELS: usize = 3;

enum Stream {
    Uds(UnixStream),
    Tcp(TcpStream),
}

impl Stream {
    fn set_read_timeout(&self, t: Duration) -> std::io::Result<()> {
        match self {
            Stream::Uds(s) => s.set_read_timeout(Some(t)),
            Stream::Tcp(s) => s.set_read_timeout(Some(t)),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read(buf),
            Stream::Tcp(s) => s.read(buf),
        }
    }

    fn read_vectored(&mut self, bufs: &mut [IoSliceMut<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.read_vectored(bufs),
            Stream::Tcp(s) => s.read_vectored(bufs),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write(buf),
            Stream::Tcp(s) => s.write(buf),
        }
    }

    // The frame writer's one-syscall-per-frame property rests on this: the
    // default `write_vectored` sends only the first slice.
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Uds(s) => s.write_vectored(bufs),
            Stream::Tcp(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Uds(s) => s.flush(),
            Stream::Tcp(s) => s.flush(),
        }
    }
}

/// What every connection of a domain shares: the card's identity, its
/// health and the link's counters.
struct Link {
    card: u32,
    endpoint: Mutex<Endpoint>,
    chaos: ChaosHub,
    dead: AtomicBool,
    tx_bytes: AtomicU64,
    rx_bytes: AtomicU64,
    reqs: AtomicU64,
    rtt_ns: AtomicU64,
}

/// Host-side handle to a worker-process card. See module docs.
pub struct RemoteDomain {
    link: Arc<Link>,
    chans: [Mutex<Stream>; N_CHANNELS],
    /// The exec connections opened on this domain, for `reconnect`; a
    /// dropped one is pruned on the next open.
    execs: Mutex<Vec<Weak<ExecSlot>>>,
}

/// One card stream's exec connection to the worker: its `Hello` carried
/// the stream's width and the card's modelled cores, and the worker runs
/// the stream's tasks on that connection's own thread and lanes. It shares
/// the domain's health and counters; dropping it closes the connection.
pub struct ExecConn {
    link: Arc<Link>,
    slot: Arc<ExecSlot>,
}

struct ExecSlot {
    hello: Hello,
    stream: Mutex<Stream>,
}

impl RemoteDomain {
    /// Connect to the worker at `endpoint`, identifying the node as fabric
    /// card `card` (its domain index). Retries briefly while the worker is
    /// still starting; performs the `Hello` handshake on every channel.
    pub fn connect(
        endpoint: &Endpoint,
        card: u32,
        chaos: ChaosHub,
    ) -> std::io::Result<RemoteDomain> {
        let chans = open_channels(endpoint)?.map(Mutex::new);
        Ok(RemoteDomain {
            link: Arc::new(Link {
                card,
                endpoint: Mutex::new(endpoint.clone()),
                chaos,
                dead: AtomicBool::new(false),
                tx_bytes: AtomicU64::new(0),
                rx_bytes: AtomicU64::new(0),
                reqs: AtomicU64::new(0),
                rtt_ns: AtomicU64::new(0),
            }),
            chans,
            execs: Mutex::new(Vec::new()),
        })
    }

    /// The endpoint this domain is connected to.
    pub fn endpoint(&self) -> Endpoint {
        self.link.endpoint.lock().clone()
    }

    /// Open the exec connection of a card stream `width` cores wide on a
    /// card of `cores` modelled cores; the worker sizes the stream's lanes
    /// from the two. A failure to connect poisons the domain like any other
    /// I/O error, and a poisoned domain opens nothing.
    pub fn open_exec(&self, width: u32, cores: u32) -> Result<ExecConn, TransportError> {
        self.link.alive()?;
        let hello = Hello {
            role: ROLE_EXEC as u8,
            width,
            cores,
        };
        let endpoint = self.endpoint();
        let stream = handshake(&endpoint, hello).map_err(|e| self.link.io_err(&e))?;
        let slot = Arc::new(ExecSlot {
            hello,
            stream: Mutex::new(stream),
        });
        let mut execs = self.execs.lock();
        execs.retain(|e| e.strong_count() > 0);
        execs.push(Arc::downgrade(&slot));
        Ok(ExecConn {
            link: self.link.clone(),
            slot,
        })
    }

    /// Re-establish the fixed channels and every exec connection still held
    /// to a (re)started worker at `endpoint`, retrying with `retry`'s
    /// exponential backoff schedule. The existing connections — dead sockets
    /// after a worker crash — are replaced wholesale, and only once every
    /// one has completed its `Hello` handshake does the domain come back to
    /// life (`is_dead()` flips to false last, so concurrent ops fail fast
    /// rather than racing a half-built pool). The caller owns reviving the
    /// card on the chaos hub: this layer reports transport health, not
    /// scheduling policy.
    pub fn reconnect(&self, endpoint: &Endpoint, retry: &RetryPolicy) -> std::io::Result<()> {
        let execs: Vec<Arc<ExecSlot>> =
            self.execs.lock().iter().filter_map(Weak::upgrade).collect();
        let open_all = || -> std::io::Result<_> {
            let chans = open_channels(endpoint)?;
            let exec_streams = execs
                .iter()
                .map(|e| handshake(endpoint, e.hello))
                .collect::<std::io::Result<Vec<Stream>>>()?;
            Ok((chans, exec_streams))
        };
        let attempts = retry.max_attempts.max(1);
        let mut backoff_us = retry.base_backoff_us;
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(Duration::from_micros(backoff_us));
                backoff_us = ((backoff_us as f64) * retry.multiplier) as u64;
            }
            match open_all() {
                Ok((fresh, fresh_execs)) => {
                    for (slot, s) in self.chans.iter().zip(fresh) {
                        *slot.lock() = s;
                    }
                    for (exec, s) in execs.iter().zip(fresh_execs) {
                        *exec.stream.lock() = s;
                    }
                    *self.link.endpoint.lock() = endpoint.clone();
                    self.link.dead.store(false, Ordering::Release);
                    self.link.chaos.note(format!(
                        "card {} reconnected to {endpoint} (attempt {})",
                        self.link.card,
                        attempt + 1
                    ));
                    return Ok(());
                }
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::TimedOut, "reconnect: no attempts")
        }))
    }
}

impl Link {
    /// `Closed` at once on a poisoned domain.
    fn alive(&self) -> Result<(), TransportError> {
        if self.dead.load(Ordering::Acquire) {
            return Err(TransportError::Closed(format!(
                "card {} already lost",
                self.card
            )));
        }
        Ok(())
    }

    /// Poison the domain: all subsequent ops fail fast, and the shared
    /// chaos hub learns the card is gone (degradation picks that up).
    fn poison(&self, why: &str) -> TransportError {
        if !self.dead.swap(true, Ordering::AcqRel) {
            self.chaos.mark_card_dead(self.card);
            self.chaos.note(format!(
                "card {} ({}) lost: {why}",
                self.card,
                self.endpoint.lock()
            ));
        }
        TransportError::Closed(why.to_string())
    }

    fn io_err(&self, e: &std::io::Error) -> TransportError {
        if e.kind() == std::io::ErrorKind::InvalidData {
            // Protocol violations poison too: the stream is desynced.
            self.poison(&format!("protocol violation: {e}"));
            TransportError::Protocol(e.to_string())
        } else {
            self.poison(&e.to_string())
        }
    }

    /// One request/reply round-trip on connection `chan`, with poisoning,
    /// byte accounting and RTT measurement. `head`+`data` form the request
    /// payload; `recv` consumes the payload of a reply of kind `want`
    /// (anything else is a worker `Err` frame or a protocol violation).
    /// Returns what `recv` made of the reply, the request's frame CRC and
    /// the round-trip time.
    fn rpc<T>(
        &self,
        chan: &Mutex<Stream>,
        (kind, want): (Kind, Kind),
        head: &[u8],
        data: &[u8],
        recv: impl FnOnce(FrameHeader, &mut Stream) -> std::io::Result<T>,
    ) -> Result<(T, u32, Duration), TransportError> {
        self.alive()?;
        let mut s = chan.lock();
        let start = Instant::now();
        let sent =
            proto::send_frame_parts(&mut *s, kind, head, data).map_err(|e| self.io_err(&e))?;
        let hdr = proto::recv_header(&mut *s).map_err(|e| self.io_err(&e))?;
        let (got, rcvd) = (hdr.kind(), hdr.wire_len());
        let reply = if got == want {
            Ok(recv(hdr, &mut s).map_err(|e| self.io_err(&e))?)
        } else if got == Kind::Err {
            Err(hdr.recv_payload(&mut *s).map_err(|e| self.io_err(&e))?)
        } else {
            return Err(self.poison(&format!("expected {want:?}, got {got:?}")));
        };
        let rtt = start.elapsed();
        drop(s);
        self.tx_bytes
            .fetch_add(sent.bytes as u64, Ordering::Relaxed);
        self.rx_bytes.fetch_add(rcvd as u64, Ordering::Relaxed);
        self.reqs.fetch_add(1, Ordering::Relaxed);
        self.rtt_ns.store(rtt.as_nanos() as u64, Ordering::Relaxed);
        match reply {
            Ok(v) => Ok((v, sent.crc, rtt)),
            Err(payload) => {
                let msg = String::from_utf8_lossy(&payload).into_owned();
                Err(match msg.strip_prefix("no such window ") {
                    Some(w) => match w.parse::<u64>() {
                        Ok(id) => TransportError::NoSuchWindow(id),
                        Err(_) => TransportError::Remote(msg),
                    },
                    None if msg.contains("out of bounds") => TransportError::OutOfBounds,
                    None => TransportError::Remote(msg),
                })
            }
        }
    }

    /// [`Self::rpc`] for a control request: the reply payload as a `Vec`.
    fn ctrl(
        &self,
        chan: &Mutex<Stream>,
        kinds: (Kind, Kind),
        payload: &[u8],
    ) -> Result<(Vec<u8>, Duration), TransportError> {
        self.rpc(chan, kinds, payload, &[], |hdr, s| hdr.recv_payload(s))
            .map(|(reply, _, rtt)| (reply, rtt))
    }
}

impl ExecConn {
    /// Run `req` on the worker, on this connection's lanes.
    pub fn exec(&self, req: &ExecRequest<'_>) -> Result<ExecReply, TransportError> {
        let p = proto::encode_exec(req.name, req.args, req.width, req.bufs);
        let (payload, _) = self
            .link
            .ctrl(&self.slot.stream, (Kind::Exec, Kind::ExecAck), &p)?;
        let mut c = proto::Cursor::new(&payload);
        let status = c
            .get_u8()
            .ok_or_else(|| TransportError::Protocol("short ExecAck".into()))?;
        match status {
            0 => Ok(ExecReply::Done),
            1 => Ok(ExecReply::UnknownFn),
            _ => Ok(ExecReply::Failed(
                String::from_utf8_lossy(c.rest()).into_owned(),
            )),
        }
    }
}

impl Transport for RemoteDomain {
    fn kind(&self) -> &'static str {
        match &*self.link.endpoint.lock() {
            Endpoint::Uds(_) => "uds",
            Endpoint::Tcp(_) => "tcp",
        }
    }

    fn is_remote(&self) -> bool {
        true
    }

    fn as_remote(&self) -> Option<&RemoteDomain> {
        Some(self)
    }

    fn alloc(&self, win: u64, len: usize) -> Result<(), TransportError> {
        let mut p = Vec::with_capacity(16);
        proto::put_u64(&mut p, win);
        proto::put_u64(&mut p, len as u64);
        self.link
            .ctrl(&self.chans[ROLE_CTRL], (Kind::Alloc, Kind::Ack), &p)
            .map(drop)
    }

    fn free(&self, win: u64) -> Result<bool, TransportError> {
        let req = (Kind::Free, Kind::Ack);
        match self
            .link
            .ctrl(&self.chans[ROLE_CTRL], req, &win.to_le_bytes())
        {
            Ok(_) => Ok(true),
            Err(TransportError::NoSuchWindow(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    fn zero(&self, win: u64) -> Result<(), TransportError> {
        let req = (Kind::Zero, Kind::Ack);
        self.link
            .ctrl(&self.chans[ROLE_CTRL], req, &win.to_le_bytes())
            .map(drop)
    }

    fn window(&self, _win: u64) -> Option<Arc<WindowMem>> {
        None
    }

    fn write(&self, win: u64, off: usize, data: &[u8]) -> Result<(), TransportError> {
        let mut head = [0u8; 16];
        head[..8].copy_from_slice(&win.to_le_bytes());
        head[8..].copy_from_slice(&(off as u64).to_le_bytes());
        let (ack, sent_crc, _) = self.link.rpc(
            &self.chans[ROLE_H2D],
            (Kind::Write, Kind::WriteAck),
            &head,
            data,
            |h, s| h.recv_payload(s),
        )?;
        let acked = proto::Cursor::new(&ack)
            .get_u32()
            .ok_or_else(|| TransportError::Protocol("short WriteAck".into()))?;
        // The worker acks the frame CRC it computed over the bytes as they
        // sit in its window; ours was computed over `data` while sending.
        if acked != sent_crc {
            return Err(self.link.poison(&format!(
                "H2D payload CRC mismatch: sent {sent_crc:#010x}, worker stored {acked:#010x}"
            )));
        }
        Ok(())
    }

    fn read(&self, win: u64, off: usize, out: &mut [u8]) -> Result<(), TransportError> {
        let mut p = [0u8; 24];
        p[..8].copy_from_slice(&win.to_le_bytes());
        p[8..16].copy_from_slice(&(off as u64).to_le_bytes());
        p[16..].copy_from_slice(&(out.len() as u64).to_le_bytes());
        // A `ReadData` of any other length fails in `recv_payload_into` as a
        // protocol violation, before a byte of it is received.
        let kinds = (Kind::Read, Kind::ReadData);
        self.link
            .rpc(&self.chans[ROLE_D2H], kinds, &p, &[], |h, s| {
                h.recv_payload_into(s, out)
            })
            .map(drop)
    }

    fn ping(&self) -> Result<Duration, TransportError> {
        self.link
            .ctrl(&self.chans[ROLE_CTRL], (Kind::Ping, Kind::Pong), &[])
            .map(|(_, rtt)| rtt)
    }

    fn link_stats(&self) -> LinkStats {
        let l = &self.link;
        LinkStats {
            tx_bytes: l.tx_bytes.load(Ordering::Relaxed),
            rx_bytes: l.rx_bytes.load(Ordering::Relaxed),
            reqs: l.reqs.load(Ordering::Relaxed),
            rtt_ns: l.rtt_ns.load(Ordering::Relaxed),
        }
    }
}

/// Open and handshake the fixed channels to `endpoint`. Fully succeeds or
/// touches nothing the caller keeps.
fn open_channels(endpoint: &Endpoint) -> std::io::Result<[Stream; N_CHANNELS]> {
    let open = |role: usize| {
        let hello = Hello {
            role: role as u8,
            width: 0,
            cores: 0,
        };
        handshake(endpoint, hello)
    };
    Ok([open(ROLE_CTRL)?, open(ROLE_H2D)?, open(ROLE_D2H)?])
}

/// Connect to `endpoint` and greet the worker with `hello`.
fn handshake(endpoint: &Endpoint, hello: Hello) -> std::io::Result<Stream> {
    let mut s = connect_stream(endpoint)?;
    s.set_read_timeout(READ_TIMEOUT)?;
    proto::send_frame(&mut s, Kind::Hello, &hello.encode())?;
    let (kind, payload, _) = proto::recv_frame(&mut s)?;
    if kind == Kind::Err {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "worker refused the connection: {}",
                String::from_utf8_lossy(&payload)
            ),
        ));
    }
    if kind != Kind::HelloAck {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("expected HelloAck, got {kind:?}"),
        ));
    }
    let ver = proto::Cursor::new(&payload).get_u16().unwrap_or(0);
    if ver != proto::VERSION {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "protocol version mismatch: ours {}, worker {ver}",
                proto::VERSION
            ),
        ));
    }
    Ok(s)
}

/// Connect with a retry budget: spawning the worker and connecting to it
/// race, and losing that race must not fail init.
fn connect_stream(endpoint: &Endpoint) -> std::io::Result<Stream> {
    let deadline = Instant::now() + CONNECT_BUDGET;
    loop {
        let r = match endpoint {
            Endpoint::Uds(path) => UnixStream::connect(path).map(Stream::Uds),
            // Request/reply frames are small and latency-bound: with Nagle
            // on, each waits out the peer's delayed ACK (~40 ms a round trip).
            Endpoint::Tcp(addr) => TcpStream::connect(addr)
                .and_then(|s| s.set_nodelay(true).map(|()| s))
                .map(Stream::Tcp),
        };
        match r {
            Ok(s) => return Ok(s),
            Err(e) => {
                let retryable = matches!(
                    e.kind(),
                    std::io::ErrorKind::NotFound
                        | std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::AddrNotAvailable
                );
                if !retryable || Instant::now() >= deadline {
                    return Err(e);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A scripted worker: greets each of the fixed channels with `version`,
    /// then hands the connection to `serve` with its role.
    fn fake_worker(version: u16, serve: fn(usize, TcpStream)) -> Endpoint {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound");
        std::thread::spawn(move || {
            for conn in listener.incoming().take(N_CHANNELS) {
                let mut conn = conn.expect("accept");
                let (kind, hello, _) = proto::recv_frame(&mut conn).expect("hello");
                assert_eq!(kind, Kind::Hello);
                proto::send_frame(&mut conn, Kind::HelloAck, &version.to_le_bytes())
                    .expect("hello ack");
                let role = hello[0] as usize;
                std::thread::spawn(move || serve(role, conn));
            }
        });
        Endpoint::Tcp(addr.to_string())
    }

    fn assert_card_lost(t: &RemoteDomain, chaos: &ChaosHub) {
        assert!(t.link.dead.load(Ordering::Acquire));
        assert_eq!(chaos.dead_cards(), vec![3]);
        // Poisoned: later calls fail fast, on every channel.
        assert!(matches!(t.ping(), Err(TransportError::Closed(_))));
    }

    #[test]
    fn worker_of_another_version_is_refused() {
        let ep = fake_worker(proto::VERSION - 1, |_, _| {});
        let err = RemoteDomain::connect(&ep, 3, ChaosHub::default())
            .err()
            .expect("v1 worker must be refused");
        assert!(err.to_string().contains("version mismatch"), "{err}");
    }

    #[test]
    fn write_ack_of_different_bytes_loses_the_card() {
        // The worker "stored" something else than was sent: its ack carries
        // another CRC.
        let ep = fake_worker(proto::VERSION, |role, mut conn| {
            if role == ROLE_H2D {
                let hdr = proto::recv_header(&mut conn).expect("write header");
                let mut sink = vec![0u8; hdr.remaining()];
                let crc = hdr.recv_payload_into(&mut conn, &mut sink).expect("write");
                let _ = proto::send_frame(&mut conn, Kind::WriteAck, &(crc ^ 1).to_le_bytes());
            }
        });
        let chaos = ChaosHub::default();
        let t = RemoteDomain::connect(&ep, 3, chaos.clone()).expect("connect");
        let err = t.write(1, 0, &[5u8; 4096]).expect_err("ack mismatch");
        assert!(
            matches!(&err, TransportError::Closed(m) if m.contains("CRC")),
            "{err}"
        );
        assert_card_lost(&t, &chaos);
    }

    #[test]
    fn corrupt_or_missized_read_data_loses_the_card() {
        for flip_len in [false, true] {
            let serve: fn(usize, TcpStream) = if flip_len {
                |role, mut conn| {
                    if role == ROLE_D2H {
                        let _ = proto::recv_frame(&mut conn);
                        let _ = proto::send_frame(&mut conn, Kind::ReadData, &[9u8; 100]);
                    }
                }
            } else {
                |role, mut conn| {
                    if role == ROLE_D2H {
                        let _ = proto::recv_frame(&mut conn);
                        let mut frame = Vec::new();
                        proto::send_frame(&mut frame, Kind::ReadData, &[9u8; 4096]).expect("frame");
                        frame[2000] ^= 0x10;
                        let _ = conn.write_all(&frame);
                    }
                }
            };
            let chaos = ChaosHub::default();
            let t = RemoteDomain::connect(&fake_worker(proto::VERSION, serve), 3, chaos.clone())
                .expect("connect");
            let mut out = vec![0u8; 4096];
            let err = t.read(1, 0, &mut out).expect_err("bad ReadData");
            assert!(matches!(err, TransportError::Protocol(_)), "{err}");
            assert_card_lost(&t, &chaos);
        }
    }
}
