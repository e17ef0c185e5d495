//! Worker-side protocol server: a card as a separate process.
//!
//! `hs-worker` (see `hs-apps`) hosts this loop. The host's
//! [`hs_fabric::RemoteDomain`] opens a fixed set of connections (control,
//! H2D, D2H) plus one exec connection per card stream, and speaks the
//! length-prefixed framed protocol from [`hs_fabric::proto`]; each accepted
//! connection gets its own thread here, so transfers genuinely overlap
//! compute — the same property the in-process fabric gets from
//! per-direction DMA channels — and the card's streams compute side by side,
//! as in-process pipelines do.
//!
//! **Lanes.** A connection owns its expansion group, sized once, at its
//! `Hello`, by the in-process executor's rule ([`physical_lanes`]): the
//! stream's width over the card's modelled cores, as a share of this
//! machine's cores, and never more than this machine's cores whatever the
//! peer sent. A connection that has not said `Hello` runs tasks on one lane.
//! The groups of every connection share the worker's one [`WorkerPool`],
//! one thread per core, started by the first group that needs it.
//!
//! Window memory on the worker is real [`WindowMem`]s with the same range
//! locks as the in-process arena, so concurrent H2D writes and exec operand
//! access are checked by construction rather than by trust in the host.
//! Run functions resolve against a worker-local [`FnRegistry`] — the
//! process-boundary analogue of COI loading a sink binary — and execute
//! through the sink core the in-process pipelines use (`pipeline.rs`): the
//! same canonical range-lock order, the same panic capture. A function the
//! registry lacks is an `UnknownFn` status, which fails the task on the
//! host as an unregistered name fails it in-process.

use crate::pipeline::{execute_on, physical_lanes};
use crate::registry::FnRegistry;
use crate::workers::WorkerPool;
use crate::workgroup::Workgroup;
use hs_chaos::FailureCause;
use hs_fabric::proto::{self, ExecStatus, FrameHeader, Hello, Kind};
use hs_fabric::{RangeGuard, WindowMem};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Cooperative shutdown: a signal handler (or test) flips the flag with
/// [`request_shutdown`]; every connection finishes the request it is
/// serving, sends its reply, and closes cleanly. [`inflight_requests`]
/// lets a supervisor wait for the drain before exiting the process —
/// that ordering is what makes a SIGTERM look like a clean close instead
/// of a mid-RPC disconnect (a spurious `CardLost`) to the host.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);
static INFLIGHT: AtomicUsize = AtomicUsize::new(0);

/// Ask every serving connection to wind down after its current request.
/// Async-signal-safe: a single atomic store.
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

/// Has a shutdown been requested?
pub fn shutdown_requested() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

/// Requests currently being served (received but not yet replied to).
pub fn inflight_requests() -> usize {
    INFLIGHT.load(Ordering::SeqCst)
}

struct InflightGuard;

impl InflightGuard {
    fn enter() -> InflightGuard {
        INFLIGHT.fetch_add(1, Ordering::SeqCst);
        InflightGuard
    }
}

impl Drop for InflightGuard {
    fn drop(&mut self) {
        INFLIGHT.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Shared state of one worker process: its window table, its function
/// registry and the pool its connections' expansion groups run on.
pub struct WorkerState {
    windows: RwLock<HashMap<u64, Arc<WindowMem>>>,
    registry: Arc<FnRegistry>,
    /// Cores of this machine: the most lanes any task gets here.
    host_cores: usize,
    pool: OnceLock<Arc<WorkerPool>>,
}

impl WorkerState {
    pub fn new(registry: Arc<FnRegistry>) -> Arc<WorkerState> {
        let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        Self::with_host_cores(registry, host_cores)
    }

    fn with_host_cores(registry: Arc<FnRegistry>, host_cores: usize) -> Arc<WorkerState> {
        Arc::new(WorkerState {
            windows: RwLock::new(HashMap::new()),
            registry,
            host_cores,
            pool: OnceLock::new(),
        })
    }

    /// The expansion group of a connection whose `Hello` is `hello`: the
    /// lanes [`physical_lanes`] gives a stream `hello.width` cores wide on a
    /// card of `hello.cores`, on this machine. Both numbers are the peer's —
    /// a stream's share of the modelled card, or garbage — and a mask wider
    /// than the card it names would get more lanes than the machine has, so
    /// the count is also held to this machine's cores: never a thread count
    /// taken from the wire (the pool's threads are this machine's cores).
    fn workgroup(&self, hello: &Hello) -> Arc<Workgroup> {
        let lanes = physical_lanes(hello.width, hello.cores, self.host_cores).min(self.host_cores);
        if lanes == 1 {
            return Arc::new(Workgroup::new(1, "wrk1", None));
        }
        let pool = self.pool.get_or_init(|| {
            let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            Arc::new(WorkerPool::new(cores, "hs-wrk-pool"))
        });
        Arc::new(Workgroup::on(pool.clone(), lanes, None))
    }

    fn window(&self, win: u64) -> Result<Arc<WindowMem>, String> {
        self.windows
            .read()
            .get(&win)
            .cloned()
            .ok_or_else(|| format!("no such window {win}"))
    }

    /// Register window `win` of `len` zeroed bytes. `len` is the peer's: the
    /// cap is checked before anything is sized by it.
    fn alloc(&self, win: u64, len: u64) -> Result<(), String> {
        let len = match usize::try_from(len) {
            Ok(n) if len <= proto::MAX_WINDOW => n,
            _ => {
                return Err(format!(
                    "window of {len} bytes exceeds the {} byte cap",
                    proto::MAX_WINDOW
                ))
            }
        };
        match self.windows.write().entry(win) {
            std::collections::hash_map::Entry::Occupied(_) => {
                Err(format!("window {win} already allocated"))
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(Arc::new(WindowMem::new(len)));
                Ok(())
            }
        }
    }

    fn free(&self, win: u64) -> Result<(), String> {
        self.windows
            .write()
            .remove(&win)
            .map(drop)
            .ok_or_else(|| format!("no such window {win}"))
    }

    /// Lock the byte range a transfer of `len` bytes at `off` names. `mem`
    /// is the looked-up window (held by the caller, so the guard can borrow
    /// it); every value here is the peer's, so every failure is a message
    /// for an `Err` frame, never a panic.
    fn lock_xfer(
        mem: &Result<Arc<WindowMem>, String>,
        off: u64,
        len: u64,
        write: bool,
    ) -> Result<RangeGuard<'_>, String> {
        let mem = mem.as_ref().map_err(String::clone)?;
        let end = off
            .checked_add(len)
            .filter(|&end| end <= mem.len() as u64)
            .ok_or_else(|| {
                format!(
                    "range {off}..{} out of bounds for window of {}",
                    off.wrapping_add(len),
                    mem.len()
                )
            })?;
        // In bounds of a `usize`-sized window, so the casts keep the value.
        mem.lock_range(off as usize..end as usize, write)
            .map_err(|e| e.to_string())
    }

    /// Receive the data of a `Write` frame whose header is `hdr`: parse the
    /// `win|off` head, then read the payload from the socket straight into
    /// the write-locked window range. The frame CRC is computed over the
    /// bytes as they sit in the window, so the one pass is both the wire
    /// check and the end-to-end check; it is returned for the `WriteAck`.
    ///
    /// `Ok(Err(msg))` is a request the worker cannot place (no such window,
    /// range out of bounds): its payload has been drained and checked, so
    /// the connection is still in sync and gets a typed `Err` frame. The
    /// outer `Err` is a broken stream — truncation or a CRC mismatch, after
    /// which the window may hold corrupt bytes: the connection ends, the
    /// host poisons the card and degradation replays its work elsewhere,
    /// so nothing reads them.
    fn recv_write(
        &self,
        mut hdr: FrameHeader,
        s: &mut impl Read,
    ) -> std::io::Result<Result<u32, String>> {
        let mut head = [0u8; 16];
        if hdr.remaining() < head.len() {
            hdr.drain(s)?;
            return Ok(Err("malformed Write".to_string()));
        }
        hdr.recv_head(s, &mut head)?;
        let mut c = proto::Cursor::new(&head);
        let (win, off) = (
            c.get_u64().expect("head holds 16 bytes"),
            c.get_u64().expect("head holds 16 bytes"),
        );
        let mem = self.window(win);
        let locked = Self::lock_xfer(&mem, off, hdr.remaining() as u64, true);
        match locked {
            Ok(mut g) => hdr.recv_payload_into(s, g.as_mut_slice()).map(Ok),
            Err(msg) => {
                hdr.drain(s)?;
                Ok(Err(msg))
            }
        }
    }

    /// Answer a `Read`: the read-locked window slice goes to the socket as
    /// the `ReadData` payload, no copy in between.
    fn send_read(&self, win: u64, off: u64, len: u64, s: &mut impl Write) -> std::io::Result<()> {
        let mem = self.window(win);
        let locked = Self::lock_xfer(&mem, off, len, false);
        match locked {
            Ok(g) => proto::send_frame_parts(s, Kind::ReadData, &[], g.as_slice()).map(drop),
            Err(msg) => proto::send_frame(s, Kind::Err, msg.as_bytes()).map(drop),
        }
    }

    fn zero(&self, win: u64) -> Result<(), String> {
        let mem = self.window(win)?;
        if mem.is_empty() {
            return Ok(());
        }
        let mut g = mem
            .lock_range(0..mem.len(), true)
            .map_err(|e| e.to_string())?;
        g.as_mut_slice().fill(0);
        Ok(())
    }

    /// Run an `Exec` request on the connection's group `wg` through the
    /// in-process sink core; the (status, message) pair becomes the
    /// `ExecAck`. A panicking function fails one task, not the worker —
    /// exactly the host-side sink contract.
    fn exec(&self, payload: &[u8], wg: &Arc<Workgroup>) -> (ExecStatus, String) {
        let Some(fr) = proto::decode_exec(payload) else {
            return (ExecStatus::Failed, "malformed Exec payload".to_string());
        };
        if !self.registry.contains(fr.name) {
            return (ExecStatus::UnknownFn, String::new());
        }
        let mut mems = Vec::with_capacity(fr.bufs.len());
        for &(win, ..) in &fr.bufs {
            match self.window(win) {
                Ok(m) => mems.push(m),
                Err(msg) => return (ExecStatus::Failed, msg),
            }
        }
        let operand = |i: usize| {
            let (win, start, end, write) = fr.bufs[i];
            (win, &*mems[i], start as usize..end as usize, write)
        };
        match execute_on(&self.registry, fr.name, fr.args, mems.len(), operand, wg) {
            Ok(()) => (ExecStatus::Ok, String::new()),
            Err(FailureCause::SinkPanic(msg)) => (ExecStatus::Failed, format!("panic: {msg}")),
            Err(cause) => (ExecStatus::Failed, cause.to_string()),
        }
    }
}

/// Serve one connection until EOF/`Shutdown`. Every request frame gets
/// exactly one reply frame; worker-side failures of a request become `Err`
/// frames (the connection survives), protocol violations end the
/// connection.
pub fn serve_conn<S: Read + Write>(state: &Arc<WorkerState>, mut s: S) -> std::io::Result<()> {
    let mut wg = Arc::new(Workgroup::new(1, "wrk1", None));
    loop {
        let hdr = match proto::recv_header(&mut s) {
            Ok(h) => h,
            // Client hung up between requests: a normal end of session.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return Ok(()),
            Err(e) => return Err(e),
        };
        // A received request is served to completion — reply included —
        // even when a shutdown lands mid-flight; the wind-down check at
        // the bottom of the loop runs only after the reply is on the wire.
        let _inflight = InflightGuard::enter();
        let kind = hdr.kind();
        if kind == Kind::Write {
            // The one request whose payload is not staged: it goes from the
            // socket into its window.
            match state.recv_write(hdr, &mut s)? {
                Ok(crc) => proto::send_frame(&mut s, Kind::WriteAck, &crc.to_le_bytes())?,
                Err(msg) => proto::send_frame(&mut s, Kind::Err, msg.as_bytes())?,
            };
        } else {
            let payload = hdr.recv_payload(&mut s)?;
            let mut c = proto::Cursor::new(&payload);
            match kind {
                Kind::Hello => match Hello::decode(&payload) {
                    Ok(hello) => {
                        wg = state.workgroup(&hello);
                        proto::send_frame(&mut s, Kind::HelloAck, &proto::VERSION.to_le_bytes())?;
                    }
                    Err(msg) => {
                        proto::send_frame(&mut s, Kind::Err, msg.as_bytes())?;
                        return Err(std::io::Error::new(std::io::ErrorKind::InvalidData, msg));
                    }
                },
                Kind::Ping => {
                    proto::send_frame(&mut s, Kind::Pong, &[])?;
                }
                Kind::Shutdown => {
                    proto::send_frame(&mut s, Kind::Ack, &[])?;
                    return Ok(());
                }
                Kind::Alloc => {
                    let r = match (c.get_u64(), c.get_u64()) {
                        (Some(win), Some(len)) => state.alloc(win, len),
                        _ => Err("malformed Alloc".to_string()),
                    };
                    reply_ack(&mut s, r)?;
                }
                Kind::Free => {
                    let r = match c.get_u64() {
                        Some(win) => state.free(win),
                        None => Err("malformed Free".to_string()),
                    };
                    reply_ack(&mut s, r)?;
                }
                Kind::Zero => {
                    let r = match c.get_u64() {
                        Some(win) => state.zero(win),
                        None => Err("malformed Zero".to_string()),
                    };
                    reply_ack(&mut s, r)?;
                }
                Kind::Read => match (c.get_u64(), c.get_u64(), c.get_u64()) {
                    (Some(win), Some(off), Some(len)) => state.send_read(win, off, len, &mut s)?,
                    _ => {
                        proto::send_frame(&mut s, Kind::Err, b"malformed Read")?;
                    }
                },
                Kind::Exec => {
                    let (status, msg) = state.exec(&payload, &wg);
                    let mut p = Vec::with_capacity(1 + msg.len());
                    p.push(status as u8);
                    p.extend_from_slice(msg.as_bytes());
                    proto::send_frame(&mut s, Kind::ExecAck, &p)?;
                }
                other => {
                    // Reply-kinds arriving as requests are a protocol violation.
                    proto::send_frame(
                        &mut s,
                        Kind::Err,
                        format!("unexpected request frame {other:?}").as_bytes(),
                    )?;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("unexpected request frame {other:?}"),
                    ));
                }
            }
        }
        if shutdown_requested() {
            // The reply above is already written; closing here is a clean
            // end of session, not a dropped RPC.
            return Ok(());
        }
    }
}

/// `Ack` on success, `Err` frame with the message otherwise.
fn reply_ack(s: &mut impl Write, r: Result<(), String>) -> std::io::Result<()> {
    match r {
        Ok(()) => proto::send_frame(s, Kind::Ack, &[]).map(drop),
        Err(msg) => proto::send_frame(s, Kind::Err, msg.as_bytes()).map(drop),
    }
}

/// Accept connections on a Unix socket forever, a thread per connection.
/// Replaces any stale socket file at `path`.
pub fn serve_uds(path: &Path, registry: Arc<FnRegistry>) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let state = WorkerState::new(registry);
    for conn in listener.incoming() {
        let Ok(conn) = conn else { continue };
        let st = state.clone();
        std::thread::Builder::new()
            .name("hs-worker-conn".to_string())
            .spawn(move || {
                let _ = serve_conn(&st, conn);
            })?;
    }
    Ok(())
}

/// Accept TCP connections forever, a thread per connection.
pub fn serve_tcp(addr: &str, registry: Arc<FnRegistry>) -> std::io::Result<()> {
    let listener = TcpListener::bind(addr)?;
    let state = WorkerState::new(registry);
    accept_tcp(listener, state)
}

/// Bind `addr` (use port 0 for ephemeral), serve in a background thread,
/// and return the bound address — the in-process harness for transport
/// tests.
pub fn spawn_tcp_server(addr: &str, registry: Arc<FnRegistry>) -> std::io::Result<SocketAddr> {
    let listener = TcpListener::bind(addr)?;
    let bound = listener.local_addr()?;
    let state = WorkerState::new(registry);
    std::thread::Builder::new()
        .name("hs-worker-tcp".to_string())
        .spawn(move || {
            let _ = accept_tcp(listener, state);
        })?;
    Ok(bound)
}

fn accept_tcp(listener: TcpListener, state: Arc<WorkerState>) -> std::io::Result<()> {
    for conn in listener.incoming() {
        let Ok(conn) = conn else { continue };
        let _ = conn.set_nodelay(true);
        let st = state.clone();
        std::thread::Builder::new()
            .name("hs-worker-conn".to_string())
            .spawn(move || {
                let _ = serve_conn(&st, conn);
            })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::RunCtx;
    use hs_chaos::ChaosHub;
    use hs_fabric::transport::{ExecReply, ExecRequest, Transport};
    use hs_fabric::{Endpoint, RemoteDomain};

    fn test_registry() -> Arc<FnRegistry> {
        let r = FnRegistry::new();
        r.register(
            "add1",
            Arc::new(|ctx: &mut RunCtx| {
                for b in ctx.buf_mut(0).iter_mut() {
                    *b = b.wrapping_add(1);
                }
            }),
        );
        r.register(
            "boom",
            Arc::new(|_ctx: &mut RunCtx| panic!("kernel exploded")),
        );
        Arc::new(r)
    }

    #[test]
    fn tcp_round_trip_write_exec_read() {
        let addr = spawn_tcp_server("127.0.0.1:0", test_registry()).expect("bind");
        let chaos = ChaosHub::default();
        let t = RemoteDomain::connect(&Endpoint::Tcp(addr.to_string()), 1, chaos).expect("connect");
        t.alloc(7, 16).expect("alloc");
        t.write(7, 0, &[41u8; 16]).expect("write");
        let reply = t
            .open_exec(1, 1)
            .expect("exec connection")
            .exec(&ExecRequest {
                name: "add1",
                args: &[],
                width: 1,
                bufs: &[(7, 0, 16, true)],
            })
            .expect("exec rpc");
        assert_eq!(reply, ExecReply::Done);
        let mut out = [0u8; 16];
        t.read(7, 0, &mut out).expect("read");
        assert_eq!(out, [42u8; 16]);
        assert!(t.ping().is_ok());
    }

    #[test]
    fn worker_errors_are_frames_not_disconnects() {
        let addr = spawn_tcp_server("127.0.0.1:0", test_registry()).expect("bind");
        let chaos = ChaosHub::default();
        let t = RemoteDomain::connect(&Endpoint::Tcp(addr.to_string()), 1, chaos.clone())
            .expect("connect");
        // Missing window: typed error, link stays up and unpoisoned.
        let err = t.write(99, 0, &[1]).expect_err("no such window");
        assert!(matches!(
            err,
            hs_fabric::transport::TransportError::NoSuchWindow(99)
        ));
        // Out-of-bounds write: typed error, link stays up.
        t.alloc(1, 8).expect("alloc");
        let err = t.write(1, 4, &[0u8; 8]).expect_err("oob");
        assert!(matches!(
            err,
            hs_fabric::transport::TransportError::OutOfBounds
        ));
        // Unknown function and panicking function: both are ExecAck
        // statuses, not transport failures.
        let conn = t.open_exec(1, 1).expect("exec connection");
        let r = conn
            .exec(&ExecRequest {
                name: "nope",
                args: &[],
                width: 1,
                bufs: &[],
            })
            .expect("exec rpc");
        assert_eq!(r, ExecReply::UnknownFn);
        let r = conn
            .exec(&ExecRequest {
                name: "boom",
                args: &[],
                width: 1,
                bufs: &[(1, 0, 8, true)],
            })
            .expect("exec rpc");
        match r {
            ExecReply::Failed(msg) => assert!(msg.contains("kernel exploded"), "msg: {msg}"),
            other => panic!("expected Failed, got {other:?}"),
        }
        // After all that, the card must still be healthy.
        assert!(chaos.dead_cards().is_empty());
        t.zero(1).expect("zero");
        let mut out = [9u8; 8];
        t.read(1, 0, &mut out).expect("read");
        assert_eq!(out, [0u8; 8]);
        assert!(t.free(1).expect("free rpc"));
    }

    #[test]
    fn tcp_ping_is_not_nagled() {
        let addr = spawn_tcp_server("127.0.0.1:0", test_registry()).expect("bind");
        let t = RemoteDomain::connect(&Endpoint::Tcp(addr.to_string()), 1, ChaosHub::default())
            .expect("connect");
        let mut trips: Vec<_> = (0..50).map(|_| t.ping().expect("ping")).collect();
        trips.sort();
        // Nagle against the peer's delayed ACK costs ~40 ms a trip.
        assert!(
            trips[25] < std::time::Duration::from_millis(5),
            "median TCP ping {:?}",
            trips[25]
        );
    }

    /// An in-memory connection: scripted request bytes in, replies out.
    struct Duplex<'a> {
        input: &'a [u8],
        output: Vec<u8>,
    }

    impl Read for Duplex<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl Write for Duplex<'_> {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.write(buf)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Run `input` through `serve_conn`; the session's result and the
    /// (kind, payload) of every reply frame.
    fn serve_bytes(
        state: &Arc<WorkerState>,
        input: &[u8],
    ) -> (std::io::Result<()>, Vec<(Kind, Vec<u8>)>) {
        let mut conn = Duplex {
            input,
            output: Vec::new(),
        };
        let result = serve_conn(state, &mut conn);
        let mut replies = Vec::new();
        let mut out = conn.output.as_slice();
        while !out.is_empty() {
            let (kind, payload, _) =
                proto::recv_frame(&mut out).expect("worker sends whole frames");
            replies.push((kind, payload));
        }
        (result, replies)
    }

    /// The seeded generator of the mutation tests.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    fn frame(kind: Kind, head: &[u8], data: &[u8]) -> Vec<u8> {
        let mut f = Vec::new();
        proto::send_frame_parts(&mut f, kind, head, data).expect("frame");
        f
    }

    fn write_frame(win: u64, off: u64, data: &[u8]) -> Vec<u8> {
        frame(
            Kind::Write,
            &[win.to_le_bytes(), off.to_le_bytes()].concat(),
            data,
        )
    }

    fn window_bytes(state: &WorkerState, win: u64) -> Vec<u8> {
        let mem = state.window(win).expect("window");
        let g = mem.lock_range(0..mem.len(), false).expect("in bounds");
        g.as_slice().to_vec()
    }

    #[test]
    fn host_of_another_version_is_refused() {
        let state = WorkerState::new(test_registry());
        let mut v2 = vec![0u8];
        v2.extend_from_slice(&(proto::VERSION - 1).to_le_bytes());
        // This version, cut short in its `cores` field.
        let mut short = vec![3u8];
        short.extend_from_slice(&proto::VERSION.to_le_bytes());
        short.extend_from_slice(&[30, 0, 0, 0, 60]);
        for (hello, want) in [(v2, "version mismatch"), (short, "malformed Hello")] {
            let input = [frame(Kind::Hello, &hello, &[]), frame(Kind::Ping, &[], &[])].concat();
            let (result, replies) = serve_bytes(&state, &input);
            assert!(result.is_err(), "the connection ends");
            let [(Kind::Err, msg)] = &replies[..] else {
                panic!("one Err frame and no Pong, got {replies:?}");
            };
            assert!(String::from_utf8_lossy(msg).contains(want), "{want}");
        }
    }

    #[test]
    fn unplaceable_write_is_drained_and_the_connection_stays_in_sync() {
        let state = WorkerState::new(test_registry());
        state.alloc(1, 64).expect("alloc");
        let data = [0xabu8; 48];
        let input = [
            write_frame(9, 0, &data),            // no such window
            write_frame(1, 32, &data),           // runs past the end
            write_frame(1, u64::MAX, &data),     // off + len overflows
            frame(Kind::Write, &[1, 2, 3], &[]), // too short for its head
            write_frame(1, 8, &data),            // fits
            write_frame(1, 64, &[]),             // empty, at the very end
            frame(Kind::Ping, &[], &[]),
        ]
        .concat();
        let (result, replies) = serve_bytes(&state, &input);
        result.expect("every frame was well-formed");
        let text = |p: &[u8]| String::from_utf8_lossy(p).into_owned();
        let kinds: Vec<Kind> = replies.iter().map(|(k, _)| *k).collect();
        assert_eq!(
            kinds,
            [
                Kind::Err,
                Kind::Err,
                Kind::Err,
                Kind::Err,
                Kind::WriteAck,
                Kind::WriteAck,
                Kind::Pong
            ]
        );
        assert_eq!(text(&replies[0].1), "no such window 9");
        assert!(text(&replies[1].1).contains("out of bounds"));
        assert!(text(&replies[2].1).contains("out of bounds"));
        assert_eq!(text(&replies[3].1), "malformed Write");
        // The ack is the CRC of the request frame, as the sender computed it.
        let sent = write_frame(1, 8, &data);
        assert_eq!(replies[4].1, sent[sent.len() - 4..]);
        let mut want = vec![0u8; 64];
        want[8..56].fill(0xab);
        assert_eq!(window_bytes(&state, 1), want);
    }

    /// Seeded byte mutation of a `Write` frame on its way into the worker's
    /// receive-into-window path: the worker never panics and never
    /// acknowledges bytes that are not the sender's.
    #[test]
    fn mutated_write_frames_are_never_acknowledged() {
        let state = WorkerState::new(test_registry());
        state.alloc(1, 512).expect("alloc");
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..6 {
            let data: Vec<u8> = (0..1 + next() % 200).map(|_| next() as u8).collect();
            let good = write_frame(1, next() % 300, &data);
            let ping = frame(Kind::Ping, &[], &[]);

            for cut in 0..good.len() {
                // A torn header reads as a hang-up, a torn payload as an
                // error; neither produces a reply.
                let (_, replies) = serve_bytes(&state, &good[..cut]);
                assert!(replies.is_empty(), "cut {cut}: {replies:?}");
            }
            for bit in 0..good.len() * 8 {
                let mut bad = good.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                bad.extend_from_slice(&ping);
                let (result, replies) = serve_bytes(&state, &bad);
                assert!(result.is_err(), "bit {bit}: the connection must end");
                assert!(
                    replies.iter().all(|(k, _)| *k == Kind::Err),
                    "bit {bit}: no ack and no Pong after a corrupt frame, got {replies:?}"
                );
            }
            // Lengths past the bound are refused from the header alone.
            let mut bad = good.clone();
            bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
            let (result, replies) = serve_bytes(&state, &bad);
            assert!(result.is_err() && replies.is_empty());

            // And the untouched frame is stored and acknowledged.
            let (result, replies) = serve_bytes(&state, &[good.clone(), ping].concat());
            result.expect("clean session");
            assert_eq!(
                replies[0],
                (Kind::WriteAck, good[good.len() - 4..].to_vec())
            );
            assert_eq!(replies[1].0, Kind::Pong);
        }
    }

    fn alloc_frame(win: u64, len: u64) -> Vec<u8> {
        frame(
            Kind::Alloc,
            &[win.to_le_bytes(), len.to_le_bytes()].concat(),
            &[],
        )
    }

    /// Seeded mutation of an `Alloc` frame, whose `len` sizes memory on the
    /// peer's word: a well-framed length above the cap gets an `Err` frame,
    /// allocates nothing and leaves the connection in sync; a frame torn or
    /// flipped in flight is never acknowledged.
    #[test]
    fn alloc_len_from_the_wire_never_sizes_an_allocation_above_the_cap() {
        let state = WorkerState::new(test_registry());
        let mut next = xorshift(0xd1b5_4a32_d192_ed03);
        let ping = frame(Kind::Ping, &[], &[]);
        let mut lens = vec![proto::MAX_WINDOW + 1, 1 << 40, u64::MAX];
        lens.extend(
            (0..40).map(|_| (proto::MAX_WINDOW + 1).saturating_add(next() >> (next() % 64))),
        );
        for len in lens {
            let input = [alloc_frame(1, len), ping.clone()].concat();
            let (result, replies) = serve_bytes(&state, &input);
            result.expect("clean session");
            let [(Kind::Err, msg), (Kind::Pong, _)] = &replies[..] else {
                panic!("len {len}: want Err then Pong, got {replies:?}");
            };
            assert!(String::from_utf8_lossy(msg).contains("cap"), "len {len}");
            assert_eq!(state.windows.read().len(), 0, "len {len} allocated");
        }
        // Too short for its two fields.
        let (result, replies) = serve_bytes(&state, &frame(Kind::Alloc, &[0; 15], &[]));
        result.expect("clean session");
        assert_eq!(replies, [(Kind::Err, b"malformed Alloc".to_vec())]);

        for _ in 0..6 {
            let len = 1 + next() % (64 << 10);
            let good = alloc_frame(1, len);
            for cut in 0..good.len() {
                let (_, replies) = serve_bytes(&state, &good[..cut]);
                assert!(replies.is_empty(), "cut {cut}: {replies:?}");
            }
            for bit in 0..good.len() * 8 {
                let mut bad = good.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                bad.extend_from_slice(&ping);
                let (result, replies) = serve_bytes(&state, &bad);
                assert!(result.is_err(), "bit {bit}: the connection must end");
                assert!(
                    replies.iter().all(|(k, _)| *k == Kind::Err),
                    "bit {bit}: no ack and no Pong after a corrupt frame, got {replies:?}"
                );
            }
            assert_eq!(state.windows.read().len(), 0, "a corrupt Alloc allocated");
            // And the untouched frame allocates exactly what it names.
            let free = frame(Kind::Free, &1u64.to_le_bytes(), &[]);
            let (result, replies) = serve_bytes(&state, &good);
            result.expect("clean session");
            assert_eq!(replies, [(Kind::Ack, vec![])]);
            assert_eq!(window_bytes(&state, 1), vec![0u8; len as usize]);
            let (_, replies) = serve_bytes(&state, &free);
            assert_eq!(replies, [(Kind::Ack, vec![])]);
        }
    }

    /// The host enforces the same cap: a pool allocation above it on a
    /// remote node is refused before the worker hears of it, takes no
    /// window and counts no bytes; the next one registers as usual.
    #[test]
    fn remote_pool_alloc_above_the_cap_is_refused_on_the_host() {
        use crate::pool::{BufferPool, PoolStats, WindowTooLarge};
        use hs_fabric::{Fabric, NodeId, Pacer};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let ep = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
        let state = WorkerState::new(test_registry());
        let serving = state.clone();
        std::thread::spawn(move || accept_tcp(listener, serving));
        let fabric =
            Fabric::new_with_endpoints(2, vec![Pacer::unpaced()], ChaosHub::default(), &[(1, ep)])
                .expect("connect");
        let pool = BufferPool::new();
        let len = proto::MAX_WINDOW as usize + 1;
        for pooled in [true, false] {
            let refused = pool.alloc(&fabric, NodeId(1), len, pooled);
            assert_eq!(refused.map(|w| w.id()), Err(WindowTooLarge(len)));
        }
        assert_eq!(pool.stats(), PoolStats::default());
        assert_eq!(state.windows.read().len(), 0);
        let w = pool.alloc(&fabric, NodeId(1), 5000, true).expect("alloc");
        assert_eq!(fabric.win_len(w.id()), Some(8192));
        assert_eq!(pool.stats().registered_bytes, 8192);
        assert_eq!(state.windows.read().len(), 1);
    }

    fn hello_frame(width: u32, cores: u32) -> Vec<u8> {
        let hello = Hello {
            role: 3,
            width,
            cores,
        };
        frame(Kind::Hello, &hello.encode(), &[])
    }

    /// The lanes of a task run on a connection that said `hello` (none:
    /// no `Hello` at all), on a worker with `cores` cores. The `lanes`
    /// kernel writes its lane count into its operand.
    fn lanes_on(cores: usize, hello: Option<(u32, u32)>) -> usize {
        let registry = test_registry();
        registry.register(
            "lanes",
            Arc::new(|ctx: &mut RunCtx| {
                let lanes = ctx.workgroup().width() as u64;
                ctx.buf_mut(0).copy_from_slice(&lanes.to_le_bytes());
            }),
        );
        let state = WorkerState::with_host_cores(registry, cores);
        state.alloc(1, 8).expect("alloc");
        let exec = proto::encode_exec("lanes", &[], 7, &[(1, 0, 8, true)]);
        let mut input = hello.map_or(vec![], |(w, c)| hello_frame(w, c));
        input.extend(frame(Kind::Exec, &exec, &[]));
        let (result, replies) = serve_bytes(&state, &input);
        result.expect("clean session");
        let want_acks = usize::from(hello.is_some());
        assert_eq!(replies.len(), want_acks + 1, "{replies:?}");
        assert_eq!(
            replies[want_acks],
            (Kind::ExecAck, vec![ExecStatus::Ok as u8])
        );
        let lanes = window_bytes(&state, 1);
        u64::from_le_bytes(lanes.try_into().expect("8 bytes")) as usize
    }

    /// A connection's lanes are the in-process executor's rule over the
    /// width and card cores of its `Hello`, held to the worker's cores
    /// whatever the peer sent.
    #[test]
    fn worker_lanes_follow_the_lane_rule() {
        // (width, card cores, worker cores) -> lanes.
        for ((width, cores, host), want) in [
            ((30, 60, 2), 1),
            ((60, 60, 2), 2),
            ((30, 60, 28), 14),
            ((14, 28, 1024), 14),
        ] {
            let lanes = lanes_on(host, Some((width, cores)));
            assert_eq!(lanes, want, "width {width} of {cores} on {host} cores");
            assert_eq!(lanes, physical_lanes(width, cores, host));
        }
        // No Hello: one lane.
        assert_eq!(lanes_on(2, None), 1);
        // Hostile values: a mask wider than the card it names would get
        // more lanes than the machine has by the rule alone.
        let mut next = xorshift(0x51ed_270b_0a1c_3f4d);
        let mut hellos = vec![(u32::MAX, 0), (u32::MAX, 1), (0, 0), (0, u32::MAX), (5, 1)];
        hellos.extend((0..20).map(|_| ((next() >> (next() % 64)) as u32, next() as u32 % 64)));
        for host in [1usize, 2, 5] {
            for &(width, cores) in &hellos {
                let lanes = lanes_on(host, Some((width, cores)));
                assert!(
                    (1..=host).contains(&lanes),
                    "width {width} of {cores} on {host} cores: {lanes} lanes"
                );
            }
        }
    }

    /// Seeded mutation of an `Exec` frame's `width` field: the worker sizes
    /// lanes from the connection's `Hello` alone, so every value gets an
    /// `ExecAck`, the same lanes and the same bytes.
    #[test]
    fn exec_width_from_the_wire_never_sizes_a_pool() {
        let registry = test_registry();
        // Expands over the connection's pool: byte i becomes i + 1; the
        // last byte is the lane count.
        registry.register(
            "stamp",
            Arc::new(|ctx: &mut RunCtx| {
                let wg = ctx.workgroup().clone();
                let buf = ctx.buf_mut(0);
                wg.par_chunks_mut(buf, 16, |idx, chunk| {
                    for (o, b) in chunk.iter_mut().enumerate() {
                        *b = (idx * 16 + o + 1) as u8;
                    }
                });
                *buf.last_mut().expect("non-empty") = wg.width() as u8;
            }),
        );
        let len = 200u64;
        let mut next = xorshift(0x2545_f491_4f6c_dd1d);
        for cores in [1usize, 2, 5] {
            let state = WorkerState::with_host_cores(registry.clone(), cores);
            state.alloc(1, len).expect("alloc");
            let p = cores as u32;
            let mut widths = vec![0, 1, p, p + 1, u32::MAX];
            widths.extend((0..40).map(|_| (next() >> (next() % 64)) as u32));
            let mut want: Vec<u8> = (1..=len as u8).collect();
            *want.last_mut().expect("non-empty") = cores as u8;
            for width in widths {
                state.zero(1).expect("zero");
                let bufs = [(1u64, 0u64, len, true)];
                let exec = proto::encode_exec("stamp", &[], width, &bufs);
                let input = [hello_frame(60, 60), frame(Kind::Exec, &exec, &[])].concat();
                let (result, replies) = serve_bytes(&state, &input);
                result.expect("clean session");
                assert_eq!(
                    replies[1..],
                    [(Kind::ExecAck, vec![ExecStatus::Ok as u8])],
                    "width {width} on {cores} cores"
                );
                assert_eq!(window_bytes(&state, 1), want, "width {width}");
            }
        }
    }

    /// A remote card's two streams compute side by side in the worker: each
    /// stream's task waits (up to 2 s) for the other's to arrive, which it
    /// can only do if the worker runs them at the same time — one exec
    /// connection for the card would queue the second behind the first.
    #[test]
    fn two_card_streams_compute_side_by_side_in_the_worker() {
        use crate::{CoiRuntime, EngineId};
        use hs_fabric::Pacer;
        use std::sync::atomic::AtomicUsize;
        use std::time::{Duration, Instant};

        let registry = test_registry();
        let arrived = Arc::new(AtomicUsize::new(0));
        let seen = arrived.clone();
        registry.register(
            "rendezvous",
            Arc::new(move |ctx: &mut RunCtx| {
                seen.fetch_add(1, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(2);
                while seen.load(Ordering::SeqCst) < 2 {
                    assert!(
                        Instant::now() < deadline,
                        "the other stream's task never ran"
                    );
                    std::thread::sleep(Duration::from_millis(1));
                }
                ctx.buf_mut(0).fill(1);
            }),
        );
        let addr = spawn_tcp_server("127.0.0.1:0", registry).expect("bind");
        let ep = Endpoint::Tcp(addr.to_string());
        let chaos = ChaosHub::default();
        let rt = CoiRuntime::new_with_endpoints(vec![Pacer::unpaced()], chaos.clone(), &[(1, ep)])
            .expect("connect");
        let card = EngineId(1);
        let streams = [0, 1].map(|_| rt.pipeline_create_stream(card, 30, 60, None));
        let wins = [0, 1].map(|_| rt.buffer_alloc(card, 8, false));
        let events: Vec<_> = streams
            .iter()
            .zip(&wins)
            .map(|(p, w)| {
                p.run(
                    "rendezvous",
                    bytes::Bytes::new(),
                    vec![(w.id(), 0..8, true)],
                )
            })
            .collect();
        for (i, ev) in events.iter().enumerate() {
            ev.wait()
                .unwrap_or_else(|e| panic!("stream {i}'s task: {e}"));
        }
        assert_eq!(arrived.load(Ordering::SeqCst), 2);
        assert!(chaos.dead_cards().is_empty());
    }

    /// A TCP relay in front of a real worker that flips one bit of the
    /// `nth` byte the host sends on its H2D channel, and the count of
    /// connections it has accepted.
    fn corrupting_relay(worker: SocketAddr, nth: usize) -> (SocketAddr, Arc<AtomicUsize>) {
        use std::net::{Shutdown, TcpStream};
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("bound");
        let accepted = Arc::new(AtomicUsize::new(0));
        let counter = accepted.clone();
        std::thread::spawn(move || {
            for down in listener.incoming() {
                counter.fetch_add(1, Ordering::SeqCst);
                let (Ok(down), Ok(up)) = (down, TcpStream::connect(worker)) else {
                    return;
                };
                let pump = move |mut from: TcpStream, mut to: TcpStream, corrupt: bool| {
                    let (mut buf, mut seen, mut h2d) = (vec![0u8; 16 << 10], 0usize, false);
                    while let Ok(n @ 1..) = from.read(&mut buf) {
                        // Byte 9 of a connection is its Hello's role.
                        h2d |= corrupt && seen <= 9 && 9 < seen + n && buf[9 - seen] == 1;
                        if h2d && seen <= nth && nth < seen + n {
                            buf[nth - seen] ^= 0x04;
                        }
                        seen += n;
                        if to.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                    let _ = to.shutdown(Shutdown::Both);
                };
                let (down2, up2) = (
                    down.try_clone().expect("clone"),
                    up.try_clone().expect("clone"),
                );
                std::thread::spawn(move || pump(down, up, true));
                std::thread::spawn(move || pump(up2, down2, false));
            }
        });
        (addr, accepted)
    }

    #[test]
    fn byte_flipped_in_flight_loses_the_card() {
        let worker = spawn_tcp_server("127.0.0.1:0", test_registry()).expect("bind");
        // Past the Hello (24 bytes), the Write's envelope and head, well
        // into the first payload.
        let (relay, _) = corrupting_relay(worker, 24 + 25 + 1000);
        let chaos = ChaosHub::default();
        let t = RemoteDomain::connect(&Endpoint::Tcp(relay.to_string()), 1, chaos.clone())
            .expect("connect");
        t.alloc(1, 4096).expect("alloc");
        let err = t
            .write(1, 0, &[0x55u8; 4096])
            .expect_err("corrupt in flight");
        // The worker saw the CRC mismatch and hung up; the host reads that
        // as a lost card, which is what degradation consumes.
        assert!(
            matches!(err, hs_fabric::transport::TransportError::Closed(_)),
            "{err}"
        );
        assert_eq!(chaos.dead_cards(), vec![1]);
        assert!(t.read(1, 0, &mut [0u8; 8]).is_err(), "poisoned: fails fast");
    }

    /// A stream's exec connection is the domain's: a card lost on another
    /// connection fails it fast, and `reconnect` re-opens it, with its own
    /// `Hello`, on the worker that replaces the lost one.
    #[test]
    fn exec_connections_share_the_domains_poisoning_and_reconnect() {
        use hs_chaos::RetryPolicy;
        let first = spawn_tcp_server("127.0.0.1:0", test_registry()).expect("bind");
        let (relay, _) = corrupting_relay(first, 24 + 25 + 1000);
        let chaos = ChaosHub::default();
        let t = RemoteDomain::connect(&Endpoint::Tcp(relay.to_string()), 1, chaos.clone())
            .expect("connect");
        let conn = t.open_exec(30, 60).expect("exec connection");
        let add1 = ExecRequest {
            name: "add1",
            args: &[],
            width: 30,
            bufs: &[(7, 0, 16, true)],
        };
        t.alloc(7, 16).expect("alloc");
        assert_eq!(conn.exec(&add1), Ok(ExecReply::Done));
        t.write(1, 0, &[0x55u8; 4096])
            .expect_err("corrupt in flight");
        assert_eq!(chaos.dead_cards(), vec![1]);
        assert!(
            matches!(
                conn.exec(&add1),
                Err(hs_fabric::transport::TransportError::Closed(_))
            ),
            "a lost card's exec connection fails fast"
        );
        assert!(t.open_exec(30, 60).is_err(), "and opens no more");

        let second = spawn_tcp_server("127.0.0.1:0", test_registry()).expect("bind");
        t.reconnect(
            &Endpoint::Tcp(second.to_string()),
            &RetryPolicy::standard(3),
        )
        .expect("reconnect");
        t.alloc(7, 16).expect("alloc on the new worker");
        t.write(7, 0, &[41u8; 16]).expect("write");
        assert_eq!(conn.exec(&add1), Ok(ExecReply::Done));
        let mut out = [0u8; 16];
        t.read(7, 0, &mut out).expect("read");
        assert_eq!(out, [42u8; 16]);
    }

    /// A pipeline created while its card is down has no exec connection:
    /// its tasks fail as `CardLost`. After the card's `reconnect` its first
    /// task opens the stream's connection and the later ones reuse it.
    #[test]
    fn pipeline_created_on_a_lost_card_runs_after_reconnect() {
        use crate::{CoiRuntime, EngineId};
        use hs_chaos::RetryPolicy;
        use hs_fabric::Pacer;
        let first = spawn_tcp_server("127.0.0.1:0", test_registry()).expect("bind");
        let (relay, _) = corrupting_relay(first, 24 + 25 + 1000);
        let chaos = ChaosHub::default();
        let ep = Endpoint::Tcp(relay.to_string());
        let rt = CoiRuntime::new_with_endpoints(vec![Pacer::unpaced()], chaos.clone(), &[(1, ep)])
            .expect("connect");
        let card = EngineId(1);
        let t = rt.fabric().transport(card.node()).clone();
        t.write(1, 0, &[0x55u8; 4096])
            .expect_err("corrupt in flight");
        assert_eq!(chaos.dead_cards(), vec![1]);
        let pipe = rt.pipeline_create_stream(card, 30, 60, None);
        let lost = pipe.run("add1", bytes::Bytes::new(), vec![]).wait();
        assert_eq!(lost, Err(FailureCause::CardLost { card: 1 }));

        let second = spawn_tcp_server("127.0.0.1:0", test_registry()).expect("bind");
        let (relay, accepted) = corrupting_relay(second, usize::MAX);
        let domain = t.as_remote().expect("a remote card");
        domain
            .reconnect(&Endpoint::Tcp(relay.to_string()), &RetryPolicy::standard(3))
            .expect("reconnect");
        let w = rt.buffer_alloc(card, 16, false);
        t.write(w.id().raw(), 0, &[41u8; 16]).expect("write");
        for i in 0..3 {
            pipe.run("add1", bytes::Bytes::new(), vec![(w.id(), 0..16, true)])
                .wait()
                .unwrap_or_else(|e| panic!("task {i} after reconnect: {e}"));
        }
        let mut out = [0u8; 16];
        t.read(w.id().raw(), 0, &mut out).expect("read");
        assert_eq!(out, [44u8; 16]);
        // The three fixed connections and the stream's one exec connection.
        assert_eq!(accepted.load(Ordering::SeqCst), 4);
    }
}
