//! The transport abstraction: how a node's windows are reached.
//!
//! Every fabric node is backed by a [`Transport`]. The host and in-process
//! cards use [`LocalTransport`] — the original zero-copy arena, where
//! `window()` hands back the `Arc<WindowMem>` and DMA is a `memcpy`. A
//! remote card uses [`crate::remote::RemoteDomain`]: its windows live in a
//! separate worker process and every operation is a framed request over a
//! byte stream (see [`crate::proto`]).
//!
//! The contract, which [`crate::Fabric`] relies on:
//!
//! * `window()` returns `Some` **only** for local transports; remote memory
//!   is never directly addressable (that is the point).
//! * `write`/`read` move payload bytes and nothing else: the fabric runs
//!   them on the card's DMA channel ([`crate::dma::DmaEngine::run`]), which
//!   counts them, and no layer below the sim prices them.
//! * Errors are sticky for [`TransportError::Closed`]: once a remote peer
//!   is gone the transport poisons itself and every subsequent call fails
//!   fast without touching the socket — a dead card must not stall drains
//!   or waits.
//! * Internal locks (connection mutexes, window maps) are leaves: no
//!   transport method calls back into the fabric or upper layers, so they
//!   take no `LockClass` (same policy as `WindowMem`'s range table).

use crate::window::WindowMem;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// How to reach a remote worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix domain socket path (same machine; the default).
    Uds(std::path::PathBuf),
    /// TCP address (`host:port`) — same framing, one machine hop later.
    Tcp(String),
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Uds(p) => write!(f, "uds:{}", p.display()),
            Endpoint::Tcp(a) => write!(f, "tcp:{a}"),
        }
    }
}

/// Transport-level failures.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone (connection error, EOF, or an earlier failure
    /// poisoned the transport). Maps to `FailureCause::CardLost`.
    Closed(String),
    /// The peer violated the framing protocol (bad magic/CRC/layout).
    Protocol(String),
    /// The peer processed the request and reported failure.
    Remote(String),
    /// The peer has no such window registered.
    NoSuchWindow(u64),
    /// Range outside the window.
    OutOfBounds,
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed(m) => write!(f, "transport closed: {m}"),
            TransportError::Protocol(m) => write!(f, "protocol violation: {m}"),
            TransportError::Remote(m) => write!(f, "remote error: {m}"),
            TransportError::NoSuchWindow(w) => write!(f, "no such remote window {w}"),
            TransportError::OutOfBounds => write!(f, "remote window access out of bounds"),
        }
    }
}
impl std::error::Error for TransportError {}

/// A compute request routed to the node owning the operands.
pub struct ExecRequest<'a> {
    pub name: &'a str,
    pub args: &'a [u8],
    /// Expansion width for the sink-side workgroup.
    pub width: u32,
    /// Raw window id, byte range, write? — ids are node-local.
    pub bufs: &'a [(u64, u64, u64, bool)],
}

/// Outcome of an `Exec` on a card stream's connection
/// ([`crate::remote::ExecConn::exec`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExecReply {
    /// Ran to completion on the sink.
    Done,
    /// The worker's registry has no function of that name; the host fails
    /// the task as an unregistered name fails it in-process.
    UnknownFn,
    /// Ran and failed (panic or exec error).
    Failed(String),
}

/// Cumulative per-link activity (remote transports; zeros for local).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Frame bytes sent host→worker (headers + payloads).
    pub tx_bytes: u64,
    /// Frame bytes received worker→host.
    pub rx_bytes: u64,
    /// Round-trips completed.
    pub reqs: u64,
    /// Most recent request round-trip time, ns.
    pub rtt_ns: u64,
}

/// Backend for one fabric node's windows. See the module docs for the
/// contract; all methods are callable concurrently from DMA queues,
/// pipeline sinks and the front-end.
pub trait Transport: Send + Sync {
    /// `"local"`, `"uds"`, `"tcp"` — for diagnostics and metrics.
    fn kind(&self) -> &'static str;

    /// Does this node's memory live outside the process?
    fn is_remote(&self) -> bool;

    /// Downcast to the worker-process transport, when this is one. The
    /// readmission path (`HStreams::readmit_remote`) needs the concrete
    /// type to drive a reconnect; everything else stays behind the trait.
    fn as_remote(&self) -> Option<&crate::remote::RemoteDomain> {
        None
    }

    /// Register a window of `len` bytes under the (fabric-chosen) id.
    fn alloc(&self, win: u64, len: usize) -> Result<(), TransportError>;

    /// Unregister a window; `Ok(false)` if it was not registered.
    fn free(&self, win: u64) -> Result<bool, TransportError>;

    /// Zero a window in place (buffer-pool reuse must not leak stale data).
    fn zero(&self, win: u64) -> Result<(), TransportError>;

    /// The window's arena — local transports only; `None` on remote.
    fn window(&self, win: u64) -> Option<Arc<WindowMem>>;

    /// Deliver `data` into `win` at `off`.
    fn write(&self, win: u64, off: usize, data: &[u8]) -> Result<(), TransportError>;

    /// Fetch `out.len()` bytes from `win` at `off`.
    fn read(&self, win: u64, off: usize, out: &mut [u8]) -> Result<(), TransportError>;

    /// Round-trip probe.
    fn ping(&self) -> Result<Duration, TransportError>;

    /// Cumulative link activity (all zeros for local transports).
    fn link_stats(&self) -> LinkStats;
}

/// The in-process arena backend: windows are host-RAM `WindowMem`s and the
/// fabric's DMA path copies through them directly — zero additional copies,
/// exactly the pre-transport behaviour.
#[derive(Default)]
pub struct LocalTransport {
    windows: Mutex<HashMap<u64, Arc<WindowMem>>>,
}

impl LocalTransport {
    pub fn new() -> LocalTransport {
        LocalTransport::default()
    }
}

impl Transport for LocalTransport {
    fn kind(&self) -> &'static str {
        "local"
    }

    fn is_remote(&self) -> bool {
        false
    }

    fn alloc(&self, win: u64, len: usize) -> Result<(), TransportError> {
        self.windows
            .lock()
            .insert(win, Arc::new(WindowMem::new(len)));
        Ok(())
    }

    fn free(&self, win: u64) -> Result<bool, TransportError> {
        Ok(self.windows.lock().remove(&win).is_some())
    }

    fn zero(&self, win: u64) -> Result<(), TransportError> {
        let mem = self.window(win).ok_or(TransportError::NoSuchWindow(win))?;
        let mut g = mem
            .lock_range(0..mem.len(), true)
            .map_err(|_| TransportError::OutOfBounds)?;
        g.as_mut_slice().fill(0);
        Ok(())
    }

    fn window(&self, win: u64) -> Option<Arc<WindowMem>> {
        self.windows.lock().get(&win).cloned()
    }

    fn write(&self, win: u64, off: usize, data: &[u8]) -> Result<(), TransportError> {
        let mem = self.window(win).ok_or(TransportError::NoSuchWindow(win))?;
        let mut g = mem
            .lock_range(off..off + data.len(), true)
            .map_err(|_| TransportError::OutOfBounds)?;
        g.as_mut_slice().copy_from_slice(data);
        Ok(())
    }

    fn read(&self, win: u64, off: usize, out: &mut [u8]) -> Result<(), TransportError> {
        let mem = self.window(win).ok_or(TransportError::NoSuchWindow(win))?;
        let g = mem
            .lock_range(off..off + out.len(), false)
            .map_err(|_| TransportError::OutOfBounds)?;
        out.copy_from_slice(g.as_slice());
        Ok(())
    }

    fn ping(&self) -> Result<Duration, TransportError> {
        Ok(Duration::ZERO)
    }

    fn link_stats(&self) -> LinkStats {
        LinkStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_round_trip_and_zero() {
        let t = LocalTransport::new();
        t.alloc(1, 16).expect("alloc");
        assert_eq!(t.write(1, 4, &[7, 8, 9]), Ok(()));
        let mut out = [0u8; 3];
        t.read(1, 4, &mut out).expect("read");
        assert_eq!(out, [7, 8, 9]);
        t.zero(1).expect("zero");
        t.read(1, 4, &mut out).expect("read");
        assert_eq!(out, [0, 0, 0]);
    }

    #[test]
    fn local_missing_window_and_bounds() {
        let t = LocalTransport::new();
        assert_eq!(t.zero(5), Err(TransportError::NoSuchWindow(5)));
        t.alloc(1, 8).expect("alloc");
        assert_eq!(t.write(1, 4, &[0u8; 8]), Err(TransportError::OutOfBounds));
        assert!(t.free(1).expect("free"));
        assert!(!t.free(1).expect("free twice"));
        assert!(t.window(1).is_none());
    }

    #[test]
    fn local_is_not_remote_and_execs_nothing() {
        let t = LocalTransport::new();
        assert!(!t.is_remote());
        assert_eq!(t.kind(), "local");
        assert_eq!(t.link_stats(), LinkStats::default());
    }
}
