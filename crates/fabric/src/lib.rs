//! # hs-fabric — SCIF-like transport substrate
//!
//! The hStreams paper layers its library over COI, which in the PCIe case
//! sits on SCIF (Symmetric Communications Interface), "which abstracts
//! low-level network hardware". This crate is that bottom layer for the
//! reproduction: since no Xeon Phi exists, each *node* is a memory arena
//! living in host RAM, and DMA between nodes is a real `memcpy` that can be
//! **paced** to PCIe-like bandwidth/latency so that real-mode runs exhibit
//! the same overlap behaviour the paper measures.
//!
//! Components:
//!
//! * [`Fabric`] / [`NodeId`] — node enumeration (node 0 is the host).
//! * [`window::WindowMem`] — registered memory windows with a built-in
//!   **range lock**: concurrent readers of one range are allowed, writers get
//!   exclusivity; this makes out-of-order DMA sound even if an upper layer
//!   mis-schedules (it blocks instead of racing).
//! * [`dma::Pacer`] — converts a [`hs_machine::LinkSpec`] into real-time
//!   pacing for DMA operations (per-direction serialization like a DMA
//!   channel).

pub mod dma;
pub mod proto;
pub mod remote;
pub mod transport;
pub mod window;

pub use dma::{DmaEngine, Pacer};
pub use remote::{ExecConn, RemoteDomain};
pub use transport::{Endpoint, LinkStats, LocalTransport, Transport, TransportError};
pub use window::{RangeGuard, WindowId, WindowMem};

use hs_chaos::{ChaosHub, FailureCause};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Identifies a fabric node. Node 0 is the host.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord, Default)]
pub struct NodeId(pub u16);

impl NodeId {
    pub const HOST: NodeId = NodeId(0);

    pub fn is_host(self) -> bool {
        self == Self::HOST
    }
}

/// Per-node control block: the transport backing the node's windows, the
/// host-side window-id allocator, and the authoritative length table
/// (bounds checks must not require a wire round-trip, and remote windows
/// have no local `WindowMem` to ask).
struct NodeCtl {
    transport: Arc<dyn Transport>,
    next_window: AtomicU64,
    lens: Mutex<HashMap<u64, usize>>,
}

impl NodeCtl {
    fn local() -> NodeCtl {
        NodeCtl {
            transport: Arc::new(LocalTransport::new()),
            next_window: AtomicU64::new(1),
            lens: Mutex::new(HashMap::new()),
        }
    }
}

/// The fabric: a set of nodes, each with registered memory windows behind a
/// [`Transport`], plus DMA engines per (node, direction).
pub struct Fabric {
    nodes: Vec<NodeCtl>,
    engines: Vec<DmaEngine>, // two per non-host node: [h2d, d2h]
}

impl Fabric {
    /// Create a fabric of `n_nodes` nodes (>= 1; node 0 is the host), all
    /// in-process. Card nodes get a pair of DMA engines paced by `pacer`
    /// (use [`Pacer::unpaced`] for functional tests).
    pub fn new(n_nodes: usize, pacer: Pacer) -> Fabric {
        let per_card = vec![pacer; n_nodes.saturating_sub(1)];
        Fabric::new_with_endpoints(n_nodes, per_card, ChaosHub::default(), &[])
            .expect("no endpoint to connect: in-process construction is infallible")
    }

    /// The full constructor. Each card node gets its *own* pacer — required
    /// for heterogeneous platforms where cards sit on different links (a
    /// card's `DomainCfg::link`): `per_card[i]`
    /// paces node `i + 1`, both directions sharing the spec. `chaos` is the
    /// fault-injection hub the DMA channels consult (one relaxed load per op
    /// when disarmed). Each `(node_index, endpoint)` pair backs that card
    /// node with a connected [`RemoteDomain`] worker instead of the default
    /// in-process [`LocalTransport`]; node 0 (the host) must stay local, and
    /// an empty slice is the all-in-process case. Connection failures
    /// surface here, at init, rather than on first use.
    pub fn new_with_endpoints(
        n_nodes: usize,
        per_card: Vec<Pacer>,
        chaos: ChaosHub,
        endpoints: &[(usize, Endpoint)],
    ) -> std::io::Result<Fabric> {
        assert!(n_nodes >= 1, "fabric needs at least the host node");
        assert_eq!(
            per_card.len(),
            n_nodes - 1,
            "need exactly one pacer per card node"
        );
        let mut nodes: Vec<NodeCtl> = (0..n_nodes).map(|_| NodeCtl::local()).collect();
        for (idx, ep) in endpoints {
            assert!(*idx != 0, "the host node cannot be remote");
            assert!(*idx < n_nodes, "endpoint for nonexistent node {idx}");
            nodes[*idx].transport =
                Arc::new(RemoteDomain::connect(ep, *idx as u32, chaos.clone())?);
        }
        let engines = per_card
            .iter()
            .enumerate()
            .flat_map(|(i, p)| {
                let card = (i + 1) as u32;
                [
                    DmaEngine::new_chaos(p.clone(), true, card, chaos.clone()),
                    DmaEngine::new_chaos(p.clone(), false, card, chaos.clone()),
                ]
            })
            .collect();
        Ok(Fabric { nodes, engines })
    }

    /// The transport backing `node`'s windows.
    pub fn transport(&self, node: NodeId) -> &Arc<dyn Transport> {
        &self.nodes[node.0 as usize].transport
    }

    /// Does `node`'s memory live in another process?
    pub fn is_remote(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].transport.is_remote()
    }

    /// Register a window of `len` bytes on `node`, zero-initialized.
    ///
    /// Registration on a *dead* remote node still yields a valid id — the
    /// failure surfaces (as `CardLost`) on the first transfer or compute
    /// touching the window, which is where the degradation machinery
    /// observes and handles it.
    pub fn register(&self, node: NodeId, len: usize) -> WindowId {
        let ctl = &self.nodes[node.0 as usize];
        let id = ctl.next_window.fetch_add(1, Ordering::Relaxed);
        // Errors here are only reachable on remote transports (see above).
        let _ = ctl.transport.alloc(id, len);
        ctl.lens.lock().insert(id, len);
        WindowId { node, id }
    }

    /// Unregister (free) a window. Outstanding `Arc` references keep local
    /// memory alive; new lookups fail.
    pub fn unregister(&self, win: WindowId) -> bool {
        let ctl = &self.nodes[win.node.0 as usize];
        let known = ctl.lens.lock().remove(&win.id).is_some();
        match ctl.transport.free(win.id) {
            Ok(freed) => freed,
            // A dead worker frees nothing, but host-side bookkeeping is
            // gone either way; report what the caller can still act on.
            Err(_) => known,
        }
    }

    /// Look up a window's memory (local transports only — remote windows
    /// are reachable through [`Fabric::dma_copy`] and transport I/O, never
    /// as a mapped arena).
    pub fn window(&self, win: WindowId) -> Option<Arc<WindowMem>> {
        self.nodes[win.node.0 as usize].transport.window(win.id)
    }

    /// Registered length of a window, from host-side bookkeeping.
    pub fn win_len(&self, win: WindowId) -> Option<usize> {
        self.nodes[win.node.0 as usize]
            .lens
            .lock()
            .get(&win.id)
            .copied()
    }

    /// Zero a window in place (pool reuse), wherever it lives.
    pub fn zero(&self, win: WindowId) -> Result<(), FabricError> {
        self.nodes[win.node.0 as usize]
            .transport
            .zero(win.id)
            .map_err(|e| self.transport_err(win, e))
    }

    /// Map a transport failure on `win`'s node to a fabric error: a gone
    /// peer is a literal lost card; everything else is an exec failure.
    fn transport_err(&self, win: WindowId, e: TransportError) -> FabricError {
        match e {
            // The poisoning site already logged the reason on the chaos hub.
            TransportError::Closed(_) => FabricError::Faulted(FailureCause::CardLost {
                card: win.node.0 as u32,
            }),
            TransportError::NoSuchWindow(_) => FabricError::NoSuchWindow(win),
            TransportError::OutOfBounds => FabricError::OutOfBounds,
            other => FabricError::Faulted(FailureCause::Exec(format!(
                "transport to node {}: {other}",
                win.node.0
            ))),
        }
    }

    /// Bounds-check a remote access against host-side bookkeeping.
    fn check_remote_bounds(
        &self,
        win: WindowId,
        off: usize,
        len: usize,
    ) -> Result<(), FabricError> {
        let wlen = self.win_len(win).ok_or(FabricError::NoSuchWindow(win))?;
        if off + len > wlen {
            return Err(FabricError::OutOfBounds);
        }
        Ok(())
    }

    /// The DMA engine for transfers toward (`h2d = true`) or from a card
    /// node. Panics for the host node (host-local copies need no engine).
    pub fn engine(&self, card: NodeId, h2d: bool) -> &DmaEngine {
        assert!(!card.is_host(), "no DMA engine for host-local copies");
        let base = (card.0 as usize - 1) * 2;
        &self.engines[base + usize::from(!h2d)]
    }

    /// DMA `len` bytes from `(src, src_off)` to `(dst, dst_off)`. At least
    /// one side is the host: a card↔card copy is
    /// [`FabricError::CardToCard`], as in the paper, which moves data only
    /// between the host and a card. Pacing applies when either side is a
    /// card. Blocks until the copy completes (callers run it on sink and DMA
    /// queues).
    ///
    /// Local copies are a range-locked `memcpy` stretched to the modelled
    /// link time. When the card is remote the payload crosses the transport
    /// and the engine paces the modelled budget *on top of* measured wire
    /// time ([`DmaEngine::run_wire`]).
    pub fn dma_copy(
        &self,
        src: WindowId,
        src_off: usize,
        dst: WindowId,
        dst_off: usize,
        len: usize,
    ) -> Result<(), FabricError> {
        if len == 0 {
            return Ok(());
        }
        if src == dst {
            return Err(FabricError::OverlappingSelfCopy);
        }
        if !src.node.is_host() && !dst.node.is_host() {
            return Err(FabricError::CardToCard);
        }
        if self.is_remote(dst.node) {
            return self.dma_copy_h2d_wire(src, src_off, dst, dst_off, len);
        }
        if self.is_remote(src.node) {
            return self.dma_copy_d2h_wire(src, src_off, dst, dst_off, len);
        }
        let src_mem = self.window(src).ok_or(FabricError::NoSuchWindow(src))?;
        let dst_mem = self.window(dst).ok_or(FabricError::NoSuchWindow(dst))?;
        // Acquire in a canonical global order (window id, then offset) so
        // two concurrent copies with swapped endpoints cannot deadlock.
        let src_first = (src, src_off) <= (dst, dst_off);
        let (rd, mut wr);
        if src_first {
            rd = src_mem
                .lock_range(src_off..src_off + len, false)
                .map_err(|_| FabricError::OutOfBounds)?;
            wr = dst_mem
                .lock_range(dst_off..dst_off + len, true)
                .map_err(|_| FabricError::OutOfBounds)?;
        } else {
            wr = dst_mem
                .lock_range(dst_off..dst_off + len, true)
                .map_err(|_| FabricError::OutOfBounds)?;
            rd = src_mem
                .lock_range(src_off..src_off + len, false)
                .map_err(|_| FabricError::OutOfBounds)?;
        }
        let pace_card = if !dst.node.is_host() {
            Some((dst.node, true))
        } else if !src.node.is_host() {
            Some((src.node, false))
        } else {
            None
        };
        match pace_card {
            Some((card, h2d)) => self
                .engine(card, h2d)
                .run(len, || {
                    wr.as_mut_slice().copy_from_slice(rd.as_slice());
                })
                .map_err(FabricError::Faulted)?,
            None => wr.as_mut_slice().copy_from_slice(rd.as_slice()),
        }
        Ok(())
    }

    /// Local source → remote destination: hold the source range read-locked
    /// for the duration of the wire write (the remote side serializes
    /// conflicting ranges with its own `WindowMem` range locks).
    fn dma_copy_h2d_wire(
        &self,
        src: WindowId,
        src_off: usize,
        dst: WindowId,
        dst_off: usize,
        len: usize,
    ) -> Result<(), FabricError> {
        let src_mem = self.window(src).ok_or(FabricError::NoSuchWindow(src))?;
        self.check_remote_bounds(dst, dst_off, len)?;
        let rd = src_mem
            .lock_range(src_off..src_off + len, false)
            .map_err(|_| FabricError::OutOfBounds)?;
        let t = self.transport(dst.node).clone();
        self.engine(dst.node, true)
            .run_wire(len, || {
                t.write(dst.id, dst_off, rd.as_slice())
                    .map(drop)
                    .map_err(|e| self.transport_err(dst, e).into_cause())
            })
            .map_err(FabricError::Faulted)
    }

    /// Remote source → local destination: hold the destination range
    /// write-locked and fill it straight from the wire reply.
    fn dma_copy_d2h_wire(
        &self,
        src: WindowId,
        src_off: usize,
        dst: WindowId,
        dst_off: usize,
        len: usize,
    ) -> Result<(), FabricError> {
        let dst_mem = self.window(dst).ok_or(FabricError::NoSuchWindow(dst))?;
        self.check_remote_bounds(src, src_off, len)?;
        let mut wr = dst_mem
            .lock_range(dst_off..dst_off + len, true)
            .map_err(|_| FabricError::OutOfBounds)?;
        let t = self.transport(src.node).clone();
        self.engine(src.node, false)
            .run_wire(len, || {
                t.read(src.id, src_off, wr.as_mut_slice())
                    .map(drop)
                    .map_err(|e| self.transport_err(src, e).into_cause())
            })
            .map_err(FabricError::Faulted)
    }
}

/// Errors surfaced by the fabric.
#[derive(Debug, PartialEq)]
pub enum FabricError {
    NoSuchWindow(WindowId),
    OutOfBounds,
    OverlappingSelfCopy,
    /// Both endpoints are cards: data moves only between the host and a
    /// card.
    CardToCard,
    /// An armed chaos plan injected a fault into the DMA channel.
    Faulted(FailureCause),
}

impl FabricError {
    /// The structured failure cause this error maps to.
    pub fn into_cause(self) -> FailureCause {
        match self {
            FabricError::Faulted(c) => c,
            other => FailureCause::Exec(format!("transfer failed: {other}")),
        }
    }
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::NoSuchWindow(w) => write!(f, "no such window {w:?}"),
            FabricError::OutOfBounds => write!(f, "window access out of bounds"),
            FabricError::OverlappingSelfCopy => write!(f, "self-copy within one window"),
            FabricError::CardToCard => write!(f, "card-to-card copy"),
            FabricError::Faulted(c) => write!(f, "dma fault: {c}"),
        }
    }
}
impl std::error::Error for FabricError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric2() -> Fabric {
        Fabric::new(2, Pacer::unpaced())
    }

    #[test]
    fn register_and_lookup() {
        let f = fabric2();
        let w = f.register(NodeId::HOST, 64);
        assert_eq!(f.window(w).map(|m| m.len()), Some(64));
    }

    #[test]
    fn unregister_removes_window() {
        let f = fabric2();
        let w = f.register(NodeId(1), 64);
        assert!(f.unregister(w));
        assert!(!f.unregister(w));
        assert!(f.window(w).is_none());
    }

    #[test]
    fn windows_are_per_node() {
        let f = fabric2();
        let a = f.register(NodeId::HOST, 8);
        let b = f.register(NodeId(1), 8);
        assert_ne!(a, b);
        assert_eq!(a.node, NodeId::HOST);
        assert_eq!(b.node, NodeId(1));
    }

    #[test]
    fn dma_copy_moves_bytes_between_nodes() {
        let f = fabric2();
        let h = f.register(NodeId::HOST, 16);
        let d = f.register(NodeId(1), 16);
        f.window(h)
            .expect("window exists")
            .lock_range(0..16, true)
            .expect("in bounds")
            .as_mut_slice()
            .copy_from_slice(&[7u8; 16]);
        f.dma_copy(h, 0, d, 0, 16).expect("dma ok");
        let mem = f.window(d).expect("window exists");
        let g = mem.lock_range(0..16, false).expect("in bounds");
        assert_eq!(g.as_slice(), &[7u8; 16]);
    }

    #[test]
    fn dma_copy_respects_offsets() {
        let f = fabric2();
        let h = f.register(NodeId::HOST, 8);
        let d = f.register(NodeId(1), 8);
        f.window(h)
            .expect("window exists")
            .lock_range(0..8, true)
            .expect("in bounds")
            .as_mut_slice()
            .copy_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        f.dma_copy(h, 2, d, 4, 3).expect("dma ok");
        let mem = f.window(d).expect("window exists");
        let g = mem.lock_range(0..8, false).expect("in bounds");
        assert_eq!(g.as_slice(), &[0, 0, 0, 0, 3, 4, 5, 0]);
    }

    #[test]
    fn dma_out_of_bounds_is_error() {
        let f = fabric2();
        let h = f.register(NodeId::HOST, 8);
        let d = f.register(NodeId(1), 8);
        assert_eq!(f.dma_copy(h, 4, d, 0, 8), Err(FabricError::OutOfBounds));
    }

    #[test]
    fn dma_to_missing_window_is_error() {
        let f = fabric2();
        let h = f.register(NodeId::HOST, 8);
        let d = f.register(NodeId(1), 8);
        f.unregister(d);
        assert!(matches!(
            f.dma_copy(h, 0, d, 0, 8),
            Err(FabricError::NoSuchWindow(_))
        ));
    }

    #[test]
    fn self_copy_is_rejected() {
        let f = fabric2();
        let h = f.register(NodeId::HOST, 8);
        assert_eq!(
            f.dma_copy(h, 0, h, 4, 4),
            Err(FabricError::OverlappingSelfCopy)
        );
    }

    #[test]
    fn card_to_card_copy_is_refused() {
        let f = Fabric::new(3, Pacer::unpaced());
        let a = f.register(NodeId(1), 8);
        let b = f.register(NodeId(2), 8);
        assert_eq!(f.dma_copy(a, 0, b, 0, 8), Err(FabricError::CardToCard));
        assert_eq!(f.engine(NodeId(1), false).stats().ops, 0);
        assert_eq!(f.engine(NodeId(2), true).stats().ops, 0);
    }

    #[test]
    fn zero_len_copy_is_noop() {
        let f = fabric2();
        let h = f.register(NodeId::HOST, 8);
        let d = f.register(NodeId(1), 8);
        assert_eq!(f.dma_copy(h, 0, d, 0, 0), Ok(()));
    }

    #[test]
    #[should_panic(expected = "no DMA engine")]
    fn host_engine_lookup_panics() {
        let f = fabric2();
        let _ = f.engine(NodeId::HOST, true);
    }

    #[test]
    fn per_card_pacers_differ() {
        use hs_machine::{LinkSpec, Overheads};
        let fast = Pacer::pcie(LinkSpec::pcie_knc(), Overheads::paper());
        let slow_link = LinkSpec {
            latency_us: 40.0,
            h2d_bytes_per_sec: 3.0e9,
            d2h_bytes_per_sec: 3.0e9,
        };
        let slow = Pacer::pcie(slow_link, Overheads::paper());
        let pacers = vec![fast.clone(), slow.clone()];
        let f = Fabric::new_with_endpoints(3, pacers, ChaosHub::default(), &[]).expect("local");
        let mb = 1 << 20;
        assert_eq!(
            f.engine(NodeId(1), true).pacer().target(mb, true),
            fast.target(mb, true)
        );
        assert_eq!(
            f.engine(NodeId(2), true).pacer().target(mb, true),
            slow.target(mb, true)
        );
        assert_ne!(fast.target(mb, true), slow.target(mb, true));
    }

    #[test]
    fn engine_stats_accumulate() {
        let f = fabric2();
        let h = f.register(NodeId::HOST, 64);
        let d = f.register(NodeId(1), 64);
        f.dma_copy(h, 0, d, 0, 64).expect("dma ok");
        f.dma_copy(d, 0, h, 0, 32).expect("dma ok");
        let up = f.engine(NodeId(1), true).stats();
        let down = f.engine(NodeId(1), false).stats();
        assert_eq!((up.ops, up.bytes), (1, 64));
        assert_eq!((down.ops, down.bytes), (1, 32));
    }

    #[test]
    fn concurrent_disjoint_dma_is_safe() {
        let f = std::sync::Arc::new(Fabric::new(2, Pacer::unpaced()));
        let h = f.register(NodeId::HOST, 1 << 16);
        let d = f.register(NodeId(1), 1 << 16);
        {
            let mem = f.window(h).expect("window exists");
            let mut g = mem.lock_range(0..1 << 16, true).expect("in bounds");
            for (i, b) in g.as_mut_slice().iter_mut().enumerate() {
                *b = (i % 251) as u8;
            }
        }
        std::thread::scope(|s| {
            for chunk in 0..8usize {
                let f = f.clone();
                s.spawn(move || {
                    let off = chunk * 8192;
                    f.dma_copy(h, off, d, off, 8192).expect("dma ok");
                });
            }
        });
        let mem = f.window(d).expect("window exists");
        let g = mem.lock_range(0..1 << 16, false).expect("in bounds");
        for (i, b) in g.as_slice().iter().enumerate() {
            assert_eq!(*b, (i % 251) as u8);
        }
    }
}
