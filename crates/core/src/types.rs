//! Core identifier types, operands, cost hints and errors.

use hs_machine::KernelKind;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A domain: a set of computing + storage resources sharing coherent memory
/// (host CPU, a coprocessor card, ...). Domain 0 is always the host/source
/// domain.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct DomainId(pub usize);

impl DomainId {
    pub const HOST: DomainId = DomainId(0);

    pub fn is_host(self) -> bool {
        self.0 == 0
    }
}

/// A stream handle. Per the paper, "streams in hStreams are represented by
/// an integer, in contrast to the CUDA opaque pointers".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct StreamId(pub u32);

/// A buffer handle.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct BufferId(pub u64);

/// A completion event for an enqueued action.
///
/// `Default` exists only so inline dependence lists can zero-fill their
/// unused slots; `Event(0)` has no sentinel meaning.
#[derive(
    Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize,
)]
pub struct Event(pub u64);

/// Declared access of a compute operand — the basis for the dependence
/// analysis ("actual dependencies between work units are derived from the
/// declared input and output operands of the task").
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Access {
    In,
    Out,
    InOut,
}

impl Access {
    pub fn is_write(self) -> bool {
        matches!(self, Access::Out | Access::InOut)
    }

    pub fn is_read(self) -> bool {
        matches!(self, Access::In | Access::InOut)
    }
}

/// A memory operand of a compute action: a byte range of a buffer, with its
/// declared access.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Operand {
    pub buffer: BufferId,
    pub range: Range<usize>,
    pub access: Access,
}

impl Operand {
    pub fn new(buffer: BufferId, range: Range<usize>, access: Access) -> Operand {
        Operand {
            buffer,
            range,
            access,
        }
    }

    /// Operand covering `count` f64 values starting at element `first`.
    pub fn f64s(buffer: BufferId, first: usize, count: usize, access: Access) -> Operand {
        Operand {
            buffer,
            range: first * 8..(first + count) * 8,
            access,
        }
    }
}

/// Cost information for the virtual-time executor. Real-mode execution
/// ignores it (durations are whatever the task takes); sim-mode uses it with
/// the platform's calibrated [`hs_machine::CostModel`].
#[derive(Clone, Copy, Debug)]
pub struct CostHint {
    pub kernel: KernelKind,
    /// Floating-point operations the task performs.
    pub flops: f64,
    /// Characteristic tile/problem dimension (drives the efficiency curve).
    pub tile_n: u64,
}

impl CostHint {
    pub fn new(kernel: KernelKind, flops: f64, tile_n: u64) -> CostHint {
        CostHint {
            kernel,
            flops,
            tile_n,
        }
    }

    /// A negligible-cost task.
    pub fn trivial() -> CostHint {
        CostHint {
            kernel: KernelKind::Generic,
            flops: 0.0,
            tile_n: 1,
        }
    }
}

/// How actions within one stream may execute.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OrderingMode {
    /// hStreams semantics: FIFO *semantic*, out-of-order *execution* —
    /// actions with non-overlapping memory operands may run concurrently.
    OutOfOrder,
    /// CUDA-Streams-like semantics: strict in-order execution per stream
    /// (used by the comparison baselines).
    StrictFifo,
}

/// Errors surfaced by the hStreams API.
#[derive(Debug, Clone, PartialEq)]
pub enum HsError {
    UnknownStream(StreamId),
    UnknownBuffer(BufferId),
    UnknownDomain(DomainId),
    UnknownEvent(Event),
    /// The buffer has no instantiation in the domain an action needs it in;
    /// hStreams requires explicit instantiation before use.
    NotInstantiated(BufferId, DomainId),
    OutOfBounds {
        buffer: BufferId,
        range: Range<usize>,
        len: usize,
    },
    /// Card-to-card transfers are not supported (the paper's applications
    /// route everything through the host: "Each card only interacts with
    /// the host").
    CardToCard,
    /// The action's execution failed (sink panic, missing function, ...).
    ExecFailed(String),
    /// An awaited action completed with a structured failure: injection,
    /// deadline expiry, card loss, sink panic, or poisoning by a failed
    /// dependence. Inspect [`hs_chaos::FailureCause::root`] for the origin.
    ActionFailed(hs_chaos::FailureCause),
    InvalidArg(String),
}

impl std::fmt::Display for HsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HsError::UnknownStream(s) => write!(f, "unknown stream {s:?}"),
            HsError::UnknownBuffer(b) => write!(f, "unknown buffer {b:?}"),
            HsError::UnknownDomain(d) => write!(f, "unknown domain {d:?}"),
            HsError::UnknownEvent(e) => write!(f, "unknown event {e:?}"),
            HsError::NotInstantiated(b, d) => {
                write!(f, "buffer {b:?} not instantiated in domain {d:?}")
            }
            HsError::OutOfBounds { buffer, range, len } => write!(
                f,
                "range {range:?} out of bounds for buffer {buffer:?} of {len} bytes"
            ),
            HsError::CardToCard => write!(f, "card-to-card transfers unsupported; route via host"),
            HsError::ExecFailed(m) => write!(f, "action execution failed: {m}"),
            HsError::ActionFailed(c) => write!(f, "action failed: {c}"),
            HsError::InvalidArg(m) => write!(f, "invalid argument: {m}"),
        }
    }
}
impl std::error::Error for HsError {}

/// Convenience alias used across the API.
pub type HsResult<T> = Result<T, HsError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_classification() {
        assert!(Access::Out.is_write());
        assert!(Access::InOut.is_write());
        assert!(!Access::In.is_write());
        assert!(Access::In.is_read());
        assert!(Access::InOut.is_read());
        assert!(!Access::Out.is_read());
    }

    #[test]
    fn f64_operand_ranges_are_byte_ranges() {
        let op = Operand::f64s(BufferId(1), 10, 5, Access::In);
        assert_eq!(op.range, 80..120);
    }

    #[test]
    fn operand_constructors_set_access() {
        let b = BufferId(1);
        for access in [Access::In, Access::Out, Access::InOut] {
            assert_eq!(Operand::new(b, 0..4, access).access, access);
        }
    }

    #[test]
    fn host_domain_is_zero() {
        assert!(DomainId::HOST.is_host());
        assert!(!DomainId(1).is_host());
    }

    #[test]
    fn errors_render_usefully() {
        let e = HsError::NotInstantiated(BufferId(3), DomainId(1));
        let s = e.to_string();
        assert!(s.contains("not instantiated"));
        assert!(HsError::CardToCard.to_string().contains("host"));
    }
}
