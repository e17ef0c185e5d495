//! # hs-baselines — comparator programming models
//!
//! The paper's §IV compares hStreams with CUDA Streams, OpenMP 4.0/4.5
//! offload, Intel Offload Streams, OpenCL and OmpSs. This crate implements
//! the *execution-model* comparators used by the evaluation:
//!
//! * [`cuda::CudaLike`] — a CUDA-Streams-shaped API: explicit stream and
//!   event objects (opaque handles, not integers), per-device pointers the
//!   caller must track, **strict in-order execution per stream** (no
//!   operand-based out-of-order), and explicit `event_record` /
//!   `stream_wait_event` for every cross-stream dependence. Every call is
//!   counted so the Fig. 3 API-count comparison is measured, not
//!   transcribed.
//! * [`offload::OffloadModel`] — OpenMP-offload-shaped models. Version 4.0:
//!   whole-device target regions, synchronous transfers, no device
//!   subdivision. Version 4.5: adds async (`nowait` + `depend`) but still no
//!   subdivision — the two gaps the paper calls out.
//!
//! Both are built *on top of* `hstreams-core` (with
//! [`hstreams_core::OrderingMode::StrictFifo`] where appropriate), so the
//! baselines and hStreams run on the identical substrate and cost model —
//! differences in results come only from the semantics being compared.

pub mod cuda;
pub mod offload;

pub use cuda::{CuEvent, CuStream, CudaLike, DevPtr};
pub use offload::{OffloadModel, OmpVersion};
