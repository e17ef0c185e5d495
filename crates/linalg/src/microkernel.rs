//! Packed, cache-blocked GEMM microkernel — the fast compute path.
//!
//! The tiled algorithms' throughput comes from this module (the paper's
//! compute tasks are MKL calls; PLASMA/MAGMA-style tiled kernels get their
//! performance from exactly this structure). The scheme is the classical
//! three-level blocking of Goto / BLIS:
//!
//! * the k dimension is split into `KC`-deep slabs;
//! * within a slab, a `KC`×`NC` panel of B is packed once into `NR`-wide
//!   column strips (contiguous per micro-tile, streamed from L2/L3);
//! * an `MC`×`KC` block of A is packed into `MR`-high row strips that stay
//!   L1/L2-resident while they sweep the whole B panel;
//! * the innermost register kernel (`RegKernel`) keeps an `MR`×`NR` block
//!   of C in vector registers — each packed element of A and B is reused
//!   `NR` (resp. `MR`) times per load instead of once.
//!
//! **The register kernel is a property of the ISA instantiation** ([`Isa`]),
//! not one body compiled three ways: the baseline multiplies then adds on a
//! 4×8 tile, the AVX2+FMA instantiation fuses on the same tile, and the
//! AVX-512F one holds an 8×16 tile in sixteen zmm accumulators, written with
//! intrinsics (LLVM vectorises the scalar loop at that shape across the
//! wrong axis, with gathers). `MR`, `NR` and the solves' `TB` are const
//! parameters of everything below — packing, the sweeps, the diagonal
//! blocks — and `with_isa` is the one place an instantiation is chosen,
//! once per kernel call.
//!
//! **Bit contract.** A result is a function of (inputs, instantiation).
//! Lanes, row slabs, prepacked-versus-on-the-fly B and the transport never
//! change a bit. A GEMM or SYRK element is `Σₚ aᵢₚ·bₚⱼ` accumulated in p
//! order per `KC` slab whatever register tile it falls in, so the two fused
//! instantiations agree on them bit for bit and the baseline (two roundings
//! per update instead of one) within rounding. A triangular solve splits its
//! triangle into `TB`-sized diagonal blocks, so its bits are
//! per-instantiation.
//!
//! Edge tiles are handled by zero-padding inside the packed panels, so the
//! hot loop is shape-oblivious; only the write-back is masked. The GEMM
//! entry points take leading dimensions, which is what lets the
//! row-partitioned task expansion in `hs-apps` run one kernel on row slabs.
//! SYRK and the triangular solves feed the same packed strips to the same
//! register kernel at every size (see "triangular kernels" below).
//!
//! Two sweeps here are not the register kernel's: the verification product
//! behind `Matrix::matmul_ref` (`Reference`) and the Cholesky factorization
//! (`Potrf`). They keep the naive loops' bits on every instantiation — a
//! multiply then an add, never `madd` — and go through `with_isa` only to be
//! compiled for its vector ISA. The verification product is also the one
//! kernel here that starts threads: it splits C by rows over scoped threads
//! ([`Isa::matmul_ref_split`]), being off the runtime's compute path.
//!
//! Differential tests against [`crate::naive`], per instantiation, live in
//! `crates/linalg/tests/blocked_vs_naive.rs`; the bit-for-bit ones of the two
//! sweeps above in `crates/linalg/tests/reference_bits.rs`.

use crate::factor::FactorError;
use std::mem::MaybeUninit;

/// Rows of A packed per macro-block (a multiple of every `MR`; the A block
/// is `MC`×`KC`).
pub const MC: usize = 64;
/// Depth of one packed slab of A and B.
pub const KC: usize = 256;
/// Columns of B packed per panel (a multiple of every `NR`; the B panel is
/// `KC`×`NC`).
pub const NC: usize = 256;

// ---------------------------------------------------------- instantiations

/// One instantiation of the register kernel: which vector ISA the sweeps are
/// compiled for, how an update rounds, and the register tile everything else
/// is shaped around. The free functions of this module run
/// [`Isa::widest`]; the `#[doc(hidden)]` methods below run the one they are
/// called on, which is how the tests reach every instantiation the CPU has.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Isa {
    /// The build target's own vectors (SSE2 on x86-64), a 4×8 tile, and a
    /// multiply followed by an add: two roundings per update. Never
    /// `f64::mul_add` — without the FMA feature that is a libm call.
    Baseline,
    /// AVX2 + FMA: the baseline's loop on the baseline's 4×8 tile, compiled
    /// for 256-bit vectors, with the update fused (`vfmadd`, one rounding).
    Avx2Fma,
    /// AVX-512F: an 8×16 tile in sixteen 512-bit accumulators, fused, the k
    /// loop and the GEMM write-back written with `core::arch` intrinsics.
    Avx512f,
}

/// An instantiation's register tile. A triangular solve's diagonal block is
/// `TB = nr` square: one B strip wide and a whole number of A strips high.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// C rows per micro-tile; the height of a packed strip of A.
    pub mr: usize,
    /// C columns per micro-tile; the width of a packed strip of B.
    pub nr: usize,
}

impl Isa {
    /// Every instantiation, widest first.
    pub const ALL: [Isa; 3] = [Isa::Avx512f, Isa::Avx2Fma, Isa::Baseline];

    /// Does this CPU run it? The only feature detection in the module.
    pub fn detected(self) -> bool {
        match self {
            Isa::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2Fma => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512f => {
                Isa::Avx2Fma.detected() && std::arch::is_x86_feature_detected!("avx512f")
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The instantiations this CPU runs, widest first; never empty.
    pub fn supported() -> impl Iterator<Item = Isa> {
        Isa::ALL.into_iter().filter(|isa| isa.detected())
    }

    /// The instantiation the free functions of this module dispatch to.
    pub fn widest() -> Isa {
        Isa::supported().next().expect("the baseline always runs")
    }

    /// One rounding per update? Fused instantiations agree bit for bit on
    /// GEMM and SYRK.
    pub fn fused(self) -> bool {
        self != Isa::Baseline
    }

    /// The register tile.
    pub fn tile(self) -> Tile {
        let (mr, nr) = match self {
            Isa::Baseline | Isa::Avx2Fma => (4, 8),
            Isa::Avx512f => (8, 16),
        };
        Tile { mr, nr }
    }

    /// Lower-case name for bench rows and messages.
    pub fn name(self) -> &'static str {
        match self {
            Isa::Baseline => "baseline",
            Isa::Avx2Fma => "avx2fma",
            Isa::Avx512f => "avx512f",
        }
    }
}

/// What an instantiation supplies: how `a·b + c` rounds, and the
/// register-blocked inner product on its `MR`×`NR` tile. `MR` and `NR` are
/// const parameters (not associated consts) so the sweeps can hold
/// `[[f64; NR]; MR]` blocks.
trait RegKernel<const MR: usize, const NR: usize>: Copy {
    /// `a·b + c` as this instantiation rounds it.
    fn madd(a: f64, b: f64, c: f64) -> f64;

    /// The `MR`×`NR` block of `A_strip · B_strip`, accumulated in p order
    /// over the strips' common depth. The accumulator array is small enough
    /// for the compiler to keep in vector registers; the i/j loops have
    /// constant trip counts and the j loop auto-vectorizes.
    #[inline(always)]
    fn tile(self, astrip: &[f64], bstrip: &[f64]) -> [[f64; NR]; MR] {
        let (a, _) = astrip.as_chunks::<MR>();
        let (b, _) = bstrip.as_chunks::<NR>();
        debug_assert_eq!(a.len(), b.len(), "strips of one depth");
        let mut acc = [[0.0f64; NR]; MR];
        for (a, b) in a.iter().zip(b) {
            for i in 0..MR {
                for j in 0..NR {
                    acc[i][j] = Self::madd(a[i], b[j], acc[i][j]);
                }
            }
        }
        acc
    }

    /// Eight steps of a transposing pack: `steps[p][j] = src[j·ld + p]` — the
    /// next eight elements of `W` source rows become eight `W`-lane steps of
    /// a strip. Reads and writes are whole cache lines either way; what an
    /// instantiation can add is doing the transposition in registers.
    #[inline(always)]
    fn pack_lanes8<const W: usize>(
        self,
        src: &[f64],
        ld: usize,
        steps: &mut [[MaybeUninit<f64>; W]; 8],
    ) {
        for j in 0..W {
            let row = &src[j * ld..][..8];
            for (step, x) in steps.iter_mut().zip(row) {
                step[j].write(*x);
            }
        }
    }

    /// The micro-tile update, GEMM's and SYRK's: `C = alpha·(A_strip ·
    /// B_strip) + beta·C` on the leading `cols[i]` elements of each row i of
    /// the tile at `c` (leading dimension `ldc`) — all of `nr` for GEMM, up to
    /// the diagonal for SYRK, none for a row past the tile's last.
    ///
    /// Every instantiation's elements go through this formula (AVX-512
    /// spells it in masked vectors), so the register tile never shows in a
    /// bit. `beta·c` is exact at `beta == 1.0`, which is every k-slab after
    /// the first; `madd(-1, t, 1·c)` is `c − t` under either rounding.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn gemm_tile(
        self,
        astrip: &[f64],
        bstrip: &[f64],
        alpha: f64,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
        cols: [usize; MR],
    ) {
        let acc = self.tile(astrip, bstrip);
        for (i, acc) in acc.iter().enumerate() {
            if cols[i] > 0 {
                update_row(&mut c[i * ldc..][..cols[i]], acc, |c, t| {
                    Self::madd(alpha, t, beta * c)
                });
            }
        }
    }
}

/// `c[j] = f(c[j], acc[j])` along one row of a micro-tile. A whole row,
/// spelled with a constant trip count, is a couple of vector operations; a
/// masked one is scalar.
#[inline(always)]
fn update_row<const NR: usize>(crow: &mut [f64], acc: &[f64; NR], f: impl Fn(f64, f64) -> f64) {
    match <&mut [f64; NR]>::try_from(&mut *crow) {
        Ok(full) => {
            for j in 0..NR {
                full[j] = f(full[j], acc[j]);
            }
        }
        Err(_) => {
            for (x, t) in crow.iter_mut().zip(acc) {
                *x = f(*x, *t);
            }
        }
    }
}

#[derive(Clone, Copy)]
struct Baseline;

impl RegKernel<4, 8> for Baseline {
    #[inline(always)]
    fn madd(a: f64, b: f64, c: f64) -> f64 {
        a * b + c
    }
}

#[derive(Clone, Copy)]
struct Avx2Fma;

impl RegKernel<4, 8> for Avx2Fma {
    #[inline(always)]
    fn madd(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }
}

/// Proof that `avx512f` was detected: [`with_isa`] constructs the only
/// values, in the arm that has just checked.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
struct Avx512f(());

#[cfg(target_arch = "x86_64")]
impl RegKernel<8, 16> for Avx512f {
    #[inline(always)]
    fn madd(a: f64, b: f64, c: f64) -> f64 {
        a.mul_add(b, c)
    }

    #[inline(always)]
    fn tile(self, astrip: &[f64], bstrip: &[f64]) -> [[f64; 16]; 8] {
        // SAFETY: `self` exists, so `with_isa` saw avx512f detected.
        unsafe { zmm::tile(astrip, bstrip) }
    }

    #[inline(always)]
    fn pack_lanes8<const W: usize>(
        self,
        src: &[f64],
        ld: usize,
        steps: &mut [[MaybeUninit<f64>; W]; 8],
    ) {
        const { assert!(W.is_multiple_of(8), "strips of whole 8×8 blocks") };
        let dst = steps.as_mut_ptr().cast::<f64>();
        for g in 0..W / 8 {
            // SAFETY: `self` exists, so `with_isa` saw avx512f detected; and
            // `steps` is 8 steps of `W` lanes, so lanes `8g..8g+8` of step p
            // are the 8 f64s at `dst + p·W + 8g`.
            unsafe { zmm::transpose8(&src[8 * g * ld..], ld, dst.add(8 * g), W) };
        }
    }

    #[inline(always)]
    fn gemm_tile(
        self,
        astrip: &[f64],
        bstrip: &[f64],
        alpha: f64,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
        cols: [usize; 8],
    ) {
        // SAFETY: `self` exists, so `with_isa` saw avx512f detected.
        unsafe { zmm::gemm_tile(astrip, bstrip, alpha, beta, c, ldc, cols) }
    }
}

/// The AVX-512F register kernel: an 8×16 tile of C as 8 rows × 2 vectors of
/// 8 lanes — 16 of the 32 zmm registers, which covers the 4-cycle × 2-port
/// FMA latency twice over and leaves room for the two B vectors and the
/// broadcasts. Per k step: two loads of B, eight broadcasts of A, sixteen
/// `vfmadd231pd`.
#[cfg(target_arch = "x86_64")]
mod zmm {
    use std::arch::x86_64::*;

    const MR: usize = 8;
    const NR: usize = 16;

    /// The k loop. Updates go in p order, one fused rounding each — the
    /// order and rounding of `RegKernel::tile` under `Avx2Fma`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn accumulate(astrip: &[f64], bstrip: &[f64]) -> [[__m512d; 2]; MR] {
        let (a, _) = astrip.as_chunks::<MR>();
        let (b, _) = bstrip.as_chunks::<NR>();
        debug_assert_eq!(a.len(), b.len(), "strips of one depth");
        let mut acc = [[_mm512_setzero_pd(); 2]; MR];
        for (a, b) in a.iter().zip(b) {
            // SAFETY: `b` is 16 f64s; unaligned 8-lane loads at 0 and 8 stay
            // inside it.
            let (b0, b1) = unsafe {
                (
                    _mm512_loadu_pd(b.as_ptr()),
                    _mm512_loadu_pd(b.as_ptr().add(8)),
                )
            };
            for i in 0..MR {
                let ai = _mm512_set1_pd(a[i]);
                acc[i][0] = _mm512_fmadd_pd(ai, b0, acc[i][0]);
                acc[i][1] = _mm512_fmadd_pd(ai, b1, acc[i][1]);
            }
        }
        acc
    }

    /// The accumulators as the triangular sweeps and the masked write-back
    /// read them.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn spill(acc: [[__m512d; 2]; MR]) -> [[f64; NR]; MR] {
        let mut out = [[0.0f64; NR]; MR];
        for (row, acc) in out.iter_mut().zip(acc) {
            // SAFETY: `row` is 16 f64s; unaligned 8-lane stores at 0 and 8
            // stay inside it.
            unsafe {
                _mm512_storeu_pd(row.as_mut_ptr(), acc[0]);
                _mm512_storeu_pd(row.as_mut_ptr().add(8), acc[1]);
            }
        }
        out
    }

    /// An 8×8 transpose in registers, `out[p]` lane j = `r[j]` lane p: 8
    /// in-lane unpacks, then two rounds of 128-bit-lane shuffles — where the
    /// scalar loop does 64 loads and 64 stores.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn transposed(r: [__m512d; 8]) -> [__m512d; 8] {
        // t[2q] / t[2q+1]: elements 0,2,4,6 / 1,3,5,7 of rows 2q and 2q+1,
        // interleaved — each 128-bit lane is a pair of output neighbours.
        let t = [
            _mm512_unpacklo_pd(r[0], r[1]),
            _mm512_unpackhi_pd(r[0], r[1]),
            _mm512_unpacklo_pd(r[2], r[3]),
            _mm512_unpackhi_pd(r[2], r[3]),
            _mm512_unpacklo_pd(r[4], r[5]),
            _mm512_unpackhi_pd(r[4], r[5]),
            _mm512_unpacklo_pd(r[6], r[7]),
            _mm512_unpackhi_pd(r[6], r[7]),
        ];
        // Gather the 128-bit lanes: 0x88 picks lanes 0 and 2 of each source,
        // 0xDD lanes 1 and 3.
        let mut out = [_mm512_setzero_pd(); 8];
        for parity in 0..2 {
            let u0 = _mm512_shuffle_f64x2::<0x88>(t[parity], t[2 + parity]);
            let u1 = _mm512_shuffle_f64x2::<0xDD>(t[parity], t[2 + parity]);
            let v0 = _mm512_shuffle_f64x2::<0x88>(t[4 + parity], t[6 + parity]);
            let v1 = _mm512_shuffle_f64x2::<0xDD>(t[4 + parity], t[6 + parity]);
            out[parity] = _mm512_shuffle_f64x2::<0x88>(u0, v0);
            out[2 + parity] = _mm512_shuffle_f64x2::<0x88>(u1, v1);
            out[4 + parity] = _mm512_shuffle_f64x2::<0xDD>(u0, v0);
            out[6 + parity] = _mm512_shuffle_f64x2::<0xDD>(u1, v1);
        }
        out
    }

    /// `dst[p·stride + j] = src[j·ld + p]`, p and j below 8.
    ///
    /// # Safety
    /// `dst + p·stride` must be valid for writing 8 f64s for every p below 8.
    #[inline]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn transpose8(src: &[f64], ld: usize, dst: *mut f64, stride: usize) {
        let mut rows = [_mm512_setzero_pd(); 8];
        for (j, row) in rows.iter_mut().enumerate() {
            // SAFETY: the slice is 8 f64s, one unaligned 8-lane load.
            *row = unsafe { _mm512_loadu_pd(src[j * ld..][..8].as_ptr()) };
        }
        for (p, step) in transposed(rows).into_iter().enumerate() {
            // SAFETY: the caller's contract.
            unsafe { _mm512_storeu_pd(dst.add(p * stride), step) };
        }
    }

    #[target_feature(enable = "avx512f")]
    pub(super) fn tile(astrip: &[f64], bstrip: &[f64]) -> [[f64; NR]; MR] {
        spill(accumulate(astrip, bstrip))
    }

    /// The accumulators go to C without touching the stack: `c = fma(alpha,
    /// acc, beta·c)`, the trait's formula eight lanes at a time, each row
    /// masked to its `cols[i]` leading elements — a whole tile, a ragged edge
    /// and SYRK's diagonal are one path.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) fn gemm_tile(
        astrip: &[f64],
        bstrip: &[f64],
        alpha: f64,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
        cols: [usize; MR],
    ) {
        let acc = accumulate(astrip, bstrip);
        let (alpha, beta) = (_mm512_set1_pd(alpha), _mm512_set1_pd(beta));
        for i in 0..MR {
            if cols[i] == 0 {
                continue;
            }
            let row = &mut c[i * ldc..][..cols[i]];
            let live = (1u32 << row.len().min(NR)) - 1;
            for (h, acc) in acc[i].into_iter().enumerate() {
                let mask = (live >> (8 * h)) as __mmask8;
                let lanes = row.as_mut_ptr().wrapping_add(8 * h);
                // SAFETY: lane l of `mask` is set only if `8h + l` is below
                // `row.len()`, so every lane read or written is inside
                // `row`; masked-off lanes are not accessed.
                unsafe {
                    let scaled = _mm512_mul_pd(beta, _mm512_maskz_loadu_pd(mask, lanes));
                    let updated = _mm512_fmadd_pd(alpha, acc, scaled);
                    _mm512_mask_storeu_pd(lanes, mask, updated);
                }
            }
        }
    }
}

/// One kernel call's worth of work, generic over the instantiation that
/// runs it: what [`with_isa`] dispatches. (A closure cannot be generic over
/// the register tile; a trait method can.)
trait Sweep {
    type Out;
    /// `run` must be `#[inline(always)]` and reach the register kernel only
    /// through `#[inline(always)]` functions: only code inlined into
    /// `with_isa`'s `#[target_feature]` clone is compiled for that ISA (a
    /// function left standing alone runs, correctly, at the baseline's rate).
    fn run<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(self, kern: K) -> Self::Out;
}

/// Run `sweep` as instantiation `isa`, compiled for its vector ISA — the
/// module's one dispatch, taken once per kernel call.
///
/// # Panics
/// If the CPU does not run `isa`: no instantiation is entered without its
/// feature check.
#[inline(always)]
fn with_isa<S: Sweep>(isa: Isa, sweep: S) -> S::Out {
    assert!(isa.detected(), "this CPU does not run {isa:?}");
    match isa {
        Isa::Baseline => sweep.run(Baseline),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2Fma => {
            /// # Safety
            /// Callers must ensure the CPU supports avx2 and fma.
            #[target_feature(enable = "avx2,fma")]
            unsafe fn avx2fma<S: Sweep>(sweep: S) -> S::Out {
                sweep.run(Avx2Fma)
            }
            // SAFETY: `detected` above checked avx2 and fma at run time.
            unsafe { avx2fma(sweep) }
        }
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512f => {
            /// # Safety
            /// Callers must ensure the CPU supports avx512f, avx2 and fma.
            #[target_feature(enable = "avx512f,avx2,fma")]
            unsafe fn avx512f<S: Sweep>(sweep: S) -> S::Out {
                sweep.run(Avx512f(()))
            }
            // SAFETY: `detected` above checked avx512f, avx2 and fma at run
            // time.
            unsafe { avx512f(sweep) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => unreachable!("`detected` is false for the x86-64 instantiations"),
    }
}

// ----------------------------------------------------------------- packing
//
// Packing storage is spare capacity of a `Vec` — allocated, never
// zero-filled, never `set_len`'d while unwritten. The pack routines take it
// as `MaybeUninit`, write every element of what they are given (padding
// included) and hand back the initialised view.

/// `dst[p·W + j] = src[j·ld + p]` for `p < depth`, `j < live`; lanes
/// `live..W` are zero. The transposing pack: rows of `src` become the `W`
/// lanes of a strip. `dst` is `depth·W` long and is written whole.
#[inline(always)]
fn pack_rows_as_lanes<const W: usize, const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(
    kern: K,
    src: &[f64],
    ld: usize,
    live: usize,
    depth: usize,
    dst: &mut [MaybeUninit<f64>],
) {
    let (steps, rest) = dst.as_chunks_mut::<W>();
    assert!(steps.len() == depth && rest.is_empty(), "a strip's storage");
    // Whole strips go eight steps at a time; what is left, and a ragged
    // strip, element by element.
    let mut p0 = 0;
    if live == W {
        let (blocks, _) = steps.as_chunks_mut::<8>();
        for block in blocks {
            kern.pack_lanes8(&src[p0..], ld, block);
            p0 += 8;
        }
    }
    for (p, step) in steps.iter_mut().enumerate().skip(p0) {
        for (j, d) in step.iter_mut().enumerate() {
            d.write(if j < live { src[j * ld + p] } else { 0.0 });
        }
    }
}

/// `dst[p·W + j] = src[p·ld + j]` for `p < depth`, `j < live`; lanes
/// `live..W` are zero. The copying pack: a row of `src` is one step of the
/// strip. `dst` is `depth·W` long and is written whole.
#[inline(always)]
fn pack_rows_as_steps<const W: usize>(
    src: &[f64],
    ld: usize,
    live: usize,
    depth: usize,
    dst: &mut [MaybeUninit<f64>],
) {
    let (steps, rest) = dst.as_chunks_mut::<W>();
    assert!(steps.len() == depth && rest.is_empty(), "a strip's storage");
    for (p, step) in steps.iter_mut().enumerate() {
        let row = &src[p * ld..][..live];
        match <&[f64; W]>::try_from(row) {
            // A whole step is a constant-length copy: vector moves.
            Ok(row) => {
                step.write_copy_of_slice(row);
            }
            Err(_) => {
                step[..live].write_copy_of_slice(row);
                for d in &mut step[live..] {
                    d.write(0.0);
                }
            }
        }
    }
}

/// Pack the `mc`×`kc` block of A at (`ic`, `pc`) into MR-high row strips:
/// strip s holds columns-of-the-strip contiguously, `ap[s·kc·MR + p·MR + i]
/// = A[ic+s·MR+i][pc+p]`, with rows past `mc` zero-padded. Writes, and
/// returns initialised, the first `⌈mc/MR⌉·MR·kc` elements of `ap`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pack_a<'p, const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(
    kern: K,
    a: &[f64],
    lda: usize,
    ic: usize,
    mc: usize,
    pc: usize,
    kc: usize,
    ap: &'p mut [MaybeUninit<f64>],
) -> &'p mut [f64] {
    let ap = &mut ap[..mc.next_multiple_of(MR) * kc];
    if kc > 0 {
        for (strip, row0) in ap.chunks_exact_mut(kc * MR).zip((0..mc).step_by(MR)) {
            let live = MR.min(mc - row0);
            pack_rows_as_lanes::<MR, MR, NR, K>(
                kern,
                &a[(ic + row0) * lda + pc..],
                lda,
                live,
                kc,
                strip,
            );
        }
    }
    // SAFETY: `ap` is `⌈mc/MR⌉` strips of `kc·MR`, and the loop handed each
    // to a pack routine that writes all of it.
    unsafe { ap.assume_init_mut() }
}

/// Pack the `kc`×`nc` panel of B at (`pc`, `jc`) into NR-wide column strips:
/// `bp[s·kc·NR + p·NR + j] = B[pc+p][jc+s·NR+j]`, zero-padded past `nc`.
/// Writes, and returns initialised, the first `⌈nc/NR⌉·NR·kc` elements of
/// `bp`.
#[inline(always)]
fn pack_b<'p, const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(
    kern: K,
    b: BSrc<'_>,
    pc: usize,
    kc: usize,
    jc: usize,
    nc: usize,
    bp: &'p mut [MaybeUninit<f64>],
) -> &'p mut [f64] {
    let bp = &mut bp[..nc.next_multiple_of(NR) * kc];
    if kc > 0 {
        for (strip, col0) in bp.chunks_exact_mut(kc * NR).zip((0..nc).step_by(NR)) {
            let live = NR.min(nc - col0);
            match b {
                BSrc::Normal { b, ldb } => {
                    pack_rows_as_steps::<NR>(&b[pc * ldb + jc + col0..], ldb, live, kc, strip)
                }
                BSrc::Trans { bt, ldbt } => pack_rows_as_lanes::<NR, MR, NR, K>(
                    kern,
                    &bt[(jc + col0) * ldbt + pc..],
                    ldbt,
                    live,
                    kc,
                    strip,
                ),
            }
        }
    }
    // SAFETY: `bp` is `⌈nc/NR⌉` strips of `kc·NR`, and the loop handed each
    // to a pack routine that writes all of it.
    unsafe { bp.assume_init_mut() }
}

/// A packed strip that a triangular solve appends to as it goes, split into
/// what it has written and what it has not.
///
/// # Safety
/// The first `done` elements of `strip` must have been written.
#[inline(always)]
unsafe fn written_prefix(
    strip: &mut [MaybeUninit<f64>],
    done: usize,
) -> (&[f64], &mut [MaybeUninit<f64>]) {
    let (written, rest) = strip.split_at_mut(done);
    // SAFETY: the caller's contract.
    (unsafe { written.assume_init_ref() }, rest)
}

// -------------------------------------------------------------------- GEMM

/// Storage of the right-hand operand of [`gemm_strided`].
#[derive(Clone, Copy)]
pub enum BSrc<'a> {
    /// Logical B (k×n) stored row-major with leading dimension `ldb`.
    Normal { b: &'a [f64], ldb: usize },
    /// Logical B (k×n) stored *transposed*: an n×k row-major array with
    /// leading dimension `ldbt` (row j holds logical column j).
    Trans { bt: &'a [f64], ldbt: usize },
}

/// `C = alpha·A·B + beta·C` on strided row-major views.
///
/// `a` is m×k with leading dimension `lda` (row i starts at `i*lda`), `c`
/// is m×n with leading dimension `ldc`, and `b` is either layout of
/// [`BSrc`]. Like the naive reference, `beta` multiplies the existing C
/// (so `beta == 0.0` zeroes finite garbage but propagates NaN).
#[allow(clippy::too_many_arguments)] // the BLAS signature is the interface
pub fn gemm_strided(
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: BSrc<'_>,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    Isa::widest().gemm_strided(alpha, a, lda, b, beta, c, ldc, m, n, k);
}

/// The right-hand operand of a GEMM packed once into micro-kernel panels.
///
/// A task that expands across a stream's lanes cuts C (and A) into row
/// slabs, and every slab multiplies by the *same* B: packing it per slab
/// repeats the work once per lane. The panels are read-only after
/// [`PackedB::pack`], so all lanes share one through [`gemm_prepacked`].
pub struct PackedB {
    /// The instantiation whose `NR` the strips have, and which therefore
    /// sweeps them.
    isa: Isa,
    k: usize,
    n: usize,
    /// The panels of [`panel_grid`], in its order, each zero-padded to whole
    /// `NR`-wide strips.
    panels: Vec<f64>,
}

impl PackedB {
    /// Pack the logical k×n matrix `b`.
    pub fn pack(b: BSrc<'_>, k: usize, n: usize) -> PackedB {
        Isa::widest().pack_b(b, k, n)
    }
}

/// `C = alpha·A·B + beta·C` with B already packed: `a` is m×k (leading
/// dimension `lda`), `c` m×n (`ldc`), k and n those `b` was packed with.
/// Same sweep, same register kernel and same accumulation order as
/// [`gemm_strided`] under the instantiation that packed `b`, so the two
/// agree bit for bit.
#[allow(clippy::too_many_arguments)] // the BLAS signature is the interface
pub fn gemm_prepacked(
    alpha: f64,
    a: &[f64],
    lda: usize,
    b: &PackedB,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    m: usize,
) {
    let sweep = Gemm {
        alpha,
        a,
        lda,
        b: BOperand::Packed(&b.panels),
        beta,
        c,
        ldc,
        m,
        n: b.n,
        k: b.k,
    };
    with_isa(b.isa, sweep);
}

/// The `(jc, nc, pc, kc)` panels of a k×n right-hand operand in sweep
/// order: `NC`-wide column blocks outermost, `KC`-deep slabs within each.
fn panel_grid(n: usize, k: usize) -> impl Iterator<Item = (usize, usize, usize, usize)> {
    (0..n).step_by(NC).flat_map(move |jc| {
        (0..k)
            .step_by(KC)
            .map(move |pc| (jc, NC.min(n - jc), pc, KC.min(k - pc)))
    })
}

/// [`PackedB::pack`] as a sweep: the strips are `NR` wide. Gives back a
/// [`PackedB`]'s `panels`.
struct PackB<'a> {
    b: BSrc<'a>,
    k: usize,
    n: usize,
}

impl Sweep for PackB<'_> {
    type Out = Vec<f64>;

    #[inline(always)]
    fn run<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(self, kern: K) -> Self::Out {
        let PackB { b, k, n } = self;
        // `NC` is a whole number of strips, so only the last column block is
        // padded.
        let total = n.next_multiple_of(NR) * k;
        let mut panels = Vec::with_capacity(total);
        let spare = &mut panels.spare_capacity_mut()[..total];
        let mut off = 0;
        for (jc, nc, pc, kc) in panel_grid(n, k) {
            off += pack_b(kern, b, pc, kc, jc, nc, &mut spare[off..]).len();
        }
        assert_eq!(off, total, "the panels tile the storage");
        // SAFETY: `pack_b` wrote the `off == total` elements it returned,
        // back to back from the start of the spare capacity.
        unsafe { panels.set_len(total) };
        panels
    }
}

/// Where a [`Gemm`] gets its right-hand operand from.
enum BOperand<'a> {
    /// Pack each panel as the sweep reaches it.
    Src(BSrc<'a>),
    /// Walk the panels of a [`PackedB`] of the same instantiation.
    Packed(&'a [f64]),
}

/// The blocked sweep shared by [`gemm_strided`] and [`gemm_prepacked`].
struct Gemm<'a> {
    alpha: f64,
    a: &'a [f64],
    lda: usize,
    b: BOperand<'a>,
    beta: f64,
    c: &'a mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
}

impl Sweep for Gemm<'_> {
    type Out = ();

    #[inline(always)]
    fn run<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(self, kern: K) {
        const { assert!(MC.is_multiple_of(MR) && NC.is_multiple_of(NR)) };
        let Gemm {
            alpha,
            a,
            lda,
            b,
            beta,
            c,
            ldc,
            m,
            n,
            k,
        } = self;
        if m == 0 || n == 0 {
            return;
        }
        debug_assert!(lda >= k && ldc >= n, "leading dimensions cover the view");
        if k == 0 || alpha == 0.0 {
            scale_rows(c, ldc, m, n, beta);
            return;
        }
        // One allocation: the packed A block, then (packing on the fly) one
        // packed B panel.
        let ap_len = MC.min(m.next_multiple_of(MR)) * KC.min(k);
        let bp_len = match b {
            BOperand::Src(_) => NC.min(n.next_multiple_of(NR)) * KC.min(k),
            BOperand::Packed(_) => 0,
        };
        let mut storage = Vec::<f64>::with_capacity(ap_len + bp_len);
        let (ap, bp) = storage.spare_capacity_mut()[..ap_len + bp_len].split_at_mut(ap_len);
        let mut next = 0;
        for (jc, nc, pc, kc) in panel_grid(n, k) {
            let bp: &[f64] = match b {
                BOperand::Src(src) => pack_b(kern, src, pc, kc, jc, nc, bp),
                BOperand::Packed(panels) => {
                    let at = next;
                    next += nc.next_multiple_of(NR) * kc;
                    &panels[at..next]
                }
            };
            // beta applies exactly once per C element: on the first k-slab.
            let beta_eff = if pc == 0 { beta } else { 1.0 };
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                let ap = pack_a(kern, a, lda, ic, mc, pc, kc, ap);
                let c = &mut c[ic * ldc + jc..];
                // Sweep the packed A block against the packed B panel.
                for (bstrip, col0) in bp.chunks_exact(kc * NR).zip((0..nc).step_by(NR)) {
                    let nr = NR.min(nc - col0);
                    for (astrip, row0) in ap.chunks_exact(kc * MR).zip((0..mc).step_by(MR)) {
                        let mut cols = [0; MR];
                        cols[..MR.min(mc - row0)].fill(nr);
                        let c = &mut c[row0 * ldc + col0..];
                        kern.gemm_tile(astrip, bstrip, alpha, beta_eff, c, ldc, cols);
                    }
                }
            }
        }
    }
}

/// `c[i][j] *= beta` over the m×n view (the k==0 / alpha==0 degenerate).
fn scale_rows(c: &mut [f64], ldc: usize, m: usize, n: usize, beta: f64) {
    if beta == 1.0 {
        return;
    }
    for i in 0..m {
        for x in &mut c[i * ldc..i * ldc + n] {
            *x *= beta;
        }
    }
}

/// Blocked `C = alpha·A·B + beta·C` on contiguous row-major operands.
#[allow(clippy::too_many_arguments)] // the BLAS signature is the interface
pub fn dgemm(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k, "A dims");
    assert_eq!(b.len(), k * n, "B dims");
    assert_eq!(c.len(), m * n, "C dims");
    gemm_strided(alpha, a, k, BSrc::Normal { b, ldb: n }, beta, c, n, m, n, k);
}

/// Blocked `C = alpha·A·Bᵀ + beta·C` with `b` stored n×k row-major.
#[allow(clippy::too_many_arguments)] // the BLAS signature is the interface
pub fn dgemm_nt(
    alpha: f64,
    a: &[f64],
    b: &[f64],
    beta: f64,
    c: &mut [f64],
    m: usize,
    n: usize,
    k: usize,
) {
    assert_eq!(a.len(), m * k, "A dims");
    assert_eq!(b.len(), n * k, "B dims (stored n×k)");
    assert_eq!(c.len(), m * n, "C dims");
    gemm_strided(
        alpha,
        a,
        k,
        BSrc::Trans { bt: b, ldbt: k },
        beta,
        c,
        n,
        m,
        n,
        k,
    );
}

// ------------------------------------------------------- reference product

/// `C = A·B` for verification, `a` m×k row-major and `b` either layout of
/// [`BSrc`]: every element is the naive i-k-j loop's, bit for bit, on every
/// instantiation — `c[i][j]` starts at +0.0 and adds `a[i][p]·b[p][j]` for p
/// ascending, a multiply then an add (never `madd`: the fused instantiations
/// would round once), with the term skipped where `a[i][p] == 0.0`, so an inf
/// or a NaN of B behind a zero of A stays out. That is `naive::dgemm(1.0, a,
/// b, 0.0, zeros, ..)`, its oracle.
///
/// What makes it fast is only the order the elements are visited in. It is
/// GEMM's blocking with A read in place: B is packed a `KC`×`NC` panel at a
/// time into `NR`-wide k-major strips (`pack_b`, which reads a transposed B
/// as readily as a row-major one), and an `MR`×`NR` block of C is loaded,
/// accumulated in registers over the panel's depth, and stored — a load and
/// a store are exact, so a slab boundary changes no bit. A block's last
/// steps, where every row of A holds a zero, add nothing and are not
/// visited, so the zero half of a lower-triangular A (`L·Lᵀ`) costs no
/// sweep; up to its first zero of A a block runs without the skip test.
///
/// One lane's share: the row slabs of C dealt to it by
/// [`Isa::matmul_ref_split`], swept panel by panel, each panel packed once
/// for all of them. An element's sum depends on nothing but its own row of A
/// and column of B, so which slab or lane it falls in moves no bit. One
/// allocation: the panel.
struct Reference<'a> {
    a: &'a [f64],
    b: BSrc<'a>,
    /// `(first row, rows × n elements of C)`, disjoint, each a whole number
    /// of `MR` blocks but the matrix's last.
    slabs: Vec<(usize, &'a mut [f64])>,
    n: usize,
    k: usize,
}

impl Sweep for Reference<'_> {
    type Out = ();

    #[inline(always)]
    fn run<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(self, kern: K) {
        let Reference {
            a,
            b,
            mut slabs,
            n,
            k,
        } = self;
        if n == 0 || k == 0 || slabs.is_empty() {
            return;
        }
        let mut storage = Vec::<f64>::with_capacity(NC.min(n.next_multiple_of(NR)) * KC.min(k));
        for (jc, nc, pc, kc) in panel_grid(n, k) {
            let bp = pack_b(kern, b, pc, kc, jc, nc, storage.spare_capacity_mut());
            for (first, slab) in &mut slabs {
                let m = slab.len() / n;
                for r0 in (0..m).step_by(MR) {
                    let rows = MR.min(m - r0);
                    // A ragged block repeats its last row; those sums are
                    // dropped.
                    let arows: [&[f64]; MR] = std::array::from_fn(|i| {
                        &a[(*first + r0 + i.min(rows - 1)) * k + pc..][..kc]
                    });
                    // The block's steps end at the last that adds something.
                    let adds = |p: usize| arows.iter().any(|row| row[p] != 0.0);
                    let Some(last) = (0..kc).rev().find(|&p| adds(p)) else {
                        continue;
                    };
                    let arows = arows.map(|row| &row[..=last]);
                    // Up to its first zero of A the block needs no skip test.
                    let dense = (0..=last)
                        .find(|&p| arows.iter().any(|row| row[p] == 0.0))
                        .unwrap_or(last + 1);
                    let head = arows.map(|row| &row[..dense]);
                    let tail = arows.map(|row| &row[dense..]);
                    for (bstrip, col0) in bp.chunks_exact(kc * NR).zip((0..nc).step_by(NR)) {
                        let live = NR.min(nc - col0);
                        let (head_steps, tail_steps) =
                            bstrip.as_chunks::<NR>().0[..=last].split_at(dense);
                        let c = &mut slab[r0 * n + jc + col0..];
                        let mut acc = [[0.0f64; NR]; MR];
                        for (i, acc) in acc.iter_mut().enumerate().take(rows) {
                            acc[..live].copy_from_slice(&c[i * n..][..live]);
                        }
                        let acc = reference_tile(acc, &head, head_steps, false);
                        let acc = reference_tile(acc, &tail, tail_steps, true);
                        for (i, acc) in acc.iter().enumerate().take(rows) {
                            c[i * n..][..live].copy_from_slice(&acc[..live]);
                        }
                    }
                }
            }
        }
    }
}

/// One `MR`×`NR` block of [`Reference`]: `acc[i][j] += arows[i][p]·steps[p][j]`
/// for p ascending, a multiply then an add, the term skipped where
/// `arows[i][p] == 0.0` — unless the caller has ruled that out and passes
/// `zeros` false, which leaves the k loop without a branch.
#[inline(always)]
fn reference_tile<const MR: usize, const NR: usize>(
    mut acc: [[f64; NR]; MR],
    arows: &[&[f64]; MR],
    steps: &[[f64; NR]],
    zeros: bool,
) -> [[f64; NR]; MR] {
    for row in arows {
        assert_eq!(row.len(), steps.len(), "a row of A per step of B");
    }
    for (p, b) in steps.iter().enumerate() {
        for i in 0..MR {
            let aip = arows[i][p];
            if !zeros || aip != 0.0 {
                for j in 0..NR {
                    acc[i][j] += aip * b[j];
                }
            }
        }
    }
    acc
}

// ------------------------------------------------------ triangular kernels
//
// SYRK and the triangular solves run the same packed strips through the same
// register kernel as GEMM. None of them has a size below which it falls back
// to scalar loops: the only scalar work is the masked write-back of a
// micro-tile (SYRK) and what happens inside one `TB`×`TB` diagonal block (the
// solves), so no tile size is a cliff. `TB` is `NR`: one B strip wide and a
// whole number of A strips high. Each call takes its packing storage in one
// allocation, as GEMM's sweep does.

/// [`RegKernel::tile`] with its result materialised before the caller
/// consumes it. The triangular sweeps pick the accumulator block apart
/// (masked rows, a transposed solve); left to fuse that into the k loop,
/// LLVM re-lays the accumulators to suit the consumer and fills the loop
/// with permutes and blends — SYRK at a 64-tile ran at 12 Gflop/s against 17
/// with the loop kept as GEMM compiles it, `dtrsm_rlt` at 14.5 against 18.
/// An optimisation barrier, not a semantic one.
#[inline(always)]
fn micro_tile<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(
    kern: K,
    astrip: &[f64],
    bstrip: &[f64],
) -> [[f64; NR]; MR] {
    std::hint::black_box(kern.tile(astrip, bstrip))
}

/// Blocked symmetric rank-k update, lower: `C = C − A·Aᵀ` on the lower
/// triangle of the n×n tile `C`, `A` n×k: one packed sweep with A as both
/// operands ([`dsyrk_ln_rows`] over all the rows).
pub fn dsyrk_ln(a: &[f64], c: &mut [f64], n: usize, k: usize) {
    assert_eq!(a.len(), n * k, "A dims");
    assert_eq!(c.len(), n * n, "C dims");
    dsyrk_ln_rows(a, c, 0, n, n, k);
}

/// The row-slab form of [`dsyrk_ln`] used by task expansion: update rows
/// `[row0, row0+nrows)` of the lower-triangular update, where `a` is the
/// *full* n×k A and `c_rows` is the nrows×n slab of C starting at `row0`.
///
/// GEMM's sweep with A's rows packed as the left operand and A (a
/// transposed source) as the right one: micro-tiles wholly above the
/// diagonal are skipped, the ones that straddle it are computed whole and
/// written back up to the diagonal. Every element is `c − Σₚ aᵢₚ·aⱼₚ`
/// accumulated in p order per `KC` slab, whatever micro-tile, block or slab
/// it sits in, so every partition of the rows into slabs produces the same
/// bits.
pub fn dsyrk_ln_rows(a: &[f64], c_rows: &mut [f64], row0: usize, nrows: usize, n: usize, k: usize) {
    Isa::widest().dsyrk_ln_rows(a, c_rows, row0, nrows, n, k);
}

struct SyrkRows<'a> {
    a: &'a [f64],
    c_rows: &'a mut [f64],
    row0: usize,
    nrows: usize,
    n: usize,
    k: usize,
}

impl Sweep for SyrkRows<'_> {
    type Out = ();

    #[inline(always)]
    fn run<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(self, kern: K) {
        let SyrkRows {
            a,
            c_rows,
            row0,
            nrows,
            n,
            k,
        } = self;
        if nrows == 0 || k == 0 {
            return;
        }
        // Columns past the slab's last row are above the diagonal in every
        // row. Within them the sweep is `Gemm`'s own blocking: `KC`-deep
        // slabs, `NC`-wide panels of the right operand, `MC` rows of the left
        // one packed at a time.
        let end = row0 + nrows;
        let ap_len = MC.min(nrows.next_multiple_of(MR)) * KC.min(k);
        let bp_len = NC.min(end.next_multiple_of(NR)) * KC.min(k);
        let mut storage = Vec::<f64>::with_capacity(ap_len + bp_len);
        let (ap, bp) = storage.spare_capacity_mut()[..ap_len + bp_len].split_at_mut(ap_len);
        for (jc, nc, pc, kc) in panel_grid(end, k) {
            let bp = pack_b(kern, BSrc::Trans { bt: a, ldbt: k }, pc, kc, jc, nc, bp);
            for ic in (row0..end).step_by(MC) {
                let mc = MC.min(end - ic);
                if ic + mc <= jc {
                    continue; // the whole block is above the diagonal
                }
                let ap = pack_a(kern, a, k, ic, mc, pc, kc, ap);
                let c = &mut c_rows[(ic - row0) * n + jc..];
                syrk_macro_kernel(kern, ap, bp, mc, nc, kc, ic, jc, c, n);
            }
        }
    }
}

/// The macro-kernel for the lower triangle: `C −= A_block · B_panel` on the
/// `mc`×`nc` block of C whose top-left element is (`i0`, `j0`) of the tile,
/// touching only elements on or below the tile's diagonal.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn syrk_macro_kernel<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(
    kern: K,
    ap: &[f64],
    bp: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    i0: usize,
    j0: usize,
    c: &mut [f64],
    ldc: usize,
) {
    for (bstrip, col0) in bp.chunks_exact(kc * NR).zip((0..nc).step_by(NR)) {
        let nr = NR.min(nc - col0);
        for (astrip, row0) in ap.chunks_exact(kc * MR).zip((0..mc).step_by(MR)) {
            let mr = MR.min(mc - row0);
            // Row i of the micro-tile owns the columns up to its diagonal
            // element: `below(i)` of them lie in this strip or left of it.
            let below = |i: usize| (i0 + row0 + i + 1).saturating_sub(j0 + col0);
            if below(mr - 1) == 0 {
                continue; // the whole micro-tile is above the diagonal
            }
            // GEMM's micro-tile with alpha −1 and beta 1, each row up to
            // its diagonal element.
            let mut cols = [0; MR];
            for (i, n) in cols.iter_mut().enumerate().take(mr) {
                *n = nr.min(below(i));
            }
            let c = &mut c[row0 * ldc + col0..];
            kern.gemm_tile(astrip, bstrip, -1.0, 1.0, c, ldc, cols);
        }
    }
}

/// Blocked `B = B·L⁻ᵀ` (right/lower/transposed, the Cholesky panel solve),
/// `L` n×n lower, `B` m×n: the right-side solve with `Lᵀ` as the upper
/// triangle. The strict upper triangle of `l` is never read.
pub fn dtrsm_rlt(l: &[f64], b: &mut [f64], m: usize, n: usize) {
    Isa::widest().dtrsm_rlt(l, b, m, n);
}

/// Blocked `B = B·U⁻¹` (right/upper/non-unit, block-LU column panel), `U`
/// n×n upper, `B` m×n: the right-side solve on `U` as stored. The strict
/// lower triangle of `u` (block LU keeps `L` there) is never read.
pub fn dtrsm_runn(u: &[f64], b: &mut [f64], m: usize, n: usize) {
    Isa::widest().dtrsm_runn(u, b, m, n);
}

/// `X·T = B` in place for an upper-triangular, non-unit n×n `T` given in
/// either layout of [`BSrc`], `B` m×n. Left-looking over `TB`-wide column
/// blocks: a block's columns first lose `X[:, ..jb] · T[..jb, block]` — a
/// packed GEMM, the register kernel on the strips below — and are then
/// solved against the `TB`×`TB` diagonal block, one micro-tile at a time.
///
/// The solved columns are packed as the left operand as they are produced
/// (the solve works on the micro-tile transposed, which *is* the packed
/// layout) and `T`'s strip as each block reaches it, so every element of
/// either is packed once per call, and B is never read while it is borrowed
/// for writing. A row's arithmetic involves no other row, so any partition
/// of B into row slabs produces the same bits.
struct TrsmRight<'a> {
    t: BSrc<'a>,
    b: &'a mut [f64],
    m: usize,
    n: usize,
}

impl Sweep for TrsmRight<'_> {
    type Out = ();

    #[inline(always)]
    fn run<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(self, kern: K) {
        const { assert!(NR.is_multiple_of(MR), "TB is a whole number of A strips") };
        let TrsmRight { t, b, m, n } = self;
        if m == 0 || n == 0 {
            return;
        }
        // Solved X as MR-high row strips, each n deep; one NR-wide strip of T.
        let xp_len = m.next_multiple_of(MR) * n;
        let mut storage = Vec::<f64>::with_capacity(xp_len + n * NR);
        let (xp, tp) = storage.spare_capacity_mut()[..xp_len + n * NR].split_at_mut(xp_len);
        for jb in (0..n).step_by(NR) {
            let nb = NR.min(n - jb);
            // T[..jb, jb..jb+nb]: what the block's columns lose to the
            // solved ones.
            let tstrip = pack_b(kern, t, 0, jb, jb, nb, tp);
            let diag = DiagBlock::<NR>::new(nb, |p, j| match t {
                BSrc::Normal { b: t, ldb } => t[(jb + p) * ldb + jb + j],
                BSrc::Trans { bt, ldbt } => bt[(jb + j) * ldbt + jb + p],
            });
            for (xstrip, row0) in xp.chunks_exact_mut(n * MR).zip((0..m).step_by(MR)) {
                let mr = MR.min(m - row0);
                // SAFETY: every earlier block step appended its `NR` solved
                // columns to this strip, `jb` of them in all.
                let (solved, rest) = unsafe { written_prefix(xstrip, jb * MR) };
                let tile = &mut b[row0 * n + jb..];
                let x = solve_tile(kern, solved, tstrip, &diag, tile, n, mr, nb);
                rest[..nb * MR].write_copy_of_slice(x[..nb].as_flattened());
            }
        }
    }
}

/// The `TB`×`TB` diagonal block of an upper-triangular `T`, as the
/// substitution reads it.
struct DiagBlock<const TB: usize> {
    /// `right[p][j] = T[p][j]`, p < j: row p right of its diagonal element.
    right: [[f64; TB]; TB],
    /// `1 / T[j][j]`: the solve multiplies where the naive loops divide
    /// (≤ 1 ulp apart, and off the critical path of the substitution).
    inv: [f64; TB],
}

impl<const TB: usize> DiagBlock<TB> {
    /// The leading `nb`×`nb` block from `at(p, j) = T[p][j]`, p <= j. Columns
    /// past `nb` are those of the identity, so the solve is shape-oblivious.
    #[inline(always)]
    fn new(nb: usize, at: impl Fn(usize, usize) -> f64) -> Self {
        let mut d = DiagBlock {
            right: [[0.0; TB]; TB],
            inv: [1.0; TB],
        };
        for j in 0..nb {
            for p in 0..j {
                d.right[p][j] = at(p, j);
            }
            d.inv[j] = 1.0 / at(j, j);
        }
        d
    }
}

/// The right-side solve's micro-tile: rows `..mr`, columns `..nb` of the
/// tile at `b` (leading dimension `ldb`) lose `solved · tstrip` and are
/// solved against `diag`. `solved` is the rows' strip of the packed X so
/// far. Returns the solved micro-tile transposed, `x[j][i]` for row i and
/// column j — the packed layout, for the caller to append to the strip.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn solve_tile<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(
    kern: K,
    solved: &[f64],
    tstrip: &[f64],
    diag: &DiagBlock<NR>,
    b: &mut [f64],
    ldb: usize,
    mr: usize,
    nb: usize,
) -> [[f64; MR]; NR] {
    let acc = micro_tile(kern, solved, tstrip);
    // r = B's micro-tile less what the solved columns took; rows past `mr`
    // and columns past `nb` are zero padding.
    let mut r = [[0.0f64; NR]; MR];
    for i in 0..mr {
        let brow = &b[i * ldb..][..nb];
        for (j, v) in brow.iter().enumerate() {
            r[i][j] = v - acc[i][j];
        }
    }
    // x[j][i] for row i and column j: the micro-tile transposed, so each
    // step of the substitution is one MR-wide vector operation and the
    // result is already in the packed layout. Left-looking: the sum over p
    // is a chain LLVM may not reorder, so it vectorises along i (given
    // independent column updates it goes across columns, with gathers).
    let mut x = [[0.0f64; MR]; NR];
    for j in 0..NR {
        let mut v = [0.0f64; MR];
        for i in 0..MR {
            v[i] = r[i][j];
        }
        for (xp, row) in x.iter().zip(&diag.right).take(j) {
            for i in 0..MR {
                v[i] = K::madd(-xp[i], row[j], v[i]);
            }
        }
        for i in 0..MR {
            x[j][i] = v[i] * diag.inv[j];
        }
    }
    for i in 0..mr {
        let brow = &mut b[i * ldb..][..nb];
        for (j, v) in brow.iter_mut().enumerate() {
            *v = x[j][i];
        }
    }
    x
}

/// Blocked `B = L⁻¹·B` (left/lower/unit, block-LU row panel), `L` m×m unit
/// lower (its diagonal and upper triangle are never read), `B` m×n.
/// Left-looking over `TB`-high row blocks, the mirror image of the
/// right-side solve: a block's rows lose `L[block, ..rb] · X[..rb]` through
/// the register kernel, then the block is solved against its own `TB`×`TB`
/// corner of `L`; the solved rows are packed as the right operand as they
/// are produced. A column's arithmetic involves no other column.
pub fn dtrsm_llu(l: &[f64], b: &mut [f64], m: usize, n: usize) {
    Isa::widest().dtrsm_llu(l, b, m, n);
}

struct TrsmLeft<'a> {
    l: &'a [f64],
    b: &'a mut [f64],
    m: usize,
    n: usize,
}

impl Sweep for TrsmLeft<'_> {
    type Out = ();

    #[inline(always)]
    fn run<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(self, kern: K) {
        const { assert!(NR.is_multiple_of(MR), "TB is a whole number of A strips") };
        let TrsmLeft { l, b, m, n } = self;
        if m == 0 || n == 0 {
            return;
        }
        // Solved X as NR-wide column strips, each m deep; TB rows of L.
        let xp_len = n.next_multiple_of(NR) * m;
        let mut storage = Vec::<f64>::with_capacity(xp_len + NR * m);
        let (xp, lp) = storage.spare_capacity_mut()[..xp_len + NR * m].split_at_mut(xp_len);
        for rb in (0..m).step_by(NR) {
            let nb = NR.min(m - rb);
            // L[rb..rb+nb, ..rb]: what the block's rows lose to the solved
            // ones.
            let lp = pack_a(kern, l, m, rb, nb, 0, rb, lp);
            for (xstrip, col0) in xp.chunks_exact_mut(m * NR).zip((0..n).step_by(NR)) {
                let nr = NR.min(n - col0);
                // SAFETY: every earlier block step appended its `NR` solved
                // rows to this strip, `rb` of them in all.
                let (solved, rest) = unsafe { written_prefix(xstrip, rb * NR) };
                // x[r][j] = X[rb+r][col0+j]; columns past `nr` are padding.
                let mut x = [[0.0f64; NR]; NR];
                for (si, row0) in (0..nb).step_by(MR).enumerate() {
                    let lstrip = &lp[si * rb * MR..(si + 1) * rb * MR];
                    let acc = micro_tile(kern, lstrip, solved);
                    for i in 0..MR.min(nb - row0) {
                        let brow = &b[(rb + row0 + i) * n + col0..][..nr];
                        for (j, v) in brow.iter().enumerate() {
                            x[row0 + i][j] = v - acc[i][j];
                        }
                    }
                }
                for r in 1..nb {
                    let (done, rest) = x.split_at_mut(r);
                    for (p, xprow) in done.iter().enumerate() {
                        let lrp = l[(rb + r) * m + rb + p];
                        for j in 0..NR {
                            rest[0][j] = K::madd(-lrp, xprow[j], rest[0][j]);
                        }
                    }
                }
                for (r, xrow) in x.iter().enumerate().take(nb) {
                    b[(rb + r) * n + col0..][..nr].copy_from_slice(&xrow[..nr]);
                }
                rest[..nb * NR].write_copy_of_slice(x[..nb].as_flattened());
            }
        }
    }
}

// ---------------------------------------------------------------- Cholesky

/// [`crate::factor::dpotrf`], right-looking: once column j is scaled it is
/// copied to a contiguous scratch, and each row i below it takes its trailing
/// update `a[i][j+1..=i] −= l[i][j]·l[j+1..=i][j]` as one contiguous
/// multiply-then-subtract — a loop that vectorises, where the left-looking
/// dot products run along strided columns. Every element still takes its
/// subtractions in k order, a multiply then a subtract, and is divided once
/// after the last, so the bits are the left-looking loop's
/// ([`crate::naive::dpotrf`]) on every instantiation, a matrix that is not
/// positive definite fails at the same pivot, and the strict upper triangle
/// is neither read nor written. One allocation: the column.
struct Potrf<'a> {
    a: &'a mut [f64],
    n: usize,
}

impl Sweep for Potrf<'_> {
    type Out = Result<(), FactorError>;

    #[inline(always)]
    fn run<const MR: usize, const NR: usize, K: RegKernel<MR, NR>>(self, _kern: K) -> Self::Out {
        let Potrf { a, n } = self;
        let mut col = Vec::with_capacity(n);
        for j in 0..n {
            let d = a[j * n + j];
            if d <= 0.0 || !d.is_finite() {
                return Err(FactorError::NotPositiveDefinite(j));
            }
            let djj = d.sqrt();
            a[j * n + j] = djj;
            col.clear();
            col.extend((j + 1..n).map(|i| a[i * n + j]));
            for l in &mut col {
                *l /= djj;
            }
            // Row i = j + 1 + t, columns j + 1 ..= i.
            for (t, &lij) in col.iter().enumerate() {
                let i = j + 1 + t;
                a[i * n + j] = lij;
                let row = &mut a[i * n + j + 1..=i * n + i];
                for (x, &l) in row.iter_mut().zip(&col[..=t]) {
                    *x -= lij * l;
                }
            }
        }
        Ok(())
    }
}

/// The kernels as one chosen instantiation runs them. Not part of the API —
/// the free functions above are, and they run [`Isa::widest`] — but public
/// so that the differential tests and `kernel_gemm` reach every
/// instantiation the CPU has, without an environment variable or a feature.
/// Each panics if the CPU does not run `self`.
#[doc(hidden)]
impl Isa {
    /// [`gemm_strided`].
    #[allow(clippy::too_many_arguments)]
    pub fn gemm_strided(
        self,
        alpha: f64,
        a: &[f64],
        lda: usize,
        b: BSrc<'_>,
        beta: f64,
        c: &mut [f64],
        ldc: usize,
        m: usize,
        n: usize,
        k: usize,
    ) {
        let sweep = Gemm {
            alpha,
            a,
            lda,
            b: BOperand::Src(b),
            beta,
            c,
            ldc,
            m,
            n,
            k,
        };
        with_isa(self, sweep);
    }

    /// [`PackedB::pack`]; [`gemm_prepacked`] then runs `self`.
    pub fn pack_b(self, b: BSrc<'_>, k: usize, n: usize) -> PackedB {
        let panels = with_isa(self, PackB { b, k, n });
        PackedB {
            isa: self,
            k,
            n,
            panels,
        }
    }

    /// [`dsyrk_ln_rows`].
    pub fn dsyrk_ln_rows(
        self,
        a: &[f64],
        c_rows: &mut [f64],
        row0: usize,
        nrows: usize,
        n: usize,
        k: usize,
    ) {
        assert_eq!(a.len(), n * k, "A dims");
        assert_eq!(c_rows.len(), nrows * n, "C slab dims");
        assert!(row0 + nrows <= n, "slab in range");
        let sweep = SyrkRows {
            a,
            c_rows,
            row0,
            nrows,
            n,
            k,
        };
        with_isa(self, sweep);
    }

    /// [`dtrsm_rlt`].
    pub fn dtrsm_rlt(self, l: &[f64], b: &mut [f64], m: usize, n: usize) {
        assert_eq!(l.len(), n * n, "L dims");
        assert_eq!(b.len(), m * n, "B dims");
        let t = BSrc::Trans { bt: l, ldbt: n };
        with_isa(self, TrsmRight { t, b, m, n });
    }

    /// [`dtrsm_runn`].
    pub fn dtrsm_runn(self, u: &[f64], b: &mut [f64], m: usize, n: usize) {
        assert_eq!(u.len(), n * n, "U dims");
        assert_eq!(b.len(), m * n, "B dims");
        let t = BSrc::Normal { b: u, ldb: n };
        with_isa(self, TrsmRight { t, b, m, n });
    }

    /// [`dtrsm_llu`].
    pub fn dtrsm_llu(self, l: &[f64], b: &mut [f64], m: usize, n: usize) {
        assert_eq!(l.len(), m * m, "L dims");
        assert_eq!(b.len(), m * n, "B dims");
        with_isa(self, TrsmLeft { l, b, m, n });
    }

    /// [`crate::factor::dpotrf`].
    pub fn dpotrf(self, a: &mut [f64], n: usize) -> Result<(), FactorError> {
        assert_eq!(a.len(), n * n, "A dims");
        with_isa(self, Potrf { a, n })
    }

    /// [`crate::dense::Matrix::matmul_ref`] on row-major slices: `a` m×k,
    /// `b` k×n, the m×n product returned.
    pub fn matmul_ref(self, a: &[f64], b: &[f64], m: usize, n: usize, k: usize) -> Vec<f64> {
        assert_eq!(b.len(), k * n, "B dims");
        let lanes = self.matmul_ref_lanes(m, n, k);
        self.matmul_ref_split(a, BSrc::Normal { b, ldb: n }, m, n, k, lanes)
    }

    /// [`crate::dense::Matrix::matmul_ref_nt`] on row-major slices: `a` m×k,
    /// `bt` n×k, the m×n product `a·btᵀ` returned.
    pub fn matmul_ref_nt(self, a: &[f64], bt: &[f64], m: usize, n: usize, k: usize) -> Vec<f64> {
        assert_eq!(bt.len(), n * k, "Bᵀ dims");
        let lanes = self.matmul_ref_lanes(m, n, k);
        self.matmul_ref_split(a, BSrc::Trans { bt, ldbt: k }, m, n, k, lanes)
    }

    /// How many lanes [`Isa::matmul_ref`] splits an m×n×k product across
    /// on this host: one per core, over no more lanes than get
    /// [`SPAWN_LANE_US`] of work each at the instantiation's nominal rate,
    /// the work counted as if A were dense; one (no thread started) when
    /// that is fewer than two.
    pub fn matmul_ref_lanes(self, m: usize, n: usize, k: usize) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let fed = (flops / self.lane_flops_per_us() / SPAWN_LANE_US) as usize;
        cores.min(fed).max(1)
    }

    /// The reference product on exactly `lanes` lanes (at most one per
    /// `MR`-row block of C): C is cut into row slabs of a whole number of
    /// blocks, written in place, and dealt to the lanes snake-wise — lane
    /// order forward on one round, backward on the next — so a pair of
    /// rounds gives every lane the same share of a dense A and of a
    /// triangular one, whose rows cost in proportion to their index. The
    /// caller is lane 0; the others are scoped threads. Any split has the
    /// same bits.
    pub fn matmul_ref_split(
        self,
        a: &[f64],
        b: BSrc<'_>,
        m: usize,
        n: usize,
        k: usize,
        lanes: usize,
    ) -> Vec<f64> {
        assert_eq!(a.len(), m * k, "A dims");
        let mut c = vec![0.0; m * n];
        if c.is_empty() {
            return c;
        }
        let lanes = lanes.clamp(1, m.div_ceil(self.tile().mr));
        // `DEAL_ROUNDS` slabs per lane; a slab is never less than a block.
        let rows = m
            .div_ceil(lanes * DEAL_ROUNDS)
            .next_multiple_of(self.tile().mr);
        let mut dealt: Vec<Vec<(usize, &mut [f64])>> = (0..lanes).map(|_| Vec::new()).collect();
        for (s, slab) in c.chunks_mut(rows * n).enumerate() {
            let (round, seat) = (s / lanes, s % lanes);
            let lane = if round % 2 == 0 {
                seat
            } else {
                lanes - 1 - seat
            };
            dealt[lane].push((s * rows, slab));
        }
        // Every lane is dealt a slab: slabs are single blocks, of which
        // there are at least `lanes`, or fewer than m / lanes rows each.
        let sweep = |slabs| with_isa(self, Reference { a, b, slabs, n, k });
        let mut dealt = dealt.into_iter();
        let own = dealt.next().expect("one lane at least");
        std::thread::scope(|scope| {
            for slabs in dealt {
                scope.spawn(move || sweep(slabs));
            }
            sweep(own);
        });
        c
    }
}

// --------------------------------------------------------------- expansion

/// How long a lane's share of a kernel has to last, in µs, before a parallel
/// region is worth opening for it: a couple of fork/joins
/// (`coi.workgroup_forkjoin_us_w2`, ~8 µs on a quiet host). Stated in time —
/// what a region costs does not depend on how fast the lanes multiply.
const MIN_LANE_US: f64 = 16.0;

/// The same for a lane of the reference product, which starts a thread of
/// its own: spawning and joining a scoped thread takes ~30 µs on a quiet
/// 2-core host and several times that on a busy one, so a lane is started
/// only for ~100 µs of work. Counted at [`Isa::lane_flops_per_us`], a rate
/// the reference product (a multiply and an add, a zero test) runs below, so
/// a lane's real share is longer still.
const SPAWN_LANE_US: f64 = 100.0;

/// Snake rounds of row slabs per lane in [`Isa::matmul_ref_split`]: one
/// pair balances a triangular A exactly. Two pairs measured the same at
/// n = 1024 on 2 lanes (AVX-512F; medians of 31 alternated runs, A·B 77.2
/// against 77.7 ms, L·Lᵀ 43.1 against 42.4 ms), so one pair it is.
const DEAL_ROUNDS: usize = 2;

impl Isa {
    /// Flop per µs one lane sustains on a packed 64-tile under this
    /// instantiation, to the nearest few (bare `gemm_strided`: 12, 36 and
    /// 50 Gflop/s on the recording host). Only [`expansion_rows`] and
    /// [`Isa::matmul_ref_lanes`] read it, to turn [`MIN_LANE_US`] and
    /// [`SPAWN_LANE_US`] into work; it never reaches a result.
    fn lane_flops_per_us(self) -> f64 {
        match self {
            Isa::Baseline => 12e3,
            Isa::Avx2Fma => 36e3,
            Isa::Avx512f => 50e3,
        }
    }

    /// How many lanes a kernel of `flops` gives [`MIN_LANE_US`] of work each.
    fn lanes_fed(self, flops: f64) -> usize {
        (flops / self.lane_flops_per_us() / MIN_LANE_US) as usize
    }
}

/// Rows per chunk when a compute task of `flops` floating-point operations
/// partitions an m-row tile across a stream's `lanes` threads: ~2 chunks per
/// lane for dynamic balance, rounded up to a micro-tile multiple so no lane
/// gets a partial strip — over no more lanes than get `MIN_LANE_US` of work
/// each, and as one slab (`m` rows) when that is fewer than two: under
/// AVX-512F a 64-tile GEMM is ~10 µs whole and stays together, a 128-tile
/// (~80 µs) feeds up to five lanes. Slabs never change a bit, so neither does
/// this choice.
pub fn expansion_rows(m: usize, lanes: usize, flops: f64) -> usize {
    let isa = Isa::widest();
    let lanes = lanes.min(isa.lanes_fed(flops));
    if lanes <= 1 {
        return m.max(1);
    }
    let target = m.div_ceil(lanes * 2).max(1);
    target.next_multiple_of(isa.tile().mr).min(m.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::random;
    use crate::naive;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        let norm = b.iter().fold(1.0f64, |acc, x| acc.max(x.abs()));
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * norm,
                "idx {i}: {x} vs {y} (norm {norm})"
            );
        }
    }

    #[test]
    fn blocked_dgemm_matches_naive_beyond_one_block() {
        // Crosses MC, KC and NC boundaries.
        let (m, n, k) = (MC + 5, NC + 3, KC + 7);
        let a = random(m, k, 1);
        let b = random(k, n, 2);
        let c0 = random(m, n, 3);
        let mut want = c0.clone();
        naive::dgemm(
            1.5,
            a.as_slice(),
            b.as_slice(),
            -0.5,
            want.as_mut_slice(),
            m,
            n,
            k,
        );
        for isa in Isa::supported() {
            let mut got = c0.clone();
            let b = BSrc::Normal {
                b: b.as_slice(),
                ldb: n,
            };
            isa.gemm_strided(
                1.5,
                a.as_slice(),
                k,
                b,
                -0.5,
                got.as_mut_slice(),
                n,
                m,
                n,
                k,
            );
            assert_close(got.as_slice(), want.as_slice(), 1e-12);
        }
    }

    #[test]
    fn strided_view_updates_only_the_view() {
        // C is a 3×4 window at (1,2) inside a 6×8 matrix.
        let (m, n, k) = (3usize, 4usize, 5usize);
        let a = random(m, k, 11);
        let b = random(k, n, 12);
        let before = random(6, 8, 13);
        let ldc = 8;
        let mut expect = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                expect[i * n + j] = before.at(i + 1, j + 2);
            }
        }
        naive::dgemm(2.0, a.as_slice(), b.as_slice(), 1.0, &mut expect, m, n, k);
        for isa in Isa::supported() {
            let mut full = before.clone();
            isa.gemm_strided(
                2.0,
                a.as_slice(),
                k,
                BSrc::Normal {
                    b: b.as_slice(),
                    ldb: n,
                },
                1.0,
                &mut full.as_mut_slice()[ldc + 2..],
                ldc,
                m,
                n,
                k,
            );
            for i in 0..6 {
                for j in 0..8 {
                    let inside = (1..4).contains(&i) && (2..6).contains(&j);
                    if inside {
                        let e = expect[(i - 1) * n + (j - 2)];
                        assert!((full.at(i, j) - e).abs() < 1e-12, "{isa:?} ({i},{j})");
                    } else {
                        assert_eq!(
                            full.at(i, j),
                            before.at(i, j),
                            "{isa:?} ({i},{j}) untouched"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn prepacked_b_matches_packing_on_the_fly_bit_for_bit() {
        // Crosses NC and KC, with ragged edges in every dimension; the
        // slabs of A and C are what task expansion hands each lane.
        let (m, n, k) = (MC + 9, NC + 13, KC + 5);
        let a = random(m, k, 31);
        let b = random(k, n, 32);
        let bt = random(n, k, 33);
        for isa in Isa::supported() {
            let Tile { mr, nr } = isa.tile();
            for src in [
                BSrc::Normal {
                    b: b.as_slice(),
                    ldb: n,
                },
                BSrc::Trans {
                    bt: bt.as_slice(),
                    ldbt: k,
                },
            ] {
                let mut whole = random(m, n, 34);
                let mut slabs = whole.clone();
                isa.gemm_strided(
                    -1.0,
                    a.as_slice(),
                    k,
                    src,
                    1.0,
                    whole.as_mut_slice(),
                    n,
                    m,
                    n,
                    k,
                );
                let bp = isa.pack_b(src, k, n);
                let mut row0 = 0;
                // A whole strip, one row, strips and a bit, the rest.
                let pieces = [mr, 1, 2 * nr + mr + 1];
                for nrows in pieces.into_iter().chain([m - pieces.iter().sum::<usize>()]) {
                    gemm_prepacked(
                        -1.0,
                        &a.as_slice()[row0 * k..(row0 + nrows) * k],
                        k,
                        &bp,
                        1.0,
                        &mut slabs.as_mut_slice()[row0 * n..(row0 + nrows) * n],
                        n,
                        nrows,
                    );
                    row0 += nrows;
                }
                assert_eq!(row0, m);
                assert_eq!(slabs.as_slice(), whole.as_slice(), "{isa:?}");
            }
        }
    }

    #[test]
    fn syrk_row_slabs_compose_to_the_whole_update_bit_for_bit() {
        // Past two `MC` row blocks, ragged against MR and NR; then past `NC`
        // and `KC` as well (a second panel, a second k-slab's subtraction).
        // Slabs that straddle micro-tiles and blocks any which way.
        for (n, k) in [(2 * MC + 9, 19usize), (NC + 13, KC + 5)] {
            let a = random(n, k, 21);
            let c0 = random(n, n, 22);
            let mut oracle = c0.clone();
            naive::dsyrk_ln(a.as_slice(), oracle.as_mut_slice(), n, k);
            for isa in Isa::supported() {
                let Tile { mr, nr } = isa.tile();
                let mut whole = c0.clone();
                isa.dsyrk_ln_rows(a.as_slice(), whole.as_mut_slice(), 0, n, n, k);
                assert_close(whole.as_slice(), oracle.as_slice(), 1e-12);
                let ragged = vec![nr + 3, MC - mr, mr + 2, n];
                for pieces in [vec![n], ragged, vec![mr; n / mr + 1]] {
                    let mut c = c0.clone();
                    let mut row0 = 0;
                    for nrows in pieces {
                        let nrows = nrows.min(n - row0);
                        let slab = &mut c.as_mut_slice()[row0 * n..(row0 + nrows) * n];
                        isa.dsyrk_ln_rows(a.as_slice(), slab, row0, nrows, n, k);
                        row0 += nrows;
                    }
                    assert_eq!(row0, n);
                    assert_eq!(c.as_slice(), whole.as_slice(), "{isa:?} n={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn expansion_rows_is_balanced_and_micro_aligned() {
        let mr = Isa::widest().tile().mr;
        let plenty = 1e9;
        assert_eq!(expansion_rows(64, 1, plenty), 64);
        let r = expansion_rows(64, 4, plenty);
        assert_eq!(r % mr, 0);
        assert!((mr..=64).contains(&r));
        // Tiny loops never produce zero-row chunks.
        assert!(expansion_rows(1, 8, plenty) >= 1);
        assert!(expansion_rows(0, 2, plenty) >= 1);
        // The benchmark's Cholesky tile is one slab under every instantiation
        // that vectorises (a 64-tile GEMM is ~10 µs whole; the baseline, a
        // quarter as fast, cuts its GEMM in two), its matmul tile expands.
        let gemm = |t| crate::flops::gemm(t, t, t);
        for (isa, gemm64, syrk64, gemm128) in [
            (Isa::Avx512f, 0, 0, 5),
            (Isa::Avx2Fma, 0, 0, 7),
            (Isa::Baseline, 2, 1, 21),
        ] {
            assert_eq!(isa.lanes_fed(gemm(64)), gemm64, "{isa:?}");
            assert_eq!(isa.lanes_fed(crate::flops::syrk(64, 64)), syrk64, "{isa:?}");
            assert_eq!(isa.lanes_fed(gemm(128)), gemm128, "{isa:?}");
        }
        // No more lanes than are fed, and one slab below two.
        let isa = Isa::widest();
        assert!(expansion_rows(128, 2, gemm(128)) < 128);
        assert_eq!(
            expansion_rows(128, 30, gemm(128)),
            expansion_rows(128, isa.lanes_fed(gemm(128)), gemm(128))
        );
        assert_eq!(
            expansion_rows(64, 8, 1.9 * MIN_LANE_US * isa.lane_flops_per_us()),
            64
        );
    }
}

#[cfg(test)]
mod perf_probe {
    // Run with: cargo test -p hs-linalg --release -- --ignored --nocapture
    use super::*;
    use crate::{dense::random, naive};
    use std::time::Instant;

    #[test]
    #[ignore = "perf probe, run manually in release"]
    fn gf_512() {
        let n = 512;
        let a = random(n, n, 1);
        let b = random(n, n, 2);
        let mut c = random(n, n, 3);
        let fl = 2.0 * (n as f64).powi(3);
        for (name, f) in [
            (
                "naive",
                naive::dgemm as fn(f64, &[f64], &[f64], f64, &mut [f64], usize, usize, usize),
            ),
            (
                "blocked",
                dgemm as fn(f64, &[f64], &[f64], f64, &mut [f64], usize, usize, usize),
            ),
        ] {
            let mut best = f64::MAX;
            for _ in 0..5 {
                let t0 = Instant::now();
                f(
                    1.0,
                    a.as_slice(),
                    b.as_slice(),
                    1.0,
                    c.as_mut_slice(),
                    n,
                    n,
                    n,
                );
                best = best.min(t0.elapsed().as_secs_f64());
            }
            println!("{name}: {:.2} GF/s", fl / best / 1e9);
        }
    }
}
