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
//! * the innermost [`micro_kernel`] keeps an `MR`×`NR` block of C in a
//!   `f64` accumulator array that the compiler keeps in registers and
//!   auto-vectorizes — each packed element of A and B is reused `NR`
//!   (resp. `MR`) times per load instead of once.
//!
//! Edge tiles are handled by zero-padding inside the packed panels, so the
//! hot loop is shape-oblivious; only the write-back is masked. The GEMM
//! entry points take leading dimensions, which is what lets the
//! row-partitioned task expansion in `hs-apps` run one kernel on row slabs.
//! SYRK and the triangular solves feed the same packed strips to the same
//! [`micro_kernel`] at every size (see "triangular kernels" below).
//!
//! Differential tests against [`crate::naive`] live in
//! `crates/linalg/tests/blocked_vs_naive.rs`.

/// Micro-tile rows: C rows held concurrently in the accumulator block.
pub const MR: usize = 4;
/// Micro-tile columns: C columns per accumulator block (one or two SIMD
/// vectors per row on SSE2/AVX).
pub const NR: usize = 8;
/// Rows of A packed per macro-block (MR multiple; A block is `MC`×`KC`).
pub const MC: usize = 64;
/// Depth of one packed slab of A and B.
pub const KC: usize = 256;
/// Columns of B packed per panel (NR multiple; B panel is `KC`×`NC`).
pub const NC: usize = 256;

const _: () = assert!(MC.is_multiple_of(MR), "MC must be a multiple of MR");
const _: () = assert!(NC.is_multiple_of(NR), "NC must be a multiple of NR");

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
    let panels = BPanels::OnTheFly {
        src: b,
        buf: vec![0.0f64; NC.min(n.next_multiple_of(NR)) * KC.min(k)],
    };
    gemm_panels(alpha, a, lda, panels, beta, c, ldc, m, n, k);
}

/// The right-hand operand of a GEMM packed once into micro-kernel panels.
///
/// A task that expands across a stream's lanes cuts C (and A) into row
/// slabs, and every slab multiplies by the *same* B: packing it per slab
/// repeats the work once per lane. The panels are read-only after
/// [`PackedB::pack`], so all lanes share one through [`gemm_prepacked`].
pub struct PackedB {
    k: usize,
    n: usize,
    /// The panels of [`panel_grid`], in its order, each zero-padded to whole
    /// `NR`-wide strips.
    panels: Vec<f64>,
}

impl PackedB {
    /// Pack the logical k×n matrix `b`.
    pub fn pack(b: BSrc<'_>, k: usize, n: usize) -> PackedB {
        let mut panels = vec![0.0f64; n.next_multiple_of(NR) * k];
        let mut off = 0;
        for (jc, nc, pc, kc) in panel_grid(n, k) {
            let len = nc.next_multiple_of(NR) * kc;
            pack_b(b, pc, kc, jc, nc, &mut panels[off..off + len]);
            off += len;
        }
        PackedB { k, n, panels }
    }
}

/// `C = alpha·A·B + beta·C` with B already packed: `a` is m×k (leading
/// dimension `lda`), `c` m×n (`ldc`), k and n those `b` was packed with.
/// Same sweep, same micro-kernel and same accumulation order as
/// [`gemm_strided`], so the two agree bit for bit.
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
    let panels = BPanels::Packed {
        panels: &b.panels,
        next: 0,
    };
    gemm_panels(alpha, a, lda, panels, beta, c, ldc, m, b.n, b.k);
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

/// Where [`gemm_panels`] gets its packed B panels from.
enum BPanels<'a> {
    /// Pack each panel from `src` into `buf` as the sweep reaches it.
    OnTheFly { src: BSrc<'a>, buf: Vec<f64> },
    /// Walk the panels of a [`PackedB`].
    Packed { panels: &'a [f64], next: usize },
}

impl BPanels<'_> {
    /// The packed panel at (`pc`, `jc`); calls follow [`panel_grid`] order.
    fn panel(&mut self, jc: usize, nc: usize, pc: usize, kc: usize) -> &[f64] {
        let len = nc.next_multiple_of(NR) * kc;
        match self {
            BPanels::OnTheFly { src, buf } => {
                pack_b(*src, pc, kc, jc, nc, &mut buf[..len]);
                &buf[..len]
            }
            BPanels::Packed { panels, next } => {
                let at = *next;
                *next += len;
                &panels[at..at + len]
            }
        }
    }
}

/// The blocked sweep shared by [`gemm_strided`] and [`gemm_prepacked`].
#[allow(clippy::too_many_arguments)]
fn gemm_panels(
    alpha: f64,
    a: &[f64],
    lda: usize,
    mut b: BPanels<'_>,
    beta: f64,
    c: &mut [f64],
    ldc: usize,
    m: usize,
    n: usize,
    k: usize,
) {
    if m == 0 || n == 0 {
        return;
    }
    debug_assert!(lda >= k && ldc >= n, "leading dimensions cover the view");
    if k == 0 || alpha == 0.0 {
        scale_rows(c, ldc, m, n, beta);
        return;
    }
    // Packed A block, zero-padded to full micro-tile strips.
    let mut ap = vec![0.0f64; MC.min(m.next_multiple_of(MR)) * KC.min(k)];
    for (jc, nc, pc, kc) in panel_grid(n, k) {
        let bp = b.panel(jc, nc, pc, kc);
        // beta applies exactly once per C element: on the first k-slab.
        let beta_eff = if pc == 0 { beta } else { 1.0 };
        for ic in (0..m).step_by(MC) {
            let mc = MC.min(m - ic);
            pack_a(a, lda, ic, mc, pc, kc, &mut ap);
            macro_kernel_dispatch(
                alpha,
                &ap,
                bp,
                mc,
                nc,
                kc,
                beta_eff,
                &mut c[ic * ldc + jc..],
                ldc,
            );
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

/// Pack the `mc`×`kc` block of A at (`ic`, `pc`) into MR-high row strips:
/// strip s holds columns-of-the-strip contiguously, `ap[s·kc·MR + p·MR + i]
/// = A[ic+s·MR+i][pc+p]`, with rows past `mc` zero-padded.
fn pack_a(a: &[f64], lda: usize, ic: usize, mc: usize, pc: usize, kc: usize, ap: &mut [f64]) {
    for (s, row0) in (0..mc).step_by(MR).enumerate() {
        let strip = &mut ap[s * kc * MR..(s + 1) * kc * MR];
        let live = MR.min(mc - row0);
        for p in 0..kc {
            let dst = &mut strip[p * MR..p * MR + MR];
            for (i, d) in dst.iter_mut().enumerate() {
                *d = if i < live {
                    a[(ic + row0 + i) * lda + pc + p]
                } else {
                    0.0
                };
            }
        }
    }
}

/// Pack the `kc`×`nc` panel of B at (`pc`, `jc`) into NR-wide column strips:
/// `bp[s·kc·NR + p·NR + j] = B[pc+p][jc+s·NR+j]`, zero-padded past `nc`.
fn pack_b(b: BSrc<'_>, pc: usize, kc: usize, jc: usize, nc: usize, bp: &mut [f64]) {
    for (s, col0) in (0..nc).step_by(NR).enumerate() {
        let strip = &mut bp[s * kc * NR..(s + 1) * kc * NR];
        let live = NR.min(nc - col0);
        match b {
            BSrc::Normal { b, ldb } => {
                for p in 0..kc {
                    let src = &b[(pc + p) * ldb + jc + col0..];
                    let dst = &mut strip[p * NR..p * NR + NR];
                    for (j, d) in dst.iter_mut().enumerate() {
                        *d = if j < live { src[j] } else { 0.0 };
                    }
                }
            }
            BSrc::Trans { bt, ldbt } => {
                for j in 0..NR {
                    if j < live {
                        let src = &bt[(jc + col0 + j) * ldbt + pc..];
                        for p in 0..kc {
                            strip[p * NR + j] = src[p];
                        }
                    } else {
                        for p in 0..kc {
                            strip[p * NR + j] = 0.0;
                        }
                    }
                }
            }
        }
    }
}

/// Select the widest macro-kernel instantiation the CPU supports. The
/// arithmetic is identical in every instantiation (same loops, same
/// accumulation order); `#[target_feature]` only changes the vector ISA the
/// compiler may use, so results are bit-identical across paths.
#[allow(clippy::too_many_arguments)]
fn macro_kernel_dispatch(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    beta_eff: f64,
    c: &mut [f64],
    ldc: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: the avx2/fma requirement of the target_feature function is
        // established by the runtime detection directly above.
        unsafe { macro_kernel_avx2(alpha, ap, bp, mc, nc, kc, beta_eff, c, ldc) };
        return;
    }
    macro_kernel(alpha, ap, bp, mc, nc, kc, beta_eff, c, ldc);
}

/// AVX2+FMA instantiation of [`macro_kernel`]: same code, compiled with the
/// wider vector ISA enabled so the accumulator block lives in ymm registers.
/// The inner update stays a multiply and an add (`vmulpd` + `vaddpd`): rustc
/// never contracts `a * b + c` into a fused multiply-add, whatever the
/// enabled features, which is also why every instantiation rounds alike.
///
/// # Safety
/// Callers must ensure the CPU supports avx2 and fma.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn macro_kernel_avx2(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    beta_eff: f64,
    c: &mut [f64],
    ldc: usize,
) {
    macro_kernel(alpha, ap, bp, mc, nc, kc, beta_eff, c, ldc);
}

/// Sweep the packed A block against the packed B panel, writing the
/// `mc`×`nc` block of C at leading dimension `ldc`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn macro_kernel(
    alpha: f64,
    ap: &[f64],
    bp: &[f64],
    mc: usize,
    nc: usize,
    kc: usize,
    beta_eff: f64,
    c: &mut [f64],
    ldc: usize,
) {
    for (sj, col0) in (0..nc).step_by(NR).enumerate() {
        let bstrip = &bp[sj * kc * NR..(sj + 1) * kc * NR];
        let nr = NR.min(nc - col0);
        for (si, row0) in (0..mc).step_by(MR).enumerate() {
            let astrip = &ap[si * kc * MR..(si + 1) * kc * MR];
            let mr = MR.min(mc - row0);
            let acc = micro_kernel(kc, astrip, bstrip);
            // Masked write-back of the (possibly partial) micro-tile.
            for i in 0..mr {
                let crow = &mut c[(row0 + i) * ldc + col0..(row0 + i) * ldc + col0 + nr];
                if beta_eff == 1.0 {
                    for (j, x) in crow.iter_mut().enumerate() {
                        *x += alpha * acc[i][j];
                    }
                } else {
                    for (j, x) in crow.iter_mut().enumerate() {
                        *x = alpha * acc[i][j] + beta_eff * *x;
                    }
                }
            }
        }
    }
}

/// The register-blocked inner product: an MR×NR block of `A_strip · B_strip`
/// accumulated over `kc`. The accumulator array is small enough for the
/// compiler to keep in vector registers; the i/j loops are fully unrollable
/// (constant trip counts) and the j loop auto-vectorizes.
#[inline(always)]
fn micro_kernel(kc: usize, astrip: &[f64], bstrip: &[f64]) -> [[f64; NR]; MR] {
    let mut acc = [[0.0f64; NR]; MR];
    for p in 0..kc {
        let a = &astrip[p * MR..p * MR + MR];
        let b = &bstrip[p * NR..p * NR + NR];
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] += ai * b[j];
            }
        }
    }
    acc
}

// ------------------------------------------------------------ entry points

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

// ------------------------------------------------------ triangular kernels
//
// SYRK and the triangular solves run the same packed strips through the same
// `micro_kernel` as GEMM. None of them has a size below which it falls back
// to scalar loops: the only scalar work is the masked write-back of a
// micro-tile (SYRK) and what happens inside one `TB`×`TB` diagonal block (the
// solves), so no tile size is a cliff. Each call takes its packing storage in
// one `vec!`, the way GEMM's sweep takes its two.

/// Columns (rows, for the left-side solve) a triangular solve finishes per
/// step: the diagonal block is `TB`×`TB`, the rest of the step is one
/// micro-kernel call per micro-tile. One B strip wide and a whole number of
/// A strips high — the register tile's size, not a tuning knob.
const TB: usize = NR;

const _: () = assert!(TB.is_multiple_of(MR), "TB must be a multiple of MR");

/// Run `f` compiled for the widest vector ISA the CPU supports — what
/// [`macro_kernel_dispatch`] does for GEMM's sweep, for any kernel body.
/// `f` must be an `#[inline(always)]` closure around a call of an
/// `#[inline(always)]` function: only code inlined into the
/// `#[target_feature]` clone is compiled with that ISA (a closure left as a
/// function of its own runs, correctly, at the baseline's half rate). The
/// arithmetic is the same either way.
#[inline(always)]
fn with_widest_isa<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(target_arch = "x86_64")]
    {
        /// # Safety
        /// Callers must ensure the CPU supports avx2 and fma.
        #[target_feature(enable = "avx2,fma")]
        unsafe fn avx2<R>(f: impl FnOnce() -> R) -> R {
            f()
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the avx2/fma requirement of the target_feature function
            // is established by the runtime detection directly above.
            return unsafe { avx2(f) };
        }
    }
    f()
}

/// [`micro_kernel`] with its result materialised before the caller consumes
/// it. The triangular sweeps pick the accumulator block apart (masked rows, a
/// transposed solve); left to fuse that into the k loop, LLVM re-lays the
/// accumulators to suit the consumer and fills the loop with permutes and
/// blends — SYRK at a 64-tile ran at 12 Gflop/s against 17 with the loop
/// kept as GEMM compiles it, `dtrsm_rlt` at 14.5 against 18. An optimisation
/// barrier, not a semantic one.
#[inline(always)]
fn micro_tile(kc: usize, astrip: &[f64], bstrip: &[f64]) -> [[f64; NR]; MR] {
    std::hint::black_box(micro_kernel(kc, astrip, bstrip))
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
    assert_eq!(a.len(), n * k, "A dims");
    assert_eq!(c_rows.len(), nrows * n, "C slab dims");
    assert!(row0 + nrows <= n, "slab in range");
    if nrows == 0 || k == 0 {
        return;
    }
    // Columns past the slab's last row are above the diagonal in every row.
    // Within them the sweep is `gemm_panels`' own blocking: `KC`-deep slabs,
    // `NC`-wide panels of the right operand, `MC` rows of the left one packed
    // at a time.
    let end = row0 + nrows;
    let ap_len = MC.min(nrows.next_multiple_of(MR)) * KC.min(k);
    let bp_len = NC.min(end.next_multiple_of(NR)) * KC.min(k);
    let mut scratch = vec![0.0f64; ap_len + bp_len];
    let (ap, bp) = scratch.split_at_mut(ap_len);
    for (jc, nc, pc, kc) in panel_grid(end, k) {
        let bp = &mut bp[..nc.next_multiple_of(NR) * kc];
        pack_b(BSrc::Trans { bt: a, ldbt: k }, pc, kc, jc, nc, bp);
        for ic in (row0..end).step_by(MC) {
            let mc = MC.min(end - ic);
            if ic + mc <= jc {
                continue; // the whole block is above the diagonal
            }
            pack_a(a, k, ic, mc, pc, kc, ap);
            let c = &mut c_rows[(ic - row0) * n + jc..];
            with_widest_isa(
                #[inline(always)]
                || syrk_macro_kernel(ap, bp, mc, nc, kc, ic, jc, c, n),
            );
        }
    }
}

/// [`macro_kernel`] for the lower triangle: `C −= A_block · B_panel` on the
/// `mc`×`nc` block of C whose top-left element is (`i0`, `j0`) of the tile,
/// touching only elements on or below the tile's diagonal.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn syrk_macro_kernel(
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
    for (sj, col0) in (0..nc).step_by(NR).enumerate() {
        let bstrip = &bp[sj * kc * NR..(sj + 1) * kc * NR];
        let nr = NR.min(nc - col0);
        for (si, row0) in (0..mc).step_by(MR).enumerate() {
            let mr = MR.min(mc - row0);
            // Row i of the micro-tile owns the columns up to its diagonal
            // element: `below(i)` of them lie in this strip or left of it.
            let below = |i: usize| (i0 + row0 + i + 1).saturating_sub(j0 + col0);
            if below(mr - 1) == 0 {
                continue; // the whole micro-tile is above the diagonal
            }
            let astrip = &ap[si * kc * MR..(si + 1) * kc * MR];
            let acc = micro_tile(kc, astrip, bstrip);
            for i in 0..mr {
                let crow = &mut c[(row0 + i) * ldc + col0..][..nr.min(below(i))];
                // A whole row of the micro-tile, spelled with a constant trip
                // count, is two vector subtractions; a masked one is scalar.
                match <&mut [f64; NR]>::try_from(&mut *crow) {
                    Ok(full) => {
                        for j in 0..NR {
                            full[j] -= acc[i][j];
                        }
                    }
                    Err(_) => {
                        for (x, d) in crow.iter_mut().zip(&acc[i]) {
                            *x -= d;
                        }
                    }
                }
            }
        }
    }
}

/// Blocked `B = B·L⁻ᵀ` (right/lower/transposed, the Cholesky panel solve),
/// `L` n×n lower, `B` m×n: [`trsm_right`] with `Lᵀ` as the upper triangle.
/// The strict upper triangle of `l` is never read.
pub fn dtrsm_rlt(l: &[f64], b: &mut [f64], m: usize, n: usize) {
    assert_eq!(l.len(), n * n, "L dims");
    assert_eq!(b.len(), m * n, "B dims");
    trsm_right(BSrc::Trans { bt: l, ldbt: n }, b, m, n);
}

/// Blocked `B = B·U⁻¹` (right/upper/non-unit, block-LU column panel), `U`
/// n×n upper, `B` m×n: [`trsm_right`] on `U` as stored. The strict lower
/// triangle of `u` (block LU keeps `L` there) is never read.
pub fn dtrsm_runn(u: &[f64], b: &mut [f64], m: usize, n: usize) {
    assert_eq!(u.len(), n * n, "U dims");
    assert_eq!(b.len(), m * n, "B dims");
    trsm_right(BSrc::Normal { b: u, ldb: n }, b, m, n);
}

/// `X·T = B` in place for an upper-triangular, non-unit n×n `T` given in
/// either layout of [`BSrc`], `B` m×n. Left-looking over `TB`-wide column
/// blocks: a block's columns first lose `X[:, ..jb] · T[..jb, block]` — a
/// packed GEMM, the micro-kernel on the strips below — and are then solved
/// against the `TB`×`TB` diagonal block, one micro-tile at a time.
///
/// The solved columns are packed as the left operand as they are produced
/// (the solve works on the micro-tile transposed, which *is* the packed
/// layout) and `T`'s strip as each block reaches it, so every element of
/// either is packed once per call, and B is never read while it is borrowed
/// for writing. A row's arithmetic involves no other row, so any partition
/// of B into row slabs produces the same bits.
fn trsm_right(t: BSrc<'_>, b: &mut [f64], m: usize, n: usize) {
    if m == 0 || n == 0 {
        return;
    }
    // Solved X as MR-high row strips, each n deep; one NR-wide strip of T.
    let xp_len = m.next_multiple_of(MR) * n;
    let mut scratch = vec![0.0f64; xp_len + n * NR];
    let (xp, tp) = scratch.split_at_mut(xp_len);
    with_widest_isa(
        #[inline(always)]
        || trsm_right_sweep(t, b, m, n, xp, tp),
    );
}

#[inline(always)]
fn trsm_right_sweep(
    t: BSrc<'_>,
    b: &mut [f64],
    m: usize,
    n: usize,
    xp: &mut [f64],
    tp: &mut [f64],
) {
    for jb in (0..n).step_by(TB) {
        let nb = TB.min(n - jb);
        // T[..jb, jb..jb+nb]: what the block's columns lose to the solved ones.
        let tstrip = &mut tp[..jb * NR];
        pack_b(t, 0, jb, jb, nb, tstrip);
        let diag = DiagBlock::new(nb, |p, j| match t {
            BSrc::Normal { b: t, ldb } => t[(jb + p) * ldb + jb + j],
            BSrc::Trans { bt, ldbt } => bt[(jb + j) * ldbt + jb + p],
        });
        for (xstrip, row0) in xp.chunks_exact_mut(n * MR).zip((0..m).step_by(MR)) {
            let mr = MR.min(m - row0);
            solve_micro_tile(b, n, row0, mr, jb, nb, xstrip, tstrip, &diag);
        }
    }
}

/// The `TB`×`TB` diagonal block of an upper-triangular `T`, as the
/// substitution reads it.
struct DiagBlock {
    /// `above[j][p] = T[p][j]`, p < j: column j above its diagonal element.
    above: [[f64; TB]; TB],
    /// `1 / T[j][j]`: the solve multiplies where the naive loops divide
    /// (≤ 1 ulp apart, and off the critical path of the substitution).
    inv: [f64; TB],
}

impl DiagBlock {
    /// The leading `nb`×`nb` block from `at(p, j) = T[p][j]`, p <= j. Columns
    /// past `nb` are those of the identity, so the solve is shape-oblivious.
    #[inline(always)]
    fn new(nb: usize, at: impl Fn(usize, usize) -> f64) -> DiagBlock {
        let mut d = DiagBlock {
            above: [[0.0; TB]; TB],
            inv: [1.0; TB],
        };
        for j in 0..nb {
            for p in 0..j {
                d.above[j][p] = at(p, j);
            }
            d.inv[j] = 1.0 / at(j, j);
        }
        d
    }
}

/// One micro-tile of a right-side solve's block step: rows
/// `row0..row0+mr`, columns `jb..jb+nb` of B (leading dimension `ldb`) lose
/// `X[rows, ..jb] · tstrip` and are solved against `diag`. `xstrip` is the
/// rows' strip of the packed X, `ldb`-deep; the solved columns are appended
/// to it.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn solve_micro_tile(
    b: &mut [f64],
    ldb: usize,
    row0: usize,
    mr: usize,
    jb: usize,
    nb: usize,
    xstrip: &mut [f64],
    tstrip: &[f64],
    diag: &DiagBlock,
) {
    let acc = micro_tile(jb, &xstrip[..jb * MR], tstrip);
    // r = B's micro-tile less what the solved columns took; rows past `mr`
    // and columns past `nb` are zero padding.
    let mut r = [[0.0f64; NR]; MR];
    for i in 0..mr {
        let brow = &b[(row0 + i) * ldb + jb..][..nb];
        for (j, v) in brow.iter().enumerate() {
            r[i][j] = v - acc[i][j];
        }
    }
    // x[j][i] = X[row0+i][jb+j]: the micro-tile transposed, so each step of
    // the substitution is one MR-wide vector operation and the result is
    // already in the packed layout.
    let mut x = [[0.0f64; MR]; TB];
    for j in 0..TB {
        let mut v = [0.0f64; MR];
        for i in 0..MR {
            v[i] = r[i][j];
        }
        for (xp, t) in x.iter().zip(&diag.above[j]).take(j) {
            for i in 0..MR {
                v[i] -= xp[i] * t;
            }
        }
        for i in 0..MR {
            x[j][i] = v[i] * diag.inv[j];
        }
    }
    for i in 0..mr {
        let brow = &mut b[(row0 + i) * ldb + jb..][..nb];
        for (j, v) in brow.iter_mut().enumerate() {
            *v = x[j][i];
        }
    }
    xstrip[jb * MR..(jb + nb) * MR].copy_from_slice(x[..nb].as_flattened());
}

/// Blocked `B = L⁻¹·B` (left/lower/unit, block-LU row panel), `L` m×m unit
/// lower (its diagonal and upper triangle are never read), `B` m×n.
/// Left-looking over `TB`-high row blocks, the mirror image of
/// [`trsm_right`]: a block's rows lose `L[block, ..rb] · X[..rb]` through
/// the micro-kernel, then the block is solved against its own `TB`×`TB`
/// corner of `L`; the solved rows are packed as the right operand as they
/// are produced. A column's arithmetic involves no other column.
pub fn dtrsm_llu(l: &[f64], b: &mut [f64], m: usize, n: usize) {
    assert_eq!(l.len(), m * m, "L dims");
    assert_eq!(b.len(), m * n, "B dims");
    if m == 0 || n == 0 {
        return;
    }
    // Solved X as NR-wide column strips, each m deep; TB rows of L.
    let xp_len = n.next_multiple_of(NR) * m;
    let mut scratch = vec![0.0f64; xp_len + TB * m];
    let (xp, lp) = scratch.split_at_mut(xp_len);
    with_widest_isa(
        #[inline(always)]
        || trsm_left_sweep(l, b, m, n, xp, lp),
    );
}

#[inline(always)]
fn trsm_left_sweep(l: &[f64], b: &mut [f64], m: usize, n: usize, xp: &mut [f64], lp: &mut [f64]) {
    for rb in (0..m).step_by(TB) {
        let nb = TB.min(m - rb);
        // L[rb..rb+nb, ..rb]: what the block's rows lose to the solved ones.
        pack_a(l, m, rb, nb, 0, rb, lp);
        for (sj, col0) in (0..n).step_by(NR).enumerate() {
            let nr = NR.min(n - col0);
            let xstrip = &mut xp[sj * m * NR..(sj + 1) * m * NR];
            // x[r][j] = X[rb+r][col0+j]; columns past `nr` are padding.
            let mut x = [[0.0f64; NR]; TB];
            for (si, row0) in (0..nb).step_by(MR).enumerate() {
                let lstrip = &lp[si * rb * MR..(si + 1) * rb * MR];
                let acc = micro_tile(rb, lstrip, &xstrip[..rb * NR]);
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
                        rest[0][j] -= lrp * xprow[j];
                    }
                }
            }
            for (r, xrow) in x.iter().enumerate().take(nb) {
                b[(rb + r) * n + col0..][..nr].copy_from_slice(&xrow[..nr]);
            }
            xstrip[rb * NR..(rb + nb) * NR].copy_from_slice(x[..nb].as_flattened());
        }
    }
}

/// Rows per chunk when a compute task partitions an m-row tile across a
/// stream's `lanes` threads: ~2 chunks per lane for dynamic balance,
/// rounded up to a micro-tile multiple so no lane gets a partial strip.
pub fn expansion_rows(m: usize, lanes: usize) -> usize {
    if lanes <= 1 {
        return m.max(1);
    }
    let target = m.div_ceil(lanes * 2).max(1);
    target.next_multiple_of(MR).min(m.max(1))
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
        let mut c1 = random(m, n, 3);
        let mut c2 = c1.clone();
        dgemm(
            1.5,
            a.as_slice(),
            b.as_slice(),
            -0.5,
            c1.as_mut_slice(),
            m,
            n,
            k,
        );
        naive::dgemm(
            1.5,
            a.as_slice(),
            b.as_slice(),
            -0.5,
            c2.as_mut_slice(),
            m,
            n,
            k,
        );
        assert_close(c1.as_slice(), c2.as_slice(), 1e-12);
    }

    #[test]
    fn strided_view_updates_only_the_view() {
        // C is a 3×4 window at (1,2) inside a 6×8 matrix.
        let (m, n, k) = (3usize, 4usize, 5usize);
        let a = random(m, k, 11);
        let b = random(k, n, 12);
        let mut full = random(6, 8, 13);
        let before = full.clone();
        let ldc = 8;
        gemm_strided(
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
        let mut expect = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                expect[i * n + j] = before.at(i + 1, j + 2);
            }
        }
        naive::dgemm(2.0, a.as_slice(), b.as_slice(), 1.0, &mut expect, m, n, k);
        for i in 0..6 {
            for j in 0..8 {
                let inside = (1..4).contains(&i) && (2..6).contains(&j);
                if inside {
                    let e = expect[(i - 1) * n + (j - 2)];
                    assert!((full.at(i, j) - e).abs() < 1e-12, "({i},{j})");
                } else {
                    assert_eq!(full.at(i, j), before.at(i, j), "({i},{j}) untouched");
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
            gemm_strided(
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
            let bp = PackedB::pack(src, k, n);
            let mut row0 = 0;
            for nrows in [4usize, 1, 40, m - 45] {
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
            assert_eq!(slabs.as_slice(), whole.as_slice());
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
            let mut whole = c0.clone();
            dsyrk_ln(a.as_slice(), whole.as_mut_slice(), n, k);
            assert_close(whole.as_slice(), oracle.as_slice(), 1e-12);
            for pieces in [vec![n], vec![11, 60, 6, n - 77], vec![4; n / 4 + 1]] {
                let mut c = c0.clone();
                let mut row0 = 0;
                for nrows in pieces {
                    let nrows = nrows.min(n - row0);
                    let slab = &mut c.as_mut_slice()[row0 * n..(row0 + nrows) * n];
                    dsyrk_ln_rows(a.as_slice(), slab, row0, nrows, n, k);
                    row0 += nrows;
                }
                assert_eq!(row0, n);
                assert_eq!(c.as_slice(), whole.as_slice(), "n={n} k={k}");
            }
        }
    }

    #[test]
    fn expansion_rows_is_balanced_and_micro_aligned() {
        assert_eq!(expansion_rows(64, 1), 64);
        let r = expansion_rows(64, 4);
        assert_eq!(r % MR, 0);
        assert!((MR..=64).contains(&r));
        // Tiny loops never produce zero-row chunks.
        assert!(expansion_rows(1, 8) >= 1);
        assert!(expansion_rows(0, 2) >= 1);
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
