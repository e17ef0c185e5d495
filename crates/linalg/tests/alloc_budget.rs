//! What a triangular tile kernel costs the allocator, counted.
//!
//! The budget: **a kernel call makes exactly one heap allocation — its
//! packing scratch, or for `dpotrf` its column scratch — and frees it before
//! it returns.** The count does not grow with the tile (a 128-tile has twice
//! the diagonal blocks of a 64-tile). Before, `dtrsm_rlt` made one
//! allocation for its delta panel and two more inside `gemm_strided` for
//! every `MC` block past the first, and SYRK two per diagonal block.
//!
//! One `#[test]` on purpose: the counters are process-global and libtest
//! runs a file's tests on parallel threads.

#[path = "../../core/tests/support/counting_alloc.rs"]
mod counting_alloc;

use hs_linalg::dense::{random, random_diag_dominant, random_spd, zero_upper};
use hs_linalg::{factor, microkernel};

#[global_allocator]
static ALLOC: counting_alloc::Counting = counting_alloc::Counting;

#[test]
fn a_tile_kernel_makes_one_allocation_whatever_the_tile() {
    counting_alloc::mark_driver();
    for t in [64usize, 128] {
        let a = random(t, t, 1).into_vec();
        let mut l = random_spd(t, 2).into_vec();
        factor::dpotrf(&mut l, t).expect("random_spd is positive definite");
        zero_upper(&mut l, t);
        let mut lu = random_diag_dominant(t, 3).into_vec();
        factor::lu_nopiv(&mut lu, t).expect("diagonally dominant");
        let mut c = random(t, t, 4).into_vec();
        let spd = random_spd(t, 5).into_vec();

        type Kernel<'a> = &'a dyn Fn(&mut [f64]);
        let kernels: [(&str, Kernel); 5] = [
            ("dsyrk_ln", &|c| microkernel::dsyrk_ln(&a, c, t, t)),
            ("dtrsm_rlt", &|c| microkernel::dtrsm_rlt(&l, c, t, t)),
            ("dtrsm_runn", &|c| microkernel::dtrsm_runn(&lu, c, t, t)),
            ("dtrsm_llu", &|c| microkernel::dtrsm_llu(&lu, c, t, t)),
            // Its scratch is the scaled column, not a packed strip.
            ("dpotrf", &|c| {
                c.copy_from_slice(&spd);
                factor::dpotrf(c, t).expect("random_spd is positive definite");
            }),
        ];
        for (name, kernel) in kernels {
            let (n, _) = counting_alloc::counted(|| kernel(&mut c));
            println!(
                "{name} t={t}: {} allocation(s), {} free(s)",
                n.allocs, n.frees
            );
            assert_eq!(
                (n.allocs, n.frees),
                (1, 1),
                "{name} t={t}: one scratch buffer per call, released at return"
            );
        }
    }
}
