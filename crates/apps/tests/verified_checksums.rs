//! The verified results of the two benchmark applications, pinned: `matmul`
//! and the hetero Cholesky at n = 256, tile 64, on the benchmark's platform
//! (HSW + one card, two streams each, real threads). The checksum is FNV-1a
//! over the result's bits, so a kernel change that moves any bit of C or of
//! `L` fails here, and so does a change to what the run is verified against:
//! the reference product builds the Cholesky input (`random_spd`, B·Bᵀ) and
//! checks both results, and `max_err` is pinned beside the checksum.
//!
//! The bits are a function of the instantiation the tile kernels dispatch to
//! (`Isa::widest()`): GEMM and SYRK agree between the two fused ones, the
//! triangular solves do not, and the baseline rounds twice per update. So
//! each instantiation has its pins, all recorded on the commit before
//! `Matrix::matmul_ref` and `dpotrf` were rewritten to equal their naive
//! loops bit for bit.

use hs_apps::cholesky::{self, CholConfig, CholVariant};
use hs_apps::matmul::{self, MatmulConfig};
use hs_linalg::microkernel::Isa;
use hs_machine::{Device, PlatformCfg};
use hstreams_core::{ExecMode, HStreams};

const N: usize = 256;
const TILE: usize = 64;

/// `(checksum, max_err bits)` of a verified run.
struct Pins {
    matmul: (u64, u64),
    cholesky: (u64, u64),
}

fn pins(isa: Isa) -> Pins {
    match isa {
        Isa::Avx512f => Pins {
            matmul: (0xbead_7680_7387_c0f3, 0x3d20_0000_0000_0000),
            cholesky: (0x649c_c47e_ceae_bb1f, 0x3d58_0000_0000_0000),
        },
        Isa::Avx2Fma => Pins {
            matmul: (0xbead_7680_7387_c0f3, 0x3d20_0000_0000_0000),
            cholesky: (0x13aa_9e13_1341_2d03, 0x3d58_0000_0000_0000),
        },
        Isa::Baseline => Pins {
            matmul: (0x76aa_f798_6046_be86, 0x3d20_0000_0000_0000),
            cholesky: (0xf0f6_3d90_6b86_9053, 0x3d58_0000_0000_0000),
        },
    }
}

fn runtime() -> HStreams {
    HStreams::init(PlatformCfg::hetero(Device::Hsw, 1), ExecMode::Threads)
}

#[test]
fn verified_matmul_and_cholesky_keep_their_bits() {
    let mut cfg = MatmulConfig::new(N, TILE);
    cfg.streams_host = 2;
    cfg.streams_per_card = 2;
    cfg.verify = true;
    let mm = matmul::run(&mut runtime(), &cfg).expect("matmul runs");

    let mut cfg = CholConfig::new(N, TILE, CholVariant::Hetero);
    cfg.streams_host = 2;
    cfg.streams_per_card = 2;
    cfg.verify = true;
    let ch = cholesky::run(&mut runtime(), &cfg).expect("cholesky runs");

    let got = |checksum: Option<u64>, max_err: Option<f64>| {
        (
            checksum.expect("verified"),
            max_err.expect("verified").to_bits(),
        )
    };
    let (matmul, cholesky) = (got(mm.checksum, mm.max_err), got(ch.checksum, ch.max_err));
    let isa = Isa::widest();
    let want = pins(isa);
    assert_eq!(
        matmul, want.matmul,
        "matmul n={N} on {isa:?}: (checksum, max_err bits)"
    );
    assert_eq!(
        cholesky, want.cholesky,
        "cholesky n={N} on {isa:?}: (checksum, max_err bits)"
    );
}
