//! Tile decomposition: the paper's applications "divide matrices into square
//! tiles" (Figs. 4, 5). A [`TileMap`] describes the decomposition; tiles are
//! stored contiguously (one tile = one buffer region in the hStreams apps),
//! and this module provides pack/unpack plus *sequential* tiled reference
//! algorithms used to validate every distributed schedule.

use crate::blas3::{dgemm_nt, dsyrk_ln, dtrsm_rlt};
use crate::dense::Matrix;
use crate::factor::{dpotrf, FactorError};

/// Decomposition of an n×n matrix into `nt × nt` square tiles of side `b`
/// (edge tiles may be smaller).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TileMap {
    pub n: usize,
    pub b: usize,
    pub nt: usize,
}

impl TileMap {
    pub fn new(n: usize, b: usize) -> TileMap {
        assert!(n > 0 && b > 0, "dimensions must be positive");
        TileMap {
            n,
            b,
            nt: n.div_ceil(b),
        }
    }

    /// Rows/cols of tile index `t` along one dimension.
    pub fn dim(&self, t: usize) -> usize {
        assert!(t < self.nt, "tile index in range");
        if t + 1 == self.nt && !self.n.is_multiple_of(self.b) {
            self.n % self.b
        } else {
            self.b
        }
    }

    /// Linear tile id of tile (i, j).
    pub fn id(&self, i: usize, j: usize) -> usize {
        assert!(i < self.nt && j < self.nt, "tile coords in range");
        i * self.nt + j
    }

    /// Byte size of tile (i, j) as f64 storage.
    pub fn tile_bytes(&self, i: usize, j: usize) -> usize {
        self.dim(i) * self.dim(j) * 8
    }

    /// The largest tile byte size (uniform buffer sizing).
    pub fn max_tile_bytes(&self) -> usize {
        self.b * self.b * 8
    }

    /// Extract all tiles from a row-major matrix; tile (i,j) is returned at
    /// index `id(i, j)`, each tile row-major contiguous.
    pub fn pack(&self, a: &Matrix) -> Vec<Vec<f64>> {
        let mut tiles = Vec::with_capacity(self.nt * self.nt);
        for ti in 0..self.nt {
            for tj in 0..self.nt {
                let mut t = Vec::with_capacity(self.dim(ti) * self.dim(tj));
                self.pack_tile(a, ti, tj, &mut t);
                tiles.push(t);
            }
        }
        tiles
    }

    /// Replace `tile`'s contents with tile (ti, tj) of `a`, row-major
    /// contiguous: one slice copy per tile row.
    pub fn pack_tile(&self, a: &Matrix, ti: usize, tj: usize, tile: &mut Vec<f64>) {
        assert_eq!((a.rows, a.cols), (self.n, self.n), "matrix dims");
        let w = self.dim(tj);
        let rows = a.as_slice()[ti * self.b * self.n..].chunks(self.n);
        tile.clear();
        for row in rows.take(self.dim(ti)) {
            tile.extend_from_slice(&row[tj * self.b..][..w]);
        }
    }

    /// Rebuild the full matrix from tile storage.
    pub fn unpack(&self, tiles: &[Vec<f64>]) -> Matrix {
        assert_eq!(tiles.len(), self.nt * self.nt, "tile count");
        let mut a = Matrix::zeros(self.n, self.n);
        for ti in 0..self.nt {
            for tj in 0..self.nt {
                self.unpack_tile(&tiles[self.id(ti, tj)], ti, tj, &mut a);
            }
        }
        a
    }

    /// Write tile (ti, tj), row-major contiguous, into its place in `a`: one
    /// slice copy per tile row.
    pub fn unpack_tile(&self, tile: &[f64], ti: usize, tj: usize, a: &mut Matrix) {
        assert_eq!((a.rows, a.cols), (self.n, self.n), "matrix dims");
        let (h, w) = (self.dim(ti), self.dim(tj));
        assert_eq!(tile.len(), h * w, "tile ({ti},{tj}) storage");
        let rows = a.as_mut_slice()[ti * self.b * self.n..].chunks_mut(self.n);
        for (row, t) in rows.zip(tile.chunks_exact(w)) {
            row[tj * self.b..][..w].copy_from_slice(t);
        }
    }
}

/// Sequential tiled matrix multiply `C = A·B` over packed tiles — the
/// reference schedule for the hStreams matmul app.
pub fn tiled_matmul(map: TileMap, a: &[Vec<f64>], b: &[Vec<f64>], c: &mut [Vec<f64>]) {
    let nt = map.nt;
    for i in 0..nt {
        for j in 0..nt {
            let (m, n) = (map.dim(i), map.dim(j));
            let cij = &mut c[map.id(i, j)];
            cij.fill(0.0);
            for k in 0..nt {
                let kk = map.dim(k);
                crate::blas3::dgemm(1.0, &a[map.id(i, k)], &b[map.id(k, j)], 1.0, cij, m, n, kk);
            }
        }
    }
}

/// Sequential right-looking tiled Cholesky over packed tiles (the Fig. 5
/// kernel sequence: DPOTRF on the diagonal, DTRSM down the column, DSYRK on
/// diagonal tiles of the trailing matrix, DGEMM elsewhere). Only the lower
/// triangle of tiles is referenced/updated.
pub fn tiled_cholesky(map: TileMap, tiles: &mut [Vec<f64>]) -> Result<(), FactorError> {
    let nt = map.nt;
    for k in 0..nt {
        let bk = map.dim(k);
        {
            let akk = &mut tiles[map.id(k, k)];
            dpotrf(akk, bk)?;
            crate::dense::zero_upper(akk, bk);
        }
        for i in k + 1..nt {
            let bi = map.dim(i);
            let (lo, hi) = split_two(tiles, map.id(k, k), map.id(i, k));
            dtrsm_rlt(lo, hi, bi, bk);
        }
        for i in k + 1..nt {
            let bi = map.dim(i);
            for j in k + 1..=i {
                let bj = map.dim(j);
                if i == j {
                    let (aik, aii) = split_two(tiles, map.id(i, k), map.id(i, i));
                    dsyrk_ln(aik, aii, bi, bk);
                } else {
                    // A_ij -= A_ik · A_jkᵀ
                    let (ajk_idx, aij_idx, aik_idx) = (map.id(j, k), map.id(i, j), map.id(i, k));
                    let (aik, ajk, aij) = split_three(tiles, aik_idx, ajk_idx, aij_idx);
                    dgemm_nt(-1.0, aik, ajk, 1.0, aij, bi, bj, bk);
                }
            }
        }
    }
    Ok(())
}

/// Split a tile slice into one shared and one exclusive tile (i != j).
fn split_two(tiles: &mut [Vec<f64>], ro: usize, rw: usize) -> (&[f64], &mut [f64]) {
    assert_ne!(ro, rw, "tiles must differ");
    if ro < rw {
        let (a, b) = tiles.split_at_mut(rw);
        (&a[ro], &mut b[0])
    } else {
        let (a, b) = tiles.split_at_mut(ro);
        (&b[0], &mut a[rw])
    }
}

/// Two shared + one exclusive tile, all distinct.
///
/// Entirely safe code: two `split_at_mut` calls carve the slice at the two
/// larger indices, yielding three segments that each contain exactly one of
/// the requested tiles, so the borrow checker can see the views are disjoint.
fn split_three(
    tiles: &mut [Vec<f64>],
    ro1: usize,
    ro2: usize,
    rw: usize,
) -> (&[f64], &[f64], &mut [f64]) {
    assert!(ro1 != rw && ro2 != rw && ro1 != ro2, "tiles must differ");
    let mut sorted = [ro1, ro2, rw];
    sorted.sort_unstable();
    let (lo, rest) = tiles.split_at_mut(sorted[1]);
    let (mid, hi) = rest.split_at_mut(sorted[2] - sorted[1]);
    // One tile per segment, in index order.
    let mut slots = [
        Some(&mut lo[sorted[0]]),
        Some(&mut mid[0]),
        Some(&mut hi[0]),
    ];
    let mut take = |want: usize| {
        let pos = sorted
            .iter()
            .position(|&i| i == want)
            .expect("index present");
        slots[pos].take().expect("each index taken once")
    };
    let c = take(rw);
    let a = take(ro1);
    let b = take(ro2);
    (a.as_slice(), b.as_slice(), c.as_mut_slice())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::{max_abs_diff, random, random_spd, reconstruct_llt, zero_upper};

    #[test]
    fn tile_map_dims() {
        let m = TileMap::new(10, 4);
        assert_eq!(m.nt, 3);
        assert_eq!(m.dim(0), 4);
        assert_eq!(m.dim(1), 4);
        assert_eq!(m.dim(2), 2);
        let exact = TileMap::new(8, 4);
        assert_eq!(exact.nt, 2);
        assert_eq!(exact.dim(1), 4);
    }

    #[test]
    fn pack_unpack_round_trip() {
        for (n, b) in [(12, 4), (10, 3), (7, 7), (5, 8)] {
            let m = TileMap::new(n, b);
            let a = random(n, n, (n * b) as u64);
            let tiles = m.pack(&a);
            let back = m.unpack(&tiles);
            assert_eq!(a, back, "n={n} b={b}");
        }
    }

    #[test]
    fn tiled_matmul_matches_reference() {
        for (n, b) in [(12usize, 4usize), (10, 3), (9, 2)] {
            let m = TileMap::new(n, b);
            let a = random(n, n, 21);
            let bm = random(n, n, 22);
            let at = m.pack(&a);
            let bt = m.pack(&bm);
            let mut ct = m.pack(&Matrix::zeros(n, n));
            tiled_matmul(m, &at, &bt, &mut ct);
            let c = m.unpack(&ct);
            let expect = a.matmul_ref(&bm);
            assert!(
                max_abs_diff(c.as_slice(), expect.as_slice()) < 1e-10,
                "n={n} b={b}"
            );
        }
    }

    #[test]
    fn tiled_cholesky_matches_unblocked() {
        for (n, b) in [(16usize, 4usize), (20, 6), (12, 12), (15, 4)] {
            let m = TileMap::new(n, b);
            let a = random_spd(n, 33);
            let mut tiles = m.pack(&a);
            tiled_cholesky(m, &mut tiles).expect("SPD factors");
            let mut l = m.unpack(&tiles);
            zero_upper(l.as_mut_slice(), n);
            let r = reconstruct_llt(l.as_slice(), n);
            let err = max_abs_diff(r.as_slice(), a.as_slice());
            assert!(err < 1e-8 * n as f64, "n={n} b={b} err={err}");
        }
    }

    #[test]
    fn tiled_cholesky_detects_indefinite() {
        let n = 8;
        let m = TileMap::new(n, 4);
        let mut a = random_spd(n, 44);
        // Poison the trailing diagonal.
        let v = -1000.0;
        a.set(n - 1, n - 1, v);
        let mut tiles = m.pack(&a);
        assert!(tiled_cholesky(m, &mut tiles).is_err());
    }

    #[test]
    fn split_helpers_return_disjoint_views() {
        let mut tiles = vec![vec![1.0], vec![2.0], vec![3.0]];
        let (a, b) = split_two(&mut tiles, 0, 2);
        assert_eq!((a[0], b[0]), (1.0, 3.0));
        b[0] = 9.0;
        let (x, y, z) = split_three(&mut tiles, 2, 0, 1);
        assert_eq!((x[0], y[0], z[0]), (9.0, 1.0, 2.0));
        z[0] = 7.0;
        assert_eq!(tiles[1][0], 7.0);
    }

    #[test]
    fn tile_bytes_accounts_for_edges() {
        let m = TileMap::new(10, 4);
        assert_eq!(m.tile_bytes(0, 0), 4 * 4 * 8);
        assert_eq!(m.tile_bytes(2, 0), 2 * 4 * 8);
        assert_eq!(m.tile_bytes(2, 2), 2 * 2 * 8);
        assert_eq!(m.max_tile_bytes(), 128);
    }
}
