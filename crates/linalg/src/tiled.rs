//! Tile decomposition: the paper's applications "divide matrices into square
//! tiles" (Figs. 4, 5). A [`TileMap`] describes the decomposition; tiles are
//! stored contiguously (one tile = one buffer region in the hStreams apps),
//! and this module packs and unpacks between them and a full matrix.

use crate::dense::Matrix;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense::random;

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
    fn tile_bytes_accounts_for_edges() {
        let m = TileMap::new(10, 4);
        assert_eq!(m.tile_bytes(0, 0), 4 * 4 * 8);
        assert_eq!(m.tile_bytes(2, 0), 2 * 4 * 8);
        assert_eq!(m.tile_bytes(2, 2), 2 * 2 * 8);
    }
}
