//! Tile-per-buffer plumbing: each tile of a decomposed matrix lives in its
//! own hStreams buffer, which is exactly how the paper's apps wrap their
//! heap structures so the tuner can bind them to streams and domains.

use hs_linalg::dense::Matrix;
use hs_linalg::TileMap;
use hstreams_core::{BufProps, BufferId, DomainId, HStreams, HsResult};

/// Buffers for every tile of an n×n matrix under `map`.
pub struct TileBufs {
    pub map: TileMap,
    pub bufs: Vec<BufferId>,
}

impl TileBufs {
    /// Create one buffer per tile (host instantiation only).
    pub fn create(hs: &mut HStreams, map: TileMap, label: &str) -> TileBufs {
        let mut bufs = Vec::with_capacity(map.nt * map.nt);
        for i in 0..map.nt {
            for j in 0..map.nt {
                let props = BufProps::labeled(format!("{label}[{i}][{j}]"));
                bufs.push(hs.buffer_create(map.tile_bytes(i, j), props));
            }
        }
        TileBufs { map, bufs }
    }

    pub fn buf(&self, i: usize, j: usize) -> BufferId {
        self.bufs[self.map.id(i, j)]
    }

    /// Bytes of tile (i, j).
    pub fn bytes(&self, i: usize, j: usize) -> usize {
        self.map.tile_bytes(i, j)
    }

    /// Instantiate every tile in `domain` (tuner placement).
    pub fn instantiate_all(&self, hs: &mut HStreams, domain: DomainId) -> HsResult<()> {
        for b in &self.bufs {
            hs.buffer_instantiate(*b, domain)?;
        }
        Ok(())
    }

    /// Instantiate every lower-triangle tile in each of `domains`
    /// (symmetric factorizations never touch the upper tiles).
    pub fn instantiate_lower(&self, hs: &mut HStreams, domains: &[DomainId]) -> HsResult<()> {
        for i in 0..self.map.nt {
            for j in 0..=i {
                for d in domains {
                    hs.buffer_instantiate(self.buf(i, j), *d)?;
                }
            }
        }
        Ok(())
    }

    /// Write a full matrix into the host instantiations (real mode), a tile
    /// at a time through one scratch tile.
    pub fn write_matrix(&self, hs: &mut HStreams, a: &Matrix) -> HsResult<()> {
        let mut t = Vec::with_capacity(self.map.b * self.map.b);
        for i in 0..self.map.nt {
            for j in 0..self.map.nt {
                self.map.pack_tile(a, i, j, &mut t);
                hs.buffer_write_f64(self.buf(i, j), 0, &t)?;
            }
        }
        Ok(())
    }

    /// Real-mode input: when `on`, write `make()` into the host
    /// instantiations and return it as the reference to verify against.
    pub fn seed(
        &self,
        hs: &mut HStreams,
        on: bool,
        make: impl FnOnce() -> Matrix,
    ) -> HsResult<Option<Matrix>> {
        if !on {
            return Ok(None);
        }
        let a = make();
        self.write_matrix(hs, &a)?;
        Ok(Some(a))
    }

    /// Read the host instantiations back into a full matrix (real mode), a
    /// tile at a time through one scratch tile.
    pub fn read_matrix(&self, hs: &mut HStreams) -> HsResult<Matrix> {
        let mut a = Matrix::zeros(self.map.n, self.map.n);
        let mut t = Vec::with_capacity(self.map.b * self.map.b);
        for i in 0..self.map.nt {
            for j in 0..self.map.nt {
                t.resize(self.map.dim(i) * self.map.dim(j), 0.0);
                hs.buffer_read_f64(self.buf(i, j), 0, &mut t)?;
                self.map.unpack_tile(&t, i, j, &mut a);
            }
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hs_machine::{Device, PlatformCfg};
    use hstreams_core::ExecMode;

    #[test]
    fn matrix_round_trip_through_tile_buffers() {
        let mut hs = HStreams::init(PlatformCfg::native(Device::Hsw), ExecMode::Threads);
        let map = TileMap::new(10, 4);
        let tb = TileBufs::create(&mut hs, map, "A");
        let a = hs_linalg::dense::random(10, 10, 3);
        tb.write_matrix(&mut hs, &a).expect("write");
        let back = tb.read_matrix(&mut hs).expect("read");
        assert_eq!(a, back);
    }

    #[test]
    fn ragged_matrix_round_trip_through_tile_buffers() {
        // 1030 = 16 tiles of 64 and a ragged edge of 6, in both dimensions.
        let mut hs = HStreams::init(PlatformCfg::native(Device::Hsw), ExecMode::Threads);
        let map = TileMap::new(1030, 64);
        assert_eq!((map.nt, map.dim(16)), (17, 6));
        let tb = TileBufs::create(&mut hs, map, "A");
        let a = hs_linalg::dense::random(1030, 1030, 4);
        tb.write_matrix(&mut hs, &a).expect("write");
        let mut edge = vec![0.0; 6 * 64];
        hs.buffer_read_f64(tb.buf(16, 3), 0, &mut edge)
            .expect("read");
        assert_eq!(edge[..64], a.as_slice()[1024 * 1030 + 3 * 64..][..64]);
        assert_eq!(edge[5 * 64..], a.as_slice()[1029 * 1030 + 3 * 64..][..64]);
        let back = tb.read_matrix(&mut hs).expect("read");
        assert_eq!(a, back);
    }

    #[test]
    fn tile_buffer_count_and_sizes() {
        let mut hs = HStreams::init(PlatformCfg::native(Device::Hsw), ExecMode::Threads);
        let map = TileMap::new(10, 4);
        let tb = TileBufs::create(&mut hs, map, "A");
        assert_eq!(tb.bufs.len(), 9);
        assert_eq!(hs.buffer_len(tb.buf(0, 0)).expect("len"), 128);
        assert_eq!(hs.buffer_len(tb.buf(2, 2)).expect("len"), 2 * 2 * 8);
    }
}
