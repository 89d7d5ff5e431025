//! Provider-state snapshots: warm restarts without re-shipping Alg. 1.
//!
//! The grid transfer of Alg. 1 is the only setup step whose communication
//! grows with `|g|` (every silo ships its full cell vector). Since the
//! federated setting keeps partitions fixed, a service provider that
//! restarts can reuse yesterday's grids: it saves a [`ProviderSnapshot`]
//! (wire-serialized to a file), and on the next build the silos are asked
//! to rebuild their grid *locally* and return only a checksum aggregate.
//! If any silo's data changed, its checksum mismatches and the builder
//! transparently falls back to the full transfer for that silo.

use std::path::Path;

use bytes::{BufMut, Bytes, BytesMut};

use fedra_geo::Rect;
use fedra_index::grid::{GridIndex, GridSpec};
use fedra_index::pool::WorkerPool;
use fedra_index::Aggregate;

use crate::wire::{expect_magic, Wire, WireError, WireResult};

/// A serializable copy of the provider's per-silo grid indices.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderSnapshot {
    /// Grid bounds the snapshot was taken with.
    pub bounds: Rect,
    /// Cell side length.
    pub cell_len: f64,
    /// Per-silo cell vectors + out-of-bounds counts, silo order.
    pub grids: Vec<(Vec<Aggregate>, u64)>,
}

impl ProviderSnapshot {
    /// Number of silos captured.
    pub fn num_silos(&self) -> usize {
        self.grids.len()
    }

    /// Rebuilds the [`GridIndex`] for silo `k`.
    pub fn grid(&self, k: usize) -> GridIndex {
        let spec = GridSpec::new(self.bounds, self.cell_len);
        GridIndex::from_parts(spec, self.grids[k].0.clone(), self.grids[k].1)
    }

    /// Rebuilds every silo's [`GridIndex`] at once, cloning the cell
    /// vectors on `pool`'s workers. Output order is silo order — the
    /// result is element-for-element identical to calling [`Self::grid`]
    /// for each `k` in turn.
    pub fn materialize_with(&self, pool: &WorkerPool) -> Vec<GridIndex> {
        let spec = GridSpec::new(self.bounds, self.cell_len);
        pool.map(&self.grids, |_, (cells, outside)| {
            GridIndex::from_parts(spec, cells.clone(), *outside)
        })
    }

    /// Serializes to a byte buffer.
    pub fn to_bytes(&self) -> Bytes {
        Wire::to_bytes(self)
    }

    /// Writes the snapshot to a file.
    pub fn save_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        std::fs::write(path, Wire::to_bytes(self))
    }

    /// Reads a snapshot from a file.
    pub fn load_from(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let raw = std::fs::read(path)?;
        Wire::from_bytes(Bytes::from(raw))
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Format magic of [`ProviderSnapshot`]: layout 2, whose cells use the
/// sparse [`Aggregate`] codec. A layout-1 file (24-byte cells, no magic)
/// is refused.
const PROVIDER_SNAPSHOT_MAGIC: &[u8; 8] = b"FRASNAP2";

impl Wire for ProviderSnapshot {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(PROVIDER_SNAPSHOT_MAGIC);
        self.bounds.encode(buf);
        self.cell_len.encode(buf);
        (self.grids.len() as u32).encode(buf);
        for (cells, outside) in &self.grids {
            cells.encode(buf);
            outside.encode(buf);
        }
    }

    fn encoded_len(&self) -> usize {
        PROVIDER_SNAPSHOT_MAGIC.len()
            + self.bounds.encoded_len()
            + self.cell_len.encoded_len()
            + 4
            + self
                .grids
                .iter()
                .map(|(cells, outside)| cells.encoded_len() + outside.encoded_len())
                .sum::<usize>()
    }

    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        expect_magic(buf, PROVIDER_SNAPSHOT_MAGIC, "provider snapshot format")?;
        let bounds = Rect::decode(buf)?;
        let cell_len = f64::decode(buf)?;
        let n = u32::decode(buf)? as usize;
        if n > 1 << 20 {
            return Err(WireError::BadLength {
                context: "snapshot silo count",
                len: n,
            });
        }
        let mut grids = Vec::with_capacity(n);
        for _ in 0..n {
            let cells = Vec::<Aggregate>::decode(buf)?;
            let outside = u64::decode(buf)?;
            grids.push((cells, outside));
        }
        Ok(Self {
            bounds,
            cell_len,
            grids,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_geo::Point;

    fn sample_snapshot() -> ProviderSnapshot {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let spec = GridSpec::new(bounds, 5.0);
        let mut cells = vec![Aggregate::ZERO; spec.num_cells()];
        cells[1] = Aggregate {
            count: 3.0,
            sum: 6.0,
            sum_sqr: 14.0,
        };
        ProviderSnapshot {
            bounds,
            cell_len: 5.0,
            grids: vec![(cells.clone(), 0), (cells, 2)],
        }
    }

    #[test]
    fn wire_round_trip() {
        let snap = sample_snapshot();
        let back = ProviderSnapshot::from_bytes(Wire::to_bytes(&snap)).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn grid_reconstruction() {
        let snap = sample_snapshot();
        let g = snap.grid(1);
        assert_eq!(g.cell(1).count, 3.0);
        assert_eq!(g.outside_count(), 2);
        assert_eq!(g.total().sum, 6.0);
    }

    #[test]
    fn file_round_trip() {
        let snap = sample_snapshot();
        let dir = std::env::temp_dir().join("fedra-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.bin");
        snap.save_to(&path).unwrap();
        let back = ProviderSnapshot::load_from(&path).unwrap();
        assert_eq!(back, snap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_file_in_the_old_triple_layout_is_refused_not_misread() {
        let snap = sample_snapshot();
        // Layout 1: no magic, every cell a fixed 24-byte triple.
        let mut old = BytesMut::new();
        snap.bounds.encode(&mut old);
        snap.cell_len.encode(&mut old);
        (snap.grids.len() as u32).encode(&mut old);
        for (cells, outside) in &snap.grids {
            (cells.len() as u32).encode(&mut old);
            for cell in cells {
                for v in [cell.count, cell.sum, cell.sum_sqr] {
                    v.encode(&mut old);
                }
            }
            outside.encode(&mut old);
        }
        let dir = std::env::temp_dir().join("fedra-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("layout1.bin");
        std::fs::write(&path, &old).unwrap();
        let err = ProviderSnapshot::load_from(&path).expect_err("old layout");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_file_is_an_error() {
        let dir = std::env::temp_dir().join("fedra-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.bin");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        assert!(ProviderSnapshot::load_from(&path).is_err());
        let _ = std::fs::remove_file(&path);
    }
}
