//! Provider-state snapshots: warm restarts without re-shipping Alg. 1.
//!
//! The grid transfer of Alg. 1 is the only setup step whose communication
//! grows with `|g|` (every silo ships its full cell vector). Since the
//! federated setting keeps partitions fixed, a service provider that
//! restarts can reuse yesterday's grids: it saves a [`ProviderSnapshot`]
//! (the silos' grids in the one grid codec of [`crate::wire`]), and on
//! the next build the silos are asked to rebuild their grid *locally* and
//! return only a checksum aggregate. If any silo's data changed, its
//! checksum mismatches and the builder transparently falls back to the
//! full transfer for that silo.
//!
//! Both snapshot files — this one and a silo's
//! [`crate::SiloGridSnapshot`] — go through one checked-file pair: the
//! body plus an FNV-1a trailer, written to a sibling temp file and
//! renamed into place, and read back only if the trailer matches.

use std::fs::File;
use std::io::{Error, ErrorKind, Write};
use std::path::Path;

use bytes::{BufMut, Bytes, BytesMut};

use fedra_index::grid::GridIndex;

use crate::wire::{expect_magic, fnv1a, Wire, WireResult};

/// The provider's per-silo grid indices `g_1 … g_m`, silo order.
#[derive(Debug, Clone, PartialEq)]
pub struct ProviderSnapshot {
    /// One grid per silo, silo order.
    pub grids: Vec<GridIndex>,
}

impl ProviderSnapshot {
    /// Writes the snapshot to a checked file (see the module docs).
    pub fn save_to(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        write_checked(path.as_ref(), &self.to_bytes())
    }

    /// Reads a snapshot from a checked file. A failed checksum or an
    /// undecodable body — a grid its spec does not size among them — is
    /// [`ErrorKind::InvalidData`].
    pub fn load_from(path: impl AsRef<Path>) -> std::io::Result<Self> {
        let body = read_checked(path.as_ref())?;
        Self::from_bytes(body).map_err(|e| Error::new(ErrorKind::InvalidData, e))
    }
}

/// Format magic of [`ProviderSnapshot`]: layout 4, a varint-counted
/// sequence of grids in the [`GridIndex`] codec. Layouts 1 (no magic,
/// 24-byte cells), 2 (one bounds and `L` for all silos) and 3 (`u32`
/// counts, no cell-vector layout byte) are refused.
const PROVIDER_SNAPSHOT_MAGIC: &[u8; 8] = b"FRASNAP4";

impl Wire for ProviderSnapshot {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_slice(PROVIDER_SNAPSHOT_MAGIC);
        self.grids.encode(buf);
    }

    fn encoded_len(&self) -> usize {
        PROVIDER_SNAPSHOT_MAGIC.len() + self.grids.encoded_len()
    }

    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        expect_magic(buf, PROVIDER_SNAPSHOT_MAGIC, "provider snapshot format")?;
        Ok(Self {
            grids: Vec::decode(buf)?,
        })
    }
}

/// Writes `body` and its FNV-1a trailer to `path` through a sibling temp
/// file and a rename, so a crash mid-write leaves the old file intact.
/// The temp file is synced before the rename and the directory after it,
/// so the file on disk is the old one or the new one, whole.
pub(crate) fn write_checked(path: &Path, body: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(body)?;
    file.write_all(&fnv1a(body).to_le_bytes())?;
    file.sync_all()?;
    std::fs::rename(&tmp, path)?;
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    File::open(dir.unwrap_or(Path::new(".")))?.sync_all()
}

/// Reads a file [`write_checked`] wrote and returns its body; a file
/// shorter than the trailer or whose trailer mismatches (torn write, bit
/// rot) is [`ErrorKind::InvalidData`].
pub(crate) fn read_checked(path: &Path) -> std::io::Result<Bytes> {
    let mut file = std::fs::read(path)?;
    let Some(body_len) = file.len().checked_sub(8) else {
        return Err(Error::new(
            ErrorKind::InvalidData,
            "file shorter than its checksum",
        ));
    };
    let mut trailer = [0u8; 8];
    trailer.copy_from_slice(&file[body_len..]);
    let (stored, computed) = (u64::from_le_bytes(trailer), fnv1a(&file[..body_len]));
    if stored != computed {
        return Err(Error::new(
            ErrorKind::InvalidData,
            format!("checksum mismatch (stored {stored:#x}, computed {computed:#x})"),
        ));
    }
    file.truncate(body_len);
    Ok(Bytes::from(file))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_geo::{Point, Rect};
    use fedra_index::grid::GridSpec;
    use fedra_index::Aggregate;

    fn sample_snapshot() -> ProviderSnapshot {
        let spec = GridSpec::new(Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)), 5.0);
        let mut cells = vec![Aggregate::ZERO; spec.num_cells()];
        cells[1] = Aggregate {
            count: 3.0,
            sum: 6.0,
            sum_sqr: 14.0,
        };
        ProviderSnapshot {
            grids: vec![
                GridIndex::from_parts(spec, cells.clone(), 0),
                GridIndex::from_parts(spec, cells, 2),
            ],
        }
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("fedra-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn wire_round_trip() {
        let snap = sample_snapshot();
        let back = ProviderSnapshot::from_bytes(snap.to_bytes()).unwrap();
        assert_eq!(back, snap);
        let g = &back.grids[1];
        assert_eq!(g.cell(1).count, 3.0);
        assert_eq!(g.outside_count(), 2);
        assert_eq!(g.total().sum, 6.0);
    }

    #[test]
    fn file_round_trip() {
        let snap = sample_snapshot();
        let path = scratch("snap.bin");
        snap.save_to(&path).unwrap();
        let back = ProviderSnapshot::load_from(&path).unwrap();
        assert_eq!(back, snap);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_grid_shorter_than_its_spec_is_refused_not_materialized() {
        // Silo 1's cells cut to 3 of the spec's 4: the bytes are
        // well-formed, the grid is not.
        let snap = sample_snapshot();
        let mut body = BytesMut::new();
        body.put_slice(PROVIDER_SNAPSHOT_MAGIC);
        crate::wire::put_len(&mut body, snap.grids.len());
        for (k, grid) in snap.grids.iter().enumerate() {
            grid.spec().bounds().encode(&mut body);
            grid.spec().cell_len().encode(&mut body);
            let keep = if k == 1 { 3 } else { grid.cells().len() };
            grid.cells()[..keep].to_vec().encode(&mut body);
            grid.outside_count().encode(&mut body);
        }
        assert_eq!(
            ProviderSnapshot::from_bytes(body.clone().freeze()),
            Err(crate::wire::WireError::BadLength {
                context: "grid cells",
                len: 3
            })
        );
        let path = scratch("short.bin");
        write_checked(&path, &body).unwrap();
        let err = ProviderSnapshot::load_from(&path).expect_err("short grid");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_file_in_an_older_layout_is_refused_not_misread() {
        let snap = sample_snapshot();
        let spec = *snap.grids[0].spec();
        // Layout 1: no magic, every cell a fixed 24-byte triple. Layout 2:
        // magic, then one bounds and `L` ahead of every silo's cells.
        let mut layout1 = BytesMut::new();
        let mut layout2 = BytesMut::new();
        layout2.put_slice(b"FRASNAP2");
        for old in [&mut layout1, &mut layout2] {
            spec.bounds().encode(old);
            spec.cell_len().encode(old);
            (snap.grids.len() as u32).encode(old);
        }
        for grid in &snap.grids {
            (grid.cells().len() as u32).encode(&mut layout1);
            for cell in grid.cells() {
                for v in [cell.count, cell.sum, cell.sum_sqr] {
                    v.encode(&mut layout1);
                }
            }
            grid.outside_count().encode(&mut layout1);
            grid.cells().to_vec().encode(&mut layout2);
            grid.outside_count().encode(&mut layout2);
        }
        let path = scratch("old-layout.bin");
        for old in [layout1, layout2] {
            write_checked(&path, &old).unwrap();
            let err = ProviderSnapshot::load_from(&path).expect_err("old layout");
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_layout_3_snapshot_is_a_typed_error_not_misread() {
        // Layout 3: its magic, a u32 grid count, then each grid with a
        // u32 cell count and no cell-vector layout byte.
        let snap = sample_snapshot();
        let mut layout3 = BytesMut::new();
        layout3.put_slice(b"FRASNAP3");
        (snap.grids.len() as u32).encode(&mut layout3);
        for grid in &snap.grids {
            grid.spec().bounds().encode(&mut layout3);
            grid.spec().cell_len().encode(&mut layout3);
            (grid.cells().len() as u32).encode(&mut layout3);
            grid.cells().iter().for_each(|a| a.encode(&mut layout3));
            grid.outside_count().encode(&mut layout3);
        }
        assert_eq!(
            ProviderSnapshot::from_bytes(layout3.clone().freeze()),
            Err(crate::wire::WireError::BadTag {
                context: "provider snapshot format",
                tag: b'F'
            })
        );
        let path = scratch("layout3.bin");
        write_checked(&path, &layout3).unwrap();
        let err = ProviderSnapshot::load_from(&path).expect_err("layout 3");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_file_is_an_error() {
        let path = scratch("corrupt.bin");
        std::fs::write(&path, b"definitely not a snapshot").unwrap();
        assert!(ProviderSnapshot::load_from(&path).is_err());
        std::fs::write(&path, b"short").unwrap();
        let err = ProviderSnapshot::load_from(&path).expect_err("shorter than the trailer");
        assert_eq!(err.kind(), ErrorKind::InvalidData, "{err}");
        let _ = std::fs::remove_file(&path);
    }
}
