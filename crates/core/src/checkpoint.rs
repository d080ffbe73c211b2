//! Checkpoint/restart — binary snapshots of simulation state.
//!
//! Long PIC campaigns checkpoint; the DSL owns the particle store, so
//! it owns the serialization too. The format is a minimal tagged
//! little-endian container (no external serializer): a magic header,
//! then length-prefixed sections, then a CRC-64 footer. [`crate::
//! particles::ParticleDats`] and [`crate::dat::Dat`] round-trip
//! losslessly (bit-exact f64).
//!
//! Format v2 appends an integrity footer (`OPPICEND` + CRC-64 over
//! every preceding byte, header included). Readers may consume a
//! stream without checking it, but [`BinReader::verify_footer`]
//! rejects truncated or bit-flipped files with a clear error instead
//! of misparsing — restore paths in the apps call it before applying
//! any state.

use crate::dat::Dat;
use crate::particles::ParticleDats;
use std::fmt;
use std::io::{self, Read, Write};

const MAGIC: &[u8; 8] = b"OPPICCKP";
const FOOTER_MAGIC: &[u8; 8] = b"OPPICEND";
const VERSION: u32 = 2;

/// CRC-64/XZ lookup table (reflected, poly 0xC96C5795D7870F42),
/// built at compile time.
const fn crc64_table() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut j = 0;
        while j < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xC96C5795D7870F42
            } else {
                crc >> 1
            };
            j += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC64_TABLE: [u64; 256] = crc64_table();

/// Streaming CRC-64/XZ accumulator. `Crc64::new()` → `update` →
/// `value()`; also usable one-shot via [`crc64`].
#[derive(Clone, Copy, Debug)]
pub struct Crc64 {
    state: u64,
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc64 {
    pub fn new() -> Self {
        Crc64 { state: !0 }
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        for &b in bytes {
            crc = CRC64_TABLE[((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        self.state = crc;
    }

    pub fn value(&self) -> u64 {
        !self.state
    }
}

/// One-shot CRC-64/XZ of a byte slice.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(bytes);
    c.value()
}

/// Little-endian primitive writers with a running CRC-64.
pub struct BinWriter<W: Write> {
    w: W,
    crc: Crc64,
}

impl<W: Write> BinWriter<W> {
    /// Start a checkpoint stream (writes the header).
    pub fn new(w: W) -> io::Result<Self> {
        let mut bw = BinWriter {
            w,
            crc: Crc64::new(),
        };
        bw.put(MAGIC)?;
        bw.put(&VERSION.to_le_bytes())?;
        Ok(bw)
    }

    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.crc.update(bytes);
        self.w.write_all(bytes)
    }

    pub fn u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    pub fn u128(&mut self, v: u128) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    pub fn f64_slice(&mut self, v: &[f64]) -> io::Result<()> {
        self.u64(v.len() as u64)?;
        for x in v {
            self.put(&x.to_le_bytes())?;
        }
        Ok(())
    }

    pub fn i32_slice(&mut self, v: &[i32]) -> io::Result<()> {
        self.u64(v.len() as u64)?;
        for x in v {
            self.put(&x.to_le_bytes())?;
        }
        Ok(())
    }

    pub fn string(&mut self, s: &str) -> io::Result<()> {
        self.u64(s.len() as u64)?;
        self.put(s.as_bytes())
    }

    /// Length-prefixed raw bytes (nested blobs — e.g. a whole inner
    /// checkpoint stream embedded in a shard).
    pub fn bytes(&mut self, b: &[u8]) -> io::Result<()> {
        self.u64(b.len() as u64)?;
        self.put(b)
    }

    /// Seal the stream: writes the footer (magic + CRC-64 over every
    /// byte written so far, header included) and flushes.
    pub fn finish(mut self) -> io::Result<W> {
        let crc = self.crc.value();
        // The footer itself is outside the checksummed region.
        self.w.write_all(FOOTER_MAGIC)?;
        self.w.write_all(&crc.to_le_bytes())?;
        self.w.flush()?;
        Ok(self.w)
    }
}

/// Little-endian primitive readers with honest error reporting and a
/// running CRC-64 mirror of the writer's.
pub struct BinReader<R: Read> {
    r: R,
    crc: Crc64,
}

impl<R: Read> BinReader<R> {
    /// Open a checkpoint stream (validates the header).
    pub fn new(r: R) -> io::Result<Self> {
        let mut br = BinReader {
            r,
            crc: Crc64::new(),
        };
        let mut magic = [0u8; 8];
        br.take(&mut magic)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "not an OP-PIC checkpoint",
            ));
        }
        let mut v = [0u8; 4];
        br.take(&mut v)?;
        let version = u32::from_le_bytes(v);
        if version != VERSION {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unsupported checkpoint version {version}"),
            ));
        }
        Ok(br)
    }

    fn take(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.r.read_exact(buf)?;
        self.crc.update(buf);
        Ok(())
    }

    pub fn u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.take(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    pub fn u128(&mut self) -> io::Result<u128> {
        let mut b = [0u8; 16];
        self.take(&mut b)?;
        Ok(u128::from_le_bytes(b))
    }

    pub fn f64_slice(&mut self) -> io::Result<Vec<f64>> {
        let n = self.u64()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 24));
        let mut b = [0u8; 8];
        for _ in 0..n {
            self.take(&mut b)?;
            out.push(f64::from_le_bytes(b));
        }
        Ok(out)
    }

    pub fn i32_slice(&mut self) -> io::Result<Vec<i32>> {
        let n = self.u64()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 24));
        let mut b = [0u8; 4];
        for _ in 0..n {
            self.take(&mut b)?;
            out.push(i32::from_le_bytes(b));
        }
        Ok(out)
    }

    pub fn string(&mut self) -> io::Result<String> {
        let n = self.u64()? as usize;
        let mut b = vec![0u8; n];
        self.take(&mut b)?;
        String::from_utf8(b).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Length-prefixed raw bytes written by [`BinWriter::bytes`].
    pub fn bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.u64()? as usize;
        if n > (1 << 30) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("blob length {n} implausible (corrupt length word?)"),
            ));
        }
        let mut b = vec![0u8; n];
        self.take(&mut b)?;
        Ok(b)
    }

    /// Consume and validate the integrity footer. Call after the last
    /// payload section; rejects truncated files (missing footer) and
    /// any bit corruption in the bytes read so far (CRC mismatch).
    pub fn verify_footer(&mut self) -> io::Result<()> {
        let computed = self.crc.value();
        let mut magic = [0u8; 8];
        self.r.read_exact(&mut magic).map_err(|e| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("checkpoint truncated: footer missing ({e})"),
            )
        })?;
        if &magic != FOOTER_MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "checkpoint corrupt: footer magic mismatch (truncated or overwritten stream)",
            ));
        }
        let mut c = [0u8; 8];
        self.r.read_exact(&mut c).map_err(|e| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("checkpoint truncated: footer CRC missing ({e})"),
            )
        })?;
        let stored = u64::from_le_bytes(c);
        if stored != computed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "checkpoint corrupt: CRC-64 mismatch (stored {stored:#018x}, \
                     computed {computed:#018x})"
                ),
            ));
        }
        Ok(())
    }
}

impl ParticleDats {
    /// Serialize the full store (schema + data).
    pub fn write_checkpoint<W: Write>(&self, w: &mut BinWriter<W>) -> io::Result<()> {
        w.u64(self.n_cols() as u64)?;
        for id in self.columns() {
            w.string(self.name(id))?;
            w.u64(self.dim(id) as u64)?;
            w.f64_slice(self.col(id))?;
        }
        w.i32_slice(self.cells())
    }

    /// Deserialize a store written by
    /// [`ParticleDats::write_checkpoint`].
    pub fn read_checkpoint<R: Read>(r: &mut BinReader<R>) -> io::Result<Self> {
        let n_cols = r.u64()? as usize;
        let mut ps = ParticleDats::new();
        let mut cols: Vec<(crate::particles::ColId, Vec<f64>)> = Vec::with_capacity(n_cols);
        let mut n_particles = None;
        for _ in 0..n_cols {
            let name = r.string()?;
            let dim = r.u64()? as usize;
            let data = r.f64_slice()?;
            if dim == 0 || data.len() % dim != 0 {
                return Err(io::Error::new(io::ErrorKind::InvalidData, "ragged column"));
            }
            let np = data.len() / dim;
            match n_particles {
                None => n_particles = Some(np),
                Some(p) if p != np => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "inconsistent column lengths",
                    ));
                }
                _ => {}
            }
            let id = ps.decl_dat(name, dim);
            cols.push((id, data));
        }
        let cells = r.i32_slice()?;
        let np = n_particles.unwrap_or(cells.len());
        if cells.len() != np {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cell map length mismatch",
            ));
        }
        ps.inject_into(&cells);
        for (id, data) in cols {
            ps.col_mut(id).copy_from_slice(&data);
        }
        Ok(ps)
    }
}

/// Header of a per-rank checkpoint shard (checkpoint v2 manifest):
/// who wrote it, in which world, at which step and membership epoch,
/// plus the cell→owner partition at write time. Restore paths must
/// call [`CheckpointManifest::validate`] before touching any state —
/// a shard from a different world shape would otherwise index out of
/// range during unpack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointManifest {
    /// Membership epoch the writer was in.
    pub epoch: u64,
    /// Live-rank count of the writer's world.
    pub n_ranks: u64,
    /// The writing rank's world id.
    pub rank: u64,
    /// Simulation step the shard snapshots.
    pub step: u64,
    /// Cell→owner map at write time (one world-rank id per global
    /// cell) — the partition manifest a shrinking recovery starts
    /// from.
    pub cell_owner: Vec<i32>,
}

/// A manifest that disagrees with the restoring communicator — the
/// typed rejection demanded before any state is mutated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ManifestMismatch {
    /// Shard written by a world of a different size.
    RankCount { shard: u64, world: u64 },
    /// Shard belongs to a different rank than the one restoring it.
    Rank { shard: u64, restoring: u64 },
    /// Shard's partition covers a different cell count than the mesh.
    CellCount { shard: usize, mesh: usize },
}

impl fmt::Display for ManifestMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ManifestMismatch::RankCount { shard, world } => write!(
                f,
                "checkpoint shard written by a {shard}-rank world, restoring into {world} ranks"
            ),
            ManifestMismatch::Rank { shard, restoring } => write!(
                f,
                "checkpoint shard belongs to rank {shard}, rank {restoring} tried to restore it"
            ),
            ManifestMismatch::CellCount { shard, mesh } => write!(
                f,
                "checkpoint partition covers {shard} cells, mesh has {mesh}"
            ),
        }
    }
}

impl std::error::Error for ManifestMismatch {}

impl CheckpointManifest {
    /// Serialize the manifest header.
    pub fn write<W: Write>(&self, w: &mut BinWriter<W>) -> io::Result<()> {
        w.u64(self.epoch)?;
        w.u64(self.n_ranks)?;
        w.u64(self.rank)?;
        w.u64(self.step)?;
        w.i32_slice(&self.cell_owner)
    }

    /// Deserialize a manifest written by [`CheckpointManifest::write`].
    pub fn read<R: Read>(r: &mut BinReader<R>) -> io::Result<Self> {
        Ok(CheckpointManifest {
            epoch: r.u64()?,
            n_ranks: r.u64()?,
            rank: r.u64()?,
            step: r.u64()?,
            cell_owner: r.i32_slice()?,
        })
    }

    /// Reject a shard that disagrees with the restoring communicator.
    /// `as_rank` is the rank applying the shard to its own state
    /// (`None` when reading a *peer's* shard, e.g. a survivor adopting
    /// a dead rank's particles).
    pub fn validate(
        &self,
        world_ranks: usize,
        as_rank: Option<usize>,
        n_cells: usize,
    ) -> Result<(), ManifestMismatch> {
        if self.n_ranks != world_ranks as u64 {
            return Err(ManifestMismatch::RankCount {
                shard: self.n_ranks,
                world: world_ranks as u64,
            });
        }
        if let Some(r) = as_rank {
            if self.rank != r as u64 {
                return Err(ManifestMismatch::Rank {
                    shard: self.rank,
                    restoring: r as u64,
                });
            }
        }
        if self.cell_owner.len() != n_cells {
            return Err(ManifestMismatch::CellCount {
                shard: self.cell_owner.len(),
                mesh: n_cells,
            });
        }
        Ok(())
    }
}

impl Dat {
    /// Serialize (name + dim + data).
    pub fn write_checkpoint<W: Write>(&self, w: &mut BinWriter<W>) -> io::Result<()> {
        w.string(self.name())?;
        w.u64(self.dim() as u64)?;
        w.f64_slice(self.raw())
    }

    /// Deserialize a dat written by [`Dat::write_checkpoint`].
    pub fn read_checkpoint<R: Read>(r: &mut BinReader<R>) -> io::Result<Self> {
        let name = r.string()?;
        let dim = r.u64()? as usize;
        let data = r.f64_slice()?;
        if dim == 0 || data.len() % dim != 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "ragged dat"));
        }
        Ok(Dat::from_vec(name, dim, data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trips_and_validates() {
        let m = CheckpointManifest {
            epoch: 2,
            n_ranks: 3,
            rank: 1,
            step: 16,
            cell_owner: vec![0, 0, 1, 1, 2, 2],
        };
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf).unwrap();
        m.write(&mut w).unwrap();
        w.finish().unwrap();
        let mut r = BinReader::new(buf.as_slice()).unwrap();
        let back = CheckpointManifest::read(&mut r).unwrap();
        r.verify_footer().unwrap();
        assert_eq!(back, m);
        assert!(back.validate(3, Some(1), 6).is_ok());
        assert!(
            back.validate(3, None, 6).is_ok(),
            "peer reads skip rank check"
        );
    }

    #[test]
    fn manifest_mismatches_are_typed_not_panics() {
        let m = CheckpointManifest {
            epoch: 0,
            n_ranks: 4,
            rank: 3,
            step: 8,
            cell_owner: vec![0; 27],
        };
        // The out-of-range class this guards: a 4-rank snapshot
        // restored into a 2-rank world would index ranks 2..4.
        assert_eq!(
            m.validate(2, Some(1), 27),
            Err(ManifestMismatch::RankCount { shard: 4, world: 2 })
        );
        assert_eq!(
            m.validate(4, Some(1), 27),
            Err(ManifestMismatch::Rank {
                shard: 3,
                restoring: 1
            })
        );
        assert_eq!(
            m.validate(4, Some(3), 8),
            Err(ManifestMismatch::CellCount { shard: 27, mesh: 8 })
        );
    }

    #[test]
    fn byte_blobs_round_trip() {
        let blob: Vec<u8> = (0..=255).collect();
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf).unwrap();
        w.bytes(&blob).unwrap();
        w.bytes(&[]).unwrap();
        w.finish().unwrap();
        let mut r = BinReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.bytes().unwrap(), blob);
        assert_eq!(r.bytes().unwrap(), Vec::<u8>::new());
        r.verify_footer().unwrap();
    }

    #[test]
    fn dat_round_trip_is_bit_exact() {
        let d = Dat::from_fn("field", 5, 3, |i, c| (i as f64 + 0.1 * c as f64) * 1e-7);
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf).unwrap();
        d.write_checkpoint(&mut w).unwrap();
        w.finish().unwrap();
        let mut r = BinReader::new(buf.as_slice()).unwrap();
        let back = Dat::read_checkpoint(&mut r).unwrap();
        r.verify_footer().unwrap();
        assert_eq!(back.name(), "field");
        assert_eq!(back.dim(), 3);
        assert_eq!(back.raw(), d.raw());
    }

    #[test]
    fn particle_store_round_trip() {
        let mut ps = ParticleDats::new();
        let pos = ps.decl_dat("pos", 3);
        let q = ps.decl_dat("q", 1);
        ps.inject(7, 2);
        for i in 0..7 {
            ps.el_mut(pos, i)[0] = i as f64 * 0.25;
            ps.el_mut(q, i)[0] = -(i as f64);
            ps.cells_mut()[i] = (i * 3) as i32;
        }
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf).unwrap();
        ps.write_checkpoint(&mut w).unwrap();
        w.finish().unwrap();
        let mut r = BinReader::new(buf.as_slice()).unwrap();
        let back = ParticleDats::read_checkpoint(&mut r).unwrap();
        r.verify_footer().unwrap();
        assert_eq!(back.len(), 7);
        assert_eq!(back.dofs(), 4);
        assert_eq!(back.cells(), ps.cells());
        let bpos = back.col_id("pos").unwrap();
        assert_eq!(back.col(bpos), ps.col(pos));
        let bq = back.col_id("q").unwrap();
        assert_eq!(back.col(bq), ps.col(q));
    }

    #[test]
    fn rejects_wrong_magic_and_truncation() {
        assert!(BinReader::new(&b"NOTACKPT0000"[..]).is_err());
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf).unwrap();
        let d = Dat::zeros("x", 10, 2);
        d.write_checkpoint(&mut w).unwrap();
        w.finish().unwrap();
        let cut = buf.len() / 2;
        let mut r = BinReader::new(&buf[..cut]).unwrap();
        assert!(Dat::read_checkpoint(&mut r).is_err());
    }

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf).unwrap();
        w.u64(42).unwrap();
        w.u128(1 << 100).unwrap();
        w.string("hello").unwrap();
        w.i32_slice(&[-1, 2, 3]).unwrap();
        w.finish().unwrap();
        let mut r = BinReader::new(buf.as_slice()).unwrap();
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.u128().unwrap(), 1 << 100);
        assert_eq!(r.string().unwrap(), "hello");
        assert_eq!(r.i32_slice().unwrap(), vec![-1, 2, 3]);
        r.verify_footer().unwrap();
    }

    #[test]
    fn crc64_matches_known_vector() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    /// Satellite: any single bit flip in the payload must be rejected
    /// by the footer check, even though the section parser may accept
    /// the mutated bytes.
    #[test]
    fn footer_rejects_bit_flipped_payload() {
        let d = Dat::from_fn("phi", 16, 1, |i, _| i as f64 * 0.5 - 3.0);
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf).unwrap();
        d.write_checkpoint(&mut w).unwrap();
        w.finish().unwrap();

        // Flip one bit in each byte position of the checksummed
        // region (header + payload, everything before the footer).
        let footer_start = buf.len() - 16;
        for pos in [12, footer_start / 2, footer_start - 1] {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            let outcome = BinReader::new(bad.as_slice()).and_then(|mut r| {
                let _ = Dat::read_checkpoint(&mut r)?;
                r.verify_footer()
            });
            assert!(outcome.is_err(), "bit flip at byte {pos} not detected");
        }
    }

    /// Satellite: a truncated file fails the footer check with a
    /// clear error rather than silently yielding a short state.
    #[test]
    fn footer_rejects_truncated_file() {
        let d = Dat::from_fn("rho", 8, 1, |i, _| (i * i) as f64);
        let mut buf = Vec::new();
        let mut w = BinWriter::new(&mut buf).unwrap();
        d.write_checkpoint(&mut w).unwrap();
        w.finish().unwrap();

        // Cut inside the footer: the payload parses but the footer is
        // incomplete.
        let cut = buf.len() - 5;
        let mut r = BinReader::new(&buf[..cut]).unwrap();
        let _ = Dat::read_checkpoint(&mut r).unwrap();
        let err = r.verify_footer().unwrap_err();
        assert!(
            err.to_string().contains("truncated"),
            "unexpected error: {err}"
        );

        // Cut before the footer so the stale tail is misread as a
        // footer: magic mismatch.
        let mut r2 = BinReader::new(&buf[..buf.len() - 17]).unwrap();
        // read a deliberately-short prefix then ask for the footer.
        let _ = r2.u64().unwrap();
        assert!(r2.verify_footer().is_err());
    }
}
