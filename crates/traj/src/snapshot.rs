//! Columnar, delta-encoded, versioned snapshot format for the archive.
//!
//! The materialized [`TrajectoryArchive`] holds every GPS point twice (once
//! in the per-trip `Vec<GpsPoint>`, once as an
//! [`ArchivePoint`](crate::ArchivePoint) inside the R-tree arena), which is
//! fine for a demo but not for city scale: Beijing in the paper is millions
//! of archived points. This module puts the archive on a storage diet:
//!
//! * **Columnar layout** — per trip, the `t` / `x` / `y` series are stored
//!   as three independent columns, so scans that only need timestamps (or
//!   only geometry) touch a third of the bytes.
//! * **Delta encoding** — each column stores zigzag-varint deltas. Clean
//!   data (millisecond timestamps, millimetre coordinates — everything the
//!   simulator and real GPS loggers emit) takes the `FIXED` path: values
//!   become scaled integers and consecutive deltas are tiny, so a point
//!   costs ~3 bytes per column instead of 8. Data that is not exactly
//!   representable at fixed point (NaN-adjacent repairs, extreme proptest
//!   inputs) falls back to the `RAW` path, which deltas the IEEE-754 *bit
//!   patterns* — still often compressible, and **always lossless**.
//! * **Interned segment ids** — an optional routes section stores matched
//!   routes per trip through a frequency-ordered [`SegmentId`] dictionary,
//!   so hot segments cost one varint per occurrence.
//! * **Versioned, mmap-able container** — a fixed 68-byte header (magic,
//!   version, CRC-guarded) plus absolute section offsets, then flat
//!   prefix-sum tables. [`ColumnarSnapshot`] keeps the raw [`Bytes`] and
//!   reads straight out of them: opening validates the header and offset
//!   tables but decodes **no** point data, so a reader over an mmap'd file
//!   pays only for the trips it touches.
//!
//! Byte-identity is the contract: decoding reproduces every `f64` bit
//! pattern of the source archive exactly (`decode → f64::to_bits` equals
//! the original), enforced by the differential tests here and the proptest
//! suite in `crates/traj/tests/`.

use crate::archive::TrajectoryArchive;
use crate::types::{GpsPoint, TrajId, Trajectory};
use bytes::Bytes;
use hris_geo::Point;
use hris_roadnet::SegmentId;
use std::collections::HashMap;
use std::fmt;

/// Magic bytes at offset 0 of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HRISSNAP";

/// Current (and only) format version this build writes and reads.
pub const SNAPSHOT_VERSION: u16 = 1;

/// Byte length of the fixed header ([`SnapshotHeader`]).
pub const SNAPSHOT_HEADER_LEN: usize = 68;

/// Flag bit: the optional interned-routes section is present.
pub const FLAG_ROUTES: u16 = 1;

/// Fixed-point scale for timestamps on the `FIXED` column path
/// (milliseconds).
const T_SCALE: f64 = 1000.0;

/// Fixed-point scale for coordinates on the `FIXED` column path
/// (millimetres).
const XY_SCALE: f64 = 1000.0;

/// Column tag: values are exactly representable at the column's
/// fixed-point scale and stored as zigzag-varint deltas of scaled i64s.
const TAG_FIXED: u8 = 0;

/// Column tag: lossless fallback — first value as raw IEEE-754 bits,
/// then zigzag-varint deltas of the bit patterns.
const TAG_RAW: u8 = 1;

/// Why a snapshot blob was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Blob is shorter than the fixed header.
    TooShort,
    /// The first 8 bytes are not [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// Header parsed but the version is one this build cannot read.
    UnsupportedVersion(u16),
    /// The header CRC does not match its contents — bit rot or a
    /// truncated/overwritten header.
    HeaderCorrupt,
    /// The header's recorded total length disagrees with the blob —
    /// the file was truncated or concatenated.
    Truncated,
    /// Structurally invalid section data (non-monotone offsets, counts
    /// out of range, a column that over- or under-runs its block).
    Malformed(&'static str),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::TooShort => write!(f, "snapshot blob shorter than header"),
            SnapshotError::BadMagic => write!(f, "bad snapshot magic"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v}")
            }
            SnapshotError::HeaderCorrupt => write!(f, "snapshot header CRC mismatch"),
            SnapshotError::Truncated => write!(f, "snapshot blob truncated"),
            SnapshotError::Malformed(what) => write!(f, "malformed snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Parsed fixed header of a columnar snapshot.
///
/// All offsets are absolute byte positions into the blob. The header is
/// CRC-guarded: [`ColumnarSnapshot::open`] rejects blobs whose first 64
/// bytes do not hash to `header_crc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotHeader {
    /// Format version (see [`SNAPSHOT_VERSION`]).
    pub version: u16,
    /// Feature flags ([`FLAG_ROUTES`]).
    pub flags: u16,
    /// Number of trips in the snapshot.
    pub trip_count: u32,
    /// Total number of GPS points across all trips.
    pub point_count: u64,
    /// Total byte length of the blob, header included.
    pub total_len: u64,
    /// Epoch number the snapshot was published at.
    pub epoch: u64,
    /// Absolute offset of the prefix-sum / block-offset tables.
    pub offsets_off: u64,
    /// Absolute offset of the per-trip column blocks.
    pub columns_off: u64,
    /// Absolute offset of the routes section, 0 when absent.
    pub routes_off: u64,
    /// CRC-32 (IEEE) over header bytes 0..64.
    pub header_crc: u32,
}

impl SnapshotHeader {
    /// Whether the interned-routes section is present.
    #[must_use]
    pub fn has_routes(&self) -> bool {
        self.flags & FLAG_ROUTES != 0
    }

    /// Stable multi-line description of the header, used by the golden
    /// format test (`tests/golden/snapshot_format.txt`). Field order and
    /// wording are part of the format contract: a diff here means the
    /// on-disk layout changed and the version must be bumped.
    #[must_use]
    pub fn describe(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "magic            {}\n",
            String::from_utf8_lossy(&SNAPSHOT_MAGIC)
        ));
        s.push_str(&format!("version          {}\n", self.version));
        s.push_str(&format!("flags            {:#06x}\n", self.flags));
        s.push_str(&format!("trip_count       {}\n", self.trip_count));
        s.push_str(&format!("point_count      {}\n", self.point_count));
        s.push_str(&format!("total_len        {}\n", self.total_len));
        s.push_str(&format!("epoch            {}\n", self.epoch));
        s.push_str(&format!("offsets_off      {}\n", self.offsets_off));
        s.push_str(&format!("columns_off      {}\n", self.columns_off));
        s.push_str(&format!("routes_off       {}\n", self.routes_off));
        s.push_str(&format!("header_crc       {:#010x}\n", self.header_crc));
        s
    }
}

// ---------------------------------------------------------------------------
// Primitive codecs
// ---------------------------------------------------------------------------

/// CRC-32 (IEEE 802.3, poly 0xEDB88320), bitwise — runs once per header,
/// speed is irrelevant.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in data {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// Reads one LEB128 varint from `data` starting at `*pos`, advancing it.
#[inline]
fn get_varint(data: &[u8], pos: &mut usize) -> Result<u64, SnapshotError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data
            .get(*pos)
            .ok_or(SnapshotError::Malformed("varint overruns block"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(SnapshotError::Malformed("varint too long"));
        }
        let payload = u64::from(byte & 0x7f);
        if shift == 63 && payload > 1 {
            return Err(SnapshotError::Malformed("varint overflows u64"));
        }
        v |= payload << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u16(data: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([data[at], data[at + 1]])
}

fn read_u32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]])
}

fn read_u64(data: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(b)
}

/// Whether every value in the series is *exactly* representable as
/// `round(v * scale) / scale` — the precondition for the lossy-looking
/// but actually lossless `FIXED` path.
fn fixed_representable(vals: &[f64], scale: f64) -> bool {
    vals.iter().all(|&v| {
        if !v.is_finite() {
            return false;
        }
        let scaled = (v * scale).round();
        // i64::MAX is not exactly representable as f64; stay well inside.
        if scaled.abs() >= 9.0e18 {
            return false;
        }
        (scaled / scale).to_bits() == v.to_bits()
    })
}

/// Encodes one column (all `t`s, all `x`s, or all `y`s of a trip).
fn encode_column(vals: &[f64], scale: f64, out: &mut Vec<u8>) {
    if fixed_representable(vals, scale) {
        out.push(TAG_FIXED);
        let mut prev: i64 = 0;
        for &v in vals {
            let s = (v * scale).round() as i64;
            put_varint(out, zigzag(s.wrapping_sub(prev)));
            prev = s;
        }
    } else {
        out.push(TAG_RAW);
        let mut prev: i64 = 0;
        for (i, &v) in vals.iter().enumerate() {
            let bits = v.to_bits() as i64;
            if i == 0 {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            } else {
                put_varint(out, zigzag(bits.wrapping_sub(prev)));
            }
            prev = bits;
        }
    }
}

/// Decodes one column of `n` values from `data` starting at `*pos`.
fn decode_column(
    data: &[u8],
    pos: &mut usize,
    n: usize,
    scale: f64,
    out: &mut Vec<f64>,
) -> Result<(), SnapshotError> {
    let tag = *data
        .get(*pos)
        .ok_or(SnapshotError::Malformed("missing column tag"))?;
    *pos += 1;
    match tag {
        TAG_FIXED => {
            let mut prev: i64 = 0;
            for _ in 0..n {
                let d = unzigzag(get_varint(data, pos)?);
                prev = prev.wrapping_add(d);
                out.push(prev as f64 / scale);
            }
        }
        TAG_RAW => {
            let mut prev: i64 = 0;
            for i in 0..n {
                if i == 0 {
                    if *pos + 8 > data.len() {
                        return Err(SnapshotError::Malformed("raw column seed overruns block"));
                    }
                    let bits = read_u64(data, *pos);
                    *pos += 8;
                    prev = bits as i64;
                } else {
                    let d = unzigzag(get_varint(data, pos)?);
                    prev = prev.wrapping_add(d);
                }
                out.push(f64::from_bits(prev as u64));
            }
        }
        _ => return Err(SnapshotError::Malformed("unknown column tag")),
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------------

/// Encodes an archive into the versioned columnar snapshot format,
/// stamping the given epoch into the header. No routes section.
#[must_use]
pub fn encode_snapshot(archive: &TrajectoryArchive, epoch: u64) -> Bytes {
    encode_snapshot_inner(archive, epoch, None)
}

/// Encodes an archive plus per-trip matched routes. `routes` must have
/// one entry per trajectory (panics otherwise); segment ids are interned
/// through a frequency-ordered dictionary so hot segments cost one small
/// varint per occurrence.
#[must_use]
pub fn encode_snapshot_with_routes(
    archive: &TrajectoryArchive,
    epoch: u64,
    routes: &[Vec<SegmentId>],
) -> Bytes {
    assert_eq!(
        routes.len(),
        archive.num_trajectories(),
        "one route list per trajectory"
    );
    encode_snapshot_inner(archive, epoch, Some(routes))
}

fn encode_snapshot_inner(
    archive: &TrajectoryArchive,
    epoch: u64,
    routes: Option<&[Vec<SegmentId>]>,
) -> Bytes {
    let trips = archive.trajectories();
    let trip_count = trips.len() as u32;

    // Column blocks + per-trip byte offsets (relative to columns_off).
    let mut columns: Vec<u8> = Vec::new();
    let mut block_offsets: Vec<u64> = Vec::with_capacity(trips.len() + 1);
    let mut prefix: Vec<u64> = Vec::with_capacity(trips.len() + 1);
    let mut scratch: Vec<f64> = Vec::new();
    let mut point_count: u64 = 0;
    prefix.push(0);
    block_offsets.push(0);
    for trip in trips {
        for (col, scale) in [(0usize, T_SCALE), (1, XY_SCALE), (2, XY_SCALE)] {
            scratch.clear();
            scratch.extend(trip.points.iter().map(|p| match col {
                0 => p.t,
                1 => p.pos.x,
                _ => p.pos.y,
            }));
            encode_column(&scratch, scale, &mut columns);
        }
        point_count += trip.points.len() as u64;
        prefix.push(point_count);
        block_offsets.push(columns.len() as u64);
    }

    let offsets_off = SNAPSHOT_HEADER_LEN as u64;
    let tables_len = 2 * (trips.len() + 1) * 8;
    let columns_off = offsets_off + tables_len as u64;
    let columns_end = columns_off + columns.len() as u64;

    // Optional routes section.
    let mut routes_blob: Vec<u8> = Vec::new();
    let mut flags: u16 = 0;
    let routes_off = if let Some(routes) = routes {
        flags |= FLAG_ROUTES;
        encode_routes(routes, &mut routes_blob);
        columns_end
    } else {
        0
    };

    let total_len = columns_end + routes_blob.len() as u64;

    let mut out: Vec<u8> = Vec::with_capacity(total_len as usize);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    put_u16(&mut out, SNAPSHOT_VERSION);
    put_u16(&mut out, flags);
    put_u32(&mut out, trip_count);
    put_u64(&mut out, point_count);
    put_u64(&mut out, total_len);
    put_u64(&mut out, epoch);
    put_u64(&mut out, offsets_off);
    put_u64(&mut out, columns_off);
    put_u64(&mut out, routes_off);
    debug_assert_eq!(out.len(), 64);
    let crc = crc32(&out);
    put_u32(&mut out, crc);
    debug_assert_eq!(out.len(), SNAPSHOT_HEADER_LEN);

    for p in &prefix {
        put_u64(&mut out, *p);
    }
    for o in &block_offsets {
        put_u64(&mut out, *o);
    }
    out.extend_from_slice(&columns);
    out.extend_from_slice(&routes_blob);
    debug_assert_eq!(out.len() as u64, total_len);
    Bytes::from_vec(out)
}

/// Routes section layout: u32 dict_len, dict_len × u32 segment ids
/// (descending frequency), u32 trip_count, (trip_count+1) × u64 byte
/// offsets into the lists region, then per trip a varint count + that
/// many varint dictionary indices.
fn encode_routes(routes: &[Vec<SegmentId>], out: &mut Vec<u8>) {
    // Frequency-ordered dictionary: hot segments get small indices, which
    // varint-encode short. Ties break on segment id for determinism.
    let mut freq: HashMap<u32, u64> = HashMap::new();
    for route in routes {
        for seg in route {
            *freq.entry(seg.0).or_insert(0) += 1;
        }
    }
    let mut dict: Vec<(u32, u64)> = freq.into_iter().collect();
    dict.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let index: HashMap<u32, u64> = dict
        .iter()
        .enumerate()
        .map(|(i, (seg, _))| (*seg, i as u64))
        .collect();

    put_u32(out, dict.len() as u32);
    for (seg, _) in &dict {
        put_u32(out, *seg);
    }
    put_u32(out, routes.len() as u32);

    let mut lists: Vec<u8> = Vec::new();
    let mut offsets: Vec<u64> = Vec::with_capacity(routes.len() + 1);
    offsets.push(0);
    for route in routes {
        put_varint(&mut lists, route.len() as u64);
        for seg in route {
            put_varint(&mut lists, index[&seg.0]);
        }
        offsets.push(lists.len() as u64);
    }
    for o in &offsets {
        put_u64(out, *o);
    }
    out.extend_from_slice(&lists);
}

// ---------------------------------------------------------------------------
// Zero-copy reader
// ---------------------------------------------------------------------------

/// Zero-copy reader over a columnar snapshot blob.
///
/// [`ColumnarSnapshot::open`] validates the header (magic, version, CRC,
/// recorded length) and the offset tables (monotone, in-bounds) but does
/// **not** decode point data — a reader over an mmap'd file only faults in
/// the pages for trips it actually reads. Per-trip decoding happens on
/// demand in [`trip_points`](ColumnarSnapshot::trip_points); the full
/// materialization path is [`decode_archive`](ColumnarSnapshot::decode_archive),
/// which reproduces the source archive byte-identically.
#[derive(Debug, Clone)]
pub struct ColumnarSnapshot {
    data: Bytes,
    header: SnapshotHeader,
}

impl ColumnarSnapshot {
    /// Validates and opens a snapshot blob.
    pub fn open(data: Bytes) -> Result<Self, SnapshotError> {
        let raw = data.as_slice();
        if raw.len() < SNAPSHOT_HEADER_LEN {
            return Err(SnapshotError::TooShort);
        }
        if raw[0..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let header = SnapshotHeader {
            version: read_u16(raw, 8),
            flags: read_u16(raw, 10),
            trip_count: read_u32(raw, 12),
            point_count: read_u64(raw, 16),
            total_len: read_u64(raw, 24),
            epoch: read_u64(raw, 32),
            offsets_off: read_u64(raw, 40),
            columns_off: read_u64(raw, 48),
            routes_off: read_u64(raw, 56),
            header_crc: read_u32(raw, 64),
        };
        if crc32(&raw[0..64]) != header.header_crc {
            return Err(SnapshotError::HeaderCorrupt);
        }
        if header.version != SNAPSHOT_VERSION {
            return Err(SnapshotError::UnsupportedVersion(header.version));
        }
        if header.total_len != raw.len() as u64 {
            return Err(SnapshotError::Truncated);
        }

        let n = header.trip_count as usize;
        let tables_len = 2u64 * (n as u64 + 1) * 8;
        if header.offsets_off != SNAPSHOT_HEADER_LEN as u64
            || header.columns_off != header.offsets_off + tables_len
            || header.columns_off > header.total_len
        {
            return Err(SnapshotError::Malformed("section offsets out of range"));
        }
        let snap = ColumnarSnapshot { data, header };

        // Validate the prefix-sum and block-offset tables up front so every
        // later table read is a plain slice index.
        let columns_len = snap.columns_len();
        let mut prev_p = 0u64;
        let mut prev_b = 0u64;
        for i in 0..=n {
            let p = snap.point_prefix(i);
            let b = snap.block_offset(i);
            if p < prev_p || b < prev_b {
                return Err(SnapshotError::Malformed("offset tables not monotone"));
            }
            prev_p = p;
            prev_b = b;
        }
        if prev_p != snap.header.point_count {
            return Err(SnapshotError::Malformed("point count mismatch"));
        }
        if prev_b != columns_len {
            return Err(SnapshotError::Malformed("column region length mismatch"));
        }
        if snap.header.has_routes() {
            if snap.header.routes_off != snap.header.columns_off + columns_len
                || snap.header.routes_off > snap.header.total_len
            {
                return Err(SnapshotError::Malformed("routes offset out of range"));
            }
            snap.validate_routes()?;
        } else if snap.header.columns_off + columns_len != snap.header.total_len {
            return Err(SnapshotError::Malformed("trailing bytes after columns"));
        }
        Ok(snap)
    }

    /// The parsed header.
    #[must_use]
    pub fn header(&self) -> &SnapshotHeader {
        &self.header
    }

    /// Epoch the snapshot was published at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.header.epoch
    }

    /// Number of trips.
    #[must_use]
    pub fn num_trajectories(&self) -> usize {
        self.header.trip_count as usize
    }

    /// Total number of GPS points.
    #[must_use]
    pub fn num_points(&self) -> usize {
        self.header.point_count as usize
    }

    /// The underlying blob.
    #[must_use]
    pub fn bytes(&self) -> &Bytes {
        &self.data
    }

    fn columns_len(&self) -> u64 {
        let end = if self.header.has_routes() {
            self.header.routes_off
        } else {
            self.header.total_len
        };
        end - self.header.columns_off
    }

    fn point_prefix(&self, i: usize) -> u64 {
        read_u64(
            self.data.as_slice(),
            self.header.offsets_off as usize + i * 8,
        )
    }

    fn block_offset(&self, i: usize) -> u64 {
        let base = self.header.offsets_off as usize + (self.header.trip_count as usize + 1) * 8;
        read_u64(self.data.as_slice(), base + i * 8)
    }

    /// Number of points in trip `i` — read from the prefix-sum table,
    /// no decoding.
    #[must_use]
    pub fn trip_len(&self, i: usize) -> usize {
        (self.point_prefix(i + 1) - self.point_prefix(i)) as usize
    }

    /// Decodes trip `i`'s points. Checked variant of
    /// [`trip_points`](Self::trip_points).
    pub fn try_trip_points(&self, i: usize) -> Result<Vec<GpsPoint>, SnapshotError> {
        assert!(i < self.num_trajectories(), "trip index out of range");
        let n = self.trip_len(i);
        let start = (self.header.columns_off + self.block_offset(i)) as usize;
        let end = (self.header.columns_off + self.block_offset(i + 1)) as usize;
        let block = &self.data.as_slice()[start..end];
        let mut pos = 0usize;
        let mut ts = Vec::with_capacity(n);
        let mut xs = Vec::with_capacity(n);
        let mut ys = Vec::with_capacity(n);
        decode_column(block, &mut pos, n, T_SCALE, &mut ts)?;
        decode_column(block, &mut pos, n, XY_SCALE, &mut xs)?;
        decode_column(block, &mut pos, n, XY_SCALE, &mut ys)?;
        if pos != block.len() {
            return Err(SnapshotError::Malformed("column block underrun"));
        }
        Ok((0..n)
            .map(|j| GpsPoint {
                pos: Point::new(xs[j], ys[j]),
                t: ts[j],
            })
            .collect())
    }

    /// Decodes trip `i`'s points.
    ///
    /// # Panics
    /// On malformed column payloads (header and offset tables are already
    /// validated by [`open`](Self::open); payload corruption surfaces
    /// here). Use [`try_trip_points`](Self::try_trip_points) to handle
    /// corruption without panicking.
    #[must_use]
    pub fn trip_points(&self, i: usize) -> Vec<GpsPoint> {
        self.try_trip_points(i).expect("malformed column payload")
    }

    /// Fully materializes the archive this snapshot was encoded from,
    /// byte-identical to the source (same trip order, same ids, same
    /// `f64` bit patterns, same bulk-loaded R-tree).
    pub fn decode_archive(&self) -> Result<TrajectoryArchive, SnapshotError> {
        let n = self.num_trajectories();
        let mut trips = Vec::with_capacity(n);
        for i in 0..n {
            let points = self.try_trip_points(i)?;
            trips.push(Trajectory::from_unchecked(TrajId(i as u32), points));
        }
        Ok(TrajectoryArchive::new(trips))
    }

    fn routes_region(&self) -> &[u8] {
        &self.data.as_slice()[self.header.routes_off as usize..self.header.total_len as usize]
    }

    fn validate_routes(&self) -> Result<(), SnapshotError> {
        let r = self.routes_region();
        if r.len() < 4 {
            return Err(SnapshotError::Malformed("routes section too short"));
        }
        let dict_len = read_u32(r, 0) as usize;
        let trips_at = 4 + dict_len * 4;
        if r.len() < trips_at + 4 {
            return Err(SnapshotError::Malformed("routes dictionary overruns"));
        }
        let n_trips = read_u32(r, trips_at) as usize;
        if n_trips != self.num_trajectories() {
            return Err(SnapshotError::Malformed("routes trip count mismatch"));
        }
        let offs_at = trips_at + 4;
        let lists_at = offs_at + (n_trips + 1) * 8;
        if r.len() < lists_at {
            return Err(SnapshotError::Malformed("routes offset table overruns"));
        }
        let lists_len = (r.len() - lists_at) as u64;
        let mut prev = 0u64;
        for i in 0..=n_trips {
            let o = read_u64(r, offs_at + i * 8);
            if o < prev || o > lists_len {
                return Err(SnapshotError::Malformed("routes offsets not monotone"));
            }
            prev = o;
        }
        if prev != lists_len {
            return Err(SnapshotError::Malformed("routes lists length mismatch"));
        }
        Ok(())
    }

    /// Decodes trip `i`'s interned route, or `None` when the snapshot
    /// has no routes section.
    pub fn trip_route(&self, i: usize) -> Option<Result<Vec<SegmentId>, SnapshotError>> {
        if !self.header.has_routes() {
            return None;
        }
        assert!(i < self.num_trajectories(), "trip index out of range");
        Some(self.trip_route_inner(i))
    }

    fn trip_route_inner(&self, i: usize) -> Result<Vec<SegmentId>, SnapshotError> {
        let r = self.routes_region();
        let dict_len = read_u32(r, 0) as usize;
        let dict_at = 4;
        let trips_at = dict_at + dict_len * 4;
        let n_trips = read_u32(r, trips_at) as usize;
        let offs_at = trips_at + 4;
        let lists_at = offs_at + (n_trips + 1) * 8;
        let start = lists_at + read_u64(r, offs_at + i * 8) as usize;
        let end = lists_at + read_u64(r, offs_at + (i + 1) * 8) as usize;
        let list = &r[start..end];
        let mut pos = 0usize;
        let count = get_varint(list, &mut pos)? as usize;
        // Each index takes at least one byte, so a count beyond the bytes
        // left is malformed: bound the allocation by what can be read.
        let mut out = Vec::with_capacity(count.min(list.len() - pos));
        for _ in 0..count {
            let idx = get_varint(list, &mut pos)? as usize;
            if idx >= dict_len {
                return Err(SnapshotError::Malformed("route index out of dictionary"));
            }
            out.push(SegmentId(read_u32(r, dict_at + idx * 4)));
        }
        if pos != list.len() {
            return Err(SnapshotError::Malformed("route list underrun"));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Trajectory;

    fn gp(x: f64, y: f64, t: f64) -> GpsPoint {
        GpsPoint::new(Point::new(x, y), t)
    }

    fn sample_archive() -> TrajectoryArchive {
        let trips = vec![
            Trajectory::new(
                TrajId(0),
                vec![
                    gp(100.0, 200.0, 0.0),
                    gp(150.5, 240.25, 30.0),
                    gp(210.125, 300.0, 61.5),
                ],
            ),
            Trajectory::new(
                TrajId(1),
                vec![gp(-50.0, 0.001, 10.0), gp(-49.0, 0.002, 12.0)],
            ),
        ];
        TrajectoryArchive::new(trips)
    }

    fn assert_bit_identical(a: &TrajectoryArchive, b: &TrajectoryArchive) {
        assert_eq!(a.num_trajectories(), b.num_trajectories());
        assert_eq!(a.num_points(), b.num_points());
        for (ta, tb) in a.trajectories().iter().zip(b.trajectories()) {
            assert_eq!(ta.id, tb.id);
            assert_eq!(ta.points.len(), tb.points.len());
            for (pa, pb) in ta.points.iter().zip(&tb.points) {
                assert_eq!(pa.t.to_bits(), pb.t.to_bits());
                assert_eq!(pa.pos.x.to_bits(), pb.pos.x.to_bits());
                assert_eq!(pa.pos.y.to_bits(), pb.pos.y.to_bits());
            }
        }
    }

    #[test]
    fn roundtrip_is_byte_identical() {
        let archive = sample_archive();
        let blob = encode_snapshot(&archive, 7);
        let snap = ColumnarSnapshot::open(blob).expect("open");
        assert_eq!(snap.epoch(), 7);
        assert_eq!(snap.num_trajectories(), 2);
        assert_eq!(snap.num_points(), 5);
        let decoded = snap.decode_archive().expect("decode");
        assert_bit_identical(&archive, &decoded);
    }

    #[test]
    fn raw_fallback_handles_unrepresentable_values() {
        // PI is not exactly representable at mm fixed point — must take
        // the RAW path and still round-trip bit-exactly.
        let trips = vec![Trajectory::new(
            TrajId(0),
            vec![
                gp(std::f64::consts::PI, 1.0 / 3.0, 0.1 + 0.2),
                gp(std::f64::consts::E, 2.0 / 3.0, 1.0e17),
            ],
        )];
        let archive = TrajectoryArchive::new(trips);
        let blob = encode_snapshot(&archive, 0);
        let snap = ColumnarSnapshot::open(blob).expect("open");
        let decoded = snap.decode_archive().expect("decode");
        assert_bit_identical(&archive, &decoded);
    }

    #[test]
    fn empty_archive_roundtrips() {
        let archive = TrajectoryArchive::empty();
        let blob = encode_snapshot(&archive, 3);
        let snap = ColumnarSnapshot::open(blob).expect("open");
        assert_eq!(snap.num_trajectories(), 0);
        assert_eq!(snap.num_points(), 0);
        let decoded = snap.decode_archive().expect("decode");
        assert_eq!(decoded.num_trajectories(), 0);
    }

    #[test]
    fn empty_trajectory_roundtrips() {
        let trips = vec![
            Trajectory::from_unchecked(TrajId(0), vec![]),
            Trajectory::new(TrajId(1), vec![gp(1.0, 2.0, 3.0)]),
        ];
        let archive = TrajectoryArchive::new(trips);
        let blob = encode_snapshot(&archive, 0);
        let snap = ColumnarSnapshot::open(blob).expect("open");
        assert_eq!(snap.trip_len(0), 0);
        assert_eq!(snap.trip_len(1), 1);
        let decoded = snap.decode_archive().expect("decode");
        assert_bit_identical(&archive, &decoded);
    }

    #[test]
    fn clean_data_compresses_below_flat_encoding() {
        // 1 Hz millisecond timestamps, mm-quantized coords: the FIXED path
        // should beat the flat 24-bytes-per-point `to_bytes` layout by a
        // wide margin.
        let pts: Vec<GpsPoint> = (0..1000)
            .map(|i| {
                let f = f64::from(i);
                gp(
                    (1000.0 + f * 3.125).round() / 1000.0 * 1000.0,
                    (2000.0 - f * 2.5).round(),
                    f,
                )
            })
            .collect();
        let archive = TrajectoryArchive::new(vec![Trajectory::new(TrajId(0), pts)]);
        let flat = archive.to_bytes().len();
        let columnar = encode_snapshot(&archive, 0).len();
        assert!(
            columnar * 2 < flat,
            "columnar {columnar} should be <half of flat {flat}"
        );
    }

    #[test]
    fn open_rejects_bad_magic() {
        let mut raw = encode_snapshot(&sample_archive(), 0).as_slice().to_vec();
        raw[0] ^= 0xff;
        assert_eq!(
            ColumnarSnapshot::open(Bytes::from_vec(raw)).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn open_rejects_header_bitflip() {
        let mut raw = encode_snapshot(&sample_archive(), 0).as_slice().to_vec();
        raw[33] ^= 0x01; // epoch byte: CRC must catch it
        assert_eq!(
            ColumnarSnapshot::open(Bytes::from_vec(raw)).unwrap_err(),
            SnapshotError::HeaderCorrupt
        );
    }

    #[test]
    fn open_rejects_future_version() {
        let mut raw = encode_snapshot(&sample_archive(), 0).as_slice().to_vec();
        raw[8] = 99;
        raw[9] = 0;
        // Re-seal the CRC so the version check (not the CRC) fires.
        let crc = crc32(&raw[0..64]);
        raw[64..68].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            ColumnarSnapshot::open(Bytes::from_vec(raw)).unwrap_err(),
            SnapshotError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn open_rejects_truncation() {
        let raw = encode_snapshot(&sample_archive(), 0).as_slice().to_vec();
        let cut = raw.len() - 3;
        assert_eq!(
            ColumnarSnapshot::open(Bytes::from_vec(raw[..cut].to_vec())).unwrap_err(),
            SnapshotError::Truncated
        );
        assert_eq!(
            ColumnarSnapshot::open(Bytes::from_vec(raw[..20].to_vec())).unwrap_err(),
            SnapshotError::TooShort
        );
    }

    #[test]
    fn payload_corruption_is_detected_on_decode() {
        let raw = encode_snapshot(&sample_archive(), 0).as_slice().to_vec();
        let mut bad = raw.clone();
        // Flip the first column tag byte to an invalid value.
        let columns_off = read_u64(&raw, 48) as usize;
        bad[columns_off] = 7;
        let snap = ColumnarSnapshot::open(Bytes::from_vec(bad)).expect("header still valid");
        assert!(snap.try_trip_points(0).is_err());
        assert!(snap.decode_archive().is_err());
    }

    #[test]
    fn routes_intern_and_roundtrip() {
        let archive = sample_archive();
        let routes = vec![
            vec![SegmentId(9), SegmentId(4), SegmentId(9)],
            vec![SegmentId(9)],
        ];
        let blob = encode_snapshot_with_routes(&archive, 1, &routes);
        let snap = ColumnarSnapshot::open(blob).expect("open");
        assert!(snap.header().has_routes());
        // Two distinct segments interned; segment 9 appears 3× → slot 0.
        assert_eq!(read_u32(snap.routes_region(), 0), 2);
        assert_eq!(read_u32(snap.routes_region(), 4), 9);
        for (i, want) in routes.iter().enumerate() {
            let got = snap.trip_route(i).expect("routes present").expect("decode");
            assert_eq!(&got, want);
        }
        // Points are unaffected by the routes section.
        assert_bit_identical(&archive, &snap.decode_archive().expect("decode"));
    }

    #[test]
    fn header_describe_is_stable() {
        let blob = encode_snapshot(&sample_archive(), 2);
        let snap = ColumnarSnapshot::open(blob).expect("open");
        let d = snap.header().describe();
        assert!(d.contains("magic            HRISSNAP"));
        assert!(d.contains("version          1"));
    }

    #[test]
    fn varint_zigzag_edge_cases() {
        for v in [0i64, 1, -1, i64::MAX, i64::MIN, 1 << 40, -(1 << 40)] {
            let mut buf = Vec::new();
            put_varint(&mut buf, zigzag(v));
            let mut pos = 0;
            assert_eq!(unzigzag(get_varint(&buf, &mut pos).unwrap()), v);
            assert_eq!(pos, buf.len());
        }
        let mut pos = 0;
        assert!(get_varint(&[0x80, 0x80], &mut pos).is_err());
    }
}
