//! The provider ↔ silo request/response protocol.
//!
//! One request kind per interaction the paper's algorithms need:
//!
//! | Request | Used by | Paper reference |
//! |---|---|---|
//! | [`Request::Setup`] | setup: index by the shared grid, report memory | Alg. 1, Figs. 3d–9d |
//! | [`Request::BuildGrid`] | setup | Alg. 1 lines 1–3 |
//! | [`Request::Aggregate`] | EXACT, IID-est (±LSR) | Alg. 2 lines 2–3, Alg. 6 |
//! | [`Request::CellContributions`] | NonIID-est (±LSR), MultiSilo-est: range + mode only, the silo classifies the cells itself | Alg. 3 line 3 + remark |
//! | [`Request::HistogramEstimate`] | OPTA baseline | Sec. 8.1 |
//! | [`Request::Ping`] | liveness / failure tests | — |
//! | [`Request::Masked`] | every query path: only `F`'s moments come back | Alg. 2/3 line 3, Sec. 7 |
//! | [`Request::Batch`] | coalesced frames | Alg. 4 |
//!
//! A request names only what the silo's answer needs: `F`'s moments, and
//! for an LSR answer the Lemma-1 level the provider selected
//! ([`LocalMode::Lsr`], one byte) — not the `(ε, δ, sum₀)` Alg. 6 derives
//! it from, so no silo learns the federation's count in the range.
//!
//! Everything here is [`Wire`]-codable; the transport layer only ever sees
//! byte buffers, which is what the communication-cost metric measures.
//! The codec admits only the protocol's own nesting — a `Batch` item is
//! never a `Batch`, a `Masked` wraps one of the three aggregate requests —
//! so a hostile frame is a typed [`WireError`], never a deep recursion.
//! A [`Response::Grid`] carries a [`GridIndex`] in its one codec (shared
//! with both snapshot files), so a grid whose spec cannot carry its cells
//! is a [`WireError`] too, never a panic at the provider.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use fedra_geo::{Range, Rect};
use fedra_index::grid::{GridIndex, GridSpec};
use fedra_index::histogram::MinSkewConfig;
use fedra_index::rtree::RTreeConfig;
use fedra_index::{Aggregate, Moments};

use crate::wire::{decode_nested, decode_seq, len_len, put_len, Wire, WireError, WireResult};

/// How a silo should answer a local range aggregation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LocalMode {
    /// Exact answer from the silo's aggregate R-tree (O(log n)).
    Exact,
    /// Approximate answer from the LSR-Forest (Alg. 6, O(log 1/ε)) on
    /// level `level`, re-scaled by `2^level`. The provider selects the
    /// level by Lemma 1 from `(ε, δ, sum₀)` and sends only the level, so
    /// no silo learns `sum₀`, the federation's count in the range; the
    /// silo clamps it to its own forest (`LsrForest::clamp_level`).
    Lsr {
        /// The Lemma-1 level, at most [`LocalMode::MAX_LSR_LEVEL`].
        level: u8,
    },
}

impl LocalMode {
    /// The deepest level an `Lsr` mode may name: `2^level` must fit a
    /// `u64`. A frame naming a deeper one is refused.
    pub const MAX_LSR_LEVEL: u8 = 63;

    /// The `Lsr` mode at the Lemma-1 `level`, capped at
    /// [`Self::MAX_LSR_LEVEL`] (no forest reaches that deep).
    pub fn lsr(level: usize) -> Self {
        LocalMode::Lsr {
            level: level.min(usize::from(Self::MAX_LSR_LEVEL)) as u8,
        }
    }
}

/// Everything a silo's indexes depend on, as the provider fixes it in
/// Alg. 1: the federation grid (every LSR-Forest level is packed along
/// its cells, the histogram covers its bounds, `BuildGrid` bins by it),
/// the R-tree fanout, the histogram config and this silo's LSR seed.
/// `FederationBuilder::silo_spec` derives it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SiloSpec {
    /// Grid bounds (shared across the federation).
    pub bounds: Rect,
    /// Cell side length `L`.
    pub cell_len: f64,
    /// R-tree fanout for `T_0` and every LSR level.
    pub rtree: RTreeConfig,
    /// MinSkew histogram parameters (OPTA substrate).
    pub histogram: MinSkewConfig,
    /// This silo's seed for the LSR level sampling.
    pub lsr_seed: u64,
}

/// A provider → silo request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Index the partition by the spec (LSR-Forest and histogram) and
    /// answer their [`Response::Memory`] report. An equal spec again is a
    /// no-op; another spec, or a grid too large for one frame, is refused.
    /// Every request but `Ping` is refused until a `Setup` succeeds.
    Setup(SiloSpec),
    /// Build the silo's grid index over the spec it was set up with. With
    /// `return_cells = true` the full cell vector is returned
    /// ([`Response::Grid`]); with `false` only a checksum comes back
    /// ([`Response::GridAck`]) — the warm-start path of
    /// [`crate::snapshot`].
    BuildGrid {
        /// Whether to ship the cell vector back.
        return_cells: bool,
    },
    /// Local range aggregation `Q(s_k, R, F)`; returns one [`Aggregate`].
    Aggregate {
        /// The query range.
        range: Range,
        /// Exact or LSR-approximate execution.
        mode: LocalMode,
    },
    /// Per-grid-cell contributions `res_i^k` of the boundary cells;
    /// returns one [`Aggregate`] per cell of the silo grid's
    /// [`GridIndex::contributing_cells`] for the range and the request's
    /// moments, in classification order. No cell id crosses the wire:
    /// the silo classifies the range against its own grid, which the
    /// provider holds too.
    CellContributions {
        /// The query range.
        range: Range,
        /// Exact or LSR-approximate execution.
        mode: LocalMode,
    },
    /// OPTA: estimate the range aggregate from the silo's local histogram.
    HistogramEstimate {
        /// The query range.
        range: Range,
    },
    /// Liveness probe.
    Ping,
    /// Several requests coalesced into one wire frame: the silo serves
    /// each in order and answers with one [`Response::Batch`] of the same
    /// arity. A batch of `n` requests pays **one** message envelope per
    /// direction instead of `n` — the amortization behind
    /// [`crate::transport::SiloChannel::begin_frame`]. A `Batch` item
    /// that is itself a `Batch` is a wire error (and, built in-process, a
    /// per-item [`Response::Error`]).
    Batch(Vec<Request>),
    /// `request` answered with only `moments`: the silo serves `request`,
    /// then zeroes every other component of every aggregate in the reply,
    /// which the sparse [`Aggregate`] codec then leaves off the wire. It
    /// wraps an `Aggregate`, `CellContributions` or `HistogramEstimate`;
    /// anything else is a wire error. An unwrapped request means all
    /// three moments.
    Masked {
        /// The moments the reply carries.
        moments: Moments,
        /// The request to serve.
        request: Box<Request>,
    },
}

/// Per-index memory usage of one silo, in bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SiloMemoryReport {
    /// Aggregate R-tree (T₀).
    pub rtree: u64,
    /// LSR-Forest levels T₁… (excludes the shared T₀).
    pub lsr_extra: u64,
    /// Silo-side grid index.
    pub grid: u64,
    /// OPTA histogram.
    pub histogram: u64,
}

impl SiloMemoryReport {
    /// Total bytes across all silo indices.
    pub fn total(&self) -> u64 {
        self.rtree + self.lsr_extra + self.grid + self.histogram
    }
}

/// A silo → provider response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The silo's grid index `g_k`, in the one [`GridIndex`] codec of
    /// [`crate::wire`] (bounds, cell length, row-major cells, outside
    /// count): a reply whose cells its spec does not size fails to
    /// decode, so no grid it carries can panic the provider. Boxed: the
    /// setup-only grid would otherwise set the size of every reply.
    Grid(Box<GridIndex>),
    /// Checksum acknowledgement of a local grid build (warm start): the
    /// grid's grand total plus the out-of-bounds count.
    GridAck {
        /// Grand total over all cells.
        total: Aggregate,
        /// Objects outside the grid bounds.
        outside: u64,
    },
    /// A single aggregate answer.
    Agg(Aggregate),
    /// Per-cell aggregate answers (same order as the request's cells).
    AggVec(Vec<Aggregate>),
    /// Memory report.
    Memory(SiloMemoryReport),
    /// Liveness answer.
    Pong,
    /// The silo could not serve the request.
    Error(String),
    /// Answers to a [`Request::Batch`], in request order (one entry per
    /// sub-request; failed sub-requests carry [`Response::Error`]).
    Batch(Vec<Response>),
    /// The silo refused the request *transiently* (overload, flap window,
    /// injected chaos): unlike [`Response::Error`], retrying the same
    /// request against the same silo may succeed. The transport maps this
    /// to [`crate::transport::TransportError::Transient`].
    Transient(String),
    /// The request's deadline had already expired when the silo picked it
    /// up, so the work was shed without being executed. The transport maps
    /// this to [`crate::transport::TransportError::DeadlineExceeded`].
    DeadlineExceeded {
        /// How far past the deadline the request was when shed, in
        /// microseconds (saturating).
        late_by_us: u64,
    },
}

/// Wire tag of [`LocalMode::Lsr`]: the tag, then the level byte. Tag 1
/// was its old layout, which carried `(ε, δ, sum₀)`; it is retired, so a
/// frame from a peer of the other layout is a [`WireError::BadTag`],
/// never a misread level.
const LOCAL_MODE_LSR_TAG: u8 = 2;

impl Wire for LocalMode {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            LocalMode::Exact => buf.put_u8(0),
            LocalMode::Lsr { level } => {
                buf.put_u8(LOCAL_MODE_LSR_TAG);
                buf.put_u8(*level);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated {
                context: "local mode",
            });
        }
        match buf.get_u8() {
            0 => Ok(LocalMode::Exact),
            LOCAL_MODE_LSR_TAG => {
                // The level is read before it is judged: a mode is the
                // last field of every request carrying one, so a refusal
                // leaves the cursor at its item's end (see `decode_riders`).
                let level = u8::decode(buf)?;
                if level > LocalMode::MAX_LSR_LEVEL {
                    return Err(WireError::BadValue {
                        context: "local mode level",
                    });
                }
                Ok(LocalMode::Lsr { level })
            }
            tag => Err(WireError::BadTag {
                context: "local mode",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        match self {
            LocalMode::Exact => 1,
            LocalMode::Lsr { .. } => 2,
        }
    }
}

/// Wire tags of [`Request::Setup`] and [`Request::BuildGrid`]. Tag 0 was
/// `BuildGrid`'s old layout, which carried the grid, and tag 4 the memory
/// report `Setup` now answers: both are retired, so a frame from a peer
/// of the old layout is a [`WireError::BadTag`], never a misread spec.
const REQUEST_SETUP_TAG: u8 = 9;
const REQUEST_BUILD_GRID_TAG: u8 = 10;
/// Wire tag of [`Request::Batch`]. Tag 6 was its layout with a `u32`
/// item count; it is retired, so a frame from a peer of that layout is a
/// [`WireError::BadTag`], never a misread count.
pub(crate) const REQUEST_BATCH_TAG: u8 = 11;
/// Wire tag of [`Request::Masked`].
const REQUEST_MASKED_TAG: u8 = 7;
/// Wire tag of [`Request::CellContributions`]. Tag 2 was its old layout,
/// which listed cell ids; it is retired, so a frame from a peer of the
/// other layout is a [`WireError::BadTag`], never a misread range.
const REQUEST_CELL_CONTRIBUTIONS_TAG: u8 = 8;
/// Wire tags of the requests a [`Request::Masked`] may wrap: `Aggregate`,
/// `CellContributions`, `HistogramEstimate`.
const MASKABLE_TAGS: [u8; 3] = [1, REQUEST_CELL_CONTRIBUTIONS_TAG, 3];
/// Wire tags of the replies that carry a sequence or a string, whose
/// lengths are varints: [`Response::Grid`], [`Response::AggVec`],
/// [`Response::Error`], [`Response::Batch`] and [`Response::Transient`].
/// Their tags in the layout with `u32` lengths (and no cell-vector layout
/// byte) were 0, 2, 5, 7 and 8; those are retired, so a reply from a peer
/// of that layout is a [`WireError::BadTag`], never a misread answer.
const RESPONSE_GRID_TAG: u8 = 10;
const RESPONSE_AGG_VEC_TAG: u8 = 11;
const RESPONSE_ERROR_TAG: u8 = 12;
const RESPONSE_BATCH_TAG: u8 = 13;
const RESPONSE_TRANSIENT_TAG: u8 = 14;

/// The riders of a request frame as a silo serves them (see
/// [`decode_riders`]).
#[derive(Debug, PartialEq)]
pub(crate) enum Riders {
    /// One bare request.
    Lone(Request),
    /// A batch's items, each decoded on its own.
    Batch(Vec<WireResult<Request>>),
}

/// Decodes a request frame the way a silo serves it. A batch item whose
/// bytes parse but whose values leave the served domain
/// ([`WireError::BadValue`]) fails alone, and its frame-mates are still
/// served; structural damage (a bad tag, a truncation, trailing bytes)
/// refuses the whole frame, since nothing marks where the next item would
/// begin. [`Request::from_bytes`] refuses a batch with any bad item.
pub(crate) fn decode_riders(payload: Bytes) -> WireResult<Riders> {
    if payload.first() != Some(&REQUEST_BATCH_TAG) {
        return Request::from_bytes(payload).map(Riders::Lone);
    }
    let mut buf = payload.slice(1..payload.len());
    let items = decode_seq(&mut buf, |buf| {
        match decode_nested(buf, "batch item", |tag| tag != REQUEST_BATCH_TAG) {
            Err(error @ WireError::BadValue { .. }) => Ok(Err(error)),
            item => item.map(Ok),
        }
    })?;
    if !buf.is_empty() {
        return Err(WireError::BadLength {
            context: "trailing bytes",
            len: buf.len(),
        });
    }
    Ok(Riders::Batch(items))
}

/// Encodes a batch request frame straight from borrowed sub-requests —
/// byte-identical to `Request::Batch(requests.to_vec()).to_bytes()` but
/// without cloning the sub-requests, and with the buffer pre-reserved to
/// the exact frame size. This is the transport's batched-send hot path.
pub(crate) fn encode_batch_request(requests: &[&Request]) -> Bytes {
    let len: usize =
        1 + len_len(requests.len()) + requests.iter().map(|r| r.encoded_len()).sum::<usize>();
    let mut buf = BytesMut::with_capacity(len);
    buf.put_u8(REQUEST_BATCH_TAG);
    put_len(&mut buf, requests.len());
    for request in requests {
        request.encode(&mut buf);
    }
    buf.freeze()
}

#[deny(clippy::wildcard_enum_match_arm)]
#[deny(clippy::match_wildcard_for_single_variants)]
impl Wire for Request {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Request::Setup(spec) => {
                buf.put_u8(REQUEST_SETUP_TAG);
                spec.encode(buf);
            }
            Request::BuildGrid { return_cells } => {
                buf.put_u8(REQUEST_BUILD_GRID_TAG);
                return_cells.encode(buf);
            }
            Request::Aggregate { range, mode } => {
                buf.put_u8(1);
                range.encode(buf);
                mode.encode(buf);
            }
            Request::CellContributions { range, mode } => {
                buf.put_u8(REQUEST_CELL_CONTRIBUTIONS_TAG);
                range.encode(buf);
                mode.encode(buf);
            }
            Request::HistogramEstimate { range } => {
                buf.put_u8(3);
                range.encode(buf);
            }
            Request::Ping => buf.put_u8(5),
            Request::Batch(requests) => {
                buf.put_u8(REQUEST_BATCH_TAG);
                requests.encode(buf);
            }
            Request::Masked { moments, request } => {
                buf.put_u8(REQUEST_MASKED_TAG);
                moments.encode(buf);
                request.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated {
                context: "request tag",
            });
        }
        match buf.get_u8() {
            REQUEST_SETUP_TAG => Ok(Request::Setup(SiloSpec::decode(buf)?)),
            REQUEST_BUILD_GRID_TAG => Ok(Request::BuildGrid {
                return_cells: bool::decode(buf)?,
            }),
            1 => Ok(Request::Aggregate {
                range: Range::decode(buf)?,
                mode: LocalMode::decode(buf)?,
            }),
            3 => Ok(Request::HistogramEstimate {
                range: Range::decode(buf)?,
            }),
            5 => Ok(Request::Ping),
            REQUEST_BATCH_TAG => Ok(Request::Batch(decode_seq(buf, |buf| {
                decode_nested(buf, "batch item", |tag| tag != REQUEST_BATCH_TAG)
            })?)),
            REQUEST_MASKED_TAG => Ok(Request::Masked {
                moments: Moments::decode(buf)?,
                request: Box::new(decode_nested(buf, "masked request", |tag| {
                    MASKABLE_TAGS.contains(&tag)
                })?),
            }),
            REQUEST_CELL_CONTRIBUTIONS_TAG => Ok(Request::CellContributions {
                range: Range::decode(buf)?,
                mode: LocalMode::decode(buf)?,
            }),
            tag => Err(WireError::BadTag {
                context: "request",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Request::Setup(spec) => spec.encoded_len(),
            Request::BuildGrid { return_cells } => return_cells.encoded_len(),
            Request::Aggregate { range, mode } | Request::CellContributions { range, mode } => {
                range.encoded_len() + mode.encoded_len()
            }
            Request::HistogramEstimate { range } => range.encoded_len(),
            Request::Ping => 0,
            Request::Batch(requests) => requests.encoded_len(),
            Request::Masked { moments, request } => moments.encoded_len() + request.encoded_len(),
        }
    }
}

impl Wire for SiloSpec {
    fn encode(&self, buf: &mut BytesMut) {
        self.bounds.encode(buf);
        self.cell_len.encode(buf);
        self.rtree.max_entries.encode(buf);
        self.histogram.resolution.encode(buf);
        self.histogram.budget.encode(buf);
        self.lsr_seed.encode(buf);
    }
    /// The one place bytes become a spec, so it refuses every spec a
    /// silo could not index: empty or non-finite bounds or an `L` that is
    /// not positive and finite, an R-tree fanout below 2, a histogram
    /// resolution or budget of 0.
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let spec = SiloSpec {
            bounds: Rect::decode(buf)?,
            cell_len: f64::decode(buf)?,
            rtree: RTreeConfig {
                max_entries: usize::decode(buf)?,
            },
            histogram: MinSkewConfig {
                resolution: u32::decode(buf)?,
                budget: usize::decode(buf)?,
            },
            lsr_seed: u64::decode(buf)?,
        };
        let refuse = |context| Err(WireError::BadValue { context });
        if GridSpec::try_new(spec.bounds, spec.cell_len).is_none() {
            return refuse("silo spec grid");
        }
        if spec.rtree.max_entries < 2 {
            return refuse("silo spec R-tree fanout");
        }
        if spec.histogram.resolution == 0 || spec.histogram.budget == 0 {
            return refuse("silo spec histogram");
        }
        Ok(spec)
    }
    fn encoded_len(&self) -> usize {
        32 + 8 + 8 + 4 + 8 + 8
    }
}

impl Wire for SiloMemoryReport {
    fn encode(&self, buf: &mut BytesMut) {
        self.rtree.encode(buf);
        self.lsr_extra.encode(buf);
        self.grid.encode(buf);
        self.histogram.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        Ok(SiloMemoryReport {
            rtree: u64::decode(buf)?,
            lsr_extra: u64::decode(buf)?,
            grid: u64::decode(buf)?,
            histogram: u64::decode(buf)?,
        })
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

#[deny(clippy::wildcard_enum_match_arm)]
#[deny(clippy::match_wildcard_for_single_variants)]
impl Wire for Response {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Response::Grid(grid) => {
                buf.put_u8(RESPONSE_GRID_TAG);
                grid.encode(buf);
            }
            Response::GridAck { total, outside } => {
                buf.put_u8(6);
                total.encode(buf);
                outside.encode(buf);
            }
            Response::Agg(a) => {
                buf.put_u8(1);
                a.encode(buf);
            }
            Response::AggVec(v) => {
                buf.put_u8(RESPONSE_AGG_VEC_TAG);
                v.encode(buf);
            }
            Response::Memory(m) => {
                buf.put_u8(3);
                m.encode(buf);
            }
            Response::Pong => buf.put_u8(4),
            Response::Error(msg) => {
                buf.put_u8(RESPONSE_ERROR_TAG);
                msg.encode(buf);
            }
            Response::Batch(responses) => {
                buf.put_u8(RESPONSE_BATCH_TAG);
                responses.encode(buf);
            }
            Response::Transient(msg) => {
                buf.put_u8(RESPONSE_TRANSIENT_TAG);
                msg.encode(buf);
            }
            Response::DeadlineExceeded { late_by_us } => {
                buf.put_u8(9);
                late_by_us.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        if buf.remaining() < 1 {
            return Err(WireError::Truncated {
                context: "response tag",
            });
        }
        match buf.get_u8() {
            RESPONSE_GRID_TAG => Ok(Response::Grid(Box::new(GridIndex::decode(buf)?))),
            1 => Ok(Response::Agg(Aggregate::decode(buf)?)),
            RESPONSE_AGG_VEC_TAG => Ok(Response::AggVec(Vec::<Aggregate>::decode(buf)?)),
            3 => Ok(Response::Memory(SiloMemoryReport::decode(buf)?)),
            4 => Ok(Response::Pong),
            RESPONSE_ERROR_TAG => Ok(Response::Error(String::decode(buf)?)),
            6 => Ok(Response::GridAck {
                total: Aggregate::decode(buf)?,
                outside: u64::decode(buf)?,
            }),
            RESPONSE_BATCH_TAG => Ok(Response::Batch(decode_seq(buf, |buf| {
                decode_nested(buf, "batch item", |tag| tag != RESPONSE_BATCH_TAG)
            })?)),
            RESPONSE_TRANSIENT_TAG => Ok(Response::Transient(String::decode(buf)?)),
            9 => Ok(Response::DeadlineExceeded {
                late_by_us: u64::decode(buf)?,
            }),
            tag => Err(WireError::BadTag {
                context: "response",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Response::Grid(grid) => grid.encoded_len(),
            Response::GridAck { total, outside } => total.encoded_len() + outside.encoded_len(),
            Response::Agg(a) => a.encoded_len(),
            Response::AggVec(v) => v.encoded_len(),
            Response::Memory(m) => m.encoded_len(),
            Response::Pong => 0,
            Response::Error(msg) => msg.encoded_len(),
            Response::Batch(responses) => responses.encoded_len(),
            Response::Transient(msg) => msg.encoded_len(),
            Response::DeadlineExceeded { late_by_us } => late_by_us.encoded_len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedra_geo::Point;
    use fedra_index::grid::GridSpec;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        assert_eq!(T::from_bytes(bytes).expect("decode"), value);
    }

    fn setup() -> Request {
        Request::Setup(SiloSpec {
            bounds: Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0)),
            cell_len: 2.5,
            rtree: RTreeConfig::default(),
            histogram: MinSkewConfig::default(),
            lsr_seed: 0x9E37_79B9_7F4A_7C15,
        })
    }

    #[test]
    fn requests_round_trip() {
        round_trip(setup());
        round_trip(Request::BuildGrid { return_cells: true });
        round_trip(Request::BuildGrid {
            return_cells: false,
        });
        round_trip(Request::Aggregate {
            range: Range::circle(Point::new(4.0, 6.0), 3.0),
            mode: LocalMode::Exact,
        });
        round_trip(Request::Aggregate {
            range: Range::rect(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
            mode: LocalMode::Lsr { level: 5 },
        });
        round_trip(Request::CellContributions {
            range: Range::circle(Point::new(4.0, 6.0), 3.0),
            mode: LocalMode::Exact,
        });
        round_trip(Request::HistogramEstimate {
            range: Range::circle(Point::new(4.0, 6.0), 3.0),
        });
        round_trip(Request::Ping);
    }

    /// `CellContributions { range, cells: [1, 5, 9], mode: Exact }` as the
    /// old layout encoded it: tag 2, the range, a u32 length and the ids,
    /// then the mode.
    fn old_layout_cell_request() -> BytesMut {
        let mut buf = BytesMut::new();
        buf.put_u8(2);
        Range::circle(Point::new(4.0, 6.0), 3.0).encode(&mut buf);
        3u32.encode(&mut buf);
        for id in [1u32, 5, 9] {
            id.encode(&mut buf);
        }
        LocalMode::Exact.encode(&mut buf);
        buf
    }

    #[test]
    fn an_lsr_mode_above_the_deepest_level_is_a_typed_error() {
        let request = |level: u8| Request::Aggregate {
            range: Range::circle(Point::new(1.0, 2.0), 3.0),
            mode: LocalMode::Lsr { level },
        };
        let refused = Err(WireError::BadValue {
            context: "local mode level",
        });
        for level in [64, 100, 255] {
            assert_eq!(
                Request::from_bytes(request(level).to_bytes()),
                refused,
                "level {level}"
            );
        }
        // Inside a mask or a batch the refusal is the same: the whole
        // frame is refused, as for any other undecodable item.
        let masked = Request::Masked {
            moments: Moments::COUNT,
            request: Box::new(request(64)),
        };
        assert_eq!(Request::from_bytes(masked.to_bytes()), refused);
        let batch = Request::Batch(vec![Request::Ping, request(255)]);
        assert_eq!(Request::from_bytes(batch.to_bytes()), refused);
        for level in [0, 1, 62, LocalMode::MAX_LSR_LEVEL] {
            round_trip(request(level));
        }
        // The provider's constructor caps the level instead.
        assert_eq!(LocalMode::lsr(7), LocalMode::Lsr { level: 7 });
        assert_eq!(LocalMode::lsr(usize::MAX), LocalMode::Lsr { level: 63 });
    }

    #[test]
    fn an_lsr_mode_in_the_old_epsilon_delta_layout_is_a_typed_error() {
        // `Aggregate { range, Lsr { ε, δ, sum₀ } }` as the old layout
        // encoded it: mode tag 1, then three f64s.
        let mut old = BytesMut::new();
        old.put_u8(1);
        Range::circle(Point::new(1.0, 2.0), 3.0).encode(&mut old);
        old.put_u8(1);
        for value in [0.1f64, 0.01, 40.0] {
            value.encode(&mut old);
        }
        assert_eq!(
            Request::from_bytes(old.freeze()),
            Err(WireError::BadTag {
                context: "local mode",
                tag: 1
            })
        );
    }

    #[test]
    fn a_served_batch_refuses_an_out_of_domain_item_alone_and_damage_whole() {
        let lsr = |level| Request::Masked {
            moments: Moments::COUNT,
            request: Box::new(Request::CellContributions {
                range: Range::circle(Point::new(1.0, 2.0), 3.0),
                mode: LocalMode::Lsr { level },
            }),
        };
        let bad_level = WireError::BadValue {
            context: "local mode level",
        };
        let batch = Request::Batch(vec![Request::Ping, lsr(64), lsr(255), lsr(3)]);
        assert_eq!(
            decode_riders(batch.to_bytes()),
            Ok(Riders::Batch(vec![
                Ok(Request::Ping),
                Err(bad_level.clone()),
                Err(bad_level.clone()),
                Ok(lsr(3)),
            ]))
        );
        // A lone request is the request, refused whole when it is bad.
        assert_eq!(
            decode_riders(Request::Ping.to_bytes()),
            Ok(Riders::Lone(Request::Ping))
        );
        assert_eq!(decode_riders(lsr(200).to_bytes()), Err(bad_level));
        // Structural damage cannot be stepped over: a bad item tag, a cut
        // and trailing bytes each refuse the whole frame.
        let good = Request::Batch(vec![
            Request::Ping,
            Request::BuildGrid { return_cells: true },
        ])
        .to_bytes();
        let mut bad_tag = good.to_vec();
        bad_tag[2] = 0xEE; // the first item's tag, past the batch tag and count
        assert!(matches!(
            decode_riders(Bytes::from(bad_tag)),
            Err(WireError::BadTag { .. })
        ));
        let long = Request::Batch(vec![Request::Ping, lsr(3)]).to_bytes();
        let cut = long.slice(0..long.len() - 3);
        assert!(matches!(
            decode_riders(cut),
            Err(WireError::Truncated { .. })
        ));
        let mut trailing = good.to_vec();
        trailing.push(5);
        assert_eq!(
            decode_riders(Bytes::from(trailing)),
            Err(WireError::BadLength {
                context: "trailing bytes",
                len: 1
            })
        );
    }

    #[test]
    fn a_cell_request_in_the_old_layout_is_a_typed_error() {
        let old = old_layout_cell_request();
        assert_eq!(
            Request::from_bytes(old.clone().freeze()),
            Err(WireError::BadTag {
                context: "request",
                tag: 2
            })
        );
        let mut masked = BytesMut::new();
        masked.put_u8(REQUEST_MASKED_TAG);
        masked.put_u8(Moments::COUNT.bits());
        masked.extend_from_slice(&old);
        assert_eq!(
            Request::from_bytes(masked.freeze()),
            Err(WireError::BadTag {
                context: "masked request",
                tag: 2
            })
        );
        let mut batch = BytesMut::new();
        batch.put_u8(REQUEST_BATCH_TAG);
        put_len(&mut batch, 1);
        batch.extend_from_slice(&old);
        assert_eq!(
            Request::from_bytes(batch.freeze()),
            Err(WireError::BadTag {
                context: "request",
                tag: 2
            })
        );
    }

    #[test]
    fn responses_round_trip() {
        round_trip(Response::Grid(Box::new(sample_grid())));
        round_trip(Response::Agg(Aggregate {
            count: 4.0,
            sum: 4.0,
            sum_sqr: 4.0,
        }));
        round_trip(Response::AggVec(vec![
            Aggregate::ZERO,
            Aggregate {
                count: 1.0,
                sum: 7.0,
                sum_sqr: 49.0,
            },
        ]));
        round_trip(Response::Memory(SiloMemoryReport {
            rtree: 100,
            lsr_extra: 90,
            grid: 10,
            histogram: 5,
        }));
        round_trip(Response::Pong);
        round_trip(Response::Error("silo unavailable".to_string()));
        round_trip(Response::Transient("flap window".to_string()));
        round_trip(Response::Transient(String::new()));
        round_trip(Response::DeadlineExceeded { late_by_us: 0 });
        round_trip(Response::DeadlineExceeded {
            late_by_us: u64::MAX,
        });
        round_trip(Response::GridAck {
            total: Aggregate {
                count: 5.0,
                sum: 9.0,
                sum_sqr: 21.0,
            },
            outside: 1,
        });
    }

    /// A 4 × 4 grid over a 10 km box at `L = 2.5`, one cell holding an
    /// object, three objects outside.
    fn sample_grid() -> GridIndex {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let spec = GridSpec::new(bounds, 2.5);
        let mut cells = vec![Aggregate::ZERO; spec.num_cells()];
        cells[0] = Aggregate {
            count: 1.0,
            sum: 7.0,
            sum_sqr: 49.0,
        };
        GridIndex::from_parts(spec, cells, 3)
    }

    #[test]
    fn grid_response_reconstructs_index() {
        let bytes = Response::Grid(Box::new(sample_grid())).to_bytes();
        let Ok(Response::Grid(g)) = Response::from_bytes(bytes) else {
            panic!("a grid reply decodes to a grid");
        };
        assert_eq!(g.cell(0).sum, 7.0);
        assert_eq!(g.total().count, 1.0);
        assert_eq!(g.outside_count(), 3);
    }

    #[test]
    fn a_grid_reply_its_spec_cannot_carry_is_a_wire_error() {
        let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
        let bad_spec = Err(WireError::BadValue {
            context: "grid spec",
        });
        let rows = [
            (bounds, -1.0, 16, bad_spec.clone()),
            (bounds, 0.0, 16, bad_spec.clone()),
            (bounds, f64::NAN, 16, bad_spec.clone()),
            (bounds, f64::INFINITY, 1, bad_spec.clone()),
            (Rect::EMPTY, 2.5, 16, bad_spec),
            (
                bounds,
                2.5,
                15,
                Err(WireError::BadLength {
                    context: "grid cells",
                    len: 15,
                }),
            ),
            (
                bounds,
                1e-9,
                0,
                Err(WireError::BadLength {
                    context: "grid cells",
                    len: 0,
                }),
            ),
        ];
        for (bounds, cell_len, cells, expected) in rows {
            let mut frame = BytesMut::new();
            frame.put_u8(RESPONSE_GRID_TAG);
            bounds.encode(&mut frame);
            cell_len.encode(&mut frame);
            vec![Aggregate::ZERO; cells].encode(&mut frame);
            0u64.encode(&mut frame);
            assert_eq!(
                Response::from_bytes(frame.freeze()),
                expected,
                "L = {cell_len}, {cells} cells"
            );
        }
    }

    #[test]
    fn memory_report_totals() {
        let m = SiloMemoryReport {
            rtree: 1,
            lsr_extra: 2,
            grid: 3,
            histogram: 4,
        };
        assert_eq!(m.total(), 10);
    }

    #[test]
    fn batch_frames_round_trip() {
        round_trip(Request::Batch(vec![]));
        round_trip(Request::Batch(vec![
            Request::Ping,
            Request::Aggregate {
                range: Range::circle(Point::new(4.0, 6.0), 3.0),
                mode: LocalMode::Exact,
            },
            Request::CellContributions {
                range: Range::rect(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
                mode: LocalMode::Lsr { level: 0 },
            },
            setup(),
        ]));
        round_trip(Response::Batch(vec![]));
        round_trip(Response::Batch(vec![
            Response::Pong,
            Response::Agg(Aggregate::ZERO),
            Response::AggVec(vec![Aggregate::ZERO; 3]),
            Response::Error("silo 1 unavailable".to_string()),
            Response::Transient("silo 1 flapping".to_string()),
            Response::DeadlineExceeded { late_by_us: 42 },
        ]));
        // A masked request rides a batch like any other item.
        round_trip(Request::Batch(vec![masked(0b011), Request::Ping]));
        // A batch inside a batch is not: the codec refuses it.
        let nested = Request::Batch(vec![Request::Batch(vec![Request::Ping])]).to_bytes();
        assert_eq!(
            Request::from_bytes(nested),
            Err(WireError::BadTag {
                context: "batch item",
                tag: REQUEST_BATCH_TAG
            })
        );
        let nested = Response::Batch(vec![Response::Batch(vec![Response::Pong])]).to_bytes();
        assert_eq!(
            Response::from_bytes(nested),
            Err(WireError::BadTag {
                context: "batch item",
                tag: RESPONSE_BATCH_TAG
            })
        );
    }

    fn masked(bits: u8) -> Request {
        Request::Masked {
            moments: Moments::from_bits(bits).expect("three moments"),
            request: Box::new(Request::Aggregate {
                range: Range::circle(Point::new(4.0, 6.0), 3.0),
                mode: LocalMode::Exact,
            }),
        }
    }

    #[test]
    fn masked_requests_round_trip_and_wrap_only_the_aggregate_requests() {
        for bits in 0..=0b111 {
            round_trip(masked(bits));
        }
        round_trip(Request::Masked {
            moments: Moments::COUNT,
            request: Box::new(Request::CellContributions {
                range: Range::circle(Point::new(4.0, 6.0), 3.0),
                mode: LocalMode::Exact,
            }),
        });
        round_trip(Request::Masked {
            moments: Moments::SUM,
            request: Box::new(Request::HistogramEstimate {
                range: Range::circle(Point::new(4.0, 6.0), 3.0),
            }),
        });
        // Tag + mask byte + the inner request's own bytes.
        let inner = Request::Aggregate {
            range: Range::circle(Point::new(4.0, 6.0), 3.0),
            mode: LocalMode::Exact,
        };
        assert_eq!(masked(0b001).to_bytes().len(), 2 + inner.to_bytes().len());
        for inner in [
            Request::Ping,
            setup(),
            Request::Batch(vec![]),
            masked(0b001),
        ] {
            let tag = inner.to_bytes()[0];
            let frame = Request::Masked {
                moments: Moments::ALL,
                request: Box::new(inner),
            }
            .to_bytes();
            assert_eq!(
                Request::from_bytes(frame),
                Err(WireError::BadTag {
                    context: "masked request",
                    tag
                })
            );
        }
        let mut bad_mask = masked(0b001).to_bytes().to_vec();
        bad_mask[1] = 0b1000;
        assert_eq!(
            Request::from_bytes(Bytes::from(bad_mask)),
            Err(WireError::BadTag {
                context: "moments",
                tag: 0b1000
            })
        );
    }

    /// `header` repeated `depth` times, then `leaf`.
    fn chain(header: &[u8], depth: usize, leaf: &[u8]) -> Bytes {
        let mut frame = Vec::with_capacity(header.len() * depth + leaf.len());
        for _ in 0..depth {
            frame.extend_from_slice(header);
        }
        frame.extend_from_slice(leaf);
        Bytes::from(frame)
    }

    #[test]
    fn a_million_nested_headers_are_a_typed_error_not_a_stack_overflow() {
        const DEPTH: usize = 1_000_000;
        // Batch-of-one headers (the tag, a one-byte count), each wrapping
        // the next, then a Ping.
        let batches = chain(&[REQUEST_BATCH_TAG, 1], DEPTH, &[5]);
        assert_eq!(
            Request::from_bytes(batches),
            Err(WireError::BadTag {
                context: "batch item",
                tag: REQUEST_BATCH_TAG
            })
        );
        // The same on the reply path, ending in a Pong.
        let batches = chain(&[RESPONSE_BATCH_TAG, 1], DEPTH, &[4]);
        assert_eq!(
            Response::from_bytes(batches),
            Err(WireError::BadTag {
                context: "batch item",
                tag: RESPONSE_BATCH_TAG
            })
        );
        // Masks wrapping masks, ending in a real aggregate request.
        let leaf = Request::Aggregate {
            range: Range::circle(Point::new(4.0, 6.0), 3.0),
            mode: LocalMode::Exact,
        }
        .to_bytes();
        let masks = chain(&[REQUEST_MASKED_TAG, 0b111], DEPTH, &leaf);
        assert_eq!(
            Request::from_bytes(masks),
            Err(WireError::BadTag {
                context: "masked request",
                tag: REQUEST_MASKED_TAG
            })
        );
    }

    #[test]
    fn truncated_batch_frames_error() {
        let frame = Request::Batch(vec![
            Request::Ping,
            Request::Aggregate {
                range: Range::circle(Point::new(4.0, 6.0), 3.0),
                mode: LocalMode::Exact,
            },
        ])
        .to_bytes();
        for cut in 1..frame.len() {
            assert!(
                Request::from_bytes(frame.slice(0..frame.len() - cut)).is_err(),
                "cutting {cut} bytes must not decode"
            );
        }
    }

    /// Decodes `old` — bytes of a retired layout — as a request or a
    /// reply (`reply`) and expects the refusal of its retired `tag`.
    fn assert_retired(old: BytesMut, reply: bool, tag: u8) {
        let context = if reply { "response" } else { "request" };
        let decoded = if reply {
            Response::from_bytes(old.freeze()).map(|_| ())
        } else {
            Request::from_bytes(old.freeze()).map(|_| ())
        };
        assert_eq!(decoded, Err(WireError::BadTag { context, tag }));
    }

    /// `cells` in the cell-vector layout with a `u32` count and no layout
    /// byte: the count, then every cell's sparse bytes.
    fn u32_counted_cells(cells: &[Aggregate], buf: &mut BytesMut) {
        (cells.len() as u32).encode(buf);
        cells.iter().for_each(|a| a.encode(buf));
    }

    /// `s` behind a `u32` byte count, as `Error` and `Transient` carried it.
    fn u32_counted_string(s: &str, buf: &mut BytesMut) {
        (s.len() as u32).encode(buf);
        buf.put_slice(s.as_bytes());
    }

    #[test]
    fn a_batch_request_with_a_u32_count_is_a_typed_error() {
        // Tag 6, a u32 count of 2, then a Ping and a masked request.
        let mut old = BytesMut::new();
        old.put_u8(6);
        2u32.encode(&mut old);
        Request::Ping.encode(&mut old);
        masked(0b001).encode(&mut old);
        assert_retired(old, false, 6);
    }

    #[test]
    fn a_grid_reply_with_u32_counted_cells_is_a_typed_error() {
        let grid = sample_grid();
        let mut old = BytesMut::new();
        old.put_u8(0);
        grid.spec().bounds().encode(&mut old);
        grid.spec().cell_len().encode(&mut old);
        u32_counted_cells(grid.cells(), &mut old);
        grid.outside_count().encode(&mut old);
        assert_retired(old, true, 0);
    }

    #[test]
    fn a_cell_reply_with_u32_counted_cells_is_a_typed_error() {
        let mut old = BytesMut::new();
        old.put_u8(2);
        u32_counted_cells(&[Aggregate::ZERO, *sample_grid().cell(0)], &mut old);
        assert_retired(old, true, 2);
    }

    #[test]
    fn an_error_reply_with_a_u32_length_is_a_typed_error() {
        let mut old = BytesMut::new();
        old.put_u8(5);
        u32_counted_string("silo unavailable", &mut old);
        assert_retired(old, true, 5);
    }

    #[test]
    fn a_batch_reply_with_a_u32_count_is_a_typed_error() {
        // Tag 7, a u32 count of 2, then a Pong and an Agg reply.
        let mut old = BytesMut::new();
        old.put_u8(7);
        2u32.encode(&mut old);
        Response::Pong.encode(&mut old);
        Response::Agg(*sample_grid().cell(0)).encode(&mut old);
        assert_retired(old, true, 7);
    }

    #[test]
    fn a_transient_reply_with_a_u32_length_is_a_typed_error() {
        let mut old = BytesMut::new();
        old.put_u8(8);
        u32_counted_string("flap window", &mut old);
        assert_retired(old, true, 8);
    }

    #[test]
    fn bad_tags_error() {
        // One past the Batch request tag, and the retired tags of the old
        // BuildGrid, CellContributions, MemoryReport and Batch layouts.
        for tag in [REQUEST_BATCH_TAG + 1, 0, 2, 4, 6] {
            assert_eq!(
                Request::from_bytes(Bytes::from(vec![tag, 0, 0, 0, 0])),
                Err(WireError::BadTag {
                    context: "request",
                    tag
                })
            );
        }
        // One past the Transient response tag, and the retired tags of the
        // layouts with `u32` lengths.
        for tag in [RESPONSE_TRANSIENT_TAG + 1, 0, 2, 5, 7, 8] {
            assert_eq!(
                Response::from_bytes(Bytes::from(vec![tag, 0, 0, 0, 0])),
                Err(WireError::BadTag {
                    context: "response",
                    tag
                })
            );
        }
        // A batch whose *item* carries a bad tag also errors.
        let mut buf = BytesMut::new();
        buf.put_u8(super::REQUEST_BATCH_TAG);
        put_len(&mut buf, 1);
        buf.put_u8(200);
        assert!(matches!(
            Request::from_bytes(buf.freeze()),
            Err(WireError::BadTag {
                context: "request",
                tag: 200
            })
        ));
    }

    #[test]
    fn encoded_len_is_exact_for_protocol_frames() {
        let requests = vec![
            setup(),
            Request::BuildGrid { return_cells: true },
            Request::Aggregate {
                range: Range::circle(Point::new(4.0, 6.0), 3.0),
                mode: LocalMode::Lsr { level: 63 },
            },
            Request::CellContributions {
                range: Range::rect(Point::new(0.0, 0.0), Point::new(1.0, 1.0)),
                mode: LocalMode::Exact,
            },
            Request::HistogramEstimate {
                range: Range::circle(Point::new(4.0, 6.0), 3.0),
            },
            Request::Ping,
            masked(0b101),
        ];
        for r in &requests {
            assert_eq!(r.encoded_len(), r.to_bytes().len(), "{r:?}");
        }
        let batch = Request::Batch(requests);
        assert_eq!(batch.encoded_len(), batch.to_bytes().len());
        let responses = vec![
            Response::Grid(Box::new(sample_grid())),
            Response::GridAck {
                total: Aggregate::ZERO,
                outside: 0,
            },
            Response::Agg(Aggregate::ZERO),
            Response::AggVec(vec![
                Aggregate::ZERO,
                Aggregate {
                    count: 2.0,
                    sum_sqr: -0.0,
                    ..Aggregate::ZERO
                },
            ]),
            Response::Memory(SiloMemoryReport::default()),
            Response::Pong,
            Response::Error("boom".to_string()),
            Response::Transient("try again".to_string()),
            Response::DeadlineExceeded { late_by_us: 1234 },
        ];
        for r in &responses {
            assert_eq!(r.encoded_len(), r.to_bytes().len(), "{r:?}");
        }
        let batch = Response::Batch(responses);
        assert_eq!(batch.encoded_len(), batch.to_bytes().len());
    }

    #[test]
    fn borrowed_batch_encoding_matches_owned() {
        let a = Request::Ping;
        let b = Request::Aggregate {
            range: Range::circle(Point::new(1.0, 2.0), 3.0),
            mode: LocalMode::Exact,
        };
        let borrowed = super::encode_batch_request(&[&a, &b]);
        let owned = Request::Batch(vec![a, b]).to_bytes();
        assert_eq!(borrowed.to_vec(), owned.to_vec());
    }

    #[test]
    fn request_sizes_reflect_payload() {
        // A NonIID cell-contribution request costs what an aggregate
        // request does — tag, range, mode — whatever the boundary: the
        // O(√|g₀|) communication term is the reply's alone.
        let range = Range::circle(Point::new(0.0, 0.0), 1.0);
        let cells = Request::CellContributions {
            range,
            mode: LocalMode::Exact,
        };
        let aggregate = Request::Aggregate {
            range,
            mode: LocalMode::Exact,
        };
        assert_eq!(cells.to_bytes().len(), aggregate.to_bytes().len());
        assert_eq!(cells.to_bytes().len(), 1 + 25 + 1);
    }
}
