//! Binary wire format for provider ↔ silo messages.
//!
//! The paper's communication-cost metric counts what actually crosses the
//! network between the service provider and the data silos. To measure it
//! honestly, every message in `fedra` — even though silos run as threads in
//! the same process — is serialized to a byte buffer with this codec and
//! the buffer's length is what the metrics record. The format is a simple
//! tagged little-endian layout: fixed-width scalars, `u32` length-prefixed
//! sequences, one tag byte per enum variant. The one variable-width value
//! is [`Aggregate`]: a presence byte, then only its non-zero components,
//! so a moment the request masked off (or an empty cell) costs nothing
//! past that byte — in query replies, `Grid` setup frames and snapshots
//! alike. A [`GridIndex`] has one codec, shared by the `Grid` reply and
//! both snapshot files, and its decoder is the one place untrusted bytes
//! become a grid.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use fedra_geo::{Circle, Point, Range, Rect};
use fedra_index::grid::{GridIndex, GridSpec};
use fedra_index::{Aggregate, Moments};

/// Errors raised while decoding a wire buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated {
        /// What was being decoded.
        context: &'static str,
    },
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A length prefix was implausibly large for the remaining buffer.
    BadLength {
        /// What was being decoded.
        context: &'static str,
        /// The claimed element count.
        len: usize,
    },
    /// A well-formed value outside its domain (an ε that is not positive,
    /// a δ that is not a probability).
    BadValue {
        /// What was being decoded.
        context: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { context } => {
                write!(f, "truncated buffer while decoding {context}")
            }
            WireError::BadTag { context, tag } => {
                write!(f, "unknown tag {tag} while decoding {context}")
            }
            WireError::BadLength { context, len } => {
                write!(f, "implausible length {len} while decoding {context}")
            }
            WireError::BadValue { context } => {
                write!(f, "value out of its domain while decoding {context}")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Result alias for decode operations.
pub type WireResult<T> = Result<T, WireError>;

/// Types that can be written to / read from the wire.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decodes a value, advancing `buf` past it.
    fn decode(buf: &mut Bytes) -> WireResult<Self>;

    /// Exact number of bytes [`Wire::encode`] will append for `self`.
    ///
    /// Used by [`Wire::to_bytes`] to reserve the full buffer up front, so
    /// the RPC hot path encodes every frame with a single allocation and
    /// no growth copies.
    fn encoded_len(&self) -> usize;

    /// Convenience: encodes into a fresh buffer sized exactly by
    /// [`Wire::encoded_len`].
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Convenience: decodes from a whole buffer, requiring full consumption.
    fn from_bytes(mut bytes: Bytes) -> WireResult<Self> {
        let v = Self::decode(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(WireError::BadLength {
                context: "trailing bytes",
                len: bytes.len(),
            });
        }
        Ok(v)
    }
}

#[inline]
fn need(buf: &Bytes, n: usize, context: &'static str) -> WireResult<()> {
    if buf.remaining() < n {
        Err(WireError::Truncated { context })
    } else {
        Ok(())
    }
}

impl Wire for u8 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        need(buf, 1, "u8")?;
        Ok(buf.get_u8())
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u32_le(*self);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        need(buf, 4, "u32")?;
        Ok(buf.get_u32_le())
    }
    fn encoded_len(&self) -> usize {
        4
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        need(buf, 8, "u64")?;
        Ok(buf.get_u64_le())
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for usize {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u64_le(*self as u64);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        need(buf, 8, "usize")?;
        Ok(buf.get_u64_le() as usize)
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for f64 {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_f64_le(*self);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        need(buf, 8, "f64")?;
        Ok(buf.get_f64_le())
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        need(buf, 1, "bool")?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag {
                context: "bool",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u32).encode(buf);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let len = u32::decode(buf)? as usize;
        need(buf, len, "string body")?;
        let raw = buf.split_to(len);
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadTag {
            context: "string utf-8",
            tag: 0,
        })
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        encode_seq(self, buf);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        decode_seq(buf, T::decode)
    }
    fn encoded_len(&self) -> usize {
        seq_len(self)
    }
}

/// Appends `items` in the `Vec<T>` layout: a `u32` count, then each item.
fn encode_seq<T: Wire>(items: &[T], buf: &mut BytesMut) {
    (items.len() as u32).encode(buf);
    for item in items {
        item.encode(buf);
    }
}

/// Exact number of bytes [`encode_seq`] appends for `items`.
fn seq_len<T: Wire>(items: &[T]) -> usize {
    4 + items.iter().map(Wire::encoded_len).sum::<usize>()
}

/// Decodes a `u32`-prefixed sequence whose items `item` decodes — the
/// `Vec<T>` layout, for items that need more than `T::decode` (a batch
/// item that may not be a batch).
pub(crate) fn decode_seq<T>(
    buf: &mut Bytes,
    mut item: impl FnMut(&mut Bytes) -> WireResult<T>,
) -> WireResult<Vec<T>> {
    let len = u32::decode(buf)? as usize;
    // Each element takes at least one byte; reject absurd prefixes
    // before allocating.
    if len > buf.remaining() {
        return Err(WireError::BadLength {
            context: "vec",
            len,
        });
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(item(buf)?);
    }
    Ok(out)
}

/// Consumes a persisted format's 8-byte `magic`, or refuses the buffer:
/// a file written in an older layout (whose first bytes are a bounds
/// coordinate) must never decode as different numbers.
pub(crate) fn expect_magic(
    buf: &mut Bytes,
    magic: &[u8; 8],
    context: &'static str,
) -> WireResult<()> {
    need(buf, magic.len(), context)?;
    if !buf.starts_with(magic) {
        return Err(WireError::BadTag {
            context,
            tag: buf[0],
        });
    }
    buf.advance(magic.len());
    Ok(())
}

/// Decodes one `T` nested in a larger message, refusing before it
/// recurses any tag `allowed` rejects — so a hostile frame cannot nest
/// deeper than the protocol's shapes, however long it is.
pub(crate) fn decode_nested<T: Wire>(
    buf: &mut Bytes,
    context: &'static str,
    allowed: impl Fn(u8) -> bool,
) -> WireResult<T> {
    match buf.first() {
        None => Err(WireError::Truncated { context }),
        Some(&tag) if !allowed(tag) => Err(WireError::BadTag { context, tag }),
        Some(_) => T::decode(buf),
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        need(buf, 1, "option tag")?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            tag => Err(WireError::BadTag {
                context: "option",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
}

impl Wire for Point {
    fn encode(&self, buf: &mut BytesMut) {
        self.x.encode(buf);
        self.y.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        Ok(Point::new(f64::decode(buf)?, f64::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        16
    }
}

impl Wire for Rect {
    fn encode(&self, buf: &mut BytesMut) {
        self.min.encode(buf);
        self.max.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        Ok(Rect::from_corners(Point::decode(buf)?, Point::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        32
    }
}

impl Wire for Circle {
    fn encode(&self, buf: &mut BytesMut) {
        self.center.encode(buf);
        self.radius.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        Ok(Circle::new(Point::decode(buf)?, f64::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        24
    }
}

impl Wire for Range {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            Range::Circle(c) => {
                buf.put_u8(0);
                c.encode(buf);
            }
            Range::Rect(r) => {
                buf.put_u8(1);
                r.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        need(buf, 1, "range tag")?;
        match buf.get_u8() {
            0 => Ok(Range::Circle(Circle::decode(buf)?)),
            1 => Ok(Range::Rect(Rect::decode(buf)?)),
            tag => Err(WireError::BadTag {
                context: "range",
                tag,
            }),
        }
    }
    fn encoded_len(&self) -> usize {
        1 + match self {
            Range::Circle(c) => c.encoded_len(),
            Range::Rect(r) => r.encoded_len(),
        }
    }
}

impl Wire for Moments {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.bits());
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        need(buf, 1, "moments")?;
        let tag = buf.get_u8();
        Moments::from_bits(tag).ok_or(WireError::BadTag {
            context: "moments",
            tag,
        })
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

/// `a`'s components in wire order, each with its [`Moments`] bit.
fn components(a: &Aggregate) -> [(Moments, f64); 3] {
    [
        (Moments::COUNT, a.count),
        (Moments::SUM, a.sum),
        (Moments::SUM_SQR, a.sum_sqr),
    ]
}

/// The components of `a` whose bits are not all zero — a `+0.0`
/// component is left off the wire and decodes back to `+0.0`; `-0.0` and
/// NaN travel.
fn present(a: &Aggregate) -> Moments {
    components(a)
        .into_iter()
        .filter(|(_, v)| v.to_bits() != 0)
        .fold(Moments::NONE, |acc, (moment, _)| acc | moment)
}

/// Sparse: a presence byte ([`Moments`] bits), then only the present
/// components in `count, sum, sum_sqr` order — 1 to 25 bytes, bit-exact.
impl Wire for Aggregate {
    fn encode(&self, buf: &mut BytesMut) {
        let present = present(self);
        present.encode(buf);
        for (moment, v) in components(self) {
            if present.contains(moment) {
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let present = Moments::decode(buf)?;
        let mut component = |moment| {
            if present.contains(moment) {
                f64::decode(buf)
            } else {
                Ok(0.0)
            }
        };
        Ok(Aggregate {
            count: component(Moments::COUNT)?,
            sum: component(Moments::SUM)?,
            sum_sqr: component(Moments::SUM_SQR)?,
        })
    }
    fn encoded_len(&self) -> usize {
        1 + 8 * present(self).bits().count_ones() as usize
    }
}

/// A grid as Alg. 1 ships it: bounds, `L`, the row-major cells, the
/// outside count. The decoder refuses, with a typed error and before it
/// builds anything, what [`GridSpec::new`] or [`GridIndex::from_parts`]
/// would panic on: empty bounds, an `L` that is not positive and finite,
/// and a cell vector the spec does not size.
impl Wire for GridIndex {
    fn encode(&self, buf: &mut BytesMut) {
        self.spec().bounds().encode(buf);
        self.spec().cell_len().encode(buf);
        encode_seq(self.cells(), buf);
        self.outside_count().encode(buf);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let (bounds, cell_len) = (Rect::decode(buf)?, f64::decode(buf)?);
        let spec = GridSpec::try_new(bounds, cell_len).ok_or(WireError::BadValue {
            context: "grid spec",
        })?;
        let cells = Vec::<Aggregate>::decode(buf)?;
        if cells.len() != spec.num_cells() {
            return Err(WireError::BadLength {
                context: "grid cells",
                len: cells.len(),
            });
        }
        Ok(GridIndex::from_parts(spec, cells, u64::decode(buf)?))
    }
    fn encoded_len(&self) -> usize {
        32 + 8 + seq_len(self.cells()) + 8
    }
}

/// FNV-1a digest of `bytes` — the checksum of every socket frame's
/// payload and of every snapshot file. Cheap, deterministic, and more
/// than enough to catch the byte flips a chaos proxy, a flaky link or a
/// torn write leaves. Not cryptographic; the threat model is corruption,
/// not forgery.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |hash, &b| {
        (hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Wire + PartialEq + std::fmt::Debug>(value: T) {
        let bytes = value.to_bytes();
        let back = T::from_bytes(bytes).expect("decode");
        assert_eq!(back, value);
    }

    #[test]
    fn scalars_round_trip() {
        round_trip(0u8);
        round_trip(255u8);
        round_trip(123456u32);
        round_trip(u64::MAX);
        round_trip(1234.5678f64);
        round_trip(f64::NEG_INFINITY);
        round_trip(true);
        round_trip(false);
        round_trip(usize::MAX);
    }

    #[test]
    fn strings_round_trip() {
        round_trip(String::new());
        round_trip("silo unavailable: retry".to_string());
        round_trip("日本語 ünïcode".to_string());
    }

    #[test]
    fn collections_round_trip() {
        round_trip(Vec::<u32>::new());
        round_trip(vec![1u32, 2, 3]);
        round_trip(vec![Aggregate::ZERO; 4]);
        round_trip(Option::<f64>::None);
        round_trip(Some(2.5f64));
    }

    #[test]
    fn geometry_round_trips() {
        round_trip(Point::new(1.5, -2.5));
        round_trip(Rect::new(Point::new(0.0, 0.0), Point::new(3.0, 4.0)));
        round_trip(Circle::new(Point::new(4.0, 6.0), 3.0));
        round_trip(Range::circle(Point::new(4.0, 6.0), 3.0));
        round_trip(Range::rect(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
    }

    #[test]
    fn aggregate_round_trips() {
        round_trip(Aggregate {
            count: 10.0,
            sum: -3.5,
            sum_sqr: 99.25,
        });
    }

    #[test]
    fn sparse_aggregates_are_bit_exact_and_pay_only_for_what_is_present() {
        let bits = |a: &Aggregate| (a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits());
        let cases = [
            // (aggregate, encoded length): presence byte + 8 per component
            // whose bits are not all zero.
            (Aggregate::ZERO, 1),
            (
                Aggregate {
                    count: 3.0,
                    ..Aggregate::ZERO
                },
                1 + 8,
            ),
            (
                Aggregate {
                    sum: -0.0,
                    ..Aggregate::ZERO
                },
                1 + 8,
            ),
            (
                Aggregate {
                    count: f64::NAN,
                    sum_sqr: 5e-324,
                    ..Aggregate::ZERO
                },
                1 + 16,
            ),
            (
                Aggregate {
                    count: 1.0,
                    sum: 2.0,
                    sum_sqr: 4.0,
                },
                1 + 24,
            ),
        ];
        for (a, len) in cases {
            let bytes = a.to_bytes();
            assert_eq!(bytes.len(), len, "{a:?}");
            assert_eq!(a.encoded_len(), len, "{a:?}");
            let back = Aggregate::from_bytes(bytes).expect("decode");
            assert_eq!(bits(&back), bits(&a), "{a:?}");
        }
    }

    #[test]
    fn a_presence_byte_above_the_three_moments_is_a_bad_tag() {
        for tag in [0b1000u8, 0xFF] {
            let mut buf = BytesMut::new();
            buf.put_u8(tag);
            buf.put_slice(&[0; 24]);
            assert_eq!(
                Aggregate::from_bytes(buf.freeze()),
                Err(WireError::BadTag {
                    context: "moments",
                    tag
                })
            );
        }
    }

    #[test]
    fn truncated_buffers_error() {
        let bytes = Point::new(1.0, 2.0).to_bytes();
        let short = bytes.slice(0..bytes.len() - 1);
        assert!(matches!(
            Point::from_bytes(short),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_error() {
        let mut buf = BytesMut::new();
        1.0f64.encode(&mut buf);
        2.0f64.encode(&mut buf);
        buf.put_u8(0xFF);
        assert!(matches!(
            Point::from_bytes(buf.freeze()),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn bad_enum_tags_error() {
        let mut buf = BytesMut::new();
        buf.put_u8(9);
        assert!(matches!(
            Range::from_bytes(buf.freeze()),
            Err(WireError::BadTag {
                context: "range",
                tag: 9
            })
        ));
    }

    #[test]
    fn absurd_vec_length_is_rejected_before_allocation() {
        let mut buf = BytesMut::new();
        buf.put_u32_le(u32::MAX);
        assert!(matches!(
            Vec::<f64>::from_bytes(buf.freeze()),
            Err(WireError::BadLength { .. })
        ));
    }

    #[test]
    fn encoded_sizes_are_stable() {
        // Sizes feed the communication-cost metric; pin them down.
        assert_eq!(Point::new(0.0, 0.0).to_bytes().len(), 16);
        assert_eq!(Rect::EMPTY.to_bytes().len(), 32);
        assert_eq!(
            Range::circle(Point::new(0.0, 0.0), 1.0).to_bytes().len(),
            25
        );
        // Presence byte only: every component of ZERO is +0.0.
        assert_eq!(Aggregate::ZERO.to_bytes().len(), 1);
        // Presence byte + count, sum, sum_sqr at 8 B each.
        assert_eq!(
            Aggregate {
                count: 1.0,
                sum: 2.0,
                sum_sqr: 4.0
            }
            .to_bytes()
            .len(),
            1 + 3 * 8
        );
        assert_eq!(vec![1u32, 2, 3].to_bytes().len(), 4 + 12);
    }

    fn assert_len_exact<T: Wire>(value: T) {
        assert_eq!(value.encoded_len(), value.to_bytes().len());
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        assert_len_exact(7u8);
        assert_len_exact(7u32);
        assert_len_exact(7u64);
        assert_len_exact(7usize);
        assert_len_exact(7.5f64);
        assert_len_exact(true);
        assert_len_exact(String::new());
        assert_len_exact("日本語 ünïcode".to_string()); // len() is bytes, not chars
        assert_len_exact(vec![1u32, 2, 3]);
        assert_len_exact(vec!["a".to_string(), "bcd".to_string()]);
        assert_len_exact(Option::<f64>::None);
        assert_len_exact(Some(2.5f64));
        assert_len_exact(Point::new(1.0, 2.0));
        assert_len_exact(Rect::EMPTY);
        assert_len_exact(Circle::new(Point::new(0.0, 0.0), 1.0));
        assert_len_exact(Range::circle(Point::new(0.0, 0.0), 1.0));
        assert_len_exact(Range::rect(Point::new(0.0, 0.0), Point::new(1.0, 1.0)));
        assert_len_exact(Aggregate::ZERO);
        assert_len_exact(Aggregate {
            sum: -0.0,
            ..Aggregate::ZERO
        });
        assert_len_exact(Moments::ALL);
    }

    #[test]
    fn error_messages_render() {
        let e = WireError::Truncated { context: "u8" };
        assert!(e.to_string().contains("truncated"));
        let e = WireError::BadTag {
            context: "range",
            tag: 7,
        };
        assert!(e.to_string().contains("unknown tag 7"));
        let e = WireError::BadLength {
            context: "vec",
            len: 9,
        };
        assert!(e.to_string().contains("length 9"));
    }
}
