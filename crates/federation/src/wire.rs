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
//! past that byte. A component that is a whole number in `[1, 2⁵³)` — an
//! exact count, an LSR count scaled by `2^l`, the sum of an integer
//! measure — is flagged in the presence byte's bits 3–5 and travels as a
//! minimal LEB128 varint (1–8 bytes); every other value keeps its 8 `f64`
//! bytes, so no aggregate grows and every one round-trips bit for bit.
//! That holds in query replies, `Grid` setup frames and snapshots alike,
//! and bytes written before the short form existed (bits 3–5 clear)
//! decode unchanged. A [`GridIndex`] has one codec, shared by the `Grid`
//! reply and both snapshot files, and its decoder is the one place
//! untrusted bytes become a grid.

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

/// `a`'s components in wire order: presence bit `i` (and short-form
/// flag `3 + i`) belongs to component `i`, the bit order of [`Moments`].
fn components(a: &Aggregate) -> [f64; 3] {
    [a.count, a.sum, a.sum_sqr]
}

/// Every whole number below this is exact in an `f64`: the short form's
/// domain ends here.
const SHORT_LIMIT: u64 = 1 << 53;

/// A short form is at most this many 7-bit groups: 8 × 7 = 56 bits hold
/// every value below [`SHORT_LIMIT`].
const SHORT_MAX_GROUPS: usize = 8;

/// `v` as the integer its short form carries: `Some` only for a whole
/// number in `[1, 2⁵³)`, which converts to an integer and back bit for
/// bit. `+0.0` travels as nothing, and `-0.0`, fractions, negatives, NaN,
/// ±∞ and larger values in eight bytes. (Range first, then one signed
/// round trip: both conversions stay single instructions, where
/// `f64::fract` is a libm call on baseline x86-64.)
#[inline]
fn short_form(v: f64) -> Option<u64> {
    if !(1.0..SHORT_LIMIT as f64).contains(&v) {
        return None;
    }
    let n = v as i64;
    (n as f64 == v).then_some(n as u64)
}

/// Bytes of `n`'s minimal LEB128 form (`n ≥ 1`).
#[inline]
fn varint_len(n: u64) -> usize {
    (u64::BITS - n.leading_zeros()).div_ceil(7) as usize
}

/// Reads a short-form component: a minimal LEB128 varint (7-bit groups,
/// least significant first, the high bit set on every group but the
/// last) in `[1, 2⁵³)` of at most [`SHORT_MAX_GROUPS`] groups. A zero, a
/// value past 2⁵³, a ninth group or a trailing zero group is
/// [`WireError::BadValue`] — the encoder never writes one, so no value
/// has two short encodings.
fn get_varint(buf: &mut Bytes) -> WireResult<f64> {
    const CONTEXT: &str = "aggregate varint";
    let groups = &buf.chunk()[..buf.remaining().min(SHORT_MAX_GROUPS)];
    let mut n = 0u64;
    for (group, &byte) in groups.iter().enumerate() {
        n |= u64::from(byte & 0x7F) << (7 * group);
        if byte & 0x80 == 0 {
            let minimal = byte != 0 || group == 0;
            buf.advance(group + 1);
            return if minimal && (1..SHORT_LIMIT).contains(&n) {
                Ok(n as f64)
            } else {
                Err(WireError::BadValue { context: CONTEXT })
            };
        }
    }
    Err(if groups.len() < SHORT_MAX_GROUPS {
        WireError::Truncated { context: CONTEXT }
    } else {
        WireError::BadValue { context: CONTEXT }
    })
}

/// Sparse: a presence byte, then only the present components in `count,
/// sum, sum_sqr` order. Bits 0–2 of the presence byte say which
/// components are on the wire (those whose bits are not all zero), bits
/// 3–5 which of those travel in the short form: a 1–8 byte varint, where
/// any other component takes its 8 `f64` bytes. 1 to 25 bytes, bit-exact,
/// and never longer than the all-`f64` layout, which (bits 3–5 clear)
/// still decodes. A presence byte with bit 6 or 7 set, or a short-form
/// flag whose presence bit is clear, is never written, and the decoder
/// refuses it as [`WireError::BadTag`].
impl Wire for Aggregate {
    fn encode(&self, buf: &mut BytesMut) {
        // Assembled on the stack and appended once: a put per varint
        // byte costs more than the bytes it saves.
        let mut out = [0u8; 25];
        let mut len = 1;
        for (i, v) in components(self).into_iter().enumerate() {
            if let Some(mut n) = short_form(v) {
                out[0] |= 0b1001 << i;
                while n >= 0x80 {
                    out[len] = n as u8 | 0x80;
                    n >>= 7;
                    len += 1;
                }
                out[len] = n as u8;
                len += 1;
            } else if v.to_bits() != 0 {
                out[0] |= 1 << i;
                out[len..len + 8].copy_from_slice(&v.to_le_bytes());
                len += 8;
            }
        }
        buf.put_slice(&out[..len]);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        need(buf, 1, "aggregate presence")?;
        let tag = buf.get_u8();
        let (present, short) = (tag & 0b111, tag >> 3);
        if short & !present != 0 {
            // Also catches bits 6–7: `short` then has a bit above 0b111.
            return Err(WireError::BadTag {
                context: "aggregate presence",
                tag,
            });
        }
        let mut component = |i: u8| {
            if short & 1 << i != 0 {
                get_varint(buf)
            } else if present & 1 << i != 0 {
                f64::decode(buf)
            } else {
                Ok(0.0)
            }
        };
        Ok(Aggregate {
            count: component(0)?,
            sum: component(1)?,
            sum_sqr: component(2)?,
        })
    }
    fn encoded_len(&self) -> usize {
        1 + components(self)
            .into_iter()
            .map(|v| match short_form(v) {
                Some(n) => varint_len(n),
                None if v.to_bits() != 0 => 8,
                None => 0,
            })
            .sum::<usize>()
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

    fn agg_bits(a: &Aggregate) -> (u64, u64, u64) {
        (a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits())
    }

    fn only_count(count: f64) -> Aggregate {
        Aggregate {
            count,
            ..Aggregate::ZERO
        }
    }

    #[test]
    fn sparse_aggregates_are_bit_exact_and_pay_only_for_what_is_present() {
        let whole_max = (SHORT_LIMIT - 1) as f64;
        let cases = [
            // (aggregate, encoded length): presence byte, then per
            // component whose bits are not all zero either its varint
            // (a whole number in [1, 2^53): one byte per started 7 bits)
            // or its 8 f64 bytes.
            (Aggregate::ZERO, 1),
            (only_count(3.0), 1 + 1),
            (only_count(127.0), 1 + 1),
            (only_count(128.0), 1 + 2),
            // 2^53 - 1 has 53 significant bits: 8 groups of 7.
            (only_count(whole_max), 1 + 8),
            // 2^53 is past the short form's domain.
            (only_count(SHORT_LIMIT as f64), 1 + 8),
            (only_count(2.5), 1 + 8),
            (only_count(0.5), 1 + 8),
            (only_count(-3.0), 1 + 8),
            (only_count(f64::INFINITY), 1 + 8),
            (only_count(f64::NEG_INFINITY), 1 + 8),
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
            (only_count(f64::from_bits(0x7FF8_0000_0000_002A)), 1 + 8),
            (
                Aggregate {
                    count: 1.0,
                    sum: 2.0,
                    sum_sqr: 4.0,
                },
                1 + 3,
            ),
            (
                Aggregate {
                    count: 40.0,
                    sum: 1234.5,
                    sum_sqr: 1e300,
                },
                1 + 1 + 8 + 8,
            ),
        ];
        for (a, len) in cases {
            let bytes = a.to_bytes();
            assert_eq!(bytes.len(), len, "{a:?}");
            assert_eq!(a.encoded_len(), len, "{a:?}");
            let back = Aggregate::from_bytes(bytes).expect("decode");
            assert_eq!(agg_bits(&back), agg_bits(&a), "{a:?}");
        }
    }

    #[test]
    fn a_whole_component_travels_as_a_minimal_varint() {
        // 300 = 0b10_0101100: low group 0x2C with its continuation bit,
        // then 0x02. Presence: COUNT present (bit 0) and short (bit 3).
        assert_eq!(only_count(300.0).to_bytes().as_ref(), &[0b1001, 0xAC, 0x02]);
        // A fraction keeps its f64 bytes and no short flag.
        let mut expected = vec![0b010];
        expected.extend_from_slice(&2.5f64.to_le_bytes());
        let half = Aggregate {
            sum: 2.5,
            ..Aggregate::ZERO
        };
        assert_eq!(half.to_bytes().as_ref(), expected.as_slice());
    }

    #[test]
    fn the_all_f64_layout_still_decodes_and_re_encodes_short() {
        let a = Aggregate {
            count: 12.0,
            sum: 7.0,
            sum_sqr: 0.25,
        };
        // The layout before the short form: bits 3-5 clear, three f64s.
        let mut old = BytesMut::new();
        old.put_u8(0b111);
        for v in [a.count, a.sum, a.sum_sqr] {
            v.encode(&mut old);
        }
        let back = Aggregate::from_bytes(old.freeze()).expect("old layout decodes");
        assert_eq!(agg_bits(&back), agg_bits(&a));
        // The encoder always picks the short form where it applies.
        let bytes = back.to_bytes();
        assert_eq!(bytes[0], 0b011_111);
        assert_eq!(bytes.len(), 1 + 1 + 1 + 8);
    }

    #[test]
    fn a_presence_byte_the_encoder_never_writes_is_a_bad_tag() {
        // Bit 6 or 7 set, or a short flag (bits 3-5) whose component's
        // presence bit (bits 0-2) is clear.
        for tag in [
            0b0100_0000u8,
            0b1000_0000,
            0xFF,
            0b1000,
            0b010_001,
            0b111_011,
        ] {
            let mut buf = BytesMut::new();
            buf.put_u8(tag);
            buf.put_slice(&[0x01; 24]);
            assert_eq!(
                Aggregate::from_bytes(buf.freeze()),
                Err(WireError::BadTag {
                    context: "aggregate presence",
                    tag
                })
            );
        }
    }

    /// Decodes a COUNT-only aggregate whose short form is `varint`.
    fn decode_count_varint(varint: &[u8]) -> WireResult<Aggregate> {
        let mut buf = BytesMut::new();
        buf.put_u8(0b1001);
        buf.put_slice(varint);
        Aggregate::from_bytes(buf.freeze())
    }

    #[test]
    fn a_short_form_outside_its_grammar_is_refused() {
        let bad = Err(WireError::BadValue {
            context: "aggregate varint",
        });
        // Zero: +0.0 travels as no bytes at all.
        assert_eq!(decode_count_varint(&[0x00]), bad);
        // Not minimal: a trailing zero group.
        assert_eq!(decode_count_varint(&[0x81, 0x00]), bad);
        assert_eq!(decode_count_varint(&[0x80, 0x80, 0x00]), bad);
        // 2^53 in eight groups: past the domain.
        assert_eq!(
            decode_count_varint(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10]),
            bad
        );
        // A ninth group.
        assert_eq!(decode_count_varint(&[0x81; 9]), bad);
        // The largest value, 2^53 - 1, in its eight minimal groups.
        let max = decode_count_varint(&[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        assert_eq!(max, Ok(only_count((SHORT_LIMIT - 1) as f64)));
        // Truncated: the buffer ends inside a varint, or before it.
        for cut in [&[][..], &[0x81], &[0xFF, 0xFF]] {
            assert_eq!(
                decode_count_varint(cut),
                Err(WireError::Truncated {
                    context: "aggregate varint"
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
        // Presence byte + count, sum, sum_sqr as one-byte varints.
        assert_eq!(
            Aggregate {
                count: 1.0,
                sum: 2.0,
                sum_sqr: 4.0
            }
            .to_bytes()
            .len(),
            1 + 3
        );
        // Fractions keep their 8 f64 bytes.
        assert_eq!(
            Aggregate {
                count: 1.5,
                sum: 2.5,
                sum_sqr: 4.5
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
        assert_len_exact(Aggregate {
            count: 1e6,
            sum: 2.5,
            sum_sqr: (SHORT_LIMIT - 1) as f64,
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
