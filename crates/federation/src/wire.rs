//! Binary wire format for provider ↔ silo messages.
//!
//! The paper's communication-cost metric counts what actually crosses the
//! network between the service provider and the data silos. To measure it
//! honestly, every message in `fedra` — even though silos run as threads in
//! the same process — is serialized to a byte buffer with this codec and
//! the buffer's length is what the metrics record. The format is a simple
//! tagged little-endian layout: fixed-width scalars, sequences prefixed by
//! their count as a minimal LEB128 varint (1 byte below 128 items), one tag
//! byte per enum variant. Every varint — a count, a whole component, a
//! column entry — goes through one writer ([`write_varint`]) and one reader
//! ([`get_varint`]), and each caller checks its own domain.
//!
//! An [`Aggregate`] alone is a presence byte, then only its non-zero
//! components, so a moment the request masked off (or an empty cell)
//! costs nothing past that byte. A component that is a whole number in
//! `[1, 2⁵³)` — an exact count, an LSR count scaled by `2^l`, the sum of
//! an integer measure — is flagged in the presence byte's bits 3–5 and
//! travels as a varint (1–8 bytes); every other value keeps its 8 `f64`
//! bytes, so no aggregate grows and every one round-trips bit for bit.
//! A `Vec<Aggregate>` — a NonIID-est reply, a grid's cells — adds one
//! layout byte after its count: either every cell in that sparse form, or,
//! when every component is `+0.0` or whole in `[1, 2⁵³)`, columns (one
//! varint per cell per moment present anywhere, `0` for `+0.0`), whichever
//! is shorter. A [`GridIndex`] has one codec, shared by the `Grid` reply
//! and both snapshot files, and its decoder is the one place untrusted
//! bytes become a grid.

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

    /// Appends `items` in the `Vec<Self>` layout. By default that is
    /// [`encode_seq`]'s: a varint count, then each item; a type with a
    /// denser sequence layout overrides all three `*_vec` methods.
    fn encode_vec(items: &[Self], buf: &mut BytesMut) {
        encode_seq(items, buf);
    }

    /// Exact number of bytes [`Wire::encode_vec`] appends for `items`.
    fn vec_len(items: &[Self]) -> usize {
        seq_len(items)
    }

    /// Decodes what [`Wire::encode_vec`] wrote.
    fn decode_vec(buf: &mut Bytes) -> WireResult<Vec<Self>> {
        decode_seq(buf, Self::decode)
    }

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
        put_len(buf, self.len());
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        let len = get_len(buf)?;
        need(buf, len, "string body")?;
        let raw = buf.split_to(len);
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadTag {
            context: "string utf-8",
            tag: 0,
        })
    }
    fn encoded_len(&self) -> usize {
        len_len(self.len()) + self.len()
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        T::encode_vec(self, buf);
    }
    fn decode(buf: &mut Bytes) -> WireResult<Self> {
        T::decode_vec(buf)
    }
    fn encoded_len(&self) -> usize {
        T::vec_len(self)
    }
}

/// Bytes of `n`'s minimal LEB128 form: one per started 7 bits, and one
/// for zero.
#[inline]
fn varint_len(n: u64) -> usize {
    (u64::BITS - (n | 1).leading_zeros()).div_ceil(7) as usize
}

/// Writes `n` as a minimal LEB128 varint (7-bit groups, least significant
/// first, the high bit set on every group but the last) at the start of
/// `out`, returning its length. The one varint writer: [`put_len`]
/// appends through it, and the aggregate codecs assemble several on the
/// stack with it, since a put per varint costs more than the bytes it
/// saves.
#[inline]
fn write_varint(out: &mut [u8], mut n: u64) -> usize {
    let mut len = 0;
    while n >= 0x80 {
        out[len] = n as u8 | 0x80;
        n >>= 7;
        len += 1;
    }
    out[len] = n as u8;
    len + 1
}

/// Reads a minimal LEB128 varint of at most `max_groups` (≤ 9) groups;
/// the caller checks its value's domain. A varint with a trailing zero
/// group (so not the one encoding of its value) or more groups than
/// allowed is [`WireError::BadValue`], one the buffer cuts short
/// [`WireError::Truncated`], both under `context`.
#[inline]
fn get_varint(buf: &mut Bytes, max_groups: usize, context: &'static str) -> WireResult<u64> {
    let groups = &buf.chunk()[..buf.remaining().min(max_groups)];
    let mut n = 0u64;
    for (group, &byte) in groups.iter().enumerate() {
        n |= u64::from(byte & 0x7F) << (7 * group);
        if byte & 0x80 == 0 {
            buf.advance(group + 1);
            return if byte != 0 || group == 0 {
                Ok(n)
            } else {
                Err(WireError::BadValue { context })
            };
        }
    }
    Err(if groups.len() < max_groups {
        WireError::Truncated { context }
    } else {
        WireError::BadValue { context }
    })
}

/// A length prefix is at most this many varint groups, and at most
/// `u32::MAX`.
const LEN_MAX_GROUPS: usize = 5;

/// Appends a sequence count or string length as a varint.
pub(crate) fn put_len(buf: &mut BytesMut, len: usize) {
    let mut out = [0u8; 10];
    let n = write_varint(&mut out, len as u64);
    buf.put_slice(&out[..n]);
}

/// Bytes [`put_len`] appends for `len`.
pub(crate) fn len_len(len: usize) -> usize {
    varint_len(len as u64)
}

/// Reads what [`put_len`] wrote: a malformed varint is
/// [`WireError::BadValue`], one above `u32::MAX` [`WireError::BadLength`].
fn get_len(buf: &mut Bytes) -> WireResult<usize> {
    const CONTEXT: &str = "length";
    let len = get_varint(buf, LEN_MAX_GROUPS, CONTEXT)?;
    match u32::try_from(len) {
        Ok(len) => Ok(len as usize),
        Err(_) => Err(WireError::BadLength {
            context: CONTEXT,
            len: len as usize,
        }),
    }
}

/// Decodes `len` items with `item`. A `len` the rest of `buf` cannot hold,
/// each item taking at least one byte, is refused before anything is
/// allocated for it.
fn decode_items<T>(
    buf: &mut Bytes,
    len: usize,
    mut item: impl FnMut(&mut Bytes) -> WireResult<T>,
) -> WireResult<Vec<T>> {
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

/// Appends `items` in the default `Vec<T>` layout: a varint count, then
/// each item.
fn encode_seq<T: Wire>(items: &[T], buf: &mut BytesMut) {
    put_len(buf, items.len());
    for item in items {
        item.encode(buf);
    }
}

/// Exact number of bytes [`encode_seq`] appends for `items`.
fn seq_len<T: Wire>(items: &[T]) -> usize {
    len_len(items.len()) + items.iter().map(Wire::encoded_len).sum::<usize>()
}

/// Decodes a count-prefixed sequence whose items `item` decodes — the
/// default `Vec<T>` layout, for items that need more than `T::decode` (a
/// batch item that may not be a batch).
pub(crate) fn decode_seq<T>(
    buf: &mut Bytes,
    item: impl FnMut(&mut Bytes) -> WireResult<T>,
) -> WireResult<Vec<T>> {
    let len = get_len(buf)?;
    decode_items(buf, len, item)
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
/// and the columns' domain ends here.
const SHORT_LIMIT: u64 = 1 << 53;

/// A short form or column entry is at most this many 7-bit groups: 8 × 7
/// = 56 bits hold every value below [`SHORT_LIMIT`].
const SHORT_MAX_GROUPS: usize = 8;

/// Whether every component of `a` is `+0.0`: an empty cell.
#[inline]
fn is_empty(a: &Aggregate) -> bool {
    components(a).iter().all(|v| v.to_bits() == 0)
}

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

/// Reads a short-form component: a varint in `[1, 2⁵³)`. A zero or a
/// value past 2⁵³ is [`WireError::BadValue`] too — the encoder never
/// writes one, so no value has two short encodings.
fn get_short(buf: &mut Bytes) -> WireResult<f64> {
    const CONTEXT: &str = "aggregate varint";
    let n = get_varint(buf, SHORT_MAX_GROUPS, CONTEXT)?;
    if (1..SHORT_LIMIT).contains(&n) {
        Ok(n as f64)
    } else {
        Err(WireError::BadValue { context: CONTEXT })
    }
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
///
/// A `Vec<Aggregate>` is a varint count, a layout byte, then either
/// every cell in this sparse form ([`LAYOUT_SPARSE`]) or columns
/// ([`LAYOUT_COLUMNS`]); see [`plan_cells`].
impl Wire for Aggregate {
    fn encode(&self, buf: &mut BytesMut) {
        // An empty cell, the commonest kind in a grid, is its presence
        // byte alone.
        if is_empty(self) {
            buf.put_u8(0);
            return;
        }
        // Assembled on the stack and appended once.
        let mut out = [0u8; 25];
        let mut len = 1;
        for (i, v) in components(self).into_iter().enumerate() {
            if let Some(n) = short_form(v) {
                out[0] |= 0b1001 << i;
                len += write_varint(&mut out[len..], n);
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
        if tag == 0 {
            // An empty cell: nothing to check or read.
            return Ok(Aggregate::ZERO);
        }
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
                get_short(buf)
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

    fn encode_vec(items: &[Self], buf: &mut BytesMut) {
        let (layout, _) = plan_cells(items);
        put_len(buf, items.len());
        buf.put_u8(layout);
        if layout == LAYOUT_SPARSE {
            items.iter().for_each(|a| a.encode(buf));
            return;
        }
        for a in items {
            let mut out = [0u8; 3 * SHORT_MAX_GROUPS];
            let mut len = 0;
            for (i, v) in components(a).into_iter().enumerate() {
                if layout & 1 << i != 0 {
                    len += write_varint(&mut out[len..], short_form(v).unwrap_or(0));
                }
            }
            buf.put_slice(&out[..len]);
        }
    }
    fn vec_len(items: &[Self]) -> usize {
        len_len(items.len()) + 1 + plan_cells(items).1
    }
    fn decode_vec(buf: &mut Bytes) -> WireResult<Vec<Self>> {
        let len = get_len(buf)?;
        need(buf, 1, "aggregate layout")?;
        let layout = buf.get_u8();
        if layout == LAYOUT_SPARSE {
            return decode_items(buf, len, Aggregate::decode);
        }
        let columns = layout ^ LAYOUT_COLUMNS;
        if !(1..=0b111).contains(&columns) {
            // With no column every cell would take 0 bytes, and the
            // length check in `decode_items` would bound nothing.
            return Err(WireError::BadTag {
                context: "aggregate layout",
                tag: layout,
            });
        }
        decode_items(buf, len, |buf| {
            let mut column = |i: u8| {
                if columns & 1 << i != 0 {
                    get_column(buf)
                } else {
                    Ok(0.0)
                }
            };
            Ok(Aggregate {
                count: column(0)?,
                sum: column(1)?,
                sum_sqr: column(2)?,
            })
        })
    }
}

/// Layout byte of a cell vector whose cells each travel in the sparse
/// [`Aggregate`] form.
const LAYOUT_SPARSE: u8 = 0;

/// Flag of a columnar cell vector's layout byte; bits 0–2 name the
/// moments (in [`Moments`] bit order) it carries, at least one. Each
/// cell is then one varint per named moment, `0` standing for `+0.0`.
const LAYOUT_COLUMNS: u8 = 0x80;

/// The layout byte for `items` and the bytes its cells take after it,
/// from one pass. Columns apply when every component of every cell is
/// `+0.0` or a whole number in `[1, 2⁵³)`, and name the moments that are
/// non-zero in any cell; they are chosen whenever they are no longer than
/// the sparse cells (a moment non-zero in few cells can make them
/// longer), so no vector grows and the data alone decides.
fn plan_cells(items: &[Aggregate]) -> (u8, usize) {
    let mut sparse = items.len();
    // An empty cell (the most common kind in a grid) is one presence
    // byte, or a `0` in every column.
    let mut column = [items.len(); 3];
    let (mut moments, mut whole) = (0u8, true);
    for a in items.iter().filter(|a| !is_empty(a)) {
        for (i, v) in components(a).into_iter().enumerate() {
            if let Some(n) = short_form(v) {
                let len = varint_len(n);
                sparse += len;
                column[i] += len - 1;
                moments |= 1 << i;
            } else if v.to_bits() != 0 {
                sparse += 8;
                whole = false;
            }
        }
    }
    let columns: usize = (0..3)
        .filter(|i| moments & 1 << i != 0)
        .map(|i| column[i])
        .sum();
    if whole && moments != 0 && columns <= sparse {
        (LAYOUT_COLUMNS | moments, columns)
    } else {
        (LAYOUT_SPARSE, sparse)
    }
}

/// Reads one column entry: a varint below 2⁵³ (`0` is `+0.0`); a larger
/// one is [`WireError::BadValue`].
fn get_column(buf: &mut Bytes) -> WireResult<f64> {
    const CONTEXT: &str = "aggregate column";
    let n = get_varint(buf, SHORT_MAX_GROUPS, CONTEXT)?;
    if n < SHORT_LIMIT {
        Ok(n as f64)
    } else {
        Err(WireError::BadValue { context: CONTEXT })
    }
}

/// A grid as Alg. 1 ships it: bounds, `L`, the row-major cells (a
/// `Vec<Aggregate>`), the outside count. The decoder refuses, with a typed
/// error and before it builds anything, what [`GridSpec::new`] or
/// [`GridIndex::from_parts`] would panic on: empty bounds, an `L` that is
/// not positive and finite, and a cell vector the spec does not size.
impl Wire for GridIndex {
    fn encode(&self, buf: &mut BytesMut) {
        self.spec().bounds().encode(buf);
        self.spec().cell_len().encode(buf);
        Aggregate::encode_vec(self.cells(), buf);
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
        32 + 8 + Aggregate::vec_len(self.cells()) + 8
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
        // u32::MAX as a varint: four full 7-bit groups, then 0x0F.
        let mut buf = BytesMut::new();
        put_len(&mut buf, u32::MAX as usize);
        assert_eq!(buf.as_ref(), &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]);
        assert!(matches!(
            Vec::<f64>::from_bytes(buf.clone().freeze()),
            Err(WireError::BadLength { .. })
        ));
        // The same for a cell vector, behind a valid layout byte.
        for layout in [LAYOUT_SPARSE, LAYOUT_COLUMNS | 0b001] {
            let mut cells = buf.clone();
            cells.put_u8(layout);
            assert_eq!(
                Vec::<Aggregate>::from_bytes(cells.freeze()),
                Err(WireError::BadLength {
                    context: "vec",
                    len: u32::MAX as usize
                })
            );
        }
    }

    /// Decodes `bytes` as a bare length prefix.
    fn decode_len(bytes: &[u8]) -> WireResult<usize> {
        let mut buf = Bytes::from(bytes.to_vec());
        get_len(&mut buf)
    }

    #[test]
    fn a_length_is_a_minimal_varint_of_at_most_five_groups_and_u32() {
        for (len, bytes) in [
            (0usize, &[0x00][..]),
            (127, &[0x7F]),
            (128, &[0x80, 0x01]),
            (300, &[0xAC, 0x02]),
            (u32::MAX as usize, &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F]),
        ] {
            let mut buf = BytesMut::new();
            put_len(&mut buf, len);
            assert_eq!(buf.as_ref(), bytes, "{len}");
            assert_eq!(len_len(len), bytes.len(), "{len}");
            assert_eq!(decode_len(bytes), Ok(len));
        }
        let bad = Err(WireError::BadValue { context: "length" });
        // A trailing zero group: not the one encoding of its value.
        assert_eq!(decode_len(&[0x80, 0x00]), bad);
        assert_eq!(decode_len(&[0x81, 0x80, 0x00]), bad);
        // A sixth group.
        assert_eq!(decode_len(&[0x80, 0x80, 0x80, 0x80, 0x80, 0x01]), bad);
        // Five groups past u32::MAX.
        assert_eq!(
            decode_len(&[0x80, 0x80, 0x80, 0x80, 0x10]),
            Err(WireError::BadLength {
                context: "length",
                len: 1 << 32
            })
        );
        for cut in [&[][..], &[0x80], &[0xFF, 0xFF, 0xFF]] {
            assert_eq!(
                decode_len(cut),
                Err(WireError::Truncated { context: "length" })
            );
        }
    }

    fn whole(count: f64, sum: f64, sum_sqr: f64) -> Aggregate {
        Aggregate {
            count,
            sum,
            sum_sqr,
        }
    }

    #[test]
    fn whole_cells_travel_as_columns_of_the_moments_present() {
        // Two COUNT-only cells and an empty one: count 3, layout 0x81
        // (COUNT), then one varint per cell, 0 for the empty cell.
        let cells = vec![only_count(3.0), Aggregate::ZERO, only_count(300.0)];
        assert_eq!(cells.to_bytes().as_ref(), &[3, 0x81, 3, 0, 0xAC, 0x02]);
        // All three moments present somewhere: every cell pays three.
        let cells = vec![whole(1.0, 2.0, 4.0), only_count(5.0)];
        assert_eq!(cells.to_bytes().as_ref(), &[2, 0x87, 1, 2, 4, 5, 0, 0]);
        // SUM only (a masked SUM reply): bit 1.
        let sums = vec![
            Aggregate {
                sum: 9.0,
                ..Aggregate::ZERO
            };
            2
        ];
        assert_eq!(sums.to_bytes().as_ref(), &[2, 0x82, 9, 9]);
        for cells in [cells, sums] {
            let back = Vec::<Aggregate>::from_bytes(cells.to_bytes()).expect("decode");
            assert_eq!(back, cells);
        }
    }

    #[test]
    fn a_cell_vector_keeps_the_sparse_layout_where_columns_would_not_be_shorter() {
        // A fraction anywhere: columns cannot carry it.
        let cells = vec![only_count(2.5), only_count(1.0)];
        let mut sparse = vec![2, LAYOUT_SPARSE];
        for a in &cells {
            sparse.extend_from_slice(&a.to_bytes());
        }
        assert_eq!(cells.to_bytes().as_ref(), sparse.as_slice());
        // −0.0, NaN, ±∞ and 2^53 force it too.
        for v in [
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            SHORT_LIMIT as f64,
        ] {
            let cells = vec![only_count(1.0), only_count(v)];
            assert_eq!(cells.to_bytes()[1], LAYOUT_SPARSE, "{v}");
            let back = Vec::<Aggregate>::from_bytes(cells.to_bytes()).expect("decode");
            assert_eq!(agg_bits(&back[1]), agg_bits(&cells[1]), "{v}");
        }
        // All empty: no moment to name, one presence byte per cell.
        let empty = vec![Aggregate::ZERO; 4];
        assert_eq!(empty.to_bytes().as_ref(), &[4, LAYOUT_SPARSE, 0, 0, 0, 0]);
        // Columns longer than sparse: one cell carries all three moments
        // and eight are empty. Sparse: 9 + 3 = 12 B; columns 9 × 3 = 27 B.
        let mut mostly_empty = vec![Aggregate::ZERO; 9];
        mostly_empty[0] = whole(1.0, 1.0, 1.0);
        let bytes = mostly_empty.to_bytes();
        assert_eq!((bytes[1], bytes.len()), (LAYOUT_SPARSE, 2 + 12));
        // A tie goes to columns: 1 × 3 B either way past the header.
        let one = vec![whole(1.0, 1.0, 1.0)];
        assert_eq!(one.to_bytes().as_ref(), &[1, 0x87, 1, 1, 1]);
        // The empty vector: its count and the sparse layout byte.
        assert_eq!(Vec::<Aggregate>::new().to_bytes().as_ref(), &[0, 0]);
    }

    /// Decodes a one-cell vector whose layout byte is `layout` and whose
    /// body is `body`.
    fn decode_one_cell(layout: u8, body: &[u8]) -> WireResult<Vec<Aggregate>> {
        let mut buf = BytesMut::new();
        buf.put_u8(1);
        buf.put_u8(layout);
        buf.put_slice(body);
        Vec::<Aggregate>::from_bytes(buf.freeze())
    }

    #[test]
    fn a_layout_byte_or_column_the_encoder_never_writes_is_refused() {
        for layout in (1..=u8::MAX).filter(|l| !(0x81..=0x87).contains(l)) {
            assert_eq!(
                decode_one_cell(layout, &[1, 1, 1]),
                Err(WireError::BadTag {
                    context: "aggregate layout",
                    tag: layout
                }),
                "{layout:#x}"
            );
        }
        let bad = Err(WireError::BadValue {
            context: "aggregate column",
        });
        // 2^53 in eight groups: past the columns' domain.
        assert_eq!(
            decode_one_cell(0x81, &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10]),
            bad
        );
        // Not minimal, or a ninth group.
        assert_eq!(decode_one_cell(0x81, &[0x80, 0x00]), bad);
        assert_eq!(decode_one_cell(0x81, &[0x81; 9]), bad);
        assert_eq!(
            decode_one_cell(0x81, &[0x81]),
            Err(WireError::Truncated {
                context: "aggregate column"
            })
        );
        // 2^53 - 1 and 0 are in it.
        assert_eq!(
            decode_one_cell(0x85, &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 0]),
            Ok(vec![only_count((SHORT_LIMIT - 1) as f64)])
        );
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
        // A one-byte varint count, then the items.
        assert_eq!(vec![1u32, 2, 3].to_bytes().len(), 1 + 12);
        assert_eq!("abc".to_string().to_bytes().len(), 1 + 3);
        // Cells: a one-byte count, the layout byte, then per cell one
        // varint per moment present anywhere (COUNT here): 2 + 15 × 1.
        // The sparse cells would take 15 × (1 + 1) = 30 B.
        assert_eq!(vec![only_count(7.0); 15].to_bytes().len(), 2 + 15);
        // Fractions: the layout byte, then every cell sparse (1 + 8 B).
        assert_eq!(vec![only_count(0.5); 15].to_bytes().len(), 2 + 15 * 9);
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
        assert_len_exact(Vec::<Aggregate>::new());
        assert_len_exact(vec![only_count(3.0), Aggregate::ZERO, only_count(1e9)]);
        assert_len_exact(vec![only_count(3.0), only_count(2.5)]);
        assert_len_exact(vec!["x".repeat(300)]);
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
