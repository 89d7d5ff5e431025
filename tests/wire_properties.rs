//! Property-based fuzzing of the wire protocol: arbitrary well-formed
//! messages must round-trip exactly, and arbitrary byte soup must never
//! panic the decoder (it errors instead).

use bytes::{BufMut, Bytes, BytesMut};
use fedra::federation::wire::{Wire, WireError};
use fedra::federation::{
    FederationBuilder, LocalMode, ProviderSnapshot, Request, Response, SiloGridSnapshot,
    SiloMemoryReport, SiloSpec,
};
use fedra::geo::{Point, Range, Rect, SpatialObject};
use fedra::index::grid::{GridIndex, GridSpec};
use fedra::index::histogram::MinSkewConfig;
use fedra::index::rtree::RTreeConfig;
use fedra::index::{Aggregate, Moments};
use proptest::prelude::*;

/// 2⁵³: the first whole number past the short form's domain.
const SHORT_LIMIT: u64 = 1 << 53;

/// One aggregate component: arbitrary bits, or one of the values the
/// sparse codec must keep apart — +0.0 (left off the wire), −0.0, NaN
/// payloads, subnormals, ±∞, fractions and negatives (which travel as
/// f64s), and whole numbers in [1, 2⁵³) (which travel as varints) up to
/// the edges 2⁵³ − 1 and 2⁵³.
fn component() -> impl Strategy<Value = f64> {
    prop_oneof![
        any::<u64>().prop_map(f64::from_bits),
        Just(0.0),
        Just(-0.0),
        Just(f64::NAN),
        any::<u32>().prop_map(|payload| f64::from_bits(0x7FF8_0000_0000_0000 | payload as u64)),
        Just(f64::from_bits(1)),
        Just(-f64::MIN_POSITIVE / 2.0),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        (1u64..300).prop_map(|n| n as f64),
        (1u64..SHORT_LIMIT).prop_map(|n| n as f64),
        (1u64..SHORT_LIMIT).prop_map(|n| -(n as f64)),
        (0u64..1 << 20).prop_map(|n| n as f64 + 0.5),
        Just((SHORT_LIMIT - 1) as f64),
        Just(SHORT_LIMIT as f64),
    ]
}

/// The bytes a component costs on the wire: none for +0.0, a minimal
/// varint (one byte per started 7 bits) for a whole number in [1, 2⁵³),
/// eight for every other value.
fn component_len(v: f64) -> usize {
    if v.to_bits() == 0 {
        0
    } else if (1.0..SHORT_LIMIT as f64).contains(&v) && v.fract() == 0.0 {
        (64 - (v as u64).leading_zeros() as usize).div_ceil(7)
    } else {
        8
    }
}

/// `a` in the layout written before the short form existed: the
/// presence byte's bits 0–2, then every present component's f64 bytes.
fn all_f64_layout(a: &Aggregate) -> Bytes {
    let present: Vec<f64> = [a.count, a.sum, a.sum_sqr]
        .into_iter()
        .filter(|v| v.to_bits() != 0)
        .collect();
    let mut buf = BytesMut::new();
    buf.put_u8(
        [a.count, a.sum, a.sum_sqr]
            .iter()
            .enumerate()
            .filter(|(_, v)| v.to_bits() != 0)
            .fold(0, |bits, (i, _)| bits | 1 << i),
    );
    for v in present {
        v.encode(&mut buf);
    }
    buf.freeze()
}

/// A presence byte the encoder never writes: bit 6 or 7 set, or a
/// short-form flag (bits 3–5) whose presence bit (bits 0–2) is clear.
fn refused_presence(tag: u8) -> bool {
    tag >> 6 != 0 || (tag >> 3) & !tag & 0b111 != 0
}

/// A component columns can carry: `+0.0` or a whole number in [1, 2⁵³),
/// small ones (one-byte varints) most often.
fn whole_component() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        (1u64..128).prop_map(|n| n as f64),
        (1u64..SHORT_LIMIT).prop_map(|n| n as f64),
        Just((SHORT_LIMIT - 1) as f64),
    ]
}

fn whole_agg() -> impl Strategy<Value = Aggregate> {
    (whole_component(), whole_component(), whole_component()).prop_map(|(count, sum, sum_sqr)| {
        Aggregate {
            count,
            sum,
            sum_sqr,
        }
    })
}

/// A cell vector: arbitrary cells (mostly sparse), all-whole cells (the
/// columns' domain, masked to a random moment set as a reply is), or
/// all-whole cells with one arbitrary cell among them.
fn cell_vec() -> impl Strategy<Value = Vec<Aggregate>> {
    prop_oneof![
        proptest::collection::vec(agg(), 0..40),
        (proptest::collection::vec(whole_agg(), 0..200), moments())
            .prop_map(|(cells, m)| cells.into_iter().map(|a| a.masked(m)).collect()),
        (
            proptest::collection::vec(whole_agg(), 1..40),
            agg(),
            any::<usize>()
        )
            .prop_map(|(mut cells, odd, at)| {
                let at = at % cells.len();
                cells[at] = odd;
                cells
            }),
    ]
}

/// A cell-vector layout byte the encoder writes: 0 (sparse) or columns
/// (bit 7) naming at least one moment.
fn written_layout(layout: u8) -> bool {
    layout == 0 || (0x81..0x88).contains(&layout)
}

/// The cell-vector layout before the layout byte: a `u32` count, then
/// every cell's sparse bytes.
fn u32_counted_len(cells: &[Aggregate]) -> usize {
    4 + cells.iter().map(Wire::encoded_len).sum::<usize>()
}

fn agg() -> impl Strategy<Value = Aggregate> {
    (component(), component(), component()).prop_map(|(count, sum, sum_sqr)| Aggregate {
        count,
        sum,
        sum_sqr,
    })
}

fn moments() -> impl Strategy<Value = Moments> {
    (0u8..8).prop_map(|bits| Moments::from_bits(bits).expect("three moments"))
}

fn range() -> impl Strategy<Value = Range> {
    prop_oneof![
        (-1e6f64..1e6, -1e6f64..1e6, 0.0f64..1e4)
            .prop_map(|(x, y, r)| Range::circle(Point::new(x, y), r)),
        (-1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6, -1e6f64..1e6)
            .prop_map(|(x0, y0, x1, y1)| Range::rect(Point::new(x0, y0), Point::new(x1, y1))),
    ]
}

fn mode() -> impl Strategy<Value = LocalMode> {
    prop_oneof![
        Just(LocalMode::Exact),
        (0..LocalMode::MAX_LSR_LEVEL + 1).prop_map(|level| LocalMode::Lsr { level }),
    ]
}

/// The three requests whose replies carry aggregates — what a
/// `Request::Masked` may wrap.
fn aggregate_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (range(), mode()).prop_map(|(range, mode)| Request::Aggregate { range, mode }),
        (range(), mode()).prop_map(|(range, mode)| Request::CellContributions { range, mode }),
        range().prop_map(|range| Request::HistogramEstimate { range }),
    ]
}

fn request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            -1e5f64..1e5,
            -1e5f64..1e5,
            1.0f64..100.0,
            2usize..64,
            (1u32..512, 1usize..1024),
            any::<u64>(),
        )
            .prop_map(|(x, y, cell_len, fanout, (resolution, budget), lsr_seed)| {
                Request::Setup(SiloSpec {
                    bounds: Rect::new(Point::new(x, y), Point::new(x + 10.0, y + 10.0)),
                    cell_len,
                    rtree: RTreeConfig::with_fanout(fanout),
                    histogram: MinSkewConfig { resolution, budget },
                    lsr_seed,
                })
            }),
        any::<bool>().prop_map(|return_cells| Request::BuildGrid { return_cells }),
        aggregate_request(),
        (moments(), aggregate_request()).prop_map(|(moments, request)| Request::Masked {
            moments,
            request: Box::new(request),
        }),
        Just(Request::Ping),
    ]
}

fn response() -> impl Strategy<Value = Response> {
    prop_oneof![
        (
            -1e5f64..1e5,
            -1e5f64..1e5,
            1.0f64..100.0,
            // At most 11 × 11 cells: a 10 km side at L ≥ 1, plus rounding.
            proptest::collection::vec(agg(), 121..122),
            any::<u64>(),
        )
            .prop_map(|(x, y, cell_len, mut cells, outside)| {
                let bounds = Rect::new(Point::new(x, y), Point::new(x + 10.0, y + 10.0));
                let spec = GridSpec::new(bounds, cell_len);
                cells.truncate(spec.num_cells());
                Response::Grid(Box::new(GridIndex::from_parts(spec, cells, outside)))
            }),
        (agg(), any::<u64>()).prop_map(|(total, outside)| Response::GridAck { total, outside }),
        agg().prop_map(Response::Agg),
        proptest::collection::vec(agg(), 0..64).prop_map(Response::AggVec),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(rtree, lsr_extra, grid, histogram)| Response::Memory(SiloMemoryReport {
                rtree,
                lsr_extra,
                grid,
                histogram,
            })
        ),
        Just(Response::Pong),
        ".{0,120}".prop_map(Response::Error),
        ".{0,120}".prop_map(Response::Transient),
        any::<u64>().prop_map(|late_by_us| Response::DeadlineExceeded { late_by_us }),
    ]
}

/// One level of batching over arbitrary non-batch requests, masked ones
/// included — the only shape the codec admits.
fn batch_request() -> impl Strategy<Value = Request> {
    proptest::collection::vec(request(), 0..12).prop_map(Request::Batch)
}

fn batch_response() -> impl Strategy<Value = Response> {
    proptest::collection::vec(response(), 0..12).prop_map(Response::Batch)
}

/// Bit-exact equality for aggregates (NaN-safe, unlike PartialEq).
fn agg_bits(a: &Aggregate) -> (u64, u64, u64) {
    (a.count.to_bits(), a.sum.to_bits(), a.sum_sqr.to_bits())
}

/// The per-cell aggregates an `AggVec` or `Grid` reply carries.
fn cells(response: &Response) -> &[Aggregate] {
    match response {
        Response::AggVec(v) => v,
        Response::Grid(g) => g.cells(),
        _ => &[],
    }
}

/// A silo's snapshot: the spec a federation over a 10 km box at
/// `L = 2.5` sends silo 0, and a grid along it.
fn silo_snapshot() -> SiloGridSnapshot {
    let bounds = Rect::new(Point::new(0.0, 0.0), Point::new(10.0, 10.0));
    let spec = FederationBuilder::new(bounds)
        .grid_cell_len(2.5)
        .silo_spec(0);
    let grid = GridIndex::build(
        GridSpec::new(bounds, 2.5),
        &[
            SpatialObject::at(1.0, 1.0, 3.0),
            SpatialObject::at(8.0, 6.0, 5.0),
        ],
    );
    SiloGridSnapshot {
        spec,
        num_objects: 2,
        grid,
    }
}

/// The first eight bytes of an encoding: a persisted format's magic.
fn magic(encoded: Bytes) -> Vec<u8> {
    encoded[..8].to_vec()
}

proptest! {
    #[test]
    fn requests_round_trip(req in request()) {
        let bytes = req.to_bytes();
        let back = Request::from_bytes(bytes).expect("well-formed request decodes");
        prop_assert_eq!(format!("{back:?}"), format!("{req:?}"));
    }

    #[test]
    fn responses_round_trip(resp in response()) {
        let bytes = resp.to_bytes();
        let back = Response::from_bytes(bytes).expect("well-formed response decodes");
        match (&back, &resp) {
            (Response::Agg(a), Response::Agg(b)) => prop_assert_eq!(agg_bits(a), agg_bits(b)),
            (Response::AggVec(_), Response::AggVec(_)) | (Response::Grid(_), Response::Grid(_)) => {
                let (a, b) = (cells(&back), cells(&resp));
                prop_assert_eq!(a.len(), b.len());
                for (x, y) in a.iter().zip(b) {
                    prop_assert_eq!(agg_bits(x), agg_bits(y));
                }
                prop_assert_eq!(format!("{back:?}"), format!("{resp:?}"));
            }
            (Response::GridAck { total: a, .. }, Response::GridAck { total: b, .. }) => {
                prop_assert_eq!(agg_bits(a), agg_bits(b));
                prop_assert_eq!(format!("{back:?}"), format!("{resp:?}"));
            }
            _ => prop_assert_eq!(format!("{back:?}"), format!("{resp:?}")),
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_the_decoders(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Any outcome is fine except a panic.
        let _ = Request::from_bytes(Bytes::from(data.clone()));
        let _ = Response::from_bytes(Bytes::from(data.clone()));
        let _ = ProviderSnapshot::from_bytes(Bytes::from(data.clone()));
        let _ = SiloGridSnapshot::from_bytes(Bytes::from(data.clone()));
        let _ = SiloSpec::from_bytes(Bytes::from(data.clone()));
        // Random bytes almost never start with a snapshot's magic: past
        // it, the same soup reaches the grid decoder.
        let provider = magic(ProviderSnapshot { grids: Vec::new() }.to_bytes());
        let _ = ProviderSnapshot::from_bytes(Bytes::from([provider, data.clone()].concat()));
        let silo = magic(silo_snapshot().to_bytes());
        let _ = SiloGridSnapshot::from_bytes(Bytes::from([silo, data].concat()));
    }

    #[test]
    fn truncation_is_always_detected(req in request(), cut in 0usize..64) {
        let bytes = req.to_bytes();
        if cut > 0 && cut < bytes.len() {
            let truncated = bytes.slice(0..bytes.len() - cut);
            // Truncated buffers must error (never silently succeed with
            // the same meaning... decoding may succeed only if it errors
            // on the trailing check, which slice removal prevents).
            prop_assert!(Request::from_bytes(truncated).is_err());
        }
    }

    #[test]
    fn batch_requests_round_trip(req in batch_request()) {
        let bytes = req.to_bytes();
        let back = Request::from_bytes(bytes).expect("well-formed batch decodes");
        prop_assert_eq!(format!("{back:?}"), format!("{req:?}"));
    }

    #[test]
    fn batch_responses_round_trip(resp in batch_response()) {
        let bytes = resp.to_bytes();
        let back = Response::from_bytes(bytes).expect("well-formed batch decodes");
        prop_assert_eq!(format!("{back:?}"), format!("{resp:?}"));
    }

    #[test]
    fn a_batch_inside_a_batch_is_refused_by_the_codec(req in batch_request()) {
        let frame = Request::Batch(vec![Request::Ping, req]).to_bytes();
        prop_assert_eq!(
            Request::from_bytes(frame),
            Err(WireError::BadTag { context: "batch item", tag: 11 })
        );
    }

    #[test]
    fn batch_truncation_is_always_detected(req in batch_request(), cut in 1usize..64) {
        let bytes = req.to_bytes();
        if cut < bytes.len() {
            prop_assert!(Request::from_bytes(bytes.slice(0..bytes.len() - cut)).is_err());
        }
    }

    #[test]
    fn encoded_len_is_exact_for_requests(req in prop_oneof![request(), batch_request()]) {
        prop_assert_eq!(req.encoded_len(), req.to_bytes().len());
    }

    #[test]
    fn encoded_len_is_exact_for_responses(resp in prop_oneof![response(), batch_response()]) {
        prop_assert_eq!(resp.encoded_len(), resp.to_bytes().len());
    }

    #[test]
    fn an_aggregate_pays_one_byte_plus_its_non_zero_components(a in agg()) {
        let bytes = a.to_bytes();
        let present = [a.count, a.sum, a.sum_sqr]
            .iter()
            .filter(|v| v.to_bits() != 0)
            .count();
        let exact = 1 + [a.count, a.sum, a.sum_sqr].into_iter().map(component_len).sum::<usize>();
        prop_assert_eq!(bytes.len(), exact);
        prop_assert!(bytes.len() <= 1 + 8 * present);
        prop_assert_eq!(a.encoded_len(), bytes.len());
        let back = Aggregate::from_bytes(bytes).expect("well-formed aggregate decodes");
        prop_assert_eq!(agg_bits(&back), agg_bits(&a));
    }

    #[test]
    fn the_all_f64_layout_decodes_to_the_same_aggregate(a in agg()) {
        let back = Aggregate::from_bytes(all_f64_layout(&a)).expect("the older layout decodes");
        prop_assert_eq!(agg_bits(&back), agg_bits(&a));
        // Re-encoding always picks the short form where it applies.
        prop_assert_eq!(back.to_bytes(), a.to_bytes());
    }

    #[test]
    fn a_short_form_decodes_only_from_its_one_encoding(varint in proptest::collection::vec(any::<u8>(), 0..11)) {
        // A COUNT-only aggregate flagged short, followed by arbitrary
        // bytes: either they are the one minimal varint of a whole
        // number in [1, 2⁵³), which re-encodes to the same bytes, or the
        // decoder refuses them typed.
        let mut frame = vec![0b1001u8];
        frame.extend_from_slice(&varint);
        match Aggregate::from_bytes(Bytes::from(frame.clone())) {
            Ok(a) => prop_assert_eq!(a.to_bytes().to_vec(), frame),
            Err(e) => prop_assert!(
                matches!(
                    e,
                    WireError::Truncated { context: "aggregate varint" }
                        | WireError::BadValue { context: "aggregate varint" }
                        | WireError::BadLength { context: "trailing bytes", .. }
                ),
                "{e:?}"
            ),
        }
    }

    #[test]
    fn a_cell_vector_round_trips_bit_for_bit_and_never_grows(cells in cell_vec()) {
        let bytes = cells.to_bytes();
        prop_assert_eq!(cells.encoded_len(), bytes.len());
        // Below 2²¹ cells the count takes at most 3 bytes, so count plus
        // layout byte never exceed the old 4-byte count.
        prop_assert!(bytes.len() <= u32_counted_len(&cells));
        let back = Vec::<Aggregate>::from_bytes(bytes.clone()).expect("well-formed cells decode");
        prop_assert_eq!(back.len(), cells.len());
        for (x, y) in back.iter().zip(&cells) {
            prop_assert_eq!(agg_bits(x), agg_bits(y));
        }
        // In a reply too.
        let reply = Response::AggVec(cells).to_bytes();
        prop_assert_eq!(&reply[1..], &bytes[..]);
    }

    #[test]
    fn a_layout_byte_the_encoder_never_writes_is_refused(
        cells in cell_vec(),
        layout in any::<u8>().prop_map(|l| if written_layout(l) { l | 0x40 } else { l }),
    ) {
        prop_assert!(!written_layout(layout));
        let mut frame = cells.to_bytes().to_vec();
        let at = frame.iter().position(|b| b & 0x80 == 0).expect("a count ends") + 1;
        frame[at] = layout;
        prop_assert_eq!(
            Vec::<Aggregate>::from_bytes(Bytes::from(frame)),
            Err(WireError::BadTag { context: "aggregate layout", tag: layout })
        );
    }

    #[test]
    fn a_column_entry_decodes_only_inside_its_domain(
        layout in 0x81u8..0x88,
        body in proptest::collection::vec(any::<u8>(), 0..30),
    ) {
        // One cell under a columns layout, then arbitrary bytes: either
        // they are one minimal varint below 2⁵³ per named moment — the
        // cell then re-encodes to the same bits — or the decoder refuses
        // them typed.
        let mut frame = vec![1u8, layout];
        frame.extend_from_slice(&body);
        match Vec::<Aggregate>::from_bytes(Bytes::from(frame)) {
            Ok(cells) => {
                let back = Vec::<Aggregate>::from_bytes(cells.to_bytes()).expect("re-encodes");
                prop_assert_eq!(agg_bits(&back[0]), agg_bits(&cells[0]));
                for v in [cells[0].count, cells[0].sum, cells[0].sum_sqr] {
                    prop_assert!(v.to_bits() == 0 || (1.0..SHORT_LIMIT as f64).contains(&v));
                }
            }
            Err(e) => prop_assert!(
                matches!(
                    e,
                    WireError::Truncated { context: "aggregate column" }
                        | WireError::BadValue { context: "aggregate column" }
                        | WireError::BadLength { context: "vec" | "trailing bytes", .. }
                ),
                "{e:?}"
            ),
        }
    }

    #[test]
    fn a_length_decodes_only_from_its_one_encoding(prefix in proptest::collection::vec(any::<u8>(), 0..8)) {
        // Arbitrary bytes as a string's length and body: a minimal varint
        // of at most 5 groups up to u32::MAX whose body follows, or a
        // typed refusal.
        match String::from_bytes(Bytes::from(prefix.clone())) {
            Ok(s) => prop_assert_eq!(s.to_bytes().to_vec(), prefix),
            Err(e) => prop_assert!(
                matches!(
                    e,
                    WireError::Truncated { context: "length" | "string body" }
                        | WireError::BadValue { context: "length" }
                        | WireError::BadLength { context: "length" | "trailing bytes", .. }
                        | WireError::BadTag { context: "string utf-8", .. }
                ),
                "{e:?}"
            ),
        }
    }

    #[test]
    fn masking_then_encoding_keeps_only_the_masked_moments(a in agg(), m in moments()) {
        let masked = a.masked(m);
        let back = Aggregate::from_bytes(masked.to_bytes()).expect("decodes");
        prop_assert_eq!(agg_bits(&back), agg_bits(&masked));
        prop_assert!(masked.to_bytes().len() <= 1 + 8 * m.bits().count_ones() as usize);
    }

    #[test]
    fn a_presence_byte_above_the_three_moments_is_refused(
        a in agg(),
        tag in any::<u8>().prop_map(|t| if refused_presence(t) { t } else { t | 0b0100_0000 }),
    ) {
        prop_assert!(refused_presence(tag));
        // Past the three presence bits and their three short-form flags
        // (bits 6–7), or a flag without its presence bit: a bad tag,
        // before any component is read.
        let mut frame = Response::Agg(a).to_bytes().to_vec();
        frame[1] = tag; // the byte after the response tag
        prop_assert_eq!(
            Response::from_bytes(Bytes::from(frame)),
            Err(WireError::BadTag { context: "aggregate presence", tag })
        );
        let mut buf = BytesMut::new();
        buf.put_u8(tag);
        buf.put_slice(&[0x11; 24]);
        prop_assert_eq!(
            Aggregate::from_bytes(buf.freeze()),
            Err(WireError::BadTag { context: "aggregate presence", tag })
        );
    }

    #[test]
    fn an_lsr_mode_is_its_level_byte_and_a_level_above_63_is_refused(range in range(), level in any::<u8>()) {
        let mode = LocalMode::Lsr { level };
        let request = Request::CellContributions { range, mode };
        let exact = Request::CellContributions { range, mode: LocalMode::Exact };
        // One tag byte and the level: one byte more than the exact mode.
        prop_assert_eq!(mode.to_bytes().len(), 2);
        prop_assert_eq!(request.to_bytes().len(), exact.to_bytes().len() + 1);
        let decoded = Request::from_bytes(request.to_bytes());
        if level <= LocalMode::MAX_LSR_LEVEL {
            prop_assert_eq!(decoded, Ok(request));
        } else {
            prop_assert_eq!(decoded, Err(WireError::BadValue { context: "local mode level" }));
        }
    }
}

#[test]
fn a_silo_snapshot_whose_spec_has_a_negative_cell_length_is_a_wire_error() {
    // The spec alone says L = -1: the spec decoder refuses it.
    let mut snapshot = silo_snapshot();
    let spec = snapshot.spec;
    snapshot.spec.cell_len = -1.0;
    assert_eq!(
        SiloGridSnapshot::from_bytes(snapshot.to_bytes()),
        Err(WireError::BadValue {
            context: "silo spec grid"
        })
    );
    // A valid spec the grid is not along: the pair is refused.
    snapshot.spec.cell_len = 2.0 * spec.cell_len;
    assert_eq!(
        SiloGridSnapshot::from_bytes(snapshot.to_bytes()),
        Err(WireError::BadValue {
            context: "silo grid snapshot spec"
        })
    );
    // A valid spec, and a grid that says L = -1: the grid decoder
    // refuses it.
    let mut bytes = BytesMut::new();
    bytes.put_slice(&magic(snapshot.to_bytes()));
    spec.encode(&mut bytes);
    snapshot.num_objects.encode(&mut bytes);
    snapshot.spec.bounds.encode(&mut bytes);
    (-1.0f64).encode(&mut bytes);
    snapshot.grid.cells().to_vec().encode(&mut bytes);
    0u64.encode(&mut bytes);
    assert_eq!(
        SiloGridSnapshot::from_bytes(bytes.freeze()),
        Err(WireError::BadValue {
            context: "grid spec"
        })
    );
}

#[test]
fn any_flipped_byte_of_a_saved_provider_snapshot_fails_to_load() {
    let snapshot = ProviderSnapshot {
        grids: vec![silo_snapshot().grid, silo_snapshot().grid],
    };
    let dir = std::env::temp_dir().join(format!("fedra-wire-flip-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("provider.snap");
    snapshot.save_to(&path).expect("save");
    assert_eq!(ProviderSnapshot::load_from(&path).expect("load"), snapshot);
    let saved = std::fs::read(&path).expect("read");
    let flipped_path = dir.join("flipped.snap");
    for at in 0..saved.len() {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut flipped = saved.clone();
            flipped[at] ^= mask;
            std::fs::write(&flipped_path, &flipped).expect("write");
            let err = ProviderSnapshot::load_from(&flipped_path).expect_err("flipped byte");
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "byte {at} ^ {mask:#x}: {err}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
