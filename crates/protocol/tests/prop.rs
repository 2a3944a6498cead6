//! Property-based tests for the wire protocol: frame round-trips,
//! request/response codec round-trips, a point read's reply built from
//! its encoded value, and the robustness half of the
//! contract — truncated or random bytes must come back as errors, never
//! as panics or hangs.

use mmdb_protocol::frame::{self, FrameReader};
use mmdb_protocol::{DdlOp, Request, Response, SessionOp};
use mmdb_types::codec::{value_from_bytes, value_to_bytes};
use mmdb_types::{Number, Value};
use proptest::prelude::*;

/// Arbitrary mmdb values (bounded depth/size), as in `mmdb-types`' own
/// property tests.
fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::int),
        any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(Value::float),
        "[a-zA-Z0-9 _\\-]{0,12}".prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 24, 5, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..5).prop_map(Value::object),
        ]
    })
}

/// Values whose bytes a value comparison alone would not pin: −0.0
/// (equal to 0.0), NaN, `1` and `1.0` (equal to each other), strings at
/// the inline limit (22 bytes) and just past it (23), bytes, and empty
/// arrays and objects.
fn arb_edge_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::float(-0.0)),
        Just(Value::Number(Number::Float(f64::NAN))),
        Just(Value::int(1)),
        Just(Value::float(1.0)),
        Just(Value::str("v".repeat(22))),
        Just(Value::str("w".repeat(23))),
        prop::collection::vec(any::<u8>(), 0..8).prop_map(Value::Bytes),
        Just(Value::Array(vec![])),
        Just(Value::object(Vec::<(String, Value)>::new())),
    ]
}

/// A point read's value: an edge value, an arbitrary one, or an array
/// mixing both.
fn arb_read_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        arb_edge_value(),
        arb_value(),
        prop::collection::vec(prop_oneof![arb_edge_value(), arb_value()], 0..4)
            .prop_map(Value::Array),
    ]
}

/// A pipelining id, or none: ids ride the wire as non-negative ints.
fn arb_id() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), any::<u64>().prop_map(|id| Some(id >> 1))]
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        Just(Request::Ping),
        Just(Request::Commit),
        Just(Request::Abort),
        any::<i64>().prop_map(|version| Request::Hello { version }),
        ("[ -~]{0,40}", prop_oneof![Just(None), (0u64..120_000).prop_map(Some)])
            .prop_map(|(text, deadline_ms)| Request::Query { text, deadline_ms }),
        ("[ -~]{0,40}", prop_oneof![Just(None), (0u64..120_000).prop_map(Some)])
            .prop_map(|(text, deadline_ms)| Request::Sql { text, deadline_ms }),
        any::<bool>().prop_map(|serializable| Request::Begin { serializable }),
        "[a-z]{1,8}".prop_map(|name| Request::Ddl(DdlOp::CreateBucket { name })),
        ("[a-z]{1,8}", "[a-z]{1,8}", arb_value())
            .prop_map(|(bucket, key, value)| Request::Op(SessionOp::KvPut { bucket, key, value })),
        ("[a-z]{1,8}", arb_value())
            .prop_map(|(collection, doc)| Request::Op(SessionOp::InsertDocument { collection, doc })),
        ("[a-z]{1,8}", arb_value())
            .prop_map(|(table, pk)| Request::Op(SessionOp::GetRow { table, pk })),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        Just(Response::Ok),
        Just(Response::Pong),
        Just(Response::Aborted),
        any::<i64>().prop_map(|txn_id| Response::TxnBegun { txn_id }),
        // The commit LSN rides the wire as a non-negative Value::int,
        // so only the i64-representable range round-trips.
        (any::<i64>(), prop_oneof![Just(None), any::<i64>().prop_map(|l| Some((l & i64::MAX) as u64))])
            .prop_map(|(commit_ts, lsn)| Response::Committed { commit_ts, lsn }),
        prop::collection::vec(arb_value(), 0..4).prop_map(Response::Rows),
        prop_oneof![Just(None), arb_value().prop_map(Some)].prop_map(Response::Maybe),
        "[a-z]{1,10}".prop_map(Response::Key),
        ("[a-z]{1,10}", "[ -~]{0,30}")
            .prop_map(|(kind, message)| Response::Err { kind, message }),
    ]
}

/// A stream that hands out its bytes in reads of the given sizes
/// (cycled), however large the caller's buffer is.
struct Chunked<'a> {
    bytes: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
}

impl std::io::Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = size.min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Every frame a buffered reader finds in `stream`, then how it ended.
fn buffered_frames(mut stream: impl std::io::Read, idle: usize) -> (Vec<Vec<u8>>, bool) {
    let mut reader = FrameReader::new(idle);
    let mut frames = Vec::new();
    loop {
        match reader.read_frame(&mut stream, frame::MAX_FRAME_LEN) {
            Ok(payload) => frames.push(payload.to_vec()),
            Err(_) => return (frames, reader.has_partial()),
        }
    }
}

fn wire_of(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut wire = Vec::new();
    for p in payloads {
        frame::write_frame(&mut wire, p, frame::MAX_FRAME_LEN).unwrap();
    }
    wire
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn any_split_of_a_frame_stream_decodes_like_one_frame_per_read(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..200), 0..8),
        sizes in prop::collection::vec(1usize..300, 1..6),
        idle in 4usize..256,
    ) {
        // The oracle reads exactly one frame per call, byte-exact.
        let wire = wire_of(&payloads);
        let mut exact = &wire[..];
        let oracle: Vec<Vec<u8>> = (0..payloads.len())
            .map(|_| frame::read_frame(&mut exact, frame::MAX_FRAME_LEN).unwrap())
            .collect();
        prop_assert_eq!(&oracle, &payloads);
        // Many frames per read, or many reads per frame: same frames.
        let stream = Chunked { bytes: &wire, sizes: &sizes, reads: 0 };
        let (frames, partial) = buffered_frames(stream, idle);
        prop_assert_eq!(&frames, &payloads);
        prop_assert!(!partial, "the stream ended on a frame boundary");
    }

    #[test]
    fn a_frame_stream_cut_at_every_byte_boundary_decodes_identically(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 1..5),
    ) {
        let wire = wire_of(&payloads);
        for cut in 0..=wire.len() {
            // Two reads: everything before the cut, everything after.
            let sizes = [cut.max(1), wire.len()];
            let stream = Chunked { bytes: &wire, sizes: &sizes, reads: 0 };
            let (frames, partial) = buffered_frames(stream, 16);
            prop_assert_eq!(&frames, &payloads, "cut at {}", cut);
            prop_assert!(!partial);
            // And a stream that *ends* at the cut yields exactly the
            // frames complete by then, and knows whether it ended inside one.
            let (frames, partial) = buffered_frames(&wire[..cut], 16);
            let mut whole = 0;
            let mut end = 0;
            for p in &payloads {
                if end + frame::HEADER_LEN + p.len() > cut {
                    break;
                }
                end += frame::HEADER_LEN + p.len();
                whole += 1;
            }
            prop_assert_eq!(&frames[..], &payloads[..whole], "stream ends at {}", cut);
            prop_assert_eq!(partial, end < cut);
        }
    }

    #[test]
    fn frame_roundtrip(payload in prop::collection::vec(any::<u8>(), 0..600)) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &payload, frame::MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(buf.len(), frame::HEADER_LEN + payload.len());
        let back = frame::read_frame(&mut &buf[..], frame::MAX_FRAME_LEN).unwrap();
        prop_assert_eq!(back, payload);
    }

    #[test]
    fn truncated_frame_always_errors(
        payload in prop::collection::vec(any::<u8>(), 1..300),
        cut in 0usize..304,
    ) {
        let mut buf = Vec::new();
        frame::write_frame(&mut buf, &payload, frame::MAX_FRAME_LEN).unwrap();
        // Any strict prefix of a valid frame is an error — header cut
        // short or payload shorter than the header announced.
        let cut = cut.min(buf.len() - 1);
        prop_assert!(frame::read_frame(&mut &buf[..cut], frame::MAX_FRAME_LEN).is_err());
    }

    #[test]
    fn random_bytes_never_panic_any_decoder(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        // The contract under fuzzing is "error, not panic": completing at
        // all is the assertion.
        let _ = frame::read_frame(&mut bytes.as_slice(), frame::MAX_FRAME_LEN);
        let _ = Request::decode(&bytes);
        let _ = Response::decode(&bytes);
        let _ = value_from_bytes(&bytes);
    }

    #[test]
    fn request_roundtrip(req in arb_request()) {
        prop_assert_eq!(Request::decode(&req.encode()).unwrap(), req);
    }

    #[test]
    fn response_roundtrip(resp in arb_response()) {
        prop_assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn an_encoded_point_read_is_the_bytes_of_maybe_of_its_decode(
        v in arb_read_value(),
        id in arb_id(),
    ) {
        let bytes = Response::MaybeEncoded(Some(value_to_bytes(&v).into())).encode_with_id(id);
        prop_assert_eq!(&bytes, &Response::Maybe(Some(v.clone())).encode_with_id(id));
        let (got, decoded) = Response::decode_with_id(&bytes).unwrap();
        prop_assert_eq!(got, id);
        prop_assert_eq!(&decoded, &Response::Maybe(Some(v)));
        // `1 == 1.0` and `-0.0 == 0.0` as values; the bytes tell them apart.
        prop_assert_eq!(decoded.encode_with_id(id), bytes);
    }

    #[test]
    fn truncated_messages_error_never_panic(req in arb_request(), cut in 0usize..128) {
        let bytes = req.encode();
        let cut = cut.min(bytes.len().saturating_sub(1));
        prop_assert!(Request::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn value_codec_rejects_strict_prefixes(v in arb_value(), cut in 0usize..64) {
        let bytes = value_to_bytes(&v);
        prop_assert_eq!(&value_from_bytes(&bytes).unwrap(), &v);
        if !bytes.is_empty() {
            let cut = cut % bytes.len();
            prop_assert!(value_from_bytes(&bytes[..cut]).is_err(),
                "strict prefix of a valid encoding must error: {}", v);
        }
    }
}
