//! Property-based round-trip tests: every codec must decode exactly what it
//! encoded, for arbitrary nested values — the invariant the paper's proxy
//! interchangeability rests on.

use proptest::prelude::*;
use rafda_wire::{
    CorbaCodec, Protocol, Reply, Request, RmiCodec, SigTable, SoapCodec, TraceContext, WireError,
    WireValue,
};

/// A signature-position string (class name or method label): any
/// printable text, XML metacharacters and non-ASCII included, so escaped
/// values travel SOAP's inline, interned and `rafda:sigref` paths and the
/// binary codecs' signature markers.
const SIG: &str = ".{1,12}";

fn arb_ctx() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(trace_id, span_id, parent_span_id)| {
        TraceContext {
            trace_id,
            span_id,
            parent_span_id,
        }
    })
}

fn arb_wire_value() -> impl Strategy<Value = WireValue> {
    let leaf = prop_oneof![
        Just(WireValue::Null),
        any::<bool>().prop_map(WireValue::Bool),
        any::<i32>().prop_map(WireValue::Int),
        any::<i64>().prop_map(WireValue::Long),
        any::<f32>().prop_map(WireValue::Float),
        any::<f64>().prop_map(WireValue::Double),
        ".{0,24}".prop_map(WireValue::Str),
        (any::<u32>(), any::<u64>(), SIG).prop_map(|(node, object, class)| WireValue::Remote {
            node,
            object,
            class
        }),
    ];
    leaf.prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(WireValue::Array),
            (SIG, prop::collection::vec(inner, 0..5))
                .prop_map(|(class, fields)| WireValue::ObjectState { class, fields }),
        ]
    })
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        arb_simple_request(),
        prop::collection::vec(arb_simple_request(), 0..4).prop_map(Request::Batch),
    ]
}

fn arb_simple_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (
            any::<u64>(),
            SIG,
            prop::collection::vec(arb_wire_value(), 0..4)
        )
            .prop_map(|(object, method, args)| Request::Call {
                object,
                method,
                args
            }),
        SIG.prop_map(|class| Request::Create { class }),
        SIG.prop_map(|class| Request::Discover { class }),
        (arb_wire_value(), (any::<u32>(), any::<u64>())).prop_map(|(v, source)| Request::Install {
            state: WireValue::ObjectState {
                class: "S".into(),
                fields: vec![v]
            },
            source,
        }),
        (any::<u64>(), any::<u64>(), arb_wire_value()).prop_map(|(object, version, v)| {
            Request::ReplicaSync {
                object,
                version,
                state: WireValue::ObjectState {
                    class: "R".into(),
                    fields: vec![v],
                },
            }
        }),
        (any::<u32>(), any::<u64>()).prop_map(|(node, object)| Request::Promote { node, object }),
    ]
}

fn arb_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        arb_simple_reply(),
        prop::collection::vec((any::<u64>(), arb_simple_reply()), 0..4).prop_map(Reply::Batch),
    ]
}

fn arb_simple_reply() -> impl Strategy<Value = Reply> {
    prop_oneof![
        arb_wire_value().prop_map(Reply::Value),
        (SIG, prop::collection::vec(arb_wire_value(), 0..4))
            .prop_map(|(class, fields)| Reply::Exception { class, fields }),
        ".{0,40}".prop_map(Reply::Fault),
    ]
}

fn exact_bits(a: &WireValue, b: &WireValue) -> bool {
    use WireValue::*;
    match (a, b) {
        (Float(x), Float(y)) => x.to_bits() == y.to_bits(),
        (Double(x), Double(y)) => x.to_bits() == y.to_bits(),
        (Array(x), Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| exact_bits(a, b))
        }
        (
            ObjectState {
                class: ca,
                fields: fa,
            },
            ObjectState {
                class: cb,
                fields: fb,
            },
        ) => ca == cb && fa.len() == fb.len() && fa.iter().zip(fb).all(|(a, b)| exact_bits(a, b)),
        (a, b) => a == b,
    }
}

fn reply_exact(a: &Reply, b: &Reply) -> bool {
    match (a, b) {
        (Reply::Value(x), Reply::Value(y)) => exact_bits(x, y),
        (Reply::Batch(xa), Reply::Batch(xb)) => {
            xa.len() == xb.len()
                && xa
                    .iter()
                    .zip(xb)
                    .all(|((va, ra), (vb, rb))| va == vb && reply_exact(ra, rb))
        }
        (
            Reply::Exception {
                class: ca,
                fields: fa,
            },
            Reply::Exception {
                class: cb,
                fields: fb,
            },
        ) => ca == cb && fa.len() == fb.len() && fa.iter().zip(fb).all(|(x, y)| exact_bits(x, y)),
        (a, b) => a == b,
    }
}

fn request_exact(a: &Request, b: &Request) -> bool {
    match (a, b) {
        (
            Request::Call {
                object: oa,
                method: ma,
                args: aa,
            },
            Request::Call {
                object: ob,
                method: mb,
                args: ab,
            },
        ) => {
            oa == ob
                && ma == mb
                && aa.len() == ab.len()
                && aa.iter().zip(ab).all(|(x, y)| exact_bits(x, y))
        }
        (
            Request::Install {
                state: sa,
                source: ka,
            },
            Request::Install {
                state: sb,
                source: kb,
            },
        ) => ka == kb && exact_bits(sa, sb),
        (
            Request::ReplicaSync {
                object: oa,
                version: va,
                state: sa,
            },
            Request::ReplicaSync {
                object: ob,
                version: vb,
                state: sb,
            },
        ) => oa == ob && va == vb && exact_bits(sa, sb),
        (Request::Batch(xa), Request::Batch(xb)) => {
            xa.len() == xb.len() && xa.iter().zip(xb).all(|(x, y)| request_exact(x, y))
        }
        (a, b) => a == b,
    }
}

fn codecs() -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(RmiCodec::new()),
        Box::new(SoapCodec::new()),
        Box::new(CorbaCodec::new()),
    ]
}

/// A frame under test, with the decode-side table that reads it. Decodes
/// run against a copy of the table, so hostile bytes cannot skew the next.
struct Input {
    frame: Vec<u8>,
    table: Option<SigTable>,
}

impl Input {
    fn pair(inline: Vec<u8>, tabled: Vec<u8>, dec: SigTable) -> [Input; 2] {
        let (inline, tabled) = ((inline, None), (tabled, Some(dec)));
        [inline, tabled].map(|(frame, table)| Input { frame, table })
    }

    fn request(
        &self,
        codec: &dyn Protocol,
        bytes: &[u8],
    ) -> Result<(u64, TraceContext, Request), WireError> {
        let header = codec.decode_request_header(bytes)?;
        let req = header.materialise(self.table.clone().as_mut())?;
        Ok((header.msg_id, header.ctx, req))
    }

    fn reply(
        &self,
        codec: &dyn Protocol,
        bytes: &[u8],
    ) -> Result<(u64, TraceContext, u64, Reply), WireError> {
        codec.decode_reply_with(bytes, self.table.clone().as_mut())
    }
}

/// The two inputs the properties run on: the frame encoded without a table
/// (every signature inline), and the second of two consecutive frames on a
/// link with an encoder/decoder table pair — the only frames a deployment
/// carries — whose signatures are references into what the first defined.
fn request_inputs(codec: &dyn Protocol, id: u64, ctx: TraceContext, req: &Request) -> [Input; 2] {
    let inline = codec.encode_request(id, ctx, req).unwrap();
    let (mut enc, mut dec) = (SigTable::new(), SigTable::new());
    let mut frame = Vec::new();
    let mut encode = |frame: &mut Vec<u8>| {
        codec
            .encode_request_into(id, ctx, req, Some(&mut enc), frame)
            .unwrap()
    };
    encode(&mut frame);
    let define = codec.decode_request_header(&frame).unwrap();
    define.materialise(Some(&mut dec)).unwrap();
    encode(&mut frame);
    Input::pair(inline, frame, dec)
}

/// [`request_inputs`] for a reply.
fn reply_inputs(
    codec: &dyn Protocol,
    id: u64,
    ctx: TraceContext,
    ver: u64,
    reply: &Reply,
) -> [Input; 2] {
    let inline = codec.encode_reply(id, ctx, ver, reply).unwrap();
    let (mut enc, mut dec) = (SigTable::new(), SigTable::new());
    let mut frame = Vec::new();
    let mut encode = |frame: &mut Vec<u8>| {
        codec
            .encode_reply_into(id, ctx, ver, reply, Some(&mut enc), frame)
            .unwrap()
    };
    encode(&mut frame);
    codec.decode_reply_with(&frame, Some(&mut dec)).unwrap();
    encode(&mut frame);
    Input::pair(inline, frame, dec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_roundtrip_all_codecs(id in any::<u64>(), ctx in arb_ctx(), req in arb_request()) {
        for codec in codecs() {
            for input in request_inputs(codec.as_ref(), id, ctx, &req) {
                let (back_id, back_ctx, back) = input.request(codec.as_ref(), &input.frame)
                    .unwrap_or_else(|e| panic!("{}: {e}", codec.name()));
                prop_assert_eq!(back_id, id, "{} lost the message id", codec.name());
                prop_assert_eq!(back_ctx, ctx, "{} lost the trace context", codec.name());
                prop_assert!(request_exact(&back, &req), "{}: {back:?} != {req:?}", codec.name());
            }
        }
    }

    #[test]
    fn replies_roundtrip_all_codecs(
        id in any::<u64>(),
        ctx in arb_ctx(),
        ver in any::<u64>(),
        reply in arb_reply(),
    ) {
        for codec in codecs() {
            for input in reply_inputs(codec.as_ref(), id, ctx, ver, &reply) {
                let (back_id, back_ctx, back_ver, back) = input.reply(codec.as_ref(), &input.frame)
                    .unwrap_or_else(|e| panic!("{}: {e}", codec.name()));
                prop_assert_eq!(back_id, id, "{} lost the message id", codec.name());
                prop_assert_eq!(back_ctx, ctx, "{} lost the trace context", codec.name());
                prop_assert_eq!(back_ver, ver, "{} lost the object version", codec.name());
                prop_assert!(reply_exact(&back, &reply), "{}: {back:?} != {reply:?}", codec.name());
            }
        }
    }

    #[test]
    fn soap_is_never_smaller_than_rmi(req in arb_request()) {
        let rmi = RmiCodec::new().encode_request(1, TraceContext::NONE, &req).unwrap().len();
        let soap = SoapCodec::new().encode_request(1, TraceContext::NONE, &req).unwrap().len();
        prop_assert!(soap > rmi);
    }

    #[test]
    fn binary_decoders_reject_random_garbage(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        // Must error or decode — never panic.
        let _ = RmiCodec::new().decode_request(&bytes);
        let _ = CorbaCodec::new().decode_request(&bytes);
        let _ = SoapCodec::new().decode_request(&bytes);
        let _ = RmiCodec::new().decode_reply(&bytes);
        let _ = CorbaCodec::new().decode_reply(&bytes);
        let _ = SoapCodec::new().decode_reply(&bytes);
    }

    #[test]
    fn truncated_frames_are_rejected_not_panicked(
        id in any::<u64>(),
        ctx in arb_ctx(),
        req in arb_request(),
        reply in arb_reply(),
        cut_seed in any::<usize>(),
    ) {
        // A prefix of a valid frame lost its tail in transit: every codec
        // must report a decode error — never panic, never accept the stump.
        for codec in codecs() {
            let codec = codec.as_ref();
            for input in request_inputs(codec, id, ctx, &req) {
                let cut = cut_seed % input.frame.len();
                prop_assert!(
                    input.request(codec, &input.frame[..cut]).is_err(),
                    "{} accepted a request truncated to {cut}/{} bytes",
                    codec.name(),
                    input.frame.len()
                );
            }
            for input in reply_inputs(codec, id, ctx, 3, &reply) {
                let cut = cut_seed % input.frame.len();
                prop_assert!(
                    input.reply(codec, &input.frame[..cut]).is_err(),
                    "{} accepted a reply truncated to {cut}/{} bytes",
                    codec.name(),
                    input.frame.len()
                );
            }
        }
    }

    #[test]
    fn bitflipped_frames_never_panic_and_corrupt_headers_are_rejected(
        id in any::<u64>(),
        ctx in arb_ctx(),
        req in arb_request(),
        reply in arb_reply(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        // A single flipped bit anywhere must never panic a decoder; a flip
        // inside the 4-byte magic of the binary codecs must be rejected
        // outright (the frame no longer identifies as that protocol).
        for codec in codecs() {
            let codec = codec.as_ref();
            let inputs = request_inputs(codec, id, ctx, &req)
                .map(|input| (input, false))
                .into_iter()
                .chain(reply_inputs(codec, id, ctx, 3, &reply).map(|input| (input, true)));
            for (input, is_reply) in inputs {
                let rejects = |bytes: &[u8]| {
                    if is_reply {
                        input.reply(codec, bytes).is_err()
                    } else {
                        input.request(codec, bytes).is_err()
                    }
                };
                let mut mutated = input.frame.clone();
                let pos = pos_seed % mutated.len();
                mutated[pos] ^= 1 << bit;
                let _ = rejects(&mutated);
                if codec.name() != "SOAP" {
                    let mut magic_hit = input.frame.clone();
                    magic_hit[pos_seed % 4] ^= 1 << bit;
                    prop_assert!(rejects(&magic_hit), "{} accepted a corrupt magic", codec.name());
                }
            }
        }
    }

    #[test]
    fn bitflipped_frames_never_panic_the_header_decoder(
        id in any::<u64>(),
        ctx in arb_ctx(),
        req in arb_request(),
        pos_seed in any::<usize>(),
        bit in 0u8..8,
    ) {
        // The zero-copy header fast path sees raw network bytes before any
        // validation; a flipped bit must never panic it, and whenever the
        // header *does* parse, materialising the payload must also either
        // succeed or error — never panic.
        for codec in codecs() {
            for input in request_inputs(codec.as_ref(), id, ctx, &req) {
                let mut frame = input.frame.clone();
                let pos = pos_seed % frame.len();
                frame[pos] ^= 1 << bit;
                let _ = input.request(codec.as_ref(), &frame);
            }
        }
    }

    #[test]
    fn references_past_the_decoders_table_are_rejected(
        id in any::<u64>(),
        ctx in arb_ctx(),
        req in arb_request(),
        skew in 0usize..8,
    ) {
        // The peer's ids drifted (say, after a reconnect): its table holds
        // entries the decoder never saw, so every reference it sends lies
        // past the end of the decoder's table. That is a typed error on
        // every codec — never a panic, never some other signature.
        for codec in codecs() {
            let [_, Input { table, .. }] = request_inputs(codec.as_ref(), id, ctx, &req);
            let mut dec = table.expect("the second input carries the decode-side table");
            let mut enc = SigTable::new();
            for pad in 0..dec.len() + skew {
                enc.intern(&format!("<pad {pad}>"));
            }
            let mut frame = Vec::new();
            for _define_then_refer in 0..2 {
                codec.encode_request_into(id, ctx, &req, Some(&mut enc), &mut frame).unwrap();
            }
            let header = codec.decode_request_header(&frame).unwrap();
            match header.materialise(Some(&mut dec)) {
                Ok(back) => prop_assert!(
                    enc.refs() == 0 && request_exact(&back, &req),
                    "{} resolved a reference past its table",
                    codec.name()
                ),
                Err(e) => prop_assert!(e.to_string().contains("sigref"), "{}: {e}", codec.name()),
            }
        }
    }

    #[test]
    fn oversized_length_prefixes_allocate_bounded_memory(
        id in any::<u64>(),
        ctx in arb_ctx(),
        claimed in (1u32 << 20)..u32::MAX,
        word_seed in any::<usize>(),
    ) {
        // Overwrite one aligned u32 word of the body with a huge length.
        // Whatever field it lands on (string length, arg count, list
        // count), the decoder must fail against the actual buffer size
        // rather than allocating the gigabytes the frame claims. The
        // decoders clamp `with_capacity` to fixed caps, so an accepted
        // decode can only ever hold what the buffer really contained.
        let req = Request::Call {
            object: 1,
            method: "m@1".to_owned(),
            args: vec![WireValue::Str("payload".to_owned()); 4],
        };
        for codec in [
            Box::new(RmiCodec::new()) as Box<dyn Protocol>,
            Box::new(CorbaCodec::new()),
        ] {
            let mut frame = codec.encode_request(id, ctx, &req).unwrap();
            let body = 48; // past both codecs' fixed headers
            let words = (frame.len() - body) / 4;
            let at = body + (word_seed % words) * 4;
            frame[at..at + 4].copy_from_slice(&claimed.to_le_bytes());
            // Fail fast, or decode something the buffer really held —
            // either way nothing panicked and nothing huge allocated.
            if let Ok((_, _, back)) = codec.decode_request(&frame) {
                let reenc = codec.encode_request(id, ctx, &back).unwrap();
                prop_assert!(
                    reenc.len() <= frame.len() + 64,
                    "{} conjured {} bytes from a {}-byte frame",
                    codec.name(),
                    reenc.len(),
                    frame.len()
                );
            }
        }
    }
}
