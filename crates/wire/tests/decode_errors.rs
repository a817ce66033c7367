//! Table-driven decoder error paths: every codec must turn a malformed
//! frame into a typed [`rafda_wire::WireError`] — never a panic, never a
//! silently-wrong value, and never an attacker-sized allocation.

use rafda_wire::{
    CorbaCodec, Protocol, Reply, Request, RmiCodec, SigTable, SoapCodec, TraceContext, WireValue,
};

fn call_request() -> Request {
    Request::Call {
        object: 5,
        method: "averylongmethodname@9".to_owned(),
        args: vec![WireValue::Long(258), WireValue::Bool(true)],
    }
}

fn codecs() -> Vec<Box<dyn Protocol>> {
    vec![
        Box::new(RmiCodec::new()),
        Box::new(CorbaCodec::new()),
        Box::new(SoapCodec::new()),
    ]
}

/// Byte offset of `needle` inside `hay` (the frames are small; a naive
/// scan keeps the tests independent of each codec's header arithmetic).
fn find(hay: &[u8], needle: &[u8]) -> usize {
    hay.windows(needle.len())
        .position(|w| w == needle)
        .unwrap_or_else(|| panic!("pattern {needle:?} not found in frame"))
}

struct Case {
    label: String,
    codec: Box<dyn Protocol>,
    frame: Vec<u8>,
    /// Substring the error message must contain (empty = any error).
    expect: &'static str,
}

/// One corrupt frame per (codec, corruption) pair; each must decode to an
/// error whose message mentions the right cause.
#[test]
fn corrupt_request_frames_are_rejected_with_typed_errors() {
    let method = b"averylongmethodname@9";
    let mut cases = Vec::new();

    for codec in codecs() {
        let frame = codec
            .encode_request(9, TraceContext::NONE, &call_request())
            .unwrap();
        let at = find(&frame, method);

        // Lost the tail in transit, mid-way through a string.
        cases.push(Case {
            label: format!("{}: truncated mid-string", codec.name()),
            codec,
            frame: frame[..at + 5].to_vec(),
            expect: "",
        });
    }

    for codec in codecs() {
        let frame = codec
            .encode_request(9, TraceContext::NONE, &call_request())
            .unwrap();
        let at = find(&frame, method);

        // A byte inside the string is not valid UTF-8 any more.
        let mut bad_utf8 = frame;
        bad_utf8[at] = 0xFF;
        cases.push(Case {
            label: format!("{}: invalid utf-8 in string", codec.name()),
            codec,
            frame: bad_utf8,
            expect: "",
        });
    }

    // The binary codecs carry explicit u32 length prefixes; a corrupt one
    // claiming a ~4 GiB string must fail fast against the actual buffer
    // size instead of allocating what the attacker asked for.
    for codec in [
        Box::new(RmiCodec::new()) as Box<dyn Protocol>,
        Box::new(CorbaCodec::new()),
    ] {
        let frame = codec
            .encode_request(9, TraceContext::NONE, &call_request())
            .unwrap();
        let at = find(&frame, method);
        let mut huge = frame;
        huge[at - 4..at].copy_from_slice(&u32::MAX.to_le_bytes());
        cases.push(Case {
            label: format!("{}: oversized string length prefix", codec.name()),
            codec,
            frame: huge,
            expect: "",
        });
    }

    // CDR padding that lands past the end of the buffer: the GIOP body
    // aligns the arg count to 4 after the (odd-length) method string, so a
    // frame cut right at the string's end forces the pad skip off the end.
    {
        let codec: Box<dyn Protocol> = Box::new(CorbaCodec::new());
        let frame = codec
            .encode_request(9, TraceContext::NONE, &call_request())
            .unwrap();
        let cut = find(&frame, method) + method.len();
        cases.push(Case {
            label: "CORBA: alignment pad past end of buffer".to_owned(),
            codec,
            frame: frame[..cut].to_vec(),
            expect: "",
        });
    }

    // A signature reference cannot be resolved without the table that saw
    // its defining frame: a decoder without one must say so, not guess.
    for codec in codecs() {
        let mut table = SigTable::new();
        let mut first = Vec::new();
        let mut second = Vec::new();
        codec
            .encode_request_into(
                1,
                TraceContext::NONE,
                &call_request(),
                Some(&mut table),
                &mut first,
            )
            .unwrap();
        codec
            .encode_request_into(
                2,
                TraceContext::NONE,
                &call_request(),
                Some(&mut table),
                &mut second,
            )
            .unwrap();
        cases.push(Case {
            label: format!("{}: sigref without a table", codec.name()),
            codec,
            frame: second,
            expect: "sigref",
        });
    }

    for case in cases {
        let got = case.codec.decode_request(&case.frame);
        let err = match got {
            Err(e) => e.to_string(),
            Ok(_) => panic!("{}: decoded a corrupt frame", case.label),
        };
        assert!(
            err.contains(case.expect),
            "{}: error {err:?} does not mention {:?}",
            case.label,
            case.expect
        );
    }
}

/// Every untrusted `u32` length prefix in the RMI binary format, corrupted
/// to claim ~4 billion elements. Each must decode to a typed error after a
/// *clamped* preallocation — an unclamped `Vec::with_capacity` here would
/// attempt a multi-gigabyte allocation and abort the process, which is the
/// regression this table exists to catch. One row per decoder site:
/// array items, object-state fields, call args, batched ops,
/// exception fields, and batched-reply ops.
#[test]
fn oversized_rmi_length_prefixes_are_clamped_at_every_site() {
    let codec = RmiCodec::new();
    let huge = u32::MAX.to_le_bytes();
    let method = b"averylongmethodname@9";

    // Request sites. Each entry: (label, frame, byte offset of the count).
    let mut request_cases: Vec<(String, Vec<u8>, usize)> = Vec::new();

    // Call arg count: follows the inline method string.
    let frame = codec
        .encode_request(9, TraceContext::NONE, &call_request())
        .unwrap();
    let at = find(&frame, method) + method.len();
    request_cases.push(("rmi: call arg count".into(), frame, at));

    // Array item count: first arg is an array — its count sits one tag
    // byte after the (method string, arg count) prefix.
    let frame = codec
        .encode_request(
            9,
            TraceContext::NONE,
            &Request::Call {
                object: 5,
                method: "averylongmethodname@9".to_owned(),
                args: vec![WireValue::Array(vec![WireValue::Int(77)])],
            },
        )
        .unwrap();
    let at = find(&frame, method) + method.len() + 4 + 1;
    request_cases.push(("rmi: array item count".into(), frame, at));

    // Object-state field count: follows the state's class string.
    let frame = codec
        .encode_request(
            9,
            TraceContext::NONE,
            &Request::Call {
                object: 5,
                method: "averylongmethodname@9".to_owned(),
                args: vec![WireValue::ObjectState {
                    class: "StateClass".to_owned(),
                    fields: vec![WireValue::Int(5)],
                }],
            },
        )
        .unwrap();
    let at = find(&frame, b"StateClass") + "StateClass".len();
    request_cases.push(("rmi: object-state field count".into(), frame, at));

    // Batch op count: sits before the first op — R_CALL tag (1) + object
    // id (8) + the method's signature marker (1) and length prefix (4).
    let frame = codec
        .encode_request(9, TraceContext::NONE, &Request::Batch(vec![call_request()]))
        .unwrap();
    let at = find(&frame, method) - 4 - 1 - 8 - 1 - 4;
    request_cases.push(("rmi: batch op count".into(), frame, at));

    for (label, mut frame, at) in request_cases {
        frame[at..at + 4].copy_from_slice(&huge);
        assert!(
            codec.decode_request(&frame).is_err(),
            "{label}: decoded a frame claiming u32::MAX elements"
        );
    }

    // Reply sites.
    let mut reply_cases: Vec<(String, Vec<u8>, usize)> = Vec::new();

    // Exception field count: follows the exception class string.
    let frame = codec
        .encode_reply(
            9,
            TraceContext::NONE,
            0,
            &Reply::Exception {
                class: "BoomError".to_owned(),
                fields: vec![WireValue::Int(1)],
            },
        )
        .unwrap();
    let at = find(&frame, b"BoomError") + "BoomError".len();
    reply_cases.push(("rmi: exception field count".into(), frame, at));

    // Batched-reply op count: sits before the first op's recognisable
    // 8-byte version stamp.
    let version = 0x0102_0304_0506_0708u64;
    let frame = codec
        .encode_reply(
            9,
            TraceContext::NONE,
            0,
            &Reply::Batch(vec![(version, Reply::Value(WireValue::Int(3)))]),
        )
        .unwrap();
    let at = find(&frame, &version.to_le_bytes()) - 4;
    reply_cases.push(("rmi: batched-reply op count".into(), frame, at));

    for (label, mut frame, at) in reply_cases {
        frame[at..at + 4].copy_from_slice(&huge);
        assert!(
            codec.decode_reply(&frame).is_err(),
            "{label}: decoded a frame claiming u32::MAX elements"
        );
    }
}

/// A reference to a signature id the table has never defined (the peer's
/// table drifted, e.g. after a reconnect) is a typed error on every codec.
#[test]
fn unknown_sigref_ids_are_rejected_on_every_codec() {
    for codec in codecs() {
        let mut encode_table = SigTable::new();
        let mut first = Vec::new();
        let mut second = Vec::new();
        codec
            .encode_request_into(
                1,
                TraceContext::NONE,
                &call_request(),
                Some(&mut encode_table),
                &mut first,
            )
            .unwrap();
        codec
            .encode_request_into(
                2,
                TraceContext::NONE,
                &call_request(),
                Some(&mut encode_table),
                &mut second,
            )
            .unwrap();

        // A *fresh* table never saw the defining frame, so every id in the
        // second frame is unknown to it.
        let mut fresh = SigTable::new();
        let header = codec.decode_request_header(&second).unwrap();
        let err = header
            .materialise(Some(&mut fresh))
            .expect_err(&format!("{}: resolved an undefined sigref", codec.name()));
        assert!(
            err.to_string().contains("sigref"),
            "{}: error {err:?} does not mention the sigref",
            codec.name()
        );
    }
}

/// The dedup fast path reads headers without materialising; a frame whose
/// header region itself is truncated must still error cleanly.
#[test]
fn truncated_headers_are_rejected_by_the_header_decoder() {
    for codec in codecs() {
        let frame = codec
            .encode_request(77, TraceContext::NONE, &call_request())
            .unwrap();
        for cut in [0, 1, 4, 8, 16, 24, 32] {
            if cut >= frame.len() {
                continue;
            }
            assert!(
                codec.decode_request_header(&frame[..cut]).is_err(),
                "{}: header decoder accepted a {cut}-byte stump",
                codec.name()
            );
        }
    }
}

/// A boolean travels in exactly two forms — byte 0 or 1 in the binary
/// codecs, `true` or `false` in SOAP — and nothing else decodes as one: a
/// corrupted boolean is a typed error, never a silent `true` or `false`.
#[test]
fn non_canonical_booleans_are_rejected_on_every_codec() {
    let call = |b| Request::Call {
        object: 5,
        method: "set@1".to_owned(),
        args: vec![WireValue::Bool(b)],
    };
    let value = |b| Reply::Value(WireValue::Bool(b));
    for codec in codecs() {
        let request = |b| codec.encode_request(9, TraceContext::NONE, &call(b));
        let reply = |b| codec.encode_reply(9, TraceContext::NONE, 0, &value(b));
        for (what, yes, no) in [
            ("request", request(true).unwrap(), request(false).unwrap()),
            ("reply", reply(true).unwrap(), reply(false).unwrap()),
        ] {
            let forgeries: Vec<(String, Vec<u8>)> = if codec.name() == "SOAP" {
                let text = String::from_utf8(yes).unwrap();
                ["banana", "TRUE", "1", " true", ""]
                    .into_iter()
                    .map(|t| (format!("{t:?}"), text.replace(">true<", &format!(">{t}<"))))
                    .map(|(label, frame)| (label, frame.into_bytes()))
                    .collect()
            } else {
                // The two frames differ in the boolean's byte alone.
                let at = (0..yes.len()).find(|&i| yes[i] != no[i]).unwrap();
                assert_eq!((yes[at], no[at]), (1, 0), "{}", codec.name());
                [2u8, 0x80, 0xFF]
                    .into_iter()
                    .map(|b| {
                        let mut frame = yes.clone();
                        frame[at] = b;
                        (format!("byte {b}"), frame)
                    })
                    .collect()
            };
            for (label, frame) in forgeries {
                let decoded = match what {
                    "request" => codec.decode_request(&frame).map(|_| ()),
                    _ => codec.decode_reply(&frame).map(|_| ()),
                };
                let err = decoded.expect_err(&format!(
                    "{}: a {what} carrying boolean {label} decoded",
                    codec.name()
                ));
                assert!(
                    err.to_string().contains("boolean"),
                    "{}: {what} with boolean {label}: {err}",
                    codec.name()
                );
            }
        }
    }
}

/// The envelope a SOAP encoder writes around `body`: message id 6, trace
/// context 1/2/0 and, on a reply, object version 4. It is the encoder's own
/// frame with its body element swapped for `body`, since the decoder reads
/// no other envelope.
fn soap_envelope(reply: bool, body: &str) -> Vec<u8> {
    let codec = SoapCodec::new();
    let ctx = TraceContext {
        trace_id: 1,
        span_id: 2,
        parent_span_id: 0,
    };
    let frame = if reply {
        codec.encode_reply(6, ctx, 4, &Reply::Value(WireValue::Null))
    } else {
        codec.encode_request(6, ctx, &Request::Promote { node: 1, object: 5 })
    };
    let frame = String::from_utf8(frame.unwrap()).unwrap();
    let (head, rest) = frame.split_once("<soap:Body>").unwrap();
    let (_, tail) = rest.rsplit_once("</soap:Body>").unwrap();
    format!("{head}<soap:Body>{body}</soap:Body>{tail}").into_bytes()
}

/// Inside `<soap:Body>` the decoder accepts what an encoder writes and
/// nothing else: text only in a scalar `<v>` and in `<faultstring>`, one
/// element where one goes, nothing around the body's element. Each shape
/// below is a typed error, never a panic and never a value the frame does
/// not spell out (`<v t="string">a<x/>b</v>` is not "ab").
#[test]
fn hostile_soap_body_shapes_are_rejected() {
    let codec = SoapCodec::new();
    let call = |args: &str| format!("<rafda:call object=\"1\" method=\"m@1\">{args}</rafda:call>");
    let int = "<v t=\"int\">1</v>";
    const PROMOTE: &str = "<rafda:promote node=\"1\" object=\"5\"/>";
    const SOURCE: &str = "srcnode=\"1\" srcobject=\"5\"";
    let requests: Vec<(&str, String)> = vec![
        ("element in a string", call("<v t=\"string\">a<x/>b</v>")),
        ("element in an int", call("<v t=\"int\">1<x/></v>")),
        ("text in a null", call("<v t=\"null\">x</v>")),
        (
            "element in a ref",
            call(&format!(
                "<v t=\"ref\" node=\"1\" object=\"2\" class=\"C\">{int}</v>"
            )),
        ),
        (
            "text between call arguments",
            call(&format!("{int}junk{int}")),
        ),
        (
            "whitespace between call arguments",
            call(&format!("{int} {int}")),
        ),
        ("text before call arguments", call(&format!("junk{int}"))),
        (
            "text in an array",
            call(&format!("<v t=\"array\">{int}x</v>")),
        ),
        (
            "text in a state",
            call(&format!("<v t=\"state\" class=\"C\">x{int}</v>")),
        ),
        ("a non-value argument", call("<w t=\"int\">1</w>")),
        ("an unclosed value", call("<v t=\"int\">1")),
        ("a mismatched close tag", call("<v t=\"int\">1</w>")),
        ("an unknown entity", call("<v t=\"string\">&bogus;</v>")),
        (
            "an unterminated entity",
            call("<v t=\"string\">a &amp b</v>"),
        ),
        (
            "text in a promote",
            "<rafda:promote node=\"1\" object=\"5\">x</rafda:promote>".into(),
        ),
        (
            "an element in a promote",
            format!("<rafda:promote node=\"1\" object=\"5\">{int}</rafda:promote>"),
        ),
        (
            "an element in a create",
            format!("<rafda:create class=\"X\" ctor=\"0\">{int}</rafda:create>"),
        ),
        (
            "text in a create",
            "<rafda:create class=\"X\">x</rafda:create>".into(),
        ),
        ("text in a batch", "<rafda:batch>x</rafda:batch>".into()),
        (
            "an install without state",
            format!("<rafda:install {SOURCE}></rafda:install>"),
        ),
        (
            "an install with two states",
            format!("<rafda:install {SOURCE}>{int}{int}</rafda:install>"),
        ),
        (
            "text after a replica state",
            format!("<rafda:replicasync object=\"1\" version=\"2\">{int}x</rafda:replicasync>"),
        ),
        ("text before the body element", format!("junk{PROMOTE}")),
        ("text after the body element", format!("{PROMOTE}junk")),
        (
            "two body elements",
            format!("{PROMOTE}<rafda:promote node=\"1\" object=\"6\"/>"),
        ),
        ("a second body", format!("{PROMOTE}</soap:Body><soap:Body>")),
        ("an empty body", String::new()),
        ("a stray close tag", "</rafda:promote>".into()),
    ];
    // Around a valid body the envelope decodes, so each row fails in its
    // body and not at the envelope.
    let (id, _, promote) = codec
        .decode_request(&soap_envelope(false, PROMOTE))
        .unwrap();
    assert_eq!((id, promote), (6, Request::Promote { node: 1, object: 5 }));
    for (label, body) in &requests {
        assert!(
            codec.decode_request(&soap_envelope(false, body)).is_err(),
            "a request with {label} decoded: {body}"
        );
    }
    let replies = [
        (
            "text in a result",
            format!("<rafda:result>x{int}</rafda:result>"),
        ),
        (
            "two results",
            format!("<rafda:result>{int}{int}</rafda:result>"),
        ),
        ("an empty result", "<rafda:result/>".into()),
        (
            "text in an exception",
            format!("<rafda:exception class=\"E\">x{int}</rafda:exception>"),
        ),
        (
            "a fault without its string",
            "<soap:Fault></soap:Fault>".into(),
        ),
        (
            "text in a fault",
            "<soap:Fault>x<faultstring>a</faultstring></soap:Fault>".into(),
        ),
        (
            "an element in a faultstring",
            "<soap:Fault><faultstring>a<b/></faultstring></soap:Fault>".into(),
        ),
        (
            "a second faultstring",
            "<soap:Fault><faultstring>a</faultstring><faultstring>b</faultstring></soap:Fault>"
                .into(),
        ),
        (
            "text in a batch result",
            "<rafda:batchresult>x</rafda:batchresult>".into(),
        ),
        (
            "an op without a reply",
            "<rafda:batchresult><rafda:op objver=\"1\"/></rafda:batchresult>".into(),
        ),
        (
            "a non-op in a batch result",
            format!("<rafda:batchresult><rafda:result>{int}</rafda:result></rafda:batchresult>"),
        ),
    ];
    for (label, body) in &replies {
        assert!(
            codec.decode_reply(&soap_envelope(true, body)).is_err(),
            "a reply with {label} decoded: {body}"
        );
    }
    // The well-formed neighbours decode, so each row fails for its own
    // reason and not for the envelope around it.
    let (_, _, args) = codec
        .decode_request(&soap_envelope(false, &call(&format!("{int}{int}"))))
        .unwrap();
    assert_eq!(
        args,
        Request::Call {
            object: 1,
            method: "m@1".into(),
            args: vec![WireValue::Int(1); 2],
        }
    );
    let fault = "<soap:Fault><faultstring>a &amp; b</faultstring></soap:Fault>";
    let (_, _, ver, reply) = codec.decode_reply(&soap_envelope(true, fault)).unwrap();
    assert_eq!((ver, reply), (4, Reply::Fault("a & b".into())));
}

/// Request tags 3 and 5 and the SOAP elements `<rafda:fetch>` and
/// `<rafda:forward>` name no request. At the top of a frame the header
/// decode rejects them; inside a batch, whose header is well formed, the
/// materialisation does. Either way the error is typed and nothing panics.
#[test]
fn unassigned_request_kinds_are_rejected_by_header_decode_and_materialise() {
    let promote = Request::Promote { node: 1, object: 5 };
    let batch = Request::Batch(vec![promote.clone()]);
    // The request tag sits right after the header: at 37 in RMI (magic 4,
    // version 1, message id 8, trace context 24), at 40 in CORBA (version
    // padded to 8). A batch's first op tag follows its u32 op count, which
    // CORBA aligns up to 44.
    for (codec, top, nested) in [
        (Box::new(RmiCodec::new()) as Box<dyn Protocol>, 37, 42),
        (Box::new(CorbaCodec::new()), 40, 48),
    ] {
        let single = codec
            .encode_request(1, TraceContext::NONE, &promote)
            .unwrap();
        let batched = codec.encode_request(1, TraceContext::NONE, &batch).unwrap();
        assert_eq!((single[top], batched[nested]), (7, 7), "{}", codec.name());
        for tag in [3u8, 5] {
            let mut frame = single.clone();
            frame[top] = tag;
            let err = codec.decode_request_header(&frame).unwrap_err();
            assert!(
                err.0.contains("unknown request tag"),
                "{}: {err}",
                codec.name()
            );
            assert!(codec.decode_request(&frame).is_err());
            let mut frame = batched.clone();
            frame[nested] = tag;
            let header = codec.decode_request_header(&frame).unwrap();
            let err = header.materialise(None).unwrap_err();
            assert!(
                err.0.contains("unknown request tag"),
                "{}: {err}",
                codec.name()
            );
        }
    }
    let codec = SoapCodec::new();
    for elem in [
        "<rafda:fetch object=\"5\"/>",
        "<rafda:forward object=\"5\" tonode=\"1\" toobject=\"6\"/>",
    ] {
        let frame = soap_envelope(false, elem);
        let err = codec.decode_request_header(&frame).unwrap_err();
        assert!(err.0.contains("unknown request"), "{elem}: {err}");
        assert!(codec.decode_request(&frame).is_err());
        let frame = soap_envelope(false, &format!("<rafda:batch>{elem}</rafda:batch>"));
        let header = codec.decode_request_header(&frame).unwrap();
        let err = header.materialise(None).unwrap_err();
        assert!(err.0.contains("unknown request"), "{elem}: {err}");
    }
}
