//! Known-answer tests: exact byte / text snapshots of each codec, so the
//! wire formats cannot drift silently (two nodes of different builds must
//! interoperate).

use rafda_wire::{
    CorbaCodec, Protocol, Reply, Request, RmiCodec, SoapCodec, TraceContext, WireValue,
};

fn call_request() -> Request {
    Request::Call {
        object: 5,
        method: "tick@7".to_owned(),
        args: vec![WireValue::Long(258), WireValue::Bool(true)],
    }
}

fn sample_ctx() -> TraceContext {
    TraceContext {
        trace_id: 0x0B,
        span_id: 0x0C,
        parent_span_id: 0x0A,
    }
}

#[test]
fn rmi_request_bytes_are_stable() {
    let bytes = RmiCodec::new()
        .encode_request(0x0102, sample_ctx(), &call_request())
        .unwrap();
    let expected: Vec<u8> = vec![
        b'J', b'R', b'M', b'I', // magic
        8,    // version
        0x02, 0x01, 0, 0, 0, 0, 0, 0, // message id u64 LE
        0x0B, 0, 0, 0, 0, 0, 0, 0, // trace id u64 LE
        0x0C, 0, 0, 0, 0, 0, 0, 0, // span id u64 LE
        0x0A, 0, 0, 0, 0, 0, 0, 0, // parent span id u64 LE
        0, // R_CALL
        5, 0, 0, 0, 0, 0, 0, 0, // object id u64 LE
        0, // SIG_INLINE
        6, 0, 0, 0, // method length u32
        b't', b'i', b'c', b'k', b'@', b'7', // method
        2, 0, 0, 0, // argc
        3, // T_LONG
        2, 1, 0, 0, 0, 0, 0, 0, // 258 LE
        1, // T_BOOL
        1, // true
    ];
    assert_eq!(bytes, expected);
}

#[test]
fn rmi_reply_bytes_are_stable() {
    let bytes = RmiCodec::new()
        .encode_reply(7, TraceContext::NONE, 9, &Reply::Value(WireValue::Int(-1)))
        .unwrap();
    let expected: Vec<u8> = vec![
        b'J', b'R', b'M', b'I', 8, // version
        7, 0, 0, 0, 0, 0, 0, 0, // message id u64 LE
        0, 0, 0, 0, 0, 0, 0, 0, // trace id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // span id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // parent span id (NONE)
        9, 0, 0, 0, 0, 0, 0, 0, // object property version u64 LE
        0, // P_VALUE
        2, // T_INT
        0xFF, 0xFF, 0xFF, 0xFF,
    ];
    assert_eq!(bytes, expected);
}

#[test]
fn corba_header_and_alignment_are_stable() {
    let bytes = CorbaCodec::new()
        .encode_request(7, sample_ctx(), &Request::Fetch { object: 1 })
        .unwrap();
    // "GIOP" + version 1.8, pad to 8, message id u64, trace context (3×u64)
    // at 16..40, tag R_FETCH(3) at 40, pad to 48, object u64.
    assert_eq!(&bytes[..6], b"GIOP\x01\x08");
    assert_eq!(&bytes[6..8], &[0, 0], "alignment pad before id");
    assert_eq!(&bytes[8..16], &7u64.to_le_bytes());
    assert_eq!(&bytes[16..24], &0x0Bu64.to_le_bytes());
    assert_eq!(&bytes[24..32], &0x0Cu64.to_le_bytes());
    assert_eq!(&bytes[32..40], &0x0Au64.to_le_bytes());
    assert_eq!(bytes[40], 3);
    assert_eq!(&bytes[41..48], &[0; 7], "alignment pad before object");
    assert_eq!(&bytes[48..56], &1u64.to_le_bytes());
    assert_eq!(bytes.len(), 56);
}

fn replica_sync_request() -> Request {
    Request::ReplicaSync {
        object: 3,
        version: 2,
        state: WireValue::ObjectState {
            class: "C".to_owned(),
            fields: vec![WireValue::Int(7)],
        },
    }
}

#[test]
fn rmi_replica_sync_bytes_are_stable() {
    let bytes = RmiCodec::new()
        .encode_request(1, TraceContext::NONE, &replica_sync_request())
        .unwrap();
    let expected: Vec<u8> = vec![
        b'J', b'R', b'M', b'I', 8, // version
        1, 0, 0, 0, 0, 0, 0, 0, // message id u64 LE
        0, 0, 0, 0, 0, 0, 0, 0, // trace id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // span id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // parent span id (NONE)
        6, // R_REPLICA
        3, 0, 0, 0, 0, 0, 0, 0, // object id u64 LE
        2, 0, 0, 0, 0, 0, 0, 0, // snapshot version u64 LE
        9, // T_STATE
        0, // SIG_INLINE
        1, 0, 0, 0,    // class name length u32
        b'C', // class name
        1, 0, 0, 0, // field count u32
        2, // T_INT
        7, 0, 0, 0, // 7 LE
    ];
    assert_eq!(bytes, expected);
}

#[test]
fn rmi_promote_bytes_are_stable() {
    let bytes = RmiCodec::new()
        .encode_request(
            1,
            TraceContext::NONE,
            &Request::Promote { node: 4, object: 9 },
        )
        .unwrap();
    let expected: Vec<u8> = vec![
        b'J', b'R', b'M', b'I', 8, // version
        1, 0, 0, 0, 0, 0, 0, 0, // message id u64 LE
        0, 0, 0, 0, 0, 0, 0, 0, // trace id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // span id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // parent span id (NONE)
        7, // R_PROMOTE
        4, 0, 0, 0, // crashed node u32 LE
        9, 0, 0, 0, 0, 0, 0, 0, // its export id u64 LE
    ];
    assert_eq!(bytes, expected);
}

#[test]
fn corba_promote_alignment_is_stable() {
    let bytes = CorbaCodec::new()
        .encode_request(7, sample_ctx(), &Request::Promote { node: 4, object: 9 })
        .unwrap();
    // Header as for any request, then tag R_PROMOTE(7) at 40, the node u32
    // aligned up to 44, the object u64 aligned up to 48.
    assert_eq!(&bytes[..6], b"GIOP\x01\x08");
    assert_eq!(bytes[40], 7);
    assert_eq!(&bytes[41..44], &[0; 3], "alignment pad before node");
    assert_eq!(&bytes[44..48], &4u32.to_le_bytes());
    assert_eq!(&bytes[48..56], &9u64.to_le_bytes());
    assert_eq!(bytes.len(), 56);
}

#[test]
fn corba_replica_sync_roundtrips_with_known_header() {
    let bytes = CorbaCodec::new()
        .encode_request(7, sample_ctx(), &replica_sync_request())
        .unwrap();
    assert_eq!(&bytes[..6], b"GIOP\x01\x08");
    assert_eq!(bytes[40], 6, "R_REPLICA tag");
    // Object and snapshot version at 48..64, then T_STATE, the class name's
    // SIG_INLINE marker, and its length aligned up to 68.
    assert_eq!(&bytes[64..68], &[9, 0, 0, 0]);
    assert_eq!(&bytes[68..73], &[1, 0, 0, 0, b'C']);
    let (id, ctx, req) = CorbaCodec::new().decode_request(&bytes).unwrap();
    assert_eq!((id, ctx), (7, sample_ctx()));
    assert_eq!(req, replica_sync_request());
}

#[test]
fn soap_replica_sync_text_is_stable() {
    let xml = String::from_utf8(
        SoapCodec::new()
            .encode_request(1, sample_ctx(), &replica_sync_request())
            .unwrap(),
    )
    .unwrap();
    assert!(
        xml.contains(
            "<soap:Body><rafda:replicasync object=\"3\" version=\"2\">\
             <v t=\"state\" class=\"C\"><v t=\"int\">7</v></v></rafda:replicasync></soap:Body>"
        ),
        "{xml}"
    );
    let (_, _, back) = SoapCodec::new().decode_request(xml.as_bytes()).unwrap();
    assert_eq!(back, replica_sync_request());
}

#[test]
fn soap_promote_text_is_stable() {
    let xml = String::from_utf8(
        SoapCodec::new()
            .encode_request(1, sample_ctx(), &Request::Promote { node: 4, object: 9 })
            .unwrap(),
    )
    .unwrap();
    assert!(
        xml.contains("<soap:Body><rafda:promote node=\"4\" object=\"9\"/></soap:Body>"),
        "{xml}"
    );
    let (_, _, back) = SoapCodec::new().decode_request(xml.as_bytes()).unwrap();
    assert_eq!(back, Request::Promote { node: 4, object: 9 });
}

#[test]
fn verbatim_soap_envelopes_decode() {
    // Verbatim envelopes carrying exactly the header set an encoder
    // writes (mid + trace, plus objver on the reply) decode from text we
    // did not just produce ourselves.
    let req = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
               <soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\" \
               xmlns:rafda=\"http://rafda.dcs.st-and.ac.uk/ns/2003\">\n\
               <soap:Header><rafda:mid>12</rafda:mid>\
               <rafda:trace id=\"11\" span=\"12\" parent=\"10\"/></soap:Header>\n\
               <soap:Body><rafda:discover class=\"X\"/></soap:Body>\n\
               </soap:Envelope>\n";
    let (id, ctx, body) = SoapCodec::new().decode_request(req.as_bytes()).unwrap();
    assert_eq!((id, ctx), (12, sample_ctx()));
    assert_eq!(
        body,
        Request::Discover {
            class: "X".to_owned()
        }
    );
    let rep = "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
               <soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\" \
               xmlns:rafda=\"http://rafda.dcs.st-and.ac.uk/ns/2003\">\n\
               <soap:Header><rafda:mid>12</rafda:mid>\
               <rafda:trace id=\"11\" span=\"12\" parent=\"10\"/>\
               <rafda:objver>19</rafda:objver></soap:Header>\n\
               <soap:Body><rafda:result><v t=\"int\">9</v></rafda:result></soap:Body>\n\
               </soap:Envelope>\n";
    let (id, ctx, ver, reply) = SoapCodec::new().decode_reply(rep.as_bytes()).unwrap();
    assert_eq!((id, ctx, ver), (12, sample_ctx(), 19));
    assert_eq!(reply, Reply::Value(WireValue::Int(9)));
}

#[test]
fn soap_request_text_is_stable() {
    let xml = String::from_utf8(
        SoapCodec::new()
            .encode_request(
                12,
                sample_ctx(),
                &Request::Discover {
                    class: "X".to_owned(),
                },
            )
            .unwrap(),
    )
    .unwrap();
    assert_eq!(
        xml,
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
         <soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\" \
         xmlns:rafda=\"http://rafda.dcs.st-and.ac.uk/ns/2003\">\n\
         <soap:Header><rafda:mid>12</rafda:mid>\
         <rafda:trace id=\"11\" span=\"12\" parent=\"10\"/></soap:Header>\n\
         <soap:Body><rafda:discover class=\"X\"/></soap:Body>\n\
         </soap:Envelope>\n"
    );
}

#[test]
fn soap_value_markup_is_stable() {
    let xml = String::from_utf8(
        SoapCodec::new()
            .encode_reply(
                0,
                TraceContext::NONE,
                0,
                &Reply::Value(WireValue::Array(vec![
                    WireValue::Int(1),
                    WireValue::Str("a<b".to_owned()),
                    WireValue::Remote {
                        node: 2,
                        object: 9,
                        class: "C_O_Local".to_owned(),
                    },
                ])),
            )
            .unwrap(),
    )
    .unwrap();
    assert!(
        xml.contains(
            "<rafda:result><v t=\"array\"><v t=\"int\">1</v><v t=\"string\">a&lt;b</v>\
         <v t=\"ref\" node=\"2\" object=\"9\" class=\"C_O_Local\"/></v></rafda:result>"
        ),
        "{xml}"
    );
}

#[test]
fn message_ids_and_contexts_roundtrip_through_every_codec() {
    for codec in [
        Box::new(RmiCodec::new()) as Box<dyn Protocol>,
        Box::new(CorbaCodec::new()),
        Box::new(SoapCodec::new()),
    ] {
        for id in [0u64, 1, 255, 1 << 32, u64::MAX] {
            let ctx = TraceContext {
                trace_id: id ^ 0x5A,
                span_id: id.wrapping_add(1),
                parent_span_id: id / 2,
            };
            let req = codec.encode_request(id, ctx, &call_request()).unwrap();
            let (back, back_ctx, body) = codec.decode_request(&req).unwrap();
            assert_eq!(back, id, "{} request id", codec.name());
            assert_eq!(back_ctx, ctx, "{} request ctx", codec.name());
            assert_eq!(body, call_request());
            let ver = id ^ 0x33;
            let rep = codec
                .encode_reply(id, ctx, ver, &Reply::Fault("f".to_owned()))
                .unwrap();
            let (back, back_ctx, back_ver, _) = codec.decode_reply(&rep).unwrap();
            assert_eq!(back, id, "{} reply id", codec.name());
            assert_eq!(back_ctx, ctx, "{} reply ctx", codec.name());
            assert_eq!(back_ver, ver, "{} reply object version", codec.name());
        }
    }
}

#[test]
fn cross_codec_frames_are_rejected() {
    let rmi_frame = RmiCodec::new()
        .encode_request(1, TraceContext::NONE, &call_request())
        .unwrap();
    let soap_frame = SoapCodec::new()
        .encode_request(1, TraceContext::NONE, &call_request())
        .unwrap();
    let corba_frame = CorbaCodec::new()
        .encode_request(1, TraceContext::NONE, &call_request())
        .unwrap();
    assert!(CorbaCodec::new().decode_request(&rmi_frame).is_err());
    assert!(RmiCodec::new().decode_request(&corba_frame).is_err());
    assert!(RmiCodec::new().decode_request(&soap_frame).is_err());
    assert!(SoapCodec::new().decode_request(&rmi_frame).is_err());
}

#[test]
fn empty_and_min_size_frames() {
    for codec in [
        Box::new(RmiCodec::new()) as Box<dyn Protocol>,
        Box::new(CorbaCodec::new()),
        Box::new(SoapCodec::new()),
    ] {
        assert!(codec.decode_request(&[]).is_err());
        assert!(codec.decode_reply(&[]).is_err());
        assert!(codec.decode_request(&[0u8; 3]).is_err());
    }
}

fn batch_request() -> Request {
    Request::Batch(vec![
        Request::Call {
            object: 3,
            method: "set_x@2".to_owned(),
            args: vec![WireValue::Int(9)],
        },
        Request::Fetch { object: 3 },
    ])
}

#[test]
fn rmi_batch_bytes_are_stable() {
    let bytes = RmiCodec::new()
        .encode_request(1, TraceContext::NONE, &batch_request())
        .unwrap();
    let expected: Vec<u8> = vec![
        b'J', b'R', b'M', b'I', 8, // version
        1, 0, 0, 0, 0, 0, 0, 0, // message id u64 LE
        0, 0, 0, 0, 0, 0, 0, 0, // trace id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // span id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // parent span id (NONE)
        8, // R_BATCH
        2, 0, 0, 0, // op count u32
        0, // R_CALL
        3, 0, 0, 0, 0, 0, 0, 0, // object id u64 LE
        0, // SIG_INLINE
        7, 0, 0, 0, // method length u32
        b's', b'e', b't', b'_', b'x', b'@', b'2', // method
        1, 0, 0, 0, // argc
        2, // T_INT
        9, 0, 0, 0, // 9 LE
        3, // R_FETCH
        3, 0, 0, 0, 0, 0, 0, 0, // object id u64 LE
    ];
    assert_eq!(bytes, expected);
}

#[test]
fn rmi_batch_reply_bytes_are_stable() {
    let reply = Reply::Batch(vec![
        (4, Reply::Value(WireValue::Null)),
        (0, Reply::Fault("x".to_owned())),
    ]);
    let bytes = RmiCodec::new()
        .encode_reply(1, TraceContext::NONE, 0, &reply)
        .unwrap();
    let expected: Vec<u8> = vec![
        b'J', b'R', b'M', b'I', 8, // version
        1, 0, 0, 0, 0, 0, 0, 0, // message id u64 LE
        0, 0, 0, 0, 0, 0, 0, 0, // trace id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // span id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // parent span id (NONE)
        0, 0, 0, 0, 0, 0, 0, 0, // outer object version (batches carry none)
        3, // P_BATCH
        2, 0, 0, 0, // op count u32
        4, 0, 0, 0, 0, 0, 0, 0, // op 0 object version u64 LE
        0, // P_VALUE
        0, // T_NULL
        0, 0, 0, 0, 0, 0, 0, 0, // op 1 object version u64 LE
        2, // P_FAULT
        1, 0, 0, 0,    // fault length u32
        b'x', // fault text
    ];
    assert_eq!(bytes, expected);
}

#[test]
fn corba_batch_roundtrips_with_known_header() {
    let bytes = CorbaCodec::new()
        .encode_request(7, sample_ctx(), &batch_request())
        .unwrap();
    assert_eq!(&bytes[..6], b"GIOP\x01\x08");
    assert_eq!(bytes[40], 8, "R_BATCH tag");
    let (id, ctx, req) = CorbaCodec::new().decode_request(&bytes).unwrap();
    assert_eq!((id, ctx), (7, sample_ctx()));
    assert_eq!(req, batch_request());
}

#[test]
fn soap_batch_text_is_stable() {
    let xml = String::from_utf8(
        SoapCodec::new()
            .encode_request(1, sample_ctx(), &batch_request())
            .unwrap(),
    )
    .unwrap();
    assert!(
        xml.contains(
            "<soap:Body><rafda:batch>\
             <rafda:call object=\"3\" method=\"set_x@2\"><v t=\"int\">9</v></rafda:call>\
             <rafda:fetch object=\"3\"/>\
             </rafda:batch></soap:Body>"
        ),
        "{xml}"
    );
    let (_, _, back) = SoapCodec::new().decode_request(xml.as_bytes()).unwrap();
    assert_eq!(back, batch_request());
}

#[test]
fn soap_batch_reply_text_is_stable() {
    let reply = Reply::Batch(vec![
        (4, Reply::Value(WireValue::Null)),
        (0, Reply::Fault("x".to_owned())),
    ]);
    let xml = String::from_utf8(
        SoapCodec::new()
            .encode_reply(1, sample_ctx(), 0, &reply)
            .unwrap(),
    )
    .unwrap();
    assert!(
        xml.contains(
            "<soap:Body><rafda:batchresult>\
             <rafda:op objver=\"4\"><rafda:result><v t=\"null\"/></rafda:result></rafda:op>\
             <rafda:op objver=\"0\"><soap:Fault><faultstring>x</faultstring></soap:Fault></rafda:op>\
             </rafda:batchresult></soap:Body>"
        ),
        "{xml}"
    );
    let (_, _, _, back) = SoapCodec::new().decode_reply(xml.as_bytes()).unwrap();
    assert_eq!(back, reply);
}
