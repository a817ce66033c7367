//! RMI-like codec: compact tagged binary, JRMP-style magic header.

use crate::tagged::{BinaryCodec, Framing};

/// Magic `JRMI`, then the version byte, then the shared header fields.
/// JRMP stacks were comparatively lean: ~40 µs per message.
pub(crate) const FRAMING: Framing = Framing {
    name: "RMI",
    magic: b"JRMI",
    version: &[8],
    overhead_ns: 40_000,
};

/// The RMI-like protocol: compact tagged binary with a JRMP-style header.
pub type RmiCodec = BinaryCodec<false>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::RequestKind;
    use crate::sig::SigTable;
    use crate::testdata;
    use crate::{Protocol, Reply, Request, TraceContext, WireValue};

    #[test]
    fn roundtrips_all_samples() {
        testdata::assert_roundtrips(&RmiCodec::new());
    }

    #[test]
    fn rejects_wrong_magic() {
        let codec = RmiCodec::new();
        let mut bytes = codec
            .encode_request(
                4,
                TraceContext::NONE,
                &Request::Promote { node: 1, object: 1 },
            )
            .unwrap();
        bytes[0] = b'X';
        assert!(codec.decode_request(&bytes).is_err());
    }

    #[test]
    fn rejects_unknown_tags() {
        let codec = RmiCodec::new();
        let mut bytes = codec
            .encode_reply(4, TraceContext::NONE, 0, &Reply::Fault("x".into()))
            .unwrap();
        // Reply tag position: magic(4) + version(1) + message id(8) + trace
        // context(24) + object version(8).
        bytes[45] = 99;
        assert!(codec.decode_reply(&bytes).is_err());
    }

    #[test]
    fn call_request_is_compact() {
        let codec = RmiCodec::new();
        let bytes = codec
            .encode_request(
                1,
                TraceContext::NONE,
                &Request::Call {
                    object: 1,
                    method: "m".into(),
                    args: vec![WireValue::Long(7)],
                },
            )
            .unwrap();
        assert!(bytes.len() < 72, "len = {}", bytes.len());
    }

    #[test]
    fn message_id_is_independent_of_body() {
        let codec = RmiCodec::new();
        let req = Request::Promote { node: 1, object: 1 };
        let a = codec.encode_request(1, TraceContext::NONE, &req).unwrap();
        let b = codec.encode_request(2, TraceContext::NONE, &req).unwrap();
        assert_ne!(a, b, "id is part of the frame");
        let (id_a, _, body_a) = codec.decode_request(&a).unwrap();
        let (id_b, _, body_b) = codec.decode_request(&b).unwrap();
        assert_eq!((id_a, id_b), (1, 2));
        assert_eq!(body_a, body_b);
    }

    #[test]
    fn every_other_version_byte_is_rejected() {
        let codec = RmiCodec::new();
        let req = codec
            .encode_request(
                9,
                TraceContext::NONE,
                &Request::Promote { node: 1, object: 2 },
            )
            .unwrap();
        let rep = codec
            .encode_reply(9, TraceContext::NONE, 3, &Reply::Value(WireValue::Int(3)))
            .unwrap();
        for version in 0..=u8::MAX {
            let accepted = [version] == FRAMING.version;
            let (mut req, mut rep) = (req.clone(), rep.clone());
            (req[4], rep[4]) = (version, version);
            assert_eq!(
                codec.decode_request_header(&req).is_ok(),
                accepted,
                "request version {version}"
            );
            assert_eq!(
                codec.decode_reply_with(&rep, None).is_ok(),
                accepted,
                "reply version {version}"
            );
        }
    }

    #[test]
    fn interned_frames_roundtrip_and_shrink() {
        let codec = RmiCodec::new();
        let req = Request::Call {
            object: 4,
            method: "observe_price@17".into(),
            args: vec![WireValue::Remote {
                node: 1,
                object: 9,
                class: "StockMarket".into(),
            }],
        };
        let mut enc = SigTable::new();
        let mut dec = SigTable::new();
        let mut first = Vec::new();
        codec
            .encode_request_into(1, TraceContext::NONE, &req, Some(&mut enc), &mut first)
            .unwrap();
        let h = codec.decode_request_header(&first).unwrap();
        assert_eq!((h.msg_id, h.kind), (1, RequestKind::Call));
        assert_eq!(h.materialise(Some(&mut dec)).unwrap(), req);
        assert_eq!(dec.len(), 2, "method and class interned on decode");

        let mut second = Vec::new();
        codec
            .encode_request_into(2, TraceContext::NONE, &req, Some(&mut enc), &mut second)
            .unwrap();
        assert!(
            second.len() < first.len(),
            "second frame refs instead of re-sending strings: {} vs {}",
            second.len(),
            first.len()
        );
        let h2 = codec.decode_request_header(&second).unwrap();
        assert_eq!(h2.materialise(Some(&mut dec)).unwrap(), req);
        assert_eq!((enc.defs(), enc.refs()), (2, 2));
    }

    #[test]
    fn sigref_without_table_is_rejected_not_guessed() {
        let codec = RmiCodec::new();
        let mut enc = SigTable::new();
        let req = Request::Discover {
            class: "Stock".into(),
        };
        let mut define = Vec::new();
        codec
            .encode_request_into(1, TraceContext::NONE, &req, Some(&mut enc), &mut define)
            .unwrap();
        let mut reffed = Vec::new();
        codec
            .encode_request_into(2, TraceContext::NONE, &req, Some(&mut enc), &mut reffed)
            .unwrap();
        // The define frame is self-contained: it decodes without a table.
        assert_eq!(codec.decode_request(&define).unwrap().2, req);
        // The reference frame is only meaningful against the link table.
        let err = codec.decode_request(&reffed).unwrap_err();
        assert!(err.0.contains("sigref"), "got: {err}");
    }

    #[test]
    fn header_decode_matches_full_decode() {
        let codec = RmiCodec::new();
        for (i, req) in testdata::sample_requests().into_iter().enumerate() {
            let ctx = TraceContext {
                trace_id: i as u64,
                span_id: 1,
                parent_span_id: 0,
            };
            let bytes = codec.encode_request(i as u64, ctx, &req).unwrap();
            let (id, fctx, full) = codec.decode_request(&bytes).unwrap();
            let h = codec.decode_request_header(&bytes).unwrap();
            assert_eq!((h.msg_id, h.ctx), (id, fctx));
            assert_eq!(h.kind, RequestKind::of(&req));
            assert_eq!(h.materialise(None).unwrap(), full);
        }
    }
}
