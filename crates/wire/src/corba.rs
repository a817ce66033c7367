//! CORBA-like codec: GIOP-style header and CDR-style aligned binary.
//!
//! The tagged frame of the RMI codec, but with natural alignment of
//! multi-byte primitives (relative to message start), which makes messages
//! somewhat larger — the classic CDR trade-off of parse speed for padding.

use crate::tagged::{BinaryCodec, Framing};

/// GIOP 1.8. Header layout, everything aligned to the message start: magic
/// 0..4, version (major, minor) 4..6, pad, message id 8..16, trace context
/// 16..40, and on replies the served object's property version 40..48.
/// ORB request brokering cost: ~60 µs per message.
pub(crate) const FRAMING: Framing = Framing {
    name: "CORBA",
    magic: b"GIOP",
    version: &[1, 8],
    overhead_ns: 60_000,
};

/// The CORBA-like protocol.
pub type CorbaCodec = BinaryCodec<true>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::RequestKind;
    use crate::sig::SigTable;
    use crate::testdata;
    use crate::{Protocol, Reply, Request, TraceContext, WireValue};

    #[test]
    fn roundtrips_all_samples() {
        testdata::assert_roundtrips(&CorbaCodec::new());
    }

    #[test]
    fn alignment_makes_corba_at_least_as_large_as_rmi() {
        let rmi = crate::RmiCodec::new();
        let corba = CorbaCodec::new();
        for req in testdata::sample_requests() {
            let r = rmi
                .encode_request(9, TraceContext::NONE, &req)
                .unwrap()
                .len();
            let c = corba
                .encode_request(9, TraceContext::NONE, &req)
                .unwrap()
                .len();
            assert!(c >= r, "corba {c} < rmi {r} for {req:?}");
        }
    }

    #[test]
    fn rejects_rmi_frames() {
        let frame = crate::RmiCodec::new()
            .encode_reply(3, TraceContext::NONE, 0, &Reply::Value(WireValue::Int(1)))
            .unwrap();
        assert!(CorbaCodec::new().decode_reply(&frame).is_err());
    }

    #[test]
    fn header_fields_sit_at_aligned_offsets() {
        let ctx = TraceContext {
            trace_id: 0xAA,
            span_id: 0xBB,
            parent_span_id: 0xCC,
        };
        let bytes = CorbaCodec::new()
            .encode_request(
                0x1122_3344_5566_7788,
                ctx,
                &Request::Promote { node: 1, object: 1 },
            )
            .unwrap();
        // 4 magic + 2 version + 2 pad, then the aligned u64 id, then the
        // three aligned u64s of the trace context.
        let id = u64::from_le_bytes(bytes[8..16].try_into().unwrap());
        assert_eq!(id, 0x1122_3344_5566_7788);
        assert_eq!(u64::from_le_bytes(bytes[16..24].try_into().unwrap()), 0xAA);
        assert_eq!(u64::from_le_bytes(bytes[24..32].try_into().unwrap()), 0xBB);
        assert_eq!(u64::from_le_bytes(bytes[32..40].try_into().unwrap()), 0xCC);
    }

    #[test]
    fn every_other_version_is_rejected() {
        let codec = CorbaCodec::new();
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
        let versions = (0..=u8::MAX)
            .map(|minor| (1, minor))
            .chain([(0, 8), (2, 8)]);
        for (major, minor) in versions {
            let accepted = [major, minor] == FRAMING.version;
            let (mut req, mut rep) = (req.clone(), rep.clone());
            req[4..6].copy_from_slice(&[major, minor]);
            rep[4..6].copy_from_slice(&[major, minor]);
            assert_eq!(
                codec.decode_request_header(&req).is_ok(),
                accepted,
                "request GIOP {major}.{minor}"
            );
            assert_eq!(
                codec.decode_reply_with(&rep, None).is_ok(),
                accepted,
                "reply GIOP {major}.{minor}"
            );
        }
    }

    #[test]
    fn interned_frames_roundtrip_aligned() {
        let codec = CorbaCodec::new();
        let req = Request::Create {
            class: "StockMarket".into(),
            ctor: 1,
            args: vec![WireValue::ObjectState {
                class: "Quote_O_Local".into(),
                fields: vec![WireValue::Int(5)],
            }],
        };
        let mut enc = SigTable::new();
        let mut dec = SigTable::new();
        let mut first = Vec::new();
        codec
            .encode_request_into(1, TraceContext::NONE, &req, Some(&mut enc), &mut first)
            .unwrap();
        let h = codec.decode_request_header(&first).unwrap();
        assert_eq!(h.kind, RequestKind::Create);
        assert_eq!(h.materialise(Some(&mut dec)).unwrap(), req);
        let mut second = Vec::new();
        codec
            .encode_request_into(2, TraceContext::NONE, &req, Some(&mut enc), &mut second)
            .unwrap();
        assert!(second.len() < first.len());
        let h2 = codec.decode_request_header(&second).unwrap();
        assert_eq!(h2.materialise(Some(&mut dec)).unwrap(), req);
    }
}
