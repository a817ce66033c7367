//! CORBA-like codec: GIOP-style header and CDR-style aligned binary.
//!
//! Reuses the tag layout of the RMI codec but with natural alignment of
//! multi-byte primitives (relative to message start), which makes messages
//! somewhat larger — the classic CDR trade-off of parse speed for padding.
//!
//! The body readers are shared with the RMI codec, so the untrusted-length
//! preallocation caps (`rmi::MAX_PREALLOC_*`) bound GIOP decoding too.

use crate::binary::{BinReader, BinWriter};
use crate::frame::FrameHeader;
use crate::sig::SigTable;
use crate::{rmi, Protocol, Reply, Request, TraceContext, WireError};

const MAGIC: &[u8] = b"GIOP";
// GIOP 1.7 (stateless) and 1.8 (signature interning against the link's
// `SigTable`, emitted exactly when a table is supplied) are the two
// versions an encoder emits and the only two a decoder accepts. Header
// layout, everything aligned to the message start: magic 0..4, version
// 4..6, pad, message id 8..16, trace context 16..40, and on replies the
// served object's property version 40..48.
const MAJOR: u8 = 1;
const MINOR: u8 = 7;
const MINOR_SIG: u8 = 8;

/// The CORBA-like protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct CorbaCodec;

impl CorbaCodec {
    /// Create the codec.
    pub fn new() -> Self {
        CorbaCodec
    }
}

impl Protocol for CorbaCodec {
    fn name(&self) -> &'static str {
        "CORBA"
    }

    fn encode_request_into(
        &self,
        id: u64,
        ctx: TraceContext,
        req: &Request,
        mut sigs: Option<&mut SigTable>,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        let mut w = BinWriter::reuse_aligned(std::mem::take(out));
        let minor = if sigs.is_some() { MINOR_SIG } else { MINOR };
        w.raw(MAGIC).raw(&[MAJOR, minor]).u64(id);
        rmi::write_ctx(&mut w, ctx);
        rmi::write_request(&mut w, req, &mut sigs);
        *out = w.finish()?;
        Ok(())
    }

    fn decode_request_header<'a>(&self, bytes: &'a [u8]) -> Result<FrameHeader<'a>, WireError> {
        let mut r = BinReader::aligned(bytes);
        r.expect(MAGIC)?;
        r.expect(&[MAJOR])?;
        let sigged = rmi::frame_is_sigged(r.u8()?, MINOR, MINOR_SIG)?;
        let id = r.u64()?;
        let ctx = rmi::read_ctx(&mut r)?;
        rmi::binary_header(bytes, &mut r, id, ctx, true, sigged)
    }

    fn encode_reply_into(
        &self,
        id: u64,
        ctx: TraceContext,
        obj_version: u64,
        reply: &Reply,
        mut sigs: Option<&mut SigTable>,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        let mut w = BinWriter::reuse_aligned(std::mem::take(out));
        let minor = if sigs.is_some() { MINOR_SIG } else { MINOR };
        w.raw(MAGIC).raw(&[MAJOR, minor]).u64(id);
        rmi::write_ctx(&mut w, ctx);
        w.u64(obj_version);
        rmi::write_reply(&mut w, reply, &mut sigs);
        *out = w.finish()?;
        Ok(())
    }

    fn decode_reply_with(
        &self,
        bytes: &[u8],
        mut sigs: Option<&mut SigTable>,
    ) -> Result<(u64, TraceContext, u64, Reply), WireError> {
        let mut r = BinReader::aligned(bytes);
        r.expect(MAGIC)?;
        r.expect(&[MAJOR])?;
        let sigged = rmi::frame_is_sigged(r.u8()?, MINOR, MINOR_SIG)?;
        let id = r.u64()?;
        let ctx = rmi::read_ctx(&mut r)?;
        let obj_version = r.u64()?;
        let reply = rmi::read_reply(&mut r, sigged, &mut sigs)?;
        Ok((id, ctx, obj_version, reply))
    }

    /// ORB request brokering cost: ~60 µs per message.
    fn overhead_ns(&self) -> u64 {
        60_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::RequestKind;
    use crate::testdata;
    use crate::WireValue;

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
            .encode_request(0x1122_3344_5566_7788, ctx, &Request::Fetch { object: 1 })
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
    fn minor_7_frames_decode_unchanged() {
        // Minor 8 differs only in how signature strings are written, and is
        // used only when a table is negotiated; stateless encode is minor 7
        // and those frames decode the same with or without a decode-side
        // table.
        let codec = CorbaCodec::new();
        let req = Request::Discover {
            class: "Stock".into(),
        };
        let bytes = codec.encode_request(3, TraceContext::NONE, &req).unwrap();
        assert_eq!(bytes[5], 7, "stateless encode stays at minor 7");
        let mut table = SigTable::new();
        let header = codec.decode_request_header(&bytes).unwrap();
        assert_eq!(header.materialise(Some(&mut table)).unwrap(), req);
        assert!(table.is_empty(), "minor-7 frames never intern");
    }

    #[test]
    fn every_other_version_is_rejected() {
        let codec = CorbaCodec::new();
        let req = codec
            .encode_request(9, TraceContext::NONE, &Request::Fetch { object: 2 })
            .unwrap();
        let rep = codec
            .encode_reply(9, TraceContext::NONE, 3, &Reply::Value(WireValue::Int(3)))
            .unwrap();
        let versions = (0..=u8::MAX)
            .map(|minor| (MAJOR, minor))
            .chain([(0, MINOR), (2, MINOR)]);
        for (major, minor) in versions {
            let accepted = major == MAJOR && (minor == MINOR || minor == MINOR_SIG);
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
    fn sigged_frames_roundtrip_aligned() {
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
        assert_eq!(first[5], 8, "sigged frames are minor 8");
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
