//! RMI-like codec: compact tagged binary, JRMP-style magic header.

use crate::binary::{BinReader, BinWriter};
use crate::frame::{FrameHeader, Payload, RequestKind};
use crate::sig::{SigEnc, SigTable};
use crate::{Protocol, Reply, Request, TraceContext, WireError, WireValue};

const MAGIC: &[u8] = b"JRMI";
// The two frame versions an encoder emits, and the only two a decoder
// accepts (both ends of every link are this code). Version 7 is stateless.
// Version 8 interns signature-position strings (method descriptors and
// class names, never payload `Str` values): each is prefixed with a marker
// byte — inline-and-define, or a u32 reference into the link's `SigTable`
// — and is emitted exactly when a table is supplied.
const VERSION: u8 = 7;
const VERSION_SIG: u8 = 8;

// Signature markers (version 8 only).
const SIG_INLINE: u8 = 0;
const SIG_REF: u8 = 1;

/// Decoder preallocation caps for untrusted length fields: a corrupt or
/// adversarial count can claim up to `u32::MAX` elements, so
/// `Vec::with_capacity` is clamped and the vector grows only as elements
/// actually parse. Shared by the RMI and GIOP codecs (GIOP delegates its
/// body to these readers).
pub(crate) const MAX_PREALLOC_VALUES: usize = 1024;
pub(crate) const MAX_PREALLOC_OPS: usize = 256;

/// Whether a frame whose version byte is `version` interns its signatures.
/// `stateless` and `sigged` are the codec's two version bytes; any other
/// byte is a frame no encoder produces, and is rejected.
pub(crate) fn frame_is_sigged(version: u8, stateless: u8, sigged: u8) -> Result<bool, WireError> {
    match version {
        v if v == stateless => Ok(false),
        v if v == sigged => Ok(true),
        v => Err(WireError::new(format!("unsupported frame version {v}"))),
    }
}

pub(crate) fn write_ctx(w: &mut BinWriter, ctx: TraceContext) {
    w.u64(ctx.trace_id).u64(ctx.span_id).u64(ctx.parent_span_id);
}

pub(crate) fn read_ctx(r: &mut BinReader<'_>) -> Result<TraceContext, WireError> {
    Ok(TraceContext {
        trace_id: r.u64()?,
        span_id: r.u64()?,
        parent_span_id: r.u64()?,
    })
}

/// Option<&mut SigTable> threaded through the recursive writers/readers.
/// Held by mutable reference so recursion does not consume the option.
pub(crate) type Sigs<'t, 's> = &'t mut Option<&'s mut SigTable>;

/// Write a signature-position string: plain when no table is negotiated,
/// marker-prefixed (define-inline or reference) under version 8.
fn write_sig(w: &mut BinWriter, s: &str, sigs: Sigs<'_, '_>) {
    match sigs.as_deref_mut() {
        None => {
            w.string(s);
        }
        Some(t) => match t.encode_sig(s) {
            SigEnc::Ref(id) => {
                w.u8(SIG_REF).u32(id);
            }
            SigEnc::Inline => {
                w.u8(SIG_INLINE).string(s);
            }
        },
    }
}

/// Read a signature-position string. `sigged` frames (v8) carry a marker;
/// stateless frames carry the plain string. Inline signatures are interned
/// into the table (mirroring the encoder's define-on-first-use), and
/// references are resolved from it — a reference without a table is an
/// error, since only the table that saw the defining frame can expand it.
fn read_sig(r: &mut BinReader<'_>, sigged: bool, sigs: Sigs<'_, '_>) -> Result<String, WireError> {
    if !sigged {
        return r.string();
    }
    match r.u8()? {
        SIG_INLINE => {
            let s = r.string()?;
            if let Some(t) = sigs.as_deref_mut() {
                t.intern(&s);
            }
            Ok(s)
        }
        SIG_REF => {
            let id = r.u32()?;
            match sigs.as_deref_mut() {
                Some(t) => Ok(t.resolve(id)?.to_owned()),
                None => Err(WireError::new(format!(
                    "sigref {id} without a negotiated table"
                ))),
            }
        }
        m => Err(WireError::new(format!("unknown sig marker {m}"))),
    }
}

// Value tags.
const T_NULL: u8 = 0;
const T_BOOL: u8 = 1;
const T_INT: u8 = 2;
const T_LONG: u8 = 3;
const T_FLOAT: u8 = 4;
const T_DOUBLE: u8 = 5;
const T_STR: u8 = 6;
const T_REMOTE: u8 = 7;
const T_ARRAY: u8 = 8;
const T_STATE: u8 = 9;

// Request tags.
const R_CALL: u8 = 0;
const R_CREATE: u8 = 1;
const R_DISCOVER: u8 = 2;
const R_FETCH: u8 = 3;
const R_INSTALL: u8 = 4;
const R_FORWARD: u8 = 5;
const R_REPLICA: u8 = 6;
const R_PROMOTE: u8 = 7;
const R_BATCH: u8 = 8;

// Reply tags.
const P_VALUE: u8 = 0;
const P_EXCEPTION: u8 = 1;
const P_FAULT: u8 = 2;
const P_BATCH: u8 = 3;

fn request_kind(tag: u8) -> Result<RequestKind, WireError> {
    Ok(match tag {
        R_CALL => RequestKind::Call,
        R_CREATE => RequestKind::Create,
        R_DISCOVER => RequestKind::Discover,
        R_FETCH => RequestKind::Fetch,
        R_INSTALL => RequestKind::Install,
        R_FORWARD => RequestKind::Forward,
        R_REPLICA => RequestKind::ReplicaSync,
        R_PROMOTE => RequestKind::Promote,
        R_BATCH => RequestKind::Batch,
        tag => return Err(WireError::new(format!("unknown request tag {tag}"))),
    })
}

pub(crate) fn write_value(w: &mut BinWriter, v: &WireValue, sigs: Sigs<'_, '_>) {
    match v {
        WireValue::Null => {
            w.u8(T_NULL);
        }
        WireValue::Bool(b) => {
            w.u8(T_BOOL).u8(u8::from(*b));
        }
        WireValue::Int(i) => {
            w.u8(T_INT).i32(*i);
        }
        WireValue::Long(i) => {
            w.u8(T_LONG).i64(*i);
        }
        WireValue::Float(x) => {
            w.u8(T_FLOAT).f32(*x);
        }
        WireValue::Double(x) => {
            w.u8(T_DOUBLE).f64(*x);
        }
        WireValue::Str(s) => {
            w.u8(T_STR).string(s);
        }
        WireValue::Remote {
            node,
            object,
            class,
        } => {
            w.u8(T_REMOTE).u32(*node).u64(*object);
            write_sig(w, class, sigs);
        }
        WireValue::Array(items) => {
            w.u8(T_ARRAY).len_u32(items.len());
            for item in items {
                write_value(w, item, sigs);
            }
        }
        WireValue::ObjectState { class, fields } => {
            w.u8(T_STATE);
            write_sig(w, class, sigs);
            w.len_u32(fields.len());
            for f in fields {
                write_value(w, f, sigs);
            }
        }
    }
}

pub(crate) fn read_value(
    r: &mut BinReader<'_>,
    sigged: bool,
    sigs: Sigs<'_, '_>,
) -> Result<WireValue, WireError> {
    Ok(match r.u8()? {
        T_NULL => WireValue::Null,
        T_BOOL => WireValue::Bool(r.u8()? != 0),
        T_INT => WireValue::Int(r.i32()?),
        T_LONG => WireValue::Long(r.i64()?),
        T_FLOAT => WireValue::Float(r.f32()?),
        T_DOUBLE => WireValue::Double(r.f64()?),
        T_STR => WireValue::Str(r.string()?),
        T_REMOTE => WireValue::Remote {
            node: r.u32()?,
            object: r.u64()?,
            class: read_sig(r, sigged, sigs)?,
        },
        T_ARRAY => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(MAX_PREALLOC_VALUES));
            for _ in 0..n {
                items.push(read_value(r, sigged, sigs)?);
            }
            WireValue::Array(items)
        }
        T_STATE => {
            let class = read_sig(r, sigged, sigs)?;
            let n = r.u32()? as usize;
            let mut fields = Vec::with_capacity(n.min(MAX_PREALLOC_VALUES));
            for _ in 0..n {
                fields.push(read_value(r, sigged, sigs)?);
            }
            WireValue::ObjectState { class, fields }
        }
        tag => return Err(WireError::new(format!("unknown value tag {tag}"))),
    })
}

pub(crate) fn write_request(w: &mut BinWriter, req: &Request, sigs: Sigs<'_, '_>) {
    match req {
        Request::Call {
            object,
            method,
            args,
        } => {
            w.u8(R_CALL).u64(*object);
            write_sig(w, method, sigs);
            w.len_u32(args.len());
            for a in args {
                write_value(w, a, sigs);
            }
        }
        Request::Create { class, ctor, args } => {
            w.u8(R_CREATE);
            write_sig(w, class, sigs);
            w.u16(*ctor).len_u32(args.len());
            for a in args {
                write_value(w, a, sigs);
            }
        }
        Request::Discover { class } => {
            w.u8(R_DISCOVER);
            write_sig(w, class, sigs);
        }
        Request::Fetch { object } => {
            w.u8(R_FETCH).u64(*object);
        }
        Request::Install { state, source } => {
            w.u8(R_INSTALL);
            match source {
                Some((n, o)) => {
                    w.u8(1).u32(*n).u64(*o);
                }
                None => {
                    w.u8(0);
                }
            }
            write_value(w, state, sigs);
        }
        Request::Forward {
            object,
            to_node,
            to_object,
        } => {
            w.u8(R_FORWARD).u64(*object).u32(*to_node).u64(*to_object);
        }
        Request::ReplicaSync {
            object,
            version,
            state,
        } => {
            w.u8(R_REPLICA).u64(*object).u64(*version);
            write_value(w, state, sigs);
        }
        Request::Promote { node, object } => {
            w.u8(R_PROMOTE).u32(*node).u64(*object);
        }
        Request::Batch(ops) => {
            w.u8(R_BATCH).len_u32(ops.len());
            for op in ops {
                write_request(w, op, sigs);
            }
        }
    }
}

pub(crate) fn read_request(
    r: &mut BinReader<'_>,
    sigged: bool,
    sigs: Sigs<'_, '_>,
) -> Result<Request, WireError> {
    Ok(match r.u8()? {
        R_CALL => {
            let object = r.u64()?;
            let method = read_sig(r, sigged, sigs)?;
            let n = r.u32()? as usize;
            let mut args = Vec::with_capacity(n.min(MAX_PREALLOC_OPS));
            for _ in 0..n {
                args.push(read_value(r, sigged, sigs)?);
            }
            Request::Call {
                object,
                method,
                args,
            }
        }
        R_CREATE => {
            let class = read_sig(r, sigged, sigs)?;
            let ctor = r.u16()?;
            let n = r.u32()? as usize;
            let mut args = Vec::with_capacity(n.min(MAX_PREALLOC_OPS));
            for _ in 0..n {
                args.push(read_value(r, sigged, sigs)?);
            }
            Request::Create { class, ctor, args }
        }
        R_DISCOVER => Request::Discover {
            class: read_sig(r, sigged, sigs)?,
        },
        R_FETCH => Request::Fetch { object: r.u64()? },
        R_INSTALL => {
            let source = if r.u8()? != 0 {
                Some((r.u32()?, r.u64()?))
            } else {
                None
            };
            Request::Install {
                state: read_value(r, sigged, sigs)?,
                source,
            }
        }
        R_FORWARD => Request::Forward {
            object: r.u64()?,
            to_node: r.u32()?,
            to_object: r.u64()?,
        },
        R_REPLICA => Request::ReplicaSync {
            object: r.u64()?,
            version: r.u64()?,
            state: read_value(r, sigged, sigs)?,
        },
        R_PROMOTE => Request::Promote {
            node: r.u32()?,
            object: r.u64()?,
        },
        R_BATCH => {
            let n = r.u32()? as usize;
            let mut ops = Vec::with_capacity(n.min(MAX_PREALLOC_OPS));
            for _ in 0..n {
                ops.push(read_request(r, sigged, sigs)?);
            }
            Request::Batch(ops)
        }
        tag => return Err(WireError::new(format!("unknown request tag {tag}"))),
    })
}

pub(crate) fn write_reply(w: &mut BinWriter, reply: &Reply, sigs: Sigs<'_, '_>) {
    match reply {
        Reply::Value(v) => {
            w.u8(P_VALUE);
            write_value(w, v, sigs);
        }
        Reply::Exception { class, fields } => {
            w.u8(P_EXCEPTION);
            write_sig(w, class, sigs);
            w.len_u32(fields.len());
            for f in fields {
                write_value(w, f, sigs);
            }
        }
        Reply::Fault(msg) => {
            w.u8(P_FAULT).string(msg);
        }
        Reply::Batch(ops) => {
            w.u8(P_BATCH).len_u32(ops.len());
            for (version, reply) in ops {
                w.u64(*version);
                write_reply(w, reply, sigs);
            }
        }
    }
}

pub(crate) fn read_reply(
    r: &mut BinReader<'_>,
    sigged: bool,
    sigs: Sigs<'_, '_>,
) -> Result<Reply, WireError> {
    Ok(match r.u8()? {
        P_VALUE => Reply::Value(read_value(r, sigged, sigs)?),
        P_EXCEPTION => {
            let class = read_sig(r, sigged, sigs)?;
            let n = r.u32()? as usize;
            let mut fields = Vec::with_capacity(n.min(MAX_PREALLOC_OPS));
            for _ in 0..n {
                fields.push(read_value(r, sigged, sigs)?);
            }
            Reply::Exception { class, fields }
        }
        P_FAULT => Reply::Fault(r.string()?),
        P_BATCH => {
            let n = r.u32()? as usize;
            let mut ops = Vec::with_capacity(n.min(MAX_PREALLOC_OPS));
            for _ in 0..n {
                let version = r.u64()?;
                ops.push((version, read_reply(r, sigged, sigs)?));
            }
            Reply::Batch(ops)
        }
        tag => return Err(WireError::new(format!("unknown reply tag {tag}"))),
    })
}

/// Lazy-payload materialisation for the binary codecs: resume reading the
/// frame at the request tag recorded by the header scan.
pub(crate) fn materialise_binary(
    buf: &[u8],
    pos: usize,
    aligned: bool,
    sigged: bool,
    sigs: Sigs<'_, '_>,
) -> Result<Request, WireError> {
    let mut r = BinReader::resume(buf, pos, aligned);
    read_request(&mut r, sigged, sigs)
}

/// Shared request-header scan for the two binary codecs: after the
/// codec-specific magic/version/id/ctx prefix, peek the request tag and
/// record where the body starts without touching the payload.
pub(crate) fn binary_header<'a>(
    buf: &'a [u8],
    r: &mut BinReader<'a>,
    msg_id: u64,
    ctx: TraceContext,
    aligned: bool,
    sigged: bool,
) -> Result<FrameHeader<'a>, WireError> {
    let pos = r.position();
    let kind = request_kind(r.u8()?)?;
    Ok(FrameHeader {
        msg_id,
        ctx,
        kind,
        payload: Payload::Binary {
            buf,
            pos,
            aligned,
            sigged,
        },
    })
}

/// The RMI-like protocol: compact tagged binary with a JRMP-style header.
#[derive(Debug, Clone, Copy, Default)]
pub struct RmiCodec;

impl RmiCodec {
    /// Create the codec.
    pub fn new() -> Self {
        RmiCodec
    }
}

impl Protocol for RmiCodec {
    fn name(&self) -> &'static str {
        "RMI"
    }

    fn encode_request_into(
        &self,
        id: u64,
        ctx: TraceContext,
        req: &Request,
        mut sigs: Option<&mut SigTable>,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        let mut w = BinWriter::reuse(std::mem::take(out));
        let version = if sigs.is_some() { VERSION_SIG } else { VERSION };
        w.raw(MAGIC).u8(version).u64(id);
        write_ctx(&mut w, ctx);
        write_request(&mut w, req, &mut sigs);
        *out = w.finish()?;
        Ok(())
    }

    fn decode_request_header<'a>(&self, bytes: &'a [u8]) -> Result<FrameHeader<'a>, WireError> {
        let mut r = BinReader::new(bytes);
        r.expect(MAGIC)?;
        let sigged = frame_is_sigged(r.u8()?, VERSION, VERSION_SIG)?;
        let id = r.u64()?;
        let ctx = read_ctx(&mut r)?;
        binary_header(bytes, &mut r, id, ctx, false, sigged)
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
        let mut w = BinWriter::reuse(std::mem::take(out));
        let version = if sigs.is_some() { VERSION_SIG } else { VERSION };
        w.raw(MAGIC).u8(version).u64(id);
        write_ctx(&mut w, ctx);
        w.u64(obj_version);
        write_reply(&mut w, reply, &mut sigs);
        *out = w.finish()?;
        Ok(())
    }

    fn decode_reply_with(
        &self,
        bytes: &[u8],
        mut sigs: Option<&mut SigTable>,
    ) -> Result<(u64, TraceContext, u64, Reply), WireError> {
        let mut r = BinReader::new(bytes);
        r.expect(MAGIC)?;
        let sigged = frame_is_sigged(r.u8()?, VERSION, VERSION_SIG)?;
        let id = r.u64()?;
        let ctx = read_ctx(&mut r)?;
        let obj_version = r.u64()?;
        let reply = read_reply(&mut r, sigged, &mut sigs)?;
        Ok((id, ctx, obj_version, reply))
    }

    /// JRMP stacks were comparatively lean: ~40 µs per message.
    fn overhead_ns(&self) -> u64 {
        40_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata;

    #[test]
    fn roundtrips_all_samples() {
        testdata::assert_roundtrips(&RmiCodec::new());
    }

    #[test]
    fn rejects_wrong_magic() {
        let codec = RmiCodec::new();
        let mut bytes = codec
            .encode_request(4, TraceContext::NONE, &Request::Fetch { object: 1 })
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
        let req = Request::Fetch { object: 1 };
        let a = codec.encode_request(1, TraceContext::NONE, &req).unwrap();
        let b = codec.encode_request(2, TraceContext::NONE, &req).unwrap();
        assert_ne!(a, b, "id is part of the frame");
        let (id_a, _, body_a) = codec.decode_request(&a).unwrap();
        let (id_b, _, body_b) = codec.decode_request(&b).unwrap();
        assert_eq!((id_a, id_b), (1, 2));
        assert_eq!(body_a, body_b);
    }

    #[test]
    fn version_7_frames_decode_unchanged() {
        // Version 8 differs only in how signature strings are written, and
        // is used only when a table is negotiated; a version-7 frame (the
        // stateless encoding) decodes the same with or without a table on
        // the decode side.
        let codec = RmiCodec::new();
        let req = Request::Call {
            object: 4,
            method: "tick@0".into(),
            args: vec![WireValue::Int(1)],
        };
        let bytes = codec.encode_request(31, TraceContext::NONE, &req).unwrap();
        assert_eq!(bytes[4], 7, "stateless encode stays at version 7");
        let (_, _, back) = codec.decode_request(&bytes).unwrap();
        assert_eq!(back, req);
        let mut table = SigTable::new();
        let header = codec.decode_request_header(&bytes).unwrap();
        assert_eq!(header.materialise(Some(&mut table)).unwrap(), req);
        assert!(
            table.is_empty(),
            "v7 frames never intern: the encoder did not"
        );
    }

    #[test]
    fn every_other_version_byte_is_rejected() {
        let codec = RmiCodec::new();
        let req = codec
            .encode_request(9, TraceContext::NONE, &Request::Fetch { object: 2 })
            .unwrap();
        let rep = codec
            .encode_reply(9, TraceContext::NONE, 3, &Reply::Value(WireValue::Int(3)))
            .unwrap();
        for version in 0..=u8::MAX {
            let accepted = version == VERSION || version == VERSION_SIG;
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
    fn sigged_frames_roundtrip_and_shrink() {
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
        assert_eq!(first[4], 8, "sigged frames are version 8");
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
        // The define frame is self-contained: stateless decode works.
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
