//! The tagged binary frame both binary codecs speak.
//!
//! [`RmiCodec`](crate::RmiCodec) and [`CorbaCodec`](crate::CorbaCodec) are
//! one codec, [`BinaryCodec`], under two [`Framing`]s: the same header
//! fields (magic, version, message id, trace context, and on replies the
//! served object's property version), the same tagged body, the same
//! signature markers. They differ only in the framing data and in whether
//! multi-byte primitives are CDR-aligned.

use crate::binary::{BinReader, BinWriter};
use crate::frame::{FrameHeader, Payload, RequestKind};
use crate::sig::{SigEnc, SigTable, Sigs};
use crate::{corba, rmi, Protocol, Reply, Request, TraceContext, WireError, WireValue};

/// What tells one binary protocol family from the other.
pub(crate) struct Framing {
    /// Short protocol name (see [`Protocol::name`]).
    pub name: &'static str,
    /// The four bytes every frame of the family starts with.
    pub magic: &'static [u8],
    /// The frame version, written right after the magic: the one version
    /// an encoder emits and the only one a decoder accepts (both ends of
    /// every link are this code).
    pub version: &'static [u8],
    /// Per-message protocol-stack cost (see [`Protocol::overhead_ns`]).
    pub overhead_ns: u64,
}

// Every signature-position string (method descriptors and class names,
// never payload `Str` values) is prefixed with a marker byte: inline — which
// also defines it in the link's `SigTable` when there is one — or a u32
// reference into that table.
const SIG_INLINE: u8 = 0;
const SIG_REF: u8 = 1;

/// Decoder preallocation caps for untrusted length fields: a corrupt or
/// adversarial count can claim up to `u32::MAX` elements, so
/// `Vec::with_capacity` is clamped and the vector grows only as elements
/// actually parse.
const MAX_PREALLOC_VALUES: usize = 1024;
const MAX_PREALLOC_OPS: usize = 256;

/// Write a signature-position string: a reference when the link's table
/// already holds it, inline otherwise (always, without a table).
fn write_sig(w: &mut BinWriter, s: &str, sigs: Sigs<'_, '_>) {
    match sigs.as_deref_mut().map(|t| t.encode_sig(s)) {
        Some(SigEnc::Ref(id)) => {
            w.u8(SIG_REF).u32(id);
        }
        Some(SigEnc::Inline) | None => {
            w.u8(SIG_INLINE).string(s);
        }
    }
}

/// Read a signature-position string. Inline signatures are interned into
/// the table (mirroring the encoder's define-on-first-use), and references
/// are resolved from it — a reference without a table is an error, since
/// only the table that saw the defining frame can expand it.
fn read_sig(r: &mut BinReader<'_>, sigs: Sigs<'_, '_>) -> Result<String, WireError> {
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

// Request tags. 3 and 5 are unassigned: a frame carrying one is rejected.
const R_CALL: u8 = 0;
const R_CREATE: u8 = 1;
const R_DISCOVER: u8 = 2;
const R_INSTALL: u8 = 4;
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
        R_INSTALL => RequestKind::Install,
        R_REPLICA => RequestKind::ReplicaSync,
        R_PROMOTE => RequestKind::Promote,
        R_BATCH => RequestKind::Batch,
        tag => return Err(WireError::new(format!("unknown request tag {tag}"))),
    })
}

fn write_value(w: &mut BinWriter, v: &WireValue, sigs: Sigs<'_, '_>) {
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

/// A boolean byte: exactly the 0 or 1 an encoder writes.
fn read_bool(r: &mut BinReader<'_>) -> Result<bool, WireError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(WireError::new(format!("bad boolean byte {b}"))),
    }
}

fn read_value(r: &mut BinReader<'_>, sigs: Sigs<'_, '_>) -> Result<WireValue, WireError> {
    Ok(match r.u8()? {
        T_NULL => WireValue::Null,
        T_BOOL => WireValue::Bool(read_bool(r)?),
        T_INT => WireValue::Int(r.i32()?),
        T_LONG => WireValue::Long(r.i64()?),
        T_FLOAT => WireValue::Float(r.f32()?),
        T_DOUBLE => WireValue::Double(r.f64()?),
        T_STR => WireValue::Str(r.string()?),
        T_REMOTE => WireValue::Remote {
            node: r.u32()?,
            object: r.u64()?,
            class: read_sig(r, sigs)?,
        },
        T_ARRAY => {
            let n = r.u32()? as usize;
            let mut items = Vec::with_capacity(n.min(MAX_PREALLOC_VALUES));
            for _ in 0..n {
                items.push(read_value(r, sigs)?);
            }
            WireValue::Array(items)
        }
        T_STATE => {
            let class = read_sig(r, sigs)?;
            let n = r.u32()? as usize;
            let mut fields = Vec::with_capacity(n.min(MAX_PREALLOC_VALUES));
            for _ in 0..n {
                fields.push(read_value(r, sigs)?);
            }
            WireValue::ObjectState { class, fields }
        }
        tag => return Err(WireError::new(format!("unknown value tag {tag}"))),
    })
}

fn write_request(w: &mut BinWriter, req: &Request, sigs: Sigs<'_, '_>) {
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
        Request::Install {
            state,
            source: (n, o),
        } => {
            w.u8(R_INSTALL).u32(*n).u64(*o);
            write_value(w, state, sigs);
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

fn read_request(r: &mut BinReader<'_>, sigs: Sigs<'_, '_>) -> Result<Request, WireError> {
    Ok(match r.u8()? {
        R_CALL => {
            let object = r.u64()?;
            let method = read_sig(r, sigs)?;
            let n = r.u32()? as usize;
            let mut args = Vec::with_capacity(n.min(MAX_PREALLOC_OPS));
            for _ in 0..n {
                args.push(read_value(r, sigs)?);
            }
            Request::Call {
                object,
                method,
                args,
            }
        }
        R_CREATE => {
            let class = read_sig(r, sigs)?;
            let ctor = r.u16()?;
            let n = r.u32()? as usize;
            let mut args = Vec::with_capacity(n.min(MAX_PREALLOC_OPS));
            for _ in 0..n {
                args.push(read_value(r, sigs)?);
            }
            Request::Create { class, ctor, args }
        }
        R_DISCOVER => Request::Discover {
            class: read_sig(r, sigs)?,
        },
        R_INSTALL => Request::Install {
            source: (r.u32()?, r.u64()?),
            state: read_value(r, sigs)?,
        },
        R_REPLICA => Request::ReplicaSync {
            object: r.u64()?,
            version: r.u64()?,
            state: read_value(r, sigs)?,
        },
        R_PROMOTE => Request::Promote {
            node: r.u32()?,
            object: r.u64()?,
        },
        R_BATCH => {
            let n = r.u32()? as usize;
            let mut ops = Vec::with_capacity(n.min(MAX_PREALLOC_OPS));
            for _ in 0..n {
                ops.push(read_request(r, sigs)?);
            }
            Request::Batch(ops)
        }
        tag => return Err(WireError::new(format!("unknown request tag {tag}"))),
    })
}

fn write_reply(w: &mut BinWriter, reply: &Reply, sigs: Sigs<'_, '_>) {
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

fn read_reply(r: &mut BinReader<'_>, sigs: Sigs<'_, '_>) -> Result<Reply, WireError> {
    Ok(match r.u8()? {
        P_VALUE => Reply::Value(read_value(r, sigs)?),
        P_EXCEPTION => {
            let class = read_sig(r, sigs)?;
            let n = r.u32()? as usize;
            let mut fields = Vec::with_capacity(n.min(MAX_PREALLOC_OPS));
            for _ in 0..n {
                fields.push(read_value(r, sigs)?);
            }
            Reply::Exception { class, fields }
        }
        P_FAULT => Reply::Fault(r.string()?),
        P_BATCH => {
            let n = r.u32()? as usize;
            let mut ops = Vec::with_capacity(n.min(MAX_PREALLOC_OPS));
            for _ in 0..n {
                let version = r.u64()?;
                ops.push((version, read_reply(r, sigs)?));
            }
            Reply::Batch(ops)
        }
        tag => return Err(WireError::new(format!("unknown reply tag {tag}"))),
    })
}

/// Lazy-payload materialisation: resume reading the frame at the request
/// tag recorded by the header scan.
pub(crate) fn materialise(
    buf: &[u8],
    pos: usize,
    aligned: bool,
    sigs: Sigs<'_, '_>,
) -> Result<Request, WireError> {
    read_request(&mut BinReader::resume(buf, pos, aligned), sigs)
}

/// Start a frame in `out`'s allocation: magic, version, message id and
/// trace context. Like [`open`], deliberately not generic over the codec:
/// compiled once, in this crate, next to the `BinWriter` it drives,
/// whichever crate instantiates [`BinaryCodec`].
fn start(
    framing: &Framing,
    aligned: bool,
    id: u64,
    ctx: TraceContext,
    out: &mut Vec<u8>,
) -> BinWriter {
    let mut w = BinWriter::reuse(std::mem::take(out), aligned);
    w.raw(framing.magic).raw(framing.version);
    w.u64(id)
        .u64(ctx.trace_id)
        .u64(ctx.span_id)
        .u64(ctx.parent_span_id);
    w
}

/// Check a frame's magic and version and read its message id and trace
/// context; the reader is left at the first byte after them.
fn open<'a>(
    framing: &Framing,
    aligned: bool,
    bytes: &'a [u8],
) -> Result<(BinReader<'a>, u64, TraceContext), WireError> {
    let mut r = BinReader::resume(bytes, 0, aligned);
    r.expect(framing.magic)?;
    for &expected in framing.version {
        let got = r.u8()?;
        if got != expected {
            return Err(WireError::new(format!(
                "unsupported frame version byte {got}"
            )));
        }
    }
    let id = r.u64()?;
    let ctx = TraceContext {
        trace_id: r.u64()?,
        span_id: r.u64()?,
        parent_span_id: r.u64()?,
    };
    Ok((r, id, ctx))
}

/// The tagged binary codec: packed with the RMI framing
/// ([`RmiCodec`](crate::RmiCodec)), CDR-aligned with the GIOP framing
/// ([`CorbaCodec`](crate::CorbaCodec)).
#[derive(Debug, Clone, Copy, Default)]
pub struct BinaryCodec<const ALIGNED: bool>;

impl<const ALIGNED: bool> BinaryCodec<ALIGNED> {
    const FRAMING: &'static Framing = if ALIGNED {
        &corba::FRAMING
    } else {
        &rmi::FRAMING
    };

    /// Create the codec.
    pub fn new() -> Self {
        BinaryCodec
    }
}

impl<const ALIGNED: bool> Protocol for BinaryCodec<ALIGNED> {
    fn name(&self) -> &'static str {
        Self::FRAMING.name
    }

    fn encode_request_into(
        &self,
        id: u64,
        ctx: TraceContext,
        req: &Request,
        mut sigs: Option<&mut SigTable>,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        let mut w = start(Self::FRAMING, ALIGNED, id, ctx, out);
        write_request(&mut w, req, &mut sigs);
        *out = w.finish()?;
        Ok(())
    }

    /// After the header fields, peek the request tag and record where the
    /// body starts without touching the payload.
    fn decode_request_header<'a>(&self, bytes: &'a [u8]) -> Result<FrameHeader<'a>, WireError> {
        let (mut r, msg_id, ctx) = open(Self::FRAMING, ALIGNED, bytes)?;
        let pos = r.position();
        let kind = request_kind(r.u8()?)?;
        Ok(FrameHeader {
            msg_id,
            ctx,
            kind,
            payload: Payload::Binary {
                buf: bytes,
                pos,
                aligned: ALIGNED,
            },
        })
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
        let mut w = start(Self::FRAMING, ALIGNED, id, ctx, out);
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
        let (mut r, id, ctx) = open(Self::FRAMING, ALIGNED, bytes)?;
        let obj_version = r.u64()?;
        let reply = read_reply(&mut r, &mut sigs)?;
        Ok((id, ctx, obj_version, reply))
    }

    fn overhead_ns(&self) -> u64 {
        Self::FRAMING.overhead_ns
    }
}
