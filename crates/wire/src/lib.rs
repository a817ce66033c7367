//! # rafda-wire
//!
//! Wire protocols for remote proxy calls.
//!
//! The paper's proxies come in protocol families: "various proxies
//! implementing the interface for a class provide alternative remote
//! versions, e.g. SOAP-based, RMI-based, CORBA-based" (Section 1), and the
//! whole point of the interface extraction is that these are
//! **interchangeable**. This crate provides three codecs with the cost
//! signatures of those families:
//!
//! | Codec | Modelled after | Shape |
//! |---|---|---|
//! | [`RmiCodec`] | Java RMI / JRMP | compact tagged binary |
//! | [`SoapCodec`] | SOAP 1.1 over HTTP | verbose self-describing XML text |
//! | [`CorbaCodec`] | CORBA GIOP/CDR | aligned binary, 4-byte padded |
//!
//! All three encode the same location-independent model: [`WireValue`],
//! [`Request`] and [`Reply`]. Object references travel as
//! [`WireValue::Remote`] descriptors; primitive data, strings and arrays
//! travel by value; object *state* (for migration and exception
//! propagation) travels as [`WireValue::ObjectState`].
//!
//! Every codec round-trips exactly (`decode(encode(x)) == x`), which the
//! property-based tests verify; the encoded **size** and the per-call
//! processing overhead differ, which experiment E5 measures.

#![warn(missing_docs)]

pub mod binary;
pub mod corba;
pub mod frame;
pub mod rmi;
pub mod sig;
pub mod soap;
mod tagged;

pub use corba::CorbaCodec;
pub use frame::{FrameHeader, RequestKind};
pub use rafda_telemetry::TraceContext;
pub use rmi::RmiCodec;
pub use sig::{InternOutcome, SigEnc, SigTable};
pub use soap::SoapCodec;
pub use tagged::BinaryCodec;

use std::fmt;

/// A location-independent value as it travels on the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum WireValue {
    /// The `null` reference.
    Null,
    /// A boolean, by value.
    Bool(bool),
    /// A 32-bit integer, by value.
    Int(i32),
    /// A 64-bit integer, by value.
    Long(i64),
    /// A 32-bit float, by value (bit-exact).
    Float(f32),
    /// A 64-bit float, by value (bit-exact).
    Double(f64),
    /// A string, by value.
    Str(String),
    /// A reference to an object exported by `node` under id `object`,
    /// whose original (base) class is named `class`. The receiving runtime
    /// materialises a proxy of the matching proxy family for it (or unwraps
    /// it to the local object if `node` is the receiver itself).
    Remote {
        /// The exporting node.
        node: u32,
        /// The export id on that node.
        object: u64,
        /// Name of the object's implementation class (picks the proxy
        /// family at the receiver).
        class: String,
    },
    /// An array passed by value.
    Array(Vec<WireValue>),
    /// A by-value snapshot of an object's state (migration & exceptions).
    ObjectState {
        /// The object's class name.
        class: String,
        /// Flattened field slots.
        fields: Vec<WireValue>,
    },
}

/// A request sent to a remote node.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Invoke `method` on the exported object `object`.
    Call {
        /// Export id of the receiver on the serving node.
        object: u64,
        /// Method descriptor (`name@sigid`).
        method: String,
        /// Marshalled arguments.
        args: Vec<WireValue>,
    },
    /// Create an instance of `class` remotely: the factory's `make()`. The
    /// callee initialises the class if it has statics and answers a
    /// reference to a fresh, default-valued instance; the constructor
    /// (`init_k`) runs afterwards, as a `Call` through that reference.
    Create {
        /// Original class name.
        class: String,
        /// Always 0: the runtime sends no constructor, and the callee
        /// ignores this field.
        ctor: u16,
        /// Always empty, and ignored by the callee, like `ctor`.
        args: Vec<WireValue>,
    },
    /// Discover the node's singleton for `class` (factory `discover`).
    Discover {
        /// Original class name.
        class: String,
    },
    /// Install `state` as a new exported object: the one request that
    /// moves an object, sent by its owner to the destination (a migration,
    /// or a pull, which is a migration from the live home).
    Install {
        /// The object state to materialise (an [`WireValue::ObjectState`]).
        state: WireValue,
        /// The object's previous home `(node, object)`, letting the receiver
        /// rewrite an existing proxy for it in place instead of allocating a
        /// duplicate.
        source: (u32, u64),
    },
    /// Ship a replicated export's current state to a backup node. Sent by
    /// the owner after every served mutating call on a `replicate k` class;
    /// the backup files the snapshot under the *owner's* location, ready to
    /// be promoted if the owner crash-stops.
    ReplicaSync {
        /// Export id on the owning (sending) node.
        object: u64,
        /// The owner's property version at snapshot time.
        version: u64,
        /// The object state (a [`WireValue::ObjectState`]).
        state: WireValue,
    },
    /// Ask the receiving node to promote its replica of the crashed owner's
    /// export `(node, object)` to a first-class export of its own. Replied
    /// with a [`WireValue::Remote`] naming the object's new home.
    Promote {
        /// The crashed owner.
        node: u32,
        /// The export id the owner served the object under.
        object: u64,
    },
    /// A coalesced sequence of deferrable requests — void-returning calls,
    /// property sets and replica syncs queued by a caller whose policy
    /// marks the target classes `batch on` — applied by the serving node
    /// **in order** and answered with a single [`Reply::Batch`]. The whole
    /// batch rides one message id, so a retransmission is deduplicated as a
    /// unit and the operations are never re-applied.
    Batch(Vec<Request>),
}

/// A reply to a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Normal completion with a (possibly `Null`) result.
    Value(WireValue),
    /// The remote method threw an in-model exception; carries the exception
    /// class and field state so the caller can re-throw an equivalent
    /// object.
    Exception {
        /// The exception's class name.
        class: String,
        /// Its field slots, by value.
        fields: Vec<WireValue>,
    },
    /// An infrastructure failure (unknown object, marshalling error, …).
    Fault(String),
    /// The per-operation outcomes of a [`Request::Batch`], in operation
    /// order. Each entry pairs the served object's property version *after*
    /// that operation executed (0 when the operation did not address a
    /// versioned object) with the operation's own reply, so coherence
    /// information for every batched operation rides the single frame.
    Batch(Vec<(u64, Reply)>),
}

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl WireError {
    pub(crate) fn new(msg: impl Into<String>) -> Self {
        WireError(msg.into())
    }
}

/// A wire protocol: encodes and decodes [`Request`]s and [`Reply`]s.
///
/// Every frame carries a caller-assigned **message id** in its header.
/// Retransmissions of a request reuse the id, which is what lets the
/// serving node recognise a duplicate and answer from its reply cache
/// instead of re-executing the method (at-most-once execution); replies
/// echo the id of the request they answer. The id is part of the frame,
/// not of [`Request`] — all three protocol families carry it in their
/// native header position (JRMP stream id, GIOP request id, a SOAP header
/// element).
///
/// Alongside the message id the header carries a [`TraceContext`] — the
/// causal coordinates of the span the frame was sent from — so the serving
/// node can parent its dispatch span under the caller's span even across a
/// multi-hop proxy chain. A request's retransmissions carry the *same*
/// context (the frame is encoded once and resent verbatim); replies carry
/// the server span's context.
///
/// Reply headers additionally piggyback the served object's **property
/// version** — the counter the proxy-side property cache tags its entries
/// with — so coherence information rides on traffic that flows anyway.
///
/// Decoders accept exactly what an encoder emits — one frame version per
/// codec — and reject every other version (or, for SOAP, a missing header
/// element) with a [`WireError`]: both ends of every link run this code.
///
/// Implementations must round-trip exactly. `overhead_ns` models the
/// protocol-stack processing cost charged per message in addition to the
/// transmission cost (e.g. XML parsing for SOAP).
///
/// The required methods form the **zero-copy fast path**: `*_into`
/// encoders write into a caller-supplied (typically pooled) buffer and
/// thread an optional per-link [`SigTable`] for signature interning, and
/// `decode_request_header` parses only the frame header, deferring the
/// owned body to [`FrameHeader::materialise`]. The table changes no
/// format: without one every signature travels inline, which a decoder
/// reads with or without a table of its own. The provided
/// `encode_request`/`decode_request`/`encode_reply`/`decode_reply`
/// convenience wrappers are that case: fresh buffers, no signature table.
pub trait Protocol {
    /// Short protocol name, used in generated proxy class names
    /// (`A_O_Proxy_SOAP` etc.).
    fn name(&self) -> &'static str;

    /// Encode a request under message id `id`, carrying trace context
    /// `ctx`, into `out` (cleared first; its allocation is reused). With a
    /// [`SigTable`], signature-position strings are interned: sent inline
    /// on first use, as a reference afterwards (a marker byte in the binary
    /// codecs, SOAP `rafda:sigref`).
    ///
    /// # Errors
    /// [`WireError`] when a length prefix would not fit the wire format
    /// (e.g. a >4 GiB string); no frame bytes are produced in that case.
    fn encode_request_into(
        &self,
        id: u64,
        ctx: TraceContext,
        req: &Request,
        sigs: Option<&mut SigTable>,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError>;

    /// Parse a request frame's header — message id, trace context and
    /// request discriminant — without building the owned body. The
    /// returned [`FrameHeader`] borrows `bytes` and materialises the
    /// [`Request`] on demand.
    ///
    /// # Errors
    /// [`WireError`] on a malformed header.
    fn decode_request_header<'a>(&self, bytes: &'a [u8]) -> Result<FrameHeader<'a>, WireError>;

    /// Encode a reply answering the request with message id `id`, carrying
    /// the server span's trace context `ctx` and the served object's
    /// property version `obj_version` (0 when the request did not address a
    /// versioned object), into `out` (cleared first). See
    /// [`Protocol::encode_request_into`] for the `sigs` semantics.
    ///
    /// # Errors
    /// [`WireError`] when a length prefix would not fit the wire format.
    fn encode_reply_into(
        &self,
        id: u64,
        ctx: TraceContext,
        obj_version: u64,
        reply: &Reply,
        sigs: Option<&mut SigTable>,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError>;

    /// Decode a reply, resolving signature references against (and
    /// interning inline signatures into) the link's table when one is
    /// supplied.
    ///
    /// # Errors
    /// [`WireError`] on malformed input or an unresolvable signature
    /// reference.
    fn decode_reply_with(
        &self,
        bytes: &[u8],
        sigs: Option<&mut SigTable>,
    ) -> Result<(u64, TraceContext, u64, Reply), WireError>;

    /// Encode a request into a fresh buffer with no signature table (every
    /// signature inline).
    ///
    /// # Errors
    /// [`WireError`] when a length prefix would not fit the wire format.
    fn encode_request(
        &self,
        id: u64,
        ctx: TraceContext,
        req: &Request,
    ) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(64);
        self.encode_request_into(id, ctx, req, None, &mut out)?;
        Ok(out)
    }

    /// Decode a request, returning its message id, trace context and body.
    /// Equivalent to header decode + immediate materialisation without a
    /// signature table, so frames carrying signature *references* need
    /// [`Protocol::decode_request_header`] +
    /// [`FrameHeader::materialise`] with the link table instead.
    ///
    /// # Errors
    /// [`WireError`] on malformed input.
    fn decode_request(&self, bytes: &[u8]) -> Result<(u64, TraceContext, Request), WireError> {
        let header = self.decode_request_header(bytes)?;
        let req = header.materialise(None)?;
        Ok((header.msg_id, header.ctx, req))
    }

    /// Encode a reply into a fresh buffer with no signature table (every
    /// signature inline).
    ///
    /// # Errors
    /// [`WireError`] when a length prefix would not fit the wire format.
    fn encode_reply(
        &self,
        id: u64,
        ctx: TraceContext,
        obj_version: u64,
        reply: &Reply,
    ) -> Result<Vec<u8>, WireError> {
        let mut out = Vec::with_capacity(64);
        self.encode_reply_into(id, ctx, obj_version, reply, None, &mut out)?;
        Ok(out)
    }

    /// Decode a reply, returning the answered message id, trace context,
    /// object property version and body.
    ///
    /// # Errors
    /// [`WireError`] on malformed input.
    fn decode_reply(&self, bytes: &[u8]) -> Result<(u64, TraceContext, u64, Reply), WireError> {
        self.decode_reply_with(bytes, None)
    }

    /// Per-message protocol-stack processing cost (simulated nanoseconds).
    fn overhead_ns(&self) -> u64 {
        0
    }
}

/// The built-in protocol families.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ProtocolKind {
    /// Compact tagged binary with a JRMP-style header.
    Rmi,
    /// Verbose self-describing XML text.
    Soap,
    /// GIOP/CDR-style aligned binary.
    Corba,
}

impl ProtocolKind {
    /// All built-in protocols.
    pub const ALL: [ProtocolKind; 3] = [ProtocolKind::Rmi, ProtocolKind::Soap, ProtocolKind::Corba];

    /// Instantiate the codec.
    pub fn codec(self) -> Box<dyn Protocol> {
        match self {
            ProtocolKind::Rmi => Box::new(RmiCodec::new()),
            ProtocolKind::Soap => Box::new(SoapCodec::new()),
            ProtocolKind::Corba => Box::new(CorbaCodec::new()),
        }
    }

    /// The protocol's short name (as used in proxy class names).
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Rmi => "RMI",
            ProtocolKind::Soap => "SOAP",
            ProtocolKind::Corba => "CORBA",
        }
    }

    /// Parse from the short name.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "RMI" => Some(ProtocolKind::Rmi),
            "SOAP" => Some(ProtocolKind::Soap),
            "CORBA" => Some(ProtocolKind::Corba),
            _ => None,
        }
    }
}

impl fmt::Display for ProtocolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
pub(crate) mod testdata {
    use super::*;

    /// A representative set of values hitting every constructor and nesting.
    pub fn sample_values() -> Vec<WireValue> {
        vec![
            WireValue::Null,
            WireValue::Bool(true),
            WireValue::Bool(false),
            WireValue::Int(-42),
            WireValue::Int(i32::MAX),
            WireValue::Long(1 << 50),
            WireValue::Float(1.5),
            WireValue::Double(-0.125),
            WireValue::Str(String::new()),
            WireValue::Str("hello world".to_owned()),
            WireValue::Str("escapes <&>\"' and unicode ☃".to_owned()),
            WireValue::Remote {
                node: 3,
                object: 99,
                class: "C".to_owned(),
            },
            WireValue::Array(vec![
                WireValue::Int(1),
                WireValue::Null,
                WireValue::Array(vec![WireValue::Str("nested".into())]),
            ]),
            WireValue::ObjectState {
                class: "X_O_Local".to_owned(),
                fields: vec![
                    WireValue::Remote {
                        node: 0,
                        object: 1,
                        class: "Y".to_owned(),
                    },
                    WireValue::Int(7),
                ],
            },
        ]
    }

    pub fn sample_requests() -> Vec<Request> {
        let mut out = vec![
            Request::Discover {
                class: "X_C_Int".into(),
            },
            Request::Create {
                class: "X".into(),
                ctor: 2,
                args: sample_values(),
            },
            Request::Install {
                state: WireValue::ObjectState {
                    class: "C_O_Local".into(),
                    fields: vec![WireValue::Long(1)],
                },
                source: (0, 17),
            },
        ];
        out.push(Request::Install {
            state: WireValue::ObjectState {
                class: "D_O_Local".into(),
                fields: vec![],
            },
            source: (2, 9),
        });
        out.push(Request::Call {
            object: 5,
            method: "get_y".into(),
            args: vec![],
        });
        out.push(Request::Call {
            object: u64::MAX,
            method: "m".into(),
            args: sample_values(),
        });
        out.push(Request::ReplicaSync {
            object: 12,
            version: 1 << 33,
            state: WireValue::ObjectState {
                class: "C_O_Local".into(),
                fields: vec![WireValue::Int(5), WireValue::Null],
            },
        });
        out.push(Request::Promote {
            node: 2,
            object: u64::MAX,
        });
        out.push(Request::Batch(vec![
            Request::Call {
                object: 5,
                method: "set_y@3".into(),
                args: vec![WireValue::Int(1)],
            },
            Request::Call {
                object: 5,
                method: "poke@4".into(),
                args: vec![],
            },
            Request::ReplicaSync {
                object: 12,
                version: 4,
                state: WireValue::ObjectState {
                    class: "C_O_Local".into(),
                    fields: vec![WireValue::Int(5)],
                },
            },
        ]));
        out.push(Request::Batch(vec![]));
        out
    }

    pub fn sample_replies() -> Vec<Reply> {
        let mut out: Vec<Reply> = sample_values().into_iter().map(Reply::Value).collect();
        out.push(Reply::Exception {
            class: "AppError".into(),
            fields: vec![WireValue::Int(3)],
        });
        out.push(Reply::Fault("unknown object 9".into()));
        out.push(Reply::Batch(vec![
            (7, Reply::Value(WireValue::Null)),
            (
                u64::MAX,
                Reply::Exception {
                    class: "AppError".into(),
                    fields: vec![WireValue::Str("batched".into())],
                },
            ),
            (0, Reply::Fault("unknown object 3".into())),
        ]));
        out.push(Reply::Batch(vec![]));
        out
    }

    /// Assert a protocol round-trips all samples, including message ids and
    /// trace contexts at the extremes of their domains.
    pub fn assert_roundtrips(p: &dyn Protocol) {
        for (i, req) in sample_requests().into_iter().enumerate() {
            let id = sample_id(i);
            let ctx = sample_ctx(i);
            let bytes = p
                .encode_request(id, ctx, &req)
                .unwrap_or_else(|e| panic!("{}: encode {e} for {req:?}", p.name()));
            let (back_id, back_ctx, back) = p
                .decode_request(&bytes)
                .unwrap_or_else(|e| panic!("{}: {e} for {req:?}", p.name()));
            assert_eq!(back_id, id, "{} request id roundtrip", p.name());
            assert_eq!(back_ctx, ctx, "{} request ctx roundtrip", p.name());
            assert_eq!(back, req, "{} request roundtrip", p.name());
        }
        for (i, reply) in sample_replies().into_iter().enumerate() {
            let id = sample_id(i);
            let ctx = sample_ctx(i);
            let ver = sample_version(i);
            let bytes = p
                .encode_reply(id, ctx, ver, &reply)
                .unwrap_or_else(|e| panic!("{}: encode {e} for {reply:?}", p.name()));
            let (back_id, back_ctx, back_ver, back) = p
                .decode_reply(&bytes)
                .unwrap_or_else(|e| panic!("{}: {e} for {reply:?}", p.name()));
            assert_eq!(back_id, id, "{} reply id roundtrip", p.name());
            assert_eq!(back_ctx, ctx, "{} reply ctx roundtrip", p.name());
            assert_eq!(back_ver, ver, "{} reply version roundtrip", p.name());
            assert_eq!(back, reply, "{} reply roundtrip", p.name());
        }
    }

    fn sample_id(i: usize) -> u64 {
        [0, 1, 7, u64::from(u32::MAX), u64::MAX][i % 5]
    }

    fn sample_version(i: usize) -> u64 {
        [0, 1, 3, 1 << 40, u64::MAX, 42][i % 6]
    }

    fn sample_ctx(i: usize) -> TraceContext {
        [
            TraceContext::NONE,
            TraceContext {
                trace_id: 1,
                span_id: 2,
                parent_span_id: 0,
            },
            TraceContext {
                trace_id: 9,
                span_id: 40,
                parent_span_id: 39,
            },
            TraceContext {
                trace_id: u64::MAX,
                span_id: u64::MAX,
                parent_span_id: u64::MAX,
            },
        ][i % 4]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_kinds_resolve_names() {
        for k in ProtocolKind::ALL {
            assert_eq!(ProtocolKind::from_name(k.name()), Some(k));
            assert_eq!(k.codec().name(), k.name());
        }
        assert_eq!(ProtocolKind::from_name("XMLRPC"), None);
    }

    #[test]
    fn soap_is_much_larger_than_binary_protocols() {
        let req = Request::Call {
            object: 5,
            method: "set_y".into(),
            args: vec![WireValue::Remote {
                node: 1,
                object: 2,
                class: "Y".to_owned(),
            }],
        };
        let rmi = RmiCodec::new()
            .encode_request(1, TraceContext::NONE, &req)
            .unwrap()
            .len();
        let soap = SoapCodec::new()
            .encode_request(1, TraceContext::NONE, &req)
            .unwrap()
            .len();
        let corba = CorbaCodec::new()
            .encode_request(1, TraceContext::NONE, &req)
            .unwrap()
            .len();
        assert!(soap > 3 * rmi, "soap={soap} rmi={rmi}");
        assert!(soap > 2 * corba, "soap={soap} corba={corba}");
    }

    #[test]
    fn soap_has_highest_processing_overhead() {
        let rmi = RmiCodec::new().overhead_ns();
        let soap = SoapCodec::new().overhead_ns();
        let corba = CorbaCodec::new().overhead_ns();
        assert!(soap > corba && corba >= rmi);
    }
}
