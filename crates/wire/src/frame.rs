//! Borrowed frame headers with lazy payload materialisation.
//!
//! The serve path often does not need the request body at all: an
//! at-most-once dedup hit is answered from the reply cache, batch frames
//! are routed by discriminant, and replica-sync fan-out only inspects the
//! header. [`FrameHeader`] is the zero-copy view that makes those
//! decisions cheap — it borrows the wire bytes, exposes the message id,
//! trace context and request discriminant, and defers building the owned
//! [`Request`] tree to [`FrameHeader::materialise`], which is only called
//! when the request is actually invoked.

use crate::sig::SigTable;
use crate::{soap, tagged, Request, TraceContext, WireError};

/// The discriminant of a [`Request`], decodable from a frame header alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// [`Request::Call`]
    Call,
    /// [`Request::Create`]
    Create,
    /// [`Request::Discover`]
    Discover,
    /// [`Request::Install`]
    Install,
    /// [`Request::ReplicaSync`]
    ReplicaSync,
    /// [`Request::Promote`]
    Promote,
    /// [`Request::Batch`]
    Batch,
}

impl RequestKind {
    /// The discriminant of an owned request.
    pub fn of(req: &Request) -> RequestKind {
        match req {
            Request::Call { .. } => RequestKind::Call,
            Request::Create { .. } => RequestKind::Create,
            Request::Discover { .. } => RequestKind::Discover,
            Request::Install { .. } => RequestKind::Install,
            Request::ReplicaSync { .. } => RequestKind::ReplicaSync,
            Request::Promote { .. } => RequestKind::Promote,
            Request::Batch(_) => RequestKind::Batch,
        }
    }
}

/// Where a header's payload bytes live and how to parse them on demand.
#[derive(Debug, Clone)]
pub(crate) enum Payload<'a> {
    /// A tagged-binary body (RMI or GIOP). `pos` is the byte offset of the
    /// request tag; alignment stays relative to the buffer start, which is
    /// why the full frame is kept rather than a body sub-slice.
    Binary {
        /// The whole frame.
        buf: &'a [u8],
        /// Offset of the request tag byte.
        pos: usize,
        /// CDR alignment (GIOP) vs packed (RMI).
        aligned: bool,
    },
    /// The content of `<soap:Body>`, left as unparsed XML text.
    Xml {
        /// The body slice of the envelope.
        body: &'a str,
    },
}

/// A request frame header parsed without building the owned body.
///
/// Borrowed from the frame bytes; see the module docs for why. Obtain one
/// from [`crate::Protocol::decode_request_header`].
#[derive(Debug, Clone)]
pub struct FrameHeader<'a> {
    /// Caller-assigned message id (the at-most-once dedup key).
    pub msg_id: u64,
    /// The sending span's trace context.
    pub ctx: TraceContext,
    /// The request discriminant, for routing and span naming.
    pub kind: RequestKind,
    pub(crate) payload: Payload<'a>,
}

impl FrameHeader<'_> {
    /// Build the owned [`Request`] from the deferred payload bytes.
    ///
    /// `sigs` is the link's signature table: inline signatures are interned
    /// into it and references resolved from it. Passing `None` still
    /// decodes any frame whose signatures are all inline (every frame
    /// encoded without a table), but a frame carrying references needs the
    /// table that saw their defining frames.
    ///
    /// # Errors
    /// [`WireError`] on malformed payload bytes or an unresolvable
    /// signature reference.
    pub fn materialise(&self, mut sigs: Option<&mut SigTable>) -> Result<Request, WireError> {
        match &self.payload {
            Payload::Binary { buf, pos, aligned } => {
                tagged::materialise(buf, *pos, *aligned, &mut sigs)
            }
            Payload::Xml { body } => soap::materialise_body(body, &mut sigs),
        }
    }
}
