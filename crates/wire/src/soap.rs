//! SOAP-like codec: a verbose, self-describing XML text protocol.
//!
//! Faithful to the family's cost signature where the model measures it: the
//! same enveloped, attribute-heavy envelope bytes, several times larger on
//! the wire than either binary frame, and the slowest codec on the simulated
//! clock (400 µs per message, [`Protocol::overhead_ns`]). Floats are printed
//! human-readably but carry a `bits` attribute so round-trips are exact.
//!
//! The host does only the work that format needs. The decoder reads a frame
//! in place, in one pass: names and attribute values are slices of it, and
//! an entity-free text run is one slice. The envelope is matched as the
//! exact text the encoder writes around its numbers; any other envelope is
//! a [`WireError`] naming the text expected and its byte offset, since both
//! ends of a link run this encoder. Inside `<soap:Body>` it accepts what the
//! encoder writes and nothing else: text only in a scalar `<v>` and
//! `<faultstring>`.

use crate::frame::{FrameHeader, Payload, RequestKind};
use crate::sig::{SigEnc, SigTable, Sigs};
use crate::{Protocol, Reply, Request, TraceContext, WireError, WireValue};
use std::borrow::Cow;
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Tiny XML subset, read in place: elements, attributes, text, entities
// ---------------------------------------------------------------------

/// The five XML metacharacters and the entities that stand for them.
const ENTITIES: [(u8, &str); 5] = [
    (b'&', "amp"),
    (b'<', "lt"),
    (b'>', "gt"),
    (b'"', "quot"),
    (b'\'', "apos"),
];

/// Append `s` with the metacharacters escaped, copying the runs between
/// them whole.
fn escape(s: &str, out: &mut String) {
    let is_meta = |b: u8| ENTITIES.iter().any(|&(c, _)| c == b);
    // A fold has no early exit, so it vectorises: most text has no
    // metacharacter at all and is copied in one piece.
    if !s.bytes().fold(false, |any, b| any | is_meta(b)) {
        out.push_str(s);
        return;
    }
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        if let Some((_, entity)) = ENTITIES.iter().find(|(c, _)| *c == b) {
            let _ = write!(out, "{}&{entity};", &s[run..i]);
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

/// The text `raw` stands for: `raw` itself unless it carries an entity.
fn unescape(raw: &str) -> Result<Cow<'_, str>, WireError> {
    if !raw.as_bytes().contains(&b'&') {
        return Ok(Cow::Borrowed(raw));
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        let (entity, tail) = rest[amp + 1..]
            .split_once(';')
            .ok_or_else(|| WireError::new("xml: unterminated entity"))?;
        let known = ENTITIES.iter().find(|(_, name)| *name == entity);
        let (c, _) =
            known.ok_or_else(|| WireError::new(format!("xml: unknown entity &{entity};")))?;
        out.push(char::from(*c));
        rest = tail;
    }
    out.push_str(rest);
    Ok(Cow::Owned(out))
}

/// A cursor over an envelope or a body slice. It steps only over ASCII it
/// matched or to a byte it found, so every slice it hands out is a `&str`.
struct Reader<'a> {
    xml: &'a str,
    pos: usize,
}

/// An open tag: its name, the text of its attributes (checked when read,
/// scanned again on each lookup), and whether it closed itself (`/>`).
struct Tag<'a> {
    name: &'a str,
    attrs: &'a str,
    empty: bool,
}

impl<'a> Tag<'a> {
    /// The raw (still escaped) value of attribute `name`, first one wins.
    /// [`Reader::open`] checked the text: a key holds no `=` or `"`, and a
    /// value no `"`.
    fn raw(&self, name: &str) -> Option<&'a str> {
        let find = |s: &str, c: u8| s.bytes().position(|b| b == c);
        let mut rest = self.attrs;
        loop {
            rest = rest.trim_ascii_start();
            let eq = find(rest, b'=')?;
            let start = eq + 1 + find(&rest[eq + 1..], b'"')? + 1;
            let end = start + find(&rest[start..], b'"')?;
            if rest[..eq].trim_ascii_end() == name {
                return Some(&rest[start..end]);
            }
            rest = &rest[end + 1..];
        }
    }

    fn attr(&self, name: &str) -> Result<&'a str, WireError> {
        self.raw(name)
            .ok_or_else(|| WireError::new(format!("<{}> missing attribute {name}", self.name)))
    }

    fn num<T: std::str::FromStr>(&self, name: &str) -> Result<T, WireError> {
        self.attr(name)?
            .parse()
            .map_err(|_| WireError::new(format!("<{}> bad {name} attribute", self.name)))
    }
}

impl<'a> Reader<'a> {
    fn rest(&self) -> &'a str {
        &self.xml[self.pos..]
    }

    #[cold]
    fn err(&self, msg: impl std::fmt::Display) -> WireError {
        WireError::new(format!("xml: {msg} at byte {}", self.pos))
    }

    /// Step over the bytes `keep` accepts.
    fn skip(&mut self, keep: impl Fn(u8) -> bool) {
        let rest = &self.xml.as_bytes()[self.pos..];
        self.pos += rest.iter().position(|&b| !keep(b)).unwrap_or(rest.len());
    }

    fn skip_ws(&mut self) {
        self.skip(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'));
    }

    fn eat(&mut self, s: &str) -> Result<(), WireError> {
        if !self.xml.as_bytes()[self.pos..].starts_with(s.as_bytes()) {
            return Err(self.err(format_args!("expected '{s}'")));
        }
        self.pos += s.len();
        Ok(())
    }

    /// The run of bytes before the next `stop`, which is left unread.
    fn until(&mut self, stop: u8) -> Option<&'a str> {
        let start = self.pos;
        self.skip(|b| b != stop);
        (self.pos < self.xml.len()).then(|| &self.xml[start..self.pos])
    }

    fn name(&mut self) -> Result<&'a str, WireError> {
        let start = self.pos;
        self.skip(|b| b.is_ascii_alphanumeric() || matches!(b, b':' | b'_' | b'-'));
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        Ok(&self.xml[start..self.pos])
    }

    /// The tag opening here: `<name attr="v" …>` or `…/>`. Every
    /// attribute value's entities are checked.
    fn open(&mut self) -> Result<Tag<'a>, WireError> {
        self.eat("<")?;
        let name = self.name()?;
        let start = self.pos;
        loop {
            self.skip_ws();
            match self.xml.as_bytes().get(self.pos) {
                Some(b'>' | b'/') => break,
                Some(_) => {}
                None => return Err(self.err("unterminated tag")),
            }
            self.name()?;
            self.skip_ws();
            self.eat("=")?;
            self.skip_ws();
            self.eat("\"")?;
            let value = self
                .until(b'"')
                .ok_or_else(|| self.err("unterminated attribute"))?;
            self.pos += 1;
            unescape(value)?;
        }
        let tag = Tag {
            name,
            attrs: &self.xml[start..self.pos],
            empty: self.rest().starts_with('/'),
        };
        self.eat(if tag.empty { "/>" } else { ">" })?;
        Ok(tag)
    }

    /// `</name>`, closing `tag`.
    fn close(&mut self, tag: &Tag<'_>) -> Result<(), WireError> {
        self.eat("</")?;
        let name = self.name()?;
        if name != tag.name {
            return Err(self.err(format_args!("mismatched </{name}> for <{}>", tag.name)));
        }
        self.skip_ws();
        self.eat(">")
    }

    /// Whether another child element of `parent` starts here; consumes the
    /// parent's close tag when none does. Text is an error: no structural
    /// position in a body holds any.
    fn next_child(&mut self, parent: &Tag<'_>) -> Result<bool, WireError> {
        if parent.empty {
            return Ok(false);
        }
        match self.rest().as_bytes() {
            [b'<', b'/', ..] => self.close(parent).map(|()| false),
            [b'<', ..] => Ok(true),
            [] => Err(self.err(format_args!("unterminated <{}>", parent.name))),
            _ => Err(self.err(format_args!("text in <{}>", parent.name))),
        }
    }

    /// The end of a tag that holds nothing.
    fn end(&mut self, tag: &Tag<'_>) -> Result<(), WireError> {
        if self.next_child(tag)? {
            return Err(self.err(format_args!("element in <{}>", tag.name)));
        }
        Ok(())
    }

    /// The text content of `tag` up to its close tag, which it consumes.
    fn text(&mut self, tag: &Tag<'_>) -> Result<Cow<'a, str>, WireError> {
        if tag.empty {
            return Ok(Cow::Borrowed(""));
        }
        let rest = self.rest();
        let len = rest
            .find('<')
            .ok_or_else(|| self.err(format_args!("unterminated <{}>", tag.name)))?;
        self.pos += len;
        if !self.rest().starts_with("</") {
            return Err(self.err(format_args!("element in <{}>", tag.name)));
        }
        self.close(tag)?;
        unescape(&rest[..len])
    }

    /// The one child of `parent`, read by `read`.
    fn only_child<T>(
        &mut self,
        parent: &Tag<'_>,
        read: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if !self.next_child(parent)? {
            return Err(self.err(format_args!("<{}> missing child element", parent.name)));
        }
        let value = read(self)?;
        if self.next_child(parent)? {
            return Err(self.err(format_args!("second child in <{}>", parent.name)));
        }
        Ok(value)
    }

    /// Every child of `parent`, each read by `read`, up to its close tag.
    fn children<T>(
        &mut self,
        parent: &Tag<'_>,
        mut read: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut out = Vec::new();
        while self.next_child(parent)? {
            out.push(read(self)?);
        }
        Ok(out)
    }

    /// The element opening here, which must be named `name`.
    fn open_named(&mut self, name: &str) -> Result<Tag<'a>, WireError> {
        let e = self.open()?;
        let got = e.name;
        if got != name {
            return Err(WireError::new(format!("expected <{name}>, got <{got}>")));
        }
        Ok(e)
    }
}

/// Read a signature-position attribute: the inline form interns (when a
/// table is present), the `rafda:sigref` form resolves against the table.
fn sig_attr(tag: &Tag<'_>, name: &str, sigs: Sigs<'_, '_>) -> Result<String, WireError> {
    if tag.raw(name).is_none() && tag.raw("rafda:sigref").is_some() {
        let id: u32 = tag.num("rafda:sigref")?;
        return match sigs.as_deref_mut() {
            Some(t) => Ok(t.resolve(id)?.to_owned()),
            None => Err(WireError::new(format!(
                "sigref {id} without a negotiated table"
            ))),
        };
    }
    let s = unescape(tag.attr(name)?)?;
    if let Some(t) = sigs.as_deref_mut() {
        t.intern(&s);
    }
    Ok(s.into_owned())
}

/// Write a signature-position attribute (` name="value"`, leading space).
/// With a negotiated table, a previously-seen signature is replaced by a
/// ` rafda:sigref="N"` reference; first use stays inline and interns on
/// both ends (define-on-first-use, mirroring the binary codecs' marker).
fn sig_attr_out(out: &mut String, name: &str, value: &str, sigs: Sigs<'_, '_>) {
    if let Some(t) = sigs.as_deref_mut() {
        if let SigEnc::Ref(id) = t.encode_sig(value) {
            let _ = write!(out, " rafda:sigref=\"{id}\"");
            return;
        }
    }
    let _ = write!(out, " {name}=\"");
    escape(value, out);
    out.push('"');
}

// ---------------------------------------------------------------------
// Values and the envelope
// ---------------------------------------------------------------------

fn write_value(out: &mut String, v: &WireValue, sigs: Sigs<'_, '_>) {
    let _ = match v {
        WireValue::Null => out.write_str("<v t=\"null\"/>"),
        WireValue::Bool(b) => write!(out, "<v t=\"boolean\">{b}</v>"),
        WireValue::Int(i) => write!(out, "<v t=\"int\">{i}</v>"),
        WireValue::Long(i) => write!(out, "<v t=\"long\">{i}</v>"),
        WireValue::Float(x) => write!(out, "<v t=\"float\" bits=\"{:08x}\">{x}</v>", x.to_bits()),
        WireValue::Double(x) => {
            write!(out, "<v t=\"double\" bits=\"{:016x}\">{x}</v>", x.to_bits())
        }
        WireValue::Str(s) => {
            out.push_str("<v t=\"string\">");
            escape(s, out);
            out.write_str("</v>")
        }
        WireValue::Remote {
            node,
            object,
            class,
        } => {
            let _ = write!(out, "<v t=\"ref\" node=\"{node}\" object=\"{object}\"");
            sig_attr_out(out, "class", class, sigs);
            out.write_str("/>")
        }
        WireValue::Array(items) => {
            out.push_str("<v t=\"array\">");
            for item in items {
                write_value(out, item, sigs);
            }
            out.write_str("</v>")
        }
        WireValue::ObjectState { class, fields } => {
            out.push_str("<v t=\"state\"");
            sig_attr_out(out, "class", class, sigs);
            out.push('>');
            for f in fields {
                write_value(out, f, sigs);
            }
            out.write_str("</v>")
        }
    };
}

/// `text` read as a `what`.
fn parse<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, WireError> {
    text.parse()
        .map_err(|_| WireError::new(format!("bad {what} {text:?}")))
}

fn read_value(r: &mut Reader<'_>, sigs: Sigs<'_, '_>) -> Result<WireValue, WireError> {
    let e = r.open_named("v")?;
    Ok(match e.attr("t")? {
        "null" => r.end(&e).map(|()| WireValue::Null)?,
        "boolean" => match &*r.text(&e)? {
            "true" => WireValue::Bool(true),
            "false" => WireValue::Bool(false),
            other => return Err(WireError::new(format!("bad boolean {other:?}"))),
        },
        "int" => WireValue::Int(parse(&r.text(&e)?, "int")?),
        "long" => WireValue::Long(parse(&r.text(&e)?, "long")?),
        "float" => {
            let bits = u32::from_str_radix(e.attr("bits")?, 16)
                .map_err(|_| WireError::new("bad float bits"))?;
            r.text(&e)?;
            WireValue::Float(f32::from_bits(bits))
        }
        "double" => {
            let bits = u64::from_str_radix(e.attr("bits")?, 16)
                .map_err(|_| WireError::new("bad double bits"))?;
            r.text(&e)?;
            WireValue::Double(f64::from_bits(bits))
        }
        "string" => WireValue::Str(r.text(&e)?.into_owned()),
        "ref" => {
            let value = WireValue::Remote {
                node: e.num("node")?,
                object: e.num("object")?,
                class: sig_attr(&e, "class", sigs)?,
            };
            r.end(&e)?;
            value
        }
        "array" => WireValue::Array(r.children(&e, |r| read_value(r, sigs))?),
        "state" => WireValue::ObjectState {
            class: sig_attr(&e, "class", sigs)?,
            fields: r.children(&e, |r| read_value(r, sigs))?,
        },
        t => return Err(WireError::new(format!("unknown value type {t}"))),
    })
}

/// The envelope an encoder writes, as the text before each number it carries
/// (message id, trace id, span, parent, a reply's object version), from the
/// last number to the body (request, reply), and after the body.
const HEAD: [&str; 5] = [
    "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
     <soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\" \
     xmlns:rafda=\"http://rafda.dcs.st-and.ac.uk/ns/2003\">\n<soap:Header><rafda:mid>",
    "</rafda:mid><rafda:trace id=\"",
    "\" span=\"",
    "\" parent=\"",
    "\"/><rafda:objver>",
];
const HEAD_END: [&str; 2] = [
    "\"/></soap:Header>\n<soap:Body>",
    "</rafda:objver></soap:Header>\n<soap:Body>",
];
const TAIL: &str = "</soap:Body>\n</soap:Envelope>\n";

/// Write an envelope around `body` into a reusable buffer. `objver` is
/// `Some` only for replies, which piggyback the served object's property
/// version as a `<rafda:objver>` header element; requests never carry one.
fn envelope_into(
    s: &mut String,
    id: u64,
    ctx: TraceContext,
    objver: Option<u64>,
    body: impl FnOnce(&mut String),
) {
    let numbers = [id, ctx.trace_id, ctx.span_id, ctx.parent_span_id];
    for (text, n) in HEAD.iter().zip(numbers.into_iter().chain(objver)) {
        let _ = write!(s, "{text}{n}");
    }
    s.push_str(HEAD_END[usize::from(objver.is_some())]);
    body(s);
    s.push_str(TAIL);
}

/// Read the envelope [`envelope_into`] writes, and only that: the text
/// around each number is matched exactly, each number is plain decimal, and
/// `<soap:Body>`'s content comes back as an unparsed slice. `reply` selects
/// the reply header, the one that carries `<rafda:objver>`; a request
/// reports version 0. Any other envelope is an error that names the text
/// expected and the byte offset where it was expected.
fn encoder_layout(xml: &str, reply: bool) -> Result<(u64, TraceContext, u64, &str), WireError> {
    let mut r = Reader { xml, pos: 0 };
    let mut n = [0; 5];
    for (text, slot) in HEAD.iter().zip(&mut n[..4 + usize::from(reply)]) {
        r.eat(text)?;
        let start = r.pos;
        r.skip(|b| b.is_ascii_digit());
        *slot = xml[start..r.pos].parse().map_err(|_| {
            r.pos = start;
            r.err("expected a number")
        })?;
    }
    r.eat(HEAD_END[usize::from(reply)])?;
    let Some(body) = r.rest().strip_suffix(TAIL) else {
        r.pos = xml.len().saturating_sub(TAIL.len()).max(r.pos);
        return Err(r.err(format_args!("expected '{TAIL}'")));
    };
    let [id, trace_id, span_id, parent_span_id, objver] = n;
    let ctx = TraceContext {
        trace_id,
        span_id,
        parent_span_id,
    };
    Ok((id, ctx, objver, body))
}

/// Read a body slice: exactly one element, read by `read`, and nothing
/// around it.
fn read_body<'a, T>(
    body: &'a str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let mut r = Reader { xml: body, pos: 0 };
    let value = read(&mut r)?;
    if !r.rest().is_empty() {
        return Err(r.err("content after the element in <soap:Body>"));
    }
    Ok(value)
}

/// Peek the request discriminant from an unparsed body slice.
fn body_kind(body: &str) -> Result<RequestKind, WireError> {
    let mut r = Reader { xml: body, pos: 0 };
    r.eat("<")?;
    Ok(match r.name()? {
        "rafda:call" => RequestKind::Call,
        "rafda:create" => RequestKind::Create,
        "rafda:discover" => RequestKind::Discover,
        "rafda:install" => RequestKind::Install,
        "rafda:replicasync" => RequestKind::ReplicaSync,
        "rafda:promote" => RequestKind::Promote,
        "rafda:batch" => RequestKind::Batch,
        name => return Err(WireError::new(format!("unknown request <{name}>"))),
    })
}

/// Lazy-payload materialisation for the XML codec: read the body slice
/// recorded by the header scan into an owned [`Request`].
pub(crate) fn materialise_body(body: &str, sigs: Sigs<'_, '_>) -> Result<Request, WireError> {
    read_body(body, |r| read_request(r, sigs))
}

// ---------------------------------------------------------------------
// Request / Reply <-> XML (body elements, recursive so batches can nest)
// ---------------------------------------------------------------------

fn write_request_elem(b: &mut String, req: &Request, sigs: Sigs<'_, '_>) {
    let _ = match req {
        Request::Call {
            object,
            method,
            args,
        } => {
            let _ = write!(b, "<rafda:call object=\"{object}\"");
            sig_attr_out(b, "method", method, sigs);
            b.push('>');
            for a in args {
                write_value(b, a, sigs);
            }
            b.write_str("</rafda:call>")
        }
        Request::Create { class } => {
            b.push_str("<rafda:create");
            sig_attr_out(b, "class", class, sigs);
            b.write_str("/>")
        }
        Request::Discover { class } => {
            b.push_str("<rafda:discover");
            sig_attr_out(b, "class", class, sigs);
            b.write_str("/>")
        }
        Request::Install {
            state,
            source: (n, o),
        } => {
            let _ = write!(b, "<rafda:install srcnode=\"{n}\" srcobject=\"{o}\">");
            write_value(b, state, sigs);
            b.write_str("</rafda:install>")
        }
        Request::ReplicaSync {
            object,
            version,
            state,
        } => {
            let _ = write!(
                b,
                "<rafda:replicasync object=\"{object}\" version=\"{version}\">"
            );
            write_value(b, state, sigs);
            b.write_str("</rafda:replicasync>")
        }
        Request::Promote { node, object } => {
            write!(b, "<rafda:promote node=\"{node}\" object=\"{object}\"/>")
        }
        Request::Batch(ops) => {
            b.push_str("<rafda:batch>");
            for op in ops {
                write_request_elem(b, op, sigs);
            }
            b.write_str("</rafda:batch>")
        }
    };
}

fn read_request(r: &mut Reader<'_>, sigs: Sigs<'_, '_>) -> Result<Request, WireError> {
    use RequestKind::{Create, Discover, Promote};
    let e = r.open()?;
    // Attributes before children: the encoder defines signatures in that
    // order, so interning must follow it.
    let req = match e.name {
        "rafda:call" => Request::Call {
            object: e.num("object")?,
            method: sig_attr(&e, "method", sigs)?,
            args: r.children(&e, |r| read_value(r, sigs))?,
        },
        "rafda:create" => Request::Create {
            class: sig_attr(&e, "class", sigs)?,
        },
        "rafda:discover" => Request::Discover {
            class: sig_attr(&e, "class", sigs)?,
        },
        "rafda:install" => Request::Install {
            source: (e.num("srcnode")?, e.num("srcobject")?),
            state: r.only_child(&e, |r| read_value(r, sigs))?,
        },
        "rafda:replicasync" => Request::ReplicaSync {
            object: e.num("object")?,
            version: e.num("version")?,
            state: r.only_child(&e, |r| read_value(r, sigs))?,
        },
        "rafda:promote" => Request::Promote {
            node: e.num("node")?,
            object: e.num("object")?,
        },
        "rafda:batch" => Request::Batch(r.children(&e, |r| read_request(r, sigs))?),
        name => return Err(WireError::new(format!("unknown request <{name}>"))),
    };
    // The rest hold no elements.
    if matches!(RequestKind::of(&req), Create | Discover | Promote) {
        r.end(&e)?;
    }
    Ok(req)
}

fn write_reply_elem(b: &mut String, reply: &Reply, sigs: Sigs<'_, '_>) {
    match reply {
        Reply::Value(v) => {
            b.push_str("<rafda:result>");
            write_value(b, v, sigs);
            b.push_str("</rafda:result>");
        }
        Reply::Exception { class, fields } => {
            b.push_str("<rafda:exception");
            sig_attr_out(b, "class", class, sigs);
            b.push('>');
            for f in fields {
                write_value(b, f, sigs);
            }
            b.push_str("</rafda:exception>");
        }
        Reply::Fault(msg) => {
            b.push_str("<soap:Fault><faultstring>");
            escape(msg, b);
            b.push_str("</faultstring></soap:Fault>");
        }
        Reply::Batch(ops) => {
            b.push_str("<rafda:batchresult>");
            for (version, reply) in ops {
                let _ = write!(b, "<rafda:op objver=\"{version}\">");
                write_reply_elem(b, reply, sigs);
                b.push_str("</rafda:op>");
            }
            b.push_str("</rafda:batchresult>");
        }
    }
}

fn read_reply(r: &mut Reader<'_>, sigs: Sigs<'_, '_>) -> Result<Reply, WireError> {
    let e = r.open()?;
    Ok(match e.name {
        "rafda:result" => Reply::Value(r.only_child(&e, |r| read_value(r, sigs))?),
        "rafda:exception" => Reply::Exception {
            class: sig_attr(&e, "class", sigs)?,
            fields: r.children(&e, |r| read_value(r, sigs))?,
        },
        "soap:Fault" => Reply::Fault(r.only_child(&e, |r| {
            let f = r.open_named("faultstring")?;
            Ok(r.text(&f)?.into_owned())
        })?),
        "rafda:batchresult" => Reply::Batch(r.children(&e, |r| {
            let op = r.open_named("rafda:op")?;
            Ok((
                op.num("objver")?,
                r.only_child(&op, |r| read_reply(r, sigs))?,
            ))
        })?),
        name => return Err(WireError::new(format!("unknown reply <{name}>"))),
    })
}

// ---------------------------------------------------------------------
// The codec
// ---------------------------------------------------------------------

/// The SOAP-like protocol.
#[derive(Debug, Clone, Copy, Default)]
pub struct SoapCodec;

impl SoapCodec {
    /// Create the codec.
    pub fn new() -> Self {
        SoapCodec
    }
}

/// Recycle a pooled byte buffer as an empty `String` (capacity kept).
fn take_string(out: &mut Vec<u8>) -> String {
    let mut buf = std::mem::take(out);
    buf.clear();
    String::from_utf8(buf).unwrap_or_default()
}

impl Protocol for SoapCodec {
    fn name(&self) -> &'static str {
        "SOAP"
    }

    fn encode_request_into(
        &self,
        id: u64,
        ctx: TraceContext,
        req: &Request,
        mut sigs: Option<&mut SigTable>,
        out: &mut Vec<u8>,
    ) -> Result<(), WireError> {
        let mut s = take_string(out);
        envelope_into(&mut s, id, ctx, None, |b| {
            write_request_elem(b, req, &mut sigs);
        });
        *out = s.into_bytes();
        Ok(())
    }

    fn decode_request_header<'a>(&self, bytes: &'a [u8]) -> Result<FrameHeader<'a>, WireError> {
        let xml = std::str::from_utf8(bytes).map_err(|_| WireError::new("invalid utf-8"))?;
        let (msg_id, ctx, _, body) = encoder_layout(xml, false)?;
        let kind = body_kind(body)?;
        Ok(FrameHeader {
            msg_id,
            ctx,
            kind,
            payload: Payload::Xml { body },
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
        let mut s = take_string(out);
        envelope_into(&mut s, id, ctx, Some(obj_version), |b| {
            write_reply_elem(b, reply, &mut sigs);
        });
        *out = s.into_bytes();
        Ok(())
    }

    fn decode_reply_with(
        &self,
        bytes: &[u8],
        mut sigs: Option<&mut SigTable>,
    ) -> Result<(u64, TraceContext, u64, Reply), WireError> {
        let xml = std::str::from_utf8(bytes).map_err(|_| WireError::new("invalid utf-8"))?;
        let (id, ctx, obj_version, body) = encoder_layout(xml, true)?;
        let reply = read_body(body, |r| read_reply(r, &mut sigs))?;
        Ok((id, ctx, obj_version, reply))
    }

    /// XML assembly + parse dominated 2003 SOAP stacks: ~400 µs per message.
    fn overhead_ns(&self) -> u64 {
        400_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testdata;

    #[test]
    fn roundtrips_all_samples() {
        testdata::assert_roundtrips(&SoapCodec::new());
    }

    #[test]
    fn xml_parser_handles_nesting_attrs_and_entities() {
        let xml = r#"<a x="1 &amp; 2" y = "plain"><b/><c z="&lt;q&gt;">text &lt;here&gt;</c></a>"#;
        let mut r = Reader { xml, pos: 0 };
        let a = r.open().unwrap();
        assert_eq!(a.name, "a");
        assert_eq!(
            a.attr("x").unwrap(),
            "1 &amp; 2",
            "values stay slices of the frame"
        );
        assert_eq!(unescape(a.attr("x").unwrap()).unwrap(), "1 & 2");
        assert!(matches!(
            unescape(a.attr("y").unwrap()).unwrap(),
            Cow::Borrowed("plain")
        ));
        assert!(a.attr("w").is_err());
        assert!(r.next_child(&a).unwrap());
        let b = r.open().unwrap();
        assert!(b.empty);
        r.end(&b).unwrap();
        assert!(r.next_child(&a).unwrap());
        let c = r.open().unwrap();
        assert_eq!(unescape(c.attr("z").unwrap()).unwrap(), "<q>");
        assert_eq!(r.text(&c).unwrap(), "text <here>");
        assert!(
            !r.next_child(&a).unwrap(),
            "the close tag ends the children"
        );
        assert!(r.rest().is_empty());
    }

    #[test]
    fn mismatched_close_tag_rejected() {
        let mut r = Reader {
            xml: "<a><b></a></b>",
            pos: 0,
        };
        let a = r.open().unwrap();
        assert!(r.next_child(&a).unwrap());
        let b = r.open().unwrap();
        let err = r.text(&b).unwrap_err();
        assert!(err.0.contains("mismatched </a> for <b>"), "{err}");
        let mut r = Reader { xml: "<a>", pos: 0 };
        let a = r.open().unwrap();
        assert!(r.next_child(&a).unwrap_err().0.contains("unterminated <a>"));
        // Text and elements do not mix: a scalar holds text, a parent
        // holds elements.
        let mut r = Reader {
            xml: "<a>x<b/></a>",
            pos: 0,
        };
        let a = r.open().unwrap();
        assert!(r.text(&a).unwrap_err().0.contains("element in <a>"));
        let mut r = Reader {
            xml: "<a><b/>x</a>",
            pos: 0,
        };
        let a = r.open().unwrap();
        assert!(r.next_child(&a).unwrap());
        r.open().unwrap();
        assert!(r.next_child(&a).unwrap_err().0.contains("text in <a>"));
    }

    #[test]
    fn escape_copies_runs_and_unescape_borrows_entity_free_text() {
        let mut out = String::new();
        escape("a<b & 'c' \"d\" > ☃", &mut out);
        assert_eq!(out, "a&lt;b &amp; &apos;c&apos; &quot;d&quot; &gt; ☃");
        assert_eq!(unescape(&out).unwrap(), "a<b & 'c' \"d\" > ☃");
        assert!(matches!(
            unescape("☃ plain").unwrap(),
            Cow::Borrowed("☃ plain")
        ));
        assert!(unescape("a &bogus; b").is_err());
        assert!(unescape("a &amp b").is_err());
    }

    #[test]
    fn string_content_with_xml_metacharacters_roundtrips() {
        let codec = SoapCodec::new();
        let reply = Reply::Value(WireValue::Str("<v t=\"string\">&amp;</v>".into()));
        let bytes = codec
            .encode_reply(11, TraceContext::NONE, 4, &reply)
            .unwrap();
        assert_eq!(
            codec.decode_reply(&bytes).unwrap(),
            (11, TraceContext::NONE, 4, reply)
        );
    }

    #[test]
    fn nan_and_negative_zero_roundtrip_via_bits() {
        let codec = SoapCodec::new();
        for v in [
            WireValue::Double(f64::NAN),
            WireValue::Double(-0.0),
            WireValue::Float(f32::INFINITY),
        ] {
            let bytes = codec
                .encode_reply(0, TraceContext::NONE, 0, &Reply::Value(v.clone()))
                .unwrap();
            let (_, _, _, back) = codec.decode_reply(&bytes).unwrap();
            match (back, v) {
                (Reply::Value(WireValue::Double(a)), WireValue::Double(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                (Reply::Value(WireValue::Float(a)), WireValue::Float(b)) => {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn envelope_is_present() {
        let ctx = TraceContext {
            trace_id: 3,
            span_id: 8,
            parent_span_id: 2,
        };
        let bytes = SoapCodec::new()
            .encode_request(42, ctx, &Request::Promote { node: 1, object: 1 })
            .unwrap();
        let s = String::from_utf8(bytes).unwrap();
        assert!(s.contains("soap:Envelope"));
        assert!(s.contains("soap:Body"));
        assert!(s.contains(
            "<soap:Header><rafda:mid>42</rafda:mid>\
             <rafda:trace id=\"3\" span=\"8\" parent=\"2\"/></soap:Header>"
        ));
        assert!(s.starts_with("<?xml"));
    }

    #[test]
    fn reply_header_carries_object_version() {
        let bytes = SoapCodec::new()
            .encode_reply(7, TraceContext::NONE, 19, &Reply::Value(WireValue::Int(1)))
            .unwrap();
        let s = String::from_utf8(bytes.clone()).unwrap();
        assert!(s.contains("<rafda:objver>19</rafda:objver>"), "{s}");
        let (_, _, ver, _) = SoapCodec::new().decode_reply(&bytes).unwrap();
        assert_eq!(ver, 19);
    }

    #[test]
    fn sigref_attributes_roundtrip_and_shrink() {
        let codec = SoapCodec::new();
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
        let text = std::str::from_utf8(&first).unwrap();
        assert!(
            text.contains("method=\"observe_price@17\""),
            "first use is inline: {text}"
        );
        let h = codec.decode_request_header(&first).unwrap();
        assert_eq!((h.msg_id, h.kind), (1, RequestKind::Call));
        assert_eq!(h.materialise(Some(&mut dec)).unwrap(), req);

        let mut second = Vec::new();
        codec
            .encode_request_into(2, TraceContext::NONE, &req, Some(&mut enc), &mut second)
            .unwrap();
        let text2 = std::str::from_utf8(&second).unwrap();
        assert!(
            text2.contains("rafda:sigref=\"0\"") && text2.contains("rafda:sigref=\"1\""),
            "later uses are references: {text2}"
        );
        assert!(second.len() < first.len());
        let h2 = codec.decode_request_header(&second).unwrap();
        assert_eq!(h2.materialise(Some(&mut dec)).unwrap(), req);
        // Reference frames are meaningless without the link table.
        let err = codec.decode_request(&second).unwrap_err();
        assert!(err.0.contains("sigref"), "got: {err}");
    }

    #[test]
    fn header_scan_matches_full_decode() {
        let codec = SoapCodec::new();
        for (i, req) in testdata::sample_requests().into_iter().enumerate() {
            let ctx = TraceContext {
                trace_id: i as u64 + 1,
                span_id: 2,
                parent_span_id: 1,
            };
            let bytes = codec.encode_request(i as u64, ctx, &req).unwrap();
            let (id, fctx, full) = codec.decode_request(&bytes).unwrap();
            let h = codec.decode_request_header(&bytes).unwrap();
            assert_eq!((h.msg_id, h.ctx), (id, fctx));
            assert_eq!(h.materialise(None).unwrap(), full);
        }
    }

    #[test]
    fn envelopes_missing_a_header_element_are_rejected() {
        // An encoder always writes the full header set: <rafda:mid> and
        // <rafda:trace>, plus <rafda:objver> on replies. An envelope
        // without one of them is not a frame of ours, and the error names
        // the text expected where the element should start.
        let codec = SoapCodec::new();
        let ctx = TraceContext {
            trace_id: 1,
            span_id: 2,
            parent_span_id: 0,
        };
        let text = |frame: Vec<u8>| String::from_utf8(frame).unwrap();
        let request = text(
            codec
                .encode_request(6, ctx, &Request::Promote { node: 1, object: 5 })
                .unwrap(),
        );
        let reply = text(
            codec
                .encode_reply(6, ctx, 4, &Reply::Value(WireValue::Int(9)))
                .unwrap(),
        );
        const MID: &str = "<rafda:mid>6</rafda:mid>";
        const TRACE: &str = "<rafda:trace id=\"1\" span=\"2\" parent=\"0\"/>";
        const OBJVER: &str = "<rafda:objver>4</rafda:objver>";

        // The complete sets decode.
        let h = codec.decode_request_header(request.as_bytes()).unwrap();
        assert_eq!((h.msg_id, h.ctx), (6, ctx));
        let decoded = codec.decode_reply_with(reply.as_bytes(), None).unwrap();
        assert_eq!((decoded.0, decoded.1, decoded.2), (6, ctx, 4));

        let without = |frame: &str, elem: &str| {
            assert!(frame.contains(elem), "{elem} in {frame}");
            frame.replacen(elem, "", 1)
        };
        for (missing, req_elem, rep_elem) in [
            (
                "soap:Header",
                format!("<soap:Header>{MID}{TRACE}</soap:Header>"),
                format!("<soap:Header>{MID}{TRACE}{OBJVER}</soap:Header>"),
            ),
            ("rafda:mid", MID.into(), MID.into()),
            ("rafda:trace", TRACE.into(), TRACE.into()),
        ] {
            let err = codec
                .decode_request_header(without(&request, &req_elem).as_bytes())
                .unwrap_err();
            assert!(err.0.contains(missing), "request without {missing}: {err}");
            let err = codec
                .decode_reply_with(without(&reply, &rep_elem).as_bytes(), None)
                .unwrap_err();
            assert!(err.0.contains(missing), "reply without {missing}: {err}");
        }
        let no_objver = without(&reply, OBJVER);
        let err = codec
            .decode_reply_with(no_objver.as_bytes(), None)
            .unwrap_err();
        assert!(
            err.0.contains("rafda:objver"),
            "reply without objver: {err}"
        );
        // The offset is where the expected text should have started: here,
        // the quote that closes the trace's parent attribute.
        let at = no_objver.find("\"/></soap:Header>").unwrap();
        assert!(err.0.ends_with(&format!(" at byte {at}")), "{err}");
    }

    #[test]
    fn envelopes_other_than_the_encoders_are_rejected() {
        // Both ends of a link run this encoder, so the envelope is held to
        // its exact text. A foreign header block, an extra envelope child,
        // the body first, a padded number or an extra attribute is an error
        // naming the text expected and where, around a body that decodes.
        let codec = SoapCodec::new();
        const BODY: &str = "<soap:Body><rafda:promote node=\"1\" object=\"5\"/></soap:Body>";
        const WSA: &str = "<wsa:To xmlns:wsa=\"urn:a\">urn:b &amp; c<x/></wsa:To>";
        let ctx = TraceContext {
            trace_id: 1,
            span_id: 2,
            parent_span_id: 0,
        };
        let own = codec
            .encode_request(6, ctx, &Request::Promote { node: 1, object: 5 })
            .unwrap();
        assert!(String::from_utf8(own.clone()).unwrap().contains(BODY));
        assert_eq!(codec.decode_request_header(&own).unwrap().msg_id, 6);

        let trace = "<rafda:trace xmlns:a=\"1\" xmlns:b=\"2\" xmlns:c=\"3\" xmlns:d=\"4\" \
                     id=\"1\" span=\"2\" parent=\"0\"/>";
        let header = |elems: &str| format!("<soap:Header>{elems}</soap:Header>");
        let mid = "<rafda:mid> 6 </rafda:mid><rafda:mid>7</rafda:mid>";
        let mut frames = Vec::new();
        for (label, children) in [
            (
                "a foreign header block",
                header(&format!("{WSA}{mid}{trace}")) + BODY,
            ),
            (
                "the body first",
                format!("{BODY}\n{}", header(&format!("{mid}{trace}"))),
            ),
            (
                "other envelope children",
                format!(
                    "<x>y</x>{}z{WSA}{BODY}<w/>",
                    header(&format!("{mid}{trace}"))
                ),
            ),
            (
                "a trace with children",
                header(&format!(
                    "{mid}<rafda:trace id=\"1\" span=\"2\" parent=\"0\"><q/></rafda:trace>"
                )) + BODY,
            ),
            (
                "a bad number",
                header(&format!("<rafda:mid>6x</rafda:mid>{mid}{trace}")) + BODY,
            ),
            (
                "a broken foreign block",
                header(&format!("<wsa:To>&bogus;</wsa:To>{mid}{trace}")) + BODY,
            ),
            ("two bodies", header(&format!("{mid}{trace}")) + BODY + BODY),
        ] {
            frames.push((
                label,
                format!("<soap:Envelope xmlns:soap=\"x\">{children}</soap:Envelope>"),
            ));
        }
        for (label, frame) in &frames {
            let err = codec.decode_request_header(frame.as_bytes()).unwrap_err();
            assert!(
                err.0.contains("expected '") && err.0.contains("' at byte "),
                "{label}: {err}"
            );
        }
        let reply = "<soap:Envelope><soap:Header><rafda:objver>\n4\n</rafda:objver>\
                     <rafda:mid>6</rafda:mid><rafda:trace id=\"1\" span=\"2\" parent=\"0\"/>\
                     </soap:Header><soap:Body><rafda:result><v t=\"null\"/></rafda:result>\
                     </soap:Body></soap:Envelope>";
        let err = codec.decode_reply(reply.as_bytes()).unwrap_err();
        assert!(err.0.contains("expected '"), "{err}");
        // The encoder's own envelope, changed in one place.
        let own = String::from_utf8(own).unwrap();
        let at = own.find(">6<").unwrap() + 1;
        for (label, frame, error) in [
            (
                "a padded number",
                own.replacen(">6<", "> 6<", 1),
                "a number",
            ),
            (
                "a signed number",
                own.replacen(">6<", ">+6<", 1),
                "a number",
            ),
            (
                "a number past u64",
                own.replacen(">6<", ">18446744073709551616<", 1),
                "a number",
            ),
            ("a lost last byte", own[..own.len() - 1].to_owned(), TAIL),
        ] {
            let err = codec.decode_request_header(frame.as_bytes()).unwrap_err();
            let at = if error == TAIL {
                own.len() - 1 - TAIL.len()
            } else {
                at
            };
            assert!(
                err.0.contains(error) && err.0.ends_with(&format!(" at byte {at}")),
                "{label}: {err}"
            );
        }
    }
}
