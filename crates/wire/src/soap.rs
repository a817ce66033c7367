//! SOAP-like codec: a verbose, self-describing XML text protocol.
//!
//! Faithful to the family's cost signature: an enveloped, attribute-heavy
//! textual encoding parsed back from characters (not memcpy'd), with the
//! highest per-message processing overhead of the three codecs. Floats are
//! printed human-readably but carry a `bits` attribute so round-trips are
//! exact.

use crate::frame::{FrameHeader, Payload, RequestKind};
use crate::sig::{SigEnc, SigTable, Sigs};
use crate::{Protocol, Reply, Request, TraceContext, WireError, WireValue};
use std::fmt::Write as _;

// ---------------------------------------------------------------------
// Tiny XML subset: elements, attributes, text, entity escapes.
// ---------------------------------------------------------------------

/// A parsed XML element.
#[derive(Debug, Clone, PartialEq)]
struct Element {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Node>,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Elem(Element),
    Text(String),
}

impl Element {
    fn attr(&self, name: &str) -> Result<&str, WireError> {
        self.attrs
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| WireError::new(format!("<{}> missing attribute {name}", self.name)))
    }

    fn attr_parsed<T: std::str::FromStr>(&self, name: &str) -> Result<T, WireError> {
        self.attr(name)?
            .parse()
            .map_err(|_| WireError::new(format!("<{}> bad {name} attribute", self.name)))
    }

    fn elems(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(|n| match n {
            Node::Elem(e) => Some(e),
            Node::Text(_) => None,
        })
    }

    fn first_elem(&self) -> Result<&Element, WireError> {
        self.elems()
            .next()
            .ok_or_else(|| WireError::new(format!("<{}> missing child element", self.name)))
    }

    fn child(&self, name: &str) -> Result<&Element, WireError> {
        self.elems()
            .find(|e| e.name == name)
            .ok_or_else(|| WireError::new(format!("<{}> missing child <{name}>", self.name)))
    }

    fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }
}

fn escape(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c => out.push(c),
        }
    }
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

/// Read a signature-position attribute: the inline form interns (when a
/// table is present), the `rafda:sigref` form resolves against the table.
fn sig_attr(e: &Element, name: &str, sigs: Sigs<'_, '_>) -> Result<String, WireError> {
    if let Ok(s) = e.attr(name) {
        if let Some(t) = sigs.as_deref_mut() {
            t.intern(s);
        }
        return Ok(s.to_owned());
    }
    if let Ok(id) = e.attr("rafda:sigref") {
        let id: u32 = id
            .parse()
            .map_err(|_| WireError::new(format!("<{}> bad rafda:sigref", e.name)))?;
        return match sigs.as_deref_mut() {
            Some(t) => Ok(t.resolve(id)?.to_owned()),
            None => Err(WireError::new(format!(
                "sigref {id} without a negotiated table"
            ))),
        };
    }
    Err(WireError::new(format!(
        "<{}> missing attribute {name}",
        e.name
    )))
}

struct Parser<'a> {
    input: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input: input.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> WireError {
        WireError::new(format!("xml: {msg} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), WireError> {
        if self.bump() == Some(b) {
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn name(&mut self) -> Result<String, WireError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c) if c.is_ascii_alphanumeric() || c == b':' || c == b'_' || c == b'-')
        {
            self.pos += 1;
        }
        if self.pos == start {
            return Err(self.err("expected name"));
        }
        Ok(String::from_utf8_lossy(&self.input[start..self.pos]).into_owned())
    }

    fn unescape_run(&mut self, stop: &[u8]) -> Result<String, WireError> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None => break,
                Some(c) if stop.contains(&c) => break,
                Some(b'&') => {
                    self.pos += 1;
                    let start = self.pos;
                    while self.peek().is_some_and(|c| c != b';') {
                        self.pos += 1;
                    }
                    let entity = &self.input[start..self.pos];
                    self.eat(b';')?;
                    out.push(match entity {
                        b"amp" => '&',
                        b"lt" => '<',
                        b"gt" => '>',
                        b"quot" => '"',
                        b"apos" => '\'',
                        _ => return Err(self.err("unknown entity")),
                    });
                }
                Some(_) => {
                    // Consume one UTF-8 scalar.
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.input.len() && (self.input[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(&String::from_utf8_lossy(&self.input[start..self.pos]));
                }
            }
        }
        Ok(out)
    }

    /// Parse the next element (skipping a leading `<?xml …?>` declaration).
    /// The decode paths now go through `scan_envelope`; the full-document
    /// DOM parse remains for the parser's own tests.
    #[cfg(test)]
    fn document(&mut self) -> Result<Element, WireError> {
        self.skip_ws();
        if self.input[self.pos..].starts_with(b"<?") {
            while self.peek().is_some_and(|c| c != b'>') {
                self.pos += 1;
            }
            self.eat(b'>')?;
        }
        self.skip_ws();
        self.element()
    }

    fn element(&mut self) -> Result<Element, WireError> {
        self.eat(b'<')?;
        let name = self.name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    self.eat(b'>')?;
                    return Ok(Element {
                        name,
                        attrs,
                        children: Vec::new(),
                    });
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(_) => {
                    let key = self.name()?;
                    self.skip_ws();
                    self.eat(b'=')?;
                    self.skip_ws();
                    self.eat(b'"')?;
                    let value = self.unescape_run(b"\"")?;
                    self.eat(b'"')?;
                    attrs.push((key, value));
                }
                None => return Err(self.err("unterminated tag")),
            }
        }
        // Children until matching close tag.
        let mut children = Vec::new();
        loop {
            if self.input[self.pos..].starts_with(b"</") {
                self.pos += 2;
                let close = self.name()?;
                if close != name {
                    return Err(self.err(&format!("mismatched </{close}> for <{name}>")));
                }
                self.skip_ws();
                self.eat(b'>')?;
                return Ok(Element {
                    name,
                    attrs,
                    children,
                });
            }
            match self.peek() {
                Some(b'<') => children.push(Node::Elem(self.element()?)),
                Some(_) => {
                    let text = self.unescape_run(b"<")?;
                    children.push(Node::Text(text));
                }
                None => return Err(self.err(&format!("unterminated <{name}>"))),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Value <-> XML
// ---------------------------------------------------------------------

fn write_value(out: &mut String, v: &WireValue, sigs: Sigs<'_, '_>) {
    match v {
        WireValue::Null => out.push_str("<v t=\"null\"/>"),
        WireValue::Bool(b) => {
            let _ = write!(out, "<v t=\"boolean\">{b}</v>");
        }
        WireValue::Int(i) => {
            let _ = write!(out, "<v t=\"int\">{i}</v>");
        }
        WireValue::Long(i) => {
            let _ = write!(out, "<v t=\"long\">{i}</v>");
        }
        WireValue::Float(x) => {
            let _ = write!(out, "<v t=\"float\" bits=\"{:08x}\">{x}</v>", x.to_bits());
        }
        WireValue::Double(x) => {
            let _ = write!(out, "<v t=\"double\" bits=\"{:016x}\">{x}</v>", x.to_bits());
        }
        WireValue::Str(s) => {
            out.push_str("<v t=\"string\">");
            escape(s, out);
            out.push_str("</v>");
        }
        WireValue::Remote {
            node,
            object,
            class,
        } => {
            let _ = write!(out, "<v t=\"ref\" node=\"{node}\" object=\"{object}\"");
            sig_attr_out(out, "class", class, sigs);
            out.push_str("/>");
        }
        WireValue::Array(items) => {
            out.push_str("<v t=\"array\">");
            for item in items {
                write_value(out, item, sigs);
            }
            out.push_str("</v>");
        }
        WireValue::ObjectState { class, fields } => {
            out.push_str("<v t=\"state\"");
            sig_attr_out(out, "class", class, sigs);
            out.push('>');
            for f in fields {
                write_value(out, f, sigs);
            }
            out.push_str("</v>");
        }
    }
}

fn read_value(e: &Element, sigs: Sigs<'_, '_>) -> Result<WireValue, WireError> {
    if e.name != "v" {
        return Err(WireError::new(format!("expected <v>, got <{}>", e.name)));
    }
    Ok(match e.attr("t")? {
        "null" => WireValue::Null,
        "boolean" => WireValue::Bool(e.text() == "true"),
        "int" => WireValue::Int(e.text().parse().map_err(|_| WireError::new("bad int"))?),
        "long" => WireValue::Long(e.text().parse().map_err(|_| WireError::new("bad long"))?),
        "float" => {
            let bits = u32::from_str_radix(e.attr("bits")?, 16)
                .map_err(|_| WireError::new("bad float bits"))?;
            WireValue::Float(f32::from_bits(bits))
        }
        "double" => {
            let bits = u64::from_str_radix(e.attr("bits")?, 16)
                .map_err(|_| WireError::new("bad double bits"))?;
            WireValue::Double(f64::from_bits(bits))
        }
        "string" => WireValue::Str(e.text()),
        "ref" => WireValue::Remote {
            node: e.attr_parsed("node")?,
            object: e.attr_parsed("object")?,
            class: sig_attr(e, "class", sigs)?,
        },
        "array" => WireValue::Array(
            e.elems()
                .map(|c| read_value(c, sigs))
                .collect::<Result<_, _>>()?,
        ),
        "state" => WireValue::ObjectState {
            class: sig_attr(e, "class", sigs)?,
            fields: e
                .elems()
                .map(|c| read_value(c, sigs))
                .collect::<Result<_, _>>()?,
        },
        t => return Err(WireError::new(format!("unknown value type {t}"))),
    })
}

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
    let _ = write!(
        s,
        "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n\
         <soap:Envelope xmlns:soap=\"http://schemas.xmlsoap.org/soap/envelope/\" \
         xmlns:rafda=\"http://rafda.dcs.st-and.ac.uk/ns/2003\">\n\
         <soap:Header><rafda:mid>{id}</rafda:mid>\
         <rafda:trace id=\"{}\" span=\"{}\" parent=\"{}\"/>",
        ctx.trace_id, ctx.span_id, ctx.parent_span_id
    );
    if let Some(v) = objver {
        let _ = write!(s, "<rafda:objver>{v}</rafda:objver>");
    }
    s.push_str("</soap:Header>\n<soap:Body>");
    body(s);
    s.push_str("</soap:Body>\n</soap:Envelope>\n");
}

/// Extract the message id, trace context and — from a reply — the object
/// property version from a `<soap:Header>` block. Every element an encoder
/// writes is required: a header without one is not a frame of ours.
/// Requests carry no `<rafda:objver>` and report version 0.
fn header_fields(header: &Element, reply: bool) -> Result<(u64, TraceContext, u64), WireError> {
    let id = header
        .child("rafda:mid")?
        .text()
        .trim()
        .parse()
        .map_err(|_| WireError::new("bad rafda:mid"))?;
    let trace = header.child("rafda:trace")?;
    let ctx = TraceContext {
        trace_id: trace.attr_parsed("id")?,
        span_id: trace.attr_parsed("span")?,
        parent_span_id: trace.attr_parsed("parent")?,
    };
    let objver = if reply {
        header
            .child("rafda:objver")?
            .text()
            .trim()
            .parse()
            .map_err(|_| WireError::new("bad rafda:objver"))?
    } else {
        0
    };
    Ok((id, ctx, objver))
}

/// Scan an envelope without parsing its body: the `<soap:Header>` block is
/// small and parsed as a DOM, but the `<soap:Body>` content — the bulk of
/// the frame — is located textually and returned as an unparsed slice.
/// This is safe because every `<` in attribute values and text content is
/// entity-escaped, so the literal `</soap:Body>` can only be the body's
/// own close tag. `reply` selects the reply header set (see
/// [`header_fields`]).
fn scan_envelope(xml: &str, reply: bool) -> Result<(u64, TraceContext, u64, &str), WireError> {
    let mut p = Parser::new(xml);
    p.skip_ws();
    if p.input[p.pos..].starts_with(b"<?") {
        while p.peek().is_some_and(|c| c != b'>') {
            p.pos += 1;
        }
        p.eat(b'>')?;
    }
    p.skip_ws();
    p.eat(b'<')?;
    let name = p.name()?;
    if name != "soap:Envelope" {
        return Err(WireError::new(format!(
            "expected <soap:Envelope>, got <{name}>"
        )));
    }
    // Envelope open-tag attributes (the xmlns declarations).
    loop {
        p.skip_ws();
        match p.peek() {
            Some(b'/') => {
                return Err(WireError::new("<soap:Envelope> missing child <soap:Body>"));
            }
            Some(b'>') => {
                p.pos += 1;
                break;
            }
            Some(_) => {
                let _key = p.name()?;
                p.skip_ws();
                p.eat(b'=')?;
                p.skip_ws();
                p.eat(b'"')?;
                let _value = p.unescape_run(b"\"")?;
                p.eat(b'"')?;
            }
            None => return Err(p.err("unterminated tag")),
        }
    }
    // Envelope children: a small header DOM, the body slice, anything else
    // parsed and ignored (matching the DOM path's tolerance).
    let mut header: Option<Element> = None;
    let mut body: Option<&str> = None;
    loop {
        if p.input[p.pos..].starts_with(b"</") {
            p.pos += 2;
            let close = p.name()?;
            if close != "soap:Envelope" {
                return Err(p.err(&format!("mismatched </{close}> for <soap:Envelope>")));
            }
            p.skip_ws();
            p.eat(b'>')?;
            break;
        }
        match p.peek() {
            Some(b'<') => {
                let save = p.pos;
                p.pos += 1;
                let cname = p.name()?;
                if cname == "soap:Body" && body.is_none() {
                    loop {
                        p.skip_ws();
                        match p.peek() {
                            Some(b'/') => {
                                p.pos += 1;
                                p.eat(b'>')?;
                                body = Some("");
                                break;
                            }
                            Some(b'>') => {
                                p.pos += 1;
                                let start = p.pos;
                                let off = xml[start..]
                                    .find("</soap:Body>")
                                    .ok_or_else(|| p.err("unterminated <soap:Body>"))?;
                                body = Some(&xml[start..start + off]);
                                p.pos = start + off + "</soap:Body>".len();
                                break;
                            }
                            Some(_) => {
                                let _key = p.name()?;
                                p.skip_ws();
                                p.eat(b'=')?;
                                p.skip_ws();
                                p.eat(b'"')?;
                                let _value = p.unescape_run(b"\"")?;
                                p.eat(b'"')?;
                            }
                            None => return Err(p.err("unterminated tag")),
                        }
                    }
                } else {
                    p.pos = save;
                    let e = p.element()?;
                    if e.name == "soap:Header" && header.is_none() {
                        header = Some(e);
                    }
                }
            }
            Some(_) => {
                let _ = p.unescape_run(b"<")?;
            }
            None => return Err(p.err("unterminated <soap:Envelope>")),
        }
    }
    let body = body.ok_or_else(|| WireError::new("<soap:Envelope> missing child <soap:Body>"))?;
    let header =
        header.ok_or_else(|| WireError::new("<soap:Envelope> missing child <soap:Header>"))?;
    let (id, ctx, objver) = header_fields(&header, reply)?;
    Ok((id, ctx, objver, body))
}

/// Parse the first element of a body slice. Leading text is skipped (raw
/// `<` cannot occur in escaped text, so the first `<` opens an element).
fn first_body_elem(body: &str) -> Result<Element, WireError> {
    let i = body
        .find('<')
        .ok_or_else(|| WireError::new("<soap:Body> missing child element"))?;
    let mut p = Parser::new(body);
    p.pos = i;
    p.element()
}

/// Peek the request discriminant from an unparsed body slice.
fn body_kind(body: &str) -> Result<RequestKind, WireError> {
    let i = body
        .find('<')
        .ok_or_else(|| WireError::new("<soap:Body> missing child element"))?;
    let mut p = Parser::new(body);
    p.pos = i + 1;
    let name = p.name()?;
    Ok(match name.as_str() {
        "rafda:call" => RequestKind::Call,
        "rafda:create" => RequestKind::Create,
        "rafda:discover" => RequestKind::Discover,
        "rafda:fetch" => RequestKind::Fetch,
        "rafda:install" => RequestKind::Install,
        "rafda:forward" => RequestKind::Forward,
        "rafda:replicasync" => RequestKind::ReplicaSync,
        "rafda:promote" => RequestKind::Promote,
        "rafda:batch" => RequestKind::Batch,
        name => return Err(WireError::new(format!("unknown request <{name}>"))),
    })
}

/// Lazy-payload materialisation for the XML codec: parse the body slice
/// recorded by the header scan into an owned [`Request`].
pub(crate) fn materialise_body(body: &str, sigs: Sigs<'_, '_>) -> Result<Request, WireError> {
    read_request_elem(&first_body_elem(body)?, sigs)
}

// ---------------------------------------------------------------------
// Request / Reply <-> XML (body elements, recursive so batches can nest)
// ---------------------------------------------------------------------

fn write_request_elem(b: &mut String, req: &Request, sigs: Sigs<'_, '_>) {
    match req {
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
            b.push_str("</rafda:call>");
        }
        Request::Create { class, ctor, args } => {
            b.push_str("<rafda:create");
            sig_attr_out(b, "class", class, sigs);
            let _ = write!(b, " ctor=\"{ctor}\">");
            for a in args {
                write_value(b, a, sigs);
            }
            b.push_str("</rafda:create>");
        }
        Request::Discover { class } => {
            b.push_str("<rafda:discover");
            sig_attr_out(b, "class", class, sigs);
            b.push_str("/>");
        }
        Request::Fetch { object } => {
            let _ = write!(b, "<rafda:fetch object=\"{object}\"/>");
        }
        Request::Install { state, source } => {
            match source {
                Some((n, o)) => {
                    let _ = write!(b, "<rafda:install srcnode=\"{n}\" srcobject=\"{o}\">");
                }
                None => b.push_str("<rafda:install>"),
            }
            write_value(b, state, sigs);
            b.push_str("</rafda:install>");
        }
        Request::Forward {
            object,
            to_node,
            to_object,
        } => {
            let _ = write!(
                b,
                "<rafda:forward object=\"{object}\" tonode=\"{to_node}\" toobject=\"{to_object}\"/>"
            );
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
            b.push_str("</rafda:replicasync>");
        }
        Request::Promote { node, object } => {
            let _ = write!(b, "<rafda:promote node=\"{node}\" object=\"{object}\"/>");
        }
        Request::Batch(ops) => {
            b.push_str("<rafda:batch>");
            for op in ops {
                write_request_elem(b, op, sigs);
            }
            b.push_str("</rafda:batch>");
        }
    }
}

fn read_request_elem(e: &Element, sigs: Sigs<'_, '_>) -> Result<Request, WireError> {
    Ok(match e.name.as_str() {
        "rafda:call" => Request::Call {
            object: e.attr_parsed("object")?,
            method: sig_attr(e, "method", sigs)?,
            args: e
                .elems()
                .map(|c| read_value(c, sigs))
                .collect::<Result<_, _>>()?,
        },
        "rafda:create" => Request::Create {
            class: sig_attr(e, "class", sigs)?,
            ctor: e.attr_parsed("ctor")?,
            args: e
                .elems()
                .map(|c| read_value(c, sigs))
                .collect::<Result<_, _>>()?,
        },
        "rafda:discover" => Request::Discover {
            class: sig_attr(e, "class", sigs)?,
        },
        "rafda:fetch" => Request::Fetch {
            object: e.attr_parsed("object")?,
        },
        "rafda:install" => {
            let source = match (e.attr("srcnode"), e.attr("srcobject")) {
                (Ok(n), Ok(o)) => Some((
                    n.parse().map_err(|_| WireError::new("bad srcnode"))?,
                    o.parse().map_err(|_| WireError::new("bad srcobject"))?,
                )),
                _ => None,
            };
            Request::Install {
                state: read_value(e.first_elem()?, sigs)?,
                source,
            }
        }
        "rafda:forward" => Request::Forward {
            object: e.attr_parsed("object")?,
            to_node: e.attr_parsed("tonode")?,
            to_object: e.attr_parsed("toobject")?,
        },
        "rafda:replicasync" => Request::ReplicaSync {
            object: e.attr_parsed("object")?,
            version: e.attr_parsed("version")?,
            state: read_value(e.first_elem()?, sigs)?,
        },
        "rafda:promote" => Request::Promote {
            node: e.attr_parsed("node")?,
            object: e.attr_parsed("object")?,
        },
        "rafda:batch" => Request::Batch(
            e.elems()
                .map(|c| read_request_elem(c, sigs))
                .collect::<Result<_, _>>()?,
        ),
        name => return Err(WireError::new(format!("unknown request <{name}>"))),
    })
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

fn read_reply_elem(e: &Element, sigs: Sigs<'_, '_>) -> Result<Reply, WireError> {
    Ok(match e.name.as_str() {
        "rafda:result" => Reply::Value(read_value(e.first_elem()?, sigs)?),
        "rafda:exception" => Reply::Exception {
            class: sig_attr(e, "class", sigs)?,
            fields: e
                .elems()
                .map(|c| read_value(c, sigs))
                .collect::<Result<_, _>>()?,
        },
        "soap:Fault" => Reply::Fault(e.child("faultstring")?.text()),
        "rafda:batchresult" => {
            let mut ops = Vec::new();
            for op in e.elems() {
                if op.name != "rafda:op" {
                    return Err(WireError::new(format!(
                        "expected <rafda:op>, got <{}>",
                        op.name
                    )));
                }
                ops.push((
                    op.attr_parsed("objver")?,
                    read_reply_elem(op.first_elem()?, sigs)?,
                ));
            }
            Reply::Batch(ops)
        }
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
        let (msg_id, ctx, _, body) = scan_envelope(xml, false)?;
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
        let (id, ctx, obj_version, body) = scan_envelope(xml, true)?;
        let e = first_body_elem(body)?;
        Ok((id, ctx, obj_version, read_reply_elem(&e, &mut sigs)?))
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
        let xml =
            r#"<?xml version="1.0"?><a x="1 &amp; 2"><b/>text &lt;here&gt;<c y="z">inner</c></a>"#;
        let e = Parser::new(xml).document().unwrap();
        assert_eq!(e.name, "a");
        assert_eq!(e.attr("x").unwrap(), "1 & 2");
        assert_eq!(e.elems().count(), 2);
        assert_eq!(e.text(), "text <here>");
        assert_eq!(e.child("c").unwrap().text(), "inner");
    }

    #[test]
    fn mismatched_close_tag_rejected() {
        assert!(Parser::new("<a><b></a></b>").document().is_err());
        assert!(Parser::new("<a>").document().is_err());
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
            .encode_request(42, ctx, &Request::Fetch { object: 1 })
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
        // without one of them is not a frame of ours.
        let codec = SoapCodec::new();
        let envelope = |header: &str, body: &str| {
            format!(
                "<?xml version=\"1.0\"?>\n\
                 <soap:Envelope xmlns:soap=\"x\" xmlns:rafda=\"y\">\n{header}\
                 <soap:Body>{body}</soap:Body>\n</soap:Envelope>\n"
            )
        };
        const MID: &str = "<rafda:mid>6</rafda:mid>";
        const TRACE: &str = "<rafda:trace id=\"1\" span=\"2\" parent=\"0\"/>";
        const OBJVER: &str = "<rafda:objver>4</rafda:objver>";
        let header = |elems: &[&str]| format!("<soap:Header>{}</soap:Header>\n", elems.concat());
        let request = "<rafda:fetch object=\"5\"/>";
        let reply = "<rafda:result><v t=\"int\">9</v></rafda:result>";

        // The complete sets decode.
        let ok = envelope(&header(&[MID, TRACE]), request);
        assert_eq!(
            codec.decode_request_header(ok.as_bytes()).unwrap().msg_id,
            6
        );
        let ok = envelope(&header(&[MID, TRACE, OBJVER]), reply);
        assert_eq!(codec.decode_reply_with(ok.as_bytes(), None).unwrap().2, 4);

        for (missing, req_header, rep_header) in [
            ("soap:Header", String::new(), String::new()),
            ("rafda:mid", header(&[TRACE]), header(&[TRACE, OBJVER])),
            ("rafda:trace", header(&[MID]), header(&[MID, OBJVER])),
        ] {
            let err = codec
                .decode_request_header(envelope(&req_header, request).as_bytes())
                .unwrap_err();
            assert!(err.0.contains(missing), "request without {missing}: {err}");
            let err = codec
                .decode_reply_with(envelope(&rep_header, reply).as_bytes(), None)
                .unwrap_err();
            assert!(err.0.contains(missing), "reply without {missing}: {err}");
        }
        let err = codec
            .decode_reply_with(envelope(&header(&[MID, TRACE]), reply).as_bytes(), None)
            .unwrap_err();
        assert!(
            err.0.contains("rafda:objver"),
            "reply without objver: {err}"
        );
    }
}
