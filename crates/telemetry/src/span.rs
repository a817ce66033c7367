//! Spans charged to the simulated clock, collected in a [`SpanLog`].
//!
//! The log is columnar. Each span is a fixed-size 48-byte record appended
//! to blocks that never move; span ids are handed out 1, 2, 3, … in push
//! order, so a span's id is its slot plus one and is not stored, and the
//! blocks are their own id index ([`SpanLog::by_id`]). A span's name is a `u16` into the
//! log's table of names, and the rare retry link lives in a side table
//! keyed by slot, flagged in the record so an ordinary span pays no lookup.
//! A [`Span`] is the view of one record, built by value on read
//! ([`SpanLog::spans`]).
//!
//! Attributes live in one log-wide arena of 16-byte entries — a key id into
//! a small key table, a tag and a `u64` payload — and a string value is
//! interned once per log and stored as its symbol, so the log owns them and
//! reads go through it ([`SpanLog::attrs`], [`SpanLog::attr`],
//! [`SpanLog::attr_str`]). A recorder that writes the same keys and strings
//! on every span resolves them once ([`SpanLog::key`], [`SpanLog::intern`])
//! and hands the log finished entries ([`SpanLog::set_attrs`]).
//!
//! A closed span never changes again. An *open* span therefore stages its
//! attributes in a scratch vector on the open stack, and
//! [`SpanLog::end_span`] names a contiguous arena run equal to them. The
//! arena holds each distinct list once: a list an earlier span closed with
//! is found through a table from the list's hash to its run, checked entry
//! by entry, and shared; only a new list is appended. Scratch vectors are
//! pooled, so in steady state a span allocates nothing of its own and the
//! arena grows with the vocabulary of attribute lists, not with traffic.
//!
//! The cluster is single-threaded and RPCs are synchronous and re-entrant,
//! so the stack *is* the causal chain: a span started while another is open
//! becomes its child. Server-side dispatch spans instead take their parent
//! from the wire ([`SpanLog::start_server_span`]), which is what links the
//! hops of a multi-node chain into one trace.
//!
//! All ids are allocated from per-log counters (never from wall-clock or
//! randomness), so with the same seed the log is byte-identical across runs.

use crate::{FastMap, TraceContext};
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::iter::FusedIterator;
use std::mem::size_of;
use std::ops::{Index, IndexMut, Range};

/// A typed span attribute value. Strings are borrowed: from the caller on
/// the way in, from the log's interner on the way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrValue<'a> {
    /// A string attribute (method signature, protocol name, ...).
    Str(&'a str),
    /// An unsigned numeric attribute (bytes, attempt number, ...).
    U64(u64),
    /// A signed numeric attribute.
    I64(i64),
    /// A boolean attribute (e.g. `cached` for dedup hits).
    Bool(bool),
}

impl fmt::Display for AttrValue<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::U64(v) => write!(f, "{v}"),
            AttrValue::I64(v) => write!(f, "{v}"),
            AttrValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl<'a> From<&'a str> for AttrValue<'a> {
    fn from(s: &'a str) -> Self {
        AttrValue::Str(s)
    }
}
impl<'a> From<&'a String> for AttrValue<'a> {
    fn from(s: &'a String) -> Self {
        AttrValue::Str(s)
    }
}
impl From<u64> for AttrValue<'_> {
    fn from(v: u64) -> Self {
        AttrValue::U64(v)
    }
}
impl From<u32> for AttrValue<'_> {
    fn from(v: u32) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<usize> for AttrValue<'_> {
    fn from(v: usize) -> Self {
        AttrValue::U64(v as u64)
    }
}
impl From<i64> for AttrValue<'_> {
    fn from(v: i64) -> Self {
        AttrValue::I64(v)
    }
}
impl From<bool> for AttrValue<'_> {
    fn from(v: bool) -> Self {
        AttrValue::Bool(v)
    }
}

/// How a span ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanOutcome {
    /// Still open (only seen if the log is inspected mid-operation).
    Open,
    /// Completed normally.
    Ok,
    /// Completed with an application-level fault/exception.
    Fault,
    /// Aborted by a network failure (after retries were exhausted).
    NetFailure,
}

impl SpanOutcome {
    /// Stable lower-case label used by the exporters.
    pub fn label(&self) -> &'static str {
        match self {
            SpanOutcome::Open => "open",
            SpanOutcome::Ok => "ok",
            SpanOutcome::Fault => "fault",
            SpanOutcome::NetFailure => "net_failure",
        }
    }
}

/// One recorded operation: an interval on the simulated clock plus its
/// position in the causal tree. A view of the log's record, built by value
/// on read; its typed attributes are read through the log that recorded it
/// ([`SpanLog::attrs`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the log).
    pub span_id: u64,
    /// Parent span id (0 for a trace root).
    pub parent_span_id: u64,
    /// Span kind, e.g. `rpc.call`, `rpc.attempt`, `serve.call`, `migrate`.
    pub name: &'static str,
    /// Start, simulated nanoseconds.
    pub start_ns: u64,
    /// End, simulated nanoseconds (`== start_ns` while open).
    pub end_ns: u64,
    /// The span id this one retries; 0, which is never a span's id, for none.
    retry_of: u64,
    /// Node the span was recorded on.
    pub node: u32,
    /// The span's run in the log's attribute arena (empty until it closes).
    attrs_start: u32,
    attrs_len: u16,
    /// How the span ended.
    pub outcome: SpanOutcome,
}

impl Span {
    /// Span duration in simulated nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// For retransmission attempts: the span id of the attempt this one
    /// retries.
    pub fn retry_of(&self) -> Option<u64> {
        (self.retry_of != 0).then_some(self.retry_of)
    }

    /// The context a frame sent *from inside this span* carries.
    pub fn context(&self) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: self.span_id,
            parent_span_id: self.parent_span_id,
        }
    }
}

/// A span as the log stores it. The id is the slot plus one, the name an
/// index into the log's names, and the retry link — set only on the spans
/// that follow a dropped transmission — a side-table entry `retried` says
/// to look for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    trace_id: u64,
    parent_span_id: u64,
    start_ns: u64,
    end_ns: u64,
    node: u32,
    attrs_start: u32,
    attrs_len: u16,
    name: u16,
    outcome: SpanOutcome,
    retried: bool,
}

impl Record {
    fn context(&self, slot: usize) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id: slot as u64 + 1,
            parent_span_id: self.parent_span_id,
        }
    }
}

/// Records per block: 4,096 × 48 bytes, 192 KiB.
const BLOCK: usize = 4096;

/// The span records in fixed-size blocks: the log grows a block at a time
/// and never moves a record. A `Vec` doubling past a few hundred thousand
/// spans holds the old and the new buffer for a moment, and whether the
/// allocator moves it in place or copies it changes a traced run's peak
/// RSS by the old buffer's size from one process to the next.
#[derive(Debug, Clone, Default, PartialEq)]
struct Records {
    blocks: Vec<Vec<Record>>,
    len: usize,
}

impl Records {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, record: Record) {
        if self.len.is_multiple_of(BLOCK) {
            self.blocks.push(Vec::with_capacity(BLOCK));
        }
        let block = self.blocks.last_mut().expect("a block with room");
        block.push(record);
        self.len += 1;
    }

    fn get(&self, slot: usize) -> Option<&Record> {
        (slot < self.len).then(|| &self[slot])
    }

    /// The records from `slot` on, in order.
    fn iter_from(&self, slot: usize) -> impl Iterator<Item = &Record> {
        let (block, offset) = (slot / BLOCK, slot % BLOCK);
        let first = self.blocks.get(block).and_then(|b| b.get(offset..));
        let rest = self.blocks.iter().skip(block + 1).flatten();
        first.unwrap_or_default().iter().chain(rest)
    }
}

impl Index<usize> for Records {
    type Output = Record;

    fn index(&self, slot: usize) -> &Record {
        &self.blocks[slot / BLOCK][slot % BLOCK]
    }
}

impl IndexMut<usize> for Records {
    fn index_mut(&mut self, slot: usize) -> &mut Record {
        &mut self.blocks[slot / BLOCK][slot % BLOCK]
    }
}

/// Opaque handle to an open span (an index into the log).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanHandle(pub(crate) usize);

/// An attribute key resolved by one log ([`SpanLog::key`]). Valid only in
/// the log that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttrKey(u16);

/// A string interned by one log ([`SpanLog::intern`]). Valid only in the
/// log that issued it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Symbol(u32);

/// An attribute with its key resolved and its string value interned, as
/// [`SpanLog::set_attrs`] stores it: built from an [`AttrKey`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedAttr(Attr);

impl AttrKey {
    fn with(self, tag: Tag, payload: u64) -> ResolvedAttr {
        ResolvedAttr(Attr {
            payload,
            key: self.0,
            tag,
        })
    }

    /// This key with an interned string value.
    pub fn sym(self, value: Symbol) -> ResolvedAttr {
        self.with(Tag::Str, u64::from(value.0))
    }

    /// This key with an unsigned value.
    pub fn u64(self, value: u64) -> ResolvedAttr {
        self.with(Tag::U64, value)
    }

    /// This key with a boolean value.
    pub fn bool(self, value: bool) -> ResolvedAttr {
        self.with(Tag::Bool, u64::from(value))
    }
}

/// Per-link latency summary (nearest-rank percentiles over simulated ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSummary {
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Number of successful round-trips sampled.
    pub count: u64,
    /// Median latency, ns.
    pub p50: u64,
    /// 95th percentile latency, ns.
    pub p95: u64,
    /// 99th percentile latency, ns.
    pub p99: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Str,
    U64,
    I64,
    Bool,
}

/// One attribute as the arena stores it: `payload` is the value itself, or
/// the interned symbol of a string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Attr {
    payload: u64,
    key: u16,
    tag: Tag,
}

/// `&'static str` literals (span names, attribute keys) numbered in
/// first-seen order. A literal is found by its address; the text is only
/// compared for an address not seen before, so a literal duplicated across
/// codegen units costs one more alias, not a text compare per use.
#[derive(Debug, Clone, Default, PartialEq)]
struct Literals {
    texts: Vec<&'static str>,
    /// Every address seen, with the id of its text.
    seen: Vec<(&'static str, u16)>,
}

impl Literals {
    fn id(&mut self, s: &'static str) -> u16 {
        if let Some(&(_, id)) = self.seen.iter().find(|(a, _)| std::ptr::eq(*a, s)) {
            return id;
        }
        let id = match self.texts.iter().position(|t| *t == s) {
            Some(id) => id,
            None => {
                self.texts.push(s);
                self.texts.len() - 1
            }
        };
        let id = u16::try_from(id).expect("fewer than 2^16 distinct literals");
        self.seen.push((s, id));
        id
    }

    fn text(&self, id: u16) -> &'static str {
        self.texts[usize::from(id)]
    }

    fn retained_bytes(&self) -> usize {
        self.texts.len() * size_of::<&str>() + self.seen.len() * size_of::<(&str, u16)>()
    }
}

/// Every distinct string value the log has seen, once. The vocabulary is
/// class names, method signatures and protocol names — bounded by the
/// program — plus one label per failover.
///
/// The strings' one copy is `text`; the lookup table holds only hashes. A
/// hash names the newest symbol that has it, and `shadowed` chains each
/// symbol to the older one with the same hash, so a collision costs a
/// longer walk, never a wrong symbol.
#[derive(Debug, Clone, Default, PartialEq)]
struct Interner {
    text: String,
    /// Each symbol's `(start, len)` in `text`.
    symbols: Vec<(u32, u32)>,
    ids: FastMap<u64, u32>,
    shadowed: Vec<u32>,
}

impl Interner {
    const NONE: u32 = u32::MAX;

    /// Whether `id` is the symbol of `s`.
    fn is(&self, id: u32, s: &str) -> bool {
        (id as usize) < self.symbols.len() && self.resolve(id) == s
    }

    fn intern(&mut self, s: &str) -> u32 {
        let hash = self.ids.hasher().hash_one(s);
        let newest = self.ids.get(&hash).copied().unwrap_or(Self::NONE);
        let mut id = newest;
        while id != Self::NONE {
            if self.resolve(id) == s {
                return id;
            }
            id = self.shadowed[id as usize];
        }
        let id = u32::try_from(self.symbols.len())
            .ok()
            .filter(|&id| id != Self::NONE)
            .expect("fewer than 2^32 - 1 distinct strings");
        let start = u32::try_from(self.text.len()).expect("under 4 GiB of distinct strings");
        self.text.push_str(s);
        self.symbols.push((start, s.len() as u32));
        self.shadowed.push(newest);
        self.ids.insert(hash, id);
        id
    }

    fn resolve(&self, id: u32) -> &str {
        let (start, len) = self.symbols[id as usize];
        &self.text[start as usize..][..len as usize]
    }

    /// Each string once, plus its place, its chain link and its hash's
    /// table entry.
    fn retained_bytes(&self) -> usize {
        self.text.len()
            + self.symbols.len() * size_of::<(u32, u32)>()
            + self.shadowed.len() * size_of::<u32>()
            + self.ids.len() * size_of::<(u64, u32)>()
    }
}

/// An entry of the open stack: the span's slot and the attributes it has
/// been given so far.
#[derive(Debug, Clone, PartialEq)]
struct OpenSpan {
    slot: usize,
    staged: Vec<Attr>,
}

/// The per-cluster collection of spans.
///
/// Deterministic by construction: ids come from counters, timestamps from
/// the simulated clock.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanLog {
    records: Records,
    names: Literals,
    /// The retry links of the records flagged `retried`, as two columns:
    /// their slots, ascending, and the span id each retries.
    retry_slots: Vec<u32>,
    retry_targets: Vec<u64>,
    /// The attribute arena: each distinct closed attribute list once,
    /// contiguous, in the order the lists first closed.
    attrs: Vec<Attr>,
    /// A list's hash → the arena start of the run last stored under it.
    runs: FastMap<u64, u32>,
    keys: Literals,
    /// Per key id, the symbol of the string it was last given: from one
    /// span to the next a key mostly repeats its value (the same class, the
    /// same protocol), so that is checked before the string is hashed.
    last_symbol: Vec<u32>,
    strings: Interner,
    open: Vec<OpenSpan>,
    /// Emptied staging vectors waiting for the next span to open.
    scratch: Vec<Vec<Attr>>,
    next_trace_id: u64,
}

impl SpanLog {
    /// New, empty log.
    pub fn new() -> Self {
        SpanLog::default()
    }

    fn fresh_trace_id(&mut self) -> u64 {
        self.next_trace_id += 1;
        self.next_trace_id
    }

    /// Record a span and open it. Its id is its slot plus one: `by_id`
    /// relies on ids being taken here, in push order.
    fn push(
        &mut self,
        trace_id: u64,
        parent_span_id: u64,
        name: &'static str,
        node: u32,
        now_ns: u64,
    ) -> SpanHandle {
        let slot = self.records.len();
        let name = self.names.id(name);
        self.records.push(Record {
            trace_id,
            parent_span_id,
            start_ns: now_ns,
            end_ns: now_ns,
            node,
            attrs_start: 0,
            attrs_len: 0,
            name,
            outcome: SpanOutcome::Open,
            retried: false,
        });
        let staged = self.scratch.pop().unwrap_or_default();
        self.open.push(OpenSpan { slot, staged });
        SpanHandle(slot)
    }

    /// Open a span as a child of the innermost open span (or as the root of
    /// a fresh trace if none is open).
    pub fn start_span(&mut self, name: &'static str, node: u32, now_ns: u64) -> SpanHandle {
        let (trace_id, parent_span_id) = match self.open.last() {
            Some(top) => (self.records[top.slot].trace_id, top.slot as u64 + 1),
            None => (self.fresh_trace_id(), 0),
        };
        self.push(trace_id, parent_span_id, name, node, now_ns)
    }

    /// Open a server-side dispatch span whose parent is the *remote* span
    /// named by the wire context (rather than the local stack). A
    /// [`TraceContext::NONE`] context (frame from an uninstrumented peer)
    /// starts a fresh trace.
    pub fn start_server_span(
        &mut self,
        name: &'static str,
        node: u32,
        now_ns: u64,
        ctx: TraceContext,
    ) -> SpanHandle {
        let (trace_id, parent_span_id) = if ctx.is_none() {
            (self.fresh_trace_id(), 0)
        } else {
            (ctx.trace_id, ctx.span_id)
        };
        self.push(trace_id, parent_span_id, name, node, now_ns)
    }

    /// Where `h` sits on the open stack. A closed span is immutable (the
    /// span-tree monitor keeps its verdict on it), so a write through the
    /// handle of a closed span is a caller bug: debug builds stop, release
    /// builds get `None` and change nothing.
    fn open_pos(&self, h: SpanHandle, misuse: &str) -> Option<usize> {
        // By position (not just the top) so a missed close of a nested span
        // cannot poison the whole stack.
        let pos = self.open.iter().rposition(|o| o.slot == h.0);
        debug_assert!(pos.is_some(), "span handle {} {misuse}", h.0);
        pos
    }

    /// The id of attribute key `name` in this log, for [`SpanLog::set_attrs`].
    pub fn key(&mut self, name: &'static str) -> AttrKey {
        let id = self.keys.id(name);
        if usize::from(id) == self.last_symbol.len() {
            self.last_symbol.push(0);
        }
        AttrKey(id)
    }

    /// The symbol of string `s` in this log, for [`AttrKey::sym`].
    pub fn intern(&mut self, s: &str) -> Symbol {
        Symbol(self.strings.intern(s))
    }

    /// Append a typed attribute to an open span.
    pub fn set_attr<'a>(
        &mut self,
        h: SpanHandle,
        key: &'static str,
        value: impl Into<AttrValue<'a>>,
    ) {
        self.stage(h, key, value.into());
    }

    fn stage(&mut self, h: SpanHandle, key: &'static str, value: AttrValue<'_>) {
        let Some(pos) = self.open_pos(h, "given an attribute after its close") else {
            return;
        };
        let key = self.key(key);
        let attr = match value {
            AttrValue::Str(s) => {
                let last = self.last_symbol[usize::from(key.0)];
                let symbol = if self.strings.is(last, s) {
                    last
                } else {
                    self.strings.intern(s)
                };
                self.last_symbol[usize::from(key.0)] = symbol;
                key.sym(Symbol(symbol))
            }
            AttrValue::U64(v) => key.u64(v),
            AttrValue::I64(v) => key.with(Tag::I64, v.cast_unsigned()),
            AttrValue::Bool(v) => key.bool(v),
        };
        self.open[pos].staged.push(attr.0);
    }

    /// Append attributes whose keys and strings this log has already
    /// resolved to an open span: no key is looked up and no string hashed.
    pub fn set_attrs(&mut self, h: SpanHandle, attrs: &[ResolvedAttr]) {
        let Some(pos) = self.open_pos(h, "given an attribute after its close") else {
            return;
        };
        debug_assert!(
            attrs
                .iter()
                .all(|a| usize::from(a.0.key) < self.keys.texts.len()
                    && (a.0.tag != Tag::Str || a.0.payload < self.strings.symbols.len() as u64)),
            "attribute resolved by another log"
        );
        self.open[pos].staged.extend(attrs.iter().map(|a| a.0));
    }

    /// Flag a retransmission attempt with the span id it retries (0 for
    /// none).
    pub fn set_retry_of(&mut self, h: SpanHandle, prior_attempt: u64) {
        if self
            .open_pos(h, "given a retry link after its close")
            .is_none()
        {
            return;
        }
        let slot = u32::try_from(h.0).expect("fewer than 2^32 spans in one log");
        match self.retry_slots.binary_search(&slot) {
            Ok(i) if prior_attempt == 0 => {
                self.retry_slots.remove(i);
                self.retry_targets.remove(i);
            }
            Ok(i) => self.retry_targets[i] = prior_attempt,
            Err(i) if prior_attempt != 0 => {
                self.retry_slots.insert(i, slot);
                self.retry_targets.insert(i, prior_attempt);
            }
            Err(_) => {}
        }
        self.records[h.0].retried = prior_attempt != 0;
    }

    /// Close a span: stamp the end time and outcome and point it at an
    /// arena run equal to its staged attributes. Closing a handle a second
    /// time is a caller bug and changes nothing.
    pub fn end_span(&mut self, h: SpanHandle, now_ns: u64, outcome: SpanOutcome) {
        let Some(pos) = self.open_pos(h, "closed twice") else {
            return;
        };
        let mut staged = self.open.remove(pos).staged;
        let start = self.run_of(&staged);
        let record = &mut self.records[h.0];
        record.end_ns = now_ns;
        record.outcome = outcome;
        record.attrs_start = start;
        record.attrs_len =
            u16::try_from(staged.len()).expect("fewer than 2^16 attributes on one span");
        staged.clear();
        self.scratch.push(staged);
    }

    /// The arena start of a run equal to `list`: the one stored under its
    /// hash if that run's entries are `list`'s, else `list` appended. A
    /// collision only costs a second copy, never a wrong read.
    fn run_of(&mut self, list: &[Attr]) -> u32 {
        let mut hasher = self.runs.hasher().build_hasher();
        for a in list {
            hasher.write_u64(a.payload);
            hasher.write_u64(u64::from(a.key) | ((a.tag as u64) << 16));
        }
        hasher.write_u64(list.len() as u64);
        let end = u32::try_from(self.attrs.len()).expect("fewer than 2^32 attributes in one log");
        let run = self.runs.entry(hasher.finish()).or_insert(end);
        let start = *run as usize;
        if self.attrs.get(start..start + list.len()) == Some(list) {
            return *run;
        }
        *run = end;
        self.attrs.extend_from_slice(list);
        end
    }

    /// Attribute entries in the arena: each distinct closed list once,
    /// however many spans read it.
    pub fn arena_len(&self) -> usize {
        self.attrs.len()
    }

    /// The bytes the log holds, by length rather than capacity: span
    /// records, retry links, attribute arena, run table, name and key
    /// tables and string interner.
    pub fn retained_bytes(&self) -> usize {
        self.records.len() * size_of::<Record>()
            + self.retry_slots.len() * (size_of::<u32>() + size_of::<u64>())
            + self.attrs.len() * size_of::<Attr>()
            + self.runs.len() * size_of::<(u64, u32)>()
            + self.names.retained_bytes()
            + self.keys.retained_bytes()
            + self.last_symbol.len() * size_of::<u32>()
            + self.strings.retained_bytes()
    }

    /// The view of the record in `slot`.
    fn view(&self, slot: usize) -> Span {
        let r = &self.records[slot];
        let retry_of = if r.retried {
            let i = self.retry_slots.binary_search(&(slot as u32));
            i.map_or(0, |i| self.retry_targets[i])
        } else {
            0
        };
        Span {
            trace_id: r.trace_id,
            span_id: slot as u64 + 1,
            parent_span_id: r.parent_span_id,
            name: self.names.text(r.name),
            start_ns: r.start_ns,
            end_ns: r.end_ns,
            retry_of,
            node: r.node,
            attrs_start: r.attrs_start,
            attrs_len: r.attrs_len,
            outcome: r.outcome,
        }
    }

    /// A span's attributes as stored: its arena run, or — for a span of this
    /// log that is still open — what has been staged so far.
    fn stored_attrs(&self, span: &Span) -> &[Attr] {
        if span.outcome == SpanOutcome::Open {
            let open = self
                .open
                .iter()
                .rev()
                .find(|o| o.slot as u64 + 1 == span.span_id);
            if let Some(open) = open {
                return &open.staged;
            }
        }
        &self.attrs[span.attrs_start as usize..][..usize::from(span.attrs_len)]
    }

    fn decode(&self, attr: &Attr) -> (&'static str, AttrValue<'_>) {
        let value = match attr.tag {
            Tag::Str => AttrValue::Str(self.strings.resolve(attr.payload as u32)),
            Tag::U64 => AttrValue::U64(attr.payload),
            Tag::I64 => AttrValue::I64(attr.payload.cast_signed()),
            Tag::Bool => AttrValue::Bool(attr.payload != 0),
        };
        (self.keys.text(attr.key), value)
    }

    /// The typed attributes of one of this log's spans, in insertion order.
    pub fn attrs<'a>(
        &'a self,
        span: &Span,
    ) -> impl ExactSizeIterator<Item = (&'static str, AttrValue<'a>)> + 'a {
        self.stored_attrs(span).iter().map(|a| self.decode(a))
    }

    /// Look up an attribute of one of this log's spans by key (the first, if
    /// the key was set more than once).
    pub fn attr(&self, span: &Span, key: &str) -> Option<AttrValue<'_>> {
        self.attrs(span).find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// Look up a string attribute of one of this log's spans by key.
    pub fn attr_str(&self, span: &Span, key: &str) -> Option<&str> {
        match self.attr(span, key) {
            Some(AttrValue::Str(s)) => Some(s),
            _ => None,
        }
    }

    /// The wire context of span `h` (what a frame sent from inside it
    /// carries).
    pub fn context_of(&self, h: SpanHandle) -> TraceContext {
        self.records[h.0].context(h.0)
    }

    /// The span id behind a handle.
    pub fn span_id_of(&self, h: SpanHandle) -> u64 {
        h.0 as u64 + 1
    }

    /// The context of the innermost open span, or [`TraceContext::NONE`].
    pub fn current_context(&self) -> TraceContext {
        match self.open.last() {
            Some(top) => self.records[top.slot].context(top.slot),
            None => TraceContext::NONE,
        }
    }

    /// All recorded spans, in start order. `skip` and `nth` jump to a slot
    /// without building the views before it.
    pub fn spans(&self) -> Spans<'_> {
        Spans {
            log: self,
            slots: 0..self.records.len(),
        }
    }

    /// The span with this id, in O(1): ids are consecutive in push order
    /// from 1, so the id names the slot. `None` for 0 (the "no parent" id)
    /// and for an id the log never handed out.
    pub fn by_id(&self, span_id: u64) -> Option<Span> {
        let slot = usize::try_from(span_id.checked_sub(1)?).ok()?;
        (slot < self.records.len()).then(|| self.view(slot))
    }

    /// The trace and start of the span with this id, read off its record
    /// without building its view: what the span-tree check compares a
    /// child with.
    pub(crate) fn trace_and_start(&self, span_id: u64) -> Option<(u64, u64)> {
        let slot = usize::try_from(span_id.checked_sub(1)?).ok()?;
        self.records.get(slot).map(|r| (r.trace_id, r.start_ns))
    }

    /// Per-link p50/p95/p99 of the successful round trips (exact
    /// nearest-rank), ordered by `(from, to)`. A round trip is an
    /// `rpc.attempt` span that ended `Ok`: it was recorded on the sending
    /// node, and the exchange span it is a child of names the receiver in
    /// its `to` attribute.
    pub fn link_percentiles(&self) -> Vec<LinkSummary> {
        let mut samples: BTreeMap<(u32, u32), Vec<u64>> = BTreeMap::new();
        for span in self.spans() {
            if span.name != "rpc.attempt" || span.outcome != SpanOutcome::Ok {
                continue;
            }
            let exchange = self.by_id(span.parent_span_id);
            if let Some(AttrValue::U64(to)) = exchange.and_then(|e| self.attr(&e, "to")) {
                let link = (span.node, to as u32);
                samples.entry(link).or_default().push(span.duration_ns());
            }
        }
        samples
            .into_iter()
            .map(|((from, to), mut sorted)| {
                sorted.sort_unstable();
                LinkSummary {
                    from,
                    to,
                    count: sorted.len() as u64,
                    p50: nearest_rank(&sorted, 50),
                    p95: nearest_rank(&sorted, 95),
                    p99: nearest_rank(&sorted, 99),
                }
            })
            .collect()
    }

    /// The critical path of a trace: from the root span, repeatedly descend
    /// into the child that *started* last. In a synchronous runtime children
    /// execute serially, so the last-started child is the one that gated the
    /// parent's completion — and, unlike last-finished, the descent follows
    /// the serve chain across nodes rather than dead-ending in a client-side
    /// attempt span (which always outlives the serve it wraps, since it also
    /// covers the reply transmit). Returns the spans root-first, or empty if
    /// the trace id is unknown.
    pub fn critical_path(&self, trace_id: u64) -> Vec<Span> {
        let in_trace = |r: &Record| r.trace_id == trace_id;
        let mut path = Vec::new();
        // A child is always pushed after its parent (a forged wire context
        // naming a later span resolves here no more than it does for the
        // span-tree monitor), so each level searches only the slots after
        // the one it stands on. Later slots have larger ids, so the slot
        // breaks a start-time tie as the id does.
        let mut next = self
            .records
            .iter_from(0)
            .position(|r| in_trace(r) && r.parent_span_id == 0);
        while let Some(slot) = next {
            path.push(self.view(slot));
            let id = slot as u64 + 1;
            next = (slot + 1..)
                .zip(self.records.iter_from(slot + 1))
                .filter(|(_, r)| in_trace(r) && r.parent_span_id == id)
                .max_by_key(|&(i, r)| (r.start_ns, i))
                .map(|(i, _)| i);
        }
        path
    }
}

/// The spans of a [`SpanLog`] in start order, as views
/// ([`SpanLog::spans`]).
#[derive(Debug, Clone)]
pub struct Spans<'a> {
    log: &'a SpanLog,
    slots: Range<usize>,
}

impl Iterator for Spans<'_> {
    type Item = Span;

    fn next(&mut self) -> Option<Span> {
        self.slots.next().map(|slot| self.log.view(slot))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.slots.size_hint()
    }

    fn nth(&mut self, n: usize) -> Option<Span> {
        self.slots.nth(n).map(|slot| self.log.view(slot))
    }
}

impl DoubleEndedIterator for Spans<'_> {
    fn next_back(&mut self) -> Option<Span> {
        self.slots.next_back().map(|slot| self.log.view(slot))
    }
}

impl ExactSizeIterator for Spans<'_> {}

impl FusedIterator for Spans<'_> {}

/// Nearest-rank percentile over an ascending-sorted slice.
fn nearest_rank(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u64;
    let rank = (pct * n).div_ceil(100).max(1);
    sorted[(rank - 1) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn stack_parenting_builds_a_tree() {
        let mut log = SpanLog::new();
        let a = log.start_span("rpc.call", 0, 100);
        let b = log.start_span("rpc.attempt", 0, 110);
        log.end_span(b, 150, SpanOutcome::Ok);
        log.end_span(a, 160, SpanOutcome::Ok);
        let c = log.start_span("rpc.call", 0, 200);
        log.end_span(c, 210, SpanOutcome::Fault);

        let spans: Vec<Span> = log.spans().collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].trace_id, 1);
        assert_eq!(spans[0].parent_span_id, 0);
        assert_eq!(spans[1].trace_id, 1);
        assert_eq!(spans[1].parent_span_id, spans[0].span_id);
        // A root opened after the first trace closed starts a new trace.
        assert_eq!(spans[2].trace_id, 2);
        assert_eq!(spans[2].outcome, SpanOutcome::Fault);
        assert_eq!(spans[1].duration_ns(), 40);
    }

    #[test]
    fn server_span_adopts_wire_context() {
        let mut log = SpanLog::new();
        let ctx = TraceContext {
            trace_id: 7,
            span_id: 42,
            parent_span_id: 3,
        };
        let s = log.start_server_span("serve.call", 1, 500, ctx);
        log.end_span(s, 600, SpanOutcome::Ok);
        let span = log.spans().next().unwrap();
        assert_eq!(span.trace_id, 7);
        assert_eq!(span.parent_span_id, 42);
        // A NONE context starts a fresh local trace instead.
        let s2 = log.start_server_span("serve.call", 1, 700, TraceContext::NONE);
        log.end_span(s2, 800, SpanOutcome::Ok);
        let fresh = log.by_id(2).unwrap();
        assert_eq!(fresh.trace_id, 1);
        assert_eq!(fresh.parent_span_id, 0);
    }

    #[test]
    fn current_context_tracks_the_open_stack() {
        let mut log = SpanLog::new();
        assert!(log.current_context().is_none());
        let a = log.start_span("rpc.call", 0, 0);
        let actx = log.current_context();
        assert_eq!(actx, log.context_of(a));
        let b = log.start_span("serve.call", 1, 10);
        assert_eq!(log.current_context().span_id, log.span_id_of(b));
        log.end_span(b, 20, SpanOutcome::Ok);
        assert_eq!(log.current_context(), actx);
        log.end_span(a, 30, SpanOutcome::Ok);
        assert!(log.current_context().is_none());
    }

    #[test]
    fn end_span_removes_by_position() {
        let mut log = SpanLog::new();
        let a = log.start_span("outer", 0, 0);
        let b = log.start_span("inner", 0, 1);
        // Close out of order: outer first.
        log.end_span(a, 10, SpanOutcome::Ok);
        log.end_span(b, 11, SpanOutcome::Ok);
        assert!(log.current_context().is_none());
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "closed twice"))]
    fn end_span_twice_keeps_the_first_close() {
        let mut log = SpanLog::new();
        let a = log.start_span("outer", 0, 0);
        let b = log.start_span("inner", 0, 1);
        log.end_span(b, 5, SpanOutcome::Ok);
        // Debug builds stop here; release builds must ignore the call.
        log.end_span(b, 99, SpanOutcome::Fault);
        let inner = log.spans().nth(1).unwrap();
        assert_eq!(inner.end_ns, 5);
        assert_eq!(inner.outcome, SpanOutcome::Ok);
        assert_eq!(log.current_context(), log.context_of(a), "outer still open");
    }

    #[test]
    fn by_id_is_the_slot_lookup() {
        let mut log = SpanLog::new();
        assert!(log.by_id(1).is_none(), "empty log");
        let a = log.start_span("rpc.call", 0, 0);
        let b = log.start_server_span("serve.call", 1, 1, log.context_of(a));
        for h in [a, b] {
            let id = log.span_id_of(h);
            let span = log.by_id(id).expect("a recorded id");
            assert_eq!(Some(span), log.spans().nth(h.0), "the view of slot id - 1");
            assert_eq!(span.span_id, id);
            assert_eq!(span.context(), log.context_of(h));
        }
        assert!(log.by_id(0).is_none(), "0 means no span");
        assert!(log.by_id(3).is_none(), "one past the end");
        assert!(log.by_id(u64::MAX).is_none());
    }

    #[test]
    fn attrs_and_retry_links() {
        let mut log = SpanLog::new();
        let a = log.start_span("rpc.attempt", 0, 0);
        log.set_attr(a, "attempt", 2u64);
        log.set_attr(a, "method", "n(J)J");
        log.set_attr(a, "cached", true);
        log.set_retry_of(a, 17);
        log.end_span(a, 5, SpanOutcome::NetFailure);
        let span = &log.spans().next().unwrap();
        assert_eq!(log.attr(span, "attempt"), Some(AttrValue::U64(2)));
        assert_eq!(log.attr_str(span, "method"), Some("n(J)J"));
        assert_eq!(log.attr(span, "cached"), Some(AttrValue::Bool(true)));
        assert_eq!(log.attr_str(span, "attempt"), None, "not a string");
        assert_eq!(log.attr(span, "bytes"), None);
        assert_eq!(span.retry_of(), Some(17));
        assert_eq!(span.outcome.label(), "net_failure");
    }

    #[test]
    fn a_span_is_a_record() {
        // The log's memory is these two sizes times spans and attributes; a
        // field that grows either shows up in every traced run's peak RSS.
        assert!(size_of::<Record>() <= 48, "{} bytes", size_of::<Record>());
        assert_eq!(size_of::<Attr>(), 16);
    }

    #[test]
    fn records_fill_blocks_and_never_move() {
        let mut log = SpanLog::new();
        let n = 2 * BLOCK + 3;
        for i in 0..n as u64 {
            let h = log.start_span("rpc.call", 0, i);
            log.end_span(h, i + 1, SpanOutcome::Ok);
        }
        assert_eq!(log.records.blocks.len(), 3);
        assert!(log.records.blocks.iter().all(|b| b.capacity() == BLOCK));
        for slot in [0, BLOCK - 1, BLOCK, 2 * BLOCK, n - 1] {
            let span = log.by_id(slot as u64 + 1).expect("a recorded id");
            assert_eq!(span.start_ns, slot as u64);
            assert_eq!(log.spans().nth(slot), Some(span));
            let from: Vec<u64> = log.records.iter_from(slot).map(|r| r.start_ns).collect();
            assert_eq!(from, (slot as u64..n as u64).collect::<Vec<_>>());
        }
        assert_eq!(log.records.iter_from(n).count(), 0);
        assert_eq!(log.by_id(n as u64 + 1), None);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "attribute after its close"))]
    fn set_attr_after_close_changes_nothing() {
        let mut log = SpanLog::new();
        let a = log.start_span("rpc.call", 0, 0);
        log.set_attr(a, "class", "C");
        log.end_span(a, 5, SpanOutcome::Ok);
        let closed = log.clone();
        // Debug builds stop here; release builds must ignore the call.
        log.set_attr(a, "class", "D");
        assert_eq!(log, closed);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        should_panic(expected = "retry link after its close")
    )]
    fn set_retry_of_after_close_changes_nothing() {
        let mut log = SpanLog::new();
        let a = log.start_span("rpc.attempt", 0, 0);
        log.end_span(a, 5, SpanOutcome::Ok);
        // Debug builds stop here; release builds must ignore the call.
        log.set_retry_of(a, 1);
        assert_eq!(log.spans().next().unwrap().retry_of(), None);
    }

    #[test]
    fn steady_state_grows_only_the_records_and_the_arena() {
        const CLASSES: [&str; 3] = ["C", "Store", "Y"];
        const METHODS: [&str; 4] = ["get_v()I", "put@7", "n(J)J", "<create:1>"];
        let mut log = SpanLog::new();
        let cycle = |log: &mut SpanLog, i: usize| {
            let now = 10 * i as u64;
            let h = log.start_span("rpc.call", 0, now);
            log.set_attr(h, "class", CLASSES[i % 3]);
            log.set_attr(h, "method", METHODS[i % 4]);
            log.set_attr(h, "protocol", "RMI");
            log.set_attr(h, "from", 0u32);
            log.set_attr(h, "to", 1u32);
            let att = log.start_span("rpc.attempt", 0, now);
            log.set_attr(att, "attempt", 1u32);
            log.end_span(att, now + 5, SpanOutcome::Ok);
            log.set_attr(h, "bytes_out", 65usize);
            log.set_attr(h, "attempts", 1u32);
            log.end_span(h, now + 6, SpanOutcome::Ok);
        };
        for i in 0..12 {
            cycle(&mut log, i);
        }
        let shape = |log: &SpanLog| {
            let scratch: Vec<usize> = log.scratch.iter().map(Vec::capacity).collect();
            (
                log.keys.texts.len(),
                log.strings.symbols.len(),
                log.strings.ids.len(),
                scratch,
                log.runs.len(),
            )
        };
        let warm = shape(&log);
        assert_eq!(warm.3.len(), 2, "one staging vector per nesting level");
        let (spans, attrs) = (log.records.len(), log.attrs.len());
        for i in 0..10_000 {
            cycle(&mut log, i);
        }
        assert_eq!(shape(&log), warm, "vocabulary and scratch pool are settled");
        assert_eq!(log.records.len(), spans + 20_000);
        assert_eq!(log.attrs.len(), attrs, "every list repeats a warm-up list");
        assert!(log.open.is_empty());
    }

    #[test]
    fn the_interner_holds_each_string_once_and_survives_a_collision() {
        let mut strings = Interner::default();
        let a = strings.intern("Store");
        assert_eq!(strings.intern("Store"), a);
        assert_eq!(strings.text, "Store", "one copy");
        // Make "put@7" collide with "Store": its hash now names `a`'s chain.
        let put_hash = strings.ids.hasher().hash_one("put@7");
        strings.ids.insert(put_hash, a);
        let put = strings.intern("put@7");
        assert_ne!(put, a, "a collision is a second symbol, not a wrong one");
        assert_eq!(strings.shadowed[put as usize], a);
        // Both now resolve through the one chain, newest first.
        let store_hash = strings.ids.hasher().hash_one("Store");
        strings.ids.insert(store_hash, put);
        assert_eq!(strings.intern("Store"), a);
        assert_eq!(strings.intern("put@7"), put);
        assert_eq!(
            (strings.resolve(a), strings.resolve(put)),
            ("Store", "put@7")
        );
        assert_eq!(strings.text, "Storeput@7");
        assert!(strings.is(put, "put@7") && !strings.is(put, "Store") && !strings.is(9, ""));
        let per_symbol = size_of::<(u32, u32)>() + size_of::<u32>() + size_of::<(u64, u32)>();
        assert_eq!(strings.retained_bytes(), 10 + 2 * per_symbol);
    }

    #[test]
    fn resolved_attrs_read_like_set_attr() {
        let mut log = SpanLog::new();
        let (class, to, cached) = (log.key("class"), log.key("to"), log.key("cached"));
        let store = log.intern("Store");
        let a = log.start_span("rpc.call", 0, 0);
        log.set_attrs(a, &[class.sym(store), to.u64(1), cached.bool(true)]);
        log.end_span(a, 1, SpanOutcome::Ok);
        let b = log.start_span("rpc.call", 0, 2);
        log.set_attr(b, "class", "Store");
        log.set_attr(b, "to", 1u32);
        log.set_attr(b, "cached", true);
        log.end_span(b, 3, SpanOutcome::Ok);
        let [a, b] = [log.by_id(1).unwrap(), log.by_id(2).unwrap()];
        assert_eq!(
            log.attrs(&a).collect::<Vec<_>>(),
            log.attrs(&b).collect::<Vec<_>>()
        );
        assert_eq!(log.attr_str(&a, "class"), Some("Store"));
        assert_eq!(
            (a.attrs_start, a.attrs_len),
            (b.attrs_start, b.attrs_len),
            "one run"
        );
        assert_eq!(log.key("class"), class, "a key resolves to one id");
        assert_eq!(log.intern("Store"), store);
    }

    #[test]
    fn equal_lists_share_one_run() {
        use AttrValue::{Str, I64, U64};
        let lists: [&[(&'static str, AttrValue)]; 6] = [
            &[("class", Str("C")), ("to", U64(1))],
            &[("class", Str("C")), ("to", U64(1))],
            &[("class", Str("C")), ("to", U64(2))],
            &[("class", Str("C")), ("to", I64(1))],
            &[("to", U64(1)), ("class", Str("C"))],
            &[("class", Str("C"))],
        ];
        let mut log = SpanLog::new();
        for (now, list) in (0..).zip(lists) {
            let h = log.start_span("rpc.call", 0, now);
            for &(key, value) in list {
                log.set_attr(h, key, value);
            }
            log.end_span(h, now + 1, SpanOutcome::Ok);
        }
        // The equal list shares the first run; a changed value, a changed
        // type, a changed order and a prefix are lists of their own.
        let runs: Vec<_> = log.records.iter_from(0).map(|r| r.attrs_start).collect();
        assert_eq!(runs, vec![0, 0, 2, 4, 6, 8]);
        assert_eq!(log.arena_len(), 9);
        for (span, list) in log.spans().zip(lists) {
            assert_eq!(log.attrs(&span).collect::<Vec<_>>(), list);
        }
    }

    /// An exchange `from → to` whose attempts take the given times and end
    /// the given ways, one after the other.
    fn exchange(log: &mut SpanLog, from: u32, to: u32, attempts: &[(u64, SpanOutcome)]) {
        let h = log.start_span("rpc.call", from, 0);
        log.set_attr(h, "to", to);
        let mut now = 0;
        for &(ns, outcome) in attempts {
            let att = log.start_span("rpc.attempt", from, now);
            now += ns;
            log.end_span(att, now, outcome);
        }
        log.end_span(h, now, SpanOutcome::Ok);
    }

    #[test]
    fn link_percentiles_nearest_rank() {
        let mut log = SpanLog::new();
        for ns in [10, 20, 30, 40, 50, 60, 70, 80, 90, 100] {
            exchange(&mut log, 0, 1, &[(ns, SpanOutcome::Ok)]);
        }
        // Only the round trip that came back is a sample.
        exchange(
            &mut log,
            2,
            0,
            &[(3, SpanOutcome::NetFailure), (7, SpanOutcome::Ok)],
        );
        let links = log.link_percentiles();
        assert_eq!(links.len(), 2);
        assert_eq!(links[0].from, 0);
        assert_eq!(links[0].to, 1);
        assert_eq!(links[0].count, 10);
        assert_eq!(links[0].p50, 50);
        assert_eq!(links[0].p95, 100);
        assert_eq!(links[0].p99, 100);
        assert_eq!(
            links[1],
            LinkSummary {
                from: 2,
                to: 0,
                count: 1,
                p50: 7,
                p95: 7,
                p99: 7
            }
        );
    }

    /// One exchange with a failed first attempt: four spans, one trace.
    fn retried_exchange(log: &mut SpanLog, now: u64) {
        let root = log.start_span("rpc.call", 0, now);
        let fast = log.start_span("rpc.attempt", 0, now + 1);
        log.end_span(fast, now + 5, SpanOutcome::NetFailure);
        let slow = log.start_span("rpc.attempt", 0, now + 6);
        let serve = log.start_server_span("serve.call", 1, now + 8, log.context_of(slow));
        log.end_span(serve, now + 20, SpanOutcome::Ok);
        log.end_span(slow, now + 25, SpanOutcome::Ok);
        log.end_span(root, now + 30, SpanOutcome::Ok);
    }

    #[test]
    fn critical_path_follows_last_started_child() {
        let mut log = SpanLog::new();
        retried_exchange(&mut log, 0);
        let path: Vec<&'static str> = log.critical_path(1).iter().map(|s| s.name).collect();
        assert_eq!(path, vec!["rpc.call", "rpc.attempt", "serve.call"]);
        assert!(log.critical_path(99).is_empty());
    }

    /// The definition `critical_path` must agree with: every level scans
    /// the whole log.
    fn critical_path_by_full_scan(log: &SpanLog, trace_id: u64) -> Vec<Span> {
        let in_trace = |s: &Span| s.trace_id == trace_id;
        let mut path = Vec::new();
        let mut cur = log.spans().filter(in_trace).find(|s| s.parent_span_id == 0);
        while let Some(span) = cur {
            path.push(span);
            cur = log
                .spans()
                .filter(in_trace)
                .filter(|s| s.parent_span_id == span.span_id)
                .max_by_key(|s| (s.start_ns, s.span_id));
        }
        path
    }

    #[test]
    fn critical_path_of_the_last_trace_in_a_long_log() {
        let mut log = SpanLog::new();
        for trace in 0..25_000 {
            retried_exchange(&mut log, 100 * trace);
        }
        assert_eq!(log.spans().len(), 100_000);
        for trace_id in [1, 12_500, 25_000] {
            let path = log.critical_path(trace_id);
            assert_eq!(path, critical_path_by_full_scan(&log, trace_id));
            let ids: Vec<u64> = path.iter().map(|s| s.span_id).collect();
            let root = 4 * (trace_id - 1) + 1;
            assert_eq!(ids, vec![root, root + 2, root + 3]);
        }
    }

    /// The layout the log replaced, kept as the reference: every span owns
    /// its attributes as a vector of owned values. Ids, parenting and the
    /// Chrome rendering are written out again here, so the comparison does
    /// not lean on the code under test.
    mod model {
        use super::super::{AttrValue, SpanOutcome, TraceContext};
        use crate::chrome::escape_json;
        use std::collections::BTreeSet;
        use std::fmt::Write as _;

        #[derive(Debug, Clone, PartialEq)]
        pub enum Value {
            Str(String),
            U64(u64),
            I64(i64),
            Bool(bool),
        }

        impl Value {
            pub fn borrowed(&self) -> AttrValue<'_> {
                match self {
                    Value::Str(s) => AttrValue::Str(s),
                    Value::U64(v) => AttrValue::U64(*v),
                    Value::I64(v) => AttrValue::I64(*v),
                    Value::Bool(v) => AttrValue::Bool(*v),
                }
            }
        }

        #[derive(Debug, Clone)]
        pub struct Span {
            pub trace_id: u64,
            pub span_id: u64,
            pub parent_span_id: u64,
            pub name: &'static str,
            pub node: u32,
            pub start_ns: u64,
            pub end_ns: u64,
            pub retry_of: Option<u64>,
            pub outcome: SpanOutcome,
            pub attrs: Vec<(&'static str, Value)>,
        }

        #[derive(Debug, Default)]
        pub struct Log {
            pub spans: Vec<Span>,
            open: Vec<usize>,
            traces: u64,
        }

        impl Log {
            pub fn start(
                &mut self,
                name: &'static str,
                node: u32,
                now_ns: u64,
                ctx: Option<TraceContext>,
            ) -> usize {
                let (trace_id, parent_span_id) = match (ctx, self.open.last()) {
                    (Some(ctx), _) if !ctx.is_none() => (ctx.trace_id, ctx.span_id),
                    (None, Some(&top)) => (self.spans[top].trace_id, self.spans[top].span_id),
                    _ => {
                        self.traces += 1;
                        (self.traces, 0)
                    }
                };
                self.spans.push(Span {
                    trace_id,
                    span_id: self.spans.len() as u64 + 1,
                    parent_span_id,
                    name,
                    node,
                    start_ns: now_ns,
                    end_ns: now_ns,
                    retry_of: None,
                    outcome: SpanOutcome::Open,
                    attrs: Vec::new(),
                });
                self.open.push(self.spans.len() - 1);
                self.spans.len() - 1
            }

            pub fn end(&mut self, idx: usize, now_ns: u64, outcome: SpanOutcome) {
                self.open.retain(|&i| i != idx);
                self.spans[idx].end_ns = now_ns;
                self.spans[idx].outcome = outcome;
            }

            pub fn chrome_trace_json(&self) -> String {
                let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
                let mut events = Vec::new();
                for node in self.spans.iter().map(|s| s.node).collect::<BTreeSet<_>>() {
                    events.push(format!(
                        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\"args\":{{\"name\":\"node{node}\"}}}}"
                    ));
                }
                for s in &self.spans {
                    let mut e = format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"trace\":\"{:x}\",\"span\":\"{:x}\",\"parent\":\"{:x}\",\"outcome\":\"{}\"",
                        s.name,
                        s.node,
                        s.trace_id,
                        us(s.start_ns),
                        us(s.end_ns.saturating_sub(s.start_ns)),
                        s.trace_id,
                        s.span_id,
                        s.parent_span_id,
                        s.outcome.label(),
                    );
                    if let Some(prior) = s.retry_of {
                        let _ = write!(e, ",\"retry_of\":\"{prior:x}\"");
                    }
                    for (key, value) in &s.attrs {
                        let text = match value {
                            Value::Str(v) => v.clone(),
                            Value::U64(v) => v.to_string(),
                            Value::I64(v) => v.to_string(),
                            Value::Bool(v) => v.to_string(),
                        };
                        let _ = write!(e, ",\"{key}\":\"{}\"", escape_json(&text));
                    }
                    e.push_str("}}");
                    events.push(e);
                }
                format!(
                    "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[{}]}}\n",
                    events.join(",")
                )
            }
        }
    }

    /// One step of a random history, applied to the log and to the model.
    /// `pick`s index the open handles (or the recorded spans), modulo their
    /// number.
    #[derive(Debug, Clone)]
    enum Step {
        Start,
        /// `start_server_span` under a recorded span's context, or `NONE`.
        Serve(Option<usize>),
        /// `start_server_span` under a context off the wire: any ids.
        Wire(TraceContext),
        Attr(usize, usize, model::Value),
        /// The same, through a key and a string the log resolved first.
        Resolved(usize, usize, model::Value),
        RetryOf(usize, u64),
        End(usize, SpanOutcome),
        /// Compare everything now, open spans included.
        Read,
    }

    const KEYS: [&str; 6] = ["class", "method", "protocol", "bytes", "cached", "delta"];
    const WORDS: [&str; 8] = [
        "",
        "C",
        "n(J)J",
        "RMI",
        "quote\"back\\slash",
        "tab\there\nnl\r\u{8}\u{1f}end",
        "crab \u{1F980}\u{7f}",
        "2#17",
    ];

    fn arb_value() -> BoxedStrategy<model::Value> {
        let word = || 0..WORDS.len();
        prop_oneof![
            3 => word().prop_map(|w| model::Value::Str(WORDS[w].to_owned())),
            1 => (word(), word())
                .prop_map(|(a, b)| model::Value::Str(format!("{}{}", WORDS[a], WORDS[b]))),
            1 => any::<u64>().prop_map(model::Value::U64),
            1 => any::<i64>().prop_map(model::Value::I64),
            1 => any::<bool>().prop_map(model::Value::Bool),
        ]
        .boxed()
    }

    fn arb_outcome() -> BoxedStrategy<SpanOutcome> {
        prop_oneof![
            Just(SpanOutcome::Ok),
            Just(SpanOutcome::Fault),
            Just(SpanOutcome::NetFailure),
        ]
        .boxed()
    }

    fn arb_step() -> BoxedStrategy<Step> {
        let pick = || 0..32usize;
        prop_oneof![
            4 => Just(Step::Start),
            2 => prop::option::of(pick()).prop_map(Step::Serve),
            12 => (pick(), 0..KEYS.len(), arb_value()).prop_map(|(p, k, v)| Step::Attr(p, k, v)),
            1 => (pick(), 1..40u64).prop_map(|(p, id)| Step::RetryOf(p, id)),
            5 => (pick(), arb_outcome()).prop_map(|(p, o)| Step::End(p, o)),
            1 => Just(Step::Read),
        ]
        .boxed()
    }

    /// An id as it may arrive off the wire or be handed to `set_retry_of`:
    /// the edges, a recorded-looking one, or anything.
    fn arb_id() -> BoxedStrategy<u64> {
        prop_oneof![
            1 => Just(0u64),
            1 => Just(u64::MAX),
            2 => 1..40u64,
            2 => any::<u64>(),
        ]
        .boxed()
    }

    /// Steps whose wire contexts and retry links take any `u64`, with
    /// resolved attributes mixed in.
    fn arb_wire_step() -> BoxedStrategy<Step> {
        let pick = || 0..32usize;
        let ctx = (arb_id(), arb_id(), arb_id()).prop_map(|(trace_id, span_id, parent_span_id)| {
            TraceContext {
                trace_id,
                span_id,
                parent_span_id,
            }
        });
        prop_oneof![
            3 => Just(Step::Start),
            1 => prop::option::of(pick()).prop_map(Step::Serve),
            1 => Just(Step::Wire(TraceContext::NONE)),
            3 => ctx.prop_map(Step::Wire),
            4 => (pick(), 0..KEYS.len(), arb_value()).prop_map(|(p, k, v)| Step::Attr(p, k, v)),
            4 => (pick(), 0..KEYS.len(), arb_value())
                .prop_map(|(p, k, v)| Step::Resolved(p, k, v)),
            3 => (pick(), arb_id()).prop_map(|(p, id)| Step::RetryOf(p, id)),
            5 => (pick(), arb_outcome()).prop_map(|(p, o)| Step::End(p, o)),
            2 => Just(Step::Read),
        ]
        .boxed()
    }

    /// Everything a reader can ask of the log, against the model.
    fn assert_matches_model(log: &SpanLog, model: &model::Log) -> Result<(), TestCaseError> {
        prop_assert_eq!(log.spans().len(), model.spans.len());
        for (span, m) in log.spans().zip(&model.spans) {
            let record = (span.trace_id, span.span_id, span.parent_span_id, span.name);
            prop_assert_eq!(record, (m.trace_id, m.span_id, m.parent_span_id, m.name));
            let rest = (
                span.node,
                span.start_ns,
                span.end_ns,
                span.retry_of(),
                span.outcome,
            );
            prop_assert_eq!(rest, (m.node, m.start_ns, m.end_ns, m.retry_of, m.outcome));
            prop_assert_eq!(log.by_id(m.span_id), Some(span));
            let expected: Vec<_> = m.attrs.iter().map(|(k, v)| (*k, v.borrowed())).collect();
            prop_assert_eq!(log.attrs(&span).len(), expected.len());
            prop_assert_eq!(log.attrs(&span).collect::<Vec<_>>(), expected.clone());
            for key in KEYS {
                let first = expected.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
                prop_assert_eq!(log.attr(&span, key), first);
                let text = match first {
                    Some(AttrValue::Str(s)) => Some(s),
                    _ => None,
                };
                prop_assert_eq!(log.attr_str(&span, key), text);
            }
        }
        let past_the_end = model.spans.len() as u64 + 1;
        for id in [0, past_the_end, u64::MAX] {
            prop_assert_eq!(log.by_id(id), None);
        }
        let reversed: Vec<Span> = log.spans().rev().collect();
        prop_assert!(reversed
            .iter()
            .rev()
            .eq(log.spans().collect::<Vec<_>>().iter()));
        prop_assert_eq!(log.chrome_trace_json(), model.chrome_trace_json());
        prop_assert_eq!(&log.clone(), log);
        Ok(())
    }

    /// Apply `steps` to a log and to the model, comparing them at every
    /// `Read`, at the end, and again once every span is closed. Returns
    /// both.
    fn replay(steps: Vec<Step>) -> Result<(SpanLog, model::Log), TestCaseError> {
        let mut log = SpanLog::new();
        let mut model = model::Log::default();
        let mut open: Vec<(SpanHandle, usize)> = Vec::new();
        let mut now = 0u64;
        for step in steps {
            now += 7;
            match step {
                Step::Start => {
                    let node = (now % 3) as u32;
                    let h = log.start_span("rpc.call", node, now);
                    open.push((h, model.start("rpc.call", node, now, None)));
                }
                Step::Serve(pick) => {
                    let recorded = log.spans().len();
                    let ctx = match pick {
                        Some(pick) if recorded > 0 => {
                            log.spans().nth(pick % recorded).unwrap().context()
                        }
                        _ => TraceContext::NONE,
                    };
                    let h = log.start_server_span("serve.call", 1, now, ctx);
                    open.push((h, model.start("serve.call", 1, now, Some(ctx))));
                }
                Step::Wire(ctx) => {
                    let h = log.start_server_span("serve.wire", 2, now, ctx);
                    open.push((h, model.start("serve.wire", 2, now, Some(ctx))));
                }
                Step::Attr(pick, key, value) if !open.is_empty() => {
                    let (h, idx) = open[pick % open.len()];
                    log.set_attr(h, KEYS[key], value.borrowed());
                    model.spans[idx].attrs.push((KEYS[key], value));
                }
                Step::Resolved(pick, key, value) if !open.is_empty() => {
                    let (h, idx) = open[pick % open.len()];
                    let k = log.key(KEYS[key]);
                    let attr = match &value {
                        model::Value::Str(s) => Some(k.sym(log.intern(s))),
                        model::Value::U64(v) => Some(k.u64(*v)),
                        model::Value::Bool(v) => Some(k.bool(*v)),
                        model::Value::I64(_) => None,
                    };
                    match attr {
                        Some(attr) => log.set_attrs(h, &[attr]),
                        None => log.set_attr(h, KEYS[key], value.borrowed()),
                    }
                    model.spans[idx].attrs.push((KEYS[key], value));
                }
                Step::RetryOf(pick, id) if !open.is_empty() => {
                    let (h, idx) = open[pick % open.len()];
                    log.set_retry_of(h, id);
                    model.spans[idx].retry_of = (id != 0).then_some(id);
                }
                Step::End(pick, outcome) if !open.is_empty() => {
                    let (h, idx) = open.remove(pick % open.len());
                    log.end_span(h, now, outcome);
                    model.end(idx, now, outcome);
                }
                Step::Read => assert_matches_model(&log, &model)?,
                _ => {}
            }
        }
        assert_matches_model(&log, &model)?;
        for (h, idx) in open {
            log.end_span(h, now, SpanOutcome::Ok);
            model.end(idx, now, SpanOutcome::Ok);
        }
        assert_matches_model(&log, &model)?;
        Ok((log, model))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Whatever the interleaving — nested and out-of-order closes,
        /// repeated keys, late writes to an outer span, reads of open
        /// spans — the record/arena/interner log reads back exactly what a
        /// vector of attributes per span would hold, and its arena holds
        /// each distinct list once.
        #[test]
        fn the_log_reads_like_a_vec_of_attrs_per_span(
            steps in prop::collection::vec(arb_step(), 1..200),
        ) {
            let (log, model) = replay(steps)?;
            let mut distinct: Vec<&[(&str, model::Value)]> = Vec::new();
            for span in &model.spans {
                if !distinct.contains(&span.attrs.as_slice()) {
                    distinct.push(&span.attrs);
                }
            }
            prop_assert_eq!(log.attrs.len(), distinct.iter().map(|l| l.len()).sum::<usize>());
        }

        /// The 48-byte record loses nothing: contexts off the wire with any
        /// ids (0, `u64::MAX`, `NONE`), retry links to any `u64` (0 clears
        /// one), attributes given by resolved key and symbol, out-of-order
        /// closes and open spans read mid-flight all read back from
        /// `spans()`, `by_id`, `attrs` and `retry_of()` as a plain vector
        /// of spans holds them.
        #[test]
        fn records_read_back_like_a_vec_of_spans(
            steps in prop::collection::vec(arb_wire_step(), 1..200),
        ) {
            let (log, model) = replay(steps)?;
            let retried = model.spans.iter().filter(|s| s.retry_of.is_some()).count();
            prop_assert_eq!(log.retry_slots.len(), retried);
            prop_assert_eq!(log.retry_targets.len(), retried);
        }
    }
}
