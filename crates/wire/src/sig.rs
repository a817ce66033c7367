//! Per-connection interned signature/class-name table.
//!
//! Method descriptors (`name@sigid`) and class names recur on almost every
//! frame a link carries: the same proxy calls the same methods on the same
//! classes over and over. Instead of re-encoding those strings per frame,
//! each *directed* link negotiates a dictionary define-on-first-use: the
//! first frame that carries a signature sends it inline (and both ends
//! intern it under the next free id), every later frame sends a small
//! integer reference (a marker byte in the binary codecs, SOAP `rafda:sigref`
//! attribute). Because frames on a link are processed in order and
//! interning is idempotent, encoder and decoder assign identical ids
//! without any extra handshake traffic — a retransmitted define frame
//! re-interns to the same id.
//!
//! Only signature-position strings participate (`Call.method`,
//! `Create`/`Discover`/`Remote`/`ObjectState`/`Exception` class names);
//! payload [`crate::WireValue::Str`] values always travel inline.
//!
//! The table is bounded by [`SigTable::MAX_SIGS`]: once full, both sides
//! stop interning and fall back to inline strings, keeping encoder and
//! decoder views identical without eviction coordination.

use crate::WireError;
use rafda_telemetry::FastMap;

/// The link's table, if any, as the codecs' recursive writers and readers
/// thread it: held by mutable reference so recursion does not consume the
/// option.
pub(crate) type Sigs<'t, 's> = &'t mut Option<&'s mut SigTable>;

/// How the encoder should put a signature string on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SigEnc {
    /// The string is already interned under this id — send the reference.
    Ref(u32),
    /// Send the string inline (first use, or the table is full).
    Inline,
}

/// The result of a [`SigTable::intern`] attempt — typed, so a full table
/// is an explicit, testable outcome instead of a silently skipped id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InternOutcome {
    /// The string is interned (or already was) under this id.
    Interned(u32),
    /// The table sits at exactly [`SigTable::MAX_SIGS`]: no id was minted
    /// and both ends carry this string inline forever.
    TableFull,
}

impl InternOutcome {
    /// The interned id, if one was (or already had been) assigned.
    pub fn id(self) -> Option<u32> {
        match self {
            InternOutcome::Interned(id) => Some(id),
            InternOutcome::TableFull => None,
        }
    }
}

/// A directed per-link signature dictionary (see module docs).
#[derive(Debug, Clone, Default)]
pub struct SigTable {
    ids: FastMap<String, u32>,
    names: Vec<String>,
    refs: u64,
    defs: u64,
}

impl SigTable {
    /// Entry cap. A full table degrades to inline strings on both sides.
    pub const MAX_SIGS: usize = 4096;

    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned signatures.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The id `s` is interned under, if any.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        self.ids.get(s).copied()
    }

    /// Intern `s`: the existing id if already present, the next free id
    /// otherwise, or [`InternOutcome::TableFull`] at exactly
    /// [`SigTable::MAX_SIGS`] entries — allocation degrades to inline, it
    /// never mints an id past the cap. Idempotent, so decoding a
    /// retransmitted define frame cannot skew the numbering.
    pub fn intern(&mut self, s: &str) -> InternOutcome {
        if let Some(id) = self.ids.get(s) {
            return InternOutcome::Interned(*id);
        }
        if self.names.len() >= Self::MAX_SIGS {
            return InternOutcome::TableFull;
        }
        let id = self.names.len() as u32;
        self.ids.insert(s.to_owned(), id);
        self.names.push(s.to_owned());
        InternOutcome::Interned(id)
    }

    /// Resolve a wire reference back to its string.
    ///
    /// # Errors
    /// [`WireError`] when `id` was never defined on this link.
    pub fn resolve(&self, id: u32) -> Result<&str, WireError> {
        self.names
            .get(id as usize)
            .map(String::as_str)
            .ok_or_else(|| WireError::new(format!("unknown sigref {id}")))
    }

    /// Decide how to encode `s`, interning on first use and counting the
    /// outcome (the counters feed the runtime's wire statistics).
    pub fn encode_sig(&mut self, s: &str) -> SigEnc {
        match self.lookup(s) {
            Some(id) => {
                self.refs += 1;
                SigEnc::Ref(id)
            }
            None => {
                if let InternOutcome::Interned(_) = self.intern(s) {
                    self.defs += 1;
                }
                SigEnc::Inline
            }
        }
    }

    /// Encode-side reference hits (signatures sent as a small id).
    pub fn refs(&self) -> u64 {
        self.refs
    }

    /// Encode-side defines (signatures interned and sent inline once).
    pub fn defs(&self) -> u64 {
        self.defs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_use_defines_then_refs() {
        let mut t = SigTable::new();
        assert_eq!(t.encode_sig("tick@0"), SigEnc::Inline);
        assert_eq!(t.encode_sig("tick@0"), SigEnc::Ref(0));
        assert_eq!(t.encode_sig("Counter"), SigEnc::Inline);
        assert_eq!(t.encode_sig("Counter"), SigEnc::Ref(1));
        assert_eq!((t.defs(), t.refs()), (2, 2));
        assert_eq!(t.resolve(1).unwrap(), "Counter");
        assert!(t.resolve(2).is_err());
    }

    #[test]
    fn intern_is_idempotent() {
        let mut t = SigTable::new();
        assert_eq!(t.intern("a"), InternOutcome::Interned(0));
        assert_eq!(t.intern("b"), InternOutcome::Interned(1));
        assert_eq!(
            t.intern("a"),
            InternOutcome::Interned(0),
            "re-interning keeps the id"
        );
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn full_table_degrades_to_inline() {
        let mut t = SigTable::new();
        for i in 0..SigTable::MAX_SIGS {
            assert!(t.intern(&format!("sig{i}")).id().is_some());
        }
        assert_eq!(t.intern("overflow"), InternOutcome::TableFull);
        assert_eq!(t.encode_sig("overflow"), SigEnc::Inline);
        assert_eq!(t.encode_sig("overflow"), SigEnc::Inline, "never interned");
        // Existing entries still resolve by reference.
        assert_eq!(t.encode_sig("sig0"), SigEnc::Ref(0));
    }

    #[test]
    fn intern_boundary_at_exact_cap() {
        let cap = SigTable::MAX_SIGS;
        let mut t = SigTable::new();
        for i in 0..cap - 1 {
            assert_eq!(
                t.intern(&format!("sig{i}")),
                InternOutcome::Interned(i as u32)
            );
        }
        // cap−1 entries: the last free slot still mints an id.
        assert_eq!(t.intern("last"), InternOutcome::Interned(cap as u32 - 1));
        assert_eq!(t.len(), cap);
        // cap: exactly full — allocation degrades, no id past the cap.
        assert_eq!(t.intern("at-cap"), InternOutcome::TableFull);
        assert_eq!(t.len(), cap);
        // cap+1: still full; existing entries keep their ids, and no id
        // beyond the cap ever resolves.
        assert_eq!(t.intern("past-cap"), InternOutcome::TableFull);
        assert_eq!(t.intern("last"), InternOutcome::Interned(cap as u32 - 1));
        assert!(t.resolve(cap as u32).is_err());
    }
}
