//! The per-address-space heap: objects, arrays, generational handles.
//!
//! The heap supports one operation a conventional VM does not:
//! [`Heap::replace_object`], which rewrites a live object's class and fields
//! *in place*. This is the mechanism behind RAFDA's dynamic distribution
//! boundaries — when an object migrates to another node, the local instance
//! is rewritten into a proxy (`Cp` in the paper's Figure 1) without touching
//! any of the references that point at it, and vice versa when an object is
//! pulled back local.

use crate::value::Value;
use rafda_classmodel::{ClassId, Ty};
use std::fmt;

/// A generational heap handle. Using a generation counter means stale
/// handles to freed slots are detected instead of silently reading reused
/// memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle {
    pub(crate) index: u32,
    pub(crate) generation: u32,
}

impl fmt::Display for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.index, self.generation)
    }
}

/// What a heap slot holds.
#[derive(Debug, Clone, PartialEq)]
pub enum HeapEntry {
    /// An object: its runtime class and flattened field slots
    /// (root-superclass fields first).
    Object {
        /// The object's runtime class.
        class: ClassId,
        /// Flattened field slots (inherited fields first).
        fields: Vec<Value>,
    },
    /// An array with a fixed element type.
    Array {
        /// Element type (used for default values at allocation).
        elem: Ty,
        /// The elements.
        data: Vec<Value>,
    },
}

#[derive(Debug)]
struct Slot {
    generation: u32,
    /// Set whenever the entry is handed out mutably or (re)filled, cleared
    /// only by [`Heap::clear_written`]: "may differ from what it was at the
    /// last clear". Sits in the padding after `generation`.
    written: bool,
    entry: Option<HeapEntry>,
}

/// Statistics kept by the heap.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HeapStats {
    /// Total objects ever allocated.
    pub objects_allocated: u64,
    /// Total arrays ever allocated.
    pub arrays_allocated: u64,
    /// Live entries right now.
    pub live: u64,
    /// In-place object replacements (boundary swaps).
    pub replacements: u64,
}

/// A growable heap of objects and arrays addressed by [`Handle`].
#[derive(Debug, Default)]
pub struct Heap {
    slots: Vec<Slot>,
    free: Vec<u32>,
    stats: HeapStats,
    /// Every handle whose written mark [`Heap::get_mut`] flipped from clear
    /// to set since the last [`Heap::take_written`]. An entry nobody ever
    /// cleared is born marked and never logged.
    write_log: Vec<Handle>,
    /// Whether [`Heap::get_mut`] handed out any entry since that drain.
    touched: bool,
}

impl Heap {
    /// Create an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current statistics.
    pub fn stats(&self) -> HeapStats {
        self.stats
    }

    fn insert(&mut self, entry: HeapEntry) -> Handle {
        self.stats.live += 1;
        match entry {
            HeapEntry::Object { .. } => self.stats.objects_allocated += 1,
            HeapEntry::Array { .. } => self.stats.arrays_allocated += 1,
        }
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.entry = Some(entry);
            slot.written = true;
            Handle {
                index,
                generation: slot.generation,
            }
        } else {
            self.slots.push(Slot {
                generation: 0,
                written: true,
                entry: Some(entry),
            });
            Handle {
                index: (self.slots.len() - 1) as u32,
                generation: 0,
            }
        }
    }

    /// Allocate an object of `class` with the given (already flattened)
    /// field slots.
    pub fn alloc_object(&mut self, class: ClassId, fields: Vec<Value>) -> Handle {
        self.insert(HeapEntry::Object { class, fields })
    }

    /// Allocate an array.
    pub fn alloc_array(&mut self, elem: Ty, data: Vec<Value>) -> Handle {
        self.insert(HeapEntry::Array { elem, data })
    }

    fn slot(&self, h: Handle) -> Option<&Slot> {
        self.slots
            .get(h.index as usize)
            .filter(|s| s.generation == h.generation)
    }

    fn slot_mut(&mut self, h: Handle) -> Option<&mut Slot> {
        self.slots
            .get_mut(h.index as usize)
            .filter(|s| s.generation == h.generation)
    }

    /// Access an entry; `None` for stale or freed handles.
    pub fn get(&self, h: Handle) -> Option<&HeapEntry> {
        self.slot(h).and_then(|s| s.entry.as_ref())
    }

    /// Mutable access to an entry. Every write to an entry goes through
    /// here, so this is where the slot is marked written — and, when that
    /// flips a cleared mark, where the handle is logged.
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut HeapEntry> {
        let slot = self.slots.get_mut(h.index as usize)?;
        if slot.generation != h.generation {
            return None;
        }
        self.touched = true;
        if !slot.written {
            slot.written = true;
            self.write_log.push(h);
        }
        slot.entry.as_mut()
    }

    /// Drain the write log: `None` if no entry was handed out mutably since
    /// the previous drain, else the handles that were clear when written
    /// and have not been cleared again since (a handle gone stale reads as
    /// written, so it stays).
    pub fn take_written(&mut self) -> Option<Vec<Handle>> {
        if !std::mem::take(&mut self.touched) {
            return None;
        }
        let log = self.write_log.iter().copied();
        let still_written = log.filter(|&h| self.written(h)).collect();
        self.write_log.clear();
        Some(still_written)
    }

    /// Whether the entry at `h` may have changed since the last
    /// [`Heap::clear_written`] on it. A stale handle reads as written: the
    /// entry it named is gone, which is a change.
    pub fn written(&self, h: Handle) -> bool {
        self.slot(h).is_none_or(|s| s.written)
    }

    /// Clear the written mark of `h`; the caller has just recorded the
    /// entry's current state. No-op on a stale handle.
    pub fn clear_written(&mut self, h: Handle) {
        if let Some(s) = self.slot_mut(h) {
            s.written = false;
        }
    }

    /// The runtime class of the object at `h`, if it is a live object.
    pub fn class_of(&self, h: Handle) -> Option<ClassId> {
        match self.get(h) {
            Some(HeapEntry::Object { class, .. }) => Some(*class),
            _ => None,
        }
    }

    /// Read field slot `offset` of the object at `h`.
    pub fn field(&self, h: Handle, offset: usize) -> Option<&Value> {
        match self.get(h) {
            Some(HeapEntry::Object { fields, .. }) => fields.get(offset),
            _ => None,
        }
    }

    /// Write field slot `offset` of the object at `h`. Returns `false` for
    /// stale handles or out-of-range offsets. A store of the value the slot
    /// already holds (floats compared by their bits) changes nothing, so it
    /// leaves the written mark and the write log as they are.
    pub fn set_field(&mut self, h: Handle, offset: usize, value: Value) -> bool {
        let same = |held: &Value| match (held, &value) {
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Double(a), Value::Double(b)) => a.to_bits() == b.to_bits(),
            (held, value) => held == value,
        };
        if self.field(h, offset).is_some_and(same) {
            return true;
        }
        match self.get_mut(h) {
            Some(HeapEntry::Object { fields, .. }) if offset < fields.len() => {
                fields[offset] = value;
                true
            }
            _ => false,
        }
    }

    /// Rewrite a live object **in place**: change its class and fields while
    /// keeping its handle valid. All existing references now see the new
    /// implementation — this is the local↔proxy swap of the paper's
    /// Figure 1.
    ///
    /// Returns the previous entry, or `None` (no change) if the handle is
    /// stale or not an object.
    pub fn replace_object(
        &mut self,
        h: Handle,
        class: ClassId,
        fields: Vec<Value>,
    ) -> Option<HeapEntry> {
        match self.get_mut(h) {
            Some(entry @ HeapEntry::Object { .. }) => {
                let old = std::mem::replace(entry, HeapEntry::Object { class, fields });
                self.stats.replacements += 1;
                Some(old)
            }
            _ => None,
        }
    }

    /// Free an entry, invalidating all handles to it.
    pub fn free(&mut self, h: Handle) -> bool {
        match self.slot_mut(h) {
            Some(slot) if slot.entry.is_some() => {
                slot.entry = None;
                slot.generation += 1;
                self.free.push(h.index);
                self.stats.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Number of live entries.
    pub fn live(&self) -> usize {
        self.stats.live as usize
    }

    /// Free every live entry whose index is not in `keep` (the mark set of
    /// a mark-and-sweep collection). Returns the number of entries freed.
    pub fn sweep(&mut self, keep: &std::collections::HashSet<u32>) -> usize {
        let mut freed = 0;
        let doomed: Vec<Handle> = self
            .handles()
            .filter(|h| !keep.contains(&h.index))
            .collect();
        for h in doomed {
            if self.free(h) {
                freed += 1;
            }
        }
        freed
    }

    /// Iterate over all live handles.
    pub fn handles(&self) -> impl Iterator<Item = Handle> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.entry.as_ref().map(|_| Handle {
                index: i as u32,
                generation: s.generation,
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

    #[test]
    fn the_written_mark_fits_in_the_slots_padding() {
        // The size before the mark existed (`u32` + niche-packed 40-byte
        // entry, 8-aligned): the mark must cost the heap no memory.
        assert_eq!(std::mem::size_of::<Slot>(), 48);
    }

    #[derive(Debug, Clone)]
    enum Op {
        AllocObject { fields: usize },
        AllocArray { len: usize },
        SetField { pick: usize, offset: usize, v: i32 },
        ArrayStore { pick: usize, index: usize, v: i32 },
        Replace { pick: usize, class: u32 },
        Free { pick: usize },
        Clear { pick: usize },
        Read { pick: usize },
        Drain,
    }

    /// What the write log should hold: the handles a `get_mut` found clear
    /// since the last drain, and whether any `get_mut` found an entry at all.
    #[derive(Default)]
    struct LogModel {
        flipped: HashSet<Handle>,
        touched: bool,
    }

    impl LogModel {
        /// `h` is about to be asked for mutably.
        fn before_get_mut(&mut self, heap: &Heap, h: Handle) {
            if heap.get(h).is_some() {
                self.touched = true;
                if !heap.written(h) {
                    self.flipped.insert(h);
                }
            }
        }
    }

    fn arb_op() -> BoxedStrategy<Op> {
        let pick = || 0..32usize;
        prop_oneof![
            3 => (0..4usize).prop_map(|fields| Op::AllocObject { fields }),
            2 => (0..4usize).prop_map(|len| Op::AllocArray { len }),
            4 => (pick(), 0..4usize, 0..3i32)
                .prop_map(|(pick, offset, v)| Op::SetField { pick, offset, v }),
            3 => (pick(), 0..4usize, 0..3i32)
                .prop_map(|(pick, index, v)| Op::ArrayStore { pick, index, v }),
            2 => (pick(), 0..3u32).prop_map(|(pick, class)| Op::Replace { pick, class }),
            2 => pick().prop_map(|pick| Op::Free { pick }),
            4 => pick().prop_map(|pick| Op::Clear { pick }),
            3 => pick().prop_map(|pick| Op::Read { pick }),
            2 => Just(Op::Drain),
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The mark is complete: an entry that differs from its snapshot at
        /// the last `clear_written` is marked, whatever wrote it; reads
        /// never mark; handles that are stale, or were never cleared, read
        /// as written. The write log is exact: a drain yields the handles
        /// that were clear when written since the previous drain and are
        /// still marked (gone stale included), and is `Some` iff some entry
        /// was handed out mutably — allocation alone logs and touches
        /// nothing.
        #[test]
        fn an_entry_that_changed_since_its_last_clear_is_marked(
            ops in prop::collection::vec(arb_op(), 1..120),
        ) {
            let mut heap = Heap::new();
            // Every handle ever issued, stale ones included.
            let mut issued: Vec<Handle> = Vec::new();
            let mut snapshots: HashMap<Handle, HeapEntry> = HashMap::new();
            let mut log = LogModel::default();
            for op in ops {
                let at = |pick: usize| issued.get(pick % issued.len().max(1)).copied();
                match op {
                    Op::AllocObject { fields } => {
                        issued.push(heap.alloc_object(ClassId(0), vec![Value::Int(0); fields]));
                    }
                    Op::AllocArray { len } => {
                        issued.push(heap.alloc_array(Ty::Int, vec![Value::Int(0); len]));
                    }
                    Op::SetField { pick, offset, v } => {
                        if let Some(h) = at(pick) {
                            // Storing the value a field holds is no write.
                            if heap.field(h, offset) != Some(&Value::Int(v)) {
                                log.before_get_mut(&heap, h);
                            }
                            heap.set_field(h, offset, Value::Int(v));
                        }
                    }
                    Op::ArrayStore { pick, index, v } => {
                        let h = at(pick);
                        if let Some(h) = h {
                            log.before_get_mut(&heap, h);
                        }
                        if let Some(HeapEntry::Array { data, .. }) =
                            h.and_then(|h| heap.get_mut(h))
                        {
                            if let Some(slot) = data.get_mut(index) {
                                *slot = Value::Int(v);
                            }
                        }
                    }
                    Op::Replace { pick, class } => {
                        if let Some(h) = at(pick) {
                            log.before_get_mut(&heap, h);
                            heap.replace_object(h, ClassId(class), vec![Value::Int(1)]);
                        }
                    }
                    Op::Free { pick } => {
                        if let Some(h) = at(pick) {
                            heap.free(h);
                        }
                    }
                    Op::Clear { pick } => {
                        if let Some(h) = at(pick) {
                            heap.clear_written(h);
                            match heap.get(h) {
                                Some(entry) => {
                                    prop_assert!(!heap.written(h), "{h} not cleared");
                                    snapshots.insert(h, entry.clone());
                                }
                                None => prop_assert!(heap.written(h), "stale {h} cleared"),
                            }
                        }
                    }
                    Op::Read { pick } => {
                        let marks = |heap: &Heap| -> Vec<bool> {
                            issued.iter().map(|&h| heap.written(h)).collect()
                        };
                        let before = marks(&heap);
                        if let Some(h) = at(pick) {
                            let _ = (heap.get(h), heap.field(h, 0), heap.class_of(h));
                        }
                        let _ = heap.handles().count();
                        prop_assert_eq!(before, marks(&heap), "a read left a mark");
                    }
                    Op::Drain => {
                        let drained = heap.take_written();
                        prop_assert_eq!(drained.is_some(), log.touched);
                        let drained: HashSet<Handle> =
                            drained.into_iter().flatten().collect();
                        let owed = std::mem::take(&mut log).flipped;
                        let owed: HashSet<Handle> =
                            owed.into_iter().filter(|&h| heap.written(h)).collect();
                        prop_assert_eq!(drained, owed);
                    }
                }
                for &h in &issued {
                    let unchanged = match (heap.get(h), snapshots.get(&h)) {
                        (Some(live), Some(snapshot)) => live == snapshot,
                        _ => false,
                    };
                    prop_assert!(unchanged || heap.written(h), "{h} changed unmarked");
                }
            }
        }
    }

    #[test]
    fn alloc_and_read() {
        let mut heap = Heap::new();
        let h = heap.alloc_object(ClassId(1), vec![Value::Int(5)]);
        assert_eq!(heap.class_of(h), Some(ClassId(1)));
        assert_eq!(heap.field(h, 0), Some(&Value::Int(5)));
        assert_eq!(heap.field(h, 1), None);
        assert_eq!(heap.live(), 1);
    }

    #[test]
    fn set_field_bounds_checked() {
        let mut heap = Heap::new();
        let h = heap.alloc_object(ClassId(1), vec![Value::Null]);
        assert!(heap.set_field(h, 0, Value::Int(9)));
        assert!(!heap.set_field(h, 3, Value::Int(9)));
        assert_eq!(heap.field(h, 0), Some(&Value::Int(9)));
    }

    #[test]
    fn stale_handles_detected_after_free() {
        let mut heap = Heap::new();
        let h = heap.alloc_object(ClassId(1), vec![]);
        assert!(heap.free(h));
        assert!(heap.get(h).is_none());
        assert!(!heap.free(h));
        // Slot reuse gets a new generation.
        let h2 = heap.alloc_object(ClassId(2), vec![]);
        assert_eq!(h2.index, h.index);
        assert_ne!(h2.generation, h.generation);
        assert!(heap.get(h).is_none());
        assert!(heap.get(h2).is_some());
    }

    #[test]
    fn replace_object_keeps_handle_and_counts() {
        let mut heap = Heap::new();
        let h = heap.alloc_object(ClassId(1), vec![Value::Int(1)]);
        let old = heap.replace_object(h, ClassId(9), vec![Value::Long(7), Value::Null]);
        assert_eq!(
            old,
            Some(HeapEntry::Object {
                class: ClassId(1),
                fields: vec![Value::Int(1)]
            })
        );
        assert_eq!(heap.class_of(h), Some(ClassId(9)));
        assert_eq!(heap.field(h, 0), Some(&Value::Long(7)));
        assert_eq!(heap.stats().replacements, 1);
    }

    /// An equal store leaves the mark clear and logs nothing; a float
    /// store is equal only bit for bit, since `-0.0` marshals apart from
    /// `0.0`.
    #[test]
    fn storing_the_value_a_field_holds_is_no_write() {
        let mut heap = Heap::new();
        let h = heap.alloc_object(ClassId(0), vec![Value::Int(3), Value::Double(0.0)]);
        heap.clear_written(h);
        let _ = heap.take_written();
        assert!(heap.set_field(h, 0, Value::Int(3)));
        assert!(heap.set_field(h, 1, Value::Double(0.0)));
        assert!(!heap.written(h));
        assert_eq!(heap.take_written(), None, "nothing was handed out");
        assert!(heap.set_field(h, 1, Value::Double(-0.0)));
        assert!(heap.written(h));
        assert_eq!(heap.take_written(), Some(vec![h]));
        assert!(!heap.set_field(h, 2, Value::Int(3)), "out of range");
    }

    #[test]
    fn replace_rejects_arrays_and_stale() {
        let mut heap = Heap::new();
        let a = heap.alloc_array(Ty::Int, vec![Value::Int(1)]);
        assert!(heap.replace_object(a, ClassId(1), vec![]).is_none());
        let h = heap.alloc_object(ClassId(1), vec![]);
        heap.free(h);
        assert!(heap.replace_object(h, ClassId(1), vec![]).is_none());
    }

    #[test]
    fn stats_track_allocations() {
        let mut heap = Heap::new();
        heap.alloc_object(ClassId(0), vec![]);
        heap.alloc_array(Ty::Int, vec![]);
        let h = heap.alloc_object(ClassId(0), vec![]);
        heap.free(h);
        let s = heap.stats();
        assert_eq!(s.objects_allocated, 2);
        assert_eq!(s.arrays_allocated, 1);
        assert_eq!(s.live, 2);
        assert_eq!(heap.handles().count(), 2);
    }
}
