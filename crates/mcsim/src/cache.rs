//! Set-associative cache arrays.
//!
//! A generic LRU set-associative structure ([`SetAssoc`]) is instantiated
//! twice: as the private per-core L1 (MSI state plus the Conditional Access
//! tag bit, paper §III) and as the shared inclusive L2 whose per-line payload
//! is the full-map directory entry.

#![forbid(unsafe_code)]

use crate::addr::{CoreId, Line, LINE_BYTES};

/// Coherence state of a line in a private L1. Absence from the cache is `I`.
///
/// `Exclusive` only occurs when the hub runs the MESI protocol
/// (`Protocol::Mesi`); under the paper's directory-MSI configuration the
/// state machine never enters it.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum MsiState {
    /// Shared: read permission, other copies may exist.
    Shared,
    /// Exclusive (MESI only): sole copy, read permission, memory is clean.
    /// A write silently promotes E→M without directory traffic.
    Exclusive,
    /// Modified: sole copy, read/write permission, memory is stale.
    Modified,
}

/// One resident line of a [`SetAssoc`] cache.
#[derive(Clone, Debug)]
pub struct Entry<P> {
    /// Which memory line occupies this way.
    pub line: Line,
    /// LRU timestamp (larger = more recently used).
    pub lru: u64,
    /// Level-specific metadata.
    pub payload: P,
}

/// Generic set-associative array with true-LRU replacement.
///
/// The set count is always a power of two, so set indexing is a bitmask
/// (`line & set_mask`) rather than a division — this sits on the simulator's
/// hottest path, one index per cache probe per memory event.
pub struct SetAssoc<P> {
    sets: usize,
    /// `sets - 1`; valid because `sets` is a power of two.
    set_mask: usize,
    assoc: usize,
    ways: Vec<Option<Entry<P>>>,
    stamp: u64,
}

impl<P> SetAssoc<P> {
    /// Build a cache of `size_bytes` capacity with `assoc` ways of 64-byte
    /// lines. `size_bytes` must be a multiple of `assoc * 64`. A
    /// non-power-of-two set count is rounded **up** to the next power of
    /// two (growing the capacity), so that set indexing can use a bitmask;
    /// [`Self::capacity_lines`] reflects the rounded geometry.
    pub fn new(size_bytes: usize, assoc: usize) -> Self {
        assert!(assoc >= 1, "associativity must be at least 1");
        let lines = size_bytes / LINE_BYTES as usize;
        assert!(
            lines >= assoc && lines.is_multiple_of(assoc),
            "cache of {size_bytes} bytes cannot hold {assoc}-way sets of 64B lines"
        );
        let sets = (lines / assoc).next_power_of_two();
        if sets != lines / assoc {
            // Loud, because the rounded geometry has more capacity and
            // different conflict behaviour than the requested one — results
            // would otherwise be silently misattributed to the stated size.
            eprintln!(
                "mcsim: warning: {size_bytes}-byte {assoc}-way cache has {} sets; \
                 rounding up to {sets} (power-of-two set indexing) — simulated \
                 capacity grows to {} bytes",
                lines / assoc,
                sets * assoc * LINE_BYTES as usize,
            );
        }
        Self {
            sets,
            set_mask: sets - 1,
            assoc,
            ways: (0..sets * assoc).map(|_| None).collect(),
            stamp: 0,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Ways per set.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Total capacity in lines.
    pub fn capacity_lines(&self) -> usize {
        self.sets * self.assoc
    }

    #[inline]
    fn set_range(&self, line: Line) -> std::ops::Range<usize> {
        let set = (line.0 as usize) & self.set_mask;
        set * self.assoc..(set + 1) * self.assoc
    }

    /// Find a resident line.
    #[inline]
    pub fn lookup(&self, line: Line) -> Option<&Entry<P>> {
        self.ways[self.set_range(line)]
            .iter()
            .flatten()
            .find(|e| e.line == line)
    }

    /// Find a resident line, mutably, bumping its LRU stamp. Computes the
    /// set range once and leaves the stamp untouched on a miss (stamps are
    /// only compared between resident entries, so skipping the bump cannot
    /// change any eviction decision).
    #[inline]
    pub fn lookup_touch(&mut self, line: Line) -> Option<&mut Entry<P>> {
        let range = self.set_range(line);
        match self.ways[range].iter_mut().flatten().find(|e| e.line == line) {
            Some(e) => {
                self.stamp += 1;
                e.lru = self.stamp;
                Some(e)
            }
            None => None,
        }
    }

    /// Find a resident line mutably *without* touching LRU (metadata edits by
    /// the directory must not perturb replacement decisions).
    #[inline]
    pub fn lookup_mut(&mut self, line: Line) -> Option<&mut Entry<P>> {
        let range = self.set_range(line);
        self.ways[range].iter_mut().flatten().find(|e| e.line == line)
    }

    /// Insert `line`, evicting the LRU way of its set if the set is full.
    /// Returns the evicted entry, if any. The line must not already be
    /// resident.
    pub fn insert(&mut self, line: Line, payload: P) -> Option<Entry<P>> {
        debug_assert!(self.lookup(line).is_none(), "double insert of {line:?}");
        self.stamp += 1;
        let stamp = self.stamp;
        let range = self.set_range(line);
        let ways = &mut self.ways[range];
        // Prefer an empty way.
        if let Some(slot) = ways.iter_mut().find(|w| w.is_none()) {
            *slot = Some(Entry {
                line,
                lru: stamp,
                payload,
            });
            return None;
        }
        // Evict true-LRU.
        let victim_idx = ways
            .iter()
            .enumerate()
            .min_by_key(|(_, w)| w.as_ref().map(|e| e.lru).unwrap_or(0))
            .map(|(i, _)| i)
            .expect("associativity >= 1");
        ways[victim_idx].replace(Entry {
            line,
            lru: stamp,
            payload,
        })
    }

    /// Remove a line (invalidation). Returns the entry if it was resident.
    pub fn remove(&mut self, line: Line) -> Option<Entry<P>> {
        let range = self.set_range(line);
        self.ways[range]
            .iter_mut()
            .find(|w| w.as_ref().is_some_and(|e| e.line == line))
            .and_then(|w| w.take())
    }

    /// Iterate over all resident entries.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<P>> {
        self.ways.iter().flatten()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.ways.iter().flatten().count()
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident line (power-on reset; used by tests).
    pub fn clear(&mut self) {
        for w in &mut self.ways {
            *w = None;
        }
    }
}

/// L1 per-line metadata: coherence state and the Conditional Access tag bits.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct L1Meta {
    /// Coherence state.
    pub state: MsiState,
    /// Conditional Access tag bits, one per hardware thread sharing this L1
    /// (paper §III: "on a 2-way SMT architecture, two tag bits ... will be
    /// required"). Bit `h` is set by a `cread` from hyperthread `h` and
    /// cleared by its `untagOne`/`untagAll`. Single-threaded cores use bit 0.
    pub tags: u8,
}

impl L1Meta {
    /// Untagged metadata in the given state.
    pub fn clean(state: MsiState) -> Self {
        Self { state, tags: 0 }
    }

    /// Is any hyperthread's tag bit set?
    pub fn any_tagged(&self) -> bool {
        self.tags != 0
    }
}

/// A private L1 data cache: set-associative array plus a side list of lines
/// whose tag bits may be set, so `untagAll` is O(|tagSet|) instead of a full
/// cache scan. The list may hold stale entries (evicted or already-untagged
/// lines); clearing a clear bit is harmless.
pub struct L1 {
    pub array: SetAssoc<L1Meta>,
    tag_list: Vec<Line>,
}

impl L1 {
    /// Build an L1 of the given geometry.
    pub fn new(size_bytes: usize, assoc: usize) -> Self {
        Self {
            array: SetAssoc::new(size_bytes, assoc),
            tag_list: Vec::with_capacity(16),
        }
    }

    /// Set hyperthread `ht`'s tag bit on a resident line. Returns false if
    /// the line is not resident (callers must fill first).
    #[inline]
    pub fn set_tag(&mut self, line: Line, ht: usize) -> bool {
        match self.array.lookup_mut(line) {
            Some(e) => {
                let bit = 1u8 << ht;
                if e.payload.tags & bit == 0 {
                    e.payload.tags |= bit;
                    self.tag_list.push(line);
                }
                true
            }
            None => false,
        }
    }

    /// Clear hyperthread `ht`'s tag bit of one line (`untagOne`). No effect
    /// if absent.
    pub fn clear_tag(&mut self, line: Line, ht: usize) {
        if let Some(e) = self.array.lookup_mut(line) {
            e.payload.tags &= !(1u8 << ht);
        }
        // The stale tag_list entry is skipped on the next clear_all_tags.
    }

    /// Clear every tag bit of hyperthread `ht` (`untagAll`). Returns how many
    /// bits were actually cleared. Entries still tagged by a sibling
    /// hyperthread stay on the side list.
    ///
    /// Allocation-free: surviving lines are compacted in place (swap-retain
    /// over `tag_list`), since `untagAll` runs once per failed conditional
    /// access and once per completed CA operation.
    pub fn clear_all_tags(&mut self, ht: usize) -> usize {
        let bit = 1u8 << ht;
        let mut cleared = 0;
        let mut kept = 0;
        for i in 0..self.tag_list.len() {
            let line = self.tag_list[i];
            // Look up without touching LRU; stale entries (evicted or
            // already-untagged lines) are dropped from the list.
            if let Some(e) = self.array.lookup_mut(line) {
                if e.payload.tags & bit != 0 {
                    e.payload.tags &= !bit;
                    cleared += 1;
                }
                if e.payload.tags != 0 {
                    self.tag_list[kept] = line;
                    kept += 1;
                }
            }
        }
        self.tag_list.truncate(kept);
        cleared
    }

    /// Is the line resident with hyperthread `ht`'s tag bit set?
    #[inline]
    pub fn is_tagged(&self, line: Line, ht: usize) -> bool {
        self.array
            .lookup(line)
            .is_some_and(|e| e.payload.tags & (1u8 << ht) != 0)
    }

    /// The line's full tag mask (0 when absent).
    #[inline]
    pub fn tag_mask(&self, line: Line) -> u8 {
        self.array.lookup(line).map_or(0, |e| e.payload.tags)
    }

    /// Lines currently resident *and* tagged by hyperthread `ht`
    /// (test/introspection helper).
    pub fn tagged_lines(&self, ht: usize) -> Vec<Line> {
        self.array
            .iter()
            .filter(|e| e.payload.tags & (1u8 << ht) != 0)
            .map(|e| e.line)
            .collect()
    }
}

/// Directory entry stored with each line of the shared inclusive L2.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct DirMeta {
    /// Cores that may hold the line in Shared state. Conservative: silent L1
    /// evictions of Shared lines do not notify the directory, so bits can be
    /// stale; invalidations to non-holders are harmless no-ops (standard
    /// full-map directory behaviour).
    pub sharers: u64,
    /// Core holding the line in Modified state, if any. When set, `sharers`
    /// is zero: MSI allows no S copies alongside an M copy.
    pub owner: Option<CoreId>,
    /// The L2 copy is newer than memory (a writeback landed here).
    pub dirty: bool,
}

impl DirMeta {
    /// Set of cores that may hold any copy.
    pub fn holders(&self) -> u64 {
        self.sharers | self.owner.map_or(0, |o| 1u64 << o)
    }

    /// Add a sharer bit.
    pub fn add_sharer(&mut self, c: CoreId) {
        self.sharers |= 1 << c;
    }

    /// Drop a sharer bit.
    pub fn remove_sharer(&mut self, c: CoreId) {
        self.sharers &= !(1 << c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(n: u64) -> Line {
        Line(n)
    }

    #[test]
    fn geometry() {
        let c: SetAssoc<()> = SetAssoc::new(32 * 1024, 8);
        assert_eq!(c.capacity_lines(), 512);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.assoc(), 8);
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn bad_geometry_panics() {
        let _: SetAssoc<()> = SetAssoc::new(100, 8);
    }

    #[test]
    fn non_power_of_two_sets_round_up() {
        // 24 lines, 2-way → 12 sets, rounded up to 16 so indexing is a mask.
        let c: SetAssoc<()> = SetAssoc::new(24 * 64, 2);
        assert_eq!(c.sets(), 16);
        assert_eq!(c.assoc(), 2);
        assert_eq!(c.capacity_lines(), 32, "capacity reflects the rounding");
        // Power-of-two geometries are untouched.
        let c: SetAssoc<()> = SetAssoc::new(32 * 1024, 8);
        assert_eq!(c.sets(), 64);
        assert_eq!(c.capacity_lines(), 512);
    }

    #[test]
    fn rounded_geometry_maps_lines_by_mask() {
        // 12 sets round to 16: lines 0 and 16 share set 0, line 12 does not.
        let mut c: SetAssoc<u32> = SetAssoc::new(12 * 64, 1);
        assert_eq!(c.sets(), 16);
        assert!(c.insert(l(0), 0).is_none());
        assert!(c.insert(l(12), 12).is_none(), "12 & 15 = 12: different set");
        let ev = c.insert(l(16), 16).expect("16 & 15 = 0: conflicts with 0");
        assert_eq!(ev.line, l(0));
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1024, 2); // 16 lines, 8 sets
        assert!(c.insert(l(1), 10).is_none());
        assert_eq!(c.lookup(l(1)).unwrap().payload, 10);
        assert_eq!(c.remove(l(1)).unwrap().payload, 10);
        assert!(c.lookup(l(1)).is_none());
        assert!(c.remove(l(1)).is_none());
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way, 1 set: 128 bytes.
        let mut c: SetAssoc<u32> = SetAssoc::new(128, 2);
        assert!(c.insert(l(0), 0).is_none());
        assert!(c.insert(l(1), 1).is_none());
        // Touch line 0 so line 1 is LRU.
        c.lookup_touch(l(0));
        let ev = c.insert(l(2), 2).expect("set full, must evict");
        assert_eq!(ev.line, l(1));
        assert!(c.lookup(l(0)).is_some());
        assert!(c.lookup(l(2)).is_some());
    }

    #[test]
    fn conflicting_lines_map_to_same_set() {
        // 1-way (direct-mapped), 4 sets: 256 bytes.
        let mut c: SetAssoc<()> = SetAssoc::new(256, 1);
        assert!(c.insert(l(0), ()).is_none());
        // line 4 maps to set 0 too (4 % 4 == 0).
        let ev = c.insert(l(4), ()).expect("direct-mapped conflict");
        assert_eq!(ev.line, l(0));
    }

    #[test]
    fn lookup_mut_does_not_touch_lru() {
        let mut c: SetAssoc<u32> = SetAssoc::new(128, 2);
        c.insert(l(0), 0);
        c.insert(l(1), 1);
        // Metadata-edit line 0; it must remain LRU and get evicted.
        c.lookup_mut(l(0)).unwrap().payload = 99;
        let ev = c.insert(l(2), 2).unwrap();
        assert_eq!(ev.line, l(0));
        assert_eq!(ev.payload, 99);
    }

    #[test]
    fn l1_tagging_and_untag_all() {
        let mut l1 = L1::new(1024, 2);
        l1.array.insert(l(3), L1Meta::clean(MsiState::Shared));
        assert!(!l1.is_tagged(l(3), 0));
        assert!(l1.set_tag(l(3), 0));
        assert!(l1.is_tagged(l(3), 0));
        // Tagging an absent line fails.
        assert!(!l1.set_tag(l(99), 0));
        assert_eq!(l1.clear_all_tags(0), 1);
        assert!(!l1.is_tagged(l(3), 0));
        // Idempotent.
        assert_eq!(l1.clear_all_tags(0), 0);
    }

    #[test]
    fn l1_untag_one() {
        let mut l1 = L1::new(1024, 2);
        for i in 0..3 {
            l1.array.insert(l(i), L1Meta::clean(MsiState::Shared));
            l1.set_tag(l(i), 0);
        }
        l1.clear_tag(l(1), 0);
        assert!(l1.is_tagged(l(0), 0));
        assert!(!l1.is_tagged(l(1), 0));
        assert!(l1.is_tagged(l(2), 0));
        assert_eq!(l1.clear_all_tags(0), 2);
    }

    #[test]
    fn l1_tag_survives_duplicate_set() {
        let mut l1 = L1::new(1024, 2);
        l1.array.insert(l(5), L1Meta::clean(MsiState::Shared));
        assert!(l1.set_tag(l(5), 0));
        assert!(l1.set_tag(l(5), 0)); // second tag is a no-op
        assert_eq!(l1.clear_all_tags(0), 1);
    }

    #[test]
    fn l1_per_hyperthread_tags_are_independent() {
        // Paper §III: each hardware thread has its own tag bit per line.
        let mut l1 = L1::new(1024, 2);
        l1.array.insert(l(7), L1Meta::clean(MsiState::Shared));
        assert!(l1.set_tag(l(7), 0));
        assert!(l1.set_tag(l(7), 1));
        assert_eq!(l1.tag_mask(l(7)), 0b11);
        // Hyperthread 0's untagAll must not disturb hyperthread 1's bit.
        assert_eq!(l1.clear_all_tags(0), 1);
        assert!(!l1.is_tagged(l(7), 0));
        assert!(l1.is_tagged(l(7), 1));
        // And the side list still remembers the line for hyperthread 1.
        assert_eq!(l1.clear_all_tags(1), 1);
        assert_eq!(l1.tag_mask(l(7)), 0);
    }

    #[test]
    fn l1_eviction_drops_tag_bit_with_entry() {
        // Direct-mapped, 4 sets.
        let mut l1 = L1::new(256, 1);
        l1.array.insert(l(0), L1Meta::clean(MsiState::Shared));
        l1.set_tag(l(0), 0);
        let ev = l1
            .array
            .insert(l(4), L1Meta::clean(MsiState::Shared))
            .unwrap();
        assert!(ev.payload.any_tagged(), "evicted entry carried the tag bit");
        assert!(!l1.is_tagged(l(0), 0));
        // Stale tag_list entry must not clear the new resident of the set.
        assert_eq!(l1.clear_all_tags(0), 0);
        assert!(!l1.is_tagged(l(4), 0));
    }

    #[test]
    fn dirmeta_holders() {
        let mut d = DirMeta::default();
        d.add_sharer(0);
        d.add_sharer(3);
        assert_eq!(d.holders(), 0b1001);
        d.remove_sharer(0);
        assert_eq!(d.holders(), 0b1000);
        d.sharers = 0;
        d.owner = Some(5);
        assert_eq!(d.holders(), 1 << 5);
    }
}
