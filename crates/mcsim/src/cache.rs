//! Set-associative cache arrays.
//!
//! A generic LRU set-associative structure ([`SetAssoc`]) is instantiated
//! twice: as the private per-core L1 (MSI state plus the Conditional Access
//! tag bit, paper §III) and as the shared inclusive L2 whose per-line payload
//! is the full-map directory entry.
//!
//! # Layout and the probe
//!
//! The ways are three parallel arrays indexed `set * assoc + way`: the line
//! ids (`addr >> 6`, with [`u64::MAX`] — which no address can produce — in
//! an empty way), the LRU stamps (0 in an empty way) and the payloads. A
//! probe reads only the set's ids, 64 contiguous bytes for 8 ways, and
//! visits **every** way: the match is folded into a way index with a select
//! per way, never an early exit. Which way holds a line is as good as random,
//! so an exit branch mispredicts on most probes; a sampling profile of the
//! repository's benchmark put a third of `list_read`'s host time and a
//! quarter of `hash_update`'s in the early-exit scan over
//! `Option<Entry<P>>` ways this layout replaced (`hash_update` 56.1 → 38.7
//! ns per event with it gone). The price is the perfectly predicted case:
//! re-reading one line, which used to exit at the first way, pays the full
//! pass, about 2.5 ns more.
//!
//! # The way-index contract
//!
//! A probe answers with a [`Way`], and everything that follows — the LRU
//! touch, a tag edit, a state change — is addressed by that index instead
//! of probing again. A `Way` names a slot, not a line: it stays valid until
//! the next [`SetAssoc::insert`], [`SetAssoc::remove`] or
//! [`SetAssoc::clear`] on the same cache, because a resident line never
//! moves between ways.

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

/// One resident line of a [`SetAssoc`] cache: owned (`Entry<P>`) when it
/// leaves the cache through [`SetAssoc::insert`] or [`SetAssoc::remove`],
/// a view (`Entry<&P>`) from [`SetAssoc::lookup`] and [`SetAssoc::iter`].
#[derive(Clone, Debug)]
pub struct Entry<P> {
    /// Which memory line occupies the way.
    pub line: Line,
    /// LRU timestamp (larger = more recently used).
    pub lru: u64,
    /// Level-specific metadata.
    pub payload: P,
}

/// A slot of a [`SetAssoc`], as found by a probe (see the module docs for
/// how long it stays valid).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Way(usize);

/// The id stored in an empty way. Line ids are `addr >> 6`, so no address
/// names this line.
const EMPTY: u64 = u64::MAX;

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
    /// Line id per way, [`EMPTY`] when the way holds nothing.
    ids: Vec<u64>,
    /// LRU stamp per way, 0 when empty — below every resident stamp, so the
    /// smallest stamp of a set is its first empty way if it has one.
    lru: Vec<u64>,
    /// Payload per way, `Some` exactly where `ids` is not [`EMPTY`].
    payloads: Vec<Option<P>>,
    stamp: u64,
    /// Probes answered so far (unit tests hold the hub to one per access).
    #[cfg(test)]
    pub(crate) probes: std::cell::Cell<u64>,
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
            ids: vec![EMPTY; sets * assoc],
            lru: vec![0; sets * assoc],
            payloads: (0..sets * assoc).map(|_| None).collect(),
            stamp: 0,
            #[cfg(test)]
            probes: std::cell::Cell::new(0),
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

    /// The full pass over `line`'s set: every id is compared and the match,
    /// if any, selected — a line is resident in at most one way.
    #[inline]
    fn scan(&self, line: Line) -> Option<Way> {
        debug_assert_ne!(line.0, EMPTY, "the empty-way sentinel is not a line");
        let range = self.set_range(line);
        let base = range.start;
        let mut hit = usize::MAX;
        for (i, &id) in self.ids[range].iter().enumerate() {
            hit = if id == line.0 { i } else { hit };
        }
        (hit != usize::MAX).then(|| Way(base + hit))
    }

    /// Where `line` is resident, if it is. Touches nothing.
    #[inline]
    pub fn probe(&self, line: Line) -> Option<Way> {
        #[cfg(test)]
        self.probes.set(self.probes.get() + 1);
        self.scan(line)
    }

    /// Make `way` the most recently used of its set.
    #[inline]
    pub fn touch(&mut self, way: Way) {
        self.stamp += 1;
        self.lru[way.0] = self.stamp;
    }

    /// The line occupying `way`.
    #[inline]
    pub fn line_at(&self, way: Way) -> Option<Line> {
        let id = self.ids[way.0];
        (id != EMPTY).then_some(Line(id))
    }

    /// Payload of an occupied way.
    #[inline]
    pub fn at(&self, way: Way) -> &P {
        self.payloads[way.0].as_ref().expect("way is occupied")
    }

    /// Payload of an occupied way, mutably. Does not touch LRU.
    #[inline]
    pub fn at_mut(&mut self, way: Way) -> &mut P {
        self.payloads[way.0].as_mut().expect("way is occupied")
    }

    fn view(&self, i: usize) -> Option<Entry<&P>> {
        let payload = self.payloads[i].as_ref()?;
        Some(Entry {
            line: Line(self.ids[i]),
            lru: self.lru[i],
            payload,
        })
    }

    /// Find a resident line.
    pub fn lookup(&self, line: Line) -> Option<Entry<&P>> {
        self.probe(line).and_then(|w| self.view(w.0))
    }

    /// Probe for a resident line and bump its LRU stamp. The stamp is left
    /// untouched on a miss (stamps are only compared between resident
    /// entries, so skipping the bump cannot change any eviction decision).
    #[inline]
    pub fn lookup_touch(&mut self, line: Line) -> Option<Way> {
        let way = self.probe(line)?;
        self.touch(way);
        Some(way)
    }

    /// Find a resident line's payload mutably *without* touching LRU
    /// (metadata edits by the directory must not perturb replacement
    /// decisions).
    #[inline]
    pub fn lookup_mut(&mut self, line: Line) -> Option<&mut P> {
        let way = self.probe(line)?;
        Some(self.at_mut(way))
    }

    /// Insert `line` into the first empty way of its set, or over the
    /// set's LRU way if it is full. Returns where the line now lives and
    /// the evicted entry, if any. The line must not already be resident.
    pub fn insert(&mut self, line: Line, payload: P) -> (Way, Option<Entry<P>>) {
        debug_assert!(self.scan(line).is_none(), "double insert of {line:?}");
        self.stamp += 1;
        let range = self.set_range(line);
        // Empty ways carry stamp 0, so the first smallest stamp is the
        // first empty way when there is one and the true-LRU victim when
        // there is none.
        let mut victim = range.start;
        for i in range {
            let older = self.lru[i] < self.lru[victim];
            victim = if older { i } else { victim };
        }
        let evicted = self.payloads[victim].replace(payload).map(|payload| Entry {
            line: Line(self.ids[victim]),
            lru: self.lru[victim],
            payload,
        });
        self.ids[victim] = line.0;
        self.lru[victim] = self.stamp;
        (Way(victim), evicted)
    }

    /// Remove a line (invalidation). Returns the entry if it was resident.
    pub fn remove(&mut self, line: Line) -> Option<Entry<P>> {
        let Way(i) = self.probe(line)?;
        let entry = Entry {
            line,
            lru: self.lru[i],
            payload: self.payloads[i].take().expect("way is occupied"),
        };
        self.ids[i] = EMPTY;
        self.lru[i] = 0;
        Some(entry)
    }

    /// Iterate over all resident entries.
    pub fn iter(&self) -> impl Iterator<Item = Entry<&P>> {
        (0..self.ids.len()).filter_map(|i| self.view(i))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.ids.iter().filter(|&&id| id != EMPTY).count()
    }

    /// True when no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every resident line (power-on reset; used by tests).
    pub fn clear(&mut self) {
        self.ids.fill(EMPTY);
        self.lru.fill(0);
        self.payloads.iter_mut().for_each(|p| *p = None);
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
}

/// A private L1 data cache: set-associative array plus a side list of the
/// ways whose tag bits may be set, so `untagAll` is O(|tagSet|) instead of a
/// full cache scan. A line is listed, with its way, when its first tag bit
/// is set and unlisted when its last one clears; an entry whose way no
/// longer holds its line (evicted or invalidated while tagged) is stale and
/// dropped by the next [`Self::clear_all_tags`].
pub struct L1 {
    pub array: SetAssoc<L1Meta>,
    tag_list: Vec<(Line, Way)>,
}

impl L1 {
    /// Build an L1 of the given geometry.
    pub fn new(size_bytes: usize, assoc: usize) -> Self {
        Self {
            array: SetAssoc::new(size_bytes, assoc),
            tag_list: Vec::with_capacity(16),
        }
    }

    /// Set hyperthread `ht`'s tag bit on the line occupying `way`.
    #[inline]
    pub fn tag_way(&mut self, way: Way, ht: usize) {
        let meta = self.array.at_mut(way);
        let was_listed = meta.tags != 0;
        meta.tags |= 1u8 << ht;
        if !was_listed {
            let line = self.array.line_at(way).expect("way is occupied");
            self.tag_list.push((line, way));
        }
    }

    /// Set hyperthread `ht`'s tag bit on a resident line. Returns false if
    /// the line is not resident (callers must fill first).
    pub fn set_tag(&mut self, line: Line, ht: usize) -> bool {
        match self.array.probe(line) {
            Some(way) => {
                self.tag_way(way, ht);
                true
            }
            None => false,
        }
    }

    /// Clear hyperthread `ht`'s tag bit of one line (`untagOne`). No effect
    /// if absent. The line leaves the side list with its last tag bit: the
    /// live list is a hand-over-hand window of a few lines, so the search
    /// is short, and a traversal would otherwise leave one dead entry per
    /// hop for the next `untagAll` to walk.
    pub fn clear_tag(&mut self, line: Line, ht: usize) {
        let Some(way) = self.array.probe(line) else {
            return;
        };
        let meta = self.array.at_mut(way);
        let was_listed = meta.tags != 0;
        meta.tags &= !(1u8 << ht);
        if was_listed && meta.tags == 0 {
            if let Some(i) = self.tag_list.iter().position(|&e| e == (line, way)) {
                self.tag_list.swap_remove(i);
            }
        }
    }

    /// Clear every tag bit of hyperthread `ht` (`untagAll`). Returns how many
    /// bits were actually cleared. Entries still tagged by a sibling
    /// hyperthread stay on the side list.
    ///
    /// Allocation-free and probe-free: each entry is checked against the
    /// line its way holds now, and surviving entries are compacted in place
    /// (swap-retain over `tag_list`), since `untagAll` runs once per failed
    /// conditional access and once per completed CA operation.
    pub fn clear_all_tags(&mut self, ht: usize) -> usize {
        let bit = 1u8 << ht;
        let mut cleared = 0;
        let mut kept = 0;
        for i in 0..self.tag_list.len() {
            let (line, way) = self.tag_list[i];
            // Stale entries (the line left the way) are dropped from the
            // list; whatever occupies the way now is not theirs to clear.
            if self.array.line_at(way) != Some(line) {
                continue;
            }
            let meta = self.array.at_mut(way);
            if meta.tags & bit != 0 {
                meta.tags &= !bit;
                cleared += 1;
            }
            if meta.tags != 0 {
                self.tag_list[kept] = (line, way);
                kept += 1;
            }
        }
        self.tag_list.truncate(kept);
        cleared
    }

    /// Is the line resident with hyperthread `ht`'s tag bit set?
    pub fn is_tagged(&self, line: Line, ht: usize) -> bool {
        self.tag_mask(line) & (1u8 << ht) != 0
    }

    /// The line's full tag mask (0 when absent).
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
        assert!(c.insert(l(0), 0).1.is_none());
        assert!(
            c.insert(l(12), 12).1.is_none(),
            "12 & 15 = 12: different set"
        );
        let ev = c
            .insert(l(16), 16)
            .1
            .expect("16 & 15 = 0: conflicts with 0");
        assert_eq!(ev.line, l(0));
    }

    #[test]
    fn insert_lookup_remove() {
        let mut c: SetAssoc<u32> = SetAssoc::new(1024, 2); // 16 lines, 8 sets
        assert!(c.insert(l(1), 10).1.is_none());
        assert_eq!(*c.lookup(l(1)).unwrap().payload, 10);
        assert_eq!(c.remove(l(1)).unwrap().payload, 10);
        assert!(c.lookup(l(1)).is_none());
        assert!(c.remove(l(1)).is_none());
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way, 1 set: 128 bytes.
        let mut c: SetAssoc<u32> = SetAssoc::new(128, 2);
        assert!(c.insert(l(0), 0).1.is_none());
        assert!(c.insert(l(1), 1).1.is_none());
        // Touch line 0 so line 1 is LRU.
        c.lookup_touch(l(0));
        let ev = c.insert(l(2), 2).1.expect("set full, must evict");
        assert_eq!(ev.line, l(1));
        assert!(c.lookup(l(0)).is_some());
        assert!(c.lookup(l(2)).is_some());
    }

    #[test]
    fn conflicting_lines_map_to_same_set() {
        // 1-way (direct-mapped), 4 sets: 256 bytes.
        let mut c: SetAssoc<()> = SetAssoc::new(256, 1);
        assert!(c.insert(l(0), ()).1.is_none());
        // line 4 maps to set 0 too (4 % 4 == 0).
        let ev = c.insert(l(4), ()).1.expect("direct-mapped conflict");
        assert_eq!(ev.line, l(0));
    }

    #[test]
    fn lookup_mut_does_not_touch_lru() {
        let mut c: SetAssoc<u32> = SetAssoc::new(128, 2);
        c.insert(l(0), 0);
        c.insert(l(1), 1);
        // Metadata-edit line 0; it must remain LRU and get evicted.
        *c.lookup_mut(l(0)).unwrap() = 99;
        let ev = c.insert(l(2), 2).1.unwrap();
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
            .1
            .unwrap();
        assert_eq!(ev.payload.tags, 0b1, "evicted entry carried the tag bit");
        assert!(!l1.is_tagged(l(0), 0));
        // Stale tag_list entry must not clear the new resident of the set.
        assert_eq!(l1.clear_all_tags(0), 0);
        assert!(!l1.is_tagged(l(4), 0));
    }

    #[test]
    fn hand_over_hand_untag_keeps_the_tag_list_at_the_window() {
        // A CA traversal tags the next node and untags the one two back, so
        // two lines are tagged at any time. The side list must track that
        // window, not the length of the walk.
        let mut l1 = L1::new(128 * 1024, 8); // 2048 lines: the walk fits
        for i in 0..1002 {
            l1.array.insert(l(i), L1Meta::clean(MsiState::Shared));
        }
        l1.set_tag(l(0), 0);
        l1.set_tag(l(1), 0);
        for hop in 0..1000 {
            l1.clear_tag(l(hop), 0);
            assert!(l1.set_tag(l(hop + 2), 0));
            assert!(
                l1.tag_list.len() <= 3,
                "hop {hop}: {} entries",
                l1.tag_list.len()
            );
        }
        assert_eq!(l1.tagged_lines(0), vec![l(1000), l(1001)]);
        assert_eq!(l1.clear_all_tags(0), 2);
        assert!(l1.tag_list.is_empty());
    }

    #[test]
    fn untag_one_keeps_a_line_a_sibling_still_tags() {
        let mut l1 = L1::new(1024, 2);
        l1.array.insert(l(7), L1Meta::clean(MsiState::Shared));
        l1.set_tag(l(7), 0);
        l1.set_tag(l(7), 1);
        assert_eq!(l1.tag_list.len(), 1, "one entry per tagged line");
        l1.clear_tag(l(7), 0);
        assert_eq!(l1.tag_list.len(), 1, "hyperthread 1 still tags it");
        assert_eq!(l1.clear_all_tags(1), 1);
        assert!(l1.tag_list.is_empty());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "sentinel")]
    fn inserting_the_sentinel_line_is_rejected() {
        let mut c: SetAssoc<()> = SetAssoc::new(1024, 2);
        c.insert(l(u64::MAX), ());
    }

    #[test]
    fn dirmeta_holders() {
        let mut d = DirMeta::default();
        d.add_sharer(0);
        d.add_sharer(3);
        assert_eq!(d.holders(), 0b1001);
        d.sharers = 0;
        d.owner = Some(5);
        assert_eq!(d.holders(), 1 << 5);
    }
}
