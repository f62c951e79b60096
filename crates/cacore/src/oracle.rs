//! Executable reference model of the Conditional Access abstract semantics
//! (paper §II-B): per-core **unbounded** tag sets over *addresses*, plus the
//! access-revoked bit, with none of the hardware's capacity limits.
//!
//! The oracle is the specification; `mcsim`'s L1 implementation is the
//! hardware approximation (per-line tag bits, bounded by cache geometry).
//! The soundness property verified by `tests/oracle_equivalence.rs` is:
//!
//! > For any interleaved instruction stream, whenever the **oracle** fails a
//! > `cread`/`cwrite`, the **implementation** fails it too.
//!
//! The converse does not hold — the implementation may fail *spuriously*
//! (associativity evictions, L2 back-invalidations, line-granular false
//! sharing), which the paper accepts (§III) because failure only ever causes
//! a retry, never an unsafe access.
//!
//! One deliberate deviation from the paper's letter: the paper's `cread`
//! adds the address to the tag set even when the ARB is already set (the
//! load is skipped). This oracle does not tag on a failed cread, matching
//! the hardware implementation, which fails fast without filling the line.
//! The difference is unobservable for well-formed programs: after any failed
//! conditional access the program must `untagAll` before the tag set is
//! consulted again (directive DI).

#[expect(
    clippy::disallowed_types,
    reason = "the per-core tag sets are membership-only"
)]
use std::collections::HashSet;

use mcsim::{Addr, CoreId};

/// The abstract Conditional Access machine state.
#[derive(Clone, Debug)]
pub struct TagOracle {
    #[expect(clippy::disallowed_types, reason = "membership-only")]
    tags: Vec<HashSet<u64>>,
    arb: Vec<bool>,
}

impl TagOracle {
    /// A fresh oracle for `cores` cores.
    #[expect(clippy::disallowed_types, reason = "membership-only")]
    pub fn new(cores: usize) -> Self {
        Self {
            tags: vec![HashSet::new(); cores],
            arb: vec![false; cores],
        }
    }

    /// Abstract `cread` by core `c` at address `a`. Returns whether it
    /// succeeds (the caller supplies the loaded value; the oracle only
    /// models control state).
    pub fn cread(&mut self, c: CoreId, a: Addr) -> bool {
        if self.arb[c] {
            return false;
        }
        self.tags[c].insert(a.0);
        true
    }

    /// Abstract `cwrite` by core `c` at address `a`. On success the store
    /// invalidates every other core's tag on `a`.
    pub fn cwrite(&mut self, c: CoreId, a: Addr) -> bool {
        if self.arb[c] || !self.tags[c].contains(&a.0) {
            return false;
        }
        self.on_store(c, a);
        true
    }

    /// A plain store (or CAS, or successful cwrite) by core `c` to `a`:
    /// revokes every *other* core that has `a` tagged.
    pub fn on_store(&mut self, c: CoreId, a: Addr) {
        for d in 0..self.tags.len() {
            if d != c && self.tags[d].contains(&a.0) {
                self.arb[d] = true;
            }
        }
    }

    /// `untagOne`. **Line-granular**, exactly like the hardware (§III: the
    /// instruction clears the tag bit of the cache line containing `a`), so
    /// every tagged address on `a`'s line is dropped. Programs tag whole
    /// nodes and nodes are line-aligned (§IV), so "untag this address" and
    /// "untag this node's line" coincide in practice; the oracle follows the
    /// hardware so the two models agree on streams that untag one word of a
    /// line that was tagged through another word.
    pub fn untag_one(&mut self, c: CoreId, a: Addr) {
        let line = a.line();
        self.tags[c].retain(|&t| Addr(t).line() != line);
    }

    /// `untagAll`: clears the tag set and the ARB.
    pub fn untag_all(&mut self, c: CoreId) {
        self.tags[c].clear();
        self.arb[c] = false;
    }

    /// Current ARB of core `c`.
    pub fn arb(&self, c: CoreId) -> bool {
        self.arb[c]
    }

    /// Is `a` in core `c`'s abstract tag set?
    pub fn is_tagged(&self, c: CoreId, a: Addr) -> bool {
        self.tags[c].contains(&a.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Addr = Addr(64);
    const B: Addr = Addr(128);

    #[test]
    fn cread_tags_and_store_revokes() {
        let mut o = TagOracle::new(2);
        assert!(o.cread(0, A));
        assert!(o.is_tagged(0, A));
        o.on_store(1, A);
        assert!(o.arb(0));
        assert!(!o.cread(0, B), "any cread fails once revoked");
    }

    #[test]
    fn own_store_does_not_self_revoke() {
        let mut o = TagOracle::new(2);
        o.cread(0, A);
        o.on_store(0, A);
        assert!(!o.arb(0));
    }

    #[test]
    fn cwrite_needs_tag() {
        let mut o = TagOracle::new(1);
        assert!(!o.cwrite(0, A), "cwrite before cread must fail");
        o.cread(0, A);
        assert!(o.cwrite(0, A));
    }

    #[test]
    fn cwrite_revokes_other_taggers() {
        let mut o = TagOracle::new(3);
        o.cread(0, A);
        o.cread(1, A);
        o.cread(2, B);
        assert!(o.cwrite(0, A));
        assert!(o.arb(1));
        assert!(!o.arb(2), "unrelated address untouched");
    }

    #[test]
    fn untag_one_stops_tracking() {
        let mut o = TagOracle::new(2);
        o.cread(0, A);
        o.cread(0, B);
        o.untag_one(0, A);
        o.on_store(1, A);
        assert!(!o.arb(0));
        o.on_store(1, B);
        assert!(o.arb(0));
    }

    #[test]
    fn untag_all_clears_arb() {
        let mut o = TagOracle::new(2);
        o.cread(0, A);
        o.on_store(1, A);
        assert!(o.arb(0));
        o.untag_all(0);
        assert!(!o.arb(0));
        assert!(!o.is_tagged(0, A), "untagAll empties the tag set");
        assert!(o.cread(0, A));
    }

    #[test]
    fn address_granularity_for_stores() {
        // The oracle tags addresses, not lines: two words of the same cache
        // line are independent for *revocation* in the abstract model.
        let mut o = TagOracle::new(2);
        o.cread(0, A);
        o.on_store(1, A.word(1)); // same line, different word
        assert!(!o.arb(0), "abstract model has no false sharing");
    }

    #[test]
    fn untag_one_is_line_granular() {
        // But untagOne matches the hardware: it clears the whole line.
        let mut o = TagOracle::new(2);
        o.cread(0, A);
        o.cread(0, A.word(3));
        o.untag_one(0, A.word(1)); // any word of the line
        assert!(!o.is_tagged(0, A));
        assert!(!o.is_tagged(0, A.word(3)));
        o.on_store(1, A);
        assert!(!o.arb(0));
    }
}
