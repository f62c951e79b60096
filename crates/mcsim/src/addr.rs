//! Simulated physical addresses.
//!
//! The simulated machine is word-granular: every load/store moves one 64-bit
//! word at a word-aligned byte address. Cache lines are 64 bytes (8 words),
//! matching the configuration the paper uses for Graphite.

#![forbid(unsafe_code)]

/// Bytes per cache line (fixed at 64, as in the paper's Graphite setup).
pub const LINE_BYTES: u64 = 64;
/// Words per cache line.
pub const WORDS_PER_LINE: u64 = LINE_BYTES / 8;

/// A simulated physical byte address.
///
/// `Addr(0)` doubles as the null pointer: the simulated allocator never hands
/// out line 0, and the coherence engine rejects accesses to it.
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// The null simulated pointer.
    pub const NULL: Addr = Addr(0);

    /// True for the null pointer.
    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    /// Index of the 64-bit word backing this address in functional memory.
    ///
    /// Panics if the address is not word aligned; the simulator only issues
    /// aligned word accesses.
    #[inline]
    pub fn word_index(self) -> usize {
        debug_assert!(
            self.0.is_multiple_of(8),
            "unaligned word access at {self:?}"
        );
        (self.0 / 8) as usize
    }

    /// The cache line containing this address.
    #[inline]
    pub fn line(self) -> Line {
        Line(self.0 / LINE_BYTES)
    }

    /// Address `words` 64-bit words past `self` (field access within a node).
    #[inline]
    pub fn word(self, words: u64) -> Addr {
        Addr(self.0 + 8 * words)
    }

    /// True if the address is aligned to the start of a cache line.
    #[inline]
    pub fn is_line_aligned(self) -> bool {
        self.0.is_multiple_of(LINE_BYTES)
    }
}

impl std::fmt::Debug for Addr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

/// A cache-line number (byte address divided by [`LINE_BYTES`]).
#[derive(Copy, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Line(pub u64);

impl Line {
    /// Byte address of the first word of the line.
    #[inline]
    pub fn base(self) -> Addr {
        Addr(self.0 * LINE_BYTES)
    }
}

impl std::fmt::Debug for Line {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Line({:#x})", self.0)
    }
}

/// Identifier of a simulated core (one hardware thread per core; the paper's
/// SMT discussion is modeled by treating each hardware thread as a core).
pub type CoreId = usize;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_index_and_line() {
        let a = Addr(128);
        assert_eq!(a.word_index(), 16);
        assert_eq!(a.line(), Line(2));
        assert_eq!(a.line().base(), Addr(128));
        assert!(a.is_line_aligned());
        assert!(!Addr(136).is_line_aligned());
        assert_eq!(Addr(136).line(), Line(2));
    }

    #[test]
    fn field_offsets_stay_in_line() {
        let base = Addr(640);
        for w in 0..WORDS_PER_LINE {
            assert_eq!(base.word(w).line(), base.line());
        }
        assert_ne!(base.word(WORDS_PER_LINE).line(), base.line());
    }

    #[test]
    fn null_is_null() {
        assert!(Addr::NULL.is_null());
        assert!(!Addr(64).is_null());
        assert_eq!(Addr::default(), Addr::NULL);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    #[cfg(debug_assertions)]
    fn unaligned_word_index_panics() {
        let _ = Addr(3).word_index();
    }
}
