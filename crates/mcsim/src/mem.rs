//! Functional memory: the authoritative word store.
//!
//! The cache hierarchy in this simulator is a *timing and coherence-state*
//! model; data always reads and writes through to this flat array at event
//! time. Because every memory event executes atomically under the machine
//! lock, MSI invalidations are synchronous and a read can never observe a
//! stale value — so carrying data in the cache models would be redundant.
//! (This is the standard "functional backing store + timing model" simulator
//! construction; Graphite does the same split.)

#![forbid(unsafe_code)]

use crate::addr::Addr;

/// Flat word-addressable simulated memory.
pub struct Memory {
    words: Vec<u64>,
}

impl Memory {
    /// Allocate a memory of `bytes` bytes (rounded up to a whole word).
    pub fn new(bytes: u64) -> Self {
        let words = bytes.div_ceil(8) as usize;
        Self {
            words: vec![0; words],
        }
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.words.len() as u64 * 8
    }

    /// Read the word at `a`.
    #[inline(always)]
    pub fn read(&self, a: Addr) -> u64 {
        match self.words.get(a.word_index()) {
            Some(&w) => w,
            None => self.out_of_bounds("read", a),
        }
    }

    /// Write the word at `a`.
    #[inline(always)]
    pub fn write(&mut self, a: Addr, v: u64) {
        match self.words.get_mut(a.word_index()) {
            Some(w) => *w = v,
            None => self.out_of_bounds("write", a),
        }
    }

    /// The panic of an access past the end, out of line so the inlined
    /// accesses carry only the bounds test.
    #[cold]
    #[inline(never)]
    fn out_of_bounds(&self, kind: &str, a: Addr) -> ! {
        panic!(
            "simulated {kind} out of bounds: {a:?} (memory is {} bytes)",
            self.size_bytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write_roundtrip() {
        let mut m = Memory::new(1024);
        m.write(Addr(0), 7);
        m.write(Addr(8), 11);
        m.write(Addr(1016), u64::MAX);
        assert_eq!(m.read(Addr(0)), 7);
        assert_eq!(m.read(Addr(8)), 11);
        assert_eq!(m.read(Addr(1016)), u64::MAX);
    }

    #[test]
    fn fresh_memory_is_zeroed() {
        let m = Memory::new(256);
        for w in 0..32 {
            assert_eq!(m.read(Addr(w * 8)), 0);
        }
    }

    #[test]
    fn size_rounds_up_to_words() {
        assert_eq!(Memory::new(1).size_bytes(), 8);
        assert_eq!(Memory::new(9).size_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_read_panics() {
        let m = Memory::new(64);
        let _ = m.read(Addr(64));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_write_panics() {
        let mut m = Memory::new(64);
        m.write(Addr(128), 1);
    }
}
