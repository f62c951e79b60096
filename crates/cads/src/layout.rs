//! Node memory layouts.
//!
//! Every node occupies exactly one 64-byte cache line (the paper's §IV
//! assumption: one node per line, line-aligned), giving eight 64-bit words.
//! Word 7 is reserved for SMR metadata ([`casmr::NODE_BIRTH_WORD`]).
//!
//! Key encoding: real keys are `1..=key_range`. `0` and `u64::MAX` family
//! values are sentinels (list head/tail, BST infinities).

/// Key word (all node kinds).
pub const W_KEY: u64 = 0;
/// List/stack/queue successor pointer.
pub const W_NEXT: u64 = 1;
/// Lazy-list logical-deletion mark (0 = live, 1 = marked).
pub const W_MARK: u64 = 2;
/// Lazy-list per-node lock word (0 = free, 1 = held).
pub const W_LOCK: u64 = 3;

/// External-BST left child pointer (0 in leaves).
pub const W_LEFT: u64 = 1;
/// External-BST right child pointer (0 in leaves).
pub const W_RIGHT: u64 = 2;
/// External-BST lock word.
pub const W_BST_LOCK: u64 = 3;
/// External-BST mark word.
pub const W_BST_MARK: u64 = 4;

/// List tail-sentinel key (greater than any real key).
pub const KEY_TAIL: u64 = u64::MAX;
/// List head-sentinel key (smaller than any real key).
pub const KEY_HEAD: u64 = 0;

/// BST outer infinity (root key; compares above everything).
pub const KEY_INF2: u64 = u64::MAX;
/// BST inner infinity (initial-leaf key; above any real key, below INF2).
pub const KEY_INF1: u64 = u64::MAX - 1;

/// Largest key a caller may insert into any structure here.
pub const MAX_REAL_KEY: u64 = u64::MAX - 2;

/// Instruction-baseline cycles charged per traversal hop (compare, branch,
/// address arithmetic). Without this, the simulator would price a node
/// visit purely by its memory accesses, wildly exaggerating the *relative*
/// cost of schemes that add one access per visit; real cores execute a
/// dozen-odd non-memory instructions per hop that dilute those overheads
/// (this is the paper's "instruction count" effect, §V, in reverse).
/// Charged identically by every variant, so comparisons stay fair.
pub const TICK_PER_HOP: u64 = 4;

/// Instruction-baseline cycles charged once per data-structure operation
/// (call overhead, RNG, setup).
pub const TICK_PER_OP: u64 = 12;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)] // documents the key-space layout
    fn sentinel_ordering() {
        assert!(KEY_HEAD < 1);
        assert!(MAX_REAL_KEY < KEY_INF1);
        assert!(KEY_INF1 < KEY_INF2);
        assert_eq!(KEY_TAIL, KEY_INF2);
    }

    #[test]
    fn field_words_fit_one_line_with_birth_word() {
        for w in [
            W_KEY, W_NEXT, W_MARK, W_LOCK, W_LEFT, W_RIGHT, W_BST_LOCK, W_BST_MARK,
        ] {
            assert!(
                w < casmr::NODE_BIRTH_WORD,
                "field {w} collides with birth era"
            );
        }
    }
}
