//! Conservative min-clock scheduler.
//!
//! Simulated threads run on real OS threads, but every memory event is
//! serialized by a single *turn*: exactly one core may execute events at a
//! time. The turn owner keeps executing while its local clock is within
//! `quantum` cycles of the minimum clock of the other active cores, then
//! hands the turn to the min-clock core (ties broken by core id).
//!
//! * `quantum == 0` gives exact min-clock interleaving (finest grain).
//! * Larger quanta amortize handoffs at the price of bounded clock skew —
//!   the same trade Graphite's "lax synchronization" makes.
//!
//! Because every clock mutation happens while holding the turn, and the
//! handoff decision is a pure function of the clocks, the interleaving is a
//! deterministic function of (program, seeds, quantum). The determinism
//! integration test relies on this.
//!
//! ## Winner tree
//!
//! The handoff decision needs the minimum clock over the *other* active
//! cores. The scheduler keeps it in a winner (tournament) tree: each core
//! has a leaf holding its packed `(clock, id)` key (`EMPTY` when the
//! core is inactive, and for the padding leaves up to the next power of
//! two), and each inner node holds the smaller of its two children. Ties
//! break toward the lowest core id for free: the id sits in the key's low
//! bits, so equal clocks compare by id.
//!
//! **Only the turn owner's leaf is ever stale.** Only the owner's clock
//! advances, and it advances without touching the tree, so every other
//! leaf — and every subtree not containing the owner's leaf — is exact.
//! The minimum over the others is the minimum of the sibling subtrees
//! along the owner's leaf-to-root path, which are exactly those subtrees;
//! it is computed once when the turn arrives and cached, so the keep-turn
//! test — the hot path — is one comparison and touches no tree node. When
//! the turn moves, one climb of log2 cores branch-free `min`s refreshes
//! the old owner's path bottom-up (which restores the invariant for the
//! new owner) and, in lockstep, reads the new owner's siblings. Starting a
//! run rebuilds the tree, and retiring empties the owner's leaf; both then
//! walk the siblings of whichever core the root names next.
//!
//! The trade is width against wall time: a turn move costs log2 cores
//! steps, where the two smallest keys this tree replaced were refreshed by
//! rescanning all cores with data-dependent branches. At 8 cores and
//! quantum 0 (the benchmark's `stack_handoff`) the move fell from 22–25 %
//! of the host samples to 7–10 %; a wider machine still pays one more step
//! per doubling, and a quantum that batches events (most figures) hides the
//! move whatever its cost.

#![forbid(unsafe_code)]

use crate::addr::CoreId;

/// Sentinel for "no core holds the turn" (all retired).
pub const NO_TURN: usize = usize::MAX;

/// Low bits of a packed key that hold the core id.
const ID_BITS: u32 = 10;
/// Mask of the id field; also the one id no core may have, so no real key
/// equals [`EMPTY`].
const ID_MASK: u64 = (1 << ID_BITS) - 1;
/// First clock a key cannot hold: 2^54 cycles, about 208 days at 1 GHz.
const CLOCK_LIMIT: u64 = 1 << (64 - ID_BITS);
/// The key of an inactive or padding leaf, above every real key.
const EMPTY: u64 = u64::MAX;

/// Core `core` at `clock` as one comparable key: clock first, then id.
#[inline]
fn pack(clock: u64, core: CoreId) -> u64 {
    assert!(
        clock < CLOCK_LIMIT,
        "core {core}'s clock {clock} reached 2^54 cycles (about 208 days at \
         1 GHz), the limit of the scheduler's packed (clock, core) keys"
    );
    (clock << ID_BITS) | core as u64
}

/// Scheduler state (owned by the machine, mutated under its lock).
#[derive(Debug)]
pub struct Sched {
    /// Per-core local clocks, in cycles. Persist across runs until
    /// explicitly reset. Only the turn owner's clock may advance mid-run
    /// (the winner tree depends on this).
    pub clocks: Vec<u64>,
    /// Which cores are currently executing a workload closure.
    pub active: Vec<bool>,
    /// Current turn owner, or [`NO_TURN`].
    pub turn: usize,
    /// Lookahead quantum in cycles.
    quantum: u64,
    /// The winner tree, heap-ordered: `tree[1]` is the root, node `n` has
    /// children `2n` and `2n + 1`, and core `c`'s leaf is
    /// `tree[leaves + c]`. `tree[0]` is unused.
    tree: Vec<u64>,
    /// Leaf count: `cores` rounded up to a power of two.
    leaves: usize,
    /// The turn owner's handoff target: the minimum-clock active core
    /// other than `turn`, as of the turn's arrival.
    next: CoreId,
    /// The clock past which the owner hands the turn to `next`: `next`'s
    /// clock plus the quantum (`u64::MAX` when no other core is active).
    limit: u64,
    /// Tree refreshes — one per turn move, run start or retirement
    /// (introspection: unit tests assert the keep-turn path does none).
    pub refreshes: u64,
}

impl Sched {
    pub fn new(cores: usize, quantum: u64) -> Self {
        assert!(
            cores as u64 <= ID_MASK,
            "{cores} cores: the scheduler's {ID_BITS}-bit key id field holds at most {ID_MASK}"
        );
        let leaves = cores.next_power_of_two();
        Self {
            clocks: vec![0; cores],
            active: vec![false; cores],
            turn: NO_TURN,
            quantum,
            tree: vec![EMPTY; 2 * leaves],
            leaves,
            next: NO_TURN,
            limit: u64::MAX,
            refreshes: 0,
        }
    }

    /// Number of active cores.
    pub fn n_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Set `core`'s leaf to `key` and recompute its path to the root, the
    /// running minimum held in a register. The same climb walks `watch`'s
    /// leaf-to-root path in lockstep (all leaves sit at one depth) and
    /// returns the minimum over every leaf but `watch`'s: where the two
    /// paths meet, `watch`'s sibling is the node this climb wrote one step
    /// earlier, so it reads fresh.
    #[inline]
    fn refresh_leaf(&mut self, core: CoreId, key: u64, watch: CoreId) -> u64 {
        self.refreshes += 1;
        let (mut pos, mut at) = (self.leaves + core, self.leaves + watch);
        let (mut min, mut other) = (key, EMPTY);
        self.tree[pos] = key;
        while pos > 1 {
            min = min.min(self.tree[pos ^ 1]);
            other = other.min(self.tree[at ^ 1]);
            pos >>= 1;
            at >>= 1;
            self.tree[pos] = min;
        }
        other
    }

    /// The minimum over every leaf but `core`'s: the sibling subtrees
    /// along its path. Exact whenever `core` owns the turn, or is about to
    /// (see the module docs).
    fn min_except(&self, core: CoreId) -> u64 {
        let mut pos = self.leaves + core;
        let mut min = EMPTY;
        while pos > 1 {
            min = min.min(self.tree[pos ^ 1]);
            pos >>= 1;
        }
        min
    }

    /// Give the turn to `owner` and cache its handoff target and limit from
    /// `other`, the minimum over the other active cores.
    fn turn_to(&mut self, owner: CoreId, other: u64) {
        self.turn = owner;
        self.next = (other & ID_MASK) as CoreId;
        self.limit = if other == EMPTY {
            u64::MAX
        } else {
            (other >> ID_BITS).saturating_add(self.quantum)
        };
    }

    /// Give the turn to the root's core — the minimum over the active
    /// cores — or to [`NO_TURN`] when none is active.
    fn turn_to_root(&mut self) -> usize {
        let root = self.tree[1];
        if root == EMPTY {
            self.turn = NO_TURN;
        } else {
            let owner = (root & ID_MASK) as CoreId;
            self.turn_to(owner, self.min_except(owner));
        }
        self.turn
    }

    /// Activate cores `0..n` for a run. Panics if a previous run left cores
    /// active. Returns the initial turn owner.
    pub fn start_run(&mut self, n: usize) -> CoreId {
        assert_eq!(self.n_active(), 0, "previous run still active");
        assert!(n >= 1 && n <= self.active.len());
        self.refreshes += 1;
        for (c, a) in self.active.iter_mut().enumerate() {
            *a = c < n;
            self.tree[self.leaves + c] = if *a { pack(self.clocks[c], c) } else { EMPTY };
        }
        for i in (1..self.leaves).rev() {
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
        self.turn_to_root()
    }

    /// After `me` (the turn owner) finishes an event, decide whether to keep
    /// the turn. Returns the core to wake if the turn moves. The keep-turn
    /// case is one comparison against the limit cached when the turn
    /// arrived.
    ///
    /// **Invariant (callers):** `me` must be the current turn owner. The
    /// keep-turn fast path deliberately carries no release-mode assert — it
    /// runs once per simulated memory event and mutates nothing but the
    /// decision — but the turn-move branch below *does* assert, because a
    /// wrong owner there would rewrite `turn` and refresh a foreign core's
    /// leaf, silently corrupting the tree into a wrong-but-plausible
    /// interleaving.
    #[inline]
    pub fn after_event(&mut self, me: CoreId) -> Option<CoreId> {
        debug_assert_eq!(self.turn, me);
        // Keep running while within the lookahead window; the window is
        // measured from the minimum of the *other* cores.
        if self.clocks[me] > self.limit {
            return Some(self.move_turn(me));
        }
        None
    }

    /// The turn-move half of [`Self::after_event`] (out of line: the
    /// quantum amortizes it, and it climbs the tree).
    #[inline(never)]
    fn move_turn(&mut self, me: CoreId) -> CoreId {
        // A real assert here costs nothing measurable and turns
        // release-mode misuse into a loud panic instead of schedule
        // corruption.
        assert_eq!(
            self.turn, me,
            "after_event by core {me} without the turn (owner: {})",
            self.turn
        );
        // `me`'s clock is now final until the turn returns to it: its leaf
        // is the only stale one, so refresh it, walking the new owner's
        // siblings on the way up.
        let next = self.next;
        let other = self.refresh_leaf(me, pack(self.clocks[me], me), next);
        self.turn_to(next, other);
        next
    }

    /// Retire `me` (must hold the turn). Returns the next turn owner, if any
    /// core is still active. Cold path: turn ownership is checked with real
    /// asserts (a release-mode misuse would deactivate the wrong core and
    /// corrupt the bookkeeping silently).
    pub fn retire(&mut self, me: CoreId) -> Option<CoreId> {
        assert_eq!(
            self.turn, me,
            "retire by core {me} without the turn (owner: {})",
            self.turn
        );
        assert!(self.active[me], "retire of inactive core {me}");
        self.active[me] = false;
        self.refresh_leaf(me, EMPTY, me);
        let next = self.turn_to_root();
        (next != NO_TURN).then_some(next)
    }

    /// Zero all clocks (between the prefill run and the measured run).
    pub fn reset_clocks(&mut self) {
        assert_eq!(self.n_active(), 0, "cannot reset clocks mid-run");
        self.clocks.fill(0);
    }

    /// The machine's finish time: max clock over all cores.
    pub fn max_clock(&self) -> u64 {
        self.clocks.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn start_picks_lowest_id_on_ties() {
        let mut s = Sched::new(4, 0);
        assert_eq!(s.start_run(3), 0);
        assert_eq!(s.n_active(), 3);
        assert!(!s.active[3]);
    }

    #[test]
    fn zero_quantum_alternates_by_clock() {
        let mut s = Sched::new(2, 0);
        s.start_run(2);
        // Core 0 executes an event costing 5.
        s.clocks[0] += 5;
        assert_eq!(s.after_event(0), Some(1), "core 1 at 0 is now min");
        s.clocks[1] += 3;
        assert_eq!(
            s.after_event(1),
            None,
            "3 <= 5: core 1 is still min, keeps turn"
        );
        s.clocks[1] += 4;
        assert_eq!(s.after_event(1), Some(0), "7 > 5: hand back to core 0");
    }

    #[test]
    fn turn_kept_while_within_quantum() {
        let mut s = Sched::new(2, 100);
        s.start_run(2);
        s.clocks[0] += 50;
        assert_eq!(s.after_event(0), None, "50 <= 0+100: keep turn");
        s.clocks[0] += 60;
        assert_eq!(s.after_event(0), Some(1), "110 > 100: hand off");
    }

    #[test]
    fn tie_break_prefers_lower_id() {
        let mut s = Sched::new(3, 0);
        s.start_run(3);
        s.clocks[0] = 10;
        // Cores 1 and 2 both at 0; the turn must go to 1.
        assert_eq!(s.after_event(0), Some(1));
    }

    #[test]
    fn retire_hands_off_and_ends() {
        let mut s = Sched::new(2, 0);
        s.start_run(2);
        assert_eq!(s.retire(0), Some(1));
        assert_eq!(s.turn, 1);
        assert_eq!(s.retire(1), None);
        assert_eq!(s.turn, NO_TURN);
        assert_eq!(s.n_active(), 0);
    }

    #[test]
    fn single_core_never_hands_off() {
        let mut s = Sched::new(1, 0);
        s.start_run(1);
        s.clocks[0] += 1_000_000;
        assert_eq!(s.after_event(0), None);
        assert_eq!(s.retire(0), None);
    }

    #[test]
    fn clocks_persist_until_reset() {
        let mut s = Sched::new(2, 0);
        s.start_run(1);
        s.clocks[0] = 42;
        s.retire(0);
        assert_eq!(s.clocks[0], 42);
        s.reset_clocks();
        assert_eq!(s.clocks[0], 0);
        assert_eq!(s.max_clock(), 0);
    }

    #[test]
    fn max_clock() {
        let mut s = Sched::new(3, 0);
        s.clocks = vec![5, 9, 2];
        assert_eq!(s.max_clock(), 9);
    }

    #[test]
    #[should_panic(expected = "previous run still active")]
    fn double_start_panics() {
        let mut s = Sched::new(2, 0);
        s.start_run(2);
        s.start_run(2);
    }

    // --- promoted release-mode asserts (turn-ownership misuse) ----------

    #[test]
    #[should_panic(expected = "without the turn")]
    fn retire_without_turn_panics() {
        // Regression: this used to be a debug_assert!, so release builds
        // silently deactivated the wrong core and produced wrong (but
        // plausible) interleavings. Now a real assert on the cold path.
        let mut s = Sched::new(2, 0);
        s.start_run(2); // turn = 0
        s.retire(1);
    }

    #[test]
    #[should_panic(expected = "retire of inactive core")]
    fn retire_of_inactive_core_panics() {
        let mut s = Sched::new(2, 0);
        s.start_run(1); // only core 0 active, turn = 0
        s.active[0] = false; // simulate corrupted bookkeeping
        s.retire(0);
    }

    // --- packed keys ----------------------------------------------------

    #[test]
    #[should_panic(expected = "reached 2^54 cycles")]
    fn pack_rejects_clocks_past_the_key_limit() {
        let mut s = Sched::new(2, 0);
        s.clocks[1] = CLOCK_LIMIT;
        s.start_run(2);
    }

    #[test]
    fn keys_order_ties_at_the_clock_limit() {
        // The largest clock a key holds, on the highest id a machine can
        // have, still sorts below an empty leaf and ties toward lower ids.
        let top = ID_MASK as usize - 1;
        let mut s = Sched::new(top + 1, 0);
        s.clocks.fill(CLOCK_LIMIT - 1);
        assert_eq!(s.start_run(top + 1), 0);
        for c in 0..top {
            assert_eq!(s.retire(c), Some(c + 1));
        }
        assert!(pack(CLOCK_LIMIT - 1, top) < EMPTY);
        assert_eq!(s.retire(top), None);
    }

    #[test]
    #[should_panic(expected = "id field holds at most 1023")]
    fn new_rejects_more_cores_than_the_id_field_holds() {
        Sched::new(1 << ID_BITS, 0);
    }

    // --- winner tree ----------------------------------------------------

    #[test]
    fn keep_turn_case_never_rescans() {
        let mut s = Sched::new(8, 1_000);
        s.start_run(8);
        let refreshes = s.refreshes;
        for _ in 0..1_000 {
            s.clocks[0] += 1;
            assert_eq!(s.after_event(0), None, "within quantum: keep turn");
        }
        assert_eq!(
            s.refreshes, refreshes,
            "keep-turn decisions must not touch the tree"
        );
    }

    #[test]
    fn rescans_only_on_structural_events() {
        let mut s = Sched::new(4, 0);
        s.start_run(4); // refresh #1
        assert_eq!(s.refreshes, 1);
        s.clocks[0] += 10;
        assert_eq!(s.after_event(0), Some(1)); // move → refresh #2
        assert_eq!(s.refreshes, 2);
        assert_eq!(s.retire(1), Some(2)); // retire → refresh #3
        assert_eq!(s.refreshes, 3);
    }

    /// Reference implementation: the seed's O(cores) full-scan scheduler.
    /// The winner tree must make byte-identical decisions.
    struct RefSched {
        clocks: Vec<u64>,
        active: Vec<bool>,
        turn: usize,
        quantum: u64,
    }

    impl RefSched {
        fn min_other(&self, me: usize) -> Option<(usize, u64)> {
            let mut best: Option<(usize, u64)> = None;
            for (i, (&a, &clk)) in self.active.iter().zip(&self.clocks).enumerate() {
                if a && i != me && best.is_none_or(|(_, b)| clk < b) {
                    best = Some((i, clk));
                }
            }
            best
        }

        fn start_run(&mut self, n: usize) -> usize {
            for (c, a) in self.active.iter_mut().enumerate() {
                *a = c < n;
            }
            self.turn = self.min_other(NO_TURN).expect("n >= 1").0;
            self.turn
        }

        fn after_event(&mut self, me: usize) -> Option<usize> {
            if let Some((next, min)) = self.min_other(me) {
                if self.clocks[me] > min.saturating_add(self.quantum) {
                    self.turn = next;
                    return Some(next);
                }
            }
            None
        }

        fn retire(&mut self, me: usize) -> Option<usize> {
            self.active[me] = false;
            match self.min_other(NO_TURN) {
                Some((next, _)) => {
                    self.turn = next;
                    Some(next)
                }
                None => {
                    self.turn = NO_TURN;
                    None
                }
            }
        }
    }

    #[test]
    fn two_min_matches_full_scan_reference() {
        for cores in [1usize, 2, 3, 5, 8, 9, 16, 33, 64] {
            for quantum in [0u64, 1, 3, 17, 1_000] {
                let mut s = Sched::new(cores, quantum);
                let mut r = RefSched {
                    clocks: vec![0; cores],
                    active: vec![false; cores],
                    turn: NO_TURN,
                    quantum,
                };
                // Deterministic pseudo-random choices.
                let mut lcg: u64 = 0x1234_5678 ^ quantum ^ ((cores as u64) << 40);
                let mut step = || {
                    lcg = lcg
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    lcg >> 33
                };
                let at = format!("cores {cores}, quantum {quantum}");
                for run in 0..4 {
                    // Every other run starts from the clocks the last one
                    // left; the others reset them. Runs 1 and 3 leave the
                    // top cores idle (partial activation).
                    if run % 2 == 0 {
                        s.reset_clocks();
                        r.clocks.fill(0);
                    }
                    let n = if run % 2 == 1 {
                        1 + step() as usize % cores
                    } else {
                        cores
                    };
                    assert_eq!(s.start_run(n), r.start_run(n), "start {run} ({at})");
                    let mut events = 0u32;
                    while s.turn != NO_TURN {
                        let me = s.turn;
                        assert_eq!(me, r.turn, "turn diverged in run {run} ({at})");
                        events += 1;
                        assert!(events < 100_000, "runaway ({at})");
                        if step() % 37 == 0 {
                            assert_eq!(s.retire(me), r.retire(me), "retire in run {run} ({at})");
                            continue;
                        }
                        // Tie-heavy: mostly 0, 1 or 2 cycles, sometimes a
                        // jump past small quanta.
                        let cost = if step() % 8 == 0 {
                            step() % 40
                        } else {
                            step() % 3
                        };
                        s.clocks[me] += cost;
                        r.clocks[me] += cost;
                        assert_eq!(
                            s.after_event(me),
                            r.after_event(me),
                            "handoff decision diverged at event {events} of run {run} ({at})"
                        );
                    }
                    assert_eq!(r.turn, NO_TURN);
                    assert_eq!(s.clocks, r.clocks);
                }
            }
        }
    }
}
