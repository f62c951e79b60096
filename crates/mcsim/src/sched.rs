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
//! ## Two-min bookkeeping
//!
//! The handoff decision needs the minimum clock over the *other* active
//! cores. Rescanning all cores per event made every simulated memory access
//! O(cores); instead the scheduler tracks the two smallest active
//! `(clock, id)` keys, refreshed by a full scan only when the turn moves,
//! a run starts, or a core retires. The refresh points are sufficient
//! because **only the turn owner's clock ever advances**: between refreshes
//! every other core's key is frozen, so
//!
//! * if `min1` is not the owner, `min1` is still the minimum over the
//!   others (their clocks are unchanged and the owner is excluded);
//! * if `min1` *is* the owner, the minimum over the others is `min2`.
//!
//! Hence the keep-turn case — the hot path — is O(1), and ties still break
//! toward the lowest core id exactly as the full scan did (the scan visits
//! cores in id order and replaces only on strictly smaller clocks).

#![forbid(unsafe_code)]

use crate::addr::CoreId;

/// Sentinel for "no core holds the turn" (all retired).
pub const NO_TURN: usize = usize::MAX;

/// An empty two-min key: no core, and a clock no comparison reads.
const NONE: (CoreId, u64) = (NO_TURN, u64::MAX);

/// Scheduler state (owned by the machine, mutated under its lock).
#[derive(Debug)]
pub struct Sched {
    /// Per-core local clocks, in cycles. Persist across runs until
    /// explicitly reset. Only the turn owner's clock may advance mid-run
    /// (the two-min bookkeeping depends on this).
    pub clocks: Vec<u64>,
    /// Which cores are currently executing a workload closure.
    pub active: Vec<bool>,
    /// Current turn owner, or [`NO_TURN`].
    pub turn: usize,
    /// Lookahead quantum in cycles.
    pub quantum: u64,
    /// Smallest active `(core, clock)` as of the last rescan (ties →
    /// lowest id); the core is [`NO_TURN`] when no core is active.
    min1: (CoreId, u64),
    /// Second-smallest active `(core, clock)` as of the last rescan
    /// ([`NO_TURN`] when fewer than two cores are active).
    min2: (CoreId, u64),
    /// Full O(cores) rescans performed (introspection: unit tests assert
    /// the keep-turn path never rescans).
    pub rescans: u64,
}

impl Sched {
    pub fn new(cores: usize, quantum: u64) -> Self {
        Self {
            clocks: vec![0; cores],
            active: vec![false; cores],
            turn: NO_TURN,
            quantum,
            min1: NONE,
            min2: NONE,
            rescans: 0,
        }
    }

    /// Number of active cores.
    pub fn n_active(&self) -> usize {
        self.active.iter().filter(|&&a| a).count()
    }

    /// Recompute the two smallest active `(clock, id)` keys. O(cores);
    /// called only on turn moves, activation and retirement — which at
    /// quantum 0 is most events, so the scan keeps both keys in plain
    /// scalars.
    fn rescan(&mut self) {
        self.rescans += 1;
        let (mut i1, mut c1) = NONE;
        let (mut i2, mut c2) = NONE;
        for (i, (&a, &clk)) in self.active.iter().zip(&self.clocks).enumerate() {
            if !a {
                continue;
            }
            // Strict `<` with id-ordered iteration keeps the lowest id in
            // front on clock ties — the documented tie-break.
            if i1 == NO_TURN || clk < c1 {
                (i2, c2) = (i1, c1);
                (i1, c1) = (i, clk);
            } else if i2 == NO_TURN || clk < c2 {
                (i2, c2) = (i, clk);
            }
        }
        self.min1 = (i1, c1);
        self.min2 = (i2, c2);
    }

    /// Min-clock active core other than `me` (ties → lowest id), or
    /// [`NO_TURN`] if there is none. O(1): served from the two-min
    /// bookkeeping, which is valid because only `me` (the turn owner) can
    /// have advanced its clock since the last rescan.
    #[inline]
    fn min_other(&self, me: CoreId) -> (CoreId, u64) {
        if self.min1.0 == me {
            self.min2
        } else {
            self.min1
        }
    }

    /// Activate cores `0..n` for a run. Panics if a previous run left cores
    /// active. Returns the initial turn owner.
    pub fn start_run(&mut self, n: usize) -> CoreId {
        assert_eq!(self.n_active(), 0, "previous run still active");
        assert!(n >= 1 && n <= self.active.len());
        for c in 0..n {
            self.active[c] = true;
        }
        self.rescan();
        self.turn = self.min1.0;
        self.turn
    }

    /// After `me` (the turn owner) finishes an event, decide whether to keep
    /// the turn. Returns the core to wake if the turn moves. The keep-turn
    /// case is O(1).
    ///
    /// **Invariant (callers):** `me` must be the current turn owner. The
    /// keep-turn fast path deliberately carries no release-mode assert — it
    /// runs once per simulated memory event and mutates nothing but the
    /// decision — but the turn-move branch below *does* assert, because a
    /// wrong owner there would rewrite `turn` and rescan from a foreign
    /// core's clock, silently corrupting the two-min bookkeeping into a
    /// wrong-but-plausible interleaving.
    #[inline]
    pub fn after_event(&mut self, me: CoreId) -> Option<CoreId> {
        debug_assert_eq!(self.turn, me);
        let (next, min) = self.min_other(me);
        // Keep running while within the lookahead window; the window is
        // measured from the minimum of the *other* cores.
        if next != NO_TURN && self.clocks[me] > min.saturating_add(self.quantum) {
            self.move_turn(me, next);
            return Some(next);
        }
        None
    }

    /// The turn-move half of [`Self::after_event`] (out of line: the
    /// quantum amortizes it, and it ends in the O(cores) rescan).
    #[inline(never)]
    fn move_turn(&mut self, me: CoreId, next: CoreId) {
        // A real assert here costs nothing measurable and turns
        // release-mode misuse into a loud panic instead of schedule
        // corruption.
        assert_eq!(
            self.turn, me,
            "after_event by core {me} without the turn (owner: {})",
            self.turn
        );
        self.turn = next;
        // `me`'s clock is now final until the turn returns to it: refresh
        // the two-min keys for the new owner's decisions.
        self.rescan();
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
        self.rescan();
        self.turn = self.min1.0;
        (self.turn != NO_TURN).then_some(self.turn)
    }

    /// Zero all clocks (between the prefill run and the measured run).
    pub fn reset_clocks(&mut self) {
        assert_eq!(self.n_active(), 0, "cannot reset clocks mid-run");
        self.clocks.fill(0);
        self.min1 = NONE;
        self.min2 = NONE;
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
        assert_eq!(s.after_event(1), None, "3 <= 5: core 1 is still min, keeps turn");
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

    // --- two-min bookkeeping --------------------------------------------

    #[test]
    fn keep_turn_case_never_rescans() {
        let mut s = Sched::new(8, 1_000);
        s.start_run(8);
        let scans = s.rescans;
        for _ in 0..1_000 {
            s.clocks[0] += 1;
            assert_eq!(s.after_event(0), None, "within quantum: keep turn");
        }
        assert_eq!(s.rescans, scans, "keep-turn decisions must be O(1)");
    }

    #[test]
    fn rescans_only_on_structural_events() {
        let mut s = Sched::new(4, 0);
        s.start_run(4); // rescan #1
        assert_eq!(s.rescans, 1);
        s.clocks[0] += 10;
        assert_eq!(s.after_event(0), Some(1)); // move → rescan #2
        assert_eq!(s.rescans, 2);
        assert_eq!(s.retire(1), Some(2)); // retire → rescan #3
        assert_eq!(s.rescans, 3);
    }

    /// Reference implementation: the seed's O(cores) full-scan scheduler.
    /// The incremental scheduler must make byte-identical decisions.
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
        for quantum in [0u64, 3, 17, 1_000] {
            let cores = 6;
            let mut s = Sched::new(cores, quantum);
            let mut r = RefSched {
                clocks: vec![0; cores],
                active: vec![false; cores],
                turn: 0,
                quantum,
            };
            s.start_run(cores);
            for c in 0..cores {
                r.active[c] = true;
            }
            r.turn = 0;
            assert_eq!(s.turn, r.turn);

            // Deterministic pseudo-random event costs; occasionally retire
            // the owner, until all cores are done.
            let mut lcg: u64 = 0x1234_5678 ^ quantum;
            let mut step = || {
                lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                lcg >> 33
            };
            let mut events = 0u32;
            while s.turn != NO_TURN {
                let me = s.turn;
                assert_eq!(me, r.turn, "turn diverged (quantum {quantum})");
                events += 1;
                if events > 20_000 {
                    panic!("runaway");
                }
                if step() % 37 == 0 {
                    assert_eq!(s.retire(me), r.retire(me), "retire (quantum {quantum})");
                    continue;
                }
                let cost = step() % 23;
                s.clocks[me] += cost;
                r.clocks[me] += cost;
                assert_eq!(
                    s.after_event(me),
                    r.after_event(me),
                    "handoff decision diverged at event {events} (quantum {quantum})"
                );
            }
            assert_eq!(r.turn, NO_TURN);
        }
    }
}
