//! Deterministic fault injection.
//!
//! The paper's robustness story (§V, echoing the IBR/VBR robustness
//! experiments) needs an *adversarial* fault model on top of the benign
//! OS-preemption model (`MachineConfig::ctx_switch`): a thread that is
//! descheduled for a long burst, stalls forever, or crashes mid-operation
//! pins every epoch-based scheme's garbage, while hazard/interval schemes
//! and Conditional Access stay bounded. This module provides that model as
//! a **pure function of each core's local clock**, so faults fire at
//! identical simulated cycles on every execution backend — the same
//! determinism contract the rest of the simulator keeps.
//!
//! Two fault kinds (see [`FaultPlan`]):
//!
//! * **Stall** ([`StallFault`]): at the first event issued at
//!   `clock >= at`, the core is descheduled for `dur` cycles. The
//!   deschedule has the §III OS-preemption side effects (ARB set,
//!   transaction aborted, context-switch accounting) plus a
//!   `fault_stalls` counter tick, then the core resumes. A large `dur`
//!   models the "burst deschedule" far beyond the uniform `ctx_switch`
//!   model.
//! * **Crash** ([`CrashFault`]): the first event issued at `clock >= at`
//!   never executes — the core's workload closure unwinds (with a quiet,
//!   typed payload) and the core retires. Everything the core published
//!   in *simulated* memory stays exactly as it was, which is what makes a
//!   crashed core pin qsbr/rcu reclamation forever: an **indefinite
//!   stall** and a crash are indistinguishable to the surviving cores, so
//!   this is also the "stalled forever" fault. Use
//!   [`crate::machine::Machine::run_recover_on`] to observe crashes as
//!   values ([`CoreOutcome::Crashed`]) instead of panics, and to resume a
//!   crashed core that a [`RestartFault`] names.
//!
//! Triggers are checked at **event boundaries** (every simulated memory
//! access, fence, allocator call, or op-completion is an event), so a
//! fault lands mid-operation — inside a traversal, between a `begin_op`
//! and its `end_op` — whenever the trigger clock falls inside one, which
//! is what the robustness experiment needs.
//!
//! Faults can be disarmed wholesale
//! ([`crate::machine::Machine::set_faults_armed`]) so a prefill run does
//! not consume trigger clocks meant for the measured run;
//! `Machine::reset_timing` rewinds the plan's cursors along with the
//! clocks.

#![forbid(unsafe_code)]

use crate::addr::{Addr, CoreId};

/// A timed deschedule of one core (see the module docs).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct StallFault {
    /// Core to stall.
    pub core: CoreId,
    /// Trigger: the stall fires after the first event issued at a local
    /// clock `>= at`.
    pub at: u64,
    /// Cycles the core is descheduled for.
    pub dur: u64,
}

/// A fail-stop crash of one core (see the module docs). Also the model of
/// an *indefinite* stall: surviving cores cannot tell the difference.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CrashFault {
    /// Core to crash.
    pub core: CoreId,
    /// Trigger: the first event issued at a local clock `>= at` does not
    /// execute; the core unwinds and retires.
    pub at: u64,
}

/// A scheduled recovery of a crashed core (see [`FaultPlan::restart`]):
/// the core resumes at simulated clock `max(at, crash clock)` running a
/// recovery closure instead of staying retired. Only meaningful through
/// [`crate::machine::Machine::run_recover_on`]; under
/// [`crate::machine::Machine::run_on`] the crash still propagates as a
/// panic. A restart on a core outside the run, or on one that never
/// crashes, does nothing.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RestartFault {
    /// Core to restart (`< MachineConfig::cores`, checked at
    /// `Machine::new`); it needs a [`CrashFault`] to recover from.
    pub core: CoreId,
    /// Trigger clock: the recovery closure starts at local clock
    /// `max(at, crash clock)` — a restart cannot predate its crash.
    pub at: u64,
}

/// A deterministic, seeded fault-injection plan
/// (`MachineConfig::fault_plan`). Empty by default: a machine without a
/// plan behaves byte-identically to one built before this module existed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Timed deschedules.
    pub stalls: Vec<StallFault>,
    /// Fail-stop crashes (at most one per core takes effect).
    pub crashes: Vec<CrashFault>,
    /// Scheduled recoveries of crashed cores (at most one per core takes
    /// effect; the earliest wins, like crashes).
    pub restarts: Vec<RestartFault>,
}

impl FaultPlan {
    /// A plan with no faults (the `Default`).
    pub fn none() -> Self {
        Self::default()
    }

    /// Builder: stall `core` for `dur` cycles at clock `at`.
    pub fn stall(mut self, core: CoreId, at: u64, dur: u64) -> Self {
        self.stalls.push(StallFault { core, at, dur });
        self
    }

    /// Builder: crash `core` at clock `at` (an indefinite stall).
    pub fn crash(mut self, core: CoreId, at: u64) -> Self {
        self.crashes.push(CrashFault { core, at });
        self
    }

    /// Builder: restart `core` at clock `at` (after its crash; see
    /// [`RestartFault`] and `Machine::run_recover_on`).
    pub fn restart(mut self, core: CoreId, at: u64) -> Self {
        self.restarts.push(RestartFault { core, at });
        self
    }

    /// Does the plan inject anything at all?
    pub fn is_empty(&self) -> bool {
        self.stalls.is_empty() && self.crashes.is_empty() && self.restarts.is_empty()
    }
}

/// The unwind payload of a [`CrashFault`] firing. Thrown with
/// `resume_unwind` (no panic-hook noise); `Machine::run_recover_on`
/// catches it and reports [`CoreOutcome::Crashed`] (or recovers the core),
/// while `Machine::run_on` re-raises it.
#[derive(Copy, Clone, Debug)]
pub struct FaultStop {
    /// The crashed core.
    pub core: CoreId,
    /// Its local clock at the crash.
    pub clock: u64,
}

/// Proof that a crashed core was restarted by the machine: handed to the
/// recovery closure of [`crate::machine::Machine::run_recover_on`].
/// `#[non_exhaustive]` means only the simulator can mint one — downstream
/// layers (e.g. `casmr`'s `CrashToken`) lean on that to justify
/// fail-stop-only recovery actions: a `CoreRestart` in hand proves the
/// environment *declared* the crash, it was not inferred from a stall.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub struct CoreRestart {
    /// The restarted core.
    pub core: CoreId,
    /// Its local clock when the [`CrashFault`] fired.
    pub crash_clock: u64,
    /// The local clock the recovery closure starts at
    /// (`max(RestartFault::at, crash_clock)`).
    pub restart_clock: u64,
}

impl CoreRestart {
    pub(crate) fn new(core: CoreId, crash_clock: u64, restart_clock: u64) -> Self {
        CoreRestart {
            core,
            crash_clock,
            restart_clock,
        }
    }
}

/// Per-core outcome of [`crate::machine::Machine::run_recover_on`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CoreOutcome<R> {
    /// The workload closure ran to completion.
    Done(R),
    /// A [`CrashFault`] stopped the core at `clock`.
    Crashed {
        /// The crashed core.
        core: CoreId,
        /// Its local clock at the crash.
        clock: u64,
    },
    /// A [`CrashFault`] stopped the core, then a [`RestartFault`] resumed
    /// it and its recovery closure ran to completion.
    Recovered {
        /// The crashed-then-restarted core.
        core: CoreId,
        /// Its local clock at the crash.
        crash_clock: u64,
        /// The local clock the recovery closure started at.
        restart_clock: u64,
        /// The recovery closure's result.
        result: R,
    },
}

impl<R> CoreOutcome<R> {
    /// The completed result: the workload's (`Done`) or the recovery
    /// closure's (`Recovered`); `None` for an unrecovered crash.
    pub fn done(self) -> Option<R> {
        match self {
            CoreOutcome::Done(r) => Some(r),
            CoreOutcome::Crashed { .. } => None,
            CoreOutcome::Recovered { result, .. } => Some(result),
        }
    }

    /// Did this core crash? (True for `Recovered` too: the crash happened;
    /// use [`Self::recovered`] to distinguish.)
    pub fn crashed(&self) -> bool {
        matches!(
            self,
            CoreOutcome::Crashed { .. } | CoreOutcome::Recovered { .. }
        )
    }

    /// The `(crash_clock, restart_clock)` pair, if this core crashed and
    /// was restarted.
    pub fn recovered(&self) -> Option<(u64, u64)> {
        match self {
            CoreOutcome::Recovered {
                crash_clock,
                restart_clock,
                ..
            } => Some((*crash_clock, *restart_clock)),
            _ => None,
        }
    }
}

/// Compiled per-core fault state, owned by `SimState`. Trigger checks are
/// a pure function of the core's local clock, so they commute with every
/// execution strategy that preserves per-core event order and clocks —
/// which both backends do by construction.
#[derive(Debug)]
pub(crate) struct FaultState {
    /// Per-core stall windows, sorted by trigger clock.
    pub stalls: Vec<Vec<(u64, u64)>>,
    /// Next un-fired stall index per core.
    pub cursor: Vec<usize>,
    /// Per-core crash trigger (`u64::MAX` = none).
    pub crash_at: Vec<u64>,
    /// Per-core restart trigger (`u64::MAX` = none), read by
    /// `Machine::run_recover_on` when the core's crash fires.
    pub restart_at: Vec<u64>,
    /// Set once a core's crash fired (it fires at most once).
    pub crashed: Vec<bool>,
    /// Wedge-watchdog ceiling (`u64::MAX` = none): a core whose clock
    /// passes this panics with a diagnostic instead of spinning forever.
    pub max_cycles: u64,
    /// Master switch ([`crate::machine::Machine::set_faults_armed`]):
    /// disarmed plans fire nothing (the watchdog included), so prefill
    /// runs don't consume measured-run triggers.
    pub armed: bool,
    /// Cached [`Self::active`] so the per-event check is one load
    /// (recomputed by [`Self::set_armed`]).
    pub hot: bool,
}

impl FaultState {
    pub fn new(plan: &FaultPlan, cores: usize, max_cycles: Option<u64>) -> Self {
        let mut stalls: Vec<Vec<(u64, u64)>> = vec![Vec::new(); cores];
        for s in &plan.stalls {
            assert!(
                s.core < cores,
                "FaultPlan stall on core {} of {cores}",
                s.core
            );
            stalls[s.core].push((s.at, s.dur));
        }
        for l in &mut stalls {
            l.sort_unstable();
        }
        let mut crash_at = vec![u64::MAX; cores];
        for c in &plan.crashes {
            assert!(
                c.core < cores,
                "FaultPlan crash on core {} of {cores}",
                c.core
            );
            crash_at[c.core] = crash_at[c.core].min(c.at);
        }
        let mut restart_at = vec![u64::MAX; cores];
        for r in &plan.restarts {
            assert!(
                r.core < cores,
                "FaultPlan restart on core {} of {cores}",
                r.core
            );
            restart_at[r.core] = restart_at[r.core].min(r.at);
        }
        let mut s = Self {
            stalls,
            cursor: vec![0; cores],
            crash_at,
            restart_at,
            crashed: vec![false; cores],
            max_cycles: max_cycles.unwrap_or(u64::MAX),
            armed: true,
            hot: false,
        };
        s.hot = s.active();
        s
    }

    /// Arm or disarm the triggers, keeping the hot-path cache coherent.
    pub fn set_armed(&mut self, armed: bool) {
        self.armed = armed;
        self.hot = self.active();
    }

    /// Anything to check on the hot path? (False for the default empty
    /// plan: one cold branch per event is the whole overhead.)
    #[inline]
    pub fn active(&self) -> bool {
        self.armed
            && (self.max_cycles != u64::MAX
                || self.crash_at.iter().any(|&a| a != u64::MAX)
                || self.stalls.iter().any(|s| !s.is_empty()))
    }

    /// Rewind trigger cursors (with `Machine::reset_timing`: the measured
    /// run's clocks start at zero, so its triggers start over too).
    pub fn reset(&mut self) {
        self.cursor.fill(0);
        self.crashed.fill(false);
    }

    /// Should core `c`'s next event crash instead of executing?
    #[inline]
    pub fn crash_due(&self, c: CoreId, clock: u64) -> bool {
        clock >= self.crash_at[c] && !self.crashed[c]
    }
}

/// A registered watchdog attribution probe
/// (`Machine::register_wedge_probe`): one per-thread array of reservation
/// or era words in simulated static memory. When the wedge watchdog fires
/// on a path that can read simulated memory, the panic names the probe
/// slot holding the minimum non-sentinel value — the oldest outstanding
/// reservation, which is what the run is wedged behind. The SMR schemes
/// register their metadata lines (qsbr announce epochs, rcu pins, ibr
/// reservation lower bounds, hazard-era slots) at construction.
#[derive(Clone, Debug)]
pub struct WedgeProbe {
    /// Diagnostic name, e.g. `"qsbr.announce"` (scheme + line role).
    pub name: &'static str,
    /// Base address: thread `t`'s line is `base + t * LINE_BYTES`.
    pub base: Addr,
    /// Number of per-thread lines.
    pub threads: usize,
    /// Words read per thread line (`slot s` is word `s`).
    pub slots: u64,
    /// Value meaning "no outstanding reservation" — skipped.
    pub sentinel: u64,
}

/// Fire every due stall for one core and check the wedge watchdog
/// (mirroring the machine's `apply_preempt_model`). `deschedule` is called
/// once per fired stall with the §III preemption side effects (ARB, tx
/// abort, accounting).
///
/// Returns `(fired, wedged)`: how many stalls fired (the caller ticks
/// `fault_stalls`) and whether the clock passed the watchdog ceiling. A
/// wedged caller must call [`wedge_panic`] — attribution detail needs
/// simulated-memory access, so building it is the caller's job.
#[inline]
pub(crate) fn apply_stalls_and_watchdog(
    clock: &mut u64,
    stalls: &[(u64, u64)],
    cursor: &mut usize,
    max_cycles: u64,
    mut deschedule: impl FnMut(),
) -> (u64, bool) {
    let mut fired = 0;
    while *cursor < stalls.len() && *clock >= stalls[*cursor].0 {
        deschedule();
        *clock += stalls[*cursor].1;
        *cursor += 1;
        fired += 1;
    }
    (fired, *clock > max_cycles)
}

/// The wedge watchdog's panic; the message prefix is asserted by the
/// determinism tests. `detail` is
/// the optional attribution suffix ("oldest outstanding reservation: …")
/// built where simulated memory is readable.
pub(crate) fn wedge_panic(core: CoreId, clock: u64, max_cycles: u64, detail: Option<String>) -> ! {
    let detail = detail.map_or(String::new(), |d| format!("; {d}"));
    panic!(
        "wedge watchdog: core {core} passed max_cycles = {max_cycles} \
         (clock {clock}); the run is livelocked or fault-wedged{detail}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builders_compose() {
        let p = FaultPlan::none()
            .stall(1, 100, 5_000)
            .stall(1, 50, 10)
            .crash(2, 200)
            .restart(2, 900);
        assert_eq!(p.stalls.len(), 2);
        assert_eq!(p.crashes, vec![CrashFault { core: 2, at: 200 }]);
        assert_eq!(p.restarts, vec![RestartFault { core: 2, at: 900 }]);
        assert!(!p.is_empty());
        assert!(FaultPlan::default().is_empty());
        assert!(
            !FaultPlan::none().restart(0, 10).is_empty(),
            "a restart alone is a plan"
        );
    }

    #[test]
    fn state_sorts_stalls_and_keeps_earliest_crash() {
        let p = FaultPlan::none()
            .stall(0, 300, 1)
            .stall(0, 100, 2)
            .crash(1, 900)
            .crash(1, 400)
            .restart(1, 2_000)
            .restart(1, 1_500);
        let st = FaultState::new(&p, 2, None);
        assert_eq!(st.stalls[0], vec![(100, 2), (300, 1)]);
        assert_eq!(st.crash_at[1], 400);
        assert_eq!(st.crash_at[0], u64::MAX);
        assert_eq!(st.restart_at, vec![u64::MAX, 1_500]);
        assert!(st.active());
    }

    #[test]
    fn empty_plan_is_inactive_even_armed() {
        let st = FaultState::new(&FaultPlan::default(), 4, None);
        assert!(!st.active());
        let st = FaultState::new(&FaultPlan::default(), 4, Some(1_000));
        assert!(st.active(), "a watchdog alone activates the hot-path check");
    }

    #[test]
    fn stall_engine_fires_in_order_and_charges() {
        let stalls = vec![(100u64, 50u64), (120, 30)];
        let mut cursor = 0;
        let mut clock = 99;
        let mut count = 0;
        let (fired, wedged) =
            apply_stalls_and_watchdog(&mut clock, &stalls, &mut cursor, u64::MAX, || count += 1);
        assert!(!wedged);
        assert_eq!((fired, clock, cursor, count), (0, 99, 0, 0));
        clock = 105;
        // First stall fires and pushes the clock past the second trigger,
        // which then fires in the same sweep.
        let (fired, wedged) =
            apply_stalls_and_watchdog(&mut clock, &stalls, &mut cursor, u64::MAX, || count += 1);
        assert!(!wedged);
        assert_eq!((fired, clock, cursor, count), (2, 185, 2, 2));
    }

    #[test]
    #[should_panic(expected = "wedge watchdog")]
    fn watchdog_trips() {
        let mut clock = 1_001;
        let mut cursor = 0;
        let (_, wedged) = apply_stalls_and_watchdog(&mut clock, &[], &mut cursor, 1_000, || {});
        assert!(wedged, "past the ceiling must report wedged");
        wedge_panic(3, clock, 1_000, None);
    }

    #[test]
    #[should_panic(expected = "oldest outstanding reservation: qsbr.announce core 1")]
    fn wedge_panic_carries_attribution_detail() {
        wedge_panic(
            0,
            5_000,
            1_000,
            Some("oldest outstanding reservation: qsbr.announce core 1 (epoch 3)".into()),
        );
    }

    #[test]
    fn crash_due_fires_once() {
        let p = FaultPlan::none().crash(0, 500);
        let mut st = FaultState::new(&p, 1, None);
        assert!(!st.crash_due(0, 499));
        assert!(st.crash_due(0, 500));
        st.crashed[0] = true;
        assert!(!st.crash_due(0, 10_000));
        st.reset();
        assert!(st.crash_due(0, 500), "reset rewinds the trigger");
    }
}
