//! Crash recovery and membership churn: the types behind
//! [`crate::api::Smr::depart`], [`crate::api::Smr::adopt`] and
//! [`crate::api::Smr::join`].
//!
//! # The fail-stop declaration ([`CrashToken`])
//!
//! Every SMR scheme in this crate publishes *negative* information: a
//! hazard slot, reservation interval, pin or quiescence announcement says
//! "I may still hold references — do not free". Recovering from a crashed
//! member means **forcibly retracting** that publication on the victim's
//! behalf: clearing its hazard slots, capping its reservation, announcing
//! quiescence it never reached. Doing that to a thread that is merely slow
//! is a use-after-free factory — the thread wakes up holding pointers the
//! survivors just freed.
//!
//! The retraction is sound exactly when the victim is **fail-stop**: it
//! will never execute another instruction, so no protection it published
//! can ever be *exercised* again. A hazard nobody will dereference guards
//! nothing; a quiescence announcement nobody will contradict is vacuously
//! true. The soundness therefore rests on a fact about the *environment*
//! (the thread is dead), not about the schemes — which is why the forcible
//! leg of [`crate::api::Smr::adopt`] demands a [`CrashToken`], a
//! certificate that the environment has declared the thread fail-stop.
//!
//! Tokens are deliberately hard to mint:
//!
//! * [`CrashToken::from_restart`] is **safe**: it consumes a
//!   [`mcsim::CoreRestart`], whose only constructor is private to the
//!   simulator — holding one proves the simulator itself crashed the core
//!   (fault injection is exact in simulation, so the declaration is a
//!   ground truth, not a guess).
//! * [`CrashToken::assert_fail_stop`] is **unsafe**: it is the native
//!   world's escape hatch, where fail-stop can only be *declared* (a lease
//!   deadline expiring, a supervisor reaping a worker), never proven from
//!   inside the process. The caller carries the proof obligation; the
//!   bounded-deadline detector ([`crate::native::HeartbeatBoard`]) wraps
//!   the obligation in an explicit membership contract.
//!
//! # Graceful vs. crashed leave ([`Orphan`])
//!
//! A departing member hands its thread-local state to a successor as an
//! [`Orphan`]. The two constructors encode who cleaned up:
//!
//! * [`Orphan::departed`] — graceful: the owner already retracted its own
//!   publications (inside [`crate::api::Smr::depart`]) and drained what it
//!   could; the adopter only inherits the residual retire list and its
//!   accounting.
//! * [`Orphan::crashed`] — fail-stop: publications are still live in
//!   shared memory; the adopter must retract them, which is why this
//!   constructor demands the token.
//!
//! # Parking state across a crash ([`TlsVault`])
//!
//! A crash unwinds the victim's stack, destroying any state it owned by
//! value. The vault keeps per-thread state inside a `Mutex<Option<T>>`
//! slot instead: a worker locks its slot for the duration of the run and
//! works through the guard, so a crash merely *poisons* the mutex — the
//! state survives inside, and the recovery path extracts it with
//! poison-tolerant locking. This mirrors how real runtimes keep
//! reclamation TLS in registries that outlive their threads.

use std::sync::{Mutex, MutexGuard};

/// Certificate that the execution environment has declared thread `tid`
/// fail-stop: it has crashed and will never execute another instruction.
///
/// Required by the forcible leg of [`crate::api::Smr::adopt`] (see the
/// [module docs](self) for the safety argument). Not `Clone`/`Copy`: one
/// declaration, one adoption.
#[derive(Debug)]
pub struct CrashToken {
    tid: usize,
}

impl CrashToken {
    /// The crashed thread this token certifies.
    #[inline]
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// Mint a token from a simulator restart notice.
    ///
    /// Safe: [`mcsim::CoreRestart`] can only be constructed by the simulator
    /// itself (its constructor is `pub(crate)` to `mcsim`), and it is only
    /// handed to [`mcsim::Machine::run_recover_on`] recovery closures for
    /// cores whose injected crash actually fired — so possession proves
    /// the fail-stop fact rather than asserting it.
    pub fn from_restart(restart: &mcsim::CoreRestart) -> CrashToken {
        CrashToken { tid: restart.core }
    }

    /// Declare thread `tid` fail-stop without simulator-grade proof.
    ///
    /// # Safety
    ///
    /// The caller must guarantee that thread `tid` has permanently stopped
    /// executing: it will never again read, write, or dereference anything
    /// touched by the scheme this token is handed to. Declaring a slow but
    /// live thread crashed lets [`crate::api::Smr::adopt`] retract
    /// protections the thread is still relying on — a use-after-free.
    /// Native callers should reach this only through a membership contract
    /// with a conservative deadline (see
    /// [`crate::native::HeartbeatBoard::detect`]).
    pub unsafe fn assert_fail_stop(tid: usize) -> CrashToken {
        CrashToken { tid }
    }
}

/// A departed or crashed member's thread-local SMR state, awaiting
/// adoption by a survivor (or by the same core after a restart).
#[derive(Debug)]
pub struct Orphan<T> {
    tls: T,
    token: Option<CrashToken>,
}

impl<T> Orphan<T> {
    /// Wrap state handed off by a *graceful* leave: the owner already
    /// retracted its publications and drained what it could.
    pub fn departed(tls: T) -> Orphan<T> {
        Orphan { tls, token: None }
    }

    /// Wrap state abandoned by a *fail-stop* crash: publications are still
    /// live and the adopter must retract them, so a [`CrashToken`] is
    /// required.
    pub fn crashed(tls: T, token: CrashToken) -> Orphan<T> {
        Orphan {
            tls,
            token: Some(token),
        }
    }

    /// Whether this orphan came from a crash (true) or a graceful depart
    /// (false).
    #[inline]
    pub fn is_crashed(&self) -> bool {
        self.token.is_some()
    }

    /// Peek at the orphaned state (e.g. to meter adopted garbage before
    /// adoption).
    #[inline]
    pub fn tls(&self) -> &T {
        &self.tls
    }

    /// Split into the state and the optional crash certificate. Scheme
    /// `adopt` implementations use this; harness code normally passes the
    /// whole orphan through.
    pub fn into_parts(self) -> (T, Option<CrashToken>) {
        (self.tls, self.token)
    }
}

/// Per-thread state parking that survives crashes.
///
/// `threads` fixed slots, each a `Mutex<Option<T>>`. A worker locks its
/// slot for the whole run ([`TlsVault::lock`]) and mutates through the
/// guard; if it crashes, the unwind poisons the mutex but the state stays
/// inside, and every accessor here is poison-tolerant
/// (`PoisonError::into_inner`), so detectors and adopters can still
/// extract it. Cross-slot access is only done after the owner is known to
/// be finished, departed, or declared crashed.
pub struct TlsVault<T> {
    slots: Vec<Mutex<Option<T>>>,
}

impl<T> TlsVault<T> {
    /// `threads` empty slots.
    pub fn new(threads: usize) -> TlsVault<T> {
        TlsVault {
            slots: (0..threads).map(|_| Mutex::new(None)).collect(),
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the vault has zero slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Lock slot `tid` (poison-tolerant). Workers hold this guard across
    /// the run so a crash parks the state instead of dropping it.
    pub fn lock(&self, tid: usize) -> MutexGuard<'_, Option<T>> {
        self.slots[tid]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Store state into slot `tid`, returning whatever was there.
    pub fn put(&self, tid: usize, state: T) -> Option<T> {
        self.lock(tid).replace(state)
    }

    /// Remove and return slot `tid`'s state, if any — works even when the
    /// owner crashed while holding the guard (the poison is swallowed).
    pub fn take(&self, tid: usize) -> Option<T> {
        self.lock(tid).take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vault_survives_a_poisoning_panic() {
        let vault = std::sync::Arc::new(TlsVault::new(2));
        vault.put(1, 41u64);
        let v2 = vault.clone();
        let worker = std::thread::spawn(move || {
            let mut g = v2.lock(1);
            *g.as_mut().unwrap() += 1;
            panic!("simulated crash while holding the slot");
        });
        assert!(worker.join().is_err());
        // The slot is poisoned but the state — including the increment the
        // owner made before dying — is recoverable.
        assert_eq!(vault.take(1), Some(42));
        assert_eq!(vault.take(1), None);
    }

    #[test]
    fn orphan_constructors_track_crash_status() {
        let graceful = Orphan::departed(7u32);
        assert!(!graceful.is_crashed());
        let (tls, token) = graceful.into_parts();
        assert_eq!(tls, 7);
        assert!(token.is_none());

        // SAFETY: no thread 3 exists here; the token is never handed to a
        // scheme.
        let t = unsafe { CrashToken::assert_fail_stop(3) };
        assert_eq!(t.tid(), 3);
        let crashed = Orphan::crashed(9u32, t);
        assert!(crashed.is_crashed());
        assert_eq!(*crashed.tls(), 9);
        let (_, token) = crashed.into_parts();
        assert_eq!(token.map(|t| t.tid()), Some(3));
    }
}
