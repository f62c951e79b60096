//! # casmr — baseline safe-memory-reclamation schemes
//!
//! The six reclamation baselines the paper benchmarks Conditional Access
//! against (§V), implemented from scratch over the `mcsim` simulator:
//!
//! | scheme | per-read cost | per-op cost | bound on garbage |
//! |---|---|---|---|
//! | [`Leaky`] (`none`) | — | — | unbounded (leaks) |
//! | [`Qsbr`] | — | load+store | unbounded (stalled thread) |
//! | [`Rcu`] (EBR) | — | 2 stores + fence | unbounded (stalled reader) |
//! | [`Ibr`] (2GE-IBR) | era check (+ fence on change) | 2 stores + fence | bounded |
//! | [`Hp`] | store + fence + revalidate | slot clears | bounded |
//! | [`He`] | era check (+ fence on change) + revalidate | slot clears | bounded |
//!
//! All cross-thread metadata (epochs, reservations, hazard slots) lives in
//! **simulated shared memory**, so the fence and coherence costs that drive
//! the paper's figures are modeled, not assumed.
//!
//! Conditional Access itself needs no scheme object: CA data structures free
//! immediately (see the `cads` crate). [`SchemeKind`] enumerates all seven
//! configurations for the experiment harness.
//!
//! # A scheme is one file
//!
//! Each scheme's file holds what differs — metadata layout, the protection
//! methods it needs, and its free rule as the [`Smr::stamp`] / [`Smr::scan`]
//! / [`Smr::revoke`] hooks — and inherits the retire-list lifecycle
//! ([`RetireBag`], the sweep, `retire` / `depart` / `adopt` / `join`)
//! written once in [`api`]. [`with_scheme!`] is the one enumeration of the
//! constructors: the runner, every figure and every test battery reach a
//! scheme through it from a [`SchemeKind`], so adding one is the file, the
//! variant and one macro arm. (`perfbench/` keeps a private
//! `with_soft_scheme!` copy until the benchmark-only PR un-freezes it.)

pub mod api;
pub mod env;
pub mod he;
pub mod hp;
pub mod ibr;
pub mod leaky;
pub mod native;
pub mod qsbr;
pub mod rcu;
pub mod recovery;

pub use api::{
    GarbageStats, RetireBag, Retired, Smr, SmrBase, SmrConfig, INACTIVE, NODE_BIRTH_WORD,
};
pub use env::{Env, EnvHost, SimEnv, LINE_BYTES, WORDS_PER_LINE};
pub use he::He;
pub use hp::Hp;
pub use ibr::Ibr;
pub use leaky::Leaky;
pub use native::{HeartbeatBoard, NativeEnv, NativeMachine, NativeStats};
pub use qsbr::Qsbr;
pub use rcu::Rcu;
pub use recovery::{CrashToken, Orphan, TlsVault};

/// The seven reclamation configurations of the paper's evaluation.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum SchemeKind {
    /// Leak everything (`none`).
    None,
    /// Conditional Access: immediate reclamation inside the data structure.
    Ca,
    /// Interval-based reclamation (2GE-IBR).
    Ibr,
    /// Epoch-based read-side critical sections.
    Rcu,
    /// Quiescent-state-based reclamation.
    Qsbr,
    /// Hazard pointers.
    Hp,
    /// Hazard eras.
    He,
}

impl SchemeKind {
    /// All schemes, in the order the paper's legends list them.
    pub const ALL: [SchemeKind; 7] = [
        SchemeKind::None,
        SchemeKind::Ca,
        SchemeKind::Ibr,
        SchemeKind::Rcu,
        SchemeKind::Qsbr,
        SchemeKind::Hp,
        SchemeKind::He,
    ];

    /// The kinds [`with_scheme!`] can build: all but [`SchemeKind::Ca`],
    /// which has no scheme object.
    pub fn objects() -> impl Iterator<Item = SchemeKind> {
        Self::ALL.into_iter().filter(|&k| k != SchemeKind::Ca)
    }

    /// Figure-legend name.
    pub fn name(self) -> &'static str {
        match self {
            SchemeKind::None => "none",
            SchemeKind::Ca => "ca",
            SchemeKind::Ibr => "ibr",
            SchemeKind::Rcu => "rcu",
            SchemeKind::Qsbr => "qsbr",
            SchemeKind::Hp => "hp",
            SchemeKind::He => "he",
        }
    }

    /// Parse a legend name.
    pub fn parse(s: &str) -> Option<SchemeKind> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Build the scheme object `$kind` names over `$host` — either machine,
/// anything [`EnvHost`] — for `$threads` threads with the [`SmrConfig`]
/// `$cfg`, bind it to `$s` and evaluate `$body`. The body is instantiated
/// once per scheme type, so it may name `$s`'s associated types. [`Ca`]
/// has no scheme object — Conditional Access frees inside the data
/// structure — and stays the caller's case, handled before dispatch.
///
/// This is the workspace's one enumeration of the scheme constructors:
/// the runner, and through it every figure, and every differential,
/// stress and recovery battery build their schemes here from a
/// [`SchemeKind`]. **Adding a scheme is its file, a [`SchemeKind`] variant
/// and one arm here.**
///
/// [`Ca`]: SchemeKind::Ca
#[macro_export]
macro_rules! with_scheme {
    ($kind:expr, $host:expr, $threads:expr, $cfg:expr, |$s:ident| $body:expr) => {
        match $kind {
            $crate::SchemeKind::None => {
                let $s = $crate::Leaky::new();
                $body
            }
            $crate::SchemeKind::Ibr => {
                let $s = $crate::Ibr::new($host, $threads, $cfg);
                $body
            }
            $crate::SchemeKind::Rcu => {
                let $s = $crate::Rcu::new($host, $threads, $cfg);
                $body
            }
            $crate::SchemeKind::Qsbr => {
                let $s = $crate::Qsbr::new($host, $threads, $cfg);
                $body
            }
            $crate::SchemeKind::Hp => {
                let $s = $crate::Hp::new($host, $threads, $cfg);
                $body
            }
            $crate::SchemeKind::He => {
                let $s = $crate::He::new($host, $threads, $cfg);
                $body
            }
            $crate::SchemeKind::Ca => {
                unreachable!("Conditional Access has no scheme object: handle SchemeKind::Ca before with_scheme!")
            }
        }
    };
}

impl std::fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_kind_roundtrip() {
        for k in SchemeKind::ALL {
            assert_eq!(SchemeKind::parse(k.name()), Some(k));
        }
        assert_eq!(SchemeKind::parse("bogus"), None);
    }

    /// Two hand-kept lists — the legend names here, each scheme's
    /// `SmrBase::name` in its own file — tied together through the one
    /// constructor enumeration, on both hosts.
    #[test]
    fn with_scheme_builds_every_kind_on_both_hosts_under_its_legend_name() {
        let sim = mcsim::Machine::new(mcsim::MachineConfig {
            cores: 1,
            mem_bytes: 1 << 20,
            static_lines: 128,
            ..Default::default()
        });
        let native = NativeMachine::new(256);
        for kind in SchemeKind::objects() {
            let on_sim = with_scheme!(kind, &sim, 2, SmrConfig::default(), |s| s.name());
            let on_native = with_scheme!(kind, &native, 2, SmrConfig::default(), |s| s.name());
            assert_eq!(on_sim, kind.name());
            assert_eq!(on_native, kind.name());
        }
    }

    #[test]
    fn scheme_names_match_paper_legends() {
        let names: Vec<_> = SchemeKind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(names, ["none", "ca", "ibr", "rcu", "qsbr", "hp", "he"]);
    }
}
