//! Experiment configuration, and the one parser of the harness bins'
//! command lines ([`Cli`]).

use casmr::SmrConfig;
use mcsim::{CacheConfig, ExecBackend, FaultPlan, MachineConfig, UafMode};

use crate::experiments::Scale;

/// Operation mix, in percent. The paper's three workloads are
/// `0i-0d` (read-only), `5i-5d` (10% updates) and `50i-50d` (100% updates);
/// the remainder are `contains` (sets), `peek` (stacks).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Mix {
    /// Insert (or push/enqueue) percentage.
    pub insert_pct: u64,
    /// Delete (or pop/dequeue) percentage.
    pub delete_pct: u64,
}

impl Mix {
    /// The paper's workload triplet.
    pub const PAPER: [Mix; 3] = [
        Mix {
            insert_pct: 0,
            delete_pct: 0,
        },
        Mix {
            insert_pct: 5,
            delete_pct: 5,
        },
        Mix {
            insert_pct: 50,
            delete_pct: 50,
        },
    ];

    /// Figure-panel label, e.g. `50i-50d`.
    pub fn label(&self) -> String {
        format!("{}i-{}d", self.insert_pct, self.delete_pct)
    }

    /// Total update percentage.
    pub fn updates(&self) -> u64 {
        self.insert_pct + self.delete_pct
    }
}

/// One experiment run's parameters.
///
/// Cycle costs are not a setting: every run charges the fixed table in
/// `mcsim::latency`. Every run also uses the `Auto` host backend, which
/// `MCSIM_EXEC` resolves; a test that needs a named backend builds its
/// `Machine` from a `MachineConfig` itself.
#[derive(Clone, Debug, PartialEq)]
pub struct RunConfig {
    /// Simulated hardware threads = workload threads.
    pub threads: usize,
    /// Hardware threads per physical core (1 = the paper's no-SMT setup).
    pub smt: usize,
    /// Keys are drawn uniformly from `1..=key_range`.
    pub key_range: u64,
    /// Prefill the structure to this many elements (paper: 50% of range).
    pub prefill: u64,
    /// Operations per thread in the measured phase (paper: 3000).
    pub ops_per_thread: u64,
    /// Operation mix.
    pub mix: Mix,
    /// Workload RNG seed (streams are per-thread functions of this).
    pub seed: u64,
    /// Reclamation-scheme tuning (paper defaults).
    pub smr: SmrConfig,
    /// Scheduler lookahead quantum.
    pub quantum: u64,
    /// L1 geometry (the associativity ablation overrides this).
    pub cache: CacheConfig,
    /// Sample the allocation footprint every N global ops (Figure 3).
    pub sample_every: Option<u64>,
    /// Hash-table bucket count (paper: 128).
    pub buckets: usize,
    /// OS-preemption model: (interval, cost) in cycles (see
    /// `MachineConfig::ctx_switch`).
    pub ctx_switch: Option<(u64, u64)>,
    /// **Retired** (PR 18, see `history/README.md`): must be 1 — [`crate::run`]
    /// rejects anything else with [`GANGS_RETIRED`]. The field survives only
    /// because the frozen `perfbench/` workspace still writes `gangs: 1`;
    /// the next benchmark-only PR drops it.
    pub gangs: usize,
    /// Injected faults for robustness experiments (see `mcsim::fault`);
    /// empty for every ordinary figure. [`crate::run`] disarms the plan
    /// during prefill so faults fire at measured-phase clocks only, treats
    /// an injected crash as an outcome, and recovers cores the plan restarts.
    pub fault_plan: FaultPlan,
    /// Wedge watchdog: panic if any simulated core's clock passes this
    /// bound (the bins' `--max_cycles`). `None` = no bound (the default).
    pub max_cycles: Option<u64>,
    /// Execute on real host threads over a [`casmr::NativeMachine`] instead
    /// of the simulator (`fig --native`). Same workloads and seeds; cycles
    /// become wall-clock nanoseconds and throughput ops/µs. Conditional
    /// Access cannot run natively (the primitive exists only in the
    /// simulator) — CA cells panic, degrading to `ERR` in collecting
    /// sweeps. See the `validate` bin for the sim↔native comparison.
    pub native: bool,
    /// Arm the simulator's happens-before race analyzer
    /// ([`mcsim::MachineConfig::race_check`]): trace every memory event and
    /// have [`crate::run`] return the report of unsynchronized conflicting
    /// accesses in [`crate::Outcome::race`] (the `race_audit` bin arms it
    /// and diffs the report against the whitelist). Off by default (zero
    /// cost, byte-identical schedules). Ignored by native runs (the
    /// analyzer is a simulator instrument).
    pub race_check: bool,
    /// Record every measured operation, its result and its invocation and
    /// response clocks, into [`crate::Outcome::history`] (the latency
    /// figure reads [`crate::Outcome::latency`], derived from it). Off by
    /// default. Host-side like `race_check`: the clock reads issue no
    /// event, so the simulated run is the same with or without it.
    pub history: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            smt: 1,
            key_range: 1000,
            prefill: 500,
            ops_per_thread: 3000,
            mix: Mix {
                insert_pct: 50,
                delete_pct: 50,
            },
            seed: 0xC0FFEE,
            smr: SmrConfig::default(),
            quantum: 64,
            cache: CacheConfig::default(),
            sample_every: None,
            buckets: 128,
            ctx_switch: None,
            gangs: 1,
            fault_plan: FaultPlan::none(),
            max_cycles: None,
            native: false,
            race_check: false,
            history: false,
        }
    }
}

/// The error for an old command line or config that still asks for
/// intra-machine gangs: silently running the one remaining schedule would
/// hand back a table the caller did not ask for.
pub const GANGS_RETIRED: &str =
    "`--gangs`/`--l2_banks` were retired in PR 18 (see history/README.md)";

/// A command-line flag of the harness bins. Each bin hands [`Cli::parse`]
/// the ones it honours; any other argument is an error, so a typo
/// (`--quik`, `--job 4`) or a flag the bin would ignore cannot quietly
/// produce a different table.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Flag {
    /// Bare words are positional arguments (`fig`'s figure names).
    Figures,
    /// `--quick`: [`Scale::Quick`].
    Quick,
    /// `--paper`: [`Scale::Paper`].
    Paper,
    /// `--jobs N` (also `-j N`, `-jN`): sweep workers, 0 = one per host CPU.
    /// A host-performance knob only — tables are bit-identical for every
    /// value (see [`crate::sweep`]).
    Jobs,
    /// `--max_cycles N`: the wedge watchdog ([`RunConfig::max_cycles`]),
    /// 0 = no bound. A configuration that livelocks, or stalls forever under
    /// an injected fault, becomes one attributable `ERR` cell instead of a
    /// hung process.
    MaxCycles,
    /// `--native`: run on host threads ([`RunConfig::native`]).
    Native,
}

impl Flag {
    /// Usage text: a name followed by ` N` takes an integer, spelled
    /// `<flag> N` or `<flag>=N`; a bare name is a presence flag.
    fn usage(self) -> &'static str {
        match self {
            Flag::Figures => "FIGURE...|all",
            Flag::Quick => "--quick",
            Flag::Paper => "--paper",
            Flag::Jobs => "--jobs N",
            Flag::MaxCycles => "--max_cycles N",
            Flag::Native => "--native",
        }
    }
}

/// The flags `fig` honours: figure names and every shared flag.
pub const FIG_FLAGS: &[Flag] = &[
    Flag::Figures,
    Flag::Quick,
    Flag::Paper,
    Flag::Jobs,
    Flag::MaxCycles,
    Flag::Native,
];

/// A harness bin's command line, parsed once into a value. Nothing here is
/// process-global: a bin applies each field where it belongs (the plans'
/// [`RunConfig`]s, [`crate::sweep::set_jobs`]).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Cli {
    /// Positional arguments, in order ([`Flag::Figures`]).
    pub positionals: Vec<String>,
    /// `--quick` or `--paper`; [`Scale::Standard`] without either.
    pub scale: Scale,
    /// `--jobs N` (0 = auto).
    pub jobs: usize,
    /// `--max_cycles N`; `None` when absent or 0.
    pub max_cycles: Option<u64>,
    /// `--native`.
    pub native: bool,
}

impl Cli {
    /// Parse a whole command line (`args[0]` is the program name) against
    /// the `accepted` flags. The error is one line: it names the offending
    /// argument and, for an unknown one, lists what is accepted (the retired
    /// `--gangs`/`--l2_banks` get [`GANGS_RETIRED`] as a hint). A repeated
    /// flag takes its last value.
    pub fn parse(args: impl IntoIterator<Item = String>, accepted: &[Flag]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let (mut quick, mut paper) = (false, false);
        let mut it = args.into_iter().skip(1);
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') && accepted.contains(&Flag::Figures) {
                cli.positionals.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, value)) => (name, Some(value)),
                None => (arg.as_str(), None),
            };
            // `-j N` and `-jN` are `--jobs N`.
            let (name, inline) = match name.strip_prefix("-j") {
                Some("") => ("--jobs", inline),
                Some(n) if inline.is_none() && n.bytes().all(|b| b.is_ascii_digit()) => {
                    ("--jobs", Some(n))
                }
                _ => (name, inline),
            };
            let Some(&flag) = accepted
                .iter()
                .find(|f| f.usage().split(' ').next() == Some(name))
            else {
                return Err(unrecognized(&arg, accepted));
            };
            let value = match (flag.usage().contains(' '), inline) {
                (false, None) => String::new(),
                (false, Some(_)) => return Err(unrecognized(&arg, accepted)),
                (true, Some(v)) => v.to_string(),
                (true, None) => it
                    .next()
                    .ok_or_else(|| format!("`{name}` requires a value"))?,
            };
            match flag {
                Flag::Figures => unreachable!("a bare word is a positional"),
                Flag::Quick => quick = true,
                Flag::Paper => paper = true,
                Flag::Jobs => cli.jobs = integer(name, &value)?,
                Flag::MaxCycles => cli.max_cycles = Some(integer(name, &value)?).filter(|&n| n > 0),
                Flag::Native => cli.native = true,
            }
        }
        cli.scale = match (quick, paper) {
            (true, true) => return Err("`--quick` and `--paper` exclude each other".into()),
            (true, false) => Scale::Quick,
            (false, true) => Scale::Paper,
            (false, false) => Scale::Standard,
        };
        Ok(cli)
    }

    /// [`Self::parse`] this process's command line; on an error, print it
    /// as one `error:` line and exit 2 before anything runs.
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned argv read: every bin parses its command line here"
    )]
    pub fn from_env(accepted: &[Flag]) -> Cli {
        Cli::parse(std::env::args(), accepted).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2);
        })
    }
}

fn integer<T: std::str::FromStr>(name: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("`{name}` takes a non-negative integer, got `{value}`"))
}

fn unrecognized(arg: &str, accepted: &[Flag]) -> String {
    let name = arg.split_once('=').map_or(arg, |(name, _)| name);
    let hint = if ["--gangs", "--l2_banks"].contains(&name) {
        format!(": {GANGS_RETIRED}")
    } else {
        String::new()
    };
    let usage: Vec<_> = accepted.iter().map(|f| f.usage()).collect();
    format!(
        "unrecognized argument `{arg}`{hint}; accepted: {}",
        usage.join(" ")
    )
}

impl RunConfig {
    /// Build the simulated machine for this run, on the `Auto` host backend.
    pub fn machine_config(&self) -> MachineConfig {
        let mem_bytes = (self.leaky_worst_nodes() * 64)
            .next_power_of_two()
            .max(1 << 22);
        MachineConfig {
            cores: self.threads,
            smt: self.smt,
            cache: self.cache.clone(),
            mem_bytes,
            static_lines: 4096,
            quantum: self.quantum,
            sample_every: self.sample_every,
            uaf_mode: UafMode::Panic,
            ctx_switch: self.ctx_switch,
            exec: ExecBackend::Auto,
            fault_plan: self.fault_plan.clone(),
            max_cycles: self.max_cycles,
            race_check: self.race_check,
        }
    }

    /// Line-pool capacity for a native run of this config: the same leaky
    /// worst case [`Self::machine_config`] sizes the simulated heap for,
    /// plus the static-allocation budget and the reserved NULL line. The
    /// capacity is address space: the pool's pages are committed on first
    /// touch, so only the lines a run actually touches cost memory.
    pub fn native_pool_lines(&self) -> usize {
        (self.leaky_worst_nodes() + 4096 + 1) as usize
    }

    /// Nodes a run can hold if nothing is ever freed: prefill (×2 for the
    /// BST's internal nodes) plus one node per op (×2 again), plus slack.
    /// Both the simulated heap and the native pool are sized to fit it.
    fn leaky_worst_nodes(&self) -> u64 {
        2 * self.prefill + 2 * self.ops_per_thread * self.threads as u64 + 4096
    }

    /// Per-thread workload seed.
    pub fn thread_seed(&self, tid: usize) -> u64 {
        // SplitMix the (seed, tid) pair so streams are unrelated.
        let mut sm = mcsim::SplitMix64::new(self.seed ^ (tid as u64).wrapping_mul(0x9E37_79B9));
        sm.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_labels() {
        assert_eq!(Mix::PAPER[0].label(), "0i-0d");
        assert_eq!(Mix::PAPER[1].label(), "5i-5d");
        assert_eq!(Mix::PAPER[2].label(), "50i-50d");
        assert_eq!(Mix::PAPER[2].updates(), 100);
    }

    #[test]
    fn machine_sized_for_leaky_worst_case() {
        let cfg = RunConfig {
            threads: 32,
            ops_per_thread: 3000,
            ..Default::default()
        };
        let mc = cfg.machine_config();
        let heap_lines = mc.mem_bytes / 64 - mc.static_lines - 1;
        assert!(heap_lines > 2 * 32 * 3000, "heap fits all-insert leaky run");
        let pool_heap = cfg.native_pool_lines() as u64 - mc.static_lines - 1;
        assert!(pool_heap > 2 * 32 * 3000, "native pool fits it too");
        // Both sizes are pinned by goldens and the native pool tests.
        assert_eq!(mc.mem_bytes, 1 << 24);
        assert_eq!(
            cfg.native_pool_lines(),
            2 * cfg.prefill as usize + 2 * 32 * 3000 + 8193
        );
    }

    #[test]
    fn run_config_default_is_pure() {
        let cfg = RunConfig::default();
        assert!(!cfg.native);
        assert!(!cfg.race_check);
        assert_eq!(cfg.max_cycles, None);
    }

    /// The flags a bin without positionals takes.
    const PLAIN: &[Flag] = &[
        Flag::Quick,
        Flag::Paper,
        Flag::Jobs,
        Flag::MaxCycles,
        Flag::Native,
    ];

    fn parse(args: &[&str], accepted: &[Flag]) -> Result<Cli, String> {
        Cli::parse(args.iter().map(|s| s.to_string()), accepted)
    }

    #[test]
    fn retired_flags_are_rejected_not_ignored() {
        for accepted in [PLAIN, FIG_FLAGS] {
            let check = |a: &[&str]| parse(a, accepted).map(|cli| cli.positionals);
            for old in [
                &["fig1_lazylist", "--quick", "--gangs", "4"][..],
                &["fig1_lazylist", "--gangs=2"],
                &["fig1_lazylist", "--jobs", "4", "--l2_banks", "8"],
                &["fig1_lazylist", "--l2_banks=1"],
            ] {
                let err = check(old).expect_err("retired flag accepted");
                assert!(err.contains(GANGS_RETIRED), "{old:?}: {err}");
            }
            for (bad, offender) in [
                (&["fig1_lazylist", "--quik"][..], "`--quik`"),
                (&["fig1_lazylist", "--quick", "--job", "4"], "`--job`"),
                (&["fig1_lazylist", "--quick", "--recover"], "`--recover`"),
                (&["fig1_lazylist", "--quick=1"], "`--quick=1`"),
                (&["fig1_lazylist", "-jx"], "`-jx`"),
                (
                    &["fig1_lazylist", "--quick", "--fail-fast"],
                    "`--fail-fast`",
                ),
                (
                    &["fig1_lazylist", "--paper", "--race_check"],
                    "`--race_check`",
                ),
            ] {
                let err = check(bad).expect_err("unknown argument accepted");
                assert!(err.contains(offender), "{bad:?}: {err}");
                assert!(
                    err.contains("--quick --paper --jobs N"),
                    "lists the accepted flags: {err}"
                );
                assert!(!err.contains(GANGS_RETIRED), "{bad:?}: {err}");
            }
            for ok in [
                &["fig1_lazylist"][..],
                &["fig1_lazylist", "--quick", "--jobs", "4"],
                &["fig1_lazylist", "--paper", "--jobs=4", "--native"],
                &["fig1_lazylist", "-j4"],
                &["fig1_lazylist", "-j", "4"],
                &["fig1_lazylist", "--max_cycles", "10"],
                &["fig1_lazylist", "--max_cycles=10"],
            ] {
                assert_eq!(check(ok), Ok(vec![]), "{ok:?}");
            }
        }
        // A bare word is a positional only to a bin that declares them.
        let err = parse(&["validate", "4"], PLAIN).expect_err("positional accepted");
        assert!(err.contains("`4`"), "{err}");
        // `fig`'s positionals come back in order, and flag values are not
        // mistaken for them.
        let cli = parse(
            &["fig", "--quick", "fig_robustness", "--jobs", "4", "fig9"],
            FIG_FLAGS,
        );
        assert_eq!(
            cli.map(|cli| cli.positionals),
            Ok(vec!["fig_robustness".to_string(), "fig9".to_string()])
        );
        let err = parse(&["fig", "all", "--quik"], FIG_FLAGS).expect_err("unknown flag accepted");
        assert!(
            err.contains("`--quik`") && err.contains("FIGURE..."),
            "{err}"
        );
    }

    #[test]
    fn flags_parse_into_one_value() {
        let cli = parse(
            &["fig", "all", "--paper", "-j3", "--max_cycles=7", "--native"],
            FIG_FLAGS,
        );
        let want = Cli {
            positionals: vec!["all".to_string()],
            scale: Scale::Paper,
            jobs: 3,
            max_cycles: Some(7),
            native: true,
        };
        assert_eq!(cli, Ok(want));
        let plain = parse(&["validate"], PLAIN).expect("no flags");
        assert_eq!(
            (plain.scale, plain.jobs, plain.max_cycles, plain.native),
            (Scale::Standard, 0, None, false)
        );
        // 0 is no bound, the same as no flag.
        assert_eq!(
            parse(&["fig", "--max_cycles", "0"], PLAIN).map(|cli| cli.max_cycles),
            Ok(None)
        );
        assert_eq!(
            parse(&["fig", "--quick"], PLAIN).map(|cli| cli.scale),
            Ok(Scale::Quick)
        );
    }

    #[test]
    fn malformed_values_name_their_flag() {
        for (bad, flag) in [
            (&["fig", "--jobs"][..], "`--jobs` requires a value"),
            (&["fig", "-j"], "`--jobs` requires a value"),
            (
                &["fig", "--jobs", "abc"],
                "`--jobs` takes a non-negative integer, got `abc`",
            ),
            (
                &["fig", "--jobs=-1"],
                "`--jobs` takes a non-negative integer, got `-1`",
            ),
            (
                &["fig", "--max_cycles", "-5"],
                "`--max_cycles` takes a non-negative integer, got `-5`",
            ),
            (&["fig", "--max_cycles"], "`--max_cycles` requires a value"),
            (
                &["fig", "--quick", "--paper"],
                "`--quick` and `--paper` exclude each other",
            ),
        ] {
            let err = parse(bad, PLAIN).expect_err("malformed value accepted");
            assert_eq!(err, flag, "{bad:?}");
        }
    }

    #[test]
    fn thread_seeds_differ() {
        let cfg = RunConfig::default();
        let a = cfg.thread_seed(0);
        let b = cfg.thread_seed(1);
        assert_ne!(a, b);
        assert_eq!(a, cfg.thread_seed(0), "deterministic");
    }
}
