//! Experiment configuration.

use casmr::SmrConfig;
use mcsim::{CacheConfig, ExecBackend, FaultPlan, LatencyModel, MachineConfig, UafMode};

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
        Mix { insert_pct: 0, delete_pct: 0 },
        Mix { insert_pct: 5, delete_pct: 5 },
        Mix { insert_pct: 50, delete_pct: 50 },
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
#[derive(Clone, Debug)]
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
    /// Latency model.
    pub latency: LatencyModel,
    /// Sample the allocation footprint every N global ops (Figure 3).
    pub sample_every: Option<u64>,
    /// Hash-table bucket count (paper: 128).
    pub buckets: usize,
    /// OS-preemption model: (interval, cost) in cycles (see
    /// `MachineConfig::ctx_switch`).
    pub ctx_switch: Option<(u64, u64)>,
    /// Host execution backend (simulated results are identical across
    /// backends; see `mcsim::ExecBackend`).
    pub exec: ExecBackend,
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
    /// bound (`--max_cycles`). `None` = no bound (the default).
    pub max_cycles: Option<u64>,
    /// Execute on real host threads over a [`casmr::NativeMachine`] instead
    /// of the simulator (`--native`). Same workloads and seeds; cycles
    /// become wall-clock nanoseconds and throughput ops/µs. Conditional
    /// Access cannot run natively (the primitive exists only in the
    /// simulator) — CA cells panic, degrading to `ERR` in collecting
    /// sweeps. See the `validate` bin for the sim↔native comparison.
    pub native: bool,
    /// Arm the simulator's happens-before race analyzer
    /// (`--race_check` / [`mcsim::MachineConfig::race_check`]): trace every
    /// memory event and have [`crate::run`] return the report of
    /// unsynchronized conflicting accesses in [`crate::Outcome::race`] (the
    /// `race_audit` bin diffs it against the whitelist). Off
    /// by default (zero cost, byte-identical schedules). Ignored by native
    /// runs (the analyzer is a simulator instrument).
    pub race_check: bool,
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
            latency: LatencyModel::default(),
            sample_every: None,
            buckets: 128,
            ctx_switch: None,
            exec: ExecBackend::Auto,
            gangs: 1,
            fault_plan: FaultPlan::none(),
            max_cycles: default_max_cycles(),
            native: default_native(),
            race_check: default_race_check(),
        }
    }
}

/// Process-wide default for [`RunConfig::native`], installed by the bins'
/// `--native` flag.
static DEFAULT_NATIVE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Set whether newly-built [`RunConfig`]s default to native execution.
pub fn set_default_native(on: bool) {
    DEFAULT_NATIVE.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// The current native-execution default.
pub fn default_native() -> bool {
    DEFAULT_NATIVE.load(std::sync::atomic::Ordering::Relaxed)
}

/// Parse the `--native` presence flag and install it as the process
/// default — called by every harness bin via [`crate::init_from_args`].
pub fn set_native_from_args() {
    set_default_native(std::env::args().any(|a| a == "--native"));
}

/// Process-wide default for [`RunConfig::race_check`], installed by the
/// bins' `--race_check` flag.
static DEFAULT_RACE_CHECK: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Set whether newly-built [`RunConfig`]s arm the race analyzer.
pub fn set_default_race_check(on: bool) {
    DEFAULT_RACE_CHECK.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// The current race-analyzer default.
pub fn default_race_check() -> bool {
    DEFAULT_RACE_CHECK.load(std::sync::atomic::Ordering::Relaxed)
}

/// Parse the `--race_check` presence flag and install it as the process
/// default — called by every harness bin via [`crate::init_from_args`].
pub fn set_race_check_from_args() {
    set_default_race_check(std::env::args().any(|a| a == "--race_check"));
}

/// The error for an old command line or config that still asks for
/// intra-machine gangs: silently running the one remaining schedule would
/// hand back a table the caller did not ask for.
pub const GANGS_RETIRED: &str =
    "`--gangs`/`--l2_banks` were retired in PR 18 (see history/README.md)";

/// The flags every harness bin accepts, spelled as usage text: a name
/// followed by ` N` takes a value (`<flag> N` or `<flag>=N`), a bare name
/// is a presence flag. `-jN` is also accepted.
pub const SHARED_FLAGS: &[&str] = &[
    "--quick",
    "--paper",
    "--jobs N",
    "-j N",
    "--max_cycles N",
    "--native",
    "--race_check",
];

/// Check a whole command line (`args[0]` is the program name) against
/// [`SHARED_FLAGS`] plus the calling bin's `extra` flags, spelled the same
/// way. The flag parsers each scan argv for their own name and ignore the
/// rest, so without this a typo (`--quik`, `--job 4`) silently runs the
/// default table. The error names the first offending argument and lists
/// what is accepted; the retired `--gangs`/`--l2_banks` get
/// [`GANGS_RETIRED`] as a hint.
///
/// An `extra` entry that does not start with `-` (say `FIGURE...`) is usage
/// text for positional arguments: the bin takes them, and they are returned
/// in order for it to check. Without one a bare word is an error.
pub fn reject_unknown_flags(
    args: impl IntoIterator<Item = String>,
    extra: &[&str],
) -> Result<Vec<String>, String> {
    let accepted = || SHARED_FLAGS.iter().chain(extra).copied();
    let takes_positionals = extra.iter().any(|usage| !usage.starts_with('-'));
    let mut positionals = Vec::new();
    let mut it = args.into_iter().skip(1);
    while let Some(arg) = it.next() {
        if takes_positionals && !arg.starts_with('-') {
            positionals.push(arg);
            continue;
        }
        let (name, inline_value) = match arg.split_once('=') {
            Some((name, _)) => (name, true),
            None => (arg.as_str(), false),
        };
        let takes_value = accepted().find_map(|usage| {
            let (flag, value) = usage.split_once(' ').map_or((usage, false), |(f, _)| (f, true));
            (flag == name).then_some(value)
        });
        let ok = match takes_value {
            Some(true) => {
                if !inline_value {
                    // Skip the value; its own parser reports a missing or bad one.
                    it.next();
                }
                true
            }
            Some(false) => !inline_value,
            None => arg
                .strip_prefix("-j")
                .is_some_and(|n| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit())),
        };
        if !ok {
            let hint = if ["--gangs", "--l2_banks"].contains(&name) {
                format!(": {GANGS_RETIRED}")
            } else {
                String::new()
            };
            return Err(format!(
                "unrecognized argument `{arg}`{hint}; accepted: {}",
                accepted().collect::<Vec<_>>().join(" ")
            ));
        }
    }
    Ok(positionals)
}

/// Scan argv for a `<flag> N` / `<flag>=N` pair, returning the raw value.
/// Shared by every value-taking CLI flag so the parsing (and its
/// edge-case handling) lives in exactly one place.
pub fn flag_value_from_args(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    let eq = format!("{flag}=");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == flag {
            let v = it
                .next()
                .unwrap_or_else(|| panic!("{flag} requires a value"));
            return Some(v.clone());
        } else if let Some(v) = a.strip_prefix(&eq) {
            return Some(v.to_string());
        }
    }
    None
}

/// Process-wide default for [`RunConfig::max_cycles`] (the wedge
/// watchdog), installed by the bins' `--max_cycles N` flag. 0 = no bound.
static DEFAULT_MAX_CYCLES: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Set the default watchdog bound newly-built [`RunConfig`]s start with
/// (0 = unbounded).
pub fn set_default_max_cycles(n: u64) {
    DEFAULT_MAX_CYCLES.store(n, std::sync::atomic::Ordering::Relaxed);
}

/// The current default watchdog bound (`None` = unbounded).
pub fn default_max_cycles() -> Option<u64> {
    match DEFAULT_MAX_CYCLES.load(std::sync::atomic::Ordering::Relaxed) {
        0 => None,
        n => Some(n),
    }
}

/// Parse the `--max_cycles N` / `--max_cycles=N` flag (0 or absent = no
/// watchdog). With the default collecting sweeps, a configuration that
/// wedges (livelocks, or stalls forever under an injected fault) becomes
/// one attributable `ERR` cell instead of a hung process.
pub fn max_cycles_from_args() -> u64 {
    match flag_value_from_args("--max_cycles") {
        None => 0,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("--max_cycles requires a non-negative integer, got {v:?}")),
    }
}

/// Parse `--max_cycles` from the CLI and install it as the process default
/// — called by every harness bin via [`crate::init_from_args`].
pub fn set_max_cycles_from_args() {
    set_default_max_cycles(max_cycles_from_args());
}

/// Parse the `--jobs N` / `--jobs=N` / `-jN` sweep-parallelism flag from
/// the CLI (0 = auto: one host worker per CPU). Every harness bin threads
/// this into [`crate::sweep::set_jobs`]; it is a host-performance knob only
/// — simulated results are bit-identical for every value (see
/// [`crate::sweep`]).
pub fn jobs_from_args() -> usize {
    let parse = |v: &str| -> usize {
        v.parse()
            .unwrap_or_else(|_| panic!("--jobs requires a non-negative integer, got {v:?}"))
    };
    if let Some(v) = flag_value_from_args("--jobs") {
        return parse(&v);
    }
    // Short forms `-j N` / `-jN`, kept out of the shared helper (no other
    // flag has them).
    let args: Vec<String> = std::env::args().collect();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-j" {
            let v = it.next().expect("--jobs requires a value (0 = auto)");
            return parse(v);
        } else if let Some(v) = a.strip_prefix("-j") {
            return parse(v);
        }
    }
    0
}

impl RunConfig {
    /// Build the simulated machine for this run.
    pub fn machine_config(&self) -> MachineConfig {
        let mem_bytes = (self.leaky_worst_nodes() * 64).next_power_of_two().max(1 << 22);
        MachineConfig {
            cores: self.threads,
            smt: self.smt,
            cache: self.cache.clone(),
            latency: self.latency.clone(),
            mem_bytes,
            static_lines: 4096,
            quantum: self.quantum,
            sample_every: self.sample_every,
            uaf_mode: UafMode::Panic,
            ctx_switch: self.ctx_switch,
            exec: self.exec,
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
        assert_eq!(cfg.native_pool_lines(), 2 * cfg.prefill as usize + 2 * 32 * 3000 + 8193);
    }

    #[test]
    fn retired_flags_are_rejected_not_ignored() {
        let check = |a: &[&str], extra: &[&str]| {
            reject_unknown_flags(a.iter().map(|s| s.to_string()), extra)
        };
        for old in [
            &["fig1_lazylist", "--quick", "--gangs", "4"][..],
            &["fig1_lazylist", "--gangs=2"],
            &["fig1_lazylist", "--jobs", "4", "--l2_banks", "8"],
            &["fig1_lazylist", "--l2_banks=1"],
        ] {
            let err = check(old, &[]).expect_err("retired flag accepted");
            assert!(err.contains(GANGS_RETIRED), "{old:?}: {err}");
        }
        for (bad, offender) in [
            (&["fig1_lazylist", "--quik"][..], "`--quik`"),
            (&["fig1_lazylist", "--quick", "--job", "4"], "`--job`"),
            (&["fig1_lazylist", "--quick", "--recover"], "`--recover`"),
            (&["fig1_lazylist", "--quick=1"], "`--quick=1`"),
            (&["fig1_lazylist", "-jx"], "`-jx`"),
            (&["fig1_lazylist", "4"], "`4`"),
            (&["fig1_lazylist", "--quick", "--fail-fast"], "`--fail-fast`"),
        ] {
            let err = check(bad, &[]).expect_err("unknown argument accepted");
            assert!(err.contains(offender), "{bad:?}: {err}");
            assert!(err.contains("--quick --paper --jobs N"), "lists the accepted flags: {err}");
            assert!(!err.contains(GANGS_RETIRED), "{bad:?}: {err}");
        }
        for ok in [
            &["fig1_lazylist"][..],
            &["fig1_lazylist", "--quick", "--jobs", "4"],
            &["fig1_lazylist", "--paper", "--jobs=4", "--native", "--race_check"],
            &["fig1_lazylist", "-j4"],
            &["fig1_lazylist", "-j", "4"],
            &["fig1_lazylist", "--max_cycles", "10"],
            &["fig1_lazylist", "--max_cycles=10"],
        ] {
            assert_eq!(check(ok, &[]), Ok(vec![]), "{ok:?}");
        }
        assert_eq!(
            check(&["validate", "--min_agreement", "0.3", "--min_agreement=0.3"], &["--min_agreement X"]),
            Ok(vec![])
        );
        // `fig` declares positionals: they come back in order, flag values
        // are not mistaken for them, and flags are checked as everywhere.
        let fig = &["--recover", "FIGURE..."];
        assert_eq!(
            check(&["fig", "--quick", "fig_robustness", "--jobs", "4", "--recover", "fig9"], fig),
            Ok(vec!["fig_robustness".to_string(), "fig9".to_string()])
        );
        assert_eq!(check(&["fig", "--quick"], fig), Ok(vec![]));
        let err = check(&["fig", "all", "--quik"], fig).expect_err("unknown flag accepted");
        assert!(err.contains("`--quik`") && err.contains("FIGURE..."), "{err}");
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
