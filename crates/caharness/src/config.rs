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
    /// Intra-machine gangs (see `mcsim`'s gang scheduling): 1 = the classic
    /// single-turn scheduler (byte-identical to the pre-gang simulator);
    /// G > 1 runs one machine across G host threads with deterministic
    /// epoch barriers. Unlike `--jobs`, this *is* part of the simulated
    /// configuration: results are a pure function of
    /// `(program, seeds, quantum, gangs)` — deterministic for every fixed
    /// value, but different values are different (bounded-skew) schedules.
    pub gangs: usize,
    /// Gang epoch window W in cycles (bounds inter-gang skew and
    /// cross-gang event latency; see `mcsim`). Ignored at `gangs == 1`.
    pub gang_window: u64,
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
            cache: {
                let mut cache = CacheConfig::default();
                if default_l2_banks() > 0 {
                    cache.l2_banks = default_l2_banks();
                }
                cache
            },
            latency: LatencyModel::default(),
            sample_every: None,
            buckets: 128,
            ctx_switch: None,
            exec: ExecBackend::Auto,
            gangs: default_gangs(),
            gang_window: 4096,
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

/// Process-wide default for [`RunConfig::gangs`], installed by the bins'
/// `--gangs N` flag (mirrors the `--jobs` plumbing in [`crate::sweep`]).
/// 0 is not meaningful here: the default of the default is 1.
static DEFAULT_GANGS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);

/// Set the default gang count newly-built [`RunConfig`]s start with.
pub fn set_default_gangs(n: usize) {
    DEFAULT_GANGS.store(n.max(1), std::sync::atomic::Ordering::Relaxed);
}

/// The current default gang count.
pub fn default_gangs() -> usize {
    DEFAULT_GANGS.load(std::sync::atomic::Ordering::Relaxed).max(1)
}

/// Scan argv for a `<flag> N` / `<flag>=N` pair, returning the raw value.
/// Shared by every numeric CLI flag below so the parsing (and its
/// edge-case handling) lives in exactly one place.
fn flag_value_from_args(flag: &str) -> Option<String> {
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

/// [`flag_value_from_args`] + integer parse with a uniform error message.
fn usize_flag_from_args(flag: &str, default: usize) -> usize {
    match flag_value_from_args(flag) {
        None => default,
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("{flag} requires a non-negative integer, got {v:?}")),
    }
}

/// Parse the `--gangs N` / `--gangs=N` flag (default 1). Unlike `--jobs`
/// this changes the *simulated* schedule (deterministically per value); the
/// figure bins thread it through [`set_default_gangs`] so every cell of a
/// sweep runs its machine gang-scheduled.
pub fn gangs_from_args() -> usize {
    let n = usize_flag_from_args("--gangs", 1);
    assert!(n >= 1, "--gangs requires a positive integer, got 0");
    n
}

/// Parse `--gangs` from the CLI and install it as the process default —
/// the one-liner every harness bin calls next to
/// [`crate::sweep::set_jobs_from_args`].
pub fn set_gangs_from_args() {
    set_default_gangs(gangs_from_args());
}

/// Process-wide default for the L2/directory bank count
/// (`CacheConfig::l2_banks`), installed by the bins' `--l2_banks N` flag.
/// 0 = keep `CacheConfig`'s own default (8). Banking is exactly
/// set-preserving, so simulated results are bit-identical for every value;
/// the knob exists so figure regeneration exercises the banked gang merge
/// at several widths (and `--l2_banks 1` pins the flat directory).
static DEFAULT_L2_BANKS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);

/// Set the default L2 bank count newly-built [`RunConfig`]s start with
/// (0 = `CacheConfig` default).
pub fn set_default_l2_banks(n: usize) {
    DEFAULT_L2_BANKS.store(n, std::sync::atomic::Ordering::Relaxed);
}

/// The current default L2 bank count (0 = `CacheConfig` default).
pub fn default_l2_banks() -> usize {
    DEFAULT_L2_BANKS.load(std::sync::atomic::Ordering::Relaxed)
}

/// Parse the `--l2_banks N` / `--l2_banks=N` flag (0 or absent = the
/// `CacheConfig` default of 8).
pub fn l2_banks_from_args() -> usize {
    usize_flag_from_args("--l2_banks", 0)
}

/// Parse `--l2_banks` from the CLI and install it as the process default —
/// called by every harness bin next to [`set_gangs_from_args`].
pub fn set_l2_banks_from_args() {
    set_default_l2_banks(l2_banks_from_args());
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
/// — called by every harness bin next to [`set_gangs_from_args`].
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
        // Heap must fit the leaky worst case: prefill (×2 for the BST's
        // internal nodes) plus one node per op (×2 again), plus slack.
        let worst_nodes = 2 * self.prefill + 2 * self.ops_per_thread * self.threads as u64 + 4096;
        let mem_bytes = (worst_nodes * 64).next_power_of_two().max(1 << 22);
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
            gangs: self.gangs,
            gang_window: self.gang_window,
            fault_plan: self.fault_plan.clone(),
            max_cycles: self.max_cycles,
            race_check: self.race_check,
        }
    }

    /// Line-pool capacity for a native run of this config: the same leaky
    /// worst case [`Self::machine_config`] sizes the simulated heap for,
    /// plus the static-allocation budget and the reserved NULL line.
    pub fn native_pool_lines(&self) -> usize {
        let worst_nodes = 2 * self.prefill + 2 * self.ops_per_thread * self.threads as u64 + 4096;
        (worst_nodes + 4096 + 1) as usize
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
