//! The experiment runner: **one** entry point, [`run`], drives every
//! benchmarked [`Structure`] under every scheme, on either host — so
//! Conditional Access and the SMR baselines are always measured by the same
//! prefill and the same operation loop.
//!
//! What a run does beyond prefill + measured phase follows from what
//! [`RunConfig`] says; nothing is selected by function name or argument:
//!
//! * [`RunConfig::native`] picks the host: real threads over a
//!   [`casmr::NativeMachine`] instead of the simulator. Conditional Access,
//!   the CA-only structures and fault plans need the simulated machine and
//!   panic there (one `ERR` cell in a collecting sweep).
//! * [`RunConfig::fault_plan`] is disarmed for the prefill and armed for the
//!   measured phase; an injected crash is an outcome, not a panic; a
//!   restart in the plan brings the victim back to adopt its own wreck.
//! * [`RunConfig::race_check`] adds the happens-before [`mcsim::RaceReport`].
//! * [`RunConfig::history`] records each measured operation as a [`Timed`]
//!   [`Op`] in [`Outcome::history`], which [`Outcome::latency`] reads. An
//!   operation a crash interrupts is not recorded.
//!
//! The prefill and the operation step are written once per structure family
//! (`SetOps`, `StackOps`, `QueueOps`) against [`casmr::Env`] and
//! monomorphized by exactly two host shells, `run_sim` and `run_native`.

use cads::ca::{CaExtBst, CaHarrisList, CaLazyList, CaQueue, CaStack, FbCaLazyList};
use cads::htm::HtmLazyList;
use cads::smr::{SmrExtBst, SmrLazyList, SmrQueue, SmrStack};
use cads::{DsShared, HashTable, Op, QueueDs, SetDs, StackDs};
use casmr::{
    with_scheme, CrashToken, Env, GarbageStats, NativeEnv, NativeMachine, Orphan, SchemeKind, Smr,
    SmrBase, TlsVault,
};
use mcsim::machine::Ctx;
use mcsim::{Machine, MachineStats, RaceReport, Rng};

use crate::config::RunConfig;
use crate::hist::Histogram;
use crate::metrics::Metrics;

/// Which set structure to benchmark.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SetKind {
    /// Lazy linked list (Figure 1 top).
    LazyList,
    /// External BST (Figure 1 bottom).
    ExtBst,
    /// 128-bucket chaining hash table (Figure 2 top).
    HashTable,
}

impl SetKind {
    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            SetKind::LazyList => "lazylist",
            SetKind::ExtBst => "extbst",
            SetKind::HashTable => "hashtable",
        }
    }
}

/// Every structure the harness can drive.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Structure {
    /// One of the paper's three sets, under any scheme.
    Set(SetKind),
    /// Treiber stack (Figure 2 bottom); reads are `peek`. Any scheme.
    Stack,
    /// Michael–Scott queue (§IV-A). Any scheme; needs a 100%-update mix.
    Queue,
    /// Lock-free Conditional-Access Harris list (extension beyond the paper).
    Harris,
    /// Hand-over-hand **transactional** lazy list (the Zhou et al.
    /// comparator of §VI) with a `slots`-entry metadata version table. Like
    /// CA it reclaims immediately and needs no SMR scheme.
    HtmList {
        /// Metadata version-table entries.
        slots: usize,
    },
    /// The CA lazy list wrapped in the §IV fallback path: an operation that
    /// fails `max_attempts` times completes on the sequential path
    /// ([`Outcome::fallbacks`] counts those).
    FallbackList {
        /// Optimistic attempts before falling back.
        max_attempts: u64,
    },
}

impl Structure {
    /// Every structure, the parameterised ones at their `cads` defaults.
    pub const ALL: [Structure; 8] = [
        Structure::Set(SetKind::LazyList),
        Structure::Set(SetKind::ExtBst),
        Structure::Set(SetKind::HashTable),
        Structure::Stack,
        Structure::Queue,
        Structure::Harris,
        Structure::HtmList {
            slots: cads::htm::lazylist::DEFAULT_META_SLOTS,
        },
        Structure::FallbackList {
            max_attempts: cads::ca::fallback_list::DEFAULT_MAX_ATTEMPTS,
        },
    ];

    /// Figure label.
    pub fn name(self) -> &'static str {
        match self {
            Structure::Set(kind) => kind.name(),
            Structure::Stack => "stack",
            Structure::Queue => "queue",
            Structure::Harris => "harris",
            Structure::HtmList { .. } => "htmlist",
            Structure::FallbackList { .. } => "fallbacklist",
        }
    }

    /// Whether `scheme` applies. The paper's five structures exist under
    /// every scheme; the rest embody immediate reclamation (CA or HTM) and
    /// run only as `ca`.
    pub fn supports(self, scheme: SchemeKind) -> bool {
        matches!(
            self,
            Structure::Set(_) | Structure::Stack | Structure::Queue
        ) || scheme == SchemeKind::Ca
    }
}

/// One measured operation as [`RunConfig::history`] records it: the op with
/// its result, and [`Env::now`] just before and just after it (simulated
/// cycles, or wall nanoseconds natively).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Timed {
    /// What the operation did and returned.
    pub op: Op,
    /// The clock when it was invoked.
    pub invoke: u64,
    /// The clock when it responded.
    pub response: u64,
}

/// Recovery clocks per core, as reported by
/// [`mcsim::CoreOutcome::recovered`]: `Some((crash_clock, restart_clock))`
/// for cores that crashed and came back, `None` elsewhere.
pub type RecoveryClocks = Vec<Option<(u64, u64)>>;

/// Everything one [`run`] produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The measurement record, including the garbage and recovery counters
    /// folded from every worker that finished (or recovered).
    pub metrics: Metrics,
    /// Raw per-core machine statistics — the instrument behind the
    /// determinism tests (identical runs must produce identical per-core
    /// counters, not just identical aggregates). No cores for native runs.
    pub stats: MachineStats,
    /// Per-core recovery clocks (all `None` without restarts; empty natively).
    pub recovery: RecoveryClocks,
    /// Operations completed on the sequential fallback path
    /// ([`Structure::FallbackList`] only).
    pub fallbacks: u64,
    /// Every thread's measured operations in completion order, one list per
    /// thread in tid order ([`RunConfig::history`] only; empty otherwise).
    pub history: Vec<Vec<Timed>>,
    /// Happens-before analysis ([`RunConfig::race_check`] only).
    pub race: Option<RaceReport>,
}

/// The request, as every layer below [`run`] sees it.
#[derive(Copy, Clone)]
struct Job<'a> {
    scheme: SchemeKind,
    cfg: &'a RunConfig,
}

/// One structure family's workload, written once against any [`Env`]: how
/// to fill the structure and what one measured operation is.
trait Workload<E: Env>: DsShared {
    fn prefill(&self, env: &mut E, tls: &mut Self::Tls, rng: &mut Rng, cfg: &RunConfig);
    fn step(&self, env: &mut E, tls: &mut Self::Tls, rng: &mut Rng, cfg: &RunConfig) -> Op;
}

/// Family wrappers: a blanket `Workload` impl per `cads` trait would
/// overlap, a newtype per family does not.
macro_rules! family {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        struct $name<D>(D);

        impl<D: DsShared> DsShared for $name<D> {
            type Tls = D::Tls;

            fn register(&self, tid: usize) -> D::Tls {
                self.0.register(tid)
            }
        }
    };
}

family!(
    /// Sets: prefill to exactly `prefill` distinct keys; insert / delete /
    /// contains by the mix.
    SetOps
);
family!(
    /// Stacks: `prefill` pushes; push / pop / peek by the mix.
    StackOps
);
family!(
    /// Queues: `prefill` enqueues; enqueue / dequeue (no read operation).
    QueueOps
);

impl<E: Env, D: SetDs<E>> Workload<E> for SetOps<D> {
    fn prefill(&self, env: &mut E, tls: &mut D::Tls, rng: &mut Rng, cfg: &RunConfig) {
        assert!(
            cfg.prefill <= cfg.key_range,
            "cannot prefill {} distinct keys from a range of {}",
            cfg.prefill,
            cfg.key_range
        );
        // Exactly `prefill` elements with random keys (paper: 50%).
        let mut live = 0;
        while live < cfg.prefill {
            if self.0.insert(env, tls, 1 + rng.below(cfg.key_range)) {
                live += 1;
            }
        }
    }

    #[inline]
    fn step(&self, env: &mut E, tls: &mut D::Tls, rng: &mut Rng, cfg: &RunConfig) -> Op {
        let key = 1 + rng.below(cfg.key_range);
        let roll = rng.below(100);
        if roll < cfg.mix.insert_pct {
            Op::Insert(key, self.0.insert(env, tls, key))
        } else if roll < cfg.mix.updates() {
            Op::Delete(key, self.0.delete(env, tls, key))
        } else {
            Op::Contains(key, self.0.contains(env, tls, key))
        }
    }
}

impl<E: Env, D: StackDs<E>> Workload<E> for StackOps<D> {
    fn prefill(&self, env: &mut E, tls: &mut D::Tls, rng: &mut Rng, cfg: &RunConfig) {
        for _ in 0..cfg.prefill {
            self.0.push(env, tls, 1 + rng.below(cfg.key_range));
        }
    }

    #[inline]
    fn step(&self, env: &mut E, tls: &mut D::Tls, rng: &mut Rng, cfg: &RunConfig) -> Op {
        let roll = rng.below(100);
        if roll < cfg.mix.insert_pct {
            let v = 1 + rng.below(cfg.key_range);
            self.0.push(env, tls, v);
            Op::Push(v)
        } else if roll < cfg.mix.updates() {
            Op::Pop(self.0.pop(env, tls))
        } else {
            Op::Peek(self.0.peek(env, tls))
        }
    }
}

impl<E: Env, D: QueueDs<E>> Workload<E> for QueueOps<D> {
    fn prefill(&self, env: &mut E, tls: &mut D::Tls, rng: &mut Rng, cfg: &RunConfig) {
        for _ in 0..cfg.prefill {
            self.0.enqueue(env, tls, 1 + rng.below(cfg.key_range));
        }
    }

    #[inline]
    fn step(&self, env: &mut E, tls: &mut D::Tls, rng: &mut Rng, cfg: &RunConfig) -> Op {
        let roll = rng.below(100);
        if roll < cfg.mix.insert_pct {
            let v = 1 + rng.below(cfg.key_range);
            self.0.enqueue(env, tls, v);
            Op::Enqueue(v)
        } else {
            Op::Dequeue(self.0.dequeue(env, tls))
        }
    }
}

/// The single-threaded prefill both hosts run before resetting their clocks.
fn prefill<E: Env, W: Workload<E>>(w: &W, env: &mut E, cfg: &RunConfig) {
    let mut tls = w.register(0);
    let mut rng = Rng::new(cfg.thread_seed(usize::MAX));
    w.prefill(env, &mut tls, &mut rng, cfg);
}

/// One worker's state across the measured phase: thread-local reclamation
/// state, the workload RNG, the completed-op count (so a restarted core can
/// finish exactly its interrupted quota) and the op records.
struct Worker<T> {
    tls: T,
    rng: Rng,
    done: u64,
    history: Option<Vec<Timed>>,
}

impl<T> Worker<T> {
    fn new(tls: T, tid: usize, job: Job) -> Self {
        Worker {
            tls,
            rng: Rng::new(job.cfg.thread_seed(tid)),
            done: 0,
            history: job.cfg.history.then(Vec::new),
        }
    }

    /// The measured loop: run operations until this worker's quota is met.
    fn drive<E: Env, W: Workload<E, Tls = T>>(&mut self, w: &W, env: &mut E, cfg: &RunConfig) {
        while self.done < cfg.ops_per_thread {
            match &mut self.history {
                None => _ = w.step(env, &mut self.tls, &mut self.rng, cfg),
                Some(history) => {
                    let invoke = env.now();
                    let op = w.step(env, &mut self.tls, &mut self.rng, cfg);
                    let response = env.now();
                    history.push(Timed {
                        op,
                        invoke,
                        response,
                    });
                }
            }
            env.op_completed();
            self.done += 1;
        }
    }

    /// What this worker reports once its quota is met.
    fn probe(&mut self, garbage: GarbageStats) -> Probe {
        Probe {
            garbage,
            history: self.history.take(),
            ..Default::default()
        }
    }
}

/// Per-worker accounting, folded into the [`Outcome`] by [`Outcome::fold`].
#[derive(Default)]
struct Probe {
    garbage: GarbageStats,
    history: Option<Vec<Timed>>,
    orphans_detected: u64,
    adoptions: u64,
    adopted_bytes: u64,
    recovery_cycles: u64,
}

impl Outcome {
    /// Fold the finished workers' probes into the host's metrics.
    fn fold(
        mut metrics: Metrics,
        stats: MachineStats,
        recovery: RecoveryClocks,
        race: Option<RaceReport>,
        probes: impl Iterator<Item = Probe>,
    ) -> Outcome {
        let mut garbage = GarbageStats::default();
        let mut history = Vec::new();
        for p in probes {
            garbage.merge(&p.garbage);
            history.extend(p.history);
            metrics.orphans_detected += p.orphans_detected;
            metrics.adoptions += p.adoptions;
            metrics.adopted_bytes += p.adopted_bytes;
            metrics.recovery_cycles = metrics.recovery_cycles.max(p.recovery_cycles);
        }
        metrics.peak_garbage_bytes = garbage.peak_bytes();
        metrics.final_garbage_bytes = garbage.live_bytes();
        Outcome {
            metrics,
            stats,
            recovery,
            fallbacks: 0,
            history,
            race,
        }
    }

    /// Per-operation latency, `response - invoke` of every record in
    /// [`Self::history`]: the §I tail-latency claim's instrument. The
    /// records' [`Env::now`] reads are host-side, so the simulated run is
    /// identical to one without them.
    pub fn latency(&self) -> Histogram {
        assert!(
            !self.history.is_empty(),
            "Outcome::latency reads the per-op records: set RunConfig::history"
        );
        let mut hist = Histogram::new();
        for t in self.history.iter().flatten() {
            hist.record(t.response - t.invoke);
        }
        hist
    }
}

/// The simulator shell.
///
/// Every worker parks its [`Worker`] state in a [`casmr::TlsVault`] slot and
/// works through the held guard, so an injected crash unwinds out of the
/// closure, merely poisons the slot, and strands the state instead of
/// destroying it. A crashed core with no restart simply stops contributing
/// operations (its [`Outcome::history`] ends at its last completed one),
/// exactly like a thread that stalled forever (the two are indistinguishable
/// to the survivors). When a victim's restart trigger fires, its recovery
/// closure mints a [`casmr::CrashToken`] from the restart notice (safe: the
/// notice proves the simulator itself fail-stopped the core), takes the wreck
/// out of the vault, lets `rejoin` turn it into fresh thread-local state
/// (adopting the orphan, for schemes that have one), and finishes the
/// interrupted quota, appending to the same records. The vault, the probes
/// and the `catch_unwind` [`Machine::run_recover_on`] puts around each core's
/// body are host-side only: with an empty plan the simulated schedule is the
/// one [`Machine::run_on`] would produce.
///
/// Crash plans are a *measurement* only on nonblocking structures (the
/// queue, the stack): a victim that fail-stops while holding a node lock
/// wedges the lock-based sets' survivors, which the
/// [`RunConfig::max_cycles`] watchdog turns into an attributable panic.
/// Finite stalls are meaningful everywhere (the victim resumes and releases
/// its locks).
fn run_sim<W, G, J>(m: &Machine, w: &W, garbage: G, rejoin: J, job: Job) -> Outcome
where
    W: for<'m> Workload<Ctx<'m>>,
    G: Fn(&W::Tls) -> GarbageStats + Sync,
    J: Fn(&mut Ctx, usize, W::Tls, CrashToken) -> (W::Tls, Option<u64>) + Sync,
{
    let cfg = job.cfg;
    // Prefill with faults disarmed: a `crash at clock C` in the plan always
    // means "C cycles into the measured phase", never somewhere random
    // inside the (much longer, single-threaded) prefill.
    m.set_faults_armed(false);
    m.run_on(1, |_, ctx| prefill(w, ctx, cfg));
    m.reset_timing();
    m.set_faults_armed(true);

    let vault = TlsVault::new(cfg.threads);
    for tid in 0..cfg.threads {
        vault.put(tid, Worker::new(w.register(tid), tid, job));
    }
    let outs = m.run_recover_on(
        cfg.threads,
        |tid, ctx| {
            let mut slot = vault.lock(tid);
            let p = slot.as_mut().expect("worker state parked before the run");
            p.drive(w, ctx, cfg);
            p.probe(garbage(&p.tls))
        },
        |restart, ctx| {
            let tid = restart.core;
            let wreck = vault
                .take(tid)
                .expect("crashed worker parked its state before dying");
            let (tls, adopted) = rejoin(ctx, tid, wreck.tls, CrashToken::from_restart(restart));
            let mut p = Worker { tls, ..wreck };
            let recovery_cycles = ctx.now() - restart.crash_clock;
            p.drive(w, ctx, cfg);
            Probe {
                orphans_detected: 1,
                adoptions: adopted.is_some() as u64,
                adopted_bytes: adopted.unwrap_or(0),
                recovery_cycles,
                ..p.probe(garbage(&p.tls))
            }
        },
    );
    let stats = m.stats();
    Outcome::fold(
        Metrics::from_stats(
            job.scheme.name(),
            cfg.threads,
            &stats,
            m.footprint_samples(),
        ),
        stats,
        outs.iter().map(|o| o.recovered()).collect(),
        cfg.race_check.then(|| m.race_report()),
        // A core that crashed for good reports the records it completed.
        outs.into_iter().enumerate().map(|(tid, o)| {
            o.done().unwrap_or_else(|| Probe {
                history: vault.take(tid).and_then(|p| p.history),
                ..Default::default()
            })
        }),
    )
}

/// [`run_sim`] for the structures that reclaim immediately (CA, HTM): there
/// is no garbage to meter and nothing to adopt — they hold no per-thread
/// reclamation state, so a restarted core simply re-registers and finishes
/// its quota, and recovery latency is the restart gap itself.
fn run_sim_immediate<W: for<'m> Workload<Ctx<'m>>>(m: &Machine, w: &W, job: Job) -> Outcome {
    let rejoin = |_: &mut Ctx, tid, _, _| (w.register(tid), None);
    run_sim(m, w, |_| GarbageStats::default(), rejoin, job)
}

/// The host-thread shell: same prefill, same loop, same seeds as
/// [`run_sim`]; only the memory environment differs — so sim-vs-native
/// disagreement is attributable to the cost model, not the workload (the
/// premise of the `validate` bin). No fault plan reaches here.
fn run_native<W, G>(m: &mut NativeMachine, w: &W, garbage: G, job: Job) -> Outcome
where
    W: for<'p> Workload<NativeEnv<'p>>,
    G: Fn(&W::Tls) -> GarbageStats + Sync,
{
    let cfg = job.cfg;
    m.run_on(1, |_, env| prefill(w, env, cfg));
    m.reset_timing();
    let probes = m.run_on(cfg.threads, |tid, env| {
        let mut p = Worker::new(w.register(tid), tid, job);
        p.drive(w, env, cfg);
        p.probe(garbage(&p.tls))
    });
    Outcome::fold(
        Metrics::from_native(job.scheme.name(), cfg.threads, &m.stats()),
        MachineStats::default(),
        RecoveryClocks::new(),
        None,
        probes.into_iter(),
    )
}

/// Build the SMR variant of `$structure` over `$host` (either machine: the
/// SMR structures are `EnvHost`-generic) around the shared scheme `$sch`,
/// and run `$body` with it. **Adding an SMR structure is one arm here.**
macro_rules! with_smr_structure {
    ($host:expr, $cfg:expr, $structure:expr, $sch:expr, |$w:ident| $body:expr) => {
        match $structure {
            Structure::Set(SetKind::LazyList) => {
                let $w = SetOps(SmrLazyList::new($host, $sch));
                $body
            }
            Structure::Set(SetKind::ExtBst) => {
                let $w = SetOps(SmrExtBst::new($host, $sch));
                $body
            }
            Structure::Set(SetKind::HashTable) => {
                let $w = SetOps(HashTable::new($host, $cfg.buckets, |h| {
                    SmrLazyList::new(h, $sch)
                }));
                $body
            }
            Structure::Stack => {
                let $w = StackOps(SmrStack::new($host, $sch));
                $body
            }
            Structure::Queue => {
                let $w = QueueOps(SmrQueue::new($host, $sch));
                $body
            }
            other => unreachable!("{} takes no scheme (Structure::supports)", other.name()),
        }
    };
}

/// Panic (→ one `ERR` cell in a collecting sweep) when something that needs
/// the simulated machine is asked to execute natively.
fn reject_native(needs_sim: bool, what: &str) {
    assert!(
        !needs_sim,
        "{what} is simulator-only and cannot run with RunConfig::native \
         (Conditional Access, the CA/HTM-only structures and fault plans \
         need the simulated machine)"
    );
}

/// Run one experiment: build the machine `cfg` describes, build `structure`
/// under `scheme` on it, prefill, run the measured phase, and collect the
/// [`Outcome`]. See the module docs for what `cfg` implies.
pub fn run(structure: Structure, scheme: SchemeKind, cfg: &RunConfig) -> Outcome {
    assert!(
        structure.supports(scheme),
        "{} embodies immediate reclamation and runs only as `ca`, not `{scheme}`",
        structure.name()
    );
    if structure == Structure::Queue {
        assert_eq!(
            cfg.mix.updates(),
            100,
            "queues have no read operation: use an enqueue/dequeue-only mix"
        );
    }
    assert!(
        cfg.gangs == 1,
        "RunConfig::gangs = {}: {}",
        cfg.gangs,
        crate::config::GANGS_RETIRED
    );
    let job = Job { scheme, cfg };
    if cfg.native {
        // Only the structures that take an SMR scheme have a native build.
        reject_native(!structure.supports(SchemeKind::None), structure.name());
        assert!(
            scheme != SchemeKind::Ca,
            "Conditional Access needs the simulator's hardware primitive and \
             cannot run on the native environment"
        );
        reject_native(!cfg.fault_plan.is_empty(), "a fault plan");
        let mut m = NativeMachine::new(cfg.native_pool_lines());
        return with_scheme!(scheme, &m, cfg.threads, cfg.smr.clone(), |sch| {
            with_smr_structure!(&m, cfg, structure, &sch, |w| {
                run_native(&mut m, &w, |tls| sch.garbage(tls), job)
            })
        });
    }
    let m = Machine::new(cfg.machine_config());
    if scheme != SchemeKind::Ca {
        // The scheme object comes from `casmr::with_scheme!`, the one
        // enumeration of the constructors: a new scheme needs no edit here.
        return with_scheme!(scheme, &m, cfg.threads, cfg.smr.clone(), |sch| {
            with_smr_structure!(&m, cfg, structure, &sch, |w| {
                // Adopt the crash orphan: forcibly retract the victim's
                // stale publications, merge its retire backlog, scan.
                let rejoin = |ctx: &mut Ctx, tid, wreck, token| {
                    let inherited = sch.garbage(&wreck).live_bytes();
                    let mut tls = sch.join(ctx, tid);
                    sch.adopt(ctx, &mut tls, Orphan::crashed(wreck, token));
                    (tls, Some(inherited))
                };
                run_sim(&m, &w, |tls| sch.garbage(tls), rejoin, job)
            })
        });
    }
    match structure {
        Structure::Set(SetKind::LazyList) => {
            run_sim_immediate(&m, &SetOps(CaLazyList::new(&m)), job)
        }
        Structure::Set(SetKind::ExtBst) => run_sim_immediate(&m, &SetOps(CaExtBst::new(&m)), job),
        Structure::Set(SetKind::HashTable) => {
            let table = HashTable::new(&m, cfg.buckets, CaLazyList::new);
            run_sim_immediate(&m, &SetOps(table), job)
        }
        Structure::Stack => run_sim_immediate(&m, &StackOps(CaStack::new(&m)), job),
        Structure::Queue => run_sim_immediate(&m, &QueueOps(CaQueue::new(&m)), job),
        Structure::Harris => run_sim_immediate(&m, &SetOps(CaHarrisList::new(&m)), job),
        Structure::HtmList { slots } => {
            run_sim_immediate(&m, &SetOps(HtmLazyList::with_slots(&m, slots)), job)
        }
        Structure::FallbackList { max_attempts } => {
            let w = SetOps(FbCaLazyList::with_max_attempts(
                &m,
                cfg.threads,
                max_attempts,
            ));
            let mut out = run_sim_immediate(&m, &w, job);
            out.fallbacks = w.0.fallbacks_taken();
            out
        }
    }
}

// The five names the frozen `perfbench/` workspace calls; everything else
// goes through `run`.

/// [`run`] on a set, metrics only.
pub fn run_set(kind: SetKind, scheme: SchemeKind, cfg: &RunConfig) -> Metrics {
    run(Structure::Set(kind), scheme, cfg).metrics
}

/// [`run`] on the stack, metrics only.
pub fn run_stack(scheme: SchemeKind, cfg: &RunConfig) -> Metrics {
    run(Structure::Stack, scheme, cfg).metrics
}

/// [`run`] on the queue, metrics only.
pub fn run_queue(scheme: SchemeKind, cfg: &RunConfig) -> Metrics {
    run(Structure::Queue, scheme, cfg).metrics
}

/// [`run_set`] on real host threads whatever `cfg.native` says.
pub fn run_set_native(kind: SetKind, scheme: SchemeKind, cfg: &RunConfig) -> Metrics {
    let cfg = RunConfig {
        native: true,
        ..cfg.clone()
    };
    run_set(kind, scheme, &cfg)
}

/// [`run`] on a set with [`RunConfig::history`] set, metrics and
/// [`Outcome::latency`].
pub fn run_set_latency(kind: SetKind, scheme: SchemeKind, cfg: &RunConfig) -> (Metrics, Histogram) {
    let cfg = RunConfig {
        history: true,
        ..cfg.clone()
    };
    let out = run(Structure::Set(kind), scheme, &cfg);
    let hist = out.latency();
    (out.metrics, hist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mix;
    use mcsim::FaultPlan;

    const UPDATES: Mix = Mix {
        insert_pct: 50,
        delete_pct: 50,
    };

    fn tiny(threads: usize, mix: Mix) -> RunConfig {
        RunConfig {
            threads,
            key_range: 64,
            prefill: 32,
            ops_per_thread: 150,
            mix,
            ..Default::default()
        }
    }

    const LAZY: Structure = Structure::Set(SetKind::LazyList);

    fn plain(structure: Structure, scheme: SchemeKind, cfg: &RunConfig) -> Metrics {
        run(structure, scheme, cfg).metrics
    }

    #[test]
    fn every_supported_cell_runs() {
        for structure in Structure::ALL {
            for scheme in SchemeKind::ALL {
                if !structure.supports(scheme) {
                    continue;
                }
                let pct = match structure {
                    Structure::Set(SetKind::ExtBst) => 25,
                    Structure::Set(SetKind::HashTable) => 5,
                    Structure::Stack => 30,
                    _ => 50,
                };
                let mix = Mix {
                    insert_pct: pct,
                    delete_pct: pct,
                };
                let cfg = RunConfig {
                    buckets: 8,
                    ..tiny(2, mix)
                };
                let m = plain(structure, scheme, &cfg);
                assert_eq!(m.total_ops, 300, "{} {scheme}", structure.name());
                assert!(m.throughput > 0.0, "{} {scheme}", structure.name());
            }
        }
    }

    #[test]
    #[should_panic(expected = "runs only as `ca`")]
    fn ca_only_structures_reject_other_schemes() {
        plain(Structure::Harris, SchemeKind::Hp, &tiny(1, UPDATES));
    }

    #[test]
    fn runs_are_deterministic() {
        let cfg = tiny(3, UPDATES);
        let a = run(LAZY, SchemeKind::Ca, &cfg);
        let b = run(LAZY, SchemeKind::Ca, &cfg);
        assert_eq!(a.metrics.cycles, b.metrics.cycles);
        assert_eq!(a.metrics.final_allocated, b.metrics.final_allocated);
        assert_eq!(a.stats.sum(|c| c.cread_fail), b.stats.sum(|c| c.cread_fail));
    }

    #[test]
    fn ca_footprint_tracks_live_set_smr_does_not() {
        let ca = run_set(SetKind::LazyList, SchemeKind::Ca, &tiny(2, UPDATES));
        let none = run_set(SetKind::LazyList, SchemeKind::None, &tiny(2, UPDATES));
        assert!(
            ca.final_allocated <= 64,
            "CA keeps only live nodes (≤ key range), got {}",
            ca.final_allocated
        );
        assert!(
            none.final_allocated > ca.final_allocated,
            "leaky must hold strictly more ({} vs {})",
            none.final_allocated,
            ca.final_allocated
        );
    }

    #[test]
    #[should_panic(expected = "were retired in PR 18")]
    fn retired_gangs_field_is_rejected() {
        run_set(
            SetKind::LazyList,
            SchemeKind::Ca,
            &RunConfig {
                gangs: 2,
                ..tiny(2, UPDATES)
            },
        );
    }

    #[test]
    #[should_panic(expected = "no read operation")]
    fn queue_rejects_read_mixes() {
        run_queue(
            SchemeKind::Ca,
            &tiny(
                1,
                Mix {
                    insert_pct: 5,
                    delete_pct: 5,
                },
            ),
        );
    }

    // Without the range assert `while live < cfg.prefill` never ends; the one
    // prefill body must guard the instrumented and fault-plan runs too.
    fn overfull() -> RunConfig {
        RunConfig {
            key_range: 8,
            prefill: 9,
            ..tiny(1, UPDATES)
        }
    }

    #[test]
    #[should_panic(expected = "cannot prefill 9 distinct keys")]
    fn latency_run_rejects_an_impossible_prefill() {
        run_set_latency(SetKind::LazyList, SchemeKind::Ca, &overfull());
    }

    #[test]
    #[should_panic(expected = "cannot prefill 9 distinct keys")]
    fn native_run_rejects_an_impossible_prefill() {
        // The worker's own panic message, not a generic join failure.
        run_set(
            SetKind::LazyList,
            SchemeKind::Hp,
            &RunConfig {
                native: true,
                ..overfull()
            },
        );
    }

    #[test]
    #[should_panic(expected = "cannot prefill 9 distinct keys")]
    fn fault_plan_run_rejects_an_impossible_prefill() {
        let cfg = RunConfig {
            fault_plan: FaultPlan::none().stall(0, 2_000, 50_000),
            ..overfull()
        };
        run_set(SetKind::LazyList, SchemeKind::Qsbr, &cfg);
    }

    /// The per-op record lengths of `out`, in tid order.
    fn lens(out: &Outcome) -> Vec<usize> {
        out.history.iter().map(Vec::len).collect()
    }

    #[test]
    fn history_capture_is_free() {
        // The now() stamps are host-side: the simulated run must be
        // identical to an unrecorded one, with one record per operation.
        let cfg = tiny(2, UPDATES);
        let plain = run(LAZY, SchemeKind::Ca, &cfg);
        let cfg = RunConfig {
            history: true,
            ..cfg
        };
        let recorded = run(LAZY, SchemeKind::Ca, &cfg);
        let sim = |o: &Outcome| format!("{:?}", (&o.metrics, &o.stats));
        assert_eq!(sim(&plain), sim(&recorded), "recording must be free");
        assert!(plain.history.is_empty());
        assert_eq!(lens(&recorded), [150, 150]);
        let hist = recorded.latency();
        assert_eq!(hist.count(), recorded.metrics.total_ops);
        assert!(hist.quantile(0.5) > 0, "ops take nonzero simulated time");
        assert!(hist.max() >= hist.quantile(0.99));
    }

    #[test]
    fn history_capture_runs_natively() {
        // The stamps need only Env::now, so they work on real host threads.
        let cfg = RunConfig {
            native: true,
            history: true,
            ..tiny(2, UPDATES)
        };
        let out = run(LAZY, SchemeKind::Hp, &cfg);
        assert_eq!(lens(&out), [150, 150]);
        assert_eq!(out.latency().count(), 2 * 150);
        assert_eq!(out.metrics.total_ops, 2 * 150);
    }

    #[test]
    fn history_survives_a_crash_and_restart() {
        // The restarted core carries its records across the crash and the
        // op the crash interrupted is not recorded, so every tid holds
        // exactly its quota, in order; recording moves no simulated clock.
        let restart = RunConfig {
            fault_plan: FaultPlan::none().crash(3, 5_000).restart(3, 40_000),
            max_cycles: Some(100_000_000),
            smr: tight_smr(),
            ..tiny(4, UPDATES)
        };
        let sim = |o: &Outcome| format!("{:?}", (&o.metrics, &o.stats, &o.recovery));
        for scheme in [SchemeKind::Qsbr, SchemeKind::Ca] {
            let plain = run(Structure::Queue, scheme, &restart);
            let cfg = RunConfig {
                history: true,
                ..restart.clone()
            };
            let out = run(Structure::Queue, scheme, &cfg);
            assert_eq!(sim(&plain), sim(&out), "{scheme}: recording must be free");
            assert_eq!(lens(&out), [150; 4], "{scheme}");
            for (tid, records) in out.history.iter().enumerate() {
                assert!(records.iter().all(|t| t.invoke <= t.response), "{tid}");
                let ordered = records.windows(2).all(|w| w[0].response <= w[1].invoke);
                assert!(ordered, "{scheme} tid {tid}: records out of order");
            }
            let (_, restarted) = out.recovery[3].expect("core 3 came back");
            let last = out.history[3].last().expect("core 3 finished its quota");
            assert!(
                last.invoke >= restarted,
                "{scheme}: the quota ends after the restart"
            );
        }
        // Without the restart the victim keeps the records it completed.
        let cfg = RunConfig {
            fault_plan: FaultPlan::none().crash(3, 5_000),
            history: true,
            ..restart
        };
        let out = run(Structure::Queue, SchemeKind::Qsbr, &cfg);
        let lost = lens(&out);
        assert_eq!(lost[..3], [150; 3]);
        assert!(
            (1..150).contains(&lost[3]),
            "core 3 completed {} ops",
            lost[3]
        );
    }

    #[test]
    #[should_panic(expected = "a fault plan is simulator-only")]
    fn native_runs_reject_fault_plans() {
        let cfg = RunConfig {
            native: true,
            fault_plan: FaultPlan::none().crash(1, 5_000),
            ..tiny(2, UPDATES)
        };
        run_queue(SchemeKind::Qsbr, &cfg);
    }

    #[test]
    #[should_panic(expected = "needs the simulator's hardware primitive")]
    fn native_runs_reject_conditional_access() {
        run_set_native(SetKind::LazyList, SchemeKind::Ca, &tiny(2, UPDATES));
    }

    #[test]
    #[should_panic(expected = "htmlist is simulator-only")]
    fn native_runs_reject_ca_only_structures() {
        let cfg = RunConfig {
            native: true,
            ..tiny(2, UPDATES)
        };
        plain(Structure::HtmList { slots: 64 }, SchemeKind::Ca, &cfg);
    }

    #[test]
    fn htm_run_reports_transactions() {
        let cfg = tiny(2, UPDATES);
        let out = run(Structure::HtmList { slots: 64 }, SchemeKind::Ca, &cfg);
        let m = &out.metrics;
        assert_eq!(m.total_ops, 300);
        assert!(
            out.stats.sum(|c| c.tx_begins) > 0,
            "every op runs transactions"
        );
        assert!(m.throughput > 0.0);
        // Immediate reclamation: like CA, allocated tracks the live set.
        assert!(m.final_allocated <= 64);
    }

    #[test]
    fn fallback_run_roomy_geometry_never_falls_back() {
        let structure = Structure::FallbackList { max_attempts: 32 };
        let out = run(structure, SchemeKind::Ca, &tiny(2, UPDATES));
        assert_eq!(out.metrics.total_ops, 300);
        assert_eq!(out.fallbacks, 0);
    }

    #[test]
    fn an_unfired_fault_plan_changes_nothing_simulated() {
        // Arming, the vault and crash tolerance are host-side only: a plan
        // whose only trigger lies beyond the end of the run must leave the
        // simulated results identical to an empty plan's.
        let cfg = tiny(2, UPDATES);
        let empty = run_set(SetKind::LazyList, SchemeKind::Qsbr, &cfg);
        let unfired = run(
            LAZY,
            SchemeKind::Qsbr,
            &RunConfig {
                fault_plan: FaultPlan::none().crash(1, u64::MAX),
                ..cfg
            },
        );
        assert_eq!(unfired.stats.crashed, [false, false]);
        let unfired = unfired.metrics;
        assert_eq!(empty.cycles, unfired.cycles);
        assert_eq!(empty.total_ops, unfired.total_ops);
        assert_eq!(empty.peak_garbage_bytes, unfired.peak_garbage_bytes);
        assert!(empty.peak_garbage_bytes > 0, "qsbr holds a retire backlog");
    }

    #[test]
    fn queue_run_tolerates_an_injected_crash() {
        // The MS queue is lock-free, so a core fail-stopping mid-operation
        // cannot wedge the survivors (unlike the lock-based sets, where the
        // watchdog would fire instead — see run_sim's docs).
        let cfg = RunConfig {
            fault_plan: FaultPlan::none().crash(1, 5_000),
            max_cycles: Some(100_000_000),
            ..tiny(2, UPDATES)
        };
        let out = run(Structure::Queue, SchemeKind::Qsbr, &cfg);
        assert_eq!(out.stats.crashed, [false, true]);
        let m = out.metrics;
        assert!(
            m.total_ops < 300,
            "the crashed core must lose some of its ops, got {}",
            m.total_ops
        );
        assert!(m.throughput > 0.0, "the survivor keeps running");
    }

    #[test]
    fn set_run_rides_out_a_finite_stall() {
        // On the lock-based sets, crashes can wedge survivors, but a
        // *finite* stall always resolves: the victim resumes, releases its
        // locks, and the run completes with every op accounted for.
        // (tests/runner_pin.rs pins this cell's exact numbers.)
        let cfg = RunConfig {
            fault_plan: FaultPlan::none().stall(1, 2_000, 50_000),
            max_cycles: Some(100_000_000),
            ..tiny(2, UPDATES)
        };
        let out = run(LAZY, SchemeKind::Qsbr, &cfg);
        let m = &out.metrics;
        assert_eq!(out.stats.crashed, [false, false]);
        assert_eq!(m.total_ops, 300, "a finite stall loses no operations");
        assert_eq!(out.stats.sum(|c| c.fault_stalls), 1);
        assert!(m.cycles >= 50_000, "the stall window is on the clock");
    }

    fn tight_smr() -> casmr::SmrConfig {
        casmr::SmrConfig {
            reclaim_freq: 4,
            epoch_freq: 8,
        }
    }

    #[test]
    fn a_restart_adopts_and_completes_every_op() {
        // A crash+restart plan: the victim's restarted core certifies the
        // fail-stop, adopts its own orphan, and finishes the interrupted
        // quota — so unlike a crash-only plan, no operation is lost.
        let cfg = RunConfig {
            fault_plan: FaultPlan::none().crash(1, 5_000).restart(1, 40_000),
            max_cycles: Some(100_000_000),
            smr: tight_smr(),
            ..tiny(2, UPDATES)
        };
        let out = run(Structure::Queue, SchemeKind::Qsbr, &cfg);
        let m = &out.metrics;
        assert_eq!(m.total_ops, 300, "the restarted core finishes its quota");
        assert_eq!(m.orphans_detected, 1);
        assert_eq!(m.adoptions, 1);
        assert!(m.recovery_cycles > 0, "adoption takes simulated time");
        let (crash, restart) = out.recovery[1].expect("core 1 must recover");
        assert!(crash >= 5_000 && restart >= 40_000);
        assert_eq!(out.recovery[0], None);
        assert!(out.stats.crashed[1], "the crash trigger was consumed");
    }

    #[test]
    fn a_restart_on_ca_needs_no_adoption() {
        let cfg = RunConfig {
            fault_plan: FaultPlan::none().crash(1, 5_000).restart(1, 40_000),
            max_cycles: Some(100_000_000),
            ..tiny(2, UPDATES)
        };
        let m = run_queue(SchemeKind::Ca, &cfg);
        assert_eq!(m.total_ops, 300);
        assert_eq!(m.orphans_detected, 1, "the restart is still detected");
        assert_eq!(m.adoptions, 0, "CA holds no per-thread state to adopt");
        assert_eq!(m.adopted_bytes, 0);
    }

    #[test]
    fn an_unused_restart_changes_nothing_simulated() {
        // A restart for a core that never crashes arms the recovery path
        // without ever entering it: the simulated schedule must be
        // identical to the crash-only plan's.
        let crash_only = RunConfig {
            fault_plan: FaultPlan::none().crash(1, 5_000),
            max_cycles: Some(100_000_000),
            ..tiny(2, UPDATES)
        };
        let with_restart = RunConfig {
            fault_plan: FaultPlan::none().crash(1, 5_000).restart(0, 40_000),
            ..crash_only.clone()
        };
        let a = run_queue(SchemeKind::Qsbr, &crash_only);
        let b = run(Structure::Queue, SchemeKind::Qsbr, &with_restart);
        assert_eq!(b.stats.crashed, [false, true]);
        let b = b.metrics;
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(b.orphans_detected, 0, "nobody came back to adopt");
    }

    #[test]
    fn adoption_returns_the_pinned_backlog_under_the_healthy_bound() {
        // The PR-10 acceptance shape, at unit-test scale: a dead qsbr
        // reader pins every retire that follows; with a restart+adoption
        // the backlog is inherited and freed, without one it only grows.
        let base = RunConfig {
            max_cycles: Some(2_000_000_000),
            smr: tight_smr(),
            ..tiny(4, UPDATES)
        };
        let healthy = run_queue(SchemeKind::Qsbr, &base);
        let crashed = run_queue(
            SchemeKind::Qsbr,
            &RunConfig {
                fault_plan: FaultPlan::none().crash(3, 4_000),
                ..base.clone()
            },
        );
        let recovered = run_queue(
            SchemeKind::Qsbr,
            &RunConfig {
                fault_plan: FaultPlan::none().crash(3, 4_000).restart(3, 30_000),
                ..base.clone()
            },
        );
        assert!(
            crashed.final_garbage_bytes > 4 * healthy.final_garbage_bytes.max(64),
            "a dead reader must blow up the survivors' backlog ({} vs {})",
            crashed.final_garbage_bytes,
            healthy.final_garbage_bytes
        );
        assert!(
            recovered.final_garbage_bytes <= healthy.final_garbage_bytes.max(64 * 64),
            "adoption must return the backlog under the healthy bound ({} vs {})",
            recovered.final_garbage_bytes,
            healthy.final_garbage_bytes
        );
        assert!(recovered.adopted_bytes > 0, "the orphan held a backlog");
    }

    #[test]
    fn smt_config_drives_sibling_revokes() {
        let cfg = RunConfig {
            smt: 2,
            ..tiny(4, UPDATES)
        };
        let out = run(LAZY, SchemeKind::Ca, &cfg);
        assert_eq!(out.metrics.total_ops, 600);
        assert!(
            out.stats.sum(|c| c.revoke_sibling) > 0,
            "2 hyperthreads per core must conflict somewhere in 600 ops"
        );
    }

    #[test]
    fn mesi_config_reports_e_grants() {
        use mcsim::coherence::Protocol;
        // Working set (1024 nodes) larger than the 512-line L1, single
        // thread: read misses with no other holder are guaranteed, and MESI
        // must grant them Exclusive.
        let cfg = RunConfig {
            threads: 1,
            key_range: 2048,
            prefill: 1024,
            ops_per_thread: 150,
            mix: UPDATES,
            cache: mcsim::CacheConfig {
                protocol: Protocol::Mesi,
                ..Default::default()
            },
            ..Default::default()
        };
        let out = run(LAZY, SchemeKind::Ca, &cfg);
        assert!(
            out.stats.sum(|c| c.e_grants) > 0,
            "MESI runs must grant Exclusive lines"
        );
    }
}
