//! Shared scaffolding for the integration tests: the machine shape, the one
//! differential battery and the golden-file helpers.
//!
//! The battery is the evidence behind the paper's safety claim: every
//! scheme, and Conditional Access, runs one randomized workload whose op
//! stream is a pure function of `(seed, tid)`, so its histories can be held
//! to the leaky oracle's (one thread) and its results to exact conservation
//! (many threads). Its pieces, each written once:
//!
//! * [`digest_op`] — one logged operation ([`Op`]) into a golden digest;
//! * [`Family::op`] — one draw from a thread's stream applied to a set
//!   ([`Sets`]), stack ([`Stacks`]) or queue ([`Queues`]), generic over
//!   `casmr::Env`, so the same body runs on the simulator and on real host
//!   threads;
//! * [`histories`] — the per-thread log loop, on any [`Host`];
//! * [`Drain::drain`] — a stack's or queue's final contents, through its
//!   own removals;
//! * [`check_set_accounting`] and [`check_flow`] — the two conservation
//!   checks;
//! * [`battery`] — the structure × scheme dispatch on the simulator.
#![allow(dead_code)] // each test binary uses a different subset

use std::collections::{BTreeMap, BTreeSet};

use conditional_access::ds::ca::{CaExtBst, CaLazyList, CaQueue, CaStack};
use conditional_access::ds::seqcheck::{walk_bst, walk_list};
use conditional_access::ds::smr::{SmrExtBst, SmrLazyList, SmrQueue, SmrStack};
use conditional_access::ds::{DsShared, HashTable, Op, QueueDs, SetDs, StackDs};
use conditional_access::sim::machine::Ctx;
use conditional_access::sim::{Machine, MachineConfig, MachineStats, Rng, UafMode};
use conditional_access::smr::{with_scheme, Env, NativeEnv, NativeMachine, SchemeKind, SmrConfig};

/// The integration tests' machine shape: 32 MiB of memory, 2048 static
/// lines, everything else at its default.
pub fn config(cores: usize) -> MachineConfig {
    MachineConfig {
        cores,
        mem_bytes: 32 << 20,
        static_lines: 2048,
        ..Default::default()
    }
}

/// A machine sized for integration stress tests, at lookahead `quantum`.
pub fn machine(cores: usize, quantum: u64) -> Machine {
    Machine::new(MachineConfig {
        quantum,
        ..config(cores)
    })
}

/// The differential battery's machine: default quantum, and `uaf` as the
/// use-after-free policy (`Record` lets a run count its faults).
pub fn battery_machine(cores: usize, uaf: UafMode) -> Machine {
    Machine::new(MachineConfig {
        uaf_mode: uaf,
        ..config(cores)
    })
}

/// Aggressive reclamation frequencies: more reclamation events, more
/// chances for a protection hole to surface as a UAF fault or a history
/// divergence.
pub fn tight_smr() -> SmrConfig {
    SmrConfig {
        reclaim_freq: 4,
        epoch_freq: 6,
    }
}

// --- the battery ------------------------------------------------------------

/// Hash the words `tests/goldens/env_pin.txt` was recorded from: a set op
/// as `(kind, key, ok)`, a stack or queue op as `(kind, value)` with a
/// removal's value stored `+ 1` (0 = empty); kinds count from 0 in
/// declaration order within the family.
pub fn digest_op(op: Op, d: &mut Digest) {
    let took = |v: Option<u64>| v.map_or(0, |v| v + 1);
    let (kind, value, ok) = match op {
        Op::Insert(k, ok) => (0, k, Some(ok)),
        Op::Delete(k, ok) => (1, k, Some(ok)),
        Op::Contains(k, ok) => (2, k, Some(ok)),
        Op::Push(v) | Op::Enqueue(v) => (0, v, None),
        Op::Pop(v) | Op::Dequeue(v) => (1, took(v), None),
        Op::Peek(v) => (2, took(v), None),
    };
    d.u64(kind);
    d.u64(value);
    if let Some(ok) = ok {
        d.u64(ok as u64);
    }
}

/// Thread `tid`'s op stream under `seed`.
pub fn thread_rng(seed: u64, tid: usize) -> Rng {
    Rng::new(seed ^ ((tid as u64) << 32))
}

/// A structure family as the battery drives it.
pub trait Family<E: Env + ?Sized>: DsShared {
    /// Draw one operation from `rng` (keys and values from `1..=range`) and
    /// apply it.
    fn op(&self, env: &mut E, tls: &mut Self::Tls, rng: &mut Rng, range: u64) -> Op;
}

/// A stack or queue family: its contents come out through its own removals.
pub trait Drain<E: Env + ?Sized>: Family<E> {
    /// Remove until empty; the values in removal order.
    fn drain(&self, env: &mut E, tls: &mut Self::Tls) -> Vec<u64>;
}

/// A set, driven as the battery's set family.
pub struct Sets<'a, D>(pub &'a D);
/// A stack, driven as the battery's stack family.
pub struct Stacks<'a, D>(pub &'a D);
/// A queue, driven as the battery's queue family.
pub struct Queues<'a, D>(pub &'a D);

macro_rules! family_shares_tls {
    ($($wrapper:ident),*) => {$(
        impl<D: DsShared> DsShared for $wrapper<'_, D> {
            type Tls = D::Tls;

            fn register(&self, tid: usize) -> D::Tls {
                self.0.register(tid)
            }
        }
    )*};
}
family_shares_tls!(Sets, Stacks, Queues);

impl<E: Env + ?Sized, D: SetDs<E>> Family<E> for Sets<'_, D> {
    /// The key first, then insert, delete or contains from `below(3)`.
    fn op(&self, env: &mut E, tls: &mut D::Tls, rng: &mut Rng, range: u64) -> Op {
        let key = 1 + rng.below(range);
        match rng.below(3) {
            0 => Op::Insert(key, self.0.insert(env, tls, key)),
            1 => Op::Delete(key, self.0.delete(env, tls, key)),
            _ => Op::Contains(key, self.0.contains(env, tls, key)),
        }
    }
}

impl<E: Env + ?Sized, D: StackDs<E>> Family<E> for Stacks<'_, D> {
    /// Push, pop or peek from `below(3)`; a push then draws its value.
    fn op(&self, env: &mut E, tls: &mut D::Tls, rng: &mut Rng, range: u64) -> Op {
        match rng.below(3) {
            0 => {
                let v = 1 + rng.below(range);
                self.0.push(env, tls, v);
                Op::Push(v)
            }
            1 => Op::Pop(self.0.pop(env, tls)),
            _ => Op::Peek(self.0.peek(env, tls)),
        }
    }
}

impl<E: Env + ?Sized, D: StackDs<E>> Drain<E> for Stacks<'_, D> {
    fn drain(&self, env: &mut E, tls: &mut D::Tls) -> Vec<u64> {
        std::iter::from_fn(|| self.0.pop(env, tls)).collect()
    }
}

impl<E: Env + ?Sized, D: QueueDs<E>> Family<E> for Queues<'_, D> {
    /// Enqueue or dequeue from `below(2)`; an enqueue then draws its value.
    fn op(&self, env: &mut E, tls: &mut D::Tls, rng: &mut Rng, range: u64) -> Op {
        if rng.below(2) == 0 {
            let v = 1 + rng.below(range);
            self.0.enqueue(env, tls, v);
            Op::Enqueue(v)
        } else {
            Op::Dequeue(self.0.dequeue(env, tls))
        }
    }
}

impl<E: Env + ?Sized, D: QueueDs<E>> Drain<E> for Queues<'_, D> {
    fn drain(&self, env: &mut E, tls: &mut D::Tls) -> Vec<u64> {
        std::iter::from_fn(|| self.0.dequeue(env, tls)).collect()
    }
}

/// A backend the battery runs threads on: the simulator or the host.
pub trait Host {
    /// The per-thread environment.
    type Env<'h>: Env;

    /// Run `f` on `threads` threads; results in thread order.
    fn run_threads<R: Send>(
        &self,
        threads: usize,
        f: impl Fn(usize, &mut Self::Env<'_>) -> R + Sync,
    ) -> Vec<R>;
}

impl Host for Machine {
    type Env<'h> = Ctx<'h>;

    fn run_threads<R: Send>(
        &self,
        threads: usize,
        f: impl Fn(usize, &mut Ctx<'_>) -> R + Sync,
    ) -> Vec<R> {
        self.run_on(threads, f)
    }
}

impl Host for NativeMachine {
    type Env<'h> = NativeEnv<'h>;

    fn run_threads<R: Send>(
        &self,
        threads: usize,
        f: impl Fn(usize, &mut NativeEnv<'_>) -> R + Sync,
    ) -> Vec<R> {
        self.run_on(threads, f)
    }
}

/// Run `ops` operations of `fam` on each of `threads` threads, each thread
/// drawing from [`thread_rng`]; one op log per thread.
pub fn histories<H, F>(
    host: &H,
    fam: &F,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
) -> Vec<Vec<Op>>
where
    H: Host,
    F: for<'h> Family<H::Env<'h>>,
{
    host.run_threads(threads, |tid, env| {
        let mut tls = fam.register(tid);
        let mut rng = thread_rng(seed, tid);
        (0..ops)
            .map(|_| fam.op(env, &mut tls, &mut rng, range))
            .collect()
    })
}

/// Stack and queue value flow: every value the history added was removed by
/// it or is in `contents` (the drain), as multisets — values may repeat.
pub fn check_flow(what: &str, history: &[Vec<Op>], contents: &[u64]) {
    let mut net: BTreeMap<u64, i64> = BTreeMap::new();
    for &op in history.iter().flatten() {
        if let Some(v) = op.added() {
            *net.entry(v).or_default() += 1;
        }
        if let Some(v) = op.removed() {
            *net.entry(v).or_default() -= 1;
        }
    }
    for &v in contents {
        *net.entry(v).or_default() -= 1;
    }
    for (v, n) in net {
        assert_eq!(
            n, 0,
            "{what}: {v} added {n} more times than removed or left"
        );
    }
}

/// Set accounting: the value flow of a structure that holds each key at
/// most once, so every key nets 0 or 1 successful inserts over deletes and
/// is in `contents` exactly when it nets 1.
pub fn check_set_accounting(what: &str, history: &[Vec<Op>], contents: &[u64]) {
    let distinct: BTreeSet<u64> = contents.iter().copied().collect();
    assert_eq!(
        distinct.len(),
        contents.len(),
        "{what}: duplicate keys in the structure"
    );
    check_flow(what, history, contents);
}

/// No value was added twice, so [`check_flow`] tracks every node alone (run
/// the cell at `range = 1 << 40` to make that so).
pub fn check_distinct_adds(what: &str, history: &[Vec<Op>]) {
    let mut seen = BTreeSet::new();
    for v in history.iter().flatten().filter_map(|op| op.added()) {
        assert!(
            seen.insert(v),
            "{what}: value {v} added twice; widen the range"
        );
    }
}

/// One battery cell's results.
pub struct Cell {
    /// `structure scheme tT seed`, for assertion messages.
    pub label: String,
    /// One op log per thread.
    pub history: Vec<Vec<Op>>,
    /// A set's sorted keys, a stack's or queue's drain order.
    pub contents: Vec<u64>,
    /// Use-after-free faults the machine recorded.
    pub faults: usize,
    /// The machine's statistics after the run and the drain.
    pub stats: MachineStats,
}

impl Cell {
    /// The conservation check of the cell's family: set accounting for a
    /// set, value flow for a stack or queue.
    pub fn check_conservation(&self) {
        if self.history.iter().flatten().any(|op| op.on_a_set()) {
            check_set_accounting(&self.label, &self.history, &self.contents);
        } else {
            check_flow(&self.label, &self.history, &self.contents);
        }
    }
}

/// Buckets of the battery's hash table.
const TABLE_BUCKETS: usize = 8;

/// A hash table's keys: every bucket's walk, sorted.
fn table_keys<B>(table: &HashTable<B>, walk: impl Fn(&B) -> Vec<u64>) -> Vec<u64> {
    let mut keys: Vec<u64> = table.buckets().iter().flat_map(walk).collect();
    keys.sort_unstable();
    keys
}

/// Run `ds` as a set on the simulator, then read its contents with `walk`.
fn set_cell<D: for<'m> SetDs<Ctx<'m>>>(
    m: &Machine,
    ds: &D,
    load: (usize, u64, u64, u64),
    walk: impl FnOnce(&D) -> Vec<u64>,
) -> (Vec<Vec<Op>>, Vec<u64>) {
    let (threads, ops, range, seed) = load;
    let history = histories(m, &Sets(ds), threads, ops, range, seed);
    (history, walk(ds))
}

/// Run `fam` on the simulator, then drain it on one thread.
fn drained_cell<F: for<'m> Drain<Ctx<'m>>>(
    m: &Machine,
    fam: &F,
    load: (usize, u64, u64, u64),
) -> (Vec<Vec<Op>>, Vec<u64>) {
    let (threads, ops, range, seed) = load;
    let history = histories(m, fam, threads, ops, range, seed);
    let drained = m
        .run_on(1, |_, ctx| fam.drain(ctx, &mut fam.register(0)))
        .pop();
    (history, drained.expect("one drain thread"))
}

/// One battery cell on `m`: `structure` (`lazylist`, `extbst`, `hashtable`,
/// `stack` or `queue`) under `scheme` (SMR schemes at [`tight_smr`]; the
/// table's buckets share one scheme object), `threads × ops` operations
/// over `1..=range` from `seed`, then the final contents.
pub fn battery(
    m: &Machine,
    structure: &str,
    scheme: SchemeKind,
    threads: usize,
    ops: u64,
    range: u64,
    seed: u64,
) -> Cell {
    let load = (threads, ops, range, seed);
    let (history, contents) = match (structure, scheme) {
        ("lazylist", SchemeKind::Ca) => set_cell(m, &CaLazyList::new(m), load, |ds| {
            walk_list(m, ds.head_node())
        }),
        ("lazylist", _) => with_scheme!(scheme, m, threads, tight_smr(), |s| {
            set_cell(m, &SmrLazyList::new(m, s), load, |ds| {
                walk_list(m, ds.head_node())
            })
        }),
        ("extbst", SchemeKind::Ca) => {
            set_cell(m, &CaExtBst::new(m), load, |ds| walk_bst(m, ds.root_node()))
        }
        ("extbst", _) => with_scheme!(scheme, m, threads, tight_smr(), |s| {
            set_cell(m, &SmrExtBst::new(m, s), load, |ds| {
                walk_bst(m, ds.root_node())
            })
        }),
        ("hashtable", SchemeKind::Ca) => {
            let ds = HashTable::new(m, TABLE_BUCKETS, CaLazyList::new);
            set_cell(m, &ds, load, |ds| {
                table_keys(ds, |b| walk_list(m, b.head_node()))
            })
        }
        ("hashtable", _) => with_scheme!(scheme, m, threads, tight_smr(), |s| {
            let ds = HashTable::new(m, TABLE_BUCKETS, |m| SmrLazyList::new(m, &s));
            set_cell(m, &ds, load, |ds| {
                table_keys(ds, |b| walk_list(m, b.head_node()))
            })
        }),
        ("stack", SchemeKind::Ca) => drained_cell(m, &Stacks(&CaStack::new(m)), load),
        ("stack", _) => with_scheme!(scheme, m, threads, tight_smr(), |s| {
            drained_cell(m, &Stacks(&SmrStack::new(m, s)), load)
        }),
        ("queue", SchemeKind::Ca) => drained_cell(m, &Queues(&CaQueue::new(m)), load),
        ("queue", _) => with_scheme!(scheme, m, threads, tight_smr(), |s| {
            drained_cell(m, &Queues(&SmrQueue::new(m, s)), load)
        }),
        _ => unreachable!("unknown structure {structure}"),
    };
    Cell {
        label: format!("{structure} {scheme} t{threads} seed {seed:#x}"),
        history,
        contents,
        faults: m.faults().len(),
        stats: m.stats(),
    }
}

// --- goldens ----------------------------------------------------------------

/// FNV-1a, the simplest stable hash that fits in a golden line.
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn slice(&mut self, vs: &[u64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v);
        }
    }

    /// The digest of one whole string.
    pub fn of(s: &str) -> u64 {
        let mut d = Digest::new();
        d.bytes(s.as_bytes());
        d.0
    }
}

fn golden_path(file: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(file)
}

/// The checked-in `tests/goldens/<file>`.
pub fn golden(file: &str) -> String {
    let path = golden_path(file);
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate with MCSIM_WRITE_GOLDENS=1",
            path.display()
        )
    })
}

/// Hold `rendered` (one `label = value` per line) to `tests/goldens/<file>`,
/// or write the file when `MCSIM_WRITE_GOLDENS` is set. `what` says what a
/// divergence means, for the panic message.
#[expect(
    clippy::disallowed_methods,
    reason = "MCSIM_WRITE_GOLDENS is the documented regenerate switch of every golden"
)]
pub fn check_golden(file: &str, rendered: &str, what: &str) {
    if std::env::var_os("MCSIM_WRITE_GOLDENS").is_some() {
        let path = golden_path(file);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!(
            "[goldens] wrote {} lines to {}",
            rendered.lines().count(),
            path.display()
        );
        return;
    }
    let golden = golden(file);
    if rendered != golden {
        let mismatches: Vec<&str> = rendered
            .lines()
            .zip(golden.lines())
            .filter(|(a, b)| a != b)
            .map(|(a, _)| a)
            .collect();
        panic!(
            "{what} ({} of {} lines differ, golden has {}):\n{}",
            mismatches.len(),
            rendered.lines().count(),
            golden.lines().count(),
            mismatches.join("\n")
        );
    }
}
