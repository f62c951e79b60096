//! Differential battery: the typed event lane against the reified
//! `exec_op` replay.
//!
//! `Ctx`'s architectural operations execute as statically typed events;
//! the gang conductor, the merge lanes and the `hb` trace use the reified
//! `Op`/`Out` form, replayed by `exec_op`/`exec_bank_op`, which delegate arm
//! by arm to the typed bodies. This battery pins that the two are the same
//! machine: twin machines run the same seeded random program — every op
//! kind, transactions, allocator churn, deliberate use-after-free probes
//! under `UafMode::Record` — one through the typed methods (`ctx.read(a)`),
//! one through `Ctx::issue_reified(Op::Read(a))`, and must agree on every
//! event's output, every event's completion clock (hence its cost,
//! including injected stalls and preemptions), per-core `CoreStats`, the
//! allocator ledger, recorded faults, final memory, crash verdicts and the
//! race analyzer's raw trace. A typed body and its delegate arm — or an
//! `Event::op` / `OutVal` mapping — that ever diverge fail here.
//!
//! The grid: 1–8 cores × MSI/MESI × smt 1/2 × quantum 0/64 × `race_check`
//! off/on × no faults / a `FaultPlan` (stall + crash + allocation pressure,
//! plus the periodic preemption model), on both execution backends, over a
//! small cache geometry so evictions, back-invalidations and upgrades (the
//! out-of-line miss transitions) are as common as hits.

use std::sync::Mutex;

use mcsim::coherence::Protocol;
use mcsim::{
    Addr, CacheConfig, CoreOutcome, Ctx, ExecBackend, FaultPlan, Machine, MachineConfig, Op, Out,
    Rng, UafMode, LINE_BYTES,
};

const STATIC_LINES: u64 = 6;
const STEPS: usize = 260;

#[derive(Copy, Clone, Debug)]
struct Cell {
    cores: usize,
    protocol: Protocol,
    smt: usize,
    quantum: u64,
    race_check: bool,
    faults: bool,
    exec: ExecBackend,
}

fn machine(cell: Cell) -> Machine {
    let fault_plan = if cell.faults {
        FaultPlan::none()
            .stall(0, 400, 3_000)
            .crash(cell.cores - 1, 1_500)
            .alloc_pressure(10)
    } else {
        FaultPlan::none()
    };
    Machine::new(MachineConfig {
        cores: cell.cores,
        smt: cell.smt,
        cache: CacheConfig {
            l1_bytes: 1024,
            l1_assoc: 2,
            l2_bytes: 4096,
            l2_assoc: 2,
            l2_banks: 2,
            protocol: cell.protocol,
        },
        mem_bytes: 1 << 18,
        static_lines: 16,
        quantum: cell.quantum,
        uaf_mode: UafMode::Record,
        ctx_switch: cell.faults.then_some((900, 40)),
        exec: cell.exec,
        fault_plan,
        max_cycles: cell.faults.then_some(50_000_000),
        race_check: cell.race_check,
        ..Default::default()
    })
}

/// One core's random program. Its choices depend only on the seed and on
/// the outputs it has observed, so the twins generate the same stream for
/// as long as they agree (and the first disagreement fails the test).
struct Prog {
    rng: Rng,
    statics: Addr,
    held: Vec<Addr>,
    stale: Vec<Addr>,
    race_check: bool,
}

enum Step {
    Tick(u64),
    Issue(Op),
}

impl Prog {
    fn shared(&mut self) -> Addr {
        let line = self.rng.below(STATIC_LINES);
        let word = self.rng.below(LINE_BYTES / 8);
        Addr(self.statics.0 + line * LINE_BYTES + word * 8)
    }

    /// A shared static word, one of this core's live nodes, or — rarely —
    /// a node it has already freed (the use-after-free probe).
    fn target(&mut self) -> Addr {
        match self.rng.below(10) {
            0..=5 => self.shared(),
            6..=8 if !self.held.is_empty() => {
                self.held[self.rng.below(self.held.len() as u64) as usize]
            }
            9 if !self.stale.is_empty() => {
                self.stale[self.rng.below(self.stale.len() as u64) as usize]
            }
            _ => self.shared(),
        }
    }

    fn next(&mut self, in_tx: bool) -> Step {
        if in_tx {
            return Step::Issue(match self.rng.below(8) {
                0..=2 => Op::TxRead(self.shared()),
                3..=4 => Op::TxWrite(self.shared(), self.rng.next_u64()),
                5..=6 => Op::TxCommit,
                _ => Op::TxAbort,
            });
        }
        Step::Issue(match self.rng.below(22) {
            0..=3 => Op::Read(self.target()),
            4..=6 => Op::Write(self.target(), self.rng.next_u64()),
            7..=8 => {
                // Small value domain so both CAS outcomes occur.
                let a = self.shared();
                Op::Cas(a, self.rng.below(3), self.rng.below(3))
            }
            9..=11 => Op::Cread(self.target()),
            12..=13 => Op::Cwrite(self.target(), self.rng.below(3)),
            14 => Op::UntagOne(self.target()),
            15 => Op::UntagAll,
            16 => Op::Fence,
            17 if self.race_check => Op::SmrFence,
            17 => return Step::Tick(self.rng.below(40)),
            18 if self.held.len() < 3 => Op::Alloc,
            18 | 19 if !self.held.is_empty() => {
                let i = self.rng.below(self.held.len() as u64) as usize;
                Op::Free(self.held[i])
            }
            19 => Op::Alloc,
            20 => Op::TxBegin,
            _ => Op::OpCompleted,
        })
    }

    fn observe(&mut self, op: Op, out: Out) {
        match (op, out) {
            (Op::Alloc, Out::A(a)) if a != Addr::NULL => {
                // The allocator reuses addresses immediately: a line handed
                // out again is live, not stale.
                self.stale.retain(|&s| s != a);
                self.held.push(a);
            }
            (Op::Free(a), _) => {
                self.held.retain(|&h| h != a);
                self.stale.push(a);
            }
            _ => {}
        }
    }
}

/// The typed lane: each `Op` through the `Ctx` method programs call.
fn issue_typed(ctx: &mut Ctx, op: Op) -> Out {
    match op {
        Op::Read(a) => Out::Val(ctx.read(a)),
        Op::Write(a, v) => {
            ctx.write(a, v);
            Out::Unit
        }
        Op::Cas(a, expected, new) => Out::CasR(ctx.cas(a, expected, new)),
        Op::Fence => {
            ctx.fence();
            Out::Unit
        }
        Op::SmrFence => {
            ctx.smr_fence();
            Out::Unit
        }
        Op::Cread(a) => Out::Opt(ctx.cread(a)),
        Op::Cwrite(a, v) => Out::Flag(ctx.cwrite(a, v)),
        Op::UntagOne(a) => {
            ctx.untag_one(a);
            Out::Unit
        }
        Op::UntagAll => {
            ctx.untag_all();
            Out::Unit
        }
        Op::Alloc => Out::A(ctx.try_alloc().unwrap_or(Addr::NULL)),
        Op::Free(a) => {
            ctx.free(a);
            Out::Unit
        }
        Op::TxBegin => {
            ctx.tx_begin();
            Out::Unit
        }
        Op::TxRead(a) => Out::Opt(ctx.tx_read(a)),
        Op::TxWrite(a, v) => Out::Flag(ctx.tx_write(a, v)),
        Op::TxCommit => Out::Flag(ctx.tx_commit()),
        Op::TxAbort => {
            ctx.tx_abort();
            Out::Unit
        }
        Op::OpCompleted => {
            ctx.op_completed();
            Out::Unit
        }
    }
}

/// Everything observable about one run. `PartialEq + Debug`, so a mismatch
/// prints both sides.
#[derive(Debug, PartialEq)]
struct Signature {
    /// Per core: `(op, output, clock after the event)`, in program order.
    logs: Vec<Vec<(Op, Out, u64)>>,
    /// Per core: `(crash clock)` for an injected crash, `None` if it ran on.
    crashed: Vec<Option<u64>>,
    stats: Vec<mcsim::CoreStats>,
    ledger: (u64, u64, u64, u64),
    faults: Vec<String>,
    memory: Vec<u64>,
    trace: Vec<Vec<(u64, &'static str, u64)>>,
    races: String,
}

fn run(cell: Cell, seed: u64, lane: fn(&mut Ctx, Op) -> Out) -> Signature {
    let m = machine(cell);
    let statics = m.alloc_static(STATIC_LINES);
    let logs: Vec<Mutex<Vec<(Op, Out, u64)>>> =
        (0..cell.cores).map(|_| Mutex::new(Vec::new())).collect();
    let outcomes = m.run_outcomes_on(cell.cores, |i, ctx| {
        let mut prog = Prog {
            rng: Rng::new(seed ^ (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            statics,
            held: Vec::new(),
            stale: Vec::new(),
            race_check: cell.race_check,
        };
        for _ in 0..STEPS {
            // A stall or preemption aborts an in-flight transaction behind
            // the program's back; ask the hardware (free introspection).
            match prog.next(ctx.tx_active()) {
                Step::Tick(n) => ctx.tick(n),
                Step::Issue(op) => {
                    let out = lane(ctx, op);
                    prog.observe(op, out);
                    // A crashing event unwinds out of `lane`: everything
                    // logged so far survives in the outer Vec.
                    logs[i].lock().unwrap().push((op, out, ctx.now()));
                }
            }
        }
        if ctx.tx_active() {
            ctx.tx_abort();
        }
    });
    m.check_invariants();
    let stats = m.stats();
    let logs: Vec<Vec<(Op, Out, u64)>> =
        logs.into_iter().map(|l| l.into_inner().unwrap()).collect();
    // Final memory: every static word plus every heap line any core ever
    // got from the allocator.
    let mut words: Vec<u64> = (0..STATIC_LINES * LINE_BYTES / 8)
        .map(|w| statics.0 + w * 8)
        .collect();
    for log in &logs {
        for (_, out, _) in log {
            if let Out::A(a) = out {
                if *a != Addr::NULL {
                    words.extend((0..LINE_BYTES / 8).map(|w| a.0 + w * 8));
                }
            }
        }
    }
    words.sort_unstable();
    words.dedup();
    Signature {
        logs,
        crashed: outcomes
            .iter()
            .map(|o| match o {
                CoreOutcome::Crashed { clock, .. } => Some(*clock),
                _ => None,
            })
            .collect(),
        ledger: (
            stats.allocated_not_freed,
            stats.peak_allocated,
            stats.total_ops,
            stats.max_cycles,
        ),
        stats: stats.cores,
        faults: m.faults().iter().map(|f| format!("{f:?}")).collect(),
        memory: words.into_iter().map(|w| m.host_read(Addr(w))).collect(),
        trace: m.trace_snapshot(),
        races: m.race_report().render(),
    }
}

fn issue_reified(ctx: &mut Ctx, op: Op) -> Out {
    ctx.issue_reified(op)
}

#[test]
fn typed_lane_matches_reified_replay() {
    let mut cells = 0u64;
    let mut events = 0usize;
    let mut kinds = Vec::new();
    let (mut uaf_probes, mut crashes, mut stalls, mut oom) = (0usize, 0usize, 0u64, 0u64);
    for exec in [ExecBackend::Coop, ExecBackend::Threads] {
        for cores in [1usize, 2, 3, 4, 6, 8] {
            for smt in [1usize, 2] {
                if cores % smt != 0 {
                    continue;
                }
                for protocol in [Protocol::Msi, Protocol::Mesi] {
                    for quantum in [0u64, 64] {
                        for race_check in [false, true] {
                            for faults in [false, true] {
                                let cell = Cell {
                                    cores,
                                    protocol,
                                    smt,
                                    quantum,
                                    race_check,
                                    faults,
                                    exec,
                                };
                                cells += 1;
                                let seed = 0xC0FFEE ^ cells.wrapping_mul(0xD1B5_4A32_D192_ED03);
                                let typed = run(cell, seed, issue_typed);
                                let reified = run(cell, seed, issue_reified);
                                assert_eq!(typed, reified, "typed vs reified diverged: {cell:?}");
                                // Coverage accounting (asserted below).
                                for log in &typed.logs {
                                    events += log.len();
                                    for (op, ..) in log {
                                        let kind = std::mem::discriminant(op);
                                        if !kinds.contains(&kind) {
                                            kinds.push(kind);
                                        }
                                    }
                                }
                                uaf_probes += typed.faults.len();
                                crashes += typed.crashed.iter().flatten().count();
                                stalls += typed.stats.iter().map(|s| s.fault_stalls).sum::<u64>();
                                oom += typed.stats.iter().map(|s| s.alloc_failures).sum::<u64>();
                                assert_eq!(
                                    typed.trace.iter().all(Vec::is_empty),
                                    !race_check,
                                    "trace recorded iff race_check: {cell:?}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    // The battery only means something if the random programs reached
    // every op kind and every fault path.
    assert_eq!(kinds.len(), 17, "every Op kind issued");
    assert!(events > 100_000, "only {events} events compared");
    assert!(uaf_probes > 0, "no use-after-free probe was recorded");
    assert!(
        crashes > 0 && stalls > 0 && oom > 0,
        "fault plan never fired"
    );
}
