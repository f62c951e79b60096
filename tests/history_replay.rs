//! An exact replay of `Outcome::history`, the per-op record's first reader
//! beyond latency.
//!
//! At one thread a history is sequential, so every recorded result must be
//! the one a sequential model gives: a `BTreeSet` for the sets, a `Vec` for
//! the stack, a `VecDeque` for the queue, each first filled from the
//! runner's own prefill stream (`RunConfig::thread_seed(usize::MAX)`, the
//! same draws in the same order). Every structure × supported scheme runs
//! on the simulator, and the SMR sets, stack and queue natively, at a
//! 30i-30d mix so `contains` and `peek` are recorded too (the queue has no
//! read operation and runs 50i-50d). A history with any one result flipped
//! must be rejected.

use std::collections::{BTreeSet, VecDeque};

use conditional_access::ds::Op;
use conditional_access::harness::{run, Mix, RunConfig, SetKind, Structure, Timed};
use conditional_access::sim::Rng;
use conditional_access::smr::SchemeKind;

/// The sequential model of one structure family.
enum Model {
    Set(BTreeSet<u64>),
    Stack(Vec<u64>),
    Queue(VecDeque<u64>),
}

impl Model {
    /// The contents the runner's prefill of `structure` under `cfg` leaves.
    fn prefilled(structure: Structure, cfg: &RunConfig) -> Model {
        let mut rng = Rng::new(cfg.thread_seed(usize::MAX));
        let mut draw = || 1 + rng.below(cfg.key_range);
        match structure {
            Structure::Stack => Model::Stack((0..cfg.prefill).map(|_| draw()).collect()),
            Structure::Queue => Model::Queue((0..cfg.prefill).map(|_| draw()).collect()),
            _ => {
                let mut set = BTreeSet::new();
                while (set.len() as u64) < cfg.prefill {
                    set.insert(draw());
                }
                Model::Set(set)
            }
        }
    }

    /// Apply `op`'s call to the model; the same call with the model's result.
    fn apply(&mut self, op: Op) -> Op {
        match (self, op) {
            (Model::Set(s), Op::Insert(k, _)) => Op::Insert(k, s.insert(k)),
            (Model::Set(s), Op::Delete(k, _)) => Op::Delete(k, s.remove(&k)),
            (Model::Set(s), Op::Contains(k, _)) => Op::Contains(k, s.contains(&k)),
            (Model::Stack(s), Op::Push(v)) => {
                s.push(v);
                op
            }
            (Model::Stack(s), Op::Pop(_)) => Op::Pop(s.pop()),
            (Model::Stack(s), Op::Peek(_)) => Op::Peek(s.last().copied()),
            (Model::Queue(q), Op::Enqueue(v)) => {
                q.push_back(v);
                op
            }
            (Model::Queue(q), Op::Dequeue(_)) => Op::Dequeue(q.pop_front()),
            (_, op) => panic!("{op:?} is not an operation of this structure's family"),
        }
    }
}

/// Replay one thread's records on the prefilled model; the first record
/// whose result the model does not give is the error.
fn replay(structure: Structure, cfg: &RunConfig, records: &[Timed]) -> Result<(), String> {
    let mut model = Model::prefilled(structure, cfg);
    for (i, t) in records.iter().enumerate() {
        let want = model.apply(t.op);
        if t.op != want {
            return Err(format!(
                "op {i}: recorded {:?}, the model says {want:?}",
                t.op
            ));
        }
    }
    Ok(())
}

/// One thread, 300 ops over 64 keys from a 32-element prefill, recorded.
fn cfg(structure: Structure, native: bool) -> RunConfig {
    let pct = if structure == Structure::Queue {
        50
    } else {
        30
    };
    RunConfig {
        threads: 1,
        key_range: 64,
        prefill: 32,
        ops_per_thread: 300,
        mix: Mix {
            insert_pct: pct,
            delete_pct: pct,
        },
        buckets: 8,
        native,
        history: true,
        ..Default::default()
    }
}

/// Run `structure` under `scheme` on one thread and replay its history.
fn replayed(structure: Structure, scheme: SchemeKind, native: bool) -> Vec<Timed> {
    let what = format!("{} {scheme} native={native}", structure.name());
    let cfg = cfg(structure, native);
    let mut out = run(structure, scheme, &cfg);
    assert_eq!(out.history.len(), 1, "{what}: one record list per thread");
    let records = out.history.pop().expect("one thread");
    assert_eq!(records.len() as u64, cfg.ops_per_thread, "{what}");
    if let Err(e) = replay(structure, &cfg, &records) {
        panic!("{what}: {e}");
    }
    let reads = |t: &Timed| matches!(t.op, Op::Contains(..) | Op::Peek(..));
    if structure != Structure::Queue {
        assert!(records.iter().any(reads), "{what}: the mix has reads");
    }
    records
}

const NATIVE: [Structure; 5] = [
    Structure::Set(SetKind::LazyList),
    Structure::Set(SetKind::ExtBst),
    Structure::Set(SetKind::HashTable),
    Structure::Stack,
    Structure::Queue,
];

#[test]
fn one_thread_histories_replay_exactly_on_the_simulator() {
    for structure in Structure::ALL {
        for scheme in SchemeKind::ALL {
            if structure.supports(scheme) {
                replayed(structure, scheme, false);
            }
        }
    }
}

#[test]
fn one_thread_histories_replay_exactly_natively() {
    for structure in NATIVE {
        for scheme in SchemeKind::ALL {
            if scheme != SchemeKind::Ca {
                replayed(structure, scheme, true);
            }
        }
    }
}

/// `op` with its result changed, if it has one.
fn flipped(op: Op) -> Option<Op> {
    let other = |v: Option<u64>| v.map_or(Some(0), |_| None);
    Some(match op {
        Op::Insert(k, ok) => Op::Insert(k, !ok),
        Op::Delete(k, ok) => Op::Delete(k, !ok),
        Op::Contains(k, ok) => Op::Contains(k, !ok),
        Op::Pop(v) => Op::Pop(other(v)),
        Op::Peek(v) => Op::Peek(other(v)),
        Op::Dequeue(v) => Op::Dequeue(other(v)),
        Op::Push(_) | Op::Enqueue(_) => return None,
    })
}

#[test]
fn a_history_with_one_result_flipped_is_rejected() {
    for structure in NATIVE {
        let records = replayed(structure, SchemeKind::Ca, false);
        let cfg = cfg(structure, false);
        let mut flips = 0;
        for i in 0..records.len() {
            let Some(op) = flipped(records[i].op) else {
                continue;
            };
            let mut bad = records.clone();
            bad[i].op = op;
            let err = replay(structure, &cfg, &bad).expect_err("a flipped result replayed");
            assert!(err.starts_with(&format!("op {i}:")), "{err}");
            flips += 1;
        }
        assert!(flips > 100, "{}: only {flips} results", structure.name());
    }
}
