//! Deterministic happens-before race & ordering analyzer (`race_check`).
//!
//! PR 8 demonstrated the failure mode this module exists for: the simulator
//! is sequentially consistent, so code whose correctness silently depends on
//! SC — a missing hazard-publication fence, a too-early era stamp — passes
//! every simulated test and then loses nodes on AArch64. The analyzer finds
//! those spots mechanically: it replays the run's coherence trace under a
//! *weaker* model in which only explicit synchronization creates ordering,
//! and reports every conflicting pair of plain accesses from different
//! cores that no synchronization edge connects.
//!
//! # Trace
//!
//! When [`crate::MachineConfig::race_check`] is set, every executed event
//! that touches memory is appended to a per-hardware-thread trace
//! ([`TraceBank`], one `Vec` per core). Each entry carries the core's
//! **issue clock** (its local clock when the event started, before the op's
//! cost), so the analyzer's linearization `(clock, core, seq)` reproduces
//! the simulated interleaving on every backend, and the
//! reports are byte-identical across them (pinned by
//! `tests/race_check.rs`). When disabled, nothing records and no `SmrFence`
//! events are issued: runs are byte-identical to the pre-analyzer goldens.
//!
//! # Happens-before edges
//!
//! Per-core vector clocks, with edges derived from the trace:
//!
//! * **CAS success** on word `w`: acquire+release — joins the word's sync
//!   clock, then stores the core's clock back (models `AcqRel` RMW; covers
//!   the TTAS lock acquire and every lock-free publication CAS).
//! * **CAS failure**: acquire only (a failed CAS still observed the value).
//! * **`cread` success**: acquire (the paper's subscribe-read is a sync
//!   read: the hardware delivers the line and tags it).
//! * **`cwrite` success**: acquire+release (the validate-write only
//!   executes if the subscription held — it both observes and publishes).
//! * **`fence` / `smr_fence`**: join with a global fence clock (models the
//!   SC-fence total order: two fenced cores are ordered both ways).
//! * **Plain write to a sync-covered word** (one that some core has ever
//!   CAS'd / cread / cwritten): release only — stores into the word's sync
//!   clock without joining it. This is exactly a `Release` store (the TTAS
//!   unlock); deliberately *not* acquire, so an unlock cannot launder an
//!   unrelated race.
//! * **Plain read of a sync-covered word**: acquire only (an `Acquire`
//!   load — the TTAS spin-read, a `seq` reread).
//! * **`free`** joins the freeing core's clock into the line's free clock;
//!   **`alloc`** joins the line's free clock into the allocating core (the
//!   allocator's internal synchronization orders the old life before the
//!   new one, and the word metadata is reset so lives don't alias).
//!
//! Plain accesses to *uncovered* words create **no** edges; conflicting
//! cross-core pairs among them (and unsynchronized pairs on covered words)
//! are reported at **word** granularity. Runs on one machine (prefill,
//! measured) are separated by a global join at each run boundary — the
//! host-side quiesce between runs really does order them.
//!
//! # Reports
//!
//! Findings are aggregated by `(region, prior kind, later kind)` — region
//! names come from [`crate::Machine::label_lines`] (the SMR schemes label
//! their metadata lines, e.g. `hp.hazards`) with `static` / `heap`
//! fallbacks — and each signature keeps its first instance (word, cores,
//! clocks) plus a count. `ANALYSIS.md` documents every signature the
//! `race_audit` harness expects and why each whitelisted one is benign.

#![forbid(unsafe_code)]

#[expect(
    clippy::disallowed_types,
    reason = "lookup-only maps; reports aggregate via BTreeMap"
)]
use std::collections::HashMap;

use crate::Addr;

/// Words per line (the conflict granule is the 8-byte word).
const WORDS_PER_LINE: u64 = crate::LINE_BYTES / 8;

/// What a trace entry did to memory — the analyzer's event alphabet.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum Kind {
    Read,
    Write,
    CasOk,
    CasFail,
    CreadOk,
    CwriteOk,
    Fence,
    SmrFence,
    Alloc,
    Free,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Read => "read",
            Kind::Write => "write",
            Kind::CasOk => "cas_ok",
            Kind::CasFail => "cas_fail",
            Kind::CreadOk => "cread",
            Kind::CwriteOk => "cwrite",
            Kind::Fence => "fence",
            Kind::SmrFence => "smr_fence",
            Kind::Alloc => "alloc",
            Kind::Free => "free",
        }
    }
}

/// One traced event: the issuing core's local clock at issue (before the
/// op's cost was charged), what it did, and to which address (`Addr::NULL`
/// for fences).
#[derive(Copy, Clone, Debug)]
pub(crate) struct TraceEv {
    pub clock: u64,
    pub kind: Kind,
    pub addr: Addr,
}

/// The per-machine trace store, living in the coherence hub next to the
/// stats bank. One event `Vec` per hardware thread; within one `Vec`, index
/// order is program order and clocks are monotonic.
pub(crate) struct TraceBank {
    /// Set from `MachineConfig::race_check` at machine construction. Every
    /// recording site gates on this; when false the analyzer costs nothing
    /// and the simulated schedule is untouched.
    pub enabled: bool,
    pub cores: Vec<Vec<TraceEv>>,
    /// Per-core trace lengths at each completed `Machine` run boundary
    /// (prefill vs measured runs are ordered by the host-side quiesce).
    pub run_marks: Vec<Vec<usize>>,
    /// Region labels: `(first line, line count, name)`, from
    /// [`crate::Machine::label_lines`]. Later labels win (reuse is
    /// line-exact in practice; schemes label disjoint static lines).
    pub labels: Vec<(u64, u64, &'static str)>,
}

impl TraceBank {
    pub fn new(threads: usize) -> Self {
        TraceBank {
            enabled: false,
            cores: (0..threads).map(|_| Vec::new()).collect(),
            run_marks: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Record one *executed* event (what `Event::trace` reported for it).
    #[inline]
    pub fn record(&mut self, core: usize, clock: u64, kind: Kind, addr: Addr) {
        debug_assert!(self.enabled, "record() called with tracing disabled");
        self.cores[core].push(TraceEv { clock, kind, addr });
    }

    /// Mark a completed `Machine` run: the analyzer joins all cores'
    /// clocks here (the host observes every core's result between runs).
    pub fn mark_run(&mut self) {
        self.run_marks
            .push(self.cores.iter().map(Vec::len).collect());
    }

    /// Name `lines` lines starting at `a`'s line for report regions.
    pub fn label(&mut self, a: Addr, lines: u64, name: &'static str) {
        self.labels.push((a.0 / crate::LINE_BYTES, lines, name));
    }
}

/// One aggregated race signature: all unsynchronized conflicting pairs
/// with the same `(region, prior kind, later kind)`, plus the first
/// instance in trace order for pinpointing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// Region name of the conflicting word's line (a
    /// [`crate::Machine::label_lines`] label, or `static` / `heap`).
    pub region: String,
    /// Kind of the earlier access of the pair (`write`, `read`).
    pub prior: &'static str,
    /// Kind of the later access.
    pub later: &'static str,
    /// Number of unsynchronized pairs with this signature.
    pub count: u64,
    /// First instance: conflicting word address (byte address of the word).
    pub word: u64,
    /// First instance: core and issue clock of the earlier access.
    pub prior_core: usize,
    pub prior_clock: u64,
    /// First instance: core and issue clock of the later access.
    pub later_core: usize,
    pub later_clock: u64,
}

/// The analyzer's output for one machine: deterministic (sorted by
/// signature) and renderable as a stable text report.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RaceReport {
    /// Aggregated findings, sorted by `(region, prior, later)`.
    pub findings: Vec<Finding>,
    /// Total traced events analyzed.
    pub events: u64,
    /// Completed run segments (prefill + measured runs).
    pub runs: usize,
}

impl RaceReport {
    /// Stable text rendering: one header line, one line per signature.
    /// Byte-identical across backends and reruns for the same
    /// simulated program (the determinism pin hashes this).
    pub fn render(&self) -> String {
        let mut s = format!(
            "race_report events={} runs={} findings={}\n",
            self.events,
            self.runs,
            self.findings.len()
        );
        for f in &self.findings {
            s.push_str(&format!(
                "race region={} pair={}->{} count={} first_word={:#x} \
                 first={}@{}->{}@{}\n",
                f.region,
                f.prior,
                f.later,
                f.count,
                f.word,
                f.prior_core,
                f.prior_clock,
                f.later_core,
                f.later_clock,
            ));
        }
        s
    }
}

/// Last access by one core to one word: the core's own clock component at
/// the access (a FastTrack-style epoch) plus the issue clock for reports.
#[derive(Copy, Clone)]
struct Acc {
    epoch: u64,
    clock: u64,
}

/// Per-word analyzer metadata. A word is *covered* once any core
/// synchronizes on it (CAS / cread / cwrite): from then on plain accesses
/// get the acquire/release semantics documented on the module.
struct WordState {
    /// The word's sync clock; `Some` = covered.
    sync: Option<Vec<u64>>,
    /// Per-core last plain write / read (only tracked while racy pairs are
    /// possible; cleared when the line is freed).
    w: Vec<Option<Acc>>,
    r: Vec<Option<Acc>>,
}

impl WordState {
    fn new(n: usize) -> Self {
        WordState {
            sync: None,
            w: vec![None; n],
            r: vec![None; n],
        }
    }
}

fn join(into: &mut [u64], from: &[u64]) {
    for (a, b) in into.iter_mut().zip(from) {
        if *a < *b {
            *a = *b;
        }
    }
}

/// Run the happens-before analysis over a recorded trace.
///
/// `static_lines` is the machine's static-region size (lines `1..=s` are
/// `static`, above is `heap`, modulo explicit labels).
#[expect(
    clippy::disallowed_types,
    reason = "lookup-only maps: the report is built from the BTreeMap aggregation"
)]
pub(crate) fn analyze(bank: &TraceBank, static_lines: u64) -> RaceReport {
    let n = bank.cores.len();
    let mut vc: Vec<Vec<u64>> = (0..n).map(|_| vec![0u64; n]).collect();
    let mut fence_vc = vec![0u64; n];
    // Keyed lookup only — findings are aggregated through the BTreeMap
    // below, so iteration order of these never reaches the report.
    let mut words: HashMap<u64, WordState> = HashMap::new();
    let mut free_vc: HashMap<u64, Vec<u64>> = HashMap::new();
    let mut sigs: std::collections::BTreeMap<(String, &'static str, &'static str), Finding> =
        std::collections::BTreeMap::new();

    let resolve = |word: u64| -> String {
        let line = word / WORDS_PER_LINE;
        for &(first, lines, name) in bank.labels.iter().rev() {
            if line >= first && line < first + lines {
                return name.to_string();
            }
        }
        if line == 0 {
            "null".to_string()
        } else if line <= static_lines {
            "static".to_string()
        } else {
            "heap".to_string()
        }
    };

    let mut events = 0u64;
    let report_pair =
        |sigs: &mut std::collections::BTreeMap<(String, &'static str, &'static str), Finding>,
         word: u64,
         prior: Kind,
         prior_core: usize,
         prior_clock: u64,
         later: Kind,
         later_core: usize,
         later_clock: u64| {
            let region = resolve(word);
            let key = (region.clone(), prior.name(), later.name());
            let e = sigs.entry(key).or_insert_with(|| Finding {
                region,
                prior: prior.name(),
                later: later.name(),
                count: 0,
                word: word * 8,
                prior_core,
                prior_clock,
                later_core,
                later_clock,
            });
            e.count += 1;
        };

    // Segment boundaries: run marks, plus the current (possibly partial)
    // tail so `race_report()` mid-sequence still sees everything.
    let mut marks = bank.run_marks.clone();
    let tail: Vec<usize> = bank.cores.iter().map(Vec::len).collect();
    if marks.last() != Some(&tail) {
        marks.push(tail);
    }
    let runs = marks.len();

    let mut start = vec![0usize; n];
    for mark in &marks {
        // Linearize this segment by (issue clock, core, per-core index) —
        // the simulated interleaving itself at quantum = 0.
        let mut order: Vec<(u64, usize, usize)> = Vec::new();
        for c in 0..n {
            for i in start[c]..mark[c] {
                order.push((bank.cores[c][i].clock, c, i));
            }
        }
        order.sort_unstable();
        for &(_, c, i) in &order {
            let ev = bank.cores[c][i];
            events += 1;
            vc[c][c] += 1;
            let word = ev.addr.0 / 8;
            match ev.kind {
                Kind::Fence | Kind::SmrFence => {
                    join(&mut vc[c], &fence_vc);
                    let snap = vc[c].clone();
                    join(&mut fence_vc, &snap);
                }
                Kind::CasOk => {
                    let ws = words.entry(word).or_insert_with(|| WordState::new(n));
                    if let Some(s) = &ws.sync {
                        join(&mut vc[c], s);
                    }
                    ws.sync = Some(vc[c].clone());
                }
                Kind::CasFail | Kind::CreadOk => {
                    let ws = words.entry(word).or_insert_with(|| WordState::new(n));
                    if let Some(s) = &ws.sync {
                        join(&mut vc[c], s);
                    }
                    if ws.sync.is_none() {
                        ws.sync = Some(vec![0; n]);
                    }
                }
                Kind::CwriteOk => {
                    let ws = words.entry(word).or_insert_with(|| WordState::new(n));
                    if let Some(s) = &ws.sync {
                        join(&mut vc[c], s);
                    }
                    ws.sync = Some(vc[c].clone());
                }
                Kind::Read => {
                    let ws = words.entry(word).or_insert_with(|| WordState::new(n));
                    match &ws.sync {
                        Some(s) => join(&mut vc[c], s),
                        None => {
                            for (d, w) in ws.w.iter().enumerate() {
                                if d == c {
                                    continue;
                                }
                                if let Some(a) = w {
                                    if a.epoch > vc[c][d] {
                                        report_pair(
                                            &mut sigs,
                                            word,
                                            Kind::Write,
                                            d,
                                            a.clock,
                                            Kind::Read,
                                            c,
                                            ev.clock,
                                        );
                                    }
                                }
                            }
                        }
                    }
                    ws.r[c] = Some(Acc {
                        epoch: vc[c][c],
                        clock: ev.clock,
                    });
                }
                Kind::Write => {
                    let ws = words.entry(word).or_insert_with(|| WordState::new(n));
                    match &mut ws.sync {
                        Some(s) => {
                            // Release only: publish, don't acquire.
                            let snap = vc[c].clone();
                            join(s, &snap);
                        }
                        None => {
                            for (d, (w, r)) in ws.w.iter().zip(&ws.r).enumerate() {
                                if d == c {
                                    continue;
                                }
                                if let Some(a) = w {
                                    if a.epoch > vc[c][d] {
                                        report_pair(
                                            &mut sigs,
                                            word,
                                            Kind::Write,
                                            d,
                                            a.clock,
                                            Kind::Write,
                                            c,
                                            ev.clock,
                                        );
                                    }
                                }
                                if let Some(a) = r {
                                    if a.epoch > vc[c][d] {
                                        report_pair(
                                            &mut sigs,
                                            word,
                                            Kind::Read,
                                            d,
                                            a.clock,
                                            Kind::Write,
                                            c,
                                            ev.clock,
                                        );
                                    }
                                }
                            }
                        }
                    }
                    ws.w[c] = Some(Acc {
                        epoch: vc[c][c],
                        clock: ev.clock,
                    });
                }
                Kind::Free => {
                    let line = ev.addr.0 / crate::LINE_BYTES;
                    let fvc = free_vc.entry(line).or_insert_with(|| vec![0; n]);
                    join(fvc, &vc[c]);
                    for w in line * WORDS_PER_LINE..(line + 1) * WORDS_PER_LINE {
                        words.remove(&w);
                    }
                }
                Kind::Alloc => {
                    let line = ev.addr.0 / crate::LINE_BYTES;
                    if let Some(fvc) = free_vc.get(&line) {
                        join(&mut vc[c], fvc);
                    }
                    for w in line * WORDS_PER_LINE..(line + 1) * WORDS_PER_LINE {
                        words.remove(&w);
                    }
                }
            }
        }
        // Run boundary: the host observed every core (joins between runs).
        let mut global = fence_vc.clone();
        for v in &vc {
            join(&mut global, v);
        }
        for v in &mut vc {
            v.copy_from_slice(&global);
        }
        fence_vc.copy_from_slice(&global);
        start = mark.clone();
    }

    RaceReport {
        findings: sigs.into_values().collect(),
        events,
        runs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Machine, MachineConfig};

    fn machine(cores: usize) -> Machine {
        Machine::new(MachineConfig {
            cores,
            mem_bytes: 1 << 20,
            static_lines: 64,
            quantum: 0,
            race_check: true,
            ..Default::default()
        })
    }

    /// The store-buffer litmus the analyzer exists for: a publisher writes
    /// then fences; a scanner fences then reads. With both fences the pair
    /// is ordered through the global fence clock; drop the scanner's fence
    /// and the analyzer must report exactly that write→read pair.
    fn fence_litmus(scanner_fences: bool) -> RaceReport {
        let m = machine(2);
        let x = m.alloc_static(1);
        m.label_lines(x, 1, "litmus.x");
        m.run_on(2, |tid, ctx| {
            if tid == 0 {
                ctx.write(x, 1);
                ctx.fence();
            } else {
                // Arrange the scanner after the publisher in the
                // linearization (quantum = 0 orders by local clocks).
                ctx.tick(10_000);
                if scanner_fences {
                    ctx.smr_fence();
                }
                let _ = ctx.read(x);
            }
        });
        m.race_report()
    }

    #[test]
    fn fence_pair_orders_the_litmus() {
        let r = fence_litmus(true);
        assert_eq!(
            r.findings,
            vec![],
            "publisher fence + scanner smr_fence must order write->read:\n{}",
            r.render()
        );
    }

    #[test]
    fn missing_smr_fence_is_reported() {
        let r = fence_litmus(false);
        assert_eq!(
            r.findings.len(),
            1,
            "exactly one signature:\n{}",
            r.render()
        );
        let f = &r.findings[0];
        assert_eq!(
            (f.region.as_str(), f.prior, f.later, f.count),
            ("litmus.x", "write", "read", 1)
        );
        assert_eq!((f.prior_core, f.later_core), (0, 1));
    }

    /// Message passing through a CAS-published flag: data write, CAS flag;
    /// reader spins on the flag (covered word → acquire) then reads data.
    /// Skip the flag read and the data pair is unsynchronized.
    fn cas_edge_litmus(reader_checks_flag: bool) -> RaceReport {
        let m = machine(2);
        let lines = m.alloc_static(2);
        let data = lines;
        let flag = Addr(lines.0 + crate::LINE_BYTES);
        m.label_lines(data, 1, "litmus.data");
        m.run_on(2, |tid, ctx| {
            if tid == 0 {
                ctx.write(data, 7);
                let _ = ctx.cas(flag, 0, 1);
            } else {
                ctx.tick(10_000);
                if reader_checks_flag {
                    while ctx.read(flag) == 0 {
                        ctx.tick(1);
                    }
                }
                let _ = ctx.read(data);
            }
        });
        m.race_report()
    }

    #[test]
    fn cas_publication_edge_orders_data() {
        let r = cas_edge_litmus(true);
        assert_eq!(
            r.findings,
            vec![],
            "CAS release + covered-read acquire must order the data:\n{}",
            r.render()
        );
    }

    #[test]
    fn skipped_cas_edge_is_reported() {
        let r = cas_edge_litmus(false);
        assert_eq!(
            r.findings.len(),
            1,
            "exactly one signature:\n{}",
            r.render()
        );
        let f = &r.findings[0];
        assert_eq!(
            (f.region.as_str(), f.prior, f.later),
            ("litmus.data", "write", "read")
        );
    }

    /// A TTAS unlock (plain store to a CAS-covered word) is Release, not
    /// AcqRel: the *storing* thread gains no edge from the previous
    /// holder, so its later plain reads stay racy. (If the store also
    /// acquired, core 1 here would inherit core 0's history through the
    /// lock word and the data race would be laundered away.)
    #[test]
    fn unlock_write_does_not_acquire() {
        let m = machine(2);
        let lines = m.alloc_static(2);
        let data = lines;
        let lock = Addr(lines.0 + crate::LINE_BYTES);
        m.label_lines(data, 1, "litmus.data");
        m.run_on(2, |tid, ctx| {
            if tid == 0 {
                ctx.write(data, 9);
                let _ = ctx.cas(lock, 0, 1); // releases data into the lock
            } else {
                ctx.tick(10_000);
                ctx.write(lock, 0); // release-only: must not join
                let _ = ctx.read(data); // still unordered with the write
            }
        });
        let r = m.race_report();
        assert_eq!(
            r.findings.len(),
            1,
            "write->read must survive:\n{}",
            r.render()
        );
        let f = &r.findings[0];
        assert_eq!(
            (f.region.as_str(), f.prior, f.later),
            ("litmus.data", "write", "read")
        );
    }

    /// Free→alloc reuse must not blame the new life for the old one.
    #[test]
    fn realloc_does_not_alias_lives() {
        let m = machine(2);
        let mailbox = m.alloc_static(1);
        m.run_on(2, |tid, ctx| {
            if tid == 0 {
                let a = ctx.alloc();
                ctx.write(a, 1); // plain write, heap, this life only
                ctx.free(a);
                let _ = ctx.cas(mailbox, 0, 1);
            } else {
                ctx.tick(10_000);
                while ctx.read(mailbox) == 0 {
                    ctx.tick(1);
                }
                let b = ctx.alloc(); // recycles the freed line
                let _ = ctx.read(b);
            }
        });
        let r = m.race_report();
        assert_eq!(
            r.findings,
            vec![],
            "freed line's accesses must not conflict with its next life:\n{}",
            r.render()
        );
    }

    /// Reports must be renderable and count events when racing.
    #[test]
    fn report_renders_deterministically() {
        let a = fence_litmus(false).render();
        let b = fence_litmus(false).render();
        assert_eq!(a, b);
        assert!(a.starts_with("race_report events="), "{a}");
    }

    /// With race_check off, smr_fence issues no event and the trace stays
    /// empty — the zero-cost-when-disabled contract.
    #[test]
    fn disabled_records_nothing() {
        let m = Machine::new(MachineConfig {
            cores: 1,
            mem_bytes: 1 << 20,
            static_lines: 64,
            ..Default::default()
        });
        let x = m.alloc_static(1);
        m.run_on(1, |_, ctx| {
            ctx.write(x, 1);
            ctx.smr_fence();
            let _ = ctx.read(x);
        });
        let r = m.race_report();
        assert_eq!(r.events, 0);
        assert_eq!(r.findings, vec![]);
    }
}
