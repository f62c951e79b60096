//! Shared scaffolding for the integration tests.
#![allow(dead_code)] // each test binary uses a different subset

use conditional_access::ds::SetDs;
use conditional_access::sim::machine::Ctx;
use conditional_access::sim::{Machine, MachineConfig, Rng};
use std::collections::BTreeMap;

/// A machine sized for integration stress tests.
pub fn machine(cores: usize, quantum: u64) -> Machine {
    Machine::new(MachineConfig {
        cores,
        mem_bytes: 32 << 20,
        static_lines: 2048,
        quantum,
        ..Default::default()
    })
}

/// Result of a mixed random workload on a set: per-key net insert count.
pub struct SetAccounting {
    /// key → (successful inserts − successful deletes), summed over threads.
    pub net: BTreeMap<u64, i64>,
}

/// Run `threads × ops` random insert/delete/contains ops and return the
/// per-key accounting. With the UAF detector armed (default), any
/// reclamation bug panics the test.
pub fn run_mixed_set<D: for<'m> SetDs<Ctx<'m>>>(
    m: &Machine,
    ds: &D,
    threads: usize,
    ops: u64,
    key_range: u64,
    seed: u64,
) -> SetAccounting {
    let results = m.run_on(threads, |tid, ctx: &mut Ctx| {
        let mut tls = ds.register(tid);
        let mut rng = Rng::new(seed ^ (tid as u64) << 32);
        let mut local: BTreeMap<u64, i64> = BTreeMap::new();
        for _ in 0..ops {
            let key = 1 + rng.below(key_range);
            match rng.below(3) {
                0 => {
                    if ds.insert(ctx, &mut tls, key) {
                        *local.entry(key).or_default() += 1;
                    }
                }
                1 => {
                    if ds.delete(ctx, &mut tls, key) {
                        *local.entry(key).or_default() -= 1;
                    }
                }
                _ => {
                    ds.contains(ctx, &mut tls, key);
                }
            }
        }
        local
    });
    let mut net = BTreeMap::new();
    for local in results {
        for (k, v) in local {
            *net.entry(k).or_default() += v;
        }
    }
    SetAccounting { net }
}

/// Check the final contents of a set against the accounting: each key's net
/// count must be 0 (absent) or 1 (present), and must match membership.
pub fn check_set_accounting(acct: &SetAccounting, final_keys: &[u64]) {
    let present: std::collections::BTreeSet<u64> = final_keys.iter().copied().collect();
    assert_eq!(present.len(), final_keys.len(), "duplicate keys in structure");
    for (&k, &n) in &acct.net {
        match n {
            0 => assert!(!present.contains(&k), "key {k}: net 0 but present"),
            1 => assert!(present.contains(&k), "key {k}: net 1 but absent"),
            _ => panic!("key {k}: impossible net count {n} (lost/duplicated update)"),
        }
    }
    for &k in &present {
        assert_eq!(
            acct.net.get(&k).copied().unwrap_or(0),
            1,
            "key {k} present without a surviving insert"
        );
    }
}

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
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(file)
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
pub fn check_golden(file: &str, rendered: &str, what: &str) {
    if std::env::var_os("MCSIM_WRITE_GOLDENS").is_some() {
        let path = golden_path(file);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!("[goldens] wrote {} lines to {}", rendered.lines().count(), path.display());
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
