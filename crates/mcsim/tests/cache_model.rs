//! Differential test of [`SetAssoc`]'s packed, branch-free layout against a
//! plain reference model: each set is a `Vec<(line, lru, payload)>`, a lookup
//! is an early-exit scan, an insert takes a free slot or replaces the entry
//! with the smallest stamp. Both are driven by the same random operation
//! sequences over keys that collide in two sets, for every associativity
//! the simulator is configured with and for set counts that are and are not
//! powers of two. After every step the hit/miss answer, the evicted or
//! removed `(line, payload)`, `len()` and the multiset of resident `(line,
//! lru, payload)` must agree.

use mcsim::cache::SetAssoc;
use mcsim::Line;
use proptest::prelude::*;

/// Today's semantics, written plainly.
struct Model {
    sets: Vec<Vec<(u64, u64, u32)>>,
    assoc: usize,
    stamp: u64,
}

impl Model {
    fn new(sets: usize, assoc: usize) -> Self {
        Self {
            sets: vec![Vec::new(); sets],
            assoc,
            stamp: 0,
        }
    }

    fn find(&mut self, line: u64) -> Option<&mut (u64, u64, u32)> {
        let set = line as usize & (self.sets.len() - 1);
        self.sets[set].iter_mut().find(|e| e.0 == line)
    }

    fn touch(&mut self, line: u64) -> bool {
        let stamp = self.stamp + 1;
        match self.find(line) {
            Some(e) => {
                e.1 = stamp;
                self.stamp = stamp;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, line: u64, payload: u32) -> Option<(u64, u32)> {
        self.stamp += 1;
        let entry = (line, self.stamp, payload);
        let assoc = self.assoc;
        let set = line as usize & (self.sets.len() - 1);
        let ways = &mut self.sets[set];
        if ways.len() < assoc {
            ways.push(entry);
            return None;
        }
        let lru = ways.iter_mut().min_by_key(|e| e.1).expect("assoc >= 1");
        let (victim, _, old) = std::mem::replace(lru, entry);
        Some((victim, old))
    }

    fn remove(&mut self, line: u64) -> Option<(u64, u32)> {
        let set = line as usize & (self.sets.len() - 1);
        let ways = &mut self.sets[set];
        let i = ways.iter().position(|e| e.0 == line)?;
        let (line, _, payload) = ways.remove(i);
        Some((line, payload))
    }

    fn resident(&self) -> Vec<(u64, u64, u32)> {
        let mut all: Vec<_> = self.sets.iter().flatten().copied().collect();
        all.sort_unstable();
        all
    }
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Lookup,
    Touch,
    Edit,
    Insert,
    Remove,
    Clear,
}

/// `(op, key, payload)`; a clear is one step in twenty.
fn op_strategy() -> impl Strategy<Value = (Op, u64, u32)> {
    (0u8..20, 0u64..40, any::<u32>()).prop_map(|(kind, key, payload)| {
        let op = match kind {
            0..=5 => Op::Insert,
            6..=8 => Op::Lookup,
            9..=11 => Op::Touch,
            12..=14 => Op::Edit,
            15..=18 => Op::Remove,
            _ => Op::Clear,
        };
        (op, key, payload)
    })
}

fn run(requested_sets: usize, assoc: usize, prog: &[(Op, u64, u32)]) {
    let mut cache: SetAssoc<u32> = SetAssoc::new(requested_sets * assoc * 64, assoc);
    let sets = requested_sets.next_power_of_two();
    assert_eq!(cache.sets(), sets);
    let mut model = Model::new(sets, assoc);
    for (step, &(op, key, payload)) in prog.iter().enumerate() {
        // 40 keys over two sets: 20 lines collide in each, more than any
        // associativity tried, so every set fills and evicts.
        let id = (key % 2) + (key / 2) * sets as u64;
        let line = Line(id);
        let at = format!("step {step}: {op:?} {id} ({requested_sets} sets, {assoc}-way)");
        match op {
            Op::Lookup => {
                let got = cache.lookup(line).map(|e| (e.line.0, e.lru, *e.payload));
                assert_eq!(got, model.find(id).copied(), "{at}");
                assert_eq!(cache.probe(line).is_some(), got.is_some(), "{at}");
            }
            Op::Touch => {
                let way = cache.lookup_touch(line);
                assert_eq!(way.is_some(), model.touch(id), "{at}");
                if let Some(way) = way {
                    assert_eq!(cache.line_at(way), Some(line), "{at}");
                    assert_eq!(cache.probe(line), Some(way), "{at}: a touch moves nothing");
                }
            }
            Op::Edit => {
                let got = cache.lookup_mut(line).map(|p| *p = payload).is_some();
                let want = model.find(id).map(|e| e.2 = payload).is_some();
                assert_eq!(got, want, "{at}");
            }
            Op::Insert if model.find(id).is_some() => {
                assert!(cache.probe(line).is_some(), "{at}: resident in the model");
            }
            Op::Insert => {
                let (way, evicted) = cache.insert(line, payload);
                let evicted = evicted.map(|e| (e.line.0, e.payload));
                assert_eq!(evicted, model.insert(id, payload), "{at}");
                assert_eq!(cache.probe(line), Some(way), "{at}");
                assert_eq!(*cache.at(way), payload, "{at}");
            }
            Op::Remove => {
                let removed = cache.remove(line).map(|e| (e.line.0, e.payload));
                assert_eq!(removed, model.remove(id), "{at}");
            }
            Op::Clear => {
                cache.clear();
                model.sets.iter_mut().for_each(Vec::clear);
            }
        }
        let mut resident: Vec<_> = cache
            .iter()
            .map(|e| (e.line.0, e.lru, *e.payload))
            .collect();
        resident.sort_unstable();
        assert_eq!(resident, model.resident(), "{at}");
        assert_eq!(cache.len(), resident.len(), "{at}");
        assert_eq!(cache.is_empty(), resident.is_empty(), "{at}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_set_assoc_matches_the_plain_model(
        prog in proptest::collection::vec(op_strategy(), 1..400)
    ) {
        for assoc in [1, 2, 3, 8, 16] {
            // 4 is a power of two; 3, 5 and 12 round up to 4, 8 and 16.
            for requested_sets in [4, 3, 5, 12] {
                run(requested_sets, assoc, &prog);
            }
        }
    }
}
