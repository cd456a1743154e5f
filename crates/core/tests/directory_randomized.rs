//! Model-based randomised tests: the directory's B+Tree against
//! `std::collections::BTreeMap` under seeded-random operation
//! sequences.

use std::collections::BTreeMap;

use wave_index::directory::BPlusTree;
use wave_obs::SplitMix64;

#[derive(Debug, Clone, Copy)]
enum DirOp {
    Insert(u16, u32),
    Remove(u16),
    Get(u16),
}

fn random_op(rng: &mut SplitMix64) -> DirOp {
    let k = (rng.next_u64() % 512) as u16;
    match rng.next_u64() % 3 {
        0 => DirOp::Insert(k, rng.next_u64() as u32),
        1 => DirOp::Remove(k),
        _ => DirOp::Get(k),
    }
}

/// The B+Tree mirrors BTreeMap exactly and keeps its structural
/// invariants after every operation.
#[test]
fn bptree_matches_btreemap() {
    let mut rng = SplitMix64::new(0xD1E0_0001);
    for round in 0..64 {
        let mut tree = BPlusTree::with_order(6);
        let mut model: BTreeMap<u16, u32> = BTreeMap::new();
        let ops = rng.range_usize(1, 400);
        for _ in 0..ops {
            match random_op(&mut rng) {
                DirOp::Insert(k, v) => {
                    assert_eq!(tree.insert(k, v), model.insert(k, v), "round {round}");
                }
                DirOp::Remove(k) => {
                    assert_eq!(tree.remove(&k), model.remove(&k), "round {round}");
                }
                DirOp::Get(k) => {
                    assert_eq!(tree.get(&k), model.get(&k), "round {round}");
                }
            }
            assert_eq!(tree.len(), model.len());
        }
        tree.check_invariants()
            .unwrap_or_else(|e| panic!("round {round}: invariant violated: {e}"));
        let got: Vec<(u16, u32)> = tree.iter().map(|(k, v)| (*k, *v)).collect();
        let want: Vec<(u16, u32)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(got, want);
    }
}

/// Range queries over the B+Tree agree with BTreeMap's.
#[test]
fn bptree_range_matches() {
    let mut rng = SplitMix64::new(0xD1E0_0003);
    for round in 0..64 {
        let keys: std::collections::BTreeSet<u16> = (0..rng.range_usize(0, 200))
            .map(|_| rng.next_u64() as u16)
            .collect();
        let (a, b) = (rng.next_u64() as u16, rng.next_u64() as u16);
        let (lo, hi) = (a.min(b), a.max(b));
        let mut tree = BPlusTree::with_order(8);
        for &k in &keys {
            tree.insert(k, ());
        }
        let got: Vec<u16> = tree.range_inclusive(&lo, &hi).map(|(k, _)| *k).collect();
        let want: Vec<u16> = keys.range(lo..=hi).copied().collect();
        assert_eq!(got, want, "round {round}: range {lo}..={hi}");
    }
}

/// `get_with_depth` agrees with `get`, and the B+Tree's depth equals
/// its height for every key, present or not.
#[test]
fn probe_depths_are_consistent() {
    let mut rng = SplitMix64::new(0xD1E0_0004);
    let mut tree = BPlusTree::with_order(6);
    for _ in 0..500 {
        let k = (rng.next_u64() % 1024) as u16;
        tree.insert(k, k as u32);
    }
    let height = tree.height();
    for k in 0u16..1024 {
        let (tv, td) = tree.get_with_depth(&k);
        assert_eq!(tv, tree.get(&k));
        assert_eq!(td, height, "B+Tree probes always descend to a leaf");
    }
}
