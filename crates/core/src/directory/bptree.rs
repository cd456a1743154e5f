//! A from-scratch in-memory B+Tree.
//!
//! The paper's directory is "a search structure (e.g., a B+Tree or a
//! hash table) that given a search value identifies a bucket". This is
//! the B+Tree it uses: all values live in the leaves, internal nodes
//! hold separator keys only, and leaves can be walked in key order —
//! which is what lets a packed [`crate::index::ConstituentIndex`] lay
//! its buckets out contiguously in value order.
//!
//! The tree is generic so it can be property-tested against
//! `std::collections::BTreeMap` independently of index code.

use std::fmt::Debug;

/// Maximum number of keys per node used by the directory.
pub const DEFAULT_ORDER: usize = 32;

/// Result of a recursive insert: the displaced value (if the key
/// existed) and, when the child split, the separator plus new right
/// sibling to absorb.
type InsertOutcome<K, V> = (Option<V>, Option<(K, Node<K, V>)>);

/// In-memory B+Tree map.
#[derive(Debug, Clone)]
pub struct BPlusTree<K, V> {
    root: Node<K, V>,
    len: usize,
    /// Maximum keys per node; nodes split above this.
    order: usize,
}

#[derive(Debug, Clone)]
enum Node<K, V> {
    Leaf {
        keys: Vec<K>,
        vals: Vec<V>,
    },
    Internal {
        /// Separators: `children[i]` holds keys `< keys[i]`;
        /// `children[i+1]` holds keys `>= keys[i]`.
        keys: Vec<K>,
        children: Vec<Node<K, V>>,
    },
}

impl<K: Ord + Clone, V> Default for BPlusTree<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Ord + Clone, V> BPlusTree<K, V> {
    /// Creates an empty tree with the default order.
    pub fn new() -> Self {
        Self::with_order(DEFAULT_ORDER)
    }

    /// Creates an empty tree splitting nodes above `order` keys.
    ///
    /// # Panics
    /// Panics if `order < 3` (rebalancing needs room to borrow).
    pub fn with_order(order: usize) -> Self {
        assert!(order >= 3, "B+Tree order must be at least 3");
        BPlusTree {
            root: Node::Leaf {
                keys: Vec::new(),
                vals: Vec::new(),
            },
            len: 0,
            order,
        }
    }

    fn min_keys(&self) -> usize {
        self.order / 2
    }

    /// Number of entries in the tree.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Looks up `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.get_with_depth(key).0
    }

    /// Looks up `key`, also returning the number of nodes visited on
    /// the root-to-leaf path (the probe depth; 1 for a lone leaf).
    pub fn get_with_depth(&self, key: &K) -> (Option<&V>, usize) {
        let mut node = &self.root;
        let mut depth = 1usize;
        loop {
            match node {
                Node::Leaf { keys, vals } => {
                    return (keys.binary_search(key).ok().map(|i| &vals[i]), depth);
                }
                Node::Internal { keys, children } => {
                    depth += 1;
                    node = &children[keys.partition_point(|sep| sep <= key)];
                }
            }
        }
    }

    /// Height of the tree: nodes on any root-to-leaf path.
    pub fn height(&self) -> usize {
        let mut node = &self.root;
        let mut h = 1usize;
        while let Node::Internal { children, .. } = node {
            h += 1;
            node = &children[0];
        }
        h
    }

    /// Looks up `key` mutably.
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        let mut node = &mut self.root;
        loop {
            match node {
                Node::Leaf { keys, vals } => {
                    return keys.binary_search(key).ok().map(|i| &mut vals[i]);
                }
                Node::Internal { keys, children } => {
                    let idx = keys.partition_point(|sep| sep <= key);
                    node = &mut children[idx];
                }
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Inserts `key -> val`, returning the previous value if any.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        let order = self.order;
        let (old, split) = Self::insert_rec(&mut self.root, key, val, order);
        if let Some((sep, right)) = split {
            // Grow a new root above the split halves.
            let left = std::mem::replace(
                &mut self.root,
                Node::Leaf {
                    keys: Vec::new(),
                    vals: Vec::new(),
                },
            );
            self.root = Node::Internal {
                keys: vec![sep],
                children: vec![left, right],
            };
        }
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    fn insert_rec(node: &mut Node<K, V>, key: K, val: V, order: usize) -> InsertOutcome<K, V> {
        match node {
            Node::Leaf { keys, vals } => match keys.binary_search(&key) {
                Ok(i) => (Some(std::mem::replace(&mut vals[i], val)), None),
                Err(i) => {
                    keys.insert(i, key);
                    vals.insert(i, val);
                    if keys.len() > order {
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid);
                        let right_vals = vals.split_off(mid);
                        let sep = right_keys[0].clone();
                        (
                            None,
                            Some((
                                sep,
                                Node::Leaf {
                                    keys: right_keys,
                                    vals: right_vals,
                                },
                            )),
                        )
                    } else {
                        (None, None)
                    }
                }
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|sep| sep <= &key);
                let (old, split) = Self::insert_rec(&mut children[idx], key, val, order);
                if let Some((sep, right)) = split {
                    keys.insert(idx, sep);
                    children.insert(idx + 1, right);
                    if keys.len() > order {
                        let mid = keys.len() / 2;
                        // Middle key moves up; it does not stay in
                        // either half (internal nodes hold separators
                        // only).
                        let right_keys = keys.split_off(mid + 1);
                        let sep_up = keys.pop().expect("mid key exists");
                        let right_children = children.split_off(mid + 1);
                        return (
                            old,
                            Some((
                                sep_up,
                                Node::Internal {
                                    keys: right_keys,
                                    children: right_children,
                                },
                            )),
                        );
                    }
                }
                (old, None)
            }
        }
    }

    /// Removes `key`, returning its value if present.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let min = self.min_keys();
        let removed = Self::remove_rec(&mut self.root, key, min);
        if removed.is_some() {
            self.len -= 1;
        }
        // Collapse a root that lost all separators.
        if let Node::Internal { children, .. } = &mut self.root {
            if children.len() == 1 {
                let child = children.pop().expect("one child");
                self.root = child;
            }
        }
        removed
    }

    fn remove_rec(node: &mut Node<K, V>, key: &K, min: usize) -> Option<V> {
        match node {
            Node::Leaf { keys, vals } => match keys.binary_search(key) {
                Ok(i) => {
                    keys.remove(i);
                    Some(vals.remove(i))
                }
                Err(_) => None,
            },
            Node::Internal { keys, children } => {
                let idx = keys.partition_point(|sep| sep <= key);
                let removed = Self::remove_rec(&mut children[idx], key, min)?;
                if children[idx].key_count() < min {
                    Self::fix_underflow(keys, children, idx);
                }
                Some(removed)
            }
        }
    }

    /// Restores the minimum-occupancy invariant for `children[idx]` by
    /// borrowing from a sibling or merging with one.
    fn fix_underflow(keys: &mut Vec<K>, children: &mut Vec<Node<K, V>>, idx: usize) {
        // Try borrowing from the left sibling.
        if idx > 0 && children[idx - 1].key_count() > children[idx].min_donatable() {
            let (left, right) = children.split_at_mut(idx);
            let donor = &mut left[idx - 1];
            let recipient = &mut right[0];
            match (donor, recipient) {
                (
                    Node::Leaf { keys: dk, vals: dv },
                    Node::Leaf {
                        keys: rk, vals: rv, ..
                    },
                ) => {
                    let k = dk.pop().expect("donor non-empty");
                    let v = dv.pop().expect("donor non-empty");
                    rk.insert(0, k.clone());
                    rv.insert(0, v);
                    keys[idx - 1] = k;
                }
                (
                    Node::Internal {
                        keys: dk,
                        children: dc,
                    },
                    Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                ) => {
                    let sep = keys[idx - 1].clone();
                    rk.insert(0, sep);
                    rc.insert(0, dc.pop().expect("donor child"));
                    keys[idx - 1] = dk.pop().expect("donor key");
                }
                _ => unreachable!("siblings are at the same depth"),
            }
            return;
        }
        // Try borrowing from the right sibling.
        if idx + 1 < children.len() && children[idx + 1].key_count() > children[idx].min_donatable()
        {
            let (left, right) = children.split_at_mut(idx + 1);
            let recipient = &mut left[idx];
            let donor = &mut right[0];
            match (recipient, donor) {
                (
                    Node::Leaf {
                        keys: rk, vals: rv, ..
                    },
                    Node::Leaf { keys: dk, vals: dv },
                ) => {
                    rk.push(dk.remove(0));
                    rv.push(dv.remove(0));
                    keys[idx] = dk[0].clone();
                }
                (
                    Node::Internal {
                        keys: rk,
                        children: rc,
                    },
                    Node::Internal {
                        keys: dk,
                        children: dc,
                    },
                ) => {
                    rk.push(keys[idx].clone());
                    rc.push(dc.remove(0));
                    keys[idx] = dk.remove(0);
                }
                _ => unreachable!("siblings are at the same depth"),
            }
            return;
        }
        // Merge with a sibling (prefer left so `idx` stays valid).
        let merge_left = if idx > 0 { idx - 1 } else { idx };
        let sep = keys.remove(merge_left);
        let right = children.remove(merge_left + 1);
        match (&mut children[merge_left], right) {
            (
                Node::Leaf { keys: lk, vals: lv },
                Node::Leaf {
                    keys: rk, vals: rv, ..
                },
            ) => {
                lk.extend(rk);
                lv.extend(rv);
            }
            (
                Node::Internal {
                    keys: lk,
                    children: lc,
                },
                Node::Internal {
                    keys: rk,
                    children: rc,
                },
            ) => {
                lk.push(sep);
                lk.extend(rk);
                lc.extend(rc);
            }
            _ => unreachable!("siblings are at the same depth"),
        }
    }

    /// Builds a tree bottom-up from strictly ascending `pairs` in one
    /// pass — the bulk-load fast path the REINDEX family uses instead
    /// of `len` top-down inserts.
    ///
    /// Leaves are filled left to right at maximum occupancy (the two
    /// rightmost chunks are balanced so the tail never underflows),
    /// then each internal level is assembled over the previous one
    /// the same way. The result satisfies every invariant
    /// [`BPlusTree::check_invariants`] checks and answers queries
    /// identically to an insert-built tree.
    ///
    /// # Panics
    /// Panics if `order < 3` or if the keys are not strictly
    /// ascending.
    pub fn from_sorted(pairs: Vec<(K, V)>, order: usize) -> Self {
        assert!(order >= 3, "B+Tree order must be at least 3");
        assert!(
            pairs.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted requires strictly ascending keys"
        );
        let len = pairs.len();
        if len == 0 {
            return Self::with_order(order);
        }
        let min = order / 2;

        // Leaf level: chunks of `order` keys, tail balanced.
        let mut it = pairs.into_iter();
        let mut level: Vec<(K, Node<K, V>)> = Vec::new();
        for size in Self::chunk_sizes(len, order, min) {
            let mut keys = Vec::with_capacity(size);
            let mut vals = Vec::with_capacity(size);
            for _ in 0..size {
                let (k, v) = it.next().expect("chunk sizes sum to len");
                keys.push(k);
                vals.push(v);
            }
            let first = keys[0].clone();
            level.push((first, Node::Leaf { keys, vals }));
        }

        // Internal levels: group up to order+1 children per parent;
        // the separator for children[i+1] is that subtree's smallest
        // key, which bulk loading knows without a lookup.
        while level.len() > 1 {
            let n = level.len();
            let mut it = level.into_iter();
            let mut next: Vec<(K, Node<K, V>)> = Vec::new();
            for size in Self::chunk_sizes(n, order + 1, min + 1) {
                let mut seps = Vec::with_capacity(size - 1);
                let mut children = Vec::with_capacity(size);
                let mut parent_min = None;
                for i in 0..size {
                    let (k, node) = it.next().expect("chunk sizes sum to n");
                    if i == 0 {
                        parent_min = Some(k);
                    } else {
                        seps.push(k);
                    }
                    children.push(node);
                }
                let parent_min = parent_min.expect("chunks are non-empty");
                next.push((
                    parent_min,
                    Node::Internal {
                        keys: seps,
                        children,
                    },
                ));
            }
            level = next;
        }

        let (_, root) = level.pop().expect("one root remains");
        BPlusTree { root, len, order }
    }

    /// Chunk sizes for distributing `n` items into nodes of capacity
    /// `cap`, each chunk at least `min` except a lone (root) chunk.
    ///
    /// All chunks but the last two are full; if the natural tail
    /// would underflow, the final `cap + tail` items are split in
    /// half (both halves provably within `[min, cap]` for any order
    /// ≥ 3).
    fn chunk_sizes(n: usize, cap: usize, min: usize) -> Vec<usize> {
        if n <= cap {
            return vec![n];
        }
        let full = n / cap;
        let rem = n % cap;
        let mut sizes = vec![cap; full];
        if rem >= min {
            sizes.push(rem);
        } else if rem > 0 {
            let total = cap + rem;
            let a = total / 2;
            *sizes.last_mut().expect("full >= 1") = a;
            sizes.push(total - a);
        }
        sizes
    }

    /// Iterates all entries in ascending key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let stack = vec![(&self.root, 0usize)];
        let mut it = Iter { stack };
        it.descend();
        it
    }

    /// Iterates entries with keys in `[lo, hi]` inclusive.
    pub fn range_inclusive<'a>(
        &'a self,
        lo: &'a K,
        hi: &'a K,
    ) -> impl Iterator<Item = (&'a K, &'a V)> + 'a {
        self.iter()
            .skip_while(move |(k, _)| *k < lo)
            .take_while(move |(k, _)| *k <= hi)
    }

    /// Smallest key, if any.
    pub fn first(&self) -> Option<(&K, &V)> {
        self.iter().next()
    }

    /// Checks structural invariants; for tests and debug assertions.
    ///
    /// Verifies: all leaves at equal depth, every non-root node within
    /// occupancy bounds, keys sorted within nodes, entries globally
    /// sorted, and `len` consistent.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut leaf_depth = None;
        let mut count = 0usize;
        Self::check_node(
            &self.root,
            0,
            true,
            self.min_keys(),
            self.order,
            &mut leaf_depth,
            &mut count,
            None,
            None,
        )?;
        if count != self.len {
            return Err(format!("len {} but counted {}", self.len, count));
        }
        let mut prev: Option<&K> = None;
        for (k, _) in self.iter() {
            if let Some(p) = prev {
                if p >= k {
                    return Err("iteration out of order".to_string());
                }
            }
            prev = Some(k);
        }
        Ok(())
    }

    // 9 parameters: the recursive invariant walk threads the whole
    // (depth, bounds, accounting) context; a one-use struct would
    // only rename the problem.
    #[allow(clippy::too_many_arguments)]
    fn check_node<'a>(
        node: &'a Node<K, V>,
        depth: usize,
        is_root: bool,
        min: usize,
        order: usize,
        leaf_depth: &mut Option<usize>,
        count: &mut usize,
        lo: Option<&'a K>,
        hi: Option<&'a K>,
    ) -> Result<(), String> {
        let in_bounds = |k: &K| lo.is_none_or(|l| k >= l) && hi.is_none_or(|h| k < h);
        match node {
            Node::Leaf { keys, vals } => {
                if keys.len() != vals.len() {
                    return Err("leaf keys/vals length mismatch".into());
                }
                if !is_root && keys.len() < min {
                    return Err(format!("leaf underfull: {} < {}", keys.len(), min));
                }
                if keys.len() > order {
                    return Err("leaf overfull".into());
                }
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err("leaf keys unsorted".into());
                }
                if !keys.iter().all(in_bounds) {
                    return Err("leaf key outside separator bounds".into());
                }
                match leaf_depth {
                    None => *leaf_depth = Some(depth),
                    Some(d) if *d != depth => return Err("leaves at unequal depth".into()),
                    _ => {}
                }
                *count += keys.len();
                Ok(())
            }
            Node::Internal { keys, children } => {
                if children.len() != keys.len() + 1 {
                    return Err("internal fanout mismatch".into());
                }
                if !is_root && keys.len() < min {
                    return Err(format!("internal underfull: {} < {}", keys.len(), min));
                }
                if keys.len() > order {
                    return Err("internal overfull".into());
                }
                if is_root && keys.is_empty() {
                    return Err("internal root with no separators".into());
                }
                if !keys.windows(2).all(|w| w[0] < w[1]) {
                    return Err("internal keys unsorted".into());
                }
                for (i, child) in children.iter().enumerate() {
                    let child_lo = if i == 0 { lo } else { Some(&keys[i - 1]) };
                    let child_hi = if i == keys.len() { hi } else { Some(&keys[i]) };
                    Self::check_node(
                        child,
                        depth + 1,
                        false,
                        min,
                        order,
                        leaf_depth,
                        count,
                        child_lo,
                        child_hi,
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl<K, V> Node<K, V> {
    fn key_count(&self) -> usize {
        match self {
            Node::Leaf { keys, .. } => keys.len(),
            Node::Internal { keys, .. } => keys.len(),
        }
    }

    /// Minimum keys a sibling must retain after donating one.
    fn min_donatable(&self) -> usize {
        // A donor must stay at or above the underflowing child's
        // current count + 1 to make progress; using the child's count
        // keeps the operation simple and safe because the child is
        // exactly one below minimum.
        self.key_count() + 1
    }
}

/// In-order iterator over a [`BPlusTree`].
pub struct Iter<'a, K, V> {
    /// Stack of (node, next child / entry index).
    stack: Vec<(&'a Node<K, V>, usize)>,
}

impl<'a, K, V> Iter<'a, K, V> {
    /// Pushes the leftmost path from the top-of-stack internal node.
    fn descend(&mut self) {
        while let Some(&(node, _)) = self.stack.last() {
            match node {
                Node::Internal { children, .. } => {
                    self.stack.push((&children[0], 0));
                }
                Node::Leaf { .. } => break,
            }
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, idx) = self.stack.last_mut()?;
            match node {
                Node::Leaf { keys, vals } => {
                    if *idx < keys.len() {
                        let out = (&keys[*idx], &vals[*idx]);
                        *idx += 1;
                        return Some(out);
                    }
                    self.stack.pop();
                    // Advance the parent to its next child.
                    loop {
                        let (pnode, pidx) = self.stack.last_mut()?;
                        let Node::Internal { children, .. } = pnode else {
                            unreachable!("parent of a leaf is internal");
                        };
                        *pidx += 1;
                        if *pidx < children.len() {
                            let next = &children[*pidx];
                            self.stack.push((next, 0));
                            self.descend();
                            break;
                        }
                        self.stack.pop();
                    }
                }
                Node::Internal { .. } => {
                    self.descend();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let t: BPlusTree<u32, u32> = BPlusTree::new();
        assert!(t.is_empty());
        assert_eq!(t.get(&1), None);
        assert_eq!(t.iter().count(), 0);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = BPlusTree::with_order(4);
        assert_eq!(t.insert(5, "a"), None);
        assert_eq!(t.insert(5, "b"), Some("a"));
        assert_eq!(t.get(&5), Some(&"b"));
        assert_eq!(t.len(), 1);
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_many_splits() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..500u32 {
            t.insert(i * 7 % 500, i);
            t.check_invariants().unwrap();
        }
        assert_eq!(t.len(), 500);
        for i in 0..500u32 {
            assert!(t.contains_key(&i), "missing {i}");
        }
        let collected: Vec<u32> = t.iter().map(|(k, _)| *k).collect();
        let expect: Vec<u32> = (0..500).collect();
        assert_eq!(collected, expect);
    }

    #[test]
    fn remove_everything_both_orders() {
        for descending in [false, true] {
            let mut t = BPlusTree::with_order(4);
            for i in 0..300u32 {
                t.insert(i, i * 2);
            }
            let order: Vec<u32> = if descending {
                (0..300).rev().collect()
            } else {
                (0..300).collect()
            };
            for i in order {
                assert_eq!(t.remove(&i), Some(i * 2), "removing {i}");
                t.check_invariants()
                    .unwrap_or_else(|e| panic!("after removing {i}: {e}"));
            }
            assert!(t.is_empty());
        }
    }

    #[test]
    fn remove_missing_is_none() {
        let mut t = BPlusTree::with_order(4);
        t.insert(1, 1);
        assert_eq!(t.remove(&2), None);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = BPlusTree::with_order(4);
        for i in 0..50u32 {
            t.insert(i, i);
        }
        *t.get_mut(&30).unwrap() = 999;
        assert_eq!(t.get(&30), Some(&999));
    }

    #[test]
    fn range_inclusive_bounds() {
        let mut t = BPlusTree::with_order(4);
        for i in (0..100u32).step_by(2) {
            t.insert(i, i);
        }
        let got: Vec<u32> = t.range_inclusive(&10, &20).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![10, 12, 14, 16, 18, 20]);
        // Bounds not present in the tree.
        let got: Vec<u32> = t.range_inclusive(&11, &19).map(|(k, _)| *k).collect();
        assert_eq!(got, vec![12, 14, 16, 18]);
    }

    #[test]
    fn interleaved_insert_remove_stays_valid() {
        let mut t = BPlusTree::with_order(4);
        for round in 0..10u32 {
            for i in 0..100u32 {
                t.insert(i * 10 + round, i);
            }
            for i in (0..100u32).step_by(3) {
                t.remove(&(i * 10 + round));
            }
            t.check_invariants().unwrap();
        }
        let mut prev = None;
        for (k, _) in t.iter() {
            if let Some(p) = prev {
                assert!(p < *k);
            }
            prev = Some(*k);
        }
    }

    #[test]
    fn from_sorted_matches_insert_built_tree() {
        for order in [3, 4, 5, 8, 32] {
            for n in [0usize, 1, 2, 5, 31, 32, 33, 63, 64, 65, 100, 333, 1024] {
                let pairs: Vec<(u32, u32)> = (0..n as u32).map(|i| (i * 3, i)).collect();
                let bulk = BPlusTree::from_sorted(pairs.clone(), order);
                bulk.check_invariants()
                    .unwrap_or_else(|e| panic!("order {order}, n {n}: {e}"));
                assert_eq!(bulk.len(), n);
                let mut inserted = BPlusTree::with_order(order);
                for (k, v) in pairs {
                    inserted.insert(k, v);
                }
                let a: Vec<(u32, u32)> = bulk.iter().map(|(k, v)| (*k, *v)).collect();
                let b: Vec<(u32, u32)> = inserted.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(a, b, "order {order}, n {n}");
                for (k, v) in &a {
                    assert_eq!(bulk.get(k), Some(v));
                }
            }
        }
    }

    #[test]
    fn from_sorted_leaves_are_densely_packed() {
        // 1000 entries at order 32: bulk load needs ~n/32 leaves,
        // while repeated insertion's half-full splits need more nodes
        // and a deeper or equal tree.
        let pairs: Vec<(u32, u32)> = (0..1000).map(|i| (i, i)).collect();
        let bulk = BPlusTree::from_sorted(pairs.clone(), 32);
        let mut inserted = BPlusTree::with_order(32);
        for (k, v) in pairs {
            inserted.insert(k, v);
        }
        assert!(bulk.height() <= inserted.height());
        bulk.check_invariants().unwrap();
    }

    #[test]
    fn from_sorted_tree_stays_valid_under_later_edits() {
        let pairs: Vec<(u32, u32)> = (0..200).map(|i| (i * 2, i)).collect();
        let mut t = BPlusTree::from_sorted(pairs, 4);
        for i in 0..200u32 {
            t.insert(i * 2 + 1, i);
            t.check_invariants().unwrap();
        }
        for i in (0..200u32).step_by(3) {
            t.remove(&(i * 2));
            t.check_invariants().unwrap();
        }
    }

    #[test]
    #[should_panic(expected = "strictly ascending")]
    fn from_sorted_rejects_unsorted_keys() {
        let _ = BPlusTree::from_sorted(vec![(3u32, 0u32), (1, 1)], 4);
    }

    #[test]
    fn string_keys_work() {
        let mut t: BPlusTree<String, usize> = BPlusTree::with_order(6);
        let words = ["peace", "war", "apple", "zebra", "mango", "delta"];
        for (i, w) in words.iter().enumerate() {
            t.insert(w.to_string(), i);
        }
        let keys: Vec<&String> = t.iter().map(|(k, _)| k).collect();
        let mut sorted = words.to_vec();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
