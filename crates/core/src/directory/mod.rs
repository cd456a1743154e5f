//! The in-memory directory of a constituent index.
//!
//! Per Section 2 of the paper the directory lives in memory and maps a
//! search value to its bucket on disk. The search structure is a
//! [B+Tree](bptree): a point lookup descends one root-to-leaf path,
//! and the ascending iteration that lays out a packed index walks the
//! linked leaves with no sort.

pub mod bptree;

use wave_storage::Extent;

use crate::record::SearchValue;

pub use bptree::BPlusTree;

/// Where a value's bucket lives and how full it is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketRef {
    /// Extent holding the bucket bytes.
    pub extent: Extent,
    /// Byte offset of the bucket within the extent (non-zero only for
    /// buckets inside a packed index's shared extent).
    pub offset: usize,
    /// Live entries in the bucket.
    pub count: u32,
    /// Entry slots allocated (`count == capacity` when packed).
    pub capacity: u32,
    /// Whether this value owns `extent` outright (CONTIGUOUS layout).
    /// Buckets inside a shared packed extent do not own it.
    pub owned: bool,
}

impl BucketRef {
    /// Free slots remaining in the bucket.
    pub fn slack(&self) -> u32 {
        self.capacity - self.count
    }
}

/// Which search structure backs the directory. The B+Tree is the only
/// one; the type stays so that configurations can name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DirectoryKind {
    /// Ordered B+Tree: ordered iteration is free.
    #[default]
    BTree,
}

/// A directory: search value → bucket reference, in a B+Tree.
#[derive(Debug, Clone)]
pub struct Directory(BPlusTree<SearchValue, BucketRef>);

impl Directory {
    /// Creates an empty directory.
    pub fn new(_kind: DirectoryKind) -> Self {
        Directory(BPlusTree::new())
    }

    /// Builds a directory from strictly ascending `(value, bucket)`
    /// pairs in one bottom-up pass ([`BPlusTree::from_sorted`]: leaves
    /// assembled at full occupancy instead of `n` top-down inserts).
    ///
    /// # Panics
    /// Panics if the values are not strictly ascending.
    pub fn from_sorted(_kind: DirectoryKind, pairs: Vec<(SearchValue, BucketRef)>) -> Self {
        Directory(BPlusTree::from_sorted(pairs, bptree::DEFAULT_ORDER))
    }

    /// Number of distinct search values.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no values are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up the bucket for `value`.
    pub fn get(&self, value: &SearchValue) -> Option<&BucketRef> {
        self.0.get(value)
    }

    /// Looks up the bucket for `value`, also returning the probe
    /// depth: the nodes visited on the root-to-leaf path. Feeds the
    /// `dir.probe_depth` histogram.
    pub fn get_with_depth(&self, value: &SearchValue) -> (Option<&BucketRef>, usize) {
        self.0.get_with_depth(value)
    }

    /// Looks up the bucket for `value` mutably.
    pub fn get_mut(&mut self, value: &SearchValue) -> Option<&mut BucketRef> {
        self.0.get_mut(value)
    }

    /// Inserts or replaces the bucket for `value`.
    pub fn insert(&mut self, value: SearchValue, bucket: BucketRef) -> Option<BucketRef> {
        self.0.insert(value, bucket)
    }

    /// Removes the bucket for `value`.
    pub fn remove(&mut self, value: &SearchValue) -> Option<BucketRef> {
        self.0.remove(value)
    }

    /// Iterates `(value, bucket)` pairs in ascending value order.
    pub fn iter_ordered(&self) -> bptree::Iter<'_, SearchValue, BucketRef> {
        self.0.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(count: u32) -> BucketRef {
        BucketRef {
            extent: Extent::new(0, 1),
            offset: 0,
            count,
            capacity: count,
            owned: false,
        }
    }

    #[test]
    fn both_kinds_behave_identically() {
        let mut d = Directory::new(DirectoryKind::BTree);
        for i in [3u64, 1, 2] {
            d.insert(SearchValue::from_u64(i), bucket(i as u32));
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.get(&SearchValue::from_u64(2)).unwrap().count, 2);
        let ordered: Vec<u32> = d.iter_ordered().map(|(_, b)| b.count).collect();
        assert_eq!(ordered, vec![1, 2, 3]);
        d.get_mut(&SearchValue::from_u64(1)).unwrap().count = 10;
        assert_eq!(d.get(&SearchValue::from_u64(1)).unwrap().count, 10);
        assert_eq!(d.remove(&SearchValue::from_u64(3)).unwrap().count, 3);
        assert_eq!(d.len(), 2);
        assert!(d.get(&SearchValue::from_u64(3)).is_none());
    }

    #[test]
    fn from_sorted_matches_insertion_for_both_kinds() {
        let pairs: Vec<(SearchValue, BucketRef)> = (0..100u64)
            .map(|i| (SearchValue::from_u64(i * 7), bucket(i as u32)))
            .collect();
        let bulk = Directory::from_sorted(DirectoryKind::BTree, pairs.clone());
        assert_eq!(bulk.len(), 100);
        let mut inserted = Directory::new(DirectoryKind::BTree);
        for (v, b) in pairs.clone() {
            inserted.insert(v, b);
        }
        let a: Vec<(SearchValue, BucketRef)> =
            bulk.iter_ordered().map(|(v, b)| (v.clone(), *b)).collect();
        let b: Vec<(SearchValue, BucketRef)> = inserted
            .iter_ordered()
            .map(|(v, b)| (v.clone(), *b))
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn slack_is_capacity_minus_count() {
        let b = BucketRef {
            extent: Extent::new(0, 1),
            offset: 0,
            count: 3,
            capacity: 8,
            owned: true,
        };
        assert_eq!(b.slack(), 5);
    }
}
