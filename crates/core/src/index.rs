//! A constituent index: directory + buckets on a volume.
//!
//! This implements the index structure of Section 2 (Figure 1) with
//! both layouts the paper distinguishes:
//!
//! * **Packed** — all buckets in one contiguous extent, minimal space,
//!   whole-index scans cost a single seek. Produced by `BuildIndex`
//!   and by packed-shadow updating.
//! * **CONTIGUOUS** (unpacked) — each grown value owns its own extent
//!   with slack for future growth (growth factor `g`), the layout
//!   incremental `AddToIndex`/`DeleteFromIndex` leave behind.
//!
//! A freshly built packed index that is then updated in place migrates
//! gradually: touched values relocate out of the shared base extent
//! (leaving dead space — the fragmentation the paper's `S'` captures),
//! untouched values stay put.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::OnceLock;

use wave_storage::{Extent, IoScheduler, ReadRequest, Sweep, Volume, WriteBuffer};

use crate::contiguous::ContiguousConfig;
use crate::directory::{BucketRef, Directory, DirectoryKind};
use crate::entry::{decode_entries, encode_entries, Entry, ENTRY_BYTES};
use crate::error::{IndexError, IndexResult};
use crate::filter::{FilterConfig, MembershipFilter};
use crate::ingest::{IngestBuffer, IngestConfig};
use crate::persist::DurableFiles;
use crate::query::TimeRange;
use crate::read::{self, Read};
use crate::record::{Day, DayBatch, SearchValue};

/// Configuration of a constituent index.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexConfig {
    /// Which search structure backs the directory.
    pub directory: DirectoryKind,
    /// CONTIGUOUS growth policy for incremental updates.
    pub contiguous: ContiguousConfig,
    /// Probe-pruning layer: membership filter + covering entries.
    pub filter: FilterConfig,
    /// Buffered ingest tier: memtable + batched spills.
    pub ingest: IngestConfig,
}

/// What a pruned probe resolved to, before any bucket I/O happens.
///
/// Produced by [`ConstituentIndex::prune_probe`]; the batched query
/// paths use it to decide which bucket reads to enqueue at all.
#[derive(Debug, Clone, Copy)]
pub enum ProbeOutcome<'a> {
    /// The membership filter proved the value absent — no directory
    /// walk, no I/O, empty answer.
    Skipped,
    /// The value is covered in memory; these are exactly the entries a
    /// bucket read would have decoded, at zero seeks, lent by the
    /// constituent.
    Covered(&'a [Entry]),
    /// The value has a bucket; the caller reads it as usual.
    Bucket(BucketRef),
    /// The directory has no bucket for the value (if a filter is
    /// enabled, this was a false positive).
    Absent,
}

/// The shared extent of a packed (or once-packed) index.
#[derive(Debug, Clone, Copy)]
struct BaseExtent {
    extent: Extent,
    /// Bytes of the extent that hold (live or dead) bucket data.
    used_bytes: usize,
}

/// One constituent index of a wave index.
///
/// ```
/// use wave_index::{ConstituentIndex, Day, DayBatch, IndexConfig, Record, RecordId, SearchValue};
/// use wave_storage::Volume;
///
/// let mut vol = Volume::default();
/// let batch = DayBatch::new(
///     Day(1),
///     vec![Record::with_values(RecordId(7), [SearchValue::from("war")])],
/// );
/// let idx =
///     ConstituentIndex::build_packed("I1", IndexConfig::default(), &mut vol, &[&batch]).unwrap();
/// assert!(idx.is_packed());
/// assert_eq!(idx.probe(&mut vol, &SearchValue::from("war")).unwrap().len(), 1);
/// idx.release(&mut vol).unwrap();
/// ```
#[derive(Debug)]
pub struct ConstituentIndex {
    label: String,
    cfg: IndexConfig,
    directory: Directory,
    base: Option<BaseExtent>,
    /// Days covered by this index (its *time-set*). A covered day may
    /// have zero records.
    days: BTreeSet<Day>,
    /// For each covered day, the values its records touched; lets
    /// deletion read only affected buckets (the indexer retains this
    /// from the day's batch, which it processed anyway).
    day_values: BTreeMap<Day, BTreeSet<SearchValue>>,
    /// For each covered day, how many entries it contributed. Lets
    /// buffered deletes adjust `entries` without reading any bucket.
    /// Days with zero entries have no key here.
    day_entries: BTreeMap<Day, u64>,
    /// Live entries across all buckets (logical: includes pending
    /// buffered adds, excludes pending buffered deletes).
    entries: u64,
    /// Buckets that own a private extent (CONTIGUOUS layout).
    owned_buckets: usize,
    /// Blocks in private bucket extents.
    owned_blocks: u64,
    /// Membership filter over indexed values (`None` when disabled).
    /// After deletes it describes a superset of the live values —
    /// never a false negative.
    filter: Option<MembershipFilter>,
    /// In-memory covering entries for the hottest buckets, mirrored
    /// byte-for-byte through every update so a covered probe equals
    /// the bucket read it replaces.
    covering: BTreeMap<SearchValue, Vec<Entry>>,
    /// The buffered ingest tier: pending adds and deletes that have
    /// not yet reached the directory/buckets. Always present; empty
    /// (and untouched) when `cfg.ingest.enabled` is off.
    ingest: IngestBuffer,
    /// The durable files this index is byte-identical to, as the
    /// commit or load that vouched for them recorded them; lets
    /// [`commit_wave`](crate::persist::commit_wave) carry the files
    /// into the next epoch instead of rewriting them. Set through
    /// `&self`, emptied by every `&mut self` mutator.
    durable: OnceLock<DurableFiles>,
}

impl ConstituentIndex {
    /// Creates an empty index (the `Temp ← φ` of the algorithms).
    pub fn new_empty(label: impl Into<String>, cfg: IndexConfig) -> Self {
        ConstituentIndex {
            label: label.into(),
            cfg,
            directory: Directory::new(cfg.directory),
            base: None,
            days: BTreeSet::new(),
            day_values: BTreeMap::new(),
            day_entries: BTreeMap::new(),
            entries: 0,
            owned_buckets: 0,
            owned_blocks: 0,
            filter: cfg
                .filter
                .enabled
                .then(|| MembershipFilter::with_capacity(cfg.filter, 0)),
            covering: BTreeMap::new(),
            ingest: IngestBuffer::default(),
            durable: OnceLock::new(),
        }
    }

    /// `BuildIndex(Days)`: builds a packed index for a cluster of day
    /// batches. All buckets are written into one contiguous extent in
    /// value order with a single sequential write.
    pub fn build_packed(
        label: impl Into<String>,
        cfg: IndexConfig,
        vol: &mut Volume,
        batches: &[&DayBatch],
    ) -> IndexResult<Self> {
        let mut map: BTreeMap<SearchValue, Vec<Entry>> = BTreeMap::new();
        let mut days = BTreeSet::new();
        for batch in batches {
            days.insert(batch.day);
            for record in &batch.records {
                for (value, aux) in &record.values {
                    map.entry(value.clone())
                        .or_default()
                        .push(Entry::new(record.id, *aux, batch.day));
                }
            }
        }
        Self::build_from_map(label, cfg, vol, map, days)
    }

    /// Builds a packed index from an aggregated value → entries map.
    ///
    /// This is the bulk-build fast path: the map is already sorted,
    /// so the directory is assembled bottom-up
    /// ([`Directory::from_sorted`] — packed B+Tree leaves, no
    /// per-value insert) and the buckets are emitted in one
    /// elevator-ordered sequential pass through the write-behind
    /// [`WriteBuffer`]. Bulk writes go through the scan-resistant
    /// cache bypass, so a rebuild cannot evict the hot working set.
    /// The buffer is flushed before this function returns, which is
    /// what keeps the flush-before-commit rule local: by the time a
    /// `commit_wave` reads index pages, nothing is pending.
    pub(crate) fn build_from_map(
        label: impl Into<String>,
        cfg: IndexConfig,
        vol: &mut Volume,
        map: BTreeMap<SearchValue, Vec<Entry>>,
        days: BTreeSet<Day>,
    ) -> IndexResult<Self> {
        let mut idx = ConstituentIndex::new_empty(label, cfg);
        idx.days = days;
        let total: usize = map.values().map(Vec::len).sum();
        if total == 0 {
            return Ok(idx);
        }
        // The build walks the sorted value map anyway, so the filter
        // and the covering set come for free (no extra I/O).
        if cfg.filter.enabled {
            idx.filter = Some(MembershipFilter::build(cfg.filter, map.len(), map.keys()));
            idx.covering = Self::pick_covering(cfg.filter.covering_hot, &map);
        }
        // Encode all buckets in value order, recording each bucket's
        // placement within the shared base extent.
        let mut buf = Vec::with_capacity(total * ENTRY_BYTES);
        let mut placements: Vec<(SearchValue, usize, u32)> = Vec::with_capacity(map.len());
        for (value, entries) in &map {
            let offset = buf.len();
            for e in entries {
                e.encode_into(&mut buf);
                idx.day_values
                    .entry(e.day)
                    .or_default()
                    .insert(value.clone());
                *idx.day_entries.entry(e.day).or_default() += 1;
            }
            placements.push((value.clone(), offset, entries.len() as u32));
        }
        // Allocate up front so every bucket ref carries the real
        // extent — no placeholder-patching pass over the directory.
        let extent = vol.alloc_bytes(buf.len())?;
        let mut wb = WriteBuffer::new();
        let mut pairs: Vec<(SearchValue, BucketRef)> = Vec::with_capacity(placements.len());
        let buffered: IndexResult<()> =
            placements
                .into_iter()
                .try_for_each(|(value, offset, count)| {
                    let bytes = &buf[offset..offset + count as usize * ENTRY_BYTES];
                    wb.buffer_write(extent, offset, bytes)?;
                    pairs.push((
                        value,
                        BucketRef {
                            extent,
                            offset,
                            count,
                            capacity: count,
                            owned: false,
                        },
                    ));
                    Ok(())
                });
        // Adjacent buckets coalesce back into a single transfer at
        // flush time; a failed flush frees the extent so an I/O error
        // never leaks space (same contract as `alloc_and_write`).
        if let Err(e) = buffered.and_then(|()| wb.flush(vol).map_err(IndexError::from)) {
            let _ = vol.free(extent);
            return Err(e);
        }
        idx.directory = Directory::from_sorted(cfg.directory, pairs);
        idx.base = Some(BaseExtent {
            extent,
            used_bytes: buf.len(),
        });
        idx.entries = total as u64;
        Ok(idx)
    }

    /// Chooses the `hot` largest buckets — ties broken by value order,
    /// so the choice is deterministic — as the in-memory covering set.
    fn pick_covering(
        hot: usize,
        map: &BTreeMap<SearchValue, Vec<Entry>>,
    ) -> BTreeMap<SearchValue, Vec<Entry>> {
        if hot == 0 {
            return BTreeMap::new();
        }
        let mut by_size: Vec<(&SearchValue, &Vec<Entry>)> = map.iter().collect();
        by_size.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
        by_size
            .into_iter()
            .take(hot)
            .map(|(v, e)| (v.clone(), e.clone()))
            .collect()
    }

    /// Rebuilds the membership filter from the directory's live values
    /// (in memory, no I/O). Used when in-place adds saturate the
    /// filter and by `recover` when a persisted sidecar is lost.
    fn rebuild_filter(&mut self) {
        self.durable.take();
        if !self.cfg.filter.enabled {
            return;
        }
        if !self.ingest.is_empty() {
            // With mutations in flight the directory lags behind the
            // logical state; `day_values` is eagerly maintained and is
            // exactly the live logical value set.
            let live: BTreeSet<&SearchValue> = self.day_values.values().flatten().collect();
            let mut f = MembershipFilter::with_capacity(self.cfg.filter, live.len() * 2);
            for value in live {
                f.insert(value);
            }
            self.filter = Some(f);
            return;
        }
        // Double the sizing so steady in-place growth doesn't rebuild
        // on every batch.
        let mut f = MembershipFilter::with_capacity(self.cfg.filter, self.directory.len() * 2);
        for (value, _) in self.directory.iter_ordered() {
            f.insert(value);
        }
        self.filter = Some(f);
    }

    /// `AddToIndex(Days, I)` with in-place CONTIGUOUS updating.
    ///
    /// Groups the batches' entries by value; values with slack take
    /// the appended entries directly, overflowing values relocate to
    /// an extent `g` times larger. The index is unpacked afterwards.
    pub fn add_batches_in_place(
        &mut self,
        vol: &mut Volume,
        batches: &[&DayBatch],
    ) -> IndexResult<()> {
        self.durable.take();
        let mut incoming: BTreeMap<SearchValue, Vec<Entry>> = BTreeMap::new();
        for batch in batches {
            self.days.insert(batch.day);
            for record in &batch.records {
                for (value, aux) in &record.values {
                    incoming
                        .entry(value.clone())
                        .or_default()
                        .push(Entry::new(record.id, *aux, batch.day));
                    self.day_values
                        .entry(batch.day)
                        .or_default()
                        .insert(value.clone());
                    *self.day_entries.entry(batch.day).or_default() += 1;
                }
            }
        }
        for (value, new_entries) in incoming {
            let added = new_entries.len() as u32;
            if let Some(filter) = self.filter.as_mut() {
                filter.insert(&value);
            }
            // A covered value mirrors exactly what the bucket receives
            // (appends land at the end on every update path below).
            if let Some(covered) = self.covering.get_mut(&value) {
                covered.extend_from_slice(&new_entries);
            }
            match self.directory.get(&value).copied() {
                None => {
                    let capacity = self.cfg.contiguous.grown_capacity(added);
                    let extent = Self::alloc_and_write(
                        vol,
                        capacity as usize * ENTRY_BYTES,
                        &encode_entries(&new_entries),
                    )?;
                    self.owned_buckets += 1;
                    self.owned_blocks += extent.len;
                    self.directory.insert(
                        value,
                        BucketRef {
                            extent,
                            offset: 0,
                            count: added,
                            capacity,
                            owned: true,
                        },
                    );
                }
                Some(bucket) if bucket.slack() >= added => {
                    let at = bucket.offset + bucket.count as usize * ENTRY_BYTES;
                    vol.write_at(bucket.extent, at, &encode_entries(&new_entries))?;
                    self.directory
                        .get_mut(&value)
                        .expect("bucket present")
                        .count += added;
                }
                Some(bucket) => {
                    // Relocate: read the old bucket, write old + new
                    // into a larger private extent, release the old
                    // one if this value owned it.
                    let mut all = self.read_bucket(vol, &bucket)?;
                    all.extend_from_slice(&new_entries);
                    let needed = all.len() as u32;
                    let capacity = self.cfg.contiguous.grown_capacity(needed);
                    let extent = Self::alloc_and_write(
                        vol,
                        capacity as usize * ENTRY_BYTES,
                        &encode_entries(&all),
                    )?;
                    if bucket.owned {
                        self.owned_blocks -= bucket.extent.len;
                        self.owned_buckets -= 1;
                        vol.free(bucket.extent)?;
                    }
                    self.owned_buckets += 1;
                    self.owned_blocks += extent.len;
                    self.directory.insert(
                        value,
                        BucketRef {
                            extent,
                            offset: 0,
                            count: needed,
                            capacity,
                            owned: true,
                        },
                    );
                }
            }
            self.entries += added as u64;
        }
        if self
            .filter
            .as_ref()
            .is_some_and(MembershipFilter::is_saturated)
        {
            self.rebuild_filter();
        }
        Ok(())
    }

    /// `DeleteFromIndex(Days, I)` with in-place updating.
    ///
    /// Only buckets whose values were touched by the victim days are
    /// read and compacted. Buckets that fall below the shrink
    /// threshold relocate into right-sized extents.
    pub fn delete_days_in_place(
        &mut self,
        vol: &mut Volume,
        victim_days: &BTreeSet<Day>,
    ) -> IndexResult<()> {
        self.durable.take();
        let mut affected: BTreeSet<SearchValue> = BTreeSet::new();
        for day in victim_days {
            if let Some(values) = self.day_values.remove(day) {
                affected.extend(values);
            }
            self.day_entries.remove(day);
            self.days.remove(day);
        }
        let mut values_dropped = false;
        for value in affected {
            let bucket = *self.directory.get(&value).ok_or_else(|| {
                IndexError::Corrupt(format!("day_values names {value} but directory lacks it"))
            })?;
            let old = self.read_bucket(vol, &bucket)?;
            let keep: Vec<Entry> = old
                .iter()
                .copied()
                .filter(|e| !victim_days.contains(&e.day))
                .collect();
            let removed = (old.len() - keep.len()) as u64;
            self.entries -= removed;
            // Keep the covering mirror byte-identical to the bucket:
            // same survivors, same order.
            if self.covering.contains_key(&value) {
                if keep.is_empty() {
                    self.covering.remove(&value);
                } else {
                    self.covering.insert(value.clone(), keep.clone());
                }
            }
            if keep.is_empty() {
                self.directory.remove(&value);
                values_dropped = true;
                if bucket.owned {
                    self.owned_blocks -= bucket.extent.len;
                    self.owned_buckets -= 1;
                    vol.free(bucket.extent)?;
                }
                continue;
            }
            let count = keep.len() as u32;
            if bucket.owned && self.cfg.contiguous.should_shrink(count, bucket.capacity) {
                let capacity = self.cfg.contiguous.grown_capacity(count);
                let extent = Self::alloc_and_write(
                    vol,
                    capacity as usize * ENTRY_BYTES,
                    &encode_entries(&keep),
                )?;
                self.owned_blocks -= bucket.extent.len;
                vol.free(bucket.extent)?;
                self.owned_blocks += extent.len;
                self.directory.insert(
                    value,
                    BucketRef {
                        extent,
                        offset: 0,
                        count,
                        capacity,
                        owned: true,
                    },
                );
            } else {
                // Compact within the bucket: rewrite the survivors.
                vol.write_at(bucket.extent, bucket.offset, &encode_entries(&keep))?;
                let slot = self.directory.get_mut(&value).expect("bucket present");
                slot.count = count;
            }
        }
        // The filter is add-only, so a value whose last entry just
        // left would otherwise keep its bits set forever: the add path
        // rebuilds on saturation, but a delete-heavy workload never
        // saturates and the false-positive rate would only ratchet up
        // (DESIGN.md §14). Rebuild from the live directory whenever a
        // value disappeared so deletes re-tighten the filter exactly
        // like adds do.
        if values_dropped {
            self.rebuild_filter();
        }
        Ok(())
    }

    /// Copies this index to fresh extents with the same layout — the
    /// copy half of *simple shadow updating* (`CP` in the cost model).
    ///
    /// On I/O failure the partial copy's extents are released before
    /// the error is returned.
    pub fn clone_shadow(&self, vol: &mut Volume, label: impl Into<String>) -> IndexResult<Self> {
        let label = label.into();
        match self.clone_shadow_inner(vol, label) {
            Ok(new) => Ok(new),
            Err(unwound) => {
                let (partial, e) = *unwound;
                let _ = partial.release(vol);
                Err(e)
            }
        }
    }

    fn clone_shadow_inner(
        &self,
        vol: &mut Volume,
        label: String,
    ) -> Result<Self, Box<(Self, IndexError)>> {
        let mut new = ConstituentIndex::new_empty(label, self.cfg);
        new.days = self.days.clone();
        new.day_values = self.day_values.clone();
        new.day_entries = self.day_entries.clone();
        new.entries = self.entries;
        new.filter = self.filter.clone();
        new.covering = self.covering.clone();
        new.ingest = self.ingest.clone();
        macro_rules! try_or_unwind {
            ($expr:expr) => {
                match $expr {
                    Ok(v) => v,
                    Err(e) => return Err(Box::new((new, e.into()))),
                }
            };
        }
        // Copy the base extent wholesale (dead space included: a
        // simple shadow is a byte copy, it does not compact).
        if let Some(base) = self.base {
            let bytes = try_or_unwind!(vol.read_at(base.extent, 0, base.used_bytes));
            let extent = try_or_unwind!(Self::alloc_and_write(vol, base.used_bytes.max(1), &bytes));
            new.base = Some(BaseExtent {
                extent,
                used_bytes: base.used_bytes,
            });
        }
        for (value, bucket) in self.directory.iter_ordered() {
            if bucket.owned {
                let entries = try_or_unwind!(self.read_bucket(vol, bucket));
                let extent = try_or_unwind!(Self::alloc_and_write(
                    vol,
                    bucket.capacity as usize * ENTRY_BYTES,
                    &encode_entries(&entries)
                ));
                new.owned_buckets += 1;
                new.owned_blocks += extent.len;
                new.directory.insert(
                    value.clone(),
                    BucketRef {
                        extent,
                        offset: 0,
                        count: bucket.count,
                        capacity: bucket.capacity,
                        owned: true,
                    },
                );
            } else {
                let base = new.base.as_ref().expect("unowned bucket implies base");
                new.directory.insert(
                    value.clone(),
                    BucketRef {
                        extent: base.extent,
                        ..*bucket
                    },
                );
            }
        }
        Ok(new)
    }

    /// The *packed shadow* smart copy (`SMCP` in the cost model):
    /// streams the old index, drops entries of `drop_days`, merges the
    /// entries of `add`, and writes a fresh packed index.
    pub fn smart_copy(
        &self,
        vol: &mut Volume,
        label: impl Into<String>,
        drop_days: &BTreeSet<Day>,
        add: &[&DayBatch],
    ) -> IndexResult<Self> {
        let mut map = self.read_all(vol)?;
        for entries in map.values_mut() {
            entries.retain(|e| !drop_days.contains(&e.day));
        }
        map.retain(|_, entries| !entries.is_empty());
        let mut days: BTreeSet<Day> = self.days.difference(drop_days).copied().collect();
        for batch in add {
            days.insert(batch.day);
            for record in &batch.records {
                for (value, aux) in &record.values {
                    map.entry(value.clone())
                        .or_default()
                        .push(Entry::new(record.id, *aux, batch.day));
                }
            }
        }
        Self::build_from_map(label, self.cfg, vol, map, days)
    }

    /// `IndexProbe` on this constituent: all entries for `value`.
    ///
    /// Consults the membership filter and the covering set first (see
    /// [`ConstituentIndex::prune_probe`]); the answer is byte-identical
    /// to an unfiltered probe, only the I/O differs.
    pub fn probe(&self, vol: &mut Volume, value: &SearchValue) -> IndexResult<Vec<Entry>> {
        self.probe_in(vol, value, TimeRange::all())
    }

    /// Resolves a probe as far as it can go without bucket I/O:
    /// membership filter, then covering set, then directory. This is
    /// the single pruning decision of the read path (`read.rs`), so a
    /// solo probe, a batch and the server's arms skip and cover
    /// identically. Increments the `filter.*` counters.
    pub fn prune_probe(&self, vol: &Volume, value: &SearchValue) -> ProbeOutcome<'_> {
        if let Some(filter) = &self.filter {
            vol.obs().counter("filter.checks").inc();
            if !filter.may_contain(value) {
                vol.obs().counter("filter.skips").inc();
                return ProbeOutcome::Skipped;
            }
        }
        if let Some(entries) = self.covering.get(value) {
            vol.obs().counter("filter.covering_hits").inc();
            return ProbeOutcome::Covered(entries);
        }
        match self.bucket_for(vol, value) {
            Some(bucket) => ProbeOutcome::Bucket(bucket),
            None => {
                // A value born in the buffer has no bucket yet; its
                // pending adds are the whole logical bucket, served at
                // zero seeks like a covered value.
                if let Some(pending) = self.ingest.adds_for(value) {
                    return ProbeOutcome::Covered(pending);
                }
                if self.filter.is_some() {
                    vol.obs().counter("filter.false_positives").inc();
                }
                ProbeOutcome::Absent
            }
        }
    }

    /// Directory lookup without the bucket read: the batched query
    /// path collects bucket refs across values and constituents and
    /// submits all the bucket reads through the I/O scheduler in one
    /// elevator-ordered sweep. Records the same `dir.probe_depth`
    /// metric as [`ConstituentIndex::probe`].
    pub fn bucket_for(&self, vol: &Volume, value: &SearchValue) -> Option<BucketRef> {
        let (bucket, depth) = self.directory.get_with_depth(value);
        vol.obs().histogram("dir.probe_depth").record(depth as u64);
        bucket.copied()
    }

    /// `TimedIndexProbe` on this constituent: entries for `value`
    /// inserted within `range` — prune, fetch the bucket, decode what
    /// the range and the ingest overlay keep (the crate's one read
    /// path).
    pub fn probe_in(
        &self,
        vol: &mut Volume,
        value: &SearchValue,
        range: TimeRange,
    ) -> IndexResult<Vec<Entry>> {
        read::read_slot(self, vol, Read::Probe(value), range, None)
    }

    /// `SegmentScan` on this constituent: every entry.
    pub fn scan(&self, vol: &mut Volume) -> IndexResult<Vec<Entry>> {
        self.scan_in(vol, TimeRange::all())
    }

    /// `TimedSegmentScan` on this constituent: every entry inserted
    /// within `range`, reading the base extent sequentially (one seek)
    /// plus each private extent.
    ///
    /// With buffered mutations in flight the scan merges the memtable:
    /// each disk bucket goes through `decode_bucket_in` (out-of-range
    /// and pending-deleted days dropped, pending adds appended) and
    /// buffer-only values are spliced in at their sorted directory
    /// position, so the output is byte-identical to a scan after the
    /// spill.
    pub fn scan_in(&self, vol: &mut Volume, range: TimeRange) -> IndexResult<Vec<Entry>> {
        let kept: u64 = self
            .day_entries
            .iter()
            .filter(|(day, _)| range.contains(**day))
            .map(|(_, n)| n)
            .sum();
        let mut out = Vec::with_capacity(kept as usize);
        let base_buf = match (&self.base, self.has_base_residents()) {
            (Some(base), true) => Some(vol.read_at(base.extent, 0, base.used_bytes)?),
            _ => None,
        };
        let mut pending = self.ingest.iter_adds().peekable();
        for (value, bucket) in self.directory.iter_ordered() {
            while let Some((_, entries)) = pending.next_if(|(pv, _)| *pv < value) {
                out.extend(entries.iter().filter(|e| range.contains(e.day)));
            }
            // The bucket decode appends this value's pending adds
            // itself, so skip them in the splice iterator.
            pending.next_if(|(pv, _)| *pv == value);
            let count = bucket.count as usize;
            if bucket.owned {
                let bytes = vol.read_at(bucket.extent, bucket.offset, count * ENTRY_BYTES)?;
                self.decode_bucket_in(value, &bytes, count, range, &mut out)?;
            } else {
                let buf = base_buf
                    .as_ref()
                    .ok_or_else(|| IndexError::Corrupt("unowned bucket without base".into()))?;
                let bytes = buf.get(bucket.offset..).unwrap_or_default();
                self.decode_bucket_in(value, bytes, count, range, &mut out)?;
            }
        }
        for (_, entries) in pending {
            out.extend(entries.iter().filter(|e| range.contains(e.day)));
        }
        Ok(out)
    }

    /// Appends to `out` the logical entries of `value`'s disk bucket
    /// that lie in `range`: `bytes` holds the bucket's `count` encoded
    /// entries as fetched (trailing bytes ignored). An entry is decoded
    /// only if its day is in `range` and not pending deletion; then the
    /// value's in-range pending adds follow. The output equals
    /// `decode_entries` -> [`IngestBuffer::overlay`] -> retain `range`,
    /// entry for entry and in order. Bucket entries need not be in day
    /// order (`build_packed` keeps its batches' order), so every entry's
    /// day is read.
    ///
    /// When every day of the constituent lies in `range` and no delete
    /// is pending, nothing can be dropped and the bucket decodes whole.
    pub(crate) fn decode_bucket_in(
        &self,
        value: &SearchValue,
        bytes: &[u8],
        count: usize,
        range: TimeRange,
        out: &mut Vec<Entry>,
    ) -> IndexResult<()> {
        let bytes = bytes.get(..count * ENTRY_BYTES).ok_or_else(|| {
            IndexError::Corrupt(format!(
                "bucket of {value} holds {} of {} bytes",
                bytes.len(),
                count * ENTRY_BYTES
            ))
        })?;
        let encoded = bytes.chunks_exact(ENTRY_BYTES);
        let adds = self.ingest.adds_for(value).map_or(&[][..], Vec::as_slice);
        let no_deletes = self.ingest.pending_delete_days() == 0;
        let all_days = self
            .day_span()
            .is_none_or(|(lo, hi)| range.contains(lo) && range.contains(hi));
        if no_deletes && all_days {
            out.reserve(count + adds.len());
            out.extend(encoded.map(Entry::decode));
            out.extend_from_slice(adds);
            return Ok(());
        }
        // A pending-deleted day outside the range is dropped by the
        // range test already; look deletes up only if one is inside.
        let check_deletes = self.ingest.delete_days().any(|day| range.contains(day));
        for raw in encoded {
            let day = Entry::decode_day(raw);
            if range.contains(day) && !(check_deletes && self.ingest.day_deleted(day)) {
                out.push(Entry::decode(raw));
            }
        }
        out.extend(adds.iter().filter(|e| range.contains(e.day)));
        Ok(())
    }

    /// Reads every bucket into a value → entries map (used by smart
    /// copies and consistency checks).
    pub fn read_all(&self, vol: &mut Volume) -> IndexResult<BTreeMap<SearchValue, Vec<Entry>>> {
        let mut map = BTreeMap::new();
        let base_buf = match (&self.base, self.has_base_residents()) {
            (Some(base), true) => Some(vol.read_at(base.extent, 0, base.used_bytes)?),
            _ => None,
        };
        for (value, bucket) in self.directory.iter_ordered() {
            let entries = if bucket.owned {
                self.read_bucket(vol, bucket)?
            } else {
                let buf = base_buf
                    .as_ref()
                    .ok_or_else(|| IndexError::Corrupt("unowned bucket without base".into()))?;
                decode_entries(&buf[bucket.offset..], bucket.count as usize)
            };
            map.insert(value.clone(), entries);
        }
        Ok(map)
    }

    /// Buffers a day-granular update — victim-day deletions plus new
    /// day batches — in the ingest tier, touching no bucket.
    ///
    /// The logical metadata (`days`, `day_values`, `day_entries`,
    /// `entries`, filter, covering) is updated eagerly so schemes and
    /// probe pruning see the post-update state immediately; only the
    /// directory and the buckets lag until the spill.
    pub fn buffer_update(&mut self, vol: &Volume, del_days: &BTreeSet<Day>, add: &[&DayBatch]) {
        self.buffer_delete_days(vol, del_days);
        self.buffer_add_batches(vol, add);
    }

    /// Buffers the deletion of `victim_days`: stashes each on-disk
    /// day's affected values for the spill, or retracts a day that
    /// only ever existed in the buffer.
    fn buffer_delete_days(&mut self, vol: &Volume, victim_days: &BTreeSet<Day>) {
        self.durable.take();
        let mut dropped_any = false;
        let mut buffered = 0u64;
        for day in victim_days {
            if !self.days.remove(day) {
                continue;
            }
            let values = self.day_values.remove(day).unwrap_or_default();
            self.entries -= self.day_entries.remove(day).unwrap_or(0);
            for value in &values {
                // Keep the covering mirror logical: drop the day's
                // entries, and the whole key once it holds none.
                let now_empty = self.covering.get_mut(value).map(|covered| {
                    covered.retain(|e| e.day != *day);
                    covered.is_empty()
                });
                if now_empty == Some(true) {
                    self.covering.remove(value);
                }
                if !self.day_values.values().any(|vals| vals.contains(value)) {
                    dropped_any = true;
                }
            }
            if self.ingest.day_pending(*day) {
                self.ingest.retract_pending_day(*day);
            } else if !values.is_empty() {
                self.ingest.push_delete(*day, values);
            }
            buffered += 1;
        }
        if buffered > 0 {
            vol.obs().counter("ingest.buffered_deletes").add(buffered);
        }
        // Same policy as the in-place delete: re-tighten the add-only
        // filter whenever a value logically disappeared.
        if dropped_any {
            self.rebuild_filter();
        }
    }

    /// Buffers `AddToIndex` batches as pending memtable entries.
    fn buffer_add_batches(&mut self, vol: &Volume, batches: &[&DayBatch]) {
        self.durable.take();
        let mut incoming: BTreeMap<SearchValue, Vec<Entry>> = BTreeMap::new();
        for batch in batches {
            self.days.insert(batch.day);
            self.ingest.note_pending_day(batch.day);
            for record in &batch.records {
                for (value, aux) in &record.values {
                    incoming
                        .entry(value.clone())
                        .or_default()
                        .push(Entry::new(record.id, *aux, batch.day));
                    self.day_values
                        .entry(batch.day)
                        .or_default()
                        .insert(value.clone());
                    *self.day_entries.entry(batch.day).or_default() += 1;
                }
            }
        }
        let mut added = 0u64;
        for (value, new_entries) in incoming {
            added += new_entries.len() as u64;
            if let Some(filter) = self.filter.as_mut() {
                filter.insert(&value);
            }
            // Appends land at the end of the logical bucket, exactly
            // where an unbuffered add would have put them.
            if let Some(covered) = self.covering.get_mut(&value) {
                covered.extend_from_slice(&new_entries);
            }
            self.ingest.push_adds(&value, &new_entries);
        }
        self.entries += added;
        if added > 0 {
            vol.obs().counter("ingest.buffered_adds").add(added);
        }
        if self
            .filter
            .as_ref()
            .is_some_and(MembershipFilter::is_saturated)
        {
            self.rebuild_filter();
        }
    }

    /// Spills the ingest buffer into the directory and buckets with
    /// in-place CONTIGUOUS updating, touching each affected bucket at
    /// most once: one elevator-ordered batched read for every bucket
    /// that must be rewritten, then one coalesced write-behind flush.
    /// Returns the number of pending add entries that were merged.
    ///
    /// The logical metadata was maintained at buffer time, so this
    /// only moves the physical layer; queries answer identically
    /// before and after.
    pub(crate) fn spill_in_place(&mut self, vol: &mut Volume) -> IndexResult<u64> {
        self.durable.take();
        let (deletes, adds) = self.ingest.drain();
        if deletes.is_empty() && adds.is_empty() {
            return Ok(0);
        }
        let del_days: BTreeSet<Day> = deletes.keys().copied().collect();
        let mut affected: BTreeSet<SearchValue> = BTreeSet::new();
        for values in deletes.into_values() {
            affected.extend(values);
        }
        let spilled: u64 = adds.values().map(|e| e.len() as u64).sum();
        let mut touched: BTreeSet<SearchValue> = affected.clone();
        touched.extend(adds.keys().cloned());
        // Pass 1: batch-read every bucket the merge must rewrite — the
        // delete-affected ones and the adds growing past their slack.
        // Add-only buckets with room take their appends with no read
        // at all.
        let mut read_values: Vec<(SearchValue, u32)> = Vec::new();
        let mut requests: Vec<ReadRequest> = Vec::new();
        for value in &touched {
            let Some(bucket) = self.directory.get(value).copied() else {
                continue;
            };
            let added = adds.get(value).map_or(0, |e| e.len() as u32);
            if affected.contains(value) || bucket.slack() < added {
                requests.push(ReadRequest::new(
                    bucket.extent,
                    bucket.offset,
                    bucket.count as usize * ENTRY_BYTES,
                ));
                read_values.push((value.clone(), bucket.count));
            }
        }
        let sweep = if requests.is_empty() {
            None
        } else {
            Some(IoScheduler::read_batch(vol, &requests)?)
        };
        let mut old: BTreeMap<SearchValue, Vec<Entry>> = read_values
            .into_iter()
            .zip(sweep.iter().flat_map(Sweep::iter))
            .map(|((value, count), bytes)| (value, decode_entries(bytes, count as usize)))
            .collect();
        // Pass 2: merge each touched bucket once and stage the write;
        // the flush below coalesces adjacent rewrites into sequential
        // transfers.
        let mut wb = WriteBuffer::new();
        for value in &touched {
            let new_entries = adds.get(value);
            match self.directory.get(value).copied() {
                None => {
                    let Some(new_entries) = new_entries else {
                        return Err(IndexError::Corrupt(format!(
                            "spill: pending delete names {value} but directory lacks it"
                        )));
                    };
                    let count = new_entries.len() as u32;
                    let capacity = self.cfg.contiguous.grown_capacity(count);
                    let extent = vol.alloc_bytes(capacity as usize * ENTRY_BYTES)?;
                    wb.buffer_write(extent, 0, &encode_entries(new_entries))?;
                    self.owned_buckets += 1;
                    self.owned_blocks += extent.len;
                    self.directory.insert(
                        value.clone(),
                        BucketRef {
                            extent,
                            offset: 0,
                            count,
                            capacity,
                            owned: true,
                        },
                    );
                }
                Some(bucket) => {
                    if let Some(mut keep) = old.remove(value) {
                        keep.retain(|e| !del_days.contains(&e.day));
                        if let Some(new_entries) = new_entries {
                            keep.extend_from_slice(new_entries);
                        }
                        let count = keep.len() as u32;
                        if count == 0 {
                            self.directory.remove(value);
                            if bucket.owned {
                                self.owned_blocks -= bucket.extent.len;
                                self.owned_buckets -= 1;
                                vol.free(bucket.extent)?;
                            }
                        } else if count <= bucket.capacity
                            && !(bucket.owned
                                && self.cfg.contiguous.should_shrink(count, bucket.capacity))
                        {
                            wb.buffer_write(bucket.extent, bucket.offset, &encode_entries(&keep))?;
                            self.directory.get_mut(value).expect("bucket present").count = count;
                        } else {
                            let capacity = self.cfg.contiguous.grown_capacity(count);
                            let extent = vol.alloc_bytes(capacity as usize * ENTRY_BYTES)?;
                            wb.buffer_write(extent, 0, &encode_entries(&keep))?;
                            if bucket.owned {
                                self.owned_blocks -= bucket.extent.len;
                                self.owned_buckets -= 1;
                                vol.free(bucket.extent)?;
                            }
                            self.owned_buckets += 1;
                            self.owned_blocks += extent.len;
                            self.directory.insert(
                                value.clone(),
                                BucketRef {
                                    extent,
                                    offset: 0,
                                    count,
                                    capacity,
                                    owned: true,
                                },
                            );
                        }
                    } else {
                        let new_entries = new_entries.expect("unread touched bucket has adds");
                        let at = bucket.offset + bucket.count as usize * ENTRY_BYTES;
                        wb.buffer_write(bucket.extent, at, &encode_entries(new_entries))?;
                        self.directory.get_mut(value).expect("bucket present").count +=
                            new_entries.len() as u32;
                    }
                }
            }
        }
        wb.flush(vol)?;
        Ok(spilled)
    }

    /// Spills by rebuilding: streams the physical contents, applies
    /// the buffer's deletes and adds, and writes a fresh packed twin
    /// (the packed-shadow analog of [`ConstituentIndex::smart_copy`]).
    /// The caller swaps it in and releases `self`.
    pub(crate) fn spill_packed(&self, vol: &mut Volume) -> IndexResult<Self> {
        let mut map = self.read_all(vol)?;
        for entries in map.values_mut() {
            entries.retain(|e| !self.ingest.day_deleted(e.day));
        }
        for (value, pending) in self.ingest.iter_adds() {
            map.entry(value.clone())
                .or_default()
                .extend_from_slice(pending);
        }
        map.retain(|_, entries| !entries.is_empty());
        Self::build_from_map(self.label.clone(), self.cfg, vol, map, self.days.clone())
    }

    /// Re-buffers a decoded `.ing` sidecar log over the freshly
    /// decoded physical image (`load_committed` / `recover`). The
    /// delete stashes are re-derived from the image's `day_values`,
    /// reproducing the pre-commit logical state exactly.
    pub(crate) fn replay_ingest(
        &mut self,
        vol: &Volume,
        deletes: &[Day],
        pending_days: &[Day],
        adds: BTreeMap<SearchValue, Vec<Entry>>,
    ) {
        self.durable.take();
        let victims: BTreeSet<Day> = deletes.iter().copied().collect();
        self.buffer_delete_days(vol, &victims);
        for day in pending_days {
            self.days.insert(*day);
            self.ingest.note_pending_day(*day);
        }
        let mut added = 0u64;
        for (value, entries) in adds {
            for e in &entries {
                self.day_values
                    .entry(e.day)
                    .or_default()
                    .insert(value.clone());
                *self.day_entries.entry(e.day).or_default() += 1;
            }
            added += entries.len() as u64;
            if let Some(filter) = self.filter.as_mut() {
                filter.insert(&value);
            }
            if let Some(covered) = self.covering.get_mut(&value) {
                covered.extend_from_slice(&entries);
            }
            self.ingest.push_adds(&value, &entries);
        }
        self.entries += added;
        if self
            .filter
            .as_ref()
            .is_some_and(MembershipFilter::is_saturated)
        {
            self.rebuild_filter();
        }
    }

    /// The days whose entries are physically present in the buckets:
    /// `days` minus buffer-only days, plus days whose deletion is
    /// still pending. This is the time-set a serialized image must
    /// carry, since the image captures the physical layer only.
    pub(crate) fn physical_days(&self) -> BTreeSet<Day> {
        if self.ingest.is_empty() {
            return self.days.clone();
        }
        let mut days: BTreeSet<Day> = self
            .days
            .iter()
            .copied()
            .filter(|d| !self.ingest.day_pending(*d))
            .collect();
        days.extend(self.ingest.delete_days());
        days
    }

    /// Applies the ingest buffer's overlay to a decoded bucket:
    /// pending-deleted days filtered out, pending adds appended. A
    /// no-op when the buffer is empty. This is the reference statement
    /// of the overlay (see [`IngestBuffer::overlay`]), not the read
    /// path: probes, batches and scans decode a fetched bucket through
    /// the crate-private `decode_bucket_in`, which decodes only what
    /// the range and the overlay keep.
    pub fn overlay_pending(&self, value: &SearchValue, entries: Vec<Entry>) -> Vec<Entry> {
        self.ingest.overlay(value, entries)
    }

    /// Whether this constituent buffers mutations (`cfg.ingest`).
    pub fn ingest_enabled(&self) -> bool {
        self.cfg.ingest.enabled
    }

    /// The ingest buffer tier (empty unless buffering is enabled and
    /// mutations are pending).
    pub fn ingest(&self) -> &IngestBuffer {
        &self.ingest
    }

    /// Whether the buffer has crossed a spill threshold.
    pub fn ingest_should_spill(&self) -> bool {
        self.ingest.should_spill(&self.cfg.ingest)
    }

    /// Bytes a `.ing` sidecar of the current buffer would occupy — the
    /// pending-spill bytes `wavectl status` reports. Zero when clean.
    pub fn pending_ingest_bytes(&self) -> u64 {
        if self.ingest.is_empty() {
            0
        } else {
            self.ingest.encoded_len() as u64
        }
    }

    /// Allocates `capacity_bytes` and writes `bytes` at its start,
    /// freeing the extent again if the write fails so an I/O error
    /// never leaks space.
    fn alloc_and_write(
        vol: &mut Volume,
        capacity_bytes: usize,
        bytes: &[u8],
    ) -> IndexResult<Extent> {
        let extent = vol.alloc_bytes(capacity_bytes)?;
        if let Err(e) = vol.write_at(extent, 0, bytes) {
            let _ = vol.free(extent);
            return Err(e.into());
        }
        Ok(extent)
    }

    fn read_bucket(&self, vol: &mut Volume, bucket: &BucketRef) -> IndexResult<Vec<Entry>> {
        let bytes = vol.read_at(
            bucket.extent,
            bucket.offset,
            bucket.count as usize * ENTRY_BYTES,
        )?;
        Ok(decode_entries(&bytes, bucket.count as usize))
    }

    /// Whether any bucket still lives inside the base extent.
    fn has_base_residents(&self) -> bool {
        self.owned_buckets < self.directory.len()
    }

    /// Frees every extent this index holds. Must be called instead of
    /// simply dropping the value, or the volume's space accounting
    /// will show a leak.
    pub fn release(self, vol: &mut Volume) -> IndexResult<()> {
        if let Some(base) = self.base {
            vol.free(base.extent)?;
        }
        for (_, bucket) in self.directory.iter_ordered() {
            if bucket.owned {
                vol.free(bucket.extent)?;
            }
        }
        Ok(())
    }

    /// Display label (e.g. `"I1"`, `"Temp"`, `"T3"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Renames the index (the algorithms' `Rename T as I_j`).
    pub fn set_label(&mut self, label: impl Into<String>) {
        self.durable.take();
        self.label = label.into();
    }

    /// The days covered by this index, ascending.
    pub fn days(&self) -> &BTreeSet<Day> {
        &self.days
    }

    /// Number of days covered.
    pub fn len_days(&self) -> usize {
        self.days.len()
    }

    /// Oldest and newest covered day, if any.
    pub fn day_span(&self) -> Option<(Day, Day)> {
        match (self.days.first(), self.days.last()) {
            (Some(&lo), Some(&hi)) => Some((lo, hi)),
            _ => None,
        }
    }

    /// Live entries.
    pub fn entry_count(&self) -> u64 {
        self.entries
    }

    /// Distinct indexed values.
    pub fn distinct_values(&self) -> usize {
        self.directory.len()
    }

    /// Blocks of disk space this index occupies (base + private
    /// extents, including slack and dead space).
    pub fn blocks(&self) -> u64 {
        self.base.map_or(0, |b| b.extent.len) + self.owned_blocks
    }

    /// Byte-granularity footprint: base bytes in use (live or dead)
    /// plus every private bucket's *capacity*. This is the `S'`
    /// measure at byte resolution — the CONTIGUOUS slack without the
    /// block-rounding noise that dominates at small scales.
    pub fn capacity_bytes(&self) -> u64 {
        let mut bytes = self.base.map_or(0, |b| b.used_bytes as u64);
        for (_, bucket) in self.directory.iter_ordered() {
            if bucket.owned {
                bytes += bucket.capacity as u64 * ENTRY_BYTES as u64;
            }
        }
        bytes
    }

    /// Bytes a perfectly packed copy of this index would occupy (`S`).
    pub fn packed_bytes(&self) -> u64 {
        self.entries * ENTRY_BYTES as u64
    }

    /// Whether the index is packed (single contiguous extent, no
    /// slack, no relocated buckets).
    pub fn is_packed(&self) -> bool {
        self.owned_buckets == 0
    }

    /// The membership filter, if filtering is enabled. `commit_wave`
    /// serializes this as the constituent's `.filt` sidecar.
    pub fn membership_filter(&self) -> Option<&MembershipFilter> {
        self.filter.as_ref()
    }

    /// Installs a persisted filter (the verified sidecar from
    /// `load_committed`). The sidecar may carry stale superset bits
    /// from pre-commit deletes, which a fresh rebuild would not — both
    /// are correct, so the persisted state wins for fidelity.
    pub(crate) fn install_filter(&mut self, filter: MembershipFilter) {
        self.durable.take();
        self.filter = Some(filter);
    }

    /// The durable files this index is still byte-identical to, if a
    /// commit or load recorded any and no mutator has run since.
    pub(crate) fn durable(&self) -> Option<&DurableFiles> {
        self.durable.get()
    }

    /// Records that `files` hold exactly this index's image, filter
    /// and ingest log. A marker that is already set stays: it names
    /// other files with the same bytes (a commit to a second store),
    /// and the next mutator drops it either way.
    pub(crate) fn mark_durable(&self, files: DurableFiles) {
        let _ = self.durable.set(files);
    }

    /// Number of values currently covered in memory.
    pub fn covering_len(&self) -> usize {
        self.covering.len()
    }

    /// Exhaustive self-check: decodes every bucket and validates entry
    /// counts, day coverage, and the `day_values` side table. For
    /// tests and the driver's verification mode.
    pub fn check_consistency(&self, vol: &mut Volume) -> IndexResult<()> {
        let physical = self.read_all(vol)?;
        for (value, entries) in &physical {
            let bucket = self
                .directory
                .get(value)
                .ok_or_else(|| IndexError::Corrupt("read_all value missing".into()))?;
            if bucket.count as usize != entries.len() {
                return Err(IndexError::Corrupt(format!(
                    "bucket {value}: count {} != decoded {}",
                    bucket.count,
                    entries.len()
                )));
            }
            if bucket.capacity < bucket.count {
                return Err(IndexError::Corrupt(format!(
                    "bucket {value}: capacity below count"
                )));
            }
        }
        // All metadata is logical: validate it against the physical
        // contents with the ingest overlay applied (the identity map
        // when the buffer is clean).
        let mut logical = physical;
        if !self.ingest.is_empty() {
            let values: BTreeSet<SearchValue> = logical
                .keys()
                .cloned()
                .chain(self.ingest.iter_adds().map(|(v, _)| v.clone()))
                .collect();
            let mut overlaid = BTreeMap::new();
            for value in values {
                let disk = logical.remove(&value).unwrap_or_default();
                let merged = self.ingest.overlay(&value, disk);
                if !merged.is_empty() {
                    overlaid.insert(value, merged);
                }
            }
            logical = overlaid;
        }
        let mut total = 0u64;
        let mut per_day: BTreeMap<Day, u64> = BTreeMap::new();
        for (value, entries) in &logical {
            for e in entries {
                total += 1;
                *per_day.entry(e.day).or_default() += 1;
                if !self.days.contains(&e.day) {
                    return Err(IndexError::Corrupt(format!(
                        "entry {e} has day outside the index time-set"
                    )));
                }
                let listed = self
                    .day_values
                    .get(&e.day)
                    .is_some_and(|vals| vals.contains(value));
                if !listed {
                    return Err(IndexError::Corrupt(format!(
                        "entry {e} for {value} missing from day_values"
                    )));
                }
            }
        }
        if total != self.entries {
            return Err(IndexError::Corrupt(format!(
                "entry counter {} != decoded total {total}",
                self.entries
            )));
        }
        if per_day != self.day_entries {
            return Err(IndexError::Corrupt(format!(
                "day_entries side table {:?} != decoded {per_day:?}",
                self.day_entries
            )));
        }
        // The filter must never false-negative a live value, and every
        // covered value must mirror its logical bucket byte-for-byte.
        if let Some(filter) = &self.filter {
            for value in logical.keys() {
                if !filter.may_contain(value) {
                    return Err(IndexError::Corrupt(format!(
                        "membership filter false negative on {value}"
                    )));
                }
            }
        }
        for (value, covered) in &self.covering {
            if logical.get(value) != Some(covered) {
                return Err(IndexError::Corrupt(format!(
                    "covering entries for {value} diverge from the bucket"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{Record, RecordId};
    use wave_obs::SplitMix64;

    fn batch(day: u32, specs: &[(u64, &[&str])]) -> DayBatch {
        DayBatch::new(
            Day(day),
            specs
                .iter()
                .map(|(id, words)| {
                    Record::with_values(RecordId(*id), words.iter().map(|w| SearchValue::from(*w)))
                })
                .collect(),
        )
    }

    fn cfg() -> IndexConfig {
        IndexConfig::default()
    }

    #[test]
    fn build_packed_basics() {
        let mut vol = Volume::default();
        let b1 = batch(1, &[(1, &["war", "peace"]), (2, &["war"])]);
        let b2 = batch(2, &[(3, &["love"])]);
        let idx = ConstituentIndex::build_packed("I1", cfg(), &mut vol, &[&b1, &b2]).unwrap();
        assert!(idx.is_packed());
        assert_eq!(idx.entry_count(), 4);
        assert_eq!(idx.len_days(), 2);
        assert_eq!(idx.distinct_values(), 3);
        idx.check_consistency(&mut vol).unwrap();
        // Probe.
        let war = idx.probe(&mut vol, &SearchValue::from("war")).unwrap();
        assert_eq!(war.len(), 2);
        assert!(war.iter().all(|e| e.day == Day(1)));
        // Scan sees everything.
        let all = idx.scan(&mut vol).unwrap();
        assert_eq!(all.len(), 4);
        idx.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn packed_scan_costs_one_seek() {
        let mut vol = Volume::default();
        let records: Vec<Record> = (0..500)
            .map(|i| Record::with_values(RecordId(i), vec![SearchValue::from_u64(i % 50)]))
            .collect();
        let b = DayBatch::new(Day(1), records);
        let idx = ConstituentIndex::build_packed("I1", cfg(), &mut vol, &[&b]).unwrap();
        let before = vol.stats();
        idx.scan(&mut vol).unwrap();
        let d = vol.stats().since(&before);
        assert_eq!(d.seeks, 1, "packed scan is one sequential read");
        idx.release(&mut vol).unwrap();
    }

    #[test]
    fn add_in_place_unpacks_and_grows() {
        let mut vol = Volume::default();
        let b1 = batch(1, &[(1, &["war"])]);
        let mut idx = ConstituentIndex::build_packed("I1", cfg(), &mut vol, &[&b1]).unwrap();
        assert!(idx.is_packed());
        let b2 = batch(2, &[(2, &["war"]), (3, &["new"])]);
        idx.add_batches_in_place(&mut vol, &[&b2]).unwrap();
        assert!(!idx.is_packed());
        assert_eq!(idx.entry_count(), 3);
        assert_eq!(idx.len_days(), 2);
        idx.check_consistency(&mut vol).unwrap();
        let war = idx.probe(&mut vol, &SearchValue::from("war")).unwrap();
        assert_eq!(war.len(), 2);
        // Unpacked space exceeds the packed minimum: slack exists.
        let packed_min =
            ConstituentIndex::build_packed("ref", cfg(), &mut vol, &[&b1, &b2]).unwrap();
        assert!(idx.blocks() >= packed_min.blocks());
        packed_min.release(&mut vol).unwrap();
        idx.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn add_to_empty_index() {
        let mut vol = Volume::default();
        let mut idx = ConstituentIndex::new_empty("Temp", cfg());
        assert_eq!(idx.entry_count(), 0);
        let b = batch(5, &[(1, &["x", "y"])]);
        idx.add_batches_in_place(&mut vol, &[&b]).unwrap();
        assert_eq!(idx.entry_count(), 2);
        assert_eq!(idx.days().first(), Some(&Day(5)));
        idx.check_consistency(&mut vol).unwrap();
        idx.release(&mut vol).unwrap();
    }

    #[test]
    fn growth_relocates_with_factor() {
        let mut vol = Volume::default();
        let mut idx = ConstituentIndex::new_empty("I", cfg());
        // Fill one value past its initial capacity repeatedly.
        for day in 1..=20u32 {
            let b = batch(day, &[(day as u64, &["hot"])]);
            idx.add_batches_in_place(&mut vol, &[&b]).unwrap();
            idx.check_consistency(&mut vol).unwrap();
        }
        let hot = idx.probe(&mut vol, &SearchValue::from("hot")).unwrap();
        assert_eq!(hot.len(), 20);
        idx.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0, "relocations freed old extents");
    }

    #[test]
    fn delete_days_removes_only_victims() {
        let mut vol = Volume::default();
        let b1 = batch(1, &[(1, &["war", "red"])]);
        let b2 = batch(2, &[(2, &["war", "blue"])]);
        let mut idx = ConstituentIndex::build_packed("I1", cfg(), &mut vol, &[&b1, &b2]).unwrap();
        let victims: BTreeSet<Day> = [Day(1)].into();
        idx.delete_days_in_place(&mut vol, &victims).unwrap();
        assert_eq!(idx.entry_count(), 2);
        assert_eq!(idx.len_days(), 1);
        assert!(idx
            .probe(&mut vol, &SearchValue::from("red"))
            .unwrap()
            .is_empty());
        let war = idx.probe(&mut vol, &SearchValue::from("war")).unwrap();
        assert_eq!(war.len(), 1);
        assert_eq!(war[0].day, Day(2));
        idx.check_consistency(&mut vol).unwrap();
        idx.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn delete_everything_leaves_empty_index() {
        let mut vol = Volume::default();
        let b1 = batch(1, &[(1, &["a"])]);
        let mut idx = ConstituentIndex::build_packed("I", cfg(), &mut vol, &[&b1]).unwrap();
        idx.delete_days_in_place(&mut vol, &[Day(1)].into())
            .unwrap();
        assert_eq!(idx.entry_count(), 0);
        assert_eq!(idx.distinct_values(), 0);
        assert!(idx.scan(&mut vol).unwrap().is_empty());
        idx.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn shrink_reclaims_space_after_heavy_deletes() {
        let mut vol = Volume::default();
        let mut idx = ConstituentIndex::new_empty("I", cfg());
        // 300 entries per day for one hot value so the bucket spans
        // many blocks (shrinking below one block is invisible).
        for day in 1..=32u32 {
            let records: Vec<Record> = (0..300)
                .map(|i| {
                    Record::with_values(
                        RecordId(day as u64 * 1000 + i),
                        vec![SearchValue::from("k")],
                    )
                })
                .collect();
            let b = DayBatch::new(Day(day), records);
            idx.add_batches_in_place(&mut vol, &[&b]).unwrap();
        }
        let before = idx.blocks();
        let victims: BTreeSet<Day> = (1..=30).map(Day).collect();
        idx.delete_days_in_place(&mut vol, &victims).unwrap();
        idx.check_consistency(&mut vol).unwrap();
        assert!(
            idx.blocks() < before,
            "shrink should return blocks: {} vs {before}",
            idx.blocks()
        );
        assert_eq!(idx.entry_count(), 600);
        idx.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn clone_shadow_is_faithful() {
        let mut vol = Volume::default();
        let b1 = batch(1, &[(1, &["war", "red"]), (2, &["war"])]);
        let mut idx = ConstituentIndex::build_packed("I1", cfg(), &mut vol, &[&b1]).unwrap();
        let b2 = batch(2, &[(3, &["war"])]);
        idx.add_batches_in_place(&mut vol, &[&b2]).unwrap();
        let shadow = idx.clone_shadow(&mut vol, "I1'").unwrap();
        assert_eq!(shadow.entry_count(), idx.entry_count());
        assert_eq!(shadow.days(), idx.days());
        assert_eq!(shadow.blocks(), idx.blocks(), "same layout, same size");
        shadow.check_consistency(&mut vol).unwrap();
        let a = idx.scan(&mut vol).unwrap();
        let mut b = shadow.scan(&mut vol).unwrap();
        let mut a2 = a.clone();
        a2.sort_unstable();
        b.sort_unstable();
        assert_eq!(a2, b);
        idx.release(&mut vol).unwrap();
        shadow.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn smart_copy_expires_merges_and_packs() {
        let mut vol = Volume::default();
        let b1 = batch(1, &[(1, &["old"])]);
        let b2 = batch(2, &[(2, &["war"])]);
        let mut idx = ConstituentIndex::build_packed("I1", cfg(), &mut vol, &[&b1, &b2]).unwrap();
        // Unpack it first so the smart copy has real work to do.
        let b3 = batch(3, &[(3, &["war"])]);
        idx.add_batches_in_place(&mut vol, &[&b3]).unwrap();
        assert!(!idx.is_packed());
        let b4 = batch(4, &[(4, &["war", "fresh"])]);
        let packed = idx
            .smart_copy(&mut vol, "I1+", &[Day(1)].into(), &[&b4])
            .unwrap();
        assert!(packed.is_packed());
        assert_eq!(packed.len_days(), 3); // days 2, 3, 4
        assert!(packed
            .probe(&mut vol, &SearchValue::from("old"))
            .unwrap()
            .is_empty());
        assert_eq!(
            packed
                .probe(&mut vol, &SearchValue::from("war"))
                .unwrap()
                .len(),
            3
        );
        packed.check_consistency(&mut vol).unwrap();
        idx.release(&mut vol).unwrap();
        packed.release(&mut vol).unwrap();
        assert_eq!(vol.live_blocks(), 0);
    }

    #[test]
    fn timed_probe_and_scan_filter() {
        let mut vol = Volume::default();
        let batches: Vec<DayBatch> = (1..=5).map(|d| batch(d, &[(d as u64, &["w"])])).collect();
        let refs: Vec<&DayBatch> = batches.iter().collect();
        let idx = ConstituentIndex::build_packed("I", cfg(), &mut vol, &refs).unwrap();
        let r = TimeRange::between(Day(2), Day(4));
        let probed = idx.probe_in(&mut vol, &SearchValue::from("w"), r).unwrap();
        assert_eq!(probed.len(), 3);
        let scanned = idx.scan_in(&mut vol, r).unwrap();
        assert_eq!(scanned.len(), 3);
        assert!(scanned.iter().all(|e| r.contains(e.day)));
        idx.release(&mut vol).unwrap();
    }

    fn random_day(rng: &mut SplitMix64, day: u32, buffered: bool) -> DayBatch {
        let records = (0..rng.range_usize(0, 6))
            .map(|i| {
                let values = (0..rng.range_usize(1, 3)).map(|_| {
                    if buffered && rng.gen_bool(0.3) {
                        SearchValue::from_u64(rng.range_u64(50, 52))
                    } else {
                        SearchValue::from_u64(rng.range_u64(0, 5))
                    }
                });
                Record::with_values(RecordId(day as u64 * 100 + i as u64), values)
            })
            .collect();
        DayBatch::new(Day(day), records)
    }

    /// The read path's bucket decode against its reference,
    /// `decode_entries` -> `IngestBuffer::overlay` -> retain: buckets
    /// built from batches in shuffled day order, pending deletes and
    /// pending adds inside and outside each range, and ranges that
    /// keep everything, nothing, one day, a cut of the span, or lie
    /// beside it.
    #[test]
    fn bucket_decode_matches_overlay_then_retain() {
        let mut keep_all_cases = 0;
        for seed in 0..256u64 {
            let mut rng = SplitMix64::new(0xDEC0_DE00 + seed);
            let mut vol = Volume::default();
            let mut days: Vec<u32> = (1..=12).collect();
            rng.shuffle(&mut days);
            let built = rng.range_usize(1, 8);
            let added = rng.range_usize(0, 12 - built);
            let base: Vec<DayBatch> = days[..built]
                .iter()
                .map(|&d| random_day(&mut rng, d, false))
                .collect();
            let refs: Vec<&DayBatch> = base.iter().collect();
            let mut idx = ConstituentIndex::build_packed("I", cfg(), &mut vol, &refs).unwrap();
            let del: BTreeSet<Day> = if seed % 4 == 0 {
                BTreeSet::new()
            } else {
                days[..built]
                    .iter()
                    .filter(|_| rng.gen_bool(0.35))
                    .map(|&d| Day(d))
                    .collect()
            };
            let add: Vec<DayBatch> = days[built..built + added]
                .iter()
                .map(|&d| random_day(&mut rng, d, true))
                .collect();
            let add_refs: Vec<&DayBatch> = add.iter().collect();
            idx.buffer_update(&vol, &del, &add_refs);

            let (lo, hi) = (rng.range_u32(1, 12), rng.range_u32(1, 12));
            let one = Day(rng.range_u32(1, 12));
            let ranges = [
                TimeRange::all(),
                TimeRange::between(Day(9), Day(3)),
                TimeRange::between(one, one),
                TimeRange::between(Day(lo.min(hi)), Day(lo.max(hi))),
                TimeRange::since(Day(lo)),
                TimeRange::between(Day(20), Day(30)),
            ];
            for v in (0..=5).chain(50..=52).chain([99]) {
                let value = SearchValue::from_u64(v);
                let (mut bytes, count) = match idx.bucket_for(&vol, &value) {
                    Some(b) => {
                        let len = b.count as usize * ENTRY_BYTES;
                        let bytes = vol.read_at(b.extent, b.offset, len).unwrap();
                        (bytes.to_vec(), b.count as usize)
                    }
                    None => (Vec::new(), 0),
                };
                // Sweep buffers and base-extent slices carry bytes
                // past the bucket; they must be ignored.
                if seed % 2 == 1 {
                    bytes.extend_from_slice(&[0xAB; 7]);
                }
                for range in ranges {
                    let mut want = idx.ingest().overlay(&value, decode_entries(&bytes, count));
                    want.retain(|e| range.contains(e.day));
                    let sentinel = Entry::new(RecordId(u64::MAX), 0, Day(0));
                    let mut got = vec![sentinel];
                    idx.decode_bucket_in(&value, &bytes, count, range, &mut got)
                        .unwrap();
                    assert_eq!(got[0], sentinel, "seed {seed}: appends, never clears");
                    assert_eq!(got[1..], want[..], "seed {seed} value {v} {range:?}");
                    let all_days = idx
                        .day_span()
                        .is_none_or(|(a, b)| range.contains(a) && range.contains(b));
                    if del.is_empty() && all_days && count > 0 {
                        keep_all_cases += 1;
                    }
                }
                if count > 0 {
                    let short = &bytes[..count * ENTRY_BYTES - 1];
                    let err = idx.decode_bucket_in(
                        &value,
                        short,
                        count,
                        TimeRange::all(),
                        &mut Vec::new(),
                    );
                    assert!(matches!(err, Err(IndexError::Corrupt(_))), "seed {seed}");
                }
            }
            idx.release(&mut vol).unwrap();
        }
        assert!(keep_all_cases > 0, "the keep-all loop was never taken");
    }

    #[test]
    fn empty_day_is_still_covered() {
        let mut vol = Volume::default();
        let b = DayBatch::empty(Day(7));
        let idx = ConstituentIndex::build_packed("I", cfg(), &mut vol, &[&b]).unwrap();
        assert_eq!(idx.len_days(), 1);
        assert_eq!(idx.entry_count(), 0);
        assert!(idx.scan(&mut vol).unwrap().is_empty());
        idx.release(&mut vol).unwrap();
    }

    /// The durable marker is what lets `commit_wave` skip a
    /// constituent, so every `&mut self` method must drop it — also
    /// the ones only the loaders call, which no commit-level
    /// equivalence test can reach with a marker set.
    #[test]
    fn every_mutator_drops_the_durable_marker() {
        type Mutator = fn(&mut ConstituentIndex, &mut Volume);
        let mutators: [(&str, Mutator); 9] = [
            ("add_batches_in_place", |idx, vol| {
                let b = batch(3, &[(9, &["x"])]);
                idx.add_batches_in_place(vol, &[&b]).unwrap();
            }),
            ("delete_days_in_place", |idx, vol| {
                idx.delete_days_in_place(vol, &BTreeSet::from([Day(1)]))
                    .unwrap();
            }),
            ("buffer_update (delete)", |idx, vol| {
                idx.buffer_update(vol, &BTreeSet::from([Day(1)]), &[]);
            }),
            ("buffer_update (add)", |idx, vol| {
                let b = batch(3, &[(9, &["x"])]);
                idx.buffer_update(vol, &BTreeSet::new(), &[&b]);
            }),
            ("spill_in_place", |idx, vol| {
                idx.spill_in_place(vol).unwrap();
            }),
            ("replay_ingest", |idx, vol| {
                idx.replay_ingest(vol, &[], &[Day(3)], BTreeMap::new());
            }),
            ("rebuild_filter", |idx, _| idx.rebuild_filter()),
            ("install_filter", |idx, _| {
                idx.install_filter(MembershipFilter::with_capacity(FilterConfig::default(), 4));
            }),
            ("set_label", |idx, _| idx.set_label("renamed")),
        ];
        let file = |name: &str| crate::persist::FileRef {
            file: name.into(),
            len: 1,
            crc64: 1,
        };
        for (name, mutate) in mutators {
            let mut vol = Volume::default();
            let b1 = batch(1, &[(1, &["x", "y"])]);
            let b2 = batch(2, &[(2, &["x"])]);
            let mut idx =
                ConstituentIndex::build_packed("I", cfg(), &mut vol, &[&b1, &b2]).unwrap();
            // A dirty buffer, so the spill has something to move.
            idx.buffer_update(&vol, &BTreeSet::new(), &[&batch(3, &[(3, &["z"])])]);
            idx.mark_durable(DurableFiles {
                image: file("slot0.e1"),
                filter: Some(file("slot0.e1.filt")),
                ingest: Some(file("slot0.e1.ing")),
            });
            assert!(idx.durable().is_some());
            mutate(&mut idx, &mut vol);
            assert!(idx.durable().is_none(), "{name} kept the marker");
            idx.release(&mut vol).unwrap();
        }
    }
}
