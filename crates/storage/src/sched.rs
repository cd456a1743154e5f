//! Batched I/O scheduling: elevator-ordered reads and coalesced
//! write-behind.
//!
//! The paper's cost model charges `seek + Trans` per request, so the
//! cheapest way to move a pile of buckets is to touch the platter in
//! one sweep: sort the batch by block address (one C-SCAN elevator
//! pass), merge requests that land on adjacent blocks into single
//! transfers, and pay one seek per *run* instead of one per request.
//! [`IoScheduler::read_batch`] does exactly that for reads;
//! [`WriteBuffer`] is the write-behind half, buffering writes and
//! coalescing contiguous ones at [`WriteBuffer::flush`] time.
//!
//! # Request lifecycle
//!
//! 1. Callers describe each access as a [`ReadRequest`] (extent,
//!    byte offset, byte length) — the same triple the single-request
//!    [`crate::Volume::read_at`] takes.
//! 2. Every request is validated against *its own* extent up front;
//!    a request past its extent fails the whole batch with
//!    [`StorageError::OutOfExtent`] before any I/O is issued. An
//!    empty batch fails with [`StorageError::EmptyBatch`].
//! 3. Requests are sorted by first block address and adjacent or
//!    overlapping spans are merged into transfers.
//! 4. Each transfer is issued through the scan-resistant bypass path
//!    ([`crate::Volume::read_at_bypass`] /
//!    [`crate::Volume::write_at_bypass`]): cached blocks still hit
//!    for free, but bulk traffic never evicts the hot working set.
//! 5. Results are sliced back out of the transfer buffers and
//!    returned in the original submission order — byte-identical to
//!    issuing the requests one at a time.
//!
//! # Flush-before-commit rule
//!
//! [`WriteBuffer`] is write-*behind*: until [`WriteBuffer::flush`]
//! returns `Ok`, buffered bytes exist only in memory. Any code that
//! participates in crash-consistent commits (the index layer's
//! `commit_wave` manifest flip) must flush its write buffer **before**
//! the manifest flip is attempted, so that the durable image the
//! manifest points at is complete. Builders in `wave-index` flush
//! before returning their freshly built index, which keeps the rule
//! local: by the time a commit reads index pages, no dirty data is
//! pending.
//!
//! # Metrics
//!
//! Each batch reports into the volume's [`wave_obs::Obs`] registry:
//! `sched.requests` (requests submitted), `sched.merged` (requests
//! absorbed into a neighbouring transfer), `sched.seeks_saved`
//! (seeks avoided versus the one-seek-per-request worst case, from
//! measured disk stats), and `sched.bulk_pages` (blocks written by
//! coalesced flushes).

use crate::block::{Extent, BLOCK_SIZE};
use crate::error::{StorageError, StorageResult};
use crate::volume::Volume;

/// One read in a batch: `len` bytes at byte `offset` inside `extent`.
///
/// The triple mirrors [`crate::Volume::read_at`]'s parameters, so a
/// call site batching N reads submits exactly what it would have
/// issued one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadRequest {
    /// Extent the read is confined to.
    pub extent: Extent,
    /// Byte offset within the extent.
    pub offset: usize,
    /// Number of bytes to read (zero is legal and reads nothing).
    pub len: usize,
}

impl ReadRequest {
    /// A read of `len` bytes at byte `offset` inside `extent`.
    pub fn new(extent: Extent, offset: usize, len: usize) -> Self {
        ReadRequest {
            extent,
            offset,
            len,
        }
    }

    /// A read of the whole extent.
    pub fn whole(extent: Extent) -> Self {
        ReadRequest {
            extent,
            offset: 0,
            len: extent.byte_len(),
        }
    }
}

/// Absolute block span of one non-empty request, used for planning.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Index of the request in the submitted batch.
    req: usize,
    /// First absolute block touched.
    first: u64,
    /// Last absolute block touched (inclusive).
    last: u64,
}

/// One merged device transfer covering one or more request spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Transfer {
    /// First absolute block of the transfer.
    first: u64,
    /// Last absolute block (inclusive).
    last: u64,
}

impl Transfer {
    fn blocks(&self) -> u64 {
        self.last - self.first + 1
    }
}

/// The elevator plan for a batch: merged transfers in ascending block
/// order, plus each request's transfer assignment.
#[derive(Debug)]
struct Plan {
    transfers: Vec<Transfer>,
    /// For each request: `Some(transfer index)` or `None` for
    /// zero-length requests.
    assignment: Vec<Option<usize>>,
    /// Number of non-empty requests.
    spanned: usize,
}

/// Stateless batch scheduler over a [`Volume`].
///
/// All methods are associated functions: the scheduler carries no
/// state of its own — ordering and merging are pure functions of the
/// batch, and the volume owns the device clock.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoScheduler;

impl IoScheduler {
    /// Validates every request against its own extent and builds the
    /// elevator plan.
    ///
    /// Validation happens per request *before* merging: a merged
    /// transfer spans a synthetic extent that could otherwise mask an
    /// individual request's overrun.
    fn plan(requests: &[ReadRequest]) -> StorageResult<Plan> {
        if requests.is_empty() {
            return Err(StorageError::EmptyBatch);
        }
        let mut spans = Vec::with_capacity(requests.len());
        for (i, r) in requests.iter().enumerate() {
            let cap = r.extent.byte_len();
            if r.offset.checked_add(r.len).is_none_or(|end| end > cap) {
                return Err(StorageError::OutOfExtent {
                    extent_blocks: r.extent.len,
                    offset: r.offset,
                    len: r.len,
                });
            }
            if r.len == 0 {
                continue;
            }
            spans.push(Span {
                req: i,
                first: r.extent.start + (r.offset / BLOCK_SIZE) as u64,
                last: r.extent.start + ((r.offset + r.len - 1) / BLOCK_SIZE) as u64,
            });
        }
        // The elevator pass: one ascending sweep over the batch.
        spans.sort_by_key(|s| (s.first, s.last));
        let spanned = spans.len();
        let mut transfers: Vec<Transfer> = Vec::new();
        let mut assignment: Vec<Option<usize>> = vec![None; requests.len()];
        for s in spans {
            let merged = match transfers.last_mut() {
                // Adjacent or overlapping spans become one transfer.
                // Spans on different disks can never merge: the
                // address stride between disks is 2^40 blocks.
                Some(t) if s.first <= t.last + 1 => {
                    t.last = t.last.max(s.last);
                    true
                }
                _ => false,
            };
            if !merged {
                transfers.push(Transfer {
                    first: s.first,
                    last: s.last,
                });
            }
            let tid = transfers.len() - 1;
            if let Some(slot) = assignment.get_mut(s.req) {
                *slot = Some(tid);
            }
        }
        Ok(Plan {
            transfers,
            assignment,
            spanned,
        })
    }

    /// Executes a batch of reads in one elevator sweep and returns the
    /// results in submission order.
    ///
    /// The answers are byte-identical to issuing each request through
    /// [`Volume::read_at`] in submission order; only the device
    /// schedule (and therefore the simulated cost) differs. Transfers
    /// go through the scan-resistant bypass, so cached blocks still
    /// hit for free but a bulk batch cannot evict the hot set.
    ///
    /// # Errors
    ///
    /// [`StorageError::EmptyBatch`] for an empty slice;
    /// [`StorageError::OutOfExtent`] if any request overruns its own
    /// extent (checked before any I/O is issued).
    pub fn read_batch(vol: &mut Volume, requests: &[ReadRequest]) -> StorageResult<Vec<Vec<u8>>> {
        // Inherit whatever request context rides with the volume, so
        // batched reads issued deep inside a traced request still join
        // its causal tree without every caller threading a context.
        let ctx = vol.trace_ctx();
        Self::read_batch_traced(vol, requests, ctx)
    }

    /// [`IoScheduler::read_batch`] under a request-scoped trace
    /// context: the whole sweep runs inside a `sched.read_batch` child
    /// span of `ctx`, so batched I/O issued on behalf of a server
    /// fan-out shows up in that request's causal tree with its
    /// request/transfer counts and simulated latency. With
    /// [`wave_obs::TraceCtx::NONE`] the span stays untraced and this
    /// is behaviourally `read_batch`.
    pub fn read_batch_traced(
        vol: &mut Volume,
        requests: &[ReadRequest],
        ctx: wave_obs::TraceCtx,
    ) -> StorageResult<Vec<Vec<u8>>> {
        let mut span = vol.obs().clone().child_span(
            ctx,
            "sched.read_batch",
            wave_obs::fields![("requests", requests.len() as u64)],
        );
        let result = Self::read_batch_inner(vol, requests, &mut span);
        if let Err(e) = &result {
            span.set_end_field("error", e.to_string());
        }
        result
    }

    fn read_batch_inner(
        vol: &mut Volume,
        requests: &[ReadRequest],
        span: &mut wave_obs::Span,
    ) -> StorageResult<Vec<Vec<u8>>> {
        let plan = Self::plan(requests)?;
        let before = vol.stats();
        let mut buffers: Vec<Vec<u8>> = Vec::with_capacity(plan.transfers.len());
        for t in &plan.transfers {
            let span = Extent::new(t.first, t.blocks());
            buffers.push(vol.read_at_bypass(span, 0, span.byte_len())?);
        }
        let delta = vol.stats().since(&before);

        let mut results: Vec<Vec<u8>> = vec![Vec::new(); requests.len()];
        for (i, (r, assigned)) in requests.iter().zip(&plan.assignment).enumerate() {
            let Some(tid) = assigned else { continue };
            let (Some(t), Some(buf)) = (plan.transfers.get(*tid), buffers.get(*tid)) else {
                continue;
            };
            let first_blk = r.extent.start + (r.offset / BLOCK_SIZE) as u64;
            let rel = ((first_blk - t.first) as usize) * BLOCK_SIZE + r.offset % BLOCK_SIZE;
            let Some(bytes) = buf.get(rel..rel + r.len) else {
                // Unreachable by construction (the transfer covers
                // every merged span); surfaced as the typed range
                // error rather than a panic on the serving path.
                return Err(StorageError::OutOfExtent {
                    extent_blocks: r.extent.len,
                    offset: r.offset,
                    len: r.len,
                });
            };
            if let Some(slot) = results.get_mut(i) {
                *slot = bytes.to_vec();
            }
        }

        let obs = vol.obs().clone();
        obs.counter("sched.requests").add(requests.len() as u64);
        obs.counter("sched.merged")
            .add((plan.spanned - plan.transfers.len()) as u64);
        // Seeks avoided versus the one-seek-per-request worst case,
        // from measured stats (cache hits can make the real schedule
        // even cheaper than the plan predicts).
        obs.counter("sched.seeks_saved")
            .add((plan.spanned as u64).saturating_sub(delta.seeks));
        span.set_end_field("transfers", plan.transfers.len() as u64);
        span.set_end_field(
            "latency_us",
            (delta.sim_seconds * 1e6).round().max(0.0) as u64,
        );
        Ok(results)
    }
}

/// Statistics returned by one [`WriteBuffer::flush`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Buffered writes drained by this flush.
    pub writes: usize,
    /// Device transfers issued after coalescing.
    pub transfers: usize,
    /// Total payload bytes written.
    pub bytes: usize,
}

/// One buffered write: `data` at byte `offset` inside `extent`.
#[derive(Debug, Clone)]
struct PendingWrite {
    extent: Extent,
    offset: usize,
    data: Vec<u8>,
}

impl PendingWrite {
    /// Absolute device byte address of the first payload byte.
    fn abs_start(&self) -> u64 {
        self.extent.start * BLOCK_SIZE as u64 + self.offset as u64
    }

    /// Absolute device byte address one past the last payload byte.
    fn abs_end(&self) -> u64 {
        self.abs_start() + self.data.len() as u64
    }
}

/// Write-behind buffer that coalesces contiguous writes at flush
/// time.
///
/// Writes are validated when buffered (an overrun fails fast with
/// [`StorageError::OutOfExtent`]) but hit the device only on
/// [`WriteBuffer::flush`]: the flush sorts pending writes by absolute
/// address and issues each maximal byte-contiguous run as one
/// transfer through the scan-resistant bypass path. Until `flush`
/// returns `Ok`, the buffered bytes are volatile — see the module
/// docs for the flush-before-commit rule.
#[derive(Debug, Default)]
pub struct WriteBuffer {
    pending: Vec<PendingWrite>,
}

impl WriteBuffer {
    /// An empty write buffer.
    pub fn new() -> Self {
        WriteBuffer::default()
    }

    /// Number of writes currently buffered.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Total payload bytes currently buffered.
    pub fn pending_bytes(&self) -> usize {
        self.pending.iter().map(|w| w.data.len()).sum()
    }

    /// Buffers `data` to be written at byte `offset` inside `extent`.
    ///
    /// The range is validated now so a logic error surfaces at the
    /// call site, not at some later flush.
    ///
    /// # Errors
    ///
    /// [`StorageError::OutOfExtent`] if the write overruns `extent`.
    pub fn buffer_write(
        &mut self,
        extent: Extent,
        offset: usize,
        data: &[u8],
    ) -> StorageResult<()> {
        let cap = extent.byte_len();
        if offset.checked_add(data.len()).is_none_or(|end| end > cap) {
            return Err(StorageError::OutOfExtent {
                extent_blocks: extent.len,
                offset,
                len: data.len(),
            });
        }
        if data.is_empty() {
            return Ok(());
        }
        self.pending.push(PendingWrite {
            extent,
            offset,
            data: data.to_vec(),
        });
        Ok(())
    }

    /// Drains the buffer to the device, coalescing byte-contiguous
    /// runs into single transfers in ascending address order.
    ///
    /// If any two pending writes overlap, coalescing could reorder
    /// the overlap and change the final bytes; the flush detects this
    /// and falls back to replaying the writes in submission order
    /// (still through the bypass path), preserving last-writer-wins
    /// semantics exactly. The index layer never overlaps writes, so
    /// the fast path is the one that runs in practice.
    ///
    /// Flushing an empty buffer is a no-op. On error the buffer has
    /// already been drained and the device may hold a partial image —
    /// the same contract as a failed [`Volume::write_at`] — so
    /// callers treat a failed flush as a failed build and free the
    /// extent.
    pub fn flush(&mut self, vol: &mut Volume) -> StorageResult<FlushStats> {
        let mut pending = std::mem::take(&mut self.pending);
        if pending.is_empty() {
            return Ok(FlushStats::default());
        }
        let writes = pending.len();
        let bytes = pending.iter().map(|w| w.data.len()).sum();

        let mut sorted: Vec<usize> = (0..pending.len()).collect();
        sorted.sort_by_key(|&i| pending.get(i).map(PendingWrite::abs_start));
        let mut overlap = false;
        let mut prev_end = 0u64;
        for (rank, &i) in sorted.iter().enumerate() {
            let Some(w) = pending.get(i) else { continue };
            if rank > 0 && w.abs_start() < prev_end {
                overlap = true;
                break;
            }
            prev_end = w.abs_end();
        }

        if overlap {
            // Safe path: submission order, one transfer per write.
            let mut pages = 0u64;
            for w in &pending {
                vol.write_at_bypass(w.extent, w.offset, &w.data)?;
                pages += Self::span_blocks(w.abs_start(), w.data.len());
            }
            Self::record(vol, writes, writes, pages);
            return Ok(FlushStats {
                writes,
                transfers: writes,
                bytes,
            });
        }

        // Fast path: ascending order, concatenate byte-contiguous
        // runs. `sorted` indexes into `pending`; runs steal the
        // payloads to avoid copying twice.
        let mut transfers = 0usize;
        let mut pages = 0u64;
        let mut run_start = 0u64;
        let mut run: Vec<u8> = Vec::new();
        for &i in &sorted {
            let Some(w) = pending.get_mut(i) else {
                continue;
            };
            let start = w.abs_start();
            let data = std::mem::take(&mut w.data);
            if run.is_empty() {
                run_start = start;
                run = data;
            } else if run_start + run.len() as u64 == start {
                run.extend_from_slice(&data);
            } else {
                Self::issue(vol, run_start, &run)?;
                transfers += 1;
                pages += Self::span_blocks(run_start, run.len());
                run_start = start;
                run = data;
            }
        }
        if !run.is_empty() {
            pages += Self::span_blocks(run_start, run.len());
            Self::issue(vol, run_start, &run)?;
            transfers += 1;
        }
        Self::record(vol, writes, transfers, pages);
        Ok(FlushStats {
            writes,
            transfers,
            bytes,
        })
    }

    /// Blocks spanned by `len` payload bytes at absolute device byte
    /// `abs_start` (zero for an empty payload).
    fn span_blocks(abs_start: u64, len: usize) -> u64 {
        if len == 0 {
            return 0;
        }
        let first_blk = abs_start / BLOCK_SIZE as u64;
        let last_blk = (abs_start + len as u64 - 1) / BLOCK_SIZE as u64;
        last_blk - first_blk + 1
    }

    /// Issues one coalesced transfer starting at absolute device byte
    /// `abs_start` through the bypass path, via a synthetic extent
    /// spanning exactly the touched blocks.
    fn issue(vol: &mut Volume, abs_start: u64, data: &[u8]) -> StorageResult<()> {
        let first_blk = abs_start / BLOCK_SIZE as u64;
        let in_blk = (abs_start % BLOCK_SIZE as u64) as usize;
        let span = Extent::new(first_blk, Self::span_blocks(abs_start, data.len()).max(1));
        vol.write_at_bypass(span, in_blk, data)
    }

    /// Reports one flush into the volume's metrics registry.
    fn record(vol: &Volume, writes: usize, transfers: usize, pages: u64) {
        let obs = vol.obs();
        obs.counter("sched.requests").add(writes as u64);
        obs.counter("sched.merged").add((writes - transfers) as u64);
        obs.counter("sched.bulk_pages").add(pages);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskConfig;
    use wave_obs::{Obs, SplitMix64};

    /// A fresh single-disk volume with one `blocks`-block extent
    /// filled with a deterministic byte pattern.
    fn seeded_volume(blocks: u64) -> (Volume, Extent) {
        let mut vol = Volume::default();
        let extent = vol.alloc_blocks(blocks).unwrap();
        let data: Vec<u8> = (0..extent.byte_len()).map(|i| (i % 251) as u8).collect();
        vol.write_at(extent, 0, &data).unwrap();
        (vol, extent)
    }

    #[test]
    fn empty_batch_is_a_typed_error() {
        let mut vol = Volume::default();
        let err = IoScheduler::read_batch(&mut vol, &[]).unwrap_err();
        assert!(matches!(err, StorageError::EmptyBatch), "{err}");
    }

    #[test]
    fn request_past_its_extent_fails_before_any_io() {
        let (mut vol, extent) = seeded_volume(4);
        let before = vol.stats();
        let batch = [
            ReadRequest::new(extent, 0, 16),
            // Overruns its own extent by one byte.
            ReadRequest::new(extent, 1, extent.byte_len()),
        ];
        let err = IoScheduler::read_batch(&mut vol, &batch).unwrap_err();
        assert!(matches!(err, StorageError::OutOfExtent { .. }), "{err}");
        assert_eq!(
            vol.stats(),
            before,
            "validation happens before any transfer is issued"
        );
    }

    #[test]
    fn zero_length_requests_read_nothing() {
        let (mut vol, extent) = seeded_volume(2);
        let batch = [
            ReadRequest::new(extent, 100, 0),
            ReadRequest::new(extent, 0, 8),
        ];
        let out = IoScheduler::read_batch(&mut vol, &batch).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out[0].is_empty());
        assert_eq!(out[1], vol.read_at(extent, 0, 8).unwrap());
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let (mut vol, extent) = seeded_volume(8);
        // Submit in descending address order; the elevator reorders
        // the device schedule but not the answer.
        let batch = [
            ReadRequest::new(extent, 6 * BLOCK_SIZE, 32),
            ReadRequest::new(extent, 3 * BLOCK_SIZE + 17, 100),
            ReadRequest::new(extent, 5, 64),
        ];
        let expect: Vec<Vec<u8>> = batch
            .iter()
            .map(|r| vol.read_at(r.extent, r.offset, r.len).unwrap())
            .collect();
        let got = IoScheduler::read_batch(&mut vol, &batch).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn adjacent_requests_merge_into_one_transfer() {
        let (mut vol, extent) = seeded_volume(8);
        let before = vol.stats();
        let batch = [
            ReadRequest::new(extent, 4 * BLOCK_SIZE, 2 * BLOCK_SIZE),
            ReadRequest::new(extent, 0, 4 * BLOCK_SIZE),
        ];
        IoScheduler::read_batch(&mut vol, &batch).unwrap();
        let delta = vol.stats().since(&before);
        assert_eq!(delta.seeks, 1, "two adjacent reads, one sweep");
        assert_eq!(delta.blocks_read, 6);
    }

    #[test]
    fn far_apart_requests_stay_separate_transfers() {
        let (mut vol, extent) = seeded_volume(64);
        let before = vol.stats();
        let batch = [
            ReadRequest::new(extent, 40 * BLOCK_SIZE, 8),
            ReadRequest::new(extent, 0, 8),
        ];
        IoScheduler::read_batch(&mut vol, &batch).unwrap();
        let delta = vol.stats().since(&before);
        assert_eq!(delta.seeks, 2, "a 40-block gap is not merged");
        assert_eq!(delta.blocks_read, 2);
    }

    #[test]
    fn overlapping_requests_read_shared_blocks_once() {
        let (mut vol, extent) = seeded_volume(8);
        let batch = [
            ReadRequest::new(extent, 0, 4 * BLOCK_SIZE),
            ReadRequest::new(extent, 2 * BLOCK_SIZE, 4 * BLOCK_SIZE),
        ];
        let expect: Vec<Vec<u8>> = batch
            .iter()
            .map(|r| vol.read_at(r.extent, r.offset, r.len).unwrap())
            .collect();
        let before = vol.stats();
        let got = IoScheduler::read_batch(&mut vol, &batch).unwrap();
        assert_eq!(got, expect);
        let delta = vol.stats().since(&before);
        assert_eq!(delta.blocks_read, 6, "the 2-block overlap reads once");
    }

    #[test]
    fn batch_reports_scheduler_counters() {
        let obs = Obs::noop();
        let mut vol = Volume::with_disks_obs(DiskConfig::default(), 1, obs.clone());
        let extent = vol.alloc_blocks(8).unwrap();
        vol.write_at(extent, 0, &vec![5u8; extent.byte_len()])
            .unwrap();
        let batch = [
            ReadRequest::new(extent, 0, BLOCK_SIZE),
            ReadRequest::new(extent, BLOCK_SIZE, BLOCK_SIZE),
            ReadRequest::new(extent, 6 * BLOCK_SIZE, BLOCK_SIZE),
        ];
        IoScheduler::read_batch(&mut vol, &batch).unwrap();
        assert_eq!(obs.counter("sched.requests").get(), 3);
        assert_eq!(obs.counter("sched.merged").get(), 1);
        // Three requests, two transfers, head parked before the
        // first: two seeks measured, one saved.
        assert_eq!(obs.counter("sched.seeks_saved").get(), 1);
    }

    /// Satellite property test: for seeded random batches, the
    /// elevator-ordered execution is byte-identical to naive
    /// per-request order, and its measured seek count and simulated
    /// elapsed time never exceed the naive order's.
    #[test]
    fn elevator_order_matches_naive_and_never_costs_more() {
        let mut rng = SplitMix64::new(0xE1E7_A708);
        for round in 0..24 {
            let blocks = 32 + rng.range_u64(0, 96);
            let (mut naive_vol, extent) = seeded_volume(blocks);
            let (mut sched_vol, extent2) = seeded_volume(blocks);
            assert_eq!(extent, extent2, "twin volumes lay out identically");
            let cap = extent.byte_len();
            let n = 1 + rng.range_u64(0, 15) as usize;
            let batch: Vec<ReadRequest> = (0..n)
                .map(|_| {
                    let offset = rng.range_u64(0, cap as u64 - 1) as usize;
                    let len = rng.range_u64(0, (cap - offset) as u64) as usize;
                    ReadRequest::new(extent, offset, len.min(3 * BLOCK_SIZE))
                })
                .collect();

            let naive_before = naive_vol.stats();
            let naive: Vec<Vec<u8>> = batch
                .iter()
                .map(|r| naive_vol.read_at(r.extent, r.offset, r.len).unwrap())
                .collect();
            let naive_delta = naive_vol.stats().since(&naive_before);

            let sched_before = sched_vol.stats();
            let sched = IoScheduler::read_batch(&mut sched_vol, &batch).unwrap();
            let sched_delta = sched_vol.stats().since(&sched_before);

            assert_eq!(sched, naive, "round {round}: answers must match");
            assert!(
                sched_delta.seeks <= naive_delta.seeks,
                "round {round}: {} sched seeks vs {} naive",
                sched_delta.seeks,
                naive_delta.seeks
            );
            assert!(
                sched_delta.sim_seconds <= naive_delta.sim_seconds + 1e-12,
                "round {round}: {} sched seconds vs {} naive",
                sched_delta.sim_seconds,
                naive_delta.sim_seconds
            );
        }
    }

    #[test]
    fn batched_reads_leave_the_cache_unpolluted() {
        let mut vol = Volume::new(DiskConfig::default().with_cache(8));
        let hot = vol.alloc_blocks(4).unwrap();
        let bulk = vol.alloc_blocks(32).unwrap();
        vol.write_at(hot, 0, &vec![1u8; hot.byte_len()]).unwrap();
        vol.write_at_bypass(bulk, 0, &vec![2u8; bulk.byte_len()])
            .unwrap();
        vol.read_at(hot, 0, hot.byte_len()).unwrap(); // warm
        IoScheduler::read_batch(&mut vol, &[ReadRequest::whole(bulk)]).unwrap();
        let before = vol.stats();
        vol.read_at(hot, 0, hot.byte_len()).unwrap();
        assert_eq!(
            vol.stats().since(&before).blocks_read,
            0,
            "the bulk batch must not evict the hot set"
        );
    }

    #[test]
    fn write_buffer_rejects_overruns_at_buffer_time() {
        let mut vol = Volume::default();
        let extent = vol.alloc_blocks(1).unwrap();
        let mut buf = WriteBuffer::new();
        let err = buf
            .buffer_write(extent, BLOCK_SIZE - 2, &[1, 2, 3])
            .unwrap_err();
        assert!(matches!(err, StorageError::OutOfExtent { .. }), "{err}");
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn flush_of_empty_buffer_is_a_free_no_op() {
        let mut vol = Volume::default();
        let mut buf = WriteBuffer::new();
        let before = vol.stats();
        let stats = buf.flush(&mut vol).unwrap();
        assert_eq!(stats, FlushStats::default());
        assert_eq!(vol.stats(), before);
    }

    #[test]
    fn contiguous_writes_coalesce_into_one_transfer() {
        let mut vol = Volume::default();
        let extent = vol.alloc_blocks(8).unwrap();
        let mut buf = WriteBuffer::new();
        // Buffered out of order; the flush sorts and fuses them.
        buf.buffer_write(extent, 4 * BLOCK_SIZE, &vec![4u8; 2 * BLOCK_SIZE])
            .unwrap();
        buf.buffer_write(extent, 0, &vec![1u8; 4 * BLOCK_SIZE])
            .unwrap();
        assert_eq!(buf.pending(), 2);
        assert_eq!(buf.pending_bytes(), 6 * BLOCK_SIZE);
        let before = vol.stats();
        let stats = buf.flush(&mut vol).unwrap();
        assert_eq!(stats.writes, 2);
        assert_eq!(stats.transfers, 1, "byte-contiguous runs fuse");
        assert_eq!(stats.bytes, 6 * BLOCK_SIZE);
        let delta = vol.stats().since(&before);
        assert_eq!(delta.seeks, 1);
        assert_eq!(delta.blocks_written, 6);
        assert_eq!(buf.pending(), 0, "flush drains the buffer");
        assert_eq!(
            vol.read_at(extent, 3 * BLOCK_SIZE, 2 * BLOCK_SIZE).unwrap(),
            [vec![1u8; BLOCK_SIZE], vec![4u8; BLOCK_SIZE]].concat()
        );
    }

    #[test]
    fn disjoint_writes_flush_in_ascending_order() {
        let mut vol = Volume::default();
        let extent = vol.alloc_blocks(64).unwrap();
        let mut buf = WriteBuffer::new();
        buf.buffer_write(extent, 40 * BLOCK_SIZE, &vec![9u8; BLOCK_SIZE])
            .unwrap();
        buf.buffer_write(extent, 0, &vec![7u8; BLOCK_SIZE]).unwrap();
        let before = vol.stats();
        let stats = buf.flush(&mut vol).unwrap();
        assert_eq!(stats.transfers, 2);
        // Ascending order: seek to 0, then a forward seek to 40 —
        // exactly two seeks, never a back-and-forth third.
        assert_eq!(vol.stats().since(&before).seeks, 2);
        assert_eq!(vol.read_at(extent, 0, 4).unwrap(), vec![7u8; 4]);
        assert_eq!(
            vol.read_at(extent, 40 * BLOCK_SIZE, 4).unwrap(),
            vec![9u8; 4]
        );
    }

    #[test]
    fn overlapping_writes_preserve_last_writer_wins() {
        let mut vol = Volume::default();
        let extent = vol.alloc_blocks(2).unwrap();
        let mut buf = WriteBuffer::new();
        buf.buffer_write(extent, 0, &[1u8; 100]).unwrap();
        buf.buffer_write(extent, 50, &[2u8; 100]).unwrap();
        let stats = buf.flush(&mut vol).unwrap();
        assert_eq!(stats.transfers, 2, "overlap falls back to replay");
        let got = vol.read_at(extent, 0, 150).unwrap();
        assert_eq!(&got[..50], &vec![1u8; 50][..]);
        assert_eq!(&got[50..], &vec![2u8; 100][..]);
    }

    #[test]
    fn flush_reports_bulk_pages() {
        let obs = Obs::noop();
        let mut vol = Volume::with_disks_obs(DiskConfig::default(), 1, obs.clone());
        let extent = vol.alloc_blocks(8).unwrap();
        let mut buf = WriteBuffer::new();
        buf.buffer_write(extent, 0, &vec![1u8; 3 * BLOCK_SIZE])
            .unwrap();
        buf.buffer_write(extent, 3 * BLOCK_SIZE, &vec![2u8; BLOCK_SIZE])
            .unwrap();
        buf.flush(&mut vol).unwrap();
        assert_eq!(obs.counter("sched.bulk_pages").get(), 4);
        assert_eq!(obs.counter("sched.merged").get(), 1);
    }

    #[test]
    fn flushed_writes_bypass_the_cache() {
        let mut vol = Volume::new(DiskConfig::default().with_cache(4));
        let hot = vol.alloc_blocks(4).unwrap();
        let bulk = vol.alloc_blocks(32).unwrap();
        vol.write_at(hot, 0, &vec![1u8; hot.byte_len()]).unwrap();
        vol.read_at(hot, 0, hot.byte_len()).unwrap(); // warm
        let mut buf = WriteBuffer::new();
        buf.buffer_write(bulk, 0, &vec![2u8; bulk.byte_len()])
            .unwrap();
        buf.flush(&mut vol).unwrap();
        let before = vol.stats();
        vol.read_at(hot, 0, hot.byte_len()).unwrap();
        assert_eq!(
            vol.stats().since(&before).blocks_read,
            0,
            "a flushed bulk build must not evict the hot set"
        );
    }

    #[test]
    fn multi_disk_batches_never_merge_across_disks() {
        let mut vol = Volume::with_disks(DiskConfig::default(), 2);
        let a = vol.alloc_blocks(4).unwrap(); // disk 0
        let b = vol.alloc_blocks(4).unwrap(); // disk 1
        vol.write_at(a, 0, &vec![1u8; a.byte_len()]).unwrap();
        vol.write_at(b, 0, &vec![2u8; b.byte_len()]).unwrap();
        let batch = [ReadRequest::whole(b), ReadRequest::whole(a)];
        let out = IoScheduler::read_batch(&mut vol, &batch).unwrap();
        assert_eq!(out[0], vec![2u8; b.byte_len()]);
        assert_eq!(out[1], vec![1u8; a.byte_len()]);
    }
}
