//! Per-constituent membership filters for probe pruning.
//!
//! Every constituent keeps a seeded **blocked-Bloom filter** over the
//! search values it indexes (the *Hippo*-style cheap partition summary
//! of PAPERS.md). The filter is consulted before any directory walk or
//! bucket I/O: a miss proves the value is absent from the constituent,
//! so the probe — and, one level up, the whole arm request in the
//! [`WaveServer`](crate::server::WaveServer) fan-out — can be skipped.
//! A hit only means *maybe*; the probe proceeds exactly as it would
//! without the filter, which is what keeps answers byte-identical to
//! the unfiltered paths (DESIGN.md §14).
//!
//! Three properties the rest of the crate relies on:
//!
//! * **No false negatives, ever.** Values are inserted at build time
//!   (free — the bulk build already walks the sorted value map) and on
//!   every in-place/shadow add. Deletes leave bits set, so after
//!   deletion the filter describes a *superset* of the live values —
//!   stale bits cost a wasted check, never a wrong answer.
//! * **Deterministic.** Hashing is seeded ([`FilterConfig::seed`])
//!   through the same [`SplitMix64`] mixer the rest of the repo uses;
//!   identical builds produce identical filters, which the twin-volume
//!   benchmark determinism checks exercise.
//! * **Durable but reconstructible.**
//!   [`commit_wave`](crate::persist::commit_wave) persists each
//!   filter as a checksummed `.filt`
//!   sidecar next to its constituent image; `recover` rebuilds a
//!   missing or torn sidecar from the constituent itself (decoding an
//!   image re-derives the exact live-value filter).
//!
//! Sizing: with `b` bits per value (default 12) and `k = 4` probe bits
//! confined to one 64-bit block, the expected false-positive rate is
//! roughly `(ρ)^k` where `ρ ≈ 1 − e^(−k/b)` is the fill ratio of an
//! average block — about 1–2 % at the defaults, measured by the
//! `false_positive_rate_is_bounded` test. Blocked layout trades a
//! slightly worse constant than a flat Bloom filter for single-cache-
//! line (here: single-`u64`) probes.

use wave_obs::SplitMix64;
use wave_storage::Crc64;

use crate::error::{IndexError, IndexResult};
use crate::record::SearchValue;

/// Probe bits set per value, all within one 64-bit block.
const PROBE_BITS: u32 = 4;

/// Magic number of the serialized sidecar format.
const MAGIC: &[u8; 4] = b"WVFL";

/// Serialization format version.
const VERSION: u16 = 1;

/// Configuration of the per-constituent probe-pruning layer.
///
/// Part of [`IndexConfig`](crate::index::IndexConfig); `Copy` so the
/// whole config can keep travelling by value through schemes, servers
/// and benches.
#[derive(Debug, Clone, Copy)]
pub struct FilterConfig {
    /// Whether membership filters are built and consulted at all.
    /// On by default: with `covering_hot == 0` the filter changes no
    /// I/O counts (an absent value already costs zero seeks — the
    /// directory is in memory), it only prunes directory walks and
    /// server fan-out requests.
    pub enabled: bool,
    /// Filter bits budgeted per indexed value; 12 gives ≈1–2 % false
    /// positives (see the module docs for the math).
    pub bits_per_value: u32,
    /// Seed of the filter's hash family. Two filters built with the
    /// same seed over the same values are bit-identical.
    pub seed: u64,
    /// Number of hottest (largest) buckets whose entries are kept
    /// in memory as *covering entries*, answering probes for those
    /// values without the bucket seek. `0` (the default) disables
    /// covering and leaves every I/O count exactly as before.
    pub covering_hot: usize,
}

impl Default for FilterConfig {
    fn default() -> Self {
        FilterConfig {
            enabled: true,
            bits_per_value: 12,
            seed: 0xF117_E12D,
            covering_hot: 0,
        }
    }
}

impl FilterConfig {
    /// A config with filters and covering fully disabled — the
    /// pre-filter behaviour, used as the baseline side of the
    /// `wave-bench::filter` sweep and the byte-identity tests.
    pub fn disabled() -> Self {
        FilterConfig {
            enabled: false,
            covering_hot: 0,
            ..Default::default()
        }
    }
}

/// A seeded blocked-Bloom membership filter over search values.
///
/// Each value hashes to one 64-bit block and sets `PROBE_BITS` (4)
/// bits within it. [`MembershipFilter::may_contain`] returning `false` is a
/// proof of absence; `true` means "probe normally".
///
/// ```
/// use wave_index::filter::{FilterConfig, MembershipFilter};
/// use wave_index::SearchValue;
///
/// let mut f = MembershipFilter::with_capacity(FilterConfig::default(), 2);
/// f.insert(&SearchValue::from("war"));
/// assert!(f.may_contain(&SearchValue::from("war")));
/// assert!(!f.may_contain(&SearchValue::from("peace")));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MembershipFilter {
    seed: u64,
    /// One 64-bit block per `64 / bits_per_value`-ish values.
    blocks: Vec<u64>,
    /// Values the block array was sized for.
    capacity: u64,
    /// Values inserted so far (insertions, not distinct values).
    inserted: u64,
}

impl MembershipFilter {
    /// Creates an empty filter sized for `capacity` values under
    /// `cfg`'s bits-per-value budget. A zero capacity still allocates
    /// one block so late inserts stay correct (just saturated).
    pub fn with_capacity(cfg: FilterConfig, capacity: usize) -> Self {
        let bits = (capacity as u64).saturating_mul(u64::from(cfg.bits_per_value.max(1)));
        let blocks = bits.div_ceil(64).max(1) as usize;
        MembershipFilter {
            seed: cfg.seed,
            blocks: vec![0; blocks],
            capacity: capacity as u64,
            inserted: 0,
        }
    }

    /// Builds a filter over an iterator of values, sized for
    /// `capacity` (pass the distinct-value count, or more for
    /// headroom).
    pub fn build<'a>(
        cfg: FilterConfig,
        capacity: usize,
        values: impl IntoIterator<Item = &'a SearchValue>,
    ) -> Self {
        let mut f = Self::with_capacity(cfg, capacity);
        for v in values {
            f.insert(v);
        }
        f
    }

    /// The two independent 64-bit hashes of a value: block selector
    /// and in-block bit pattern.
    fn hashes(&self, value: &SearchValue) -> (u64, u64) {
        // FNV-1a folds the bytes, SplitMix64 finalises: cheap, seeded,
        // and well-mixed enough for 4 probe bits per block.
        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
        for b in value.as_bytes() {
            fnv ^= u64::from(*b);
            fnv = fnv.wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut mix = SplitMix64::new(self.seed ^ fnv);
        (mix.next_u64(), mix.next_u64())
    }

    /// The bits a value would set: its block index and the in-block
    /// mask ([`PROBE_BITS`] bits drawn from the second hash).
    fn block_and_mask(&self, value: &SearchValue) -> (usize, u64) {
        let (h1, h2) = self.hashes(value);
        let block = (h1 % self.blocks.len() as u64) as usize;
        let mut mask = 0u64;
        for i in 0..PROBE_BITS {
            mask |= 1u64 << ((h2 >> (6 * i)) & 63);
        }
        (block, mask)
    }

    /// Inserts a value. Idempotent; duplicates only bump the
    /// insertion counter used by [`MembershipFilter::is_saturated`].
    pub fn insert(&mut self, value: &SearchValue) {
        let (block, mask) = self.block_and_mask(value);
        self.blocks[block] |= mask;
        self.inserted += 1;
    }

    /// Whether the filter may contain `value`. `false` is a proof of
    /// absence; `true` may be a false positive.
    pub fn may_contain(&self, value: &SearchValue) -> bool {
        let (block, mask) = self.block_and_mask(value);
        self.blocks[block] & mask == mask
    }

    /// Whether more values were inserted than the filter was sized
    /// for. The owning index rebuilds a saturated filter from its
    /// directory (cheap, in memory) to keep the false-positive rate
    /// near its design point.
    pub fn is_saturated(&self) -> bool {
        self.inserted > self.capacity
    }

    /// Number of 64-bit blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Values inserted so far (insertions, not distinct values).
    pub fn inserted(&self) -> u64 {
        self.inserted
    }

    /// Serializes the filter into the checksummed `WVFL` sidecar
    /// format persisted by `commit_wave` (magic, version, seed,
    /// capacity, insert count, block count, blocks, CRC-64 trailer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 2 + 8 + 8 + 8 + 4 + self.blocks.len() * 8 + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.extend_from_slice(&self.capacity.to_le_bytes());
        out.extend_from_slice(&self.inserted.to_le_bytes());
        out.extend_from_slice(&(self.blocks.len() as u32).to_le_bytes());
        for b in &self.blocks {
            out.extend_from_slice(&b.to_le_bytes());
        }
        let mut crc = Crc64::new();
        crc.update(&out);
        out.extend_from_slice(&crc.finish().to_le_bytes());
        out
    }

    /// Decodes the body of a `WVFL` sidecar (everything before the
    /// trailer) whose checksum the caller has already verified. Errors
    /// are [`IndexError::Corrupt`] — the recovery path treats any of
    /// them as "rebuild the sidecar from the constituent".
    pub(crate) fn from_body(body: &[u8]) -> IndexResult<Self> {
        let corrupt = |what: &str| IndexError::Corrupt(format!("filter sidecar: {what}"));
        let header = 4 + 2 + 8 + 8 + 8 + 4;
        if body.len() < header {
            return Err(corrupt("truncated"));
        }
        if &body[0..4] != MAGIC {
            return Err(corrupt("bad magic"));
        }
        let field8 = |at: usize| u64::from_le_bytes(body[at..at + 8].try_into().expect("8 bytes"));
        if u16::from_le_bytes(body[4..6].try_into().expect("2 bytes")) != VERSION {
            return Err(corrupt("unsupported version"));
        }
        let seed = field8(6);
        let capacity = field8(14);
        let inserted = field8(22);
        let nblocks = u32::from_le_bytes(body[30..34].try_into().expect("4 bytes")) as usize;
        if nblocks == 0 || body.len() != header + nblocks * 8 {
            return Err(corrupt("block count disagrees with length"));
        }
        let blocks = body[34..]
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte block")))
            .collect();
        Ok(MembershipFilter {
            seed,
            blocks,
            capacity,
            inserted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(i: u64) -> SearchValue {
        SearchValue::from_bytes(format!("key-{i:08x}").into_bytes())
    }

    #[test]
    fn never_false_negative() {
        let mut f = MembershipFilter::with_capacity(FilterConfig::default(), 1_000);
        for i in 0..1_000 {
            f.insert(&value(i));
        }
        for i in 0..1_000 {
            assert!(f.may_contain(&value(i)), "false negative on {i}");
        }
    }

    #[test]
    fn false_positive_rate_is_bounded() {
        // Seeded random keyset; absent probes drawn from a disjoint
        // id range. Expected FP ≈ 1–2 % at 12 bits/value; assert a
        // loose 5 % bound so the test is robust to seed choice.
        let mut rng = SplitMix64::new(0xF117);
        let mut f = MembershipFilter::with_capacity(FilterConfig::default(), 5_000);
        for _ in 0..5_000 {
            f.insert(&value(rng.next_u64() % 1_000_000));
        }
        let absent = 20_000u64;
        let mut fps = 0u64;
        for i in 0..absent {
            if f.may_contain(&value(1_000_000 + i)) {
                fps += 1;
            }
        }
        let rate = fps as f64 / absent as f64;
        assert!(rate < 0.05, "false-positive rate {rate} above bound");
        assert!(rate > 0.0, "a loaded filter should show some FPs");
    }

    #[test]
    fn empty_filter_rejects_everything() {
        let f = MembershipFilter::with_capacity(FilterConfig::default(), 0);
        assert_eq!(f.block_count(), 1, "zero capacity still allocates");
        for i in 0..100 {
            assert!(!f.may_contain(&value(i)));
        }
    }

    #[test]
    fn same_seed_same_bits_different_seed_differs() {
        let build = |seed| {
            let cfg = FilterConfig {
                seed,
                ..Default::default()
            };
            let values: Vec<SearchValue> = (0..200).map(value).collect();
            MembershipFilter::build(cfg, values.len(), values.iter())
        };
        assert_eq!(build(1), build(1));
        assert_ne!(build(1).to_bytes(), build(2).to_bytes());
    }

    #[test]
    fn saturation_trips_past_capacity() {
        let mut f = MembershipFilter::with_capacity(FilterConfig::default(), 10);
        for i in 0..10 {
            f.insert(&value(i));
        }
        assert!(!f.is_saturated());
        f.insert(&value(10));
        assert!(f.is_saturated());
    }

    /// What the loader does with a sidecar: check the CRC-64 trailer,
    /// then decode the verified body.
    fn decode(bytes: &[u8]) -> IndexResult<MembershipFilter> {
        let (body, stored) = wave_storage::split_trailer(bytes)
            .ok_or_else(|| IndexError::Corrupt("truncated".into()))?;
        if wave_storage::crc64(body) != stored {
            return Err(IndexError::Corrupt("checksum mismatch".into()));
        }
        MembershipFilter::from_body(body)
    }

    #[test]
    fn sidecar_roundtrips() {
        let mut f = MembershipFilter::with_capacity(FilterConfig::default(), 300);
        for i in 0..300 {
            f.insert(&value(i * 7));
        }
        let bytes = f.to_bytes();
        let back = decode(&bytes).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn sidecar_rejects_corruption() {
        let f = MembershipFilter::build(
            FilterConfig::default(),
            50,
            (0..50).map(value).collect::<Vec<_>>().iter(),
        );
        let good = f.to_bytes();
        // Truncation.
        assert!(decode(&good[..10]).is_err());
        // Bit flip anywhere fails the CRC.
        for at in [0, 5, good.len() / 2, good.len() - 1] {
            let mut bad = good.clone();
            bad[at] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at {at}");
        }
    }
}
