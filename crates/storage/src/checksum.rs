//! Zero-dependency CRC64 (ECMA-182, reflected — the `CRC-64/XZ`
//! parametrisation) for end-to-end integrity of persisted index
//! images and manifests.
//!
//! The persistence layer appends a CRC64 trailer to every index image
//! and sidecar ([`split_trailer`] reads it back) and records that
//! trailer value per file in the wave manifest, so a torn write, a bit
//! flip, or a swapped file is detected at load time instead of
//! silently corrupting query results.
//!
//! The kernel is slicing-by-16: sixteen const-built tables fold a
//! 16-byte block per step through sixteen independent lookups, about
//! five times the throughput of the byte-at-a-time loop it replaced.
//! That loop survives as `update_bytewise`, which folds the tail of
//! every input and is the reference the unit tests compare against.

/// Reflected form of the ECMA-182 polynomial.
const POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-16 lookup tables: `TABLES[k][b]` is the CRC state after
/// byte `b` followed by `k` zero bytes, so sixteen independent table
/// reads fold two 64-bit words into the state.
static TABLES: [[u64; 256]; 16] = make_tables();

const fn make_tables() -> [[u64; 256]; 16] {
    let mut t = [[0u64; 256]; 16];
    let mut i = 0usize;
    while i < 256 {
        let mut crc = i as u64;
        let mut k = 0usize;
        while k < 16 {
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            // lint: allow(no-panic-path) -- const-evaluated: an out-of-range index fails the build, never a run
            t[k][i] = crc;
            k += 1;
        }
        i += 1;
    }
    t
}

#[inline(always)]
fn at(table: &[u64; 256], byte: u8) -> u64 {
    // lint: allow(no-panic-path) -- a u8 cannot index past 256 entries
    table[byte as usize]
}

/// The byte-at-a-time kernel: folds the tail the word loop leaves
/// over, and is the reference the unit tests hold the word loop to.
fn update_bytewise(mut state: u64, bytes: &[u8]) -> u64 {
    let [t0, ..] = &TABLES;
    for &b in bytes {
        state = at(t0, state as u8 ^ b) ^ (state >> 8);
    }
    state
}

/// Incremental CRC64 state, for checksumming data produced in pieces.
///
/// ```
/// use wave_storage::checksum::{crc64, Crc64};
///
/// let mut c = Crc64::new();
/// c.update(b"hello ");
/// c.update(b"world");
/// assert_eq!(c.finish(), crc64(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Crc64 {
    state: u64,
}

impl Crc64 {
    /// Fresh checksum state.
    pub fn new() -> Self {
        Crc64 { state: !0 }
    }

    /// Folds `bytes` into the checksum, sixteen bytes per step
    /// (slicing-by-16); any split of the input yields the same value.
    pub fn update(&mut self, bytes: &[u8]) {
        let [t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11, t12, t13, t14, t15] = &TABLES;
        let mut state = self.state;
        let mut blocks = bytes.chunks_exact(16);
        for block in &mut blocks {
            let Some((lo, hi)) = block.split_first_chunk::<8>() else {
                continue; // chunks_exact(16) yields only 16-byte blocks
            };
            let Ok(hi) = <[u8; 8]>::try_from(hi) else {
                continue;
            };
            let [a0, a1, a2, a3, a4, a5, a6, a7] = (state ^ u64::from_le_bytes(*lo)).to_le_bytes();
            let [b0, b1, b2, b3, b4, b5, b6, b7] = hi;
            state = at(t15, a0)
                ^ at(t14, a1)
                ^ at(t13, a2)
                ^ at(t12, a3)
                ^ at(t11, a4)
                ^ at(t10, a5)
                ^ at(t9, a6)
                ^ at(t8, a7)
                ^ at(t7, b0)
                ^ at(t6, b1)
                ^ at(t5, b2)
                ^ at(t4, b3)
                ^ at(t3, b4)
                ^ at(t2, b5)
                ^ at(t1, b6)
                ^ at(t0, b7);
        }
        self.state = update_bytewise(state, blocks.remainder());
    }

    /// Final checksum value.
    pub fn finish(&self) -> u64 {
        !self.state
    }
}

impl Default for Crc64 {
    fn default() -> Self {
        Self::new()
    }
}

/// CRC64 of a whole byte slice in one call.
pub fn crc64(bytes: &[u8]) -> u64 {
    let mut c = Crc64::new();
    c.update(bytes);
    c.finish()
}

/// Splits a file that ends in its own little-endian CRC64 trailer —
/// every index image, `.filt` and `.ing` sidecar — into the body the
/// trailer covers and the stored trailer value. `None` when `bytes`
/// is too short to hold a trailer.
pub fn split_trailer(bytes: &[u8]) -> Option<(&[u8], u64)> {
    let (body, trailer) = bytes.split_last_chunk::<8>()?;
    Some((body, u64::from_le_bytes(*trailer)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_obs::SplitMix64;

    /// CRC64 by the retained bytewise kernel alone.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        !update_bytewise(!0, bytes)
    }

    fn random_bytes(len: usize, rng: &mut SplitMix64) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    #[test]
    fn word_kernel_matches_bytewise_reference() {
        let mut rng = SplitMix64::new(0x9E37_79B9_7F4A_7C15);
        // Eight spare bytes so every length 0..=4099 can start at any
        // misalignment 0..8 of the buffer.
        let data = random_bytes(4099 + 8, &mut rng);
        for len in 0..=4099usize {
            let skew = len % 8;
            let slice = &data[skew..skew + len];
            assert_eq!(crc64(slice), crc64_bytewise(slice), "len {len} skew {skew}");
        }
        for skew in 0..8usize {
            for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 1000, 4099] {
                let slice = &data[skew..skew + len];
                assert_eq!(crc64(slice), crc64_bytewise(slice), "len {len} skew {skew}");
            }
        }
    }

    #[test]
    fn arbitrary_update_splits_match_bytewise_reference() {
        let mut rng = SplitMix64::new(0xD1B5_4A32_D192_ED03);
        let data = random_bytes(4099, &mut rng);
        let expect = crc64_bytewise(&data);
        for round in 0..200 {
            let mut c = Crc64::new();
            let mut rest = &data[..];
            while !rest.is_empty() {
                let take = rng.range_usize(0, 299).min(rest.len());
                let (head, tail) = rest.split_at(take);
                c.update(head);
                rest = tail;
            }
            assert_eq!(c.finish(), expect, "round {round}");
        }
    }

    #[test]
    fn split_trailer_reads_what_the_writers_append() {
        let mut file = b"payload".to_vec();
        let crc = crc64(&file);
        file.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(split_trailer(&file), Some((&b"payload"[..], crc)));
        assert_eq!(split_trailer(&file[..7]), None);
    }

    #[test]
    fn known_answer() {
        // CRC-64/XZ check value for "123456789".
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(10_000).collect();
        for split in [0usize, 1, 255, 256, 4096, 9999, 10_000] {
            let mut c = Crc64::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finish(), crc64(&data), "split at {split}");
        }
    }

    #[test]
    fn single_bit_flips_change_the_checksum() {
        let data = vec![0xA5u8; 512];
        let base = crc64(&data);
        for pos in [0usize, 17, 255, 511] {
            for bit in 0..8 {
                let mut corrupt = data.clone();
                corrupt[pos] ^= 1 << bit;
                assert_ne!(crc64(&corrupt), base, "flip at {pos}:{bit} undetected");
            }
        }
    }

    #[test]
    fn truncation_changes_the_checksum() {
        let data: Vec<u8> = (0..200u8).collect();
        let base = crc64(&data);
        for cut in 1..data.len() {
            assert_ne!(crc64(&data[..cut]), base, "truncation to {cut} undetected");
        }
    }
}
