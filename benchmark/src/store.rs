//! A counting [`IndexStore`]: the `file` layer measured from outside.
//!
//! Wraps the real [`FileStore`] (or any store) and passes every call
//! straight through, counting calls, bytes and busy time on the way
//! and recording one `file.*` span per call. Because `commit_wave`,
//! `load_committed`, `fsck` and `recover` reach the store only through
//! the trait, the spans nest truly inside the `op.commit` / `op.reopen`
//! spans the harness opens around those calls.

use std::time::Instant;

use wave_storage::{IndexStore, StorageResult};

use crate::spans::Recorder;

/// What passed through a [`CountingStore`] so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreCounts {
    /// `put` calls.
    pub puts: u64,
    /// Bytes handed to `put`.
    pub put_bytes: u64,
    /// Nanoseconds spent inside `put`.
    pub put_ns: u64,
    /// `get` calls.
    pub gets: u64,
    /// Bytes returned by `get`.
    pub get_bytes: u64,
    /// Nanoseconds spent inside `get`.
    pub get_ns: u64,
    /// Nanoseconds spent inside `remove`, `rename` and `list`.
    pub other_ns: u64,
    /// Bytes of `.ing` ingest-log sidecars handed to `put`.
    pub ingest_log_bytes: u64,
}

impl StoreCounts {
    /// Total nanoseconds spent inside the wrapped store.
    pub fn busy_ns(&self) -> u64 {
        self.put_ns + self.get_ns + self.other_ns
    }

    /// Field-wise difference `self - earlier`.
    pub fn since(&self, earlier: &StoreCounts) -> StoreCounts {
        StoreCounts {
            puts: self.puts - earlier.puts,
            put_bytes: self.put_bytes - earlier.put_bytes,
            put_ns: self.put_ns - earlier.put_ns,
            gets: self.gets - earlier.gets,
            get_bytes: self.get_bytes - earlier.get_bytes,
            get_ns: self.get_ns - earlier.get_ns,
            other_ns: self.other_ns - earlier.other_ns,
            ingest_log_bytes: self.ingest_log_bytes - earlier.ingest_log_bytes,
        }
    }
}

/// Pass-through store that counts and times every call.
#[derive(Debug)]
pub struct CountingStore<S> {
    inner: S,
    counts: StoreCounts,
    rec: Recorder,
}

impl<S: IndexStore> CountingStore<S> {
    /// Wraps `inner`; spans go to `rec` (a disabled recorder makes the
    /// wrapper count only).
    pub fn new(inner: S, rec: Recorder) -> Self {
        CountingStore {
            inner,
            counts: StoreCounts::default(),
            rec,
        }
    }

    /// Counters accumulated so far.
    pub fn counts(&self) -> StoreCounts {
        self.counts
    }

    /// The wrapped store, for calls that must stay out of the counts.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Runs `f` on the wrapped store inside a `name` span and returns
    /// its result with the nanoseconds it took.
    fn timed<T>(&mut self, name: &'static str, f: impl FnOnce(&mut S) -> T) -> (T, u64) {
        let span = self.rec.begin(name);
        let start = Instant::now();
        let out = f(&mut self.inner);
        let ns = start.elapsed().as_nanos() as u64;
        self.rec.end(span);
        (out, ns)
    }
}

impl<S: IndexStore> IndexStore for CountingStore<S> {
    fn put(&mut self, name: &str, contents: &[u8]) -> StorageResult<()> {
        let (out, ns) = self.timed("file.put", |s| s.put(name, contents));
        self.counts.puts += 1;
        self.counts.put_bytes += contents.len() as u64;
        self.counts.put_ns += ns;
        if name.ends_with(".ing") {
            self.counts.ingest_log_bytes += contents.len() as u64;
        }
        out
    }

    fn get(&mut self, name: &str) -> StorageResult<Option<Vec<u8>>> {
        let (out, ns) = self.timed("file.get", |s| s.get(name));
        self.counts.gets += 1;
        self.counts.get_ns += ns;
        if let Ok(Some(bytes)) = &out {
            self.counts.get_bytes += bytes.len() as u64;
        }
        out
    }

    fn remove(&mut self, name: &str) -> StorageResult<()> {
        let (out, ns) = self.timed("file.remove", |s| s.remove(name));
        self.counts.other_ns += ns;
        out
    }

    fn rename(&mut self, from: &str, to: &str) -> StorageResult<()> {
        let (out, ns) = self.timed("file.rename", |s| s.rename(from, to));
        self.counts.other_ns += ns;
        out
    }

    fn list(&mut self) -> StorageResult<Vec<String>> {
        let (out, ns) = self.timed("file.list", |s| s.list());
        self.counts.other_ns += ns;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_storage::FileStore;

    /// Runs the same call sequence against a store and returns every
    /// observable result.
    fn exercise(store: &mut dyn IndexStore) -> Vec<String> {
        let mut seen = Vec::new();
        store.put("slot0.e1", b"image bytes").unwrap();
        store.put("slot0.e1.ing", b"log").unwrap();
        store.put("MANIFEST", b"epoch 1").unwrap();
        seen.push(format!("{:?}", store.get("slot0.e1").unwrap()));
        seen.push(format!("{:?}", store.get("absent").unwrap()));
        store.rename("slot0.e1.ing", "slot0.e1.ing.quar").unwrap();
        seen.push(format!("{:?}", store.rename("absent", "x").is_err()));
        store.remove("MANIFEST").unwrap();
        store.remove("absent").unwrap();
        seen.push(format!("{:?}", store.list().unwrap()));
        seen
    }

    /// A fresh store directory under the package's own `target/`.
    fn temp_store(tag: &str) -> FileStore {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("target")
            .join("test-stores")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        FileStore::open(dir).unwrap()
    }

    #[test]
    fn passes_through_exactly_like_a_bare_file_store() {
        let mut bare = temp_store("bare");
        let rec = Recorder::new(true);
        let mut counted = CountingStore::new(temp_store("counted"), rec.clone());
        assert_eq!(exercise(&mut bare), exercise(&mut counted));

        let c = counted.counts();
        assert_eq!((c.puts, c.put_bytes), (3, 11 + 3 + 7));
        assert_eq!((c.gets, c.get_bytes), (2, 11));
        assert_eq!(c.ingest_log_bytes, 3);
        assert!(c.busy_ns() > 0);
        // One span per call, all roots (nothing was open around them).
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 10);
        assert!(spans.iter().all(|s| s.parent.is_none()));
        assert_eq!(spans.iter().filter(|s| s.name == "file.put").count(), 3);

        bare.destroy().unwrap();
        counted.inner.destroy().unwrap();
    }

    #[test]
    fn counts_subtract_field_wise() {
        let a = StoreCounts {
            puts: 5,
            put_bytes: 50,
            ..Default::default()
        };
        let b = StoreCounts {
            puts: 2,
            put_bytes: 20,
            ..Default::default()
        };
        assert_eq!(a.since(&b).puts, 3);
        assert_eq!(a.since(&b).put_bytes, 30);
    }
}
