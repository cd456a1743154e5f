//! Error type for wave-index operations.

use std::fmt;

use crate::record::Day;

/// Result alias for index operations.
pub type IndexResult<T> = Result<T, IndexError>;

/// Errors raised by constituent indexes and wave schemes.
#[derive(Debug)]
pub enum IndexError {
    /// Propagated storage failure.
    Storage(wave_storage::StorageError),
    /// A scheme was configured with invalid `(W, n)`.
    BadConfig {
        /// Window size requested.
        window: u32,
        /// Number of constituent indexes requested.
        fan: u32,
        /// Why the combination is rejected.
        reason: &'static str,
    },
    /// A transition referenced a day whose batch is not in the archive.
    MissingDay(Day),
    /// `start` was called with the wrong number of initial days.
    BadStart {
        /// Days supplied.
        got: usize,
        /// Days required (the window size `W`).
        want: usize,
    },
    /// Transition days must arrive consecutively.
    NonConsecutiveDay {
        /// Day the scheme expected next.
        expected: Day,
        /// Day actually supplied.
        got: Day,
    },
    /// `transition` was called before `start`.
    NotStarted,
    /// A persisted image or manifest failed checksum verification:
    /// the bytes on disk are not the bytes that were written.
    ChecksumMismatch {
        /// What was being verified (file or image description).
        what: String,
        /// Checksum recorded at write time.
        expected: u64,
        /// Checksum of the bytes actually read.
        got: u64,
    },
    /// A lock guarding shared engine state was poisoned: another
    /// thread panicked while holding it, so the protected state may be
    /// mid-update. Serving paths surface this instead of panicking in
    /// turn; the named component tells the operator what to restart.
    LockPoisoned(&'static str),
    /// A server build thread was lost: the OS refused to spawn it, or
    /// it panicked mid-build. Carries the disk arm it built on and the
    /// server epoch observed when the loss was detected, so failure
    /// reports can attribute losses to a specific arm and maintenance
    /// generation. The install or maintain call that lost it changes
    /// no route.
    WorkerLost {
        /// How the build thread was lost.
        what: &'static str,
        /// Disk arm the thread built on.
        arm: usize,
        /// Server epoch observed when the loss was detected.
        epoch: u64,
    },
    /// Internal invariant violation; indicates a bug, never expected.
    Corrupt(String),
}

impl IndexError {
    /// Whether this error is in the transient class (a retry may
    /// succeed): a propagated storage error the storage layer itself
    /// classes as transient. Everything else — corruption, config
    /// errors, lost build threads — is hard and surfaces immediately.
    pub fn is_transient(&self) -> bool {
        matches!(self, IndexError::Storage(e) if e.is_transient())
    }
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Storage(e) => write!(f, "storage: {e}"),
            IndexError::BadConfig {
                window,
                fan,
                reason,
            } => write!(f, "invalid configuration W={window}, n={fan}: {reason}"),
            IndexError::MissingDay(d) => write!(f, "day {d} not present in archive"),
            IndexError::BadStart { got, want } => {
                write!(f, "start requires exactly {want} days, got {got}")
            }
            IndexError::NonConsecutiveDay { expected, got } => {
                write!(f, "expected day {expected} next, got {got}")
            }
            IndexError::NotStarted => write!(f, "transition called before start"),
            IndexError::ChecksumMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "checksum mismatch in {what}: expected {expected:016x}, got {got:016x}"
            ),
            IndexError::LockPoisoned(what) => {
                write!(f, "lock poisoned: a thread panicked while holding {what}")
            }
            IndexError::WorkerLost { what, arm, epoch } => {
                write!(f, "worker lost: {what} (arm {arm}, epoch {epoch})")
            }
            IndexError::Corrupt(msg) => write!(f, "index corruption: {msg}"),
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Storage(e) => Some(e),
            _ => None,
        }
    }
}

impl From<wave_storage::StorageError> for IndexError {
    fn from(e: wave_storage::StorageError) -> Self {
        IndexError::Storage(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_name_the_problem() {
        let e = IndexError::BadStart { got: 3, want: 7 };
        assert!(e.to_string().contains("exactly 7"));
        let e = IndexError::NonConsecutiveDay {
            expected: Day(11),
            got: Day(13),
        };
        assert!(e.to_string().contains("11"));
        assert!(e.to_string().contains("13"));
    }

    #[test]
    fn concurrency_failures_name_the_component() {
        let e = IndexError::LockPoisoned("server route table");
        assert!(e.to_string().contains("route table"));
        assert!(e.to_string().contains("poisoned"));
        let e = IndexError::WorkerLost {
            what: "arm build thread panicked",
            arm: 2,
            epoch: 7,
        };
        assert!(e.to_string().contains("panicked"));
        assert!(e.to_string().contains("arm 2"));
        assert!(e.to_string().contains("epoch 7"));
    }

    #[test]
    fn storage_source_is_chained() {
        let e: IndexError = wave_storage::StorageError::EmptyExtent.into();
        assert!(std::error::Error::source(&e).is_some());
    }
}
