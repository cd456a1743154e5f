//! Bounded retry with deterministic, optionally jittered backoff.
//!
//! [`RetryPolicy`] is the one retry type every layer shares: the
//! persistence layer's `commit_wave` wraps each store operation in it,
//! and the serving stack (`WaveServer`'s arms, `SharedWave`)
//! wraps transient read errors on the probe/scan/batch paths. Only
//! errors in the transient class ([`StorageError::is_transient`], or
//! whatever predicate [`RetryPolicy::run_where`] is given) are
//! retried; corruption, crashes, and logic errors surface immediately.
//!
//! Backoff is exponential (doubling per attempt, capped) and —
//! unusually for a retry loop — **deterministic**: when jitter is
//! enabled it is derived from a [`SplitMix64`] stream seeded at
//! policy-construction time, so two runs with the same seed sleep the
//! same schedule. The simulation-first repo rule (no wall-clock
//! randomness) holds even here.
//!
//! Two properties make sharing one policy safe across such different
//! callers. First, every wrapped operation must be **idempotent**: a
//! store put rewrites the same bytes (`commit_wave` retries image,
//! filter-sidecar, and manifest writes alike), and a probe/scan read
//! has no effects, so a retry after a half-observed transient can
//! never double-apply. Second, retries are **accounted, not hidden**:
//! each caller passes its own counter (`store.retry_attempts`,
//! `server.read_retries`, `shared.read_retries`), so a burst that the
//! policy absorbed is still visible in the metrics — an invariant the
//! chaos soak leans on when it asserts bursts shorter than the budget
//! are caller-invisible.
//!
//! Worst-case stall is bounded by construction
//! (`max_attempts * max_backoff`, see [`RetryPolicy`]); exhausting the
//! budget returns the *last* error, so the caller sees the failure
//! that actually persisted rather than the first flicker.

use std::time::Duration;

use wave_obs::{Counter, SplitMix64};

use crate::error::{StorageError, StorageResult};

/// Bounded retry with exponential backoff for transient errors.
///
/// The backoff before retry `k` (1-based) is
/// `min(base_backoff * 2^(k-1), max_backoff)`, optionally scaled by a
/// seeded jitter factor in `[0.5, 1.0)` (see
/// [`RetryPolicy::with_jitter`]). The worst-case stall is therefore
/// `max_attempts * max_backoff`.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts (first try included). `1` disables retrying.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles each further retry.
    pub base_backoff: Duration,
    /// Upper bound on a single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter stream; `None` disables
    /// jitter (full backoff every time).
    pub jitter_seed: Option<u64>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: None,
        }
    }
}

impl RetryPolicy {
    /// A policy that never sleeps (for tests and simulations).
    pub fn no_backoff(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            base_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
            jitter_seed: None,
        }
    }

    /// Enables deterministic jitter: each backoff is scaled by a
    /// factor in `[0.5, 1.0)` drawn from a [`SplitMix64`] stream
    /// seeded with `seed`. Same seed, same schedule — the property the
    /// chaos harness relies on to stay reproducible while still
    /// de-synchronising concurrent retriers in production-shaped runs.
    pub fn with_jitter(mut self, seed: u64) -> Self {
        self.jitter_seed = Some(seed);
        self
    }

    /// The backoff slept before retry `attempt` (1-based), jitter
    /// applied. Exposed so tests (and capacity planning) can inspect
    /// the schedule without sleeping through it.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let attempt = attempt.max(1);
        let full = self
            .base_backoff
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(self.max_backoff);
        match self.jitter_seed {
            None => full,
            Some(seed) => {
                // One short stream per (seed, attempt): deterministic
                // without shared mutable state, so `backoff_for` can
                // be re-queried and concurrent retriers with distinct
                // seeds spread out.
                let draw = SplitMix64::new(seed ^ u64::from(attempt)).next_u64();
                // Factor in [0.5, 1.0): half of full, plus up to half.
                let frac = (draw >> 11) as f64 / (1u64 << 53) as f64;
                full.mul_f64(0.5 + frac / 2.0)
            }
        }
    }

    /// Runs `op`, retrying failures for which `is_transient` holds.
    /// Every retry increments `retries` (the observability counter —
    /// `store.retry_attempts` on the commit path, `server.read_retries`
    /// on the serving path).
    pub fn run_where<T, E>(
        &self,
        retries: &Counter,
        is_transient: impl Fn(&E) -> bool,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(e) if is_transient(&e) && attempt + 1 < self.max_attempts.max(1) => {
                    attempt += 1;
                    retries.inc();
                    let backoff = self.backoff_for(attempt);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                other => return other,
            }
        }
    }

    /// [`RetryPolicy::run_where`] specialised to the storage error
    /// class ([`StorageError::is_transient`]).
    pub fn run<T>(
        &self,
        retries: &Counter,
        op: impl FnMut() -> StorageResult<T>,
    ) -> StorageResult<T> {
        self.run_where(retries, StorageError::is_transient, op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wave_obs::Obs;

    #[test]
    fn retry_rides_out_a_transient_burst() {
        let obs = Obs::noop();
        let retries = obs.counter("r");
        let policy = RetryPolicy::no_backoff(4);
        let mut failures_left = 2;
        let got = policy
            .run(&retries, || -> StorageResult<u32> {
                if failures_left > 0 {
                    failures_left -= 1;
                    Err(StorageError::Transient("blip".into()))
                } else {
                    Ok(7)
                }
            })
            .unwrap();
        assert_eq!(got, 7);
        assert_eq!(retries.get(), 2);
    }

    #[test]
    fn retry_gives_up_after_max_attempts() {
        let obs = Obs::noop();
        let retries = obs.counter("r");
        let policy = RetryPolicy::no_backoff(3);
        let err = policy
            .run(&retries, || -> StorageResult<()> {
                Err(StorageError::Transient("always".into()))
            })
            .unwrap_err();
        assert!(err.is_transient(), "{err}");
        assert_eq!(retries.get(), 2, "two retries after the first failure");
    }

    #[test]
    fn retry_does_not_touch_hard_errors() {
        let obs = Obs::noop();
        let retries = obs.counter("r");
        let policy = RetryPolicy::no_backoff(5);
        let err = policy
            .run(&retries, || -> StorageResult<()> {
                Err(StorageError::Injected)
            })
            .unwrap_err();
        assert!(matches!(err, StorageError::Injected));
        assert_eq!(retries.get(), 0);
    }

    #[test]
    fn run_where_retries_by_custom_predicate() {
        let obs = Obs::noop();
        let retries = obs.counter("r");
        let policy = RetryPolicy::no_backoff(3);
        let mut left = 1;
        let got: Result<u32, &str> = policy.run_where(
            &retries,
            |e: &&str| *e == "soft",
            || {
                if left > 0 {
                    left -= 1;
                    Err("soft")
                } else {
                    Ok(1)
                }
            },
        );
        assert_eq!(got.unwrap(), 1);
        assert_eq!(retries.get(), 1);
        // A non-matching error surfaces immediately.
        let got: Result<(), &str> =
            policy.run_where(&retries, |e: &&str| *e == "soft", || Err("hard"));
        assert_eq!(got.unwrap_err(), "hard");
        assert_eq!(retries.get(), 1);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(9),
            jitter_seed: None,
        };
        assert_eq!(policy.backoff_for(1), Duration::from_millis(2));
        assert_eq!(policy.backoff_for(2), Duration::from_millis(4));
        assert_eq!(policy.backoff_for(3), Duration::from_millis(8));
        assert_eq!(policy.backoff_for(4), Duration::from_millis(9), "capped");
        assert_eq!(policy.backoff_for(40), Duration::from_millis(9));
    }

    #[test]
    fn jitter_is_deterministic_by_seed_and_bounded() {
        let base = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(8),
            max_backoff: Duration::from_millis(64),
            jitter_seed: None,
        };
        let a = base.with_jitter(42);
        let b = base.with_jitter(42);
        let c = base.with_jitter(43);
        let mut any_differs = false;
        for attempt in 1..=4 {
            let full = base.backoff_for(attempt);
            let j = a.backoff_for(attempt);
            assert_eq!(j, b.backoff_for(attempt), "same seed, same schedule");
            assert!(j >= full.mul_f64(0.5) && j < full, "jitter in [0.5, 1.0)");
            if j != c.backoff_for(attempt) {
                any_differs = true;
            }
        }
        assert!(any_differs, "different seeds shift the schedule");
    }
}
