//! Commit-path resilience: the retry policy and degraded read-only
//! mode. The degraded flag and its counters are reported on
//! [`RegistryStats`](crate::RegistryStats), the registry's one status
//! snapshot.
//!
//! By default a durable registry is *fail-fast*: a storage error on the
//! commit path surfaces to the caller unretried, exactly as in earlier
//! releases. Opting in with
//! `Registry::builder().retry_policy(RetryPolicy::new(3))` changes the
//! posture to the one object-store-backed systems assume — transient
//! I/O faults are the norm:
//!
//! 1. a failed WAL append is retried under a bounded
//!    exponential-backoff-with-jitter budget (after truncating any torn
//!    partial frame the failed write left behind);
//! 2. when the budget is exhausted (or the error is permanent) the
//!    registry flips to **degraded read-only mode** instead of wedging:
//!    reads keep serving the live in-memory view, writes are rejected
//!    with the stable `E-DEGRADED` code;
//! 3. a probe ([`Registry::probe_now`](crate::Registry::probe_now) —
//!    the daemon runs one in the background) re-attempts the store and
//!    heals back to writable. Nothing is replayed on heal: the failed
//!    commit was never acknowledged, so the in-memory view and the WAL
//!    never diverged.

use std::time::Duration;

/// A bounded exponential-backoff retry budget for commit-path storage
/// errors.
///
/// The backoff for retry *n* (1-based) is
/// `initial_backoff · 2ⁿ⁻¹`, capped at `max_backoff`, with ±25%
/// deterministic jitter derived from the commit's generation — so two
/// registries retrying the same contended backend don't stampede in
/// lockstep, yet a replayed run backs off identically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    max_retries: u32,
    initial_backoff: Duration,
    max_backoff: Duration,
}

impl RetryPolicy {
    /// A policy allowing `max_retries` retries after the first failed
    /// attempt, starting at 10 ms of backoff and capping at 500 ms.
    pub fn new(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
        }
    }

    /// Sets the backoff before the first retry.
    pub fn initial_backoff(mut self, backoff: Duration) -> Self {
        self.initial_backoff = backoff;
        self
    }

    /// Sets the backoff cap.
    pub fn max_backoff(mut self, backoff: Duration) -> Self {
        self.max_backoff = backoff;
        self
    }

    /// The retry budget.
    pub fn max_retries(&self) -> u32 {
        self.max_retries
    }

    /// The backoff to sleep before retry `attempt` (1-based), jittered
    /// deterministically by `salt`.
    pub fn backoff(&self, attempt: u32, salt: u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let base = self
            .initial_backoff
            .saturating_mul(1u32 << exp)
            .min(self.max_backoff);
        // ±25% jitter from a splitmix64 draw over (salt, attempt).
        let mut state = salt ^ (u64::from(attempt) << 32) ^ 0x9e37_79b9_7f4a_7c15;
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let base_nanos = base.as_nanos() as u64;
        let quarter = base_nanos / 4;
        let jitter = if quarter == 0 {
            0
        } else {
            z % (2 * quarter + 1)
        };
        Duration::from_nanos(base_nanos - quarter + jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let policy = RetryPolicy::new(8)
            .initial_backoff(Duration::from_millis(8))
            .max_backoff(Duration::from_millis(100));
        let b1 = policy.backoff(1, 42);
        let b2 = policy.backoff(2, 42);
        let b5 = policy.backoff(5, 42);
        // ±25% bands around 8ms, 16ms, and the 100ms cap.
        assert!(b1 >= Duration::from_millis(6) && b1 <= Duration::from_millis(10));
        assert!(b2 >= Duration::from_millis(12) && b2 <= Duration::from_millis(20));
        assert!(b5 >= Duration::from_millis(75) && b5 <= Duration::from_millis(125));
    }

    #[test]
    fn backoff_jitter_is_deterministic_in_the_salt() {
        let policy = RetryPolicy::new(3);
        assert_eq!(policy.backoff(2, 7), policy.backoff(2, 7));
        assert_ne!(policy.backoff(2, 7), policy.backoff(2, 8));
    }

    #[test]
    fn huge_attempt_numbers_do_not_overflow() {
        let policy = RetryPolicy::new(u32::MAX);
        assert!(policy.backoff(u32::MAX, 0) <= Duration::from_millis(500) * 5 / 4);
    }
}
