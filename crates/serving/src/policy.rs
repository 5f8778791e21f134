//! When to schedule a full LACC rebuild.
//!
//! Effective deletions *always* rebuild (a union-find over insertions
//! cannot un-merge), so the policy only governs staleness: how far the
//! incrementally hooked forest may drift from the canonical labels a
//! from-scratch run would produce before the service pays for a rebuild.

/// Staleness policy for a [`crate::CcService`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RerunPolicy {
    /// Rebuild once `hooks_since_rebuild / n` exceeds this fraction.
    /// `0.0` rebuilds after any batch that hooked at least once;
    /// `f64::INFINITY` never rebuilds for staleness.
    pub staleness_threshold: f64,
}

impl Default for RerunPolicy {
    /// Rebuild after incremental hooks touch a quarter of the vertices.
    fn default() -> Self {
        RerunPolicy {
            staleness_threshold: 0.25,
        }
    }
}

impl RerunPolicy {
    /// A policy with the given threshold.
    pub fn staleness(threshold: f64) -> Self {
        assert!(threshold >= 0.0, "staleness threshold must be nonnegative");
        RerunPolicy {
            staleness_threshold: threshold,
        }
    }

    /// Never rebuild for staleness (deletions still rebuild).
    pub fn never() -> Self {
        RerunPolicy {
            staleness_threshold: f64::INFINITY,
        }
    }

    /// Rebuild after every batch that merged components.
    pub fn always() -> Self {
        RerunPolicy {
            staleness_threshold: 0.0,
        }
    }

    /// True when `hooks` incremental merges since the last rebuild exceed
    /// the threshold fraction of `n` vertices.
    pub fn stale(&self, hooks: usize, n: usize) -> bool {
        n > 0 && hooks as f64 / n as f64 > self.staleness_threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_semantics() {
        let p = RerunPolicy::default();
        assert!(!p.stale(0, 100));
        assert!(!p.stale(25, 100)); // exactly at the threshold: not stale
        assert!(p.stale(26, 100));

        assert!(RerunPolicy::always().stale(1, 1_000_000));
        assert!(!RerunPolicy::always().stale(0, 100));
        assert!(!RerunPolicy::never().stale(usize::MAX / 2, 2));
        assert!(!RerunPolicy::default().stale(5, 0));
    }
}
