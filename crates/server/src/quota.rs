//! Per-tenant admission quotas: a token bucket per `X-Swope-Api-Key`.
//!
//! Tenancy is advisory, not authenticated — the key header is an opaque
//! label that buys each analyst their own bucket. A request with no key
//! draws from the shared `"anonymous"` bucket. Buckets refill at
//! `rps` tokens/second up to `burst`; a request that finds less than one
//! token is throttled with a computed `Retry-After`.
//!
//! Admission runs on the event thread *before* dispatch, so a throttled
//! tenant never occupies a worker or a queue slot. Key cardinality is
//! capped: past [`MAX_TENANTS`] distinct keys, new keys share one
//! overflow bucket rather than growing the map without bound (the same
//! defensive posture as the labelled-metrics cap in `metrics.rs`).

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Maximum distinct tenant buckets before new keys share the overflow
/// bucket.
pub const MAX_TENANTS: usize = 1024;

/// Bucket key used when the client sends no `X-Swope-Api-Key`.
pub const ANONYMOUS_TENANT: &str = "anonymous";

const OVERFLOW_TENANT: &str = "overflow";

/// Verdict for one admission attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum Admission {
    /// Under quota; a token was consumed.
    Allow,
    /// Over quota. `retry_after_secs` is the whole-second wait (≥ 1)
    /// until a token will be available, for the `Retry-After` header.
    Throttle {
        /// Seconds until the tenant should retry.
        retry_after_secs: u64,
    },
}

struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Token-bucket admission control keyed by tenant.
pub struct TenantQuotas {
    rps: f64,
    burst: f64,
    buckets: Mutex<HashMap<String, Bucket>>,
}

impl TenantQuotas {
    /// Creates quotas refilling at `rps` tokens/second with capacity
    /// `burst`. Both are clamped to a small positive floor so a
    /// misconfigured zero can't divide by zero or admit nothing forever.
    pub fn new(rps: f64, burst: f64) -> Self {
        Self { rps: rps.max(1e-6), burst: burst.max(1.0), buckets: Mutex::new(HashMap::new()) }
    }

    /// Attempts to admit one request for `tenant` at time `now`.
    pub fn admit(&self, tenant: &str, now: Instant) -> Admission {
        let mut buckets = self.buckets.lock().expect("quota lock");
        let key = if buckets.contains_key(tenant) || buckets.len() < MAX_TENANTS {
            tenant
        } else {
            OVERFLOW_TENANT
        };
        let bucket =
            buckets.entry(key.to_owned()).or_insert(Bucket { tokens: self.burst, last: now });
        let elapsed = now.saturating_duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * self.rps).min(self.burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            Admission::Allow
        } else {
            let wait = (1.0 - bucket.tokens) / self.rps;
            Admission::Throttle { retry_after_secs: (wait.ceil() as u64).max(1) }
        }
    }

    /// Number of distinct tenant buckets currently tracked.
    #[cfg(test)]
    fn tenant_count(&self) -> usize {
        self.buckets.lock().expect("quota lock").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn burst_admits_then_throttles() {
        let q = TenantQuotas::new(1.0, 3.0);
        let t0 = Instant::now();
        for i in 0..3 {
            assert_eq!(q.admit("alice", t0), Admission::Allow, "burst admit {i}");
        }
        match q.admit("alice", t0) {
            Admission::Throttle { retry_after_secs } => assert_eq!(retry_after_secs, 1),
            a => panic!("expected throttle, got {a:?}"),
        }
    }

    #[test]
    fn tenants_have_independent_buckets() {
        let q = TenantQuotas::new(1.0, 1.0);
        let t0 = Instant::now();
        assert_eq!(q.admit("alice", t0), Admission::Allow);
        assert!(matches!(q.admit("alice", t0), Admission::Throttle { .. }));
        assert_eq!(q.admit("bob", t0), Admission::Allow, "bob has his own bucket");
        assert_eq!(q.admit(ANONYMOUS_TENANT, t0), Admission::Allow);
    }

    #[test]
    fn tokens_refill_over_time() {
        let q = TenantQuotas::new(2.0, 2.0); // 2 rps
        let t0 = Instant::now();
        assert_eq!(q.admit("a", t0), Admission::Allow);
        assert_eq!(q.admit("a", t0), Admission::Allow);
        assert!(matches!(q.admit("a", t0), Admission::Throttle { .. }));
        // 600ms later: 1.2 tokens refilled — one admit succeeds, next fails.
        let t1 = t0 + Duration::from_millis(600);
        assert_eq!(q.admit("a", t1), Admission::Allow);
        assert!(matches!(q.admit("a", t1), Admission::Throttle { .. }));
    }

    #[test]
    fn refill_caps_at_burst() {
        let q = TenantQuotas::new(100.0, 2.0);
        let t0 = Instant::now();
        assert_eq!(q.admit("a", t0), Admission::Allow);
        // An hour of refill still yields only `burst` tokens.
        let t1 = t0 + Duration::from_secs(3600);
        assert_eq!(q.admit("a", t1), Admission::Allow);
        assert_eq!(q.admit("a", t1), Admission::Allow);
        assert!(matches!(q.admit("a", t1), Admission::Throttle { .. }));
    }

    #[test]
    fn retry_after_scales_with_deficit() {
        let q = TenantQuotas::new(0.25, 1.0); // one token per 4s
        let t0 = Instant::now();
        assert_eq!(q.admit("slow", t0), Admission::Allow);
        match q.admit("slow", t0) {
            Admission::Throttle { retry_after_secs } => assert_eq!(retry_after_secs, 4),
            a => panic!("expected throttle, got {a:?}"),
        }
    }

    #[test]
    fn key_cardinality_is_capped() {
        let q = TenantQuotas::new(1.0, 1.0);
        let t0 = Instant::now();
        for i in 0..MAX_TENANTS {
            q.admit(&format!("tenant-{i}"), t0);
        }
        assert_eq!(q.tenant_count(), MAX_TENANTS);
        // A brand-new key lands in the shared overflow bucket...
        assert_eq!(q.admit("fresh-key-a", t0), Admission::Allow);
        // ...which "fresh-key-b" finds already drained.
        assert!(matches!(q.admit("fresh-key-b", t0), Admission::Throttle { .. }));
        assert_eq!(q.tenant_count(), MAX_TENANTS + 1);
        // Existing tenants keep their own buckets past the cap.
        assert_eq!(q.admit("tenant-0", t0 + Duration::from_secs(2)), Admission::Allow);
    }
}
