//! Event-rate pacing: the decision logic of the per-session rate quota,
//! kept free of I/O and of the wall clock so it is testable in virtual
//! time. The connection thread in [`crate::server`] supplies the instants
//! and does the sleeping.

use std::time::{Duration, Instant};

/// Sleep-pacing token bucket for
/// [`ServeConfig::quota_event_rate`](crate::ServeConfig::quota_event_rate):
/// capacity equals the refill rate, so a session gets a one-second
/// burst allowance and is paced to the sustained rate past it. Pure
/// decision logic — every method takes the current time, none reads the
/// clock.
pub(crate) struct TokenBucket {
    /// Tokens per second, and the bucket capacity.
    rate: u64,
    /// Current balance; negative is debt the next stall repays.
    tokens: f64,
    last: Instant,
    /// Whether the next stall opens a new crossing of the quota. Cleared
    /// by that stall and set again only once the balance has refilled to
    /// half the capacity: a sleep that overshoots its stall lifts the
    /// balance a little above zero, and that must not turn one sustained
    /// over-rate stream into many crossings.
    armed: bool,
}

impl TokenBucket {
    pub(crate) fn new(rate: u64, now: Instant) -> Self {
        Self { rate, tokens: rate as f64, last: now, armed: true }
    }

    /// Consumes `n` tokens at time `now`. Returns how long the caller
    /// must stall to stay within rate (zero while the burst allowance
    /// covers it) and whether that stall is the first of a crossing.
    pub(crate) fn consume(&mut self, now: Instant, n: u64) -> (Duration, bool) {
        let refill = now.duration_since(self.last).as_secs_f64() * self.rate as f64;
        self.tokens = (self.tokens + refill).min(self.rate as f64);
        self.last = now;
        self.tokens -= n as f64;
        if self.tokens >= 0.0 {
            if self.tokens * 2.0 >= self.rate as f64 {
                self.armed = true;
            }
            return (Duration::ZERO, false);
        }
        let crossed = std::mem::replace(&mut self.armed, false);
        (Duration::from_secs_f64(-self.tokens / self.rate as f64), crossed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn token_bucket_is_a_pure_function_of_the_instants_it_is_given() {
        let t0 = Instant::now();
        let mut b = TokenBucket::new(200, t0);
        // The one-second burst allowance covers the first 200 events.
        assert_eq!(b.consume(t0, 200), (Duration::ZERO, false));
        // The next event is one token of debt: 1/200 s, a new crossing.
        assert_eq!(b.consume(t0, 1), (5 * MS, true));
        // Debt accumulates while no time passes, within the crossing.
        assert_eq!(b.consume(t0, 1), (10 * MS, false));
        // 10 ms later the debt is repaid exactly; a batch of 4 stalls 20.
        assert_eq!(b.consume(t0 + 10 * MS, 4), (20 * MS, false));
        // The balance never exceeds the capacity, however long the idle.
        let (stall, _) = b.consume(t0 + Duration::from_secs(3600), 201);
        assert_eq!(stall, 5 * MS);
    }

    #[test]
    fn overshooting_sleeps_do_not_split_one_crossing() {
        // A sustained over-rate stream whose every 5 ms stall oversleeps
        // by 50 ms: the balance keeps surfacing above zero, well short
        // of half the capacity. One crossing, however long it runs.
        let t0 = Instant::now();
        let mut b = TokenBucket::new(200, t0);
        let mut now = t0;
        let mut crossings = 0;
        let mut unstalled_after_first = 0;
        b.consume(now, 200);
        for _ in 0..400 {
            let (stall, crossed) = b.consume(now, 1);
            crossings += crossed as u32;
            if stall.is_zero() {
                unstalled_after_first += 1;
            } else {
                now += stall + 50 * MS;
            }
        }
        assert_eq!(crossings, 1);
        assert!(unstalled_after_first > 0, "the overshoot must surface above zero to test this");

        // Half a second of silence refills half the bucket and re-arms.
        assert_eq!(b.consume(now + 600 * MS, 1), (Duration::ZERO, false));
        assert!(b.consume(now + 600 * MS, 200).1, "a fresh crossing is announced again");
    }
}
