//! A single-level hashed timer wheel for connection timeouts.
//!
//! Deadlines are quantized to ticks of a fixed granularity and hashed
//! into `slots` buckets; advancing the wheel sweeps each elapsed slot
//! and yields entries whose tick has actually arrived (entries hashed
//! into a swept slot from a future lap are put back). Each token owns
//! at most one stored entry, and the wheel remembers where it sits, so
//! re-arming and cancelling remove the superseded entry in O(1)
//! (`swap_remove`) — which matters when every served request re-arms
//! its connection's idle timer. The wheel therefore never holds more
//! entries than live timers, and [`TimerWheel::next_timeout`] scans
//! only those; the position map, keyed by token, is bounded the same
//! way.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One expired timer: the token it was armed under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expired {
    /// Caller token (e.g. a connection id).
    pub token: u64,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    token: u64,
    tick: u64,
}

/// The wheel. Each token has at most one live timer (re-arming
/// supersedes, cancelling removes).
#[derive(Debug)]
pub struct TimerWheel {
    slots: Vec<Vec<Entry>>,
    /// The `(slot, index)` of each live token's entry.
    positions: HashMap<u64, (usize, usize)>,
    granularity: Duration,
    origin: Instant,
    /// Next tick to sweep.
    cursor: u64,
}

impl TimerWheel {
    /// A wheel of `slots` buckets at `granularity` per tick, starting
    /// its clock at `origin`.
    pub fn new(origin: Instant, slots: usize, granularity: Duration) -> TimerWheel {
        assert!(slots > 0 && !granularity.is_zero());
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            positions: HashMap::new(),
            granularity,
            origin,
            cursor: 0,
        }
    }

    fn tick_of(&self, at: Instant) -> u64 {
        let elapsed = at.saturating_duration_since(self.origin);
        // Round up: a deadline mid-tick expires on the *next* sweep, so
        // timers never fire early.
        elapsed.as_nanos().div_ceil(self.granularity.as_nanos()) as u64
    }

    /// Arms (or re-arms) `token` to expire at `deadline`.
    pub fn arm(&mut self, token: u64, deadline: Instant) {
        self.cancel(token);
        let tick = self.tick_of(deadline).max(self.cursor);
        let slot = (tick % self.slots.len() as u64) as usize;
        self.positions.insert(token, (slot, self.slots[slot].len()));
        self.slots[slot].push(Entry { token, tick });
    }

    /// Cancels `token`'s pending timer, if any (O(1)).
    pub fn cancel(&mut self, token: u64) {
        let Some((slot, i)) = self.positions.remove(&token) else {
            return;
        };
        self.slots[slot].swap_remove(i);
        if let Some(moved) = self.slots[slot].get(i) {
            self.positions.insert(moved.token, (slot, i));
        }
    }

    /// Sweeps every tick up to and including `now`'s, appending
    /// expirations to `out`.
    pub fn advance(&mut self, now: Instant, out: &mut Vec<Expired>) {
        let target = self.tick_of(now);
        if target < self.cursor {
            return;
        }
        // Never sweep more than one full lap: beyond that every slot
        // has been visited once already.
        let sweeps = (target - self.cursor + 1).min(self.slots.len() as u64);
        for step in 0..sweeps {
            let slot = ((self.cursor + step) % self.slots.len() as u64) as usize;
            let positions = &mut self.positions;
            self.slots[slot].retain(|entry| {
                let due = entry.tick <= target;
                if due {
                    positions.remove(&entry.token);
                    out.push(Expired { token: entry.token });
                }
                !due // future-lap entries stay
            });
            for (i, entry) in self.slots[slot].iter().enumerate() {
                self.positions.insert(entry.token, (slot, i));
            }
        }
        self.cursor = target + 1;
    }

    /// Time until the next armed deadline, or `None` when the wheel is
    /// empty — the poll timeout to use.
    pub fn next_timeout(&self, now: Instant) -> Option<Duration> {
        let tick = self.slots.iter().flatten().map(|e| e.tick).min()?;
        let due = self.origin
            + Duration::from_nanos((self.granularity.as_nanos() as u64).saturating_mul(tick));
        Some(due.saturating_duration_since(now).max(self.granularity))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wheel(origin: Instant) -> TimerWheel {
        TimerWheel::new(origin, 8, Duration::from_millis(10))
    }

    #[test]
    fn arms_expire_in_order_and_not_early() {
        let t0 = Instant::now();
        let mut w = wheel(t0);
        w.arm(1, t0 + Duration::from_millis(25));
        w.arm(2, t0 + Duration::from_millis(55));

        let mut out = Vec::new();
        w.advance(t0 + Duration::from_millis(20), &mut out);
        assert!(out.is_empty(), "not due yet: {out:?}");
        w.advance(t0 + Duration::from_millis(30), &mut out);
        assert_eq!(out, vec![Expired { token: 1 }]);
        out.clear();
        w.advance(t0 + Duration::from_millis(60), &mut out);
        assert_eq!(out, vec![Expired { token: 2 }]);
    }

    #[test]
    fn cancel_and_rearm_invalidate_stale_entries() {
        let t0 = Instant::now();
        let mut w = wheel(t0);
        w.arm(3, t0 + Duration::from_millis(20));
        w.cancel(3);
        let mut out = Vec::new();
        w.advance(t0 + Duration::from_millis(100), &mut out);
        assert!(out.is_empty(), "cancelled timer fired: {out:?}");

        // Re-arm supersedes: only the latest deadline fires.
        w.arm(3, t0 + Duration::from_millis(120));
        w.arm(3, t0 + Duration::from_millis(200));
        w.advance(t0 + Duration::from_millis(150), &mut out);
        assert!(out.is_empty(), "superseded timer fired: {out:?}");
        w.advance(t0 + Duration::from_millis(210), &mut out);
        assert_eq!(out, vec![Expired { token: 3 }]);
    }

    #[test]
    fn entries_beyond_one_lap_survive_the_sweep() {
        let t0 = Instant::now();
        let mut w = wheel(t0); // 8 slots × 10ms = 80ms per lap
        w.arm(5, t0 + Duration::from_millis(250));
        let mut out = Vec::new();
        w.advance(t0 + Duration::from_millis(240), &mut out);
        assert!(out.is_empty(), "{out:?}");
        w.advance(t0 + Duration::from_millis(260), &mut out);
        assert_eq!(out, vec![Expired { token: 5 }]);
    }

    #[test]
    fn next_timeout_tracks_the_earliest_live_deadline() {
        let t0 = Instant::now();
        let mut w = wheel(t0);
        assert_eq!(w.next_timeout(t0), None);
        w.arm(1, t0 + Duration::from_millis(70));
        w.arm(2, t0 + Duration::from_millis(30));
        let hint = w.next_timeout(t0).unwrap();
        assert!(hint <= Duration::from_millis(40), "{hint:?}");
        w.cancel(2);
        let hint = w.next_timeout(t0).unwrap();
        assert!(hint >= Duration::from_millis(50), "{hint:?}");
    }

    #[test]
    fn rearming_keeps_one_entry_per_token() {
        // Steady traffic re-arms a connection's idle timer per request;
        // superseded deadlines must not pile up in the slots, where
        // `next_timeout` would scan them on every event-loop turn.
        let t0 = Instant::now();
        let mut w = wheel(t0);
        let mut last = t0;
        for i in 0..100_000u64 {
            last = t0 + Duration::from_secs(30) + Duration::from_micros(i * 7);
            w.arm(1, last);
        }
        let stored: usize = w.slots.iter().map(Vec::len).sum();
        assert!(stored <= w.slots.len() + 1, "{stored} entries stored");
        assert_eq!(w.positions.len(), 1);
        let hint = w.next_timeout(t0).unwrap();
        let live = last - t0;
        assert!(
            hint >= live && hint <= live + Duration::from_millis(10),
            "{hint:?} vs live deadline {live:?}"
        );

        // Two tokens sharing a slot: cancelling one leaves the other's
        // position intact for later re-arms and expiry.
        w.arm(2, t0 + Duration::from_millis(30));
        w.arm(3, t0 + Duration::from_millis(30));
        w.cancel(2);
        w.arm(3, t0 + Duration::from_millis(40));
        let stored: usize = w.slots.iter().map(Vec::len).sum();
        assert_eq!(stored, 2);
        let mut out = Vec::new();
        w.advance(t0 + Duration::from_millis(45), &mut out);
        assert_eq!(out, vec![Expired { token: 3 }]);
    }
}
