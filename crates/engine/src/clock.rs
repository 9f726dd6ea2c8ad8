//! Time sources for stamping external input, plus the engine's only other
//! sanctioned wall-clock access: handler-duration measurement.
//!
//! Everything in the replayable core observes time through this module.
//! tart-lint enforces that (`WALLCLOCK` rule, DESIGN.md §11): the two
//! `Instant::now` reads below carry the only `allow` fences in the
//! deterministic engine tier, so any new wall-clock read elsewhere in the
//! scheduler fails the audit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use tart_vtime::VirtualTime;

/// Produces the timestamps given to external messages as they enter the
/// system.
///
/// "Because the message is logged, it is safe to use the actual real time as
/// the virtual time of this message" (§II.E). Production deployments use
/// [`RealClock`]; tests use [`LogicalClock`] so whole-cluster runs are
/// reproducible.
pub trait TimeSource: Send + Sync {
    /// The current time in ticks (nanoseconds).
    fn now(&self) -> VirtualTime;

    /// Ensures subsequent [`TimeSource::now`] calls return strictly more
    /// than `vt`. Cold restart uses this to move the clock past the last
    /// timestamp recovered from the log, so new external sends are stamped
    /// after every input already logged, on every wire.
    fn advance_to(&self, vt: VirtualTime);
}

/// Monotonic wall-clock time, measured from the moment the clock was
/// created and shifted forward by [`TimeSource::advance_to`].
#[derive(Debug)]
pub struct RealClock {
    epoch: Instant,
    /// Ticks added to the elapsed time. Only ever raised, so `now()` stays
    /// monotone.
    offset: AtomicU64,
}

impl RealClock {
    /// Creates a clock whose tick zero is now.
    #[allow(clippy::disallowed_methods)] // sanctioned wall-clock boundary
    pub fn new() -> Self {
        RealClock {
            // tart-lint: allow(WALLCLOCK) -- RealClock *is* the sanctioned boundary: §II.E logs the stamp, so replay reads the log, not the clock
            epoch: Instant::now(),
            offset: AtomicU64::new(0),
        }
    }

    fn elapsed_ticks(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A clone reads the same time as the original at the moment of cloning;
/// later [`TimeSource::advance_to`] calls move only the clock they are
/// made on. Share one clock through an `Arc` to share one timeline.
impl Clone for RealClock {
    fn clone(&self) -> Self {
        RealClock {
            epoch: self.epoch,
            offset: AtomicU64::new(self.offset.load(Ordering::Relaxed)),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        RealClock::new()
    }
}

impl TimeSource for RealClock {
    fn now(&self) -> VirtualTime {
        // Relaxed: the offset publishes no other data, and each atomic is
        // coherent on its own, so a reader never sees it go backwards.
        let offset = self.offset.load(Ordering::Relaxed);
        VirtualTime::from_ticks(self.elapsed_ticks().saturating_add(offset))
    }

    /// Raises the offset so that time keeps its real-time pace but starts
    /// past `vt`: a fresh clock after a cold restart stamps new inputs
    /// after everything already logged, spaced as they were sent.
    fn advance_to(&self, vt: VirtualTime) {
        let needed = vt
            .as_ticks()
            .saturating_add(1)
            .saturating_sub(self.elapsed_ticks());
        self.offset.fetch_max(needed, Ordering::Relaxed);
    }
}

/// A deterministic clock that advances by a fixed step on every query.
///
/// Two cluster runs that make the same sequence of `now()` calls observe the
/// same timestamps, making end-to-end runs replayable in tests.
#[derive(Clone, Debug)]
pub struct LogicalClock {
    counter: Arc<AtomicU64>,
    step: u64,
}

impl LogicalClock {
    /// Creates a clock advancing `step` ticks per query.
    ///
    /// # Panics
    ///
    /// Panics if `step` is zero (timestamps must be strictly increasing).
    pub fn new(step: u64) -> Self {
        assert!(step > 0, "logical clock step must be positive");
        LogicalClock {
            counter: Arc::new(AtomicU64::new(0)),
            step,
        }
    }
}

impl TimeSource for LogicalClock {
    fn now(&self) -> VirtualTime {
        let prev = self.counter.fetch_add(self.step, Ordering::SeqCst);
        VirtualTime::from_ticks(prev + self.step)
    }

    fn advance_to(&self, vt: VirtualTime) {
        self.counter.fetch_max(vt.as_ticks(), Ordering::SeqCst);
    }
}

/// A running measurement of one handler execution, used to feed the
/// estimator calibrator (§III: estimates are fitted to *measured* service
/// times).
///
/// The measurement itself is wall-clock — it has to be; it is measuring the
/// hardware — but the value never flows into virtual time directly: it goes
/// through [`tart_estimator::Calibrator`], and a re-fit is logged as a
/// `DeterminismFault` so replay reproduces the estimator switch instead of
/// the measurement. The same measurement also feeds the estimator-residual
/// histogram in `tart-obs` (estimate vs. measured, per delivery) — again a
/// one-way flow out of the core. Keeping the read here (rather than in the
/// scheduler) gives the audit a single choke point.
#[derive(Clone, Copy, Debug)]
pub struct HandlerTimer {
    started: Instant,
}

impl HandlerTimer {
    /// Starts measuring.
    #[allow(clippy::disallowed_methods)] // sanctioned wall-clock boundary
    pub fn start() -> Self {
        HandlerTimer {
            // tart-lint: allow(WALLCLOCK) -- measures real handler duration for calibration; consumed via the logged DeterminismFault path, never by replayed code
            started: Instant::now(),
        }
    }

    /// Nanoseconds since [`HandlerTimer::start`], saturating at `u64::MAX`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn logical_clock_steps_deterministically() {
        let c = LogicalClock::new(1_000);
        assert_eq!(c.now(), VirtualTime::from_ticks(1_000));
        assert_eq!(c.now(), VirtualTime::from_ticks(2_000));
        // Clones share the counter (one logical timeline per cluster).
        let c2 = c.clone();
        assert_eq!(c2.now(), VirtualTime::from_ticks(3_000));
        assert_eq!(c.now(), VirtualTime::from_ticks(4_000));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_step_rejected() {
        let _ = LogicalClock::new(0);
    }

    #[test]
    fn advance_to_restores_a_logical_timeline() {
        let c = LogicalClock::new(1_000);
        // A cold restart replaying three logged sends lands the clock here.
        c.advance_to(VirtualTime::from_ticks(3_000));
        assert_eq!(
            c.now(),
            VirtualTime::from_ticks(4_000),
            "resumes past the log"
        );
        // advance_to never regresses.
        c.advance_to(VirtualTime::from_ticks(100));
        assert_eq!(c.now(), VirtualTime::from_ticks(5_000));
    }

    #[test]
    fn advance_to_moves_a_fresh_real_clock_past_the_log() {
        let r = RealClock::new();
        let logged = VirtualTime::from_ticks(3_600_000_000_000);
        r.advance_to(logged);
        let a = r.now();
        assert!(a > logged, "a fresh clock stamps past the log");
        // A clone starts on the shifted timeline, and it keeps moving.
        let b = r.clone().now();
        assert!(b >= a);
        // advance_to never regresses.
        r.advance_to(VirtualTime::from_ticks(1));
        assert!(r.now() >= b);
    }

    #[test]
    fn usable_as_trait_objects() {
        let clocks: Vec<Arc<dyn TimeSource>> =
            vec![Arc::new(RealClock::new()), Arc::new(LogicalClock::new(1))];
        for c in clocks {
            let _ = c.now();
        }
    }
}
