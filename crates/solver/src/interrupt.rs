//! Cooperative interruption for the solver engines.
//!
//! Exact-method engines (CDCL SAT, CP, ILP branch-and-bound, SMT) run
//! unbounded searches; callers need to stop them mid-search — not just
//! between restarts or II attempts — when a wall-clock budget expires
//! or a rival mapper has already won a portfolio race. An [`Interrupt`]
//! carries both stop sources:
//!
//! * an optional **deadline** (`Instant`), polled with an amortised
//!   stride so the hot search loop pays one relaxed counter increment
//!   per check and a real `Instant::now()` syscall only every
//!   [`Interrupt::STRIDE`] checks;
//! * an optional shared **cancel flag** (`Arc<AtomicBool>`), checked on
//!   every call — a relaxed atomic load of a cache-shared bool is
//!   cheaper than reading the clock and is the path raced portfolios
//!   rely on for sub-millisecond cancellation latency.
//!
//! The engines check `should_stop()` once per search node / CDCL loop
//! iteration and return their `Unknown` outcome when it fires. Nothing
//! in this module knows about mappers; `cgra-mapper-core`'s
//! `engine::Budget` wraps the same two stop sources and hands an
//! `Interrupt` view of itself down into the solvers.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cooperative stop signal: deadline + shared cancel flag.
///
/// `Clone` produces a view of the same deadline and the same cancel
/// flag but a fresh stride counter, so clones handed to different
/// threads never contend on the counter cache line.
#[derive(Debug, Default)]
pub struct Interrupt {
    deadline: Option<Instant>,
    cancel: Option<Arc<AtomicBool>>,
    /// Amortisation counter for deadline polls (see [`Self::STRIDE`]).
    probe: AtomicU32,
}

impl Clone for Interrupt {
    fn clone(&self) -> Self {
        Interrupt {
            deadline: self.deadline,
            cancel: self.cancel.clone(),
            probe: AtomicU32::new(0),
        }
    }
}

impl Interrupt {
    /// Deadline polls happen on every `STRIDE`-th `should_stop` call;
    /// the cancel flag is checked on every call. 64 keeps the worst-case
    /// deadline overshoot far below a millisecond for every engine's
    /// per-node cost while making the common case a single relaxed
    /// counter increment.
    pub const STRIDE: u32 = 64;

    /// An interrupt that never fires (the default for every engine).
    pub fn none() -> Self {
        Interrupt::default()
    }

    /// Stop when `deadline` passes or `cancel` becomes true.
    pub fn new(deadline: Option<Instant>, cancel: Option<Arc<AtomicBool>>) -> Self {
        Interrupt {
            deadline,
            cancel,
            probe: AtomicU32::new(0),
        }
    }

    /// Amortised stop check for hot search loops: cancel flag every
    /// call, clock only every [`Self::STRIDE`]-th call.
    #[inline]
    pub fn should_stop(&self) -> bool {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(deadline) = self.deadline {
            if self.probe.fetch_add(1, Ordering::Relaxed) % Self::STRIDE == 0 {
                return Instant::now() > deadline;
            }
        }
        false
    }

    /// Precise stop check (always reads the clock). For cold paths:
    /// once per restart, per CEGAR round, per II attempt.
    pub fn should_stop_now(&self) -> bool {
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::Relaxed) {
                return true;
            }
        }
        matches!(self.deadline, Some(d) if Instant::now() > d)
    }

    /// True if the cancel flag (not the deadline) is the reason to stop.
    pub fn is_cancelled(&self) -> bool {
        self.cancel
            .as_ref()
            .is_some_and(|f| f.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn inert_by_default() {
        let i = Interrupt::none();
        for _ in 0..1000 {
            assert!(!i.should_stop());
        }
        assert!(!i.should_stop_now());
    }

    #[test]
    fn cancel_flag_fires_immediately() {
        let flag = Arc::new(AtomicBool::new(false));
        let i = Interrupt::new(None, Some(flag.clone()));
        assert!(!i.should_stop());
        flag.store(true, Ordering::Relaxed);
        // Every call sees the flag — no stride amortisation on cancel.
        assert!(i.should_stop());
        assert!(i.is_cancelled());
    }

    #[test]
    fn deadline_fires_within_stride() {
        let i = Interrupt::new(Some(Instant::now() - Duration::from_millis(1)), None);
        // The deadline is already past; at most STRIDE calls until the
        // amortised check reads the clock.
        let fired = (0..=Interrupt::STRIDE).any(|_| i.should_stop());
        assert!(fired);
        assert!(i.should_stop_now());
        assert!(!i.is_cancelled());
    }

    #[test]
    fn clone_gets_fresh_probe_but_shared_flag() {
        let flag = Arc::new(AtomicBool::new(false));
        let a = Interrupt::new(None, Some(flag.clone()));
        let b = a.clone();
        flag.store(true, Ordering::Relaxed);
        assert!(a.should_stop());
        assert!(b.should_stop());
    }
}
