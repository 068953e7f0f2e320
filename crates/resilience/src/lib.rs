//! Resilient execution primitives for the placement flow.
//!
//! The flow is a long multi-stage pipeline; running it as a service means
//! it must be interruptible without being killable only by `SIGKILL`.
//! This crate is the dependency-free substrate the rest of the workspace
//! threads through its loops:
//!
//! - [`RunControl`] — a cloneable handle carrying a cooperative
//!   cancellation token, a monotonic deadline and an optional memory
//!   budget. Long-running code calls [`RunControl::check`] at natural
//!   boundaries (flow stages, placer outer iterations, V-P&R candidates)
//!   and unwinds with a typed [`Interrupt`] when the run should stop.
//! - [`Interrupt`] / [`InterruptKind`] — why a run was stopped, and at
//!   which checkpoint site. Higher layers wrap these into their own typed
//!   errors (`FlowError::Cancelled` and friends in `cp-core`).
//! - [`faultpoint!`] and [`fault_fires`] — deterministic fault-injection
//!   sites, compiled to a constant `false` unless the `fault-injection`
//!   feature is enabled. The chaos harness (`tracetool chaos`) arms sites
//!   by global hit index, so a given `(site, hit)` pair reproduces the
//!   same fault on every run.
//!
//! The crate is intentionally free of any workspace dependency so every
//! layer (including `cp-parallel`, the bottom of the stack) can use it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

pub mod sites;

#[cfg(feature = "fault-injection")]
pub mod fault;

/// `true` when this build carries the fault-injection registry.
pub const FAULT_INJECTION_COMPILED: bool = cfg!(feature = "fault-injection");

/// Returns whether the armed fault at `site` fires on this hit.
///
/// Every call counts as one *hit* of the site; a site armed at hit `n`
/// (see [`fault::arm`]) returns `true` exactly on its `n`-th hit and
/// `false` otherwise. Without the `fault-injection` feature this is a
/// constant `false` the optimizer removes together with the guarded
/// fault code.
#[cfg(feature = "fault-injection")]
pub fn fault_fires(site: &str) -> bool {
    fault::fires(site)
}

/// Fault-injection disabled: every site is permanently cold.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn fault_fires(_site: &str) -> bool {
    false
}

/// Marks a fault-injection site. Expands to [`fault_fires`], so the call
/// compiles out entirely when the `fault-injection` feature is off.
///
/// ```
/// if cp_resilience::faultpoint!(cp_resilience::sites::SOLVER_NAN) {
///     // inject the fault
/// }
/// ```
#[macro_export]
macro_rules! faultpoint {
    ($site:expr) => {
        $crate::fault_fires($site)
    };
}

/// Why a run was interrupted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InterruptKind {
    /// [`RunControl::cancel`] was called (or a cancel fault fired).
    Cancelled,
    /// The monotonic deadline passed.
    DeadlineExceeded,
    /// The memory budget was exceeded.
    BudgetExceeded,
}

/// A typed interruption: what stopped the run and where it was observed.
#[derive(Debug, Clone, PartialEq)]
pub struct Interrupt {
    /// Why the run stopped.
    pub kind: InterruptKind,
    /// The check site that observed the interruption (see [`sites`]).
    pub site: &'static str,
    /// Seconds the run had been going when the interrupt was observed.
    pub elapsed_s: f64,
    /// Live heap bytes at the check ([`InterruptKind::BudgetExceeded`]
    /// only; 0 when unknown).
    pub heap_bytes: u64,
    /// The configured budget in bytes (`BudgetExceeded` only; 0 otherwise).
    pub budget_bytes: u64,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.kind {
            InterruptKind::Cancelled => {
                write!(
                    f,
                    "cancelled at `{}` after {:.3}s",
                    self.site, self.elapsed_s
                )
            }
            InterruptKind::DeadlineExceeded => write!(
                f,
                "deadline exceeded at `{}` after {:.3}s",
                self.site, self.elapsed_s
            ),
            InterruptKind::BudgetExceeded => write!(
                f,
                "memory budget exceeded at `{}`: {} bytes live > {} budget",
                self.site, self.heap_bytes, self.budget_bytes
            ),
        }
    }
}

/// The process-wide heap probe the budget check consults: returns live
/// heap bytes. Installed once (e.g. by `cp-core`'s counting allocator
/// when `alloc-telemetry` is enabled); without a probe — and without a
/// per-control override — budgets never trip.
static HEAP_PROBE: OnceLock<fn() -> u64> = OnceLock::new();

/// Installs the global heap probe. The first install wins; later calls
/// are ignored (the probe is process-wide state, not per-run).
pub fn install_heap_probe(probe: fn() -> u64) {
    let _ = HEAP_PROBE.set(probe);
}

fn global_heap_probe() -> Option<fn() -> u64> {
    HEAP_PROBE.get().copied()
}

struct ControlState {
    cancelled: AtomicBool,
    started: Instant,
    deadline: Option<Instant>,
    budget_bytes: Option<u64>,
    /// Probe override for this control (deterministic tests); falls back
    /// to the global probe when `None`.
    probe: Option<fn() -> u64>,
    /// Deterministic test/chaos knob: auto-cancel on the n-th counted
    /// check (0 = disabled).
    cancel_after_checks: u64,
    checks: AtomicU64,
}

/// A cloneable cancellation/deadline/budget handle threaded through one
/// run of the flow.
///
/// Clones share state: cancelling any clone interrupts every holder. The
/// handle is cheap to clone (one `Arc`) and safe to poll from worker
/// threads.
///
/// Two probes exist on purpose:
///
/// - [`RunControl::check`] — the *counted* check used at deterministic
///   sites (stage boundaries, placer outer iterations, V-P&R candidates).
///   The `cancel_after_checks` test knob counts only these.
/// - [`RunControl::poll`] — an uncounted check for opportunistic sites
///   (the thread pool's chunk loop) whose hit count depends on
///   scheduling.
#[derive(Clone)]
pub struct RunControl {
    state: Arc<ControlState>,
}

impl std::fmt::Debug for RunControl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunControl")
            .field("cancelled", &self.is_cancelled())
            .field("deadline", &self.state.deadline)
            .field("budget_bytes", &self.state.budget_bytes)
            .finish()
    }
}

impl Default for RunControl {
    fn default() -> Self {
        Self::unlimited()
    }
}

impl RunControl {
    fn build(
        deadline: Option<Instant>,
        budget_bytes: Option<u64>,
        probe: Option<fn() -> u64>,
        cancel_after_checks: u64,
    ) -> Self {
        Self {
            state: Arc::new(ControlState {
                cancelled: AtomicBool::new(false),
                started: Instant::now(),
                deadline,
                budget_bytes,
                probe,
                cancel_after_checks,
                checks: AtomicU64::new(0),
            }),
        }
    }

    /// A control that never interrupts (unless [`cancel`](Self::cancel)ed).
    pub fn unlimited() -> Self {
        Self::build(None, None, None, 0)
    }

    /// Adds a monotonic deadline `timeout` from now. The clock starts at
    /// construction of the *returned* control.
    pub fn with_deadline(self, timeout: Duration) -> Self {
        Self::build(
            Some(Instant::now() + timeout),
            self.state.budget_bytes,
            self.state.probe,
            self.state.cancel_after_checks,
        )
    }

    /// Adds a live-heap budget in bytes, measured through the heap probe
    /// (the global one from [`install_heap_probe`], or this control's
    /// override). Without any probe the budget never trips.
    pub fn with_memory_budget(self, bytes: u64) -> Self {
        Self::build(
            self.state.deadline,
            Some(bytes),
            self.state.probe,
            self.state.cancel_after_checks,
        )
    }

    /// Overrides the heap probe for this control — deterministic tests
    /// inject a fake probe instead of a real allocator.
    pub fn with_heap_probe(self, probe: fn() -> u64) -> Self {
        Self::build(
            self.state.deadline,
            self.state.budget_bytes,
            Some(probe),
            self.state.cancel_after_checks,
        )
    }

    /// Deterministic cancellation knob: the `n`-th counted
    /// [`check`](Self::check) cancels the run (1-based; 0 disables).
    /// Used by tests and the chaos harness to interrupt at a
    /// reproducible point without wall-clock races.
    pub fn cancel_after_checks(self, n: u64) -> Self {
        Self::build(
            self.state.deadline,
            self.state.budget_bytes,
            self.state.probe,
            n,
        )
    }

    /// Requests cooperative cancellation; every clone observes it at its
    /// next check. Idempotent.
    pub fn cancel(&self) {
        self.state.cancelled.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.state.cancelled.load(Ordering::SeqCst)
    }

    /// Seconds since this control was created.
    pub fn elapsed_s(&self) -> f64 {
        self.state.started.elapsed().as_secs_f64()
    }

    /// Counted checks performed so far.
    pub fn checks(&self) -> u64 {
        self.state.checks.load(Ordering::SeqCst)
    }

    fn heap_bytes(&self) -> u64 {
        match self.state.probe.or_else(global_heap_probe) {
            Some(p) => p(),
            None => 0,
        }
    }

    fn interrupt(&self, kind: InterruptKind, site: &'static str, heap: u64) -> Interrupt {
        Interrupt {
            kind,
            site,
            elapsed_s: self.elapsed_s(),
            heap_bytes: heap,
            budget_bytes: match kind {
                InterruptKind::BudgetExceeded => self.state.budget_bytes.unwrap_or(0),
                _ => 0,
            },
        }
    }

    fn evaluate(&self, site: &'static str) -> Result<(), Interrupt> {
        if self.is_cancelled() {
            return Err(self.interrupt(InterruptKind::Cancelled, site, 0));
        }
        if faultpoint!(sites::FAULT_DEADLINE) {
            return Err(self.interrupt(InterruptKind::DeadlineExceeded, site, 0));
        }
        if let Some(d) = self.state.deadline {
            if Instant::now() >= d {
                return Err(self.interrupt(InterruptKind::DeadlineExceeded, site, 0));
            }
        }
        if faultpoint!(sites::FAULT_BUDGET_TRIP) {
            let heap = self.heap_bytes();
            return Err(self.interrupt(InterruptKind::BudgetExceeded, site, heap.max(1)));
        }
        if let Some(budget) = self.state.budget_bytes {
            let heap = self.heap_bytes();
            if heap > budget {
                return Err(self.interrupt(InterruptKind::BudgetExceeded, site, heap));
            }
        }
        Ok(())
    }

    /// The counted cooperative check: returns the typed [`Interrupt`]
    /// when the run should stop. Armed faults ([`sites::FAULT_CANCEL`],
    /// [`sites::FAULT_DEADLINE`], [`sites::FAULT_BUDGET_TRIP`]) are
    /// consulted here, so the chaos harness can interrupt any counted
    /// site deterministically.
    ///
    /// # Errors
    ///
    /// The [`Interrupt`] describing why (and at which site) the run must
    /// stop.
    pub fn check(&self, site: &'static str) -> Result<(), Interrupt> {
        let n = self.state.checks.fetch_add(1, Ordering::SeqCst) + 1;
        if self.state.cancel_after_checks != 0 && n >= self.state.cancel_after_checks {
            self.cancel();
        }
        if faultpoint!(sites::FAULT_CANCEL) {
            self.cancel();
        }
        self.evaluate(site)
    }

    /// The uncounted check for scheduling-dependent sites (the thread
    /// pool's chunk loop). Never consults the `cancel_after_checks`
    /// counter or the cancel fault, so counted-site determinism is
    /// preserved.
    ///
    /// # Errors
    ///
    /// The [`Interrupt`] describing why the run must stop.
    pub fn poll(&self, site: &'static str) -> Result<(), Interrupt> {
        self.evaluate(site)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_interrupts() {
        let c = RunControl::unlimited();
        for _ in 0..100 {
            c.check(sites::FLOW_START).expect("no interrupt");
        }
        assert_eq!(c.checks(), 100);
    }

    #[test]
    fn cancel_is_shared_across_clones() {
        let a = RunControl::unlimited();
        let b = a.clone();
        a.cancel();
        let err = b.check(sites::FLOW_START).expect_err("cancelled");
        assert_eq!(err.kind, InterruptKind::Cancelled);
        assert_eq!(err.site, sites::FLOW_START);
    }

    #[test]
    fn expired_deadline_interrupts() {
        let c = RunControl::unlimited().with_deadline(Duration::from_secs(0));
        let err = c.check(sites::FLOW_START).expect_err("deadline");
        assert_eq!(err.kind, InterruptKind::DeadlineExceeded);
    }

    #[test]
    fn future_deadline_does_not_interrupt() {
        let c = RunControl::unlimited().with_deadline(Duration::from_secs(3600));
        c.check(sites::FLOW_START).expect("no interrupt");
    }

    #[test]
    fn budget_with_fake_probe_trips() {
        fn huge() -> u64 {
            1 << 40
        }
        let c = RunControl::unlimited()
            .with_memory_budget(1024)
            .with_heap_probe(huge);
        let err = c.check(sites::FLOW_START).expect_err("budget");
        assert_eq!(err.kind, InterruptKind::BudgetExceeded);
        assert_eq!(err.heap_bytes, 1 << 40);
        assert_eq!(err.budget_bytes, 1024);
        assert!(err.to_string().contains("memory budget"));
    }

    #[test]
    fn budget_without_probe_never_trips() {
        let c = RunControl::unlimited().with_memory_budget(1);
        // No global probe installed in this test binary's first run; even
        // if another test installed one, the per-control probe below wins.
        fn zero() -> u64 {
            0
        }
        let c = c.with_heap_probe(zero);
        c.check(sites::FLOW_START).expect("no interrupt");
    }

    #[test]
    fn cancel_after_checks_fires_on_the_nth_check() {
        let c = RunControl::unlimited().cancel_after_checks(3);
        c.check(sites::FLOW_START).expect("check 1 passes");
        c.check(sites::FLOW_START).expect("check 2 passes");
        let err = c.check(sites::FLOW_START).expect_err("check 3 cancels");
        assert_eq!(err.kind, InterruptKind::Cancelled);
        // Poll never counts.
        let p = RunControl::unlimited().cancel_after_checks(1);
        p.poll(sites::POOL_CHUNK).expect("poll is uncounted");
        assert_eq!(p.checks(), 0);
    }

    #[test]
    fn faultpoints_are_cold_without_the_feature() {
        #[cfg(not(feature = "fault-injection"))]
        {
            // black_box: observe the constants as runtime values.
            assert!(!std::hint::black_box(FAULT_INJECTION_COMPILED));
            let fires = |site: &'static str| faultpoint!(site);
            assert!(!fires(sites::SOLVER_NAN));
        }
    }
}
