//! Deterministic chaos sweep over the flow's fault-injection sites.
//!
//! `tracetool chaos` arms each [`cp_resilience::sites::FAULTS`] site at a
//! seed-derived hit index, runs the resilient flow under
//! [`with_watchdog`](crate::with_watchdog), and
//! asserts the resilience contract: every faulted run must end in a typed
//! error, a clean recorded recovery, or a resumable checkpoint that —
//! once the fault is disarmed — resumes to a report bitwise-identical to
//! the fault-free reference. A panic that escapes the flow, a hang, or a
//! silently different QoR (report drifted with clean diagnostics) is a
//! harness failure.
//!
//! The sweep is deterministic: hit indices come from a splitmix-style
//! hash of `(site, seed)` folded over the number of times the reference
//! run actually hit the site, so `chaos --seeds 3` names the same fault
//! schedule on every machine and thread count.

use std::time::Duration;

/// Pinned design scale for chaos runs — small enough that a full
/// sites × seeds sweep stays in CI smoke-test territory.
pub const CHAOS_SCALE: f64 = 0.01;

/// One chaos case: a fault site armed at a specific hit index.
#[derive(Debug, Clone)]
pub struct CaseReport {
    /// Fault site that was armed.
    pub site: &'static str,
    /// Sweep seed the hit index was derived from.
    pub seed: u64,
    /// 1-based hit index the fault fired on (0 = site never reached).
    pub at_hit: u64,
    /// Human-readable outcome classification.
    pub outcome: String,
    /// `true` when the case violated the resilience contract.
    pub failed: bool,
}

/// Aggregate result of a chaos sweep.
#[derive(Debug, Clone, Default)]
pub struct ChaosReport {
    /// Every case that ran, in deterministic sweep order.
    pub cases: Vec<CaseReport>,
}

impl ChaosReport {
    /// Number of failed cases.
    pub fn failures(&self) -> usize {
        self.cases.iter().filter(|c| c.failed).count()
    }

    /// One line per case plus a summary tail, ready to print.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for c in &self.cases {
            out.push_str(&format!(
                "{} {:<24} seed {:>2} hit {:>5}  {}\n",
                if c.failed { "FAIL" } else { "  ok" },
                c.site,
                c.seed,
                c.at_hit,
                c.outcome
            ));
        }
        out.push_str(&format!(
            "chaos: {} cases, {} failed\n",
            self.cases.len(),
            self.failures()
        ));
        out
    }
}

#[cfg(not(feature = "fault-injection"))]
mod imp {
    use super::{ChaosReport, Duration};

    /// Stub: the registry is compiled out of this build.
    ///
    /// # Errors
    ///
    /// Always — rebuild with `--features fault-injection`.
    pub fn run_chaos(
        _seeds: u64,
        _timeout: Duration,
        _site_filter: Option<&str>,
    ) -> Result<ChaosReport, String> {
        Err(
            "chaos needs the fault-injection feature: rerun with `cargo run -p cp-bench \
             --features fault-injection --bin tracetool -- chaos`"
                .to_string(),
        )
    }
}

#[cfg(feature = "fault-injection")]
mod imp {
    use super::{CaseReport, ChaosReport, Duration, CHAOS_SCALE};
    use std::path::PathBuf;

    use cp_core::checkpoint::{fnv1a64, FNV_OFFSET};
    use cp_core::flow::{FlowOptions, FlowReport, ShapeMode};
    use cp_core::{run_flow_resilient, FlowError, ResilienceOptions, RunControl};
    use cp_netlist::generator::DesignProfile;
    use cp_resilience::{fault, sites};

    use crate::support::{with_watchdog, Bench};

    /// The pinned chaos design (Aes at [`CHAOS_SCALE`]).
    fn chaos_bench() -> Bench {
        Bench::generate_at(DesignProfile::Aes, CHAOS_SCALE)
    }

    /// Exact V-P&R sweep so the parallel shaping region (and its
    /// `parallel.worker.panic` site) is exercised.
    fn chaos_options() -> FlowOptions {
        FlowOptions::fast().shape_mode(ShapeMode::Vpr)
    }

    /// Splitmix64 finalizer — deterministic `(site, seed)` mixing.
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^ (x >> 31)
    }

    /// FNV-1a over the site name, as the per-site stream selector.
    fn site_key(site: &str) -> u64 {
        fnv1a64(FNV_OFFSET, site.as_bytes())
    }

    fn ckpt_path(site: &str, seed: u64) -> PathBuf {
        let dir = std::env::temp_dir().join("cp-chaos");
        let _ = std::fs::create_dir_all(&dir);
        dir.join(format!(
            "ckpt-{}-{}-s{}.json",
            std::process::id(),
            site.replace('.', "_"),
            seed
        ))
    }

    fn resilient_once(
        checkpoint: Option<PathBuf>,
        resume_from: Option<PathBuf>,
    ) -> Result<FlowReport, FlowError> {
        let b = chaos_bench();
        let res = ResilienceOptions {
            control: RunControl::unlimited(),
            checkpoint,
            resume_from,
        };
        run_flow_resilient(&b.netlist, &b.constraints, &chaos_options(), &res)
    }

    /// Hit count observed per fault site during the reference run.
    type SiteHits = Vec<(&'static str, u64)>;

    /// Fault-free reference run that also counts how often each fault
    /// site is hit (armed at a hit index that can never be reached).
    fn reference_run(timeout: Duration) -> Result<(FlowReport, SiteHits), String> {
        fault::disarm_all();
        for site in sites::FAULTS {
            fault::arm(site, u64::MAX);
        }
        let outcome = with_watchdog(timeout, || resilient_once(None, None));
        let hits: Vec<(&'static str, u64)> =
            sites::FAULTS.iter().map(|&s| (s, fault::hits(s))).collect();
        fault::disarm_all();
        match outcome {
            Ok(None) => Err("reference run hung".to_string()),
            Err(_) => Err("reference run panicked".to_string()),
            Ok(Some(Err(e))) => Err(format!("reference run failed: {e}")),
            Ok(Some(Ok(report))) => Ok((report, hits)),
        }
    }

    fn classify_ok(report: &FlowReport, reference: &FlowReport, fired: bool) -> (String, bool) {
        if !fired {
            return (
                "fault armed past the run's hit count (not reached)".to_string(),
                false,
            );
        }
        if report.deterministic_eq(reference) {
            return (
                "absorbed: report bitwise-identical to reference".to_string(),
                false,
            );
        }
        if report.diagnostics.is_clean() {
            (
                "SILENT CORRUPTION: report drifted from reference with clean diagnostics"
                    .to_string(),
                true,
            )
        } else {
            (
                "recovered: drift recorded on diagnostics".to_string(),
                false,
            )
        }
    }

    /// A typed interrupt with a checkpoint must resume — fault disarmed —
    /// to a report bitwise-identical to the fault-free reference.
    fn verify_resume(
        path: &std::path::Path,
        reference: &FlowReport,
        timeout: Duration,
    ) -> (String, bool) {
        if !path.exists() {
            return ("interrupted with no checkpoint on disk".to_string(), true);
        }
        let resume = path.to_path_buf();
        let outcome = with_watchdog(timeout, move || resilient_once(None, Some(resume)));
        match outcome {
            Ok(None) => ("resume hung".to_string(), true),
            Err(_) => ("resume panicked".to_string(), true),
            Ok(Some(Err(e))) => (format!("resume failed: {e}"), true),
            Ok(Some(Ok(resumed))) => {
                if resumed.deterministic_eq(reference) {
                    (
                        "typed interrupt; resumed bitwise-identical".to_string(),
                        false,
                    )
                } else {
                    (
                        "resume completed but drifted from reference".to_string(),
                        true,
                    )
                }
            }
        }
    }

    fn classify_err(
        error: &FlowError,
        reference: &FlowReport,
        timeout: Duration,
    ) -> (String, bool) {
        if let Some(flow) = error.interrupted() {
            match flow.checkpoint.as_ref() {
                Some(path) => verify_resume(path, reference, timeout),
                None => (
                    format!("typed interrupt without checkpoint: {error}"),
                    false,
                ),
            }
        } else {
            (format!("typed error: {error}"), false)
        }
    }

    /// Sweeps `sites::FAULTS` (optionally filtered by substring) across
    /// `seeds` seeds. Deterministic for a fixed (seeds, design, options).
    ///
    /// # Errors
    ///
    /// When the fault-free reference run itself fails, or the filter
    /// matches no site.
    /// Keeps injected worker panics (which the pool contains and
    /// re-raises as typed errors) from spraying backtraces over the
    /// sweep output; genuine panics still reach the default hook.
    fn silence_injected_panics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let msg = info
                .payload()
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| info.payload().downcast_ref::<&str>().copied());
            if !msg.is_some_and(|m| m.contains("injected fault:")) {
                prev(info);
            }
        }));
    }

    pub fn run_chaos(
        seeds: u64,
        timeout: Duration,
        site_filter: Option<&str>,
    ) -> Result<ChaosReport, String> {
        silence_injected_panics();
        let (reference, hit_counts) = reference_run(timeout)?;
        let swept: Vec<&'static str> = sites::FAULTS
            .into_iter()
            .filter(|s| site_filter.is_none_or(|f| s.contains(f)))
            .collect();
        if swept.is_empty() {
            return Err(format!(
                "no fault site matches `{}` (known: {})",
                site_filter.unwrap_or(""),
                sites::FAULTS.join(", ")
            ));
        }
        let mut report = ChaosReport::default();
        for site in swept {
            let max_hits = hit_counts
                .iter()
                .find(|(s, _)| *s == site)
                .map_or(0, |&(_, h)| h);
            for seed in 1..=seeds.max(1) {
                let at_hit = if max_hits == 0 {
                    0
                } else {
                    1 + mix(site_key(site) ^ seed) % max_hits
                };
                if at_hit == 0 {
                    report.cases.push(CaseReport {
                        site,
                        seed,
                        at_hit,
                        outcome: "site never reached by the reference run".to_string(),
                        failed: false,
                    });
                    continue;
                }
                let ckpt = ckpt_path(site, seed);
                let _ = std::fs::remove_file(&ckpt);
                fault::disarm_all();
                fault::arm(site, at_hit);
                let run_ckpt = ckpt.clone();
                let outcome = with_watchdog(timeout, move || resilient_once(Some(run_ckpt), None));
                let fired = fault::fired(site) > 0;
                fault::disarm_all();
                let (outcome, failed) = match outcome {
                    Ok(None) => ("HANG: run exceeded the watchdog timeout".to_string(), true),
                    Err(_) => ("PANIC escaped the flow".to_string(), true),
                    Ok(Some(Ok(r))) => classify_ok(&r, &reference, fired),
                    Ok(Some(Err(e))) => classify_err(&e, &reference, timeout),
                };
                let _ = std::fs::remove_file(&ckpt);
                report.cases.push(CaseReport {
                    site,
                    seed,
                    at_hit,
                    outcome,
                    failed,
                });
            }
        }
        Ok(report)
    }
}

pub use imp::run_chaos;
