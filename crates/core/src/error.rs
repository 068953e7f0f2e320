//! Typed errors and recovery diagnostics for the end-to-end flow.
//!
//! [`FlowError`] is the single error type every public flow entry point
//! returns: it wraps the per-stage errors of the lower crates so a caller
//! can match on *which* stage rejected the input without stringly-typed
//! inspection. [`FlowDiagnostics`] is the other half of the story — events
//! the flow recovered from on its own (divergence reverts, shape
//! fallbacks, dropped regions) without failing the run.

use cp_netlist::netlist::BuildNetlistError;
use cp_netlist::ValidationError;
use cp_place::PlaceError;
use cp_route::RouteError;
use cp_timing::TimingError;
use std::fmt;

/// Why the flow could not produce a [`crate::flow::FlowReport`].
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Pre-flight validation rejected the netlist, floorplan request or
    /// constraints before any stage ran.
    Validation(ValidationError),
    /// A sub-netlist induction produced a structurally invalid netlist.
    Subnetlist(BuildNetlistError),
    /// Global placement, legalization or CTS failed.
    Place(PlaceError),
    /// Static timing analysis failed (e.g. a combinational cycle).
    Timing(TimingError),
    /// Global routing failed.
    Route(RouteError),
    /// A task of a parallel region panicked; the panic was contained by
    /// the region and re-raised here as a typed error.
    WorkerPanic {
        /// Stage whose parallel region panicked.
        stage: &'static str,
        /// The contained panic's payload message.
        message: String,
    },
    /// A checkpoint could not be loaded (missing file, malformed or
    /// schema-invalid JSON, version or fingerprint mismatch).
    Checkpoint {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Validation(e) => write!(f, "input validation failed: {e}"),
            Self::Subnetlist(e) => write!(f, "sub-netlist induction failed: {e}"),
            Self::Place(e) => write!(f, "placement failed: {e}"),
            Self::Timing(e) => write!(f, "timing analysis failed: {e}"),
            Self::Route(e) => write!(f, "routing failed: {e}"),
            Self::WorkerPanic { stage, message } => {
                write!(f, "worker panicked during {stage}: {message}")
            }
            Self::Checkpoint { reason } => write!(f, "checkpoint unusable: {reason}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Validation(e) => Some(e),
            Self::Subnetlist(e) => Some(e),
            Self::Place(e) => Some(e),
            Self::Timing(e) => Some(e),
            Self::Route(e) => Some(e),
            Self::WorkerPanic { .. } | Self::Checkpoint { .. } => None,
        }
    }
}

impl From<ValidationError> for FlowError {
    fn from(e: ValidationError) -> Self {
        Self::Validation(e)
    }
}

impl From<BuildNetlistError> for FlowError {
    fn from(e: BuildNetlistError) -> Self {
        Self::Subnetlist(e)
    }
}

impl From<PlaceError> for FlowError {
    fn from(e: PlaceError) -> Self {
        Self::Place(e)
    }
}

impl From<TimingError> for FlowError {
    fn from(e: TimingError) -> Self {
        Self::Timing(e)
    }
}

impl From<RouteError> for FlowError {
    fn from(e: RouteError) -> Self {
        Self::Route(e)
    }
}

/// One recovery the flow performed instead of failing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoveryEvent {
    /// The global placer diverged and its best finite snapshot was
    /// restored (`revert_if_diverge`).
    PlacerReverted {
        /// Which placement this was ("flat placement", "cluster
        /// placement", "congestion refinement").
        stage: &'static str,
    },
    /// V-P&R could not evaluate a cluster's sub-netlist; the cluster kept
    /// the uniform default shape.
    ShapeFallback {
        /// The cluster that fell back.
        cluster: u32,
    },
    /// An Innovus-style region constraint was infeasible (too small for
    /// its cluster's cell area after clamping to the core) and was
    /// dropped.
    RegionDropped {
        /// The cluster whose region was dropped.
        cluster: u32,
    },
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::PlacerReverted { stage } => {
                write!(f, "{stage} diverged; reverted to the best snapshot")
            }
            Self::ShapeFallback { cluster } => {
                write!(f, "cluster {cluster}: V-P&R failed, kept the uniform shape")
            }
            Self::RegionDropped { cluster } => {
                write!(f, "cluster {cluster}: infeasible region constraint dropped")
            }
        }
    }
}

/// Default cap on stored [`FlowDiagnostics`] events (see
/// [`crate::flow::FlowOptions::diagnostics_limit`]).
pub const DEFAULT_DIAGNOSTICS_LIMIT: usize = 256;

/// Recovery events collected over one flow run, reported on
/// [`crate::flow::FlowReport::diagnostics`]. Storage is capped so a
/// pathological run (or many runs recording into a reused struct) cannot
/// grow without bound: past the limit, events are counted in `dropped`
/// (and in the `flow.diagnostics.dropped` metric) instead of stored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowDiagnostics {
    /// Stored recoveries, in pipeline order (at most the configured limit).
    pub events: Vec<RecoveryEvent>,
    /// Recoveries that happened but were not stored because the cap was
    /// reached.
    pub dropped: usize,
    limit: usize,
}

impl Default for FlowDiagnostics {
    fn default() -> Self {
        Self::with_limit(DEFAULT_DIAGNOSTICS_LIMIT)
    }
}

impl FlowDiagnostics {
    /// An empty collection storing at most `limit` events.
    pub fn with_limit(limit: usize) -> Self {
        Self {
            events: Vec::new(),
            dropped: 0,
            limit,
        }
    }

    /// `true` when the flow ran without any recovery (stored or dropped).
    pub fn is_clean(&self) -> bool {
        self.events.is_empty() && self.dropped == 0
    }

    /// Records one recovery event, dropping (but counting) it past the
    /// configured limit. Each recovery is also mirrored to the trace as
    /// an instant event so it shows up on the timeline where it fired.
    pub fn record(&mut self, event: RecoveryEvent) {
        match &event {
            RecoveryEvent::PlacerReverted { .. } => {
                cp_trace::instant("recovery.placer_reverted", &[]);
            }
            RecoveryEvent::ShapeFallback { cluster } => cp_trace::instant(
                "recovery.shape_fallback",
                &[("cluster", cp_trace::ArgValue::U(*cluster as u64))],
            ),
            RecoveryEvent::RegionDropped { cluster } => cp_trace::instant(
                "recovery.region_dropped",
                &[("cluster", cp_trace::ArgValue::U(*cluster as u64))],
            ),
        }
        if self.events.len() < self.limit {
            self.events.push(event);
        } else {
            self.dropped += 1;
            cp_trace::counter_add("flow.diagnostics.dropped", 1);
        }
    }

    /// Replaces the stored events with ones restored from a checkpoint,
    /// without re-emitting their trace instants (they belong to the run
    /// that recorded them, not this one).
    pub fn restore(&mut self, events: Vec<RecoveryEvent>, dropped: usize) {
        self.events = events;
        self.dropped = dropped;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_impls_tag_the_stage() {
        let e: FlowError = ValidationError::EmptyNetlist.into();
        assert!(matches!(e, FlowError::Validation(_)));
        let e: FlowError = PlaceError::NonFinite { stage: "legalize" }.into();
        assert!(matches!(e, FlowError::Place(_)));
        let e: FlowError = TimingError::CombinationalCycle { unresolved_nets: 2 }.into();
        assert!(matches!(e, FlowError::Timing(_)));
        let e: FlowError = RouteError::NonFinitePin { net: 7 }.into();
        assert!(matches!(e, FlowError::Route(_)));
    }

    #[test]
    fn display_names_the_stage() {
        let e = FlowError::from(ValidationError::EmptyNetlist);
        assert!(e.to_string().contains("validation"));
        let e = FlowError::from(RouteError::NonFinitePin { net: 0 });
        assert!(e.to_string().contains("routing"));
    }

    #[test]
    fn error_sources_chain() {
        use std::error::Error;
        let e = FlowError::from(PlaceError::Diverged {
            iteration: 3,
            best_hpwl: 10.0,
        });
        assert!(e.source().is_some());
    }

    #[test]
    fn diagnostics_collect_events() {
        let mut d = FlowDiagnostics::default();
        assert!(d.is_clean());
        d.record(RecoveryEvent::PlacerReverted {
            stage: "flat placement",
        });
        d.record(RecoveryEvent::ShapeFallback { cluster: 3 });
        assert!(!d.is_clean());
        assert_eq!(d.events.len(), 2);
        assert_eq!(d.dropped, 0);
        assert!(d.events[0].to_string().contains("diverged"));
    }

    #[test]
    fn diagnostics_cap_drops_and_counts() {
        let mut d = FlowDiagnostics::with_limit(2);
        for c in 0..5 {
            d.record(RecoveryEvent::ShapeFallback { cluster: c });
        }
        assert_eq!(d.events.len(), 2, "cap holds");
        assert_eq!(d.dropped, 3);
        assert!(!d.is_clean(), "dropped events still count as recoveries");
        // A zero limit stores nothing but still counts.
        let mut z = FlowDiagnostics::with_limit(0);
        z.record(RecoveryEvent::RegionDropped { cluster: 1 });
        assert!(z.events.is_empty());
        assert_eq!(z.dropped, 1);
        assert!(!z.is_clean());
    }
}
