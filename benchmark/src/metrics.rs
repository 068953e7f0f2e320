//! The metric names this benchmark reports. `BENCHMARK.json` lists the
//! same names with the regression bounds; a test keeps the two in step.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric's name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of the flow sees: time, memory and result quality.
pub const END_TO_END: &[MetricDef] = &[
    lower("flow_wall_s", "s"),
    lower("flow_cpu_s", "s"),
    lower("place_wall_s", "s"),
    lower("setup_s", "s"),
    lower("peak_rss_mb", "MB"),
    lower("hpwl_um", "um"),
    lower("rwl_um", "um"),
    lower("wns_viol_ps", "ps"),
    lower("tns_viol_ns", "ns"),
    lower("power_mw", "mW"),
];

/// Single-layer metrics from the traced run, grouped by crate. A value of 0
/// means the layer does no work on that workload or is not measured there.
pub const PER_LAYER: &[MetricDef] = &[
    // cp-netlist
    lower("netlist.generate_s", "s"),
    lower("netlist.cells", "count"),
    lower("netlist.nets", "count"),
    lower("netlist.pins", "count"),
    lower("netlist.hypergraph_s", "s"),
    lower("netlist.clustered_build_s", "s"),
    // cp-core cluster
    lower("cluster.ppa_aware_s", "s"),
    lower("cluster.count", "count"),
    higher("cluster.kcells_per_s", "kcells/s"),
    // cp-core vpr
    lower("vpr.extract_s", "s"),
    lower("vpr.shaped_clusters", "count"),
    lower("vpr.exact_evals", "count"),
    lower("vpr.best_shape_s", "s"),
    lower("vpr.best_shape_ms_p50", "ms"),
    lower("vpr.best_shape_ms_p90", "ms"),
    lower("vpr.eval_ms_mean", "ms"),
    lower("vpr.features_s", "s"),
    // cp-gnn
    lower("gnn.predict_batched_s", "s"),
    lower("gnn.samples", "count"),
    higher("gnn.ksamples_per_s", "ksamples/s"),
    // cp-place
    lower("place.problem_build_s", "s"),
    lower("place.global_cluster_s", "s"),
    lower("place.global_flat_s", "s"),
    lower("place.global_iterations", "count"),
    lower("place.global_final_overflow", "ratio"),
    higher("place.global_kcell_iters_per_s", "kcell-it/s"),
    lower("place.legalize_s", "s"),
    higher("place.legalize_kcells_per_s", "kcells/s"),
    lower("place.legalize_displacement_um", "um"),
    lower("place.refine_s", "s"),
    higher("place.refine_gain_um", "um"),
    lower("place.cts_s", "s"),
    lower("place.cts_buffers", "count"),
    lower("place.hpwl_eval_s", "s"),
    // cp-route
    lower("route.global_s", "s"),
    higher("route.knets_per_s", "knets/s"),
    lower("route.mazed_segments", "count"),
    lower("route.overflow_edges", "count"),
    lower("route.max_utilization", "ratio"),
    lower("route.detour_factor", "ratio"),
    lower("route.gcells", "count"),
    lower("route.global_prelegal_s", "s"),
    // cp-timing
    lower("timing.sta_build_s", "s"),
    lower("timing.sta_run_s", "s"),
    lower("timing.extract_paths_s", "s"),
    lower("timing.activity_s", "s"),
    lower("timing.power_s", "s"),
    // cp-core flow
    lower("flow.staged_total_s", "s"),
    higher("flow.staged_matches_flow", "bool"),
    lower("flow.unattributed_s", "s"),
    lower("flow.recovery_events", "count"),
    lower("flow.timing_net_weights_s", "s"),
    lower("flow.congestion_refine_s", "s"),
    lower("flow.table2_cpu_ratio", "ratio"),
    lower("flow.table2_hpwl_ratio", "ratio"),
    lower("flow.checkpoint_save_s", "s"),
    lower("flow.checkpoint_bytes", "bytes"),
    // cp-parallel
    higher("parallel.threads", "count"),
    lower("parallel.serial_wall_s", "s"),
    higher("parallel.speedup", "ratio"),
    // cp-trace
    lower("trace.spans_wall_s", "s"),
    lower("trace.spans_overhead_pct", "%"),
    lower("trace.spans_recorded", "count"),
    // the benchmark itself
    higher("bench.reps", "count"),
    lower("bench.flow_wall_min_s", "s"),
    lower("bench.flow_wall_iqr_pct", "%"),
    lower("bench.staged_overhead_pct", "%"),
];

/// Metric values keyed by name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// Every metric of `defs` in table order; 0 where nothing was set.
    ///
    /// # Panics
    ///
    /// Panics when a value was set under a name `defs` does not list: a
    /// typo would otherwise report the metric as 0 without a trace.
    pub fn in_order(&self, defs: &[MetricDef]) -> Vec<(MetricDef, f64)> {
        for (name, _) in &self.0 {
            assert!(
                defs.iter().any(|d| d.name == *name),
                "metric {name} is not in the table"
            );
        }
        defs.iter()
            .map(|d| (*d, self.get(d.name).unwrap_or(0.0)))
            .collect()
    }
}
