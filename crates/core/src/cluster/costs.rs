//! PPA cost terms on hyperedges: timing cost `t_e`, switching cost `s_e`
//! (Eq. 2) and the heavy-edge rating (Eq. 3).

use cp_timing::activity::ActivityReport;
use cp_timing::sta::TimingPath;

/// Per-hyperedge PPA cost annotation (indexed like the hypergraph edges).
/// The connectivity weight `w_e` is 1 for every hyperedge, so it is not
/// stored.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgeCosts {
    /// Timing criticality `t_e`, normalized to `[0, 1]`.
    pub timing: Vec<f64>,
    /// Switching cost `s_e` (Eq. 2), `≥ 1`.
    pub switching: Vec<f64>,
}

impl EdgeCosts {
    /// Uniform costs (used by the plain-FC baseline, and per term by a
    /// clustering whose weight for it is zero).
    pub fn uniform(edge_count: usize) -> Self {
        Self {
            timing: vec![0.0; edge_count],
            switching: vec![1.0; edge_count],
        }
    }

    /// Combined edge attraction `α·w_e + β·t_e + γ·s_e` with `w_e = 1`
    /// (the numerator of Eq. 3).
    pub fn combined(&self, e: usize, alpha: f64, beta: f64, gamma: f64) -> f64 {
        alpha + beta * self.timing[e] + gamma * self.switching[e]
    }
}

/// Path criticality `t_p = max(0, 1 − slack/TCP)²` (after \[5\]): 1 at zero
/// slack, larger for violating paths, decaying for comfortable ones.
pub fn path_cost(slack: f64, clock_period: f64) -> f64 {
    let x = (1.0 - slack / clock_period).max(0.0);
    x * x
}

/// The timing cost `t_e` per hyperedge: the sum of `t_p` over the
/// extracted critical paths running through the net, max-normalized to
/// `[0, 1]`.
///
/// `net_to_edge` maps net ids to hyperedge ids
/// (from [`Netlist::to_hypergraph_with_map`](cp_netlist::netlist::Netlist::to_hypergraph_with_map)).
pub fn timing_costs(
    paths: &[TimingPath],
    net_to_edge: &[Option<u32>],
    edge_count: usize,
    clock_period: f64,
) -> Vec<f64> {
    let mut timing = vec![0.0f64; edge_count];
    for p in paths {
        let tp = path_cost(p.slack, clock_period);
        for &net in &p.nets {
            if let Some(e) = net_to_edge[net.index()] {
                timing[e as usize] += tp;
            }
        }
    }
    let max_t = timing.iter().copied().fold(0.0f64, f64::max);
    if max_t > 0.0 {
        for t in &mut timing {
            *t /= max_t;
        }
    }
    timing
}

/// The switching cost `s_e` per hyperedge, Eq. 2: `(1 + θ_e / Σθ)^μ` with
/// `θ_e` the net's transition density. `net_to_edge` is as for
/// [`timing_costs`].
pub fn switching_costs(
    activity: &ActivityReport,
    net_to_edge: &[Option<u32>],
    edge_count: usize,
    mu: f64,
) -> Vec<f64> {
    let mut theta = vec![0.0f64; edge_count];
    for (nid, e) in net_to_edge.iter().enumerate() {
        if let Some(e) = e {
            theta[*e as usize] = activity.density[nid];
        }
    }
    let total_theta: f64 = theta.iter().sum::<f64>().max(1e-12);
    theta
        .iter()
        .map(|&t| (1.0 + t / total_theta).powf(mu))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};
    use cp_timing::activity::propagate_activity;
    use cp_timing::sta::Sta;
    use cp_timing::wire::WireModel;

    #[test]
    fn path_cost_shape() {
        let t = 1000.0;
        assert_eq!(path_cost(t, t), 0.0); // a full period of slack
        assert_eq!(path_cost(0.0, t), 1.0);
        assert!(path_cost(-500.0, t) > 1.0);
        assert!(path_cost(-500.0, t) > path_cost(-100.0, t));
    }

    #[test]
    fn costs_on_a_real_design() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(1)
            .generate_with_constraints();
        let (hg, map) = n.to_hypergraph_with_map();
        let sta = Sta::new(&n, &c).expect("acyclic netlist");
        let report = sta.run(&WireModel::Estimate);
        let paths = sta.extract_paths(&report, 500);
        let timing = timing_costs(&paths, &map, hg.edge_count(), c.clock_period);
        assert_eq!(timing.len(), hg.edge_count());
        // Normalization holds.
        assert!(timing.iter().all(|&t| (0.0..=1.0).contains(&t)));
        assert!(timing.iter().any(|&t| t > 0.0), "some nets are critical");
        // Eq. 2 lower bound.
        let act = propagate_activity(&n, &c);
        let switching = switching_costs(&act, &map, hg.edge_count(), 2.0);
        assert!(switching.iter().all(|&s| s >= 1.0));
        assert!(switching.iter().any(|&s| s > 1.0));
    }

    #[test]
    fn combined_mixes_terms() {
        let costs = EdgeCosts {
            timing: vec![0.5],
            switching: vec![1.5],
        };
        let c = costs.combined(0, 2.0, 2.0, 3.0);
        assert!((c - (2.0 + 1.0 + 4.5)).abs() < 1e-12);
    }

    #[test]
    fn mu_sharpens_switching() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .seed(2)
            .generate_with_constraints();
        let (hg, map) = n.to_hypergraph_with_map();
        let act = propagate_activity(&n, &c);
        let flat = switching_costs(&act, &map, hg.edge_count(), 1.0);
        let sharp = switching_costs(&act, &map, hg.edge_count(), 4.0);
        let spread = |v: &[f64]| {
            v.iter().copied().fold(f64::MIN, f64::max) - v.iter().copied().fold(f64::MAX, f64::min)
        };
        assert!(spread(&sharp) > spread(&flat));
    }
}
