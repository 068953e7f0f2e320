//! The structure-of-arrays view of a placement problem's cell areas.
//!
//! [`PlacementProblem`] keeps its public array-of-structs shape
//! (`Vec<Object>`) because the whole flow constructs it, but the spreading
//! bisection and density scatter read only cell *areas*, once per outer
//! placer iteration. [`PlacementSoa`] materializes that array once per
//! placement run, so those loops index a contiguous `f64` arena instead of
//! multiplying struct fields. (The lower-bound iterate is the B2B
//! assemblers' flat per-axis coordinate arrays, which the spreader reads
//! as two coordinate slices; HPWL reads the positions directly.)

use crate::problem::PlacementProblem;

/// Per-movable scalar state, one contiguous array per field.
///
/// Build it once per placement run and hand it to the `_soa` kernel
/// variants ([`crate::spreading::spread_soa`],
/// [`crate::spreading::density_overflow_soa`]).
#[derive(Debug, Clone)]
pub struct PlacementSoa {
    /// Footprint area per movable (`width · height`, in problem order).
    pub area: Vec<f64>,
    /// Sum of `area` in index order — equals
    /// [`PlacementProblem::movable_area`] bit for bit.
    pub total_area: f64,
}

impl PlacementSoa {
    /// Extracts the per-movable arrays from `problem`.
    pub fn from_problem(problem: &PlacementProblem) -> Self {
        let area: Vec<f64> = problem.movable.iter().map(|o| o.area()).collect();
        let total_area = area.iter().sum();
        Self { area, total_area }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Object;
    use cp_graph::Hypergraph;
    use cp_netlist::floorplan::Rect;

    fn toy() -> PlacementProblem {
        PlacementProblem {
            movable: vec![
                Object {
                    width: 2.0,
                    height: 3.0,
                },
                Object {
                    width: 1.0,
                    height: 1.5,
                },
            ]
            .into(),
            fixed: vec![(10.0, 4.0)],
            hypergraph: Hypergraph::new(3, vec![(vec![0, 1, 2], 1.0)]).into(),
            net_weights: vec![1.0],
            core: Rect::new(0.0, 0.0, 10.0, 10.0),
            region: vec![None, None],
            seed_positions: None,
            blockages: Vec::new(),
            density_target: 0.9,
        }
    }

    #[test]
    fn areas_match_problem() {
        let p = toy();
        let soa = PlacementSoa::from_problem(&p);
        assert_eq!(soa.area, vec![6.0, 1.5]);
        assert_eq!(soa.total_area.to_bits(), p.movable_area().to_bits());
    }
}
