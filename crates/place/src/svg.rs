//! SVG rendering of placements — the quickest way to *see* a result.
//!
//! Renders the die, core, blockages and cells; cells may be colored by an
//! arbitrary grouping (e.g. the cluster assignment, which makes the
//! seeded-placement structure visible at a glance).

use crate::problem::PlacementProblem;
use cp_netlist::floorplan::Floorplan;
use std::fmt::Write as _;

/// Categorical fill palette (cycled by group id).
const PALETTE: [&str; 10] = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f", "#edc948", "#b07aa1", "#ff9da7",
    "#9c755f", "#bab0ac",
];

fn rect(out: &mut String, x: f64, y: f64, w: f64, h: f64, fill: &str, stroke: Option<&str>) {
    let _ = write!(
        out,
        "<rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{h:.2}\" fill=\"{fill}\""
    );
    if let Some(s) = stroke {
        let _ = write!(out, " stroke=\"{s}\"");
    }
    let _ = writeln!(out, "/>");
}

/// Renders a placement as an SVG document.
///
/// `groups`, when given, colors each movable by `groups[i] % palette`;
/// otherwise all cells share one color. The viewport is scaled so the die's
/// longer side maps to 800 px.
pub fn placement_svg(
    problem: &PlacementProblem,
    floorplan: &Floorplan,
    positions: &[(f64, f64)],
    groups: Option<&[u32]>,
) -> String {
    let die = floorplan.die;
    let scale = 800.0 / die.width().max(die.height());
    let (w, h) = (die.width() * scale, die.height() * scale);
    // SVG y grows downward; flip.
    let fx = |x: f64| (x - die.llx) * scale;
    let fy = |y: f64| h - (y - die.lly) * scale;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{w:.0}\" height=\"{h:.0}\" viewBox=\"0 0 {w:.1} {h:.1}\">"
    );
    rect(&mut out, 0.0, 0.0, w, h, "#ffffff", Some("#222222"));
    let core = floorplan.core;
    rect(
        &mut out,
        fx(core.llx),
        fy(core.ury),
        core.width() * scale,
        core.height() * scale,
        "#f5f5f5",
        Some("#888888"),
    );
    for b in &floorplan.blockages {
        rect(
            &mut out,
            fx(b.llx),
            fy(b.ury),
            b.width() * scale,
            b.height() * scale,
            "#cccccc",
            Some("#555555"),
        );
    }
    for (i, &(x, y)) in positions.iter().enumerate() {
        let obj = problem.movable[i];
        let color = match groups {
            Some(g) => PALETTE[g[i] as usize % PALETTE.len()],
            None => PALETTE[0],
        };
        rect(
            &mut out,
            fx(x),
            fy(y + obj.height),
            (obj.width * scale).max(0.5),
            (obj.height * scale).max(0.5),
            color,
            None,
        );
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::global::{GlobalPlacer, PlacerOptions};
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn svg_contains_every_cell() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .seed(71)
            .generate();
        let fp = Floorplan::try_for_netlist(&n, 0.6, 1.0).expect("valid geometry");
        let p = PlacementProblem::from_netlist(&n, &fp);
        let r = GlobalPlacer::new(PlacerOptions::default())
            .place(&p)
            .expect("placement succeeds");
        let svg = placement_svg(&p, &fp, &r.positions, None);
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        // die + core + one rect per cell
        let rects = svg.matches("<rect").count();
        assert_eq!(rects, 2 + p.movable_count());
    }

    #[test]
    fn groups_color_cells_differently() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .seed(71)
            .generate();
        let fp = Floorplan::try_for_netlist(&n, 0.6, 1.0).expect("valid geometry");
        let p = PlacementProblem::from_netlist(&n, &fp);
        let pos = vec![fp.core.center(); p.movable_count()];
        let groups: Vec<u32> = (0..p.movable_count() as u32).collect();
        let svg = placement_svg(&p, &fp, &pos, Some(&groups));
        // At least two palette colors appear.
        assert!(svg.contains(PALETTE[0]));
        assert!(svg.contains(PALETTE[1]));
    }

    #[test]
    fn blockages_are_drawn() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(72)
            .generate();
        let fp = Floorplan::try_for_netlist(&n, 0.6, 1.0)
            .expect("valid geometry")
            .try_with_macro_blockages(2, 0.2)
            .expect("valid fraction");
        let p = PlacementProblem::from_netlist(&n, &fp);
        let pos = vec![fp.core.center(); p.movable_count()];
        let svg = placement_svg(&p, &fp, &pos, None);
        assert_eq!(svg.matches("#cccccc").count(), 2);
    }
}
