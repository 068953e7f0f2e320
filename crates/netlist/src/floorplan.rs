//! Die/core geometry, rows and IO pin placement — the `.def` equivalent.

use crate::netlist::Netlist;
use crate::validate::ValidationError;

/// An axis-aligned rectangle in µm.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Rect {
    /// Lower-left x.
    pub llx: f64,
    /// Lower-left y.
    pub lly: f64,
    /// Upper-right x.
    pub urx: f64,
    /// Upper-right y.
    pub ury: f64,
}

impl Rect {
    /// A rectangle from corner and size.
    pub fn new(llx: f64, lly: f64, width: f64, height: f64) -> Self {
        Self {
            llx,
            lly,
            urx: llx + width,
            ury: lly + height,
        }
    }

    /// Width (x extent).
    pub fn width(&self) -> f64 {
        self.urx - self.llx
    }

    /// Height (y extent).
    pub fn height(&self) -> f64 {
        self.ury - self.lly
    }

    /// Area.
    pub fn area(&self) -> f64 {
        self.width() * self.height()
    }

    /// Center point.
    pub fn center(&self) -> (f64, f64) {
        ((self.llx + self.urx) / 2.0, (self.lly + self.ury) / 2.0)
    }

    /// `true` if `(x, y)` lies inside or on the boundary.
    pub fn contains(&self, x: f64, y: f64) -> bool {
        x >= self.llx && x <= self.urx && y >= self.lly && y <= self.ury
    }

    /// Clamps a point into the rectangle.
    pub fn clamp(&self, x: f64, y: f64) -> (f64, f64) {
        (x.clamp(self.llx, self.urx), y.clamp(self.lly, self.ury))
    }
}

/// The floorplan: die and core boxes, row geometry and fixed IO positions.
///
/// # Examples
///
/// ```
/// use cp_netlist::generator::{DesignProfile, GeneratorConfig};
/// use cp_netlist::Floorplan;
///
/// let netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
///     .scale(0.01)
///     .generate();
/// let fp = Floorplan::try_for_netlist(&netlist, 0.6, 1.0)?;
/// assert!(fp.core.area() * 0.6 >= netlist.total_cell_area() * 0.99);
/// assert_eq!(fp.port_positions.len(), netlist.port_count());
/// # Ok::<(), cp_netlist::ValidationError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Floorplan {
    /// Die boundary.
    pub die: Rect,
    /// Core (placeable) area.
    pub core: Rect,
    /// Standard-cell row height in µm.
    pub row_height: f64,
    /// Placement site width in µm.
    pub site_width: f64,
    /// Target core utilization used to size the core.
    pub utilization: f64,
    /// Fixed position of each top port, indexed by port id, on the core
    /// boundary.
    pub port_positions: Vec<(f64, f64)>,
    /// Preplaced macro obstructions inside the core (the `.def` macro
    /// preplacements of the paper's larger testcases).
    pub blockages: Vec<Rect>,
}

impl Floorplan {
    /// Margin between core and die, in row heights.
    const CORE_MARGIN_ROWS: f64 = 2.0;

    /// Sizes a floorplan for `netlist` at the given core `utilization` and
    /// aspect ratio (`height / width`), and spreads the ports evenly around
    /// the core boundary (counter-clockwise from the lower-left corner).
    ///
    /// # Errors
    ///
    /// Rejects utilization outside `(0, 1]` and non-finite or non-positive
    /// aspect ratios.
    pub fn try_for_netlist(
        netlist: &Netlist,
        utilization: f64,
        aspect_ratio: f64,
    ) -> Result<Self, ValidationError> {
        if !(utilization > 0.0 && utilization <= 1.0) {
            return Err(ValidationError::UtilizationOutOfRange { value: utilization });
        }
        if !(aspect_ratio.is_finite() && aspect_ratio > 0.0) {
            return Err(ValidationError::AspectRatioOutOfRange {
                value: aspect_ratio,
            });
        }
        let lib = netlist.library();
        let area = (netlist.total_cell_area() / utilization).max(lib.row_height * lib.site_width);
        // aspect_ratio = height / width; snap height to rows, width to sites.
        let raw_height = (area * aspect_ratio).sqrt();
        let rows = (raw_height / lib.row_height).ceil().max(1.0);
        let height = rows * lib.row_height;
        let width = ((area / height) / lib.site_width).ceil().max(1.0) * lib.site_width;
        let margin = Self::CORE_MARGIN_ROWS * lib.row_height;
        let core = Rect::new(margin, margin, width, height);
        let die = Rect::new(0.0, 0.0, width + 2.0 * margin, height + 2.0 * margin);
        let port_positions = perimeter_points(&core, netlist.port_count());
        Ok(Self {
            die,
            core,
            row_height: lib.row_height,
            site_width: lib.site_width,
            utilization,
            port_positions,
            blockages: Vec::new(),
        })
    }

    /// Adds `count` preplaced macro blockages totalling `area_fraction` of
    /// the core, grown accordingly so standard-cell capacity is preserved.
    /// Macros line up along the top edge with one-row gaps, as macro
    /// placers commonly do.
    ///
    /// # Errors
    ///
    /// Rejects area fractions outside `[0, 0.5)`.
    pub fn try_with_macro_blockages(
        mut self,
        count: usize,
        area_fraction: f64,
    ) -> Result<Self, ValidationError> {
        if !(0.0..0.5).contains(&area_fraction) {
            return Err(ValidationError::BlockageFractionOutOfRange {
                value: area_fraction,
            });
        }
        if count == 0 || area_fraction == 0.0 {
            return Ok(self);
        }
        // Grow the core so free capacity stays constant.
        let grow = 1.0 / (1.0 - area_fraction);
        let extra_h = self.core.height() * (grow - 1.0);
        let rows = (extra_h / self.row_height).ceil();
        self.core.ury += rows * self.row_height;
        self.die.ury += rows * self.row_height;
        let margin = self.row_height;
        let block_area = self.core.area() * area_fraction / count as f64;
        let avail_w = self.core.width() - (count as f64 + 1.0) * margin;
        let bw = (avail_w / count as f64)
            .min(block_area.sqrt() * 1.5)
            .max(1.0);
        let bh = (block_area / bw).min(self.core.height() * 0.45);
        for k in 0..count {
            let llx = self.core.llx + margin + k as f64 * (bw + margin);
            let lly = self.core.ury - margin - bh;
            self.blockages.push(Rect::new(llx, lly, bw, bh));
        }
        // Re-spread ports along the (taller) boundary.
        self.port_positions = perimeter_points(&self.core, self.port_positions.len());
        Ok(self)
    }

    /// Area of `rect` not covered by blockages, µm² (blockages assumed
    /// disjoint, as produced by [`Floorplan::try_with_macro_blockages`]).
    pub fn free_area_in(&self, rect: &Rect) -> f64 {
        let mut blocked = 0.0;
        for b in &self.blockages {
            let w = (rect.urx.min(b.urx) - rect.llx.max(b.llx)).max(0.0);
            let h = (rect.ury.min(b.ury) - rect.lly.max(b.lly)).max(0.0);
            blocked += w * h;
        }
        (rect.area() - blocked).max(0.0)
    }

    /// Number of standard-cell rows in the core.
    pub fn row_count(&self) -> usize {
        (self.core.height() / self.row_height).round() as usize
    }

    /// The y coordinate of row `r`'s bottom edge.
    pub fn row_y(&self, r: usize) -> f64 {
        self.core.lly + r as f64 * self.row_height
    }
}

/// `n` points evenly spaced along the boundary of `rect`, starting at the
/// lower-left corner and walking counter-clockwise.
fn perimeter_points(rect: &Rect, n: usize) -> Vec<(f64, f64)> {
    let (w, h) = (rect.width(), rect.height());
    let perimeter = 2.0 * (w + h);
    (0..n)
        .map(|i| {
            let mut t = perimeter * i as f64 / n.max(1) as f64;
            if t < w {
                return (rect.llx + t, rect.lly);
            }
            t -= w;
            if t < h {
                return (rect.urx, rect.lly + t);
            }
            t -= h;
            if t < w {
                return (rect.urx - t, rect.ury);
            }
            t -= w;
            (rect.llx, rect.ury - t)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn rect_basics() {
        let r = Rect::new(1.0, 2.0, 3.0, 4.0);
        assert_eq!(r.width(), 3.0);
        assert_eq!(r.height(), 4.0);
        assert_eq!(r.area(), 12.0);
        assert_eq!(r.center(), (2.5, 4.0));
        assert!(r.contains(1.0, 2.0));
        assert!(!r.contains(0.9, 2.0));
        assert_eq!(r.clamp(100.0, -5.0), (4.0, 2.0));
    }

    #[test]
    fn perimeter_points_lie_on_boundary() {
        let r = Rect::new(0.0, 0.0, 10.0, 6.0);
        for &(x, y) in &perimeter_points(&r, 17) {
            let on_edge = (x - r.llx).abs() < 1e-9
                || (x - r.urx).abs() < 1e-9
                || (y - r.lly).abs() < 1e-9
                || (y - r.ury).abs() < 1e-9;
            assert!(on_edge, "({x}, {y}) not on boundary");
            assert!(r.contains(x, y));
        }
    }

    #[test]
    fn floorplan_respects_utilization_and_ar() {
        let netlist = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .seed(3)
            .generate();
        for &(util, ar) in &[(0.5, 1.0), (0.8, 1.5), (0.9, 0.75)] {
            let fp = Floorplan::try_for_netlist(&netlist, util, ar).expect("valid geometry");
            assert!(fp.core.area() * util >= netlist.total_cell_area() * 0.999);
            let measured_ar = fp.core.height() / fp.core.width();
            assert!(
                (measured_ar - ar).abs() / ar < 0.25,
                "ar {measured_ar} too far from {ar}"
            );
            assert!(fp.row_count() > 0);
            assert!(fp.die.area() > fp.core.area());
        }
    }
}

#[cfg(test)]
mod blockage_tests {
    use super::*;
    use crate::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn blockages_preserve_free_capacity() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .seed(3)
            .generate();
        let plain = Floorplan::try_for_netlist(&n, 0.6, 1.0).expect("valid geometry");
        let blocked = plain
            .clone()
            .try_with_macro_blockages(3, 0.2)
            .expect("valid fraction");
        assert_eq!(blocked.blockages.len(), 3);
        let free = blocked.free_area_in(&blocked.core);
        // Free capacity should be at least the unobstructed core's area.
        assert!(
            free >= plain.core.area() * 0.95,
            "free {free} vs plain {}",
            plain.core.area()
        );
        // Blockages are inside the core and disjoint.
        for (i, b) in blocked.blockages.iter().enumerate() {
            assert!(b.llx >= blocked.core.llx - 1e-9);
            assert!(b.urx <= blocked.core.urx + 1e-9);
            assert!(b.ury <= blocked.core.ury + 1e-9);
            for b2 in &blocked.blockages[i + 1..] {
                let overlap_w = (b.urx.min(b2.urx) - b.llx.max(b2.llx)).max(0.0);
                let overlap_h = (b.ury.min(b2.ury) - b.lly.max(b2.lly)).max(0.0);
                assert_eq!(overlap_w * overlap_h, 0.0, "blockages overlap");
            }
        }
    }

    #[test]
    fn free_area_math() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .generate();
        let mut fp = Floorplan::try_for_netlist(&n, 0.6, 1.0).expect("valid geometry");
        fp.blockages
            .push(Rect::new(fp.core.llx, fp.core.lly, 5.0, 4.0));
        let probe = Rect::new(fp.core.llx, fp.core.lly, 10.0, 4.0);
        assert!((fp.free_area_in(&probe) - 20.0).abs() < 1e-9);
    }
}
