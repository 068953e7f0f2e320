//! Pre-flight input validation for the placement flow.
//!
//! [`ValidationError`] is the typed diagnostic every flow entry point
//! returns when handed a degenerate netlist, floorplan or constraint set —
//! the alternative to panicking five stages later inside the solver.

use crate::floorplan::Floorplan;
use crate::ids::NetId;
use crate::netlist::{Netlist, PinRef};
use crate::sdc::Constraints;
use std::fmt;

/// A rejected input, with enough detail to point at the offender.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// The netlist has no cells at all.
    EmptyNetlist,
    /// The netlist has cells but no (non-clock) nets to drive placement.
    NoNets,
    /// A net with zero pins (no driver and no sinks).
    NetWithoutPins {
        /// The offending net's name.
        net: String,
    },
    /// A pin reference past its master's pin list.
    DanglingPin {
        /// The offending net's name.
        net: String,
        /// The cell whose pin index is out of range.
        cell: String,
        /// The referenced pin index.
        pin: u8,
    },
    /// A cell master with a non-finite or non-positive footprint.
    NonFiniteCellDims {
        /// The offending master's name.
        master: String,
    },
    /// Core utilization outside `(0, 1]`.
    UtilizationOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// Aspect ratio that is not a finite positive number.
    AspectRatioOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// Macro-blockage area fraction outside `[0, 0.5)`.
    BlockageFractionOutOfRange {
        /// The rejected value.
        value: f64,
    },
    /// Total cell area exceeds the core's free capacity.
    CoreOverflow {
        /// Total movable cell area, µm².
        cell_area: f64,
        /// Free core area after blockages, µm².
        free_area: f64,
    },
    /// Clock period that is not a finite positive number.
    NonPositiveClockPeriod {
        /// The rejected value.
        value: f64,
    },
    /// IO delay or activity figure that is not finite.
    NonFiniteConstraint {
        /// Which constraint field was rejected.
        field: &'static str,
    },
    /// A cluster assignment whose length differs from the cell count.
    AssignmentLengthMismatch {
        /// Length of the supplied assignment.
        assignment: usize,
        /// Cells in the netlist.
        cells: usize,
    },
}

impl fmt::Display for ValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyNetlist => write!(f, "netlist has no cells"),
            Self::NoNets => write!(f, "netlist has no placeable nets"),
            Self::NetWithoutPins { net } => {
                write!(f, "net `{net}` has no pins")
            }
            Self::DanglingPin { net, cell, pin } => write!(
                f,
                "net `{net}` references pin {pin} of cell `{cell}`, \
                 past its master's pin list"
            ),
            Self::NonFiniteCellDims { master } => write!(
                f,
                "cell master `{master}` has a non-finite or non-positive footprint"
            ),
            Self::UtilizationOutOfRange { value } => {
                write!(f, "core utilization {value} out of (0, 1]")
            }
            Self::AspectRatioOutOfRange { value } => {
                write!(f, "aspect ratio {value} is not a finite positive number")
            }
            Self::BlockageFractionOutOfRange { value } => {
                write!(f, "macro blockage fraction {value} out of [0, 0.5)")
            }
            Self::CoreOverflow {
                cell_area,
                free_area,
            } => write!(
                f,
                "total cell area {cell_area:.1} µm² exceeds the core's free \
                 capacity {free_area:.1} µm²"
            ),
            Self::NonPositiveClockPeriod { value } => {
                write!(f, "clock period {value} is not a finite positive number")
            }
            Self::NonFiniteConstraint { field } => {
                write!(f, "constraint `{field}` is not finite")
            }
            Self::AssignmentLengthMismatch { assignment, cells } => write!(
                f,
                "cluster assignment covers {assignment} cells but the netlist \
                 has {cells}"
            ),
        }
    }
}

impl std::error::Error for ValidationError {}

impl Netlist {
    /// Structural pre-flight check: rejects empty netlists, nets without
    /// pins, dangling pin references and degenerate master footprints.
    pub fn validate(&self) -> Result<(), ValidationError> {
        let _span = cp_trace::span("netlist.validate");
        if self.cell_count() == 0 {
            return Err(ValidationError::EmptyNetlist);
        }
        for master in self.library().cells() {
            let ok = master.width.is_finite()
                && master.height.is_finite()
                && master.width > 0.0
                && master.height > 0.0;
            if !ok {
                return Err(ValidationError::NonFiniteCellDims {
                    master: master.name.clone(),
                });
            }
        }
        let mut placeable = 0usize;
        for (i, net) in self.nets().iter().enumerate() {
            let id = NetId(i as u32);
            if net.pin_count() == 0 {
                return Err(ValidationError::NetWithoutPins {
                    net: self.net_name(id).to_string(),
                });
            }
            if !net.is_clock {
                placeable += 1;
            }
            for sink in self.sinks(id) {
                if let PinRef::Cell { cell, pin } = *sink {
                    if pin as usize >= self.master(cell).input_count() {
                        return Err(ValidationError::DanglingPin {
                            net: self.net_name(id).to_string(),
                            cell: self.cell_name(cell).to_string(),
                            pin,
                        });
                    }
                }
            }
        }
        if placeable == 0 {
            return Err(ValidationError::NoNets);
        }
        Ok(())
    }
}

impl Constraints {
    /// Rejects non-finite or non-positive clock periods and non-finite IO
    /// delay / activity figures.
    pub fn validate(&self) -> Result<(), ValidationError> {
        if !(self.clock_period.is_finite() && self.clock_period > 0.0) {
            return Err(ValidationError::NonPositiveClockPeriod {
                value: self.clock_period,
            });
        }
        for (field, value) in [
            ("input_delay", self.input_delay),
            ("output_delay", self.output_delay),
            ("input_activity", self.input_activity),
            ("input_probability", self.input_probability),
        ] {
            if !value.is_finite() {
                return Err(ValidationError::NonFiniteConstraint { field });
            }
        }
        Ok(())
    }
}

impl Floorplan {
    /// Checks that the netlist's movable area fits the core's free
    /// capacity (a floorplan built by [`Floorplan::try_for_netlist`] always
    /// fits; hand-built or blockage-mutated ones may not).
    pub fn validate_capacity(&self, netlist: &Netlist) -> Result<(), ValidationError> {
        let cell_area = netlist.total_cell_area();
        let free_area = self.free_area_in(&self.core);
        if cell_area > free_area {
            return Err(ValidationError::CoreOverflow {
                cell_area,
                free_area,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DesignProfile, GeneratorConfig};
    use crate::netlist::NetlistBuilder;
    use crate::{HierTree, Library};

    fn design() -> (Netlist, Constraints) {
        GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(5)
            .generate_with_constraints()
    }

    #[test]
    fn generated_designs_validate() {
        let (n, c) = design();
        assert_eq!(n.validate(), Ok(()));
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn empty_netlist_is_rejected() {
        let n = NetlistBuilder::new("empty", Library::nangate45ish())
            .finish()
            .unwrap();
        assert_eq!(n.validate(), Err(ValidationError::EmptyNetlist));
    }

    #[test]
    fn netless_netlist_is_rejected() {
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("lonely", lib);
        b.add_cell("u0", inv, HierTree::ROOT);
        let n = b.finish().unwrap();
        assert_eq!(n.validate(), Err(ValidationError::NoNets));
    }

    #[test]
    fn pinless_net_is_rejected() {
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("floating", lib);
        b.add_cell("u0", inv, HierTree::ROOT);
        b.add_net("n0", None, vec![]);
        let n = b.finish().unwrap();
        assert!(matches!(
            n.validate(),
            Err(ValidationError::NetWithoutPins { .. })
        ));
    }

    #[test]
    fn bad_constraints_are_rejected() {
        let (_, good) = design();
        for period in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = Constraints {
                clock_period: period,
                ..good.clone()
            };
            assert!(matches!(
                c.validate(),
                Err(ValidationError::NonPositiveClockPeriod { .. })
            ));
        }
        let c = Constraints {
            input_delay: f64::NAN,
            ..good
        };
        assert_eq!(
            c.validate(),
            Err(ValidationError::NonFiniteConstraint {
                field: "input_delay"
            })
        );
    }

    #[test]
    fn try_for_netlist_rejects_bad_geometry() {
        let (n, _) = design();
        assert!(matches!(
            Floorplan::try_for_netlist(&n, 0.0, 1.0),
            Err(ValidationError::UtilizationOutOfRange { .. })
        ));
        assert!(matches!(
            Floorplan::try_for_netlist(&n, 1.5, 1.0),
            Err(ValidationError::UtilizationOutOfRange { .. })
        ));
        assert!(matches!(
            Floorplan::try_for_netlist(&n, 0.6, f64::NAN),
            Err(ValidationError::AspectRatioOutOfRange { .. })
        ));
        assert!(Floorplan::try_for_netlist(&n, 0.6, 1.0).is_ok());
        assert!(matches!(
            Floorplan::try_for_netlist(&n, 0.6, 1.0)
                .expect("valid geometry")
                .try_with_macro_blockages(2, 0.6),
            Err(ValidationError::BlockageFractionOutOfRange { .. })
        ));
    }

    #[test]
    fn capacity_check_catches_overfull_cores() {
        let (n, _) = design();
        let mut fp = Floorplan::try_for_netlist(&n, 0.6, 1.0).expect("valid geometry");
        assert_eq!(fp.validate_capacity(&n), Ok(()));
        // Shrink the core below the cell area.
        fp.core.urx = fp.core.llx + 1.0;
        fp.core.ury = fp.core.lly + 1.0;
        assert!(matches!(
            fp.validate_capacity(&n),
            Err(ValidationError::CoreOverflow { .. })
        ));
    }
}
