//! Synthetic standard-cell library — the NanGate45 stand-in.
//!
//! Units used throughout the toolkit:
//!
//! | Quantity    | Unit | Note |
//! |-------------|------|------|
//! | distance    | µm   | |
//! | time        | ps   | `kΩ · fF = ps` keeps delay math unit-free |
//! | capacitance | fF   | |
//! | resistance  | kΩ   | |
//! | energy      | fJ   | internal energy per output toggle |
//! | power       | µW   | leakage; reports convert to W |
//!
//! Cell delay uses the standard linear model
//! `d = intrinsic + drive_res · C_load`, and every combinational function
//! carries a truth table so vectorless switching activity can be propagated
//! exactly (Boolean-difference method).

use crate::ids::CellTypeId;
use std::collections::HashMap;

/// Coarse classification of a cell master.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CellClass {
    /// Ordinary combinational logic.
    Combinational,
    /// Edge-triggered flip-flop.
    Sequential,
    /// Clock buffer (used by CTS; excluded from signal clustering costs).
    ClockBuffer,
    /// Block abstraction (used for cluster macros in the clustered netlist).
    Macro,
}

/// Logic function of a cell, used for delay arcs and activity propagation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LogicFunction {
    /// `y = a`
    Buf,
    /// `y = !a`
    Inv,
    /// `y = a & b`
    And2,
    /// `y = !(a & b)`
    Nand2,
    /// `y = a | b`
    Or2,
    /// `y = !(a | b)`
    Nor2,
    /// `y = a ^ b`
    Xor2,
    /// `y = !(a ^ b)`
    Xnor2,
    /// `y = s ? b : a` (inputs ordered `a, b, s`)
    Mux2,
    /// `y = !((a & b) | c)` (and-or-invert)
    Aoi21,
    /// `y = !((a | b) & c)` (or-and-invert)
    Oai21,
    /// Majority of three (full-adder carry)
    Maj3,
    /// `y = a ^ b ^ c` (full-adder sum)
    Xor3,
    /// D flip-flop (inputs `d, ck`; output `q`)
    Dff,
    /// Opaque block (cluster macro)
    Opaque,
}

impl LogicFunction {
    /// Number of signal input pins (the DFF clock pin counts).
    pub fn input_count(self) -> usize {
        match self {
            Self::Buf | Self::Inv => 1,
            Self::And2
            | Self::Nand2
            | Self::Or2
            | Self::Nor2
            | Self::Xor2
            | Self::Xnor2
            | Self::Dff => 2,
            Self::Mux2 | Self::Aoi21 | Self::Oai21 | Self::Maj3 | Self::Xor3 => 3,
            Self::Opaque => 0,
        }
    }

    /// Evaluates the combinational function (`None` for sequential/opaque).
    pub fn eval(self, inputs: &[bool]) -> Option<bool> {
        let v = |i: usize| inputs[i];
        Some(match self {
            Self::Buf => v(0),
            Self::Inv => !v(0),
            Self::And2 => v(0) & v(1),
            Self::Nand2 => !(v(0) & v(1)),
            Self::Or2 => v(0) | v(1),
            Self::Nor2 => !(v(0) | v(1)),
            Self::Xor2 => v(0) ^ v(1),
            Self::Xnor2 => !(v(0) ^ v(1)),
            Self::Mux2 => {
                if v(2) {
                    v(1)
                } else {
                    v(0)
                }
            }
            Self::Aoi21 => !((v(0) & v(1)) | v(2)),
            Self::Oai21 => !((v(0) | v(1)) & v(2)),
            Self::Maj3 => (v(0) & v(1)) | (v(1) & v(2)) | (v(0) & v(2)),
            Self::Xor3 => v(0) ^ v(1) ^ v(2),
            Self::Dff | Self::Opaque => return None,
        })
    }

    /// Truth table over `input_count()` inputs, bit `i` = output for the
    /// minterm whose input `j` is bit `j` of `i`. `None` for DFF/opaque.
    pub fn truth_table(self) -> Option<u16> {
        let n = self.input_count();
        let mut table = 0u16;
        for m in 0..(1u16 << n) {
            let bits = [m & 1 != 0, m & 2 != 0, m & 4 != 0, m & 8 != 0];
            if self.eval(&bits[..n])? {
                table |= 1 << m;
            }
        }
        Some(table)
    }

    /// `true` for [`LogicFunction::Dff`].
    pub fn is_sequential(self) -> bool {
        matches!(self, Self::Dff)
    }
}

/// A cell master (library cell).
#[derive(Debug, Clone, PartialEq)]
pub struct CellType {
    /// Master name, e.g. `NAND2_X1`.
    pub name: String,
    /// Classification.
    pub class: CellClass,
    /// Logic function for timing arcs and activity propagation.
    pub function: LogicFunction,
    /// Width in µm.
    pub width: f64,
    /// Height in µm (one row height for standard cells).
    pub height: f64,
    /// Input pin names, in [`LogicFunction`] input order.
    pub input_names: Vec<String>,
    /// Input pin capacitances in fF, same order.
    pub input_caps: Vec<f64>,
    /// Output pin name (empty for sink-only masters).
    pub output_name: String,
    /// Output drive resistance in kΩ.
    pub drive_res: f64,
    /// Intrinsic (load-independent) delay in ps.
    pub intrinsic_delay: f64,
    /// Internal energy per output toggle in fJ.
    pub internal_energy: f64,
    /// Leakage power in µW.
    pub leakage: f64,
}

impl CellType {
    /// Footprint area in µm².
    pub fn area(&self) -> f64 {
        self.width * self.height
    }

    /// Index of the clock pin for sequential cells (`ck` is input 1).
    pub fn clock_pin(&self) -> Option<usize> {
        self.function.is_sequential().then_some(1)
    }

    /// Number of input pins.
    pub fn input_count(&self) -> usize {
        self.input_names.len()
    }
}

/// A cell library plus the interconnect technology constants the delay and
/// congestion models need.
#[derive(Debug, Clone, PartialEq)]
pub struct Library {
    /// Library name.
    pub name: String,
    /// Standard-cell row height in µm.
    pub row_height: f64,
    /// Placement site width in µm.
    pub site_width: f64,
    /// Wire resistance in kΩ/µm.
    pub wire_res: f64,
    /// Wire capacitance in fF/µm.
    pub wire_cap: f64,
    /// Routing track capacity per GCell edge per layer direction.
    pub tracks_per_layer: u32,
    /// Number of horizontal routing layers (vertical count assumed equal).
    pub horizontal_layers: u32,
    types: Vec<CellType>,
    by_name: HashMap<String, CellTypeId>,
}

impl Library {
    /// Creates an empty library with the given technology constants.
    pub fn new(name: impl Into<String>, row_height: f64, site_width: f64) -> Self {
        Self {
            name: name.into(),
            row_height,
            site_width,
            wire_res: 0.004,
            wire_cap: 0.20,
            tracks_per_layer: 10,
            horizontal_layers: 3,
            types: Vec::new(),
            by_name: HashMap::new(),
        }
    }

    /// Registers a cell master, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if a master with the same name already exists.
    pub fn add(&mut self, cell: CellType) -> CellTypeId {
        let id = CellTypeId(self.types.len() as u32);
        let prev = self.by_name.insert(cell.name.clone(), id);
        assert!(prev.is_none(), "duplicate cell master {}", cell.name);
        self.types.push(cell);
        id
    }

    /// Looks up a master by id.
    pub fn cell(&self, id: CellTypeId) -> &CellType {
        &self.types[id.index()]
    }

    /// Looks up a master id by name.
    pub fn find(&self, name: &str) -> Option<CellTypeId> {
        self.by_name.get(name).copied()
    }

    /// All masters in id order.
    pub fn cells(&self) -> &[CellType] {
        &self.types
    }

    /// Number of masters.
    pub fn len(&self) -> usize {
        self.types.len()
    }

    /// `true` if the library holds no masters.
    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    /// The synthetic 45 nm-flavored library used across the toolkit: a
    /// NanGate45 stand-in with drive-strength variants of the common gates.
    ///
    /// # Examples
    ///
    /// ```
    /// use cp_netlist::Library;
    ///
    /// let lib = Library::nangate45ish();
    /// let inv = lib.cell(lib.find("INV_X1").unwrap());
    /// assert!(inv.area() > 0.0);
    /// ```
    pub fn nangate45ish() -> Self {
        let mut lib = Self::new("nangate45ish", 1.4, 0.19);
        let h = lib.row_height;
        let site_width = lib.site_width;
        let w = move |sites: u32| sites as f64 * site_width;
        use LogicFunction::*;
        let gate = |name: &str,
                    f: LogicFunction,
                    sites: u32,
                    cap: f64,
                    res: f64,
                    intr: f64,
                    energy: f64,
                    leak: f64| {
            let names: Vec<String> = match f.input_count() {
                1 => vec!["a".into()],
                2 if f.is_sequential() => vec!["d".into(), "ck".into()],
                2 => vec!["a".into(), "b".into()],
                3 if f == Mux2 => vec!["a".into(), "b".into(), "s".into()],
                3 => vec!["a".into(), "b".into(), "c".into()],
                _ => vec![],
            };
            let caps = vec![cap; names.len()];
            CellType {
                name: name.into(),
                class: if f.is_sequential() {
                    CellClass::Sequential
                } else if name.starts_with("CLKBUF") {
                    CellClass::ClockBuffer
                } else {
                    CellClass::Combinational
                },
                function: f,
                width: w(sites),
                height: h,
                input_names: names,
                input_caps: caps,
                output_name: if f.is_sequential() { "q" } else { "y" }.into(),
                drive_res: res,
                intrinsic_delay: intr,
                internal_energy: energy,
                leakage: leak,
            }
        };
        // name, function, sites, in-cap fF, drive kΩ, intrinsic ps, energy fJ, leak µW
        lib.add(gate("INV_X1", Inv, 2, 1.0, 6.0, 8.0, 0.6, 0.02));
        lib.add(gate("INV_X2", Inv, 3, 2.0, 3.0, 8.0, 1.0, 0.04));
        lib.add(gate("INV_X4", Inv, 5, 4.0, 1.5, 8.0, 1.8, 0.08));
        lib.add(gate("BUF_X1", Buf, 3, 1.0, 6.0, 16.0, 1.0, 0.03));
        lib.add(gate("BUF_X2", Buf, 4, 2.0, 3.0, 16.0, 1.6, 0.05));
        lib.add(gate("BUF_X4", Buf, 6, 4.0, 1.5, 16.0, 2.8, 0.10));
        lib.add(gate("NAND2_X1", Nand2, 3, 1.2, 6.5, 10.0, 0.9, 0.03));
        lib.add(gate("NAND2_X2", Nand2, 4, 2.4, 3.2, 10.0, 1.5, 0.06));
        lib.add(gate("NOR2_X1", Nor2, 3, 1.2, 7.5, 11.0, 0.9, 0.03));
        lib.add(gate("AND2_X1", And2, 4, 1.2, 6.5, 18.0, 1.2, 0.04));
        lib.add(gate("OR2_X1", Or2, 4, 1.2, 7.0, 19.0, 1.2, 0.04));
        lib.add(gate("XOR2_X1", Xor2, 5, 1.8, 7.5, 22.0, 1.8, 0.05));
        lib.add(gate("XNOR2_X1", Xnor2, 5, 1.8, 7.5, 22.0, 1.8, 0.05));
        lib.add(gate("MUX2_X1", Mux2, 6, 1.5, 7.0, 24.0, 1.9, 0.06));
        lib.add(gate("AOI21_X1", Aoi21, 4, 1.3, 7.0, 14.0, 1.1, 0.04));
        lib.add(gate("OAI21_X1", Oai21, 4, 1.3, 7.0, 14.0, 1.1, 0.04));
        lib.add(gate("MAJ3_X1", Maj3, 7, 1.5, 7.5, 26.0, 2.2, 0.07));
        lib.add(gate("XOR3_X1", Xor3, 8, 1.9, 8.0, 30.0, 2.6, 0.08));
        lib.add(gate("DFF_X1", Dff, 9, 1.4, 6.0, 55.0, 3.5, 0.15));
        lib.add(gate("DFF_X2", Dff, 11, 2.6, 3.0, 55.0, 5.0, 0.25));
        lib.add(gate("CLKBUF_X1", Buf, 3, 1.1, 6.0, 15.0, 1.2, 0.04));
        lib.add(gate("CLKBUF_X2", Buf, 4, 2.2, 3.0, 15.0, 2.0, 0.07));
        lib.add(gate("CLKBUF_X4", Buf, 6, 4.2, 1.5, 15.0, 3.4, 0.12));
        lib
    }

    /// Registers a macro master of the given footprint (used for cluster
    /// blocks in the clustered netlist). The name must be unique.
    pub fn add_macro(&mut self, name: impl Into<String>, width: f64, height: f64) -> CellTypeId {
        self.add(CellType {
            name: name.into(),
            class: CellClass::Macro,
            function: LogicFunction::Opaque,
            width,
            height,
            input_names: Vec::new(),
            input_caps: Vec::new(),
            output_name: String::new(),
            drive_res: 2.0,
            intrinsic_delay: 0.0,
            internal_energy: 0.0,
            leakage: 0.0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truth_tables_match_eval() {
        use LogicFunction::*;
        for f in [
            Buf, Inv, And2, Nand2, Or2, Nor2, Xor2, Xnor2, Mux2, Aoi21, Oai21, Maj3, Xor3,
        ] {
            let table = f.truth_table().unwrap();
            let n = f.input_count();
            for m in 0..(1u16 << n) {
                let bits: Vec<bool> = (0..n).map(|j| (m >> j) & 1 == 1).collect();
                assert_eq!(
                    (table >> m) & 1 == 1,
                    f.eval(&bits).unwrap(),
                    "{f:?} minterm {m}"
                );
            }
        }
    }

    #[test]
    fn dff_has_no_table() {
        assert_eq!(LogicFunction::Dff.truth_table(), None);
        assert!(LogicFunction::Dff.is_sequential());
        assert_eq!(LogicFunction::Dff.eval(&[true, false]), None);
    }

    #[test]
    fn mux_semantics() {
        // inputs (a, b, s): s selects b.
        assert_eq!(LogicFunction::Mux2.eval(&[true, false, false]), Some(true));
        assert_eq!(LogicFunction::Mux2.eval(&[true, false, true]), Some(false));
    }

    #[test]
    fn nangate45ish_is_well_formed() {
        let lib = Library::nangate45ish();
        assert!(lib.len() >= 20);
        for ct in lib.cells() {
            assert!(ct.width > 0.0 && ct.height > 0.0, "{}", ct.name);
            assert_eq!(ct.input_caps.len(), ct.input_names.len());
            if ct.class != CellClass::Macro {
                assert_eq!(ct.input_count(), ct.function.input_count(), "{}", ct.name);
            }
        }
        // Higher drive ⇒ lower resistance, bigger area.
        let x1 = lib.cell(lib.find("INV_X1").unwrap());
        let x4 = lib.cell(lib.find("INV_X4").unwrap());
        assert!(x4.drive_res < x1.drive_res);
        assert!(x4.area() > x1.area());
    }

    #[test]
    fn dff_clock_pin() {
        let lib = Library::nangate45ish();
        let dff = lib.cell(lib.find("DFF_X1").unwrap());
        assert_eq!(dff.clock_pin(), Some(1));
        assert_eq!(dff.input_names[1], "ck");
        let inv = lib.cell(lib.find("INV_X1").unwrap());
        assert_eq!(inv.clock_pin(), None);
    }

    #[test]
    fn macro_registration() {
        let mut lib = Library::nangate45ish();
        let id = lib.add_macro("CLUST_0", 25.0, 20.0);
        let m = lib.cell(id);
        assert_eq!(m.class, CellClass::Macro);
        assert_eq!(m.area(), 500.0);
        assert_eq!(lib.find("CLUST_0"), Some(id));
    }

    #[test]
    #[should_panic(expected = "duplicate cell master")]
    fn duplicate_master_panics() {
        let mut lib = Library::nangate45ish();
        lib.add_macro("INV_X1", 1.0, 1.0);
    }
}
