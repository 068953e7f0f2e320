//! The netlist database: cells, nets, ports and their connectivity.
//!
//! The database is packed for the whole flow's lifetime: names live in one
//! byte arena per entity kind, net sinks in one CSR array and cell input
//! nets in another, so a netlist of `n` cells holds a dozen allocations
//! rather than a few per cell. [`NetlistBuilder`] appends into the same
//! arenas as it goes, and [`NetlistBuilder::finish`] only derives the
//! per-cell pin → net maps and validates.

use crate::hierarchy::HierTree;
use crate::ids::{CellId, CellTypeId, HierNodeId, NetId, PortId};
use crate::library::{CellClass, Library};
use cp_graph::Hypergraph;
use std::fmt;
use std::ops::Range;

/// A connection endpoint: either a pin of a cell instance or a top port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PinRef {
    /// Pin `pin` of cell `cell`. For inputs `pin` indexes
    /// [`crate::CellType::input_names`]; the output pin is not indexed here —
    /// a cell drives through [`Net::driver`] only.
    Cell {
        /// The cell instance.
        cell: CellId,
        /// Input-pin index (ignored when this is a net's driver).
        pin: u8,
    },
    /// A top-level port.
    Port(PortId),
}

/// Direction of a top-level port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortDir {
    /// Primary input (drives a net).
    Input,
    /// Primary output (sinks a net).
    Output,
}

/// A top-level port.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name.
    pub name: String,
    /// Direction.
    pub dir: PortDir,
    /// The net bound to this port (filled by the builder).
    pub net: Option<NetId>,
}

/// A cell instance. Its name is [`Netlist::cell_name`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// Master (library cell type).
    pub ty: CellTypeId,
    /// Deepest hierarchy node containing the instance.
    pub hier: HierNodeId,
}

/// A net: one driver, many sinks. Its name is [`Netlist::net_name`] and its
/// sinks are [`Netlist::sinks`]; the net itself records only where they sit
/// in the netlist's sink array.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Net {
    /// The driving endpoint (an input port or a cell output).
    pub driver: Option<PinRef>,
    /// `true` for the clock net (excluded from clustering/placement nets).
    pub is_clock: bool,
    sinks_start: u32,
    sinks_end: u32,
}

impl Net {
    /// Number of sink endpoints.
    pub fn sink_count(&self) -> usize {
        (self.sinks_end - self.sinks_start) as usize
    }

    /// Number of endpoints (driver + sinks).
    pub fn pin_count(&self) -> usize {
        self.sink_count() + usize::from(self.driver.is_some())
    }

    /// Where the sinks sit in the netlist's sink array.
    fn sink_range(&self) -> Range<usize> {
        self.sinks_start as usize..self.sinks_end as usize
    }
}

/// Strings stored end to end in one buffer and addressed by insertion
/// index: one allocation for every name instead of one per name.
#[derive(Debug, Clone, Default, PartialEq)]
struct NameArena {
    bytes: String,
    /// `ends[i]` is the byte offset one past name `i`.
    ends: Vec<u32>,
}

impl NameArena {
    fn push(&mut self, name: &str) {
        self.bytes.push_str(name);
        self.ends.push(arena_offset(self.bytes.len()));
    }

    fn get(&self, i: usize) -> &str {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start as usize..self.ends[i] as usize]
    }

    fn shrink_to_fit(&mut self) {
        self.bytes.shrink_to_fit();
        self.ends.shrink_to_fit();
    }
}

/// An arena length as a `u32` offset.
///
/// # Panics
///
/// Panics past 4 GiB of names or 2³² sinks, far beyond the largest design.
fn arena_offset(len: usize) -> u32 {
    match u32::try_from(len) {
        Ok(offset) => offset,
        Err(_) => panic!("netlist arena exceeds u32 offsets"),
    }
}

/// Summary statistics of a netlist (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetlistStats {
    /// Number of cell instances.
    pub cells: usize,
    /// Number of nets.
    pub nets: usize,
    /// Number of top ports.
    pub ports: usize,
    /// Number of sequential cells.
    pub flops: usize,
    /// Total standard-cell area in µm².
    pub cell_area: f64,
    /// Average net fanout (sinks per net).
    pub avg_fanout: f64,
    /// Depth of the hierarchy tree.
    pub hier_depth: u32,
}

/// Errors reported by [`NetlistBuilder::finish`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildNetlistError {
    /// A net references a cell input pin that does not exist on the master.
    BadPinIndex {
        /// Offending net.
        net: String,
        /// Offending cell.
        cell: String,
        /// The out-of-range pin index.
        pin: u8,
    },
    /// Two nets drive the same cell output or input port.
    DriverConflict {
        /// The endpoint driven twice (cell or port name).
        endpoint: String,
    },
    /// Two nets sink into the same cell input pin.
    SinkConflict {
        /// The cell name.
        cell: String,
        /// The pin index bound twice.
        pin: u8,
    },
    /// A net lists an input port among its sinks or an output port as driver.
    PortDirectionMismatch {
        /// The port name.
        port: String,
    },
    /// A net's driver or sink names a cell or port the builder never added.
    UnknownEndpoint {
        /// Offending net.
        net: String,
    },
}

impl fmt::Display for BuildNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadPinIndex { net, cell, pin } => {
                write!(
                    f,
                    "net {net} uses pin {pin} of cell {cell}, which does not exist"
                )
            }
            Self::DriverConflict { endpoint } => {
                write!(f, "endpoint {endpoint} is driven by more than one net")
            }
            Self::SinkConflict { cell, pin } => {
                write!(
                    f,
                    "input pin {pin} of cell {cell} is bound to more than one net"
                )
            }
            Self::PortDirectionMismatch { port } => {
                write!(f, "port {port} is used against its direction")
            }
            Self::UnknownEndpoint { net } => {
                write!(f, "net {net} names a cell or port that was never added")
            }
        }
    }
}

impl std::error::Error for BuildNetlistError {}

/// The netlist database.
///
/// Construct with [`NetlistBuilder`]; connectivity indexes (per-cell pin →
/// net maps) are derived once at build time. Names, net sinks and cell
/// input nets are packed into flat arenas (see the module docs) and read
/// through [`Netlist::cell_name`], [`Netlist::net_name`],
/// [`Netlist::sinks`] and [`Netlist::input_nets`].
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    library: Library,
    cells: Vec<Cell>,
    cell_names: NameArena,
    nets: Vec<Net>,
    net_names: NameArena,
    // Every net's sinks, net after net; `Net` holds its range.
    sinks: Vec<PinRef>,
    ports: Vec<Port>,
    hierarchy: HierTree,
    // Derived: cell `i`'s input nets are `input_net[input_start[i]..input_start[i + 1]]`,
    // one slot per input pin of its master.
    input_start: Vec<u32>,
    input_net: Vec<Option<NetId>>,
    // Derived: net driven by each cell's output.
    output_net: Vec<Option<NetId>>,
}

impl Netlist {
    /// Design name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cell library.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Mutable library access (used when registering cluster macros).
    pub fn library_mut(&mut self) -> &mut Library {
        &mut self.library
    }

    /// The logical hierarchy tree.
    pub fn hierarchy(&self) -> &HierTree {
        &self.hierarchy
    }

    /// Number of cell instances.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of top ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// A cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// A cell's instance name.
    pub fn cell_name(&self, id: CellId) -> &str {
        self.cell_names.get(id.index())
    }

    /// A net by id.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// A net's name.
    pub fn net_name(&self, id: NetId) -> &str {
        self.net_names.get(id.index())
    }

    /// A net's sink endpoints (cell input pins or output ports), in the
    /// order they were added.
    pub fn sinks(&self, id: NetId) -> &[PinRef] {
        &self.sinks[self.nets[id.index()].sink_range()]
    }

    /// A port by id.
    pub fn port(&self, id: PortId) -> &Port {
        &self.ports[id.index()]
    }

    /// All cells in id order.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// All nets in id order.
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All ports in id order.
    pub fn ports(&self) -> &[Port] {
        &self.ports
    }

    /// The master of a cell.
    pub fn master(&self, id: CellId) -> &crate::library::CellType {
        self.library.cell(self.cells[id.index()].ty)
    }

    /// The net bound to input pin `pin` of `cell`, if any.
    pub fn input_net(&self, cell: CellId, pin: u8) -> Option<NetId> {
        self.input_nets(cell).get(pin as usize).copied().flatten()
    }

    /// All input nets of a cell (indexed by pin).
    pub fn input_nets(&self, cell: CellId) -> &[Option<NetId>] {
        let i = cell.index();
        &self.input_net[self.input_start[i] as usize..self.input_start[i + 1] as usize]
    }

    /// The net driven by `cell`'s output, if any.
    pub fn output_net(&self, cell: CellId) -> Option<NetId> {
        self.output_net[cell.index()]
    }

    /// Total cell area in µm² (macros included).
    pub fn total_cell_area(&self) -> f64 {
        self.cells
            .iter()
            .map(|c| self.library.cell(c.ty).area())
            .sum()
    }

    /// Summary statistics (Table 1).
    pub fn stats(&self) -> NetlistStats {
        let flops = self
            .cells
            .iter()
            .filter(|c| self.library.cell(c.ty).class == CellClass::Sequential)
            .count();
        NetlistStats {
            cells: self.cells.len(),
            nets: self.nets.len(),
            ports: self.ports.len(),
            flops,
            cell_area: self.total_cell_area(),
            avg_fanout: if self.nets.is_empty() {
                0.0
            } else {
                self.sinks.len() as f64 / self.nets.len() as f64
            },
            hier_depth: self.hierarchy.max_depth(),
        }
    }

    /// Hypergraph vertex id of a cell (cells come first).
    pub fn cell_vertex(&self, id: CellId) -> u32 {
        id.0
    }

    /// Hypergraph vertex id of a port (ports follow cells).
    pub fn port_vertex(&self, id: PortId) -> u32 {
        self.cells.len() as u32 + id.0
    }

    /// Builds the hypergraph view used by clustering and placement.
    ///
    /// Vertices `0..cell_count` are cells; `cell_count..cell_count+ports`
    /// are top ports. One hyperedge per non-clock net with at least two
    /// endpoints; the driver is listed first. Hyperedge ids equal net ids
    /// only when no nets are skipped — use
    /// [`Netlist::to_hypergraph_with_map`] when the mapping matters.
    pub fn to_hypergraph(&self) -> Hypergraph {
        self.to_hypergraph_with_map().0
    }

    /// Like [`Netlist::to_hypergraph`] but also returns, per net, the
    /// hyperedge it maps to (`None` for skipped nets).
    pub fn to_hypergraph_with_map(&self) -> (Hypergraph, Vec<Option<u32>>) {
        let nv = self.cells.len() + self.ports.len();
        let mut edges = Vec::with_capacity(self.nets.len());
        let mut map = vec![None; self.nets.len()];
        for (nid, net) in self.nets.iter().enumerate() {
            if net.is_clock {
                continue;
            }
            let mut verts = Vec::with_capacity(net.pin_count());
            if let Some(d) = net.driver {
                verts.push(self.endpoint_vertex(d));
            }
            for &s in self.sinks(NetId(nid as u32)) {
                verts.push(self.endpoint_vertex(s));
            }
            verts.dedup();
            if verts.len() >= 2 {
                map[nid] = Some(edges.len() as u32);
                edges.push((verts, 1.0));
            }
        }
        (Hypergraph::new(nv, edges), map)
    }

    fn endpoint_vertex(&self, p: PinRef) -> u32 {
        match p {
            PinRef::Cell { cell, .. } => self.cell_vertex(cell),
            PinRef::Port(port) => self.port_vertex(port),
        }
    }
}

/// Incremental netlist constructor; validates connectivity at
/// [`NetlistBuilder::finish`].
///
/// Every `add_*` call appends into the arenas the finished [`Netlist`]
/// keeps, so no per-cell or per-net allocation outlives its call.
///
/// # Examples
///
/// ```
/// use cp_netlist::{Library, NetlistBuilder, PinRef, PortDir, HierTree};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let lib = Library::nangate45ish();
/// let inv = lib.find("INV_X1").unwrap();
/// let mut b = NetlistBuilder::new("demo", lib);
/// let a = b.add_port("a", PortDir::Input);
/// let y = b.add_port("y", PortDir::Output);
/// let u0 = b.add_cell("u0", inv, HierTree::ROOT);
/// b.add_net("n_a", Some(PinRef::Port(a)), vec![PinRef::Cell { cell: u0, pin: 0 }]);
/// b.add_net("n_y", Some(PinRef::Cell { cell: u0, pin: 0 }), vec![PinRef::Port(y)]);
/// let netlist = b.finish()?;
/// assert_eq!(netlist.cell_count(), 1);
/// assert_eq!(netlist.cell_name(u0), "u0");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetlistBuilder {
    name: String,
    library: Library,
    cells: Vec<Cell>,
    cell_names: NameArena,
    nets: Vec<Net>,
    net_names: NameArena,
    sinks: Vec<PinRef>,
    ports: Vec<Port>,
    hierarchy: HierTree,
}

impl NetlistBuilder {
    /// Starts a netlist named `name` over the given library, with a fresh
    /// hierarchy tree rooted at the same name.
    pub fn new(name: impl Into<String>, library: Library) -> Self {
        let name = name.into();
        let hierarchy = HierTree::new(name.clone());
        Self {
            name,
            library,
            cells: Vec::new(),
            cell_names: NameArena::default(),
            nets: Vec::new(),
            net_names: NameArena::default(),
            sinks: Vec::new(),
            ports: Vec::new(),
            hierarchy,
        }
    }

    /// Mutable hierarchy access for growing the module tree.
    pub fn hierarchy_mut(&mut self) -> &mut HierTree {
        &mut self.hierarchy
    }

    /// The hierarchy tree built so far.
    pub fn hierarchy(&self) -> &HierTree {
        &self.hierarchy
    }

    /// The library this builder instantiates from.
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// Mutable library access (e.g. to register macros).
    pub fn library_mut(&mut self) -> &mut Library {
        &mut self.library
    }

    /// Adds a cell instance, returning its id.
    pub fn add_cell(&mut self, name: impl AsRef<str>, ty: CellTypeId, hier: HierNodeId) -> CellId {
        let id = CellId(self.cells.len() as u32);
        self.cells.push(Cell { ty, hier });
        self.cell_names.push(name.as_ref());
        id
    }

    /// Adds a top-level port, returning its id.
    pub fn add_port(&mut self, name: impl Into<String>, dir: PortDir) -> PortId {
        let id = PortId(self.ports.len() as u32);
        self.ports.push(Port {
            name: name.into(),
            dir,
            net: None,
        });
        id
    }

    /// Adds a net, returning its id. `sinks` is copied into the netlist's
    /// sink array and dropped.
    pub fn add_net(
        &mut self,
        name: impl AsRef<str>,
        driver: Option<PinRef>,
        sinks: Vec<PinRef>,
    ) -> NetId {
        let id = NetId(self.nets.len() as u32);
        let sinks_start = arena_offset(self.sinks.len());
        self.sinks.extend_from_slice(&sinks);
        self.nets.push(Net {
            driver,
            is_clock: false,
            sinks_start,
            sinks_end: arena_offset(self.sinks.len()),
        });
        self.net_names.push(name.as_ref());
        id
    }

    /// Adds the clock net (marked so clustering/placement skip it).
    pub fn add_clock_net(
        &mut self,
        name: impl AsRef<str>,
        driver: Option<PinRef>,
        sinks: Vec<PinRef>,
    ) -> NetId {
        let id = self.add_net(name, driver, sinks);
        self.nets[id.index()].is_clock = true;
        id
    }

    /// Number of cells added so far.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Validates connectivity and builds the netlist.
    ///
    /// # Errors
    ///
    /// Returns a [`BuildNetlistError`] when an endpoint names a cell or
    /// port that was never added, a pin index is out of range, an endpoint
    /// is driven or bound twice, or a port is used against its direction.
    pub fn finish(mut self) -> Result<Netlist, BuildNetlistError> {
        // Drop the arenas' growth slack before the derived maps join them.
        self.cells.shrink_to_fit();
        self.cell_names.shrink_to_fit();
        self.nets.shrink_to_fit();
        self.net_names.shrink_to_fit();
        self.sinks.shrink_to_fit();
        let mut input_start = Vec::with_capacity(self.cells.len() + 1);
        input_start.push(0);
        for c in &self.cells {
            let end =
                input_start[input_start.len() - 1] as usize + self.library.cell(c.ty).input_count();
            input_start.push(arena_offset(end));
        }
        let mut input_net = vec![None; input_start[self.cells.len()] as usize];
        let mut output_net: Vec<Option<NetId>> = vec![None; self.cells.len()];
        let mut port_net: Vec<Option<NetId>> = vec![None; self.ports.len()];

        let unknown = |nid: NetId| BuildNetlistError::UnknownEndpoint {
            net: self.net_names.get(nid.index()).to_string(),
        };
        for (nid, net) in self.nets.iter().enumerate() {
            let nid = NetId(nid as u32);
            let sinks = &self.sinks[net.sink_range()];
            for (i, &pin) in net.driver.iter().chain(sinks).enumerate() {
                let is_driver = i == 0 && net.driver.is_some();
                match pin {
                    PinRef::Cell { cell, .. } if cell.index() >= self.cells.len() => {
                        return Err(unknown(nid));
                    }
                    PinRef::Port(p) if p.index() >= self.ports.len() => {
                        return Err(unknown(nid));
                    }
                    PinRef::Cell { cell, .. } if is_driver => {
                        let slot = &mut output_net[cell.index()];
                        if slot.is_some() {
                            return Err(BuildNetlistError::DriverConflict {
                                endpoint: self.cell_names.get(cell.index()).to_string(),
                            });
                        }
                        *slot = Some(nid);
                    }
                    PinRef::Cell { cell, pin } => {
                        let i = cell.index();
                        let pins =
                            &mut input_net[input_start[i] as usize..input_start[i + 1] as usize];
                        let Some(slot) = pins.get_mut(pin as usize) else {
                            return Err(BuildNetlistError::BadPinIndex {
                                net: self.net_names.get(nid.index()).to_string(),
                                cell: self.cell_names.get(i).to_string(),
                                pin,
                            });
                        };
                        if slot.is_some() {
                            return Err(BuildNetlistError::SinkConflict {
                                cell: self.cell_names.get(i).to_string(),
                                pin,
                            });
                        }
                        *slot = Some(nid);
                    }
                    PinRef::Port(p) => {
                        let port = &self.ports[p.index()];
                        let dir = if is_driver {
                            PortDir::Input
                        } else {
                            PortDir::Output
                        };
                        if port.dir != dir {
                            return Err(BuildNetlistError::PortDirectionMismatch {
                                port: port.name.clone(),
                            });
                        }
                        if port_net[p.index()].is_some() {
                            return Err(BuildNetlistError::DriverConflict {
                                endpoint: port.name.clone(),
                            });
                        }
                        port_net[p.index()] = Some(nid);
                    }
                }
            }
        }
        for (port, net) in self.ports.iter_mut().zip(&port_net) {
            port.net = *net;
        }
        Ok(Netlist {
            name: self.name,
            library: self.library,
            cells: self.cells,
            cell_names: self.cell_names,
            nets: self.nets,
            net_names: self.net_names,
            sinks: self.sinks,
            ports: self.ports,
            hierarchy: self.hierarchy,
            input_start,
            input_net,
            output_net,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::Library;

    fn tiny() -> Netlist {
        // a ──INV(u0)── n1 ──INV(u1)── y
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("tiny", lib);
        let a = b.add_port("a", PortDir::Input);
        let y = b.add_port("y", PortDir::Output);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        let u1 = b.add_cell("u1", inv, HierTree::ROOT);
        b.add_net(
            "na",
            Some(PinRef::Port(a)),
            vec![PinRef::Cell { cell: u0, pin: 0 }],
        );
        b.add_net(
            "n1",
            Some(PinRef::Cell { cell: u0, pin: 0 }),
            vec![PinRef::Cell { cell: u1, pin: 0 }],
        );
        b.add_net(
            "ny",
            Some(PinRef::Cell { cell: u1, pin: 0 }),
            vec![PinRef::Port(y)],
        );
        b.finish().unwrap()
    }

    #[test]
    fn derived_maps() {
        let n = tiny();
        assert_eq!(n.cell_count(), 2);
        assert_eq!(n.output_net(CellId(0)), Some(NetId(1)));
        assert_eq!(n.input_net(CellId(1), 0), Some(NetId(1)));
        assert_eq!(n.port(PortId(0)).net, Some(NetId(0)));
        assert_eq!(n.stats().avg_fanout, 1.0);
    }

    #[test]
    fn hypergraph_view() {
        let n = tiny();
        let hg = n.to_hypergraph();
        assert_eq!(hg.vertex_count(), 4); // 2 cells + 2 ports
        assert_eq!(hg.edge_count(), 3);
        // Driver listed first.
        let (hg2, map) = n.to_hypergraph_with_map();
        assert_eq!(hg2.edge(map[1].unwrap())[0], n.cell_vertex(CellId(0)));
    }

    #[test]
    fn clock_nets_are_skipped() {
        let lib = Library::nangate45ish();
        let dff = lib.find("DFF_X1").unwrap();
        let mut b = NetlistBuilder::new("clk", lib);
        let ck = b.add_port("ck", PortDir::Input);
        let f0 = b.add_cell("f0", dff, HierTree::ROOT);
        let f1 = b.add_cell("f1", dff, HierTree::ROOT);
        b.add_clock_net(
            "cknet",
            Some(PinRef::Port(ck)),
            vec![
                PinRef::Cell { cell: f0, pin: 1 },
                PinRef::Cell { cell: f1, pin: 1 },
            ],
        );
        b.add_net(
            "q0d1",
            Some(PinRef::Cell { cell: f0, pin: 0 }),
            vec![PinRef::Cell { cell: f1, pin: 0 }],
        );
        let n = b.finish().unwrap();
        assert_eq!(n.to_hypergraph().edge_count(), 1);
    }

    #[test]
    fn sink_conflict_detected() {
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("bad", lib);
        let a = b.add_port("a", PortDir::Input);
        let c = b.add_port("c", PortDir::Input);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        b.add_net(
            "na",
            Some(PinRef::Port(a)),
            vec![PinRef::Cell { cell: u0, pin: 0 }],
        );
        b.add_net(
            "nc",
            Some(PinRef::Port(c)),
            vec![PinRef::Cell { cell: u0, pin: 0 }],
        );
        assert!(matches!(
            b.finish(),
            Err(BuildNetlistError::SinkConflict { .. })
        ));
    }

    #[test]
    fn bad_pin_index_detected() {
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("bad", lib);
        let a = b.add_port("a", PortDir::Input);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        b.add_net(
            "na",
            Some(PinRef::Port(a)),
            vec![PinRef::Cell { cell: u0, pin: 3 }],
        );
        assert!(matches!(
            b.finish(),
            Err(BuildNetlistError::BadPinIndex { pin: 3, .. })
        ));
    }

    #[test]
    fn port_direction_enforced() {
        let lib = Library::nangate45ish();
        let mut b = NetlistBuilder::new("bad", lib);
        let y = b.add_port("y", PortDir::Output);
        b.add_net("n", Some(PinRef::Port(y)), vec![]);
        assert!(matches!(
            b.finish(),
            Err(BuildNetlistError::PortDirectionMismatch { .. })
        ));
    }

    #[test]
    fn output_driver_conflict_detected() {
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("bad", lib);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        b.add_net("n1", Some(PinRef::Cell { cell: u0, pin: 0 }), vec![]);
        b.add_net("n2", Some(PinRef::Cell { cell: u0, pin: 0 }), vec![]);
        assert!(matches!(
            b.finish(),
            Err(BuildNetlistError::DriverConflict { .. })
        ));
    }

    /// A one-cell builder whose net `bad` has the given driver and sinks.
    fn with_endpoints(driver: Option<PinRef>, sinks: Vec<PinRef>) -> NetlistBuilder {
        let lib = Library::nangate45ish();
        let inv = lib.find("INV_X1").unwrap();
        let mut b = NetlistBuilder::new("bad", lib);
        let a = b.add_port("a", PortDir::Input);
        let u0 = b.add_cell("u0", inv, HierTree::ROOT);
        b.add_net(
            "na",
            Some(PinRef::Port(a)),
            vec![PinRef::Cell { cell: u0, pin: 0 }],
        );
        b.add_net("bad", driver, sinks);
        b
    }

    #[test]
    fn unknown_endpoints_are_errors() {
        let stray = PinRef::Cell {
            cell: CellId(7),
            pin: 0,
        };
        let cases = [
            (None, vec![stray]),
            (Some(stray), vec![]),
            (Some(PinRef::Port(PortId(5))), vec![]),
            (None, vec![PinRef::Port(PortId(5))]),
        ];
        for (driver, sinks) in cases {
            assert_eq!(
                with_endpoints(driver, sinks).finish(),
                Err(BuildNetlistError::UnknownEndpoint { net: "bad".into() })
            );
        }
    }

    #[test]
    fn names_and_sinks_read_back() {
        let n = tiny();
        let names: Vec<_> = (0..2).map(|i| n.cell_name(CellId(i))).collect();
        assert_eq!(names, ["u0", "u1"]);
        let nets: Vec<_> = (0..3).map(|i| n.net_name(NetId(i))).collect();
        assert_eq!(nets, ["na", "n1", "ny"]);
        assert_eq!(n.sinks(NetId(2)), [PinRef::Port(PortId(1))]);
        assert_eq!(n.net(NetId(1)).pin_count(), 2);
        assert_eq!(n.input_nets(CellId(0)), [Some(NetId(0))]);
    }
}
