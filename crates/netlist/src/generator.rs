//! Hierarchical synthetic design generation.
//!
//! The paper evaluates on six open testcases (aes, jpeg, ariane,
//! BlackParrot, MegaBoom, MemPool Group). Real RTL and a synthesis flow are
//! out of scope for a pure-Rust reproduction, so this module generates
//! gate-level netlists whose *clustering-relevant structure* matches those
//! designs:
//!
//! - a logical hierarchy tree of configurable depth/branching whose leaf
//!   modules hold the cells (Algorithm 2 clusters this tree);
//! - Rent-style connection locality: most wiring stays inside a module, and
//!   cross-module wiring prefers tree-proximal modules — the property that
//!   makes hierarchy-guided clustering effective;
//! - pipelined combinational cones between flip-flops of configurable depth,
//!   giving real timing paths for the PPA-aware timing costs;
//! - primary IO spread around the design and a single clock domain.
//!
//! Each benchmark has a [`DesignProfile`] capturing Table 1's statistics;
//! [`GeneratorConfig::scale`] shrinks a profile for laptop-scale runs while
//! preserving its shape.

use crate::hierarchy::HierTree;
use crate::ids::{CellId, CellTypeId, HierNodeId, PortId};
use crate::library::Library;
use crate::netlist::{Netlist, NetlistBuilder, PinRef, PortDir};
use crate::sdc::Constraints;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The six benchmark profiles of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DesignProfile {
    /// AES cipher core (15 547 insts).
    Aes,
    /// JPEG encoder (53 042 insts).
    Jpeg,
    /// Ariane RISC-V core (119 256 insts).
    Ariane,
    /// BlackParrot multicore (768 851 insts).
    BlackParrot,
    /// MegaBoom OoO core (1 086 920 insts).
    MegaBoom,
    /// MemPool Group manycore (2 729 729 insts).
    MemPoolGroup,
}

impl DesignProfile {
    /// All six profiles in Table 1 order.
    pub const ALL: [Self; 6] = [
        Self::Aes,
        Self::Jpeg,
        Self::Ariane,
        Self::BlackParrot,
        Self::MegaBoom,
        Self::MemPoolGroup,
    ];

    /// Design name as printed in the paper.
    pub fn name(self) -> &'static str {
        match self {
            Self::Aes => "aes",
            Self::Jpeg => "jpeg",
            Self::Ariane => "ariane",
            Self::BlackParrot => "BlackParrot",
            Self::MegaBoom => "MegaBoom",
            Self::MemPoolGroup => "MemPool Group",
        }
    }

    /// Instance count reported in Table 1.
    pub fn table1_insts(self) -> usize {
        match self {
            Self::Aes => 15_547,
            Self::Jpeg => 53_042,
            Self::Ariane => 119_256,
            Self::BlackParrot => 768_851,
            Self::MegaBoom => 1_086_920,
            Self::MemPoolGroup => 2_729_729,
        }
    }

    /// Net count reported in Table 1.
    pub fn table1_nets(self) -> usize {
        match self {
            Self::Aes => 16_338,
            Self::Jpeg => 58_898,
            Self::Ariane => 142_226,
            Self::BlackParrot => 998_716,
            Self::MegaBoom => 1_443_755,
            Self::MemPoolGroup => 3_087_191,
        }
    }

    /// OpenROAD-flow target clock period in ps (`TCP_OR`). Table 1 lists
    /// `NA` for MegaBoom and MemPool Group; we assign representative values
    /// so timing-driven experiments can still run on them.
    pub fn clock_period(self) -> f64 {
        match self {
            Self::Aes => 550.0,
            Self::Jpeg => 800.0,
            Self::Ariane => 1800.0,
            Self::BlackParrot => 2300.0,
            Self::MegaBoom => 2500.0,
            Self::MemPoolGroup => 3000.0,
        }
    }
}

/// Generator parameters; construct via [`GeneratorConfig::from_profile`] or
/// fill fields directly for custom designs.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorConfig {
    /// Design name.
    pub name: String,
    /// Cell target before scaling.
    pub target_cells: usize,
    /// Multiplier applied to `target_cells` (see [`GeneratorConfig::scale`]).
    pub scale_factor: f64,
    /// Min/max cells per leaf module.
    pub leaf_cells: (usize, usize),
    /// Min/max children per internal module.
    pub branching: (usize, usize),
    /// Fraction of cells that are flip-flops.
    pub ff_fraction: f64,
    /// Combinational levels between flop stages (sets timing-path depth).
    pub logic_depth: usize,
    /// Rent exponent controlling module-external connectivity.
    pub rent_exponent: f64,
    /// Rent coefficient (external pins ≈ `k · n^p`).
    pub rent_k: f64,
    /// Per-tree-level probability that a cross-module connection climbs one
    /// more level (lower ⇒ more tree-local wiring).
    pub climb_probability: f64,
    /// Number of primary IO ports (clock excluded) before scaling.
    pub port_count: usize,
    /// Target clock period in ps.
    pub clock_period: f64,
    /// RNG seed.
    pub seed: u64,
}

impl GeneratorConfig {
    /// The configuration reproducing a Table 1 benchmark at scale 1.0.
    pub fn from_profile(profile: DesignProfile) -> Self {
        use DesignProfile::*;
        let (leaf_cells, branching, ff, depth, rent, ports) = match profile {
            Aes => ((60, 160), (3, 5), 0.12, 9, 0.62, 390),
            Jpeg => ((60, 180), (3, 5), 0.10, 10, 0.60, 470),
            Ariane => ((60, 200), (2, 5), 0.18, 12, 0.65, 500),
            BlackParrot => ((80, 240), (3, 6), 0.20, 12, 0.68, 600),
            MegaBoom => ((80, 240), (3, 6), 0.22, 14, 0.70, 700),
            MemPoolGroup => ((80, 220), (4, 8), 0.25, 10, 0.66, 800),
        };
        Self {
            // Machine-friendly name (the `verilog` text dump separates
            // tokens with whitespace); `DesignProfile::name` keeps the
            // display form.
            name: profile.name().replace(' ', "_"),
            target_cells: profile.table1_insts(),
            scale_factor: 1.0,
            leaf_cells,
            branching,
            ff_fraction: ff,
            logic_depth: depth,
            rent_exponent: rent,
            rent_k: 1.2,
            climb_probability: 0.35,
            port_count: ports,
            clock_period: profile.clock_period(),
            seed: 0xC1A5_7E12 ^ profile.table1_insts() as u64,
        }
    }

    /// Scales the cell and port targets by `f` (builder style).
    ///
    /// # Panics
    ///
    /// Panics unless `f > 0`.
    pub fn scale(mut self, f: f64) -> Self {
        assert!(f > 0.0, "scale must be positive");
        self.scale_factor = f;
        self
    }

    /// Sets the RNG seed (builder style).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Effective cell target after scaling (at least 40).
    pub fn effective_cells(&self) -> usize {
        ((self.target_cells as f64 * self.scale_factor) as usize).max(40)
    }

    /// Generates the netlist.
    pub fn generate(&self) -> Netlist {
        self.generate_with_constraints().0
    }

    /// Generates the netlist together with its constraints.
    pub fn generate_with_constraints(&self) -> (Netlist, Constraints) {
        Generator::new(self).run()
    }
}

/// Gate mix: (master name, relative weight).
const GATE_MIX: &[(&str, f64)] = &[
    ("NAND2_X1", 0.22),
    ("INV_X1", 0.13),
    ("NOR2_X1", 0.09),
    ("AND2_X1", 0.08),
    ("OR2_X1", 0.07),
    ("XOR2_X1", 0.06),
    ("XNOR2_X1", 0.03),
    ("MUX2_X1", 0.07),
    ("AOI21_X1", 0.08),
    ("OAI21_X1", 0.07),
    ("MAJ3_X1", 0.03),
    ("XOR3_X1", 0.02),
    ("BUF_X1", 0.05),
    ("INV_X2", 0.04),
    ("NAND2_X2", 0.03),
    ("BUF_X2", 0.03),
];

struct LeafModule {
    node: HierNodeId,
    size: usize,
    /// Cells by level: `levels[0]` = flop outputs, then combinational
    /// levels `1..=logic_depth`.
    levels: Vec<Vec<CellId>>,
    /// Input ports homed to this module (usable as level-0 sources).
    home_ports: Vec<PortId>,
}

#[derive(Clone, Copy)]
enum Source {
    Cell(CellId),
    Port(PortId),
}

struct Generator<'a> {
    cfg: &'a GeneratorConfig,
    rng: StdRng,
    builder: NetlistBuilder,
    /// Shadow of cell types, indexed by `CellId`.
    cell_types: Vec<CellTypeId>,
    gate_ids: Vec<(CellTypeId, f64)>,
    gate_weight_total: f64,
    dff_x1: CellTypeId,
    dff_x2: CellTypeId,
    leaves: Vec<LeafModule>,
    /// Leaf index of each hierarchy node (dense over node ids).
    leaf_of_node: Vec<Option<usize>>,
}

/// Looks up a master that the generator's own library is known to carry.
fn must_find(lib: &Library, name: &str) -> CellTypeId {
    match lib.find(name) {
        Some(id) => id,
        None => unreachable!("{name} is in the generator's library"),
    }
}

impl<'a> Generator<'a> {
    fn new(cfg: &'a GeneratorConfig) -> Self {
        let lib = Library::nangate45ish();
        let gate_ids: Vec<(CellTypeId, f64)> = GATE_MIX
            .iter()
            .map(|&(name, w)| (must_find(&lib, name), w))
            .collect();
        let gate_weight_total = gate_ids.iter().map(|&(_, w)| w).sum();
        let dff_x1 = must_find(&lib, "DFF_X1");
        let dff_x2 = must_find(&lib, "DFF_X2");
        Self {
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            builder: NetlistBuilder::new(cfg.name.clone(), lib),
            cell_types: Vec::new(),
            gate_ids,
            gate_weight_total,
            dff_x1,
            dff_x2,
            leaves: Vec::new(),
            leaf_of_node: Vec::new(),
        }
    }

    fn run(mut self) -> (Netlist, Constraints) {
        let n = self.cfg.effective_cells();
        self.build_tree(HierTree::ROOT, n);
        let ports = self.make_ports();
        self.populate_leaves();
        self.wire(&ports.outputs);
        self.wire_clock(ports.clock);
        let constraints = Constraints::with_period(self.cfg.clock_period).clock_port(ports.clock);
        let netlist = match self.builder.finish() {
            Ok(n) => n,
            Err(e) => unreachable!("generated netlist is valid: {e}"),
        };
        (netlist, constraints)
    }

    fn new_cell(&mut self, name: String, ty: CellTypeId, node: HierNodeId) -> CellId {
        let id = self.builder.add_cell(name, ty, node);
        debug_assert_eq!(id.index(), self.cell_types.len());
        self.cell_types.push(ty);
        id
    }

    fn input_count_of(&self, cell: CellId) -> usize {
        self.builder
            .library()
            .cell(self.cell_types[cell.index()])
            .input_count()
    }

    /// Recursively splits `n` cells under `node` into a module tree.
    fn build_tree(&mut self, node: HierNodeId, n: usize) {
        while self.leaf_of_node.len() <= node.index() {
            self.leaf_of_node.push(None);
        }
        let (leaf_min, leaf_max) = self.cfg.leaf_cells;
        if n <= leaf_max || n <= 2 * leaf_min {
            let index = self.leaves.len();
            self.leaves.push(LeafModule {
                node,
                size: n.max(2),
                levels: Vec::new(),
                home_ports: Vec::new(),
            });
            self.leaf_of_node[node.index()] = Some(index);
            return;
        }
        let (bmin, bmax) = self.cfg.branching;
        let b = self
            .rng
            .random_range(bmin..=bmax)
            .min(n / leaf_min.max(1))
            .max(2);
        let weights: Vec<f64> = (0..b).map(|_| 0.5 + self.rng.random::<f64>()).collect();
        let total: f64 = weights.iter().sum();
        let mut remaining = n;
        for (i, w) in weights.iter().enumerate() {
            let share = if i + 1 == b {
                remaining
            } else {
                let later_min = (b - 1 - i) * leaf_min;
                let hi = remaining.saturating_sub(later_min).max(leaf_min);
                ((n as f64 * w / total) as usize)
                    .max(leaf_min)
                    .min(hi)
                    .min(remaining)
            };
            remaining -= share;
            if share == 0 {
                continue;
            }
            let child = self
                .builder
                .hierarchy_mut()
                .add_child(node, format!("u{i}"));
            self.build_tree(child, share);
        }
    }

    fn make_ports(&mut self) -> Ports {
        let total = ((self.cfg.port_count as f64 * self.cfg.scale_factor.sqrt()) as usize)
            .clamp(8, self.cfg.port_count.max(8));
        let inputs = total / 2;
        let outputs = total - inputs;
        let clock = self.builder.add_port("clk", PortDir::Input);
        let mut input_ids = Vec::with_capacity(inputs);
        for i in 0..inputs {
            input_ids.push(self.builder.add_port(format!("in{i}"), PortDir::Input));
        }
        let mut output_ids = Vec::with_capacity(outputs);
        for i in 0..outputs {
            output_ids.push(self.builder.add_port(format!("out{i}"), PortDir::Output));
        }
        let leaf_count = self.leaves.len();
        for (i, &p) in input_ids.iter().enumerate() {
            self.leaves[i % leaf_count].home_ports.push(p);
        }
        Ports {
            clock,
            outputs: output_ids,
        }
    }

    fn populate_leaves(&mut self) {
        let depth = self.cfg.logic_depth.max(1);
        for li in 0..self.leaves.len() {
            let size = self.leaves[li].size;
            let node = self.leaves[li].node;
            let n_ff = ((size as f64 * self.cfg.ff_fraction).round() as usize)
                .clamp(1, size.saturating_sub(1).max(1));
            let n_comb = size.saturating_sub(n_ff);
            let mut levels: Vec<Vec<CellId>> = vec![Vec::new(); depth + 1];
            for k in 0..n_ff {
                let ty = if self.rng.random_bool(0.1) {
                    self.dff_x2
                } else {
                    self.dff_x1
                };
                let id = self.new_cell(format!("m{li}_ff{k}"), ty, node);
                levels[0].push(id);
            }
            for k in 0..n_comb {
                let ty = self.sample_gate();
                let id = self.new_cell(format!("m{li}_g{k}"), ty, node);
                let lvl = 1 + self.rng.random_range(0..depth);
                levels[lvl].push(id);
            }
            if levels[1].is_empty() && n_comb > 0 {
                for l in 2..=depth {
                    if let Some(c) = levels[l].pop() {
                        levels[1].push(c);
                        break;
                    }
                }
            }
            self.leaves[li].levels = levels;
        }
    }

    fn sample_gate(&mut self) -> CellTypeId {
        let mut x = self.rng.random::<f64>() * self.gate_weight_total;
        for &(id, w) in &self.gate_ids {
            if x < w {
                return id;
            }
            x -= w;
        }
        self.gate_ids[self.gate_ids.len() - 1].0
    }

    /// Wires every input pin, recording a (source, sink) pair per pin, then
    /// emits one net per driving source with its sinks in wiring order.
    /// Output ports get dedicated buffers so every net keeps a unique
    /// driver.
    fn wire(&mut self, outputs: &[PortId]) {
        let mut wired: Vec<(Source, PinRef)> = Vec::new();
        let depth = self.cfg.logic_depth.max(1);
        let (rent_k, rent_p) = (self.cfg.rent_k, self.cfg.rent_exponent);

        for li in 0..self.leaves.len() {
            let p_ext =
                (rent_k * (self.leaves[li].size as f64).powf(rent_p - 1.0)).clamp(0.02, 0.5);
            for lvl in 1..=depth {
                for ci in 0..self.leaves[li].levels[lvl].len() {
                    let cell = self.leaves[li].levels[lvl][ci];
                    let n_inputs = self.input_count_of(cell);
                    for pin in 0..n_inputs {
                        let src = if self.rng.random::<f64>() < p_ext {
                            self.pick_external_source(li, lvl)
                        } else {
                            self.pick_local_source(li, lvl)
                        };
                        wired.push((
                            src,
                            PinRef::Cell {
                                cell,
                                pin: pin as u8,
                            },
                        ));
                    }
                }
            }
            // Flop D inputs come from the deepest logic (any level is safe).
            for fi in 0..self.leaves[li].levels[0].len() {
                let ff = self.leaves[li].levels[0][fi];
                let src = if self.rng.random::<f64>() < p_ext * 0.5 {
                    self.pick_external_source(li, depth + 1)
                } else {
                    self.pick_local_source(li, depth + 1)
                };
                wired.push((src, PinRef::Cell { cell: ff, pin: 0 }));
            }
        }

        // Output ports: buffer off a flop so each port net has a fresh driver.
        let buf = must_find(self.builder.library(), "BUF_X1");
        let mut port_nets = Vec::new();
        for (i, &p) in outputs.iter().enumerate() {
            let li = i % self.leaves.len();
            let flops = &self.leaves[li].levels[0];
            let src = flops[i / self.leaves.len() % flops.len()];
            let node = self.leaves[li].node;
            let b = self.new_cell(format!("obuf{i}"), buf, node);
            wired.push((Source::Cell(src), PinRef::Cell { cell: b, pin: 0 }));
            port_nets.push((i, b, p));
        }

        // Bucket the sinks by source (cells by id, then ports by id) with a
        // counting sort, which keeps each source's sinks in wiring order
        // and lets the pairs and fill cursors go before the nets are built.
        let n_cells = self.builder.cell_count();
        let slot = |src: Source| match src {
            Source::Cell(c) => c.index(),
            Source::Port(p) => n_cells + p.index(),
        };
        let slots = wired
            .iter()
            .map(|&(src, _)| slot(src) + 1)
            .max()
            .unwrap_or(0);
        let mut start = vec![0u32; slots + 1];
        for &(src, _) in &wired {
            start[slot(src) + 1] += 1;
        }
        for i in 1..start.len() {
            start[i] += start[i - 1];
        }
        let mut next = start.clone();
        let mut sinks = vec![PinRef::Port(PortId(0)); wired.len()];
        for (src, sink) in wired {
            let at = &mut next[slot(src)];
            sinks[*at as usize] = sink;
            *at += 1;
        }
        drop(next);
        for (s, bounds) in start.windows(2).enumerate() {
            let run = &sinks[bounds[0] as usize..bounds[1] as usize];
            if run.is_empty() {
                continue;
            }
            let (name, driver) = if s < n_cells {
                let cell = CellId(s as u32);
                (format!("n_{s}"), PinRef::Cell { cell, pin: 0 })
            } else {
                let p = s - n_cells;
                (format!("n_in{p}"), PinRef::Port(PortId(p as u32)))
            };
            self.builder.add_net(name, Some(driver), run.to_vec());
        }
        for (i, b, p) in port_nets {
            self.builder.add_net(
                format!("n_out{i}"),
                Some(PinRef::Cell { cell: b, pin: 0 }),
                vec![PinRef::Port(p)],
            );
        }
    }

    /// Picks a source within module `li` from a level strictly below `lvl`.
    /// Level 0 (the flops) is never empty, so this always succeeds.
    fn pick_local_source(&mut self, li: usize, lvl: usize) -> Source {
        let depth = self.cfg.logic_depth.max(1);
        let max_src = lvl.saturating_sub(1).min(depth);
        // Home ports occasionally stand in for level-0 sources.
        if max_src == 0 || self.rng.random_bool(0.05) {
            let hp = &self.leaves[li].home_ports;
            if !hp.is_empty() && self.rng.random_bool(0.5) {
                let k = self.rng.random_range(0..hp.len());
                return Source::Port(hp[k]);
            }
        }
        let mut pick = if max_src > 0 && !self.rng.random_bool(0.75) {
            self.rng.random_range(0..=max_src)
        } else {
            max_src
        };
        loop {
            let cells = &self.leaves[li].levels[pick];
            if !cells.is_empty() {
                let k = self.rng.random_range(0..cells.len());
                return Source::Cell(cells[k]);
            }
            debug_assert!(pick > 0, "level 0 holds at least one flop");
            pick -= 1;
        }
    }

    /// Picks a source in a tree-proximal foreign module, from a level
    /// strictly below `lvl` to preserve acyclicity.
    fn pick_external_source(&mut self, li: usize, lvl: usize) -> Source {
        let my_node = self.leaves[li].node;
        let mut depth = self.builder.hierarchy().node(my_node).depth;
        let mut anchor = my_node;
        while depth > 0 && self.rng.random::<f64>() < self.cfg.climb_probability {
            // depth > 0 guarantees a parent exists.
            let Some(p) = self.builder.hierarchy().node(anchor).parent else {
                break;
            };
            anchor = p;
            depth -= 1;
        }
        if anchor == my_node {
            if let Some(p) = self.builder.hierarchy().node(my_node).parent {
                anchor = p;
            }
        }
        let mut cur = anchor;
        loop {
            let children = &self.builder.hierarchy().node(cur).children;
            if children.is_empty() {
                break;
            }
            let k = self.rng.random_range(0..children.len());
            cur = children[k];
        }
        let target_li = self.leaf_of_node[cur.index()].unwrap_or(li);
        let leaf_levels = self.leaves[target_li].levels.len();
        let max_l = lvl.saturating_sub(1).min(leaf_levels - 1);
        for l in (0..=max_l).rev() {
            if !self.leaves[target_li].levels[l].is_empty() && (l == 0 || self.rng.random_bool(0.6))
            {
                let cells = &self.leaves[target_li].levels[l];
                let k = self.rng.random_range(0..cells.len());
                return Source::Cell(cells[k]);
            }
        }
        let flops = &self.leaves[target_li].levels[0];
        let k = self.rng.random_range(0..flops.len());
        Source::Cell(flops[k])
    }

    fn wire_clock(&mut self, clock: PortId) {
        let mut sinks = Vec::new();
        for leaf in &self.leaves {
            for &ff in &leaf.levels[0] {
                sinks.push(PinRef::Cell { cell: ff, pin: 1 });
            }
        }
        self.builder
            .add_clock_net("clk_net", Some(PinRef::Port(clock)), sinks);
    }
}

struct Ports {
    clock: PortId,
    outputs: Vec<PortId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NetId;
    use crate::library::CellClass;
    use crate::netlist::Net;

    #[test]
    fn generates_valid_netlist() {
        let (n, c) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .seed(1)
            .generate_with_constraints();
        assert!(n.cell_count() >= 200, "{}", n.cell_count());
        assert!(n.net_count() > n.cell_count() / 2);
        assert_eq!(c.clock_period, 550.0);
        assert!(c.clock_port.is_some());
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || {
            GeneratorConfig::from_profile(DesignProfile::Jpeg)
                .scale(0.005)
                .seed(42)
                .generate()
        };
        let (a, b) = (mk(), mk());
        assert_eq!(a.cell_count(), b.cell_count());
        assert_eq!(a.net_count(), b.net_count());
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(1)
            .generate();
        let b = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(2)
            .generate();
        assert_ne!(
            a.nets().iter().map(Net::sink_count).collect::<Vec<_>>(),
            b.nets().iter().map(Net::sink_count).collect::<Vec<_>>()
        );
    }

    #[test]
    fn has_hierarchy_and_flops() {
        let n = GeneratorConfig::from_profile(DesignProfile::Ariane)
            .scale(0.005)
            .seed(5)
            .generate();
        assert!(n.hierarchy().max_depth() >= 1);
        let s = n.stats();
        assert!(s.flops > 0);
        let ff_frac = s.flops as f64 / s.cells as f64;
        assert!(ff_frac > 0.05 && ff_frac < 0.45, "ff fraction {ff_frac}");
    }

    #[test]
    fn clock_reaches_every_flop() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.01)
            .seed(9)
            .generate();
        let clock_net = n
            .nets()
            .iter()
            .find(|net| net.is_clock)
            .expect("clock net exists");
        let flops = n
            .cells()
            .iter()
            .filter(|c| n.library().cell(c.ty).class == CellClass::Sequential)
            .count();
        assert_eq!(clock_net.sink_count(), flops);
    }

    #[test]
    fn combinational_logic_is_acyclic() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .seed(11)
            .generate();
        let nc = n.cell_count();
        let mut state = vec![0u8; nc]; // 0 unvisited, 1 on stack, 2 done
        let is_comb =
            |c: usize| n.library().cell(n.cells()[c].ty).class == CellClass::Combinational;
        for start in 0..nc {
            if state[start] != 0 || !is_comb(start) {
                continue;
            }
            let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
            state[start] = 1;
            while let Some(&(u, ei)) = stack.last() {
                let succ: Vec<usize> = n
                    .output_net(crate::ids::CellId(u as u32))
                    .map(|net| {
                        n.sinks(net)
                            .iter()
                            .filter_map(|s| match s {
                                PinRef::Cell { cell, .. } if is_comb(cell.index()) => {
                                    Some(cell.index())
                                }
                                _ => None,
                            })
                            .collect()
                    })
                    .unwrap_or_default();
                if ei < succ.len() {
                    stack.last_mut().expect("stack non-empty").1 += 1;
                    let v = succ[ei];
                    assert_ne!(state[v], 1, "combinational cycle through cell {v}");
                    if state[v] == 0 {
                        state[v] = 1;
                        stack.push((v, 0));
                    }
                } else {
                    state[u] = 2;
                    stack.pop();
                }
            }
        }
    }

    #[test]
    fn scaling_tracks_target() {
        for &s in &[0.01, 0.05] {
            let n = GeneratorConfig::from_profile(DesignProfile::Jpeg)
                .scale(s)
                .seed(3)
                .generate();
            let target = (53_042.0 * s) as usize;
            let got = n.cell_count();
            assert!(
                got as f64 > target as f64 * 0.8 && (got as f64) < target as f64 * 1.5,
                "target {target}, got {got}"
            );
        }
    }

    #[test]
    fn wiring_is_tree_local() {
        // Most hyperedges should connect cells within one leaf module.
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.02)
            .seed(13)
            .generate();
        let mut local = 0usize;
        let mut cross = 0usize;
        for (i, net) in n.nets().iter().enumerate() {
            if net.is_clock {
                continue;
            }
            let mut modules: Vec<_> = n
                .sinks(NetId(i as u32))
                .iter()
                .chain(net.driver.iter())
                .filter_map(|p| match p {
                    PinRef::Cell { cell, .. } => Some(n.cell(*cell).hier),
                    PinRef::Port(_) => None,
                })
                .collect();
            modules.sort();
            modules.dedup();
            if modules.len() <= 1 {
                local += 1;
            } else {
                cross += 1;
            }
        }
        assert!(
            local > cross,
            "expected tree-local wiring to dominate: {local} local vs {cross} cross"
        );
    }
}
