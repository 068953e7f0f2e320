//! The packed netlist returns what its builder was given.
//!
//! `Netlist` keeps names in byte arenas and sinks and input nets in CSR
//! arrays. This oracle reads a design — generated Aes and Jpeg at small
//! scales, or a random cluster sub-netlist of one — into plain vectors,
//! rebuilds it through `NetlistBuilder` with a shuffled net order, some
//! sink lists reversed and names of every length (empty and multi-byte
//! included), and checks every accessor against those vectors: names,
//! drivers, sinks, pin counts, the per-cell input/output nets (derived
//! here by a plain scan) and the ports.
//!
//! Two identities of Aes @ 0.01, seed 1, are pinned to the values the
//! unpacked database produced: the checkpoint fingerprint and a hash of
//! the Verilog text.

use cp_core::checkpoint::{fingerprint, fnv1a64, FNV_OFFSET};
use cp_core::vpr::extract_subnetlist;
use cp_core::FlowOptions;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_netlist::netlist::{Netlist, NetlistBuilder, PinRef, PortDir};
use cp_netlist::{verilog, CellId, CellTypeId, HierNodeId, NetId, PortId};
use proptest::prelude::*;

/// One net as handed to the builder.
#[derive(Debug, Clone, PartialEq)]
struct NetInput {
    name: String,
    driver: Option<PinRef>,
    sinks: Vec<PinRef>,
    is_clock: bool,
}

/// Everything a builder is given, in call order.
#[derive(Debug, Clone, PartialEq)]
struct BuilderInput {
    cells: Vec<(String, CellTypeId, HierNodeId)>,
    ports: Vec<(String, PortDir)>,
    nets: Vec<NetInput>,
}

fn mix(seed: u64, i: u64) -> u64 {
    let mut x = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 29)
}

/// `n` read back through its accessors.
fn read(n: &Netlist) -> BuilderInput {
    BuilderInput {
        cells: (0..n.cell_count() as u32)
            .map(CellId)
            .map(|c| (n.cell_name(c).to_string(), n.cell(c).ty, n.cell(c).hier))
            .collect(),
        ports: n.ports().iter().map(|p| (p.name.clone(), p.dir)).collect(),
        nets: (0..n.net_count() as u32)
            .map(NetId)
            .map(|id| NetInput {
                name: n.net_name(id).to_string(),
                driver: n.net(id).driver,
                sinks: n.sinks(id).to_vec(),
                is_clock: n.net(id).is_clock,
            })
            .collect(),
    }
}

/// A name of a length and alphabet picked by `h`: empty, multi-byte,
/// long or unchanged.
fn rename(name: &str, h: u64) -> String {
    match h % 4 {
        0 => String::new(),
        1 => format!("{name}·é{}", h % 97),
        2 => name.repeat(3),
        _ => name.to_string(),
    }
}

/// `input` with nets shuffled, some sink lists reversed and names varied.
fn perturb(mut input: BuilderInput, seed: u64) -> BuilderInput {
    for (i, cell) in input.cells.iter_mut().enumerate() {
        cell.0 = rename(&cell.0, mix(seed, i as u64));
    }
    for (i, net) in input.nets.iter_mut().enumerate() {
        let h = mix(seed ^ 0x5A5A, i as u64);
        net.name = rename(&net.name, h);
        if h & 8 != 0 {
            net.sinks.reverse();
        }
    }
    let mut keyed: Vec<(u64, NetInput)> = (0..)
        .map(|i| mix(seed ^ 0xC3C3, i))
        .zip(input.nets)
        .collect();
    keyed.sort_by_key(|&(key, _)| key);
    input.nets = keyed.into_iter().map(|(_, net)| net).collect();
    input
}

/// Builds `input` over `like`'s library and hierarchy.
fn build(like: &Netlist, input: &BuilderInput) -> Netlist {
    let mut b = NetlistBuilder::new(like.name(), like.library().clone());
    *b.hierarchy_mut() = like.hierarchy().clone();
    for (name, ty, hier) in &input.cells {
        b.add_cell(name, *ty, *hier);
    }
    for (name, dir) in &input.ports {
        b.add_port(name.clone(), *dir);
    }
    for net in &input.nets {
        if net.is_clock {
            b.add_clock_net(&net.name, net.driver, net.sinks.clone());
        } else {
            b.add_net(&net.name, net.driver, net.sinks.clone());
        }
    }
    b.finish().expect("a rebuilt valid design is valid")
}

/// Checks every accessor of `n` against the `input` it was built from.
fn check(n: &Netlist, input: &BuilderInput) {
    assert_eq!(&read(n), input);
    // The derived maps, from a plain scan over the input.
    let mut inputs: Vec<Vec<Option<NetId>>> = (0..input.cells.len() as u32)
        .map(|c| vec![None; n.master(CellId(c)).input_count()])
        .collect();
    let mut output = vec![None; input.cells.len()];
    let mut port_net = vec![None; input.ports.len()];
    for (i, net) in input.nets.iter().enumerate() {
        let id = NetId(i as u32);
        let sinks = n.sinks(id);
        assert_eq!(n.net(id).sink_count(), net.sinks.len());
        assert_eq!(
            n.net(id).pin_count(),
            net.sinks.len() + usize::from(net.driver.is_some())
        );
        assert_eq!(sinks, &net.sinks[..]);
        match net.driver {
            Some(PinRef::Cell { cell, .. }) => output[cell.index()] = Some(id),
            Some(PinRef::Port(p)) => port_net[p.index()] = Some(id),
            None => {}
        }
        for sink in &net.sinks {
            match *sink {
                PinRef::Cell { cell, pin } => inputs[cell.index()][pin as usize] = Some(id),
                PinRef::Port(p) => port_net[p.index()] = Some(id),
            }
        }
    }
    for (c, pins) in inputs.iter().enumerate() {
        let id = CellId(c as u32);
        assert_eq!(n.input_nets(id), &pins[..]);
        for pin in 0..=pins.len() {
            assert_eq!(n.input_net(id, pin as u8), pins.get(pin).copied().flatten());
        }
        assert_eq!(n.output_net(id), output[c]);
    }
    for (p, net) in port_net.iter().enumerate() {
        assert_eq!(n.port(PortId(p as u32)).net, *net);
    }
    let sinks: usize = input.nets.iter().map(|net| net.sinks.len()).sum();
    let nets = input.nets.len().max(1);
    assert_eq!(n.stats().avg_fanout, sinks as f64 / nets as f64);
}

/// Rebuilds `n` unchanged (which must reproduce it exactly) and perturbed,
/// checking both against their builder input.
fn round_trip(n: &Netlist, seed: u64) {
    let input = read(n);
    let same = build(n, &input);
    assert!(&same == n, "an unchanged rebuild differs");
    check(&same, &input);
    let varied = perturb(input, seed);
    check(&build(n, &varied), &varied);
}

fn design(which: u64, seed: u64) -> Netlist {
    let (profile, scale) = match which % 4 {
        0 => (DesignProfile::Aes, 0.005),
        1 => (DesignProfile::Aes, 0.02),
        2 => (DesignProfile::Jpeg, 1.0 / 256.0),
        _ => (DesignProfile::Jpeg, 1.0 / 64.0),
    };
    GeneratorConfig::from_profile(profile)
        .scale(scale)
        .seed(seed)
        .generate()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated designs read back as built.
    #[test]
    fn generated_designs_read_back_as_built(which in 0u64..4, seed in 0u64..u64::MAX) {
        let n = design(which, seed % 1000);
        round_trip(&n, seed);
    }

    /// Random cluster sub-netlists read back as built.
    #[test]
    fn sub_netlists_read_back_as_built(
        which in 0u64..4,
        seed in 0u64..u64::MAX,
        permille in 1u64..1000,
    ) {
        let n = design(which, seed % 7);
        let mut cells: Vec<CellId> = (0..n.cell_count() as u32)
            .filter(|&c| mix(seed, c as u64) % 1000 < permille)
            .map(CellId)
            .collect();
        if cells.is_empty() {
            cells.push(CellId(0));
        }
        cells.sort_by_key(|c| mix(seed ^ 0xA5A5, c.0 as u64));
        let sub = extract_subnetlist(&n, &cells).expect("sub-netlist builds");
        prop_assert_eq!(sub.cell_count(), cells.len());
        for (i, &c) in cells.iter().enumerate() {
            prop_assert_eq!(sub.cell_name(CellId(i as u32)), n.cell_name(c));
        }
        round_trip(&sub, seed);
    }
}

/// Aes @ 0.01, seed 1: the fingerprint and Verilog text hash the unpacked
/// netlist database produced. A change to `FlowOptions` moves the
/// fingerprint too; re-pin it only for a change that means to.
#[test]
fn aes_identities_match_the_unpacked_database() {
    let n = GeneratorConfig::from_profile(DesignProfile::Aes)
        .scale(0.01)
        .seed(1)
        .generate();
    assert_eq!(
        fingerprint(&n, &FlowOptions::default()),
        0x3f38_3ecf_1de9_390c
    );
    assert_eq!(
        fnv1a64(FNV_OFFSET, verilog::write(&n).as_bytes()),
        0x465e_a7ac_e27f_2a3c
    );
}
