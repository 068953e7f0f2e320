//! Minimal structural-netlist text format (writer only).
//!
//! Not real Verilog — a line-oriented text dump of a netlist, for golden
//! hashes and debugging; nothing reads it back:
//!
//! ```text
//! design tiny
//! port input a
//! port output y
//! cell u0 INV_X1 tiny/core
//! net na a : u0.0
//! net n1 u0 : y
//! clocknet ck clkport : u1.1
//! ```
//!
//! A net line is `net <name> <driver> : <sink>...`; drivers and sinks are
//! either a port name or `<cell>.<pin>` (a bare cell name as driver means
//! its output pin). Cell lines carry the full hierarchy path. Cell and port
//! names are unique, so a reference means the same instance wherever it
//! appears.

use crate::ids::{CellId, NetId};
use crate::netlist::{Netlist, PinRef, PortDir};

/// Dumps a netlist as text in the format above.
pub fn write(netlist: &Netlist) -> String {
    let mut out = String::new();
    out.push_str(&format!("design {}\n", netlist.name()));
    for p in netlist.ports() {
        let dir = match p.dir {
            PortDir::Input => "input",
            PortDir::Output => "output",
        };
        out.push_str(&format!("port {dir} {}\n", p.name));
    }
    let tree = netlist.hierarchy();
    for (i, c) in netlist.cells().iter().enumerate() {
        out.push_str(&format!(
            "cell {} {} {}\n",
            netlist.cell_name(CellId(i as u32)),
            netlist.library().cell(c.ty).name,
            tree.path(c.hier)
        ));
    }
    for (i, net) in netlist.nets().iter().enumerate() {
        let id = NetId(i as u32);
        let kw = if net.is_clock { "clocknet" } else { "net" };
        let driver = match net.driver {
            Some(PinRef::Cell { cell, .. }) => netlist.cell_name(cell).to_string(),
            Some(PinRef::Port(p)) => netlist.port(p).name.clone(),
            None => "-".to_string(),
        };
        let sinks: Vec<String> = netlist
            .sinks(id)
            .iter()
            .map(|s| match *s {
                PinRef::Cell { cell, pin } => format!("{}.{pin}", netlist.cell_name(cell)),
                PinRef::Port(p) => netlist.port(p).name.clone(),
            })
            .collect();
        out.push_str(&format!(
            "{kw} {} {driver} : {}\n",
            netlist.net_name(id),
            sinks.join(" ")
        ));
    }
    out
}
