//! Minimal structural-netlist text format (writer and parser).
//!
//! Not real Verilog — a line-oriented interchange format that round-trips a
//! [`Netlist`] for examples, golden files and debugging:
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
//! its output pin). Cell lines carry the full hierarchy path; its first
//! segment names the root, whatever it says. Cell and port names are
//! unique, so a reference means the same instance wherever it appears.

use crate::hierarchy::HierTree;
use crate::ids::{CellId, NetId, PortId};
use crate::library::Library;
use crate::netlist::{Netlist, NetlistBuilder, PinRef, PortDir};
use std::collections::HashMap;
use std::fmt;

/// Errors from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseNetlistError {
    /// A line did not match any known directive.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// A referenced name (cell, port or master) is unknown.
    UnknownName {
        /// 1-based line number.
        line: usize,
        /// The unknown identifier.
        name: String,
    },
    /// The netlist failed validation: a cell or port defined twice, or a
    /// connectivity violation.
    Invalid(String),
}

impl fmt::Display for ParseNetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadLine { line, text } => write!(f, "line {line}: unrecognized `{text}`"),
            Self::UnknownName { line, name } => write!(f, "line {line}: unknown name `{name}`"),
            Self::Invalid(msg) => write!(f, "invalid netlist: {msg}"),
        }
    }
}

impl std::error::Error for ParseNetlistError {}

/// Serializes a netlist to the interchange format.
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

/// Parses the interchange format against a library.
///
/// # Errors
///
/// Returns [`ParseNetlistError`] on malformed lines, unknown names, or
/// connectivity violations.
pub fn parse(text: &str, library: Library) -> Result<Netlist, ParseNetlistError> {
    let mut name = "design".to_string();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("design ") {
            name = rest.trim().to_string();
            break;
        }
    }
    let mut builder = NetlistBuilder::new(name, library);
    let mut cells: HashMap<String, CellId> = HashMap::new();
    let mut ports: HashMap<String, PortId> = HashMap::new();
    // Keyed by the path below the root segment.
    let mut hier_nodes: HashMap<String, crate::ids::HierNodeId> = HashMap::new();
    let twice = |lno: usize, what: &str, name: &str| {
        ParseNetlistError::Invalid(format!("line {lno}: {what} `{name}` is defined twice"))
    };

    for (lno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        let lno = lno + 1;
        if line.is_empty() || line.starts_with('#') || line.starts_with("design ") {
            continue;
        }
        let mut tok = line.split_whitespace();
        match tok.next() {
            Some("port") => {
                let dir = match tok.next() {
                    Some("input") => PortDir::Input,
                    Some("output") => PortDir::Output,
                    _ => {
                        return Err(ParseNetlistError::BadLine {
                            line: lno,
                            text: raw.to_string(),
                        })
                    }
                };
                let pname = tok.next().ok_or_else(|| ParseNetlistError::BadLine {
                    line: lno,
                    text: raw.to_string(),
                })?;
                if ports.contains_key(pname) {
                    return Err(twice(lno, "port", pname));
                }
                let id = builder.add_port(pname, dir);
                ports.insert(pname.to_string(), id);
            }
            Some("cell") => {
                let (cname, master, path) = match (tok.next(), tok.next(), tok.next()) {
                    (Some(a), Some(b), Some(c)) => (a, b, c),
                    _ => {
                        return Err(ParseNetlistError::BadLine {
                            line: lno,
                            text: raw.to_string(),
                        })
                    }
                };
                let ty = builder.library().find(master).ok_or_else(|| {
                    ParseNetlistError::UnknownName {
                        line: lno,
                        name: master.to_string(),
                    }
                })?;
                if cells.contains_key(cname) {
                    return Err(twice(lno, "cell", cname));
                }
                // Materialize the hierarchy path.
                let mut node = HierTree::ROOT;
                let mut prefix = String::new();
                for part in path.split('/').skip(1) {
                    prefix.push('/');
                    prefix.push_str(part);
                    node = *hier_nodes
                        .entry(prefix.clone())
                        .or_insert_with(|| builder.hierarchy_mut().add_child(node, part));
                }
                let id = builder.add_cell(cname, ty, node);
                cells.insert(cname.to_string(), id);
            }
            Some(kw @ ("net" | "clocknet")) => {
                let nname = tok.next().ok_or_else(|| ParseNetlistError::BadLine {
                    line: lno,
                    text: raw.to_string(),
                })?;
                let driver_tok = tok.next().ok_or_else(|| ParseNetlistError::BadLine {
                    line: lno,
                    text: raw.to_string(),
                })?;
                let driver = if driver_tok == "-" {
                    None
                } else if let Some(&c) = cells.get(driver_tok) {
                    Some(PinRef::Cell { cell: c, pin: 0 })
                } else if let Some(&p) = ports.get(driver_tok) {
                    Some(PinRef::Port(p))
                } else {
                    return Err(ParseNetlistError::UnknownName {
                        line: lno,
                        name: driver_tok.to_string(),
                    });
                };
                let mut sinks = Vec::new();
                let mut seen_colon = false;
                for t in tok {
                    if t == ":" {
                        seen_colon = true;
                        continue;
                    }
                    if !seen_colon {
                        return Err(ParseNetlistError::BadLine {
                            line: lno,
                            text: raw.to_string(),
                        });
                    }
                    if let Some((cname, pin)) = t.rsplit_once('.') {
                        let &c =
                            cells
                                .get(cname)
                                .ok_or_else(|| ParseNetlistError::UnknownName {
                                    line: lno,
                                    name: cname.to_string(),
                                })?;
                        let pin: u8 = pin.parse().map_err(|_| ParseNetlistError::BadLine {
                            line: lno,
                            text: raw.to_string(),
                        })?;
                        sinks.push(PinRef::Cell { cell: c, pin });
                    } else if let Some(&p) = ports.get(t) {
                        sinks.push(PinRef::Port(p));
                    } else {
                        return Err(ParseNetlistError::UnknownName {
                            line: lno,
                            name: t.to_string(),
                        });
                    }
                }
                if kw == "clocknet" {
                    builder.add_clock_net(nname, driver, sinks);
                } else {
                    builder.add_net(nname, driver, sinks);
                }
            }
            _ => {
                return Err(ParseNetlistError::BadLine {
                    line: lno,
                    text: raw.to_string(),
                })
            }
        }
    }
    builder
        .finish()
        .map_err(|e| ParseNetlistError::Invalid(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DesignProfile, GeneratorConfig};

    #[test]
    fn roundtrip_generated_design() {
        let n = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .seed(4)
            .generate();
        let text = write(&n);
        let back = parse(&text, Library::nangate45ish()).expect("parses");
        assert_eq!(back.cell_count(), n.cell_count());
        assert_eq!(back.net_count(), n.net_count());
        assert_eq!(back.port_count(), n.port_count());
        assert_eq!(back.stats().flops, n.stats().flops);
        assert_eq!(back.hierarchy().len(), n.hierarchy().len());
    }

    #[test]
    fn parse_small_design() {
        let text = "\
design tiny
port input a
port output y
cell u0 INV_X1 tiny/core
cell u1 INV_X1 tiny/core
net na a : u0.0
net n1 u0 : u1.0
net ny u1 : y
";
        let n = parse(text, Library::nangate45ish()).expect("parses");
        assert_eq!(n.cell_count(), 2);
        assert_eq!(n.net_count(), 3);
        assert_eq!(n.hierarchy().max_depth(), 1);
    }

    #[test]
    fn unknown_master_is_reported() {
        let text = "design t\ncell u0 NOPE_X9 t\n";
        let err = parse(text, Library::nangate45ish()).unwrap_err();
        assert!(matches!(err, ParseNetlistError::UnknownName { .. }));
    }

    #[test]
    fn bad_line_is_reported() {
        let text = "design t\nfrobnicate\n";
        let err = parse(text, Library::nangate45ish()).unwrap_err();
        assert!(matches!(err, ParseNetlistError::BadLine { line: 2, .. }));
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "design t\n\n# a comment\nport input a\n";
        let n = parse(text, Library::nangate45ish()).expect("parses");
        assert_eq!(n.port_count(), 1);
    }
}
