//! Stage-granular flow checkpoints.
//!
//! A checkpoint is a single progressive JSON file rewritten after each
//! completed pipeline stage (clustering → shaping → cluster placement →
//! flat placement). It captures exactly the state the remaining stages
//! consume — the cluster assignment, the chosen shapes, the placement
//! position vectors — so a resumed run recomputes nothing that already
//! completed and reproduces the original run's report **bitwise** (see
//! [`crate::flow::FlowReport::deterministic_eq`]).
//!
//! Bitwise fidelity hinges on two properties:
//!
//! - `f64` values are serialized with Rust's shortest round-trip
//!   formatting ([`cp_trace::json::fmt_f64`]), so every position and HPWL
//!   survives the JSON round trip bit-exactly.
//! - Everything downstream of the restored state is deterministic
//!   (including across thread counts, by the `cp-parallel` contract), so
//!   replaying the remaining stages from bit-identical inputs yields
//!   bit-identical outputs.
//!
//! Checkpoints are guarded by a FNV-1a **fingerprint** over the netlist
//! and flow options: resuming against a different design or configuration
//! is rejected with a typed [`FlowError::Checkpoint`](crate::error::FlowError)
//! instead of silently producing garbage. The on-disk format is validated
//! against `schemas/checkpoint.schema.json` (embedded at compile time) on
//! every load.

use crate::error::RecoveryEvent;
use crate::flow::{FlowOptions, ShapingStats};
use crate::stages;
use cp_netlist::netlist::Netlist;
use cp_netlist::{CellId, ClusterShape, NetId};
use cp_trace::json::{parse_checked, Json, Writer};
use std::path::Path;
use std::sync::OnceLock;

/// On-disk format version; bumped on breaking layout changes, and a file
/// of any other version is refused. Version 2 dropped the two sub-netlist
/// cache counters from the shaping stats; version 3 dropped the stored
/// stage (implied by which outputs are present, see [`Checkpoint::stage`]),
/// the shaping stage's `shaped` list (the cluster ids of its `shapes`) and
/// the placements' `diverged` flags (a revert is a restored event).
pub const CHECKPOINT_VERSION: u64 = 3;

/// The checked-in schema every loaded checkpoint is validated against.
pub const SCHEMA_JSON: &str = include_str!("../../../schemas/checkpoint.schema.json");

/// The shaping stage's output: the selected shape per shaped cluster plus
/// the stage's work counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ShapingState {
    /// `(cluster, shape)` for every cluster that went through shape
    /// selection, including ones that fell back and keep the uniform
    /// shape (none in `Uniform` mode).
    pub shapes: Vec<(u32, ClusterShape)>,
    /// The stage's counters, restored verbatim into the report.
    pub stats: ShapingStats,
}

/// A progressive stage checkpoint (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// FNV-1a fingerprint of the netlist + options (see [`fingerprint`]).
    pub fingerprint: u64,
    /// The clustering assignment (one cluster id per cell).
    pub assignment: Vec<u32>,
    /// Seconds the clustering stage took in the original run.
    pub clustering_runtime: f64,
    /// Recovery events collected up to (and including) [`Self::stage`].
    pub events: Vec<RecoveryEvent>,
    /// Recoveries dropped past the diagnostics cap.
    pub dropped: usize,
    /// Present once shaping completed.
    pub shaping: Option<ShapingState>,
    /// One `(x, y)` per cluster, bit-exact; present once cluster placement
    /// completed.
    pub cluster_placement: Option<Vec<(f64, f64)>>,
    /// One `(x, y)` per movable cell, bit-exact; present once flat
    /// placement (incl. congestion refinement) completed.
    pub flat_placement: Option<Vec<(f64, f64)>>,
}

/// The FNV-1a 64 offset basis: the hash of no bytes, and the `hash` a
/// fresh [`fnv1a64`] chain starts from.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into a running FNV-1a 64 `hash` — the workspace's one
/// non-cryptographic identity hash, behind run fingerprints and content
/// digests.
pub fn fnv1a64(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the netlist's structure (cell and net names, pin counts)
/// and the full flow configuration, so a checkpoint can only resume the
/// run that wrote it.
pub fn fingerprint(netlist: &Netlist, options: &FlowOptions) -> u64 {
    let mut h = FNV_OFFSET;
    let mut eat = |bytes: &[u8]| h = fnv1a64(h, bytes);
    eat(&(netlist.cell_count() as u64).to_le_bytes());
    eat(&(netlist.net_count() as u64).to_le_bytes());
    for i in 0..netlist.cell_count() {
        eat(netlist.cell_name(CellId(i as u32)).as_bytes());
        eat(&[0]);
    }
    for (i, net) in netlist.nets().iter().enumerate() {
        eat(netlist.net_name(NetId(i as u32)).as_bytes());
        eat(&(net.pin_count() as u64).to_le_bytes());
    }
    // The Debug form covers every option field (placer seeds, shape mode,
    // clustering knobs, …) with round-trip float formatting, so any
    // configuration change invalidates the checkpoint.
    eat(format!("{options:?}").as_bytes());
    h
}

impl Checkpoint {
    /// A fresh clustering-stage checkpoint.
    pub fn after_clustering(
        fingerprint: u64,
        assignment: Vec<u32>,
        clustering_runtime: f64,
    ) -> Self {
        Self {
            fingerprint,
            assignment,
            clustering_runtime,
            events: Vec::new(),
            dropped: 0,
            shaping: None,
            cluster_placement: None,
            flat_placement: None,
        }
    }

    /// The last *completed* stage (a [`stages`] constant): the last one
    /// whose output is present, or clustering when none is.
    pub fn stage(&self) -> &'static str {
        if self.flat_placement.is_some() {
            stages::FLAT_PLACEMENT
        } else if self.cluster_placement.is_some() {
            stages::CLUSTER_PLACEMENT
        } else if self.shaping.is_some() {
            stages::SHAPING
        } else {
            stages::CLUSTERING
        }
    }

    /// Serializes to the schema-conformant JSON document.
    pub fn to_json(&self) -> String {
        let mut w = Writer::with_capacity(4096);
        w.object_lines().key("version").u64(CHECKPOINT_VERSION);
        w.key("fingerprint").hex64(self.fingerprint);
        w.key("clustering")
            .object_padded()
            .key("assignment")
            .array();
        for &id in &self.assignment {
            w.u64(id.into());
        }
        w.end().key("runtime").f64(self.clustering_runtime).end();
        w.key("diagnostics").object_padded().key("events").array();
        let cluster_event = |w: &mut Writer, kind: &str, cluster: u32| {
            w.object().key("kind").str(kind);
            w.key("cluster").u64(cluster.into()).end();
        };
        for e in &self.events {
            match e {
                RecoveryEvent::PlacerReverted { stage } => {
                    w.object().key("kind").str("placer_reverted");
                    w.key("stage").str(stage).end();
                }
                RecoveryEvent::ShapeFallback { cluster } => {
                    cluster_event(&mut w, "shape_fallback", *cluster);
                }
                RecoveryEvent::RegionDropped { cluster } => {
                    cluster_event(&mut w, "region_dropped", *cluster);
                }
            }
        }
        w.end().key("dropped").u64(self.dropped as u64).end();
        if let Some(sh) = &self.shaping {
            w.key("shaping").object_padded().key("shapes").array();
            for (c, shape) in &sh.shapes {
                w.object().key("cluster").u64((*c).into());
                w.key("aspect_ratio").f64(shape.aspect_ratio);
                w.key("utilization").f64(shape.utilization).end();
            }
            w.end().key("stats").object();
            for (key, count) in stats_fields(&sh.stats) {
                w.key(key).u64(count as u64);
            }
            w.end().end();
        }
        let placements = [
            ("cluster_placement", &self.cluster_placement),
            ("flat_placement", &self.flat_placement),
        ];
        for (key, placement) in placements {
            let Some(positions) = placement else { continue };
            w.key(key).object_padded().key("positions").array();
            for &(x, y) in positions {
                w.array().f64(x).f64(y).end();
            }
            w.end().end();
        }
        w.end();
        let mut text = w.finish();
        text.push('\n');
        text
    }

    /// Parses and schema-validates a checkpoint document.
    ///
    /// # Errors
    ///
    /// A human-readable reason when the document is malformed, fails
    /// schema validation, carries an unknown version or event stage, or holds a
    /// cluster id or count that is not a non-negative integer in range.
    pub fn from_json(input: &str) -> Result<Self, String> {
        static SCHEMA: OnceLock<Result<Json, String>> = OnceLock::new();
        let doc = parse_checked(input, SCHEMA_JSON, &SCHEMA)?;
        let version = doc.u64("version")?;
        if version != CHECKPOINT_VERSION {
            return Err(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            ));
        }
        let (assignment, clustering_runtime) = doc.at("clustering", |c| {
            Ok((c.each("assignment", Json::to_u32)?, c.f64("runtime")?))
        })?;
        let (events, dropped) = doc.at("diagnostics", |d| {
            Ok((d.each("events", event_from_json)?, d.usize("dropped")?))
        })?;
        Ok(Self {
            fingerprint: doc.hex64("fingerprint")?,
            assignment,
            clustering_runtime,
            events,
            dropped,
            shaping: doc.opt("shaping", shaping_from_json)?,
            cluster_placement: doc.opt("cluster_placement", placement_from_json)?,
            flat_placement: doc.opt("flat_placement", placement_from_json)?,
        })
    }

    /// Writes the checkpoint atomically (temp file + rename), so an
    /// interrupted write never leaves a truncated checkpoint behind.
    ///
    /// # Errors
    ///
    /// The I/O failure, stringified.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, self.to_json())
            .map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| format!("rename to {}: {e}", path.display()))
    }

    /// Loads and validates a checkpoint file.
    ///
    /// # Errors
    ///
    /// See [`Self::from_json`]; additionally the I/O failure when the
    /// file cannot be read.
    pub fn load(path: &Path) -> Result<Self, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Self::from_json(&text)
    }
}

/// The shaping counters under their document keys, in document order.
fn stats_fields(st: &ShapingStats) -> [(&'static str, usize); 7] {
    [
        ("clusters_shaped", st.clusters_shaped),
        ("exact_evals", st.exact_evals),
        ("exact_evals_avoided", st.exact_evals_avoided),
        ("proxy_evals", st.proxy_evals),
        ("surrogate_batches", st.surrogate_batches),
        ("surrogate_samples", st.surrogate_samples),
        ("warm_start_hits", st.warm_start_hits),
    ]
}

fn placement_from_json(j: &Json) -> Result<Vec<(f64, f64)>, String> {
    j.each("positions", |pair| match pair.to_array()? {
        [x, y, ..] => Ok((x.to_f64()?, y.to_f64()?)),
        _ => Err("expected an [x, y] pair".to_string()),
    })
}

fn shaping_from_json(j: &Json) -> Result<ShapingState, String> {
    let shapes = j.each("shapes", |s| {
        let (ar, util) = (s.f64("aspect_ratio")?, s.f64("utilization")?);
        if ar <= 0.0 || util <= 0.0 || util > 1.0 {
            return Err(format!("invalid shape ar={ar} util={util}"));
        }
        Ok((s.u32("cluster")?, ClusterShape::new(ar, util)))
    })?;
    let stats = j.at("stats", |st| {
        Ok(ShapingStats {
            clusters_shaped: st.usize("clusters_shaped")?,
            exact_evals: st.usize("exact_evals")?,
            exact_evals_avoided: st.usize("exact_evals_avoided")?,
            proxy_evals: st.usize("proxy_evals")?,
            surrogate_batches: st.usize("surrogate_batches")?,
            surrogate_samples: st.usize("surrogate_samples")?,
            warm_start_hits: st.usize("warm_start_hits")?,
        })
    })?;
    Ok(ShapingState { shapes, stats })
}

fn event_from_json(j: &Json) -> Result<RecoveryEvent, String> {
    match j.str("kind")? {
        "placer_reverted" => Ok(RecoveryEvent::PlacerReverted {
            stage: j.at("stage", stage_static)?,
        }),
        "shape_fallback" => Ok(RecoveryEvent::ShapeFallback {
            cluster: j.u32("cluster")?,
        }),
        "region_dropped" => Ok(RecoveryEvent::RegionDropped {
            cluster: j.u32("cluster")?,
        }),
        other => Err(format!("unknown event kind '{other}'")),
    }
}

/// Maps a stage name back to its `'static` constant.
fn stage_static(name: &Json) -> Result<&'static str, String> {
    let name = name.to_str()?;
    stages::ALL
        .iter()
        .chain(std::iter::once(&stages::CONGESTION_REFINEMENT))
        .find(|&&s| s == name)
        .copied()
        .ok_or_else(|| format!("unknown stage '{name}'"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_netlist::generator::{DesignProfile, GeneratorConfig};

    fn sample() -> Checkpoint {
        Checkpoint {
            fingerprint: 0xdead_beef_0123_4567,
            assignment: vec![0, 1, 1, 0, 2],
            clustering_runtime: 0.125,
            events: vec![
                RecoveryEvent::ShapeFallback { cluster: 1 },
                RecoveryEvent::PlacerReverted {
                    stage: stages::CLUSTER_PLACEMENT,
                },
            ],
            dropped: 0,
            shaping: Some(ShapingState {
                shapes: vec![
                    (0, ClusterShape::new(1.25, 0.8)),
                    (1, ClusterShape::UNIFORM),
                ],
                stats: ShapingStats {
                    clusters_shaped: 2,
                    exact_evals: 40,
                    ..Default::default()
                },
            }),
            cluster_placement: Some(vec![
                (1.5, -2.25),
                (0.1 + 0.2, f64::MIN_POSITIVE),
                (1.0 / 3.0, -0.0),
            ]),
            flat_placement: None,
        }
    }

    #[test]
    fn json_round_trip_is_bitwise() {
        let cp = sample();
        let text = cp.to_json();
        let back = Checkpoint::from_json(&text).expect("round trip parses");
        assert_eq!(back.fingerprint, cp.fingerprint);
        assert_eq!(back.stage(), stages::CLUSTER_PLACEMENT);
        assert_eq!(back.assignment, cp.assignment);
        assert_eq!(
            back.clustering_runtime.to_bits(),
            cp.clustering_runtime.to_bits()
        );
        assert_eq!(back.events, cp.events);
        let (a, b) = (
            cp.cluster_placement.expect("present"),
            back.cluster_placement.expect("present"),
        );
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.0.to_bits(), pb.0.to_bits());
            assert_eq!(pa.1.to_bits(), pb.1.to_bits());
        }
        let (sa, sb) = (cp.shaping.expect("present"), back.shaping.expect("present"));
        assert_eq!(sa.stats, sb.stats);
        assert_eq!(sa.shapes, sb.shapes);
    }

    #[test]
    fn schema_rejects_malformed_documents() {
        assert!(Checkpoint::from_json("{}").is_err());
        assert!(Checkpoint::from_json("not json").is_err());
        let bad_stage = sample().to_json().replace("cluster placement", "warp");
        assert!(Checkpoint::from_json(&bad_stage).is_err());
        let bad_version = sample()
            .to_json()
            .replace("\"version\": 3", "\"version\": 99");
        assert!(Checkpoint::from_json(&bad_version).is_err());
    }

    /// The three hashes the one helper replaced, at the values their own
    /// loops produced: the run fingerprint (which hashes the options'
    /// `Debug` form, so it moves when an option field is added or
    /// removed), a string key and a document's byte identity.
    #[test]
    fn fnv1a64_keeps_the_three_hashes_it_replaced() {
        let (netlist, _) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .seed(1)
            .generate_with_constraints();
        let run = fingerprint(&netlist, &FlowOptions::fast());
        assert_eq!(run, 0xbae2_60c0_61a7_d36c);
        assert_eq!(fnv1a64(FNV_OFFSET, b"flow.start"), 0xba12_3255_f7b7_2d93);
        let artifact = fnv1a64(FNV_OFFSET, br#"{"version":1}"#);
        assert_eq!(artifact, 0x07eb_e02b_9b5e_69f2);
        // Chained calls hash the concatenation.
        assert_eq!(
            fnv1a64(fnv1a64(FNV_OFFSET, b"flow."), b"start"),
            0xba12_3255_f7b7_2d93
        );
        assert_eq!(fnv1a64(FNV_OFFSET, b""), FNV_OFFSET);
    }

    #[test]
    fn fingerprint_tracks_netlist_and_options() {
        let (n1, _) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .seed(1)
            .generate_with_constraints();
        let (n2, _) = GeneratorConfig::from_profile(DesignProfile::Aes)
            .scale(0.005)
            .seed(2)
            .generate_with_constraints();
        let opts = FlowOptions::fast();
        let f1 = fingerprint(&n1, &opts);
        assert_eq!(f1, fingerprint(&n1, &opts), "stable for identical inputs");
        assert_ne!(f1, fingerprint(&n2, &opts), "netlist changes invalidate");
        let mut other = FlowOptions::fast();
        other.placer.seed += 1;
        assert_ne!(f1, fingerprint(&n1, &other), "option changes invalidate");
    }

    /// The parent encoder's bytes, but for `version` and the keys version
    /// 3 dropped (`stage`, `shaped`, both `diverged`).
    #[test]
    fn document_matches_its_golden_bytes() {
        let mut cp = sample();
        cp.flat_placement = Some(vec![]);
        cp.events.push(RecoveryEvent::RegionDropped { cluster: 7 });
        assert_eq!(
            cp.to_json(),
            r#"{
  "version": 3,
  "fingerprint": "deadbeef01234567",
  "clustering": { "assignment": [0,1,1,0,2], "runtime": 0.125 },
  "diagnostics": { "events": [{"kind":"shape_fallback","cluster":1},{"kind":"placer_reverted","stage":"cluster placement"},{"kind":"region_dropped","cluster":7}], "dropped": 0 },
  "shaping": { "shapes": [{"cluster":0,"aspect_ratio":1.25,"utilization":0.8},{"cluster":1,"aspect_ratio":1.0,"utilization":0.9}], "stats": {"clusters_shaped":2,"exact_evals":40,"exact_evals_avoided":0,"proxy_evals":0,"surrogate_batches":0,"surrogate_samples":0,"warm_start_hits":0} },
  "cluster_placement": { "positions": [[1.5,-2.25],[0.30000000000000004,0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000022250738585072014],[0.3333333333333333,-0.0]] },
  "flat_placement": { "positions": [] }
}
"#
        );
        let fresh = Checkpoint::after_clustering(1, vec![], 0.0);
        assert_eq!(
            fresh.to_json(),
            r#"{
  "version": 3,
  "fingerprint": "0000000000000001",
  "clustering": { "assignment": [], "runtime": 0.0 },
  "diagnostics": { "events": [], "dropped": 0 }
}
"#
        );
    }

    /// The stage is the last one whose output is present.
    #[test]
    fn stage_is_the_last_present_output() {
        let mut cp = sample();
        assert_eq!(cp.stage(), stages::CLUSTER_PLACEMENT);
        cp.flat_placement = Some(vec![]);
        assert_eq!(cp.stage(), stages::FLAT_PLACEMENT);
        cp.flat_placement = None;
        cp.cluster_placement = None;
        assert_eq!(cp.stage(), stages::SHAPING);
        cp.shaping = None;
        assert_eq!(cp.stage(), stages::CLUSTERING);
        assert_eq!(
            Checkpoint::after_clustering(1, vec![], 0.0).stage(),
            stages::CLUSTERING
        );
    }

    /// `-1` used to resume as cluster 0, `2.7` as cluster 2 (`f as u32`).
    #[test]
    fn ids_that_are_not_ids_are_typed_errors() {
        let negative =
            include_str!("../../../tests/regressions/checkpoint_negative_assignment.json");
        let err = Checkpoint::from_json(negative).expect_err("negative cluster id");
        assert!(
            err.contains("clustering: assignment[1]: expected an integer"),
            "{err}"
        );
        let text = sample().to_json();
        for (from, to, path) in [
            (
                "\"cluster\":1,\"aspect_ratio\"",
                "\"cluster\":4294967296,\"aspect_ratio\"",
                "shaping: shapes[1]: cluster: ",
            ),
            (
                "\"cluster\":0,",
                "\"cluster\":-3,",
                "shaping: shapes[0]: cluster: ",
            ),
            (
                "\"exact_evals\":40",
                "\"exact_evals\":-40",
                "shaping: stats: exact_evals: ",
            ),
            (
                "\"dropped\": 0",
                "\"dropped\": 1e300",
                "diagnostics: dropped: ",
            ),
            (
                "{\"kind\":\"shape_fallback\",\"cluster\":1}",
                "{\"kind\":\"shape_fallback\",\"cluster\":-1}",
                "diagnostics: events[0]: cluster: ",
            ),
        ] {
            assert!(text.contains(from), "{from}");
            let err = Checkpoint::from_json(&text.replace(from, to)).expect_err(to);
            assert!(err.contains(path), "{to}: {err}");
        }
    }

    #[test]
    fn save_and_load_round_trip() {
        let dir = std::env::temp_dir().join("cp-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("ckpt.json");
        let cp = sample();
        cp.save(&path).expect("saves");
        let back = Checkpoint::load(&path).expect("loads");
        assert_eq!(back.stage(), cp.stage());
        assert_eq!(back.assignment, cp.assignment);
        let _ = std::fs::remove_file(&path);
    }
}
