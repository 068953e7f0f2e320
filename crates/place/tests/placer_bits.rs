//! Pins the global placer's output bit for bit.
//!
//! Each case hashes one `GlobalPlacer::place` result — every position's
//! `f64` bits, then the HPWL, the overflow, the iteration count and the
//! divergence flag — with FNV-1a and compares it with a constant recorded
//! from the placer before its iterate moved into the B2B assemblers. The
//! cases sit below and above the movable count from which the two axes
//! solve as separate tasks, run from scratch and seeded, and every case
//! runs at 1 and at 4 threads. The run-against-run determinism tests and
//! the QoR gate's relative tolerance cannot see a refactor that moves one
//! bit; this can.

use cp_netlist::floorplan::Floorplan;
use cp_netlist::generator::{DesignProfile, GeneratorConfig};
use cp_place::{GlobalPlacer, PlacementProblem, PlacementResult, PlacerBackendKind, PlacerOptions};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

fn result_hash(r: &PlacementResult) -> u64 {
    let mut h = FNV_OFFSET;
    for &(x, y) in &r.positions {
        h = fnv1a64(h, &x.to_bits().to_le_bytes());
        h = fnv1a64(h, &y.to_bits().to_le_bytes());
    }
    h = fnv1a64(h, &r.hpwl.to_bits().to_le_bytes());
    h = fnv1a64(h, &r.overflow.to_bits().to_le_bytes());
    h = fnv1a64(h, &(r.iterations as u64).to_le_bytes());
    fnv1a64(h, &[u8::from(r.diverged)])
}

/// A from-scratch problem on `profile` at `scale`.
fn problem(profile: DesignProfile, scale: f64) -> PlacementProblem {
    let netlist = GeneratorConfig::from_profile(profile)
        .scale(scale)
        .seed(1)
        .generate();
    let fp = Floorplan::try_for_netlist(&netlist, 0.7, 1.0).expect("valid geometry");
    PlacementProblem::from_netlist(&netlist, &fp)
}

/// Places `p` at 1 and 4 threads, requires the same bits from both and
/// returns the placement and its hash.
fn place_hashed(p: &PlacementProblem, options: PlacerOptions) -> (PlacementResult, u64) {
    let place = |threads| {
        cp_parallel::with_threads(threads, || {
            GlobalPlacer::new(options)
                .place(p)
                .expect("placement succeeds")
        })
    };
    let one = place(1);
    let hash = result_hash(&one);
    assert_eq!(result_hash(&place(4)), hash, "1 vs 4 threads");
    (one, hash)
}

/// The scratch and seeded placements of `p` (the seeded one starts from
/// the scratch result, as the clustered flow's flat placement does).
fn scratch_and_seeded(p: &PlacementProblem, options: PlacerOptions) -> [u64; 2] {
    let (scratch, h_scratch) = place_hashed(p, options);
    let seeded = p.clone().with_seeds(scratch.positions);
    let (_, h_seeded) = place_hashed(&seeded, options);
    [h_scratch, h_seeded]
}

#[test]
fn placements_below_the_axis_task_size_keep_their_bits() {
    let p = problem(DesignProfile::Aes, 0.01);
    assert!(p.movable_count() <= 1024, "{}", p.movable_count());
    let got = [
        scratch_and_seeded(&p, PlacerOptions::default()),
        scratch_and_seeded(
            &p,
            PlacerOptions {
                backend: PlacerBackendKind::EDensity,
                ..PlacerOptions::default()
            },
        ),
        scratch_and_seeded(
            &p,
            PlacerOptions {
                fault_nan_at_iteration: Some(3),
                ..PlacerOptions::default()
            },
        ),
    ];
    assert_eq!(
        got,
        [
            [0x0bf6_d369_9d8f_e9dc, 0xd0c6_8de6_0459_203c],
            [0xc38a_7eb0_f985_e019, 0x0384_54fc_97ae_2390],
            [0xa2df_e77f_56d4_52cb, 0x83e7_1e03_4a37_6eab],
        ],
        "B2B, eDensity and reverted placements of {} movables",
        p.movable_count()
    );
}

#[test]
fn placements_above_the_axis_task_size_keep_their_bits() {
    let p = problem(DesignProfile::Aes, 0.3);
    assert!(p.movable_count() > 1024, "{}", p.movable_count());
    let got = scratch_and_seeded(&p, PlacerOptions::default());
    assert_eq!(
        got,
        [0xa1b7_a150_08f4_10f7, 0xf3e9_95d9_bb71_dd11],
        "placements of {} movables",
        p.movable_count()
    );
}
