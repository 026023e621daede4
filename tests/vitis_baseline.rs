//! The Vitis baseline, placed and routed on demand, is bit for bit the one
//! every `-O3` compile used to place and route alongside its own design.
//!
//! Each row was recorded from a default `-O3` compile of a Rosetta app at
//! small scale while the fused P&R still ran inside `compile`: the fused
//! design's timing (`critical_ns`, `fmax_mhz`, `slr_crossings`,
//! `worst_net_ns`) and its virtual compile time (`hls`, `syn`, `pnr`, `bit`,
//! `riscv`), floats as their bits. Tab. 2's Vitis column, Tab. 3's Vitis
//! row and Fig. 11's Vitis points are priced from these numbers.

use pld::{compile, CompileOptions, OptLevel};
use pld_repro::vitis_baseline;
use rosetta::{suite, Scale};

type Timing = (u64, u64, u32, u64);
type Vtime = [u64; 5];

const PINNED: [(&str, Timing, Vtime); 6] = [
    (
        "3D Rendering",
        (
            0x4017333333333332,
            0x40658d3dcb08d3de,
            8,
            0x40068f5c28f5c28f,
        ),
        [
            0x4044f22d0e560418,
            0x4092200000000000,
            0x40a1eb1b3d07c84b,
            0x40843ada76d97b31,
            0,
        ],
    ),
    (
        "Digit Recognition",
        (
            0x400e3d70a3d70a3e,
            0x407088cde233788d,
            9,
            0x3ffb333333333334,
        ),
        [
            0x405124395810624e,
            0x409d360000000000,
            0x40b0c5d63886594b,
            0x40843ada76d97b31,
            0,
        ],
    ),
    (
        "Spam Filter",
        (
            0x40130a3d70a3d70a,
            0x406a42b06742b068,
            8,
            0x400170a3d70a3d71,
        ),
        [
            0x404dd2b020c49ba5,
            0x408a1c0000000000,
            0x4097b2532617c1be,
            0x40843ada76d97b31,
            0,
        ],
    ),
    (
        "Optical Flow",
        (
            0x4012b851eb851eb8,
            0x406ab59b59b59b5a,
            5,
            0x3ff8a3d70a3d70a4,
        ),
        [
            0x4057cf5c28f5c28f,
            0x40a2e70000000000,
            0x40b85155e9e1b08a,
            0x40843ada76d97b31,
            0,
        ],
    ),
    (
        "Face Detection",
        (
            0x4012666666666666,
            0x406b2c8590b21643,
            4,
            0x3ffae147ae147ae1,
        ),
        [
            0x404a8f9db22d0e56,
            0x408bd40000000000,
            0x4099699c779a6b51,
            0x40843ada76d97b31,
            0,
        ],
    ),
    (
        "Binary NN",
        (
            0x4013999999999999,
            0x4069829cbc14e5e1,
            24,
            0x40068f5c28f5c28f,
        ),
        [
            0x4055c0624dd2f1aa,
            0x40a43c0000000000,
            0x40b9de7c1bda511a,
            0x40843ada76d97b31,
            0,
        ],
    ),
];

#[test]
fn vitis_baseline_matches_the_pinned_fused_leg_on_every_rosetta_app() {
    let benches = suite(Scale::Small);
    assert_eq!(benches.len(), PINNED.len());
    let options = CompileOptions::new(OptLevel::O3);
    for (bench, (name, timing, vtime)) in benches.iter().zip(PINNED) {
        assert_eq!(bench.name, name);
        let app = compile(&bench.graph, &options).unwrap_or_else(|e| panic!("{name}: {e}"));
        let b = vitis_baseline(&app, &options)
            .unwrap_or_else(|| panic!("{name}: the fused design routes"));
        let t = &b.timing;
        let v = &b.vtime;
        assert_eq!(
            (
                t.critical_ns.to_bits(),
                t.fmax_mhz.to_bits(),
                t.slr_crossings,
                t.worst_net_ns.to_bits()
            ),
            timing,
            "{name}: fused timing {t:?}"
        );
        assert_eq!(
            [v.hls, v.syn, v.pnr, v.bit, v.riscv].map(f64::to_bits),
            vtime,
            "{name}: fused vtime {v:?}"
        );
    }
}
