//! The cross-crate facade test required by the offline-build milestone: drive the
//! `try_release_synthetic_graph` pipeline end-to-end through `kronpriv::prelude` on a small seeded
//! graph, then check the released artifacts — node/edge counts, the `[0, 1]` parameter box, and
//! that the release serializes through the in-workspace JSON layer (the path the bench harness
//! uses for every experiment record). Golden pins hold whole releases to fixed bits.

use kronpriv::prelude::*;
use kronpriv_graph::generators::preferential_attachment;
use kronpriv_json::ToJson;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The default-options release on an auto-sized pool.
fn release(g: &Graph, params: PrivacyParams, rng: &mut StdRng) -> SyntheticRelease {
    let options = PrivateEstimatorOptions::default();
    try_release_synthetic_graph(g, params, &options, rng, &Executor::new(0), &NullSink)
        .expect("a valid release")
}

#[test]
fn release_synthetic_graph_end_to_end_on_a_small_seeded_graph() {
    // A small sensitive graph: a 512-node SKG realization (k = 9) plays the part.
    let truth = Initiator2::new(0.95, 0.55, 0.2);
    let mut rng = StdRng::seed_from_u64(7);
    let secret = sample_fast(&truth, 9, &mut rng, &Executor::sequential());
    assert_eq!(secret.node_count(), 512);
    assert!(secret.edge_count() > 0);

    let release = release(&secret, PrivacyParams::new(1.0, 0.01), &mut rng);

    // Node count: the synthetic graph lives on the same padded 2^k node set.
    assert_eq!(release.synthetic.node_count(), 512);
    // Edge count: same order of magnitude as the sensitive graph (the private degree release
    // pins down the expected edge count).
    let ratio = release.synthetic.edge_count() as f64 / secret.edge_count() as f64;
    assert!((0.3..=3.0).contains(&ratio), "edge ratio {ratio}");

    // Every released initiator entry stays in [0, 1] and the estimate is canonical.
    let theta = release.estimate.fit.theta;
    for p in theta.as_array() {
        assert!((0.0..=1.0).contains(&p), "theta entry {p} outside [0, 1]");
    }
    assert!(theta.a >= theta.c);

    // The private intermediates the estimate publishes are finite.
    for v in release.estimate.private_statistics {
        assert!(v.is_finite());
    }

    // The whole release record serializes through the JSON layer used by the experiment
    // bookkeeping, and the document round-trips structurally.
    let doc = release.estimate.to_json();
    let text = doc.to_pretty_string();
    // The privacy boundary, at the outermost serialization point: no deny-listed field (the
    // exact triangle count, the raw noisy degree sequence) may appear as a key anywhere in
    // the serialized release, under any nesting. The list is the single shared const that
    // kronpriv-lint also enforces statically.
    for ident in kronpriv_lint::SENSITIVE_IDENTS {
        assert!(
            !text.contains(&format!("\"{ident}\"")),
            "sensitive field `{ident}` leaked into the release JSON"
        );
    }
    let reparsed = kronpriv_json::Json::parse(&text).expect("release JSON reparses");
    let a = reparsed
        .get("fit")
        .and_then(|fit| fit.get("theta"))
        .and_then(|t| t.get("a"))
        .and_then(|v| v.as_f64())
        .expect("fit.theta.a present");
    assert!((a - theta.a).abs() < 1e-15);
}

#[test]
fn release_is_reproducible_from_the_seed() {
    // Same seed, same release — the determinism the paper's experiment scripts rely on.
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        let secret =
            sample_fast(&Initiator2::new(0.9, 0.5, 0.2), 9, &mut rng, &Executor::sequential());
        let release = release(&secret, PrivacyParams::new(0.5, 0.01), &mut rng);
        (release.estimate.fit.theta, release.synthetic.edge_count())
    };
    assert_eq!(run(42), run(42));
    assert_ne!(run(42), run(43));
}

/// One pinned release: the published values as `f64` bits, the exact triangle count, and an
/// FNV-1a hash of the synthetic graph's canonical edge list.
struct Golden {
    graph: &'static str,
    exact_path: bool,
    theta: [u64; 3],
    private_statistics: [u64; 4],
    smooth_sensitivity: u64,
    released_triangles: u64,
    triangles: u64,
    synthetic_edges_fnv: u64,
}

/// Captured from the triangle kernels that ran on the input ids: the edge-merge triangle count
/// and the unpruned wedge scan for the local sensitivity. The degree-ordered kernels must
/// reproduce every bit. The exact path is cubic (one release on the 1024-node graph takes
/// ~20 s in a release build), so it runs on the two smaller graphs only.
const GOLDEN: &[Golden] = &[
    Golden {
        graph: "skg_k10",
        exact_path: false,
        theta: [0x3f506ff58c4680f5, 0x3ff0000000000000, 0x3f506fb210cf015a],
        private_statistics: [0x40895bc9acf7d01b, 0x40b33224d482cc4d, 0x4056b704e435f0db, 0x0],
        smooth_sensitivity: 0x4032d4d9af14e0f1,
        released_triangles: 0x4056b704e435f0db,
        triangles: 38,
        synthetic_edges_fnv: 0x68a5de15b7a11719,
    },
    Golden {
        graph: "skg_k14",
        exact_path: false,
        theta: [0x3ff0000000000000, 0x3fdcbab77c654462, 0x3fce7fdf6bb04335],
        private_statistics: [
            0x40d3bf4f6be2fea6,
            0x410fecf11b9197ed,
            0x40836973f6ab915a,
            0x414b4b6b7b1bcba5,
        ],
        smooth_sensitivity: 0x403347f02074cdca,
        released_triangles: 0x40836973f6ab915a,
        triangles: 349,
        synthetic_edges_fnv: 0x5ab91a49c05a2ac9,
    },
    Golden {
        graph: "pa_1200",
        exact_path: false,
        theta: [0x3ff0000000000000, 0x3fe2a3677c79a5dd, 0x3fbfb4af59cfceff],
        private_statistics: [
            0x40b1e884860e5251,
            0x40f470fd6b3df272,
            0x4087eca31f5c994a,
            0x4138202e8b46115d,
        ],
        smooth_sensitivity: 0x403a339e29bdfecf,
        released_triangles: 0x4087eca31f5c994a,
        triangles: 659,
        synthetic_edges_fnv: 0x5a0ade16c0656fc3,
    },
    Golden {
        graph: "skg_k8",
        exact_path: true,
        theta: [0x3f6d6e9821e40378, 0x3fee6b457734d67f, 0x3f6d6e94adbcbf58],
        private_statistics: [0x4055f79d39f70bbe, 0x409b8545e78061db, 0x0, 0x0],
        smooth_sensitivity: 0x402e530562ae2ada,
        released_triangles: 0xc060f7ae221c923b,
        triangles: 14,
        synthetic_edges_fnv: 0x1cae32c5a4ddae8a,
    },
    Golden {
        graph: "pa_300",
        exact_path: true,
        theta: [0x3feffffffffffffc, 0x3fe52965ae87bb2f, 0x3f9ccec781b7e099],
        private_statistics: [
            0x409064547acf08a9,
            0x40d41bc989c8c5f6,
            0x40703141f42f7bc5,
            0x4110040fee7c25b7,
        ],
        smooth_sensitivity: 0x4036368322ebb22b,
        released_triangles: 0x40703141f42f7bc5,
        triangles: 378,
        synthetic_edges_fnv: 0xb9b56d97d6be519,
    },
];

fn golden_graph(name: &str) -> Graph {
    let theta = Initiator2::new(0.99, 0.45, 0.25);
    let skg = |k: u32, seed: u64| {
        sample_fast(&theta, k, &mut StdRng::seed_from_u64(seed), &Executor::sequential())
    };
    match name {
        "skg_k8" => skg(8, 0x60_1D08),
        "skg_k10" => skg(10, 0x60_1D10),
        "skg_k14" => skg(14, 0x60_1D14),
        "pa_300" => preferential_attachment(300, 4, &mut StdRng::seed_from_u64(0x60_1DA3)),
        "pa_1200" => preferential_attachment(1200, 4, &mut StdRng::seed_from_u64(0x60_1DA0)),
        other => panic!("no golden graph named {other}"),
    }
}

fn fnv1a_edges(g: &Graph) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &(u, v) in g.edges() {
        for byte in u.to_le_bytes().into_iter().chain(v.to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn golden_releases_are_bit_identical_at_one_and_two_threads() {
    for golden in GOLDEN {
        let g = golden_graph(golden.graph);
        let options = PrivateEstimatorOptions {
            exact_smooth_sensitivity: golden.exact_path,
            ..Default::default()
        };
        for threads in [1usize, 2] {
            let case =
                format!("{} (exact path: {}) at {threads}T", golden.graph, golden.exact_path);
            let mut rng = StdRng::seed_from_u64(0x60_1DE0);
            let release = try_release_synthetic_graph(
                &g,
                PrivacyParams::new(0.5, 0.01),
                &options,
                &mut rng,
                &Executor::new(threads),
                &NullSink,
            )
            .expect("a valid release");
            let estimate = &release.estimate;
            let triangles = estimate.triangle_release.as_ref().expect("Δ is released");
            assert_eq!(estimate.fit.theta.as_array().map(f64::to_bits), golden.theta, "{case}");
            assert_eq!(
                estimate.private_statistics.map(f64::to_bits),
                golden.private_statistics,
                "{case}"
            );
            assert_eq!(triangles.smooth_sensitivity.to_bits(), golden.smooth_sensitivity, "{case}");
            assert_eq!(triangles.value.to_bits(), golden.released_triangles, "{case}");
            assert_eq!(triangles.exact, golden.triangles as f64, "{case}");
            assert_eq!(fnv1a_edges(&release.synthetic), golden.synthetic_edges_fnv, "{case}");
        }
    }
}
