//! End-to-end checks of the isomorphic-subtree symmetry engine at the
//! facility level:
//!
//! * pinned reduction ladders for the paper's symmetric strategy pairs —
//!   Line 1 × Line 2 carries **no** cross-line symmetry, and the
//!   exact-lumping certificate proves the product minimal for the facility
//!   measures;
//! * pinned sorted-tuple orbit counts for twin facilities (two identical
//!   Line 2 copies), `n² → n(n+1)/2`, bit-identical at 1/2/4/8 threads;
//! * the matrix-free Kronecker-sum transient path agreeing with the
//!   product-form survivability curves;
//! * the shared facility suite matching the table runner and the direct
//!   `FacilityAnalysis` curve calls.

use arcade_core::{ComposerOptions, ExecOptions, FacilityAnalysis};
use watertreatment::experiments;
use watertreatment::{facility, strategies, Line};

type Curve = Vec<(f64, f64)>;

/// Steady-state values, then the product-form recovery and cost curves,
/// then the same two curves on the orbit-folded joint chain.
type TwinReference = (f64, f64, [Curve; 4]);

fn options(threads: usize) -> ComposerOptions {
    ComposerOptions {
        exec: ExecOptions::with_threads(threads),
        ..ComposerOptions::default()
    }
}

/// The paper's DED×DED facility: two *different* lines, so the symmetry
/// engine finds no interchangeable factors, and partition refinement
/// certifies that the 160 × 96 product is already the coarsest quotient
/// respecting the facility measures — no sound cross-line reduction exists.
#[test]
fn paper_pairs_carry_no_cross_line_symmetry() {
    let model = facility::facility_model(&strategies::dedicated(), &strategies::dedicated())
        .expect("facility builds");
    let analysis = FacilityAnalysis::new(&model).expect("facility compiles");
    assert_eq!(analysis.stats().orbit_blocks, None);
    let reduction = analysis.joint_reduction().unwrap();
    assert_eq!(reduction.product_blocks, 160 * 96);
    assert_eq!(reduction.orbit_blocks, None);
    assert_eq!(reduction.solver_blocks, 160 * 96);
    assert_eq!(
        reduction.exact_blocks, reduction.solver_blocks,
        "the minimality certificate: no coarser facility-measure quotient exists"
    );

    // The cheaper FRF-1 check: factor classes only (no refinement pass).
    let model = facility::facility_model(&strategies::frf(1), &strategies::frf(1)).unwrap();
    let analysis = FacilityAnalysis::new(&model).unwrap();
    let stats = analysis.stats();
    assert_eq!(stats.joint_blocks, 449 * 257);
    assert_eq!(stats.orbit_blocks, None);
}

/// Twin facilities fold: two identical Line 2 copies under one strategy have
/// interchangeable factor chains, so the joint tuples collapse to sorted
/// pairs — 96² = 9,216 → 96·97/2 = 4,656 under DED — with all measures
/// matching the product form and the matrix-free certificate, bit-identical
/// at every thread count. The recovery and cost curves are pinned both from
/// the per-group quotients and on the orbit-folded joint chain.
#[test]
fn twin_facility_orbit_counts_are_pinned_across_thread_counts() {
    let mut reference: Option<TwinReference> = None;
    for threads in [1usize, 2, 4, 8] {
        let model = facility::twin_facility(Line::Line2, &strategies::dedicated()).unwrap();
        let analysis = FacilityAnalysis::with_options(&model, options(threads)).unwrap();

        let stats = analysis.stats();
        assert_eq!(stats.joint_blocks, 96 * 96, "{threads} threads");
        assert_eq!(stats.orbit_blocks, Some(96 * 97 / 2), "{threads} threads");

        let reduction = analysis.joint_reduction().unwrap();
        assert_eq!(reduction.orbit_blocks, Some(4656));
        assert_eq!(reduction.solver_blocks, 4656);
        assert_eq!(
            reduction.exact_blocks, 4656,
            "the orbit fold already is the coarsest facility-measure quotient"
        );

        let joint = analysis.joint_steady_state_availability().unwrap();
        assert_eq!(joint.joint_states, 9216);
        assert_eq!(joint.solved_states, 4656);
        let product_form = analysis.steady_state_availability().unwrap();
        assert!(
            (joint.availability - product_form).abs() <= 1e-9,
            "{} vs {product_form}",
            joint.availability
        );
        assert!(joint.residual < 1e-9, "residual {}", joint.residual);

        let times = [0.5, 1.5, 4.0];
        let disaster = facility::FACILITY_DISASTER_ALL_PUMPS;
        let exec = ExecOptions::with_threads(threads);
        let folded = analysis.compiled_quotient().unwrap();
        assert_eq!(folded.num_states(), 4656);
        let curves = [
            analysis.survivability_curve(disaster, 1.0, &times).unwrap(),
            analysis
                .accumulated_cost_curve(Some(disaster), &times)
                .unwrap(),
            folded
                .survivability_curve(disaster, 1.0, &times, exec)
                .unwrap(),
            folded
                .accumulated_cost_curve(Some(disaster), &times, exec)
                .unwrap(),
        ];

        match &reference {
            None => {
                reference = Some((joint.availability, product_form, curves));
            }
            Some((availability, product, reference_curves)) => {
                assert!(
                    availability.to_bits() == joint.availability.to_bits()
                        && product.to_bits() == product_form.to_bits(),
                    "steady-state results differ at {threads} threads"
                );
                let names = [
                    "recovery",
                    "cost",
                    "joint-chain recovery",
                    "joint-chain cost",
                ];
                for ((name, expected), actual) in names.iter().zip(reference_curves).zip(&curves) {
                    for ((t1, v1), (t2, v2)) in expected.iter().zip(actual) {
                        assert_eq!(t1, t2);
                        assert!(
                            v1.to_bits() == v2.to_bits(),
                            "{name} differs at {threads} threads: {v1} vs {v2}"
                        );
                    }
                }
            }
        }
    }
}

/// Pinned orbit counts for all five symmetric strategy pairs as twins: the
/// closed form `n(n+1)/2` over the pinned Line 2 quotient sizes. (The heavy
/// FRF-2/FFF-2 orbit chains are materialised in the release-mode bench and
/// the `--symmetric-only` sweep; here the counts come from the closed form,
/// which never builds the chain.)
#[test]
fn twin_orbit_counts_match_the_closed_form_for_all_strategies() {
    let expected = [
        ("DED", 96usize),
        ("FRF-1", 257),
        ("FRF-2", 387),
        ("FFF-1", 257),
        ("FFF-2", 387),
    ];
    for (label, blocks) in expected {
        let spec = strategies::paper_strategies()
            .into_iter()
            .find(|s| s.label == label)
            .unwrap();
        let model = facility::twin_facility(Line::Line2, &spec).unwrap();
        let analysis = FacilityAnalysis::new(&model).unwrap();
        let stats = analysis.stats();
        assert_eq!(stats.joint_blocks, blocks * blocks, "{label}");
        assert_eq!(
            stats.orbit_blocks,
            Some(blocks * (blocks + 1) / 2),
            "{label}"
        );
    }
}

/// The matrix-free Kronecker-sum transient path on the unreduced joint
/// product agrees with the product-form curves, solved per group, to
/// ≤ 1e-9, on both the asymmetric paper facility and the twin.
#[test]
fn matrix_free_survivability_agrees_with_the_quotient_path() {
    let times = [0.0, 0.5, 1.0, 2.5];
    let paper =
        facility::facility_model(&strategies::dedicated(), &strategies::dedicated()).unwrap();
    let twin = facility::twin_facility(Line::Line2, &strategies::dedicated()).unwrap();
    for model in [&paper, &twin] {
        let analysis = FacilityAnalysis::new(model).unwrap();
        for level in [1.0, 1.0 / 3.0] {
            let product_form = analysis
                .survivability_curve(facility::FACILITY_DISASTER_ALL_PUMPS, level, &times)
                .unwrap();
            let matrix_free = analysis
                .matrix_free_survivability_curve(
                    facility::FACILITY_DISASTER_ALL_PUMPS,
                    level,
                    &times,
                )
                .unwrap();
            for ((t, a), (_, b)) in product_form.iter().zip(matrix_free.iter()) {
                assert!(
                    (a - b).abs() <= 1e-9,
                    "{}, level {level}, t={t}: {a} vs {b}",
                    model.name()
                );
            }
        }
    }
}

/// The shared facility suite (one `FacilityAnalysis` per pair across the
/// table and all four figures) reproduces the table runner and the direct
/// `FacilityAnalysis` curve calls bit for bit.
#[test]
fn facility_suite_matches_the_standalone_runners() {
    let pairs = [(strategies::dedicated(), strategies::dedicated())];
    let times = [0.0, 1.0, 2.0];
    let exec = ExecOptions::default();
    let suite = experiments::facility_suite(&pairs, &times, &times, &times, exec).unwrap();

    let table = experiments::table_facility(&pairs, exec).unwrap();
    assert_eq!(suite.table, table);
    assert_eq!(suite.table[0].solved_blocks, suite.table[0].joint_blocks);

    let model = facility::facility_model(&pairs[0].0, &pairs[0].1).unwrap();
    let analysis = FacilityAnalysis::new(&model).unwrap();
    let disaster = facility::FACILITY_DISASTER_ALL_PUMPS;
    assert_eq!(
        suite.recovery_full.series[0].points,
        analysis.survivability_curve(disaster, 1.0, &times).unwrap()
    );
    assert_eq!(
        suite.recovery_basic.series[0].points,
        analysis
            .survivability_curve(disaster, experiments::service_levels::LINE1_X1, &times)
            .unwrap()
    );
    assert_eq!(
        suite.cost_instantaneous.series[0].points,
        analysis
            .instantaneous_cost_curve(Some(disaster), &times)
            .unwrap()
    );
    assert_eq!(
        suite.cost_accumulated.series[0].points,
        analysis
            .accumulated_cost_curve(Some(disaster), &times)
            .unwrap()
    );
}
