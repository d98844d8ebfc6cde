//! End-to-end checks of the two-line facility product pipeline.
//!
//! * pinned joint block counts for **all** strategy pairs (the product of the
//!   pinned per-line quotient sizes, e.g. FRF-1 × FRF-1 = 449 × 257);
//! * `table_facility_with` validating the paper's `A = A1 + A2 − A1·A2`
//!   against the genuine joint chain to ≤ 1e-9 for several strategy pairs;
//! * the flagship FRF-1 × FRF-1 product solved end to end through the
//!   sharded exec path with bit-identical results at 1/2/4/8 threads;
//! * the product-form recovery and cost curves against the same curves on
//!   the materialised joint chain;
//! * the joint-exploration fallback when two lines share a repair unit.

use arcade_core::{ComposerOptions, ExecOptions, FacilityAnalysis, FacilityModel};
use watertreatment::experiments::{self, service_levels, TableFacilityRow};
use watertreatment::{facility, strategies, Line, StrategySpec};

type Curve = Vec<(f64, f64)>;

fn exec_options(threads: usize) -> ComposerOptions {
    ComposerOptions {
        exec: ExecOptions::with_threads(threads),
        ..ComposerOptions::default()
    }
}

/// The pinned per-line quotient sizes (canonical compositional counts, which
/// the final exact pass confirms as the coarsest quotients).
fn quotient_blocks(spec: &StrategySpec) -> (usize, usize) {
    match spec.label.as_str() {
        "DED" => (160, 96),
        "FRF-1" | "FFF-1" => (449, 257),
        "FRF-2" | "FFF-2" => (727, 387),
        other => panic!("no pinned counts for {other}"),
    }
}

/// Joint block counts for all 25 strategy pairs equal the product of the
/// per-line quotient sizes — the facility layer composes the quotients, not
/// the flat chains.
#[test]
fn joint_block_counts_are_pinned_for_all_strategy_pairs() {
    // Compile each line once per strategy and read the solver-chain sizes
    // through the facility stats, then check every pairing.
    let specs = strategies::paper_strategies();
    for spec1 in &specs {
        for spec2 in &specs {
            let model = facility::facility_model(spec1, spec2).expect("facility builds");
            let analysis = FacilityAnalysis::new(&model).expect("facility compiles");
            let stats = analysis.stats();
            let (line1_expected, _) = quotient_blocks(spec1);
            let (_, line2_expected) = quotient_blocks(spec2);
            assert_eq!(
                stats.lines[0].stats.lumped_states,
                Some(line1_expected),
                "line 1 quotient for {}×{}",
                spec1.label,
                spec2.label
            );
            assert_eq!(
                stats.lines[1].stats.lumped_states,
                Some(line2_expected),
                "line 2 quotient for {}×{}",
                spec1.label,
                spec2.label
            );
            assert_eq!(
                stats.joint_blocks,
                line1_expected * line2_expected,
                "joint product for {}×{}",
                spec1.label,
                spec2.label
            );
            assert!(stats.lines.iter().all(|l| !l.jointly_explored));
        }
    }
}

/// `table_facility_with`: the combined-availability formula is validated
/// against the genuine joint chain to ≤ 1e-9 for three cheap strategy pairs
/// (the flagship FRF-1 × FRF-1 pair has its own test below; the full
/// five-pair table runs in the `facility_product` bench and the
/// `wt_experiments facility` command).
#[test]
fn table_facility_validates_the_combined_availability_formula() {
    let pairs = [
        (strategies::dedicated(), strategies::dedicated()),
        (strategies::dedicated(), strategies::frf(1)),
        (strategies::fff(1), strategies::dedicated()),
    ];
    let rows = experiments::table_facility_with(&pairs, ExecOptions::default()).unwrap();
    assert_eq!(rows.len(), 3);
    let expected_blocks = [160 * 96, 160 * 257, 449 * 96];
    for (row, &blocks) in rows.iter().zip(expected_blocks.iter()) {
        assert_eq!(row.joint_blocks, blocks, "{}", row.pair);
        assert!(
            row.difference <= 1e-9,
            "{}: formula vs joint gap {}",
            row.pair,
            row.difference
        );
        assert!(
            row.residual < 1e-9,
            "{}: residual {}",
            row.pair,
            row.residual
        );
        assert!(
            (row.combined - watertreatment::combined_availability(row.line1, row.line2)).abs()
                < 1e-12
        );
    }
    // DED×DED reproduces the paper's Table 2 combined column.
    assert!(
        (rows[0].combined - 0.9536063).abs() < 5e-6,
        "{}",
        rows[0].combined
    );
}

/// The flagship acceptance case: the FRF-1 × FRF-1 facility product
/// (449 × 257 = 115,393 blocks) solves end to end through the sharded exec
/// path with **bit-identical** results at 1, 2, 4 and 8 threads, and the
/// joint-chain availability agrees with `A1 + A2 − A1·A2` to ≤ 1e-9. The
/// product-form recovery curve and the same curve on the materialised joint
/// chain are each pinned across thread counts too.
#[test]
fn frf1_pair_product_is_bit_identical_across_thread_counts() {
    let mut reference: Option<(TableFacilityRow, Curve, Curve)> = None;
    for threads in [1usize, 2, 4, 8] {
        let exec = ExecOptions::with_threads(threads);
        let model = facility::facility_model(&strategies::frf(1), &strategies::frf(1))
            .expect("facility builds");
        let analysis =
            FacilityAnalysis::with_options(&model, exec_options(threads)).expect("compiles");
        let stats = analysis.stats();
        assert_eq!(stats.joint_blocks, 449 * 257, "{threads} threads");

        let rows =
            experiments::table_facility_with(&[(strategies::frf(1), strategies::frf(1))], exec)
                .unwrap();
        let row = rows.into_iter().next().unwrap();
        assert_eq!(row.joint_blocks, 115_393);
        assert!(
            row.difference <= 1e-9,
            "{threads} threads: {}",
            row.difference
        );

        // A short facility recovery curve after the cross-line disaster,
        // from the per-group quotients and from the materialised product.
        let times = [0.5, 1.5];
        let curve = analysis
            .survivability_curve(facility::FACILITY_DISASTER_ALL_PUMPS, 1.0, &times)
            .unwrap();
        let joint_curve = analysis
            .compiled_quotient()
            .unwrap()
            .survivability_curve(facility::FACILITY_DISASTER_ALL_PUMPS, 1.0, &times, exec)
            .unwrap();

        match &reference {
            None => reference = Some((row, curve, joint_curve)),
            Some((reference_row, reference_curve, reference_joint)) => {
                // Bit-identical: the composition, materialisation and solves
                // must not depend on the thread count at all.
                assert!(
                    reference_row.joint.to_bits() == row.joint.to_bits()
                        && reference_row.combined.to_bits() == row.combined.to_bits()
                        && reference_row.line1.to_bits() == row.line1.to_bits()
                        && reference_row.line2.to_bits() == row.line2.to_bits(),
                    "steady-state results differ at {threads} threads"
                );
                for ((t1, v1), (t2, v2)) in reference_curve.iter().zip(curve.iter()) {
                    assert_eq!(t1, t2);
                    assert!(
                        v1.to_bits() == v2.to_bits(),
                        "recovery curve differs at {threads} threads: {v1} vs {v2}"
                    );
                }
                for ((t1, v1), (t2, v2)) in reference_joint.iter().zip(joint_curve.iter()) {
                    assert_eq!(t1, t2);
                    assert!(
                        v1.to_bits() == v2.to_bits(),
                        "joint recovery curve differs at {threads} threads: {v1} vs {v2}"
                    );
                }
            }
        }
    }
    let (row, _, _) = reference.unwrap();
    assert!((row.combined - 0.9470773).abs() < 5e-4, "{}", row.combined);
}

/// Asserts product-form and joint-chain curves agree to 1e-12 relative, and
/// exactly where the joint value is 0 or 1.
fn assert_matches_joint(product: &[(f64, f64)], joint: &[(f64, f64)], what: &str) {
    assert_eq!(product.len(), joint.len(), "{what}");
    for ((t, p), (joint_t, j)) in product.iter().zip(joint) {
        assert_eq!(t.to_bits(), joint_t.to_bits(), "{what}");
        if *j == 0.0 || *j == 1.0 {
            assert_eq!(p, j, "{what} at t={t}");
        } else {
            assert!(
                (p - j).abs() <= 1e-12 * j.abs(),
                "{what} at t={t}: product form {p} vs joint {j}"
            );
        }
    }
}

/// The oracle of the product-form facility curves: recovery at each level
/// and both cost curves after the all-pumps disaster, each checked against
/// the same curve on the materialised joint chain (`compiled_quotient`).
fn assert_curves_match_joint(analysis: &FacilityAnalysis, levels: &[f64], times: &[f64]) {
    let model = analysis.model();
    let joint = analysis.compiled_quotient().unwrap();
    let exec = analysis.options().exec;
    let disaster = facility::FACILITY_DISASTER_ALL_PUMPS;
    for &level in levels {
        assert_matches_joint(
            &analysis
                .survivability_curve(disaster, level, times)
                .unwrap(),
            &joint
                .survivability_curve(disaster, level, times, exec)
                .unwrap(),
            &format!("{}: recovery at level {level}", model.name()),
        );
    }
    assert_matches_joint(
        &analysis
            .instantaneous_cost_curve(Some(disaster), times)
            .unwrap(),
        &joint
            .instantaneous_cost_curve(Some(disaster), times, exec)
            .unwrap(),
        &format!("{}: instantaneous cost", model.name()),
    );
    assert_matches_joint(
        &analysis
            .accumulated_cost_curve(Some(disaster), times)
            .unwrap(),
        &joint
            .accumulated_cost_curve(Some(disaster), times, exec)
            .unwrap(),
        &format!("{}: accumulated cost", model.name()),
    );
}

/// The product-form curves match the materialised joint chain on DED × DED
/// (at both recovery levels the facility figures use), on FRF-1 × FRF-1
/// (a few points, 115,393 joint blocks) and on the Line 2 DED twin, whose
/// joint artifact is the orbit-folded chain.
#[test]
fn product_form_curves_match_the_joint_chain() {
    let ded = facility::facility_model(&strategies::dedicated(), &strategies::dedicated())
        .expect("facility builds");
    assert_curves_match_joint(
        &FacilityAnalysis::new(&ded).unwrap(),
        &[1.0, service_levels::LINE1_X1],
        &[0.0, 0.25, 0.5, 1.0, 2.0, 4.0],
    );

    let frf1 = facility::facility_model(&strategies::frf(1), &strategies::frf(1))
        .expect("facility builds");
    assert_curves_match_joint(&FacilityAnalysis::new(&frf1).unwrap(), &[1.0], &[0.5, 1.5]);

    let twin = facility::twin_facility(Line::Line2, &strategies::dedicated()).unwrap();
    let analysis = FacilityAnalysis::new(&twin).unwrap();
    assert!(
        analysis.compiled_quotient().unwrap().num_states() < analysis.stats().joint_blocks,
        "the twin's joint artifact is orbit-folded"
    );
    assert_curves_match_joint(
        &analysis,
        &[1.0, service_levels::LINE2_X1],
        &[0.0, 0.5, 1.5, 4.0],
    );
}

/// The matrix-free acceptance pin: for DED × DED and the flagship
/// FRF-1 × FRF-1 pair (449 × 257 = 115,393 blocks), the operator path —
/// which never materialises the joint chain — must match the materialised
/// Gauss–Seidel answer to ≤ 1e-10, carry its balance-residual certificate,
/// and report the solver tier it actually ran.
#[test]
fn operator_path_matches_the_materialised_joint_solve_for_paper_pairs() {
    let pairs = [
        (strategies::dedicated(), strategies::dedicated()),
        (strategies::frf(1), strategies::frf(1)),
    ];
    for (spec1, spec2) in pairs {
        let model = facility::facility_model(&spec1, &spec2).expect("facility builds");
        let analysis = FacilityAnalysis::new(&model).expect("facility compiles");
        // Operator solve first: it must not depend on (or populate) the
        // materialised joint cache.
        let operator = analysis.matrix_free_steady_state_availability().unwrap();
        let materialised = analysis.joint_steady_state_availability().unwrap();
        let label = format!("{}×{}", spec1.label, spec2.label);
        assert_eq!(operator.solver_tier, "krylov-operator", "{label}");
        assert_eq!(materialised.solver_tier, "gs-materialised", "{label}");
        assert!(operator.iterations >= 1, "{label}");
        assert_eq!(operator.joint_states, materialised.joint_states, "{label}");
        assert_eq!(operator.solved_states, operator.joint_states, "{label}");
        assert!(
            (operator.availability - materialised.availability).abs() <= 1e-10,
            "{label}: operator {} vs materialised {}",
            operator.availability,
            materialised.availability
        );
        assert!(
            operator.residual < 1e-9,
            "{label}: residual {}",
            operator.residual
        );
    }
}

/// Sharing one repair unit across the two lines must break the pure product:
/// the composition tree collapses to a single jointly-explored group.
#[test]
fn shared_repair_unit_disables_the_pure_product() {
    // Both lines are Line 2 instances whose repair unit carries the same
    // name, i.e. one physical crew pool for the whole facility.
    let spec = strategies::dedicated();
    let line = facility::line_model(watertreatment::Line::Line2, &spec).unwrap();
    let facility_model = FacilityModel::builder("one-crew-pool")
        .line("north", line.clone())
        .line("south", line)
        .build()
        .unwrap();
    let tree = facility_model.composition_tree();
    assert_eq!(tree.groups.len(), 1);
    assert!(tree.groups[0].is_joint());
    assert_eq!(tree.groups[0].shared_units, vec!["line2-ru".to_string()]);

    let analysis = FacilityAnalysis::new(&facility_model).expect("joint group compiles");
    let stats = analysis.stats();
    assert!(stats.lines.iter().all(|l| l.jointly_explored));
    // The merged group composes both lines' families in one namespace: its
    // canonical exploration is bounded by the product of the per-line
    // sub-chain bounds (96 × 96 under dedicated repair).
    assert_eq!(stats.lines[0].stats.num_states, 96 * 96);
    // Dedicated repair keeps the lines effectively independent even when the
    // unit is shared (one crew per component either way), so the genuine
    // joint availability still matches the independent formula — the point
    // is that the engine *proved* it by joint exploration instead of
    // assuming it.
    let joint = analysis.joint_steady_state_availability().unwrap();
    let a = analysis.line_availability(0).unwrap();
    let b = analysis.line_availability(1).unwrap();
    assert!((joint.availability - (a + b - a * b)).abs() <= 1e-9);
}
