//! Property-based exactness tests of the compositional pipeline: composing
//! the per-family sub-chain quotients (canonical orbit exploration plus the
//! final exact pass) must agree with the flat chain on every measure within
//! 1e-9, while never exploring more states than the flat composition.

use arcade_core::{
    Analysis, ArcadeModel, BasicComponent, CompiledModel, ComposerOptions, Disaster, LumpingMode,
    QueueDiscipline, RepairStrategy, RepairUnit, SpareManagementUnit,
};
use fault_tree::{StructureNode, SystemStructure};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ModelSpec {
    component_count: usize,
    mttfs: Vec<f64>,
    mttrs: Vec<f64>,
    /// Leading components sharing one MTTF/MTTR: these become a genuine
    /// interchangeable family, so the compositional path has real work to do.
    identical_prefix: usize,
    strategy: RepairStrategy,
    crews: usize,
    discipline: QueueDiscipline,
    redundant: bool,
    with_spare: bool,
}

fn arbitrary_spec() -> impl Strategy<Value = ModelSpec> {
    (
        2usize..=4,
        proptest::collection::vec(10.0f64..2000.0, 5),
        proptest::collection::vec(0.5f64..50.0, 5),
        0usize..=4,
        prop_oneof![
            Just(RepairStrategy::Dedicated),
            Just(RepairStrategy::FirstComeFirstServe),
            Just(RepairStrategy::FastestRepairFirst),
            Just(RepairStrategy::FastestFailureFirst),
        ],
        1usize..=2,
        prop_oneof![
            Just(QueueDiscipline::PriorityCanonical),
            Just(QueueDiscipline::ArrivalOrder),
            Just(QueueDiscipline::Preemptive),
        ],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(
                component_count,
                mttfs,
                mttrs,
                identical_prefix,
                strategy,
                crews,
                discipline,
                redundant,
                with_spare,
            )| ModelSpec {
                component_count,
                mttfs,
                mttrs,
                identical_prefix,
                strategy,
                crews,
                discipline,
                redundant,
                with_spare,
            },
        )
}

fn build_model(spec: &ModelSpec) -> ArcadeModel {
    let names: Vec<String> = (0..spec.component_count).map(|i| format!("c{i}")).collect();
    let children: Vec<StructureNode> = names
        .iter()
        .map(|n| StructureNode::component(n.clone()))
        .collect();
    let structure = SystemStructure::new(if spec.redundant {
        StructureNode::redundant(children)
    } else {
        StructureNode::series(children)
    });
    let mut builder = ArcadeModel::builder("compositional-random", structure);
    for (i, name) in names.iter().enumerate() {
        let source = if i < spec.identical_prefix { 0 } else { i };
        builder = builder.component(
            BasicComponent::from_mttf_mttr(name, spec.mttfs[source], spec.mttrs[source])
                .unwrap()
                .with_failed_cost(3.0),
        );
    }
    builder = builder.repair_unit(
        RepairUnit::new("ru", spec.strategy.clone(), spec.crews)
            .unwrap()
            .responsible_for(names.clone())
            .with_idle_cost(1.0)
            .with_discipline(spec.discipline),
    );
    if spec.with_spare && spec.component_count >= 2 {
        let spare = names.last().unwrap().clone();
        let primaries: Vec<String> = names[..spec.component_count - 1].to_vec();
        builder = builder.spare_unit(SpareManagementUnit::new("smu", primaries, [spare]).unwrap());
    }
    builder = builder.disaster(Disaster::new("all", names).unwrap());
    builder.build().unwrap()
}

fn options(lumping: LumpingMode) -> ComposerOptions {
    ComposerOptions {
        lumping,
        ..Default::default()
    }
}

fn flat_and_compositional(model: &ArcadeModel) -> (Analysis<'_>, Analysis<'_>) {
    let flat = CompiledModel::compile_with(model, options(LumpingMode::Disabled)).unwrap();
    let compositional =
        CompiledModel::compile_with(model, options(LumpingMode::Compositional)).unwrap();
    (
        Analysis::from_compiled(model, flat),
        Analysis::from_compiled(model, compositional),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The Table 2 availability measures (and the other cross-level measures)
    /// agree between lump-then-compose and compose-then-lump to <= 1e-9.
    #[test]
    fn compositional_measures_match_the_flat_chain(spec in arbitrary_spec()) {
        let model = build_model(&spec);
        let (flat, compositional) = flat_and_compositional(&model);

        // Never more states than the flat exploration, and the final quotient
        // of the canonical chain is stable against it.
        let flat_states = flat.compiled().stats().num_states;
        let compiled = compositional.compiled();
        let stats = compiled.stats();
        prop_assert!(stats.num_states <= flat_states,
            "explored {} canonical states, flat has {flat_states}", stats.num_states);
        let lumped = compiled.lumped().unwrap();
        lumped.lumping().verify(compiled.chain(), 1e-9).unwrap();

        // The per-family breakdown partitions the components.
        let covered: usize = stats.subchains.iter().map(|s| s.members.len()).sum();
        prop_assert_eq!(covered, model.components().len());

        // Steady-state availability (Table 2).
        let a_flat = flat.steady_state_availability().unwrap();
        let a_comp = compositional.steady_state_availability().unwrap();
        prop_assert!((a_flat - a_comp).abs() <= 1e-9, "availability {a_flat} vs {a_comp}");

        // Long-run cost rate.
        let c_flat = flat.long_run_cost_rate().unwrap();
        let c_comp = compositional.long_run_cost_rate().unwrap();
        prop_assert!((c_flat - c_comp).abs() <= 1e-9, "cost rate {c_flat} vs {c_comp}");

        // Transient measures at a few horizons.
        for t in [0.5, 5.0, 50.0] {
            let r_flat = flat.reliability(t).unwrap();
            let r_comp = compositional.reliability(t).unwrap();
            prop_assert!((r_flat - r_comp).abs() <= 1e-9,
                "reliability({t}) {r_flat} vs {r_comp}");

            let p_flat = flat.point_availability(t).unwrap();
            let p_comp = compositional.point_availability(t).unwrap();
            prop_assert!((p_flat - p_comp).abs() <= 1e-9,
                "point availability({t}) {p_flat} vs {p_comp}");
        }

        // Accumulated cost from the regular initial state.
        let acc_flat = flat.accumulated_cost_curve(None, &[1.0, 10.0]).unwrap();
        let acc_comp = compositional.accumulated_cost_curve(None, &[1.0, 10.0]).unwrap();
        for ((t, a), (_, b)) in acc_flat.iter().zip(acc_comp.iter()) {
            prop_assert!((a - b).abs() <= 1e-9, "accumulated cost({t}) {a} vs {b}");
        }
    }

    /// Disaster-started measures take the canonical-orbit route through
    /// `disaster_state_index`; they must agree with the flat pipeline too.
    #[test]
    fn compositional_survivability_and_disaster_costs_match(spec in arbitrary_spec()) {
        let model = build_model(&spec);
        let (flat, compositional) = flat_and_compositional(&model);
        let disaster = model.disaster("all").unwrap();

        for level in [0.5, 1.0] {
            for t in [0.5, 2.0, 20.0] {
                let s_flat = flat.survivability(disaster, level, t).unwrap();
                let s_comp = compositional.survivability(disaster, level, t).unwrap();
                prop_assert!((s_flat - s_comp).abs() <= 1e-9,
                    "survivability({level}, {t}) {s_flat} vs {s_comp}");
            }
        }

        let inst_flat = flat.instantaneous_cost_curve(Some(disaster), &[0.0, 2.0]).unwrap();
        let inst_comp = compositional
            .instantaneous_cost_curve(Some(disaster), &[0.0, 2.0])
            .unwrap();
        for ((t, a), (_, b)) in inst_flat.iter().zip(inst_comp.iter()) {
            prop_assert!((a - b).abs() <= 1e-9, "instantaneous cost({t}) {a} vs {b}");
        }
    }

    /// Compose-then-lump (Exact) and lump-then-compose (Compositional) land
    /// on the same coarsest quotient: the final block counts coincide.
    #[test]
    fn final_quotients_coincide_with_the_flat_pipeline(spec in arbitrary_spec()) {
        let model = build_model(&spec);
        let exact =
            CompiledModel::compile_with(&model, options(LumpingMode::Exact)).unwrap();
        let compositional =
            CompiledModel::compile_with(&model, options(LumpingMode::Compositional))
                .unwrap();
        let exact_blocks = exact.lumped().unwrap().num_blocks();
        let comp_blocks = compositional.lumped().unwrap().num_blocks();
        prop_assert_eq!(exact_blocks, comp_blocks,
            "coarsest quotient must not depend on the composition order");
        // The canonical chain sits between the quotient and the flat chain.
        prop_assert!(compositional.stats().num_states >= comp_blocks);
        prop_assert!(compositional.stats().num_states <= exact.stats().num_states);
    }
}
