//! Property-based tests of the state-space composer on randomly generated
//! Arcade models.

use arcade_core::{
    ArcadeModel, BasicComponent, CompiledModel, Disaster, QueueDiscipline, RepairStrategy,
    RepairUnit,
};
use fault_tree::{StructureNode, SystemStructure};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ModelSpec {
    component_count: usize,
    mttfs: Vec<f64>,
    mttrs: Vec<f64>,
    strategy: RepairStrategy,
    crews: usize,
    redundant: bool,
}

fn arbitrary_spec() -> impl Strategy<Value = ModelSpec> {
    (
        2usize..=5,
        proptest::collection::vec(10.0f64..5000.0, 5),
        proptest::collection::vec(0.5f64..200.0, 5),
        prop_oneof![
            Just(RepairStrategy::Dedicated),
            Just(RepairStrategy::FirstComeFirstServe),
            Just(RepairStrategy::FastestRepairFirst),
            Just(RepairStrategy::FastestFailureFirst),
        ],
        1usize..=3,
        any::<bool>(),
    )
        .prop_map(
            |(component_count, mttfs, mttrs, strategy, crews, redundant)| ModelSpec {
                component_count,
                mttfs,
                mttrs,
                strategy,
                crews,
                redundant,
            },
        )
}

fn build_model(spec: &ModelSpec) -> ArcadeModel {
    build_model_with(spec, QueueDiscipline::default())
}

fn build_model_with(spec: &ModelSpec, discipline: QueueDiscipline) -> ArcadeModel {
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
    let mut builder = ArcadeModel::builder("random", structure);
    for (i, name) in names.iter().enumerate() {
        builder = builder.component(
            BasicComponent::from_mttf_mttr(name, spec.mttfs[i], spec.mttrs[i])
                .unwrap()
                .with_failed_cost(3.0),
        );
    }
    builder = builder.repair_unit(
        RepairUnit::new("ru", spec.strategy.clone(), spec.crews)
            .unwrap()
            .responsible_for(names.clone())
            .with_idle_cost(1.0)
            .with_discipline(discipline),
    );
    builder = builder.disaster(Disaster::new("all", names).unwrap());
    builder.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn composed_chains_are_well_formed(spec in arbitrary_spec()) {
        let model = build_model(&spec);
        let compiled = CompiledModel::compile(&model).unwrap();
        let chain = compiled.chain();

        // Initial state: everything operational, service level 1, label consistency.
        prop_assert!(compiled.operational_mask()[compiled.initial_index()]);
        prop_assert!((compiled.service_levels()[compiled.initial_index()] - 1.0).abs() < 1e-12);

        // Every state has non-negative cost and a service level in [0, 1].
        for (idx, level) in compiled.service_levels().iter().enumerate() {
            prop_assert!((0.0..=1.0 + 1e-12).contains(level));
            prop_assert!(compiled.cost_rewards().state_rewards()[idx] >= 0.0);
        }

        // Labels partition consistently: "down" is the complement of "operational".
        let down = chain.label("down").unwrap();
        let operational = chain.label("operational").unwrap();
        for (d, o) in down.iter().zip(operational.iter()) {
            prop_assert!(d ^ o);
        }

        // Exit rates: the fully-failed state (if reachable) still has repairs
        // enabled, so no state other than none should be absorbing.
        for state in 0..chain.num_states() {
            prop_assert!(chain.exit_rates()[state] > 0.0);
        }
    }

    #[test]
    fn queue_encodings_agree_on_measures(spec in arbitrary_spec()) {
        let canonical_model = build_model_with(&spec, QueueDiscipline::PriorityCanonical);
        let arrival_model = build_model_with(&spec, QueueDiscipline::ArrivalOrder);
        let canonical = CompiledModel::compile(&canonical_model).unwrap();
        let arrival = CompiledModel::compile(&arrival_model).unwrap();
        // The priority-sorted queue merges behaviourally equivalent states.
        prop_assert!(canonical.stats().num_states <= arrival.stats().num_states);

        // Both disciplines give the same steady-state availability.
        let availability = |model: &ArcadeModel, compiled: &CompiledModel| -> f64 {
            let analysis = arcade_core::Analysis::from_compiled(model, compiled.clone());
            analysis.steady_state_availability().unwrap()
        };
        let a = availability(&canonical_model, &canonical);
        let b = availability(&arrival_model, &arrival);
        prop_assert!((a - b).abs() < 1e-6, "canonical {a} vs arrival-order {b}");
    }

    #[test]
    fn disaster_states_are_reachable_and_fully_failed(spec in arbitrary_spec()) {
        let model = build_model(&spec);
        let compiled = CompiledModel::compile(&model).unwrap();
        let disaster = model.disaster("all").unwrap();
        let index = compiled.disaster_state_index(disaster).unwrap();
        let state = compiled.state(index);
        prop_assert_eq!(state.num_failed(), spec.component_count);
        prop_assert!((compiled.service_levels()[index]).abs() < 1e-12);
        let good = compiled.chain_after_disaster(disaster).unwrap();
        prop_assert_eq!(good.initial_distribution()[index], 1.0);
    }

    #[test]
    fn dedicated_state_space_is_the_component_cross_product(
        mttfs in proptest::collection::vec(10.0f64..1000.0, 2..=6),
    ) {
        let names: Vec<String> = (0..mttfs.len()).map(|i| format!("c{i}")).collect();
        let structure = SystemStructure::new(StructureNode::series(
            names.iter().map(|n| StructureNode::component(n.clone())).collect(),
        ));
        let mut builder = ArcadeModel::builder("cross", structure);
        for (name, mttf) in names.iter().zip(mttfs.iter()) {
            builder = builder.component(BasicComponent::from_mttf_mttr(name, *mttf, 1.0).unwrap());
        }
        builder = builder.repair_unit(
            RepairUnit::new("ru", RepairStrategy::Dedicated, 1).unwrap().responsible_for(names.clone()),
        );
        let model = builder.build().unwrap();
        let compiled = CompiledModel::compile(&model).unwrap();
        prop_assert_eq!(compiled.stats().num_states, 1usize << names.len());
        prop_assert_eq!(compiled.stats().num_transitions, names.len() << names.len());
    }
}
