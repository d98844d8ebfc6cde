//! Property-based round-trip tests of the Arcade XML format.

use arcade_core::{
    ArcadeModel, BasicComponent, Disaster, QueueDiscipline, RepairStrategy, RepairUnit,
    SpareManagementUnit,
};
use arcade_xml::{from_xml, to_xml};
use fault_tree::{StructureNode, SystemStructure};
use proptest::prelude::*;

fn arbitrary_strategy() -> impl Strategy<Value = RepairStrategy> {
    prop_oneof![
        Just(RepairStrategy::Dedicated),
        Just(RepairStrategy::FirstComeFirstServe),
        Just(RepairStrategy::FastestRepairFirst),
        Just(RepairStrategy::FastestFailureFirst),
        proptest::collection::vec(0usize..6, 1..4).prop_map(|order| RepairStrategy::Priority(
            order.into_iter().map(|i| format!("c{i}")).collect()
        )),
    ]
}

#[derive(Debug, Clone)]
struct Spec {
    count: usize,
    mttfs: Vec<f64>,
    mttrs: Vec<f64>,
    failed_costs: Vec<f64>,
    strategy: RepairStrategy,
    crews: usize,
    discipline: QueueDiscipline,
    with_spare_unit: bool,
    with_disaster: bool,
}

fn arbitrary_spec() -> impl Strategy<Value = Spec> {
    (
        2usize..=6,
        proptest::collection::vec(1.0f64..10000.0, 6),
        proptest::collection::vec(0.25f64..500.0, 6),
        proptest::collection::vec(0.0f64..10.0, 6),
        arbitrary_strategy(),
        1usize..=3,
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
                count,
                mttfs,
                mttrs,
                failed_costs,
                strategy,
                crews,
                discipline,
                with_spare_unit,
                with_disaster,
            )| Spec {
                count,
                mttfs,
                mttrs,
                failed_costs,
                strategy,
                crews,
                discipline,
                with_spare_unit,
                with_disaster,
            },
        )
}

fn build(spec: &Spec) -> ArcadeModel {
    let names: Vec<String> = (0..spec.count).map(|i| format!("c{i}")).collect();
    let structure = SystemStructure::new(StructureNode::required_of(
        spec.count.div_ceil(2),
        names
            .iter()
            .map(|n| StructureNode::component(n.clone()))
            .collect(),
    ));
    let mut builder = ArcadeModel::builder("generated", structure);
    for (i, name) in names.iter().enumerate() {
        let mut component = BasicComponent::from_mttf_mttr(name, spec.mttfs[i], spec.mttrs[i])
            .unwrap()
            .with_failed_cost(spec.failed_costs[i]);
        if spec.with_spare_unit && i == spec.count - 1 {
            component = component.with_dormancy_factor(0.25);
        }
        builder = builder.component(component);
    }
    // The priority strategy may reference components that do not exist in this
    // model; restrict it to declared names to keep the model valid.
    let strategy = match &spec.strategy {
        RepairStrategy::Priority(order) => RepairStrategy::Priority(
            order
                .iter()
                .filter(|n| names.contains(n))
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    builder = builder.repair_unit(
        RepairUnit::new("ru", strategy, spec.crews)
            .unwrap()
            .responsible_for(names.clone())
            .with_idle_cost(1.0)
            .with_discipline(spec.discipline),
    );
    if spec.with_spare_unit && spec.count >= 2 {
        builder = builder.spare_unit(
            SpareManagementUnit::new(
                "smu",
                names[..spec.count - 1].to_vec(),
                [names[spec.count - 1].clone()],
            )
            .unwrap(),
        );
    }
    if spec.with_disaster {
        builder = builder.disaster(Disaster::new("d", names).unwrap());
    }
    builder.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn models_round_trip_through_xml(spec in arbitrary_spec()) {
        let model = build(&spec);
        let xml = to_xml(&model);
        let restored = from_xml(&xml).expect("generated XML must parse");
        prop_assert_eq!(restored, model);
    }

    #[test]
    fn serialisation_is_deterministic(spec in arbitrary_spec()) {
        let model = build(&spec);
        prop_assert_eq!(to_xml(&model), to_xml(&model));
    }

    #[test]
    fn component_names_with_special_characters_round_trip(
        suffix in "[A-Za-z0-9 .&<>'\"-]{0,12}",
        mttf in 1.0f64..100.0,
    ) {
        let name = format!("pump {suffix}");
        let structure = SystemStructure::new(StructureNode::component(name.clone()));
        let model = ArcadeModel::builder("escaping", structure)
            .component(BasicComponent::from_mttf_mttr(&name, mttf, 1.0).unwrap())
            .build()
            .unwrap();
        let restored = from_xml(&to_xml(&model)).expect("escaped XML must parse");
        prop_assert_eq!(restored, model);
    }
}
