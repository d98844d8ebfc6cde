//! Property-based determinism tests of composition across worker counts:
//! compiling a model with any `ComposerOptions::exec` must produce
//! *bit-identical* results to the single-threaded compile — the same states
//! in the same order, the same transitions and rates, the same metadata — for
//! the flat and the compositional pipeline alike. The composer is serial and
//! ignores the worker pool, so this pins that the knob stays inert.

use arcade_core::{
    ArcadeModel, BasicComponent, CompiledModel, ComposerOptions, Disaster, ExecOptions,
    GlobalState, LumpingMode, RepairStrategy, RepairUnit,
};
use fault_tree::{StructureNode, SystemStructure};
use proptest::prelude::*;

const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Every explored state, in index order.
fn states(compiled: &CompiledModel) -> Vec<GlobalState> {
    (0..compiled.chain().num_states())
        .map(|index| compiled.state(index))
        .collect()
}

#[derive(Debug, Clone)]
struct ModelSpec {
    component_count: usize,
    mttfs: Vec<f64>,
    mttrs: Vec<f64>,
    /// Leading components sharing one MTTF/MTTR, forming an interchangeable
    /// family so the canonical-orbit frontier has real work to do.
    identical_prefix: usize,
    strategy: RepairStrategy,
    crews: usize,
}

fn arbitrary_spec() -> impl Strategy<Value = ModelSpec> {
    (
        5usize..=7,
        proptest::collection::vec(10.0f64..2000.0, 7),
        proptest::collection::vec(0.5f64..50.0, 7),
        0usize..=5,
        prop_oneof![
            Just(RepairStrategy::Dedicated),
            Just(RepairStrategy::FirstComeFirstServe),
            Just(RepairStrategy::FastestRepairFirst),
        ],
        1usize..=2,
    )
        .prop_map(
            |(component_count, mttfs, mttrs, identical_prefix, strategy, crews)| ModelSpec {
                component_count,
                mttfs,
                mttrs,
                identical_prefix,
                strategy,
                crews,
            },
        )
}

fn build_model(spec: &ModelSpec) -> ArcadeModel {
    let names: Vec<String> = (0..spec.component_count).map(|i| format!("c{i}")).collect();
    let children: Vec<StructureNode> = names
        .iter()
        .map(|n| StructureNode::component(n.clone()))
        .collect();
    let structure = SystemStructure::new(StructureNode::redundant(children));
    let mut builder = ArcadeModel::builder("parallel-random", structure);
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
            .with_idle_cost(1.0),
    );
    builder = builder.disaster(Disaster::new("all", names).unwrap());
    builder.build().unwrap()
}

fn compile(model: &ArcadeModel, lumping: LumpingMode, threads: usize) -> CompiledModel {
    CompiledModel::compile_with(
        model,
        ComposerOptions {
            lumping,
            exec: ExecOptions::with_threads(threads),
            ..Default::default()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_frontier_is_bit_identical_to_serial(spec in arbitrary_spec()) {
        let model = build_model(&spec);
        for lumping in [LumpingMode::Disabled, LumpingMode::Compositional] {
            let reference = compile(&model, lumping, 1);
            for threads in THREAD_COUNTS {
                let parallel = compile(&model, lumping, threads);
                // Same states in the same order (numbering is part of the
                // determinism contract), the same chain — rates, labels and
                // initial distribution — and the same per-state metadata.
                prop_assert_eq!(
                    states(&parallel), states(&reference),
                    "states, {:?}, {} threads", lumping, threads
                );
                prop_assert_eq!(
                    parallel.chain(), reference.chain(),
                    "chain, {:?}, {} threads", lumping, threads
                );
                prop_assert_eq!(
                    parallel.service_levels(), reference.service_levels(),
                    "service levels, {:?}, {} threads", lumping, threads
                );
                prop_assert_eq!(
                    parallel.operational_mask(), reference.operational_mask(),
                    "operational mask, {:?}, {} threads", lumping, threads
                );
                prop_assert_eq!(
                    parallel.cost_rewards(), reference.cost_rewards(),
                    "cost rewards, {:?}, {} threads", lumping, threads
                );
                // Disaster lookup resolves to the same index through the
                // state-index map.
                let disaster = model.disaster("all").unwrap();
                prop_assert_eq!(
                    parallel.disaster_state_index(disaster).unwrap(),
                    reference.disaster_state_index(disaster).unwrap()
                );
            }
        }
    }
}
