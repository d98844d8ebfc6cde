//! Pins the composer's exploration order on the paper's models.
//!
//! The composer numbers states in breadth-first first-encounter order, and
//! every downstream number (lumping, solver iterates, golden output) is built
//! on that numbering. Each test folds every explored state, in index order,
//! and every `(row, column, rate bits)` entry of the rate matrix into one
//! FNV-1a hash, so a change to the numbering, the transition order or any
//! rate bit changes the pinned constant.

use arcade_core::{
    ArcadeModel, BasicComponent, CompiledModel, ComponentStatus, ComposerOptions, LumpingMode,
    QueueDiscipline, RepairStrategy, RepairUnit, SpareManagementUnit,
};
use fault_tree::{StructureNode, SystemStructure};
use watertreatment::{facility, strategies, Line, StrategySpec};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

fn fnv1a_word(hash: &mut u64, word: u64) {
    fnv1a(hash, &word.to_le_bytes());
}

/// FNV-1a over the states in index order (statuses, then every queue with
/// its length) followed by the rate matrix in row order.
fn exploration_fingerprint(compiled: &CompiledModel) -> u64 {
    let mut hash = FNV_OFFSET;
    for index in 0..compiled.chain().num_states() {
        let state = compiled.state(index);
        for &status in &state.statuses {
            let code: u8 = match status {
                ComponentStatus::Operational => 0,
                ComponentStatus::Dormant => 1,
                ComponentStatus::WaitingForRepair => 2,
                ComponentStatus::UnderRepair => 3,
            };
            fnv1a(&mut hash, &[code]);
        }
        for queue in &state.queues {
            fnv1a_word(&mut hash, queue.len() as u64);
            for &component in queue {
                fnv1a_word(&mut hash, component as u64);
            }
        }
    }
    let rates = compiled.chain().rate_matrix();
    for row in 0..rates.num_rows() {
        let (columns, values) = rates.row(row);
        for (&column, &rate) in columns.iter().zip(values) {
            fnv1a_word(&mut hash, row as u64);
            fnv1a_word(&mut hash, column as u64);
            fnv1a_word(&mut hash, rate.to_bits());
        }
    }
    hash
}

fn compile(line: Line, spec: &StrategySpec, lumping: LumpingMode) -> CompiledModel {
    let model = facility::line_model(line, spec).unwrap();
    CompiledModel::compile_with(
        &model,
        ComposerOptions {
            lumping,
            ..ComposerOptions::default()
        },
    )
    .unwrap()
}

/// The flat Line 2 FRF-1 chain: 8,129 states and 32,029 transitions.
#[test]
fn flat_line2_frf1_exploration_order_is_pinned() {
    let compiled = compile(Line::Line2, &strategies::frf(1), LumpingMode::Disabled);
    assert_eq!(compiled.stats().num_states, 8129);
    assert_eq!(compiled.stats().num_transitions, 32029);
    assert_eq!(exploration_fingerprint(&compiled), 0x9b4f_82a6_08db_3b62);
}

/// The flat Line 1 FRF-1 chain: 111,809 states and 469,007 transitions, the
/// largest flat chain of the paper. Its packed key fills 62 of 64 bits: 11
/// two-bit statuses and 10 four-bit queue slots (11 members, one crew).
#[test]
fn flat_line1_frf1_exploration_order_is_pinned() {
    let compiled = compile(Line::Line1, &strategies::frf(1), LumpingMode::Disabled);
    assert_eq!(compiled.stats().num_states, 111_809);
    assert_eq!(compiled.stats().num_transitions, 469_007);
    assert_eq!(exploration_fingerprint(&compiled), 0x174b_1125_676d_533a);
}

/// The canonical (compositional) Line 1 FRF-2 chain: 727 orbit
/// representatives.
#[test]
fn canonical_line1_frf2_exploration_order_is_pinned() {
    let compiled = compile(Line::Line1, &strategies::frf(2), LumpingMode::Compositional);
    assert_eq!(compiled.stats().num_states, 727);
    assert_eq!(exploration_fingerprint(&compiled), 0x8972_7a20_f495_37c6);
}

/// The flat Line 2 FRF-2 chain under preemptive repair: 512 states, one per
/// failed set, since a preemptive unit keeps no queue.
#[test]
fn flat_line2_frf2p_exploration_order_is_pinned() {
    let compiled = compile(
        Line::Line2,
        &strategies::frf_preemptive(2),
        LumpingMode::Disabled,
    );
    assert_eq!(compiled.stats().num_states, 512);
    assert_eq!(compiled.stats().num_transitions, 3317);
    assert_eq!(exploration_fingerprint(&compiled), 0xf685_b8d0_fd3f_21dc);
}

/// The canonical Line 2 FRF-1 chain with its queue kept in arrival order:
/// 15,227 orbit representatives that lump to the same 257 blocks as the
/// priority-sorted queue.
#[test]
fn canonical_line2_frf1_arrival_order_exploration_is_pinned() {
    let compiled = compile(
        Line::Line2,
        &strategies::frf(1).with_discipline(QueueDiscipline::ArrivalOrder),
        LumpingMode::Compositional,
    );
    assert_eq!(compiled.stats().num_states, 15_227);
    assert_eq!(compiled.stats().num_transitions, 30_452);
    assert_eq!(compiled.stats().lumped_states, Some(257));
    assert_eq!(exploration_fingerprint(&compiled), 0x19d6_d658_4ff0_4d96);
}

/// A flat model on the paths the paper's lines never take: a spare group
/// (`p1`, `p2` primaries, `s1` a spare that fails while dormant), one unit
/// keeping its queue in arrival order and one preemptive unit, and a
/// component that starts failed.
fn mixed_units_model() -> ArcadeModel {
    let component = |name: &str, mttf: f64, mttr: f64| {
        BasicComponent::from_mttf_mttr(name, mttf, mttr)
            .unwrap()
            .with_failed_cost(1.0)
    };
    let structure = SystemStructure::new(StructureNode::series(vec![
        StructureNode::redundant(["a1", "a2", "a3"].map(StructureNode::component).to_vec()),
        StructureNode::required_of(2, ["p1", "p2", "s1"].map(StructureNode::component).to_vec()),
        StructureNode::redundant(["b1", "b2"].map(StructureNode::component).to_vec()),
    ]));
    ArcadeModel::builder("mixed-units", structure)
        .component(component("a1", 100.0, 2.0))
        .component(component("a2", 150.0, 3.0))
        .component(component("a3", 300.0, 6.0))
        .component(component("p1", 80.0, 1.0))
        .component(component("p2", 90.0, 1.5))
        .component(component("s1", 120.0, 2.5).with_dormancy_factor(0.3))
        .component(component("b1", 200.0, 4.0))
        .component(component("b2", 250.0, 5.0).initially_failed())
        .repair_unit(
            RepairUnit::new("queued", RepairStrategy::FastestRepairFirst, 1)
                .unwrap()
                .responsible_for(["a1", "a2", "a3", "p1", "p2"])
                .with_idle_cost(0.5)
                .with_discipline(QueueDiscipline::ArrivalOrder),
        )
        .repair_unit(
            RepairUnit::new("preemptive", RepairStrategy::FastestFailureFirst, 1)
                .unwrap()
                .responsible_for(["s1", "b1", "b2"])
                .with_busy_cost(0.25)
                .with_discipline(QueueDiscipline::Preemptive),
        )
        .spare_unit(SpareManagementUnit::new("pumps", ["p1", "p2"], ["s1"]).unwrap())
        .build()
        .unwrap()
}

/// The flat chain of [`mixed_units_model`]. Besides the fingerprint, the
/// test checks that the walk takes every path it is there to pin: the
/// initial state has `b2` under repair, the dormant spare fails, and the
/// spare is activated both when a primary fails and when it comes back
/// from repair while a primary is still down.
#[test]
fn flat_mixed_units_exploration_order_is_pinned() {
    let compiled = CompiledModel::compile_with(
        &mixed_units_model(),
        ComposerOptions {
            lumping: LumpingMode::Disabled,
            ..ComposerOptions::default()
        },
    )
    .unwrap();
    let (p1, s1, b2) = (3, 5, 7);
    let initial = compiled.state(compiled.initial_index());
    assert_eq!(initial.statuses[b2], ComponentStatus::UnderRepair);
    assert_eq!(initial.statuses[s1], ComponentStatus::Dormant);

    let (mut dormant_failure, mut activated_on_failure, mut activated_on_repair) =
        (false, false, false);
    let rates = compiled.chain().rate_matrix();
    for row in 0..rates.num_rows() {
        let from = compiled.state(row);
        for &column in rates.row(row).0 {
            let to = compiled.state(column);
            let spare = (from.statuses[s1], to.statuses[s1]);
            dormant_failure |= spare.0 == ComponentStatus::Dormant && to.statuses[s1].is_failed();
            activated_on_failure |= spare
                == (ComponentStatus::Dormant, ComponentStatus::Operational)
                && !from.statuses[p1].is_failed()
                && to.statuses[p1].is_failed();
            activated_on_repair |=
                spare == (ComponentStatus::UnderRepair, ComponentStatus::Operational);
        }
    }
    assert!(dormant_failure && activated_on_failure && activated_on_repair);

    assert_eq!(compiled.stats().num_states, 2608);
    assert_eq!(compiled.stats().num_transitions, 11_394);
    assert_eq!(exploration_fingerprint(&compiled), 0x3913_1df1_1431_2df6);
}
