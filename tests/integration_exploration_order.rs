//! Pins the composer's exploration order on the paper's models.
//!
//! The composer numbers states in breadth-first first-encounter order, and
//! every downstream number (lumping, solver iterates, golden output) is built
//! on that numbering. Each test folds every explored state, in index order,
//! and every `(row, column, rate bits)` entry of the rate matrix into one
//! FNV-1a hash, so a change to the numbering, the transition order or any
//! rate bit changes the pinned constant.

use arcade_core::{CompiledModel, ComponentStatus, ComposerOptions, LumpingMode, QueueDiscipline};
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

/// The flat Line 1 FRF-1 chain: 111,809 states and 469,007 transitions. It
/// is the largest flat chain of the paper, and its 11 components need a
/// two-word packed key whose queue slots straddle the word boundary.
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
