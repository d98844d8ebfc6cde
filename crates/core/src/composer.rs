//! Explicit state-space composition of an Arcade model into a labelled CTMC.
//!
//! The composer explores the reachable global states of a model (component
//! modes plus repair-queue contents), producing a [`ctmc::Ctmc`] together with
//! per-state metadata: the quantitative service level, the "fully operational"
//! and "no service" classifications and the repair-cost reward structure. All
//! dependability and performability measures of the paper are then CSL/CSRL
//! queries against this compiled model.
//!
//! Failures never occur simultaneously (each transition changes exactly one
//! component), and spare activation and crew dispatch are deterministic side
//! effects of failure/repair events — exactly the deterministic Arcade
//! subclass that the paper maps to PRISM. Each repair unit queues and serves
//! its failed components by its [`QueueDiscipline`]; under the default one,
//! repair is non-preemptive, as in the paper.
//!
//! Under the default [`LumpingMode::Compositional`] the composer implements
//! the paper's compositional aggregation: the model's interchangeable
//! component families (per-line sub-chains, see [`crate::families`]) are
//! quotiented *before* the cross product by exploring canonical orbit
//! representatives, so the flat product chain is never materialised and the
//! number of explored states is bounded by the product of the per-family
//! quotient sizes.
//!
//! The walk is breadth-first over packed states. Each state is a
//! fixed-width key — two status bits per component, then one slot per member
//! of every queue a repair unit keeps — stored once in the arena of a
//! [`KeyTable`], which numbers keys in order of first appearance. The key
//! arena is the only copy of a state, and [`CompiledModel::state`] decodes
//! a state on demand.
//!
//! Successors are generated per event at the cost of what the event
//! changes. The state being expanded is decoded from its key, once, into
//! two scratch states: `source`, and `next`, to which each event is applied
//! by the rules of the component's repair unit and spare group. `next`
//! logs every status and queue those rules write, so the successor's key is
//! the source key with just the logged status fields and queue slots
//! rewritten, and `next` is then restored by copying the same fields back
//! from `source`. All successor keys of a state are generated before any is
//! looked up. Each row of the rate matrix goes straight into the chain's
//! compressed sparse row arrays once its state is expanded.
//!
//! The service level, operational flag and cost rate are evaluated once per
//! distinct status vector, the service and fault trees by leaf index, with
//! every structure leaf resolved to its component once per compile.

use std::collections::BTreeMap;

use arcade_lumping::{lump, subchain, InitialPartition, KeyTable, LumpedCtmc};
use arcade_telemetry::Recorder;
use ctmc::{Ctmc, ExecOptions, RewardStructure};
use serde::{Deserialize, Serialize};

use crate::disaster::Disaster;
use crate::error::ArcadeError;
use crate::families::{detect_families, detect_subtree_families, ComponentFamily, SubtreeFamily};
use crate::model::ArcadeModel;
use crate::repair::{QueueDiscipline, RepairStrategy};
use crate::state::{ComponentIndex, ComponentStatus, GlobalState};

/// How the composed CTMC is reduced before the solvers run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum LumpingMode {
    /// Keep the flat chain; every measure is solved on the full state space.
    Disabled,
    /// Exact (ordinary) lumping of the *flat* chain: the full product state
    /// space is materialised first, then the coarsest lumpable partition
    /// respecting service levels, the operational predicate and the cost
    /// rewards is computed, and all measures are solved on the quotient. The
    /// measures are unchanged (up to solver tolerance); only the matrices
    /// shrink. Use this mode when the flat counts themselves are of interest
    /// (the paper's Table 1 reports them).
    Exact,
    /// Compositional aggregation (the paper's actual pipeline, and the
    /// default): each interchangeable-component family — a per-line
    /// sub-chain — is lumped *before* the cross product. The composer
    /// explores canonical orbit representatives directly, so the number of
    /// explored states is bounded by the product of the per-family quotient
    /// sizes and the flat chain is never materialised. A final exact-lumping
    /// pass on the (already small) canonical chain then yields the same
    /// coarsest quotient as [`LumpingMode::Exact`], so all measures agree
    /// with the flat pipeline up to solver tolerance.
    #[default]
    Compositional,
}

/// Options controlling the state-space composition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ComposerOptions {
    /// Largest number of states a composition may hold: discovering one more
    /// aborts exploration with [`ArcadeError::StateSpaceTooLarge`]. States
    /// are indexed in 32 bits, so no composition holds more than 2³² states
    /// whatever this says.
    pub max_states: usize,
    /// Whether the composed chain is lumped for analysis (see [`LumpingMode`]).
    pub lumping: LumpingMode,
    /// Worker pool for the solvers downstream ([`crate::Analysis`] and the
    /// facility layer forward it). Composition itself is a serial walk and
    /// ignores it; the solvers give the same results for every thread count,
    /// so this knob changes wall-clock time only, never results.
    pub exec: ExecOptions,
}

impl Default for ComposerOptions {
    fn default() -> Self {
        ComposerOptions {
            max_states: 2_000_000,
            lumping: LumpingMode::default(),
            exec: ExecOptions::default(),
        }
    }
}

/// Size statistics of a composed state space (the paper's Table 1), before
/// and — when lumping is enabled — after the exact lumping reduction.
///
/// Under [`LumpingMode::Compositional`] the composed chain already is the
/// canonical product of the per-family sub-chain quotients, so `num_states`
/// counts the states actually explored, the `subchains` breakdown reports the
/// per-family reductions, and `subchain_state_bound` is the product of the
/// per-family quotient sizes that bounds the exploration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateSpaceStats {
    /// Number of reachable states of the composed chain (canonical orbit
    /// representatives under compositional lumping, flat states otherwise).
    pub num_states: usize,
    /// Number of transitions (distinct source/target pairs with positive rate).
    pub num_transitions: usize,
    /// Number of blocks of the final lumped quotient, when lumping is enabled.
    pub lumped_states: Option<usize>,
    /// Number of quotient transitions, when lumping is enabled.
    pub lumped_transitions: Option<usize>,
    /// Per-family ("per-line sub-chain") reduction breakdown; populated under
    /// [`LumpingMode::Compositional`], empty otherwise.
    pub subchains: Vec<SubchainStats>,
    /// Product of the per-family quotient sizes: an upper bound on the states
    /// explored by the compositional frontier (`None` unless compositional).
    /// Queue interleavings between families with *equal* dispatch priorities
    /// (FCFS) can exceed this status-multiset bound; for strategies with
    /// distinct priorities (DED, FRF, FFF on the paper's models) it holds.
    /// Isomorphic-subtree orbits only shrink the exploration further, so the
    /// bound stays valid in their presence.
    pub subchain_state_bound: Option<usize>,
    /// Isomorphic-subtree orbit families exploited by the canonical frontier
    /// (groups of ≥ 2 isomorphic sibling subtrees beyond single leaves);
    /// empty unless compositional. Each entry lists the aligned member names
    /// of every subtree in the group.
    #[serde(default)]
    pub subtree_orbits: Vec<SubtreeOrbitStats>,
}

/// One isomorphic-subtree orbit group of [`StateSpaceStats`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubtreeOrbitStats {
    /// The leaf names of each isomorphic subtree, aligned canonical order.
    pub blocks: Vec<Vec<String>>,
}

/// The local reduction of one interchangeable-component family's sub-chain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SubchainStats {
    /// Names of the family's members, in definition order.
    pub members: Vec<String>,
    /// Local states before lumping: one per status assignment of the members.
    pub local_states: usize,
    /// Local quotient blocks: one per status *multiset* of the members.
    pub local_blocks: usize,
}

/// Label attached to states in which the system is fully operational.
pub const LABEL_OPERATIONAL: &str = "operational";
/// Label attached to states in which the system is not fully operational.
pub const LABEL_DOWN: &str = "down";
/// Label attached to states in which no service at all is delivered.
pub const LABEL_NO_SERVICE: &str = "no_service";

/// An Arcade model compiled to a labelled CTMC with service levels and rewards.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    chain: Ctmc,
    component_names: Vec<String>,
    service_levels: Vec<f64>,
    operational: Vec<bool>,
    cost_rewards: RewardStructure,
    initial_index: usize,
    options: ComposerOptions,
    // The walk's resolved units: disaster (GOOD) states are built with the
    // same helpers the walk used.
    units: Units,
    // Every explored state's packed key, indexed like the CTMC states: the
    // only copy of each state. `state(i)` decodes one; a disaster state is
    // found by packing it and probing the table.
    key_layout: KeyLayout,
    state_keys: KeyTable,
    families: Vec<ComponentFamily>,
    subtree_families: Vec<SubtreeFamily>,
    lumped: Option<LumpedModel>,
}

/// The exactly lumped companion of a [`CompiledModel`]: the quotient chain
/// plus the per-block metadata every measure needs.
///
/// The initial partition separates states by service level, by the
/// operational predicate and by cost-reward rate, so every mask the analysis
/// layer builds is a union of blocks and every measure evaluated on the
/// quotient equals its flat counterpart (up to solver tolerance).
#[derive(Debug, Clone)]
pub struct LumpedModel {
    lumping: LumpedCtmc,
    cost_rewards: RewardStructure,
    service_levels: Vec<f64>,
    operational: Vec<bool>,
}

impl LumpedModel {
    fn build(
        chain: &Ctmc,
        service_levels: &[f64],
        operational: &[bool],
        cost_rewards: &RewardStructure,
    ) -> Result<Self, ArcadeError> {
        // The chain's labels already include the operational/down masks, so
        // `from_labels` separates those states; only the full service levels
        // and the reward rates add further distinctions.
        let mut initial = InitialPartition::from_labels(chain);
        initial.refine_by_f64(service_levels)?;
        initial.refine_by_f64(cost_rewards.state_rewards())?;
        let lumping = lump(chain, &initial)?;
        let quotient_rewards = lumping.lump_rewards(cost_rewards)?;
        let quotient_levels = lumping.project_values(service_levels)?;
        let quotient_operational = lumping.project_mask(operational)?;
        Ok(LumpedModel {
            lumping,
            cost_rewards: quotient_rewards,
            service_levels: quotient_levels,
            operational: quotient_operational,
        })
    }

    /// The block ↔ state maps and the quotient chain.
    pub fn lumping(&self) -> &LumpedCtmc {
        &self.lumping
    }

    /// The quotient CTMC all measures are solved on.
    pub fn quotient(&self) -> &Ctmc {
        self.lumping.quotient()
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.lumping.num_blocks()
    }

    /// The repair-cost reward structure lumped onto the quotient.
    pub fn cost_rewards(&self) -> &RewardStructure {
        &self.cost_rewards
    }

    /// The quantitative service level of every block.
    pub fn service_levels(&self) -> &[f64] {
        &self.service_levels
    }

    /// Mask of blocks in which the system is fully operational.
    pub fn operational_mask(&self) -> &[bool] {
        &self.operational
    }
}

/// Mask of entries whose service level is at least `threshold`, with the
/// shared boundary tolerance — kept in one place so the flat and the lumped
/// goal sets can never diverge on a service-level boundary.
pub(crate) fn service_at_least(levels: &[f64], threshold: f64) -> Vec<bool> {
    levels.iter().map(|&l| l >= threshold - 1e-12).collect()
}

impl CompiledModel {
    /// Compiles a model with default options.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::StateSpaceTooLarge`] if exploration exceeds the
    /// state limit, or a numerics error if the chain cannot be built.
    pub fn compile(model: &ArcadeModel) -> Result<Self, ArcadeError> {
        Self::compile_with(model, ComposerOptions::default())
    }

    /// Compiles a model with explicit options.
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::compile`].
    pub fn compile_with(
        model: &ArcadeModel,
        options: ComposerOptions,
    ) -> Result<Self, ArcadeError> {
        let recorder = Recorder::current();
        let mut compiled = {
            let mut span = recorder.span("compose");
            let compiled = Composer::new(model, options)?.explore()?;
            span.count("components", model.components().len() as u64);
            span.count("states", compiled.chain.num_states() as u64);
            span.count("transitions", compiled.chain.num_transitions() as u64);
            compiled
        };
        if options.lumping != LumpingMode::Disabled {
            // Exact mode lumps the flat chain; compositional mode runs the
            // same final pass on the (already small) canonical chain, which
            // yields the same coarsest quotient as flat-then-lump.
            let mut span = recorder.span("lump");
            span.count("states", compiled.chain.num_states() as u64);
            let lumped = LumpedModel::build(
                &compiled.chain,
                &compiled.service_levels,
                &compiled.operational,
                &compiled.cost_rewards,
            )?;
            span.count("blocks", lumped.num_blocks() as u64);
            compiled.lumped = Some(lumped);
        }
        Ok(compiled)
    }

    /// The exactly lumped companion model, present when the composition ran
    /// with [`LumpingMode::Exact`] or [`LumpingMode::Compositional`] (the
    /// default), absent under [`LumpingMode::Disabled`].
    pub fn lumped(&self) -> Option<&LumpedModel> {
        self.lumped.as_ref()
    }

    /// Lumps this model on demand, regardless of the compile-time option.
    ///
    /// # Errors
    ///
    /// Propagates lumping-engine errors (which would indicate a bug: the
    /// initial partition is built from this model's own metadata).
    pub fn lump(&self) -> Result<LumpedModel, ArcadeError> {
        LumpedModel::build(
            &self.chain,
            &self.service_levels,
            &self.operational,
            &self.cost_rewards,
        )
    }

    /// The underlying labelled CTMC.
    pub fn chain(&self) -> &Ctmc {
        &self.chain
    }

    /// The explored global state with the given index (the index of its
    /// CTMC state), decoded from its packed key.
    ///
    /// # Panics
    ///
    /// If `index` is not below the number of states.
    pub fn state(&self, index: usize) -> GlobalState {
        let mut state = self.units.scratch_state();
        self.key_layout
            .unpack(self.state_keys.key(index), &mut state);
        state.into_global()
    }

    /// Names of the components, in the index order used by [`GlobalState`].
    pub fn component_names(&self) -> &[String] {
        &self.component_names
    }

    /// State-space size statistics (the paper's Table 1). The composed-chain
    /// counts are always present; the lumped counts are filled in whenever
    /// lumping is enabled, and the per-family sub-chain breakdown whenever the
    /// model was compiled with [`LumpingMode::Compositional`].
    pub fn stats(&self) -> StateSpaceStats {
        let compositional = self.options.lumping == LumpingMode::Compositional;
        let subchains: Vec<SubchainStats> = if compositional {
            self.families
                .iter()
                .map(|family| {
                    let quotient = subchain::SubchainQuotient::new(
                        family.members.len(),
                        self.status_alphabet(family.members[0]),
                    );
                    SubchainStats {
                        members: family
                            .members
                            .iter()
                            .map(|&c| self.component_names[c].clone())
                            .collect(),
                        local_states: quotient.flat_states(),
                        local_blocks: quotient.blocks(),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let subchain_state_bound = compositional.then(|| {
            subchains
                .iter()
                .fold(1usize, |acc, s| acc.saturating_mul(s.local_blocks))
        });
        let subtree_orbits = if compositional {
            self.subtree_families
                .iter()
                .map(|family| SubtreeOrbitStats {
                    blocks: family
                        .blocks
                        .iter()
                        .map(|block| {
                            block
                                .iter()
                                .map(|&c| self.component_names[c].clone())
                                .collect()
                        })
                        .collect(),
                })
                .collect()
        } else {
            Vec::new()
        };
        StateSpaceStats {
            num_states: self.chain.num_states(),
            num_transitions: self.chain.num_transitions(),
            lumped_states: self.lumped.as_ref().map(|l| l.quotient().num_states()),
            lumped_transitions: self.lumped.as_ref().map(|l| l.quotient().num_transitions()),
            subchains,
            subchain_state_bound,
            subtree_orbits,
        }
    }

    /// Size of the status alphabet of a component: spare-managed components
    /// additionally take the dormant status, components without a repair unit
    /// never leave the waiting status once failed, and components whose unit
    /// has a crew for every member (the dedicated strategy) never wait.
    fn status_alphabet(&self, component: ComponentIndex) -> usize {
        let dormant = usize::from(self.units.component_smu[component].is_some());
        // Failed statuses: waiting and/or under repair, depending on crews.
        let failed = match self.units.component_ru[component] {
            None => 1, // fails into waiting, is never repaired
            Some(ru) if self.units.repair[ru].crews >= self.units.repair[ru].members.len() => 1,
            Some(_) => 2,
        };
        1 + dormant + failed
    }

    /// The interchangeable-component families ("sub-chains") of the model, in
    /// definition order of their smallest member; singleton families included.
    pub fn families(&self) -> &[ComponentFamily] {
        &self.families
    }

    /// The isomorphic-subtree orbit families of the model (deepest first),
    /// exploited by the canonical frontier beyond the sibling-leaf families.
    pub fn subtree_families(&self) -> &[SubtreeFamily] {
        &self.subtree_families
    }

    /// The quantitative service level of every state.
    pub fn service_levels(&self) -> &[f64] {
        &self.service_levels
    }

    /// Mask of states in which the system is fully operational.
    pub fn operational_mask(&self) -> &[bool] {
        &self.operational
    }

    /// Mask of states in which the system is *not* fully operational.
    pub fn down_mask(&self) -> Vec<bool> {
        self.operational.iter().map(|&b| !b).collect()
    }

    /// Mask of states whose service level is at least `threshold`.
    pub fn service_at_least_mask(&self, threshold: f64) -> Vec<bool> {
        service_at_least(&self.service_levels, threshold)
    }

    /// The repair-cost reward structure (idle/busy crews plus failed components).
    pub fn cost_rewards(&self) -> &RewardStructure {
        &self.cost_rewards
    }

    /// Index of the model's regular initial state.
    pub fn initial_index(&self) -> usize {
        self.initial_index
    }

    /// The composition options used.
    pub fn options(&self) -> ComposerOptions {
        self.options
    }

    /// Index of the state reached immediately after the given disaster, with
    /// repair queues ordered by dispatch priority as the paper prescribes for
    /// GOOD models.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::InvalidDisaster`] if a component is unknown or the
    /// disaster state is not part of the reachable state space.
    pub fn disaster_state_index(&self, disaster: &Disaster) -> Result<usize, ArcadeError> {
        let state = self.build_disaster_state(disaster)?;
        let mut key = vec![0; self.key_layout.words];
        self.key_layout.pack(&state, &mut key);
        self.state_keys
            .find(&key)
            .map_err(|_| ArcadeError::InvalidDisaster {
                reason: format!(
                    "the state after disaster `{}` is not reachable in the composed model",
                    disaster.name()
                ),
            })
    }

    /// The state of the solver chain — the lumped quotient when the model
    /// is lumped, the flat chain otherwise — reached right after `disaster`,
    /// or the regular initial state for `None`. Ordinary lumpability makes
    /// starting the quotient in the block of the flat state exact.
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::disaster_state_index`].
    pub(crate) fn solver_start(&self, disaster: Option<&Disaster>) -> Result<usize, ArcadeError> {
        let flat = match disaster {
            Some(disaster) => self.disaster_state_index(disaster)?,
            None => self.initial_index,
        };
        Ok(match &self.lumped {
            Some(lumped) => lumped.lumping().block_of(flat),
            None => flat,
        })
    }

    /// Returns a copy of the chain whose initial distribution is the point mass
    /// on the state reached right after `disaster` (the GOOD model).
    ///
    /// # Errors
    ///
    /// See [`CompiledModel::disaster_state_index`].
    pub fn chain_after_disaster(&self, disaster: &Disaster) -> Result<Ctmc, ArcadeError> {
        let index = self.disaster_state_index(disaster)?;
        Ok(self.chain.with_initial_state(index)?)
    }

    fn build_disaster_state(&self, disaster: &Disaster) -> Result<ScratchState, ArcadeError> {
        let mut failed = Vec::new();
        for name in disaster.failed_components() {
            let idx = self
                .component_names
                .iter()
                .position(|n| n == name)
                .ok_or_else(|| ArcadeError::InvalidDisaster {
                    reason: format!(
                        "disaster `{}` references unknown component `{name}`",
                        disaster.name()
                    ),
                })?;
            failed.push(idx);
        }

        // Start from the regular initial state so that dormant spares and
        // initially-failed components keep their configuration. Queue
        // disasters in dispatch-priority order (ties: the order listed in the
        // disaster), as the paper does when the failure order is unknown.
        let mut state = self.units.scratch_state();
        self.key_layout
            .unpack(self.state_keys.key(self.initial_index), &mut state);
        failed.sort_by(|&a, &b| {
            let (pa, pb) = (self.units.priority_of(a), self.units.priority_of(b));
            pb.partial_cmp(&pa).unwrap_or(std::cmp::Ordering::Equal)
        });
        self.units.fail_at_once(&mut state, failed);
        if self.options.lumping == LumpingMode::Compositional {
            canonicalize_state(
                &mut state,
                &self.families,
                &self.subtree_families,
                &self.units.component_ru,
            );
        }
        Ok(state)
    }
}

/// A model's repair units and spare groups resolved to component indices:
/// the one table the walk and the disaster-state builder share. A unit's
/// discipline is read only by [`Units::enqueue`], [`Units::assign_crews`]
/// and the key layout built in [`Composer::new`].
#[derive(Debug, Clone)]
struct Units {
    /// The repair unit responsible for each component, if any.
    component_ru: Vec<Option<usize>>,
    /// The spare group each component belongs to, if any.
    component_smu: Vec<Option<usize>>,
    repair: Vec<ResolvedUnit>,
    spare: Vec<SpareGroup>,
}

/// One repair unit of [`Units`].
#[derive(Debug, Clone)]
struct ResolvedUnit {
    members: Vec<ComponentIndex>,
    /// Crews working at once: one per member under the dedicated strategy.
    crews: usize,
    /// `priorities[component]` is the dispatch priority of the component
    /// under the unit's strategy (indexed by global component index).
    priorities: Vec<f64>,
    /// The members by dispatch priority, highest first, ties in definition
    /// order: the order a preemptive unit serves its failed members in.
    service_order: Vec<ComponentIndex>,
    discipline: QueueDiscipline,
}

/// One spare management unit of [`Units`].
#[derive(Debug, Clone)]
struct SpareGroup {
    primaries: Vec<ComponentIndex>,
    spares: Vec<ComponentIndex>,
}

impl Units {
    fn new(model: &ArcadeModel) -> Result<Self, ArcadeError> {
        let n = model.components().len();
        let resolve = |names: &[String], referenced_by: &str| {
            names
                .iter()
                .map(|name| {
                    model
                        .component_index(name)
                        .ok_or_else(|| ArcadeError::UnknownComponent {
                            name: name.clone(),
                            referenced_by: referenced_by.to_string(),
                        })
                })
                .collect::<Result<Vec<_>, _>>()
        };

        let mut component_ru = vec![None; n];
        let mut repair = Vec::new();
        for (ru_idx, ru) in model.repair_units().iter().enumerate() {
            let members = resolve(ru.components(), &format!("repair unit `{}`", ru.name()))?;
            let mut priorities = vec![0.0; n];
            for &c in &members {
                component_ru[c] = Some(ru_idx);
                // The dedicated strategy repairs everything immediately;
                // priorities are irrelevant but kept at zero for determinism.
                if !matches!(ru.strategy(), RepairStrategy::Dedicated) {
                    priorities[c] = ru.strategy().priority_of(&model.components()[c]);
                }
            }
            let mut service_order = members.clone();
            service_order.sort_by(|&a, &b| {
                priorities[b]
                    .partial_cmp(&priorities[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            repair.push(ResolvedUnit {
                members,
                crews: ru.effective_crews(),
                priorities,
                service_order,
                discipline: ru.discipline(),
            });
        }

        let mut component_smu = vec![None; n];
        let mut spare = Vec::new();
        for (smu_idx, smu) in model.spare_units().iter().enumerate() {
            let referenced_by = format!("spare unit `{}`", smu.name());
            let group = SpareGroup {
                primaries: resolve(smu.primaries(), &referenced_by)?,
                spares: resolve(smu.spares(), &referenced_by)?,
            };
            for &c in group.primaries.iter().chain(&group.spares) {
                component_smu[c] = Some(smu_idx);
            }
            spare.push(group);
        }

        Ok(Units {
            component_ru,
            component_smu,
            repair,
            spare,
        })
    }

    /// Puts the just-failed component `c` into its repair unit's queue, in
    /// the place the unit's discipline keeps it: after every waiting
    /// component of at least its priority, at the back, or nowhere (a
    /// preemptive unit keeps no queue).
    fn enqueue(&self, state: &mut ScratchState, c: ComponentIndex) {
        let Some(ru) = self.component_ru[c] else {
            return;
        };
        let unit = &self.repair[ru];
        let queue = state.queue(ru);
        let pos = match unit.discipline {
            QueueDiscipline::PriorityCanonical => {
                let priority = unit.priorities[c];
                queue
                    .iter()
                    .position(|&other| unit.priorities[other] < priority - 1e-12)
                    .unwrap_or(queue.len())
            }
            QueueDiscipline::ArrivalOrder => queue.len(),
            QueueDiscipline::Preemptive => return,
        };
        state.insert_queued(ru, pos, c);
    }

    /// Hands repair unit `ru`'s crews to its failed components after a
    /// failure or repair event, as the unit's discipline prescribes.
    fn assign_crews(&self, state: &mut ScratchState, ru: usize) {
        let unit = &self.repair[ru];
        match unit.discipline {
            QueueDiscipline::PriorityCanonical | QueueDiscipline::ArrivalOrder => {
                dispatch(state, ru, unit)
            }
            QueueDiscipline::Preemptive => dispatch_preemptive(state, unit),
        }
    }

    /// Fails every listed component that is not failed yet, in the order
    /// given, then rebalances every spare group and assigns every unit's
    /// crews. Both the initial state (its initially failed components) and a
    /// disaster start this way.
    fn fail_at_once(
        &self,
        state: &mut ScratchState,
        failed: impl IntoIterator<Item = ComponentIndex>,
    ) {
        for c in failed {
            if !state.statuses[c].is_failed() {
                state.set_status(c, ComponentStatus::WaitingForRepair);
                self.enqueue(state, c);
            }
        }
        for group in &self.spare {
            rebalance_spares(state, group);
        }
        for ru in 0..self.repair.len() {
            self.assign_crews(state, ru);
        }
    }

    /// The all-operational state with empty queues, with room in every
    /// queue for all the unit's members.
    fn scratch_state(&self) -> ScratchState {
        ScratchState::new(
            self.component_ru.len(),
            self.repair.iter().map(|unit| match unit.discipline {
                QueueDiscipline::Preemptive => 0,
                _ => unit.members.len(),
            }),
        )
    }

    fn priority_of(&self, component: ComponentIndex) -> f64 {
        match self.component_ru[component] {
            Some(ru) => self.repair[ru].priorities[component],
            None => 0.0,
        }
    }
}

/// Internal exploration engine: the model's rates, its resolved [`Units`]
/// and the [`KeyLayout`] its states pack to.
struct Composer<'a> {
    model: &'a ArcadeModel,
    options: ComposerOptions,
    failure_rates: Vec<f64>,
    repair_rates: Vec<f64>,
    dormancy: Vec<f64>,
    component_names: Vec<String>,
    units: Units,
    families: Vec<ComponentFamily>,
    subtree_families: Vec<SubtreeFamily>,
    key_layout: KeyLayout,
}

impl<'a> Composer<'a> {
    fn new(model: &'a ArcadeModel, options: ComposerOptions) -> Result<Self, ArcadeError> {
        let n = model.components().len();
        let component_names: Vec<String> = model
            .components()
            .iter()
            .map(|c| c.name().to_string())
            .collect();
        let failure_rates: Vec<f64> = model
            .components()
            .iter()
            .map(|c| c.failure_rate())
            .collect();
        let repair_rates: Vec<f64> = model.components().iter().map(|c| c.repair_rate()).collect();
        let dormancy: Vec<f64> = model
            .components()
            .iter()
            .map(|c| c.dormancy_factor())
            .collect();
        let units = Units::new(model)?;

        // Every unit but a preemptive one keeps a queue. A component waits
        // only while every crew of its unit is busy, so once an event's
        // dispatch is done a unit queues at most `members - crews`.
        let key_layout = KeyLayout::new(
            n,
            units.repair.iter().map(|unit| match unit.discipline {
                QueueDiscipline::Preemptive => 0,
                _ => unit.members.len().saturating_sub(unit.crews),
            }),
        );

        Ok(Composer {
            model,
            options,
            failure_rates,
            repair_rates,
            dormancy,
            component_names,
            units,
            families: {
                let mut span = Recorder::current().span("detect-families");
                let families = detect_families(model);
                span.count("families", families.len() as u64);
                families
            },
            subtree_families: detect_subtree_families(model),
            key_layout,
        })
    }

    fn initial_state(&self) -> ScratchState {
        let mut state = self.units.scratch_state();
        // Spares start dormant.
        for group in &self.units.spare {
            for &s in &group.spares {
                state.set_status(s, ComponentStatus::Dormant);
            }
        }
        // Initially failed components enter their queues right away.
        let initially_failed = self
            .model
            .components()
            .iter()
            .enumerate()
            .filter(|(_, component)| component.is_initially_failed())
            .map(|(idx, _)| idx);
        self.units.fail_at_once(&mut state, initially_failed);
        state
    }

    /// The rate at which component `c` fails or finishes repair when its
    /// status is `status`; `None` when it has no event (it waits for a crew,
    /// or is a dormant spare that cannot fail).
    fn event_rate(&self, c: ComponentIndex, status: ComponentStatus) -> Option<f64> {
        match status {
            ComponentStatus::Operational => Some(self.failure_rates[c]),
            ComponentStatus::Dormant => {
                Some(self.failure_rates[c] * self.dormancy[c]).filter(|&rate| rate > 0.0)
            }
            ComponentStatus::UnderRepair => Some(self.repair_rates[c]),
            ComponentStatus::WaitingForRepair => None,
        }
    }

    fn apply_failure(&self, state: &mut ScratchState, c: ComponentIndex) {
        let was_active = state.statuses[c] == ComponentStatus::Operational;
        state.set_status(c, ComponentStatus::WaitingForRepair);
        self.units.enqueue(state, c);
        // Spare activation: a failed *active* component of a spare-managed group
        // is replaced by a dormant spare of the same group, if one is available.
        if was_active {
            if let Some(smu) = self.units.component_smu[c] {
                rebalance_spares(state, &self.units.spare[smu]);
            }
        }
        if let Some(ru) = self.units.component_ru[c] {
            self.units.assign_crews(state, ru);
        }
    }

    fn apply_repair(&self, state: &mut ScratchState, c: ComponentIndex) {
        state.set_status(c, ComponentStatus::Operational);
        if let Some(smu) = self.units.component_smu[c] {
            // A repaired spare goes back to dormant unless it is still needed;
            // a repaired primary sends a no-longer-needed spare back to dormant.
            let group = &self.units.spare[smu];
            if group.spares.contains(&c) {
                state.set_status(c, ComponentStatus::Dormant);
            }
            rebalance_spares(state, group);
        }
        if let Some(ru) = self.units.component_ru[c] {
            self.units.assign_crews(state, ru);
        }
    }

    fn state_cost(&self, state: &ScratchState) -> f64 {
        let mut cost = 0.0;
        for (idx, component) in self.model.components().iter().enumerate() {
            if state.statuses[idx].is_failed() {
                cost += component.failed_cost_per_hour();
            } else {
                cost += component.operational_cost_per_hour();
            }
        }
        for (unit, ru) in self.units.repair.iter().zip(self.model.repair_units()) {
            let busy = state.num_under_repair(&unit.members);
            let idle = unit.crews.saturating_sub(busy);
            cost += idle as f64 * ru.idle_cost_per_hour() + busy as f64 * ru.busy_cost_per_hour();
        }
        cost
    }

    fn explore(self) -> Result<CompiledModel, ArcadeError> {
        // Under compositional lumping the frontier runs over canonical orbit
        // representatives: every generated state is first mapped to its
        // family-wise canonical form (sibling-leaf families and whole
        // isomorphic-subtree blocks), so the flat product is never stored and
        // parallel events whose targets share an orbit aggregate their rates.
        let compositional = self.options.lumping == LumpingMode::Compositional
            && (self.families.iter().any(|f| !f.is_singleton())
                || !self.subtree_families.is_empty());
        let canonicalize = |state: &mut ScratchState| {
            if compositional {
                canonicalize_state(
                    state,
                    &self.families,
                    &self.subtree_families,
                    &self.units.component_ru,
                );
            }
        };

        let layout = &self.key_layout;
        let mut key = vec![0; layout.words];
        let mut keys = KeyTable::new(layout.words);
        let mut source = self.initial_state();
        canonicalize(&mut source);
        layout.pack(&source, &mut key);
        let vacant = keys.find(&key).expect_err("an empty table holds no key");
        keys.insert(vacant, &key);

        // Breadth-first walk: states are expanded in index order and each new
        // (canonical) successor is numbered the first time it is seen, so the
        // numbering and the transition order depend on the model alone. The
        // key arena is the only copy of each state: the state being expanded
        // is decoded from its key into the scratch states `source` and
        // `next`. Each event is applied to `next`, which logs the fields it
        // writes; the successor's key is the source key with just those
        // fields rewritten, and `next` then copies them back from `source`.
        // Row `current` of the rate matrix is complete once `current` is
        // expanded: its targets are sorted, parallel events summed in
        // emission order (only canonicalisation merges events, and merged
        // events share one rate), and the row appended to the CSR arrays.
        let max_states = self.options.max_states;
        let mut next = source.clone();
        let mut source_key = key.clone();
        let mut row: Vec<(usize, f64)> = Vec::new();
        let mut successors: Vec<u64> = Vec::new();
        let (mut row_offsets, mut cols, mut rates) = (vec![0], Vec::new(), Vec::new());
        let mut current = 0;
        while current < keys.len() {
            source_key.copy_from_slice(keys.key(current));
            layout.unpack(&source_key, &mut source);
            next.clone_from(&source);
            row.clear();
            successors.clear();
            for c in 0..source.statuses.len() {
                let status = source.statuses[c];
                let Some(rate) = self.event_rate(c, status) else {
                    continue;
                };
                if status == ComponentStatus::UnderRepair {
                    self.apply_repair(&mut next, c);
                } else {
                    self.apply_failure(&mut next, c);
                }
                canonicalize(&mut next);
                let start = successors.len();
                successors.extend_from_slice(&source_key);
                layout.rewrite(&mut successors[start..], &next, &source);
                next.revert_to(&source);
                row.push((0, rate));
            }
            for (key, (target, _)) in successors.chunks_exact(layout.words).zip(&mut row) {
                *target = match keys.find(key) {
                    Ok(index) => index,
                    Err(_) if keys.len() >= max_states => {
                        return Err(ArcadeError::StateSpaceTooLarge { limit: max_states });
                    }
                    Err(vacant) => {
                        let limit = keys.len();
                        keys.insert(vacant, key)
                            .ok_or(ArcadeError::StateSpaceTooLarge { limit })?
                    }
                };
            }
            row.sort_by_key(|&(target, _)| target);
            for events in row.chunk_by(|a, b| a.0 == b.0) {
                cols.push(events[0].0);
                rates.push(events.iter().map(|&(_, rate)| rate).sum());
            }
            row_offsets.push(cols.len());
            current += 1;
        }

        // Per-state metadata: service level, operational flag and cost rate.
        // All three read the statuses alone, so they are evaluated once per
        // distinct status vector (the status bits of the key), on a state
        // decoded only then, and copied to every state that shares it. The
        // trees are evaluated by leaf, each leaf resolved to its component
        // once here. They read only which leaves provide service, a set
        // that many status vectors share, so their results are also kept
        // per set (one bit per leaf).
        let service_tree = self.model.service_tree();
        let degraded_tree = self.model.degraded_fault_tree();
        let leaf_component: Vec<ComponentIndex> = self
            .model
            .structure()
            .leaves()
            .map(|name| {
                self.model
                    .component_index(name)
                    .expect("the model builder checked every structure leaf")
            })
            .collect();
        let mut status_key = vec![0; layout.status_words()];
        let mut status_keys = KeyTable::new(status_key.len());
        let mut status_metadata: Vec<(f64, bool, f64)> = Vec::new();
        let mut providers = vec![0u64; leaf_component.len().div_ceil(64).max(1)];
        let mut provider_sets = KeyTable::new(providers.len());
        let mut tree_results: Vec<(f64, bool)> = Vec::new();
        let num_states = keys.len();
        let mut service_levels = Vec::with_capacity(num_states);
        let mut operational = Vec::with_capacity(num_states);
        let mut costs = Vec::with_capacity(num_states);
        for index in 0..num_states {
            layout.status_bits(keys.key(index), &mut status_key);
            let (level, up, cost) = match status_keys.find(&status_key) {
                Ok(seen) => status_metadata[seen],
                Err(vacant) => {
                    status_keys
                        .insert(vacant, &status_key)
                        .expect("there are no more status vectors than states");
                    layout.unpack(keys.key(index), &mut source);
                    let provides =
                        |leaf: usize| source.statuses[leaf_component[leaf]].provides_service();
                    providers.fill(0);
                    for leaf in (0..leaf_component.len()).filter(|&leaf| provides(leaf)) {
                        providers[leaf / 64] |= 1 << (leaf % 64);
                    }
                    let (level, up) = match provider_sets.find(&providers) {
                        Ok(seen) => tree_results[seen],
                        Err(vacant) => {
                            provider_sets
                                .insert(vacant, &providers)
                                .expect("there are no more provider sets than states");
                            let level = |leaf: usize| if provides(leaf) { 1.0 } else { 0.0 };
                            tree_results.push((
                                service_tree.service_level_by_leaf(level),
                                !degraded_tree.is_failed_by_leaf(|leaf| !provides(leaf)),
                            ));
                            tree_results[tree_results.len() - 1]
                        }
                    };
                    let metadata = (level, up, self.state_cost(&source));
                    status_metadata.push(metadata);
                    metadata
                }
            };
            service_levels.push(level);
            operational.push(up);
            costs.push(cost);
        }

        let labels = BTreeMap::from([
            (LABEL_OPERATIONAL.to_string(), operational.clone()),
            (
                LABEL_DOWN.to_string(),
                operational.iter().map(|&b| !b).collect(),
            ),
            (
                LABEL_NO_SERVICE.to_string(),
                service_levels.iter().map(|&l| l <= 1e-12).collect(),
            ),
        ]);
        let chain = Ctmc::from_csr(row_offsets, cols, rates, 0, labels)?;
        let cost_rewards = RewardStructure::new("repair_cost", costs)?;

        Ok(CompiledModel {
            chain,
            component_names: self.component_names,
            service_levels,
            operational,
            cost_rewards,
            initial_index: 0,
            options: self.options,
            units: self.units,
            key_layout: self.key_layout,
            state_keys: keys,
            families: self.families,
            subtree_families: self.subtree_families,
            lumped: None,
        })
    }
}

/// The fixed-width bit layout of a packed state, derived from the model
/// when the composer is built.
///
/// A key is one little-endian bit string over [`KeyLayout::words`] words:
/// two bits per component holding its [`status_rank`], in component order,
/// then the queue of every repair unit that keeps one, as one slot per
/// member the unit can keep waiting (its members minus its crews), each slot
/// holding `component + 1`, or 0 when empty. Status
/// fields never straddle a word; queue slots may. A state is its statuses
/// plus an ordered queue of distinct members per such unit (preemptive units
/// keep no queue), so two states pack to equal keys exactly when they are
/// equal. Every word is built in a register and stored once.
#[derive(Debug, Clone)]
struct KeyLayout {
    num_components: usize,
    /// `(first bit, slots)` of every repair unit's queue; a unit without a
    /// queue in the key has no slots.
    queues: Vec<(usize, usize)>,
    /// Width of a queue slot: enough bits to hold `num_components`.
    slot_bits: usize,
    /// Words per key.
    words: usize,
}

impl KeyLayout {
    /// Lays out `num_components` statuses followed by the queue of every
    /// repair unit, in unit order, with the given number of slots each.
    fn new(num_components: usize, slots: impl IntoIterator<Item = usize>) -> Self {
        let slot_bits = (usize::BITS - num_components.leading_zeros()) as usize;
        let mut next_bit = 2 * num_components;
        let queues = slots
            .into_iter()
            .map(|slots| {
                let field = (next_bit, slots);
                next_bit += slots * slot_bits;
                field
            })
            .collect();
        KeyLayout {
            num_components,
            queues,
            slot_bits,
            words: next_bit.div_ceil(64).max(1),
        }
    }

    /// Words holding status bits: the leading words of every key.
    fn status_words(&self) -> usize {
        (2 * self.num_components).div_ceil(64).max(1)
    }

    /// Packs `state` into `key`, which holds [`KeyLayout::words`] words.
    fn pack(&self, state: &ScratchState, key: &mut [u64]) {
        key.fill(0);
        for (word, statuses) in key.iter_mut().zip(state.statuses.chunks(32)) {
            *word = statuses.iter().rev().fold(0, |bits, &status| {
                bits << 2 | u64::from(status_rank(status))
            });
        }
        for ru in 0..self.queues.len() {
            self.write_queue(key, ru, state.queue(ru), 0);
        }
    }

    /// Decodes `key` into `state`, the inverse of [`KeyLayout::pack`], and
    /// clears the state's log.
    fn unpack(&self, key: &[u64], state: &mut ScratchState) {
        for (statuses, &bits) in state.statuses.chunks_mut(32).zip(key) {
            for (field, status) in statuses.iter_mut().enumerate() {
                *status = status_from_rank((bits >> (2 * field)) as u8 & 3);
            }
        }
        let slot_mask = (1 << self.slot_bits) - 1;
        for (ru, &(first_bit, slots)) in self.queues.iter().enumerate() {
            let start = state.starts[ru];
            let mut len = 0;
            while len < slots {
                let bit = first_bit + len * self.slot_bits;
                let (word, shift) = (bit / 64, bit % 64);
                let mut value = key[word] >> shift;
                if shift + self.slot_bits > 64 {
                    value |= key[word + 1] << (64 - shift);
                }
                match value & slot_mask {
                    0 => break,
                    value => state.queued[start + len] = value as usize - 1,
                }
                len += 1;
            }
            state.lens[ru] = len;
        }
        state.clear_log();
    }

    /// Turns `key`, the key of `source`, into the key of `next`, which
    /// differs from `source` only in the fields `next` has logged.
    fn rewrite(&self, key: &mut [u64], next: &ScratchState, source: &ScratchState) {
        for &c in &next.written {
            let (word, shift) = (c / 32, 2 * (c % 32));
            let rank = u64::from(status_rank(next.statuses[c]));
            key[word] = key[word] & !(3 << shift) | rank << shift;
        }
        for &ru in &next.requeued {
            self.write_queue(key, ru, next.queue(ru), source.queue(ru).len());
        }
    }

    /// Writes `queue` into the leading slots of unit `ru`'s queue in `key`
    /// and empties the slots after it among the first `stale`, building each
    /// word in a register; every other bit keeps its value.
    fn write_queue(&self, key: &mut [u64], ru: usize, queue: &[ComponentIndex], stale: usize) {
        let (first_bit, room) = self.queues[ru];
        assert!(
            queue.len() <= room,
            "repair unit {ru} queues more components than its key has slots for"
        );
        let slots = queue.len().max(stale);
        if slots == 0 {
            return;
        }
        let low = |bits: usize| (1u64 << bits) - 1;
        let width = self.slot_bits;
        let (mut word, mut shift) = (first_bit / 64, first_bit % 64);
        // The word being built, starting from the bits below the field.
        let mut bits = key[word] & low(shift);
        for slot in 0..slots {
            let value = queue.get(slot).map_or(0, |&c| c as u64 + 1);
            bits |= value << shift;
            shift += width;
            if shift >= 64 {
                key[word] = bits;
                word += 1;
                shift -= 64;
                // What is left of a slot that straddles the word boundary.
                bits = if shift == 0 {
                    0
                } else {
                    value >> (width - shift)
                };
            }
        }
        if shift > 0 {
            key[word] = bits | key[word] & !low(shift);
        }
    }

    /// Copies the status bits of `key` into `status`, which holds
    /// [`KeyLayout::status_words`] words, clearing any queue bits that share
    /// the last status word.
    fn status_bits(&self, key: &[u64], status: &mut [u64]) {
        status.copy_from_slice(&key[..status.len()]);
        let used = 2 * self.num_components % 64;
        if used != 0 {
            status[status.len() - 1] &= (1 << used) - 1;
        }
    }
}

/// A state as the rules ([`Units::enqueue`], [`Units::assign_crews`] and
/// the dispatch and spare rules it calls) and [`canonicalize_state`] read
/// and write it: a status per component, and the queue of every repair unit
/// as one slice of a flat buffer with room for the unit's key slots.
///
/// The state logs the components and units whose fields it writes, so the
/// walk applies an event to a copy of the state being expanded, rewrites
/// only the logged fields of that state's key ([`KeyLayout::rewrite`]) and
/// copies the same fields back ([`ScratchState::revert_to`]): an event costs
/// what it changes, not what the state holds.
#[derive(Debug)]
struct ScratchState {
    statuses: Vec<ComponentStatus>,
    /// Unit `ru`'s queue is `queued[starts[ru]..starts[ru] + lens[ru]]`, and
    /// its room ends at `starts[ru + 1]`.
    queued: Vec<ComponentIndex>,
    starts: Vec<usize>,
    lens: Vec<usize>,
    /// Components whose status changed since the log was cleared, in
    /// order; one may appear more than once.
    written: Vec<ComponentIndex>,
    /// Units whose queue changed since the log was cleared, each once.
    requeued: Vec<usize>,
}

impl Clone for ScratchState {
    fn clone(&self) -> Self {
        ScratchState {
            statuses: self.statuses.clone(),
            queued: self.queued.clone(),
            starts: self.starts.clone(),
            lens: self.lens.clone(),
            written: self.written.clone(),
            requeued: self.requeued.clone(),
        }
    }

    /// Copies `source` into this state's existing buffers.
    fn clone_from(&mut self, source: &Self) {
        self.statuses.clone_from(&source.statuses);
        self.queued.clone_from(&source.queued);
        self.starts.clone_from(&source.starts);
        self.lens.clone_from(&source.lens);
        self.written.clone_from(&source.written);
        self.requeued.clone_from(&source.requeued);
    }
}

impl ScratchState {
    /// The all-operational state of `num_components` components with empty
    /// queues, with the given room in every unit's queue.
    fn new(num_components: usize, room: impl IntoIterator<Item = usize>) -> Self {
        let mut starts = vec![0];
        for room in room {
            starts.push(starts[starts.len() - 1] + room);
        }
        ScratchState {
            statuses: vec![ComponentStatus::Operational; num_components],
            queued: vec![0; starts[starts.len() - 1]],
            lens: vec![0; starts.len() - 1],
            starts,
            written: Vec::new(),
            requeued: Vec::new(),
        }
    }

    fn set_status(&mut self, c: ComponentIndex, status: ComponentStatus) {
        if self.statuses[c] != status {
            self.statuses[c] = status;
            self.written.push(c);
        }
    }

    /// Unit `ru`'s queue, front first.
    fn queue(&self, ru: usize) -> &[ComponentIndex] {
        let start = self.starts[ru];
        &self.queued[start..start + self.lens[ru]]
    }

    /// Puts `c` at position `pos` of unit `ru`'s queue.
    fn insert_queued(&mut self, ru: usize, pos: usize, c: ComponentIndex) {
        let (start, len) = (self.starts[ru], self.lens[ru]);
        assert!(
            start + len < self.starts[ru + 1],
            "repair unit {ru} queues more components than it has members"
        );
        self.queued
            .copy_within(start + pos..start + len, start + pos + 1);
        self.queued[start + pos] = c;
        self.lens[ru] += 1;
        self.log_queue(ru);
    }

    /// Takes the component at position `pos` out of unit `ru`'s queue.
    fn remove_queued(&mut self, ru: usize, pos: usize) -> ComponentIndex {
        let (start, len) = (self.starts[ru], self.lens[ru]);
        let c = self.queued[start + pos];
        self.queued
            .copy_within(start + pos + 1..start + len, start + pos);
        self.lens[ru] -= 1;
        self.log_queue(ru);
        c
    }

    /// Puts `c` into position `pos` of unit `ru`'s queue in place of the
    /// component there.
    fn set_queued(&mut self, ru: usize, pos: usize, c: ComponentIndex) {
        let at = self.starts[ru] + pos;
        debug_assert!(pos < self.lens[ru], "position {pos} is not in the queue");
        if self.queued[at] != c {
            self.queued[at] = c;
            self.log_queue(ru);
        }
    }

    fn log_queue(&mut self, ru: usize) {
        if !self.requeued.contains(&ru) {
            self.requeued.push(ru);
        }
    }

    fn clear_log(&mut self) {
        self.written.clear();
        self.requeued.clear();
    }

    /// Copies every logged field back from `source` and clears the log.
    fn revert_to(&mut self, source: &ScratchState) {
        for &c in &self.written {
            self.statuses[c] = source.statuses[c];
        }
        for &ru in &self.requeued {
            let (start, len) = (source.starts[ru], source.lens[ru]);
            self.queued[start..start + len].copy_from_slice(&source.queued[start..start + len]);
            self.lens[ru] = len;
        }
        self.clear_log();
    }

    /// Number of the given components under repair.
    fn num_under_repair(&self, components: &[ComponentIndex]) -> usize {
        components
            .iter()
            .filter(|&&c| self.statuses[c] == ComponentStatus::UnderRepair)
            .count()
    }

    fn into_global(self) -> GlobalState {
        GlobalState {
            queues: (0..self.lens.len())
                .map(|ru| self.queue(ru).to_vec())
                .collect(),
            statuses: self.statuses,
        }
    }
}

/// Maps a state to the canonical representative of its orbit under the
/// permutation group of the interchangeable-component families **and** the
/// isomorphic-subtree families.
///
/// Within each leaf family the members' roles — status plus (for waiting
/// components) the slot held in the repair unit's queue — are sorted into a
/// canonical order and reassigned to the members in definition order; queue
/// slots move along with the roles. Because family members share all rates,
/// costs and dispatch priorities and sit under the same symmetric structure
/// gate, this relabelling is a chain automorphism: canonical states compose to
/// exactly the product of the per-family sub-chain quotients.
///
/// Subtree families are then canonicalised deepest-first by sorting whole
/// blocks — each block's aligned role *vector* moves as a unit, statuses and
/// queue slots together. Leaf sorting before block sorting keeps every
/// block's role vector canonical under its internal symmetry, so the
/// resulting state is the unique representative of its orbit under the full
/// wreath-product group (a multiset of multisets, sorted inside-out).
fn canonicalize_state(
    state: &mut ScratchState,
    families: &[ComponentFamily],
    subtree_families: &[SubtreeFamily],
    component_ru: &[Option<usize>],
) {
    let role = |state: &ScratchState, c: ComponentIndex| {
        let queue_slot = component_ru[c]
            .and_then(|r| state.queue(r).iter().position(|&x| x == c))
            .unwrap_or(usize::MAX);
        (status_rank(state.statuses[c]), queue_slot)
    };
    let assign = |state: &mut ScratchState, c: ComponentIndex, (rank, queue_slot): (u8, usize)| {
        state.set_status(c, status_from_rank(rank));
        if queue_slot != usize::MAX {
            if let Some(r) = component_ru[c] {
                state.set_queued(r, queue_slot, c);
            }
        }
    };
    for family in families {
        if family.is_singleton() {
            continue;
        }
        let mut roles: Vec<(u8, usize)> = family.members.iter().map(|&c| role(state, c)).collect();
        subchain::canonical_roles(&mut roles);
        for (&member, &role) in family.members.iter().zip(&roles) {
            assign(state, member, role);
        }
    }
    // Subtree families, deepest first (the detector's order): sort the
    // blocks by their aligned role vectors and move each vector — statuses
    // plus queue slots — to the block now holding its rank.
    for family in subtree_families {
        let roles: Vec<Vec<(u8, usize)>> = family
            .blocks
            .iter()
            .map(|block| block.iter().map(|&leaf| role(state, leaf)).collect())
            .collect();
        let mut order: Vec<usize> = (0..family.blocks.len()).collect();
        order.sort_by(|&a, &b| roles[a].cmp(&roles[b]).then(a.cmp(&b)));
        for (target, &source) in order.iter().enumerate() {
            for (&leaf, &role) in family.blocks[target].iter().zip(&roles[source]) {
                assign(state, leaf, role);
            }
        }
    }
}

/// Fixed total order on component statuses used for canonicalisation.
fn status_rank(status: ComponentStatus) -> u8 {
    match status {
        ComponentStatus::Operational => 0,
        ComponentStatus::Dormant => 1,
        ComponentStatus::WaitingForRepair => 2,
        ComponentStatus::UnderRepair => 3,
    }
}

fn status_from_rank(rank: u8) -> ComponentStatus {
    match rank {
        0 => ComponentStatus::Operational,
        1 => ComponentStatus::Dormant,
        2 => ComponentStatus::WaitingForRepair,
        _ => ComponentStatus::UnderRepair,
    }
}

/// Preemptive crew assignment: the crews always serve the highest-priority
/// failed members of the unit (ties broken by component definition order);
/// everything else waits. No queue is needed in the state.
fn dispatch_preemptive(state: &mut ScratchState, unit: &ResolvedUnit) {
    let mut free = unit.crews;
    for &c in &unit.service_order {
        if state.statuses[c].is_failed() {
            let status = if free > 0 {
                free -= 1;
                ComponentStatus::UnderRepair
            } else {
                ComponentStatus::WaitingForRepair
            };
            state.set_status(c, status);
        }
    }
}

/// Assigns free crews of repair unit `ru` to the highest-priority waiting
/// components (non-preemptive dispatch, FCFS tie-break).
fn dispatch(state: &mut ScratchState, ru: usize, unit: &ResolvedUnit) {
    // Every queued component is waiting, so each round adds one busy crew.
    let mut busy = state.num_under_repair(&unit.members);
    while busy < unit.crews && !state.queue(ru).is_empty() {
        // Select the waiting component with the highest priority; the earliest
        // arrival wins ties (scan keeps the first maximum).
        let queue = state.queue(ru);
        let mut best_pos = 0;
        for (pos, &candidate) in queue.iter().enumerate() {
            if unit.priorities[candidate] > unit.priorities[queue[best_pos]] + 1e-12 {
                best_pos = pos;
            }
        }
        let chosen = state.remove_queued(ru, best_pos);
        state.set_status(chosen, ComponentStatus::UnderRepair);
        busy += 1;
    }
}

/// Activates dormant spares while active capacity is missing and deactivates
/// surplus operational spares, keeping the number of service-providing
/// components of the group at the number of primaries whenever possible.
fn rebalance_spares(state: &mut ScratchState, group: &SpareGroup) {
    let (primaries, spares) = (&group.primaries, &group.spares);
    let desired = primaries.len();
    loop {
        let active = primaries
            .iter()
            .chain(spares.iter())
            .filter(|&&c| state.statuses[c] == ComponentStatus::Operational)
            .count();
        if active < desired {
            // Activate the first dormant spare, if any.
            match spares
                .iter()
                .find(|&&s| state.statuses[s] == ComponentStatus::Dormant)
            {
                Some(&s) => state.set_status(s, ComponentStatus::Operational),
                None => return,
            }
        } else if active > desired {
            // Deactivate the last operational spare.
            match spares
                .iter()
                .rev()
                .find(|&&s| state.statuses[s] == ComponentStatus::Operational)
            {
                Some(&s) => state.set_status(s, ComponentStatus::Dormant),
                None => return,
            }
        } else {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::BasicComponent;
    use crate::model::ArcadeModel;
    use crate::repair::{RepairStrategy, RepairUnit};
    use crate::spare::SpareManagementUnit;
    use fault_tree::{StructureNode, SystemStructure};

    /// Every explored state, in index order.
    fn states(compiled: &CompiledModel) -> Vec<GlobalState> {
        (0..compiled.chain().num_states())
            .map(|index| compiled.state(index))
            .collect()
    }

    fn two_component_model(strategy: RepairStrategy, crews: usize) -> ArcadeModel {
        two_component_model_with(strategy, crews, QueueDiscipline::default())
    }

    fn two_component_model_with(
        strategy: RepairStrategy,
        crews: usize,
        discipline: QueueDiscipline,
    ) -> ArcadeModel {
        let structure = SystemStructure::new(StructureNode::series(vec![
            StructureNode::component("a"),
            StructureNode::component("b"),
        ]));
        ArcadeModel::builder("two", structure)
            .component(
                BasicComponent::from_mttf_mttr("a", 100.0, 2.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .component(
                BasicComponent::from_mttf_mttr("b", 200.0, 4.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .repair_unit(
                RepairUnit::new("ru", strategy, crews)
                    .unwrap()
                    .responsible_for(["a", "b"])
                    .with_idle_cost(1.0)
                    .with_discipline(discipline),
            )
            .disaster(Disaster::new("both", ["a", "b"]).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn dedicated_two_components_has_four_states() {
        let model = two_component_model(RepairStrategy::Dedicated, 1);
        let compiled = CompiledModel::compile(&model).unwrap();
        assert_eq!(compiled.stats().num_states, 4);
        assert_eq!(compiled.stats().num_transitions, 8);
    }

    #[test]
    fn single_crew_fcfs_tracks_queue_order() {
        let model = two_component_model(RepairStrategy::FirstComeFirstServe, 1);
        let compiled = CompiledModel::compile(&model).unwrap();
        // States: both up; a under repair; b under repair; a under repair with b
        // waiting; b under repair with a waiting  ->  5 states.
        assert_eq!(compiled.stats().num_states, 5);
    }

    #[test]
    fn two_crews_remove_the_queue_orders() {
        let model = two_component_model(RepairStrategy::FirstComeFirstServe, 2);
        let compiled = CompiledModel::compile(&model).unwrap();
        // With two crews nothing ever waits: 4 states as in the dedicated case.
        assert_eq!(compiled.stats().num_states, 4);
    }

    #[test]
    fn frf_priority_canonical_merges_cross_priority_orders() {
        let compile = |discipline| {
            let model = two_component_model_with(RepairStrategy::FastestRepairFirst, 1, discipline);
            CompiledModel::compile(&model).unwrap()
        };
        let canonical = compile(QueueDiscipline::PriorityCanonical);
        let arrival = compile(QueueDiscipline::ArrivalOrder);
        // Both disciplines are valid; the canonical one may merge states but
        // never produce more.
        assert!(canonical.stats().num_states <= arrival.stats().num_states);
        assert_eq!(arrival.stats().num_states, 5);
    }

    #[test]
    fn state_space_limit_is_enforced() {
        let model = two_component_model(RepairStrategy::Dedicated, 1);
        let result = CompiledModel::compile_with(
            &model,
            ComposerOptions {
                max_states: 2,
                ..Default::default()
            },
        );
        assert!(matches!(
            result,
            Err(ArcadeError::StateSpaceTooLarge { .. })
        ));
    }

    #[test]
    fn max_states_admits_exactly_the_limit() {
        // Three distinct components under dedicated repair: 2^3 = 8 flat states.
        let structure = SystemStructure::new(StructureNode::series(vec![
            StructureNode::component("a"),
            StructureNode::component("b"),
            StructureNode::component("c"),
        ]));
        let model = ArcadeModel::builder("three", structure)
            .component(BasicComponent::from_mttf_mttr("a", 100.0, 1.0).unwrap())
            .component(BasicComponent::from_mttf_mttr("b", 200.0, 2.0).unwrap())
            .component(BasicComponent::from_mttf_mttr("c", 300.0, 3.0).unwrap())
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::Dedicated, 1)
                    .unwrap()
                    .responsible_for(["a", "b", "c"]),
            )
            .build()
            .unwrap();
        let compile = |max_states| {
            CompiledModel::compile_with(
                &model,
                ComposerOptions {
                    max_states,
                    lumping: LumpingMode::Disabled,
                    ..Default::default()
                },
            )
        };
        assert_eq!(compile(8).unwrap().stats().num_states, 8);
        assert!(matches!(
            compile(7),
            Err(ArcadeError::StateSpaceTooLarge { limit: 7 })
        ));
    }

    #[test]
    fn labels_and_service_levels_are_consistent() {
        let model = two_component_model(RepairStrategy::Dedicated, 1);
        let compiled = CompiledModel::compile(&model).unwrap();
        for (idx, state) in states(&compiled).iter().enumerate() {
            let any_failed = state.num_failed() > 0;
            assert_eq!(compiled.operational_mask()[idx], !any_failed);
            if any_failed {
                assert!(compiled.service_levels()[idx] < 1.0);
            } else {
                assert!((compiled.service_levels()[idx] - 1.0).abs() < 1e-12);
            }
        }
        let down = compiled.down_mask();
        assert_eq!(down.iter().filter(|&&b| b).count(), 3);
    }

    #[test]
    fn cost_rewards_match_the_cost_model() {
        let model = two_component_model(RepairStrategy::FirstComeFirstServe, 1);
        let compiled = CompiledModel::compile(&model).unwrap();
        for (idx, state) in states(&compiled).iter().enumerate() {
            let failed = state.num_failed();
            let busy = state
                .statuses
                .iter()
                .filter(|s| **s == ComponentStatus::UnderRepair)
                .count();
            let expected = failed as f64 * 3.0 + (1 - busy.min(1)) as f64;
            assert!(
                (compiled.cost_rewards().state_rewards()[idx] - expected).abs() < 1e-12,
                "state {idx}: {state:?}"
            );
        }
    }

    #[test]
    fn initial_state_is_all_operational() {
        let model = two_component_model(RepairStrategy::FastestFailureFirst, 1);
        let compiled = CompiledModel::compile(&model).unwrap();
        let initial = compiled.state(compiled.initial_index());
        assert!(initial
            .statuses
            .iter()
            .all(|s| *s == ComponentStatus::Operational));
        assert_eq!(
            compiled.chain().initial_distribution()[compiled.initial_index()],
            1.0
        );
    }

    #[test]
    fn disaster_state_lookup_finds_reachable_state() {
        let model = two_component_model(RepairStrategy::FirstComeFirstServe, 1);
        let compiled = CompiledModel::compile(&model).unwrap();
        let disaster = model.disaster("both").unwrap();
        let idx = compiled.disaster_state_index(disaster).unwrap();
        let state = compiled.state(idx);
        assert_eq!(state.num_failed(), 2);
        let good = compiled.chain_after_disaster(disaster).unwrap();
        assert_eq!(good.initial_distribution()[idx], 1.0);
    }

    #[test]
    fn unknown_disaster_component_is_rejected() {
        let model = two_component_model(RepairStrategy::FirstComeFirstServe, 1);
        let compiled = CompiledModel::compile(&model).unwrap();
        let rogue = Disaster::new("rogue", ["ghost"]).unwrap();
        assert!(matches!(
            compiled.disaster_state_index(&rogue),
            Err(ArcadeError::InvalidDisaster { .. })
        ));
    }

    #[test]
    fn preemptive_units_need_no_queue_and_ignore_crew_count_in_the_state_space() {
        // Three components with distinct repair rates under FRF.
        let structure = SystemStructure::new(StructureNode::series(vec![
            StructureNode::component("a"),
            StructureNode::component("b"),
            StructureNode::component("c"),
        ]));
        let build = |crews: usize, preemptive: bool| {
            let mut unit = RepairUnit::new("ru", RepairStrategy::FastestRepairFirst, crews)
                .unwrap()
                .responsible_for(["a", "b", "c"]);
            if preemptive {
                unit = unit.with_discipline(QueueDiscipline::Preemptive);
            }
            ArcadeModel::builder("preemption", structure.clone())
                .component(BasicComponent::from_mttf_mttr("a", 100.0, 1.0).unwrap())
                .component(BasicComponent::from_mttf_mttr("b", 100.0, 5.0).unwrap())
                .component(BasicComponent::from_mttf_mttr("c", 100.0, 25.0).unwrap())
                .repair_unit(unit)
                .build()
                .unwrap()
        };

        let preemptive_1 = CompiledModel::compile(&build(1, true)).unwrap();
        let preemptive_2 = CompiledModel::compile(&build(2, true)).unwrap();
        // Which component is served is a function of the failed set, so the
        // state space is exactly the 2^3 component cross product for any crew count.
        assert_eq!(preemptive_1.stats().num_states, 8);
        assert_eq!(preemptive_2.stats().num_states, 8);
        assert!(preemptive_2.stats().num_transitions > preemptive_1.stats().num_transitions);
        for state in &states(&preemptive_1) {
            assert!(
                state.queues.iter().all(Vec::is_empty),
                "preemptive units keep no queue"
            );
        }

        // The non-preemptive variant needs queue orders, so it is strictly larger.
        let non_preemptive_1 = CompiledModel::compile(&build(1, false)).unwrap();
        assert!(non_preemptive_1.stats().num_states > 8);

        // In every preemptive single-crew state the component under repair is
        // the failed one with the highest repair rate.
        for state in &states(&preemptive_1) {
            let failed: Vec<usize> = (0..3).filter(|&c| state.statuses[c].is_failed()).collect();
            if failed.is_empty() {
                continue;
            }
            let under_repair: Vec<usize> = (0..3)
                .filter(|&c| state.statuses[c] == ComponentStatus::UnderRepair)
                .collect();
            assert_eq!(under_repair.len(), 1);
            // Component "a" has the highest repair rate, then "b", then "c".
            assert_eq!(under_repair[0], *failed.iter().min().unwrap());
        }
    }

    fn two_identical_component_model(strategy: RepairStrategy, crews: usize) -> ArcadeModel {
        let structure = SystemStructure::new(StructureNode::redundant(vec![
            StructureNode::component("a"),
            StructureNode::component("b"),
        ]));
        ArcadeModel::builder("twins", structure)
            .component(
                BasicComponent::from_mttf_mttr("a", 100.0, 2.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .component(
                BasicComponent::from_mttf_mttr("b", 100.0, 2.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .repair_unit(
                RepairUnit::new("ru", strategy, crews)
                    .unwrap()
                    .responsible_for(["a", "b"])
                    .with_idle_cost(1.0),
            )
            .disaster(Disaster::new("both", ["a", "b"]).unwrap())
            .build()
            .unwrap()
    }

    #[test]
    fn compositional_mode_explores_canonical_orbits() {
        // Two interchangeable components behind one FCFS crew: the flat chain
        // distinguishes which twin is under repair and the queue order (5
        // states); the canonical frontier explores one representative per
        // orbit (all-up, one under repair, one under repair + one waiting).
        let model = two_identical_component_model(RepairStrategy::FirstComeFirstServe, 1);
        let flat = CompiledModel::compile_with(
            &model,
            ComposerOptions {
                lumping: LumpingMode::Disabled,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(flat.stats().num_states, 5);

        let compositional = CompiledModel::compile(&model).unwrap();
        let stats = compositional.stats();
        assert_eq!(stats.num_states, 3);
        assert_eq!(stats.lumped_states, Some(3));
        assert_eq!(stats.subchains.len(), 1);
        assert_eq!(stats.subchains[0].members, vec!["a", "b"]);
        assert_eq!(stats.subchains[0].local_blocks, 6); // multisets of 3 statuses
        assert_eq!(stats.subchain_state_bound, Some(6));

        // The parallel failure events aggregate their rates: from all-up the
        // orbit "one failed" is entered at twice the per-component rate.
        let initial = compositional.initial_index();
        let chain = compositional.chain();
        let total_rate: f64 = {
            let (_, values) = chain.rate_matrix().row(initial);
            values.iter().sum()
        };
        assert!((total_rate - 2.0 / 100.0).abs() < 1e-12, "{total_rate}");
    }

    #[test]
    fn compositional_disaster_states_resolve_to_canonical_orbits() {
        let model = two_identical_component_model(RepairStrategy::FirstComeFirstServe, 1);
        let compositional = CompiledModel::compile(&model).unwrap();
        let disaster = model.disaster("both").unwrap();
        let index = compositional.disaster_state_index(disaster).unwrap();
        let state = compositional.state(index);
        assert_eq!(state.num_failed(), 2);
        // The canonical representative assigns the waiting role to the first
        // member and the under-repair role to the second.
        assert_eq!(state.statuses[0], ComponentStatus::WaitingForRepair);
        assert_eq!(state.statuses[1], ComponentStatus::UnderRepair);
    }

    #[test]
    fn subtree_orbits_fold_twin_redundant_groups() {
        // series( redundant(a, b), redundant(c, d) ), all four components
        // identical behind one FCFS crew: besides the two leaf families the
        // canonical frontier may swap the whole groups. The flat chain
        // distinguishes which group holds which role multiset; the canonical
        // chain only keeps the sorted pair of group roles.
        let structure = SystemStructure::new(StructureNode::series(vec![
            StructureNode::redundant(vec![
                StructureNode::component("a"),
                StructureNode::component("b"),
            ]),
            StructureNode::redundant(vec![
                StructureNode::component("c"),
                StructureNode::component("d"),
            ]),
        ]));
        let model = ArcadeModel::builder("twins", structure)
            .components(
                ["a", "b", "c", "d"]
                    .map(|n| BasicComponent::from_mttf_mttr(n, 100.0, 2.0).unwrap()),
            )
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::FirstComeFirstServe, 1)
                    .unwrap()
                    .responsible_for(["a", "b", "c", "d"])
                    .with_idle_cost(1.0),
            )
            .build()
            .unwrap();

        let flat = CompiledModel::compile_with(
            &model,
            ComposerOptions {
                lumping: LumpingMode::Disabled,
                ..Default::default()
            },
        )
        .unwrap();
        let compositional = CompiledModel::compile(&model).unwrap();
        let stats = compositional.stats();
        assert!(
            stats.num_states < flat.stats().num_states,
            "orbit frontier must beat the flat chain: {} vs {}",
            stats.num_states,
            flat.stats().num_states
        );
        assert_eq!(stats.subtree_orbits.len(), 1);
        assert_eq!(
            stats.subtree_orbits[0].blocks,
            vec![
                vec!["a".to_string(), "b".to_string()],
                vec!["c".to_string(), "d".to_string()]
            ]
        );
        // The canonical chain is exactly the coarsest quotient: the final
        // exact pass finds nothing left to merge.
        assert_eq!(stats.lumped_states, Some(stats.num_states));
        // Availability agrees with the flat chain (the orbit is exact).
        let flat_pi = ctmc::SteadyStateSolver::new(flat.chain()).solve().unwrap();
        let orbit_pi = ctmc::SteadyStateSolver::new(compositional.chain())
            .solve()
            .unwrap();
        let up = |mask: &[bool], pi: &[f64]| -> f64 {
            pi.iter()
                .zip(mask.iter())
                .filter(|(_, &m)| m)
                .map(|(p, _)| p)
                .sum()
        };
        let flat_avail = up(flat.operational_mask(), &flat_pi);
        let orbit_avail = up(compositional.operational_mask(), &orbit_pi);
        assert!(
            (flat_avail - orbit_avail).abs() < 1e-9,
            "{flat_avail} vs {orbit_avail}"
        );
    }

    #[test]
    fn compositional_mode_is_inert_without_symmetry() {
        // Components with distinct rates have no interchangeable partner, so
        // the canonical chain equals the flat chain.
        let model = two_component_model(RepairStrategy::FirstComeFirstServe, 1);
        let compositional = CompiledModel::compile(&model).unwrap();
        let flat = CompiledModel::compile_with(
            &model,
            ComposerOptions {
                lumping: LumpingMode::Disabled,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(compositional.stats().num_states, flat.stats().num_states);
        assert!(compositional
            .stats()
            .subchains
            .iter()
            .all(|s| s.members.len() == 1));
    }

    #[test]
    fn initially_failed_component_starts_under_repair() {
        let structure = SystemStructure::new(StructureNode::component("a"));
        let model = ArcadeModel::builder("m", structure)
            .component(
                BasicComponent::from_mttf_mttr("a", 10.0, 1.0)
                    .unwrap()
                    .initially_failed(),
            )
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::FirstComeFirstServe, 1)
                    .unwrap()
                    .responsible_for(["a"]),
            )
            .build()
            .unwrap();
        let compiled = CompiledModel::compile(&model).unwrap();
        let initial = compiled.state(compiled.initial_index());
        assert_eq!(initial.statuses[0], ComponentStatus::UnderRepair);
    }

    #[test]
    fn cold_spare_is_dormant_until_needed() {
        // Primary "p" with cold spare "s"; service requires one of them.
        let structure = SystemStructure::new(StructureNode::required_of(
            1,
            vec![StructureNode::component("p"), StructureNode::component("s")],
        ));
        let model = ArcadeModel::builder("spares", structure)
            .component(BasicComponent::from_mttf_mttr("p", 100.0, 1.0).unwrap())
            .component(
                BasicComponent::from_mttf_mttr("s", 100.0, 1.0)
                    .unwrap()
                    .with_dormancy_factor(0.0),
            )
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::FirstComeFirstServe, 1)
                    .unwrap()
                    .responsible_for(["p", "s"]),
            )
            .spare_unit(SpareManagementUnit::new("smu", ["p"], ["s"]).unwrap())
            .build()
            .unwrap();
        let compiled = CompiledModel::compile(&model).unwrap();
        let initial = compiled.state(compiled.initial_index());
        assert_eq!(initial.statuses[1], ComponentStatus::Dormant);
        // The spare only fails once activated, so the state space is small:
        // (p up, s dormant), (p failed+under repair, s active),
        // (p under repair, s failed waiting), (p up, s under repair, back to dormant p active)...
        // What matters: no state has the spare failed while the primary never failed first.
        for state in &states(&compiled) {
            if state.statuses[1].is_failed() {
                // The spare can only have failed after it was activated, which
                // requires the primary to have been failed at some point; in
                // particular the initial state is excluded.
                assert!(*state != initial);
            }
        }
        // Full service whenever one of the two provides service.
        for (idx, state) in states(&compiled).iter().enumerate() {
            let expected = state.statuses.iter().any(|s| s.provides_service());
            assert_eq!(compiled.service_levels()[idx] > 0.99, expected);
        }
    }

    mod packed_keys {
        use super::*;
        use proptest::prelude::*;

        /// A state of a model whose component `c` belongs to repair unit
        /// `unit_of[c]` (4 means none) and has status rank `ranks[c]`; unit
        /// `u` queues `fill[u] % (members + 1)` of its members, shuffled,
        /// except unit `preemptive`, which keeps no queue.
        fn state(
            unit_of: &[usize],
            ranks: &[u8],
            fill: &[usize],
            preemptive: usize,
            shuffle: u64,
        ) -> GlobalState {
            let mut state = GlobalState::new(
                ranks[..unit_of.len()]
                    .iter()
                    .map(|&rank| status_from_rank(rank))
                    .collect(),
                4,
            );
            let mut bits = shuffle | 1;
            for (unit, queue) in state.queues.iter_mut().enumerate() {
                if unit == preemptive {
                    continue;
                }
                let mut members: Vec<usize> =
                    (0..unit_of.len()).filter(|&c| unit_of[c] == unit).collect();
                for i in (1..members.len()).rev() {
                    bits ^= bits << 13;
                    bits ^= bits >> 7;
                    bits ^= bits << 17;
                    members.swap(i, (bits % (i as u64 + 1)) as usize);
                }
                members.truncate(fill[unit] % (members.len() + 1));
                *queue = members;
            }
            state
        }

        /// A scratch state with as much room as `layout` has key slots.
        fn scratch_for(layout: &KeyLayout) -> ScratchState {
            ScratchState::new(
                layout.num_components,
                layout.queues.iter().map(|&(_, slots)| slots),
            )
        }

        /// `state` as the rules see it, with an empty log.
        fn scratch(layout: &KeyLayout, state: &GlobalState) -> ScratchState {
            let mut scratch = scratch_for(layout);
            for (c, &status) in state.statuses.iter().enumerate() {
                scratch.set_status(c, status);
            }
            for (ru, queue) in state.queues.iter().enumerate() {
                for (pos, &c) in queue.iter().enumerate() {
                    scratch.insert_queued(ru, pos, c);
                }
            }
            scratch.clear_log();
            scratch
        }

        fn packed(layout: &KeyLayout, state: &GlobalState) -> Vec<u64> {
            // Start from a dirty buffer: packing must clear it.
            let mut key = vec![u64::MAX; layout.words];
            layout.pack(&scratch(layout, state), &mut key);
            key
        }

        fn unpacked(layout: &KeyLayout, key: &[u64]) -> GlobalState {
            // Start from a dirty state: unpacking must replace all of it.
            let mut state = scratch_for(layout);
            state.statuses.fill(ComponentStatus::Dormant);
            state.queued.fill(7);
            state
                .lens
                .iter_mut()
                .zip(layout.queues.iter())
                .for_each(|(len, &(_, slots))| *len = slots);
            layout.unpack(key, &mut state);
            state.into_global()
        }

        fn status_part(layout: &KeyLayout, key: &[u64]) -> Vec<u64> {
            let mut status = vec![u64::MAX; layout.status_words()];
            layout.status_bits(key, &mut status);
            status
        }

        /// One logged write to a scratch state: the changes the rules make.
        #[derive(Debug, Clone, Copy)]
        enum Write {
            Status(ComponentIndex, ComponentStatus),
            Insert(usize, usize, ComponentIndex),
            Remove(usize, usize),
            Replace(usize, usize, ComponentIndex),
        }

        fn apply(state: &mut GlobalState, write: Write) {
            match write {
                Write::Status(c, status) => state.statuses[c] = status,
                Write::Insert(ru, pos, c) => state.queues[ru].insert(pos, c),
                Write::Remove(ru, pos) => {
                    state.queues[ru].remove(pos);
                }
                Write::Replace(ru, pos, c) => state.queues[ru][pos] = c,
            }
        }

        fn log(state: &mut ScratchState, write: Write) {
            match write {
                Write::Status(c, status) => state.set_status(c, status),
                Write::Insert(ru, pos, c) => state.insert_queued(ru, pos, c),
                Write::Remove(ru, pos) => {
                    state.remove_queued(ru, pos);
                }
                Write::Replace(ru, pos, c) => state.set_queued(ru, pos, c),
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Layouts up to 40 components in up to 4 repair units, one of
            /// them preemptive (4: none), so keys of up to 5 words: equal
            /// states pack to equal keys, a change to one status or one
            /// queue slot changes the key, and every key unpacks to the
            /// state it was packed from. The status part of the key follows
            /// the statuses alone. Each change, made through the logged
            /// writes of a scratch state, rewrites the original key into
            /// the changed state's key, and reverting restores the original.
            #[test]
            fn one_field_apart_is_one_key_apart(
                unit_of in proptest::collection::vec(0usize..=4, 1..=40),
                ranks in proptest::collection::vec(0u8..4, 40),
                fill in proptest::collection::vec(0usize..=40, 4),
                preemptive in 0usize..=4,
                shuffle in any::<u64>(),
            ) {
                let n = unit_of.len();
                let members: Vec<Vec<usize>> = (0..4)
                    .map(|unit| (0..n).filter(|&c| unit_of[c] == unit).collect())
                    .collect();
                let layout = KeyLayout::new(
                    n,
                    members
                        .iter()
                        .enumerate()
                        .map(|(unit, members)| if unit == preemptive { 0 } else { members.len() }),
                );
                prop_assert!(layout.words <= 5);
                let original = state(&unit_of, &ranks, &fill, preemptive, shuffle);
                let key = packed(&layout, &original);
                prop_assert_eq!(&key, &packed(&layout, &original.clone()));
                prop_assert_eq!(&unpacked(&layout, &key), &original);
                let status = status_part(&layout, &key);
                let source = scratch(&layout, &original);
                let mut next = source.clone();

                let mut writes = Vec::new();
                for c in 0..n {
                    for rank in (0..4).filter(|&rank| rank != status_rank(original.statuses[c])) {
                        writes.push(Write::Status(c, status_from_rank(rank)));
                    }
                }
                for (unit, unit_members) in members.iter().enumerate() {
                    if unit == preemptive {
                        continue;
                    }
                    let queue = &original.queues[unit];
                    for &other in unit_members.iter().filter(|c| !queue.contains(c)) {
                        // Another member in an occupied slot, or put in front
                        // of the queue or behind it.
                        for pos in 0..queue.len() {
                            writes.push(Write::Replace(unit, pos, other));
                        }
                        writes.push(Write::Insert(unit, 0, other));
                        writes.push(Write::Insert(unit, queue.len(), other));
                    }
                    // The first or the last member taken out.
                    if !queue.is_empty() {
                        writes.push(Write::Remove(unit, 0));
                        writes.push(Write::Remove(unit, queue.len() - 1));
                    }
                }
                for write in writes {
                    let mut changed = original.clone();
                    apply(&mut changed, write);
                    let changed_key = packed(&layout, &changed);
                    prop_assert_ne!(&key, &changed_key);
                    let status_changed = matches!(write, Write::Status(..));
                    prop_assert_eq!(status != status_part(&layout, &changed_key), status_changed);
                    prop_assert_eq!(&unpacked(&layout, &changed_key), &changed);

                    log(&mut next, write);
                    let mut rewritten = key.clone();
                    layout.rewrite(&mut rewritten, &next, &source);
                    prop_assert_eq!(&rewritten, &changed_key, "{:?}", write);
                    next.revert_to(&source);
                    prop_assert_eq!(&next.clone().into_global(), &original);
                }
            }
        }

        #[test]
        fn forty_components_in_queued_units_take_five_words() {
            let layout = KeyLayout::new(40, [10, 10, 10, 10]);
            assert_eq!(layout.slot_bits, 6);
            assert_eq!(layout.words, 5);
            assert_eq!(layout.status_words(), 2);
            // Every queue full, so unit 1's ninth slot (bits 188..194) and
            // unit 2's tenth (bits 254..260) straddle a word boundary.
            let mut full = GlobalState::new(vec![ComponentStatus::WaitingForRepair; 40], 4);
            for (unit, queue) in full.queues.iter_mut().enumerate() {
                *queue = (10 * unit..10 * unit + 10).rev().collect();
            }
            assert_eq!(unpacked(&layout, &packed(&layout, &full)), full);
        }
    }
}
