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
//! component), spare activation and crew dispatch are deterministic side
//! effects of failure/repair events, and repair is non-preemptive — exactly the
//! deterministic Arcade subclass that the paper maps to PRISM.
//!
//! Under the default [`LumpingMode::Compositional`] the composer implements
//! the paper's compositional aggregation: the model's interchangeable
//! component families (per-line sub-chains, see [`crate::families`]) are
//! quotiented *before* the cross product by exploring canonical orbit
//! representatives, so the flat product chain is never materialised and the
//! number of explored states is bounded by the product of the per-family
//! quotient sizes.

use std::collections::HashMap;

use arcade_lumping::{lump, subchain, InitialPartition, LumpedCtmc};
use arcade_telemetry::Recorder;
use ctmc::{Ctmc, CtmcBuilder, ExecOptions, RewardStructure};
use serde::{Deserialize, Serialize};

use crate::disaster::Disaster;
use crate::error::ArcadeError;
use crate::families::{detect_families, detect_subtree_families, ComponentFamily, SubtreeFamily};
use crate::model::ArcadeModel;
use crate::repair::RepairStrategy;
use crate::state::{ComponentIndex, ComponentStatus, GlobalState, QueueEncoding};

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
    /// aborts exploration with [`ArcadeError::StateSpaceTooLarge`].
    pub max_states: usize,
    /// How repair queues are encoded in the state (see [`QueueEncoding`]).
    pub queue_encoding: QueueEncoding,
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
            queue_encoding: QueueEncoding::default(),
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
    states: Vec<GlobalState>,
    component_names: Vec<String>,
    service_levels: Vec<f64>,
    operational: Vec<bool>,
    cost_rewards: RewardStructure,
    initial_index: usize,
    options: ComposerOptions,
    // Pre-computed structural data needed to build disaster (GOOD) states.
    ru_components: Vec<Vec<ComponentIndex>>,
    ru_effective_crews: Vec<usize>,
    ru_priorities: Vec<Vec<f64>>,
    ru_preemptive: Vec<bool>,
    component_ru: Vec<Option<usize>>,
    smu_primaries: Vec<Vec<ComponentIndex>>,
    smu_spares: Vec<Vec<ComponentIndex>>,
    index_of_state: HashMap<GlobalState, usize>,
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
    /// with [`LumpingMode::Exact`] (the default).
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

    /// The explored global states, indexed like the CTMC states.
    pub fn states(&self) -> &[GlobalState] {
        &self.states
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
        let spare_managed = self
            .smu_primaries
            .iter()
            .chain(self.smu_spares.iter())
            .any(|members| members.contains(&component));
        let dormant = usize::from(spare_managed);
        // Failed statuses: waiting and/or under repair, depending on crews.
        let failed = match self.component_ru[component] {
            None => 1, // fails into waiting, is never repaired
            Some(ru) if self.ru_effective_crews[ru] >= self.ru_components[ru].len() => 1,
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
        self.index_of_state
            .get(&state)
            .copied()
            .ok_or_else(|| ArcadeError::InvalidDisaster {
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

    fn build_disaster_state(&self, disaster: &Disaster) -> Result<GlobalState, ArcadeError> {
        let mut failed_indices = Vec::new();
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
            failed_indices.push(idx);
        }

        // Start from the regular initial state so that dormant spares and
        // initially-failed components keep their configuration.
        let mut state = self.states[self.initial_index].clone();
        // Queue disasters in dispatch-priority order (ties: the order listed in
        // the disaster), as the paper does when the failure order is unknown.
        let mut ordered = failed_indices.clone();
        ordered.sort_by(|&a, &b| {
            let (pa, pb) = (self.priority_of(a), self.priority_of(b));
            pb.partial_cmp(&pa).unwrap_or(std::cmp::Ordering::Equal)
        });
        for &c in &ordered {
            if state.statuses[c].is_failed() {
                continue;
            }
            state.statuses[c] = ComponentStatus::WaitingForRepair;
            if let Some(ru) = self.component_ru[c] {
                if !self.ru_preemptive[ru] {
                    enqueue(
                        &mut state.queues[ru],
                        c,
                        &self.ru_priorities[ru],
                        self.options.queue_encoding,
                    );
                }
            }
        }
        // Activate spares for failed primaries, then dispatch crews.
        for smu in 0..self.smu_primaries.len() {
            rebalance_spares(&mut state, &self.smu_primaries[smu], &self.smu_spares[smu]);
        }
        for ru in 0..self.ru_components.len() {
            if self.ru_preemptive[ru] {
                dispatch_preemptive(
                    &mut state,
                    &self.ru_components[ru],
                    self.ru_effective_crews[ru],
                    &self.ru_priorities[ru],
                );
            } else {
                dispatch(
                    &mut state,
                    ru,
                    &self.ru_components[ru],
                    self.ru_effective_crews[ru],
                    &self.ru_priorities[ru],
                );
            }
        }
        if self.options.lumping == LumpingMode::Compositional {
            canonicalize_state(
                &mut state,
                &self.families,
                &self.subtree_families,
                &self.component_ru,
            );
        }
        Ok(state)
    }

    fn priority_of(&self, component: ComponentIndex) -> f64 {
        match self.component_ru[component] {
            Some(ru) => self.ru_priorities[ru][component],
            None => 0.0,
        }
    }
}

/// Internal exploration engine.
struct Composer<'a> {
    model: &'a ArcadeModel,
    options: ComposerOptions,
    failure_rates: Vec<f64>,
    repair_rates: Vec<f64>,
    dormancy: Vec<f64>,
    component_names: Vec<String>,
    component_ru: Vec<Option<usize>>,
    component_smu: Vec<Option<usize>>,
    ru_components: Vec<Vec<ComponentIndex>>,
    ru_effective_crews: Vec<usize>,
    /// `ru_priorities[ru][component]` is the dispatch priority of the component
    /// under that unit's strategy (indexed by global component index).
    ru_priorities: Vec<Vec<f64>>,
    ru_preemptive: Vec<bool>,
    smu_primaries: Vec<Vec<ComponentIndex>>,
    smu_spares: Vec<Vec<ComponentIndex>>,
    families: Vec<ComponentFamily>,
    subtree_families: Vec<SubtreeFamily>,
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

        let mut component_ru = vec![None; n];
        let mut ru_components = Vec::new();
        let mut ru_effective_crews = Vec::new();
        let mut ru_priorities = Vec::new();
        let mut ru_preemptive = Vec::new();
        for (ru_idx, ru) in model.repair_units().iter().enumerate() {
            let mut members = Vec::new();
            for name in ru.components() {
                let idx =
                    model
                        .component_index(name)
                        .ok_or_else(|| ArcadeError::UnknownComponent {
                            name: name.clone(),
                            referenced_by: format!("repair unit `{}`", ru.name()),
                        })?;
                component_ru[idx] = Some(ru_idx);
                members.push(idx);
            }
            ru_effective_crews.push(ru.effective_crews());
            let mut priorities = vec![0.0; n];
            for &c in &members {
                priorities[c] = ru.strategy().priority_of(&model.components()[c]);
            }
            // The dedicated strategy repairs everything immediately; priorities
            // are irrelevant but kept at zero for determinism.
            if matches!(ru.strategy(), RepairStrategy::Dedicated) {
                priorities.iter_mut().for_each(|p| *p = 0.0);
            }
            ru_components.push(members);
            ru_priorities.push(priorities);
            ru_preemptive.push(ru.is_preemptive());
        }

        let mut component_smu = vec![None; n];
        let mut smu_primaries = Vec::new();
        let mut smu_spares = Vec::new();
        for (smu_idx, smu) in model.spare_units().iter().enumerate() {
            let mut primaries = Vec::new();
            for name in smu.primaries() {
                let idx =
                    model
                        .component_index(name)
                        .ok_or_else(|| ArcadeError::UnknownComponent {
                            name: name.clone(),
                            referenced_by: format!("spare unit `{}`", smu.name()),
                        })?;
                component_smu[idx] = Some(smu_idx);
                primaries.push(idx);
            }
            let mut spares = Vec::new();
            for name in smu.spares() {
                let idx =
                    model
                        .component_index(name)
                        .ok_or_else(|| ArcadeError::UnknownComponent {
                            name: name.clone(),
                            referenced_by: format!("spare unit `{}`", smu.name()),
                        })?;
                component_smu[idx] = Some(smu_idx);
                spares.push(idx);
            }
            smu_primaries.push(primaries);
            smu_spares.push(spares);
        }

        Ok(Composer {
            model,
            options,
            failure_rates,
            repair_rates,
            dormancy,
            component_names,
            component_ru,
            component_smu,
            ru_components,
            ru_effective_crews,
            ru_priorities,
            ru_preemptive,
            smu_primaries,
            smu_spares,
            families: {
                let mut span = Recorder::current().span("detect-families");
                let families = detect_families(model);
                span.count("families", families.len() as u64);
                families
            },
            subtree_families: detect_subtree_families(model),
        })
    }

    /// Assigns crews of a repair unit after a failure or repair event, using
    /// the unit's preemptive or non-preemptive discipline.
    fn assign_crews(&self, state: &mut GlobalState, ru: usize) {
        if self.ru_preemptive[ru] {
            dispatch_preemptive(
                state,
                &self.ru_components[ru],
                self.ru_effective_crews[ru],
                &self.ru_priorities[ru],
            );
        } else {
            dispatch(
                state,
                ru,
                &self.ru_components[ru],
                self.ru_effective_crews[ru],
                &self.ru_priorities[ru],
            );
        }
    }

    fn initial_state(&self) -> GlobalState {
        let n = self.component_names.len();
        let mut statuses = vec![ComponentStatus::Operational; n];
        // Spares start dormant.
        for spares in &self.smu_spares {
            for &s in spares {
                statuses[s] = ComponentStatus::Dormant;
            }
        }
        let mut state = GlobalState::new(statuses, self.ru_components.len());
        // Initially failed components enter their queues right away.
        for (idx, component) in self.model.components().iter().enumerate() {
            if component.is_initially_failed() {
                state.statuses[idx] = ComponentStatus::WaitingForRepair;
                if let Some(ru) = self.component_ru[idx] {
                    if !self.ru_preemptive[ru] {
                        enqueue(
                            &mut state.queues[ru],
                            idx,
                            &self.ru_priorities[ru],
                            self.options.queue_encoding,
                        );
                    }
                }
            }
        }
        for smu in 0..self.smu_primaries.len() {
            rebalance_spares(&mut state, &self.smu_primaries[smu], &self.smu_spares[smu]);
        }
        for ru in 0..self.ru_components.len() {
            self.assign_crews(&mut state, ru);
        }
        state
    }

    /// All outgoing transitions of a state as `(target state, rate)` pairs.
    fn successors(&self, state: &GlobalState) -> Vec<(GlobalState, f64)> {
        let mut out = Vec::new();
        for c in 0..state.statuses.len() {
            match state.statuses[c] {
                ComponentStatus::Operational => {
                    out.push((self.apply_failure(state, c), self.failure_rates[c]));
                }
                ComponentStatus::Dormant => {
                    let rate = self.failure_rates[c] * self.dormancy[c];
                    if rate > 0.0 {
                        out.push((self.apply_failure(state, c), rate));
                    }
                }
                ComponentStatus::UnderRepair => {
                    out.push((self.apply_repair(state, c), self.repair_rates[c]));
                }
                ComponentStatus::WaitingForRepair => {}
            }
        }
        out
    }

    fn apply_failure(&self, state: &GlobalState, c: ComponentIndex) -> GlobalState {
        let mut next = state.clone();
        let was_active = next.statuses[c] == ComponentStatus::Operational;
        next.statuses[c] = ComponentStatus::WaitingForRepair;
        if let Some(ru) = self.component_ru[c] {
            if !self.ru_preemptive[ru] {
                enqueue(
                    &mut next.queues[ru],
                    c,
                    &self.ru_priorities[ru],
                    self.options.queue_encoding,
                );
            }
        }
        // Spare activation: a failed *active* component of a spare-managed group
        // is replaced by a dormant spare of the same group, if one is available.
        if was_active {
            if let Some(smu) = self.component_smu[c] {
                rebalance_spares(&mut next, &self.smu_primaries[smu], &self.smu_spares[smu]);
            }
        }
        if let Some(ru) = self.component_ru[c] {
            self.assign_crews(&mut next, ru);
        }
        next
    }

    fn apply_repair(&self, state: &GlobalState, c: ComponentIndex) -> GlobalState {
        let mut next = state.clone();
        next.statuses[c] = ComponentStatus::Operational;
        if let Some(smu) = self.component_smu[c] {
            // A repaired spare goes back to dormant unless it is still needed;
            // a repaired primary sends a no-longer-needed spare back to dormant.
            if self.smu_spares[smu].contains(&c) {
                next.statuses[c] = ComponentStatus::Dormant;
            }
            rebalance_spares(&mut next, &self.smu_primaries[smu], &self.smu_spares[smu]);
        }
        if let Some(ru) = self.component_ru[c] {
            self.assign_crews(&mut next, ru);
        }
        next
    }

    fn state_cost(&self, state: &GlobalState) -> f64 {
        let mut cost = 0.0;
        for (idx, component) in self.model.components().iter().enumerate() {
            if state.statuses[idx].is_failed() {
                cost += component.failed_cost_per_hour();
            } else {
                cost += component.operational_cost_per_hour();
            }
        }
        for (ru_idx, ru) in self.model.repair_units().iter().enumerate() {
            let busy = state.num_under_repair(&self.ru_components[ru_idx]);
            let crews = self.ru_effective_crews[ru_idx];
            let idle = crews.saturating_sub(busy);
            cost += idle as f64 * ru.idle_cost_per_hour() + busy as f64 * ru.busy_cost_per_hour();
        }
        cost
    }

    fn explore(self) -> Result<CompiledModel, ArcadeError> {
        let service_tree = self.model.service_tree();
        let degraded_tree = self.model.degraded_fault_tree();

        // Under compositional lumping the frontier runs over canonical orbit
        // representatives: every generated state is first mapped to its
        // family-wise canonical form (sibling-leaf families and whole
        // isomorphic-subtree blocks), so the flat product is never stored and
        // parallel events whose targets share an orbit aggregate their rates.
        let compositional = self.options.lumping == LumpingMode::Compositional
            && (self.families.iter().any(|f| !f.is_singleton())
                || !self.subtree_families.is_empty());

        let mut initial = self.initial_state();
        if compositional {
            canonicalize_state(
                &mut initial,
                &self.families,
                &self.subtree_families,
                &self.component_ru,
            );
        }

        // Breadth-first walk: states are expanded in index order and each new
        // (canonical) successor is numbered the first time it is seen, so the
        // numbering and the transition order depend on the model alone.
        let max_states = self.options.max_states;
        let mut states = vec![initial.clone()];
        let mut index_of = HashMap::from([(initial, 0)]);
        let mut transitions = Vec::new();
        let mut current = 0;
        while current < states.len() {
            for (mut target, rate) in self.successors(&states[current]) {
                if compositional {
                    canonicalize_state(
                        &mut target,
                        &self.families,
                        &self.subtree_families,
                        &self.component_ru,
                    );
                }
                let next = match index_of.get(&target) {
                    Some(&index) => index,
                    None if states.len() >= max_states => {
                        return Err(ArcadeError::StateSpaceTooLarge { limit: max_states });
                    }
                    None => {
                        index_of.insert(target.clone(), states.len());
                        states.push(target);
                        states.len() - 1
                    }
                };
                transitions.push((current, next, rate));
            }
            current += 1;
        }

        // Per-state metadata: service level, operational flag and cost rate.
        let component_of: HashMap<&str, usize> = self
            .component_names
            .iter()
            .enumerate()
            .map(|(index, name)| (name.as_str(), index))
            .collect();
        let mut service_levels = Vec::with_capacity(states.len());
        let mut operational = Vec::with_capacity(states.len());
        let mut costs = Vec::with_capacity(states.len());
        for state in &states {
            let provides = |name: &str| -> f64 {
                match component_of.get(name) {
                    Some(&c) if state.statuses[c].provides_service() => 1.0,
                    _ => 0.0,
                }
            };
            let failed = |name: &str| -> bool {
                component_of
                    .get(name)
                    .is_some_and(|&c| !state.statuses[c].provides_service())
            };
            service_levels.push(service_tree.service_level(provides));
            operational.push(!degraded_tree.is_failed(failed));
            costs.push(self.state_cost(state));
        }

        let mut builder = CtmcBuilder::new(states.len());
        for (from, to, rate) in transitions {
            builder.add_transition(from, to, rate)?;
        }
        builder.set_initial_state(0)?;
        builder.add_label_mask(LABEL_OPERATIONAL, operational.clone())?;
        builder.add_label_mask(LABEL_DOWN, operational.iter().map(|&b| !b).collect())?;
        builder.add_label_mask(
            LABEL_NO_SERVICE,
            service_levels.iter().map(|&l| l <= 1e-12).collect(),
        )?;
        let chain = builder.build()?;
        let cost_rewards = RewardStructure::new("repair_cost", costs)?;

        Ok(CompiledModel {
            chain,
            states,
            component_names: self.component_names,
            service_levels,
            operational,
            cost_rewards,
            initial_index: 0,
            options: self.options,
            ru_components: self.ru_components,
            ru_effective_crews: self.ru_effective_crews,
            ru_priorities: self.ru_priorities,
            ru_preemptive: self.ru_preemptive,
            component_ru: self.component_ru,
            smu_primaries: self.smu_primaries,
            smu_spares: self.smu_spares,
            index_of_state: index_of,
            families: self.families,
            subtree_families: self.subtree_families,
            lumped: None,
        })
    }
}

/// Maps a global state to the canonical representative of its orbit under the
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
    state: &mut GlobalState,
    families: &[ComponentFamily],
    subtree_families: &[SubtreeFamily],
    component_ru: &[Option<usize>],
) {
    for family in families {
        if family.is_singleton() {
            continue;
        }
        let ru = component_ru[family.members[0]];
        let mut roles: Vec<(u8, usize)> = family
            .members
            .iter()
            .map(|&c| {
                let queue_slot = ru
                    .and_then(|r| state.queues[r].iter().position(|&x| x == c))
                    .unwrap_or(usize::MAX);
                (status_rank(state.statuses[c]), queue_slot)
            })
            .collect();
        subchain::canonical_roles(&mut roles);
        for (slot, &(rank, queue_slot)) in roles.iter().enumerate() {
            let member = family.members[slot];
            state.statuses[member] = status_from_rank(rank);
            if queue_slot != usize::MAX {
                if let Some(r) = ru {
                    state.queues[r][queue_slot] = member;
                }
            }
        }
    }
    // Subtree families, deepest first (the detector's order): sort the
    // blocks by their aligned role vectors and move each vector — statuses
    // plus queue slots — to the block now holding its rank.
    for family in subtree_families {
        let roles: Vec<Vec<(u8, usize)>> = family
            .blocks
            .iter()
            .map(|block| {
                block
                    .iter()
                    .map(|&leaf| {
                        let queue_slot = component_ru[leaf]
                            .and_then(|r| state.queues[r].iter().position(|&x| x == leaf))
                            .unwrap_or(usize::MAX);
                        (status_rank(state.statuses[leaf]), queue_slot)
                    })
                    .collect()
            })
            .collect();
        let mut order: Vec<usize> = (0..family.blocks.len()).collect();
        order.sort_by(|&a, &b| roles[a].cmp(&roles[b]).then(a.cmp(&b)));
        for (target, &source) in order.iter().enumerate() {
            for (leaf_slot, &(rank, queue_slot)) in roles[source].iter().enumerate() {
                let leaf = family.blocks[target][leaf_slot];
                state.statuses[leaf] = status_from_rank(rank);
                if queue_slot != usize::MAX {
                    if let Some(r) = component_ru[leaf] {
                        state.queues[r][queue_slot] = leaf;
                    }
                }
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

/// Inserts a component into a repair queue according to the chosen encoding.
fn enqueue(
    queue: &mut Vec<ComponentIndex>,
    component: ComponentIndex,
    priorities: &[f64],
    encoding: QueueEncoding,
) {
    match encoding {
        QueueEncoding::ArrivalOrder => queue.push(component),
        QueueEncoding::PriorityCanonical => {
            let priority = priorities[component];
            // Insert after the last element whose priority is >= ours, keeping
            // FIFO order among equal priorities.
            let pos = queue
                .iter()
                .position(|&other| priorities[other] < priority - 1e-12)
                .unwrap_or(queue.len());
            queue.insert(pos, component);
        }
    }
}

/// Preemptive crew assignment: the crews always serve the `crews`
/// highest-priority failed components of the unit (ties broken by component
/// definition order); everything else waits. No queue is needed in the state.
fn dispatch_preemptive(
    state: &mut GlobalState,
    members: &[ComponentIndex],
    crews: usize,
    priorities: &[f64],
) {
    let mut failed: Vec<ComponentIndex> = members
        .iter()
        .copied()
        .filter(|&c| state.statuses[c].is_failed())
        .collect();
    failed.sort_by(|&a, &b| {
        priorities[b]
            .partial_cmp(&priorities[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    for (rank, &c) in failed.iter().enumerate() {
        state.statuses[c] = if rank < crews {
            ComponentStatus::UnderRepair
        } else {
            ComponentStatus::WaitingForRepair
        };
    }
}

/// Assigns free crews of a repair unit to the highest-priority waiting
/// components (non-preemptive dispatch, FCFS tie-break).
fn dispatch(
    state: &mut GlobalState,
    ru: usize,
    members: &[ComponentIndex],
    crews: usize,
    priorities: &[f64],
) {
    loop {
        let busy = state.num_under_repair(members);
        if busy >= crews || state.queues[ru].is_empty() {
            return;
        }
        // Select the waiting component with the highest priority; the earliest
        // arrival wins ties (scan keeps the first maximum).
        let mut best_pos = 0;
        for (pos, &candidate) in state.queues[ru].iter().enumerate() {
            if priorities[candidate] > priorities[state.queues[ru][best_pos]] + 1e-12 {
                best_pos = pos;
            }
        }
        let chosen = state.queues[ru].remove(best_pos);
        state.statuses[chosen] = ComponentStatus::UnderRepair;
    }
}

/// Activates dormant spares while active capacity is missing and deactivates
/// surplus operational spares, keeping the number of service-providing
/// components of the group at the number of primaries whenever possible.
fn rebalance_spares(
    state: &mut GlobalState,
    primaries: &[ComponentIndex],
    spares: &[ComponentIndex],
) {
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
                Some(&s) => state.statuses[s] = ComponentStatus::Operational,
                None => return,
            }
        } else if active > desired {
            // Deactivate the last operational spare.
            match spares
                .iter()
                .rev()
                .find(|&&s| state.statuses[s] == ComponentStatus::Operational)
            {
                Some(&s) => state.statuses[s] = ComponentStatus::Dormant,
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

    fn two_component_model(strategy: RepairStrategy, crews: usize) -> ArcadeModel {
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
                    .with_idle_cost(1.0),
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
        let model = two_component_model(RepairStrategy::FastestRepairFirst, 1);
        let canonical = CompiledModel::compile_with(
            &model,
            ComposerOptions {
                queue_encoding: QueueEncoding::PriorityCanonical,
                ..Default::default()
            },
        )
        .unwrap();
        let arrival = CompiledModel::compile_with(
            &model,
            ComposerOptions {
                queue_encoding: QueueEncoding::ArrivalOrder,
                ..Default::default()
            },
        )
        .unwrap();
        // Both encodings are valid; the canonical one may merge states but never
        // produce more.
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
        for (idx, state) in compiled.states().iter().enumerate() {
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
        for (idx, state) in compiled.states().iter().enumerate() {
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
        let initial = &compiled.states()[compiled.initial_index()];
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
        let state = &compiled.states()[idx];
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
                unit = unit.with_preemption();
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
        for state in preemptive_1.states() {
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
        for state in preemptive_1.states() {
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
        let state = &compositional.states()[index];
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
        let initial = &compiled.states()[compiled.initial_index()];
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
        let initial = &compiled.states()[compiled.initial_index()];
        assert_eq!(initial.statuses[1], ComponentStatus::Dormant);
        // The spare only fails once activated, so the state space is small:
        // (p up, s dormant), (p failed+under repair, s active),
        // (p under repair, s failed waiting), (p up, s under repair, back to dormant p active)...
        // What matters: no state has the spare failed while the primary never failed first.
        for state in compiled.states() {
            if state.statuses[1].is_failed() {
                // The spare can only have failed after it was activated, which
                // requires the primary to have been failed at some point; in
                // particular the initial state is excluded.
                assert!(state != initial);
            }
        }
        // Full service whenever one of the two provides service.
        for (idx, state) in compiled.states().iter().enumerate() {
            let expected = state.statuses.iter().any(|s| s.provides_service());
            assert_eq!(compiled.service_levels()[idx] > 0.99, expected);
        }
    }
}
