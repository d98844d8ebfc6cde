//! Multi-line facilities: composition of per-line lumped chains.
//!
//! The composer and [`crate::Analysis`] map *one* model to *one* chain. This
//! module generalises that pipeline to the paper's headline object — a
//! facility of several process lines — as
//!
//! ```text
//! facility model ──► set of line chains ──► facility product
//! ```
//!
//! Every line is compiled and lumped on its own; the facility chain is then
//! the product of the per-line *quotients* (`arcade_lumping::product`): joint
//! states are tuples of block ids and the joint generator is the Kronecker
//! sum. For the water-treatment facility this is Line 1 × Line 2 =
//! 449 × 257 ≈ 115k blocks instead of the ≈ 9×10⁸ flat product.
//!
//! # Independence versus coupling
//!
//! The product construction is exact only while the lines evolve
//! independently. [`FacilityModel::composition_tree`] records how each
//! coupling is handled:
//!
//! * **A shared repair unit** (the same unit name appearing in several lines)
//!   makes failure/repair scheduling in one line depend on the other line's
//!   queue — the joint process is *not* a product of per-line Markov chains.
//!   The coupled lines are merged into one [`CompositionGroup`] and explored
//!   **jointly** (with `line/component` prefixed names); the facility chain
//!   is then the product over *groups*.
//! * **A cross-line disaster** (a [`FacilityModel`] disaster naming
//!   components of several lines) leaves the dynamics independent: it only
//!   sets where each group starts, at its own share of the disaster, so the
//!   joint start is a product state.
//!
//! Groups therefore evolve independently after any facility disaster, and
//! every facility measure factorises over them:
//!
//! * availability is `1 − Π_g P_g(no member line up)`, the paper's
//!   `A = A1 + A2 − A1·A2` for two lines;
//! * survivability ("some line is back at level ≥ s by time t") is the
//!   earliest of independent per-group first-passage times, so it is
//!   `1 − Π_g (1 − F_g(t))`;
//! * instantaneous and accumulated cost are additive rewards, so they are
//!   sums of per-group curves.
//!
//! [`FacilityAnalysis`] answers all of them from per-group solves: each
//! group holds one [`CompiledQuotient`] with its any-line-operational mask,
//! best line service level, cost rewards and its share of every facility
//! disaster, resolved when the analysis is built, and the facility curves
//! fold the group artifacts' curves. The joint chain (the quotient product,
//! orbit-folded when groups are interchangeable) is built only for the
//! joint-chain methods and [`FacilityAnalysis::compiled_quotient`], which
//! serve as oracles and feed the daemon.
//!
//! A group artifact runs on the group's exact quotient whenever the
//! per-line masks are unions of blocks (always true for singleton groups,
//! whose quotient respects the line's own labels); otherwise on the flat
//! group chain — correctness never depends on the quotient being usable.

use std::collections::{BTreeMap, HashMap};
use std::ops::Add;

use arcade_lumping::{lump, InitialPartition, ProductOrbit, QuotientProduct};
use arcade_symmetry::chain::group_identical_chains;
use arcade_symmetry::orbit::{for_each_multiset, FactorClasses};
use ctmc::{
    Ctmc, ExecOptions, RewardStructure, SteadyStateSolver, TransientOptions, TransientSolver,
};

use crate::composer::{service_at_least, CompiledModel, ComposerOptions, StateSpaceStats};
use crate::disaster::Disaster;
use crate::error::ArcadeError;
use crate::measures::{FacilityMeasure, MeasureResult};
use crate::model::ArcadeModel;
use crate::quotient::{check_service_level, CompiledQuotient, QuotientParts};
use crate::repair::{RepairStrategy, RepairUnit};
use crate::spare::SpareManagementUnit;
use fault_tree::{StructureNode, SystemStructure};

/// One named process line of a facility.
#[derive(Debug, Clone)]
pub struct FacilityLine {
    name: String,
    model: ArcadeModel,
}

impl FacilityLine {
    /// The line's name (the prefix used in merged namespaces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The line's Arcade model.
    pub fn model(&self) -> &ArcadeModel {
        &self.model
    }
}

/// A disaster at facility scope: components of one *or several* lines fail
/// simultaneously. Components are addressed as `(line, component)` pairs.
#[derive(Debug, Clone, PartialEq)]
pub struct FacilityDisaster {
    name: String,
    components: Vec<(String, String)>,
}

impl FacilityDisaster {
    /// Creates a facility disaster.
    pub fn new(
        name: impl Into<String>,
        components: impl IntoIterator<Item = (impl Into<String>, impl Into<String>)>,
    ) -> Self {
        FacilityDisaster {
            name: name.into(),
            components: components
                .into_iter()
                .map(|(line, component)| (line.into(), component.into()))
                .collect(),
        }
    }

    /// The disaster's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The failed `(line, component)` pairs.
    pub fn components(&self) -> &[(String, String)] {
        &self.components
    }

    /// The distinct lines this disaster touches, in first-mention order.
    pub fn lines(&self) -> Vec<&str> {
        let mut lines: Vec<&str> = Vec::new();
        for (line, _) in &self.components {
            if !lines.contains(&line.as_str()) {
                lines.push(line);
            }
        }
        lines
    }

    /// Whether the disaster spans more than one line.
    pub fn is_cross_line(&self) -> bool {
        self.lines().len() > 1
    }
}

/// How the facility chain is assembled from the lines: the partition of the
/// lines into independently-evolving groups, plus the list of cross-line
/// disasters (which start several lines at once but couple nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionTree {
    /// The groups, ordered by their smallest line index.
    pub groups: Vec<CompositionGroup>,
    /// Names of the facility disasters spanning more than one line.
    pub cross_line_disasters: Vec<String>,
}

/// One node of the composition tree: a maximal set of lines coupled through
/// shared repair units. Singleton groups are independent lines composed as
/// pure product factors; larger groups are explored jointly.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositionGroup {
    /// Indices of the member lines.
    pub lines: Vec<usize>,
    /// The repair-unit names shared between member lines (empty for
    /// independent lines).
    pub shared_units: Vec<String>,
}

impl CompositionGroup {
    /// Whether this group needs joint exploration (more than one line).
    pub fn is_joint(&self) -> bool {
        self.lines.len() > 1
    }
}

/// A facility: a set of named lines plus facility-scope disasters.
#[derive(Debug, Clone)]
pub struct FacilityModel {
    name: String,
    lines: Vec<FacilityLine>,
    disasters: Vec<FacilityDisaster>,
    tree: CompositionTree,
}

/// Builder for [`FacilityModel`].
#[derive(Debug, Clone)]
pub struct FacilityModelBuilder {
    name: String,
    lines: Vec<FacilityLine>,
    disasters: Vec<FacilityDisaster>,
}

impl FacilityModel {
    /// Starts building a facility.
    pub fn builder(name: impl Into<String>) -> FacilityModelBuilder {
        FacilityModelBuilder {
            name: name.into(),
            lines: Vec::new(),
            disasters: Vec::new(),
        }
    }

    /// The facility name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The lines, in definition order.
    pub fn lines(&self) -> &[FacilityLine] {
        &self.lines
    }

    /// Index of a line by name.
    pub fn line_index(&self, name: &str) -> Option<usize> {
        self.lines.iter().position(|line| line.name == name)
    }

    /// The facility-scope disasters.
    pub fn disasters(&self) -> &[FacilityDisaster] {
        &self.disasters
    }

    /// Looks up a disaster by name.
    pub fn disaster(&self, name: &str) -> Option<&FacilityDisaster> {
        self.disasters.iter().find(|d| d.name == name)
    }

    /// The detected composition tree: which lines compose as pure product
    /// factors and which must be explored jointly (see the module docs).
    pub fn composition_tree(&self) -> &CompositionTree {
        &self.tree
    }
}

impl FacilityModelBuilder {
    /// Adds a line. The name becomes the `line/component` prefix in merged
    /// namespaces and product labels.
    pub fn line(mut self, name: impl Into<String>, model: ArcadeModel) -> Self {
        self.lines.push(FacilityLine {
            name: name.into(),
            model,
        });
        self
    }

    /// Adds a facility-scope disaster.
    pub fn disaster(mut self, disaster: FacilityDisaster) -> Self {
        self.disasters.push(disaster);
        self
    }

    /// Validates the facility and detects the composition tree.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::InvalidParameter`] for structural problems
    /// (no lines, duplicate names) and [`ArcadeError::UnknownComponent`] for
    /// dangling disaster references.
    pub fn build(self) -> Result<FacilityModel, ArcadeError> {
        if self.lines.is_empty() {
            return Err(ArcadeError::InvalidParameter {
                reason: "a facility needs at least one line".to_string(),
            });
        }
        for (i, line) in self.lines.iter().enumerate() {
            if line.name.is_empty() {
                return Err(ArcadeError::InvalidParameter {
                    reason: "line names must be non-empty".to_string(),
                });
            }
            if self.lines[..i].iter().any(|other| other.name == line.name) {
                return Err(ArcadeError::InvalidParameter {
                    reason: format!("duplicate line name `{}`", line.name),
                });
            }
        }
        for (i, disaster) in self.disasters.iter().enumerate() {
            if self.disasters[..i].iter().any(|d| d.name == disaster.name) {
                return Err(ArcadeError::InvalidParameter {
                    reason: format!("duplicate facility disaster `{}`", disaster.name),
                });
            }
            for (line, component) in &disaster.components {
                let line_model = self.lines.iter().find(|l| &l.name == line).ok_or_else(|| {
                    ArcadeError::InvalidParameter {
                        reason: format!(
                            "facility disaster `{}` references unknown line `{line}`",
                            disaster.name
                        ),
                    }
                })?;
                if line_model.model.component(component).is_none() {
                    return Err(ArcadeError::UnknownComponent {
                        name: component.clone(),
                        referenced_by: format!("facility disaster `{}`", disaster.name),
                    });
                }
            }
        }
        let tree = detect_composition_tree(&self.lines, &self.disasters);
        Ok(FacilityModel {
            name: self.name,
            lines: self.lines,
            disasters: self.disasters,
            tree,
        })
    }
}

/// Union-find grouping of the lines by shared repair-unit names.
fn detect_composition_tree(
    lines: &[FacilityLine],
    disasters: &[FacilityDisaster],
) -> CompositionTree {
    let mut parent: Vec<usize> = (0..lines.len()).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }

    // Map repair-unit name -> lines using it; same name in two lines = one
    // shared physical unit.
    let mut unit_lines: HashMap<&str, Vec<usize>> = HashMap::new();
    for (index, line) in lines.iter().enumerate() {
        for unit in line.model.repair_units() {
            unit_lines.entry(unit.name()).or_default().push(index);
        }
    }
    let mut shared: Vec<(&str, Vec<usize>)> = unit_lines
        .into_iter()
        .filter(|(_, users)| users.len() > 1)
        .collect();
    shared.sort_unstable_by(|a, b| a.0.cmp(b.0));
    for (_, users) in &shared {
        for &user in &users[1..] {
            let a = find(&mut parent, users[0]);
            let b = find(&mut parent, user);
            if a != b {
                parent[b.max(a)] = b.min(a);
            }
        }
    }

    let mut groups: Vec<CompositionGroup> = Vec::new();
    let mut group_of: HashMap<usize, usize> = HashMap::new();
    for index in 0..lines.len() {
        let root = find(&mut parent, index);
        match group_of.get(&root) {
            Some(&g) => groups[g].lines.push(index),
            None => {
                group_of.insert(root, groups.len());
                groups.push(CompositionGroup {
                    lines: vec![index],
                    shared_units: Vec::new(),
                });
            }
        }
    }
    for (name, users) in shared {
        let g = group_of[&find(&mut parent, users[0])];
        groups[g].shared_units.push(name.to_string());
    }

    CompositionTree {
        groups,
        cross_line_disasters: disasters
            .iter()
            .filter(|d| d.is_cross_line())
            .map(|d| d.name.clone())
            .collect(),
    }
}

/// The `line/component` namespace used by merged groups and product labels.
fn qualified(line: &str, component: &str) -> String {
    format!("{line}/{component}")
}

/// Recursively prefixes every component leaf of a structure tree.
fn prefix_structure(node: &StructureNode, line: &str) -> StructureNode {
    match node {
        StructureNode::Component(name) => StructureNode::component(qualified(line, name)),
        StructureNode::Series(children) => {
            StructureNode::series(children.iter().map(|c| prefix_structure(c, line)).collect())
        }
        StructureNode::Redundant(children) => {
            StructureNode::redundant(children.iter().map(|c| prefix_structure(c, line)).collect())
        }
        StructureNode::RequiredOf { required, children } => StructureNode::required_of(
            *required,
            children.iter().map(|c| prefix_structure(c, line)).collect(),
        ),
    }
}

/// Rebuilds a component under a new (prefixed) name.
fn renamed_component(
    component: &crate::component::BasicComponent,
    name: String,
) -> Result<crate::component::BasicComponent, ArcadeError> {
    let mut out = crate::component::BasicComponent::from_rates(
        name,
        component.failure_rate(),
        component.repair_rate(),
    )?
    .with_failed_cost(component.failed_cost_per_hour())
    .with_operational_cost(component.operational_cost_per_hour())
    .with_dormancy_factor(component.dormancy_factor());
    if component.is_initially_failed() {
        out = out.initially_failed();
    }
    Ok(out)
}

/// Builds the joint model of a coupled group: every component, spare unit and
/// disaster moves into the `line/…` namespace; repair units appearing in
/// several lines are merged into one unit responsible for the union of their
/// (prefixed) members. The group structure puts the line structures under one
/// redundant (capacity-sharing) gate, matching the facility's parallel lines.
fn merged_group_model(
    group_name: &str,
    members: &[&FacilityLine],
) -> Result<ArcadeModel, ArcadeError> {
    let structure = SystemStructure::new(StructureNode::redundant(
        members
            .iter()
            .map(|line| prefix_structure(line.model.structure().root(), &line.name))
            .collect(),
    ));
    let mut builder = ArcadeModel::builder(group_name, structure);

    for line in members {
        for component in line.model.components() {
            builder = builder.component(renamed_component(
                component,
                qualified(&line.name, component.name()),
            )?);
        }
        // The facility evaluates *per-line* masks on the group chain, so the
        // isomorphic-subtree reduction must never exchange components across
        // lines — even when the member lines are identical models. One
        // symmetry guard per line pins that boundary.
        builder = builder.symmetry_guard(
            line.model
                .components()
                .iter()
                .map(|component| qualified(&line.name, component.name())),
        );
    }

    // Repair units, merged by name across the member lines.
    let mut merged_units: Vec<(String, RepairUnit, Vec<String>)> = Vec::new();
    for line in members {
        for unit in line.model.repair_units() {
            let prefixed: Vec<String> = unit
                .components()
                .iter()
                .map(|c| qualified(&line.name, c))
                .collect();
            match merged_units
                .iter_mut()
                .find(|(name, _, _)| name == unit.name())
            {
                Some((_, reference, responsibilities)) => {
                    if reference.strategy() != unit.strategy()
                        || reference.crews() != unit.crews()
                        || reference.is_preemptive() != unit.is_preemptive()
                        || reference.idle_cost_per_hour() != unit.idle_cost_per_hour()
                        || reference.busy_cost_per_hour() != unit.busy_cost_per_hour()
                    {
                        return Err(ArcadeError::InvalidParameter {
                            reason: format!(
                                "shared repair unit `{}` is configured differently across lines",
                                unit.name()
                            ),
                        });
                    }
                    responsibilities.extend(prefixed);
                }
                None => {
                    if matches!(unit.strategy(), RepairStrategy::Priority(_)) {
                        return Err(ArcadeError::InvalidParameter {
                            reason: format!(
                                "repair unit `{}` uses a static priority list, which is \
                                 ambiguous in a merged line namespace",
                                unit.name()
                            ),
                        });
                    }
                    merged_units.push((unit.name().to_string(), (*unit).clone(), prefixed));
                }
            }
        }
    }
    for (name, reference, responsibilities) in merged_units {
        let mut unit = RepairUnit::new(name, reference.strategy().clone(), reference.crews())?
            .responsible_for(responsibilities)
            .with_idle_cost(reference.idle_cost_per_hour())
            .with_busy_cost(reference.busy_cost_per_hour());
        if reference.is_preemptive() {
            unit = unit.with_preemption();
        }
        builder = builder.repair_unit(unit);
    }

    for line in members {
        for smu in line.model.spare_units() {
            builder = builder.spare_unit(SpareManagementUnit::new(
                qualified(&line.name, smu.name()),
                smu.primaries().iter().map(|c| qualified(&line.name, c)),
                smu.spares().iter().map(|c| qualified(&line.name, c)),
            )?);
        }
        // Per-line disasters stay reachable under their qualified names.
        for disaster in line.model.disasters() {
            builder = builder.disaster(Disaster::new(
                qualified(&line.name, disaster.name()),
                disaster
                    .failed_components()
                    .iter()
                    .map(|c| qualified(&line.name, c)),
            )?);
        }
    }

    builder.build()
}

/// One compiled composition group: its compiled model, the per-line
/// operational masks and the solver-ready artifact every group measure runs
/// on.
#[derive(Debug, Clone)]
struct CompiledGroup {
    /// Facility line indices of the members.
    lines: Vec<usize>,
    compiled: CompiledModel,
    /// Per member line: "line fully operational" on the artifact's chain.
    line_operational: Vec<Vec<bool>>,
    /// The group's exact quotient when every member line's masks project
    /// onto its blocks, the flat group chain otherwise; with the
    /// any-line-operational mask, the best line service level, the cost
    /// rewards and the group's share of every facility disaster.
    quotient: CompiledQuotient,
}

/// Per-line and product-level state-space statistics of a compiled facility
/// (the multi-line generalisation of [`StateSpaceStats`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FacilityStats {
    /// One entry per line, in facility definition order.
    pub lines: Vec<FacilityLineStats>,
    /// Number of joint product states: the product of the per-group solver
    /// chain sizes (the `449 × 257` of the paper's facility).
    pub joint_blocks: usize,
    /// Number of joint transitions of the Kronecker sum.
    pub joint_transitions: usize,
    /// Number of sorted-tuple orbit representatives when some groups'
    /// quotients are interchangeable (identical chains, matched under the
    /// symmetry engine's presentation code); `None` without factor symmetry.
    /// Two identical factors of `n` blocks fold to `n(n+1)/2` orbits.
    pub orbit_blocks: Option<usize>,
}

/// The statistics of one line within a compiled facility.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FacilityLineStats {
    /// The line name.
    pub line: String,
    /// Index of the composition group the line landed in.
    pub group: usize,
    /// Whether the line was explored jointly with coupled lines.
    pub jointly_explored: bool,
    /// The composition statistics of the line's group: pre-lump exploration
    /// counts, per-line quotient blocks and the sub-chain breakdown. Lines of
    /// a joint group share their group's statistics.
    pub stats: StateSpaceStats,
}

/// Result of solving the *genuine joint chain* of a facility (as opposed to
/// the per-group product form).
#[derive(Debug, Clone, PartialEq)]
pub struct JointAvailability {
    /// Probability that at least one line is fully operational, from the
    /// stationary distribution of the materialised joint chain.
    pub availability: f64,
    /// Matrix-free balance residual of the joint stationary vector against
    /// the Kronecker-sum generator: the certificate that the vector is
    /// stationary for the joint chain.
    pub residual: f64,
    /// Number of joint product states (the unreduced tuple count).
    pub joint_states: usize,
    /// Number of joint transitions of the unreduced product.
    pub joint_transitions: usize,
    /// Number of states of the chain the solver actually ran on: the orbit
    /// quotient under factor symmetry, the full product otherwise.
    pub solved_states: usize,
    /// Name of the solver tier that produced the vector:
    /// `"gs-materialised"` for the materialised Gauss–Seidel path,
    /// `"krylov-operator"` / `"jacobi-operator"` for the matrix-free path.
    pub solver_tier: String,
    /// Iterations (matrix sweeps for the materialised path, operator applies
    /// for the matrix-free path) the solver spent.
    pub iterations: usize,
}

/// Result of the **orbit-enumeration tier**: facility availability computed
/// by walking the canonical orbit representatives of the per-group product
/// under the stationary product measure — without ever materialising the flat
/// product or even the orbit quotient. This is what makes `k = 4` identical
/// lines (an 84.9-million-state product) tractable: only the
/// `C(n + k − 1, k)` sorted multisets per interchangeability class are
/// visited, one at a time.
#[derive(Debug, Clone, PartialEq)]
pub struct OrbitAvailability {
    /// Probability that at least one line is fully operational, exact for
    /// the independent-group product measure: `1 − Π_class (no-line-up mass
    /// of the class)` where each class mass is accumulated over its orbit
    /// representatives weighted by orbit size × product of local stationary
    /// probabilities.
    pub availability: f64,
    /// Orbit count bound, `Π_class C(n_c + k_c − 1, k_c)` (saturating) — the
    /// number the enumeration is a priori committed to.
    pub orbit_bound: usize,
    /// Representatives actually visited (saturating product over classes).
    /// Equals `orbit_bound` when no class saturates: every orbit is
    /// accounted for exactly once.
    pub orbits_explored: usize,
    /// Total probability mass accumulated over the enumeration, `Π_class
    /// Σ_orbits mass`. By the multinomial theorem this is exactly
    /// `Π_class (Σ π)^{k_c} ≈ 1` — the certificate that no orbit was missed
    /// or double-counted.
    pub total_mass: f64,
}

/// The reduction ladder of a facility's joint chain: raw product tuples →
/// sorted-tuple orbit representatives (factor symmetry) → the solver chain,
/// together with the exact-lumping minimality certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JointReduction {
    /// Raw product states (`449 × 257` for FRF-1 × FRF-1).
    pub product_blocks: usize,
    /// Raw product transitions of the Kronecker sum.
    pub product_transitions: usize,
    /// Orbit representatives after folding interchangeable factors; `None`
    /// without factor symmetry.
    pub orbit_blocks: Option<usize>,
    /// States of the chain the joint measures actually solve on (the orbit
    /// quotient under factor symmetry, the full product otherwise).
    pub solver_blocks: usize,
    /// Transitions of that chain.
    pub solver_transitions: usize,
    /// Blocks of the coarsest ordinarily-lumpable quotient of the solver
    /// chain respecting the facility observations — the minimality
    /// certificate: equality with `solver_blocks` proves no further sound
    /// reduction exists for these measures.
    pub exact_blocks: usize,
}

/// Evaluates facility-level measures. Availability, survivability and the
/// cost curves combine solves on each composition group's own chain (see the
/// module docs for why that is exact). The genuine joint chain, the quotient
/// product of the group chains, is built on demand for the joint-chain
/// methods, which validate the product form and feed the daemon.
#[derive(Debug, Clone)]
pub struct FacilityAnalysis<'a> {
    model: &'a FacilityModel,
    groups: Vec<CompiledGroup>,
    options: ComposerOptions,
    /// Stationary distribution of every group's solver chain, computed on
    /// first use and shared by all steady-state measures (the chains are
    /// immutable, so one solve serves them all).
    stationaries: std::sync::OnceLock<Vec<Vec<f64>>>,
    /// The joint chain, built on first use and shared by every joint
    /// measure: the quotient product, its sorted-tuple orbit fold (when
    /// groups are interchangeable), the materialised chain and the facility
    /// observations on it.
    joint: std::sync::OnceLock<JointCache>,
    /// The reduction ladder incl. the exact-lumping minimality certificate
    /// (a full partition-refinement pass), computed only when asked for.
    reduction: std::sync::OnceLock<JointReduction>,
}

/// Everything the joint-chain methods share (see `FacilityAnalysis::joint`):
/// [`FacilityAnalysis::compiled_quotient`], the joint availability solve and
/// the reduction ladder. The survivability and cost curves do not use it.
#[derive(Debug, Clone)]
struct JointCache {
    product: QuotientProduct,
    /// The factor-symmetry orbit fold; `None` when all groups differ.
    orbit: Option<ProductOrbit>,
    /// The solver-ready artifact every joint measure runs on: the
    /// materialised chain (the orbit quotient under factor symmetry, the
    /// full product otherwise) plus the facility observations and the
    /// precomputed disaster start blocks.
    quotient: CompiledQuotient,
}

impl<'a> FacilityAnalysis<'a> {
    /// Compiles every composition group with default options.
    ///
    /// # Errors
    ///
    /// See [`FacilityAnalysis::with_options`].
    pub fn new(model: &'a FacilityModel) -> Result<Self, ArcadeError> {
        Self::with_options(model, ComposerOptions::default())
    }

    /// Compiles every composition group with explicit options and resolves
    /// each group's start state after every facility disaster.
    ///
    /// # Errors
    ///
    /// Propagates composition errors, and rejects a facility disaster whose
    /// state is not reachable in some group.
    pub fn with_options(
        model: &'a FacilityModel,
        options: ComposerOptions,
    ) -> Result<Self, ArcadeError> {
        let mut groups = Vec::new();
        for group in &model.composition_tree().groups {
            let members: Vec<&FacilityLine> =
                group.lines.iter().map(|&i| &model.lines()[i]).collect();
            let label = members
                .iter()
                .map(|line| line.name.clone())
                .collect::<Vec<_>>()
                .join("+");
            let (compiled, line_masks) = if group.is_joint() {
                let merged = merged_group_model(&label, &members)?;
                let compiled = CompiledModel::compile_with(&merged, options)?;
                let masks = per_line_masks(&compiled, &members)?;
                (compiled, masks)
            } else {
                let compiled = CompiledModel::compile_with(&members[0].model, options)?;
                let masks = vec![(
                    compiled.operational_mask().to_vec(),
                    compiled.service_levels().to_vec(),
                )];
                (compiled, masks)
            };

            // The solver chain: the quotient when every per-line mask is a
            // union of blocks, the flat chain otherwise.
            let projected = compiled.lumped().and_then(|lumped| {
                let lumping = lumped.lumping();
                line_masks
                    .iter()
                    .map(|(mask, service)| {
                        Ok((
                            lumping.project_mask(mask)?,
                            lumping.project_values(service)?,
                        ))
                    })
                    .collect::<Result<Vec<LineMetadata>, arcade_lumping::LumpError>>()
                    .ok()
                    .map(|masks| (lumped, masks))
            });
            let start = |share: Option<&Disaster>| match (&projected, share) {
                (Some(_), _) => compiled.solver_start(share),
                (None, Some(share)) => compiled.disaster_state_index(share),
                (None, None) => Ok(compiled.initial_index()),
            };
            let mut disaster_starts = BTreeMap::new();
            for disaster in model.disasters() {
                let share = group_disaster(model, &group.lines, disaster)?;
                disaster_starts.insert(disaster.name().to_string(), start(share.as_ref())?);
            }
            let initial = start(None)?;
            let (chain, cost, line_masks) = match projected {
                Some((lumped, masks)) => (lumped.quotient(), lumped.cost_rewards(), masks),
                None => (compiled.chain(), compiled.cost_rewards(), line_masks),
            };
            let mut any_line_operational = vec![false; chain.num_states()];
            let mut best_service = vec![0.0f64; chain.num_states()];
            for (mask, service) in &line_masks {
                for (slot, &up) in any_line_operational.iter_mut().zip(mask) {
                    *slot |= up;
                }
                for (slot, &level) in best_service.iter_mut().zip(service) {
                    *slot = slot.max(level);
                }
            }
            let quotient = CompiledQuotient::from_parts(QuotientParts {
                name: label,
                chain: chain.clone(),
                operational: any_line_operational,
                service: best_service,
                cost: cost.clone(),
                initial,
                disaster_starts,
                source_states: compiled.chain().num_states(),
            })?;
            groups.push(CompiledGroup {
                lines: group.lines.clone(),
                compiled,
                line_operational: line_masks.into_iter().map(|(mask, _)| mask).collect(),
                quotient,
            });
        }
        Ok(FacilityAnalysis {
            model,
            groups,
            options,
            stationaries: std::sync::OnceLock::new(),
            joint: std::sync::OnceLock::new(),
            reduction: std::sync::OnceLock::new(),
        })
    }

    /// The facility under analysis.
    pub fn model(&self) -> &FacilityModel {
        self.model
    }

    /// The composition options used for every group.
    pub fn options(&self) -> ComposerOptions {
        self.options
    }

    fn exec(&self) -> ExecOptions {
        self.options.exec
    }

    /// The group index a line landed in.
    pub fn group_of_line(&self, line: usize) -> usize {
        self.groups
            .iter()
            .position(|g| g.lines.contains(&line))
            .expect("every line belongs to exactly one group")
    }

    /// Per-line and product-level state-space statistics.
    pub fn stats(&self) -> FacilityStats {
        let lines = self
            .model
            .lines()
            .iter()
            .enumerate()
            .map(|(index, line)| {
                let group = self.group_of_line(index);
                FacilityLineStats {
                    line: line.name.clone(),
                    group,
                    jointly_explored: self.groups[group].lines.len() > 1,
                    stats: self.groups[group].compiled.stats(),
                }
            })
            .collect();
        let joint_blocks = self
            .groups
            .iter()
            .fold(1usize, |acc, g| acc.saturating_mul(g.quotient.num_states()));
        let joint_transitions = self
            .groups
            .iter()
            .map(|g| {
                g.quotient
                    .chain()
                    .num_transitions()
                    .saturating_mul(joint_blocks / g.quotient.num_states().max(1))
            })
            .fold(0usize, usize::saturating_add);
        FacilityStats {
            lines,
            joint_blocks,
            joint_transitions,
            orbit_blocks: self
                .factor_classes()
                .and_then(|classes| classes.has_symmetry().then(|| classes.num_orbits())),
        }
    }

    /// The interchangeability classes of the per-group solver chains, or
    /// `None` for a degenerate (empty) facility.
    fn factor_classes(&self) -> Option<FactorClasses> {
        let chains: Vec<&Ctmc> = self.groups.iter().map(|g| g.quotient.chain()).collect();
        FactorClasses::new(
            group_identical_chains(&chains),
            chains.iter().map(|chain| chain.num_states()).collect(),
        )
        .ok()
    }

    /// The quotient product of the per-group solver chains — the facility
    /// chain as a composable object (materialise it or use its matrix-free
    /// operator).
    ///
    /// # Errors
    ///
    /// Propagates product-construction errors.
    pub fn quotient_product(&self) -> Result<QuotientProduct, ArcadeError> {
        Ok(QuotientProduct::from_chains(
            self.groups
                .iter()
                .map(|g| (g.quotient.name().to_string(), g.quotient.chain().clone()))
                .collect(),
        )?)
    }

    /// The stationary distribution of every group's solver chain.
    fn group_stationaries(&self) -> Result<&[Vec<f64>], ArcadeError> {
        if let Some(cached) = self.stationaries.get() {
            return Ok(cached);
        }
        let computed = self
            .groups
            .iter()
            .map(|g| Ok(g.quotient.stationary_counted(None, self.exec())?.0))
            .collect::<Result<Vec<_>, ArcadeError>>()?;
        Ok(self.stationaries.get_or_init(|| computed))
    }

    /// Steady-state availability of one line: the long-run probability that
    /// the line is fully operational.
    ///
    /// # Errors
    ///
    /// Propagates solver errors and rejects unknown lines.
    pub fn line_availability(&self, line: usize) -> Result<f64, ArcadeError> {
        if line >= self.model.lines().len() {
            return Err(ArcadeError::InvalidParameter {
                reason: format!("unknown line index {line}"),
            });
        }
        let group_index = self.group_of_line(line);
        let group = &self.groups[group_index];
        let member = group
            .lines
            .iter()
            .position(|&l| l == line)
            .expect("line is in its group");
        let pi = &self.group_stationaries()?[group_index];
        Ok(pi
            .iter()
            .zip(group.line_operational[member].iter())
            .filter(|(_, &up)| up)
            .map(|(p, _)| p)
            .sum())
    }

    /// Facility availability — the long-run probability that **at least one
    /// line** is fully operational — via the product form: groups evolve
    /// independently, so `A = 1 − Π_g P_g(no member line operational)`. For
    /// two independent lines this is exactly the paper's
    /// `A = A1 + A2 − A1·A2`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn steady_state_availability(&self) -> Result<f64, ArcadeError> {
        let mut none_up_product = 1.0;
        for (group, pi) in self.groups.iter().zip(self.group_stationaries()?.iter()) {
            let none_up: f64 = pi
                .iter()
                .zip(group.quotient.operational_mask())
                .filter(|(_, &up)| !up)
                .map(|(p, _)| p)
                .sum();
            none_up_product *= none_up;
        }
        Ok(1.0 - none_up_product)
    }

    /// The shared joint-chain cache: built on first use, reused by every
    /// joint-chain method (artifact, availability, reductions).
    fn joint(&self) -> Result<&JointCache, ArcadeError> {
        if let Some(cache) = self.joint.get() {
            return Ok(cache);
        }
        let built = self.build_joint_cache()?;
        Ok(self.joint.get_or_init(|| built))
    }

    fn build_joint_cache(&self) -> Result<JointCache, ArcadeError> {
        let exec = self.exec();
        let product = self.quotient_product()?;

        // Facility observations on the raw product tuples.
        let joint_any_up = self.joint_any_line_operational(&product)?;
        let joint_service = self.joint_service_levels(&product)?;
        let joint_cost = self.joint_cost_rewards(&product)?;

        // Level 1 — factor symmetry: fold interchangeable groups to their
        // sorted-tuple orbit representatives *before* materialising. The
        // facility observations are symmetric in interchangeable groups
        // (identical chains carry identical masks/levels/rewards, and the
        // observations combine them with OR / max / sorted +, all of which
        // are exactly orbit-constant), so the projections are expected to
        // succeed whenever the orbit exists — but correctness never depends
        // on it: an observation that fails to project drops the fold and
        // the measures run on the unreduced product.
        let orbit = product.orbit();
        let folded = match &orbit {
            Some(orbit_fold) => {
                let projected =
                    orbit_fold
                        .project_mask(&product, &joint_any_up)
                        .and_then(|any_up| {
                            Ok((
                                any_up,
                                orbit_fold.project_values(&product, &joint_service)?,
                                orbit_fold.project_values(&product, joint_cost.state_rewards())?,
                            ))
                        });
                match projected {
                    Ok((any_up, service, cost_values)) => Some((
                        orbit_fold.materialize(&product, &exec)?,
                        any_up,
                        service,
                        RewardStructure::new(joint_cost.name(), cost_values)?,
                    )),
                    Err(_) => None,
                }
            }
            None => None,
        };
        let (orbit, (chain, any_up, service, cost)) = match folded {
            Some(folded) => (orbit, folded),
            None => (
                None,
                (
                    product.materialize(&exec)?,
                    joint_any_up,
                    joint_service,
                    joint_cost,
                ),
            ),
        };

        // Resolve every start block at compile time: the no-disaster start
        // and one start per facility disaster, each the joint tuple mapped
        // through the orbit fold when one is active.
        let start_of = |disaster: Option<&FacilityDisaster>| -> Result<usize, ArcadeError> {
            let joint = self.start_joint_index(&product, disaster)?;
            Ok(match &orbit {
                Some(orbit_fold) => orbit_fold.orbit_of(&product, joint),
                None => joint,
            })
        };
        let initial = start_of(None)?;
        let mut disaster_starts = BTreeMap::new();
        for disaster in self.model.disasters() {
            disaster_starts.insert(disaster.name().to_string(), start_of(Some(disaster))?);
        }
        let quotient = CompiledQuotient::from_parts(QuotientParts {
            name: self.model.name().to_string(),
            chain,
            operational: any_up,
            service,
            cost,
            initial,
            disaster_starts,
            source_states: product.num_states(),
        })?;

        Ok(JointCache {
            product,
            orbit,
            quotient,
        })
    }

    /// The immutable solver-ready artifact of the facility's joint chain
    /// (built on first use, then cloned out of the cache): the compile/solve
    /// split of [`CompiledQuotient`]. It is what the daemon caches for a
    /// facility spec. Its survivability and cost curves solve the joint
    /// chain and agree with the product-form methods of this analysis to
    /// within 1e-12 relative; they are not bit-identical to them.
    ///
    /// # Errors
    ///
    /// Propagates product-construction errors.
    pub fn compiled_quotient(&self) -> Result<CompiledQuotient, ArcadeError> {
        Ok(self.joint()?.quotient.clone())
    }

    /// The reduction ladder of the joint chain: raw product tuples → orbit
    /// representatives (when factor symmetry exists) → the solver chain the
    /// measures run on, plus the exact-lumping **minimality certificate**:
    /// the coarsest ordinarily-lumpable quotient of the solver chain that
    /// respects the facility observations (any-line-operational, joint
    /// service level, cost rewards). `exact_blocks == solver_blocks` proves
    /// the solver chain cannot be reduced further without changing some
    /// facility measure — which is what partition refinement shows for the
    /// paper's asymmetric Line 1 × Line 2 pairs, where no cross-line
    /// symmetry exists.
    ///
    /// Builds the cache on first use; the refinement pass runs once and is
    /// cached alongside it.
    ///
    /// # Errors
    ///
    /// Propagates product-construction and lumping errors.
    pub fn joint_reduction(&self) -> Result<JointReduction, ArcadeError> {
        if let Some(reduction) = self.reduction.get() {
            return Ok(reduction.clone());
        }
        let cache = self.joint()?;
        let chain = cache.quotient.chain();
        let mut partition = InitialPartition::trivial(chain.num_states());
        partition.refine_by_bools(cache.quotient.operational_mask())?;
        partition.refine_by_f64(cache.quotient.service_levels())?;
        partition.refine_by_f64(cache.quotient.cost_rewards().state_rewards())?;
        let lumped = lump(chain, &partition)?;
        let reduction = JointReduction {
            product_blocks: cache.product.num_states(),
            product_transitions: cache.product.num_transitions(),
            orbit_blocks: cache.orbit.as_ref().map(ProductOrbit::num_orbits),
            solver_blocks: chain.num_states(),
            solver_transitions: chain.num_transitions(),
            exact_blocks: lumped.num_blocks(),
        };
        Ok(self.reduction.get_or_init(|| reduction).clone())
    }

    /// Facility availability from the **genuine joint chain**: the cached
    /// joint chain (the sorted-tuple orbit quotient under factor symmetry,
    /// the materialised product otherwise) is solved for its stationary
    /// distribution — warm started from the product form, which changes only
    /// the trajectory — and the any-line-operational mass summed. The result
    /// is certified by the matrix-free Kronecker-sum balance residual of the
    /// joint-level vector (orbit solves expand uniformly over their orbits,
    /// which is exact for automorphism-invariant stationary vectors).
    /// Agreement with [`FacilityAnalysis::steady_state_availability`] to
    /// solver tolerance is the paper's `A1 + A2 − A1·A2` validation.
    ///
    /// # Errors
    ///
    /// Propagates product-construction and solver errors.
    pub fn joint_steady_state_availability(&self) -> Result<JointAvailability, ArcadeError> {
        let exec = self.exec();
        let cache = self.joint()?;
        let guess = cache
            .product
            .product_distribution(self.group_stationaries()?)?;
        let guess = match &cache.orbit {
            Some(orbit) => orbit.aggregate_distribution(&cache.product, &guess),
            None => guess,
        };
        let (pi, iterations) = SteadyStateSolver::new(cache.quotient.chain())
            .exec(exec)
            .initial_guess(guess)
            .solve_counted()?;
        let joint_pi = match &cache.orbit {
            Some(orbit) => orbit.expand_distribution(&cache.product, &pi),
            None => pi.clone(),
        };
        let residual = cache.product.balance_residual(&joint_pi, &exec)?;
        let availability = cache.quotient.availability_of(&pi);
        Ok(JointAvailability {
            availability,
            residual,
            joint_states: cache.product.num_states(),
            joint_transitions: cache.product.num_transitions(),
            solved_states: cache.quotient.num_states(),
            solver_tier: "gs-materialised".to_string(),
            iterations,
        })
    }

    /// Facility availability from the genuine joint chain **without ever
    /// materialising it**: the Kronecker-sum operator of the quotient product
    /// is handed to [`SteadyStateSolver::from_operator`], warm started from
    /// the product form (which, the groups being independent, is already
    /// stationary — the solve is then a certified fixed-point confirmation
    /// that converges in a handful of applies). Krylov runs first; if the
    /// restarted iteration stalls the solver falls back to damped Jacobi, and
    /// `solver_tier` names the tier that answered. The returned vector is
    /// certified by the same matrix-free balance residual as the
    /// materialised path, and the any-line-operational mass is summed over
    /// per-group masks expanded on the fly — no joint matrix, no joint state
    /// enumeration beyond the mask vectors.
    ///
    /// Memory: the solver holds a handful of product-length vectors (the
    /// Krylov basis, bounded by the restart length) instead of the product's
    /// transition matrix, so this tier reaches products whose materialised
    /// form would not fit.
    ///
    /// # Errors
    ///
    /// Propagates product-construction and solver errors.
    pub fn matrix_free_steady_state_availability(&self) -> Result<JointAvailability, ArcadeError> {
        let exec = self.exec();
        let product = self.quotient_product()?;
        let guess = product.product_distribution(self.group_stationaries()?)?;
        let any_up = self.joint_any_line_operational(&product)?;
        let operator = product.operator();
        let (joint_pi, iterations, tier) =
            SteadyStateSolver::from_operator(&operator, product.exit_rates())?
                .exec(exec)
                .initial_guess(guess)
                .solve_reported()?;
        let residual = product.balance_residual(&joint_pi, &exec)?;
        let availability = joint_pi
            .iter()
            .zip(any_up.iter())
            .filter(|(_, &up)| up)
            .map(|(p, _)| p)
            .sum();
        Ok(JointAvailability {
            availability,
            residual,
            joint_states: product.num_states(),
            joint_transitions: product.num_transitions(),
            solved_states: product.num_states(),
            solver_tier: tier.to_string(),
            iterations,
        })
    }

    /// Facility availability by **orbit enumeration**: walks the canonical
    /// (sorted) multisets of every interchangeability class lazily, weighting
    /// each representative by its orbit size times the product of local
    /// stationary probabilities. Because the groups evolve independently, the
    /// joint stationary measure *is* the product measure, and because the
    /// "no member line up" event factorises across classes, the availability
    /// is exactly `1 − Π_class (class none-up mass)` — no joint chain is ever
    /// built, so this tier scales to products far beyond what
    /// [`FacilityAnalysis::joint_steady_state_availability`] can materialise
    /// (`k = 4` DED twins: 3,764,376 orbit visits instead of an
    /// 84,934,656-state product). The enumeration is strictly sequential, so
    /// the result is bit-identical across thread counts whenever the
    /// per-group solves are (which the deterministic executor guarantees).
    ///
    /// `total_mass ≈ 1` in the returned certificate confirms the enumeration
    /// covered every orbit exactly once.
    ///
    /// # Errors
    ///
    /// Rejects degenerate (empty) facilities and orbit bounds above
    /// `max_orbits` with [`ArcadeError::InvalidParameter`]; propagates
    /// per-group solver errors.
    pub fn orbit_availability(&self, max_orbits: usize) -> Result<OrbitAvailability, ArcadeError> {
        let classes = self
            .factor_classes()
            .ok_or_else(|| ArcadeError::InvalidParameter {
                reason: "orbit enumeration needs at least one composition group".into(),
            })?;
        let orbit_bound = classes.num_orbits();
        if orbit_bound > max_orbits {
            return Err(ArcadeError::InvalidParameter {
                reason: format!(
                    "orbit bound {orbit_bound} exceeds the enumeration cap {max_orbits}"
                ),
            });
        }
        let stationaries = self.group_stationaries()?;
        let class_ids = classes.classes();
        let num_classes = class_ids.iter().copied().max().map_or(0, |m| m + 1);
        let mut none_up_product = 1.0f64;
        let mut total_mass = 1.0f64;
        let mut orbits_explored = 1usize;
        for class in 0..num_classes {
            let members: Vec<usize> = (0..class_ids.len())
                .filter(|&g| class_ids[g] == class)
                .collect();
            // Interchangeable groups have identical chains, hence identical
            // stationary vectors and observation masks: the first member
            // stands in for the whole class.
            let representative = members[0];
            let pi = &stationaries[representative];
            let any_up = self.groups[representative].quotient.operational_mask();
            let mut class_mass = 0.0f64;
            let mut class_none_up = 0.0f64;
            let visited = for_each_multiset(members.len(), pi.len(), |tuple, orbit_size| {
                let mass = orbit_size as f64 * tuple.iter().map(|&v| pi[v]).product::<f64>();
                class_mass += mass;
                if tuple.iter().all(|&v| !any_up[v]) {
                    class_none_up += mass;
                }
            });
            total_mass *= class_mass;
            none_up_product *= class_none_up;
            orbits_explored = orbits_explored.saturating_mul(visited);
        }
        Ok(OrbitAvailability {
            availability: 1.0 - none_up_product,
            orbit_bound,
            orbits_explored,
            total_mass,
        })
    }

    /// Joint mask: at least one line fully operational.
    fn joint_any_line_operational(
        &self,
        product: &QuotientProduct,
    ) -> Result<Vec<bool>, ArcadeError> {
        let mut out = vec![false; product.num_states()];
        for (index, group) in self.groups.iter().enumerate() {
            let expanded = product.expand_mask(index, group.quotient.operational_mask())?;
            for (slot, up) in out.iter_mut().zip(expanded) {
                *slot |= up;
            }
        }
        Ok(out)
    }

    /// Joint mask: facility service level (the best level any line delivers)
    /// at least `threshold`.
    fn joint_service_at_least(
        &self,
        product: &QuotientProduct,
        threshold: f64,
    ) -> Result<Vec<bool>, ArcadeError> {
        let mut out = vec![false; product.num_states()];
        for (index, group) in self.groups.iter().enumerate() {
            let mask = service_at_least(group.quotient.service_levels(), threshold);
            for (slot, up) in out.iter_mut().zip(product.expand_mask(index, &mask)?) {
                *slot |= up;
            }
        }
        Ok(out)
    }

    /// The facility service level of every joint state: the best level any
    /// member line delivers. Refining the joint quotient by this value keeps
    /// every `service ≥ threshold` goal set block-closed for *every*
    /// threshold at once.
    fn joint_service_levels(&self, product: &QuotientProduct) -> Result<Vec<f64>, ArcadeError> {
        let mut out = vec![0.0f64; product.num_states()];
        for (index, group) in self.groups.iter().enumerate() {
            let expanded = product.expand_values(index, group.quotient.service_levels())?;
            for (slot, level) in out.iter_mut().zip(expanded) {
                *slot = slot.max(level);
            }
        }
        Ok(out)
    }

    /// The joint product index of the state right after `disaster` (every
    /// touched group in its disaster state, every other group in its regular
    /// initial state).
    fn start_joint_index(
        &self,
        product: &QuotientProduct,
        disaster: Option<&FacilityDisaster>,
    ) -> Result<usize, ArcadeError> {
        let tuple = self
            .groups
            .iter()
            .map(|g| g.quotient.start_for(disaster.map(FacilityDisaster::name)))
            .collect::<Result<Vec<_>, _>>()?;
        product
            .index_of(&tuple)
            .ok_or_else(|| ArcadeError::InvalidDisaster {
                reason: "joint disaster tuple out of range".to_string(),
            })
    }

    /// Looks up a facility disaster by name.
    fn lookup_disaster(&self, name: &str) -> Result<&FacilityDisaster, ArcadeError> {
        self.model
            .disaster(name)
            .ok_or_else(|| ArcadeError::UnsupportedMeasure {
                reason: format!("unknown facility disaster `{name}`"),
            })
    }

    /// Facility survivability after a (possibly cross-line) disaster: the
    /// probability that, within each deadline, the facility again delivers a
    /// service level of at least `service_level` **on some line**.
    ///
    /// Product form: the facility is back once the first group is back, and
    /// the groups evolve independently from their shares of the disaster,
    /// so with `F_g(t)` the probability that group `g` is back by `t` the
    /// curve is `1 − Π_g (1 − F_g(t))`. Each `F_g` is solved on the group's
    /// own quotient and the curves are combined in group order, which keeps
    /// the result bit-identical at every thread count. The joint chain is
    /// never built; [`FacilityAnalysis::compiled_quotient`] answers the same
    /// query on it to within 1e-12 relative.
    ///
    /// # Errors
    ///
    /// Rejects invalid service levels, then unknown disasters; propagates
    /// solver errors.
    pub fn survivability_curve(
        &self,
        disaster: &str,
        service_level: f64,
        times: &[f64],
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        check_service_level(service_level)?;
        let disaster = self.lookup_disaster(disaster)?;
        self.fold_group_curves(times, either_recovered, |quotient| {
            quotient.survivability_curve(disaster.name(), service_level, times, self.exec())
        })
    }

    /// Facility survivability evaluated **matrix-free**: the same quantity
    /// as [`FacilityAnalysis::survivability_curve`], but driven through the
    /// Kronecker-sum [`arcade_lumping::KroneckerSum`] operator of the
    /// unreduced product — the joint chain is never materialised, let alone
    /// lumped. Used as an independent joint-chain cross-check of the
    /// product-form curve.
    ///
    /// # Errors
    ///
    /// See [`FacilityAnalysis::survivability_curve`].
    pub fn matrix_free_survivability_curve(
        &self,
        disaster: &str,
        service_level: f64,
        times: &[f64],
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        check_service_level(service_level)?;
        let disaster = self.lookup_disaster(disaster)?;
        let product = self.quotient_product()?;
        let start = self.start_joint_index(&product, Some(disaster))?;
        let mut initial = vec![0.0; product.num_states()];
        initial[start] = 1.0;
        let goal = self.joint_service_at_least(&product, service_level)?;
        let safe = vec![true; goal.len()];
        let operator = product.operator();
        let solver = TransientSolver::from_operator(
            &operator,
            product.exit_rates(),
            initial,
            TransientOptions {
                exec: self.exec(),
                ..TransientOptions::default()
            },
        )?;
        let values = solver.bounded_until_many(&safe, &goal, times)?;
        Ok(times.iter().copied().zip(values).collect())
    }

    /// Validates an optional facility-disaster name against this facility
    /// (keeping the facility-scope error message) and returns it for the
    /// quotient artifact to resolve.
    fn validated_disaster<'d>(
        &self,
        disaster: Option<&'d str>,
    ) -> Result<Option<&'d str>, ArcadeError> {
        if let Some(name) = disaster {
            self.lookup_disaster(name)?;
        }
        Ok(disaster)
    }

    /// Expected accumulated facility repair cost, optionally after a
    /// disaster. The facility cost is the sum of the groups' cost rewards,
    /// so its expectation is the sum of the per-group curves, each solved
    /// on the group's own quotient from its share of the disaster and added
    /// in group order. The joint chain is never built.
    ///
    /// # Errors
    ///
    /// Rejects unknown disasters; propagates solver errors.
    pub fn accumulated_cost_curve(
        &self,
        disaster: Option<&str>,
        times: &[f64],
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        let disaster = self.validated_disaster(disaster)?;
        self.fold_group_curves(times, f64::add, |quotient| {
            quotient.accumulated_cost_curve(disaster, times, self.exec())
        })
    }

    /// Expected instantaneous facility cost rate, optionally after a
    /// disaster: the sum of the per-group curves, as for
    /// [`FacilityAnalysis::accumulated_cost_curve`].
    ///
    /// # Errors
    ///
    /// See [`FacilityAnalysis::accumulated_cost_curve`].
    pub fn instantaneous_cost_curve(
        &self,
        disaster: Option<&str>,
        times: &[f64],
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        let disaster = self.validated_disaster(disaster)?;
        self.fold_group_curves(times, f64::add, |quotient| {
            quotient.instantaneous_cost_curve(disaster, times, self.exec())
        })
    }

    /// Folds one curve per group artifact into the facility curve: pointwise
    /// `combine`, starting from 0, in group order.
    fn fold_group_curves(
        &self,
        times: &[f64],
        combine: impl Fn(f64, f64) -> f64,
        group_curve: impl Fn(&CompiledQuotient) -> Result<Vec<(f64, f64)>, ArcadeError>,
    ) -> Result<Vec<(f64, f64)>, ArcadeError> {
        let mut folded = vec![0.0f64; times.len()];
        for group in &self.groups {
            for (slot, (_, value)) in folded.iter_mut().zip(group_curve(&group.quotient)?) {
                *slot = combine(*slot, value);
            }
        }
        Ok(times.iter().copied().zip(folded).collect())
    }

    /// Evaluates a declarative [`FacilityMeasure`].
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::UnsupportedMeasure`] for unknown lines or
    /// disasters and propagates solver errors.
    pub fn evaluate(&self, measure: &FacilityMeasure) -> Result<MeasureResult, ArcadeError> {
        match measure {
            FacilityMeasure::SteadyStateAvailability => {
                self.steady_state_availability().map(MeasureResult::Scalar)
            }
            FacilityMeasure::JointSteadyStateAvailability => Ok(MeasureResult::Scalar(
                self.joint_steady_state_availability()?.availability,
            )),
            FacilityMeasure::LineAvailability { line } => {
                let index =
                    self.model
                        .line_index(line)
                        .ok_or_else(|| ArcadeError::UnsupportedMeasure {
                            reason: format!("unknown line `{line}`"),
                        })?;
                self.line_availability(index).map(MeasureResult::Scalar)
            }
            FacilityMeasure::SurvivabilityCurve {
                disaster,
                service_level,
                times,
            } => self
                .survivability_curve(disaster, *service_level, times)
                .map(MeasureResult::Curve),
            FacilityMeasure::AccumulatedCost { disaster, times } => self
                .accumulated_cost_curve(disaster.as_deref(), times)
                .map(MeasureResult::Curve),
        }
    }

    /// The facility cost rewards on the joint chain.
    fn joint_cost_rewards(
        &self,
        product: &QuotientProduct,
    ) -> Result<RewardStructure, ArcadeError> {
        let per_group: Vec<Option<&RewardStructure>> = self
            .groups
            .iter()
            .map(|g| Some(g.quotient.cost_rewards()))
            .collect();
        Ok(product.sum_rewards("facility_repair_cost", &per_group)?)
    }
}

/// The probability that either of two independent events has happened, from
/// their probabilities `a` and `b`: `a + b·(1 − a)`. Unlike
/// `1 − (1 − a)(1 − b)` it keeps full relative precision when both are tiny,
/// and it returns exactly 1 when `b` is 1.
fn either_recovered(a: f64, b: f64) -> f64 {
    a + b * (1.0 - a)
}

/// The share of a facility disaster that falls on the composition group of
/// `lines`, in the group's own component namespace; `None` when the disaster
/// spares the group.
fn group_disaster(
    model: &FacilityModel,
    lines: &[usize],
    disaster: &FacilityDisaster,
) -> Result<Option<Disaster>, ArcadeError> {
    let mut components = Vec::new();
    for &line_index in lines {
        let line = &model.lines()[line_index];
        for (disaster_line, component) in disaster.components() {
            if disaster_line == &line.name {
                components.push(if lines.len() > 1 {
                    qualified(&line.name, component)
                } else {
                    component.clone()
                });
            }
        }
    }
    if components.is_empty() {
        return Ok(None);
    }
    Ok(Some(Disaster::new(disaster.name(), components)?))
}

/// A line's fully-operational mask and per-state service levels on a group
/// chain.
type LineMetadata = (Vec<bool>, Vec<f64>);

/// Evaluates each member line's fully-operational flag and service level on
/// every state of a merged group chain.
fn per_line_masks(
    compiled: &CompiledModel,
    members: &[&FacilityLine],
) -> Result<Vec<LineMetadata>, ArcadeError> {
    let position: HashMap<&str, usize> = compiled
        .component_names()
        .iter()
        .enumerate()
        .map(|(i, name)| (name.as_str(), i))
        .collect();
    let mut out = Vec::with_capacity(members.len());
    for line in members {
        let degraded = line.model.degraded_fault_tree();
        let service_tree = line.model.service_tree();
        let mut operational = Vec::with_capacity(compiled.states().len());
        let mut service = Vec::with_capacity(compiled.states().len());
        for state in compiled.states() {
            let provides = |name: &str| -> f64 {
                match position.get(qualified(&line.name, name).as_str()) {
                    Some(&i) if state.statuses[i].provides_service() => 1.0,
                    _ => 0.0,
                }
            };
            let failed = |name: &str| -> bool {
                match position.get(qualified(&line.name, name).as_str()) {
                    Some(&i) => !state.statuses[i].provides_service(),
                    None => false,
                }
            };
            operational.push(!degraded.is_failed(failed));
            service.push(service_tree.service_level(provides));
        }
        out.push((operational, service));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::BasicComponent;
    use crate::repair::{RepairStrategy, RepairUnit};

    /// A line with a single repairable pump behind its own repair unit.
    fn pump_line(unit_name: &str, mttf: f64, mttr: f64) -> ArcadeModel {
        let structure = SystemStructure::new(StructureNode::component("pump"));
        ArcadeModel::builder("line", structure)
            .component(
                BasicComponent::from_mttf_mttr("pump", mttf, mttr)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .repair_unit(
                RepairUnit::new(unit_name, RepairStrategy::FirstComeFirstServe, 1)
                    .unwrap()
                    .responsible_for(["pump"])
                    .with_idle_cost(1.0),
            )
            .build()
            .unwrap()
    }

    fn independent_facility() -> FacilityModel {
        FacilityModel::builder("plant")
            .line("line1", pump_line("ru1", 100.0, 1.0))
            .line("line2", pump_line("ru2", 50.0, 2.0))
            .disaster(FacilityDisaster::new(
                "both-pumps",
                [("line1", "pump"), ("line2", "pump")],
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn independent_lines_form_singleton_groups() {
        let facility = independent_facility();
        let tree = facility.composition_tree();
        assert_eq!(tree.groups.len(), 2);
        assert!(tree.groups.iter().all(|g| !g.is_joint()));
        assert!(tree.groups.iter().all(|g| g.shared_units.is_empty()));
        // The cross-line disaster is recorded but does not merge the groups:
        // it only sets where each group starts.
        assert_eq!(tree.cross_line_disasters, vec!["both-pumps".to_string()]);
        assert!(facility.disaster("both-pumps").unwrap().is_cross_line());
        assert_eq!(facility.line_index("line2"), Some(1));
    }

    #[test]
    fn product_form_availability_matches_the_closed_form() {
        let facility = independent_facility();
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let a1 = 100.0 / 101.0;
        let a2 = 50.0 / 52.0;
        let expected = a1 + a2 - a1 * a2;
        assert!((analysis.line_availability(0).unwrap() - a1).abs() < 1e-9);
        assert!((analysis.line_availability(1).unwrap() - a2).abs() < 1e-9);
        let product_form = analysis.steady_state_availability().unwrap();
        assert!((product_form - expected).abs() < 1e-9, "{product_form}");
        assert!(analysis.line_availability(7).is_err());
    }

    #[test]
    fn joint_chain_confirms_the_product_form() {
        let facility = independent_facility();
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let joint = analysis.joint_steady_state_availability().unwrap();
        let product_form = analysis.steady_state_availability().unwrap();
        assert_eq!(joint.joint_states, 4);
        assert!((joint.availability - product_form).abs() <= 1e-9);
        assert!(joint.residual < 1e-9, "residual {}", joint.residual);
        assert_eq!(joint.solver_tier, "gs-materialised");
    }

    #[test]
    fn matrix_free_path_matches_the_materialised_joint_solve() {
        let facility = independent_facility();
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let materialised = analysis.joint_steady_state_availability().unwrap();
        let operator = analysis.matrix_free_steady_state_availability().unwrap();
        assert!(
            (operator.availability - materialised.availability).abs() <= 1e-10,
            "{} vs {}",
            operator.availability,
            materialised.availability
        );
        assert!(operator.residual < 1e-9, "residual {}", operator.residual);
        assert_eq!(operator.joint_states, materialised.joint_states);
        // The operator path never reduces: it solves the full product.
        assert_eq!(operator.solved_states, operator.joint_states);
        assert_eq!(operator.solver_tier, "krylov-operator");
        // Warm started from the (here exactly stationary) product form, the
        // Krylov solve certifies the fixed point in a handful of applies.
        assert!(operator.iterations >= 1);
    }

    #[test]
    fn shared_repair_unit_triggers_joint_exploration() {
        let facility = FacilityModel::builder("coupled")
            .line("line1", pump_line("shared-ru", 100.0, 1.0))
            .line("line2", pump_line("shared-ru", 50.0, 2.0))
            .build()
            .unwrap();
        let tree = facility.composition_tree();
        assert_eq!(tree.groups.len(), 1);
        assert!(tree.groups[0].is_joint());
        assert_eq!(tree.groups[0].shared_units, vec!["shared-ru".to_string()]);

        // One crew serving both pumps: the joint chain is NOT the product of
        // the per-line chains (a pump can wait for the other line's repair),
        // so the availability must differ from the independent product form.
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let a1 = 100.0 / 101.0;
        let a2 = 50.0 / 52.0;
        let independent = a1 + a2 - a1 * a2;
        let coupled = analysis.steady_state_availability().unwrap();
        assert!(
            (coupled - independent).abs() > 1e-6,
            "sharing one crew must shift the availability: {coupled} vs {independent}"
        );
        // With a single group the genuine joint chain IS the group chain, so
        // both paths agree.
        let joint = analysis.joint_steady_state_availability().unwrap();
        assert!((joint.availability - coupled).abs() <= 1e-9);

        let stats = analysis.stats();
        assert!(stats.lines.iter().all(|l| l.jointly_explored));
        assert_eq!(stats.lines[0].group, stats.lines[1].group);
    }

    #[test]
    fn shared_unit_twin_lines_keep_per_line_availabilities_equal() {
        // Two *identical* lines coupled through one shared crew: the merged
        // group puts two isomorphic leaves under one gate, and without the
        // per-line symmetry guards the canonical frontier would exchange
        // them — silently averaging the per-line masks. The guards must
        // keep the (identical) lines' availabilities exactly equal.
        let facility = FacilityModel::builder("twin-coupled")
            .line("north", pump_line("shared-ru", 100.0, 1.0))
            .line("south", pump_line("shared-ru", 100.0, 1.0))
            .build()
            .unwrap();
        assert!(facility.composition_tree().groups[0].is_joint());
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let north = analysis.line_availability(0).unwrap();
        let south = analysis.line_availability(1).unwrap();
        assert!(
            (north - south).abs() <= 1e-12,
            "identical twin lines must have identical availabilities: {north} vs {south}"
        );
        assert!(north > 0.9, "a 100h-MTTF pump with a shared crew: {north}");
    }

    #[test]
    fn three_twin_lines_fold_with_exact_costs() {
        // Three identical independent lines: the orbit fold compresses
        // 2³ = 8 tuples to C(4, 3) = 4 sorted triples, and the summed cost
        // rewards (deliberately FP-inexact values) must stay orbit-constant
        // so every joint measure runs on the fold.
        let line = |unit: &str| {
            let structure = SystemStructure::new(StructureNode::component("pump"));
            ArcadeModel::builder("line", structure)
                .component(
                    BasicComponent::from_mttf_mttr("pump", 100.0, 1.0)
                        .unwrap()
                        .with_failed_cost(0.1),
                )
                .repair_unit(
                    RepairUnit::new(unit, RepairStrategy::FirstComeFirstServe, 1)
                        .unwrap()
                        .responsible_for(["pump"])
                        .with_idle_cost(0.3),
                )
                .build()
                .unwrap()
        };
        let facility = FacilityModel::builder("triplet")
            .line("a", line("ru-a"))
            .line("b", line("ru-b"))
            .line("c", line("ru-c"))
            .disaster(FacilityDisaster::new(
                "all-pumps",
                [("a", "pump"), ("b", "pump"), ("c", "pump")],
            ))
            .build()
            .unwrap();
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let stats = analysis.stats();
        assert_eq!(stats.joint_blocks, 8);
        assert_eq!(stats.orbit_blocks, Some(4));
        let joint = analysis.joint_steady_state_availability().unwrap();
        assert_eq!(joint.solved_states, 4, "the fold must not be dropped");
        let product_form = analysis.steady_state_availability().unwrap();
        assert!((joint.availability - product_form).abs() <= 1e-9);
        assert!(joint.residual < 1e-9, "residual {}", joint.residual);
        // Cost measures run on the folded chain with the sorted-sum rewards.
        let acc = analysis
            .accumulated_cost_curve(Some("all-pumps"), &[0.0, 1.0, 3.0])
            .unwrap();
        assert_eq!(acc[0].1, 0.0);
        assert!(acc[1].1 < acc[2].1);
        let inst = analysis.instantaneous_cost_curve(None, &[0.0]).unwrap();
        // All pumps up: three idle crews at 0.3/h each (sorted sum).
        assert!((inst[0].1 - 0.3 * 3.0).abs() < 1e-12, "{}", inst[0].1);
    }

    #[test]
    fn orbit_enumeration_availability_matches_the_product_form() {
        // Mixed interchangeability classes: two identical twins (one class of
        // two positions) plus a distinct third line (a singleton class). The
        // enumeration tier must agree with the product form and with the
        // materialised joint solve, visit exactly C(3, 2) × 2 = 6 orbits,
        // and certify full mass coverage.
        let line = |unit: &str, mttf: f64| {
            let structure = SystemStructure::new(StructureNode::component("pump"));
            ArcadeModel::builder("line", structure)
                .component(BasicComponent::from_mttf_mttr("pump", mttf, 1.0).unwrap())
                .repair_unit(
                    RepairUnit::new(unit, RepairStrategy::FirstComeFirstServe, 1)
                        .unwrap()
                        .responsible_for(["pump"]),
                )
                .build()
                .unwrap()
        };
        let facility = FacilityModel::builder("mixed-bank")
            .line("a", line("ru-a", 100.0))
            .line("b", line("ru-b", 100.0))
            .line("c", line("ru-c", 50.0))
            .build()
            .unwrap();
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let orbit = analysis.orbit_availability(1_000).unwrap();
        assert_eq!(orbit.orbit_bound, 6);
        assert_eq!(orbit.orbits_explored, 6);
        assert!(
            (orbit.total_mass - 1.0).abs() < 1e-12,
            "{}",
            orbit.total_mass
        );
        let product_form = analysis.steady_state_availability().unwrap();
        assert!(
            (orbit.availability - product_form).abs() <= 1e-12,
            "{} vs {product_form}",
            orbit.availability
        );
        let joint = analysis.joint_steady_state_availability().unwrap();
        assert!((orbit.availability - joint.availability).abs() <= 1e-9);

        // The cap is enforced before any enumeration.
        let capped = analysis.orbit_availability(5);
        assert!(matches!(
            capped,
            Err(ArcadeError::InvalidParameter { ref reason }) if reason.contains("enumeration cap")
        ));
    }

    #[test]
    fn facility_survivability_and_costs_match_the_closed_forms() {
        let facility = independent_facility();
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let times = [0.0, 0.5, 1.0, 2.0, 4.0];
        let curve = analysis
            .survivability_curve("both-pumps", 1.0, &times)
            .unwrap();
        // Starting with both pumps down, recovery needs at least one of the
        // two independent repairs (rates 1 and 1/2) to finish:
        // P = 1 - e^{-t} e^{-t/2}.
        for (t, value) in &curve {
            let expected = 1.0 - (-1.5 * t).exp();
            assert!(
                (value - expected).abs() < 1e-6,
                "t={t}: {value} vs {expected}"
            );
        }
        for window in curve.windows(2) {
            assert!(window[1].1 >= window[0].1 - 1e-12);
        }
        assert!(analysis.survivability_curve("nope", 1.0, &times).is_err());
        assert!(analysis
            .survivability_curve("both-pumps", 2.0, &times)
            .is_err());

        // Costs: both pumps failed and both crews busy at t = 0 — cost rate 6.
        let inst = analysis
            .instantaneous_cost_curve(Some("both-pumps"), &[0.0])
            .unwrap();
        assert!((inst[0].1 - 6.0).abs() < 1e-9, "{}", inst[0].1);
        let acc = analysis
            .accumulated_cost_curve(Some("both-pumps"), &[0.0, 1.0, 3.0])
            .unwrap();
        assert_eq!(acc[0].1, 0.0);
        assert!(acc[1].1 < acc[2].1);
        // Without a disaster both lines start all-up: idle crews only.
        let idle = analysis.instantaneous_cost_curve(None, &[0.0]).unwrap();
        assert!((idle[0].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn either_recovered_keeps_relative_precision_on_small_probabilities() {
        let combined = either_recovered(either_recovered(0.0, 1e-10), 1e-10);
        let expected = 2e-10 - 1e-20;
        assert!(
            ((combined - expected) / expected).abs() <= 1e-15,
            "{combined:e} vs {expected:e}"
        );
        assert_eq!(either_recovered(0.3, 1.0), 1.0);
        assert_eq!(either_recovered(0.0, 0.0), 0.0);
    }

    /// Product-form and joint-chain curves agree to 1e-12 relative, and
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

    #[test]
    fn coupled_facility_curves_match_the_joint_chain() {
        // Lines a and b share one crew, so they form one jointly explored
        // group; line c is a group of its own. `all-pumps` puts both groups
        // down, so neither has recovered at t = 0; after `a-and-c` line b
        // still runs, so the facility has recovered from the start; `c-only`
        // leaves the a+b group in its initial state.
        let facility = FacilityModel::builder("coupled-bank")
            .line("a", pump_line("shared-ru", 100.0, 1.0))
            .line("b", pump_line("shared-ru", 50.0, 2.0))
            .line("c", pump_line("ru-c", 80.0, 1.5))
            .disaster(FacilityDisaster::new(
                "all-pumps",
                [("a", "pump"), ("b", "pump"), ("c", "pump")],
            ))
            .disaster(FacilityDisaster::new(
                "a-and-c",
                [("a", "pump"), ("c", "pump")],
            ))
            .disaster(FacilityDisaster::new("c-only", [("c", "pump")]))
            .build()
            .unwrap();
        let tree = facility.composition_tree();
        assert_eq!(tree.groups.len(), 2);
        assert!(tree.groups[0].is_joint());
        assert_eq!(
            tree.cross_line_disasters,
            vec!["all-pumps".to_string(), "a-and-c".to_string()]
        );

        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let joint = analysis.compiled_quotient().unwrap();
        let exec = analysis.exec();
        let times = [0.0, 0.25, 1.0, 3.0];
        let recovery = analysis
            .survivability_curve("all-pumps", 1.0, &times)
            .unwrap();
        assert_eq!(recovery[0].1, 0.0);
        assert!(recovery[1].1 > 0.0 && recovery[3].1 < 1.0, "{recovery:?}");
        for disaster in ["all-pumps", "a-and-c", "c-only"] {
            for level in [1.0, 0.5] {
                assert_matches_joint(
                    &analysis
                        .survivability_curve(disaster, level, &times)
                        .unwrap(),
                    &joint
                        .survivability_curve(disaster, level, &times, exec)
                        .unwrap(),
                    &format!("survivability {disaster} {level}"),
                );
            }
            assert_matches_joint(
                &analysis
                    .instantaneous_cost_curve(Some(disaster), &times)
                    .unwrap(),
                &joint
                    .instantaneous_cost_curve(Some(disaster), &times, exec)
                    .unwrap(),
                &format!("instantaneous cost {disaster}"),
            );
            assert_matches_joint(
                &analysis
                    .accumulated_cost_curve(Some(disaster), &times)
                    .unwrap(),
                &joint
                    .accumulated_cost_curve(Some(disaster), &times, exec)
                    .unwrap(),
                &format!("accumulated cost {disaster}"),
            );
        }
        assert_matches_joint(
            &analysis.accumulated_cost_curve(None, &times).unwrap(),
            &joint.accumulated_cost_curve(None, &times, exec).unwrap(),
            "accumulated cost without a disaster",
        );

        // The level check comes before the disaster lookup.
        assert!(matches!(
            analysis.survivability_curve("nope", 2.0, &times),
            Err(ArcadeError::InvalidParameter { .. })
        ));
        assert!(matches!(
            analysis.survivability_curve("nope", 1.0, &times),
            Err(ArcadeError::UnsupportedMeasure { .. })
        ));
        assert!(matches!(
            analysis.instantaneous_cost_curve(Some("nope"), &times),
            Err(ArcadeError::UnsupportedMeasure { .. })
        ));
    }

    #[test]
    fn facility_stats_report_per_line_and_product_counts() {
        let facility = independent_facility();
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let stats = analysis.stats();
        assert_eq!(stats.lines.len(), 2);
        assert!(stats.lines.iter().all(|l| !l.jointly_explored));
        assert_eq!(stats.joint_blocks, 4);
        assert_eq!(stats.joint_transitions, 8);
        let product = analysis.quotient_product().unwrap();
        assert_eq!(product.num_states(), stats.joint_blocks);
        assert_eq!(product.num_transitions(), stats.joint_transitions);
    }

    #[test]
    fn declarative_facility_measures_match_direct_calls() {
        let facility = independent_facility();
        let analysis = FacilityAnalysis::new(&facility).unwrap();
        let availability = analysis
            .evaluate(&FacilityMeasure::SteadyStateAvailability)
            .unwrap();
        assert_eq!(
            availability.as_scalar(),
            Some(analysis.steady_state_availability().unwrap())
        );
        let joint = analysis
            .evaluate(&FacilityMeasure::JointSteadyStateAvailability)
            .unwrap();
        assert!((joint.as_scalar().unwrap() - availability.as_scalar().unwrap()).abs() <= 1e-9);
        let line = analysis
            .evaluate(&FacilityMeasure::LineAvailability {
                line: "line1".into(),
            })
            .unwrap();
        assert_eq!(
            line.as_scalar(),
            Some(analysis.line_availability(0).unwrap())
        );
        assert!(analysis
            .evaluate(&FacilityMeasure::LineAvailability {
                line: "nope".into()
            })
            .is_err());
        let curve = analysis
            .evaluate(&FacilityMeasure::SurvivabilityCurve {
                disaster: "both-pumps".into(),
                service_level: 1.0,
                times: vec![1.0, 2.0],
            })
            .unwrap();
        assert_eq!(curve.as_curve().unwrap().len(), 2);
        let cost = analysis
            .evaluate(&FacilityMeasure::AccumulatedCost {
                disaster: Some("both-pumps".into()),
                times: vec![1.0],
            })
            .unwrap();
        assert!(cost.as_curve().unwrap()[0].1 > 0.0);
        assert!(!FacilityMeasure::SteadyStateAvailability.kind().is_empty());
    }

    #[test]
    fn facility_validation_rejects_inconsistencies() {
        assert!(matches!(
            FacilityModel::builder("empty").build(),
            Err(ArcadeError::InvalidParameter { .. })
        ));
        assert!(matches!(
            FacilityModel::builder("dup")
                .line("a", pump_line("ru1", 10.0, 1.0))
                .line("a", pump_line("ru2", 10.0, 1.0))
                .build(),
            Err(ArcadeError::InvalidParameter { .. })
        ));
        assert!(matches!(
            FacilityModel::builder("ghost-line")
                .line("a", pump_line("ru1", 10.0, 1.0))
                .disaster(FacilityDisaster::new("d", [("b", "pump")]))
                .build(),
            Err(ArcadeError::InvalidParameter { .. })
        ));
        assert!(matches!(
            FacilityModel::builder("ghost-component")
                .line("a", pump_line("ru1", 10.0, 1.0))
                .disaster(FacilityDisaster::new("d", [("a", "turbine")]))
                .build(),
            Err(ArcadeError::UnknownComponent { .. })
        ));
        // A shared unit whose configuration differs across lines is rejected
        // at compile time (the merge would be ambiguous).
        let mut other = pump_line("shared", 50.0, 2.0);
        other = other
            .with_repair_strategy(RepairStrategy::FastestRepairFirst, 2)
            .unwrap();
        let facility = FacilityModel::builder("mismatch")
            .line("a", pump_line("shared", 100.0, 1.0))
            .line("b", other)
            .build()
            .unwrap();
        assert!(matches!(
            FacilityAnalysis::new(&facility),
            Err(ArcadeError::InvalidParameter { .. })
        ));
    }
}
