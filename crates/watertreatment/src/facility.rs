//! The water-treatment facility model (Fig. 2 of the paper).

use arcade_core::{
    ArcadeModel, BasicComponent, Disaster, FacilityDisaster, FacilityModel, RepairUnit,
};
use fault_tree::{StructureNode, SystemStructure};
use serde::{Deserialize, Serialize};

use crate::strategies::StrategySpec;

/// Mean time to failure of a pump, in hours.
pub const PUMP_MTTF: f64 = 500.0;
/// Mean time to repair of a pump, in hours.
pub const PUMP_MTTR: f64 = 1.0;
/// Mean time to failure of a sand filter, in hours.
pub const SAND_FILTER_MTTF: f64 = 1000.0;
/// Mean time to repair of a sand filter, in hours.
pub const SAND_FILTER_MTTR: f64 = 100.0;
/// Mean time to failure of a softening tank, in hours.
pub const SOFTENER_MTTF: f64 = 2000.0;
/// Mean time to repair of a softening tank, in hours.
pub const SOFTENER_MTTR: f64 = 5.0;
/// Mean time to failure of the reservoir, in hours.
pub const RESERVOIR_MTTF: f64 = 6000.0;
/// Mean time to repair of the reservoir, in hours.
pub const RESERVOIR_MTTR: f64 = 12.0;

/// Cost per hour of a failed basic component (§5 of the paper).
pub const FAILED_COMPONENT_COST: f64 = 3.0;
/// Cost per hour of an idle repair crew (§5 of the paper).
pub const IDLE_CREW_COST: f64 = 1.0;

/// Name of the "all pumps failed" disaster (Disaster 1 of the paper).
pub const DISASTER_ALL_PUMPS: &str = "disaster-1-all-pumps";
/// Name of the Line 2 multi-component disaster (Disaster 2 of the paper):
/// two pumps, one softener, one sand filter and the reservoir have failed.
pub const DISASTER_LINE2_MIXED: &str = "disaster-2-mixed";
/// Name of the facility-wide cross-line disaster: every pump of *both* lines
/// has failed. The dynamics stay independent (each line keeps its own repair
/// unit), so each line starts from its own share of the disaster and the
/// facility recovery and cost curves after it combine per-line curves.
pub const FACILITY_DISASTER_ALL_PUMPS: &str = "facility-all-pumps";

/// One of the two independent process lines of the facility.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Line {
    /// Line 1: 3 softeners, 3 sand filters, 1 reservoir, 4 pumps (3 required).
    Line1,
    /// Line 2: 3 softeners, 2 sand filters, 1 reservoir, 3 pumps (2 required).
    Line2,
}

impl Line {
    /// Number of softening tanks in this line.
    pub fn softeners(self) -> usize {
        3
    }

    /// Number of sand filters in this line.
    pub fn sand_filters(self) -> usize {
        match self {
            Line::Line1 => 3,
            Line::Line2 => 2,
        }
    }

    /// Number of pumps in this line (including the spare).
    pub fn pumps(self) -> usize {
        match self {
            Line::Line1 => 4,
            Line::Line2 => 3,
        }
    }

    /// Number of pumps required for full service.
    pub fn pumps_required(self) -> usize {
        self.pumps() - 1
    }

    /// Total number of components of this line.
    pub fn num_components(self) -> usize {
        self.softeners() + self.sand_filters() + 1 + self.pumps()
    }

    /// A short identifier (`line1` / `line2`).
    pub fn id(self) -> &'static str {
        match self {
            Line::Line1 => "line1",
            Line::Line2 => "line2",
        }
    }

    /// Both lines, in the order used by the paper's tables.
    pub fn both() -> [Line; 2] {
        [Line::Line1, Line::Line2]
    }
}

/// A parsed `--line` CLI argument for models with any number of lines:
/// either every line of the loaded model or an explicit list of 1-based
/// indices (`--line 3`, `--line 1,3`). Resolving against the model's line
/// count happens separately ([`LineSelection::resolve`]), so an index
/// beyond the loaded model is a reportable error instead of a silent
/// parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LineSelection {
    /// Every line of the loaded model (`all` / `both`).
    All,
    /// Explicit 1-based line indices, in argument order.
    Indices(Vec<usize>),
}

impl LineSelection {
    /// Parses a `--line` argument: `all`/`both`, or a comma-separated list
    /// of indices (`3`) and line names (`line3`). Returns `None` for
    /// anything outside that grammar (including index `0`).
    pub fn from_arg(arg: &str) -> Option<LineSelection> {
        let lowered = arg.trim().to_lowercase();
        if lowered == "all" || lowered == "both" {
            return Some(LineSelection::All);
        }
        let mut indices = Vec::new();
        for token in lowered.split(',') {
            let token = token.trim();
            let digits = token.strip_prefix("line").unwrap_or(token);
            let index: usize = digits.parse().ok()?;
            if index == 0 {
                return None;
            }
            indices.push(index);
        }
        if indices.is_empty() {
            return None;
        }
        Some(LineSelection::Indices(indices))
    }

    /// Resolves the selection against a model with `num_lines` lines,
    /// yielding 0-based indices.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when an index exceeds the loaded
    /// model.
    pub fn resolve(&self, num_lines: usize) -> Result<Vec<usize>, String> {
        match self {
            LineSelection::All => Ok((0..num_lines).collect()),
            LineSelection::Indices(indices) => indices
                .iter()
                .map(|&index| {
                    if index <= num_lines {
                        Ok(index - 1)
                    } else {
                        Err(format!(
                            "--line {index}: the loaded model has {num_lines} line(s)"
                        ))
                    }
                })
                .collect(),
        }
    }
}

/// Component names of a line, grouped by phase:
/// `(softeners, sand filters, reservoir, pumps)`.
pub fn component_names(line: Line) -> (Vec<String>, Vec<String>, String, Vec<String>) {
    let softeners = (1..=line.softeners()).map(|i| format!("st{i}")).collect();
    let sand_filters = (1..=line.sand_filters())
        .map(|i| format!("sf{i}"))
        .collect();
    let reservoir = "res".to_string();
    let pumps = (1..=line.pumps()).map(|i| format!("p{i}")).collect();
    (softeners, sand_filters, reservoir, pumps)
}

/// The reliability block structure of a process line: the four phases in
/// series, with redundant softeners and sand filters and a pump group carrying
/// one spare.
pub fn line_structure(line: Line) -> SystemStructure {
    let (softeners, sand_filters, reservoir, pumps) = component_names(line);
    SystemStructure::new(StructureNode::series(vec![
        StructureNode::redundant(
            softeners
                .into_iter()
                .map(StructureNode::component)
                .collect(),
        ),
        StructureNode::redundant(
            sand_filters
                .into_iter()
                .map(StructureNode::component)
                .collect(),
        ),
        StructureNode::component(reservoir),
        StructureNode::required_of(
            line.pumps_required(),
            pumps.into_iter().map(StructureNode::component).collect(),
        ),
    ]))
}

/// The interchangeable-component groups ("sub-chains") of a line, in phase
/// order: softeners, sand filters, reservoir, pumps.
///
/// These are the units compositional lumping aggregates before the cross
/// product: within each group the components share rates, costs and dispatch
/// priorities and are siblings under one symmetric structure gate, so the
/// composer's family detection recovers exactly this partition for every
/// paper strategy (pinned by the tests below).
pub fn line_subchains(line: Line) -> Vec<Vec<String>> {
    let (softeners, sand_filters, reservoir, pumps) = component_names(line);
    vec![softeners, sand_filters, vec![reservoir], pumps]
}

/// Builds the Arcade model of one process line under the given repair strategy.
///
/// Each line has a single repair unit responsible for all of its components
/// (with one or more crews depending on the strategy specification), the cost
/// model of §5 and the two disasters used in the survivability analysis.
///
/// # Errors
///
/// Propagates validation errors from the model builder (none are expected for
/// the fixed facility description).
pub fn line_model(
    line: Line,
    spec: &StrategySpec,
) -> Result<ArcadeModel, arcade_core::ArcadeError> {
    line_model_with_unit(line, spec, format!("{}-ru", line.id()))
}

/// [`line_model`] with every failure rate multiplied by `rate_scale` (i.e.
/// every MTTF divided by it); repair rates, costs, structure and disasters are
/// unchanged. Scaled variants keep the exact state space and lumping partition
/// of the nominal model — only transition rates differ — which makes them
/// ideal warm-start donors for each other's stationary solves. `rate_scale`
/// of exactly `1.0` reproduces [`line_model`] bit-for-bit.
///
/// # Errors
///
/// Rejects non-finite or non-positive scales (via the component validation of
/// the resulting MTTFs) and propagates model-builder errors.
pub fn line_model_scaled(
    line: Line,
    spec: &StrategySpec,
    rate_scale: f64,
) -> Result<ArcadeModel, arcade_core::ArcadeError> {
    line_model_with_unit_scaled(line, spec, format!("{}-ru", line.id()), rate_scale)
}

/// [`line_model`] with an explicit repair-unit name. Distinct names keep
/// copies of one line independent in a facility (each copy owns its crews);
/// reusing one name couples the copies through the shared physical unit and
/// forces joint exploration.
///
/// # Errors
///
/// See [`line_model`].
pub fn line_model_with_unit(
    line: Line,
    spec: &StrategySpec,
    unit_name: impl Into<String>,
) -> Result<ArcadeModel, arcade_core::ArcadeError> {
    line_model_with_unit_scaled(line, spec, unit_name, 1.0)
}

/// [`line_model_with_unit`] with the failure-rate scale of
/// [`line_model_scaled`].
///
/// # Errors
///
/// See [`line_model_scaled`].
pub fn line_model_with_unit_scaled(
    line: Line,
    spec: &StrategySpec,
    unit_name: impl Into<String>,
    rate_scale: f64,
) -> Result<ArcadeModel, arcade_core::ArcadeError> {
    let (softeners, sand_filters, reservoir, pumps) = component_names(line);

    let mut builder = ArcadeModel::builder(
        format!("water-treatment-{}", line.id()),
        line_structure(line),
    );

    let component = |name: &str, mttf: f64, mttr: f64| {
        Ok::<_, arcade_core::ArcadeError>(
            BasicComponent::from_mttf_mttr(name, mttf / rate_scale, mttr)?
                .with_failed_cost(FAILED_COMPONENT_COST),
        )
    };
    for name in &softeners {
        builder = builder.component(component(name, SOFTENER_MTTF, SOFTENER_MTTR)?);
    }
    for name in &sand_filters {
        builder = builder.component(component(name, SAND_FILTER_MTTF, SAND_FILTER_MTTR)?);
    }
    builder = builder.component(component(&reservoir, RESERVOIR_MTTF, RESERVOIR_MTTR)?);
    for name in &pumps {
        builder = builder.component(component(name, PUMP_MTTF, PUMP_MTTR)?);
    }

    let all_names: Vec<String> = softeners
        .iter()
        .chain(sand_filters.iter())
        .chain(std::iter::once(&reservoir))
        .chain(pumps.iter())
        .cloned()
        .collect();
    builder = builder.repair_unit(
        RepairUnit::new(unit_name, spec.strategy.clone(), spec.crews)?
            .responsible_for(all_names)
            .with_idle_cost(IDLE_CREW_COST)
            .with_discipline(spec.discipline),
    );

    // Disaster 1: every pump of the line has failed.
    builder = builder.disaster(Disaster::new(DISASTER_ALL_PUMPS, pumps.clone())?);
    // Disaster 2 (defined for Line 2 in the paper): two pumps, one softener,
    // one sand filter and the reservoir have failed.
    if line == Line::Line2 {
        builder = builder.disaster(Disaster::new(
            DISASTER_LINE2_MIXED,
            vec![
                pumps[0].clone(),
                pumps[1].clone(),
                softeners[0].clone(),
                sand_filters[0].clone(),
                reservoir.clone(),
            ],
        )?);
    }

    builder.build()
}

/// One line of a k-line facility: the line shape (component counts) plus the
/// repair strategy of its own repair unit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LineSpec {
    shape: Line,
    strategy: StrategySpec,
}

impl LineSpec {
    /// A line of the given shape under the given strategy.
    pub fn new(shape: Line, strategy: StrategySpec) -> Self {
        LineSpec { shape, strategy }
    }

    /// A line of the twin shape ([`Line::Line2`]) — the factor used by the
    /// homogeneous k-line banks, whose quotient is the paper's 96-block DED
    /// chain.
    pub fn twin(strategy: StrategySpec) -> Self {
        LineSpec::new(Line::Line2, strategy)
    }

    /// The line shape.
    pub fn shape(&self) -> Line {
        self.shape
    }

    /// The repair strategy.
    pub fn strategy(&self) -> &StrategySpec {
        &self.strategy
    }
}

/// Builds a facility of `specs.len()` process lines, each under its own
/// repair strategy, plus the facility-wide all-pumps disaster spanning every
/// line. This is the k-ary core every facility front end routes through;
/// [`facility_model`] is its two-line shim.
///
/// Line identities are index-based: line `i` (0-based) is named
/// `line{i+1}` and owns the repair unit `line{i+1}-ru`, so every line keeps
/// its own crews and the composition tree detects `specs.len()` independent
/// product factors. Repair-unit names do not enter the chain presentation,
/// so lines with equal shape *and* strategy compile to identical chains and
/// fold under the symmetry engine's sorted-tuple orbits — k twins of `n`
/// blocks to `C(n+k−1, k)` representatives.
///
/// # Errors
///
/// Rejects an empty spec list and propagates model-validation errors.
pub fn facility_model_k(specs: &[LineSpec]) -> Result<FacilityModel, arcade_core::ArcadeError> {
    facility_model_k_scaled(specs, 1.0)
}

/// [`facility_model_k`] with every failure rate of every line multiplied by
/// `rate_scale` (see [`line_model_scaled`]). A scale of exactly `1.0`
/// reproduces [`facility_model_k`] bit-for-bit.
///
/// # Errors
///
/// See [`facility_model_k`].
pub fn facility_model_k_scaled(
    specs: &[LineSpec],
    rate_scale: f64,
) -> Result<FacilityModel, arcade_core::ArcadeError> {
    if specs.is_empty() {
        return Err(arcade_core::ArcadeError::InvalidParameter {
            reason: "a facility needs at least one line spec".to_string(),
        });
    }
    let mut builder = FacilityModel::builder("water-treatment-facility");
    let mut all_pumps: Vec<(String, String)> = Vec::new();
    for (index, spec) in specs.iter().enumerate() {
        let name = format!("line{}", index + 1);
        let (_, _, _, pumps) = component_names(spec.shape);
        all_pumps.extend(pumps.into_iter().map(|p| (name.clone(), p)));
        builder = builder.line(
            name.clone(),
            line_model_with_unit_scaled(
                spec.shape,
                &spec.strategy,
                format!("{name}-ru"),
                rate_scale,
            )?,
        );
    }
    builder
        .disaster(FacilityDisaster::new(
            FACILITY_DISASTER_ALL_PUMPS,
            all_pumps,
        ))
        .build()
}

/// Builds the whole water-treatment facility: both process lines (each under
/// its own repair strategy) plus the facility-wide all-pumps disaster. A thin
/// two-line shim over the k-ary [`facility_model_k`].
///
/// The per-line repair units carry line-qualified names (`line1-ru`,
/// `line2-ru`), so the composition tree detects two independent lines and the
/// facility chain is the pure Line 1 × Line 2 product of the per-line
/// quotients — 449 × 257 blocks under FRF-1 × FRF-1.
///
/// # Errors
///
/// Propagates model-validation errors (none are expected for the fixed
/// facility description).
pub fn facility_model(
    line1: &StrategySpec,
    line2: &StrategySpec,
) -> Result<FacilityModel, arcade_core::ArcadeError> {
    facility_model_scaled(line1, line2, 1.0)
}

/// [`facility_model`] with every failure rate of both lines multiplied by
/// `rate_scale` (see [`line_model_scaled`]). A scale of exactly `1.0`
/// reproduces [`facility_model`] bit-for-bit.
///
/// # Errors
///
/// See [`line_model_scaled`].
pub fn facility_model_scaled(
    line1: &StrategySpec,
    line2: &StrategySpec,
    rate_scale: f64,
) -> Result<FacilityModel, arcade_core::ArcadeError> {
    facility_model_k_scaled(
        &[
            LineSpec::new(Line::Line1, line1.clone()),
            LineSpec::new(Line::Line2, line2.clone()),
        ],
        rate_scale,
    )
}

/// A facility of two **identical** copies of one process line under the same
/// repair strategy — the twin whose line chains are interchangeable factors
/// of the facility product. Each copy owns its repair crews (`north-ru` /
/// `south-ru`), so the lines stay independent and the symmetry engine folds
/// the `n × n` joint tuples to `n(n+1)/2` sorted-pair orbit representatives;
/// the facility-wide all-pumps disaster keeps the survivability measures
/// well-posed on the folded chain (it hits both twins symmetrically).
///
/// # Errors
///
/// Propagates model-validation errors.
pub fn twin_facility(
    line: Line,
    spec: &StrategySpec,
) -> Result<FacilityModel, arcade_core::ArcadeError> {
    let (_, _, _, pumps) = component_names(line);
    let mut all_pumps: Vec<(String, String)> = Vec::new();
    for copy in ["north", "south"] {
        all_pumps.extend(pumps.iter().map(|p| (copy.to_string(), p.clone())));
    }
    FacilityModel::builder(format!("twin-{}", line.id()))
        .line("north", line_model_with_unit(line, spec, "north-ru")?)
        .line("south", line_model_with_unit(line, spec, "south-ru")?)
        .disaster(FacilityDisaster::new(
            FACILITY_DISASTER_ALL_PUMPS,
            all_pumps,
        ))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategies;

    #[test]
    fn line_shapes_match_the_paper() {
        assert_eq!(Line::Line1.num_components(), 11);
        assert_eq!(Line::Line2.num_components(), 9);
        assert_eq!(Line::Line1.pumps_required(), 3);
        assert_eq!(Line::Line2.pumps_required(), 2);
        assert_eq!(Line::Line1.sand_filters(), 3);
        assert_eq!(Line::Line2.sand_filters(), 2);
        assert_eq!(Line::both().len(), 2);
        assert_eq!(Line::Line1.id(), "line1");
    }

    #[test]
    fn models_validate_for_all_paper_strategies() {
        for line in Line::both() {
            for spec in strategies::paper_strategies() {
                let model = line_model(line, &spec).unwrap();
                assert_eq!(model.components().len(), line.num_components());
                assert_eq!(model.repair_units().len(), 1);
                assert_eq!(model.repair_units()[0].crews(), spec.crews);
            }
        }
    }

    #[test]
    fn component_rates_follow_fig2() {
        let model = line_model(Line::Line1, &strategies::dedicated()).unwrap();
        let pump = model.component("p1").unwrap();
        assert!((pump.mttf() - 500.0).abs() < 1e-9);
        assert!((pump.mttr() - 1.0).abs() < 1e-9);
        let sf = model.component("sf1").unwrap();
        assert!((sf.mttf() - 1000.0).abs() < 1e-9);
        assert!((sf.mttr() - 100.0).abs() < 1e-9);
        let st = model.component("st1").unwrap();
        assert!((st.mttf() - 2000.0).abs() < 1e-9);
        let res = model.component("res").unwrap();
        assert!((res.mttf() - 6000.0).abs() < 1e-9);
        assert!((res.mttr() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn disasters_are_defined() {
        let line1 = line_model(Line::Line1, &strategies::frf(1)).unwrap();
        let d1 = line1.disaster(DISASTER_ALL_PUMPS).unwrap();
        assert_eq!(d1.failed_components().len(), 4);
        assert!(line1.disaster(DISASTER_LINE2_MIXED).is_none());

        let line2 = line_model(Line::Line2, &strategies::frf(1)).unwrap();
        let d1 = line2.disaster(DISASTER_ALL_PUMPS).unwrap();
        assert_eq!(d1.failed_components().len(), 3);
        let d2 = line2.disaster(DISASTER_LINE2_MIXED).unwrap();
        assert_eq!(d2.failed_components().len(), 5);
        assert!(d2.involves("res"));
        assert!(d2.involves("st1"));
        assert!(d2.involves("sf1"));
    }

    #[test]
    fn line_subchains_match_the_detected_families() {
        // The hand-written sub-chain decomposition coincides with what the
        // composer's interchangeability detection finds, for every strategy:
        // the lump-before-compose pipeline always has the full per-phase
        // symmetry available.
        for line in Line::both() {
            let expected = line_subchains(line);
            for spec in strategies::paper_strategies() {
                let model = line_model(line, &spec).unwrap();
                assert_eq!(
                    model.component_families(),
                    expected,
                    "{} {}",
                    line.id(),
                    spec.label
                );
            }
        }
    }

    #[test]
    fn line_selections_parse_and_resolve() {
        assert_eq!(LineSelection::from_arg("all"), Some(LineSelection::All));
        assert_eq!(LineSelection::from_arg("Both"), Some(LineSelection::All));
        assert_eq!(
            LineSelection::from_arg("LINE2"),
            Some(LineSelection::Indices(vec![2]))
        );
        assert_eq!(
            LineSelection::from_arg("line3"),
            Some(LineSelection::Indices(vec![3]))
        );
        assert_eq!(
            LineSelection::from_arg("1,3,line2"),
            Some(LineSelection::Indices(vec![1, 3, 2]))
        );
        assert_eq!(LineSelection::from_arg("0"), None);
        assert_eq!(LineSelection::from_arg("nope"), None);
        assert_eq!(LineSelection::from_arg(""), None);

        assert_eq!(LineSelection::All.resolve(4), Ok(vec![0, 1, 2, 3]));
        assert_eq!(
            LineSelection::Indices(vec![3, 1]).resolve(4),
            Ok(vec![2, 0])
        );
        let err = LineSelection::Indices(vec![3]).resolve(2).unwrap_err();
        assert!(err.contains("--line 3"), "{err}");
        assert!(err.contains("2 line(s)"), "{err}");
    }

    #[test]
    fn facility_composes_two_independent_lines() {
        let facility = facility_model(&strategies::dedicated(), &strategies::frf(1)).unwrap();
        assert_eq!(facility.lines().len(), 2);
        assert_eq!(facility.line_index("line1"), Some(0));
        let tree = facility.composition_tree();
        assert_eq!(tree.groups.len(), 2, "per-line units must not couple");
        assert!(tree.groups.iter().all(|g| !g.is_joint()));
        // The all-pumps disaster spans both lines: 4 + 3 pumps.
        let disaster = facility.disaster(FACILITY_DISASTER_ALL_PUMPS).unwrap();
        assert_eq!(disaster.components().len(), 7);
        assert!(disaster.is_cross_line());
        assert_eq!(
            tree.cross_line_disasters,
            vec![FACILITY_DISASTER_ALL_PUMPS.to_string()]
        );
    }

    #[test]
    fn k_ary_builder_generalises_the_two_line_facility() {
        // The two-line wrapper is a thin shim: same facility, line names,
        // repair units and cross-line disaster as the k-ary call.
        let spec = strategies::frf(1);
        let via_shim = facility_model(&strategies::dedicated(), &spec).unwrap();
        let via_k = facility_model_k(&[
            LineSpec::new(Line::Line1, strategies::dedicated()),
            LineSpec::new(Line::Line2, spec.clone()),
        ])
        .unwrap();
        assert_eq!(via_shim.name(), via_k.name());
        assert_eq!(via_shim.lines().len(), via_k.lines().len());
        for (a, b) in via_shim.lines().iter().zip(via_k.lines()) {
            assert_eq!(a.name(), b.name());
            assert_eq!(a.model().name(), b.model().name());
        }
        assert_eq!(
            via_shim.disaster(FACILITY_DISASTER_ALL_PUMPS).unwrap(),
            via_k.disaster(FACILITY_DISASTER_ALL_PUMPS).unwrap()
        );

        // A 3-line bank: index-based identities, one independent group per
        // line, and an all-pumps disaster spanning every line.
        let bank = facility_model_k(&[
            LineSpec::twin(strategies::dedicated()),
            LineSpec::twin(strategies::dedicated()),
            LineSpec::twin(spec),
        ])
        .unwrap();
        assert_eq!(bank.lines().len(), 3);
        assert_eq!(bank.line_index("line3"), Some(2));
        let tree = bank.composition_tree();
        assert_eq!(tree.groups.len(), 3, "per-line units must not couple");
        assert!(tree.groups.iter().all(|g| !g.is_joint()));
        let disaster = bank.disaster(FACILITY_DISASTER_ALL_PUMPS).unwrap();
        assert_eq!(disaster.components().len(), 3 * Line::Line2.pumps());
        assert!(disaster.is_cross_line());

        assert!(facility_model_k(&[]).is_err(), "empty banks are rejected");
    }

    #[test]
    fn service_intervals_match_the_paper() {
        let line1 = line_structure(Line::Line1).service_tree();
        assert_eq!(line1.service_intervals().len(), 3);
        let line2 = line_structure(Line::Line2).service_tree();
        assert_eq!(line2.service_intervals().len(), 4);
    }
}
