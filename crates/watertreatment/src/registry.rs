//! Named-model registry: textual specs for every analysable model.
//!
//! The analysis service (`arcade-server`) and the CLI address models by a
//! compact, canonical string instead of Rust constructor calls:
//!
//! ```text
//! line1/ded                Line 1 under dedicated repair
//! line2/frf-1              Line 2, fastest repair first, one crew
//! line1/fff-2p             Line 1, preemptive fastest failure first, two crews
//! facility/ded+frf-2       Two-line facility, per-line strategies
//! facility/ded+frf-1+ded   Three-line bank of twin-shape lines
//! facility/ded^4           Homogeneous 4-line bank (repetition shorthand)
//! line1/ded@1.05           Rate-perturbed variant: all failure rates × 1.05
//! ```
//!
//! A **two**-term `+` list names the paper's facility (a Line 1 paired with a
//! Line 2); a list of **three or more** terms names a k-line bank of
//! twin-shape ([`Line::Line2`]) lines, one strategy per line. `s^k` (k ≥ 2)
//! is the homogeneous bank of `k` identical twin-shape lines — its factors
//! compile to identical chains, which routes the joint measures straight into
//! the symmetry engine's sorted-tuple orbit fold. A `+` list whose terms are
//! all equal canonicalises to the `^` form; note `facility/ded+ded` (the
//! paper's Line 1 × Line 2 facility under DED) and `facility/ded^2` (two
//! identical twin-shape lines) are *different* models on purpose.
//!
//! The optional `@<scale>` suffix multiplies every failure rate (divides every
//! MTTF) while keeping repair rates, costs, the structure and the disasters —
//! so all scales of one *family* (the spec without the suffix) share the exact
//! state space and lumping partition, and their stationary solutions make good
//! warm starts for each other.

use std::fmt;
use std::str::FromStr;

use arcade_core::{
    ArcadeError, CompiledQuotient, ComposerOptions, FacilityAnalysis, FacilityModel,
};

use crate::facility::{facility_model_k_scaled, line_model_scaled, Line, LineSpec};
use crate::strategies::{self, StrategySpec};

/// What a [`ModelSpec`] names: one process line, the paper's two-line
/// facility, or a k-line bank of twin-shape lines.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelTarget {
    /// A single process line under one repair strategy.
    Line {
        /// Which line.
        line: Line,
        /// The repair strategy of its repair unit.
        strategy: StrategySpec,
    },
    /// The two-line facility with per-line strategies.
    Facility {
        /// Strategy of Line 1.
        line1: StrategySpec,
        /// Strategy of Line 2.
        line2: StrategySpec,
    },
    /// A k-line bank of twin-shape ([`Line::Line2`]) lines, one strategy per
    /// line (`facility/ded+frf-1+ded`, `facility/ded^4`). Lines with equal
    /// strategies compile to identical chains and fold under the symmetry
    /// engine's sorted-tuple orbits.
    FacilityK {
        /// Per-line strategies, in line order (`k = strategies.len() ≥ 2`).
        strategies: Vec<StrategySpec>,
    },
}

/// A parsed, canonical model specification (see the module docs for the
/// grammar). Parsing is case-insensitive; [`ModelSpec::canonical`] is the
/// lower-case normal form used as a registry key.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    target: ModelTarget,
    rate_scale: f64,
}

impl ModelSpec {
    /// Parses a spec string such as `line1/ded`, `facility/frf-1+fff-2` or
    /// `line2/ded@1.05`.
    ///
    /// # Errors
    ///
    /// Returns [`ArcadeError::InvalidParameter`] for anything outside the
    /// grammar, including non-finite or non-positive rate scales.
    pub fn parse(spec: &str) -> Result<Self, ArcadeError> {
        let lowered = spec.trim().to_lowercase();
        let bad = |reason: String| ArcadeError::InvalidParameter { reason };

        let (body, rate_scale) = match lowered.split_once('@') {
            None => (lowered.as_str(), 1.0),
            Some((body, scale)) => {
                let value = f64::from_str(scale).map_err(|_| {
                    bad(format!(
                        "model spec `{spec}`: unparsable rate scale `{scale}`"
                    ))
                })?;
                if !value.is_finite() || value <= 0.0 {
                    return Err(bad(format!(
                        "model spec `{spec}`: rate scale must be positive and finite, got {value}"
                    )));
                }
                (body, value)
            }
        };

        let (head, tail) = body.split_once('/').ok_or_else(|| {
            bad(format!(
                "model spec `{spec}`: expected `<line1|line2|facility>/<strategy>`"
            ))
        })?;
        let target = match head {
            "line1" => ModelTarget::Line {
                line: Line::Line1,
                strategy: parse_strategy(spec, tail)?,
            },
            "line2" => ModelTarget::Line {
                line: Line::Line2,
                strategy: parse_strategy(spec, tail)?,
            },
            "facility" => parse_facility(spec, tail)?,
            other => {
                return Err(bad(format!(
                "model spec `{spec}`: unknown target `{other}` (expected line1, line2 or facility)"
            )))
            }
        };
        Ok(ModelSpec { target, rate_scale })
    }

    /// The canonical (lower-case) form; parsing it again yields an equal spec.
    pub fn canonical(&self) -> String {
        if self.rate_scale == 1.0 {
            self.family()
        } else {
            format!("{}@{:?}", self.family(), self.rate_scale)
        }
    }

    /// The spec without its rate scale: all scales of one family share the
    /// state space and lumping partition, differing only in transition rates.
    pub fn family(&self) -> String {
        match &self.target {
            ModelTarget::Line { line, strategy } => {
                format!("{}/{}", line.id(), strategy.label.to_lowercase())
            }
            ModelTarget::Facility { line1, line2 } => format!(
                "facility/{}+{}",
                line1.label.to_lowercase(),
                line2.label.to_lowercase()
            ),
            ModelTarget::FacilityK { strategies } => {
                // All-equal banks canonicalise to the `^` shorthand so the
                // registry key routes identical factors into one family.
                if strategies.iter().all(|s| s == &strategies[0]) {
                    format!(
                        "facility/{}^{}",
                        strategies[0].label.to_lowercase(),
                        strategies.len()
                    )
                } else {
                    format!(
                        "facility/{}",
                        strategies
                            .iter()
                            .map(|s| s.label.to_lowercase())
                            .collect::<Vec<_>>()
                            .join("+")
                    )
                }
            }
        }
    }

    /// What this spec names.
    pub fn target(&self) -> &ModelTarget {
        &self.target
    }

    /// The failure-rate multiplier (`1.0` for the nominal model).
    pub fn rate_scale(&self) -> f64 {
        self.rate_scale
    }

    /// Whether this spec names a facility (two-line or k-line).
    pub fn is_facility(&self) -> bool {
        matches!(
            self.target,
            ModelTarget::Facility { .. } | ModelTarget::FacilityK { .. }
        )
    }

    /// Number of process lines this spec composes (1 for single lines).
    pub fn num_lines(&self) -> usize {
        match &self.target {
            ModelTarget::Line { .. } => 1,
            ModelTarget::Facility { .. } => 2,
            ModelTarget::FacilityK { strategies } => strategies.len(),
        }
    }

    /// Builds the [`FacilityModel`] this spec names, or `None` for a
    /// single-line spec. This is the front door of the k-sweep experiments:
    /// the model can be analysed without materialising anything — counts,
    /// product-form availability and the orbit-enumeration tier all run on
    /// the per-line quotients.
    ///
    /// # Errors
    ///
    /// Propagates model-building errors.
    pub fn facility_model(&self) -> Result<Option<FacilityModel>, ArcadeError> {
        self.line_specs()
            .map(|specs| facility_model_k_scaled(&specs, self.rate_scale))
            .transpose()
    }

    /// The shape and strategy of every line of the facility this spec
    /// names, in line order, or `None` for a single-line spec: Line 1 and
    /// Line 2 for the two-line facility, the twin shape for a k-line bank.
    pub(crate) fn line_specs(&self) -> Option<Vec<LineSpec>> {
        match &self.target {
            ModelTarget::Line { .. } => None,
            ModelTarget::Facility { line1, line2 } => Some(vec![
                LineSpec::new(Line::Line1, line1.clone()),
                LineSpec::new(Line::Line2, line2.clone()),
            ]),
            ModelTarget::FacilityK { strategies } => Some(
                strategies
                    .iter()
                    .map(|strategy| LineSpec::twin(strategy.clone()))
                    .collect(),
            ),
        }
    }

    /// Builds the model and compiles it into the solver-ready
    /// [`CompiledQuotient`] artifact. For facility specs this materialises
    /// the joint chain (the orbit fold under factor symmetry), so it is
    /// gated on the product size: specs whose per-line quotient product
    /// exceeds [`ModelSpec::MAX_MATERIALISED_PRODUCT`] states are rejected
    /// with a pointer at the orbit-enumeration tier, which answers
    /// availability without ever materialising the flat k-product.
    ///
    /// # Errors
    ///
    /// Propagates model-building and composition errors; rejects facility
    /// products too large to materialise.
    pub fn build_quotient(
        &self,
        options: ComposerOptions,
    ) -> Result<CompiledQuotient, ArcadeError> {
        match &self.target {
            ModelTarget::Line { line, strategy } => {
                let model = line_model_scaled(*line, strategy, self.rate_scale)?;
                CompiledQuotient::of_model(&model, options)
            }
            ModelTarget::Facility { .. } | ModelTarget::FacilityK { .. } => {
                let model = self.facility_model()?.expect("facility targets");
                let analysis = FacilityAnalysis::with_options(&model, options)?;
                let product_blocks = analysis.stats().joint_blocks;
                if product_blocks > Self::MAX_MATERIALISED_PRODUCT {
                    return Err(ArcadeError::InvalidParameter {
                        reason: format!(
                            "model spec `{}`: the joint product has {product_blocks} states, \
                             beyond the {} materialisation cap — query the orbit-enumeration \
                             availability (`wt_experiments facility`) instead",
                            self.canonical(),
                            Self::MAX_MATERIALISED_PRODUCT
                        ),
                    });
                }
                analysis.compiled_quotient()
            }
        }
    }

    /// Largest per-line quotient product (in joint states) that
    /// [`ModelSpec::build_quotient`] will materialise. `facility/ded^3`
    /// (96³ = 884,736 tuples, folded to 152,096 orbits) fits;
    /// `facility/ded^4` (96⁴ ≈ 8.5×10⁷) does not and is served by the
    /// enumeration tier.
    pub const MAX_MATERIALISED_PRODUCT: usize = 1_500_000;
}

impl fmt::Display for ModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.canonical())
    }
}

impl FromStr for ModelSpec {
    type Err = ArcadeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ModelSpec::parse(s)
    }
}

/// Parses a facility tail: `s1+s2` (the paper facility), `s1+…+sk` with
/// k ≥ 3 (a twin-shape bank) or `s^k` (a homogeneous bank).
fn parse_facility(spec: &str, tail: &str) -> Result<ModelTarget, ArcadeError> {
    let bad = |reason: String| ArcadeError::InvalidParameter { reason };
    if let Some((strategy, count)) = tail.split_once('^') {
        if strategy.contains('+') || count.contains('+') {
            return Err(bad(format!(
                "model spec `{spec}`: `^` repetition cannot be mixed with a `+` list"
            )));
        }
        let k: usize = count.parse().map_err(|_| {
            bad(format!(
                "model spec `{spec}`: unparsable line count `{count}` in `{tail}`"
            ))
        })?;
        if k < 2 {
            return Err(bad(format!(
                "model spec `{spec}`: a homogeneous bank needs at least 2 lines, got {k}"
            )));
        }
        let strategy = parse_strategy(spec, strategy)?;
        return Ok(ModelTarget::FacilityK {
            strategies: vec![strategy; k],
        });
    }
    let terms: Vec<&str> = tail.split('+').collect();
    match terms.as_slice() {
        [] | [_] => Err(bad(format!(
            "model spec `{spec}`: facility needs two or more strategies, \
             `facility/<s1>+<s2>[+…]` or `facility/<s>^<k>`"
        ))),
        [s1, s2] => Ok(ModelTarget::Facility {
            line1: parse_strategy(spec, s1)?,
            line2: parse_strategy(spec, s2)?,
        }),
        terms => Ok(ModelTarget::FacilityK {
            strategies: terms
                .iter()
                .map(|term| parse_strategy(spec, term))
                .collect::<Result<Vec<_>, _>>()?,
        }),
    }
}

/// Parses one (lower-cased) strategy token: `ded`, `frf-K`, `fff-K`,
/// `fcfs-K`, with an optional `p` suffix on `frf`/`fff` for the preemptive
/// variants.
fn parse_strategy(spec: &str, token: &str) -> Result<StrategySpec, ArcadeError> {
    let bad = |reason: String| ArcadeError::InvalidParameter { reason };
    if token == "ded" {
        return Ok(strategies::dedicated());
    }
    let (base, preemptive) = match token.strip_suffix('p') {
        Some(b) if b.ends_with(|c: char| c.is_ascii_digit()) => (b, true),
        _ => (token, false),
    };
    let (kind, crews) = base.split_once('-').ok_or_else(|| {
        bad(format!(
            "model spec `{spec}`: unknown strategy `{token}` (expected ded, frf-K, fff-K or fcfs-K)"
        ))
    })?;
    let crews: usize = crews.parse().map_err(|_| {
        bad(format!(
            "model spec `{spec}`: unparsable crew count in strategy `{token}`"
        ))
    })?;
    if crews == 0 {
        return Err(bad(format!(
            "model spec `{spec}`: strategy `{token}` needs at least one crew"
        )));
    }
    match (kind, preemptive) {
        ("frf", false) => Ok(strategies::frf(crews)),
        ("fff", false) => Ok(strategies::fff(crews)),
        ("fcfs", false) => Ok(strategies::fcfs(crews)),
        ("frf", true) => Ok(strategies::frf_preemptive(crews)),
        ("fff", true) => Ok(strategies::fff_preemptive(crews)),
        _ => Err(bad(format!(
            "model spec `{spec}`: unknown strategy `{token}` (expected ded, frf-K, fff-K or fcfs-K)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facility::facility_model_scaled;
    use arcade_symmetry::chain_presentation_code;

    #[test]
    fn specs_parse_case_insensitively_and_round_trip() {
        for raw in [
            "line1/ded",
            "line2/frf-1",
            "line1/fff-2",
            "line2/fcfs-3",
            "line1/frf-2p",
            "facility/ded+ded",
            "facility/frf-1+fff-2",
            "facility/ded+frf-1+ded",
            "facility/ded^4",
            "facility/frf-1^3@1.1",
            "line1/ded@1.05",
            "facility/ded+ded@0.5",
        ] {
            let spec = ModelSpec::parse(raw).unwrap();
            assert_eq!(spec.canonical(), raw, "canonical form is the input here");
            let reparsed = ModelSpec::parse(&spec.canonical()).unwrap();
            assert_eq!(reparsed, spec, "canonical round-trips");
        }
        let upper = ModelSpec::parse("  LINE1/DED ").unwrap();
        assert_eq!(upper.canonical(), "line1/ded");
        let one = ModelSpec::parse("line1/ded@1.0").unwrap();
        assert_eq!(one.canonical(), "line1/ded", "unit scale is dropped");
        assert_eq!(one.rate_scale(), 1.0);
    }

    #[test]
    fn families_strip_the_rate_scale() {
        let nominal = ModelSpec::parse("line2/frf-2").unwrap();
        let scaled = ModelSpec::parse("line2/frf-2@1.1").unwrap();
        assert_eq!(nominal.family(), scaled.family());
        assert_ne!(nominal.canonical(), scaled.canonical());
        assert!(!nominal.is_facility());
        assert!(ModelSpec::parse("facility/ded+ded").unwrap().is_facility());
    }

    #[test]
    fn malformed_specs_are_rejected_with_context() {
        for raw in [
            "",
            "line1",
            "line3/ded",
            "line1/dead",
            "line1/frf",
            "line1/frf-0",
            "line1/frf-x",
            "line1/fcfs-1p",
            "line1/dedp",
            "facility/ded",
            "line1/ded@",
            "line1/ded@0",
            "line1/ded@-1",
            "line1/ded@inf",
            "line1/ded@nan",
            "facility/ded^1",
            "facility/ded^0",
            "facility/ded^x",
            "facility/ded^",
            "facility/ded^2+frf-1",
            "facility/ded+frf-1+",
            "line1/ded^2",
        ] {
            let err = ModelSpec::parse(raw).unwrap_err();
            assert!(
                matches!(err, ArcadeError::InvalidParameter { .. }),
                "`{raw}` must be an InvalidParameter, got {err:?}"
            );
        }
    }

    #[test]
    fn scaled_variants_share_the_state_space_but_not_the_chain() {
        let options = ComposerOptions::default;
        let nominal = ModelSpec::parse("line2/ded")
            .unwrap()
            .build_quotient(options())
            .unwrap();
        let scaled = ModelSpec::parse("line2/ded@1.25")
            .unwrap()
            .build_quotient(options())
            .unwrap();
        assert_eq!(nominal.num_states(), scaled.num_states());
        assert_ne!(
            chain_presentation_code(nominal.chain()),
            chain_presentation_code(scaled.chain()),
            "scaling the rates must change the chain fingerprint"
        );
        assert!(!nominal.identical(&scaled));
        assert!(nominal.identical(&nominal.clone()));
    }

    #[test]
    fn k_term_and_repetition_specs_target_the_twin_bank() {
        let uniform = ModelSpec::parse("facility/ded+ded+ded").unwrap();
        assert_eq!(
            uniform.canonical(),
            "facility/ded^3",
            "all-equal lists collapse to the shorthand"
        );
        assert_eq!(uniform, ModelSpec::parse("facility/ded^3").unwrap());
        assert_eq!(uniform.num_lines(), 3);
        assert!(uniform.is_facility());

        let mixed = ModelSpec::parse("facility/ded+frf-1+ded").unwrap();
        assert_eq!(mixed.canonical(), "facility/ded+frf-1+ded");
        assert_eq!(mixed.num_lines(), 3);
        match mixed.target() {
            ModelTarget::FacilityK { strategies } => {
                let labels: Vec<_> = strategies.iter().map(|s| s.label.as_str()).collect();
                assert_eq!(labels, vec!["DED", "FRF-1", "DED"]);
            }
            other => panic!("expected FacilityK, got {other:?}"),
        }

        // `facility/ded+ded` stays the paper's Line 1 × Line 2 facility —
        // a different model from the twin bank `facility/ded^2`.
        let paper = ModelSpec::parse("facility/ded+ded").unwrap();
        assert!(matches!(paper.target(), ModelTarget::Facility { .. }));
        assert_eq!(paper.num_lines(), 2);
        assert_ne!(paper, ModelSpec::parse("facility/ded^2").unwrap());

        // The `@scale` suffix composes with both forms.
        let scaled = ModelSpec::parse("facility/ded^4@1.1").unwrap();
        assert_eq!(scaled.family(), "facility/ded^4");
        assert_eq!(scaled.rate_scale(), 1.1);
    }

    #[test]
    fn twin_bank_specs_build_k_line_models() {
        use crate::facility::FACILITY_DISASTER_ALL_PUMPS;
        let spec = ModelSpec::parse("facility/ded^4").unwrap();
        let model = spec.facility_model().unwrap().unwrap();
        assert_eq!(model.lines().len(), 4);
        assert_eq!(model.line_index("line4"), Some(3));
        assert_eq!(model.composition_tree().groups.len(), 4);
        assert!(model.disaster(FACILITY_DISASTER_ALL_PUMPS).is_some());
        assert!(ModelSpec::parse("line1/ded")
            .unwrap()
            .facility_model()
            .unwrap()
            .is_none());
    }

    #[test]
    fn twin_bank_quotients_fold_identical_factors() {
        // facility/ded^2: two identical 96-block twin chains fold to
        // 96·97/2 = 4,656 sorted-pair orbit representatives.
        let spec = ModelSpec::parse("facility/ded^2").unwrap();
        let quotient = spec.build_quotient(ComposerOptions::default()).unwrap();
        assert_eq!(quotient.num_states(), 96 * 97 / 2);
        assert_eq!(quotient.source_states(), 96 * 96);
    }

    #[test]
    fn oversized_products_are_rejected_with_a_pointer_at_the_enumeration_tier() {
        // facility/ded^4 has 96⁴ ≈ 8.5×10⁷ product states: build_quotient
        // must refuse to materialise it (the orbit-enumeration tier serves
        // it instead), while the model itself still builds.
        let spec = ModelSpec::parse("facility/ded^4").unwrap();
        assert!(spec.facility_model().unwrap().is_some());
        let err = spec.build_quotient(ComposerOptions::default()).unwrap_err();
        match err {
            ArcadeError::InvalidParameter { reason } => {
                assert!(reason.contains("materialisation cap"), "{reason}");
            }
            other => panic!("expected InvalidParameter, got {other:?}"),
        }
    }

    #[test]
    fn facility_spec_matches_the_analysis_front_end() {
        let spec = ModelSpec::parse("facility/ded+ded").unwrap();
        let quotient = spec.build_quotient(ComposerOptions::default()).unwrap();
        let model =
            facility_model_scaled(&strategies::dedicated(), &strategies::dedicated(), 1.0).unwrap();
        let direct = FacilityAnalysis::new(&model)
            .unwrap()
            .compiled_quotient()
            .unwrap();
        assert!(quotient.identical(&direct));
    }
}
