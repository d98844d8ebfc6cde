//! Declarative measure specifications and results.
//!
//! Arcade takes, besides the architectural model, a specification of the
//! dependability measures to evaluate. [`Measure`] mirrors the measures used in
//! the paper (reliability, steady-state availability, quantitative
//! survivability and repair cost) in a form that can be stored in the XML
//! format, translated to CSL/CSRL property strings and evaluated by
//! [`crate::Analysis`].

use serde::{Deserialize, Serialize};

/// A dependability or performability measure to evaluate on a model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Measure {
    /// Long-run probability that the system is fully operational
    /// (CSL `S=? [ "operational" ]`).
    SteadyStateAvailability,
    /// Probability that the system is fully operational at time `t`.
    PointAvailability {
        /// The time instant in hours.
        time: f64,
    },
    /// Probability of no service degradation within the mission time
    /// (CSL `1 - P=? [ true U<=t "down" ]`).
    Reliability {
        /// Mission time in hours.
        time: f64,
    },
    /// Reliability evaluated at several mission times (one curve).
    ReliabilityCurve {
        /// Mission times in hours.
        times: Vec<f64>,
    },
    /// Probability of recovering a service level of at least `service_level`
    /// within `time` hours after the named disaster
    /// (CSL `P=? [ true U<=t "service >= x" ]` on the GOOD model).
    Survivability {
        /// Name of the disaster to start from.
        disaster: String,
        /// Required service level in `[0, 1]`.
        service_level: f64,
        /// Recovery deadline in hours.
        time: f64,
    },
    /// Survivability evaluated at several deadlines (one recovery curve).
    SurvivabilityCurve {
        /// Name of the disaster to start from.
        disaster: String,
        /// Required service level in `[0, 1]`.
        service_level: f64,
        /// Recovery deadlines in hours.
        times: Vec<f64>,
    },
    /// Expected instantaneous cost rate at the given times
    /// (CSRL `R=? [ I=t ]`), optionally after a disaster.
    InstantaneousCost {
        /// Disaster to start from; `None` starts from the regular initial state.
        disaster: Option<String>,
        /// Time instants in hours.
        times: Vec<f64>,
    },
    /// Expected accumulated cost up to the given time bounds
    /// (CSRL `R=? [ C<=t ]`), optionally after a disaster.
    AccumulatedCost {
        /// Disaster to start from; `None` starts from the regular initial state.
        disaster: Option<String>,
        /// Time bounds in hours.
        times: Vec<f64>,
    },
    /// Long-run expected cost rate.
    LongRunCostRate,
}

impl Measure {
    /// A short human-readable identifier for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            Measure::SteadyStateAvailability => "steady-state availability",
            Measure::PointAvailability { .. } => "point availability",
            Measure::Reliability { .. } => "reliability",
            Measure::ReliabilityCurve { .. } => "reliability curve",
            Measure::Survivability { .. } => "survivability",
            Measure::SurvivabilityCurve { .. } => "survivability curve",
            Measure::InstantaneousCost { .. } => "instantaneous cost",
            Measure::AccumulatedCost { .. } => "accumulated cost",
            Measure::LongRunCostRate => "long-run cost rate",
        }
    }

    /// The CSL/CSRL formula this measure corresponds to, in PRISM-like syntax.
    pub fn csl_formula(&self) -> String {
        match self {
            Measure::SteadyStateAvailability => "S=? [ \"operational\" ]".to_string(),
            Measure::PointAvailability { time } => {
                format!("P=? [ true U[{time},{time}] \"operational\" ]")
            }
            Measure::Reliability { time } => {
                format!("1 - P=? [ true U<={time} \"down\" ]")
            }
            Measure::ReliabilityCurve { times } => {
                let upper = times.iter().copied().fold(0.0, f64::max);
                format!("1 - P=? [ true U<=t \"down\" ] for t in [0, {upper}]")
            }
            Measure::Survivability {
                disaster,
                service_level,
                time,
            } => format!(
                "P=? [ true U<={time} \"service>={service_level}\" ] given disaster {disaster}"
            ),
            Measure::SurvivabilityCurve {
                disaster,
                service_level,
                times,
            } => {
                let upper = times.iter().copied().fold(0.0, f64::max);
                format!(
                    "P=? [ true U<=t \"service>={service_level}\" ] for t in [0, {upper}] given disaster {disaster}"
                )
            }
            Measure::InstantaneousCost { times, .. } => {
                let upper = times.iter().copied().fold(0.0, f64::max);
                format!("R=? [ I=t ] for t in [0, {upper}]")
            }
            Measure::AccumulatedCost { times, .. } => {
                let upper = times.iter().copied().fold(0.0, f64::max);
                format!("R=? [ C<={upper} ]")
            }
            Measure::LongRunCostRate => "R=? [ S ]".to_string(),
        }
    }
}

/// The result of evaluating a [`Measure`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MeasureResult {
    /// A single number (availability, reliability at one time point, ...).
    Scalar(f64),
    /// A time-indexed curve of `(time, value)` points.
    Curve(Vec<(f64, f64)>),
}

impl MeasureResult {
    /// The scalar value, if this result is a scalar.
    pub fn as_scalar(&self) -> Option<f64> {
        match self {
            MeasureResult::Scalar(v) => Some(*v),
            MeasureResult::Curve(_) => None,
        }
    }

    /// The curve, if this result is a curve.
    pub fn as_curve(&self) -> Option<&[(f64, f64)]> {
        match self {
            MeasureResult::Scalar(_) => None,
            MeasureResult::Curve(points) => Some(points),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_distinct_and_stable() {
        assert_eq!(
            Measure::SteadyStateAvailability.kind(),
            "steady-state availability"
        );
        assert_eq!(Measure::Reliability { time: 10.0 }.kind(), "reliability");
        assert_eq!(Measure::LongRunCostRate.kind(), "long-run cost rate");
    }

    #[test]
    fn csl_formulas_mention_the_right_operators() {
        assert!(Measure::SteadyStateAvailability
            .csl_formula()
            .starts_with("S=?"));
        assert!(Measure::Reliability { time: 100.0 }
            .csl_formula()
            .contains("U<=100"));
        let surv = Measure::Survivability {
            disaster: "d1".into(),
            service_level: 0.5,
            time: 4.5,
        };
        assert!(surv.csl_formula().contains("d1"));
        assert!(surv.csl_formula().contains("0.5"));
        assert!(Measure::InstantaneousCost {
            disaster: None,
            times: vec![1.0]
        }
        .csl_formula()
        .contains("I=t"));
        assert!(Measure::AccumulatedCost {
            disaster: None,
            times: vec![5.0]
        }
        .csl_formula()
        .contains("C<="));
        assert!(Measure::PointAvailability { time: 2.0 }
            .csl_formula()
            .contains("U[2,2]"));
        assert!(Measure::ReliabilityCurve {
            times: vec![1.0, 2.0]
        }
        .csl_formula()
        .contains("[0, 2]"));
        assert!(Measure::SurvivabilityCurve {
            disaster: "d".into(),
            service_level: 1.0,
            times: vec![3.0]
        }
        .csl_formula()
        .contains("given disaster d"));
        assert!(Measure::LongRunCostRate.csl_formula().contains("R=?"));
    }

    #[test]
    fn result_accessors() {
        let scalar = MeasureResult::Scalar(0.5);
        assert_eq!(scalar.as_scalar(), Some(0.5));
        assert!(scalar.as_curve().is_none());
        let curve = MeasureResult::Curve(vec![(0.0, 1.0), (1.0, 0.9)]);
        assert!(curve.as_scalar().is_none());
        assert_eq!(curve.as_curve().unwrap().len(), 2);
    }
}
