//! The newline-delimited JSON request/response protocol.
//!
//! Every request and every response is one JSON object on one line.
//! Requests carry an `op` discriminator:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"availability","model":"line1/ded"}
//! {"op":"survivability","model":"line2/ded","disaster":"disaster-2-mixed",
//!  "level":1.0,"times":[0,20,40]}
//! {"op":"cost","kind":"accumulated","model":"facility/ded+ded",
//!  "disaster":"facility-all-pumps","times":[0,50,100]}
//! {"op":"stats"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! Responses are an envelope: `{"ok":true,"result":…}` on success,
//! `{"ok":false,"error":"…"}` on failure. Model names are the registry specs
//! of [`watertreatment::registry::ModelSpec`]; `disaster` is a model-defined
//! disaster name (or `null`/absent on cost queries for the no-disaster
//! start).

use crate::json::Json;

/// Which cost measure a cost query asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostKind {
    /// Expected cost rate at each time point.
    Instantaneous,
    /// Expected cost accumulated up to each time bound.
    Accumulated,
}

impl CostKind {
    /// The wire name (`instantaneous` / `accumulated`).
    pub fn wire_name(self) -> &'static str {
        match self {
            CostKind::Instantaneous => "instantaneous",
            CostKind::Accumulated => "accumulated",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<CostKind> {
        match name {
            "instantaneous" => Some(CostKind::Instantaneous),
            "accumulated" => Some(CostKind::Accumulated),
            _ => None,
        }
    }
}

/// Which measure a simulate query estimates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SimMeasure {
    /// Fraction of the horizon spent non-operational (interval
    /// unavailability).
    Unavailability,
    /// Time to first failure, capped at the horizon, with lower-tail
    /// VaR/CVaR.
    TimeToFailure,
    /// Cost accumulated over the horizon, with upper-tail VaR/CVaR.
    Cost,
}

impl SimMeasure {
    /// The wire name (`unavailability` / `ttf` / `cost`).
    pub fn wire_name(self) -> &'static str {
        match self {
            SimMeasure::Unavailability => "unavailability",
            SimMeasure::TimeToFailure => "ttf",
            SimMeasure::Cost => "cost",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<SimMeasure> {
        match name {
            "unavailability" => Some(SimMeasure::Unavailability),
            "ttf" => Some(SimMeasure::TimeToFailure),
            "cost" => Some(SimMeasure::Cost),
            _ => None,
        }
    }
}

/// A decoded request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// Steady-state availability of a model.
    Availability {
        /// Registry model spec (`line1/ded`, `facility/ded+ded`, …).
        model: String,
    },
    /// Survivability curve after a disaster.
    Survivability {
        /// Registry model spec.
        model: String,
        /// Name of the disaster to start from.
        disaster: String,
        /// Required service level in `[0, 1]`.
        level: f64,
        /// Deadlines to evaluate, in hours.
        times: Vec<f64>,
    },
    /// Instantaneous or accumulated cost curve.
    Cost {
        /// Registry model spec.
        model: String,
        /// Which cost measure.
        kind: CostKind,
        /// Optional disaster to start from (`None` = the no-disaster start).
        disaster: Option<String>,
        /// Time points, in hours.
        times: Vec<f64>,
    },
    /// Monte-Carlo estimate on the model's quotient (rare-event capable).
    Simulate {
        /// Registry model spec.
        model: String,
        /// Which measure to estimate.
        measure: SimMeasure,
        /// Optional disaster start (cost measure only; `None` = the
        /// no-disaster start).
        disaster: Option<String>,
        /// Simulation horizon in hours.
        horizon: f64,
        /// Number of replications.
        replications: usize,
        /// Base random seed (replication streams are counter-derived).
        seed: u64,
        /// Failure-biasing factor for importance sampling (`1.0` = naive).
        bias: f64,
        /// Tail level for VaR/CVaR measures.
        alpha: f64,
    },
    /// Service counters snapshot.
    Stats,
    /// Prometheus-style text exposition of the service counters.
    Metrics,
    /// Stop the daemon (after acknowledging).
    Shutdown,
}

/// Default base seed of simulate queries that omit `seed`.
pub const DEFAULT_SIM_SEED: u64 = 0x5EED;
/// Default tail level of simulate queries that omit `alpha`.
pub const DEFAULT_SIM_ALPHA: f64 = 0.95;

impl Request {
    /// Encodes the request as its wire object.
    pub fn to_json(&self) -> Json {
        match self {
            Request::Ping => Json::object(vec![("op", Json::from("ping"))]),
            Request::Stats => Json::object(vec![("op", Json::from("stats"))]),
            Request::Metrics => Json::object(vec![("op", Json::from("metrics"))]),
            Request::Shutdown => Json::object(vec![("op", Json::from("shutdown"))]),
            Request::Availability { model } => Json::object(vec![
                ("op", Json::from("availability")),
                ("model", Json::from(model.as_str())),
            ]),
            Request::Survivability {
                model,
                disaster,
                level,
                times,
            } => Json::object(vec![
                ("op", Json::from("survivability")),
                ("model", Json::from(model.as_str())),
                ("disaster", Json::from(disaster.as_str())),
                ("level", Json::Number(*level)),
                ("times", Json::numbers(times)),
            ]),
            Request::Cost {
                model,
                kind,
                disaster,
                times,
            } => Json::object(vec![
                ("op", Json::from("cost")),
                ("kind", Json::from(kind.wire_name())),
                ("model", Json::from(model.as_str())),
                (
                    "disaster",
                    match disaster {
                        Some(name) => Json::from(name.as_str()),
                        None => Json::Null,
                    },
                ),
                ("times", Json::numbers(times)),
            ]),
            Request::Simulate {
                model,
                measure,
                disaster,
                horizon,
                replications,
                seed,
                bias,
                alpha,
            } => Json::object(vec![
                ("op", Json::from("simulate")),
                ("model", Json::from(model.as_str())),
                ("measure", Json::from(measure.wire_name())),
                (
                    "disaster",
                    match disaster {
                        Some(name) => Json::from(name.as_str()),
                        None => Json::Null,
                    },
                ),
                ("horizon", Json::Number(*horizon)),
                ("replications", Json::from(*replications)),
                ("seed", Json::from(*seed)),
                ("bias", Json::Number(*bias)),
                ("alpha", Json::Number(*alpha)),
            ]),
        }
    }

    /// Decodes a wire object.
    ///
    /// # Errors
    ///
    /// Describes the first missing or ill-typed field.
    pub fn from_json(json: &Json) -> Result<Request, String> {
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or("request needs a string `op` field")?;
        let model = |_: &str| -> Result<String, String> {
            Ok(json
                .get("model")
                .and_then(Json::as_str)
                .ok_or("request needs a string `model` field")?
                .to_string())
        };
        let times = || -> Result<Vec<f64>, String> {
            json.get("times")
                .and_then(Json::as_array)
                .ok_or("request needs a `times` array")?
                .iter()
                .map(|t| t.as_f64().ok_or("`times` must contain numbers".to_string()))
                .collect()
        };
        match op {
            "ping" => Ok(Request::Ping),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            "availability" => Ok(Request::Availability { model: model(op)? }),
            "survivability" => Ok(Request::Survivability {
                model: model(op)?,
                disaster: json
                    .get("disaster")
                    .and_then(Json::as_str)
                    .ok_or("survivability needs a string `disaster` field")?
                    .to_string(),
                level: json
                    .get("level")
                    .and_then(Json::as_f64)
                    .ok_or("survivability needs a numeric `level` field")?,
                times: times()?,
            }),
            "cost" => Ok(Request::Cost {
                model: model(op)?,
                kind: json
                    .get("kind")
                    .and_then(Json::as_str)
                    .and_then(CostKind::parse)
                    .ok_or("cost needs `kind`: `instantaneous` or `accumulated`")?,
                disaster: match json.get("disaster") {
                    None | Some(Json::Null) => None,
                    Some(value) => Some(
                        value
                            .as_str()
                            .ok_or("`disaster` must be a string or null")?
                            .to_string(),
                    ),
                },
                times: times()?,
            }),
            "simulate" => Ok(Request::Simulate {
                model: model(op)?,
                measure: json
                    .get("measure")
                    .and_then(Json::as_str)
                    .and_then(SimMeasure::parse)
                    .ok_or("simulate needs `measure`: `unavailability`, `ttf` or `cost`")?,
                disaster: match json.get("disaster") {
                    None | Some(Json::Null) => None,
                    Some(value) => Some(
                        value
                            .as_str()
                            .ok_or("`disaster` must be a string or null")?
                            .to_string(),
                    ),
                },
                horizon: json
                    .get("horizon")
                    .and_then(Json::as_f64)
                    .ok_or("simulate needs a numeric `horizon` field")?,
                replications: json
                    .get("replications")
                    .and_then(Json::as_usize)
                    .ok_or("simulate needs an integer `replications` field")?,
                seed: match json.get("seed") {
                    None | Some(Json::Null) => DEFAULT_SIM_SEED,
                    Some(value) => value
                        .as_usize()
                        .ok_or("`seed` must be a non-negative integer")?
                        as u64,
                },
                bias: match json.get("bias") {
                    None | Some(Json::Null) => 1.0,
                    Some(value) => value.as_f64().ok_or("`bias` must be a number")?,
                },
                alpha: match json.get("alpha") {
                    None | Some(Json::Null) => DEFAULT_SIM_ALPHA,
                    Some(value) => value.as_f64().ok_or("`alpha` must be a number")?,
                },
            }),
            other => Err(format!("unknown op `{other}`")),
        }
    }

    /// Parses one request line.
    ///
    /// # Errors
    ///
    /// Reports JSON syntax errors and protocol violations alike.
    pub fn parse_line(line: &str) -> Result<Request, String> {
        Request::from_json(&Json::parse(line)?)
    }
}

/// A response envelope: a result payload or an error message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success, with the op-specific payload.
    Ok(Json),
    /// Failure, with a human-readable message.
    Err(String),
}

impl Response {
    /// Encodes the envelope as its wire object.
    pub fn to_json(&self) -> Json {
        match self {
            Response::Ok(result) => {
                Json::object(vec![("ok", Json::Bool(true)), ("result", result.clone())])
            }
            Response::Err(message) => Json::object(vec![
                ("ok", Json::Bool(false)),
                ("error", Json::from(message.as_str())),
            ]),
        }
    }

    /// Decodes a wire envelope.
    ///
    /// # Errors
    ///
    /// Rejects envelopes with neither a result nor an error.
    pub fn from_json(json: &Json) -> Result<Response, String> {
        match json.get("ok").and_then(Json::as_bool) {
            Some(true) => Ok(Response::Ok(
                json.get("result").cloned().unwrap_or(Json::Null),
            )),
            Some(false) => Ok(Response::Err(
                json.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown error")
                    .to_string(),
            )),
            None => Err("response needs a boolean `ok` field".to_string()),
        }
    }

    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// See [`Response::from_json`].
    pub fn parse_line(line: &str) -> Result<Response, String> {
        Response::from_json(&Json::parse(line)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip() {
        let requests = vec![
            Request::Ping,
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
            Request::Availability {
                model: "line1/ded".into(),
            },
            Request::Survivability {
                model: "line2/frf-1".into(),
                disaster: "disaster-2-mixed".into(),
                level: 1.0,
                times: vec![0.0, 0.5, 20.0],
            },
            Request::Cost {
                model: "facility/ded+ded".into(),
                kind: CostKind::Accumulated,
                disaster: Some("facility-all-pumps".into()),
                times: vec![0.0, 100.0],
            },
            Request::Cost {
                model: "line1/ded@1.05".into(),
                kind: CostKind::Instantaneous,
                disaster: None,
                times: vec![1.0],
            },
            Request::Simulate {
                model: "line1/frf-1".into(),
                measure: SimMeasure::Unavailability,
                disaster: None,
                horizon: 1000.0,
                replications: 2000,
                seed: 0x5EED,
                bias: 1.0,
                alpha: 0.95,
            },
            Request::Simulate {
                model: "line2/ded".into(),
                measure: SimMeasure::Cost,
                disaster: Some("disaster-2-mixed".into()),
                horizon: 48.0,
                replications: 500,
                seed: 7,
                bias: 250.0,
                alpha: 0.99,
            },
        ];
        for request in requests {
            let line = request.to_json().to_string();
            assert!(!line.contains('\n'));
            assert_eq!(Request::parse_line(&line).unwrap(), request);
        }
    }

    #[test]
    fn responses_round_trip() {
        for response in [
            Response::Ok(Json::object(vec![("availability", Json::Number(0.75))])),
            Response::Err("unknown disaster `x`".into()),
        ] {
            let line = response.to_json().to_string();
            assert_eq!(Response::parse_line(&line).unwrap(), response);
        }
    }

    #[test]
    fn simulate_defaults_apply_when_fields_are_omitted() {
        let line = "{\"op\":\"simulate\",\"model\":\"line1/ded\",\
                    \"measure\":\"ttf\",\"horizon\":100,\"replications\":64}";
        let request = Request::parse_line(line).unwrap();
        assert_eq!(
            request,
            Request::Simulate {
                model: "line1/ded".into(),
                measure: SimMeasure::TimeToFailure,
                disaster: None,
                horizon: 100.0,
                replications: 64,
                seed: DEFAULT_SIM_SEED,
                bias: 1.0,
                alpha: DEFAULT_SIM_ALPHA,
            }
        );
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for line in [
            "{}",
            "{\"op\":\"nope\"}",
            "{\"op\":\"availability\"}",
            "{\"op\":\"survivability\",\"model\":\"line1/ded\"}",
            "{\"op\":\"cost\",\"model\":\"line1/ded\",\"kind\":\"x\",\"times\":[]}",
            "{\"op\":\"simulate\",\"model\":\"line1/ded\"}",
            "{\"op\":\"simulate\",\"model\":\"line1/ded\",\"measure\":\"nope\",\
             \"horizon\":10,\"replications\":100}",
            "not json",
        ] {
            assert!(Request::parse_line(line).is_err(), "`{line}` must fail");
        }
    }

    #[test]
    fn deeply_nested_request_lines_are_rejected() {
        let err = Request::parse_line(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
    }
}
