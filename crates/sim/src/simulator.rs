//! The public simulation API: replicated estimators for the paper's measures.

use arcade_core::{ArcadeError, ArcadeModel, Disaster};
use ctmc::exec::map_ordered;
use ctmc::ExecOptions;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

use crate::engine::Trajectory;
use crate::rng::replication_rng;
use crate::stats::{Estimate, RunningStats};

/// Options shared by all estimators (flat and quotient-resident).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimulationOptions {
    /// Number of independent replications.
    pub replications: usize,
    /// Base random seed; replication `i` draws from the counter-based stream
    /// [`crate::rng::stream_key`]`(seed, i)`.
    pub seed: u64,
    /// Worker pool for the replication batches — the same knob every other
    /// engine in the workspace uses (`ARCADE_THREADS` respected via
    /// [`ExecOptions::default`]). Results are bit-identical for any thread
    /// count.
    pub exec: ExecOptions,
    /// Replications per batch: the scheduling granule handed to the worker
    /// pool. Statistics merge in batch order, so the value changes rounding
    /// only through the (deterministic) merge tree, never through scheduling.
    pub batch: usize,
    /// Failure-biasing factor for importance sampling: rates of failure-class
    /// transitions are multiplied by this factor and estimates reweighted by
    /// the trajectory likelihood ratio. `1.0` disables biasing. Only the
    /// quotient-resident engine supports biasing; the flat [`Simulator`]
    /// rejects any other value.
    pub bias: f64,
}

impl Default for SimulationOptions {
    fn default() -> Self {
        SimulationOptions {
            replications: 10_000,
            seed: 0x5EED,
            exec: ExecOptions::default(),
            batch: 512,
            bias: 1.0,
        }
    }
}

impl SimulationOptions {
    /// Convenience constructor mirroring the old `threads` field: an explicit
    /// worker count with everything else at its default.
    pub fn with_threads(threads: usize) -> Self {
        SimulationOptions {
            exec: ExecOptions::with_threads(threads),
            ..Default::default()
        }
    }
}

/// Monte-Carlo estimator for the dependability measures of an Arcade model.
#[derive(Debug, Clone)]
pub struct Simulator<'a> {
    model: &'a ArcadeModel,
}

impl<'a> Simulator<'a> {
    /// Creates a simulator for the given model.
    ///
    /// # Errors
    ///
    /// Returns an error if a trajectory cannot be prepared for the model,
    /// for instance when a repair unit is preemptive (see [`Trajectory::new`]).
    pub fn new(model: &'a ArcadeModel) -> Result<Self, ArcadeError> {
        // Fail fast on models the engine cannot handle.
        Trajectory::new(model)?;
        Ok(Simulator { model })
    }

    /// The model being simulated.
    pub fn model(&self) -> &ArcadeModel {
        self.model
    }

    /// Estimates reliability: the probability that the system never leaves the
    /// fully-operational states within the mission time.
    ///
    /// # Errors
    ///
    /// Propagates trajectory preparation errors.
    pub fn reliability(
        &self,
        mission_time: f64,
        options: &SimulationOptions,
    ) -> Result<Estimate, ArcadeError> {
        self.replicate(options, None, move |trajectory, rng| {
            while trajectory.time() < mission_time {
                if !trajectory.is_fully_operational() {
                    return 0.0;
                }
                trajectory.step(mission_time, rng);
            }
            if trajectory.is_fully_operational() {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Estimates the probability that the system is fully operational at time `t`.
    ///
    /// # Errors
    ///
    /// Propagates trajectory preparation errors.
    pub fn point_availability(
        &self,
        t: f64,
        options: &SimulationOptions,
    ) -> Result<Estimate, ArcadeError> {
        self.replicate(options, None, move |trajectory, rng| {
            while trajectory.time() < t {
                trajectory.step(t, rng);
            }
            if trajectory.is_fully_operational() {
                1.0
            } else {
                0.0
            }
        })
    }

    /// Estimates long-run availability as the fraction of time the system is
    /// fully operational during `[0, horizon]` (each replication contributes
    /// one time-average).
    ///
    /// # Errors
    ///
    /// Propagates trajectory preparation errors.
    pub fn steady_state_availability(
        &self,
        horizon: f64,
        options: &SimulationOptions,
    ) -> Result<Estimate, ArcadeError> {
        self.replicate(options, None, move |trajectory, rng| {
            let mut up_time = 0.0;
            while trajectory.time() < horizon {
                let was_up = trajectory.is_fully_operational();
                let elapsed = trajectory.step(horizon, rng);
                if was_up {
                    up_time += elapsed;
                }
            }
            up_time / horizon
        })
    }

    /// Estimates survivability: the probability of reaching a service level of
    /// at least `service_level` within `deadline` hours after the disaster.
    ///
    /// # Errors
    ///
    /// Propagates trajectory preparation and disaster errors.
    pub fn survivability(
        &self,
        disaster: &Disaster,
        service_level: f64,
        deadline: f64,
        options: &SimulationOptions,
    ) -> Result<Estimate, ArcadeError> {
        self.replicate(options, Some(disaster), move |trajectory, rng| loop {
            if trajectory.service_level() >= service_level - 1e-12 {
                return 1.0;
            }
            if trajectory.time() >= deadline {
                return 0.0;
            }
            trajectory.step(deadline, rng);
        })
    }

    /// Estimates the expected accumulated repair cost over `[0, horizon]`,
    /// optionally starting right after a disaster.
    ///
    /// # Errors
    ///
    /// Propagates trajectory preparation and disaster errors.
    pub fn accumulated_cost(
        &self,
        disaster: Option<&Disaster>,
        horizon: f64,
        options: &SimulationOptions,
    ) -> Result<Estimate, ArcadeError> {
        self.replicate(options, disaster, move |trajectory, rng| {
            let mut cost = 0.0;
            while trajectory.time() < horizon {
                let rate = trajectory.cost_rate();
                let elapsed = trajectory.step(horizon, rng);
                cost += rate * elapsed;
            }
            cost
        })
    }

    /// Estimates the expected instantaneous cost rate at time `t`, optionally
    /// starting right after a disaster.
    ///
    /// # Errors
    ///
    /// Propagates trajectory preparation and disaster errors.
    pub fn instantaneous_cost(
        &self,
        disaster: Option<&Disaster>,
        t: f64,
        options: &SimulationOptions,
    ) -> Result<Estimate, ArcadeError> {
        self.replicate(options, disaster, move |trajectory, rng| {
            while trajectory.time() < t {
                trajectory.step(t, rng);
            }
            trajectory.cost_rate()
        })
    }

    /// Runs `options.replications` independent replications of `body` in
    /// fixed-size batches over the `options.exec` worker pool and merges the
    /// per-batch statistics in batch order. Replication `i` always draws from
    /// the counter-based stream keyed by `(seed, i)`, so the result is
    /// bit-identical for any thread count.
    fn replicate<F>(
        &self,
        options: &SimulationOptions,
        disaster: Option<&Disaster>,
        body: F,
    ) -> Result<Estimate, ArcadeError>
    where
        F: Fn(&mut Trajectory<'_>, &mut StdRng) -> f64 + Sync,
    {
        if options.bias != 1.0 {
            return Err(ArcadeError::UnsupportedMeasure {
                reason: format!(
                    "the flat simulator has no failure biasing (bias = {}); \
                     use the quotient-resident QuotientSimulator for importance sampling",
                    options.bias
                ),
            });
        }
        if options.batch == 0 {
            return Err(ArcadeError::InvalidParameter {
                reason: "simulation batch size must be at least 1".into(),
            });
        }
        let replications = options.replications;
        if replications == 0 {
            return Ok(Estimate::from_samples(&[]));
        }

        // Validate the disaster once up front so worker closures cannot fail.
        if let Some(d) = disaster {
            Trajectory::new(self.model)?.reset_to_disaster(d)?;
        }

        let batch = options.batch;
        let ranges: Vec<std::ops::Range<usize>> = (0..replications.div_ceil(batch))
            .map(|b| (b * batch)..((b + 1) * batch).min(replications))
            .collect();
        let outputs = map_ordered(
            &ranges,
            options.exec,
            |range| -> Result<RunningStats, ArcadeError> {
                let mut trajectory = Trajectory::new(self.model)?;
                let mut stats = RunningStats::new();
                for replication in range.clone() {
                    let mut rng = replication_rng(options.seed, replication as u64);
                    match disaster {
                        Some(d) => trajectory.reset_to_disaster(d)?,
                        None => trajectory.reset(),
                    }
                    stats.push(body(&mut trajectory, &mut rng));
                }
                Ok(stats)
            },
        );

        let mut merged = RunningStats::new();
        for output in outputs {
            merged.merge(&output?);
        }
        Ok(merged.estimate())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arcade_core::{BasicComponent, RepairStrategy, RepairUnit};
    use fault_tree::{StructureNode, SystemStructure};

    fn pump_model() -> ArcadeModel {
        let structure = SystemStructure::new(StructureNode::component("pump"));
        ArcadeModel::builder("pump", structure)
            .component(
                BasicComponent::from_mttf_mttr("pump", 100.0, 1.0)
                    .unwrap()
                    .with_failed_cost(3.0),
            )
            .repair_unit(
                RepairUnit::new("ru", RepairStrategy::FirstComeFirstServe, 1)
                    .unwrap()
                    .responsible_for(["pump"])
                    .with_idle_cost(1.0),
            )
            .disaster(Disaster::new("down", ["pump"]).unwrap())
            .build()
            .unwrap()
    }

    fn options(replications: usize) -> SimulationOptions {
        SimulationOptions {
            replications,
            seed: 42,
            exec: ExecOptions::with_threads(2),
            ..Default::default()
        }
    }

    #[test]
    fn reliability_matches_exponential_lifetime() {
        let model = pump_model();
        let simulator = Simulator::new(&model).unwrap();
        let estimate = simulator.reliability(50.0, &options(4000)).unwrap();
        let expected = (-50.0f64 / 100.0).exp();
        assert!(
            estimate.contains_with_slack(expected, 0.02),
            "estimate {estimate:?} vs expected {expected}"
        );
    }

    #[test]
    fn point_availability_approaches_steady_state() {
        let model = pump_model();
        let simulator = Simulator::new(&model).unwrap();
        let estimate = simulator.point_availability(500.0, &options(4000)).unwrap();
        let expected = 100.0 / 101.0;
        assert!(estimate.contains_with_slack(expected, 0.02), "{estimate:?}");
    }

    #[test]
    fn long_run_availability_time_average() {
        let model = pump_model();
        let simulator = Simulator::new(&model).unwrap();
        let estimate = simulator
            .steady_state_availability(2000.0, &options(300))
            .unwrap();
        let expected = 100.0 / 101.0;
        assert!(estimate.contains_with_slack(expected, 0.01), "{estimate:?}");
    }

    #[test]
    fn survivability_is_the_repair_cdf() {
        let model = pump_model();
        let simulator = Simulator::new(&model).unwrap();
        let disaster = model.disaster("down").unwrap();
        let estimate = simulator
            .survivability(disaster, 1.0, 2.0, &options(4000))
            .unwrap();
        let expected = 1.0 - (-2.0f64).exp();
        assert!(estimate.contains_with_slack(expected, 0.03), "{estimate:?}");
        // Service level 0 is reached immediately.
        let trivially = simulator
            .survivability(disaster, 0.0, 0.0, &options(100))
            .unwrap();
        assert_eq!(trivially.mean, 1.0);
    }

    #[test]
    fn costs_after_disaster() {
        let model = pump_model();
        let simulator = Simulator::new(&model).unwrap();
        let disaster = model.disaster("down").unwrap();
        let instant = simulator
            .instantaneous_cost(Some(disaster), 0.0, &options(100))
            .unwrap();
        assert_eq!(instant.mean, 3.0);
        let accumulated = simulator
            .accumulated_cost(Some(disaster), 1.0, &options(2000))
            .unwrap();
        assert!(
            accumulated.mean > 1.0 && accumulated.mean < 3.0,
            "{accumulated:?}"
        );
    }

    #[test]
    fn zero_replications_yield_empty_estimate() {
        let model = pump_model();
        let simulator = Simulator::new(&model).unwrap();
        let estimate = simulator.reliability(10.0, &options(0)).unwrap();
        assert_eq!(estimate.replications, 0);
    }

    #[test]
    fn single_threaded_and_parallel_are_bit_identical() {
        let model = pump_model();
        let simulator = Simulator::new(&model).unwrap();
        let mut reference = None;
        for threads in [1usize, 2, 4, 8] {
            let opts = SimulationOptions {
                replications: 500,
                seed: 7,
                exec: ExecOptions::with_threads(threads),
                ..Default::default()
            };
            let e = simulator.reliability(30.0, &opts).unwrap();
            // Streams depend only on (seed, replication) and batch statistics
            // merge in batch order: the estimate is byte-equal at any thread
            // count.
            let bits = (e.mean.to_bits(), e.half_width.to_bits());
            match &reference {
                None => reference = Some(bits),
                Some(expected) => assert_eq!(*expected, bits, "threads {threads}"),
            }
        }
    }

    #[test]
    fn unknown_disaster_is_rejected() {
        let model = pump_model();
        let simulator = Simulator::new(&model).unwrap();
        let rogue = Disaster::new("rogue", ["ghost"]).unwrap();
        assert!(simulator
            .survivability(&rogue, 1.0, 1.0, &options(10))
            .is_err());
    }

    #[test]
    fn flat_engine_rejects_failure_biasing() {
        let model = pump_model();
        let simulator = Simulator::new(&model).unwrap();
        let mut opts = options(10);
        opts.bias = 100.0;
        let err = simulator.reliability(10.0, &opts).unwrap_err();
        assert!(
            matches!(err, ArcadeError::UnsupportedMeasure { .. }),
            "{err:?}"
        );
        let mut opts = options(10);
        opts.batch = 0;
        assert!(simulator.reliability(10.0, &opts).is_err());
    }
}
