//! Capacity sweep: every arrival scenario under every capacity regime.
//!
//! The scenario sweep asks how load *shape* changes serving on a fixed
//! fleet; this sweep asks what elastic capacity buys. The grid is the
//! committed spec `specs/experiments/capacity.json` (`capacity.quick.json`
//! at `--quick`), served by [`run_sweep`]: each (scenario × autoscaler ×
//! admission) point is one session of a single sizing policy on a small
//! spread fleet. [`CapacitySweepResult`] is the thin view that reports the
//! four quantities summarizing a capacity regime: SLO violation rate (over
//! served requests), shed rate, node-seconds consumed (the capacity bill)
//! and peak queue depth (admitted-and-unfinished requests).
//!
//! With the defaults — `{static, utilization} × {admit-all, queue-shed}` —
//! the grid turns the flash crowd from a queueing-collapse story into a
//! capacity story: at equal offered load the utilization-threshold
//! autoscaler absorbs the spike that collapses the static fleet, and
//! shedding trades a bounded rejection rate for latency on what it admits.
//! Request conservation (`admitted + shed == generated`) is validated in
//! every cell.

use crate::experiments::api::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiments::{run_sweep, SweepPoint, SweepResult};
use janus_platform::outcome::{CapacityReport, ServingReport};
use std::fmt;

const PAPER_SPEC: &str = include_str!("../../../../specs/experiments/capacity.json");
const QUICK_SPEC: &str = include_str!("../../../../specs/experiments/capacity.quick.json");

/// A single-policy capacity sweep, viewed one row per grid point.
#[derive(Debug, Clone)]
pub struct CapacitySweepResult {
    /// The sweep behind the view (one policy, every point capacity-controlled).
    pub sweep: SweepResult,
}

impl CapacitySweepResult {
    /// Wrap a finished sweep, checking what [`SweepResult::validate`] does
    /// not: the spec serves one policy, every point ran live under capacity
    /// control, requests are conserved (`admitted + shed == generated`),
    /// both rates are fractions and every point billed node-seconds.
    pub fn new(sweep: SweepResult) -> Result<Self, String> {
        sweep.spec.validate()?;
        if sweep.spec.policies.len() != 1 {
            return Err(format!(
                "the capacity view serves exactly one policy, the spec lists {}",
                sweep.spec.policies.len()
            ));
        }
        let view = Self { sweep };
        if view.rows().count() != view.sweep.points.len() {
            return Err("every capacity point needs a live capacity report".into());
        }
        for (point, serving, capacity) in view.rows() {
            let label = point.session.axis_label();
            if capacity.admitted + capacity.shed != view.sweep.spec.requests {
                return Err(format!(
                    "cell ({label}): admitted {} + shed {} != generated {}",
                    capacity.admitted, capacity.shed, view.sweep.spec.requests
                ));
            }
            for (what, rate) in [
                ("violation rate", serving.slo_violation_rate()),
                ("shed rate", capacity.shed_rate()),
            ] {
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("cell ({label}): {what} {rate} outside [0, 1]"));
                }
            }
            if !(capacity.node_seconds.is_finite() && capacity.node_seconds > 0.0) {
                return Err(format!(
                    "cell ({label}): non-positive node-seconds {}",
                    capacity.node_seconds
                ));
            }
        }
        Ok(view)
    }

    /// Every grid point with its policy's serving and capacity reports, in
    /// grid order (scenario-major, then autoscaler, then admission).
    pub fn rows(&self) -> impl Iterator<Item = (&SweepPoint, &ServingReport, &CapacityReport)> {
        let policy = &self.sweep.spec.policies[0];
        self.sweep.points.iter().filter_map(move |point| {
            let serving = point.live_report()?.serving(policy)?;
            Some((point, serving, serving.capacity.as_ref()?))
        })
    }

    /// The serving and capacity reports of one (scenario, autoscaler,
    /// admission) cell.
    pub fn cell(
        &self,
        scenario: &str,
        autoscaler: &str,
        admission: &str,
    ) -> Option<(&ServingReport, &CapacityReport)> {
        self.rows()
            .find(|(point, _, _)| {
                point.session.scenario.as_deref() == Some(scenario)
                    && point.session.autoscaler.as_deref() == Some(autoscaler)
                    && point.session.admission.as_deref() == Some(admission)
            })
            .map(|(_, serving, capacity)| (serving, capacity))
    }
}

impl fmt::Display for CapacitySweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = &self.sweep.spec;
        let cluster = spec.cluster.clone().unwrap_or_default();
        writeln!(
            f,
            "# Capacity sweep: {} under `{}`, {} requests/cell @ {} rps on {}x{}mc ({:?})",
            spec.app.short_name(),
            spec.policies[0],
            spec.requests,
            spec.loads_rps[0],
            cluster.nodes,
            cluster.node_capacity.get(),
            cluster.placement,
        )?;
        writeln!(
            f,
            "{:>14} {:>12} {:>11} {:>10} {:>8} {:>12} {:>11} {:>11}",
            "scenario",
            "autoscaler",
            "admission",
            "viol rate",
            "shed",
            "node-sec",
            "peak queue",
            "peak nodes"
        )?;
        for (point, serving, capacity) in self.rows() {
            writeln!(
                f,
                "{:>14} {:>12} {:>11} {:>9.1}% {:>7.1}% {:>12.1} {:>11} {:>11}",
                point.session.scenario.as_deref().unwrap_or("-"),
                point.session.autoscaler.as_deref().unwrap_or("-"),
                point.session.admission.as_deref().unwrap_or("-"),
                serving.slo_violation_rate() * 100.0,
                capacity.shed_rate() * 100.0,
                capacity.node_seconds,
                capacity.peak_inflight,
                capacity.peak_nodes
            )?;
        }
        Ok(())
    }
}

/// `capacity` as a registered [`Experiment`]: the committed IA scenario ×
/// autoscaler × admission grid at the configured scale.
pub struct CapacitySweepExperiment;

impl Experiment for CapacitySweepExperiment {
    fn name(&self) -> &str {
        "capacity"
    }

    fn describe(&self) -> &str {
        "Capacity sweep: every arrival scenario under every capacity regime"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        let mut spec = ctx.sweep_spec(PAPER_SPEC, QUICK_SPEC)?;
        spec.observers = ctx.observer_name().map(|name| vec![name.to_string()]);
        let result = CapacitySweepResult::new(run_sweep(&spec)?)?;
        // Cells all serve the same policy, so cell traces are qualified with
        // their grid coordinates before they share one artefact.
        ctx.append_sweep_traces(&result.sweep, |point| {
            [&point.scenario, &point.autoscaler, &point.admission]
                .map(|axis| axis.as_deref().unwrap_or("-"))
                .join("/")
        })?;
        Ok(ExperimentOutput::single(result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SweepSpec;
    use std::str::FromStr as _;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            scenarios: vec!["flash-crowd".into()],
            requests: 90,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..SweepSpec::from_str(QUICK_SPEC).unwrap()
        }
    }

    fn capacity_sweep(spec: &SweepSpec) -> Result<CapacitySweepResult, String> {
        CapacitySweepResult::new(run_sweep(spec)?)
    }

    #[test]
    fn autoscaling_beats_the_static_fleet_under_the_flash_crowd() {
        // The acceptance criterion of elastic capacity: at equal offered
        // load, the utilization-threshold autoscaler demonstrably reduces
        // the SLO violation rate versus the static cluster, and requests are
        // conserved in every cell.
        let spec = tiny_spec();
        let result = capacity_sweep(&spec).unwrap();
        assert_eq!(result.rows().count(), 4);
        let (static_serving, static_cell) =
            result.cell("flash-crowd", "static", "admit-all").unwrap();
        let (scaled_serving, scaled) = result
            .cell("flash-crowd", "utilization", "admit-all")
            .unwrap();
        let static_rate = static_serving.slo_violation_rate();
        let scaled_rate = scaled_serving.slo_violation_rate();
        assert!(
            scaled_rate < static_rate,
            "autoscaled violation rate {scaled_rate} must beat static {static_rate}"
        );
        assert!(scaled.scale_ups > 0, "the spike must trigger scale-ups");
        assert!(scaled.peak_nodes > spec.cluster.as_ref().unwrap().nodes);
        // Both regimes bill real capacity. (No ordering assertion: the
        // static fleet *collapses* under the spike — its run stretches over
        // a longer simulated span, so two slow nodes can out-bill a larger
        // fleet that finishes quickly.)
        assert!(scaled.node_seconds > 0.0 && static_cell.node_seconds > 0.0);
        // Shedding sheds under overload, and never on the admit-all column.
        assert_eq!(static_cell.shed, 0);
        let (_, shed_cell) = result.cell("flash-crowd", "static", "queue-shed").unwrap();
        assert!(
            shed_cell.shed > 0,
            "queue-shed must shed during the static-fleet spike"
        );
        for (point, _, capacity) in result.rows() {
            assert_eq!(capacity.admitted + capacity.shed, spec.requests);
            assert!(point.wall_ms > 0.0);
        }
        let shown = format!("{result}");
        assert!(shown.contains("viol rate"));
        assert!(shown.contains("flash-crowd"));
    }

    #[test]
    fn traced_capacity_runs_fill_the_sink_with_qualified_cells() {
        use crate::experiments::api::{Scale, TraceSink};
        use janus_observe::TraceReport;

        let sink = TraceSink::new();
        assert!(sink.is_empty());
        let ctx = ExperimentCtx::new(Scale::Quick)
            .with_seed(Some(7))
            .with_trace(sink.clone());
        assert_eq!(ctx.observer_name(), Some("flight-recorder"));
        CapacitySweepExperiment.run(&ctx).unwrap();
        let trace = sink.take();
        assert!(sink.is_empty(), "take drains the sink");
        let report = TraceReport::from_jsonl(&trace).unwrap();
        // One qualified label per grid cell: 2 scenarios x 2 x 2 at --quick.
        assert_eq!(report.policies.len(), 8);
        let labels: Vec<&str> = report.policies.iter().map(|p| p.policy.as_str()).collect();
        assert!(
            labels.contains(&"GrandSLAM@flash-crowd/static/admit-all"),
            "{labels:?}"
        );
        for policy in &report.policies {
            assert!(
                policy.spans.arrivals > 0,
                "{}: empty cell trace",
                policy.policy
            );
            assert!(
                !policy.time_series.points.is_empty(),
                "{}: no telemetry ticks",
                policy.policy
            );
        }
        // Same seed, same sink contents, byte for byte.
        let again = TraceSink::new();
        CapacitySweepExperiment
            .run(&ctx.clone().with_trace(again.clone()))
            .unwrap();
        assert_eq!(again.take(), trace);
    }

    #[test]
    fn capacity_sweep_is_deterministic_and_rejects_bad_grids() {
        let spec = SweepSpec {
            scenarios: vec!["poisson".into()],
            autoscalers: Some(vec!["queue-depth".into()]),
            admissions: Some(vec!["token-bucket".into()]),
            requests: 50,
            ..tiny_spec()
        };
        let a = capacity_sweep(&spec).unwrap();
        let b = capacity_sweep(&spec).unwrap();
        let serving = |r: &CapacitySweepResult| r.rows().next().unwrap().1.clone();
        assert_eq!(serving(&a), serving(&b));
        assert_eq!(
            serving(&a).capacity.unwrap().events,
            serving(&b).capacity.unwrap().events
        );
        let err = capacity_sweep(&SweepSpec {
            scenarios: vec![],
            ..spec.clone()
        })
        .unwrap_err();
        assert!(err.contains("`scenarios`: axis must not be empty"), "{err}");
        let err = capacity_sweep(&SweepSpec {
            autoscalers: Some(vec![]),
            ..spec.clone()
        })
        .unwrap_err();
        assert!(
            err.contains("`autoscalers`: axis must not be empty"),
            "{err}"
        );
        let err = capacity_sweep(&SweepSpec {
            autoscalers: Some(vec!["hypergrowth".into()]),
            ..spec.clone()
        })
        .unwrap_err();
        assert!(err.contains("unknown autoscaler"), "{err}");
        // The view needs one policy, and capacity control at every point.
        let err = capacity_sweep(&SweepSpec {
            policies: vec!["GrandSLAM".into(), "Janus".into()],
            ..spec.clone()
        })
        .unwrap_err();
        assert!(err.contains("exactly one policy"), "{err}");
        let err = capacity_sweep(&SweepSpec {
            autoscalers: None,
            admissions: None,
            ..spec
        })
        .unwrap_err();
        assert!(err.contains("live capacity report"), "{err}");
    }
}
