//! Scenario sweep: every policy under every load shape.
//!
//! The paper evaluates its policies under a single load shape; the sweep
//! generalizes that into a (scenario × policy) grid. The grid is the
//! committed spec `specs/experiments/scenarios.json` (`scenarios.quick.json`
//! at `--quick`), served by [`run_sweep`]: each grid point is one paired,
//! invariant-checked [`ServingSession`](crate::session::ServingSession), so
//! all policies of a point replay the *same* request set under the same
//! arrival process. [`ScenarioSweepResult`] is the thin view that renders
//! the sweep as the scenario × policy tables.
//!
//! Because every built-in scenario is normalized to the sweep's base rate
//! (see `janus-scenarios`), differences across a row isolate the effect of
//! load *shape* — burstiness, spikes, trace dynamics — from offered load.

use crate::experiments::api::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiments::{run_sweep, PolicyCell, SweepPoint, SweepResult};
use crate::session::SessionReport;
use janus_simcore::stats::StreamingSummary;
use std::fmt;

const PAPER_SPEC: &str = include_str!("../../../../specs/experiments/scenarios.json");
const QUICK_SPEC: &str = include_str!("../../../../specs/experiments/scenarios.quick.json");

/// A scenario × policy sweep, viewed one row per scenario.
#[derive(Debug, Clone)]
pub struct ScenarioSweepResult {
    /// The sweep behind the view (one point per scenario).
    pub sweep: SweepResult,
}

impl ScenarioSweepResult {
    /// Wrap a finished sweep, checking what [`SweepResult::validate`] does
    /// not: every point ran live, every policy served every generated
    /// request, and every attainment is a fraction.
    pub fn new(sweep: SweepResult) -> Result<Self, String> {
        sweep.spec.validate()?;
        for point in &sweep.points {
            let label = point.session.axis_label();
            let report = point
                .live_report()
                .ok_or_else(|| format!("point ({label}) has no live report"))?;
            for policy in &report.policies {
                if policy.serving.len() != sweep.spec.requests {
                    return Err(format!(
                        "point ({label}) / policy `{}`: served {} of {} requests",
                        policy.name,
                        policy.serving.len(),
                        sweep.spec.requests
                    ));
                }
                if !(0.0..=1.0).contains(&policy.slo_attainment()) {
                    return Err(format!(
                        "point ({label}) / policy `{}`: SLO attainment {} outside [0, 1]",
                        policy.name,
                        policy.slo_attainment()
                    ));
                }
            }
        }
        Ok(Self { sweep })
    }

    /// The session of one scenario.
    pub fn cell(&self, scenario: &str) -> Option<&SessionReport> {
        self.sweep
            .points
            .iter()
            .find(|p| p.session.scenario.as_deref() == Some(scenario))
            .and_then(SweepPoint::live_report)
    }

    /// Pooled end-to-end latency statistics of one policy across **every**
    /// scenario of the sweep, folded through [`StreamingSummary::merge`] —
    /// the whole-sweep tail without re-buffering or re-sorting the combined
    /// per-request sample set. `None` if the policy ran in no cell.
    pub fn pooled_e2e_streaming(&self, policy: &str) -> Option<StreamingSummary> {
        let mut pooled = StreamingSummary::new();
        for report in self.sweep.points.iter().filter_map(SweepPoint::live_report) {
            if let Some(serving) = report.serving(policy) {
                pooled.merge(&serving.e2e_streaming());
            }
        }
        (!pooled.is_empty()).then_some(pooled)
    }
}

impl fmt::Display for ScenarioSweepResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = &self.sweep.spec;
        writeln!(
            f,
            "# Scenario sweep: {} @ concurrency {} ({} requests per cell, base {} rps)",
            spec.app.short_name(),
            spec.concurrency,
            spec.requests,
            spec.loads_rps[0]
        )?;
        let table = |f: &mut fmt::Formatter<'_>,
                     title: &str,
                     value: &dyn Fn(&PolicyCell) -> String|
         -> fmt::Result {
            writeln!(f, "## {title}")?;
            write!(f, "{:>14}", "scenario")?;
            for policy in &spec.policies {
                write!(f, " {policy:>12}")?;
            }
            writeln!(f)?;
            for point in &self.sweep.points {
                let scenario = point.session.scenario.as_deref().unwrap_or("-");
                write!(f, "{scenario:>14}")?;
                for cell in &point.policies {
                    write!(f, " {}", value(cell))?;
                }
                writeln!(f)?;
            }
            Ok(())
        };
        table(f, "SLO attainment (%)", &|c| {
            format!("{:>11.1}%", c.slo_attainment * 100.0)
        })?;
        table(f, "Mean CPU per request (millicores)", &|c| {
            format!("{:>12.1}", c.mean_cpu_millicores)
        })?;
        writeln!(
            f,
            "## Pooled E2E latency across all scenarios (ms, streaming)"
        )?;
        writeln!(
            f,
            "{:>14} {:>9} {:>10} {:>10} {:>10}",
            "policy", "samples", "mean", "~P50", "~P99"
        )?;
        for policy in &spec.policies {
            match self.pooled_e2e_streaming(policy).and_then(|s| s.summary()) {
                Some(s) => writeln!(
                    f,
                    "{:>14} {:>9} {:>10.1} {:>10.1} {:>10.1}",
                    policy, s.count, s.mean, s.p50, s.p99
                )?,
                None => writeln!(f, "{policy:>14} {:>9}", "-")?,
            }
        }
        Ok(())
    }
}

/// `scenarios` as a registered [`Experiment`]: the committed IA scenario ×
/// policy sweep at the configured scale.
pub struct ScenarioSweepExperiment;

impl Experiment for ScenarioSweepExperiment {
    fn name(&self) -> &str {
        "scenarios"
    }

    fn describe(&self) -> &str {
        "Scenario sweep: every policy under every built-in load shape"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        let spec = ctx.sweep_spec(PAPER_SPEC, QUICK_SPEC)?;
        Ok(ExperimentOutput::single(ScenarioSweepResult::new(
            run_sweep(&spec)?,
        )?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::SweepSpec;
    use std::str::FromStr as _;

    fn tiny_spec(scenarios: &[&str], policies: &[&str], requests: usize) -> SweepSpec {
        SweepSpec {
            name: "tiny".into(),
            scenarios: scenarios.iter().map(|s| s.to_string()).collect(),
            policies: policies.iter().map(|p| p.to_string()).collect(),
            loads_rps: vec![2.0],
            requests,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..SweepSpec::from_str(QUICK_SPEC).unwrap()
        }
    }

    fn sweep(spec: &SweepSpec) -> Result<ScenarioSweepResult, String> {
        ScenarioSweepResult::new(run_sweep(spec)?)
    }

    #[test]
    fn sweep_covers_the_grid_with_paired_invariant_checked_cells() {
        let spec = tiny_spec(
            &["poisson", "flash-crowd", "bursty"],
            &["GrandSLAM", "Janus"],
            40,
        );
        let result = sweep(&spec).unwrap();
        assert_eq!(result.sweep.points.len(), 3);
        for scenario in ["poisson", "flash-crowd", "bursty"] {
            let cell = result.cell(scenario).unwrap();
            for policy in ["GrandSLAM", "Janus"] {
                let attainment = cell.slo_attainment(policy).unwrap();
                assert!((0.0..=1.0).contains(&attainment), "{scenario}/{policy}");
                assert!(cell.mean_cpu_millicores(policy).unwrap() > 0.0);
            }
            assert_eq!(cell.scenario.as_deref(), Some(scenario));
        }
        // Shape matters: at least one scenario serves differently from the
        // constant-rate baseline.
        let p = result.cell("poisson").unwrap().serving("Janus").unwrap();
        let b = result.cell("bursty").unwrap().serving("Janus").unwrap();
        assert_ne!(p, b);
        let shown = format!("{result}");
        assert!(shown.contains("SLO attainment"));
        assert!(shown.contains("Pooled E2E latency"));
        // The pooled streaming view folds every cell of the row without
        // re-buffering: 3 scenarios × 40 requests, mean equal to the exact
        // pooled mean.
        let pooled = result.pooled_e2e_streaming("Janus").unwrap();
        assert_eq!(pooled.count(), 3 * 40);
        let exact_mean: f64 = result
            .sweep
            .points
            .iter()
            .map(|p| p.live_report().unwrap().serving("Janus").unwrap())
            .map(|s| s.e2e_summary().unwrap())
            .map(|s| s.mean * s.count as f64)
            .sum::<f64>()
            / pooled.count() as f64;
        assert!((pooled.mean() - exact_mean).abs() < 1e-9);
        assert!(result.pooled_e2e_streaming("ORION").is_none());
    }

    #[test]
    fn sweep_is_deterministic_and_rejects_bad_grids() {
        let spec = tiny_spec(&["diurnal"], &["GrandSLAM"], 25);
        let a = sweep(&spec).unwrap();
        let b = sweep(&spec).unwrap();
        assert_eq!(
            a.cell("diurnal").unwrap().serving("GrandSLAM"),
            b.cell("diurnal").unwrap().serving("GrandSLAM")
        );
        let err = sweep(&SweepSpec {
            scenarios: vec![],
            ..spec.clone()
        })
        .unwrap_err();
        assert!(err.contains("`scenarios`: axis must not be empty"), "{err}");
        let err = sweep(&tiny_spec(&["tsunami"], &["GrandSLAM"], 25)).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
        // A replayed point carries no per-request outcomes to pool.
        let mut replayed = a.sweep.clone();
        replayed.points[0].report = None;
        let err = ScenarioSweepResult::new(replayed).unwrap_err();
        assert!(
            err.contains("diurnal x 2 rps x seed 7) has no live report"),
            "{err}"
        );
    }
}
