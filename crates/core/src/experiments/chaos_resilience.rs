//! Chaos resilience: which capacity regime degrades most gracefully when a
//! zone dies mid flash-crowd.
//!
//! The capacity sweep asks what elasticity buys under load *shape*; this
//! experiment asks what it buys under *failure*. The grid is the committed
//! spec `specs/experiments/chaos_resilience.json`
//! (`chaos_resilience.quick.json` at `--quick`), served by [`run_sweep`]:
//! every (autoscaler × admission) point serves the same flash-crowd request
//! set on a multi-zone spread fleet while the `zone-outage` injector kills a
//! whole zone partway through the spike — the worst correlated failure the
//! topology admits. Both sizing policies run paired inside each point, so
//! the grid separates three effects that a single run confounds: what the
//! sizing policy contributes, what the autoscaler recovers, and what
//! admission control protects.
//!
//! [`ChaosResilienceResult`] is the thin ranking view: each row reports the
//! graceful-degradation quantities — SLO attainment over what was served,
//! shed and failed counts, fault-triggered retries, node-seconds billed and
//! nodes lost. Conservation (`served + shed + failed == generated`) is
//! validated in every row, and the whole grid is bit-reproducible in the
//! seed — the fault schedule is part of the replayed experiment, not
//! ambient randomness.

use crate::experiments::api::{Experiment, ExperimentCtx, ExperimentOutput};
use crate::experiments::{run_sweep, SweepResult};
use janus_platform::outcome::{CapacityReport, ServingReport};
use std::fmt;

const PAPER_SPEC: &str = include_str!("../../../../specs/experiments/chaos_resilience.json");
const QUICK_SPEC: &str = include_str!("../../../../specs/experiments/chaos_resilience.quick.json");

/// One row of the grid: one sizing policy at one (autoscaler, admission)
/// point, with the fault applied.
#[derive(Debug, Clone, Copy)]
pub struct ChaosRow<'a> {
    /// Sizing-policy name of this row.
    pub policy: &'a str,
    /// The policy's serving report at this point.
    pub serving: &'a ServingReport,
    /// The policy's capacity report (autoscaler, admission, fault tallies).
    pub capacity: &'a CapacityReport,
}

impl ChaosRow<'_> {
    /// SLO attainment over served requests, in `[0, 1]`.
    pub fn slo_attainment(&self) -> f64 {
        1.0 - self.serving.slo_violation_rate()
    }
}

/// A chaos grid, viewed one row per (autoscaler, admission, policy).
#[derive(Debug, Clone)]
pub struct ChaosResilienceResult {
    /// The sweep behind the view (every point under a fault injector).
    pub sweep: SweepResult,
}

impl ChaosResilienceResult {
    /// Wrap a finished sweep, checking what [`SweepResult::validate`] does
    /// not: every point ran live under capacity control, and in every row
    /// requests are conserved, attainment is a fraction, the fault killed
    /// nodes and node-seconds were billed.
    pub fn new(sweep: SweepResult) -> Result<Self, String> {
        sweep.spec.validate()?;
        let view = Self { sweep };
        let expected = view.sweep.points.len() * view.sweep.spec.policies.len();
        if view.rows().count() != expected {
            return Err("every chaos point needs a live capacity report per policy".into());
        }
        for row in view.rows() {
            let label = format!(
                "cell ({}, {}, {})",
                row.capacity.autoscaler, row.capacity.admission, row.policy
            );
            let served = row.serving.served_len();
            let (shed, failed) = (row.capacity.shed, row.capacity.failed);
            if served + shed + failed != view.sweep.spec.requests {
                return Err(format!(
                    "{label}: served {served} + shed {shed} + failed {failed} != generated {}",
                    view.sweep.spec.requests
                ));
            }
            if !(0.0..=1.0).contains(&row.slo_attainment()) {
                return Err(format!(
                    "{label}: SLO attainment {} outside [0, 1]",
                    row.slo_attainment()
                ));
            }
            if row.capacity.nodes_lost == 0 {
                return Err(format!("{label}: the fault killed no nodes"));
            }
            if !(row.capacity.node_seconds.is_finite() && row.capacity.node_seconds > 0.0) {
                return Err(format!(
                    "{label}: non-positive node-seconds {}",
                    row.capacity.node_seconds
                ));
            }
        }
        Ok(view)
    }

    /// Every row, autoscaler-major, then admission, then policy.
    pub fn rows(&self) -> impl Iterator<Item = ChaosRow<'_>> {
        let policies = &self.sweep.spec.policies;
        self.sweep.points.iter().flat_map(move |point| {
            policies.iter().filter_map(move |policy| {
                let serving = point.live_report()?.serving(policy)?;
                Some(ChaosRow {
                    policy,
                    serving,
                    capacity: serving.capacity.as_ref()?,
                })
            })
        })
    }

    /// Rows ranked most-graceful first: highest SLO attainment over what was
    /// served, fewest failed requests breaking ties.
    pub fn ranked(&self) -> Vec<ChaosRow<'_>> {
        let mut rows: Vec<ChaosRow<'_>> = self.rows().collect();
        rows.sort_by(|a, b| {
            b.slo_attainment()
                .total_cmp(&a.slo_attainment())
                .then(a.capacity.failed.cmp(&b.capacity.failed))
        });
        rows
    }

    /// The fault injector of the grid (`-` for a fault-free spec).
    pub(crate) fn fault(&self) -> &str {
        self.sweep
            .spec
            .faults
            .iter()
            .flatten()
            .next()
            .map_or("-", String::as_str)
    }
}

impl fmt::Display for ChaosResilienceResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = &self.sweep.spec;
        let cluster = spec.cluster.clone().unwrap_or_default();
        writeln!(
            f,
            "# Chaos resilience: {} under `{}` during `{}`, {} requests/cell @ {} rps on \
             {}x{}mc in {} zones",
            spec.app.short_name(),
            self.fault(),
            spec.scenarios[0],
            spec.requests,
            spec.loads_rps[0],
            cluster.nodes,
            cluster.node_capacity.get(),
            cluster.zones,
        )?;
        writeln!(
            f,
            "{:>12} {:>11} {:>12} {:>9} {:>7} {:>7} {:>7} {:>8} {:>6} {:>12}",
            "autoscaler",
            "admission",
            "policy",
            "attain %",
            "served",
            "shed",
            "failed",
            "retried",
            "lost",
            "node-sec"
        )?;
        for row in self.rows() {
            writeln!(
                f,
                "{:>12} {:>11} {:>12} {:>8.1}% {:>7} {:>7} {:>7} {:>8} {:>6} {:>12.1}",
                row.capacity.autoscaler,
                row.capacity.admission,
                row.policy,
                row.slo_attainment() * 100.0,
                row.serving.served_len(),
                row.capacity.shed,
                row.capacity.failed,
                row.capacity.retried,
                row.capacity.nodes_lost,
                row.capacity.node_seconds,
            )?;
        }
        if let Some(best) = self.ranked().first() {
            writeln!(
                f,
                "most graceful: {} x {} under {} ({:.1}% attainment, {} failed)",
                best.capacity.autoscaler,
                best.capacity.admission,
                best.policy,
                best.slo_attainment() * 100.0,
                best.capacity.failed,
            )?;
        }
        Ok(())
    }
}

/// `chaos_resilience` as a registered [`Experiment`]: the committed IA
/// flash-crowd zone-outage grid at the configured scale.
pub struct ChaosResilienceExperiment;

impl Experiment for ChaosResilienceExperiment {
    fn name(&self) -> &str {
        "chaos_resilience"
    }

    fn describe(&self) -> &str {
        "Chaos resilience: capacity regimes under a mid-flash-crowd zone outage"
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentOutput, String> {
        let mut spec = ctx.sweep_spec(PAPER_SPEC, QUICK_SPEC)?;
        spec.observers = ctx.observer_name().map(|name| vec![name.to_string()]);
        let result = ChaosResilienceResult::new(run_sweep(&spec)?)?;
        // Both policies of one point share its qualifier.
        ctx.append_sweep_traces(&result.sweep, |point| {
            [&point.autoscaler, &point.admission]
                .map(|axis| axis.as_deref().unwrap_or("-"))
                .join("/")
        })?;
        Ok(ExperimentOutput::single(result))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::api::Scale;
    use crate::experiments::{SweepSpec, ToJson};
    use std::str::FromStr as _;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            requests: 60,
            samples_per_point: 250,
            budget_step_ms: 10.0,
            ..SweepSpec::from_str(QUICK_SPEC).unwrap()
        }
    }

    fn chaos_resilience(spec: &SweepSpec) -> Result<ChaosResilienceResult, String> {
        ChaosResilienceResult::new(run_sweep(spec)?)
    }

    #[test]
    fn the_grid_survives_a_zone_outage_and_accounts_for_every_request() {
        let spec = tiny_spec();
        let result = chaos_resilience(&spec).unwrap();
        assert_eq!(
            result.rows().count(),
            8,
            "2 autoscalers x 2 admissions x 2 policies"
        );
        for row in result.rows() {
            assert_eq!(
                row.serving.served_len() + row.capacity.shed + row.capacity.failed,
                spec.requests
            );
            if row.capacity.autoscaler == "static" {
                // With a fixed fleet the 4 nodes stay 2 per zone, so the
                // outage kills exactly the dying zone's pair; elastic cells
                // may have reshaped the zone by outage time.
                assert_eq!(
                    row.capacity.nodes_lost, 2,
                    "static cells lose exactly one zone"
                );
            }
        }
        // The ranking orders by attainment; the display names the winner.
        let ranked = result.ranked();
        assert!(ranked
            .windows(2)
            .all(|w| w[0].slo_attainment() >= w[1].slo_attainment()));
        let shown = format!("{result}");
        assert!(shown.contains("most graceful:"), "{shown}");
        assert!(shown.contains("zone-outage"), "{shown}");
        // Machine view carries the full accounting per row.
        let doc = janus_json::parse(&result.to_json().to_pretty()).unwrap();
        assert_eq!(
            doc.require("experiment").unwrap().as_str(),
            Some("chaos_resilience")
        );
        assert_eq!(doc.require("cells").unwrap().as_array().unwrap().len(), 8);
    }

    #[test]
    fn traced_chaos_runs_carry_the_fault_deliveries() {
        use crate::experiments::api::TraceSink;
        use janus_observe::TraceReport;

        let sink = TraceSink::new();
        let ctx = ExperimentCtx::new(Scale::Quick)
            .with_seed(Some(7))
            .with_observer(Some("trace".into()))
            .with_trace(sink.clone());
        assert_eq!(ctx.observer_name(), Some("trace"));
        ChaosResilienceExperiment.run(&ctx).unwrap();
        let trace = sink.take();
        assert!(
            trace.contains("\"type\":\"fault\"") && trace.contains("zone-outage"),
            "fault deliveries must appear in the trace"
        );
        let report = TraceReport::from_jsonl(&trace).unwrap();
        // 2 policies x 4 (autoscaler, admission) cells, each qualified.
        assert_eq!(report.policies.len(), 8);
        assert!(report
            .policies
            .iter()
            .any(|p| p.policy == "GrandSLAM@static/admit-all"));
    }

    #[test]
    fn chaos_grids_are_deterministic_and_reject_bad_configs() {
        let spec = SweepSpec {
            autoscalers: Some(vec!["utilization".into()]),
            admissions: Some(vec!["admit-all".into()]),
            policies: vec!["GrandSLAM".into()],
            ..tiny_spec()
        };
        let a = chaos_resilience(&spec).unwrap();
        let b = chaos_resilience(&spec).unwrap();
        let serving = |r: &ChaosResilienceResult| r.rows().next().unwrap().serving.clone();
        assert_eq!(serving(&a), serving(&b));
        let err = chaos_resilience(&SweepSpec {
            policies: vec![],
            ..spec.clone()
        })
        .unwrap_err();
        assert!(err.contains("`policies`: axis must not be empty"), "{err}");
        let err = chaos_resilience(&SweepSpec {
            faults: Some(vec!["meteor-strike".into()]),
            ..spec.clone()
        })
        .unwrap_err();
        assert!(err.contains("unknown fault injector"), "{err}");
        // Without a fault nothing dies, and the view says so.
        let err = chaos_resilience(&SweepSpec {
            faults: None,
            ..spec
        })
        .unwrap_err();
        assert!(err.contains("the fault killed no nodes"), "{err}");
    }
}
