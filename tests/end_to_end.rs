//! Cross-crate integration test: the full bilateral pipeline.
//!
//! Profiles the paper's workflows (janus-workloads + janus-profiler),
//! synthesizes hints (janus-synthesizer), deploys the adapter
//! (janus-adapter), serves requests on the platform (janus-platform) and
//! checks the headline evaluation claims against the baselines
//! (janus-baselines).

use janus_core::deployment::{DeploymentConfig, JanusDeployment, JanusVariant};
use janus_core::platform::openloop::{OpenLoopArena, OpenLoopConfig, OpenLoopSimulation};
use janus_core::platform::outcome::ServingReport;
use janus_core::platform::policy::SizingPolicy;
use janus_core::registry::PolicyRegistry;
use janus_core::session::{Load, ServingSession, ServingSessionBuilder};
use janus_core::workloads::apps::PaperApp;
use janus_core::workloads::request::{ClosedLoopSource, RequestInput, RequestInputGenerator};
use janus_core::workloads::workflow::Workflow;
use janus_simcore::time::SimDuration;

/// A quick-scale paired comparison of `app` at `concurrency`, under the
/// app's paper SLO.
fn quick(app: PaperApp, concurrency: u32) -> ServingSessionBuilder {
    ServingSession::builder()
        .app(app)
        .concurrency(concurrency)
        .load(Load::Closed { requests: 200 })
        .samples_per_point(300)
        .budget_step_ms(5.0)
}

/// Serve `requests` as the paper's closed loop under the default serving
/// configuration for `slo`.
fn closed_loop(
    workflow: &Workflow,
    slo: SimDuration,
    policy: &mut dyn SizingPolicy,
    requests: &[RequestInput],
) -> ServingReport {
    OpenLoopSimulation::new(workflow.clone(), OpenLoopConfig::new(slo))
        .run_from_source(
            policy,
            &mut ClosedLoopSource::new(requests),
            &mut OpenLoopArena::new(),
            None,
            None,
            None,
        )
        .unwrap()
}

#[test]
fn table1_headline_holds_for_ia() {
    let all = PolicyRegistry::with_builtins();
    let report = quick(PaperApp::IntelligentAssistant, 1)
        .policies(all.names())
        .run()
        .unwrap();
    let cpu = |name: &str| report.mean_cpu_millicores(name).unwrap();

    // Who wins: Optimal <= Janus+ <= Janus <= Janus- and Janus < every early binder.
    assert!(cpu("Optimal") <= cpu("Janus"));
    assert!(cpu("Janus+") <= cpu("Janus") + 50.0);
    assert!(cpu("Janus") <= cpu("Janus-") + 1e-9);
    assert!(cpu("Janus") < cpu("ORION"));
    assert!(cpu("ORION") < cpu("GrandSLAM+"));
    assert!(cpu("GrandSLAM+") <= cpu("GrandSLAM"));

    // Everyone keeps the P99-style SLO guarantee (small violation rates).
    assert_eq!(report.names(), all.names());
    for name in all.names() {
        let rate = report.serving(name).unwrap().slo_violation_rate();
        assert!(rate <= 0.03, "{name} violation rate {rate}");
    }

    // The Table I reductions are positive for every early-binding baseline.
    for other in ["ORION", "GrandSLAM+", "GrandSLAM"] {
        let reduction = report.reduction_percent("Janus", other, "Optimal").unwrap();
        assert!(reduction > 0.0, "reduction vs {other} was {reduction}");
    }
}

#[test]
fn table1_headline_holds_for_va() {
    let report = quick(PaperApp::VideoAnalyze, 1)
        .policies(PolicyRegistry::with_builtins().names())
        .run()
        .unwrap();
    let cpu = |name: &str| report.mean_cpu_millicores(name).unwrap();
    assert!(cpu("Janus") < cpu("ORION"));
    assert!(cpu("ORION") < cpu("GrandSLAM"));
    assert!(report.serving("Janus").unwrap().slo_violation_rate() <= 0.03);
    assert!(
        report
            .reduction_percent("Janus", "GrandSLAM+", "Optimal")
            .unwrap()
            > 0.0
    );
}

#[test]
fn higher_concurrency_magnifies_early_binding_overprovisioning() {
    // §V-B: at concurrency 2–3 the early binders over-allocate even more
    // relative to Optimal, while Janus tracks the variance at runtime.
    let policies = ["Optimal", "GrandSLAM", "Janus"];
    let conc1 = quick(PaperApp::IntelligentAssistant, 1)
        .policies(policies)
        .run()
        .unwrap();
    let conc2 = quick(PaperApp::IntelligentAssistant, 2)
        .policies(policies)
        .run()
        .unwrap();
    let janus_norm_1 = conc1.normalized_cpu("Janus", "Optimal").unwrap();
    let janus_norm_2 = conc2.normalized_cpu("Janus", "Optimal").unwrap();
    let gs_norm_2 = conc2.normalized_cpu("GrandSLAM", "Optimal").unwrap();
    assert!(
        gs_norm_2 > janus_norm_2,
        "GrandSLAM {gs_norm_2} vs Janus {janus_norm_2}"
    );
    assert!(
        janus_norm_1 < 1.6 && janus_norm_2 < 1.6,
        "Janus stays near Optimal"
    );
    assert!(
        conc2.serving("Janus").unwrap().slo_violation_rate() <= 0.03,
        "Janus keeps the 4s SLO at concurrency 2"
    );
}

#[test]
fn janus_variants_differ_only_in_percentile_exploration() {
    let app = PaperApp::IntelligentAssistant;
    let base = DeploymentConfig {
        samples_per_point: 300,
        budget_step_ms: 5.0,
        ..DeploymentConfig::paper_default(app, 1)
    };
    let standard = JanusDeployment::build(&base).unwrap();
    let minus = JanusDeployment::from_profile(
        &DeploymentConfig {
            variant: JanusVariant::Minus,
            ..base.clone()
        },
        standard.workflow().clone(),
        standard.profile().clone(),
    )
    .unwrap();

    // Janus- plans every row at the tail percentile; Janus uses lower ones too.
    let minus_all_tail = minus
        .bundle()
        .tables
        .iter()
        .flat_map(|t| t.rows())
        .all(|r| r.head_percentile.value() >= 99.0);
    assert!(minus_all_tail);
    let standard_explores = standard
        .bundle()
        .tables
        .iter()
        .flat_map(|t| t.rows())
        .any(|r| r.head_percentile.value() < 99.0);
    assert!(standard_explores);

    // Serving with either variant keeps the SLO; Janus is at least as cheap.
    let workflow = standard.workflow().clone();
    let slo = app.default_slo(1);
    let requests = RequestInputGenerator::new(5, SimDuration::ZERO).generate(&workflow, 200);
    let standard_report = closed_loop(&workflow, slo, &mut standard.policy(), &requests);
    let minus_report = closed_loop(&workflow, slo, &mut minus.policy(), &requests);
    assert!(standard_report.mean_cpu_millicores() <= minus_report.mean_cpu_millicores() + 1e-9);
    assert!(standard_report.slo_violation_rate() <= 0.03);
    assert!(minus_report.slo_violation_rate() <= 0.03);
}

#[test]
fn adapter_decisions_stay_fast_at_serving_scale() {
    // §V-H: the online decision path must stay far below 3 ms even after
    // thousands of decisions.
    let deployment = JanusDeployment::build(&DeploymentConfig {
        samples_per_point: 300,
        budget_step_ms: 5.0,
        ..DeploymentConfig::paper_default(PaperApp::IntelligentAssistant, 1)
    })
    .unwrap();
    let workflow = deployment.workflow().clone();
    let requests = RequestInputGenerator::new(11, SimDuration::ZERO).generate(&workflow, 500);
    let mut policy = deployment.policy();
    closed_loop(
        &workflow,
        SimDuration::from_secs(3.0),
        &mut policy,
        &requests,
    );
    assert_eq!(
        policy.adapter().decisions(),
        1500,
        "3 decisions per request"
    );
    assert!(policy.adapter().mean_decision_time_us() < 3000.0);
    assert!(
        policy.adapter().hit_rate() > 0.97,
        "hit rate {}",
        policy.adapter().hit_rate()
    );
}
