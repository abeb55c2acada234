//! End-to-end serving throughput per sizing policy (the machinery behind
//! Table I / Figures 4, 5 and 9).

use criterion::{criterion_group, criterion_main, Criterion};
use janus_baselines::early::{grandslam, orion, OrionConfig};
use janus_core::deployment::{DeploymentConfig, JanusDeployment};
use janus_platform::openloop::{OpenLoopArena, OpenLoopConfig, OpenLoopSimulation};
use janus_platform::outcome::ServingReport;
use janus_platform::policy::SizingPolicy;
use janus_profiler::profiler::{Profiler, ProfilerConfig};
use janus_simcore::time::SimDuration;
use janus_workloads::apps::PaperApp;
use janus_workloads::request::{ClosedLoopSource, RequestInput, RequestInputGenerator};
use std::hint::black_box;

/// Serve `requests` as the paper's closed loop.
fn serve(
    sim: &OpenLoopSimulation,
    policy: &mut dyn SizingPolicy,
    requests: &[RequestInput],
) -> ServingReport {
    sim.run_from_source(
        policy,
        &mut ClosedLoopSource::new(requests),
        &mut OpenLoopArena::new(),
        None,
        None,
        None,
    )
    .expect("the closed loop serves every request")
}

fn serving_policies(c: &mut Criterion) {
    let app = PaperApp::IntelligentAssistant;
    let workflow = app.workflow();
    let slo = app.default_slo(1);
    let profiler = Profiler::new(ProfilerConfig {
        samples_per_point: 400,
        ..ProfilerConfig::default()
    })
    .expect("valid profiler config");
    let profile = profiler.profile_workflow(&workflow, 1);
    let requests = RequestInputGenerator::new(7, SimDuration::ZERO).generate(&workflow, 200);
    let sim = OpenLoopSimulation::new(workflow.clone(), OpenLoopConfig::new(slo));
    let deployment = JanusDeployment::from_profile(
        &DeploymentConfig {
            samples_per_point: 400,
            budget_step_ms: 2.0,
            ..DeploymentConfig::paper_default(app, 1)
        },
        workflow.clone(),
        profile.clone(),
    )
    .expect("deployment builds");

    let mut group = c.benchmark_group("serve_200_requests");
    group.sample_size(10);
    group.bench_function("grandslam", |b| {
        b.iter(|| {
            let mut policy = grandslam(&profile, slo).expect("grandslam builds");
            black_box(serve(&sim, &mut policy, &requests))
        })
    });
    group.bench_function("orion", |b| {
        b.iter(|| {
            let mut policy = orion(&profile, slo, &OrionConfig::default()).expect("orion builds");
            black_box(serve(&sim, &mut policy, &requests))
        })
    });
    group.bench_function("janus", |b| {
        b.iter(|| {
            let mut policy = deployment.policy();
            let report = serve(&sim, &mut policy, &requests);
            assert!(policy.is_late_binding());
            black_box(report)
        })
    });
    group.finish();
}

criterion_group!(benches, serving_policies);
criterion_main!(benches);
