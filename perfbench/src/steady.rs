//! `steady_paired`: the default serving path below saturation.
//!
//! IA on the paper's single 52-core node, a Poisson open loop at 0.5 rps.
//! Set-up profiles the workflow and builds Janus, ORION and GrandSLAM at
//! paper settings (1200 samples per point, 1 ms budget step) and generates
//! one shared request set. A round serves that set once under each policy
//! through `OpenLoopSimulation::run_traced`, with capacity control and
//! observers off.

use crate::trace::{span, Acc, PolicyLayer, Sink, TimedPolicy};
use crate::{Modelled, Round, Size, Workload};
use janus_adapter::adapter::{Adapter, AdapterConfig};
use janus_baselines::early::{grandslam, orion, OrionConfig};
use janus_core::{JanusPolicy, Load, PolicyReport, ServingSession, SessionReport};
use janus_platform::metrics::ServingMetrics;
use janus_platform::openloop::{OpenLoopArena, OpenLoopConfig, OpenLoopSimulation};
use janus_platform::outcome::{RequestDisposition, ServingReport};
use janus_platform::policy::{FixedSizingPolicy, SizingPolicy};
use janus_profiler::profiler::{Profiler, ProfilerConfig};
use janus_simcore::metrics::MetricsRegistry;
use janus_simcore::time::SimDuration;
use janus_synthesizer::hints::HintsBundle;
use janus_synthesizer::synthesizer::{ExplorationDepth, Synthesizer, SynthesizerConfig};
use janus_workloads::apps::PaperApp;
use janus_workloads::request::{PoissonGaps, RequestInput, RequestInputGenerator};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const APP: PaperApp = PaperApp::IntelligentAssistant;
const RPS: f64 = 0.5;
/// Paper profiling and synthesis settings.
pub const SAMPLES_PER_POINT: usize = 1200;
pub const BUDGET_STEP_MS: f64 = 1.0;
/// The policies of a round, in serving order.
const POLICIES: [&str; 3] = ["Janus", "ORION", "GrandSLAM"];

fn requests(size: Size) -> usize {
    match size {
        Size::Full => 20_000,
        Size::Tiny => 200,
    }
}

/// Profile `app` and synthesize its Janus hints at paper settings, the way
/// a serving session seeded with `seed` does.
pub fn profile_and_synthesize(
    app: PaperApp,
    seed: u64,
    acc: &mut Option<&mut Acc>,
) -> Result<(janus_profiler::profile::WorkflowProfile, HintsBundle), String> {
    let profiler = Profiler::new(ProfilerConfig {
        samples_per_point: SAMPLES_PER_POINT,
        seed: seed ^ 0x5EED,
        ..ProfilerConfig::default()
    })?;
    let workflow = app.workflow();
    let profile = span(acc, "profiler.profile_s", || {
        profiler.profile_workflow(&workflow, 1)
    });
    let synthesizer = Synthesizer::new(SynthesizerConfig {
        exploration: ExplorationDepth::HeadOnly,
        budget_step_ms: BUDGET_STEP_MS,
        ..SynthesizerConfig::default()
    })?;
    let (bundle, report) = span(acc, "synthesizer.synthesize_s", || {
        synthesizer.synthesize(&profile)
    });
    if let Some(acc) = acc {
        acc.add("profiler.calls", 1.0);
        acc.add("synthesizer.calls", 1.0);
        acc.add("synthesizer.hints", report.condensed_hints as f64);
    }
    Ok((profile, bundle))
}

/// The early-binding baselines of a paired run: ORION and GrandSLAM.
pub fn build_baselines(
    profile: &janus_profiler::profile::WorkflowProfile,
    slo: SimDuration,
    acc: &mut Option<&mut Acc>,
) -> Result<(FixedSizingPolicy, FixedSizingPolicy), String> {
    let orion = span(acc, "baselines.build_s", || {
        orion(profile, slo, &OrionConfig::default())
    })?;
    let grandslam = span(acc, "baselines.build_s", || grandslam(profile, slo))?;
    Ok((orion, grandslam))
}

/// A fresh instance of the named paired-run policy.
pub fn instantiate(
    name: &str,
    bundle: &HintsBundle,
    orion: &FixedSizingPolicy,
    grandslam: &FixedSizingPolicy,
) -> Box<dyn SizingPolicy> {
    match name {
        "Janus" => Box::new(JanusPolicy::new(
            "Janus",
            Adapter::new(bundle.clone(), AdapterConfig::default()),
        )),
        "ORION" => Box::new(orion.clone()),
        _ => Box::new(grandslam.clone()),
    }
}

/// Requests of `report` that met the SLO over requests offered.
pub fn attainment_of_offered(report: &ServingReport) -> f64 {
    let met = report
        .outcomes
        .iter()
        .filter(|o| o.disposition == RequestDisposition::Served && o.slo_met)
        .count();
    met as f64 / report.outcomes.len().max(1) as f64
}

pub struct SteadyPaired {
    seed: u64,
    size: Size,
    bundle: HintsBundle,
    orion: FixedSizingPolicy,
    grandslam: FixedSizingPolicy,
    requests: Vec<RequestInput>,
    sim: OpenLoopSimulation,
    arena: OpenLoopArena,
    metrics_registry: MetricsRegistry,
    metrics: ServingMetrics,
    /// The reports of the last round, for the final check.
    last: Vec<ServingReport>,
}

impl SteadyPaired {
    pub fn set_up(seed: u64, size: Size, acc: Option<&mut Acc>) -> Result<Self, String> {
        let mut acc = acc;
        let slo = APP.default_slo(1);
        let (profile, bundle) = profile_and_synthesize(APP, seed, &mut acc)?;
        let (orion, grandslam) = build_baselines(&profile, slo, &mut acc)?;
        let workflow = APP.workflow();
        let requests = span(&mut acc, "arrivals.generate_s", || {
            RequestInputGenerator::with_sampler(
                seed,
                Box::new(PoissonGaps::new(SimDuration::from_millis(1000.0 / RPS))),
            )
            .generate(&workflow, requests(size))
        });
        let metrics_registry = MetricsRegistry::new();
        let metrics = ServingMetrics::intern(&metrics_registry);
        Ok(SteadyPaired {
            seed,
            size,
            bundle,
            orion,
            grandslam,
            requests,
            sim: OpenLoopSimulation::new(workflow, OpenLoopConfig::new(slo)),
            arena: OpenLoopArena::new(),
            metrics_registry,
            metrics,
            last: Vec::new(),
        })
    }

    /// The paired reports as a session report, so the facade's own
    /// validation applies to them.
    fn session_report(&self, reports: Vec<ServingReport>) -> SessionReport {
        SessionReport {
            workflow: APP.workflow().name().to_string(),
            slo: APP.default_slo(1),
            concurrency: 1,
            load: Load::Open {
                requests: self.requests.len(),
                rps: RPS,
            },
            scenario: None,
            tenants: None,
            autoscaler: None,
            admission: None,
            fault: None,
            observer: None,
            seed: self.seed,
            policies: reports
                .into_iter()
                .map(|serving| PolicyReport {
                    name: serving.policy.clone(),
                    mean_decision_time_us: None,
                    serving,
                    synthesis: None,
                    flight: None,
                })
                .collect(),
            metrics: self.metrics_registry.snapshot(),
        }
    }
}

impl Workload for SteadyPaired {
    fn round(&mut self, acc: Option<&mut Acc>) -> Result<Round, String> {
        let sink: Option<Sink> = acc.as_ref().map(|_| Arc::new(Mutex::new(Acc::default())));
        let mut local = Acc::default();
        let mut serve_s = 0.0;
        let mut reports = Vec::with_capacity(POLICIES.len());
        self.metrics_registry.reset();
        for name in POLICIES {
            let mut policy = instantiate(name, &self.bundle, &self.orion, &self.grandslam);
            if let Some(sink) = &sink {
                policy = Box::new(TimedPolicy::new(
                    policy,
                    PolicyLayer::of(name),
                    Arc::clone(sink),
                ));
            }
            let started = Instant::now();
            let report = self.sim.run_traced(
                policy.as_mut(),
                &self.requests,
                &mut self.arena,
                Some(&self.metrics),
                None,
                None,
            );
            let secs = started.elapsed().as_secs_f64();
            // Flush the wrapper's sums before reading the sink.
            drop(policy);
            let report = report.map_err(|e| format!("{name}: {e}"))?;
            serve_s += secs;
            local.add("platform.serve_s", secs);
            local.add("platform.events", self.arena.events_processed() as f64);
            local.max(
                "platform.peak_queue_depth",
                self.arena.peak_queue_depth() as f64,
            );
            local.max(
                "platform.peak_resident_arrivals",
                self.arena.peak_resident_arrivals() as f64,
            );
            local.add("platform.served", report.served_len() as f64);
            local.add("platform.shed", report.shed_len() as f64);
            local.add("platform.failed", report.failed_len() as f64);
            if name == "Janus" {
                local.add("adapter.misses", report.total_misses() as f64);
            }
            reports.push(report);
        }

        // Output checks: every arrival accounted for, and the facade's own
        // paired-session validation.
        let generated = self.requests.len();
        for report in &reports {
            let tally = report.served_len() + report.shed_len() + report.failed_len();
            if tally != generated {
                return Err(format!(
                    "{}: served + shed + failed = {tally}, generated {generated}",
                    report.policy
                ));
            }
        }
        let session = self.session_report(reports);
        session.validate()?;
        let janus = &session.policies[0].serving;
        let orion = &session.policies[1].serving;
        let modelled = Modelled {
            slo_attainment: attainment_of_offered(janus),
            janus_cpu_ratio: janus.mean_cpu_millicores() / orion.mean_cpu_millicores(),
        };
        if let Some(acc) = acc {
            let samples: u64 = session.metrics.series.iter().map(|(_, n)| n).sum();
            local.add("simcore.metric_samples", samples as f64);
            if let Some(sink) = sink {
                let wrapped = sink.lock().map_err(|_| "trace sink poisoned")?;
                local.merge(&wrapped);
            }
            acc.merge(&local);
        }
        self.last = session.policies.into_iter().map(|p| p.serving).collect();
        Ok(Round {
            attempted: POLICIES.len() as u64,
            failed: 0,
            serve_s,
            handled: (generated * POLICIES.len()) as u64,
            cells: 1,
            modelled: Some(modelled),
        })
    }

    /// Serve the same paired comparison through the `ServingSession`
    /// facade and require identical outcomes: the benchmark must drive the
    /// layers exactly as the program does.
    fn final_check(&mut self) -> Result<(), String> {
        let report = ServingSession::builder()
            .app(APP)
            .policies(POLICIES)
            .load(Load::Open {
                requests: requests(self.size),
                rps: RPS,
            })
            .seed(self.seed)
            .samples_per_point(SAMPLES_PER_POINT)
            .budget_step_ms(BUDGET_STEP_MS)
            .run()?;
        report.validate()?;
        for (mine, theirs) in self.last.iter().zip(&report.policies) {
            if mine.outcomes != theirs.serving.outcomes {
                return Err(format!(
                    "{}: outcomes differ from the ServingSession facade's",
                    theirs.name
                ));
            }
        }
        Ok(())
    }
}
