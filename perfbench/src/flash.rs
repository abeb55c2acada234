//! `flash_overload`: overload with lazy arrivals, capacity, chaos and
//! observation.
//!
//! Four `flash-crowd` tenant streams at 5 rps each are merged through
//! `MergedRequestSource` into `OpenLoopSimulation::run_streaming` on four
//! 8-core nodes in two zones with spread placement, under the
//! `utilization` autoscaler, `queue-shed` admission and a `zone-outage`
//! fault schedule, with the `flight-recorder` observer attached and a fixed
//! 2000 mc policy. A round is one streaming run.
//!
//! The fixed policy has no Janus, so `janus_cpu_ratio` comes from a
//! separate modelled pass made once before the timed phase: Janus and
//! ORION each serve the first requests of the same merged streams under the
//! same capacity control and faults, without the observer.

use crate::steady::{build_baselines, instantiate, profile_and_synthesize};
use crate::trace::{span, Acc, TimedAdmission, TimedAutoscaler, TimedObserver, TimedSource};
use crate::{Modelled, Round, Size, Workload};
use janus_chaos::{FaultContext, FaultRegistry, FaultSchedule};
use janus_core::experiments::flash_scale::{FlashScaleConfig, FlashScaleResult};
use janus_core::{Load, PolicyReport, SessionReport};
use janus_observe::{Observer, ObserverContext, ObserverRegistry};
use janus_platform::capacity::{
    AdmissionPolicy, AdmissionRegistry, AutoscalerPolicy, AutoscalerRegistry, CapacityContext,
};
use janus_platform::openloop::{
    CapacityControls, OpenLoopArena, OpenLoopConfig, OpenLoopSimulation,
};
use janus_platform::outcome::{CapacityReport, RequestDisposition, RequestOutcome, ServingReport};
use janus_platform::policy::{FixedSizingPolicy, SizingPolicy};
use janus_scenarios::{tenant_stream_seed, MergedRequestSource, ScenarioContext, ScenarioRegistry};
use janus_simcore::cluster::{ClusterConfig, PlacementPolicy};
use janus_simcore::metrics::MetricsRegistry;
use janus_simcore::resources::Millicores;
use janus_simcore::time::SimDuration;
use janus_synthesizer::hints::HintsBundle;
use janus_workloads::apps::PaperApp;
use janus_workloads::request::{RequestInputGenerator, RequestSource};
use std::time::Instant;

const APP: PaperApp = PaperApp::IntelligentAssistant;
const STREAMS: usize = 4;
const RPS_PER_STREAM: f64 = 5.0;
const ALLOCATION_MC: u32 = 2000;
const SCENARIO: &str = "flash-crowd";
const AUTOSCALER: &str = "utilization";
const ADMISSION: &str = "queue-shed";
const FAULT: &str = "zone-outage";
const OBSERVER: &str = "flight-recorder";

/// Requests of one streaming run, and of the Janus/ORION pass.
fn sizes(size: Size) -> (usize, usize) {
    match size {
        Size::Full => (100_000, 20_000),
        Size::Tiny => (2_000, 500),
    }
}

fn cluster() -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        node_capacity: Millicores::from_cores(8),
        placement: PlacementPolicy::Spread,
        zones: 2,
    }
}

/// Fresh capacity-control policies for one run.
type Controls = (Box<dyn AutoscalerPolicy>, Box<dyn AdmissionPolicy>);

/// What one streaming run produced.
struct Stream {
    serve_s: f64,
    served: usize,
    shed: usize,
    failed: usize,
    slo_met: usize,
    capacity: CapacityReport,
}

pub struct FlashOverload {
    seed: u64,
    requests: usize,
    pass_requests: usize,
    sim: OpenLoopSimulation,
    slo: SimDuration,
    schedule: FaultSchedule,
    arena: OpenLoopArena,
    bundle: HintsBundle,
    orion: FixedSizingPolicy,
    cpu_ratio: Option<f64>,
}

impl FlashOverload {
    pub fn set_up(seed: u64, size: Size, acc: Option<&mut Acc>) -> Result<Self, String> {
        let mut acc = acc;
        let (requests, pass_requests) = sizes(size);
        let slo = APP.default_slo(1);
        let (profile, bundle) = profile_and_synthesize(APP, seed, &mut acc)?;
        let (orion, _) = build_baselines(&profile, slo, &mut acc)?;
        let schedule = span(&mut acc, "chaos.schedule_s", || {
            fault_schedule(seed, requests, slo)
        })?;
        let config = OpenLoopConfig {
            cluster: cluster(),
            ..OpenLoopConfig::new(slo)
        };
        Ok(FlashOverload {
            seed,
            requests,
            pass_requests,
            sim: OpenLoopSimulation::new(APP.workflow(), config),
            slo,
            schedule,
            arena: OpenLoopArena::new(),
            bundle,
            orion,
            cpu_ratio: None,
        })
    }

    /// The merged tenant streams of a run of `requests` arrivals.
    fn source(&self, requests: usize) -> Result<MergedRequestSource, String> {
        let registry = ScenarioRegistry::with_builtins();
        let mut generators = Vec::with_capacity(STREAMS);
        for stream in 0..STREAMS {
            let seed = tenant_stream_seed(self.seed, stream as u64);
            let ctx = ScenarioContext {
                base_rps: RPS_PER_STREAM,
                requests,
                seed,
            };
            let process = registry.build(SCENARIO, &ctx)?;
            generators.push(RequestInputGenerator::with_sampler(seed, process.sampler()));
        }
        MergedRequestSource::new(generators, requests)
    }

    fn capacity(&self, requests: usize) -> Result<Controls, String> {
        let ctx = CapacityContext {
            base_rps: RPS_PER_STREAM * STREAMS as f64,
            requests,
            initial_nodes: cluster().nodes,
            slo: self.slo,
        };
        Ok((
            AutoscalerRegistry::with_builtins().build(AUTOSCALER, &ctx)?,
            AdmissionRegistry::with_builtins().build(ADMISSION, &ctx)?,
        ))
    }

    /// One streaming run of the fixed policy, folding outcomes into tallies.
    fn serve(
        &mut self,
        source: &mut dyn RequestSource,
        autoscaler: &mut dyn AutoscalerPolicy,
        admission: &mut dyn AdmissionPolicy,
        observer: &mut dyn Observer,
    ) -> Result<Stream, String> {
        let mut policy =
            FixedSizingPolicy::uniform("fixed", &APP.workflow(), Millicores::new(ALLOCATION_MC))?;
        let (mut served, mut shed, mut failed, mut slo_met) = (0, 0, 0, 0);
        let started = Instant::now();
        let capacity = self.sim.run_streaming(
            &mut policy,
            source,
            &mut self.arena,
            None,
            Some(CapacityControls {
                autoscaler,
                admission,
                faults: Some(self.schedule.clone()),
            }),
            Some(observer),
            &mut |outcome: RequestOutcome| match outcome.disposition {
                RequestDisposition::Served => {
                    served += 1;
                    slo_met += usize::from(outcome.slo_met);
                }
                RequestDisposition::Shed => shed += 1,
                RequestDisposition::Failed => failed += 1,
            },
        )?;
        let serve_s = started.elapsed().as_secs_f64();
        Ok(Stream {
            serve_s,
            served,
            shed,
            failed,
            slo_met,
            capacity: capacity.ok_or("streaming run returned no capacity report")?,
        })
    }

    /// The Janus/ORION pass behind `janus_cpu_ratio`.
    fn cpu_ratio_pass(&mut self) -> Result<f64, String> {
        let requests = self.pass_requests;
        let schedule = fault_schedule(self.seed, requests, self.slo)?;
        let mut reports = Vec::new();
        for name in ["Janus", "ORION"] {
            let mut policy: Box<dyn SizingPolicy> =
                instantiate(name, &self.bundle, &self.orion, &self.orion);
            let mut source = self.source(requests)?;
            let (mut autoscaler, mut admission) = self.capacity(requests)?;
            let report = self.sim.run_from_source(
                policy.as_mut(),
                &mut source,
                &mut self.arena,
                None,
                Some(CapacityControls {
                    autoscaler: autoscaler.as_mut(),
                    admission: admission.as_mut(),
                    faults: Some(schedule.clone()),
                }),
                None,
            )?;
            if report.len() != requests {
                return Err(format!(
                    "{name}: accounted for {} of {requests}",
                    report.len()
                ));
            }
            reports.push(report);
        }
        let session = session_report(self.seed, self.slo, requests, reports);
        session.validate()?;
        let (janus, orion) = (&session.policies[0].serving, &session.policies[1].serving);
        Ok(janus.mean_cpu_millicores() / orion.mean_cpu_millicores())
    }
}

fn fault_schedule(seed: u64, requests: usize, slo: SimDuration) -> Result<FaultSchedule, String> {
    FaultRegistry::with_builtins().build(
        FAULT,
        &FaultContext {
            seed,
            initial_nodes: cluster().nodes,
            zones: cluster().zones,
            base_rps: RPS_PER_STREAM * STREAMS as f64,
            requests,
            slo,
        },
    )
}

fn session_report(
    seed: u64,
    slo: SimDuration,
    requests: usize,
    reports: Vec<ServingReport>,
) -> SessionReport {
    SessionReport {
        workflow: APP.workflow().name().to_string(),
        slo,
        concurrency: 1,
        load: Load::Open {
            requests,
            rps: RPS_PER_STREAM * STREAMS as f64,
        },
        scenario: Some(SCENARIO.to_string()),
        tenants: None,
        autoscaler: Some(AUTOSCALER.to_string()),
        admission: Some(ADMISSION.to_string()),
        fault: Some(FAULT.to_string()),
        observer: None,
        seed,
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
        metrics: MetricsRegistry::new().snapshot(),
    }
}

impl Workload for FlashOverload {
    fn prepare(&mut self) -> Result<(), String> {
        self.cpu_ratio = Some(self.cpu_ratio_pass()?);
        Ok(())
    }

    fn round(&mut self, acc: Option<&mut Acc>) -> Result<Round, String> {
        let mut acc = acc;
        let mut source = span(&mut acc, "arrivals.generate_s", || {
            self.source(self.requests)
        })?;
        let (mut autoscaler, mut admission) = self.capacity(self.requests)?;
        let mut observer = ObserverRegistry::with_builtins().build(
            OBSERVER,
            &ObserverContext {
                seed: self.seed,
                policy: "fixed".to_string(),
                requests: self.requests,
                zones: cluster().zones,
                slo: self.slo,
            },
        )?;
        let (stream, flight) = match acc.as_deref_mut() {
            None => {
                let stream = self.serve(
                    &mut source,
                    autoscaler.as_mut(),
                    admission.as_mut(),
                    observer.as_mut(),
                )?;
                (stream, observer.finish())
            }
            Some(acc) => {
                let mut source = TimedSource::new(source);
                let mut autoscaler = TimedAutoscaler::new(autoscaler);
                let mut admission = TimedAdmission::new(admission);
                let mut observer = TimedObserver::new(observer);
                let stream =
                    self.serve(&mut source, &mut autoscaler, &mut admission, &mut observer)?;
                let flight = acc.span("observe.finish_s", || observer.finish());
                source.flush(acc);
                autoscaler.flush(acc);
                admission.flush(acc);
                observer.flush(acc);
                acc.add("platform.serve_s", stream.serve_s);
                acc.add("observe.records_kept", flight.records_kept as f64);
                (stream, flight)
            }
        };

        // Output checks: every arrival accounted for, the bounded-memory
        // invariant, and the flash-scale result's own validation.
        let generated = stream.capacity.generated;
        if generated != self.requests {
            return Err(format!("drew {generated} of {} requests", self.requests));
        }
        if stream.shed != stream.capacity.shed || stream.failed != stream.capacity.failed {
            return Err(format!(
                "outcomes ({} shed, {} failed) disagree with the capacity report ({}, {})",
                stream.shed, stream.failed, stream.capacity.shed, stream.capacity.failed
            ));
        }
        if flight.records_seen == 0 || flight.records_kept > flight.records_seen {
            return Err(format!(
                "flight recorder kept {} of {} records",
                flight.records_kept, flight.records_seen
            ));
        }
        let events = self.arena.events_processed();
        let result = FlashScaleResult {
            config: FlashScaleConfig {
                app: APP,
                scenario: SCENARIO.to_string(),
                streams: STREAMS,
                requests: self.requests,
                rps_per_stream: RPS_PER_STREAM,
                allocation_mc: ALLOCATION_MC,
                autoscaler: AUTOSCALER.to_string(),
                admission: ADMISSION.to_string(),
                seed: self.seed,
            },
            generated,
            served: stream.served,
            shed: stream.shed,
            failed: stream.failed,
            slo_met: stream.slo_met,
            mean_served_e2e_ms: 0.0,
            peak_resident_arrivals: self.arena.peak_resident_arrivals(),
            peak_queue_depth: self.arena.peak_queue_depth(),
            peak_inflight: stream.capacity.peak_inflight,
            peak_nodes: stream.capacity.peak_nodes,
            events,
            wall_ms: stream.serve_s * 1000.0,
            events_per_sec: events as f64 / stream.serve_s,
            arrivals_per_sec: generated as f64 / stream.serve_s,
        };
        result.validate()?;
        if let Some(acc) = acc {
            acc.add("platform.events", events as f64);
            acc.max(
                "platform.peak_queue_depth",
                self.arena.peak_queue_depth() as f64,
            );
            acc.max(
                "platform.peak_resident_arrivals",
                self.arena.peak_resident_arrivals() as f64,
            );
            acc.add("platform.served", stream.served as f64);
            acc.add("platform.shed", stream.shed as f64);
            acc.add("platform.failed", stream.failed as f64);
        }
        let cpu_ratio = self.cpu_ratio.ok_or("the Janus/ORION pass has not run")?;
        Ok(Round {
            attempted: 1,
            failed: 0,
            serve_s: stream.serve_s,
            handled: generated as u64,
            cells: 1,
            modelled: Some(Modelled {
                slo_attainment: stream.slo_met as f64 / generated as f64,
                janus_cpu_ratio: cpu_ratio,
            }),
        })
    }
}
