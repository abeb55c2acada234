//! `paper_sweep`: offline work plus the sweep driver and store writes.
//!
//! A round runs `run_sweep_stored` on a cold `ResultsStore` in a fresh
//! directory: one `SweepSpec` for IA and one for VA, every cell serving all
//! seven registered policies at paper synthesis settings.
//!
//! The sweep builds its sessions from the built-in registries, so a traced
//! round cannot wrap anything inside `run_sweep_stored`. It drives the
//! same cells itself instead, through the same public calls the sweep driver
//! makes per cell (store lookup, `SessionSpec::builder`, `run_in`,
//! `PolicyCell::from_report`, store save), with the policy registry
//! swapped for timing wrappers. Its cells must equal the untraced sweep's.

use crate::steady::{BUDGET_STEP_MS, SAMPLES_PER_POINT};
use crate::trace::{timed_registry, Acc, Sink};
use crate::{Modelled, Round, Size, Workload};
use janus_core::experiments::spec::SweepSpec;
use janus_core::experiments::sweep::{
    run_sweep_stored, PolicyCell, StoreMode, SweepPoint, SweepResult, RESULTS_EPOCH,
};
use janus_core::experiments::ToJson;
use janus_core::PolicyRegistry;
use janus_json::Value;
use janus_platform::metrics::ServingMetrics;
use janus_platform::openloop::OpenLoopArena;
use janus_results::ResultsStore;
use janus_simcore::metrics::MetricsRegistry;
use janus_workloads::apps::PaperApp;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Scratch space for stores, inside the working directory.
const WORK_DIR: &str = ".bench_work";

fn spec(app: PaperApp, seed: u64, size: Size) -> SweepSpec {
    let (scenarios, loads, seeds, requests) = match size {
        Size::Full => (
            vec!["poisson".to_string(), "bursty".to_string()],
            vec![0.5, 1.0],
            vec![seed, seed.wrapping_add(1)],
            300,
        ),
        Size::Tiny => (vec!["poisson".to_string()], vec![0.5], vec![seed], 30),
    };
    SweepSpec {
        name: format!("bench-{}", app.short_name()),
        app,
        concurrency: 1,
        policies: PolicyRegistry::with_builtins()
            .names()
            .into_iter()
            .map(String::from)
            .collect(),
        scenarios,
        loads_rps: loads,
        seeds,
        autoscalers: None,
        admissions: None,
        faults: None,
        observers: None,
        cluster: None,
        tenants: None,
        requests,
        samples_per_point: SAMPLES_PER_POINT,
        budget_step_ms: BUDGET_STEP_MS,
    }
}

fn cell_json(policies: &[PolicyCell]) -> Value {
    Value::Obj(vec![(
        "policies".to_string(),
        Value::Arr(policies.iter().map(PolicyCell::to_json).collect()),
    )])
}

/// Total size in bytes of the files in `dir`, and their count.
fn dir_usage(dir: &Path) -> Result<(u64, u64), String> {
    let mut bytes = 0;
    let mut files = 0;
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).map_err(|e| format!("{}: {e}", d.display()))? {
            let entry = entry.map_err(|e| e.to_string())?;
            let meta = entry.metadata().map_err(|e| e.to_string())?;
            if meta.is_dir() {
                stack.push(entry.path());
            } else {
                bytes += meta.len();
                files += 1;
            }
        }
    }
    Ok((bytes, files))
}

pub struct PaperSweep {
    specs: [SweepSpec; 2],
    root: PathBuf,
    rounds: u64,
    /// Per-cell wall times the untraced sweeps reported, in ms.
    cell_ms: Vec<f64>,
    /// Published figures of the first round, one entry per cell, that every
    /// later round (traced or not) must reproduce.
    reference: Option<Vec<Vec<PolicyCell>>>,
}

impl PaperSweep {
    /// Set-up validates both specs, then runs one warm-up cell without a
    /// store so code and allocator are warm before timing.
    pub fn set_up(seed: u64, size: Size, _acc: Option<&mut Acc>) -> Result<Self, String> {
        let specs = [
            spec(PaperApp::IntelligentAssistant, seed, size),
            spec(PaperApp::VideoAnalyze, seed, size),
        ];
        let root = PathBuf::from(WORK_DIR).join(format!("paper_sweep-{}", std::process::id()));
        if root.exists() {
            std::fs::remove_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        }
        std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
        for spec in &specs {
            spec.validate()?;
        }
        let mut warm = specs[0].clone();
        warm.scenarios.truncate(1);
        warm.loads_rps.truncate(1);
        warm.seeds.truncate(1);
        janus_core::experiments::sweep::run_sweep(&warm)?;
        Ok(PaperSweep {
            specs,
            root,
            rounds: 0,
            cell_ms: Vec::new(),
            reference: None,
        })
    }

    fn fresh_store(&mut self) -> Result<(ResultsStore, PathBuf), String> {
        self.rounds += 1;
        let dir = self.root.join(format!("round-{}", self.rounds));
        Ok((ResultsStore::open(&dir)?, dir))
    }

    /// Modelled figures over all cells: Janus attainment (cells carry equal
    /// request counts, so the mean of cells is the pooled figure) and Janus
    /// CPU over ORION CPU.
    fn modelled(cells: &[Vec<PolicyCell>]) -> Result<Modelled, String> {
        let (mut attain, mut janus_cpu, mut orion_cpu, mut n) = (0.0, 0.0, 0.0, 0usize);
        for policies in cells {
            let find = |name: &str| {
                policies
                    .iter()
                    .find(|c| c.name == name)
                    .ok_or_else(|| format!("cell has no `{name}` column"))
            };
            let janus = find("Janus")?;
            attain += janus.slo_attainment;
            janus_cpu += janus.mean_cpu_millicores;
            orion_cpu += find("ORION")?.mean_cpu_millicores;
            n += 1;
        }
        Ok(Modelled {
            slo_attainment: attain / n.max(1) as f64,
            janus_cpu_ratio: janus_cpu / orion_cpu,
        })
    }

    /// Output checks of one completed sweep.
    fn check(spec: &SweepSpec, result: &SweepResult) -> Result<(), String> {
        result.validate()?;
        if result.cache_hits != 0 {
            return Err(format!("cold sweep replayed {} cells", result.cache_hits));
        }
        for point in &result.points {
            let report = point
                .live_report()
                .ok_or_else(|| format!("point {} did not run live", point.index))?;
            report.validate()?;
            for cell in &point.policies {
                let tally = cell.served + cell.shed + cell.failed;
                if tally != spec.requests as u64 {
                    return Err(format!(
                        "point {} `{}`: served + shed + failed = {tally}, generated {}",
                        point.index, cell.name, spec.requests
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks shared by both kinds of round, then the round's figures. The
    /// store directory is removed afterwards.
    fn finish_round(
        &mut self,
        results: &[SweepResult],
        dir: &Path,
        serve_s: f64,
        acc: Option<&mut Acc>,
    ) -> Result<Round, String> {
        for (spec, result) in self.specs.iter().zip(results) {
            Self::check(spec, result)?;
        }
        let cells: Vec<Vec<PolicyCell>> = results
            .iter()
            .flat_map(|r| r.points.iter().map(|p| p.policies.clone()))
            .collect();
        let (bytes, files) = dir_usage(dir)?;
        if files != cells.len() as u64 {
            return Err(format!(
                "store holds {files} files for {} cells",
                cells.len()
            ));
        }
        match &self.reference {
            None => self.reference = Some(cells.clone()),
            Some(reference) if *reference != cells => {
                return Err("cells differ from the first round's".into());
            }
            Some(_) => {}
        }
        let handled: u64 = cells
            .iter()
            .flatten()
            .map(|c| c.served + c.shed + c.failed)
            .sum();
        if let Some(acc) = acc {
            for c in cells.iter().flatten() {
                acc.add("platform.served", c.served as f64);
                acc.add("platform.shed", c.shed as f64);
                acc.add("platform.failed", c.failed as f64);
            }
            acc.add("results.save_bytes", bytes as f64);
        }
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Round {
            attempted: cells.len() as u64,
            failed: 0,
            serve_s,
            handled,
            cells: cells.len() as u64,
            modelled: Some(Self::modelled(&cells)?),
        })
    }

    fn untraced_round(&mut self) -> Result<Round, String> {
        let (store, dir) = self.fresh_store()?;
        let started = Instant::now();
        let mut results = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            results.push(run_sweep_stored(
                spec,
                Some((&store, StoreMode::Reuse)),
                &|_| {},
            )?);
        }
        // Encoding the sweep document is part of the job `janus sweep
        // --out` does.
        let encoded: usize = results.iter().map(|r| r.to_json().to_compact().len()).sum();
        let serve_s = started.elapsed().as_secs_f64();
        if encoded == 0 {
            return Err("empty sweep document".into());
        }
        self.cell_ms.extend(
            results
                .iter()
                .flat_map(|r| r.points.iter().map(|p| p.wall_ms)),
        );
        self.finish_round(&results, &dir, serve_s, None)
    }

    /// Drive every cell through the per-cell public calls, timing each.
    fn traced_round(&mut self, acc: &mut Acc) -> Result<Round, String> {
        let (store, dir) = self.fresh_store()?;
        let sink: Sink = Arc::new(Mutex::new(Acc::default()));
        let (registry, window) = timed_registry(&sink);
        let metrics_registry = MetricsRegistry::new();
        let metrics = ServingMetrics::intern(&metrics_registry);
        let mut arena = OpenLoopArena::new();
        let started = Instant::now();
        let mut results = Vec::with_capacity(self.specs.len());
        for spec in &self.specs {
            let expanded = acc.span("sweep.driver_self_s", || {
                spec.validate().map(|()| spec.expand())
            })?;
            let mut points = Vec::with_capacity(expanded.len());
            for (index, session_spec) in expanded.into_iter().enumerate() {
                let key = acc.span("json.encode_s", || session_spec.to_json());
                if acc
                    .span("results.load_s", || store.load(&key, RESULTS_EPOCH))?
                    .is_some()
                {
                    return Err(format!("cold store already holds cell {index}"));
                }
                let cell_started = Instant::now();
                let session = acc.span("sweep.driver_self_s", || {
                    session_spec.builder().registry(registry.clone()).build()
                })?;
                *window.lock().map_err(|_| "trace window poisoned")? = Some(Instant::now());
                let report = session.run_in(&mut arena, &metrics_registry, &metrics)?;
                let policies: Vec<PolicyCell> = acc.span("sweep.driver_self_s", || {
                    report
                        .policies
                        .iter()
                        .map(PolicyCell::from_report)
                        .collect()
                });
                let wall_ms = cell_started.elapsed().as_secs_f64() * 1000.0;
                let doc = acc.span("json.encode_s", || cell_json(&policies));
                acc.span("results.save_s", || {
                    store.save(&key, RESULTS_EPOCH, wall_ms, &doc)
                })?;
                acc.add("results.save_calls", 1.0);
                points.push(SweepPoint {
                    index,
                    session: session_spec,
                    policies,
                    report: Some(report),
                    wall_ms,
                    cached: false,
                });
            }
            let result = SweepResult {
                spec: spec.clone(),
                total_wall_ms: points.iter().map(|p| p.wall_ms).sum(),
                points,
                cache_hits: 0,
            };
            acc.span("sweep.driver_self_s", || result.validate())?;
            let encoded = acc.span("json.encode_s", || result.to_json().to_compact());
            if encoded.is_empty() {
                return Err("empty sweep document".into());
            }
            results.push(result);
        }
        let serve_s = started.elapsed().as_secs_f64();
        acc.merge(&*sink.lock().map_err(|_| "trace sink poisoned")?);
        self.finish_round(&results, &dir, serve_s, Some(acc))
    }
}

impl Workload for PaperSweep {
    fn round(&mut self, acc: Option<&mut Acc>) -> Result<Round, String> {
        match acc {
            None => self.untraced_round(),
            Some(acc) => self.traced_round(acc),
        }
    }

    fn finish_trace(&mut self, acc: &mut Acc) {
        acc.cell_ms.append(&mut self.cell_ms);
    }
}

impl Drop for PaperSweep {
    fn drop(&mut self) {
        // Best effort: a leftover scratch directory is harmless.
        let _ = std::fs::remove_dir_all(&self.root);
        if let Ok(mut entries) = std::fs::read_dir(WORK_DIR) {
            if entries.next().is_none() {
                let _ = std::fs::remove_dir(WORK_DIR);
            }
        }
    }
}
