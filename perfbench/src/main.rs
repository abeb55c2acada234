//! The Janus benchmark: three simulated open-loop workloads, run on the
//! host as one batch job, measured end to end with tracing off and layer by
//! layer in a separate traced run.
//!
//! ```text
//! janus-perfbench --workload <steady_paired|paper_sweep|flash_overload>
//!                 --seed <n> --seconds <s> --trace <0|1> [--size tiny]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones; with `--trace 1` they are the per-layer ones, and a
//! per-layer table is printed above the JSON line. Any failed operation or
//! output check makes the process exit with code 1.

mod flash;
mod steady;
mod sweep;
mod trace;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Acc, INSIDE_SERVE, PER_LAYER};

/// Every end-to-end metric an untraced run prints, with its unit.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_requests_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("slo_attainment", "fraction"),
    ("janus_cpu_ratio", "ratio"),
];

/// Workload names, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["steady_paired", "paper_sweep", "flash_overload"];

/// Input size: the measured one, or a tiny one for the benchmark's own test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The modelled outcome of one round. Deterministic in the seed, so every
/// round of one run, traced or not, must reproduce it bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Modelled {
    /// Requests that met the SLO over requests offered (shed and failed
    /// count as misses).
    pub slo_attainment: f64,
    /// Janus mean CPU over ORION mean CPU on the same request set.
    pub janus_cpu_ratio: f64,
}

impl Modelled {
    fn same_bits(&self, other: &Modelled) -> bool {
        self.slo_attainment.to_bits() == other.slo_attainment.to_bits()
            && self.janus_cpu_ratio.to_bits() == other.janus_cpu_ratio.to_bits()
    }
}

/// What one round of the timed phase did.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// Operations the round attempted (policy runs, sweep cells, streaming
    /// runs) and how many of them failed.
    pub attempted: u64,
    pub failed: u64,
    /// Host seconds spent inside the serving calls (the whole sweep calls
    /// on `paper_sweep`).
    pub serve_s: f64,
    /// Simulated arrivals handled: served + shed + failed.
    pub handled: u64,
    /// Cells completed: paired three-policy runs, sweep cells or streaming
    /// runs.
    pub cells: u64,
    /// Modelled figures of the round; `None` when an operation failed.
    pub modelled: Option<Modelled>,
}

/// One workload, set up and ready to run rounds.
pub trait Workload {
    /// Untimed work after set-up and before the timed phase.
    fn prepare(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Run one round. With `acc`, the round is traced into it.
    fn round(&mut self, acc: Option<&mut Acc>) -> Result<Round, String>;

    /// Output checks that need the whole run (run once, untimed).
    fn final_check(&mut self) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer values only the workload knows how to derive, added to
    /// the traced accumulator after the last round.
    fn finish_trace(&mut self, _acc: &mut Acc) {}
}

fn set_up(
    name: &str,
    seed: u64,
    size: Size,
    acc: Option<&mut Acc>,
) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "steady_paired" => Box::new(steady::SteadyPaired::set_up(seed, size, acc)?),
        "paper_sweep" => Box::new(sweep::PaperSweep::set_up(seed, size, acc)?),
        "flash_overload" => Box::new(flash::FlashOverload::set_up(seed, size, acc)?),
        other => {
            return Err(format!(
                "unknown workload `{other}`; known: {}",
                WORKLOADS.join(", ")
            ))
        }
    })
}

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut size = Size::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds: {s} must be a non-negative number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace: expected 0 or 1, got `{value}`")),
                })
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(format!("--size: expected full or tiny, got `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        size,
    })
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Modelled figures of the run (from the first round).
    pub modelled: Option<Modelled>,
    /// Every failed operation or check, in order.
    pub errors: Vec<String>,
    /// The per-layer table of a traced run.
    pub table: Option<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    fn json_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN/inf; a non-finite figure is reported as null.
            let value = if value.is_finite() {
                format!("{value:?}")
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push_str("}}");
        out
    }
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Peak resident memory (VmHWM) of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kb / 1024.0)
}

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds every run makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// Collects rounds and checks each against the first round's modelled
/// figures.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    modelled: Option<Modelled>,
}

impl Tally {
    fn take(&mut self, label: &str, result: Result<Round, String>) -> Option<Round> {
        match result {
            Err(e) => {
                self.attempted += 1;
                self.failed += 1;
                self.errors.push(format!("{label}: {e}"));
                None
            }
            Ok(mut round) => {
                match (round.modelled, self.modelled) {
                    (Some(now), Some(first)) if !now.same_bits(&first) => {
                        round.failed = round.failed.max(1);
                        self.errors.push(format!(
                            "{label}: modelled figures {now:?} differ from the first round's {first:?}"
                        ));
                    }
                    (Some(now), None) => self.modelled = Some(now),
                    _ => {}
                }
                self.attempted += round.attempted;
                self.failed += round.failed;
                Some(round)
            }
        }
    }
}

/// Run one workload as the command line asks.
pub fn run(args: &Args) -> Report {
    let mut tally = Tally::default();
    let min_rounds = if args.size == Size::Tiny {
        1
    } else {
        MIN_ROUNDS
    };
    let mut metrics = Vec::new();
    let mut table = None;

    if !args.trace {
        let mut setups = Vec::new();
        let mut workload = None;
        for _ in 0..if args.size == Size::Tiny { 1 } else { SETUPS } {
            let started = Instant::now();
            match set_up(&args.workload, args.seed, args.size, None) {
                Ok(w) => {
                    setups.push(started.elapsed().as_secs_f64());
                    // Drop the previous set-up before keeping this one.
                    drop(workload.take());
                    workload = Some(w);
                }
                Err(e) => {
                    tally.errors.push(format!("set-up: {e}"));
                    break;
                }
            }
        }
        let Some(mut workload) = workload else {
            return failed_report(tally);
        };
        if let Err(e) = workload.prepare() {
            tally.errors.push(format!("prepare: {e}"));
            return failed_report(tally);
        }
        let mut rates = Vec::new();
        let mut cell_rates = Vec::new();
        let started = Instant::now();
        let mut rounds = 0;
        while rounds < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
            rounds += 1;
            let label = format!("round {rounds}");
            if let Some(round) = tally.take(&label, workload.round(None)) {
                rates.push(round.handled as f64 / round.serve_s);
                cell_rates.push(round.cells as f64 / round.serve_s);
            }
        }
        if let Err(e) = workload.final_check() {
            tally.errors.push(format!("final check: {e}"));
        }
        let modelled = tally.modelled.unwrap_or(Modelled {
            slo_attainment: f64::NAN,
            janus_cpu_ratio: f64::NAN,
        });
        let rss = peak_rss_mb().unwrap_or_else(|e| {
            tally.errors.push(e);
            f64::NAN
        });
        let values = [
            median(&setups),
            median(&rates),
            median(&cell_rates),
            rss,
            modelled.slo_attainment,
            modelled.janus_cpu_ratio,
        ];
        for (&(name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name, value, unit));
        }
    } else {
        let mut setup_acc = Acc::default();
        let mut workload = match set_up(&args.workload, args.seed, args.size, Some(&mut setup_acc))
        {
            Ok(w) => w,
            Err(e) => {
                tally.errors.push(format!("set-up: {e}"));
                return failed_report(tally);
            }
        };
        if let Err(e) = workload.prepare() {
            tally.errors.push(format!("prepare: {e}"));
            return failed_report(tally);
        }
        // Untraced and traced rounds alternate, so both sides see the same
        // machine conditions; the overhead is the difference of their sums.
        let mut timed = Acc::default();
        let mut traced_wall = 0.0;
        let mut untraced_wall = 0.0;
        let started = Instant::now();
        let mut rounds = 0;
        while rounds < min_rounds || started.elapsed().as_secs_f64() < args.seconds {
            rounds += 1;
            let t0 = Instant::now();
            let plain = workload.round(None);
            let plain_wall = t0.elapsed().as_secs_f64();
            tally.take(&format!("untraced round {rounds}"), plain);
            let mut acc = Acc::default();
            let t0 = Instant::now();
            let traced = workload.round(Some(&mut acc));
            let wall = t0.elapsed().as_secs_f64();
            if tally
                .take(&format!("traced round {rounds}"), traced)
                .is_some()
            {
                traced_wall += wall;
                untraced_wall += plain_wall;
                timed.merge(&acc);
                timed.add("trace.rounds", 1.0);
            }
        }
        if let Err(e) = workload.final_check() {
            tally.errors.push(format!("final check: {e}"));
        }
        workload.finish_trace(&mut timed);
        let covered = timed.covered_s();
        let serve = timed.get("platform.serve_s");
        let inside: f64 = INSIDE_SERVE.iter().map(|n| timed.get(n)).sum();
        let mut all = setup_acc.clone();
        all.merge(&timed);
        all.add("platform.self_s", serve - inside);
        all.add("trace.wall_s", traced_wall);
        all.add("trace.untraced_wall_s", untraced_wall);
        all.add("trace.overhead_s", traced_wall - untraced_wall);
        all.add("trace.covered_s", covered);
        all.add("trace.uncovered_s", traced_wall - covered);
        let mut decide = std::mem::take(&mut all.decide_ns);
        all.add(
            "adapter.decide_ns_p50",
            trace::percentile(&mut decide, 50.0),
        );
        all.add(
            "adapter.decide_ns_p99",
            trace::percentile(&mut decide, 99.0),
        );
        let mut cells = std::mem::take(&mut all.cell_ms);
        all.add("sweep.cell_ms_p50", trace::percentile(&mut cells, 50.0));
        all.max("sweep.cell_ms_max", cells.last().copied().unwrap_or(0.0));
        for &(name, unit) in PER_LAYER {
            metrics.push((name, all.get(name), unit));
        }
        table = Some(layer_table(
            &args.workload,
            &metrics,
            &setup_acc,
            decide.len(),
            cells.len(),
        ));
    }

    Report {
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        modelled: tally.modelled,
        errors: tally.errors,
        table,
    }
}

fn failed_report(tally: Tally) -> Report {
    Report {
        attempted: tally.attempted.max(1),
        failed: tally.failed.max(1),
        metrics: Vec::new(),
        modelled: None,
        errors: tally.errors,
        table: None,
    }
}

/// The human-readable per-layer table of a traced run: every metric, the
/// part of a time recorded during set-up, the timed-phase share of the
/// traced wall time, and the accounting line (covered + uncovered = traced
/// wall of the timed phase).
fn layer_table(
    workload: &str,
    metrics: &[(&'static str, f64, &'static str)],
    setup: &Acc,
    decide_samples: usize,
    cell_samples: usize,
) -> String {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    let wall = get("trace.wall_s");
    let mut out = format!("# per-layer trace: {workload}\n");
    let _ = writeln!(
        out,
        "{:<34} {:>16} {:<6} {:>10} {:>8}",
        "metric", "value", "unit", "set-up s", "% wall"
    );
    for &(name, value, unit) in metrics {
        let (in_setup, share) = if unit == "s" && !name.starts_with("trace.") {
            let in_setup = setup.get(name);
            let share = if wall > 0.0 {
                format!("{:.1}", 100.0 * (value - in_setup) / wall)
            } else {
                String::new()
            };
            (format!("{in_setup:.6}"), share)
        } else {
            (String::new(), String::new())
        };
        let _ = writeln!(
            out,
            "{name:<34} {value:>16.6} {unit:<6} {in_setup:>10} {share:>8}"
        );
    }
    let _ = writeln!(
        out,
        "timed phase: traced wall {:.4} s = covered {:.4} s (layer spans incl. platform.self_s \
         and sweep.driver_self_s) + uncovered {:.4} s; tracing overhead {:.4} s over the \
         untraced {:.4} s; set-up spans {:.4} s (not in the wall); decision samples \
         {decide_samples}, cell samples {cell_samples}",
        wall,
        get("trace.covered_s"),
        get("trace.uncovered_s"),
        get("trace.overhead_s"),
        get("trace.untraced_wall_s"),
        setup.covered_s(),
    );
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("janus-perfbench: {e}");
            eprintln!(
                "usage: janus-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> \
                 [--size full|tiny]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let report = run(&args);
    if let Some(table) = &report.table {
        print!("{table}");
    }
    for e in &report.errors {
        eprintln!("janus-perfbench: FAILED {e}");
    }
    println!("{}", report.json_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(workload: &str, trace: bool) -> Report {
        run(&Args {
            workload: workload.to_string(),
            seed: 11,
            seconds: 0.0,
            trace,
            size: Size::Tiny,
        })
    }

    fn assert_metrics(report: &Report, expected: &[(&str, &str)]) {
        assert!(report.correct(), "{:?}", report.errors);
        assert!(report.attempted >= 1);
        let names: Vec<&str> = report.metrics.iter().map(|m| m.0).collect();
        let want: Vec<&str> = expected.iter().map(|m| m.0).collect();
        assert_eq!(names, want);
        for (&(name, value, unit), &(_, want_unit)) in report.metrics.iter().zip(expected) {
            assert!(value.is_finite(), "{name} = {value}");
            assert_eq!(unit, want_unit, "{name}");
        }
        let line = report.json_line();
        for (name, unit) in expected {
            assert!(
                line.contains(&format!("\"{name}\": {{\"value\": ")),
                "{name} in {line}"
            );
            assert!(
                line.contains(&format!("\"unit\": \"{unit}\"")),
                "{unit} in {line}"
            );
        }
    }

    #[test]
    fn every_workload_prints_every_metric_and_tracing_changes_no_modelled_figure() {
        for workload in WORKLOADS {
            let plain = tiny(workload, false);
            assert_metrics(&plain, END_TO_END);
            for (name, value, _) in &plain.metrics {
                assert!(
                    *value > 0.0,
                    "{workload}: {name} = {value} must be positive"
                );
            }
            let traced = tiny(workload, true);
            assert_metrics(&traced, PER_LAYER);
            let (a, b) = (plain.modelled.unwrap(), traced.modelled.unwrap());
            assert!(
                a.same_bits(&b),
                "{workload}: untraced {a:?} vs traced {b:?}"
            );
            assert!(traced.table.as_deref().unwrap().contains("uncovered"));
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = janus_json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.require(key)
                .unwrap()
                .as_array()
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.require(f).unwrap().as_str().unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<&str> = doc
            .require("workloads")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|w| w.require("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn bad_arguments_are_rejected() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload x --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&args("--workload x --seed 1 --seconds 1 --trace 2")).is_err());
        assert!(parse_args(&args("--workload x --seed -1 --seconds 1 --trace 0")).is_err());
        let ok = parse_args(&args("--workload x --seed 1 --seconds 1 --trace 1")).unwrap();
        assert!(ok.trace);
        let report = run(&Args {
            workload: "nope".into(),
            ..ok
        });
        assert!(!report.correct());
    }
}
