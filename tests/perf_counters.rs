//! Exact cost counters of the serving loop, pinned in
//! `specs/perf_counters.json`.
//!
//! Wall-clock speed is perfbench's job; this test pins what does not
//! depend on the machine: engine events, heap allocations, peak event-queue
//! depth and peak resident arrivals of four fixed small workloads, plus the
//! flight recorder's records and trace bytes. Every figure is a
//! pure function of the code and the seed, identical in debug and release
//! builds, so the comparison is exact:
//!
//! - a count that goes up is a regression and fails;
//! - a count that goes down fails too, until the change that lowered it
//!   updates the file (the failure prints the measured document) and lists
//!   the new figures in CHANGES.md.
//!
//! Allocations are counted by a `#[global_allocator]` wrapping [`System`].
//! `cargo test` runs tests on parallel threads, so counting is switched on
//! per thread and only around the measured run. Every cell is measured on
//! a warm [`OpenLoopArena`]: the second of two identical runs, because the
//! first pays for growing the arena's queue and tables.

use janus_chaos::{FaultContext, FaultRegistry};
use janus_json::{self as json, Value};
use janus_observe::{FlightRecorder, Observer, ObserverContext};
use janus_platform::capacity::{AdmissionRegistry, AutoscalerRegistry, CapacityContext};
use janus_platform::openloop::{
    CapacityControls, OpenLoopArena, OpenLoopConfig, OpenLoopSimulation,
};
use janus_platform::policy::FixedSizingPolicy;
use janus_scenarios::{ScenarioContext, ScenarioRegistry};
use janus_simcore::resources::Millicores;
use janus_simcore::rng::SimRng;
use janus_workloads::apps::PaperApp;
use janus_workloads::request::{GeneratorSource, RequestInputGenerator};
use janus_workloads::workflow::Workflow;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// The committed counters.
const PINNED: &str = include_str!("../specs/perf_counters.json");

const SEED: u64 = 7;
const RPS: f64 = 20.0;
const REQUESTS: usize = 2_000;
const ALLOCATION_MC: u32 = 2_000;

/// The counters every cell pins.
const BASE: &[&str] = &["events", "allocations", "peak_queue", "peak_resident"];

/// The flight-recorder cell pins two more.
const RECORDER: &[&str] = &[
    "events",
    "allocations",
    "peak_queue",
    "peak_resident",
    "records",
    "trace_bytes",
];

/// The cells of the file and the counters each one pins, in file order.
const SCHEMA: &[(&str, &[&str])] = &[
    ("slice", BASE),
    ("stream", BASE),
    ("recorder", RECORDER),
    ("capacity", BASE),
];

/// Counters keyed by `(cell, counter)`.
type Counters = BTreeMap<(&'static str, &'static str), u64>;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// [`System`], counting the allocations made by a thread that switched
/// counting on.
struct CountingAllocator;

impl CountingAllocator {
    fn note() {
        // `try_with`: the slots are gone while a thread is being torn down.
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
            }
        });
    }
}

// SAFETY: every call forwards unchanged to `System`; the counting touches
// only `const`-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Run `f` with counting on for this thread; returns its result and the
/// number of allocations (fresh or resized) it made.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// Decode the counter file strictly: exactly the cells and counters of
/// [`SCHEMA`], each a non-negative integer. Every error names the key.
fn decode(text: &str) -> Result<Counters, String> {
    let doc = json::parse(text)?;
    let Value::Obj(cells) = &doc else {
        return Err("expected an object of cells".into());
    };
    check_members(
        cells,
        "",
        &SCHEMA.iter().map(|(c, _)| *c).collect::<Vec<_>>(),
    )?;
    let mut counters = Counters::new();
    for &(cell, keys) in SCHEMA {
        let value = doc
            .get(cell)
            .ok_or_else(|| format!("`{cell}`: missing key"))?;
        let Value::Obj(members) = value else {
            return Err(format!("`{cell}`: expected an object of counters"));
        };
        check_members(members, &format!("{cell}."), keys)?;
        for &key in keys {
            let value = members
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .ok_or_else(|| format!("`{cell}.{key}`: missing key"))?;
            let count = value
                .as_f64()
                .filter(|n| n.fract() == 0.0 && (0.0..=9.007_199_254_740_992e15).contains(n))
                .ok_or_else(|| {
                    format!(
                        "`{cell}.{key}`: expected a non-negative integer, got {}",
                        value.to_compact()
                    )
                })?;
            counters.insert((cell, key), count as u64);
        }
    }
    Ok(counters)
}

/// Reject unknown and duplicate members of one object.
fn check_members(members: &[(String, Value)], prefix: &str, known: &[&str]) -> Result<(), String> {
    for (i, (key, _)) in members.iter().enumerate() {
        if !known.contains(&key.as_str()) {
            return Err(format!("`{prefix}{key}`: unknown key"));
        }
        if members[..i].iter().any(|(k, _)| k == key) {
            return Err(format!("`{prefix}{key}`: duplicate key"));
        }
    }
    Ok(())
}

/// The canonical text of a counter file.
fn encode(counters: &Counters) -> String {
    let cells = SCHEMA
        .iter()
        .map(|&(cell, keys)| {
            let members = keys
                .iter()
                .map(|&key| (key.to_string(), Value::Num(counters[&(cell, key)] as f64)))
                .collect();
            (cell.to_string(), Value::Obj(members))
        })
        .collect();
    Value::Obj(cells).to_pretty() + "\n"
}

fn harness() -> (Workflow, OpenLoopSimulation) {
    let app = PaperApp::IntelligentAssistant;
    let workflow = app.workflow();
    let sim = OpenLoopSimulation::new(workflow.clone(), OpenLoopConfig::new(app.default_slo(1)));
    (workflow, sim)
}

fn policy(workflow: &Workflow) -> FixedSizingPolicy {
    FixedSizingPolicy::uniform("fixed", workflow, Millicores::new(ALLOCATION_MC)).unwrap()
}

fn generator(scenario: &str) -> RequestInputGenerator {
    let ctx = ScenarioContext {
        base_rps: RPS,
        requests: REQUESTS,
        seed: SEED,
    };
    let process = ScenarioRegistry::with_builtins()
        .build(scenario, &ctx)
        .unwrap();
    RequestInputGenerator::with_sampler(SEED, process.sampler())
}

/// Run `serve` twice on one fresh arena and record the four counters every
/// cell pins from the second, warm run. `serve` sets its run up, serves it
/// inside [`count_allocations`] and returns the allocation count.
fn warm(
    counters: &mut Counters,
    cell: &'static str,
    mut serve: impl FnMut(&mut OpenLoopArena) -> u64,
) {
    let mut arena = OpenLoopArena::new();
    serve(&mut arena);
    let allocations = serve(&mut arena);
    counters.insert((cell, "events"), arena.events_processed());
    counters.insert((cell, "allocations"), allocations);
    counters.insert((cell, "peak_queue"), arena.peak_queue_depth() as u64);
    counters.insert(
        (cell, "peak_resident"),
        arena.peak_resident_arrivals() as u64,
    );
}

/// Measure every cell of [`SCHEMA`].
fn measure() -> Counters {
    let (workflow, sim) = harness();
    let requests = generator("poisson").generate(&workflow, REQUESTS);
    let mut counters = Counters::new();

    // `slice`: a materialised Poisson set through `run_traced`, observers off.
    warm(&mut counters, "slice", |arena| {
        let mut policy = policy(&workflow);
        let (report, allocations) =
            count_allocations(|| sim.run_traced(&mut policy, &requests, arena, None, None, None));
        assert_eq!(report.unwrap().len(), REQUESTS);
        allocations
    });

    // `stream`: the same workload drawn lazily from its generator.
    warm(&mut counters, "stream", |arena| {
        let mut policy = policy(&workflow);
        let mut source = GeneratorSource::new(generator("poisson"), REQUESTS);
        let (report, allocations) = count_allocations(|| {
            sim.run_from_source(&mut policy, &mut source, arena, None, None, None)
        });
        assert_eq!(report.unwrap().len(), REQUESTS);
        allocations
    });

    // `recorder`: `slice` with a full flight recorder attached.
    let observer_ctx = ObserverContext {
        seed: SEED,
        policy: "fixed".to_string(),
        requests: REQUESTS,
        zones: 1,
        slo: PaperApp::IntelligentAssistant.default_slo(1),
    };
    let mut finished = None;
    warm(&mut counters, "recorder", |arena| {
        let mut policy = policy(&workflow);
        let mut recorder = FlightRecorder::new(&observer_ctx);
        let (report, allocations) = count_allocations(|| {
            sim.run_traced(
                &mut policy,
                &requests,
                arena,
                None,
                None,
                Some(&mut recorder),
            )
        });
        assert_eq!(report.unwrap().len(), REQUESTS);
        finished = Some(recorder.finish());
        allocations
    });
    let finished = finished.unwrap();
    counters.insert(("recorder", "records"), finished.records_seen);
    let trace = finished.trace.expect("the flight recorder writes a trace");
    counters.insert(("recorder", "trace_bytes"), trace.len() as u64);

    // `capacity`: a streamed flash crowd on one node under the
    // `utilization` autoscaler, `queue-shed` admission and `node-crash`.
    let slo = PaperApp::IntelligentAssistant.default_slo(1);
    let capacity_ctx = CapacityContext {
        base_rps: RPS,
        requests: REQUESTS,
        initial_nodes: 1,
        slo,
    };
    let fault_ctx = FaultContext {
        seed: SEED,
        initial_nodes: 1,
        zones: 1,
        base_rps: RPS,
        requests: REQUESTS,
        slo,
    };
    warm(&mut counters, "capacity", |arena| {
        let mut policy = policy(&workflow);
        let mut source = GeneratorSource::new(generator("flash-crowd"), REQUESTS);
        let mut autoscaler = AutoscalerRegistry::with_builtins()
            .build("utilization", &capacity_ctx)
            .unwrap();
        let mut admission = AdmissionRegistry::with_builtins()
            .build("queue-shed", &capacity_ctx)
            .unwrap();
        let controls = CapacityControls {
            autoscaler: autoscaler.as_mut(),
            admission: admission.as_mut(),
            faults: Some(
                FaultRegistry::with_builtins()
                    .build("node-crash", &fault_ctx)
                    .unwrap(),
            ),
        };
        let (report, allocations) = count_allocations(|| {
            sim.run_from_source(&mut policy, &mut source, arena, None, Some(controls), None)
        });
        let capacity = report.unwrap().capacity.expect("a capacity report");
        assert_eq!(capacity.generated, REQUESTS);
        assert!(
            capacity.shed > 0,
            "the flash crowd never overloaded the node"
        );
        assert!(capacity.faults_applied > 0, "no crash ever landed");
        allocations
    });
    counters
}

#[test]
fn serving_loop_counters_match_the_committed_file() {
    let pinned = decode(PINNED).unwrap_or_else(|e| panic!("specs/perf_counters.json: {e}"));
    let measured = measure();
    let mut drift = Vec::new();
    for (&(cell, key), &want) in &pinned {
        let got = measured[&(cell, key)];
        match got.cmp(&want) {
            Ordering::Greater => drift.push(format!(
                "`{cell}.{key}` went up from {want} to {got}: a regression"
            )),
            Ordering::Less => drift.push(format!(
                "`{cell}.{key}` went down from {want} to {got}: update \
                 specs/perf_counters.json in the same change and list it in CHANGES.md"
            )),
            Ordering::Equal => {}
        }
    }
    assert!(
        drift.is_empty(),
        "{}\nmeasured document:\n{}",
        drift.join("\n"),
        encode(&measured)
    );
}

#[test]
fn counters_are_the_same_on_a_second_measurement() {
    // Exactness needs determinism: the same process, measured again,
    // reproduces every figure.
    assert_eq!(measure(), measure());
}

#[test]
fn the_committed_file_is_canonical() {
    let pinned = decode(PINNED).unwrap();
    assert_eq!(encode(&pinned), PINNED);
}

#[test]
fn the_decoder_names_the_key_it_rejects() {
    let pinned = decode(PINNED).unwrap();
    let text = encode(&pinned);
    let cases = [
        (
            text.replacen("\"events\"", "\"evnets\"", 1),
            "`slice.evnets`: unknown key",
        ),
        (
            text.replacen("\"stream\"", "\"streams\"", 1),
            "`streams`: unknown key",
        ),
        (
            text.replacen(
                &format!("\"trace_bytes\": {}", pinned[&("recorder", "trace_bytes")]),
                "\"trace_bytes\": 1.5",
                1,
            ),
            "`recorder.trace_bytes`: expected a non-negative integer, got 1.5",
        ),
        (
            text.replacen(
                &format!("\"peak_queue\": {}", pinned[&("capacity", "peak_queue")]),
                "\"peak_queue\": \"122\"",
                1,
            ),
            "`capacity.peak_queue`: expected a non-negative integer",
        ),
        (
            text.replacen(
                &format!("\"events\": {}", pinned[&("slice", "events")]),
                "\"events\": -1",
                1,
            ),
            "`slice.events`: expected a non-negative integer, got -1",
        ),
    ];
    for (mutant, want) in cases {
        let err = decode(&mutant).unwrap_err();
        assert!(err.starts_with(want), "expected `{want}…`, got `{err}`");
    }
    let dropped = |cell: usize, member: Option<usize>| {
        let mut doc = json::parse(&text).unwrap();
        let Value::Obj(cells) = &mut doc else {
            unreachable!()
        };
        match member {
            None => drop(cells.remove(cell)),
            Some(member) => {
                let Value::Obj(members) = &mut cells[cell].1 else {
                    unreachable!()
                };
                members.remove(member);
            }
        }
        decode(&doc.to_pretty()).unwrap_err()
    };
    assert_eq!(dropped(1, Some(2)), "`stream.peak_queue`: missing key");
    assert_eq!(dropped(3, None), "`capacity`: missing key");
}

/// The backticked key an error names, if any.
fn named_key(err: &str) -> Option<&str> {
    let rest = err.strip_prefix('`')?;
    rest.split_once('`').map(|(key, _)| key)
}

#[test]
fn mutated_counter_files_decode_or_name_a_key_and_never_panic() {
    let mut rng = SimRng::seed_from_u64(0x9E4F);
    let bytes = PINNED.as_bytes();
    for case in 0..600 {
        let (kind, mutant) = match case % 3 {
            0 => {
                // Flip one byte to another printable ASCII byte, so the
                // mutant stays valid UTF-8.
                let mut b = bytes.to_vec();
                let at = rng.int_range(0, b.len() as u64 - 1) as usize;
                b[at] = rng.int_range(0x20, 0x7e) as u8;
                ("flip", String::from_utf8(b).unwrap())
            }
            1 => {
                let at = rng.int_range(0, bytes.len() as u64 - 1) as usize;
                ("truncate", PINNED[..at].to_string())
            }
            _ => {
                // Drop one member of one object: a whole cell or a counter.
                let mut doc = json::parse(PINNED).unwrap();
                let Value::Obj(cells) = &mut doc else {
                    unreachable!()
                };
                let cell = rng.int_range(0, cells.len() as u64 - 1) as usize;
                if rng.uniform() < 0.25 {
                    cells.remove(cell);
                } else {
                    let Value::Obj(members) = &mut cells[cell].1 else {
                        unreachable!()
                    };
                    let key = rng.int_range(0, members.len() as u64 - 1) as usize;
                    members.remove(key);
                }
                ("drop", doc.to_pretty())
            }
        };
        let decoded = std::panic::catch_unwind(|| decode(&mutant))
            .unwrap_or_else(|_| panic!("case {case} ({kind}) panicked on:\n{mutant}"));
        let Err(err) = decoded else { continue };
        if json::parse(&mutant).is_err() {
            // Broken syntax fails in the JSON parser, before any key.
            continue;
        }
        let key =
            named_key(&err).unwrap_or_else(|| panic!("case {case} ({kind}): `{err}` names no key"));
        assert!(
            !key.is_empty(),
            "case {case} ({kind}): `{err}` names an empty key"
        );
        if kind == "drop" {
            assert!(
                err.ends_with("missing key"),
                "case {case}: a dropped member must be reported missing, got `{err}`"
            );
        }
    }
}
