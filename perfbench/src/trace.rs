//! Outside-in tracing: spans around direct calls into each crate, and
//! wrappers around the public traits the serving loop calls back through.
//!
//! Nothing here reaches inside a crate. A span times one call the benchmark
//! makes; a wrapper times the calls the serving loop makes into a
//! [`SizingPolicy`], [`RequestSource`], [`AutoscalerPolicy`],
//! [`AdmissionPolicy`] or [`Observer`]. Per-call layers keep a count and a
//! summed time, not one span per call. Wrappers only forward, so a traced
//! run must produce the same modelled outputs as an untraced one; the
//! benchmark checks that on every traced run.

use janus_core::{BuiltPolicy, PolicyContext, PolicyFactory, PolicyRegistry};
use janus_observe::{Observer, ObserverReport, Record, TickSample};
use janus_platform::capacity::{
    AdmissionPolicy, AutoscalerPolicy, ScalingAction, ScalingObservation,
};
use janus_platform::policy::{RequestContext, SizingPolicy};
use janus_simcore::resources::Millicores;
use janus_simcore::time::{SimDuration, SimTime};
use janus_workloads::request::{RequestInput, RequestSource};
use janus_workloads::workflow::Workflow;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every per-layer metric a traced run prints, with its unit. Layers a
/// workload does not reach print 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("platform.serve_s", "s"),
    ("platform.self_s", "s"),
    ("platform.events", "count"),
    ("platform.peak_queue_depth", "count"),
    ("platform.peak_resident_arrivals", "count"),
    ("platform.served", "count"),
    ("platform.shed", "count"),
    ("platform.failed", "count"),
    ("adapter.decisions", "count"),
    ("adapter.decide_s", "s"),
    ("adapter.decide_ns_p50", "ns"),
    ("adapter.decide_ns_p99", "ns"),
    ("adapter.misses", "count"),
    ("baselines.build_s", "s"),
    ("baselines.size_calls", "count"),
    ("baselines.size_s", "s"),
    ("profiler.calls", "count"),
    ("profiler.profile_s", "s"),
    ("synthesizer.calls", "count"),
    ("synthesizer.synthesize_s", "s"),
    ("synthesizer.hints", "count"),
    ("arrivals.generate_s", "s"),
    ("arrivals.draws", "count"),
    ("arrivals.draw_s", "s"),
    ("capacity.observe_calls", "count"),
    ("capacity.observe_s", "s"),
    ("capacity.admit_calls", "count"),
    ("capacity.admit_s", "s"),
    ("chaos.schedule_s", "s"),
    ("observe.records", "count"),
    ("observe.ticks", "count"),
    ("observe.record_s", "s"),
    ("observe.finish_s", "s"),
    ("observe.records_kept", "count"),
    ("simcore.metric_samples", "count"),
    ("sweep.cell_ms_p50", "ms"),
    ("sweep.cell_ms_max", "ms"),
    ("sweep.driver_self_s", "s"),
    ("results.load_s", "s"),
    ("results.save_calls", "count"),
    ("results.save_s", "s"),
    ("results.save_bytes", "bytes"),
    ("json.encode_s", "s"),
    ("trace.rounds", "count"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.covered_s", "s"),
    ("trace.uncovered_s", "s"),
];

/// Spans the benchmark opens directly in the timed phase. They do not
/// nest, so their sum is the covered share of the traced wall time.
pub const TOP_LEVEL: &[&str] = &[
    "profiler.profile_s",
    "arrivals.generate_s",
    "synthesizer.synthesize_s",
    "baselines.build_s",
    "chaos.schedule_s",
    "platform.serve_s",
    "observe.finish_s",
    "results.load_s",
    "results.save_s",
    "json.encode_s",
    "sweep.driver_self_s",
];

/// Wrapped calls the serving loop makes from inside `platform.serve_s`.
/// `platform.self_s` is the serve time minus these.
pub const INSIDE_SERVE: &[&str] = &[
    "adapter.decide_s",
    "baselines.size_s",
    "arrivals.draw_s",
    "capacity.observe_s",
    "capacity.admit_s",
    "observe.record_s",
];

/// Per-layer sums of one traced phase.
#[derive(Debug, Default, Clone)]
pub struct Acc {
    values: BTreeMap<&'static str, f64>,
    /// Janus decision latencies in ns, for the p50/p99.
    pub decide_ns: Vec<f64>,
    /// Sweep cell wall times in ms, as the sweep driver reported them.
    pub cell_ms: Vec<f64>,
}

impl Acc {
    /// Add `v` to the named sum.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_default() += v;
    }

    /// Raise the named value to at least `v`.
    pub fn max(&mut self, name: &'static str, v: f64) {
        let slot = self.values.entry(name).or_default();
        *slot = slot.max(v);
    }

    /// The named value (0 when never recorded).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Fold `other` into `self`: sums add, peaks take the maximum.
    pub fn merge(&mut self, other: &Acc) {
        for (&name, &v) in &other.values {
            if name.contains("peak") {
                self.max(name, v);
            } else {
                self.add(name, v);
            }
        }
        self.decide_ns.extend_from_slice(&other.decide_ns);
        self.cell_ms.extend_from_slice(&other.cell_ms);
    }

    /// Time `f` into the named span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(name, started.elapsed().as_secs_f64());
        out
    }

    /// Sum of the top-level spans: the share of the wall time the trace
    /// accounts for.
    pub fn covered_s(&self) -> f64 {
        TOP_LEVEL.iter().map(|name| self.get(name)).sum()
    }
}

/// Time `f` into `acc`'s named span when tracing, or just run it.
pub fn span<T>(acc: &mut Option<&mut Acc>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match acc {
        Some(acc) => acc.span(name, f),
        None => f(),
    }
}

/// An accumulator shared with wrappers the program owns for a while (the
/// policies a session builds from a registry).
pub type Sink = Arc<Mutex<Acc>>;

/// Nanoseconds elapsed since `started`.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Which layer a wrapped sizing policy belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyLayer {
    /// A Janus variant: the decisions are `janus-adapter` table searches.
    Adapter,
    /// An early-binding baseline or the Optimal oracle (`janus-baselines`).
    Baselines,
}

impl PolicyLayer {
    /// The layer of a registered policy name.
    pub fn of(name: &str) -> Self {
        if name.starts_with("Janus") {
            PolicyLayer::Adapter
        } else {
            PolicyLayer::Baselines
        }
    }
}

/// A [`SizingPolicy`] wrapper that times `size_next` and `on_complete`.
/// Its sums are flushed into the sink when it is dropped. When built by a
/// [`TimedFactory`] it also times the serve call from the outside: from the
/// moment the program received the policy to the moment it dropped it.
pub struct TimedPolicy {
    inner: Box<dyn SizingPolicy>,
    layer: PolicyLayer,
    calls: u64,
    nanos: u64,
    decide_ns: Vec<f64>,
    sink: Sink,
    serving_since: Option<Instant>,
}

impl TimedPolicy {
    /// Wrap `inner`, flushing into `sink` on drop.
    pub fn new(inner: Box<dyn SizingPolicy>, layer: PolicyLayer, sink: Sink) -> Self {
        TimedPolicy {
            inner,
            layer,
            calls: 0,
            nanos: 0,
            decide_ns: Vec::new(),
            sink,
            serving_since: None,
        }
    }
}

impl SizingPolicy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn is_late_binding(&self) -> bool {
        self.inner.is_late_binding()
    }

    fn size_next(
        &mut self,
        ctx: &RequestContext,
        index: usize,
        remaining_budget: SimDuration,
    ) -> Millicores {
        let started = Instant::now();
        let size = self.inner.size_next(ctx, index, remaining_budget);
        let ns = nanos_since(started);
        self.calls += 1;
        self.nanos += ns;
        if self.layer == PolicyLayer::Adapter {
            self.decide_ns.push(ns as f64);
        }
        size
    }

    fn on_complete(&mut self, ctx: &RequestContext, index: usize, observed: SimDuration) {
        let started = Instant::now();
        self.inner.on_complete(ctx, index, observed);
        self.nanos += nanos_since(started);
    }

    fn on_admit(&mut self, ctx: &RequestContext) {
        self.inner.on_admit(ctx);
    }

    fn mean_decision_time_us(&self) -> Option<f64> {
        self.inner.mean_decision_time_us()
    }
}

impl Drop for TimedPolicy {
    fn drop(&mut self) {
        let served_for = self.serving_since.map(|t| t.elapsed().as_secs_f64());
        // A poisoned sink only loses trace figures; never panic in drop.
        let Ok(mut acc) = self.sink.lock() else {
            return;
        };
        let secs = self.nanos as f64 * 1e-9;
        match self.layer {
            PolicyLayer::Adapter => {
                acc.add("adapter.decisions", self.calls as f64);
                acc.add("adapter.decide_s", secs);
                acc.decide_ns.append(&mut self.decide_ns);
            }
            PolicyLayer::Baselines => {
                acc.add("baselines.size_calls", self.calls as f64);
                acc.add("baselines.size_s", secs);
            }
        }
        if let Some(served_for) = served_for {
            acc.add("platform.serve_s", served_for);
        }
    }
}

/// A [`PolicyFactory`] wrapper for sessions the benchmark cannot open up:
/// it times the build (Janus variants count as synthesis, the rest as
/// baseline builds), closes the session's profiling window on its first
/// build, and hands the program a [`TimedPolicy`].
struct TimedFactory {
    inner: Arc<dyn PolicyFactory>,
    sink: Sink,
    /// Start of the current session's profiling window, set by the caller
    /// right before `run_in`; the first build of the session closes it.
    window: Arc<Mutex<Option<Instant>>>,
}

impl PolicyFactory for TimedFactory {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn build(&self, ctx: &PolicyContext<'_>) -> Result<BuiltPolicy, String> {
        let entered = Instant::now();
        let opened = self
            .window
            .lock()
            .map_err(|_| "trace window poisoned")?
            .take();
        let built = self.inner.build(ctx);
        let built_for = entered.elapsed().as_secs_f64();
        let layer = PolicyLayer::of(self.inner.name());
        {
            let mut acc = self.sink.lock().map_err(|_| "trace sink poisoned")?;
            if let Some(opened) = opened {
                acc.add("profiler.calls", 1.0);
                acc.add(
                    "profiler.profile_s",
                    entered.duration_since(opened).as_secs_f64(),
                );
            }
            match layer {
                PolicyLayer::Adapter => {
                    acc.add("synthesizer.calls", 1.0);
                    acc.add("synthesizer.synthesize_s", built_for);
                }
                PolicyLayer::Baselines => acc.add("baselines.build_s", built_for),
            }
        }
        let built = built?;
        if let Some(report) = &built.synthesis {
            let mut acc = self.sink.lock().map_err(|_| "trace sink poisoned")?;
            acc.add("synthesizer.hints", report.condensed_hints as f64);
        }
        let mut policy = TimedPolicy::new(built.policy, layer, Arc::clone(&self.sink));
        policy.serving_since = Some(Instant::now());
        Ok(BuiltPolicy {
            policy: Box::new(policy),
            synthesis: built.synthesis,
        })
    }
}

/// The built-in policy registry with every factory wrapped in a timing
/// [`TimedFactory`]. Returns the registry and the profiling-window handle
/// the caller arms before each `run_in`.
pub fn timed_registry(sink: &Sink) -> (PolicyRegistry, Arc<Mutex<Option<Instant>>>) {
    let builtins = PolicyRegistry::with_builtins();
    let window = Arc::new(Mutex::new(None));
    let mut timed = PolicyRegistry::new();
    for name in builtins.names() {
        if let Some(inner) = builtins.get(name) {
            timed.register(Arc::new(TimedFactory {
                inner,
                sink: Arc::clone(sink),
                window: Arc::clone(&window),
            }));
        }
    }
    (timed, window)
}

/// A [`RequestSource`] wrapper counting and timing the lazy arrival draws.
#[derive(Debug)]
pub struct TimedSource<S> {
    inner: S,
    draws: u64,
    nanos: u64,
}

impl<S: RequestSource> TimedSource<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Self {
        TimedSource {
            inner,
            draws: 0,
            nanos: 0,
        }
    }

    /// Fold the draw count and time into `acc`.
    pub fn flush(&self, acc: &mut Acc) {
        acc.add("arrivals.draws", self.draws as f64);
        acc.add("arrivals.draw_s", self.nanos as f64 * 1e-9);
    }
}

impl<S: RequestSource> RequestSource for TimedSource<S> {
    fn next_request(&mut self, workflow: &Workflow) -> Option<RequestInput> {
        let started = Instant::now();
        let next = self.inner.next_request(workflow);
        self.nanos += nanos_since(started);
        self.draws += 1;
        next
    }

    fn resident(&self) -> usize {
        self.inner.resident()
    }

    fn len_hint(&self) -> Option<usize> {
        self.inner.len_hint()
    }
}

/// An [`AutoscalerPolicy`] wrapper timing `observe`.
#[derive(Debug)]
pub struct TimedAutoscaler {
    inner: Box<dyn AutoscalerPolicy>,
    calls: u64,
    nanos: u64,
}

impl TimedAutoscaler {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn AutoscalerPolicy>) -> Self {
        TimedAutoscaler {
            inner,
            calls: 0,
            nanos: 0,
        }
    }

    /// Fold the call count and time into `acc`.
    pub fn flush(&self, acc: &mut Acc) {
        acc.add("capacity.observe_calls", self.calls as f64);
        acc.add("capacity.observe_s", self.nanos as f64 * 1e-9);
    }
}

impl AutoscalerPolicy for TimedAutoscaler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn tick(&self) -> SimDuration {
        self.inner.tick()
    }

    fn observe(&mut self, obs: &ScalingObservation) -> ScalingAction {
        let started = Instant::now();
        let action = self.inner.observe(obs);
        self.nanos += nanos_since(started);
        self.calls += 1;
        action
    }
}

/// An [`AdmissionPolicy`] wrapper timing `admit`.
#[derive(Debug)]
pub struct TimedAdmission {
    inner: Box<dyn AdmissionPolicy>,
    calls: u64,
    nanos: u64,
}

impl TimedAdmission {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn AdmissionPolicy>) -> Self {
        TimedAdmission {
            inner,
            calls: 0,
            nanos: 0,
        }
    }

    /// Fold the call count and time into `acc`.
    pub fn flush(&self, acc: &mut Acc) {
        acc.add("capacity.admit_calls", self.calls as f64);
        acc.add("capacity.admit_s", self.nanos as f64 * 1e-9);
    }
}

impl AdmissionPolicy for TimedAdmission {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn admit(&mut self, now: SimTime, inflight: usize) -> bool {
        let started = Instant::now();
        let admitted = self.inner.admit(now, inflight);
        self.nanos += nanos_since(started);
        self.calls += 1;
        admitted
    }
}

/// An [`Observer`] wrapper timing `record` and `tick`.
pub struct TimedObserver {
    inner: Box<dyn Observer>,
    records: u64,
    ticks: u64,
    nanos: u64,
}

impl TimedObserver {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Observer>) -> Self {
        TimedObserver {
            inner,
            records: 0,
            ticks: 0,
            nanos: 0,
        }
    }

    /// Fold the record/tick counts and time into `acc`.
    pub fn flush(&self, acc: &mut Acc) {
        acc.add("observe.records", self.records as f64);
        acc.add("observe.ticks", self.ticks as f64);
        acc.add("observe.record_s", self.nanos as f64 * 1e-9);
    }
}

impl Observer for TimedObserver {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn record(&mut self, record: &Record) {
        let started = Instant::now();
        self.inner.record(record);
        self.nanos += nanos_since(started);
        self.records += 1;
    }

    fn tick(&mut self, sample: &TickSample) {
        let started = Instant::now();
        self.inner.tick(sample);
        self.nanos += nanos_since(started);
        self.ticks += 1;
    }

    fn finish(&mut self) -> ObserverReport {
        self.inner.finish()
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples` (0 when empty).
pub fn percentile(samples: &mut [f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}
