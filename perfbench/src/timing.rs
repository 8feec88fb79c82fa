//! Timing decorators around the crates' public traits, and the in-memory
//! span recorder they report to.
//!
//! Every timestamp is read through [`bq_obs::SystemClock`], the workspace's
//! one sanctioned wall clock. The decorators only observe: each call is
//! forwarded unchanged, so an episode run through them produces the same
//! [`bq_core::EpisodeLog`] byte for byte (pinned by `tests/transparency.rs`).

use std::cell::{Cell, RefCell};

use bq_core::{Action, AdvanceStall};
use bq_core::{
    ConnectionSlot, EpisodeLog, ExecEvent, ExecutorBackend, FaultEvent, RunningView,
    SchedulerPolicy, SchedulingState, ShardTopology,
};
use bq_dbms::{QueryCompletion, RunParams};
use bq_obs::{SystemClock, WallClock};
use bq_plan::{QueryId, Workload};

/// One timed call: `<layer>.<call>`, its interval in seconds since the
/// recorder's origin, the span that encloses it and the episode it ran in.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub episode: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects what the decorators observe.
///
/// Untraced, it keeps only what the end-to-end metrics need: the return
/// instant of the last backend call that delivered an event, one reaction
/// latency per dispatched decision, and call counters. Traced, it also keeps
/// one [`Span`] per timed call, in memory, for the run to write out
/// when the run ends.
pub struct Recorder {
    clock: SystemClock,
    traced: bool,
    last_event: Cell<Option<f64>>,
    react_us: RefCell<Vec<f64>>,
    selects: Cell<u64>,
    backend_calls: Cell<u64>,
    spans: RefCell<Vec<Span>>,
    parent: Cell<Option<usize>>,
    episode: Cell<u32>,
}

impl Recorder {
    pub fn new(traced: bool) -> Self {
        Self {
            clock: SystemClock::new(),
            traced,
            last_event: Cell::new(None),
            react_us: RefCell::new(Vec::new()),
            selects: Cell::new(0),
            backend_calls: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            parent: Cell::new(None),
            episode: Cell::new(0),
        }
    }

    pub fn now(&self) -> f64 {
        self.clock.now_seconds()
    }

    /// Run `f`, recording it as a span when traced.
    pub fn call<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.traced {
            return f();
        }
        let start = self.now();
        let result = f();
        let end = self.now();
        self.spans.borrow_mut().push(Span {
            name,
            start,
            end,
            parent: self.parent.get(),
            episode: self.episode.get(),
        });
        result
    }

    /// Run `f` as a root span that encloses every span recorded inside it,
    /// returning its result and wall seconds. The wall time is measured
    /// whether or not the recorder is traced. Starts a new episode id and
    /// forgets the previous episode's last event, so the first dispatch of
    /// an episode (which no event caused) yields no reaction sample.
    pub fn root<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        self.episode.set(self.episode.get() + 1);
        self.last_event.set(None);
        let index = self.traced.then(|| {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: 0.0,
                end: 0.0,
                parent: self.parent.get(),
                episode: self.episode.get(),
            });
            spans.len() - 1
        });
        let outer = self.parent.replace(index.or(self.parent.get()));
        let start = self.now();
        let result = f();
        let end = self.now();
        self.parent.set(outer);
        if let Some(index) = index {
            let mut spans = self.spans.borrow_mut();
            spans[index].start = start;
            spans[index].end = end;
        }
        (result, end - start)
    }

    fn event_delivered(&self) {
        self.last_event.set(Some(self.now()));
    }

    fn dispatched(&self, decisions: usize) {
        let returned = self.now();
        if let Some(event) = self.last_event.get() {
            let us = (returned - event) * 1e6;
            self.react_us
                .borrow_mut()
                .extend(std::iter::repeat_n(us, decisions));
        }
    }

    fn count_backend_call(&self) {
        self.backend_calls.set(self.backend_calls.get() + 1);
    }

    /// Reaction latencies recorded so far, from the `from`-th on.
    pub fn react_us(&self, from: usize) -> Vec<f64> {
        self.react_us.borrow()[from..].to_vec()
    }

    pub fn react_count(&self) -> usize {
        self.react_us.borrow().len()
    }

    /// Forget the reaction latencies recorded so far, so that a long run's
    /// samples do not accumulate in memory (and in `peak_rss_mb`).
    pub fn clear_react_us(&self) {
        self.react_us.borrow_mut().clear();
    }

    pub fn selects(&self) -> u64 {
        self.selects.get()
    }

    pub fn backend_calls(&self) -> u64 {
        self.backend_calls.get()
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }
}

/// A [`SchedulerPolicy`] decorator that times `select`.
pub struct TimedPolicy<'a> {
    inner: &'a mut dyn SchedulerPolicy,
    rec: &'a Recorder,
}

impl<'a> TimedPolicy<'a> {
    pub fn new(inner: &'a mut dyn SchedulerPolicy, rec: &'a Recorder) -> Self {
        Self { inner, rec }
    }
}

impl SchedulerPolicy for TimedPolicy<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_episode(&mut self, workload: &Workload) {
        self.inner.begin_episode(workload);
    }

    fn select(&mut self, state: &SchedulingState<'_>) -> Action {
        self.rec.selects.set(self.rec.selects.get() + 1);
        let inner = &mut self.inner;
        self.rec.call("sched.select", || inner.select(state))
    }

    fn observe_completion(&mut self, completion: &QueryCompletion) {
        self.inner.observe_completion(completion);
    }

    fn end_episode(&mut self, log: &EpisodeLog) {
        self.inner.end_episode(log);
    }
}

/// The layer a decorated backend stands for; it names the backend's spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// An in-process engine (`ExecutionEngine`, `ShardedEngine`).
    Dbms,
    /// A wire client (`RemoteBackend`, or `WireBackend::lossless`).
    Wire,
    /// The learned incremental simulator.
    Sim,
}

impl Layer {
    /// Span names of `(poll_event, submit, advance_to, cancel)`.
    pub fn names(self) -> [&'static str; 4] {
        match self {
            Layer::Dbms => ["dbms.poll", "dbms.submit", "dbms.advance", "dbms.cancel"],
            Layer::Wire => ["wire.poll", "wire.submit", "wire.advance", "wire.cancel"],
            Layer::Sim => ["sim.poll", "sim.submit", "sim.advance", "sim.cancel"],
        }
    }
}

/// An [`ExecutorBackend`] decorator: times the calls that do work
/// (`poll_event`, `submit`, `submit_batch`, `advance_to`, `cancel`), counts
/// every call, and stamps the events and dispatches that reaction latency
/// is measured between. Every method is forwarded, including the ones with
/// default bodies, so an inner backend's overrides stay in effect.
pub struct TimedBackend<'r, B> {
    inner: B,
    rec: &'r Recorder,
    names: [&'static str; 4],
}

impl<'r, B: ExecutorBackend> TimedBackend<'r, B> {
    pub fn new(inner: B, rec: &'r Recorder, layer: Layer) -> Self {
        Self {
            inner,
            rec,
            names: layer.names(),
        }
    }
}

impl<B: ExecutorBackend> ExecutorBackend for TimedBackend<'_, B> {
    fn connections(&self) -> &[ConnectionSlot] {
        self.rec.count_backend_call();
        self.inner.connections()
    }

    fn now(&self) -> f64 {
        self.rec.count_backend_call();
        self.inner.now()
    }

    fn submit(&mut self, query: QueryId, params: RunParams, connection: usize) {
        self.rec.count_backend_call();
        let inner = &mut self.inner;
        self.rec
            .call(self.names[1], || inner.submit(query, params, connection));
        self.rec.dispatched(1);
    }

    fn submit_batch(&mut self, batch: &[(QueryId, RunParams, usize)]) {
        self.rec.count_backend_call();
        let inner = &mut self.inner;
        self.rec.call(self.names[1], || inner.submit_batch(batch));
        self.rec.dispatched(batch.len());
    }

    fn poll_event(&mut self) -> ExecEvent {
        self.rec.count_backend_call();
        let inner = &mut self.inner;
        let event = self.rec.call(self.names[0], || inner.poll_event());
        if event != ExecEvent::Idle {
            self.rec.event_delivered();
        }
        event
    }

    fn events_pending(&self) -> bool {
        self.rec.count_backend_call();
        self.inner.events_pending()
    }

    fn advance_to(&mut self, until: f64) {
        self.rec.count_backend_call();
        let inner = &mut self.inner;
        self.rec.call(self.names[2], || inner.advance_to(until));
    }

    fn cancel(&mut self, connection: usize) -> Option<QueryCompletion> {
        self.rec.count_backend_call();
        let inner = &mut self.inner;
        self.rec.call(self.names[3], || inner.cancel(connection))
    }

    fn connection_count(&self) -> usize {
        self.rec.count_backend_call();
        self.inner.connection_count()
    }

    fn first_free(&self) -> Option<usize> {
        self.rec.count_backend_call();
        self.inner.first_free()
    }

    fn running_view(&self) -> RunningView<'_> {
        self.rec.count_backend_call();
        self.inner.running_view()
    }

    fn stall_diagnostic(&self) -> Option<AdvanceStall> {
        self.rec.count_backend_call();
        self.inner.stall_diagnostic()
    }

    fn shard_topology(&self) -> ShardTopology {
        self.rec.count_backend_call();
        self.inner.shard_topology()
    }

    fn poll_fault(&mut self) -> Option<FaultEvent> {
        self.rec.count_backend_call();
        self.inner.poll_fault()
    }

    fn known_query_count(&self) -> Option<usize> {
        self.rec.count_backend_call();
        self.inner.known_query_count()
    }
}
