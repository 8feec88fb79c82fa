//! The closed-loop workloads (one client, one connection each) and the
//! sections a run is made of.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bq_core::{EpisodeLog, FifoScheduler};
use bq_dbms::{ExecutionEngine, ShardedEngine};
use bq_nn::ParamStore;
use bq_obs::Obs;
use bq_sched::BqSchedAgent;
use bq_wire::WireBackend;

use crate::episode::{check, run_episode, Placement};
use crate::host::{self, HostDelta, HostSample};
use crate::serve::Server;
use crate::stats::{mean, median, quantile};
use crate::timing::{Layer, Recorder, Span};
use crate::train::{recipe, same_params, traced_recipe, Cell};

/// Shards of the sharded engine: one per core of the 2-core host, so the
/// merge step's scoped workers never outnumber the cores.
pub const SHARDS: usize = 2;
/// TPC-DS replicas the sharded engine runs (198 queries).
const SHARDED_QUERY_SCALE: usize = 2;
/// Rounds of an untraced run, each with one set-up and one training.
const ROUNDS: usize = 10;
/// Fewest reaction samples a timed block takes, so the block's 99th
/// percentile has at least ten samples beyond it.
const MIN_REACTIONS: usize = 1000;
/// Engine seeds `makespan_s` averages over.
const PANEL: u64 = 16;
/// Wall seconds each traced ledger section runs for.
const LEDGER_SECONDS: f64 = 1.0;
/// The quantile, from the slow end, at which a run reads its per-episode
/// timings. Both workloads are single-threaded arithmetic, which follows
/// the host's bursts of faster execution; the bursts cover anywhere from
/// none to most of a run, so the median moves with them while the slow
/// decile repeats (see README.md).
const SLOW_QUANTILE: f64 = 0.1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Greedy BQSched on TPC-DS ×1 over `ExecutionEngine`, after training.
    BqschedTpcds,
    /// FIFO on TPC-DS ×1 over `WireBackend::lossless`, in process.
    FifoWireLoopback,
}

impl Kind {
    pub const ALL: [Kind; 2] = [Kind::BqschedTpcds, Kind::FifoWireLoopback];

    pub fn name(self) -> &'static str {
        match self {
            Kind::BqschedTpcds => "bqsched-tpcds",
            Kind::FifoWireLoopback => "fifo-wire-loopback",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

/// What a run is asked to do.
pub struct Options {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: Option<PathBuf>,
    pub out_dir: PathBuf,
}

impl Options {
    /// A `bq-serve` whose engines are seeded with `seed`, on a socket of
    /// its own.
    fn spawn_server(&self, seed: u64) -> Result<Server, String> {
        static SPAWNED: AtomicU64 = AtomicU64::new(0);
        let bin = self
            .serve_bin
            .as_deref()
            .ok_or("the wire sections need --serve-bin <path to bq-serve>")?;
        let index = SPAWNED.fetch_add(1, Ordering::Relaxed);
        let socket = format!("serve-{}-{index}.sock", std::process::id());
        Server::spawn(bin, &self.out_dir.join(socket), seed)
    }
}

/// Everything a run measured and checked.
#[derive(Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Spans of each traced section, written out when the run ends.
    pub sections: Vec<(&'static str, Vec<Span>)>,
    /// Ungated context written beside the result: sample counts, host
    /// conditions.
    pub notes: Vec<(String, String)>,
}

impl Run {
    fn outcome(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(problem) = result {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(format!("{what}: {problem}"));
            }
        }
    }

    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.to_string(), value.to_string()));
    }

    fn host(&mut self, section: &str, delta: &HostDelta) {
        self.notes
            .push((format!("host.{section}"), delta.to_json()));
    }
}

/// The policy and backend the timed episodes of a workload run.
enum Primary<'a> {
    Agent(&'a mut BqSchedAgent),
    Sharded,
    Loopback,
}

impl Primary<'_> {
    fn episode(&mut self, rec: &Recorder, cell: &Cell, seed: u64) -> (EpisodeLog, f64) {
        let engine = || ExecutionEngine::new(cell.profile.clone(), &cell.workload, seed);
        match self {
            Primary::Agent(agent) => run_episode(
                rec,
                cell,
                seed,
                Placement::FirstFree,
                engine(),
                Layer::Dbms,
                &mut **agent,
            ),
            Primary::Sharded => run_episode(
                rec,
                cell,
                seed,
                Placement::LeastLoaded,
                ShardedEngine::new(cell.profile.clone(), &cell.workload, seed, SHARDS),
                Layer::Dbms,
                &mut FifoScheduler::new(),
            ),
            Primary::Loopback => run_episode(
                rec,
                cell,
                seed,
                Placement::FirstFree,
                WireBackend::lossless(engine()),
                Layer::Wire,
                &mut FifoScheduler::new(),
            ),
        }
    }
}

/// The FIFO round on a bare `ExecutionEngine`: what every wire round, over
/// a socket or in process, must reproduce byte for byte.
fn bare_engine_log(cell: &Cell, seed: u64) -> String {
    let engine = ExecutionEngine::new(cell.profile.clone(), &cell.workload, seed);
    let rec = Recorder::new(false);
    let (log, _) = run_episode(
        &rec,
        cell,
        seed,
        Placement::FirstFree,
        engine,
        Layer::Dbms,
        &mut FifoScheduler::new(),
    );
    log.to_json()
}

/// Per-episode rates of one recorder's share of a timed section.
#[derive(Default)]
struct Timed {
    decisions_per_s: Vec<f64>,
    /// Median reaction latency of each episode.
    react_p50_us: Vec<f64>,
    decisions: u64,
    reactions: usize,
}

impl Timed {
    fn absorb(&mut self, other: Timed) {
        self.decisions_per_s.extend(other.decisions_per_s);
        self.react_p50_us.extend(other.react_p50_us);
        self.decisions += other.decisions;
        self.reactions += other.reactions;
    }
}

/// Run episodes of `primary` round-robin over `recs` until `seconds` have
/// passed and each recorder has taken at least [`MIN_REACTIONS`] reaction
/// samples, checking every episode against `reference`.
fn timed_section(
    run: &mut Run,
    primary: &mut Primary,
    recs: &[&Recorder],
    cell: &Cell,
    seed: u64,
    reference: &str,
    seconds: f64,
) -> Vec<Timed> {
    let clock = Recorder::new(false);
    let started = clock.now();
    let mut timed: Vec<Timed> = recs.iter().map(|_| Timed::default()).collect();
    loop {
        let elapsed = clock.now() - started;
        let enough = timed.iter().all(|t| t.reactions >= MIN_REACTIONS);
        if (elapsed >= seconds && enough) || elapsed >= 4.0 * seconds + 30.0 {
            break;
        }
        for (rec, t) in recs.iter().zip(timed.iter_mut()) {
            let (selects, reactions) = (rec.selects(), rec.react_count());
            let (log, wall) = primary.episode(rec, cell, seed);
            let decisions = rec.selects() - selects;
            t.decisions += decisions;
            t.decisions_per_s.push(decisions as f64 / wall);
            let react = rec.react_us(reactions);
            t.reactions += react.len();
            t.react_p50_us.push(median(&react));
            run.outcome("episode", check(&log, cell.workload.len(), Some(reference)));
        }
    }
    timed
}

/// One set-up of `kind`: TPC-DS ×1 generation, FIFO history, and on
/// `bqsched-tpcds` the agent.
struct Setup {
    cell: Cell,
    agent: Option<BqSchedAgent>,
    seconds: f64,
    generate_s: f64,
    history_s: f64,
}

fn setup(kind: Kind) -> Setup {
    let rec = Recorder::new(false);
    let started = rec.now();
    let (cell, generate_s, history_s) = Cell::build(&rec, 1);
    let agent = (kind == Kind::BqschedTpcds).then(|| cell.agent());
    Setup {
        seconds: rec.now() - started,
        cell,
        agent,
        generate_s,
        history_s,
    }
}

/// The engine seeds `makespan_s` averages over; the first is the run's seed,
/// on which every timed round runs.
fn panel_seeds(seed: u64) -> impl Iterator<Item = u64> {
    (0..PANEL).map(move |k| seed.wrapping_add(k.wrapping_mul(1_000_003)))
}

/// One checked round per panel seed; a loopback round must also reproduce
/// the bare-engine round. Returns the makespans and the first round's log,
/// which every timed round must reproduce.
fn makespan_panel(
    run: &mut Run,
    primary: &mut Primary,
    cell: &Cell,
    seed: u64,
) -> (Vec<f64>, String) {
    let rec = Recorder::new(false);
    let n = cell.workload.len();
    let (mut makespans, mut reference) = (Vec::new(), None);
    for seed in panel_seeds(seed) {
        let (log, _) = primary.episode(&rec, cell, seed);
        let bare = matches!(primary, Primary::Loopback).then(|| bare_engine_log(cell, seed));
        run.outcome("panel", check(&log, n, bare.as_deref()));
        makespans.push(log.makespan());
        reference.get_or_insert_with(|| log.to_json());
    }
    (makespans, reference.unwrap_or_default())
}

/// The untraced run: every end-to-end metric. It is [`ROUNDS`] identical
/// rounds of set-up, training and a block of timed episodes, so the
/// repetitions of each are spread over the whole run.
pub fn untraced(opts: &Options) -> Result<Run, String> {
    let mut run = Run::default();
    let host_start = HostSample::read();
    let rec = Recorder::new(false);
    let clock = Recorder::new(false);
    let (mut setup_s, mut train_s, mut makespans) = (Vec::new(), Vec::new(), Vec::new());
    let mut timed = Timed::default();
    let mut first_params: Option<ParamStore> = None;
    let mut reference: Option<String> = None;
    let mut round_p99 = Vec::new();
    let mut round_steal = Vec::new();
    let mut round_episodes = Vec::new();
    for round in 0..ROUNDS {
        let mut setup = setup(opts.kind);
        setup_s.push(setup.seconds);
        let cell = &setup.cell;
        // `fifo-wire-loopback` trains nothing itself; it reports the same
        // fixed recipe so every workload carries every metric.
        let mut agent = setup.agent.take().unwrap_or_else(|| cell.agent());
        let ((), wall) = clock.root("train", || recipe(cell, &mut agent));
        train_s.push(wall);
        let first = first_params.get_or_insert_with(|| agent.store.clone());
        run.outcome(
            "training",
            if same_params(first, &agent.store) {
                Ok(())
            } else {
                Err(format!("training {round} diverged from training 0"))
            },
        );

        let mut primary = match opts.kind {
            Kind::BqschedTpcds => Primary::Agent(&mut agent),
            Kind::FifoWireLoopback => Primary::Loopback,
        };
        let reference = match &reference {
            Some(reference) => reference,
            None => {
                let (panel, first_log) = makespan_panel(&mut run, &mut primary, cell, opts.seed);
                makespans = panel;
                reference.insert(first_log)
            }
        };
        // A checked, untimed warm-up round after each set-up.
        let (log, _) = primary.episode(&Recorder::new(false), cell, opts.seed);
        run.outcome("warm-up", check(&log, cell.workload.len(), Some(reference)));
        let reactions = rec.react_count();
        let host_before = HostSample::read();
        let block = timed_section(
            &mut run,
            &mut primary,
            &[&rec],
            cell,
            opts.seed,
            reference,
            opts.seconds / ROUNDS as f64,
        );
        let block = block.into_iter().next().unwrap_or_default();
        round_episodes.push(block.decisions_per_s.len());
        timed.absorb(block);
        round_p99.push(quantile(&rec.react_us(reactions), 0.99));
        rec.clear_react_us();
        round_steal.push(host_before.until(&HostSample::read()).steal_share);
    }

    // Timings are order statistics of many short samples, read on the
    // slow side (see `SLOW_QUANTILE` and README.md); training is the same
    // kind of arithmetic, so it reads the slow decile too. A round's 99th
    // percentile is already its slow side, so `react_us_p99` is the median
    // round's.
    let slow = SLOW_QUANTILE;
    run.metric("setup_s", median(&setup_s), "s");
    run.metric("makespan_s", mean(&makespans), "virtual_s");
    run.metric(
        "decisions_per_s",
        quantile(&timed.decisions_per_s, slow),
        "1/s",
    );
    run.metric(
        "react_us_p50",
        quantile(&timed.react_p50_us, 1.0 - slow),
        "us",
    );
    run.metric("react_us_p99", median(&round_p99), "us");
    run.metric("train_s", quantile(&train_s, 0.9), "s");
    run.metric("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN), "MB");

    run.note("episodes", timed.decisions_per_s.len());
    let rounded = |v: &[f64]| {
        let v: Vec<f64> = v.iter().map(|x| (x * 10.0).round() / 10.0).collect();
        format!("{v:?}")
    };
    run.note("episode_decisions_per_s", rounded(&timed.decisions_per_s));
    run.note("episode_react_p50_us", rounded(&timed.react_p50_us));
    run.note("round_react_p99_us", rounded(&round_p99));
    run.note("round_steal_share", format!("{round_steal:?}"));
    run.note("round_episodes", format!("{round_episodes:?}"));
    run.note("decisions", timed.decisions);
    run.note("react_samples", timed.reactions);
    run.note("setup_s", format!("{setup_s:?}"));
    run.note("train_s", format!("{train_s:?}"));
    run.note("makespans", format!("{makespans:?}"));
    run.host("run", &host_start.until(&HostSample::read()));
    Ok(run)
}

/// Sum and per-name selection over a recorder's spans.
fn seconds_of<'a>(spans: &'a [Span], names: &'a [&str]) -> impl Iterator<Item = f64> + 'a {
    spans
        .iter()
        .filter(move |s| names.contains(&s.name))
        .map(Span::seconds)
}

fn micros_of(spans: &[Span], names: &[&str]) -> Vec<f64> {
    seconds_of(spans, names).map(|s| s * 1e6).collect()
}

/// The policy layers (`bq-encoder`/`bq-nn`, `bq-sched`, `bq-rl`), measured
/// on the quick agent over TPC-DS ×1 whatever the workload. Returns the
/// traced-trained agent, greedy.
fn policy_ledger(run: &mut Run, cell: &Cell, seed: u64) -> BqSchedAgent {
    let rec = Recorder::new(false);
    let n = cell.workload.len();
    let mut built = Vec::new();
    let mut agent_new_ms = Vec::new();
    for _ in 0..3 {
        let (agent, wall) = rec.root("agent", || cell.agent());
        agent_new_ms.push(wall * 1e3);
        built.push(agent);
    }
    let mut plain = built.swap_remove(0);
    let mut traced = built.swap_remove(0);

    // Training: the user's recipe, then the same calls one by one with spans.
    recipe(cell, &mut plain);
    let train_rec = Recorder::new(true);
    let counts = traced_recipe(cell, &mut traced, &train_rec);
    let same = same_params(&plain.store, &traced.store);
    run.outcome(
        "traced training",
        if same {
            Ok(())
        } else {
            Err("traced training diverged from the recipe".into())
        },
    );
    let train_spans = train_rec.spans();
    let sum = |name: &str| seconds_of(&train_spans, &[name]).sum::<f64>();
    let transitions: Vec<f64> = counts
        .transitions_per_phase
        .iter()
        .map(|&t| t as f64)
        .collect();
    let (rollout_s, ppo_s, aux_s, fit_s) = (
        sum("rl.rollout"),
        sum("rl.ppo_phase"),
        sum("rl.aux_phase"),
        sum("sched.sim_fit"),
    );
    let sim_poll = quantile(&micros_of(&train_spans, &["sim.poll"]), 0.5);
    run.sections.push(("train", train_spans));

    // Observations from one exploring round, replayed through the forward.
    traced.explore = true;
    let capture_rec = Recorder::new(false);
    let engine = ExecutionEngine::new(cell.profile.clone(), &cell.workload, seed);
    let (log, _) = run_episode(
        &capture_rec,
        cell,
        seed,
        Placement::FirstFree,
        engine,
        Layer::Dbms,
        &mut traced,
    );
    run.outcome("capture", check(&log, n, None));
    let rollout = traced.take_rollout();
    traced.explore = false;
    let forwards_per_decision = rollout.len() as f64 / capture_rec.selects().max(1) as f64;
    let cache = traced.model.build_infer_cache(&traced.store);

    // Greedy rounds of the traced-trained agent, checked against the
    // recipe-trained agent's round, alternating with replay passes so that
    // selects and forwards sample the same stretch of host speed and their
    // difference (`sched.obs_build_us_p50`) is not a speed change.
    let (log, _) = Primary::Agent(&mut plain).episode(&rec, cell, seed);
    run.outcome("greedy", check(&log, n, None));
    let reference = log.to_json();
    let greedy_rec = Recorder::new(true);
    let (mut infer_us, mut infer_value_us) = (Vec::new(), Vec::new());
    let started = rec.now();
    while rec.now() - started < LEDGER_SECONDS || greedy_rec.selects() < MIN_REACTIONS as u64 {
        let (log, _) = Primary::Agent(&mut traced).episode(&greedy_rec, cell, seed);
        run.outcome("greedy", check(&log, n, Some(&reference)));
        for transition in rollout.transitions() {
            for (want_value, samples) in [(false, &mut infer_us), (true, &mut infer_value_us)] {
                let t0 = rec.now();
                let out =
                    traced
                        .model
                        .infer_policy(&traced.store, &transition.obs, &cache, want_value);
                samples.push((rec.now() - t0) * 1e6);
                std::hint::black_box(out);
            }
        }
    }
    let select_us = micros_of(&greedy_rec.spans(), &["sched.select"]);
    let infer_p50 = quantile(&infer_us, 0.5);

    run.metric("encoder.infer_us_p50", infer_p50, "us");
    run.metric(
        "encoder.infer_value_us_p50",
        quantile(&infer_value_us, 0.5),
        "us",
    );
    run.metric("sched.select_us_p50", quantile(&select_us, 0.5), "us");
    run.metric("sched.select_us_p99", quantile(&select_us, 0.99), "us");
    run.metric(
        "sched.obs_build_us_p50",
        quantile(&select_us, 0.5) - infer_p50,
        "us",
    );
    run.metric(
        "sched.forwards_per_decision",
        forwards_per_decision,
        "count",
    );
    run.metric("sched.agent_new_ms", median(&agent_new_ms), "ms");
    run.metric("sched.sim_fit_s", fit_s, "s");
    run.metric("sched.sim_poll_us_p50", sim_poll, "us");
    run.metric("rl.rollout_s", rollout_s, "s");
    run.metric("rl.ppo_phase_s", ppo_s, "s");
    run.metric("rl.aux_phase_s", aux_s, "s");
    run.metric("rl.transitions_per_phase", mean(&transitions), "count");
    run.note("infer_samples", infer_us.len());
    run.note("select_samples", select_us.len());
    run.sections.push(("greedy", greedy_rec.spans()));
    traced
}

/// The wire layer (`bq-wire`): FIFO rounds over UDS to `server`, then the
/// same rounds over the in-process lossless link.
fn wire_ledger(run: &mut Run, cell: &Cell, server: &Server, seed: u64) {
    let reference = bare_engine_log(cell, seed);
    let n = cell.workload.len();
    let uds_rec = Recorder::new(true);
    let obs = Obs::enabled();
    let (mut connect_ms, mut retransmits, mut episodes) = (Vec::new(), 0usize, 0usize);
    let cpu_before = server.cpu_seconds();
    let started = uds_rec.now();
    while uds_rec.now() - started < LEDGER_SECONDS || uds_rec.react_count() < MIN_REACTIONS {
        let t0 = uds_rec.now();
        let mut backend = match server.connect() {
            Ok(backend) => backend,
            Err(problem) => {
                run.outcome("wire episode", Err(problem));
                break;
            }
        };
        connect_ms.push((uds_rec.now() - t0) * 1e3);
        backend.set_obs(obs.clone());
        let (log, _) = run_episode(
            &uds_rec,
            cell,
            seed,
            Placement::FirstFree,
            backend,
            Layer::Wire,
            &mut FifoScheduler::new(),
        );
        retransmits += log.fault_count("transport_retransmit");
        episodes += 1;
        run.outcome("wire episode", check(&log, n, Some(&reference)));
    }
    let server_cpu = server.cpu_seconds() - cpu_before;
    let decisions = uds_rec.selects().max(1) as f64;

    let loop_rec = Recorder::new(true);
    for _ in 0..episodes {
        let engine = ExecutionEngine::new(cell.profile.clone(), &cell.workload, seed);
        let (log, _) = run_episode(
            &loop_rec,
            cell,
            seed,
            Placement::FirstFree,
            WireBackend::lossless(engine),
            Layer::Wire,
            &mut FifoScheduler::new(),
        );
        run.outcome("loopback episode", check(&log, n, Some(&reference)));
    }

    let calls = ["wire.poll", "wire.submit"];
    let call_us = micros_of(&uds_rec.spans(), &calls);
    let counter = |a, b| (obs.counter(a) + obs.counter(b)) as f64 / decisions;
    run.metric("wire.call_us_p50", quantile(&call_us, 0.5), "us");
    run.metric("wire.call_us_p99", quantile(&call_us, 0.99), "us");
    run.metric(
        "wire.loopback_call_us_p50",
        quantile(&micros_of(&loop_rec.spans(), &calls), 0.5),
        "us",
    );
    run.metric(
        "wire.frames_per_decision",
        counter("wire_frames_sent", "wire_frames_received"),
        "count",
    );
    run.metric(
        "wire.bytes_per_decision",
        counter("wire_bytes_sent", "wire_bytes_received"),
        "count",
    );
    run.metric("wire.retransmits", retransmits as f64, "count");
    run.metric("wire.spawn_ms", server.spawn_s * 1e3, "ms");
    run.metric("wire.connect_ms", median(&connect_ms), "ms");
    run.metric(
        "wire.server_cpu_us_per_decision",
        server_cpu * 1e6 / decisions,
        "us",
    );
    run.note("wire_episodes", episodes);
    run.sections.push(("wire", uds_rec.spans()));
    run.sections.push(("loopback", loop_rec.spans()));
}

/// Self time of each root span: its duration minus its children's.
fn root_self_seconds(spans: &[Span]) -> f64 {
    let mut child = vec![0.0; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child[parent] += span.seconds();
        }
    }
    spans
        .iter()
        .zip(&child)
        .filter(|(s, _)| s.parent.is_none())
        .map(|(s, c)| s.seconds() - c)
        .sum()
}

/// The executor layer (`bq-dbms`), on every workload: FIFO rounds over the
/// 2-shard `ShardedEngine` on TPC-DS ×2 with `LeastLoadedRouter`, whose
/// merge step spawns a scoped thread per shard.
fn dbms_ledger(run: &mut Run, seed: u64) {
    let clock = Recorder::new(false);
    let (cell, _, _) = Cell::build(&clock, SHARDED_QUERY_SCALE);
    let mut primary = Primary::Sharded;
    let (log, _) = primary.episode(&clock, &cell, seed);
    run.outcome("shard episode", check(&log, cell.workload.len(), None));
    let reference = log.to_json();
    let rec = Recorder::new(true);
    let host_before = HostSample::read();
    let cpu_before = host::cpu_seconds(None).unwrap_or(f64::NAN);
    let wall_before = clock.now();
    timed_section(
        run,
        &mut primary,
        &[&rec],
        &cell,
        seed,
        &reference,
        LEDGER_SECONDS,
    );
    let wall = clock.now() - wall_before;
    let cpu = host::cpu_seconds(None).unwrap_or(f64::NAN) - cpu_before;
    let host_delta = host_before.until(&HostSample::read());

    let spans = rec.spans();
    let [poll, submit, advance, cancel] = Layer::Dbms.names();
    let decisions = rec.selects().max(1) as f64;
    let episode_s: f64 = seconds_of(&spans, &["episode"]).sum();
    let backend_s: f64 = seconds_of(&spans, &[poll, submit, advance, cancel]).sum();
    let poll_us = micros_of(&spans, &[poll]);
    run.metric("dbms.poll_us_p50", quantile(&poll_us, 0.5), "us");
    run.metric("dbms.poll_us_p99", quantile(&poll_us, 0.99), "us");
    run.metric(
        "dbms.submit_us_p50",
        quantile(&micros_of(&spans, &[submit]), 0.5),
        "us",
    );
    run.metric("dbms.busy_share", backend_s / episode_s, "frac");
    run.metric("dbms.cpu_per_wall", cpu / wall, "frac");
    run.metric(
        "dbms.clones_per_decision",
        host_delta.clones as f64 / decisions,
        "count",
    );
    run.metric(
        "dbms.ctxt_per_decision",
        host_delta.ctxt as f64 / decisions,
        "count",
    );
    run.host("shards", &host_delta);
    run.sections.push(("shards", spans));
}

/// The traced run: every per-layer metric.
pub fn traced(opts: &Options) -> Result<Run, String> {
    let mut run = Run::default();
    let seed = opts.seed;
    let (mut generate_s, mut history_s, mut last) = (Vec::new(), Vec::new(), None);
    for _ in 0..3 {
        let setup = setup(opts.kind);
        generate_s.push(setup.generate_s);
        history_s.push(setup.history_s);
        last = Some(setup);
    }
    let setup = last.ok_or("no set-up ran")?;
    let cell = &setup.cell;

    let mut agent = policy_ledger(&mut run, cell, seed);
    let server = opts.spawn_server(seed)?;
    wire_ledger(&mut run, cell, &server, seed);
    drop(server);
    dbms_ledger(&mut run, seed);

    // The workload's own rounds, alternating untraced and traced.
    let mut primary = match opts.kind {
        Kind::BqschedTpcds => Primary::Agent(&mut agent),
        Kind::FifoWireLoopback => Primary::Loopback,
    };
    let (_, reference) = makespan_panel(&mut run, &mut primary, cell, seed);
    let (plain_rec, traced_rec) = (Recorder::new(false), Recorder::new(true));
    let timed = timed_section(
        &mut run,
        &mut primary,
        &[&plain_rec, &traced_rec],
        cell,
        seed,
        &reference,
        opts.seconds,
    );

    let spans = traced_rec.spans();
    let decisions = traced_rec.selects().max(1) as f64;
    let overhead = median(&timed[0].decisions_per_s) / median(&timed[1].decisions_per_s) - 1.0;
    run.metric(
        "core.session_self_us",
        root_self_seconds(&spans) * 1e6 / decisions,
        "us",
    );
    run.metric(
        "core.backend_calls_per_decision",
        traced_rec.backend_calls() as f64 / decisions,
        "count",
    );
    run.metric("core.history_ms", median(&history_s) * 1e3, "ms");
    run.metric("plan.generate_ms", median(&generate_s) * 1e3, "ms");
    run.metric("trace.overhead_frac", overhead, "frac");
    run.note("traced_episodes", timed[1].decisions_per_s.len());
    run.sections.push(("primary", spans));
    Ok(run)
}

/// Where the run's artifacts go.
pub fn artifact_path(opts: &Options, suffix: &str) -> PathBuf {
    let trace = u8::from(opts.trace);
    Path::new(&opts.out_dir).join(format!(
        "{}-s{}-t{trace}.{suffix}",
        opts.kind.name(),
        opts.seed
    ))
}
