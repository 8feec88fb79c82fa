//! The benchmark measures without changing what it measures: episodes run
//! through the timing decorators and the traced training loop must be
//! bit-identical to the plain calls.

use bq_core::{FifoScheduler, LeastLoadedRouter, ScheduleSession, SchedulerPolicy};
use bq_dbms::{ExecutionEngine, ShardedEngine};
use bq_perfbench::episode::{check, run_episode, Placement};
use bq_perfbench::timing::{Layer, Recorder};
use bq_perfbench::train::{recipe, same_params, traced_recipe, Cell};
use bq_perfbench::workloads::SHARDS;
use bq_wire::WireBackend;

const SEED: u64 = 3;

fn tpcds(query_scale: usize) -> Cell {
    Cell::build(&Recorder::new(false), query_scale).0
}

fn engine(cell: &Cell) -> ExecutionEngine {
    ExecutionEngine::new(cell.profile.clone(), &cell.workload, SEED)
}

/// The plain session's log beside the decorated one's, untraced and traced.
fn assert_transparent<B: bq_core::ExecutorBackend>(
    cell: &Cell,
    placement: Placement,
    layer: Layer,
    mut backend: impl FnMut() -> B,
    mut policy: impl FnMut() -> Box<dyn SchedulerPolicy>,
) {
    let builder = ScheduleSession::builder(&cell.workload)
        .history(&cell.history)
        .dbms(cell.profile.kind)
        .round(SEED);
    let builder = match placement {
        Placement::FirstFree => builder,
        Placement::LeastLoaded => builder.router(LeastLoadedRouter),
    };
    let mut plain_backend = backend();
    let plain = builder.build(&mut plain_backend).run(policy().as_mut());
    check(&plain, cell.workload.len(), None).expect("the plain episode is correct");
    let plain = plain.to_json();
    for traced in [false, true] {
        let rec = Recorder::new(traced);
        let (log, wall) = run_episode(
            &rec,
            cell,
            SEED,
            placement,
            backend(),
            layer,
            policy().as_mut(),
        );
        assert_eq!(
            log.to_json(),
            plain,
            "decorated (traced = {traced}) episode differs"
        );
        assert!(wall > 0.0);
        assert_eq!(rec.selects(), cell.workload.len() as u64);
        assert_eq!(rec.spans().is_empty(), !traced);
    }
}

fn fifo() -> Box<dyn SchedulerPolicy> {
    Box::new(FifoScheduler::new())
}

#[test]
fn decorators_leave_engine_episodes_byte_identical() {
    let cell = tpcds(1);
    assert_transparent(
        &cell,
        Placement::FirstFree,
        Layer::Dbms,
        || engine(&cell),
        fifo,
    );
}

#[test]
fn decorators_leave_two_shard_episodes_byte_identical() {
    let cell = tpcds(2);
    let sharded = || ShardedEngine::new(cell.profile.clone(), &cell.workload, SEED, SHARDS);
    assert_transparent(&cell, Placement::LeastLoaded, Layer::Dbms, sharded, fifo);
}

#[test]
fn decorators_leave_lossless_wire_episodes_byte_identical() {
    let cell = tpcds(1);
    let wire = || WireBackend::lossless(engine(&cell));
    assert_transparent(&cell, Placement::FirstFree, Layer::Wire, wire, fifo);
}

#[test]
fn decorators_leave_bqsched_greedy_episodes_byte_identical() {
    let cell = tpcds(1);
    let greedy = || -> Box<dyn SchedulerPolicy> {
        let mut agent = cell.agent();
        agent.explore = false;
        Box::new(agent)
    };
    assert_transparent(
        &cell,
        Placement::FirstFree,
        Layer::Dbms,
        || engine(&cell),
        greedy,
    );
}

#[test]
fn traced_training_reproduces_the_recipe_bit_for_bit() {
    let cell = tpcds(1);
    let mut plain = cell.agent();
    recipe(&cell, &mut plain);
    let mut traced = cell.agent();
    let rec = Recorder::new(true);
    let counts = traced_recipe(&cell, &mut traced, &rec);
    assert!(same_params(&plain.store, &traced.store));
    assert!(
        !same_params(&cell.agent().store, &plain.store),
        "training moved nothing"
    );

    let spans = rec.spans();
    for name in [
        "sched.sim_fit",
        "rl.rollout",
        "rl.ppo_phase",
        "rl.aux_phase",
        "rl.eval",
        "sim.poll",
        "dbms.poll",
    ] {
        assert!(spans.iter().any(|s| s.name == name), "no {name} span");
    }
    assert_eq!(counts.transitions_per_phase.len(), 2);
    assert!(counts
        .transitions_per_phase
        .iter()
        .all(|&t| t == cell.workload.len()));
}

#[test]
fn same_params_sees_a_single_flipped_bit() {
    let cell = tpcds(1);
    let a = cell.agent();
    let mut b = cell.agent();
    assert!(same_params(&a.store, &b.store));
    let (_, param) = b.store.iter_mut().next().expect("the model has parameters");
    let value = param.value.data()[0];
    param.value.data_mut()[0] = f32::from_bits(value.to_bits() ^ 1);
    assert!(!same_params(&a.store, &b.store));
}

#[test]
fn the_episode_check_rejects_broken_logs() {
    let cell = tpcds(1);
    let rec = Recorder::new(false);
    let (log, _) = run_episode(
        &rec,
        &cell,
        SEED,
        Placement::FirstFree,
        engine(&cell),
        Layer::Dbms,
        &mut FifoScheduler::new(),
    );
    let n = cell.workload.len();
    let reference = log.to_json();
    assert_eq!(check(&log, n, Some(&reference)), Ok(()));

    let mut duplicated = log.clone();
    duplicated.records[1] = duplicated.records[0].clone();
    assert!(check(&duplicated, n, None).is_err());

    let mut missing = log.clone();
    missing.records.pop();
    assert!(check(&missing, n, None).is_err());

    let mut late = log.clone();
    late.records[0].finished_at += 1.0;
    assert!(check(&late, n, Some(&reference)).is_err());
}

#[test]
fn benchmark_sources_keep_the_single_clock_rule() {
    let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut files = 0;
    for entry in std::fs::read_dir(&src).expect("src/ is readable") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("source is readable");
        let name = path.file_name().expect("file name").to_string_lossy();
        // Scanned as library code of a workspace crate, where no rule is
        // relaxed.
        let report = bq_lint::scan_source(
            &format!("crates/perfbench/src/{name}"),
            &text,
            &bq_lint::rules::Config::default(),
        );
        assert!(
            report.violations.is_empty(),
            "{name}: {:?}",
            report.violations
        );
        assert_eq!(report.allows_used, 0, "{name} suppresses a rule");
        files += 1;
    }
    assert!(files >= 5);
}
