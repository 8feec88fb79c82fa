//! The fixed training budget: the paper's two-phase recipe on TPC-DS ×1.
//!
//! [`recipe`] makes the calls a user makes (`SimulatorModel::train`, then
//! `pretrain_on_simulator`, then `train_on_dbms`). [`traced_recipe`] makes
//! the same calls that `train_agent_timed` makes inside those two, one by
//! one and with the same seeds, so it can put a span around each PPO phase,
//! auxiliary phase and rollout. The two must leave bit-identical
//! parameters; [`same_params`] checks it.

use bq_core::{collect_history, ExecutionHistory, FifoScheduler, ScheduleSession};
use bq_dbms::{DbmsKind, DbmsProfile, ExecutionEngine};
use bq_encoder::{PlanEncoderConfig, StateEncoderConfig};
use bq_nn::ParamStore;
use bq_plan::{generate, Benchmark, QueryId, Workload, WorkloadSpec};
use bq_rl::{IqPpoConfig, IqPpoTrainer, PpoConfig, RolloutBuffer};
use bq_sched::{
    pretrain_on_simulator, samples_from_history, train_on_dbms, Algorithm, BqObs, BqSchedAgent,
    BqSchedConfig, LearnedSimulator, SimulatorConfig, SimulatorModel, TrainingConfig,
};

use crate::timing::{Layer, Recorder, TimedBackend, TimedPolicy};

/// FIFO rounds logged into the bootstrap history.
const HISTORY_ROUNDS: u64 = 2;
/// Engine seed of the first history round.
const HISTORY_SEED: u64 = 7;
/// Seed of the agent's parameters and of the training rounds' engines. The
/// set-up and the training are the same work in every run; the run's seed
/// drives only the engines of the measured rounds.
const AGENT_SEED: u64 = 42;
/// Simulator fitting budget.
const SIM_EPOCHS: usize = 1;
const SIM_LR: f32 = 0.01;

/// A workload with its DBMS profile and FIFO bootstrap history.
pub struct Cell {
    pub workload: Workload,
    pub profile: DbmsProfile,
    pub history: ExecutionHistory,
}

impl Cell {
    /// TPC-DS at `query_scale` on DBMS-X, with its FIFO bootstrap history.
    /// Returns the cell and the seconds spent generating the workload and
    /// collecting the history.
    pub fn build(rec: &Recorder, query_scale: usize) -> (Self, f64, f64) {
        let t0 = rec.now();
        let workload = generate(&WorkloadSpec::new(Benchmark::TpcDs, 1.0, query_scale));
        let t1 = rec.now();
        let profile = DbmsProfile::dbms_x();
        let history = collect_history(
            &mut FifoScheduler::new(),
            &workload,
            &profile,
            HISTORY_ROUNDS,
            HISTORY_SEED,
        );
        let t2 = rec.now();
        let cell = Self {
            workload,
            profile,
            history,
        };
        (cell, t1 - t0, t2 - t1)
    }

    /// The quick agent: dim 16, one block, no clustering.
    pub fn agent(&self) -> BqSchedAgent {
        let config = BqSchedConfig {
            plan_encoder: PlanEncoderConfig {
                dim: 16,
                heads: 2,
                blocks: 1,
                tree_bias_per_hop: 0.5,
            },
            state_encoder: StateEncoderConfig {
                plan_dim: 16,
                dim: 16,
                heads: 2,
                blocks: 1,
            },
            plan_pretrain_epochs: 1,
            // One optimisation epoch per PPO and auxiliary phase keeps the
            // fixed budget under two seconds on a 2-core host.
            rl: IqPpoConfig {
                ppo: PpoConfig {
                    epochs: 1,
                    ..PpoConfig::default()
                },
                aux_epochs: 1,
                ..IqPpoConfig::default()
            },
            seed: AGENT_SEED,
            ..BqSchedConfig::default()
        };
        BqSchedAgent::new(&self.workload, &self.profile, Some(&self.history), config)
    }
}

fn sim_config(plan_dim: usize) -> SimulatorConfig {
    SimulatorConfig {
        encoder: StateEncoderConfig {
            plan_dim,
            dim: 16,
            heads: 2,
            blocks: 1,
        },
        ..SimulatorConfig::default()
    }
}

fn pretrain_budget() -> TrainingConfig {
    TrainingConfig {
        iterations: 1,
        ppo_iters: 1,
        rounds_per_iter: 1,
        eval_rounds: 1,
        seed: AGENT_SEED * 1000 + 30,
    }
}

fn finetune_budget() -> TrainingConfig {
    TrainingConfig {
        iterations: 1,
        ppo_iters: 1,
        rounds_per_iter: 1,
        eval_rounds: 1,
        seed: AGENT_SEED * 1000 + 40,
    }
}

fn fitted_simulator(cell: &Cell, agent: &BqSchedAgent, rec: &Recorder) -> SimulatorModel {
    let plan_dim = agent.plan_embeddings().cols();
    let config = sim_config(plan_dim);
    let samples = samples_from_history(
        &cell.workload,
        &cell.history,
        agent.plan_embeddings(),
        &config,
    );
    let mut simulator = SimulatorModel::new(plan_dim, config, AGENT_SEED);
    rec.call("sched.sim_fit", || {
        simulator.train(&samples, SIM_EPOCHS, SIM_LR)
    });
    simulator
}

/// The untraced two-phase recipe.
pub fn recipe(cell: &Cell, agent: &mut BqSchedAgent) {
    let simulator = fitted_simulator(cell, agent, &Recorder::new(false));
    let embs = agent.plan_embeddings().clone();
    pretrain_on_simulator(
        agent,
        &cell.workload,
        &simulator,
        &embs,
        &cell.history,
        cell.profile.connections,
        &pretrain_budget(),
    );
    train_on_dbms(
        agent,
        &cell.workload,
        &cell.profile,
        Some(&cell.history),
        &finetune_budget(),
    );
    agent.explore = false;
}

/// Per-phase counts of a traced training run; times live in the spans.
#[derive(Debug, Default, Clone)]
pub struct TrainCounts {
    /// Transitions handed to each PPO phase.
    pub transitions_per_phase: Vec<usize>,
}

/// [`recipe`], call by call, with spans: `sched.sim_fit`, `rl.rollout`
/// (one per exploring episode, enclosing `sched.select` and the backend's
/// calls), `rl.ppo_phase`, `rl.aux_phase` and `rl.eval`.
pub fn traced_recipe(cell: &Cell, agent: &mut BqSchedAgent, rec: &Recorder) -> TrainCounts {
    let simulator = fitted_simulator(cell, agent, rec);
    let embs = agent.plan_embeddings().clone();
    let avg: Vec<f64> = (0..cell.workload.len())
        .map(|i| cell.history.avg_exec_time(QueryId(i)).unwrap_or(1.0))
        .collect();
    let connections = cell.profile.connections;
    let mut counts = TrainCounts::default();
    let workload = &cell.workload;
    training_loop(
        cell,
        agent,
        &pretrain_budget(),
        rec,
        &mut counts,
        Layer::Sim,
        |_| LearnedSimulator::new(&simulator, workload, &embs, avg.clone(), connections),
    );
    training_loop(
        cell,
        agent,
        &finetune_budget(),
        rec,
        &mut counts,
        Layer::Dbms,
        |s| ExecutionEngine::new(cell.profile.clone(), workload, s),
    );
    agent.explore = false;
    counts
}

/// The loop of `bq_sched::train_agent_timed` for IQ-PPO, with every round
/// driven through the timing decorators.
fn training_loop<E: bq_core::ExecutorBackend>(
    cell: &Cell,
    agent: &mut BqSchedAgent,
    tc: &TrainingConfig,
    rec: &Recorder,
    counts: &mut TrainCounts,
    layer: Layer,
    mut make_executor: impl FnMut(u64) -> E,
) {
    assert_eq!(
        agent.config.algorithm,
        Algorithm::IqPpo,
        "the recipe trains IQ-PPO"
    );
    let mut trainer = IqPpoTrainer::new(agent.config.rl);
    let mut round_seed = tc.seed;
    for _ in 0..tc.iterations {
        let mut iteration_log: RolloutBuffer<BqObs> = RolloutBuffer::new();
        for _ in 0..tc.ppo_iters {
            let mut buffer: RolloutBuffer<BqObs> = RolloutBuffer::new();
            for _ in 0..tc.rounds_per_iter {
                agent.explore = true;
                let mut executor = TimedBackend::new(make_executor(round_seed), rec, layer);
                round_seed += 1;
                let session = ScheduleSession::builder(&cell.workload)
                    .history(&cell.history)
                    .dbms(DbmsKind::X)
                    .round(round_seed)
                    .build(&mut executor);
                let mut policy = TimedPolicy::new(agent, rec);
                rec.root("rl.rollout", || session.run(&mut policy));
                buffer.extend(agent.take_rollout());
            }
            counts.transitions_per_phase.push(buffer.len());
            rec.call("rl.ppo_phase", || {
                trainer.ppo_phase(&agent.model, &mut agent.store, &buffer)
            });
            iteration_log.extend(buffer);
        }
        rec.call("rl.aux_phase", || {
            trainer.aux_phase(&agent.model, &mut agent.store, &iteration_log)
        });
        agent.explore = false;
        for r in 0..tc.eval_rounds {
            let mut executor = TimedBackend::new(make_executor(10_000 + r), rec, layer);
            let session = ScheduleSession::builder(&cell.workload)
                .history(&cell.history)
                .dbms(DbmsKind::X)
                .round(r)
                .build(&mut executor);
            let mut policy = TimedPolicy::new(agent, rec);
            rec.root("rl.eval", || session.run(&mut policy));
        }
        agent.explore = true;
    }
}

/// Whether two stores hold the same parameters, name by name and bit by bit.
pub fn same_params(a: &ParamStore, b: &ParamStore) -> bool {
    a.len() == b.len()
        && a.iter().zip(b.iter()).all(|((_, pa), (_, pb))| {
            pa.name == pb.name
                && pa.value.rows() == pb.value.rows()
                && pa.value.cols() == pb.value.cols()
                && pa
                    .value
                    .data()
                    .iter()
                    .zip(pb.value.data())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        })
}
