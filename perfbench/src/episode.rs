//! One timed scheduling round, and the check every round must pass.

use bq_core::{EpisodeLog, ExecutorBackend, LeastLoadedRouter, ScheduleSession, SchedulerPolicy};

use crate::timing::{Layer, Recorder, TimedBackend, TimedPolicy};
use crate::train::Cell;

/// Placement of the round's submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// The session's default: the lowest free connection.
    FirstFree,
    /// `LeastLoadedRouter`, for the sharded engine.
    LeastLoaded,
}

/// Run one round of `cell`'s workload on `backend` under `policy`, both
/// wrapped in the timing decorators, as an `episode` root span. The
/// returned seconds cover `ScheduleSession::run` only; building the session
/// is outside them.
pub fn run_episode<B: ExecutorBackend>(
    rec: &Recorder,
    cell: &Cell,
    round: u64,
    placement: Placement,
    backend: B,
    layer: Layer,
    policy: &mut dyn SchedulerPolicy,
) -> (EpisodeLog, f64) {
    let mut backend = TimedBackend::new(backend, rec, layer);
    let mut policy = TimedPolicy::new(policy, rec);
    let builder = ScheduleSession::builder(&cell.workload)
        .history(&cell.history)
        .dbms(cell.profile.kind)
        .round(round);
    let builder = match placement {
        Placement::FirstFree => builder,
        Placement::LeastLoaded => builder.router(LeastLoadedRouter),
    };
    let session = builder.build(&mut backend);
    rec.root("episode", || session.run(&mut policy))
}

/// An episode is correct when every query of the `n`-query workload
/// completed exactly once, the makespan equals the latest finish, and the
/// log is byte-identical to `reference` (when one is given).
pub fn check(log: &EpisodeLog, n: usize, reference: Option<&str>) -> Result<(), String> {
    let mut seen = vec![false; n];
    for record in &log.records {
        let slot = seen
            .get_mut(record.query.0)
            .ok_or_else(|| format!("unknown query {}", record.query.0))?;
        if *slot {
            return Err(format!("query {} completed twice", record.query.0));
        }
        *slot = true;
    }
    if let Some(missing) = seen.iter().position(|done| !done) {
        return Err(format!("query {missing} never completed"));
    }
    let latest = log
        .records
        .iter()
        .map(|r| r.finished_at)
        .fold(f64::NEG_INFINITY, f64::max);
    if log.makespan().to_bits() != latest.to_bits() {
        return Err(format!(
            "makespan {} is not the latest finish {latest}",
            log.makespan()
        ));
    }
    if let Some(reference) = reference {
        if log.to_json() != reference {
            return Err("log differs from the reference log".to_string());
        }
    }
    Ok(())
}
