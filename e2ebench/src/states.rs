//! Job configurations and training states the workloads feed the
//! program.

use dltrain::{JobSetup, ModelConfig, OptimizerKind, RankTrainer, TrainConfig, TrainState};
use proxy::DirectExecutor;
use simcore::cost::CostModel;
use simcore::{GpuId, RankId, SimError, SimResult};
use simgpu::Gpu;

/// The benchmark's model: d = 128, h = 512, four blocks, 16 classes.
fn model() -> ModelConfig {
    ModelConfig {
        input_dim: 128,
        hidden: 512,
        blocks: 4,
        classes: 16,
        phantom_scale: 1.0,
    }
}

/// The training workloads' job: DP = 2 with Adam (~6 MiB of state per
/// rank). The seed drives initialisation and the input data.
pub fn training_config(seed: u64) -> TrainConfig {
    let mut cfg = TrainConfig::tiny_dp(crate::schedule::DP);
    cfg.model = model();
    cfg.optimizer = OptimizerKind::adam(1e-3);
    cfg.batch = 8;
    cfg.seed = seed;
    cfg
}

/// A fleet job's model: the same network with SGD momentum (~4 MiB of
/// state). `dp` sets the layout; fleet jobs persist one replica.
pub fn fleet_config(seed: u64, dp: usize) -> TrainConfig {
    let mut cfg = TrainConfig::tiny_dp(dp);
    cfg.model = model();
    cfg.optimizer = OptimizerKind::sgd(0.05);
    cfg.batch = 8;
    cfg.seed = seed;
    cfg
}

/// Rank 0's freshly initialised state under `cfg`.
pub fn init_state(cfg: &TrainConfig) -> SimResult<TrainState> {
    let cost = CostModel::v100();
    let setup = JobSetup::build(cfg.layout, cost.clone(), cfg.ranks_per_node);
    let exec = DirectExecutor::new(RankId(0), 0, Gpu::new(GpuId(0), cost), setup.world.clone());
    let mut tr = RankTrainer::new(
        exec,
        cfg.clone(),
        &setup.per_rank[0],
        cluster::FailureInjector::none(),
    )?;
    tr.state_snapshot()
}

/// Direct-executor trainers for every rank of `cfg`, each holding
/// `state` when given.
pub fn direct_trainers(
    cfg: &TrainConfig,
    state: Option<&TrainState>,
) -> SimResult<Vec<RankTrainer<DirectExecutor>>> {
    let cost = CostModel::v100();
    let setup = JobSetup::build(cfg.layout, cost.clone(), cfg.ranks_per_node);
    (0..cfg.layout.world_size())
        .map(|i| {
            let exec = DirectExecutor::new(
                RankId(i as u32),
                i,
                Gpu::new(GpuId(i as u32), cost.clone()),
                setup.world.clone(),
            );
            let mut tr = RankTrainer::new(
                exec,
                cfg.clone(),
                &setup.per_rank[i],
                cluster::FailureInjector::none(),
            )?;
            if let Some(s) = state {
                tr.restore(s)?;
            }
            Ok(tr)
        })
        .collect()
}

/// Runs `f` on every trainer, one thread per rank (collectives block
/// until every rank arrives), and returns the results in rank order.
pub fn on_ranks<E, T, F>(trainers: &mut [RankTrainer<E>], f: F) -> SimResult<Vec<T>>
where
    E: proxy::Executor + Send,
    T: Send,
    F: Fn(usize, &mut RankTrainer<E>) -> SimResult<T> + Sync,
{
    std::thread::scope(|s| {
        let handles: Vec<_> = trainers
            .iter_mut()
            .enumerate()
            .map(|(i, tr)| {
                let f = &f;
                s.spawn(move || f(i, tr))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(SimError::Protocol("rank thread panicked".into())))
            })
            .collect()
    })
}

/// Rank 0's state after `iterations` failure-free minibatches: the
/// state every rank holds when the first scheduled fault strikes.
pub fn state_at(cfg: &TrainConfig, iterations: u64) -> SimResult<TrainState> {
    let mut trainers = direct_trainers(cfg, None)?;
    on_ranks(&mut trainers, |_, tr| tr.train(iterations).map(|_| ()))?;
    trainers[0].state_snapshot()
}

/// `base` as of `iteration`: the trailing `share` of its elements (the
/// optimizer slice first, since optimizer state follows the parameters)
/// are rewritten with values that depend on the iteration; the rest is
/// untouched. Deterministic, so a restore can be checked against a
/// regenerated copy.
pub fn evolve(base: &TrainState, share: f64, iteration: u64) -> TrainState {
    let mut state = base.clone();
    state.iteration = iteration;
    state.opt_t = iteration as u32;
    let total: usize = state.buffers.iter().map(|b| b.2.len()).sum();
    let mut budget = (total as f64 * share.clamp(0.0, 1.0)).round() as usize;
    let bump = iteration as f32;
    for (_, _, data) in state.buffers.iter_mut().rev() {
        if budget == 0 {
            break;
        }
        let n = budget.min(data.len());
        let start = data.len() - n;
        for x in &mut data[start..] {
            *x += bump;
        }
        budget -= n;
    }
    state
}

/// Bit-exact equality of two states.
pub fn same_state(a: &TrainState, b: &TrainState) -> bool {
    a.iteration == b.iteration
        && a.opt_t == b.opt_t
        && a.logical_bytes == b.logical_bytes
        && a.buffers.len() == b.buffers.len()
        && a.buffers.iter().zip(&b.buffers).all(|(x, y)| {
            x.0 == y.0
                && x.1 == y.1
                && x.2.len() == y.2.len()
                && x.2
                    .iter()
                    .zip(&y.2)
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Payload bytes of the parameters, which one data-parallel step
/// all-reduces as gradients.
pub fn param_bytes(state: &TrainState) -> u64 {
    state
        .buffers
        .iter()
        .filter(|b| b.1 == simgpu::BufferTag::Param)
        .map(|b| b.2.len() as u64 * 4)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evolve_rewrites_only_the_trailing_share() -> SimResult<()> {
        let base = init_state(&fleet_config(3, 1))?;
        let a = evolve(&base, 0.25, 7);
        assert!(same_state(&a, &evolve(&base, 0.25, 7)));
        assert!(!same_state(&a, &evolve(&base, 0.25, 8)));
        let total: usize = base.buffers.iter().map(|b| b.2.len()).sum();
        let changed: usize = base
            .buffers
            .iter()
            .zip(&a.buffers)
            .map(|(x, y)| {
                x.2.iter()
                    .zip(&y.2)
                    .filter(|(p, q)| p.to_bits() != q.to_bits())
                    .count()
            })
            .sum();
        assert!(
            changed <= total / 4 + 1 && changed > total / 5,
            "{changed} of {total}"
        );
        Ok(())
    }
}
