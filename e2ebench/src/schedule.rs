//! Seeded inputs: failure schedules and the fleet's changed-share draw.
//!
//! The workload seed is the only source of variation. The same seed
//! always yields the same schedule, and the program under test receives
//! only the generated schedule.

use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::rng::DetRng;
use simcore::RankId;

/// Faults injected into every failing job.
pub const FAULTS_PER_JOB: usize = 4;

/// Minibatches every training job runs.
pub const JOB_ITERS: u64 = 40;

/// Data-parallel width of the training workloads.
pub const DP: usize = 2;

fn shuffle<T>(rng: &mut DetRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// Fault iterations: the first at 4–8, each next one 8–10 minibatches
/// later, so the last lands before [`JOB_ITERS`].
fn fault_iterations(rng: &mut DetRng) -> Vec<u64> {
    let mut it = 4 + rng.below(5);
    let mut out = Vec::with_capacity(FAULTS_PER_JOB);
    for _ in 0..FAULTS_PER_JOB {
        out.push(it);
        it += 8 + rng.below(3);
    }
    out
}

fn pick<T: Copy>(rng: &mut DetRng, xs: &[T]) -> T {
    xs[rng.below(xs.len() as u64) as usize]
}

/// user-jit: two sticky-CUDA and two hard-GPU faults in seeded order,
/// each at a seeded phase (the optimizer step included) on a seeded
/// rank.
pub fn user_jit(seed: u64) -> Vec<FailureSpec> {
    let mut rng = DetRng::new(seed).derive(0x05e7);
    let mut kinds = [
        FailureKind::StickyCuda,
        FailureKind::StickyCuda,
        FailureKind::GpuHardware,
        FailureKind::GpuHardware,
    ];
    shuffle(&mut rng, &mut kinds);
    let phases = [
        Phase::Forward,
        Phase::Backward,
        Phase::AllReduce,
        Phase::OptimizerStep,
    ];
    fault_iterations(&mut rng)
        .into_iter()
        .zip(kinds)
        .map(|(it, kind)| {
            let phase = pick(&mut rng, &phases);
            let rank = RankId(rng.below(DP as u64) as u32);
            FailureSpec::new(it, phase, rank, kind)
        })
        .collect()
}

/// The four in-place fault classes of transparent-jit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InPlace {
    Transient,
    Driver,
    Sticky,
    RollForward,
}

/// transparent-jit: one fault of each in-place class — transient
/// network, driver corruption, sticky CUDA, and an optimizer-step fault
/// that rolls forward — in seeded order, phase and rank. No hard-GPU
/// faults, so the store is never touched.
pub fn transparent_jit(seed: u64) -> Vec<FailureSpec> {
    let mut rng = DetRng::new(seed).derive(0x7a5);
    let mut classes = [
        InPlace::Transient,
        InPlace::Driver,
        InPlace::Sticky,
        InPlace::RollForward,
    ];
    shuffle(&mut rng, &mut classes);
    let before_step = [Phase::Forward, Phase::Backward, Phase::AllReduce];
    fault_iterations(&mut rng)
        .into_iter()
        .zip(classes)
        .map(|(it, class)| {
            let (kind, phase) = match class {
                InPlace::Transient => (FailureKind::TransientNetwork, pick(&mut rng, &before_step)),
                InPlace::Driver => (FailureKind::DriverCorruption, pick(&mut rng, &before_step)),
                InPlace::Sticky => (FailureKind::StickyCuda, pick(&mut rng, &before_step)),
                InPlace::RollForward => (
                    pick(
                        &mut rng,
                        &[FailureKind::StickyCuda, FailureKind::DriverCorruption],
                    ),
                    Phase::OptimizerStep,
                ),
            };
            let rank = RankId(rng.below(DP as u64) as u32);
            FailureSpec::new(it, phase, rank, kind)
        })
        .collect()
}

/// Share of each state a fleet job rewrites between checkpoints: a
/// seeded permutation of 1/8, 1/4, 1/2 and all of it over the jobs, each
/// scaled by a seeded factor in [0.9, 1.1] and capped at 1. Jobs with a
/// small share touch only an optimizer slice; the last rewrites
/// everything.
pub fn changed_shares(seed: u64, jobs: usize) -> Vec<f64> {
    let mut rng = DetRng::new(seed).derive(0xf1ee7);
    let base = [0.125, 0.25, 0.5, 1.0];
    let mut shares: Vec<f64> = (0..jobs).map(|j| base[j % base.len()]).collect();
    shuffle(&mut rng, &mut shares);
    shares
        .into_iter()
        .map(|s| (s * (0.9 + 0.2 * rng.uniform())).min(1.0))
        .collect()
}

/// Order in which the fleet's restore thread visits jobs.
pub fn restore_order(seed: u64, jobs: usize) -> Vec<usize> {
    let mut rng = DetRng::new(seed).derive(0x4e57);
    let mut order: Vec<usize> = (0..jobs).collect();
    shuffle(&mut rng, &mut order);
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_are_seeded_and_fit_the_job() {
        for seed in 0..50 {
            let u = user_jit(seed);
            assert_eq!(u, user_jit(seed));
            assert_eq!(u.len(), FAULTS_PER_JOB);
            assert!(u.iter().all(|f| f.iteration + 1 < JOB_ITERS));
            let hard = u
                .iter()
                .filter(|f| f.kind == FailureKind::GpuHardware)
                .count();
            assert_eq!(hard, 2);
            let t = transparent_jit(seed);
            assert_eq!(t, transparent_jit(seed));
            assert!(t.iter().all(|f| f.kind != FailureKind::GpuHardware));
            assert_eq!(
                t.iter().filter(|f| f.phase == Phase::OptimizerStep).count(),
                1
            );
        }
        assert_ne!(user_jit(1), user_jit(2));
    }

    #[test]
    fn shares_are_a_scaled_permutation() {
        let s = changed_shares(9, 4);
        assert_eq!(s, changed_shares(9, 4));
        assert!(s.iter().all(|x| *x > 0.1 && *x <= 1.0));
        assert!(s.iter().any(|x| *x == 1.0 || *x > 0.89));
    }
}
