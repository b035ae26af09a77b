//! Property-based tests for the paper's core: checkpoint-protocol
//! robustness under arbitrary corruption, analytical-model invariants,
//! and recovery correctness under randomized failure coordinates.

use cluster::{FailureInjector, SharedStore};
use dltrain::TrainState;
use jitckpt::analysis::{
    optimal_frequency, wasted_fraction, wasted_rate_jit_transparent, wasted_rate_jit_user,
    wasted_rate_periodic, wasted_rate_periodic_optimal, JobParams,
};
use jitckpt::checkpoint::{self, CkptKind};
use jitckpt::restore::{load_for_rank_parallel, RestoreConfig};
use jitckpt::transparent::run_transparent_job;
use proptest::prelude::*;
use simcore::cost::CostModel;
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::layout::ParallelLayout;
use simcore::{JobId, RankId};
use simgpu::BufferTag;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

static SEQ: Mutex<()> = Mutex::new(());

proptest! {
    #[test]
    fn analysis_c_star_minimizes_wasted_rate(
        o in 0.05f64..120.0,
        f_day in 1e-5f64..0.05,
        r in 0.0f64..300.0,
        n in 1usize..20_000,
        probe in 0.01f64..100.0,
    ) {
        let p = JobParams::new(o, f_day, r, n, 0.5);
        let c_star = optimal_frequency(&p);
        prop_assert!(
            wasted_rate_periodic(&p, c_star) <= wasted_rate_periodic(&p, c_star * probe) + 1e-12
        );
        // Closed form agrees with substitution.
        prop_assert!(
            (wasted_rate_periodic(&p, c_star) - wasted_rate_periodic_optimal(&p)).abs() < 1e-9
        );
    }

    #[test]
    fn jit_dominates_periodic_at_scale(
        o in 0.5f64..60.0,
        r in 0.5f64..60.0,
        m in 0.05f64..5.0,
    ) {
        // For any plausible (o, r, m), by N = 8192 both JIT designs waste
        // less than optimal periodic checkpointing — the paper's Table 8
        // claim, as an invariant.
        let f_day = 2.0 / 992.0;
        let p = JobParams::new(o, f_day, r, 8192, m);
        let periodic = wasted_rate_periodic_optimal(&p);
        prop_assert!(wasted_rate_jit_user(&p, 0.0) < periodic);
        prop_assert!(wasted_rate_jit_transparent(&p, 0.0) < periodic);
    }

    #[test]
    fn wasted_fraction_is_bounded_and_monotone(w1 in 0.0f64..1e6, w2 in 0.0f64..1e6) {
        let f1 = wasted_fraction(w1);
        let f2 = wasted_fraction(w2);
        prop_assert!((0.0..1.0).contains(&f1));
        if w1 < w2 {
            prop_assert!(f1 <= f2);
        }
    }

    #[test]
    fn checkpoint_protocol_rejects_arbitrary_corruption(
        data in proptest::collection::vec(any::<f32>(), 1..128),
        it in 0u64..1000,
        flip in any::<proptest::sample::Index>(),
        bit in 0u8..8,
    ) {
        let store = SharedStore::new();
        let state = TrainState {
            iteration: it,
            opt_t: it as u32,
            buffers: vec![("w".into(), BufferTag::Param, data)],
            logical_bytes: 64,
        };
        checkpoint::write_checkpoint(&store, JobId(0), CkptKind::Jit, RankId(0), 0, 0, 0, &state)
            .unwrap();
        // Small states fit in one shard at the default shard size; flip a
        // bit anywhere in that shard object.
        let path = checkpoint::shard_path(JobId(0), CkptKind::Jit, it, 0, 0, 0, 0);
        let raw = store.get(&path).unwrap();
        let mut bad = raw.to_vec();
        let i = flip.index(bad.len());
        bad[i] ^= 1 << bit;
        let changed = bad != raw.to_vec();
        store.put(&path, bytes::Bytes::from(bad)).unwrap();
        let res = checkpoint::read_checkpoint(&store, JobId(0), CkptKind::Jit, it, 0, 0, 0);
        if changed {
            prop_assert!(res.is_err(), "corruption must not decode cleanly");
        }
    }
}

proptest! {
    // Cheap cases (a few KiB of in-memory checkpoints each); many of
    // them so multi-cell layouts often keep a valid common iteration.
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn assembly_always_picks_a_complete_common_iteration(
        cells in proptest::collection::vec(
            proptest::collection::vec(
                (
                    0..ITERATIONS,
                    any::<bool>(),
                    proptest::sample::select(TEARS.to_vec()),
                    proptest::sample::select(REPLICAS.to_vec()),
                ),
                1..6,
            ),
            1..4,
        ),
        pick in any::<proptest::sample::Index>(),
    ) {
        // Arbitrary per-cell iterations of either kind, some with a
        // second dp replica, each replica torn one way or not at all.
        // Assembly must return the newest iteration valid in every cell,
        // read from the candidate an exhaustive scan prefers, or fail
        // when no iteration is valid everywhere.
        let store = SharedStore::new();
        let pp = cells.len();
        let layout = ParallelLayout::three_d(2, pp, 1);
        let job = JobId(0);
        let mut writes: BTreeMap<(usize, CkptKind, usize, u64), Tear> = BTreeMap::new();
        for (stage, entries) in cells.iter().enumerate() {
            for &(it, periodic, tear, replica) in entries {
                let kind = if periodic { CkptKind::Periodic } else { CkptKind::Jit };
                writes.insert((stage, kind, 0, it), tear);
                if let Some(tear) = replica {
                    writes.insert((stage, kind, 1, it), tear);
                }
            }
        }
        // Ascending iterations per (cell, kind, dp): each write takes the
        // one before as its delta base. Tears come after every write.
        for &(stage, kind, dp, it) in writes.keys() {
            checkpoint::write_checkpoint_with(
                &store, job, kind, RankId(0), stage, 0, dp, &tear_state(stage, it), &TINY_SHARDS,
            ).unwrap();
        }
        for (&(stage, kind, dp, it), &tear) in &writes {
            tear_checkpoint(&store, (stage, kind, dp, it), tear);
            if matches!(tear, Tear::FlipByte | Tear::DeleteShard | Tear::SidecarOnly) {
                let read = checkpoint::read_checkpoint(&store, job, kind, it, stage, 0, dp);
                prop_assert!(read.is_err(), "{tear:?} left it {it} of s{stage} dp{dp} valid");
            }
        }

        // The exhaustive oracle, through the serial reader: per cell and
        // iteration the first valid candidate, JIT before periodic, then
        // replica order; then the newest iteration valid in every cell.
        let first_valid = |stage: usize, it: u64| {
            [CkptKind::Jit, CkptKind::Periodic].into_iter().find_map(|kind| {
                (0..2usize)
                    .find(|&dp| checkpoint::read_checkpoint(&store, job, kind, it, stage, 0, dp).is_ok())
                    .map(|dp| (dp, kind))
            })
        };
        let best = (0..ITERATIONS).rev().find(|&it| (0..pp).all(|stage| first_valid(stage, it).is_some()));
        let rank = RankId(pick.index(layout.world_size()) as u32);
        let coord = layout.coord(rank);
        let loaded = load_for_rank_parallel(&store, job, &layout, rank, &RestoreConfig::default());
        match (checkpoint::assemble(&store, job, &layout), best) {
            (Ok(plan), Some(it)) => {
                for stage in 0..pp {
                    let (dp, kind) = first_valid(stage, it).unwrap();
                    let want = checkpoint::CellChoice { iteration: it, dp, kind };
                    prop_assert_eq!(plan[&(stage, 0)], want);
                }
                let choice = plan[&(coord.stage, coord.part)];
                let (want_state, want_meta) = checkpoint::read_checkpoint(
                    &store, job, choice.kind, it, coord.stage, coord.part, choice.dp,
                ).unwrap();
                let (state, meta, stats) = loaded.unwrap();
                prop_assert_eq!(state, want_state);
                prop_assert_eq!(stats.shard_reads, meta.shards.len() as u64);
                prop_assert_eq!(meta, want_meta);
            }
            (Err(e), None) => {
                let none = format!("no iteration has a complete checkpoint for every cell of {job}");
                prop_assert!(e.to_string().contains(&none), "{e}");
                prop_assert_eq!(loaded.unwrap_err().to_string(), e.to_string());
            }
            (Ok(plan), None) => prop_assert!(false, "assembled {plan:?} with no valid common iteration"),
            (Err(e), Some(it)) => prop_assert!(false, "failed ({e}) though iteration {it} is valid everywhere"),
        }
    }
}

/// How a property case damages one written checkpoint replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tear {
    None,
    /// One of the checkpoint's own shard objects has a flipped byte.
    FlipByte,
    /// One of its own shard objects is gone.
    DeleteShard,
    /// An object it reads through a delta reference is gone (no-op
    /// when it references none).
    DeleteBase,
    /// The sidecar landed but none of the shards did.
    SidecarOnly,
}

/// Iterations a property case writes, from 0.
const ITERATIONS: u64 = 5;

/// Tears for a first replica; untorn is three times as likely as each
/// tear, so multi-cell cases still share valid iterations.
const TEARS: [Tear; 7] = [
    Tear::None,
    Tear::None,
    Tear::None,
    Tear::FlipByte,
    Tear::DeleteShard,
    Tear::DeleteBase,
    Tear::SidecarOnly,
];

/// A second dp replica: absent, or written with a tear.
const REPLICAS: [Option<Tear>; 6] = [
    None,
    Some(Tear::None),
    Some(Tear::FlipByte),
    Some(Tear::DeleteShard),
    Some(Tear::DeleteBase),
    Some(Tear::SidecarOnly),
];

/// Shards small enough that one state spans several and most of them
/// carry over unchanged, as delta references, between iterations.
const TINY_SHARDS: checkpoint::ShardConfig = checkpoint::ShardConfig {
    shard_bytes: 16,
    workers: 1,
    delta: true,
    max_delta_chain: checkpoint::DEFAULT_MAX_DELTA_CHAIN,
};

fn tear_state(stage: usize, it: u64) -> TrainState {
    TrainState {
        iteration: it,
        opt_t: it as u32,
        buffers: vec![
            ("w".into(), BufferTag::Param, vec![stage as f32 + 1.0; 24]),
            ("m".into(), BufferTag::OptimState, vec![it as f32; 2]),
        ],
        logical_bytes: 104,
    }
}

fn tear_checkpoint(
    store: &SharedStore,
    (stage, kind, dp, it): (usize, CkptKind, usize, u64),
    tear: Tear,
) {
    let job = JobId(0);
    let meta = checkpoint::read_meta(store, job, kind, it, stage, 0, dp).unwrap();
    let own = meta
        .shards
        .iter()
        .find(|s| s.base_iteration.is_none())
        .unwrap();
    let own_path = checkpoint::shard_path(job, kind, it, stage, 0, dp, own.index);
    match tear {
        Tear::None => {}
        Tear::FlipByte => store.corrupt(&own_path).unwrap(),
        Tear::DeleteShard => store.delete(&own_path),
        Tear::DeleteBase => {
            if let Some(s) = meta.shards.iter().find(|s| s.base_iteration.is_some()) {
                let base = s.base_iteration.unwrap();
                store.delete(checkpoint::shard_path(
                    job, kind, base, stage, 0, dp, s.index,
                ));
            }
        }
        Tear::SidecarOnly => {
            let prefix = checkpoint::checkpoint_prefix(job, kind, it, stage, 0, dp);
            for path in store.list(&prefix) {
                if !path.ends_with("/meta") {
                    store.delete(&path);
                }
            }
        }
    }
}

proptest! {
    // Full end-to-end recovery under randomized failure coordinates is
    // expensive (threads + watchdogs); keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn transparent_recovery_is_exact_for_random_failure_coordinates(
        iteration in 1u64..6,
        phase_idx in 0usize..4,
        victim in 0u32..2,
        kind_idx in 0usize..4,
    ) {
        let _guard = SEQ.lock().unwrap_or_else(|e| e.into_inner());
        let phases = [Phase::Forward, Phase::Backward, Phase::AllReduce, Phase::OptimizerStep];
        let kinds = [
            FailureKind::TransientNetwork,
            FailureKind::DriverCorruption,
            FailureKind::StickyCuda,
            FailureKind::GpuHardware,
        ];
        // Transient network faults only manifest at collectives.
        prop_assume!(!(kind_idx == 0 && phase_idx != 2));
        let cfg = dltrain::TrainConfig::tiny_dp(2);
        let iters = 8;
        let clean = run_transparent_job(
            cfg.clone(),
            CostModel::v100(),
            FailureInjector::none(),
            Arc::new(SharedStore::new()),
            iters,
        ).unwrap().losses;
        let injector = FailureInjector::with_specs(vec![FailureSpec::new(
            iteration, phases[phase_idx], RankId(victim), kinds[kind_idx],
        )]);
        let out = run_transparent_job(
            cfg,
            CostModel::v100(),
            injector,
            Arc::new(SharedStore::new()),
            iters,
        ).unwrap();
        prop_assert_eq!(out.rounds, 1);
        for (a, b) in clean.iter().zip(&out.losses) {
            for (x, y) in a.iter().zip(b) {
                prop_assert!(x.to_bits() == y.to_bits(), "{x} vs {y}");
            }
        }
    }
}
