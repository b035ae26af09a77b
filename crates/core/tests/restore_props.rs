//! Property-based equivalence of the parallel restore plane and the
//! serial reader: across random shard sizes, delta depths, pool widths,
//! and injected faults (lost, torn, bit-rotted, slow shards), the
//! parallel path must return bit-identical state and metadata on
//! success and the *same error text* on failure — including the
//! aggregated blame that names every bad shard by index.

use bytes::Bytes;
use cluster::{SharedStore, StorageBackend};
use dltrain::TrainState;
use jitckpt::checkpoint::{self, CkptKind, ShardConfig};
use jitckpt::restore::{load_for_rank_parallel, read_checkpoint_parallel, RestoreConfig};
use proptest::prelude::*;
use simcore::layout::ParallelLayout;
use simcore::{JobId, RankId, SimResult};
use simgpu::BufferTag;
use std::collections::BTreeSet;
use std::time::Duration;

fn state_from(data: Vec<f32>, it: u64) -> TrainState {
    TrainState {
        iteration: it,
        opt_t: it as u32,
        buffers: vec![("w".into(), BufferTag::Param, data)],
        logical_bytes: 64,
    }
}

fn cfg(shard_bytes: usize, workers: usize) -> ShardConfig {
    ShardConfig {
        shard_bytes,
        workers,
        delta: true,
        ..ShardConfig::default()
    }
}

fn write(store: &SharedStore, s: &TrainState, c: &ShardConfig) {
    checkpoint::write_checkpoint_with(store, JobId(0), CkptKind::Jit, RankId(0), 0, 0, 0, s, c)
        .unwrap();
}

fn serial_read(
    store: &SharedStore,
    it: u64,
) -> SimResult<(TrainState, checkpoint::CheckpointMeta)> {
    checkpoint::read_checkpoint(store, JobId(0), CkptKind::Jit, it, 0, 0, 0)
}

fn parallel_read<S: StorageBackend + ?Sized>(
    store: &S,
    it: u64,
    fetchers: usize,
) -> SimResult<(
    TrainState,
    checkpoint::CheckpointMeta,
    jitckpt::RestoreStats,
)> {
    read_checkpoint_parallel(
        store,
        JobId(0),
        CkptKind::Jit,
        it,
        0,
        0,
        0,
        &RestoreConfig { fetchers },
    )
}

fn bits(s: &TrainState) -> Vec<(String, Vec<u32>)> {
    s.buffers
        .iter()
        .map(|(k, _, d)| (k.clone(), d.iter().map(|f| f.to_bits()).collect()))
        .collect()
}

/// A store whose reads complete in deliberately scrambled order: each
/// `get` sleeps a path-hash-dependent sliver, so the fetch pool's
/// deposits arrive out of index order and the fan-in's in-order wait
/// actually has to reorder. Reports a wide read-parallelism hint so the
/// pool runs many fetchers.
struct ScrambledStore {
    inner: SharedStore,
}

impl StorageBackend for ScrambledStore {
    fn put(&self, path: &str, data: Bytes) -> SimResult<()> {
        self.inner.put(path, data)
    }

    fn get(&self, path: &str) -> SimResult<Bytes> {
        let jitter = path.bytes().map(|b| b as u64).sum::<u64>() % 7;
        // Real sleep, test-only: models external store latency so shard
        // completions land out of index order.
        std::thread::sleep(Duration::from_micros(jitter * 50));
        self.inner.get(path)
    }

    fn exists(&self, path: &str) -> bool {
        self.inner.exists(path)
    }

    fn delete(&self, path: &str) {
        self.inner.delete(path)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn delete_prefix(&self, prefix: &str) -> usize {
        self.inner.delete_prefix(prefix)
    }

    fn read_count(&self) -> u64 {
        self.inner.read_count()
    }

    fn object_count(&self) -> usize {
        self.inner.len()
    }

    fn read_parallelism(&self) -> usize {
        8
    }

    fn kind(&self) -> &'static str {
        "scrambled"
    }
}

/// Which fault the current case injects into one victim shard.
#[derive(Debug, Clone, Copy)]
enum Fault {
    None,
    Lost,
    Torn,
    Rotted,
}

fn fault_strategy() -> impl Strategy<Value = Fault> {
    prop_oneof![
        Just(Fault::None),
        Just(Fault::Lost),
        Just(Fault::Torn),
        Just(Fault::Rotted),
    ]
}

proptest! {
    /// The core equivalence: whatever the serial reader does — succeed
    /// bit-identically or fail with a specific blame — the parallel
    /// plane does the same, across shard geometry × delta depth × pool
    /// width × injected fault.
    #[test]
    fn parallel_is_bit_and_error_identical_to_serial(
        data in proptest::collection::vec(-100.0f32..100.0, 16..192),
        shard_bytes in 16usize..256,
        depth in 0usize..3,
        fetchers in 1usize..9,
        fault in fault_strategy(),
        victim in any::<proptest::sample::Index>(),
        touch in any::<proptest::sample::Index>(),
    ) {
        let store = SharedStore::new();
        let mut s = state_from(data, 7);
        let c = cfg(shard_bytes, 2);
        write(&store, &s, &c);
        // Optional delta chain on top: each step perturbs one element,
        // so most shards become base references.
        for d in 0..depth {
            let i = touch.index(s.buffers[0].2.len());
            s.buffers[0].2[i] += 1.0 + d as f32;
            s.iteration += 1;
            s.opt_t += 1;
            write(&store, &s, &c);
        }
        let tip = s.iteration;
        let meta = checkpoint::read_meta(&store, JobId(0), CkptKind::Jit, tip, 0, 0, 0).unwrap();

        // Inject the fault into the victim shard's *physical* object
        // (its base holder when the tip references one).
        if !matches!(fault, Fault::None) {
            let idx = victim.index(meta.shards.len());
            let sm = &meta.shards[idx];
            let holder = sm.base_iteration.unwrap_or(tip);
            let path = checkpoint::shard_path(
                JobId(0), CkptKind::Jit, holder, 0, 0, 0, sm.index,
            );
            match fault {
                Fault::None => unreachable!(),
                Fault::Lost => store.delete(&path),
                Fault::Torn => {
                    let obj = store.get(&path).unwrap();
                    prop_assume!(obj.len() > 1);
                    store.put(&path, obj.slice(..obj.len() / 2)).unwrap();
                }
                Fault::Rotted => store.corrupt(&path).unwrap(),
            }
        }

        let serial = serial_read(&store, tip);
        let parallel = parallel_read(&store, tip, fetchers);
        match (serial, parallel) {
            (Ok((ss, sm)), Ok((ps, pm, stats))) => {
                prop_assert_eq!(bits(&ss), bits(&ps));
                prop_assert_eq!(sm, pm.clone());
                prop_assert_eq!(stats.shards, pm.shards.len());
                prop_assert_eq!(stats.shard_reads, pm.shards.len() as u64);
            }
            (Err(se), Err(pe)) => {
                prop_assert_eq!(format!("{se}"), format!("{pe}"));
            }
            (s, p) => prop_assert!(
                false,
                "serial and parallel disagree on success: serial={s:?} parallel={p:?}"
            ),
        }
    }

    /// Multi-fault blame: rot a whole random subset of shards; the
    /// aggregated error must name *every* victim by index (and match
    /// the serial text exactly).
    #[test]
    fn every_bad_shard_is_named_by_index(
        data in proptest::collection::vec(any::<f32>(), 64..192),
        victims in proptest::collection::vec(any::<proptest::sample::Index>(), 1..5),
        fetchers in 1usize..9,
    ) {
        let store = SharedStore::new();
        let s = state_from(data, 7);
        write(&store, &s, &cfg(64, 2));
        let meta = checkpoint::read_meta(&store, JobId(0), CkptKind::Jit, 7, 0, 0, 0).unwrap();
        let idxs: BTreeSet<u32> = victims
            .iter()
            .map(|v| v.index(meta.shards.len()) as u32)
            .collect();
        for &idx in &idxs {
            store
                .corrupt(checkpoint::shard_path(JobId(0), CkptKind::Jit, 7, 0, 0, 0, idx))
                .unwrap();
        }
        let serial = serial_read(&store, 7).unwrap_err();
        let parallel = parallel_read(&store, 7, fetchers).unwrap_err();
        let msg = format!("{parallel}");
        prop_assert_eq!(format!("{serial}"), msg.clone());
        for idx in idxs.iter() {
            prop_assert!(
                msg.contains(&format!("shard {idx}: checksum mismatch")),
                "blame must name shard {idx}: {msg}"
            );
        }
        prop_assert!(
            msg.contains(&format!("{} of {} shards invalid", idxs.len(), meta.shards.len())),
            "{msg}"
        );
    }

    /// Out-of-order arrival: a store whose per-object latency scrambles
    /// completion order still reassembles bit-identically, because the
    /// fan-in consumes slots strictly by index.
    #[test]
    fn scrambled_arrival_order_is_reassembled_bit_identically(
        data in proptest::collection::vec(any::<f32>(), 32..160),
        shard_bytes in 16usize..128,
        fetchers in 2usize..9,
    ) {
        let scrambled = ScrambledStore { inner: SharedStore::new() };
        let s = state_from(data, 7);
        checkpoint::write_checkpoint_with(
            &scrambled, JobId(0), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &cfg(shard_bytes, 2),
        ).unwrap();
        let (back, meta, stats) = parallel_read(&scrambled, 7, fetchers).unwrap();
        prop_assert_eq!(bits(&back), bits(&s));
        prop_assert_eq!(stats.shard_reads, meta.shards.len() as u64);
    }
}

/// A restore reads what it returns once and nothing older. With several
/// valid iterations stored, `load_for_rank_parallel` costs the newest
/// checkpoint's shard gets plus its sidecar get. With the newest torn,
/// it costs that candidate's read plus one good read of the next.
#[test]
fn restore_reads_only_the_newest_valid_checkpoint() -> SimResult<()> {
    let store = SharedStore::new();
    let layout = ParallelLayout::data_parallel(1);
    for it in 1..=4 {
        write(&store, &state_from(vec![it as f32; 48], it), &cfg(32, 2));
    }
    let cost = |it: u64| -> SimResult<u64> {
        let meta = checkpoint::read_meta(&store, JobId(0), CkptKind::Jit, it, 0, 0, 0)?;
        Ok(meta.shards.len() as u64 + 1)
    };
    let (newest, next) = (cost(4)?, cost(3)?);
    assert!(newest > 2, "want a multi-shard checkpoint");
    let load = || {
        let before = store.read_count();
        let cfg = RestoreConfig::default();
        let (state, _, stats) = load_for_rank_parallel(&store, JobId(0), &layout, RankId(0), &cfg)?;
        SimResult::Ok((
            state.iteration,
            stats.shard_reads,
            store.read_count() - before,
        ))
    };

    assert_eq!(load()?, (4, newest - 1, newest));

    store.corrupt(checkpoint::shard_path(
        JobId(0),
        CkptKind::Jit,
        4,
        0,
        0,
        0,
        1,
    ))?;
    assert_eq!(load()?, (3, next - 1, newest + next));
    Ok(())
}
