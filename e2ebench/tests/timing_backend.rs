//! The timing wrapper must be invisible to the program: restores through
//! it fetch the same shards with the same pool width and return the same
//! bytes as restores from the bare backend.

use bytes::Bytes;
use cluster::StorageBackend;
use coordinator::ObjectStoreProfile;
use e2ebench::backend::TimingBackend;
use e2ebench::probe::{new_backend, shard_config, StoreKind};
use e2ebench::states;
use jitckpt::checkpoint::{self, CkptKind};
use jitckpt::{load_for_rank_parallel, RestoreConfig, RestoreStats};
use simcore::{JobId, RankId, SimResult};
use std::sync::Arc;

fn write_and_restore(
    backend: &dyn StorageBackend,
    state: &dltrain::TrainState,
) -> SimResult<(dltrain::TrainState, RestoreStats)> {
    let job = JobId(7);
    let shards = shard_config().auto_sized_for(state);
    checkpoint::write_checkpoint_with(
        backend,
        job,
        CkptKind::Jit,
        RankId(0),
        0,
        0,
        0,
        state,
        &shards,
    )?;
    let next = states::evolve(state, 0.25, state.iteration + 1);
    checkpoint::write_checkpoint_with(
        backend,
        job,
        CkptKind::Jit,
        RankId(0),
        0,
        0,
        0,
        &next,
        &shards,
    )?;
    let (got, _, stats) = load_for_rank_parallel(
        backend,
        job,
        &simcore::layout::ParallelLayout::data_parallel(1),
        RankId(0),
        &RestoreConfig::default(),
    )?;
    assert!(
        states::same_state(&got, &next),
        "restore must return the newest state"
    );
    Ok((got, stats))
}

#[test]
fn wrapped_and_bare_backends_restore_identically() -> SimResult<()> {
    let state = states::init_state(&states::fleet_config(5, 1))?;
    for kind in [StoreKind::Mem, StoreKind::Object] {
        let bare = new_backend(kind);
        let wrapped = TimingBackend::new(new_backend(kind));
        let (a, sa) = write_and_restore(bare.as_ref(), &state)?;
        let (b, sb) = write_and_restore(wrapped.as_ref(), &state)?;
        assert_eq!(sa, sb, "{kind:?}: restore stats differ through the wrapper");
        assert!(
            states::same_state(&a, &b),
            "{kind:?}: restored bytes differ"
        );
        assert_eq!(bare.read_parallelism(), wrapped.read_parallelism());
        assert_eq!(bare.read_count(), wrapped.read_count());
        assert_eq!(bare.list_count(), wrapped.list_count());
        assert_eq!(bare.fallback_reads(), wrapped.fallback_reads());
        assert_eq!(bare.object_count(), wrapped.object_count());
        assert_eq!(bare.kind(), wrapped.kind());
        let c = wrapped.counts();
        assert!(c.puts > 0 && c.gets > 0 && c.bytes_get > 0, "{c:?}");
    }
    Ok(())
}

/// A wrapper that forwards only the required methods: the trait's
/// default `read_parallelism()` of 1 silently narrows the restore pool.
struct RequiredOnly(Arc<dyn StorageBackend>);

impl StorageBackend for RequiredOnly {
    fn put(&self, path: &str, data: Bytes) -> SimResult<()> {
        self.0.put(path, data)
    }
    fn get(&self, path: &str) -> SimResult<Bytes> {
        self.0.get(path)
    }
    fn exists(&self, path: &str) -> bool {
        self.0.exists(path)
    }
    fn delete(&self, path: &str) {
        self.0.delete(path)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.0.list(prefix)
    }
    fn delete_prefix(&self, prefix: &str) -> usize {
        self.0.delete_prefix(prefix)
    }
    fn read_count(&self) -> u64 {
        self.0.read_count()
    }
    fn object_count(&self) -> usize {
        self.0.object_count()
    }
    fn kind(&self) -> &'static str {
        self.0.kind()
    }
}

#[test]
fn a_wrapper_that_skips_read_parallelism_measures_another_program() -> SimResult<()> {
    let state = states::init_state(&states::fleet_config(5, 1))?;
    let profile = ObjectStoreProfile::instant();
    let bare: Arc<dyn StorageBackend> = Arc::new(coordinator::SimObjectStore::new(profile.clone()));
    let skipping = RequiredOnly(Arc::new(coordinator::SimObjectStore::new(profile)));
    let (_, full) = write_and_restore(bare.as_ref(), &state)?;
    let (_, narrow) = write_and_restore(&skipping, &state)?;
    assert!(full.fetchers > 1, "{full:?}");
    assert_eq!(narrow.fetchers, 1, "{narrow:?}");
    Ok(())
}
