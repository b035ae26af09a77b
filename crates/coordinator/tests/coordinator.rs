//! Coordinator lifecycle: placement balance and epoch rebalancing,
//! object-store fault semantics, multi-job admission, retention GC with
//! delta-base pinning, departure purge, and per-job gate isolation.

use bytes::Bytes;
use cluster::{SharedStore, StorageBackend};
use coordinator::{
    Coordinator, CoordinatorConfig, JobSpec, ObjectStoreProfile, PlacedStore, SimObjectStore,
};
use dltrain::TrainState;
use jitckpt::checkpoint::{self, CkptKind, ShardConfig};
use simcore::layout::ParallelLayout;
use simcore::sync::{Condvar, Mutex};
use simcore::{JobId, RankId, SimResult};
use simgpu::BufferTag;
use std::sync::Arc;

fn state(it: u64, elems: usize, v: f32) -> TrainState {
    TrainState {
        iteration: it,
        opt_t: it as u32,
        buffers: vec![("w".into(), BufferTag::Param, vec![v; elems])],
        logical_bytes: (elems * 4) as u64,
    }
}

fn small_shards() -> ShardConfig {
    ShardConfig {
        shard_bytes: 256,
        workers: 2,
        delta: true,
        ..ShardConfig::default()
    }
}

fn mem_nodes(n: usize) -> Vec<Arc<dyn StorageBackend>> {
    (0..n)
        .map(|_| Arc::new(SharedStore::new()) as Arc<dyn StorageBackend>)
        .collect()
}

/// Consistent hashing spreads many objects across every node, and no
/// node hoards the keyspace.
#[test]
fn placement_spreads_objects_across_nodes() -> SimResult<()> {
    let placed = PlacedStore::new(mem_nodes(4));
    for i in 0..400 {
        placed.put(&format!("obj/{i:04}"), Bytes::from(vec![i as u8; 8]))?;
    }
    let counts = placed.node_object_counts();
    assert_eq!(counts.len(), 4);
    assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), 400);
    for (slot, c) in counts {
        assert!(
            (40..=220).contains(&c),
            "node {slot} holds {c} of 400 — spread is broken"
        );
    }
    assert_eq!(placed.list("obj/").len(), 400);
    Ok(())
}

/// Adding a node starts a new epoch; objects written before the change
/// stay readable through ring history, repair migrates the stragglers
/// home, and reads work identically after repair.
#[test]
fn rebalance_keeps_old_objects_readable_and_repair_migrates() -> SimResult<()> {
    let placed = PlacedStore::new(mem_nodes(3));
    let epoch0 = placed.epoch();
    let payload = |i: usize| Bytes::from(format!("payload-{i}"));
    for i in 0..200 {
        placed.put(&format!("obj/{i:04}"), payload(i))?;
    }

    placed.add_node(Arc::new(SharedStore::new()));
    assert_eq!(placed.epoch(), epoch0 + 1);
    assert_eq!(placed.live_nodes(), 4);

    // Every pre-rebalance object still readable via ring history.
    for i in 0..200 {
        assert_eq!(placed.get(&format!("obj/{i:04}"))?, payload(i), "obj {i}");
    }

    // Repair moves only the re-homed fraction (~1/4), not everything.
    let moved = placed.repair("obj/");
    assert!(moved > 0, "a 3→4 rebalance must re-home something");
    assert!(moved < 150, "moved {moved} of 200 — far more than ~1/N");

    // After repair every object reads from its current-ring home.
    for i in 0..200 {
        assert_eq!(placed.get(&format!("obj/{i:04}"))?, payload(i));
    }
    assert_eq!(placed.object_count(), 200, "repair must move, not copy");
    Ok(())
}

/// Object-store faults: a silently lost put leaves no object, a torn
/// put stores truncated bytes the CRC protocol rejects, and the loss
/// counter reports what happened.
#[test]
fn object_store_faults_are_injected_and_detected() -> SimResult<()> {
    let os = SimObjectStore::new(ObjectStoreProfile::instant());

    os.lose_next_put_matching("a/");
    os.put("a/gone", Bytes::from_static(b"vanishes"))?; // acknowledged
    assert!(!os.exists("a/gone"), "lost put must leave no object");
    assert_eq!(os.lost_puts(), 1);

    os.put("a/kept", Bytes::from_static(b"stays"))?;
    assert_eq!(os.get("a/kept")?, Bytes::from_static(b"stays"));

    os.tear_next_put_matching("b/", 0.5);
    os.put("b/torn", Bytes::from_static(b"12345678"))?;
    assert_eq!(os.get("b/torn")?.len(), 4, "torn write stores a prefix");

    // A whole checkpoint written over the faulty backend: tear one
    // shard, the validating reader must reject that iteration.
    let cfg = small_shards();
    let s = state(3, 200, 1.25);
    os.tear_next_put_matching("ckpt/", 0.25);
    checkpoint::write_checkpoint_with(&os, JobId(7), CkptKind::Jit, RankId(0), 0, 0, 0, &s, &cfg)?;
    assert!(
        checkpoint::read_checkpoint(&os, JobId(7), CkptKind::Jit, 3, 0, 0, 0).is_err(),
        "CRC validation must reject the torn shard"
    );
    Ok(())
}

/// Full multi-job lifecycle over a placed fleet: admit, write-behind
/// checkpoints from several jobs, retention GC respects delta pinning,
/// departure purges only the departing job.
#[test]
fn multi_job_lifecycle_with_retention_and_departure() -> SimResult<()> {
    let placed: Arc<dyn StorageBackend> = Arc::new(PlacedStore::new(mem_nodes(4)));
    let coord = Coordinator::new(placed, CoordinatorConfig::default());

    let spec = JobSpec {
        ranks: 2,
        shards: small_shards(),
        keep_checkpoints: 2,
        inflight_budget_bytes: 1 << 20,
    };
    let a = coord.admit(spec.clone());
    let b = coord.admit(spec);
    assert_eq!(coord.active_jobs(), 2);
    assert_ne!(a.job(), b.job());

    // Job A: 6 generations, mutating state each time (delta chains form
    // and are capped); job B: 3 generations.
    for it in 1..=6 {
        let t = a.submit_checkpoint(
            CkptKind::Jit,
            RankId(0),
            0,
            0,
            0,
            &state(it, 200, it as f32),
        );
        t.wait()?;
        a.gc(CkptKind::Jit);
    }
    for it in 1..=3 {
        b.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(it, 150, 2.0))
            .wait()?;
    }
    b.drain()?;

    // Retention on A: newest 2 iterations plus any delta-pinned bases
    // survive; iteration 1 must be gone by now.
    let a_prefix = checkpoint::job_prefix(a.job(), CkptKind::Jit);
    let left = a.backend().list(&a_prefix);
    assert!(
        !left.iter().any(|p| p.contains("it0000000001")),
        "iteration 1 outlived retention: {left:?}"
    );
    // The newest retained checkpoint still reads back bit-identically
    // (GC must never break a delta chain it retained).
    let (got, _) = checkpoint::read_checkpoint(a.backend(), a.job(), CkptKind::Jit, 6, 0, 0, 0)?;
    assert_eq!(got, state(6, 200, 6.0));

    // B departs with purge; A's objects are untouched.
    let b_job = b.job();
    let purged = coord.depart(b_job, true)?;
    assert!(purged > 0);
    assert_eq!(coord.active_jobs(), 1);
    assert!(coord
        .backend()
        .list(&checkpoint::job_prefix(b_job, CkptKind::Jit))
        .is_empty());
    let (still, _) = checkpoint::read_checkpoint(a.backend(), a.job(), CkptKind::Jit, 6, 0, 0, 0)?;
    assert_eq!(still, state(6, 200, 6.0));
    Ok(())
}

/// GC keeps an iteration outside the retention window while a retained
/// sidecar still references it as a delta base, then collects it once
/// the chain cap forces a full write.
#[test]
fn gc_pins_delta_bases_until_chain_breaks() -> SimResult<()> {
    let backend: Arc<dyn StorageBackend> = Arc::new(SharedStore::new());
    let coord = Coordinator::new(backend, CoordinatorConfig::default());
    let sess = coord.admit(JobSpec {
        shards: ShardConfig {
            max_delta_chain: 8,
            ..small_shards()
        },
        keep_checkpoints: 1,
        ..JobSpec::default()
    });

    // Identical buffers every iteration ⇒ all shards delta back to the
    // bytes written at iteration 1.
    for it in 1..=4 {
        sess.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(it, 200, 1.0))
            .wait()?;
    }
    let deleted = sess.gc(CkptKind::Jit);
    let prefix = checkpoint::job_prefix(sess.job(), CkptKind::Jit);
    let left = sess.backend().list(&prefix);
    assert!(
        left.iter().any(|p| p.contains("it0000000001")),
        "iteration 1 holds the delta bytes — GC must pin it (deleted {deleted}): {left:?}"
    );
    // The retained head must read back whole after GC.
    let (got, meta) =
        checkpoint::read_checkpoint(sess.backend(), sess.job(), CkptKind::Jit, 4, 0, 0, 0)?;
    assert_eq!(got, state(4, 200, 1.0));
    assert!(meta.delta_depth > 0, "head should still be a delta");
    Ok(())
}

/// A store that parks the sidecar puts of held iterations, so a test can
/// keep checkpoints in flight, their shards already uploaded, until it
/// releases them.
#[derive(Default)]
struct HeldSidecars {
    inner: SharedStore,
    /// (held iterations, sidecar puts parked).
    gate: Mutex<(Vec<u64>, usize)>,
    changed: Condvar,
}

impl HeldSidecars {
    fn hold(&self, iterations: &[u64]) {
        let mut gate = self.gate.lock();
        gate.0 = iterations.to_vec();
        self.changed.notify_all();
    }

    fn wait_parked(&self, n: usize) {
        let mut gate = self.gate.lock();
        while gate.1 < n {
            self.changed.wait(&mut gate);
        }
    }
}

impl StorageBackend for HeldSidecars {
    fn put(&self, path: &str, data: Bytes) -> SimResult<()> {
        let held = |gate: &(Vec<u64>, usize)| {
            let its = gate.0.iter();
            path.ends_with("/meta")
                && its
                    .map(|it| format!("/it{it:010}/"))
                    .any(|d| path.contains(&d))
        };
        let mut gate = self.gate.lock();
        if held(&gate) {
            gate.1 += 1;
            self.changed.notify_all();
            while held(&gate) {
                self.changed.wait(&mut gate);
            }
            gate.1 -= 1;
        }
        drop(gate);
        self.inner.put(path, data)
    }

    fn get(&self, path: &str) -> SimResult<Bytes> {
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

    fn kind(&self) -> &'static str {
        "held-sidecars"
    }
}

/// Retention GC racing the uploads: GC runs while checkpoints 2 and 3
/// have their shards stored but not their sidecars. It must count only
/// iterations with a sidecar toward `keep_checkpoints`, leave both
/// in-flight iterations alone, and keep iteration 1, which is the only
/// durable checkpoint and the delta base of 3.
#[test]
fn gc_spares_in_flight_checkpoints_and_their_delta_bases() -> SimResult<()> {
    let store = Arc::new(HeldSidecars::default());
    let coord = Coordinator::new(store.clone(), CoordinatorConfig::default());
    let sess = coord.admit(JobSpec {
        shards: small_shards(),
        keep_checkpoints: 1,
        ..JobSpec::default()
    });
    sess.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(1, 400, 1.0))
        .wait()?;
    // Checkpoint 2 rewrites every shard. Checkpoint 3 matches 1 and,
    // with no sidecar of 2 stored, takes 1 as its delta base.
    store.hold(&[2, 3]);
    let t2 = sess.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(2, 400, 2.0));
    let t3 = sess.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(3, 400, 1.0));
    store.wait_parked(2);
    assert!(!t2.is_done() && !t3.is_done());
    sess.gc(CkptKind::Jit);
    store.hold(&[]);
    sess.drain()?;

    let read =
        |it| checkpoint::read_checkpoint(sess.backend(), sess.job(), CkptKind::Jit, it, 0, 0, 0);
    assert_eq!(read(2)?.0, state(2, 400, 2.0));
    let (got, meta) = read(3)?;
    assert_eq!(got, state(3, 400, 1.0));
    assert!(meta.shards.iter().any(|s| s.base_iteration == Some(1)));
    let layout = ParallelLayout::data_parallel(1);
    let (restored, _, _) = sess.restore_for_rank(&layout, RankId(0))?;
    assert_eq!(restored, state(3, 400, 1.0));

    // Settled, the window moves to 3: 2 goes, 1 stays as 3's base.
    assert!(sess.gc(CkptKind::Jit) > 0);
    let prefix = checkpoint::job_prefix(sess.job(), CkptKind::Jit);
    let left = sess.backend().list(&prefix);
    assert!(!left.iter().any(|p| p.contains("it0000000002")), "{left:?}");
    assert_eq!(read(3)?.0, state(3, 400, 1.0));
    Ok(())
}

/// Out-of-order landing: checkpoint 3 is still uploading when the newer
/// 4 becomes durable and alone fills the retention window. GC must keep
/// 3, and 2, the delta base 3's plan took, though no stored sidecar
/// references either.
#[test]
fn gc_keeps_an_in_flight_checkpoint_behind_the_window_and_its_base() -> SimResult<()> {
    let store = Arc::new(HeldSidecars::default());
    let coord = Coordinator::new(store.clone(), CoordinatorConfig::default());
    let sess = coord.admit(JobSpec {
        shards: small_shards(),
        keep_checkpoints: 1,
        ..JobSpec::default()
    });
    let submit =
        |it, v| sess.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(it, 400, v));
    submit(1, 1.0).wait()?;
    submit(2, 2.0).wait()?;
    // 3 repeats 2 as a delta; 4 rewrites every shard and lands first.
    store.hold(&[3]);
    let t3 = submit(3, 2.0);
    submit(4, 4.0).wait()?;
    store.wait_parked(1);
    sess.gc(CkptKind::Jit);
    store.hold(&[]);
    t3.wait()?;

    let (got, meta) =
        checkpoint::read_checkpoint(sess.backend(), sess.job(), CkptKind::Jit, 3, 0, 0, 0)?;
    assert_eq!(got, state(3, 400, 2.0));
    assert!(meta.shards.iter().any(|s| s.base_iteration == Some(2)));
    Ok(())
}

/// A job on a throttled dedicated backend blocks on its own gate while
/// a healthy job sharing the same uploader pool completes normally.
#[test]
fn slow_backend_job_does_not_block_healthy_job() -> SimResult<()> {
    let healthy_store: Arc<dyn StorageBackend> =
        Arc::new(SimObjectStore::new(ObjectStoreProfile::instant()));
    let coord = Coordinator::new(healthy_store, CoordinatorConfig::default());

    let slow = SimObjectStore::new(ObjectStoreProfile {
        put_latency: std::time::Duration::from_millis(5),
        parallel_streams: 1,
        ..ObjectStoreProfile::instant()
    });
    slow.set_throttle(4.0);

    let spec = JobSpec {
        shards: small_shards(),
        keep_checkpoints: 8,
        inflight_budget_bytes: 600, // ~2 shards in flight
        ..JobSpec::default()
    };
    let slow_job = coord.admit_with_backend(spec.clone(), Arc::new(slow));
    let fast_job = coord.admit(spec);

    // Kick off the slow job's checkpoint, then run many fast-job
    // generations to completion while the slow one is still in flight.
    let slow_ticket =
        slow_job.submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(1, 800, 1.0));
    for it in 1..=5 {
        fast_job
            .submit_checkpoint(CkptKind::Jit, RankId(0), 0, 0, 0, &state(it, 400, 2.0))
            .wait()?;
    }
    // The healthy job is fully durable; only now wait out the slow one.
    slow_ticket.wait()?;
    let (got, _) = checkpoint::read_checkpoint(
        fast_job.backend(),
        fast_job.job(),
        CkptKind::Jit,
        5,
        0,
        0,
        0,
    )?;
    assert_eq!(got, state(5, 400, 2.0));
    let (slow_got, _) = checkpoint::read_checkpoint(
        slow_job.backend(),
        slow_job.job(),
        CkptKind::Jit,
        1,
        0,
        0,
        0,
    )?;
    assert_eq!(slow_got, state(1, 800, 1.0));
    Ok(())
}
