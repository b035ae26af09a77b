//! The probe pass of a traced run: one call into each layer's public
//! entry point with the workload's own inputs (its `TrainConfig`, the
//! state at the failure iteration, its backend type), every call inside
//! a span. Per-layer metrics are read back from the spans.

use crate::backend::TimingBackend;
use crate::fleet::{self, Fleet, Pace, Phase};
use crate::report::{Checks, Metrics};
use crate::schedule::{self, JOB_ITERS};
use crate::states;
use crate::stats::median;
use crate::trace::{self, durations_ms};
use crate::training::{self, Scheme};
use cluster::{SharedStore, StorageBackend};
use collectives::{CollKind, CollectiveObserver, CollectiveTicket, CommWorld};
use coordinator::{ObjectStoreProfile, SimObjectStore};
use dltrain::{JobSetup, RankTrainer, TrainConfig, TrainState};
use jitckpt::checkpoint::{self, CkptKind, ShardConfig};
use jitckpt::transparent::RecoveryReport;
use proxy::{DirectExecutor, ProxyClient, Watchdog};
use simcore::cost::CostModel;
use simcore::layout::ParallelLayout;
use simcore::time::ClockBoard;
use simcore::{GpuId, JobId, RankId, SimResult};
use simgpu::Gpu;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Timed repetitions of each single call.
const REPS: usize = 5;

/// Minibatches each trainer runs per executor.
const STEPS: u64 = 6;

/// Shard size of every checkpoint the benchmark writes (a 4–6 MiB state
/// spans 17–25 shards, so delta reuse and fetch width both matter).
pub const SHARD_BYTES: usize = 256 << 10;

/// The backend type a workload persists to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreKind {
    /// The in-memory `SharedStore` the training jobs use.
    Mem,
    /// The fleet's latency-bound simulated object store.
    Object,
}

/// The fleet's object store: 2 ms per put and per get, 8 transfer
/// streams of ~2 GB/s.
pub fn object_profile() -> ObjectStoreProfile {
    ObjectStoreProfile {
        put_latency: Duration::from_millis(2),
        get_latency: Duration::from_millis(2),
        ..ObjectStoreProfile::default()
    }
}

/// A fresh, empty backend of `kind`.
pub fn new_backend(kind: StoreKind) -> Arc<dyn StorageBackend> {
    match kind {
        StoreKind::Mem => Arc::new(SharedStore::new()),
        StoreKind::Object => Arc::new(SimObjectStore::new(object_profile())),
    }
}

/// Shard policy of every checkpoint the benchmark writes.
pub fn shard_config() -> ShardConfig {
    ShardConfig {
        shard_bytes: SHARD_BYTES,
        ..ShardConfig::default()
    }
}

/// What a probe pass runs on.
pub struct ProbeInputs<'a> {
    /// The workload's job configuration (data parallel, DP = 2).
    pub cfg: &'a TrainConfig,
    /// Rank 0's state at the failure iteration.
    pub state: &'a TrainState,
    /// The workload's backend type.
    pub store: StoreKind,
    /// Workload seed (drives the probe's transparent job schedule).
    pub seed: u64,
    /// Drive `JobSession` through a short open loop (off when the
    /// workload itself is the coordinator's).
    pub coordinator: bool,
    /// Run one transparent job for the transparent-layer metrics (off
    /// when the workload itself runs them).
    pub transparent_job: bool,
}

/// Times every all-reduce a rank enters, as `collectives.all_reduce`
/// spans parented to the open `train_step` span.
struct AllReduceTimer;

impl CollectiveObserver for AllReduceTimer {
    fn collective_started(&self, _ticket: &CollectiveTicket) {}

    fn collective_finished(&self, ticket: &CollectiveTicket) {
        if ticket.kind == CollKind::AllReduce {
            trace::record("collectives.all_reduce", ticket.entered_at, Instant::now());
        }
    }
}

fn med(name: &str) -> f64 {
    median(&durations_ms(name))
}

/// One probe section: drives a layer and adds its metrics.
type Section = fn(&ProbeInputs, &mut Metrics, &mut Checks) -> SimResult<()>;

/// Runs the probe pass and adds its per-layer metrics to `m`.
pub fn run(inp: &ProbeInputs, m: &mut Metrics, checks: &mut Checks) {
    let sections: [(&str, Section); 6] = [
        ("dltrain/collectives", dltrain_and_collectives),
        ("proxy", proxy_layer),
        ("watchdog", watchdog),
        ("checkpoint/restore", checkpoint_and_restore),
        ("stream", stream),
        ("coordinator", coordinator_session),
    ];
    for (name, f) in sections {
        if let Err(e) = f(inp, m, checks) {
            checks.error(&format!("probe {name}"), e);
        }
    }
    if inp.transparent_job {
        let specs = schedule::transparent_jit(inp.seed);
        match training::run_job(Scheme::Transparent, inp.cfg, Some(&specs), JOB_ITERS) {
            Ok(job) => {
                checks.check(job.recoveries == specs.len() as u64, || {
                    format!(
                        "probe transparent job: {} rounds for {} faults",
                        job.recoveries,
                        specs.len()
                    )
                });
                transparent_metrics(job.recoveries, &job.reports, inp.cfg.layout.world_size(), m);
            }
            Err(e) => checks.error("probe transparent job", e),
        }
    }
}

fn dltrain_and_collectives(
    inp: &ProbeInputs,
    m: &mut Metrics,
    _checks: &mut Checks,
) -> SimResult<()> {
    let cost = CostModel::v100();
    let cfg = inp.cfg;
    // What a user-level restart rebuilds: the job's communicators and
    // every rank's trainer.
    for _ in 0..REPS {
        trace::span("dltrain.restart", || -> SimResult<()> {
            let setup = JobSetup::build(cfg.layout, cost.clone(), cfg.ranks_per_node);
            for i in 0..cfg.layout.world_size() {
                let exec = DirectExecutor::new(
                    RankId(i as u32),
                    i,
                    Gpu::new(GpuId(i as u32), cost.clone()),
                    setup.world.clone(),
                );
                RankTrainer::new(
                    exec,
                    cfg.clone(),
                    &setup.per_rank[i],
                    cluster::FailureInjector::none(),
                )?;
            }
            Ok(())
        })?;
    }
    let mut trainers = states::direct_trainers(cfg, Some(inp.state))?;
    trainers[0].exec.set_observer(Arc::new(AllReduceTimer));
    states::on_ranks(&mut trainers, |i, tr| {
        for _ in 0..STEPS {
            if i == 0 {
                trace::span("dltrain.train_step", || tr.train_step())?;
            } else {
                tr.train_step()?;
            }
        }
        Ok(())
    })?;
    m.put("dltrain.step_ms", med("dltrain.train_step"), "ms");
    m.put("dltrain.restart_ms", med("dltrain.restart"), "ms");
    let calls = durations_ms("collectives.all_reduce");
    m.put("collectives.allreduce_ms", median(&calls), "ms");
    m.put(
        "collectives.allreduce_calls_per_step",
        calls.len() as f64 / STEPS as f64,
        "count",
    );
    m.put(
        "collectives.allreduce_bytes_per_step",
        states::param_bytes(inp.state) as f64,
        "bytes",
    );
    Ok(())
}

fn proxy_layer(inp: &ProbeInputs, m: &mut Metrics, _checks: &mut Checks) -> SimResult<()> {
    let cost = CostModel::v100();
    let cfg = inp.cfg;
    let setup = JobSetup::build(cfg.layout, cost.clone(), cfg.ranks_per_node);
    let mut trainers = (0..cfg.layout.world_size())
        .map(|i| {
            let client = ProxyClient::new(
                RankId(i as u32),
                i,
                Gpu::new(GpuId(i as u32), cost.clone()),
                setup.world.clone(),
            );
            let mut tr = RankTrainer::new(
                client,
                cfg.clone(),
                &setup.per_rank[i],
                cluster::FailureInjector::none(),
            )?;
            tr.restore(inp.state)?;
            Ok(tr)
        })
        .collect::<SimResult<Vec<_>>>()?;
    let logged_before = trainers[0].exec.logged_calls();
    states::on_ranks(&mut trainers, |i, tr| {
        for _ in 0..STEPS {
            if i == 0 {
                trace::span("proxy.train_step", || tr.train_step())?;
            } else {
                tr.train_step()?;
            }
        }
        Ok(())
    })?;
    let logged = trainers[0].exec.logged_calls() - logged_before;
    let log_ops = trainers[0].exec.replay_log_len();
    let compacted = trainers[0].exec.compacted_log_len();
    // Recovery's replay: every rank resets to minibatch start and
    // replays the logged calls together.
    for _ in 0..REPS {
        states::on_ranks(&mut trainers, |i, tr| {
            tr.exec.reset_in_place()?;
            if i == 0 {
                trace::span("proxy.replay", || tr.exec.replay())?;
            } else {
                tr.exec.replay()?;
            }
            Ok(())
        })?;
    }
    let step = med("proxy.train_step");
    m.put("proxy.step_ms", step, "ms");
    m.put(
        "proxy.overhead_frac",
        step / med("dltrain.train_step") - 1.0,
        "ratio",
    );
    m.put(
        "proxy.logged_calls_per_step",
        logged as f64 / STEPS as f64,
        "count",
    );
    m.put("proxy.replay_log_ops", log_ops as f64, "count");
    m.put("proxy.compacted_ops", compacted as f64, "count");
    m.put("proxy.replay_ms", med("proxy.replay"), "ms");
    Ok(())
}

fn watchdog(_inp: &ProbeInputs, m: &mut Metrics, checks: &mut Checks) -> SimResult<()> {
    let timeout = Duration::from_millis(20);
    let mut lags = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        let (tx, rx) = mpsc::channel();
        let fired = trace::span(
            "watchdog.detect",
            || -> SimResult<Option<(Instant, Instant)>> {
                let wd = Watchdog::spawn(timeout, move || {
                    let _ = tx.send(Instant::now());
                })?;
                let t0 = Instant::now();
                wd.begin_op();
                Ok(rx
                    .recv_timeout(Duration::from_secs(2))
                    .ok()
                    .map(|at| (t0, at)))
            },
        )?;
        match fired {
            Some((t0, at)) => lags.push(((at - t0).as_secs_f64() - timeout.as_secs_f64()) * 1e3),
            None => checks.error(
                "probe watchdog",
                format!("rep {rep}: hang not detected within 2 s"),
            ),
        }
    }
    m.put("watchdog.detect_lag_ms", median(&lags), "ms");
    Ok(())
}

fn checkpoint_and_restore(
    inp: &ProbeInputs,
    m: &mut Metrics,
    checks: &mut Checks,
) -> SimResult<()> {
    let state = inp.state;
    let layout = ParallelLayout::data_parallel(2);
    let backend = TimingBackend::new(new_backend(inp.store));
    let shards = shard_config().auto_sized_for(state);
    for rep in 0..REPS {
        trace::span("checkpoint.write_checkpoint_with", || {
            checkpoint::write_checkpoint_with(
                backend.as_ref(),
                JobId(100 + rep as u32),
                CkptKind::Jit,
                RankId(0),
                0,
                0,
                0,
                state,
                &shards,
            )
        })?;
    }
    // Delta reuse: the next checkpoint of one cell after one more
    // minibatch's worth of change to the whole state.
    let next = states::evolve(state, 1.0, state.iteration + 1);
    checkpoint::write_checkpoint_with(
        backend.as_ref(),
        JobId(99),
        CkptKind::Jit,
        RankId(0),
        0,
        0,
        0,
        state,
        &shards,
    )?;
    let puts_before = backend.counts().puts;
    checkpoint::write_checkpoint_with(
        backend.as_ref(),
        JobId(99),
        CkptKind::Jit,
        RankId(0),
        0,
        0,
        0,
        &next,
        &shards,
    )?;
    let shard_puts = backend.counts().puts - puts_before - 1;
    let n_shards = state.shard_count(SHARD_BYTES);
    m.put(
        "checkpoint.write_ms",
        med("checkpoint.write_checkpoint_with"),
        "ms",
    );
    m.put("checkpoint.bytes", state.encoded_len() as f64, "bytes");
    m.put("checkpoint.shards", n_shards as f64, "count");
    m.put(
        "checkpoint.delta_reuse_frac",
        1.0 - shard_puts as f64 / n_shards as f64,
        "ratio",
    );
    let encoded = simcore::codec::encode_framed(state);
    for _ in 0..REPS {
        trace::span("codec.crc64", || {
            std::hint::black_box(simcore::codec::crc64(&encoded))
        });
    }
    m.put(
        "codec.crc64_mb_s",
        encoded.len() as f64 / 1e6 / (med("codec.crc64") / 1e3),
        "MB/s",
    );
    let mut last = None;
    for rep in 0..REPS {
        let (got, _, stats) = trace::span("restore.load_for_rank_parallel", || {
            jitckpt::load_for_rank_parallel(
                backend.as_ref(),
                JobId(100 + rep as u32),
                &layout,
                RankId(0),
                &jitckpt::RestoreConfig::default(),
            )
        })?;
        checks.check(states::same_state(&got, state), || {
            format!("probe restore rep {rep}: restored state differs from the written one")
        });
        last = Some(stats);
    }
    if let Some(s) = last {
        m.put("restore.ms", med("restore.load_for_rank_parallel"), "ms");
        m.put("restore.fetchers", s.fetchers as f64, "count");
        m.put("restore.shard_reads", s.shard_reads as f64, "count");
        m.put("restore.bytes", s.bytes_fetched as f64, "bytes");
    }
    Ok(())
}

fn stream(inp: &ProbeInputs, m: &mut Metrics, checks: &mut Checks) -> SimResult<()> {
    let cost = CostModel::v100();
    let world = CommWorld::new(Arc::new(ClockBoard::new(2)), cost.clone(), 8);
    for rep in 0..REPS {
        let got = trace::span("stream.transfer", || {
            std::thread::scope(|s| {
                let rx = s.spawn(|| {
                    trace::span("stream.recv_state", || {
                        jitckpt::stream::recv_state(
                            &world,
                            &cost,
                            RankId(0),
                            RankId(1),
                            1,
                            Duration::from_secs(5),
                        )
                    })
                });
                let sent = trace::span("stream.send_state", || {
                    jitckpt::stream::send_state(
                        &world,
                        &cost,
                        RankId(0),
                        0,
                        RankId(1),
                        true,
                        inp.state,
                        SHARD_BYTES,
                    )
                });
                let got = rx.join().unwrap_or_else(|_| {
                    Err(simcore::SimError::Protocol("receiver panicked".into()))
                });
                sent.and(got)
            })
        })?;
        checks.check(states::same_state(&got, inp.state), || {
            format!("probe stream rep {rep}: streamed state differs")
        });
    }
    m.put("stream.ms", med("stream.transfer"), "ms");
    m.put("stream.bytes", inp.state.encoded_len() as f64, "bytes");
    Ok(())
}

/// The probe's `JobSession` loop: one job on the workload's backend
/// type, checkpointing the failure state on an open loop beside restores
/// and GC, through the fleet workload's phase routine.
const SESSION_PERIOD: Duration = Duration::from_millis(25);
const SESSION_WINDOW: Duration = Duration::from_millis(600);

fn coordinator_session(inp: &ProbeInputs, m: &mut Metrics, checks: &mut Checks) -> SimResult<()> {
    if !inp.coordinator {
        return Ok(());
    }
    // A training step rewrites the whole state.
    let fleet = Fleet::build(inp.store, vec![inp.state.clone()], vec![1.0])?;
    let run = fleet::run_phase(
        &fleet,
        inp.seed,
        &Phase {
            pace: Pace::Open(SESSION_PERIOD),
            window: SESSION_WINDOW,
            restores: true,
            alternate_trace: false,
            first: 1,
        },
        checks,
    );
    fleet::coordinator_metrics(&fleet, &run, m);
    Ok(())
}

/// Slugs of the transparent recovery steps the workloads' faults run.
pub const TRANSPARENT_STEPS: [(&str, &str); 6] = [
    (
        "Delete communicators and GPU handles",
        "transparent.delete_comms_s",
    ),
    ("Reset GPU buffers", "transparent.reset_buffers_s"),
    (
        "Recreate NCCL communicators",
        "transparent.recreate_comms_s",
    ),
    ("Copy state from replica", "transparent.replica_copy_s"),
    ("Recreate GPU handles", "transparent.recreate_handles_s"),
    ("Replay minibatch APIs", "transparent.replay_s"),
];

/// `transparent.rounds` and the virtual time of each named recovery
/// step: per round the slowest rank's time in that step, averaged over
/// rounds.
pub fn transparent_metrics(rounds: u64, reports: &[RecoveryReport], world: usize, m: &mut Metrics) {
    m.put("transparent.rounds", rounds as f64, "count");
    let n_rounds = reports.len().div_ceil(world.max(1)).max(1);
    for (step, metric) in TRANSPARENT_STEPS {
        let total: f64 = reports
            .chunks(world.max(1))
            .map(|round| {
                round
                    .iter()
                    .flat_map(|r| r.steps.iter().filter(|s| s.name == step))
                    .map(|s| s.time.as_secs())
                    .fold(0.0, f64::max)
            })
            .sum();
        m.put(metric, total / n_rounds as f64, "virtual_s");
    }
}
