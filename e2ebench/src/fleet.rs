//! The fleet-persist workload: a `Coordinator` over a latency-bound
//! object store, J jobs checkpointing from one generator thread while a
//! second thread restores and garbage-collects beside the uploads.
//!
//! A run has two parts. In the open loop every job's delta-mode
//! checkpoint is due once per period, below saturation, and each is
//! timed from the instant it was due, so a stall delays the submissions
//! behind it: this part gives the latencies. The closed loop then
//! submits as fast as the pipeline makes checkpoints durable, in
//! segments that alternate between running beside the restores and
//! beside retention GC alone: it gives the sustained durable rates. No training compute runs: dltrain, simgpu,
//! the proxy and the collectives are idle, and the checkpoint, pipeline,
//! coordinator, restore and store layers do the work.
//!
//! The same phase routine drives the short `JobSession` loop of the
//! training workloads' probe pass.

use crate::backend::{StoreCounts, TimingBackend};
use crate::probe::{new_backend, shard_config, StoreKind, SHARD_BYTES};
use crate::report::{latency_pair, Checks, Metrics};
use crate::schedule;
use crate::states;
use crate::stats::{mean, median, signed_ms};
use crate::trace;
use coordinator::{Coordinator, CoordinatorConfig, JobSession, JobSpec};
use dltrain::TrainState;
use jitckpt::analysis::JobParams;
use jitckpt::checkpoint::{self, CkptKind};
use jitckpt::CkptTicket;
use simcore::cost::{CostModel, StorageTier};
use simcore::layout::ParallelLayout;
use simcore::{RankId, SimResult};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Jobs sharing the coordinator.
pub const JOBS: usize = 4;

/// Each job's checkpoint is due once per period in the open loop: ~57
/// checkpoints/s over four jobs. On a 2-vCPU host the closed loop
/// sustains 100–130/s, but only ~85/s when other tenants steal a fifth
/// of the CPU, and a 50 ms period (80/s) then falls behind (see the
/// README).
pub const PERIOD: Duration = Duration::from_millis(70);

/// The restore thread starts one restore (then a GC pass over every
/// job) per gap, on its own open loop. The gap shares no period with the
/// submissions, so restores land at every point of each job's delta
/// chain and the seed's job order does not pick the phase.
pub const RESTORE_GAP: Duration = Duration::from_millis(143);

/// Newest checkpoints retention keeps per job. Restores and GC share one
/// thread, so a restore in flight is never collected under it.
const KEEP: usize = 2;

/// Tail percentile of every fleet latency: the open loop of a 30 s run
/// submits ~1000 checkpoints and restores ~125 times, so at least 12
/// samples lie beyond it; higher percentiles repeat worse on a shared
/// host.
const TAIL: f64 = 90.0;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;

/// Storage tier the object store stands for in the cost model.
const OBJECT_TIER: StorageTier = StorageTier::RemoteBlob;

/// Distinct contents each job cycles through. A submission relabels one
/// of them with its iteration, so the generator copies no state and
/// every checkpoint still differs from the one before it.
const RING: u64 = 3;

/// Checkpoints one job may have in flight in the closed loop.
const CLOSED_WINDOW: u64 = 2;

/// Share of a run the closed loop takes in each of its two settings;
/// the open loop takes the rest.
const CLOSED_SHARE: f64 = 0.2;

/// Segments each closed-loop setting is split into. The settings
/// alternate segment by segment and each rate is the median segment's,
/// so a burst of outside load lands on one segment of one setting.
const CLOSED_SEGMENTS: usize = 5;

/// The fleet: coordinator, wrapped backend, sessions and their inputs.
pub struct Fleet {
    /// Timing wrapper over the backend.
    pub backend: Arc<TimingBackend>,
    /// Keeps the uploader pool alive.
    pub coord: Coordinator,
    /// One session per job.
    pub sessions: Vec<Arc<JobSession>>,
    /// Each job's initial state.
    pub bases: Vec<TrainState>,
    /// Share of each job's state rewritten per checkpoint.
    pub shares: Vec<f64>,
    /// Per job, the `RING` contents the generator submits.
    ring: Vec<Vec<Mutex<TrainState>>>,
}

fn relabel(state: &mut TrainState, iteration: u64) {
    state.iteration = iteration;
    state.opt_t = iteration as u32;
}

impl Fleet {
    /// Admits one job per base state to a coordinator over a fresh
    /// backend of `kind`, and makes every job's checkpoint 0 durable.
    pub fn build(kind: StoreKind, bases: Vec<TrainState>, shares: Vec<f64>) -> SimResult<Fleet> {
        let backend = TimingBackend::new(new_backend(kind));
        let coord = Coordinator::new(backend.clone(), CoordinatorConfig::default());
        let sessions = bases
            .iter()
            .map(|_| {
                coord.admit(JobSpec {
                    ranks: 1,
                    shards: shard_config(),
                    keep_checkpoints: KEEP,
                    ..JobSpec::default()
                })
            })
            .collect();
        let ring = bases
            .iter()
            .zip(&shares)
            .map(|(b, s)| {
                (0..RING)
                    .map(|r| Mutex::new(states::evolve(b, *s, r)))
                    .collect()
            })
            .collect();
        let fleet = Fleet {
            backend,
            coord,
            sessions,
            bases,
            shares,
            ring,
        };
        for (j, s) in fleet.sessions.iter().enumerate() {
            s.submit_checkpoint(CkptKind::Periodic, RankId(0), 0, 0, 0, &fleet.state(j, 0));
        }
        for s in &fleet.sessions {
            s.drain()?;
        }
        Ok(fleet)
    }

    /// Job `j`'s state as of checkpoint `k`, regenerated for checks.
    pub fn state(&self, j: usize, k: u64) -> TrainState {
        let mut s = states::evolve(&self.bases[j], self.shares[j], k % RING);
        relabel(&mut s, k);
        s
    }

    /// Submits job `j`'s checkpoint `k`.
    fn submit(&self, j: usize, k: u64) -> CkptTicket {
        let mut state = self.ring[j][(k % RING) as usize]
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        relabel(&mut state, k);
        self.sessions[j].submit_checkpoint(CkptKind::Periodic, RankId(0), 0, 0, 0, &state)
    }

    fn jobs(&self) -> usize {
        self.sessions.len()
    }
}

/// Builds the workload's fleet `SETUPS` times; returns the last and the
/// median set-up seconds.
pub fn setup(seed: u64) -> SimResult<(Fleet, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let start = Instant::now();
        let bases = (0..JOBS)
            .map(|j| states::init_state(&states::fleet_config(seed.wrapping_add(j as u64), 1)))
            .collect::<SimResult<Vec<_>>>()?;
        let f = Fleet::build(
            StoreKind::Object,
            bases,
            schedule::changed_shares(seed, JOBS),
        )?;
        times.push(start.elapsed().as_secs_f64());
        last = Some(f);
    }
    let f = last.ok_or_else(|| simcore::SimError::Protocol("no set-up ran".into()))?;
    Ok((f, median(&times)))
}

/// How the generator paces its submissions.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Every job's checkpoint is due once per period (spread over the
    /// period by job) and is timed from its due time.
    Open(Duration),
    /// Each job submits as soon as fewer than `CLOSED_WINDOW` of its
    /// checkpoints are in flight, timed from the submission.
    Closed,
}

/// One generator phase.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Pacing of the submissions.
    pub pace: Pace,
    /// How long the generator submits.
    pub window: Duration,
    /// Whether the second thread restores (it always runs GC).
    pub restores: bool,
    /// Whether to trace every other second; otherwise the trace switch
    /// is left as it is.
    pub alternate_trace: bool,
    /// Iteration of the phase's first checkpoints.
    pub first: u64,
}

struct Submission {
    job: usize,
    iteration: u64,
    due: Instant,
    returned: Instant,
    stall_ms: f64,
    traced: bool,
    ticket: CkptTicket,
}

/// What the restore/GC thread measured.
#[derive(Default)]
pub struct RestoreSide {
    /// Wall ms of each `restore_for_rank`.
    pub restore_ms: Vec<f64>,
    /// Modelled read time of each restore's fetched bytes.
    pub virtual_s: Vec<f64>,
    /// Wall ms of each GC call.
    pub gc_ms: Vec<f64>,
    /// Objects GC deleted.
    pub gc_deleted: usize,
    checks: Checks,
}

/// Everything one phase produced.
pub struct PhaseRun {
    /// Checkpoints submitted.
    pub submitted: usize,
    /// Newest iteration each job submitted.
    pub newest: Vec<u64>,
    /// Phase start to the last checkpoint becoming durable.
    pub durable_span_s: f64,
    /// Wall ms `submit_checkpoint` blocked, per submission.
    pub stall_ms: Vec<f64>,
    /// The same, split by whether tracing was on.
    pub stall_traced_ms: Vec<f64>,
    /// See `stall_traced_ms`.
    pub stall_untraced_ms: Vec<f64>,
    /// Due time → durable (sidecar put returned), ms.
    pub persist_ms: Vec<f64>,
    /// `submit_checkpoint` return → durable, ms.
    pub upload_ms: Vec<f64>,
    /// How late each open-loop submission started, ms.
    pub late_ms: Vec<f64>,
    /// Tickets that failed.
    pub failed_tickets: u64,
    /// Shard objects put (sidecars excluded).
    pub shard_puts: u64,
    /// Store operations from the phase's start until its last ticket.
    pub store: StoreCounts,
    /// The second thread's measurements.
    pub restore: RestoreSide,
}

fn restore_loop(
    fleet: &Fleet,
    seed: u64,
    restores: bool,
    start: Instant,
    end: Instant,
) -> RestoreSide {
    let cost = CostModel::v100();
    let layout = ParallelLayout::data_parallel(1);
    let order = schedule::restore_order(seed, fleet.jobs());
    let mut side = RestoreSide::default();
    for i in 0usize.. {
        let due = start + RESTORE_GAP * i as u32;
        if due >= end {
            break;
        }
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        if restores {
            let j = order[i % order.len()];
            let t0 = Instant::now();
            let got = trace::span("coordinator.restore_for_rank", || {
                fleet.sessions[j].restore_for_rank(&layout, RankId(0))
            });
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            match got {
                Ok((state, _meta, stats)) => {
                    let want = fleet.state(j, state.iteration);
                    side.checks.check(states::same_state(&state, &want), || {
                        format!("fleet job {j}: restored checkpoint {} differs from the submitted state", state.iteration)
                    });
                    side.restore_ms.push(ms);
                    side.virtual_s.push(
                        cost.checkpoint_read(stats.bytes_fetched, OBJECT_TIER, 1)
                            .as_secs(),
                    );
                }
                Err(e) => side.checks.error(&format!("fleet job {j}: restore"), e),
            }
        }
        for session in &fleet.sessions {
            let t0 = Instant::now();
            side.gc_deleted += trace::span("coordinator.gc", || session.gc(CkptKind::Periodic));
            side.gc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
    }
    side
}

/// Runs one generator phase beside the restore/GC thread, then waits for
/// every ticket and checks that each checkpoint became durable.
pub fn run_phase(fleet: &Fleet, seed: u64, phase: &Phase, checks: &mut Checks) -> PhaseRun {
    let jobs = fleet.jobs();
    let before = fleet.backend.counts();
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + phase.window;
    let mut subs: Vec<Submission> = Vec::new();
    let mut late = Vec::new();
    let restore = std::thread::scope(|s| {
        let side = s.spawn(|| restore_loop(fleet, seed, phase.restores, start, end));
        if let Some(wait) = start.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        'gen: for c in 0u64.. {
            for j in 0..jobs {
                let due = match phase.pace {
                    Pace::Open(period) => {
                        let due = start + period * c as u32 + period * j as u32 / jobs as u32;
                        if due >= end {
                            break 'gen;
                        }
                        if let Some(wait) = due.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        late.push(
                            Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3,
                        );
                        due
                    }
                    Pace::Closed => {
                        if Instant::now() >= end {
                            break 'gen;
                        }
                        if c >= CLOSED_WINDOW {
                            // Checked below with every other ticket.
                            let _ = subs[((c - CLOSED_WINDOW) as usize) * jobs + j]
                                .ticket
                                .wait();
                        }
                        Instant::now()
                    }
                };
                let on = if phase.alternate_trace {
                    let on = (due - start).as_secs() % 2 == 1;
                    trace::set_enabled(on);
                    on
                } else {
                    trace::enabled()
                };
                let t0 = Instant::now();
                let ticket = trace::span("coordinator.submit_checkpoint", || {
                    fleet.submit(j, phase.first + c)
                });
                let returned = Instant::now();
                subs.push(Submission {
                    job: j,
                    iteration: phase.first + c,
                    due,
                    returned,
                    stall_ms: (returned - t0).as_secs_f64() * 1e3,
                    traced: on,
                    ticket,
                });
            }
        }
        side.join()
    });
    if phase.alternate_trace {
        trace::set_enabled(true);
    }
    let mut restore = restore.unwrap_or_else(|_| {
        checks.error("fleet restore thread", "panicked");
        RestoreSide::default()
    });
    checks.absorb(std::mem::take(&mut restore.checks));
    let mut run = PhaseRun {
        submitted: subs.len(),
        newest: vec![phase.first.saturating_sub(1); jobs],
        durable_span_s: 0.0,
        stall_ms: subs.iter().map(|s| s.stall_ms).collect(),
        stall_traced_ms: subs
            .iter()
            .filter(|s| s.traced)
            .map(|s| s.stall_ms)
            .collect(),
        stall_untraced_ms: subs
            .iter()
            .filter(|s| !s.traced)
            .map(|s| s.stall_ms)
            .collect(),
        persist_ms: Vec::new(),
        upload_ms: Vec::new(),
        late_ms: late,
        failed_tickets: 0,
        shard_puts: 0,
        store: StoreCounts::default(),
        restore,
    };
    for sub in &subs {
        run.newest[sub.job] = run.newest[sub.job].max(sub.iteration);
        let ok = sub.ticket.wait().is_ok();
        run.failed_tickets += u64::from(!ok);
        checks.check(ok, || {
            format!(
                "fleet job {}: checkpoint {} never became durable",
                sub.job, sub.iteration
            )
        });
        let path = checkpoint::meta_path(
            fleet.sessions[sub.job].job(),
            CkptKind::Periodic,
            sub.iteration,
            0,
            0,
            0,
        );
        match fleet.backend.sidecar_durable_at(&path) {
            Some(at) => {
                run.persist_ms
                    .push(at.saturating_duration_since(sub.due).as_secs_f64() * 1e3);
                run.upload_ms.push(signed_ms(sub.returned, at));
                run.durable_span_s = run
                    .durable_span_s
                    .max(at.saturating_duration_since(start).as_secs_f64());
            }
            None => checks.check(false, || {
                format!(
                    "fleet job {}: no sidecar for checkpoint {}",
                    sub.job, sub.iteration
                )
            }),
        }
    }
    run.store = fleet.backend.counts().since(&before);
    run.shard_puts = run.store.puts - subs.len() as u64;
    run
}

/// Everything a measured fleet run produced.
pub struct FleetRun {
    /// Open loop beside restores: the latencies.
    pub open: PhaseRun,
    /// Closed-loop segments beside restores: `steps_per_s`.
    pub loaded: Vec<PhaseRun>,
    /// Closed-loop segments with GC alone: `clean_steps_per_s`.
    pub alone: Vec<PhaseRun>,
}

/// Runs the open loop, then the closed-loop segments, for `seconds` in
/// all, and checks that every job restores its newest checkpoint. With
/// `traced`, tracing is on in every other second of the open loop and
/// throughout the closed loop.
pub fn measure(
    fleet: &Fleet,
    seed: u64,
    seconds: f64,
    traced: bool,
    checks: &mut Checks,
) -> FleetRun {
    let total = seconds.max(2.0);
    let open = run_phase(
        fleet,
        seed,
        &Phase {
            pace: Pace::Open(PERIOD),
            window: Duration::from_secs_f64(total * (1.0 - 2.0 * CLOSED_SHARE)),
            restores: true,
            alternate_trace: traced,
            first: 1,
        },
        checks,
    );
    let segment = Duration::from_secs_f64(total * CLOSED_SHARE / CLOSED_SEGMENTS as f64);
    let mut next = open.newest.iter().copied().max().unwrap_or(0) + 1;
    let mut newest = open.newest.clone();
    let (mut loaded, mut alone) = (Vec::new(), Vec::new());
    for _ in 0..CLOSED_SEGMENTS {
        for restores in [true, false] {
            let seg = run_phase(
                fleet,
                seed,
                &Phase {
                    pace: Pace::Closed,
                    window: segment,
                    restores,
                    alternate_trace: false,
                    first: next,
                },
                checks,
            );
            newest = seg.newest.clone();
            next = newest.iter().copied().max().unwrap_or(0) + 1;
            if restores {
                loaded.push(seg);
            } else {
                alone.push(seg);
            }
        }
    }
    let layout = ParallelLayout::data_parallel(1);
    for (j, session) in fleet.sessions.iter().enumerate() {
        let newest = newest[j];
        match session.restore_for_rank(&layout, RankId(0)) {
            Ok((state, _, _)) => checks.check(
                state.iteration == newest && states::same_state(&state, &fleet.state(j, newest)),
                || format!("fleet-persist job {j}: final restore returned checkpoint {} (newest {newest})", state.iteration),
            ),
            Err(e) => checks.error(&format!("fleet-persist job {j}: final restore"), e),
        }
    }
    FleetRun {
        open,
        loaded,
        alone,
    }
}

/// Checkpoints made durable per wall second: the median segment's.
fn durable_rate(segments: &[PhaseRun]) -> f64 {
    let rates: Vec<f64> = segments
        .iter()
        .map(|p| p.persist_ms.len() as f64 / p.durable_span_s)
        .collect();
    median(&rates)
}

/// End-to-end metrics of a fleet run.
pub fn end_to_end(run: &FleetRun, m: &mut Metrics) {
    m.put("steps_per_s", durable_rate(&run.loaded), "1/s");
    m.put("clean_steps_per_s", durable_rate(&run.alone), "1/s");
    m.put(
        "recovery_virtual_s",
        mean(&restore_virtual_s(run)),
        "virtual_s",
    );
    latency_pair(m, "stall", &run.open.stall_ms, TAIL);
    latency_pair(m, "persist", &run.open.persist_ms, TAIL);
    latency_pair(m, "restore", &run.open.restore.restore_ms, TAIL);
}

fn restore_virtual_s(run: &FleetRun) -> Vec<f64> {
    let mut v = run.open.restore.virtual_s.clone();
    for seg in &run.loaded {
        v.extend(&seg.restore.virtual_s);
    }
    v
}

/// The pipeline, coordinator, store and generator metrics of one phase.
pub fn coordinator_metrics(fleet: &Fleet, run: &PhaseRun, m: &mut Metrics) {
    m.put("pipeline.stage_ms", median(&run.stall_ms), "ms");
    m.put("pipeline.upload_ms", median(&run.upload_ms), "ms");
    m.put("pipeline.failed", run.failed_tickets as f64, "count");
    m.put("coordinator.gc_ms", median(&run.restore.gc_ms), "ms");
    m.put(
        "coordinator.gc_deleted",
        run.restore.gc_deleted as f64,
        "count",
    );
    let shards = fleet.bases[0].shard_count(SHARD_BYTES);
    let amp: Vec<f64> = fleet
        .sessions
        .iter()
        .map(|s| s.stats().restore_amplification(shards))
        .collect();
    m.put("coordinator.restore_amplification", mean(&amp), "ratio");
    let c = &run.store;
    m.put("coordinator.list_calls", c.lists as f64, "count");
    m.put("gen.late_ms", median(&run.late_ms), "ms");
    m.put("store.put_count", c.puts as f64, "count");
    m.put("store.get_count", c.gets as f64, "count");
    m.put("store.list_count", c.lists as f64, "count");
    m.put("store.put_busy_ms", c.put_busy_ms, "ms");
    m.put("store.get_busy_ms", c.get_busy_ms, "ms");
    m.put("store.bytes_put", c.bytes_put as f64, "bytes");
    m.put("store.bytes_get", c.bytes_get as f64, "bytes");
    m.put("store.read_count", c.reads as f64, "count");
}

/// Per-layer metrics the fleet run itself measures.
pub fn per_layer(fleet: &Fleet, run: &FleetRun, m: &mut Metrics) {
    let open = &run.open;
    coordinator_metrics(fleet, open, m);
    // A failed fleet job waits for its state: its restore under load.
    m.put("failure_cost_ms", median(&open.restore.restore_ms), "ms");
    let shards = fleet.bases[0].shard_count(SHARD_BYTES);
    m.put(
        "checkpoint.delta_reuse_frac",
        1.0 - open.shard_puts as f64 / (open.submitted * shards) as f64,
        "ratio",
    );
    let virtual_s = restore_virtual_s(run);
    let first = virtual_s.first().copied().unwrap_or_default();
    let drifts = virtual_s
        .iter()
        .filter(|v| v.to_bits() != first.to_bits())
        .count();
    m.put("model.virtual_drift_jobs", drifts as f64, "count");
    m.put(
        "trace.overhead_frac",
        median(&open.stall_traced_ms) / median(&open.stall_untraced_ms) - 1.0,
        "ratio",
    );
    // `model.recovery_ratio`: the mean modelled restore read over the
    // read term of eq. 7's fixed recovery `r` at the object-store tier,
    // from the same `CostModel`, for the job's logical state.
    let cost = CostModel::v100();
    let r = cost
        .checkpoint_read(fleet.bases[0].logical_bytes, OBJECT_TIER, 1)
        .as_secs();
    m.put(
        "model.recovery_ratio",
        mean(&virtual_s) / JobParams::new(0.0, 1.0, r, 1, 0.0).fixed_recovery,
        "ratio",
    );
}
