//! The user-jit and transparent-jit workloads: failing jobs paired with
//! the failure-free job of the same seed.
//!
//! Every repetition runs the clean job and the failing job back to back
//! (alternating which goes first) through the program's public job
//! entry point. Wall time is what the benchmark's numbers move with;
//! virtual time is the paper's cost model and is meant to repeat
//! exactly.

use crate::report::{latency_pair, Checks, Metrics};
use crate::schedule::{self, FAULTS_PER_JOB, JOB_ITERS};
use crate::states;
use crate::stats::{mean, median};
use crate::trace;
use cluster::{Cluster, FailureInjector, Scheduler, SharedStore};
use dltrain::{JobSetup, RankTrainer, TrainConfig, TrainState};
use jitckpt::analysis::JobParams;
use jitckpt::checkpoint::{self, CkptKind};
use jitckpt::transparent::{run_transparent_job, RecoveryReport, TransparentEngine};
use jitckpt::user_level::{run_user_level_job, JitUserConfig};
use proxy::{PendingOp, ProxyClient, RecoveryHandler, RecoveryOutcome};
use simcore::cost::{CostModel, GpuGeneration};
use simcore::failure::{FailureKind, FailureSpec, Phase};
use simcore::{GpuId, JobId, RankId, SimError, SimResult};
use simgpu::Gpu;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which JIT design a training workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// §3: watchdog, JIT checkpoint, restart, restore.
    UserLevel,
    /// §4: in-place recovery behind the device proxy.
    Transparent,
}

/// Hang timeout of the user-level watchdog: short, so detection does not
/// dominate a recovery, and far above a healthy collective's wait.
pub const WATCHDOG_TIMEOUT: Duration = Duration::from_millis(100);

/// Recovery-path samples per run (fixed, so the tail percentile is the
/// same on every run) and per job pair, by scheme. A transparent sample
/// is three timed in-place rounds, one per latency.
fn path_plan(scheme: Scheme) -> (usize, usize) {
    match scheme {
        Scheme::UserLevel => (110, 10),
        Scheme::Transparent => (12, 2),
    }
}

/// Tail percentile of the recovery-path samples.
const PATH_TAIL: f64 = 90.0;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 9;

/// What one job run returned.
pub struct JobRun {
    /// Wall seconds inside the job entry point.
    pub wall_s: f64,
    /// `[rank][iteration]` losses.
    pub losses: Vec<Vec<f32>>,
    /// Restarts (user-level) or recovery rounds (transparent).
    pub recoveries: u64,
    /// Modelled recovery per restart or round, virtual seconds.
    pub virtual_s: Vec<f64>,
    /// Transparent per-rank recovery reports.
    pub reports: Vec<RecoveryReport>,
    /// Virtual finish time of the slowest rank (transparent only).
    pub finish_virtual_s: f64,
}

/// Inputs built once per run.
pub struct Setup {
    /// Job configuration (the seed drives init and data).
    pub cfg: TrainConfig,
    /// The seeded failure schedule.
    pub schedule: Vec<FailureSpec>,
    /// Rank 0's state when the first fault strikes.
    pub failure_state: TrainState,
}

/// Runs one job of `scheme` — clean when `specs` is `None`.
pub fn run_job(
    scheme: Scheme,
    cfg: &TrainConfig,
    specs: Option<&[FailureSpec]>,
    iters: u64,
) -> SimResult<JobRun> {
    let cost = CostModel::v100();
    let injector = match specs {
        Some(s) => FailureInjector::with_specs(s.to_vec()),
        None => FailureInjector::none(),
    };
    let n = cfg.layout.world_size();
    match scheme {
        Scheme::UserLevel => {
            let scheduler = Arc::new(Scheduler::new(Cluster::new(GpuGeneration::V100_32G, 2)));
            let store = Arc::new(SharedStore::new());
            let jit = JitUserConfig {
                watchdog_timeout: WATCHDOG_TIMEOUT,
                ..JitUserConfig::default()
            };
            let start = Instant::now();
            let out = trace::span("job.run_user_level_job", || {
                run_user_level_job(cfg.clone(), cost, injector, scheduler, store, jit, iters)
            })?;
            let wall_s = start.elapsed().as_secs_f64();
            // One restart writes one JIT checkpoint per healthy replica and
            // restores every rank, all for the same iteration.
            let mut per_restart: std::collections::BTreeMap<u64, (f64, f64)> = Default::default();
            for e in &out.events {
                let slot = per_restart.entry(e.iteration).or_default();
                slot.0 = slot.0.max(e.checkpoint_time.as_secs());
                slot.1 = slot.1.max(e.restore_time.as_secs());
            }
            Ok(JobRun {
                wall_s,
                losses: out.losses,
                recoveries: out.restarts as u64,
                virtual_s: per_restart.values().map(|(c, r)| c + r).collect(),
                reports: Vec::new(),
                finish_virtual_s: 0.0,
            })
        }
        Scheme::Transparent => {
            let store = Arc::new(SharedStore::new());
            let start = Instant::now();
            let out = trace::span("job.run_transparent_job", || {
                run_transparent_job(cfg.clone(), cost, injector, store, iters)
            })?;
            let wall_s = start.elapsed().as_secs_f64();
            // Rounds are sequential and every rank files one report per
            // round, so consecutive chunks of `n` reports are rounds.
            let virtual_s = out
                .reports
                .chunks(n)
                .map(|round| round.iter().map(|r| r.total.as_secs()).fold(0.0, f64::max))
                .collect();
            Ok(JobRun {
                wall_s,
                losses: out.losses,
                recoveries: out.rounds,
                virtual_s,
                reports: out.reports,
                finish_virtual_s: out
                    .finish_times
                    .iter()
                    .map(|t| t.as_secs())
                    .fold(0.0, f64::max),
            })
        }
    }
}

/// Compares a recovered loss trajectory with the failure-free one, bit
/// for bit. The only loss a recovered job may lack is the user-level
/// victim's own loss of a minibatch whose optimizer step its replica
/// completed (the job rolls forward past it, §3.3).
pub fn trajectory_mismatch(
    scheme: Scheme,
    failing: &[Vec<f32>],
    clean: &[Vec<f32>],
    specs: &[FailureSpec],
) -> Option<String> {
    if failing.len() != clean.len() {
        return Some(format!("{} ranks vs {}", failing.len(), clean.len()));
    }
    for (r, (f, c)) in failing.iter().zip(clean).enumerate() {
        if f.len() != c.len() {
            return Some(format!("rank {r}: {} losses vs {}", f.len(), c.len()));
        }
        for (i, (a, b)) in f.iter().zip(c).enumerate() {
            if a.to_bits() == b.to_bits() {
                continue;
            }
            let rolled_forward = scheme == Scheme::UserLevel
                && a.is_nan()
                && specs.iter().any(|s| {
                    s.rank.index() == r
                        && s.iteration == i as u64
                        && s.phase.recovers_to_next_iteration()
                });
            if !rolled_forward {
                return Some(format!(
                    "rank {r} iteration {i}: loss {a} vs failure-free {b}"
                ));
            }
        }
    }
    None
}

/// Minibatches of the warm-up job each set-up runs.
const WARM_UP_ITERS: u64 = 4;

fn schedule_for(scheme: Scheme, seed: u64) -> Vec<FailureSpec> {
    match scheme {
        Scheme::UserLevel => schedule::user_jit(seed),
        Scheme::Transparent => schedule::transparent_jit(seed),
    }
}

/// Builds the workload's inputs and returns them with the median of
/// `SETUPS` timed set-ups. A set-up is the job configuration, the
/// schedule and one short clean warm-up job that pages in the code and
/// the allocator: the same work for every seed. The failure-iteration
/// state is built once, after timing, since its iteration is seeded.
pub fn setup(scheme: Scheme, seed: u64) -> SimResult<(Setup, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    for _ in 0..SETUPS {
        let start = Instant::now();
        let cfg = states::training_config(seed);
        std::hint::black_box(schedule_for(scheme, seed));
        run_job(scheme, &cfg, None, WARM_UP_ITERS)?;
        times.push(start.elapsed().as_secs_f64());
    }
    let cfg = states::training_config(seed);
    let schedule = schedule_for(scheme, seed);
    let failure_state = states::state_at(&cfg, schedule[0].iteration)?;
    Ok((
        Setup {
            cfg,
            schedule,
            failure_state,
        },
        median(&times),
    ))
}

/// Per-sample latencies (ms) of the scheme's checkpoint (stall), the
/// checkpoint becoming usable (persist) and the state coming back
/// (restore).
#[derive(Default)]
pub struct PathSamples {
    /// Time the checkpoint blocks training.
    pub stall: Vec<f64>,
    /// Time until the checkpoint is durable and usable.
    pub persist: Vec<f64>,
    /// Time to get the state back.
    pub restore: Vec<f64>,
}

impl PathSamples {
    /// Records one sample (durations in ms).
    fn push(&mut self, stall: f64, persist: f64, restore: f64) {
        self.stall.push(stall);
        self.persist.push(persist);
        self.restore.push(restore);
    }
}

/// One user-level recovery-path sample on the job's backend type: the
/// JIT checkpoint write (the parked replica is stalled for it), the write
/// plus the restart's consistency assembly (persist), and the parallel
/// restore.
fn user_sample(setup: &Setup, job: JobId, out: &mut PathSamples, checks: &mut Checks) {
    let layout = setup.cfg.layout;
    let state = &setup.failure_state;
    let shards = JitUserConfig::default().shards.auto_sized_for(state);
    let store = SharedStore::new();
    let t0 = Instant::now();
    let wrote = checkpoint::write_checkpoint_with(
        &store,
        job,
        CkptKind::Jit,
        RankId(1),
        0,
        0,
        1,
        state,
        &shards,
    );
    let t1 = Instant::now();
    let assembled = checkpoint::assemble(&store, job, &layout);
    let t2 = Instant::now();
    let restored = jitckpt::load_for_rank_parallel(
        &store,
        job,
        &layout,
        RankId(0),
        &jitckpt::RestoreConfig::default(),
    );
    let t3 = Instant::now();
    match (wrote, assembled, restored) {
        (Ok(()), Ok(_), Ok((got, _, _))) => {
            checks.check(states::same_state(&got, state), || {
                format!("user-jit recovery path sample {job}: restored state differs")
            });
            out.push(ms(t1 - t0), ms(t2 - t0), ms(t3 - t2));
        }
        (w, a, r) => checks.error(
            "user-jit recovery path",
            format!("{:?} / {:?} / {:?}", w.err(), a.err(), r.err()),
        ),
    }
}

/// Minibatches of a timed in-place recovery job; its one fault strikes
/// at [`TIMED_FAULT_AT`].
const TIMED_ITERS: u64 = 2;
const TIMED_FAULT_AT: u64 = 1;

/// The transparent engine's recovery handler, timed from outside: each
/// rank's entry into it and return from it.
struct TimedRecovery {
    engine: Arc<TransparentEngine>,
    calls: Mutex<Vec<(Instant, Instant)>>,
}

impl RecoveryHandler for TimedRecovery {
    fn handle(
        &self,
        client: &mut ProxyClient,
        op: &PendingOp,
        err: &SimError,
    ) -> SimResult<RecoveryOutcome> {
        let start = Instant::now();
        let out = self.engine.handle(client, op, err);
        self.calls
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push((start, Instant::now()));
        out
    }
}

/// One in-place recovery round of the program's transparent engine, in
/// a short job whose one fault is `spec`. The
/// job is put together from the same public parts, in the same way, as
/// `run_transparent_job` (which offers no hook around its handler), and
/// every rank's handler is wrapped in [`TimedRecovery`]. Returns the
/// losses, the rounds run, and the round's wall ms: from the first rank
/// entering recovery to the last one returning, the time the job stood
/// still.
fn timed_round(cfg: &TrainConfig, spec: FailureSpec) -> SimResult<(Vec<Vec<f32>>, u64, f64)> {
    let cost = CostModel::v100();
    let n = cfg.layout.world_size();
    let setup = JobSetup::build(cfg.layout, cost.clone(), cfg.ranks_per_node);
    let engine = TransparentEngine::new(
        cfg.layout,
        setup.world.clone(),
        Arc::new(SharedStore::new()),
        TransparentEngine::counter_gpu_allocator(10_000, cost.clone()),
    );
    let timed = Arc::new(TimedRecovery {
        engine: engine.clone(),
        calls: Mutex::default(),
    });
    let injector = FailureInjector::with_specs(vec![spec]);
    let (world, per_rank, job_cfg, handler, eng) = (
        setup.world.clone(),
        setup.per_rank.clone(),
        cfg.clone(),
        timed.clone(),
        engine.clone(),
    );
    let results = dltrain::run_ranks(n, move |i| {
        let gpu = Gpu::new(GpuId(i as u32), cost.clone());
        let mut client = ProxyClient::new(RankId(i as u32), i, gpu, world.clone());
        eng.attach(&mut client)?;
        client.set_handler(handler.clone());
        let mut tr = RankTrainer::new(client, job_cfg.clone(), &per_rank[i], injector.clone())?;
        tr.train(TIMED_ITERS)
    });
    let losses = results.into_iter().collect::<SimResult<Vec<_>>>()?;
    let calls = timed.calls.lock().unwrap_or_else(|e| e.into_inner());
    let wall_ms = match (
        calls.iter().map(|c| c.0).min(),
        calls.iter().map(|c| c.1).max(),
    ) {
        (Some(a), Some(b)) => ms(b - a),
        _ => f64::NAN,
    };
    Ok((losses, engine.rounds(), wall_ms))
}

/// The transparent-jit fault whose in-place round each end-to-end
/// latency times: a transient network fault (reset in place and replay,
/// the least a fault stalls training), a driver corruption before the
/// optimizer step (the victim's state goes to host memory and back
/// across a device restart) and a sticky CUDA fault before it (the
/// victim's state is copied from its replica). The kind and the victim
/// come from the seeded schedule.
fn transparent_paths(specs: &[FailureSpec]) -> [Option<FailureSpec>; 3] {
    let find = |kind: FailureKind| {
        specs
            .iter()
            .find(|s| s.kind == kind && s.phase != Phase::OptimizerStep)
            .copied()
    };
    [
        find(FailureKind::TransientNetwork),
        find(FailureKind::DriverCorruption),
        find(FailureKind::StickyCuda),
    ]
}

/// Phases a timed fault cycles through, sample by sample. How much of
/// the minibatch a round replays depends on the phase, so a seed that
/// picked one phase would pick the latency; cycling makes the median
/// that of the middle phase on every seed.
const TIMED_PHASES: [Phase; 3] = [Phase::Forward, Phase::Backward, Phase::AllReduce];

fn transparent_sample(
    setup: &Setup,
    sample: u32,
    reference: &[Vec<f32>],
    out: &mut PathSamples,
    checks: &mut Checks,
) {
    let want: Vec<Vec<f32>> = reference
        .iter()
        .map(|r| r[..TIMED_ITERS as usize].to_vec())
        .collect();
    for (slot, spec) in transparent_paths(&setup.schedule).into_iter().enumerate() {
        let Some(spec) = spec else {
            checks.check(false, || {
                format!("transparent-jit schedule has no fault for recovery path {slot}")
            });
            continue;
        };
        let spec = FailureSpec {
            iteration: TIMED_FAULT_AT,
            phase: TIMED_PHASES[sample as usize % TIMED_PHASES.len()],
            ..spec
        };
        match timed_round(&setup.cfg, spec) {
            Ok((losses, rounds, wall_ms)) => {
                let miss = trajectory_mismatch(Scheme::Transparent, &losses, &want, &[spec]);
                checks.check(rounds == 1 && miss.is_none(), || {
                    format!(
                        "transparent-jit timed {:?} round: {rounds} rounds, {}",
                        spec.kind,
                        miss.unwrap_or_default()
                    )
                });
                [&mut out.stall, &mut out.persist, &mut out.restore][slot].push(wall_ms);
            }
            Err(e) => checks.error(&format!("transparent-jit timed {:?} round", spec.kind), e),
        }
    }
}

/// Takes `n` recovery-path samples of the scheme, numbered from
/// `sample`.
fn sample_paths(
    scheme: Scheme,
    setup: &Setup,
    n: usize,
    sample: &mut u32,
    reference: &[Vec<f32>],
    out: &mut PathSamples,
    checks: &mut Checks,
) {
    for _ in 0..n {
        *sample += 1;
        match scheme {
            Scheme::UserLevel => user_sample(setup, JobId(*sample), out, checks),
            Scheme::Transparent => transparent_sample(setup, *sample, reference, out, checks),
        }
    }
}

/// Everything a measured run produced.
pub struct TrainingRun {
    /// Wall seconds of the failure-free jobs.
    pub clean_s: Vec<f64>,
    /// Wall seconds of the failing jobs.
    pub failing_s: Vec<f64>,
    /// Clean-job walls split by whether tracing was on (traced run only).
    pub clean_traced_s: Vec<f64>,
    /// Clean-job walls with tracing off in a traced run.
    pub clean_untraced_s: Vec<f64>,
    /// Modelled recovery per restart or round (from the first failing job).
    pub virtual_s: Vec<f64>,
    /// The first failing job's reports (transparent).
    pub reports: Vec<RecoveryReport>,
    /// Virtual minibatch seconds of the clean job (transparent).
    pub minibatch_virtual_s: f64,
    /// Recovery-path samples.
    pub path: PathSamples,
    /// Failing jobs whose virtual recovery times differed from the
    /// first failing job's.
    pub virtual_drifts: Vec<String>,
}

/// Runs job pairs for `seconds` (at least two pairs), taking the
/// recovery-path samples in chunks between them. With
/// `traced`, odd repetitions record spans.
pub fn measure(
    scheme: Scheme,
    setup: &Setup,
    seconds: f64,
    traced: bool,
    checks: &mut Checks,
) -> TrainingRun {
    let name = match scheme {
        Scheme::UserLevel => "user-jit",
        Scheme::Transparent => "transparent-jit",
    };
    let mut run = TrainingRun {
        clean_s: Vec::new(),
        failing_s: Vec::new(),
        clean_traced_s: Vec::new(),
        clean_untraced_s: Vec::new(),
        virtual_s: Vec::new(),
        reports: Vec::new(),
        minibatch_virtual_s: 0.0,
        path: PathSamples::default(),
        virtual_drifts: Vec::new(),
    };
    let start = Instant::now();
    let (samples, chunk) = path_plan(scheme);
    let mut taken = 0;
    let mut sample = 0u32;
    let mut reference: Option<Vec<Vec<f32>>> = None;
    let mut rep = 0u64;
    let mut last_pair_s = 0.0;
    let mut per_sample_s = 0.0;
    // A pair starts only if it, and the samples still to take after
    // it, should end within `seconds`.
    while rep < 2
        || start.elapsed().as_secs_f64() + last_pair_s + (samples - taken) as f64 * per_sample_s
            < seconds
    {
        let pair_start = Instant::now();
        let on = traced && rep % 2 == 1;
        trace::set_rep(rep);
        trace::set_enabled(on);
        let clean_first = rep.is_multiple_of(2);
        for clean in [clean_first, !clean_first] {
            if clean {
                match run_job(scheme, &setup.cfg, None, JOB_ITERS) {
                    Ok(job) => {
                        checks.check(job.recoveries == 0, || {
                            format!("{name} rep {rep}: failure-free job recovered {} times (spurious detection)", job.recoveries)
                        });
                        let want = reference.get_or_insert_with(|| job.losses.clone());
                        checks.check(
                            trajectory_mismatch(scheme, &job.losses, want, &[]).is_none(),
                            || {
                                format!(
                                    "{name} rep {rep}: failure-free losses are not deterministic"
                                )
                            },
                        );
                        if rep == 0 {
                            run.minibatch_virtual_s = job.finish_virtual_s / JOB_ITERS as f64;
                        }
                        run.clean_s.push(job.wall_s);
                        if traced {
                            if on {
                                run.clean_traced_s.push(job.wall_s);
                            } else {
                                run.clean_untraced_s.push(job.wall_s);
                            }
                        }
                    }
                    Err(e) => checks.error(&format!("{name} rep {rep}: failure-free job"), e),
                }
            } else {
                match run_job(scheme, &setup.cfg, Some(&setup.schedule), JOB_ITERS) {
                    Ok(job) => {
                        checks.check(job.recoveries == FAULTS_PER_JOB as u64, || {
                            format!(
                                "{name} rep {rep}: {} recoveries for {FAULTS_PER_JOB} injected faults",
                                job.recoveries
                            )
                        });
                        if let Some(want) = &reference {
                            let miss =
                                trajectory_mismatch(scheme, &job.losses, want, &setup.schedule);
                            checks.check(miss.is_none(), || {
                                format!(
                                    "{name} rep {rep}: recovered trajectory differs: {}",
                                    miss.unwrap_or_default()
                                )
                            });
                        }
                        if run.virtual_s.is_empty() {
                            run.virtual_s = job.virtual_s.clone();
                            run.reports = job.reports.clone();
                        } else {
                            // Virtual time is meant to repeat exactly. At
                            // this commit a transient-network round's replay
                            // is sometimes one logged call longer (a race in
                            // what the healthy rank logs before the abort),
                            // so a drift is reported, not counted as a wrong
                            // output: the recovered training itself is
                            // checked bit for bit above.
                            let same = run.virtual_s.len() == job.virtual_s.len()
                                && run
                                    .virtual_s
                                    .iter()
                                    .zip(&job.virtual_s)
                                    .all(|(a, b)| a.to_bits() == b.to_bits());
                            if !same {
                                let drift = format!("{name} rep {rep}: virtual recovery times {:?} differ from the first failing job's {:?}", job.virtual_s, run.virtual_s);
                                eprintln!("virtual-time drift: {drift}");
                                run.virtual_drifts.push(drift);
                            }
                        }
                        run.failing_s.push(job.wall_s);
                    }
                    Err(e) => checks.error(&format!("{name} rep {rep}: failing job"), e),
                }
            }
        }
        // Recovery-path samples are spread over the run, a chunk after
        // each pair, so a burst of outside load cannot land on all of them.
        if let Some(want) = &reference {
            let n = chunk.min(samples - taken);
            let t0 = Instant::now();
            sample_paths(scheme, setup, n, &mut sample, want, &mut run.path, checks);
            if n > 0 {
                per_sample_s = t0.elapsed().as_secs_f64() / n as f64;
            }
            taken += n;
        }
        rep += 1;
        last_pair_s = pair_start.elapsed().as_secs_f64();
    }
    if let Some(want) = &reference {
        sample_paths(
            scheme,
            setup,
            samples - taken,
            &mut sample,
            want,
            &mut run.path,
            checks,
        );
    }
    trace::set_enabled(traced);
    run
}

/// The analytical per-failure recovery term from `core::analysis`,
/// built from the same `CostModel` as the run. User-level: the JIT
/// checkpoint `o` plus the fixed recovery `r` (eq. 7). Transparent: eq. 8
/// charges no fixed recovery, only half a minibatch of redone work, so
/// the ratio shows how far the modelled in-place recovery exceeds it.
fn analytical_recovery_s(scheme: Scheme, setup: &Setup, minibatch_s: f64) -> f64 {
    let cost = CostModel::v100();
    let bytes = setup.failure_state.logical_bytes;
    let gpus = setup.cfg.layout.world_size();
    match scheme {
        Scheme::UserLevel => {
            let tier = JitUserConfig::default().tier;
            let o = cost
                .checkpoint_write(bytes, tier, cost.gpu.gpus_per_node())
                .as_secs();
            let r = (cost.process_restart
                + cost.checkpoint_read(bytes, tier, setup.cfg.ranks_per_node))
            .as_secs();
            let p = JobParams::new(o, 1.0, r, gpus, minibatch_s);
            p.ckpt_overhead + p.fixed_recovery
        }
        Scheme::Transparent => {
            let p = JobParams::new(0.0, 1.0, 0.0, gpus, minibatch_s);
            p.fixed_recovery + p.minibatch / 2.0
        }
    }
}

/// `model.recovery_ratio`: measured modelled recovery over the
/// analytical per-failure term.
pub fn recovery_ratio(scheme: Scheme, setup: &Setup, run: &TrainingRun) -> f64 {
    mean(&run.virtual_s) / analytical_recovery_s(scheme, setup, run.minibatch_virtual_s)
}

/// The wall and virtual metrics of a training run: the end-to-end set
/// plus the latency tails. Rates use the median repetition, which one
/// unusually fast or slow job does not move.
pub fn end_to_end(run: &TrainingRun, m: &mut Metrics) {
    m.put(
        "steps_per_s",
        JOB_ITERS as f64 / median(&run.failing_s),
        "1/s",
    );
    m.put(
        "clean_steps_per_s",
        JOB_ITERS as f64 / median(&run.clean_s),
        "1/s",
    );
    m.put("recovery_virtual_s", mean(&run.virtual_s), "virtual_s");
    latency_pair(m, "stall", &run.path.stall, PATH_TAIL);
    latency_pair(m, "persist", &run.path.persist, PATH_TAIL);
    latency_pair(m, "restore", &run.path.restore, PATH_TAIL);
}

/// Wall milliseconds each injected fault adds: (median failing-job wall
/// − median failure-free wall) / faults per job.
pub fn failure_cost_ms(run: &TrainingRun) -> f64 {
    (median(&run.failing_s) - median(&run.clean_s)) / FAULTS_PER_JOB as f64 * 1e3
}

/// `d` in milliseconds.
fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
