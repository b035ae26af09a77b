//! Failure-to-resume benchmark for the JIT checkpointing reproduction.
//!
//! Three workloads — `user-jit`, `transparent-jit` and `fleet-persist`
//! — drive the program through its public entry points and check that
//! what comes back is correct. The untraced run reports the end-to-end
//! metrics; the traced run records spans around the benchmark's calls
//! into each layer and reports the per-layer metrics. See `README.md`.

pub mod backend;
pub mod fleet;
pub mod probe;
pub mod report;
pub mod schedule;
pub mod states;
pub mod stats;
pub mod trace;
pub mod training;

/// End-to-end metrics every workload reports with tracing off, in
/// output order.
pub const END_TO_END: [&str; 7] = [
    "steps_per_s",
    "clean_steps_per_s",
    "recovery_virtual_s",
    "stall_p50_ms",
    "persist_p50_ms",
    "restore_p50_ms",
    "setup_s",
];

/// Per-layer metrics every workload reports with tracing on, in output
/// order.
pub const PER_LAYER: [&str; 55] = [
    "stall_tail_ms",
    "persist_tail_ms",
    "restore_tail_ms",
    "failure_cost_ms",
    "peak_rss_mb",
    "dltrain.step_ms",
    "dltrain.restart_ms",
    "collectives.allreduce_ms",
    "collectives.allreduce_calls_per_step",
    "collectives.allreduce_bytes_per_step",
    "proxy.step_ms",
    "proxy.overhead_frac",
    "proxy.logged_calls_per_step",
    "proxy.replay_log_ops",
    "proxy.compacted_ops",
    "proxy.replay_ms",
    "watchdog.detect_lag_ms",
    "checkpoint.write_ms",
    "checkpoint.bytes",
    "checkpoint.shards",
    "checkpoint.delta_reuse_frac",
    "codec.crc64_mb_s",
    "restore.ms",
    "restore.fetchers",
    "restore.shard_reads",
    "restore.bytes",
    "stream.ms",
    "stream.bytes",
    "pipeline.stage_ms",
    "pipeline.upload_ms",
    "pipeline.failed",
    "coordinator.gc_ms",
    "coordinator.gc_deleted",
    "coordinator.restore_amplification",
    "coordinator.list_calls",
    "store.put_count",
    "store.get_count",
    "store.list_count",
    "store.put_busy_ms",
    "store.get_busy_ms",
    "store.bytes_put",
    "store.bytes_get",
    "store.read_count",
    "transparent.rounds",
    "transparent.delete_comms_s",
    "transparent.reset_buffers_s",
    "transparent.recreate_comms_s",
    "transparent.replica_copy_s",
    "transparent.recreate_handles_s",
    "transparent.replay_s",
    "gen.late_ms",
    "trace.overhead_frac",
    "model.recovery_ratio",
    "model.virtual_drift_jobs",
    "failed_frac",
];

/// Seed held out of all tuning; a later change claims its gain on it.
pub const HELD_OUT_SEED: u64 = 7_919_003;

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
