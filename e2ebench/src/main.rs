//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload, checks its outputs, prints every metric with its
//! unit, and ends with one JSON result line.

use e2ebench::report::{result_line, table, Checks, Metrics};
use e2ebench::training::{self, Scheme};
use e2ebench::{fleet, probe, states, stats, trace, END_TO_END, HELD_OUT_SEED, PER_LAYER};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut traced = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
            }
            "--trace" => {
                traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: traced,
    })
}

fn training_workload(
    scheme: Scheme,
    args: &Args,
    m: &mut Metrics,
    checks: &mut Checks,
) -> Result<(), String> {
    let (setup, setup_s) =
        training::setup(scheme, args.seed).map_err(|e| format!("set-up: {e}"))?;
    m.put("setup_s", setup_s, "s");
    let run = training::measure(scheme, &setup, args.seconds, args.trace, checks);
    for drift in &run.virtual_drifts {
        println!("  virtual-time drift: {drift}");
    }
    m.put(
        "model.virtual_drift_jobs",
        run.virtual_drifts.len() as f64,
        "count",
    );
    training::end_to_end(&run, m);
    if !args.trace {
        return Ok(());
    }
    probe::run(
        &probe::ProbeInputs {
            cfg: &setup.cfg,
            state: &setup.failure_state,
            store: probe::StoreKind::Mem,
            seed: args.seed,
            coordinator: true,
            transparent_job: scheme == Scheme::UserLevel,
        },
        m,
        checks,
    );
    m.put("failure_cost_ms", training::failure_cost_ms(&run), "ms");
    if scheme == Scheme::Transparent {
        probe::transparent_metrics(
            run.virtual_s.len() as u64,
            &run.reports,
            setup.cfg.layout.world_size(),
            m,
        );
    }
    m.put(
        "trace.overhead_frac",
        stats::median(&run.clean_traced_s) / stats::median(&run.clean_untraced_s) - 1.0,
        "ratio",
    );
    m.put(
        "model.recovery_ratio",
        training::recovery_ratio(scheme, &setup, &run),
        "ratio",
    );
    Ok(())
}

fn fleet_workload(args: &Args, m: &mut Metrics, checks: &mut Checks) -> Result<(), String> {
    let (f, setup_s) = fleet::setup(args.seed).map_err(|e| format!("set-up: {e}"))?;
    m.put("setup_s", setup_s, "s");
    let run = fleet::measure(&f, args.seed, args.seconds, args.trace, checks);
    fleet::end_to_end(&run, m);
    if !args.trace {
        return Ok(());
    }
    let cfg = states::fleet_config(args.seed, 2);
    probe::run(
        &probe::ProbeInputs {
            cfg: &cfg,
            state: &f.bases[0],
            store: probe::StoreKind::Object,
            seed: args.seed,
            coordinator: false,
            transparent_job: true,
        },
        m,
        checks,
    );
    fleet::per_layer(&f, &run, m);
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <user-jit|transparent-jit|fleet-persist> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    println!(
        "e2ebench: workload {} seed {} seconds {} trace {} (held-out seed {HELD_OUT_SEED}; {} cores)",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    trace::set_enabled(false);
    let mut m = Metrics::default();
    let mut checks = Checks::default();
    let outcome = match args.workload.as_str() {
        "user-jit" => training_workload(Scheme::UserLevel, &args, &mut m, &mut checks),
        "transparent-jit" => training_workload(Scheme::Transparent, &args, &mut m, &mut checks),
        "fleet-persist" => fleet_workload(&args, &mut m, &mut checks),
        other => Err(format!("unknown workload {other}")),
    };
    trace::set_enabled(false);
    if let Err(e) = outcome {
        eprintln!("e2ebench: {e}");
        return ExitCode::FAILURE;
    }
    m.put("peak_rss_mb", e2ebench::peak_rss_mb(), "MiB");
    m.put("failed_frac", checks.failed_frac(), "ratio");
    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Metrics::default();
    for name in wanted {
        match m.0.iter().find(|x| x.name == *name) {
            Some(x) => out.put(x.name.clone(), x.value, x.unit),
            None => checks.check(false, || format!("metric {name} was not measured")),
        }
    }
    if args.trace {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
        match trace::write_jsonl(&path, &args.workload) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: writing spans: {e}"),
        }
    }
    println!(
        "checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    for miss in &checks.misses {
        println!("  miss: {miss}");
    }
    print!("{}", table(&out));
    println!("{}", result_line(&checks, &out));
    ExitCode::SUCCESS
}
