//! In-memory span recorder for the traced run.
//!
//! A span is one call the benchmark makes into a layer: name, start,
//! end, the span that was open on the same thread when it began, and the
//! repetition it belongs to. Spans stay in memory and are written out
//! once, when the benchmark ends. With tracing off a span costs one
//! relaxed atomic load.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id within the run.
    pub id: u64,
    /// Span open on the recording thread when this one began.
    pub parent: Option<u64>,
    /// Layer call, e.g. `restore.load_for_rank_parallel`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Repetition of the workload the span belongs to.
    pub rep: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    rep: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(|| Tracer {
        enabled: AtomicBool::new(false),
        epoch: Instant::now(),
        next_id: AtomicU64::new(1),
        rep: AtomicU64::new(0),
        spans: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Turns recording on or off.
pub fn set_enabled(on: bool) {
    tracer().enabled.store(on, Ordering::Relaxed);
}

/// True while spans are recorded.
pub fn enabled() -> bool {
    tracer().enabled.load(Ordering::Relaxed)
}

/// Tags spans recorded from now on with repetition `rep`.
pub fn set_rep(rep: u64) {
    tracer().rep.store(rep, Ordering::Relaxed);
}

fn nanos(t: Instant) -> u64 {
    t.saturating_duration_since(tracer().epoch).as_nanos() as u64
}

/// Runs `f` inside a span named `name`. Spans opened by `f` on this
/// thread become its children.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let t = tracer();
    let id = t.next_id.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start = Instant::now();
    let out = f();
    let end = Instant::now();
    OPEN.with(|s| s.borrow_mut().pop());
    push(Span {
        id,
        parent,
        name,
        start_ns: nanos(start),
        end_ns: nanos(end),
        rep: t.rep.load(Ordering::Relaxed),
    });
    out
}

/// Records a leaf span timed by the caller (`start..end`), parented to
/// the span open on this thread.
pub fn record(name: &'static str, start: Instant, end: Instant) {
    if !enabled() {
        return;
    }
    let t = tracer();
    let parent = OPEN.with(|s| s.borrow().last().copied());
    push(Span {
        id: t.next_id.fetch_add(1, Ordering::Relaxed),
        parent,
        name,
        start_ns: nanos(start),
        end_ns: nanos(end),
        rep: t.rep.load(Ordering::Relaxed),
    });
}

fn push(span: Span) {
    tracer()
        .spans
        .lock()
        .expect("span list lock poisoned by a panicking recorder")
        .push(span);
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    tracer()
        .spans
        .lock()
        .expect("span list lock poisoned by a panicking recorder")
        .clone()
}

/// Durations (ms) of every span named `name`.
pub fn durations_ms(name: &str) -> Vec<f64> {
    spans()
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

/// Self time of each span: its duration minus the part of it that its
/// children cover.
pub fn self_times_ms(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 / 1e6)
        })
        .collect()
}

/// Writes every span as one JSON object per line, followed by a
/// per-name summary (count, total and self milliseconds).
pub fn write_jsonl(path: &std::path::Path, workload: &str) -> std::io::Result<()> {
    let spans = spans();
    let selfs = self_times_ms(&spans);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut by_name: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for s in &spans {
        let own = selfs.get(&s.id).copied().unwrap_or(0.0);
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ms\":{},\"workload\":\"{}\",\"rep\":{}}}",
            s.id,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.name,
            s.start_ns,
            s.end_ns,
            own,
            workload,
            s.rep
        )?;
        let e = by_name.entry(s.name).or_default();
        e.0 += 1;
        e.1 += s.ms();
        e.2 += own;
    }
    for (name, (count, total, own)) in by_name {
        writeln!(
            out,
            "{{\"summary\":\"{name}\",\"count\":{count},\"total_ms\":{total},\"self_ms\":{own}}}"
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            rep: 0,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span_at(1, None, 0, 10_000_000),
            span_at(2, Some(1), 1_000_000, 4_000_000),
            span_at(3, Some(1), 3_000_000, 6_000_000),
        ];
        let selfs = self_times_ms(&spans);
        assert!((selfs[&1] - 5.0).abs() < 1e-9, "{selfs:?}");
        assert!((selfs[&2] - 3.0).abs() < 1e-9);
    }
}
