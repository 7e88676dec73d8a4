//! `perfbench`: the repository's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_rt|serve_open|serve_shared|serve_faults> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it generates the inputs from `--seed`,
//! sets the workload up, runs an untimed warm-up pass and the correctness
//! gate, then times passes for `--seconds`, with bursts of fresh set-ups
//! spread through that window. `run_s` sums each unit's fastest time over
//! the passes and `setup_s` is the fastest set-up; the whole-pass and
//! set-up medians and 90th percentiles are printed on lines of their own.
//! The last line of standard output is one JSON object. With `--trace 1`
//! it reports the per-layer metrics of a traced run instead, measured
//! from spans around every layer call. See `perfbench/README.md` for the
//! metric dictionary.

mod digest;
mod metrics;
mod paper_rt;
mod serve;
mod trace;

use decluster::methods::kernel_build_count;
use decluster::obs::{MetricsRecorder, Obs};
use digest::Digest;
use metrics::LayerValues;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use trace::{TraceSummary, Tracer};

/// Every `SETUP_EVERY_S` of the measured window, fresh set-ups run for
/// `SETUP_BURST_S` (at least one).
const SETUP_EVERY_S: f64 = 2.0;
const SETUP_BURST_S: f64 = 0.2;
/// Measured passes per run even when `--seconds` is short.
const MIN_PASSES: usize = 5;
/// A seed held out from tuning, for confirming a claimed gain.
const HELD_OUT_SEED: u64 = 20_261_017;

/// What one measured pass did.
#[derive(Clone, Debug, Default)]
pub struct PassOut {
    /// Hash of every simulated output of the pass.
    pub digest: Digest,
    /// Operations: scored query x method pairs, or arrivals offered.
    pub ops: u64,
    /// Host time of each unit of the pass (a population x method, or a
    /// serve cell), in the same order on every pass.
    pub unit_s: Vec<f64>,
    /// Simulated events (bucket reads for `paper_rt`).
    pub events: u64,
    /// Operations whose call errored or failed an in-pass check.
    pub failed: u64,
    /// Per-pass layer counts, keyed by per-layer metric name.
    pub counts: LayerValues,
}

/// Outcome of the correctness gate run after the measured passes.
#[derive(Clone, Copy, Debug, Default)]
pub struct GateOut {
    pub checks: u64,
    pub failed: u64,
}

/// One benchmark workload, driven only through the program's public
/// layer calls.
pub trait Workload {
    type State;

    /// Worker threads the workload's layer calls use.
    fn threads(&self) -> usize;

    /// Generates the inputs from `seed` and builds every structure the
    /// passes need. Returns the state and its set-up layer counts.
    fn setup(&self, seed: u64, tr: &Tracer) -> (Self::State, LayerValues);

    /// One measured pass over the whole workload.
    fn pass(&self, st: &mut Self::State, tr: &Tracer, obs: &Obs) -> PassOut;

    /// Correctness checks that need more than one pass's outputs.
    fn gate(&self, st: &mut Self::State, first: &PassOut, tr: &Tracer) -> GateOut;

    /// Per-layer metrics of the traced run that only this workload can
    /// derive (from spans and the first pass's counts).
    fn layers(
        &self,
        st: &Self::State,
        first: &PassOut,
        trace: &TraceSummary,
        passes: usize,
        out: &mut LayerValues,
    );
}

/// A finished measurement of one workload.
struct Measured<S> {
    state: S,
    setup_s: Vec<f64>,
    pass_s: Vec<f64>,
    run_s: f64,
    first: PassOut,
    setup_counts: LayerValues,
    attempted: u64,
    failed: u64,
    rss_mb: f64,
    wall_s: f64,
}

/// The `q` quantile of `values`, interpolating linearly between order
/// statistics (`q = 0.5` is the median).
fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    assert!(!v.is_empty(), "quantile of an empty sample");
    let pos = q * (v.len() - 1) as f64;
    let (lo, frac) = (pos.floor() as usize, pos.fract());
    match v.get(lo + 1) {
        Some(&hi) => v[lo] + frac * (hi - v[lo]),
        None => v[lo],
    }
}

/// Sets the workload up once from scratch, timing it into `setup_s`.
/// The counts include the kernels the set-up compiled.
fn setup_once<W: Workload>(
    w: &W,
    seed: u64,
    tr: &Tracer,
    setup_s: &mut Vec<f64>,
) -> (W::State, LayerValues) {
    let _phase = tr.span("phase.setup", String::new);
    let builds_before = kernel_build_count();
    let t = Instant::now();
    let (state, mut counts) = w.setup(seed, tr);
    setup_s.push(t.elapsed().as_secs_f64());
    counts.insert(
        "kernel.builds",
        (kernel_build_count() - builds_before) as f64,
    );
    (state, counts)
}

/// What the measured window timed.
#[derive(Default)]
struct Window {
    pass_s: Vec<f64>,
    /// Fastest time of each unit over the window's passes.
    best_unit_s: Vec<f64>,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
}

impl Window {
    /// The pass time reported as `run_s`: the sum of each unit's fastest
    /// time. On a shared host other tenants slow this process by up to
    /// ~1.8x, in stretches from under a second to tens of seconds; a
    /// pass's median then tracks how much of the window they covered,
    /// while each unit's fastest time tracks the program, since
    /// interference only ever adds time. Short units catch the host's
    /// quiet moments far more often than whole passes do.
    fn run_s(&self) -> f64 {
        self.best_unit_s.iter().sum()
    }
}

/// Times as many passes as fit in `seconds` (at least `MIN_PASSES`),
/// checking each against the reference pass's digest. With `setup_seed`,
/// a burst of fresh set-ups (each built, timed and dropped) runs every
/// `SETUP_EVERY_S`, so set-up times sample the same stretch of host time
/// as the passes.
fn timed_window<W: Workload>(
    w: &W,
    st: &mut W::State,
    reference: &PassOut,
    seconds: f64,
    tr: &Tracer,
    setup_seed: Option<u64>,
) -> Window {
    let mut win = Window::default();
    let obs = Obs::disabled();
    let start = Instant::now();
    let mut next_setup = 0.0;
    while win.pass_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < seconds {
        if let Some(seed) = setup_seed.filter(|_| start.elapsed().as_secs_f64() >= next_setup) {
            let burst = Instant::now();
            while win.setup_s.is_empty() || burst.elapsed().as_secs_f64() < SETUP_BURST_S {
                drop(setup_once(w, seed, tr, &mut win.setup_s));
            }
            next_setup += SETUP_EVERY_S;
        }
        let _phase = tr.span("phase.pass", String::new);
        let t = Instant::now();
        let out = w.pass(st, tr, &obs);
        win.pass_s.push(t.elapsed().as_secs_f64());
        if win.best_unit_s.is_empty() {
            win.best_unit_s = out.unit_s.clone();
        }
        for (best, &unit) in win.best_unit_s.iter_mut().zip(&out.unit_s) {
            *best = best.min(unit);
        }
        win.attempted += out.ops;
        win.failed += if out.digest == reference.digest {
            out.failed
        } else {
            // A pass that simulates different numbers failed every
            // operation it made.
            out.ops
        };
    }
    win
}

/// Sets the workload up, runs the warm-up pass (with `warmup_obs`
/// recording the program's own counters) and the correctness gate, reads
/// the peak resident set, then times the measured window.
fn measure<W: Workload>(
    w: &W,
    seed: u64,
    seconds: f64,
    tr: &Tracer,
    warmup_obs: &Obs,
) -> Result<Measured<W::State>, String> {
    let wall = Instant::now();
    let mut first_setup_s = Vec::new();
    let (mut state, setup_counts) = setup_once(w, seed, tr, &mut first_setup_s);
    // The warm-up pass sizes every reusable buffer and is the reference
    // every measured pass must reproduce bit for bit.
    let first = {
        let _phase = tr.span("phase.warmup", String::new);
        w.pass(&mut state, tr, warmup_obs)
    };
    let gate = {
        let _phase = tr.span("phase.gate", String::new);
        w.gate(&mut state, &first, tr)
    };
    // Before the window, whose set-ups briefly hold a second state.
    let rss_mb = peak_rss_mb()?;
    let mut win = timed_window(w, &mut state, &first, seconds, tr, Some(seed));
    win.setup_s.extend(first_setup_s);
    Ok(Measured {
        state,
        run_s: win.run_s(),
        setup_s: win.setup_s,
        pass_s: win.pass_s,
        attempted: first.ops + win.attempted + gate.checks,
        failed: first.failed + win.failed + gate.failed,
        first,
        setup_counts,
        rss_mb,
        wall_s: wall.elapsed().as_secs_f64(),
    })
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: LayerValues,
    digest: u64,
}

fn run_untraced<W: Workload>(w: &W, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let m = measure(w, seed, seconds, &Tracer::new(false), &Obs::disabled())?;
    for (what, times) in [("pass", &m.pass_s), ("setup", &m.setup_s)] {
        println!(
            "perfbench {what}_s {{\"count\": {}, \"min\": {}, \"p10\": {}, \"median\": {}, \"p90\": {}}}",
            times.len(),
            quantile(times, 0.0),
            quantile(times, 0.1),
            quantile(times, 0.5),
            quantile(times, 0.9),
        );
    }
    let run_s = m.run_s;
    let mut metrics = LayerValues::new();
    metrics.insert("run_s", run_s);
    // Set-ups are short and many, so their fastest is steady as it is.
    metrics.insert("setup_s", quantile(&m.setup_s, 0.0));
    metrics.insert("queries_per_s", m.first.ops as f64 / run_s);
    metrics.insert("events_per_s", m.first.events as f64 / run_s);
    metrics.insert("peak_rss_mb", m.rss_mb);
    Ok(Outcome {
        attempted: m.attempted,
        failed: m.failed,
        metrics,
        digest: m.first.digest.value(),
    })
}

/// The traced run: spans around every layer call in set-up, passes and
/// gate, plus the program's obs counters in the untimed warm-up pass
/// only, so the measured passes time the same code as the untraced run.
/// Half of `seconds` goes to traced passes, half to untraced ones for
/// `trace.overhead_ratio`.
fn run_traced<W: Workload>(
    w: &W,
    workload: &str,
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    let recorder = Arc::new(MetricsRecorder::new());
    let tr = Tracer::new(true);
    let mut m = measure(w, seed, seconds / 2.0, &tr, &Obs::new(recorder.clone()))?;
    let untraced = timed_window(
        w,
        &mut m.state,
        &m.first,
        seconds / 2.0,
        &Tracer::new(false),
        None,
    );
    let summary = TraceSummary::new(tr.spans());
    let passes = summary.count("phase.pass");
    let setups = summary.count("phase.setup") as f64;

    let mut metrics = m.setup_counts.clone();
    for (metric, span) in [
        ("workload.regions_ms", "workload.regions"),
        ("workload.arrivals_ms", "workload.arrivals"),
        ("methods.materialize_ms", "methods.materialize"),
        ("grid.directory_ms", "grid.directory"),
        ("engine.build_ms", "engine.build"),
        ("kernel.build_ms", "kernel.build"),
    ] {
        metrics.insert(metric, summary.total_ms("phase.setup", span) / setups);
    }
    metrics.extend(&m.first.counts);
    let snap = recorder.registry().snapshot();
    let hits = snap.counter("kernel.shape_cache_hits").unwrap_or(0) as f64;
    let misses = snap.counter("kernel.shape_cache_misses").unwrap_or(0) as f64;
    metrics.insert("serve.shape_cache_hits", hits);
    metrics.insert("serve.shape_cache_misses", misses);
    metrics.insert("serve.shape_cache_hit_ratio", ratio(hits, hits + misses));
    w.layers(&m.state, &m.first, &summary, passes, &mut metrics);
    metrics.insert("trace.overhead_ratio", m.run_s / untraced.run_s());
    let covered_s = summary.layer_covered_ns() as f64 / 1e9;
    metrics.insert("trace.unattributed_ratio", 1.0 - covered_s / m.wall_s);

    write_spans(workload, seed, &summary)?;
    Ok(Outcome {
        attempted: m.attempted + untraced.attempted,
        failed: m.failed + untraced.failed,
        metrics,
        digest: m.first.digest.value(),
    })
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Writes the traced run's spans under `perfbench/out/`.
fn write_spans(workload: &str, seed: u64, summary: &TraceSummary) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    std::fs::write(&path, summary.to_jsonl(workload))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper_rt|serve_open|serve_shared|serve_faults> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| format!("--seed needs a whole number, got {value:?}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("--seconds needs a number, got {value:?}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("--seconds needs a positive number, got {value:?}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace needs 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run<W: Workload>(w: &W, args: &Args) -> Result<Outcome, String> {
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "perfbench env {{\"workload\": \"{}\", \"seed\": {}, \"available_parallelism\": {cores}, \
         \"threads\": {}, \"profile\": \"{}\", \"seconds\": {}, \"trace\": {}, \
         \"held_out_seed\": {HELD_OUT_SEED}}}",
        args.workload,
        args.seed,
        w.threads(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        args.seconds,
        u8::from(args.trace),
    );
    if args.trace {
        run_traced(w, &args.workload, args.seed, args.seconds)
    } else {
        run_untraced(w, args.seed, args.seconds)
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "paper_rt" => run(&paper_rt::PaperRt::FULL, &args),
        "serve_open" => run(&serve::Serve::full(serve::Mode::Open), &args),
        "serve_shared" => run(&serve::Serve::full(serve::Mode::Shared), &args),
        "serve_faults" => run(&serve::Serve::full(serve::Mode::Faults), &args),
        other => Err(format!("unknown workload {other:?}\n{USAGE}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!(
        "perfbench sim_digest {} {:#018x}",
        args.workload, outcome.digest
    );
    println!(
        "perfbench error_rate {} ({} failed of {} attempted)",
        outcome.failed as f64 / outcome.attempted as f64,
        outcome.failed,
        outcome.attempted
    );
    match metrics::result_line(
        &outcome.metrics,
        args.trace,
        outcome.attempted,
        outcome.failed,
    ) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::quantile;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.1), 7.0);
    }
}
