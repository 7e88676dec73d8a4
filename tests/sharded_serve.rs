//! Property test for the open-loop serving pipeline against the naive
//! reference simulator in `tests/common/reference.rs`: on random
//! `ServeSpec`s — plain open loop and shared scans (batch window +
//! replicas + routing policy) — every shard count S in {1, 2, 7, M}, with
//! inline and threaded shard walking, must equal the reference in every
//! observable: the aggregate report (floats bit for bit), events, pages,
//! peak in-flight, the mid-run samples, the sharing accounting, and the
//! batch / queued-batch / per-disk busy metric counters. Lattice cases
//! put arrivals, sample boundaries and (with integer or zero disk times)
//! completions on a common integer grid, so tied arrivals, completions
//! tied with arrivals, and samples landing exactly on event times pin
//! the `(time, seq)` tie rule, together with ring windows of 1, 3 and
//! 1024 latencies. Fault-injected runs have their own event loop, which
//! the reference does not model; they stay here as a shard-count
//! invariance case so the shard-count validation and dispatch stay
//! covered on every mode.

mod common;

use common::reference::{self, RefRun, Sharing};
use decluster::grid::{BucketRegion, GridDirectory, GridSpace};
use decluster::obs::{MetricsRecorder, Obs};
use decluster::prelude::*;
use decluster::sim::workload::random_region;
use decluster::sim::{
    DiskParams, FaultSchedule, LoopScratch, MultiUserEngine, ReplicaPolicy, ServeRun, ServeSample,
    ServeSpec, ShareStats,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// How a generated case exercises the spec surface.
#[derive(Clone, Debug)]
enum Mode {
    /// Healthy open loop.
    Plain,
    /// Shared scans: batch window, optional replicas, routing policy.
    Shared {
        window_ms: f64,
        replicas: u32,
        policy: ReplicaPolicy,
    },
    /// Fault injection: its own event loop, shards still validated.
    Faults {
        replicas: u32,
        policy: ReplicaPolicy,
        from: u64,
        until: u64,
    },
}

#[derive(Clone, Debug)]
struct Case {
    /// Disk count, at least 7 so S = 7 always passes validation.
    m: u32,
    /// Seed for the random query rectangles.
    query_seed: u64,
    /// Inter-arrival gaps, ms; prefix-summed into arrival times.
    gaps: Vec<f64>,
    /// Mid-run sampling period, when on.
    sampling: Option<f64>,
    /// Capacity of the latency ring behind each sample's tails.
    window: usize,
    /// Disk timing: the default model, or integer / zero service times
    /// that put completions on the same grid as lattice arrivals.
    disk: Disk,
    mode: Mode,
}

fn policy() -> impl Strategy<Value = ReplicaPolicy> {
    prop_oneof![
        Just(ReplicaPolicy::PrimaryOnly),
        Just(ReplicaPolicy::Spread),
        Just(ReplicaPolicy::NearestFreeQueue),
        Just(ReplicaPolicy::RoundRobin),
    ]
}

/// A shared-scan batch window: continuous, or a small integer so flushes
/// (and, with integer disk times, completions) land on the arrival
/// lattice and tie with arrivals.
fn batch_window() -> impl Strategy<Value = f64> {
    prop_oneof![1.0f64..24.0, (1u32..=8).prop_map(f64::from)]
}

fn mode() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Plain),
        (batch_window(), 0u32..=2, policy()).prop_map(|(window_ms, replicas, policy)| {
            Mode::Shared {
                window_ms,
                replicas,
                policy,
            }
        }),
        (1u32..=2, policy(), 0u64..40, 10u64..80).prop_map(|(replicas, policy, from, dur)| {
            Mode::Faults {
                replicas,
                policy,
                from,
                until: from + dur,
            }
        }),
    ]
}

/// Disk service-time model of a case.
#[derive(Clone, Copy, Debug)]
enum Disk {
    Default,
    /// Every page costs 2 ms.
    Integer,
    /// Every batch costs nothing: each completion ties its own arrival.
    Free,
}

impl Disk {
    fn params(self) -> DiskParams {
        let uniform = |seek_ms, transfer_ms| DiskParams {
            min_seek_ms: seek_ms,
            max_seek_ms: seek_ms,
            rotational_latency_ms: 0.0,
            transfer_ms,
        };
        match self {
            Disk::Default => DiskParams::default(),
            Disk::Integer => uniform(1.0, 1.0),
            Disk::Free => uniform(0.0, 0.0),
        }
    }
}

/// One inter-arrival gap: continuous, an exact zero (a tied arrival),
/// or a small integer (arrivals on the integer lattice).
fn gap() -> impl Strategy<Value = f64> {
    prop_oneof![0.0f64..4.0, Just(0.0), (0u32..=3).prop_map(f64::from)]
}

/// Inter-arrival gaps: mixed kinds, or all integers so every arrival
/// sits on the lattice.
fn gaps(n: usize) -> impl Strategy<Value = Vec<f64>> {
    prop_oneof![
        prop::collection::vec(gap(), n..n + 1),
        prop::collection::vec((0u32..=3).prop_map(f64::from), n..n + 1),
    ]
}

fn case() -> impl Strategy<Value = Case> {
    (7u32..=12, 12usize..=48).prop_flat_map(|(m, n)| {
        (
            Just(m),
            any::<u64>(),
            (
                gaps(n),
                prop_oneof![Just(Disk::Default), Just(Disk::Integer), Just(Disk::Free)],
            ),
            (
                prop_oneof![
                    Just(None),
                    (4.0f64..48.0).prop_map(Some),
                    // Integer periods land exactly on lattice arrivals.
                    (1u32..=12).prop_map(|t| Some(f64::from(t))),
                ],
                prop_oneof![Just(1usize), Just(3usize), Just(1024usize)],
            ),
            mode(),
        )
            .prop_map(
                |(m, query_seed, (gaps, disk), (sampling, window), mode)| Case {
                    m,
                    query_seed,
                    gaps,
                    sampling,
                    window,
                    disk,
                    mode,
                },
            )
    })
}

/// Mixed rectangle shapes covering the kernel's per-shape plan cache.
const SHAPES: [[u32; 2]; 5] = [[1, 1], [2, 2], [2, 8], [4, 4], [6, 6]];

fn spec_for(case: &Case, m: u32) -> ServeSpec {
    // The open-mode rate is unused by `run_with_arrivals` (arrivals are
    // explicit), but the mode still selects the streaming dispatch.
    let mut spec = ServeSpec::open(100.0).seed(7).window(case.window);
    if let Some(every_ms) = case.sampling {
        spec = spec.sampling(every_ms);
    }
    match case.mode {
        Mode::Plain => spec,
        Mode::Shared {
            window_ms,
            replicas,
            policy,
        } => spec.share(window_ms).replicas(replicas).policy(policy),
        Mode::Faults {
            replicas,
            policy,
            from,
            until,
        } => spec.replicas(replicas).policy(policy).faults(
            FaultSchedule::healthy(m)
                .transient(3, from, until)
                .expect("disk 3 exists on every generated array"),
        ),
    }
}

/// The reference run of a healthy case (`None` for fault injection).
fn reference_for(
    case: &Case,
    dir: &GridDirectory,
    params: &DiskParams,
    queries: &[BucketRegion],
    arrivals: &[f64],
) -> Option<RefRun> {
    let share = match case.mode {
        Mode::Plain => None,
        Mode::Shared {
            window_ms,
            replicas,
            policy,
        } => Some(Sharing {
            window_ms,
            replicas,
            policy,
        }),
        Mode::Faults { .. } => return None,
    };
    Some(reference::simulate(
        dir,
        params,
        queries,
        arrivals,
        case.sampling.unwrap_or(0.0),
        case.window,
        share,
    ))
}

/// One pipeline run observed as a whole.
struct Observed {
    run: ServeRun,
    samples: Vec<ServeSample>,
    metrics: String,
    counter: Box<dyn Fn(&str) -> u64>,
}

/// Runs one spec and flattens every observable into comparable form:
/// the full `ServeRun`, the mid-run samples, the rendered deterministic
/// metrics snapshot, and a counter lookup into it.
fn observe(
    spec: &ServeSpec,
    engine: &MultiUserEngine,
    params: &DiskParams,
    queries: &[BucketRegion],
    arrivals: &[f64],
) -> Observed {
    let rec = Arc::new(MetricsRecorder::new());
    let obs = Obs::new(rec.clone());
    let mut ls = LoopScratch::new();
    let run = spec
        .run_with_arrivals(engine, params, queries, arrivals, &obs, &mut ls)
        .expect("every generated spec is valid");
    let snapshot = rec.registry().snapshot();
    Observed {
        run,
        samples: ls.samples().to_vec(),
        metrics: snapshot.render_text(),
        counter: Box::new(move |key| snapshot.counter(key).unwrap_or(0)),
    }
}

/// Every observable of a pipeline run against the reference; `Err`
/// names the first that differs.
fn check_against_reference(got: &Observed, want: &RefRun, shared: bool) -> Result<(), String> {
    let fail =
        |what: &str, a: String, b: String| Err(format!("{what}: pipeline {a} != reference {b}"));
    let (r, w) = (&got.run.report, &want.report);
    if format!("{r:?}") != format!("{w:?}") {
        return fail("report", format!("{r:?}"), format!("{w:?}"));
    }
    for (what, a, b) in [
        ("makespan", r.makespan_ms, w.makespan_ms),
        ("mean latency", r.latency.mean, w.latency.mean),
        ("utilization", r.utilization, w.utilization),
        ("throughput", r.throughput_qps, w.throughput_qps),
    ] {
        if a.to_bits() != b.to_bits() {
            return fail(what, a.to_string(), b.to_string());
        }
    }
    let mut pairs = vec![
        ("events", got.run.events, want.events),
        ("pages", got.run.pages, want.pages),
        (
            "peak in-flight",
            got.run.peak_in_flight as u64,
            want.peak_in_flight as u64,
        ),
        (
            "sample count",
            got.run.samples as u64,
            want.samples.len() as u64,
        ),
        (
            "serve.batches",
            (got.counter)("serve.batches"),
            want.batches,
        ),
        (
            "serve.queued_batches",
            (got.counter)("serve.queued_batches"),
            want.queued_batches,
        ),
    ];
    let busy_keys: Vec<String> = (0..want.busy_ms.len())
        .map(|d| format!("serve.disk{d:02}.busy_us"))
        .collect();
    for (key, &busy) in busy_keys.iter().zip(&want.busy_ms) {
        pairs.push((key, (got.counter)(key), (busy * 1000.0).round() as u64));
    }
    for (what, a, b) in pairs {
        if a != b {
            return fail(what, a.to_string(), b.to_string());
        }
    }
    if got.samples != want.samples {
        return fail(
            "samples",
            format!("{:?}", got.samples),
            format!("{:?}", want.samples),
        );
    }
    let sharing = shared.then_some(ShareStats {
        windows: want.windows,
        merged_queries: want.merged_queries,
        pages_saved: want.pages_saved,
    });
    if got.run.sharing != sharing || got.run.availability.is_some() {
        return fail(
            "sharing",
            format!("{:?}", got.run.sharing),
            format!("{sharing:?}"),
        );
    }
    Ok(())
}

/// Deterministic pin of the plan-cache thrash regime: 40 distinct query
/// shapes exceed the 32-slot `PlanCache`, so a per-request cache evicts
/// on nearly every arrival and the pipeline's LRU replay must report the
/// hit/miss counters (surfaced in the metrics snapshot) through its
/// cycle detection rather than the no-eviction fast path. The run itself
/// must match the reference, and its metrics must not depend on the
/// shard count.
#[test]
fn sharded_metrics_survive_plan_cache_thrash() {
    let space = GridSpace::new_2d(32, 32).unwrap();
    let m = 8u32;
    let hcam = Hcam::new(&space, m).unwrap();
    let dir = GridDirectory::build(space.clone(), m, |b| hcam.disk_of(b.as_slice()));
    let engine = MultiUserEngine::new(&dir);
    let params = DiskParams::default();

    // h in 1..=5 crossed with w in 1..=8: 40 distinct shapes, cycled
    // round-robin — the classic LRU worst case for a 32-slot cache.
    let mut rng = StdRng::seed_from_u64(11);
    let queries: Vec<BucketRegion> = (0..200)
        .map(|i| {
            let shape = [1 + (i / 8) as u32 % 5, 1 + i as u32 % 8];
            random_region(&mut rng, &space, &shape).unwrap()
        })
        .collect();
    let arrivals: Vec<f64> = (0..4000).map(|i| i as f64 * 0.4).collect();

    let spec = ServeSpec::open(100.0).sampling(32.0).seed(7);
    let one = observe(&spec, &engine, &params, &queries, &arrivals);
    assert!(
        (one.counter)("kernel.shape_cache_misses") > 40,
        "thrash run must surface evicting plan-cache counters"
    );
    let want = reference::simulate(&dir, &params, &queries, &arrivals, 32.0, 1024, None);
    if let Err(diff) = check_against_reference(&one, &want, false) {
        panic!("one shard vs reference: {diff}");
    }
    for (shards, threads) in [(2usize, 1usize), (8, 1), (8, 3)] {
        let sharded = spec.clone().shards(shards).threads(threads);
        let got = observe(&sharded, &engine, &params, &queries, &arrivals);
        if let Err(diff) = check_against_reference(&got, &want, false) {
            panic!("{shards} shards vs reference: {diff}");
        }
        assert_eq!(
            got.metrics, one.metrics,
            "metrics diverged at {shards} shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn serve_spec_matches_the_naive_reference(case in case()) {
        let space = GridSpace::new_2d(24, 24).unwrap();
        let hcam = Hcam::new(&space, case.m).unwrap();
        let dir = GridDirectory::build(space.clone(), case.m, |b| hcam.disk_of(b.as_slice()));
        let engine = MultiUserEngine::new(&dir);
        let params = case.disk.params();

        let mut rng = StdRng::seed_from_u64(case.query_seed);
        let queries: Vec<BucketRegion> = (0..case.gaps.len())
            .map(|i| random_region(&mut rng, &space, &SHAPES[i % SHAPES.len()]).unwrap())
            .collect();
        let mut t = 0.0f64;
        let arrivals: Vec<f64> = case
            .gaps
            .iter()
            .map(|g| {
                t += g;
                t
            })
            .collect();

        let spec = spec_for(&case, case.m);
        let want = reference_for(&case, &dir, &params, &queries, &arrivals);
        let shared = matches!(case.mode, Mode::Shared { .. });
        let one = observe(&spec, &engine, &params, &queries, &arrivals);

        for shards in [1usize, 2, 7, case.m as usize] {
            for threads in [1usize, 3] {
                let sharded = spec.clone().shards(shards).threads(threads);
                let got = observe(&sharded, &engine, &params, &queries, &arrivals);
                if let Some(want) = &want {
                    let checked = check_against_reference(&got, want, shared);
                    prop_assert!(
                        checked.is_ok(),
                        "S={} T={}: {}",
                        shards,
                        threads,
                        checked.unwrap_err()
                    );
                }
                // Every mode, faults included: nothing depends on the
                // shard or thread count.
                prop_assert_eq!(
                    format!("{:?}", got.run),
                    format!("{:?}", one.run),
                    "run diverged at {} shards, {} threads",
                    shards,
                    threads
                );
                prop_assert_eq!(&got.samples, &one.samples);
                prop_assert_eq!(&got.metrics, &one.metrics, "metrics diverged at {} shards", shards);
            }
        }
    }
}
