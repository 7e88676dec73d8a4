//! Property test for the sharded serving path: on random `ServeSpec`s —
//! plain open-loop, shared scans (batch window + replicas + routing
//! policy), and fault-injected runs — a sharded run must equal the
//! serial run in every observable: the aggregate report, the event-loop
//! counters, the mid-run samples, and the rendered metrics snapshot,
//! for shard counts S in {1, 2, 7, M} and for inline as well as
//! threaded shard walking. Lattice cases put arrivals, sample boundaries
//! and (with integer or zero disk times) completions on a common integer
//! grid, so tied arrivals, completions tied with arrivals, and samples
//! landing exactly on event times pin the serial heap's `(time, seq)`
//! tie rule, together with ring windows of 1, 3 and 1024 latencies.
//! The fault-injected path has global feedback and falls back to the
//! serial core, so its equality is trivial by construction — it is
//! still generated here so the shard-count validation and dispatch stay
//! covered on every mode.

use decluster::grid::{BucketRegion, GridDirectory, GridSpace};
use decluster::obs::{MetricsRecorder, Obs};
use decluster::prelude::*;
use decluster::sim::workload::random_region;
use decluster::sim::{
    DiskParams, FaultSchedule, LoopScratch, MultiUserEngine, ReplicaPolicy, ServeRun, ServeSample,
    ServeSpec,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// How a generated case exercises the spec surface.
#[derive(Clone, Debug)]
enum Mode {
    /// Healthy open loop: the parallel Stage A/B/C path proper.
    Plain,
    /// Shared scans: batch window, optional replicas, routing policy.
    Shared {
        window_ms: f64,
        replicas: u32,
        policy: ReplicaPolicy,
    },
    /// Fault injection: serial-fallback path, shards still validated.
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
    /// Worker threads for the sharded runs (1 = inline walk).
    threads: usize,
}

fn policy() -> impl Strategy<Value = ReplicaPolicy> {
    prop_oneof![
        Just(ReplicaPolicy::PrimaryOnly),
        Just(ReplicaPolicy::Spread),
        Just(ReplicaPolicy::NearestFreeQueue),
        Just(ReplicaPolicy::RoundRobin),
    ]
}

fn mode() -> impl Strategy<Value = Mode> {
    prop_oneof![
        Just(Mode::Plain),
        (1.0f64..24.0, 0u32..=2, policy()).prop_map(|(window_ms, replicas, policy)| {
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
            prop_oneof![Just(1usize), Just(3usize)],
        )
            .prop_map(
                |(m, query_seed, (gaps, disk), (sampling, window), mode, threads)| Case {
                    m,
                    query_seed,
                    gaps,
                    sampling,
                    window,
                    disk,
                    mode,
                    threads,
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

/// Runs one spec and flattens every observable into comparable form:
/// the full `ServeRun` (Debug covers every field, and f64's shortest
/// round-trip formatting distinguishes distinct bit patterns), the
/// mid-run samples, and the deterministic metrics snapshot.
fn observe(
    spec: &ServeSpec,
    engine: &MultiUserEngine,
    params: &DiskParams,
    queries: &[BucketRegion],
    arrivals: &[f64],
) -> (ServeRun, Vec<ServeSample>, String) {
    let rec = Arc::new(MetricsRecorder::new());
    let obs = Obs::new(rec.clone());
    let mut ls = LoopScratch::new();
    let run = spec
        .run_with_arrivals(engine, params, queries, arrivals, &obs, &mut ls)
        .expect("every generated spec is valid");
    let metrics = rec.registry().snapshot().render_text();
    (run, ls.samples().to_vec(), metrics)
}

/// Deterministic pin of the plan-cache thrash regime: 40 distinct query
/// shapes exceed the 32-slot `PlanCache`, so the serial loop evicts on
/// nearly every arrival and the sharded path's LRU replay must
/// reproduce the hit/miss counters (surfaced in the metrics snapshot)
/// through its cycle detection rather than the no-eviction fast path.
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
    let (serial_run, serial_samples, serial_metrics) =
        observe(&spec, &engine, &params, &queries, &arrivals);
    assert!(
        serial_metrics.contains("kernel.shape_cache_misses"),
        "thrash run must surface plan-cache counters"
    );
    for (shards, threads) in [(2usize, 1usize), (8, 1), (8, 3)] {
        let sharded = spec.clone().shards(shards).threads(threads);
        let (run, samples, metrics) = observe(&sharded, &engine, &params, &queries, &arrivals);
        assert_eq!(
            format!("{:?}", run.report),
            format!("{:?}", serial_run.report),
            "report diverged at {shards} shards"
        );
        assert_eq!(run.events, serial_run.events);
        assert_eq!(samples, serial_samples);
        assert_eq!(
            metrics, serial_metrics,
            "metrics diverged at {shards} shards"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn sharded_runs_equal_serial_runs(case in case()) {
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
        let (serial_run, serial_samples, serial_metrics) =
            observe(&spec, &engine, &params, &queries, &arrivals);

        for shards in [1usize, 2, 7, case.m as usize] {
            let sharded = spec.clone().shards(shards).threads(case.threads);
            let (run, samples, metrics) =
                observe(&sharded, &engine, &params, &queries, &arrivals);

            // Report floats bit for bit (Debug is a faithful f64 witness).
            prop_assert_eq!(
                format!("{:?}", run.report),
                format!("{:?}", serial_run.report),
                "report diverged at {} shards, {} threads",
                shards,
                case.threads
            );
            prop_assert_eq!(run.report.makespan_ms.to_bits(), serial_run.report.makespan_ms.to_bits());
            prop_assert_eq!(run.report.latency.mean.to_bits(), serial_run.report.latency.mean.to_bits());
            prop_assert_eq!(run.report.utilization.to_bits(), serial_run.report.utilization.to_bits());
            // Event-loop counters and optional accounting.
            prop_assert_eq!(run.events, serial_run.events);
            prop_assert_eq!(run.pages, serial_run.pages);
            prop_assert_eq!(run.peak_in_flight, serial_run.peak_in_flight);
            prop_assert_eq!(run.samples, serial_run.samples);
            prop_assert_eq!(run.availability, serial_run.availability);
            prop_assert_eq!(run.sharing, serial_run.sharing);
            // Mid-run samples element-wise.
            prop_assert_eq!(&samples, &serial_samples);
            // Rendered metrics snapshot byte for byte.
            prop_assert_eq!(&metrics, &serial_metrics, "metrics diverged at {} shards", shards);
        }
    }
}
