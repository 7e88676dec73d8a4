//! Kernel v1 vs v2 benchmarks.
//!
//! Scoring: the BENCH_rt.json workload — a 64×64 grid, M = 16, and 1000
//! placements of one repeated query shape — scored through the v1 kernel
//! path (u32 count lanes, per-query corner derivation, per-query
//! accumulator allocation) and the v2 path (adaptive u16 lanes, a
//! shape-compiled [`CornerPlan`] cached in a reusable
//! [`decluster_methods::Scratch`]). The acceptance target for the v2
//! path is ≥ 2× over v1 on this workload.
//!
//! Construction: serial vs parallel per-method kernel build of an
//! [`EvalContext`], which dominates small sweeps; and the table build
//! alone on the 4-D 16^4 grid at M = 64, at the narrow lane `build`
//! picks (1 024 buckets per disk) and at the forced wide lane.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use decluster_grid::{BucketRegion, GridSpace};
use decluster_methods::{AllocationMap, DiskCounts, MethodRegistry, Scratch};
use decluster_sim::EvalContext;
use std::hint::black_box;

/// The repeated-shape placement stream every scoring bench shares:
/// `count` translates of a `side × side` query walked over the grid.
fn placements(space: &GridSpace, side: u32, count: usize) -> Vec<BucketRegion> {
    let base =
        BucketRegion::new(space, [0, 0].into(), [side - 1, side - 1].into()).expect("shape fits");
    let span = space.dims()[0] - side;
    (0..count)
        .map(|i| {
            let dy = (i as u32 * 7) % (span + 1);
            let dx = (i as u32 * 13) % (span + 1);
            base.translate(space, &[dy, dx]).expect("stays inside")
        })
        .collect()
}

fn maps_64x64_m16() -> Vec<AllocationMap> {
    let space = GridSpace::new_2d(64, 64).expect("grid");
    let registry = MethodRegistry::default();
    registry
        .paper_methods(&space, 16)
        .iter()
        .map(|m| AllocationMap::from_method(&space, m.as_ref()).expect("materializes"))
        .collect()
}

fn bench_scoring(c: &mut Criterion) {
    let space = GridSpace::new_2d(64, 64).expect("grid");
    let maps = maps_64x64_m16();
    let regions = placements(&space, 16, 1000);
    let v1: Vec<DiskCounts> = maps
        .iter()
        .map(|m| DiskCounts::build_wide(m).expect("kernel"))
        .collect();
    let v2: Vec<DiskCounts> = maps
        .iter()
        .map(|m| DiskCounts::build(m).expect("kernel"))
        .collect();
    assert!(v2.iter().all(|k| k.lane_bits() == 16), "64x64 fits u16");

    let mut group = c.benchmark_group("kernel2_score_64x64_m16_1000q");
    group.throughput(Throughput::Elements((regions.len() * v1.len()) as u64));
    group.bench_function("v1_wide_per_query_corners", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for kernel in &v1 {
                for r in &regions {
                    acc += kernel.response_time(r);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("v2_planned_scratch", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            let mut acc = 0u64;
            for kernel in &v2 {
                for r in &regions {
                    acc += kernel.response_time_with(r, &mut scratch);
                }
            }
            black_box(acc)
        })
    });
    // The intermediate variants, to attribute the win: plan+scratch on
    // the wide table (plan alone) and per-query corners on the narrow
    // table (lane width alone).
    group.bench_function("v1_wide_planned_scratch", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            let mut acc = 0u64;
            for kernel in &v1 {
                for r in &regions {
                    acc += kernel.response_time_with(r, &mut scratch);
                }
            }
            black_box(acc)
        })
    });
    group.bench_function("v2_narrow_per_query_corners", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for kernel in &v2 {
                for r in &regions {
                    acc += kernel.response_time(r);
                }
            }
            black_box(acc)
        })
    });
    group.finish();

    let mut masked = c.benchmark_group("kernel2_masked_64x64_m16_1000q");
    let mut live = [true; 16];
    live[3] = false;
    live[11] = false;
    masked.bench_function("v1_masked", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for r in &regions {
                acc += v1[0].masked_response_time(r, &live);
            }
            black_box(acc)
        })
    });
    masked.bench_function("v2_masked_planned", |b| {
        let mut scratch = Scratch::new();
        b.iter(|| {
            let mut acc = 0u64;
            for r in &regions {
                acc += v2[0].masked_response_time_with(r, &live, &mut scratch);
            }
            black_box(acc)
        })
    });
    masked.finish();
}

fn bench_build(c: &mut Criterion) {
    // A larger grid than the scoring bench so the build cost is worth
    // parallelizing (the paper's E6 tops out at 128 partitions/side).
    let space = GridSpace::new_2d(128, 128).expect("grid");
    let registry = MethodRegistry::default();
    let maps: Vec<AllocationMap> = registry
        .paper_methods(&space, 16)
        .iter()
        .map(|m| AllocationMap::from_method(&space, m.as_ref()).expect("materializes"))
        .collect();

    let mut group = c.benchmark_group("kernel2_build_128x128_m16");
    group.sample_size(20);
    group.bench_function("serial_from_maps", |b| {
        b.iter_with_setup(
            || maps.clone(),
            |maps| black_box(EvalContext::from_maps(16, maps).kernel_coverage()),
        )
    });
    for threads in [2usize, 4] {
        group.bench_function(BenchmarkId::new("parallel_from_maps", threads), |b| {
            b.iter_with_setup(
                || maps.clone(),
                |maps| {
                    black_box(EvalContext::from_maps_parallel(16, maps, threads).kernel_coverage())
                },
            )
        });
    }
    group.finish();
}

fn bench_build_4d(c: &mut Criterion) {
    // 65 536 buckets: the paper's cache-exceeding configuration, whose
    // tables (8 MiB narrow, 16 MiB wide per method) leave the cache.
    let space = GridSpace::new_cube(4, 16).expect("grid");
    let registry = MethodRegistry::default();
    let maps: Vec<AllocationMap> = registry
        .paper_methods(&space, 64)
        .iter()
        .map(|m| AllocationMap::from_method(&space, m.as_ref()).expect("materializes"))
        .collect();

    let mut group = c.benchmark_group("kernel2_build_16x16x16x16_m64");
    group.sample_size(20);
    group.throughput(Throughput::Elements(
        maps.len() as u64 * space.num_buckets() * 64,
    ));
    group.bench_function("build", |b| {
        b.iter(|| {
            for map in &maps {
                black_box(DiskCounts::build(map).expect("kernel"));
            }
        })
    });
    group.bench_function("build_wide", |b| {
        b.iter(|| {
            for map in &maps {
                black_box(DiskCounts::build_wide(map).expect("kernel"));
            }
        })
    });
    group.finish();
}

criterion_group!(kernel2, bench_scoring, bench_build, bench_build_4d);
criterion_main!(kernel2);
