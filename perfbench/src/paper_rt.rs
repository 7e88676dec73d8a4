//! `paper_rt`: the paper's figure populations scored by every paper
//! method through the response-time kernel, on one thread.
//!
//! Populations: E1 query sizes, E2 shapes and E3 3-D volumes on 64x64 /
//! 16^3 at M=16; the E4/E5 disk sweep M=2..32 at areas 4 and 256; and one
//! 4-D 16^4 grid at M=64 with mixed 1..8 extents. The 2-D/3-D kernels are
//! small and every population repeats one shape, so they stay
//! cache-resident and the per-scratch corner plan nearly always hits.
//! The 4-D kernels hold tens of MB of count tables and each query draws
//! its own shape, so nearly every plan misses.

use crate::digest::Digest;
use crate::metrics::LayerValues;
use crate::trace::{TraceSummary, Tracer};
use crate::{ratio, GateOut, PassOut, Workload};
use decluster::grid::{BucketRegion, GridSpace};
use decluster::methods::{
    splitmix64, AllocationMap, DeclusteringMethod, DiskCounts, MethodRegistry, Scratch,
};
use decluster::obs::Obs;
use decluster::sim::workload::{random_region, rect_sides_for_area, ShapeSweep};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The E4/E5 disk counts.
const DISK_SWEEP: [u32; 16] = [2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30, 32];
/// E1 query areas on the 64x64 grid.
const E1_AREAS: [u64; 19] = [
    1, 2, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
];
/// E3 query volumes on the 16^3 grid.
const E3_VOLUMES: [u64; 8] = [1, 8, 27, 64, 125, 216, 512, 1024];
/// Every `GATE_STRIDE`-th scored query is checked against a brute-force
/// count.
const GATE_STRIDE: u64 = 97;

#[derive(Clone, Copy, Debug)]
pub struct PaperRt {
    /// Queries per 2-D/3-D population.
    pub queries_per_point: usize,
    /// Queries of the 4-D population.
    pub queries_4d: usize,
}

impl PaperRt {
    pub const FULL: PaperRt = PaperRt {
        queries_per_point: 1000,
        queries_4d: 4_000,
    };
}

/// One grid and disk count with its materialized methods and kernels.
struct Config {
    maps: Vec<AllocationMap>,
    kernels: Vec<DiskCounts>,
}

/// Which kernel regime a population exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Part {
    CacheResident,
    CacheExceeding,
}

impl Part {
    fn span(self) -> &'static str {
        match self {
            Part::CacheResident => "kernel.score.cache_resident",
            Part::CacheExceeding => "kernel.score.cache_exceeding",
        }
    }
}

/// A query population scored against every method of one config.
struct Population {
    label: String,
    config: usize,
    pool: usize,
    part: Part,
    /// The E1 area, for the finding-2 check.
    e1_area: Option<u64>,
}

pub struct State {
    configs: Vec<Config>,
    pools: Vec<Vec<BucketRegion>>,
    /// Total buckets per pool: one simulated bucket read each.
    pool_buckets: Vec<u64>,
    pops: Vec<Population>,
    scratch: Scratch,
}

fn derive(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index))
}

impl PaperRt {
    fn config(
        registry: &MethodRegistry,
        space: &GridSpace,
        m: u32,
        label: &str,
        tr: &Tracer,
        counts: &mut LayerValues,
    ) -> Config {
        let maps: Vec<AllocationMap> = {
            let _s = tr.span("methods.materialize", || label.to_owned());
            registry
                .paper_methods(space, m)
                .iter()
                .map(|method| {
                    AllocationMap::from_method(space, method.as_ref())
                        .expect("paper grids are small enough to materialize")
                })
                .collect()
        };
        let kernels: Vec<DiskCounts> = {
            let _s = tr.span("kernel.build", || label.to_owned());
            maps.iter()
                .map(|map| DiskCounts::build(map).expect("paper grids admit a kernel"))
                .collect()
        };
        *counts.entry("methods.allocations").or_default() += maps.len() as f64;
        *counts.entry("kernel.table_bytes").or_default() +=
            kernels.iter().map(|k| k.table_bytes() as f64).sum::<f64>();
        Config { maps, kernels }
    }

    /// `n` placements of the box `sides`, or of a fresh random box of
    /// extents `1..=max_extent` per query when `sides` is empty.
    fn pool(
        space: &GridSpace,
        sides: &[u32],
        max_extent: u32,
        n: usize,
        seed: u64,
        label: &str,
        tr: &Tracer,
    ) -> Vec<BucketRegion> {
        let _s = tr.span("workload.regions", || label.to_owned());
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let own: Vec<u32>;
                let sides = if sides.is_empty() {
                    own = (0..space.k())
                        .map(|_| rng.gen_range(1..=max_extent))
                        .collect();
                    &own
                } else {
                    sides
                };
                random_region(&mut rng, space, sides).expect("population boxes fit their grid")
            })
            .collect()
    }
}

impl Workload for PaperRt {
    type State = State;

    fn threads(&self) -> usize {
        1
    }

    fn setup(&self, seed: u64, tr: &Tracer) -> (State, LayerValues) {
        let mut counts = LayerValues::new();
        let registry = MethodRegistry::with_seed(seed);
        let grid2 = GridSpace::new_2d(64, 64).expect("64x64 grid");
        let grid3 = GridSpace::new_cube(3, 16).expect("16^3 grid");
        let grid4 = GridSpace::new_cube(4, 16).expect("16^4 grid");

        let mut configs = Vec::new();
        for &m in &DISK_SWEEP {
            configs.push(Self::config(
                &registry,
                &grid2,
                m,
                &format!("2d-M{m}"),
                tr,
                &mut counts,
            ));
        }
        let c2_m16 = DISK_SWEEP
            .iter()
            .position(|&m| m == 16)
            .expect("M=16 swept");
        let c3 = configs.len();
        configs.push(Self::config(
            &registry,
            &grid3,
            16,
            "3d-M16",
            tr,
            &mut counts,
        ));
        let c4 = configs.len();
        configs.push(Self::config(
            &registry,
            &grid4,
            64,
            "4d-M64",
            tr,
            &mut counts,
        ));

        let (mut pools, mut pops) = (Vec::new(), Vec::new());
        let q = self.queries_per_point;
        let add_pool =
            |pools: &mut Vec<Vec<BucketRegion>>, space, sides: &[u32], n, label: &str| {
                let pool = Self::pool(
                    space,
                    sides,
                    8,
                    n,
                    derive(seed, pools.len() as u64),
                    label,
                    tr,
                );
                pools.push(pool);
                pools.len() - 1
            };
        for &area in &E1_AREAS {
            let sides = rect_sides_for_area(area, grid2.dims()).expect("E1 areas fit 64x64");
            let label = format!("e1-a{area}");
            let pool = add_pool(&mut pools, &grid2, &sides, q, &label);
            pops.push(Population {
                label,
                config: c2_m16,
                pool,
                part: Part::CacheResident,
                e1_area: Some(area),
            });
        }
        let shapes = ShapeSweep::new(64, 6);
        for &p in shapes.powers() {
            let (a, b) = ShapeSweep::sides_for(64, p).expect("admitted power");
            let label = format!("e2-1x{}", 1u32 << p);
            let pool = add_pool(&mut pools, &grid2, &[a, b], q, &label);
            pops.push(Population {
                label,
                config: c2_m16,
                pool,
                part: Part::CacheResident,
                e1_area: None,
            });
        }
        for &v in &E3_VOLUMES {
            let sides = rect_sides_for_area(v, grid3.dims()).expect("E3 volumes fit 16^3");
            let label = format!("e3-v{v}");
            let pool = add_pool(&mut pools, &grid3, &sides, q, &label);
            pops.push(Population {
                label,
                config: c3,
                pool,
                part: Part::CacheResident,
                e1_area: None,
            });
        }
        for (fig, area) in [("e4", 4u64), ("e5", 256)] {
            // One shared population per area, so every M sees the same
            // queries.
            let sides = rect_sides_for_area(area, grid2.dims()).expect("E4/E5 areas fit 64x64");
            let pool = add_pool(&mut pools, &grid2, &sides, q, fig);
            for (ci, &m) in DISK_SWEEP.iter().enumerate() {
                pops.push(Population {
                    label: format!("{fig}-M{m}"),
                    config: ci,
                    pool,
                    part: Part::CacheResident,
                    e1_area: None,
                });
            }
        }
        let pool = add_pool(&mut pools, &grid4, &[], self.queries_4d, "4d-mixed");
        pops.push(Population {
            label: "4d-mixed".into(),
            config: c4,
            pool,
            part: Part::CacheExceeding,
            e1_area: None,
        });

        let pool_buckets = pools
            .iter()
            .map(|p| p.iter().map(BucketRegion::num_buckets).sum())
            .collect();
        counts.insert(
            "workload.regions",
            pools.iter().map(Vec::len).sum::<usize>() as f64,
        );
        let state = State {
            configs,
            pools,
            pool_buckets,
            pops,
            scratch: Scratch::new(),
        };
        (state, counts)
    }

    fn pass(&self, st: &mut State, tr: &Tracer, _obs: &Obs) -> PassOut {
        let mut out = PassOut::default();
        let (mut hits, mut misses) = (0u64, 0u64);
        // Plan statistics depend only on this pass's query order.
        st.scratch.reset_plan();
        for pop in &st.pops {
            let config = &st.configs[pop.config];
            let regions = &st.pools[pop.pool];
            for (map, kernel) in config.maps.iter().zip(&config.kernels) {
                let _s = tr.span(pop.part.span(), || format!("{}/{}", pop.label, map.name()));
                let t = Instant::now();
                let mut sum = 0u64;
                for region in regions {
                    sum += kernel.response_time_with(region, &mut st.scratch);
                }
                out.unit_s.push(t.elapsed().as_secs_f64());
                out.digest.u64(std::hint::black_box(sum));
                let (h, c) = st.scratch.drain_plan_stats();
                hits += h;
                misses += c;
            }
            let methods = config.kernels.len() as u64;
            out.ops += regions.len() as u64 * methods;
            out.events += st.pool_buckets[pop.pool] * methods;
        }
        let (h, m) = (hits as f64, misses as f64);
        out.counts.insert("kernel.queries", out.ops as f64);
        out.counts.insert("kernel.plan_hits", h);
        out.counts.insert("kernel.plan_misses", m);
        out.counts.insert("kernel.plan_hit_ratio", ratio(h, h + m));
        out
    }

    fn gate(&self, st: &mut State, first: &PassOut, tr: &Tracer) -> GateOut {
        let mut gate = GateOut::default();
        // The gate rescores every query; its sums must reproduce the
        // first pass's, which ties the sampled checks to the scored RTs.
        let mut rescored = Digest::default();
        let mut scratch = Scratch::new();
        let mut per_disk = Vec::new();
        let mut index = 0u64;
        // (area, method name) -> RT sum, for the E1 method ordering.
        let mut e1_sums: Vec<(u64, &'static str, u64)> = Vec::new();
        for pop in &st.pops {
            let config = &st.configs[pop.config];
            let regions = &st.pools[pop.pool];
            for (map, kernel) in config.maps.iter().zip(&config.kernels) {
                let _s = tr.span("check.brute_force", || {
                    format!("{}/{}", pop.label, map.name())
                });
                let (mut sum, m) = (0u64, u64::from(kernel.num_disks()));
                for region in regions {
                    let rt = kernel.response_time_with(region, &mut scratch);
                    sum += rt;
                    index += 1;
                    if !index.is_multiple_of(GATE_STRIDE) {
                        continue;
                    }
                    gate.checks += 1;
                    // Brute force: count the region's buckets per disk
                    // straight from the allocation table.
                    per_disk.clear();
                    per_disk.resize(m as usize, 0u64);
                    let space = map.space();
                    for bucket in region.iter() {
                        let id = space.linearize_unchecked(bucket.as_slice());
                        per_disk[map.table()[id as usize] as usize] += 1;
                    }
                    let brute = per_disk.iter().copied().max().unwrap_or(0);
                    let optimum = region.num_buckets().div_ceil(m);
                    if rt != brute || rt < optimum {
                        gate.failed += 1;
                    }
                }
                rescored.u64(sum);
                if let Some(area) = pop.e1_area {
                    e1_sums.push((area, map.name(), sum));
                }
            }
        }
        gate.checks += 1;
        if rescored != first.digest {
            gate.failed += 1;
        }
        // Paper finding 2: ECC and HCAM beat DM on small queries.
        for area in [4u64, 6, 8, 12, 16] {
            let sum_of = |name: &str| {
                e1_sums
                    .iter()
                    .find(|&&(a, n, _)| a == area && n == name)
                    .map(|&(.., s)| s)
            };
            for better in ["ECC", "HCAM"] {
                gate.checks += 1;
                match (sum_of(better), sum_of("DM")) {
                    (Some(b), Some(dm)) if b < dm => {}
                    _ => gate.failed += 1,
                }
            }
        }
        gate
    }

    fn layers(
        &self,
        _st: &State,
        first: &PassOut,
        trace: &TraceSummary,
        passes: usize,
        out: &mut LayerValues,
    ) {
        let passes = passes as f64;
        let resident = trace.total_ms("phase.pass", Part::CacheResident.span()) / passes;
        let exceeding = trace.total_ms("phase.pass", Part::CacheExceeding.span()) / passes;
        out.insert("kernel.score_ms", resident + exceeding);
        out.insert("kernel.score_ms.cache_resident", resident);
        out.insert("kernel.score_ms.cache_exceeding", exceeding);
        out.insert(
            "kernel.ns_per_query",
            (resident + exceeding) * 1e6 / first.ops as f64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: PaperRt = PaperRt {
        queries_per_point: 20,
        queries_4d: 50,
    };

    fn digest(seed: u64) -> (u64, GateOut) {
        let tr = Tracer::new(false);
        let (mut st, _) = SMALL.setup(seed, &tr);
        let first = SMALL.pass(&mut st, &tr, &Obs::disabled());
        let again = SMALL.pass(&mut st, &tr, &Obs::disabled());
        assert_eq!(first.digest, again.digest, "passes repeat");
        (first.digest.value(), SMALL.gate(&mut st, &first, &tr))
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        let (a, gate) = digest(1);
        assert!(gate.checks > 0);
        assert_eq!(gate.failed, 0, "the correctness gate passes");
        assert_eq!(a, digest(1).0);
        assert_ne!(a, digest(2).0);
    }
}
