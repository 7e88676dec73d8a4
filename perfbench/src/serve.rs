//! The three serving workloads, all through `ServeSpec::run_with_arrivals`
//! on a 64x64 grid with M=16 disks and area-64 queries:
//!
//! * `serve_open`: healthy open-loop serving of the four paper methods
//!   over the six-rate ladder 0.3..1.15 x 12 q/s, which straddles the
//!   ~10.2 q/s knee, on the sharded pipeline at 2 shards run inline on
//!   the calling thread. Threaded, that pipeline keeps three threads busy
//!   (two shard walkers and the caller replaying), more than a 2-core
//!   host runs at once.
//! * `serve_shared`: the same grid and ladder through shared-scan
//!   batching, 90% of queries redirected onto one hot scan, an
//!   8-arrival batch window and r=1 spread replicas, at 2 shards x 2
//!   threads (two shard walkers while the caller waits).
//! * `serve_faults`: the fault-injected open loop (serial by design) at
//!   8.4 q/s with one mid-run fail-stop, one transient outage and one slow
//!   disk, r=2 replicas under each of the four replica policies.

use crate::digest::Digest;
use crate::metrics::LayerValues;
use crate::trace::{TraceSummary, Tracer};
use crate::{ratio, GateOut, PassOut, Workload};
use decluster::grid::{BucketRegion, GridDirectory, GridSpace};
use decluster::methods::{
    splitmix64, splitmix64_unit, DeclusteringMethod, MethodKind, MethodRegistry,
};
use decluster::obs::Obs;
use decluster::sim::workload::{random_region, rect_sides_for_area, InterArrival};
use decluster::sim::{
    sharded_arrivals, DiskParams, FaultSchedule, LoopScratch, MultiUserEngine, ReplicaPolicy,
    ServeRun, ServeSpec,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const GRID_SIDE: u32 = 64;
const DISKS: u32 = 16;
const AREA: u64 = 64;
/// Base offered rate, q/s, and the ladder around it.
const BASE_RATE: f64 = 12.0;
const LADDER: [f64; 6] = [0.3, 0.5, 0.7, 0.85, 1.0, 1.15];
/// Distinct query placements the arrival stream cycles through.
const REGIONS: usize = 1000;
/// Share of the shared-scan stream redirected onto the hot scan.
const HOT_OVERLAP: f64 = 0.9;
/// Arrivals per shared-scan batch window, at the offered rate.
const WINDOW_ARRIVALS: f64 = 8.0;
/// Offered rate of the fault workload, q/s: below the healthy knee, so
/// losses and shedding come from the faults, not from overload.
const FAULT_RATE: f64 = 8.4;
/// Replica depth of the fault workload.
const FAULT_REPLICAS: u32 = 2;
/// In-flight cap past which the fault workload sheds arrivals.
const FAULT_ADMISSION: usize = 64;
/// Sharded pipeline width of the healthy workloads, and the threads of
/// `serve_shared`'s shard walk.
const SHARDS: usize = 2;
const SHARED_THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    Open,
    Shared,
    Faults,
}

#[derive(Clone, Copy, Debug)]
pub struct Serve {
    mode: Mode,
    /// Arrivals per cell.
    arrivals: usize,
}

impl Serve {
    pub fn full(mode: Mode) -> Self {
        let arrivals = match mode {
            Mode::Open => 50_000,
            Mode::Shared => 5_000,
            Mode::Faults => 40_000,
        };
        Serve { mode, arrivals }
    }
}

/// One `(rate, method, policy)` serve run of a pass.
struct Cell {
    label: String,
    spec: ServeSpec,
    engine: usize,
    stream: usize,
    offered_qps: f64,
}

pub struct State {
    engines: Vec<MultiUserEngine>,
    regions: Vec<BucketRegion>,
    /// One arrival stream per offered rate.
    streams: Vec<Vec<f64>>,
    cells: Vec<Cell>,
    /// Per cell: whether its last run fell short of the offered rate
    /// (achieved < 95% of offered), i.e. ran above the knee.
    saturated: Vec<bool>,
    params: DiskParams,
    ls: LoopScratch,
}

fn derive(seed: u64, index: u64) -> u64 {
    splitmix64(seed ^ splitmix64(index))
}

impl Serve {
    fn rates(&self) -> Vec<f64> {
        match self.mode {
            Mode::Open | Mode::Shared => LADDER.iter().map(|f| f * BASE_RATE).collect(),
            Mode::Faults => vec![FAULT_RATE],
        }
    }

    fn methods(&self) -> &'static [MethodKind] {
        match self.mode {
            Mode::Open | Mode::Shared => &MethodKind::PAPER,
            Mode::Faults => &[MethodKind::Hcam],
        }
    }

    /// The fault schedule of `serve_faults`, placed at fixed fractions of
    /// the stream's expected span (ms of logical time).
    fn schedule(&self) -> FaultSchedule {
        let span = (self.arrivals as f64 * 1000.0 / FAULT_RATE) as u64;
        FaultSchedule::healthy(DISKS)
            .fail_stop(3, span / 3)
            .and_then(|s| s.transient(7, span / 2, 3 * span / 4))
            .and_then(|s| s.slow(11, 2.0, span / 5, 2 * span / 5))
            .expect("the schedule's disks exist")
    }

    fn spec(&self, rate: f64, policy: ReplicaPolicy, seed: u64) -> ServeSpec {
        let base = ServeSpec::open(rate)
            .seed(seed)
            .sampling(self.arrivals as f64 * 1000.0 / rate / 32.0);
        match self.mode {
            Mode::Open => base.shards(SHARDS).threads(1),
            Mode::Shared => base
                .share(WINDOW_ARRIVALS * 1000.0 / rate)
                .replicas(1)
                .policy(ReplicaPolicy::Spread)
                .shards(SHARDS)
                .threads(SHARED_THREADS),
            Mode::Faults => base
                .replicas(FAULT_REPLICAS)
                .policy(policy)
                .faults(self.schedule())
                .admission(FAULT_ADMISSION),
        }
    }

    fn run_cell(&self, st: &mut State, cell: usize, obs: &Obs) -> Result<ServeRun, String> {
        let c = &st.cells[cell];
        c.spec
            .run_with_arrivals(
                &st.engines[c.engine],
                &st.params,
                &st.regions,
                &st.streams[c.stream],
                obs,
                &mut st.ls,
            )
            .map_err(|e| e.to_string())
    }
}

impl Workload for Serve {
    type State = State;

    fn threads(&self) -> usize {
        match self.mode {
            Mode::Shared => SHARED_THREADS,
            Mode::Open | Mode::Faults => 1,
        }
    }

    fn setup(&self, seed: u64, tr: &Tracer) -> (State, LayerValues) {
        let mut counts = LayerValues::new();
        let space = GridSpace::new_2d(GRID_SIDE, GRID_SIDE).expect("64x64 grid");
        let registry = MethodRegistry::with_seed(seed);
        let mut engines = Vec::new();
        for &kind in self.methods() {
            let dir = {
                let _s = tr.span("grid.directory", || kind.name().to_owned());
                let method = registry
                    .build(kind, &space, DISKS)
                    .expect("paper methods apply at M=16");
                GridDirectory::build(space.clone(), DISKS, |b| method.disk_of(b.as_slice()))
            };
            let _s = tr.span("engine.build", || kind.name().to_owned());
            engines.push(MultiUserEngine::new(&dir));
        }
        counts.insert("engine.builds", engines.len() as f64);
        counts.insert(
            "kernel.table_bytes",
            engines
                .iter()
                .map(|e| e.serving().counts().table_bytes() as f64)
                .sum(),
        );

        let regions: Vec<BucketRegion> = {
            let _s = tr.span("workload.regions", || "area-64".into());
            let sides = rect_sides_for_area(AREA, space.dims()).expect("area 64 fits 64x64");
            let mut rng = StdRng::seed_from_u64(seed);
            let base: Vec<BucketRegion> = (0..REGIONS)
                .map(|_| random_region(&mut rng, &space, &sides).expect("placement fits"))
                .collect();
            if self.mode == Mode::Shared {
                let hot = base[0].clone();
                base.iter()
                    .enumerate()
                    .map(|(i, r)| {
                        let redirect = splitmix64_unit(derive(seed, i as u64)) < HOT_OVERLAP;
                        if redirect {
                            hot.clone()
                        } else {
                            r.clone()
                        }
                    })
                    .collect()
            } else {
                base
            }
        };
        counts.insert("workload.regions", regions.len() as f64);

        let rates = self.rates();
        let streams: Vec<Vec<f64>> = rates
            .iter()
            .enumerate()
            .map(|(ri, &rate)| {
                let _s = tr.span("workload.arrivals", || format!("{rate}qps"));
                sharded_arrivals(
                    derive(seed, 1 << 32 | ri as u64),
                    self.arrivals,
                    InterArrival::Poisson { rate_qps: rate },
                    self.threads(),
                    &Obs::disabled(),
                )
            })
            .collect();
        counts.insert("workload.arrivals", (rates.len() * self.arrivals) as f64);

        let policies: &[ReplicaPolicy] = match self.mode {
            Mode::Faults => &ReplicaPolicy::ALL,
            // Ignored outside fault mode.
            Mode::Open | Mode::Shared => &[ReplicaPolicy::PrimaryOnly],
        };
        let mut cells = Vec::new();
        for (ri, &rate) in rates.iter().enumerate() {
            for (engine, kind) in self.methods().iter().enumerate() {
                for &policy in policies {
                    let label = match self.mode {
                        Mode::Faults => format!("{}/{}", kind.name(), policy.name()),
                        Mode::Open | Mode::Shared => format!("{rate}qps/{}", kind.name()),
                    };
                    cells.push(Cell {
                        label,
                        spec: self.spec(rate, policy, seed),
                        engine,
                        stream: ri,
                        offered_qps: rate,
                    });
                }
            }
        }
        let state = State {
            engines,
            regions,
            streams,
            saturated: vec![false; cells.len()],
            cells,
            params: DiskParams::default(),
            ls: LoopScratch::new(),
        };
        (state, counts)
    }

    fn pass(&self, st: &mut State, tr: &Tracer, obs: &Obs) -> PassOut {
        let mut out = PassOut::default();
        let (mut pages, mut peak) = (0u64, 0usize);
        let mut share = [0u64; 3];
        let mut faults = [0u64; 6];
        for cell in 0..st.cells.len() {
            let n = self.arrivals as u64;
            out.ops += n;
            let run = {
                let _s = tr.span("serve.run", || st.cells[cell].label.clone());
                let t = Instant::now();
                let run = self.run_cell(st, cell, obs);
                out.unit_s.push(t.elapsed().as_secs_f64());
                run
            };
            let Ok(run) = run else {
                out.failed += n;
                continue;
            };
            out.digest.serve_run(&run);
            out.events += run.events;
            pages += run.pages;
            peak = peak.max(run.peak_in_flight);
            st.saturated[cell] = run.report.throughput_qps < 0.95 * st.cells[cell].offered_qps;
            // Accounting: every arrival is served, lost or shed.
            let a = run.availability.unwrap_or_default();
            let (served, lost, shed) = match run.availability {
                Some(_) => (a.served, a.lost, a.shed),
                None => (run.report.queries as u64, 0, 0),
            };
            if served + lost + shed != n {
                out.failed += n;
            }
            let s = run.sharing.unwrap_or_default();
            for (acc, x) in share
                .iter_mut()
                .zip([s.windows, s.merged_queries, s.pages_saved])
            {
                *acc += x;
            }
            for (acc, x) in faults.iter_mut().zip([
                a.served,
                a.lost,
                a.shed,
                a.retries,
                a.failovers,
                a.transitions,
            ]) {
                *acc += x;
            }
        }
        let c = &mut out.counts;
        c.insert("serve.cells", st.cells.len() as f64);
        c.insert("serve.events", out.events as f64);
        c.insert("serve.pages", pages as f64);
        c.insert("serve.peak_in_flight", peak as f64);
        if self.mode == Mode::Shared {
            let [windows, merged, saved] = share.map(|x| x as f64);
            c.insert("share.windows", windows);
            c.insert("share.merged_queries", merged);
            c.insert("share.pages_saved", saved);
            c.insert(
                "share.pages_saved_ratio",
                ratio(saved, saved + pages as f64),
            );
        }
        if self.mode == Mode::Faults {
            let [served, lost, shed, retries, failovers, transitions] = faults.map(|x| x as f64);
            c.insert("faults.served", served);
            c.insert("faults.lost", lost);
            c.insert("faults.shed", shed);
            c.insert("faults.retries", retries);
            c.insert("faults.failovers", failovers);
            c.insert("faults.transitions", transitions);
            c.insert("faults.availability", ratio(served, served + lost + shed));
        }
        out
    }

    fn gate(&self, st: &mut State, first: &PassOut, tr: &Tracer) -> GateOut {
        let mut gate = GateOut::default();
        if self.mode == Mode::Faults {
            // The fault core is serial by design: no sharded twin.
            return gate;
        }
        // The base-rate cell of the first method, rerun untimed through
        // the serial 1-shard core, must be bit-identical to the sharded
        // run (whose digest is folded into the first pass's).
        let cell = st
            .cells
            .iter()
            .position(|c| c.offered_qps == BASE_RATE)
            .expect("the ladder includes the base rate");
        gate.checks += 1;
        let _s = tr.span("check.serial_twin", || st.cells[cell].label.clone());
        let sharded = self.run_cell(st, cell, &Obs::disabled());
        let c = &st.cells[cell];
        let serial = c.spec.clone().shards(1).threads(1).run_with_arrivals(
            &st.engines[c.engine],
            &st.params,
            &st.regions,
            &st.streams[c.stream],
            &Obs::disabled(),
            &mut st.ls,
        );
        let same = match (sharded, serial) {
            (Ok(a), Ok(b)) => {
                let (mut da, mut db) = (Digest::default(), Digest::default());
                da.serve_run(&a);
                db.serve_run(&b);
                da == db
            }
            _ => false,
        };
        if !same || first.ops == 0 {
            gate.failed += 1;
        }
        gate
    }

    fn layers(
        &self,
        st: &State,
        first: &PassOut,
        trace: &TraceSummary,
        passes: usize,
        out: &mut LayerValues,
    ) {
        let passes = passes as f64;
        let (mut below, mut above, mut cell_max) = (0.0f64, 0.0f64, 0.0f64);
        for span in trace
            .in_phase("phase.pass")
            .filter(|s| s.name == "serve.run")
        {
            let ms = span.dur_ns() as f64 / 1e6;
            cell_max = cell_max.max(ms);
            let cell = st.cells.iter().position(|c| c.label == span.cell);
            if cell.is_some_and(|i| st.saturated[i]) {
                above += ms;
            } else {
                below += ms;
            }
        }
        let run_ms = trace.total_ms("phase.pass", "serve.run") / passes;
        out.insert("serve.run_ms", run_ms);
        out.insert("serve.run_ms.below_knee", below / passes);
        out.insert("serve.run_ms.above_knee", above / passes);
        out.insert("serve.cell_ms_max", cell_max);
        out.insert("serve.ns_per_event", run_ms * 1e6 / first.events as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(mode: Mode, seed: u64) -> (u64, GateOut, PassOut) {
        let w = Serve {
            mode,
            arrivals: 300,
        };
        let tr = Tracer::new(false);
        let (mut st, _) = w.setup(seed, &tr);
        let first = w.pass(&mut st, &tr, &Obs::disabled());
        let again = w.pass(&mut st, &tr, &Obs::disabled());
        assert_eq!(first.digest, again.digest, "passes repeat");
        assert_eq!(first.failed, 0, "accounting holds");
        (first.digest.value(), w.gate(&mut st, &first, &tr), first)
    }

    #[test]
    fn same_seed_same_digest_other_seed_other_digest() {
        for mode in [Mode::Open, Mode::Shared, Mode::Faults] {
            let (a, gate, _) = digest(mode, 1);
            assert_eq!(gate.failed, 0, "{mode:?}: the serial twin matches");
            assert_eq!(a, digest(mode, 1).0, "{mode:?}");
            assert_ne!(a, digest(mode, 2).0, "{mode:?}");
        }
    }

    #[test]
    fn each_mode_exercises_its_layer() {
        let (.., open) = digest(Mode::Open, 3);
        assert_eq!(open.ops, 24 * 300);
        assert!(!open.counts.contains_key("share.windows"));
        let (.., shared) = digest(Mode::Shared, 3);
        assert!(shared.counts["share.pages_saved"] > 0.0);
        let (.., faults) = digest(Mode::Faults, 3);
        assert_eq!(faults.ops, 4 * 300);
        assert!(faults.counts["faults.lost"] > 0.0);
        assert!(faults.counts["faults.retries"] > 0.0);
        assert!(faults.counts["faults.transitions"] > 0.0);
    }
}
