//! A naive reference simulator of the healthy open-loop serve, written
//! against the public API only and kept obviously correct rather than
//! fast: one `BTreeMap` event queue, materialized I/O plans, a
//! `BTreeSet` of `(disk, page)` pairs for shared-scan deduplication, and
//! the disk model's `batch_ms_counts` for every batch. It shares no code
//! with the engine's serving pipeline, so agreement between the two is
//! evidence about the model rather than about one implementation
//! agreeing with itself.
//!
//! The model it encodes:
//!
//! * Arrival `i` issues query `i % L` at `arrivals[i]`.
//! * Events pop in `(time, seq)` order with times compared as
//!   [`f64::total_cmp`]; completions and flushes win time ties against
//!   arrivals.
//! * Plain mode: an arrival fans one batch out to every disk its plan
//!   touches, FCFS per disk; the request completes with its slowest
//!   batch.
//! * Shared mode: the first arrival of a window schedules a flush
//!   `window_ms` later; every arrival before the flush joins. At the
//!   flush the members' pages are deduplicated, routed across the
//!   `1 + r` chain copies per policy in `(disk asc, copy asc)` order and
//!   issued at the flush time; the completion fans back to every member.
//! * A sample at boundary `T` fires before the first event at or past
//!   `T` and sees the state just before it; sampling stops at the last
//!   event.

use decluster::grid::{BucketRegion, GridDirectory, IoPlan};
use decluster::sim::{DiskParams, MultiUserReport, Quantiles, ReplicaPolicy, ServeSample, Summary};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Shared-scan knobs of a reference run.
#[derive(Clone, Copy, Debug)]
pub struct Sharing {
    /// Batch window, ms (positive).
    pub window_ms: f64,
    /// Chain replicas per bucket.
    pub replicas: u32,
    /// How merged batches pick among the copies.
    pub policy: ReplicaPolicy,
}

/// Everything a reference run reports.
#[derive(Clone, Debug)]
pub struct RefRun {
    pub report: MultiUserReport,
    pub events: u64,
    pub pages: u64,
    pub peak_in_flight: usize,
    pub samples: Vec<ServeSample>,
    pub windows: u64,
    pub merged_queries: u64,
    pub pages_saved: u64,
    pub batches: u64,
    pub queued_batches: u64,
    pub busy_ms: Vec<f64>,
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    Arrival(usize),
    Flush,
    Completion { latency_ms: f64 },
}

/// Maps an `f64` to a `u64` whose unsigned order is `f64::total_cmp`.
fn time_key(t: f64) -> u64 {
    let bits = t.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// The event queue: key `(time, arrival?, seq)`, so at equal times every
/// completion or flush pops before any arrival, and otherwise events pop
/// in push order.
#[derive(Default)]
struct Queue {
    events: BTreeMap<(u64, bool, u64), (f64, Ev)>,
    seq: u64,
}

impl Queue {
    fn push(&mut self, t: f64, ev: Ev) {
        let arrival = matches!(ev, Ev::Arrival(_));
        self.events
            .insert((time_key(t), arrival, self.seq), (t, ev));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, Ev)> {
        self.events.pop_first().map(|(_, v)| v)
    }
}

/// The FCFS disk array and its counters.
struct Disks<'a> {
    params: &'a DiskParams,
    loads: Vec<u64>,
    free: Vec<f64>,
    busy: Vec<f64>,
    batches: u64,
    queued: u64,
}

impl Disks<'_> {
    /// Serves `count` pages on disk `d` for a batch issued at `t`;
    /// returns the batch's completion time.
    fn serve(&mut self, d: usize, count: u64, t: f64) -> f64 {
        let start = t.max(self.free[d]);
        let service = self.params.batch_ms_counts(count, self.loads[d]);
        self.free[d] = start + service;
        self.busy[d] += service;
        self.batches += 1;
        if start > t {
            self.queued += 1;
        }
        start + service
    }

    /// Issues one request's (or window's) per-disk page counts at `t`
    /// across the replica chain; returns the slowest batch's completion.
    fn issue(&mut self, counts: &[u64], t: f64, share: Option<Sharing>, route_key: usize) -> f64 {
        let m = counts.len();
        let (replicas, policy) = share.map_or((0, ReplicaPolicy::PrimaryOnly), |s| {
            (s.replicas as usize, s.policy)
        });
        let copies = replicas as u64 + 1;
        let mut completion = t;
        for (d, &count) in counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let mut done = |disks: &mut Self, s: usize, c: u64| {
                completion = completion.max(disks.serve(s, c, t));
            };
            if replicas == 0 {
                done(self, d, count);
                continue;
            }
            match policy {
                ReplicaPolicy::PrimaryOnly | ReplicaPolicy::FailoverOnly => done(self, d, count),
                ReplicaPolicy::Spread => {
                    for j in 0..copies {
                        let part = count / copies + u64::from(j < count % copies);
                        if part > 0 {
                            done(self, (d + j as usize) % m, part);
                        }
                    }
                }
                ReplicaPolicy::RoundRobin => {
                    done(self, (d + route_key % copies as usize) % m, count);
                }
                ReplicaPolicy::NearestFreeQueue => {
                    // Shortest queue; ties go to the earliest copy.
                    let best = (0..=replicas)
                        .map(|j| (d + j) % m)
                        .min_by(|&a, &b| self.free[a].total_cmp(&self.free[b]))
                        .expect("at least the primary");
                    done(self, best, count);
                }
            }
        }
        completion
    }
}

/// Simulates `arrivals` (finite, non-decreasing) against `dir`: plain
/// open loop when `share` is `None`, shared scans otherwise.
/// `sample_every_ms == 0` disables sampling; `window` is the capacity of
/// the latency ring behind each sample's tails.
pub fn simulate(
    dir: &GridDirectory,
    params: &DiskParams,
    queries: &[BucketRegion],
    arrivals: &[f64],
    sample_every_ms: f64,
    window: usize,
    share: Option<Sharing>,
) -> RefRun {
    let m = dir.num_disks() as usize;
    let mut disks = Disks {
        params,
        loads: dir.load_vector(),
        free: vec![0.0; m],
        busy: vec![0.0; m],
        batches: 0,
        queued: 0,
    };
    let mut queue = Queue::default();
    for (i, &a) in arrivals.iter().enumerate() {
        queue.push(a, Ev::Arrival(i));
    }
    let every = if sample_every_ms > 0.0 {
        sample_every_ms
    } else {
        f64::INFINITY
    };
    let mut next_sample = every;
    let mut plan = IoPlan::new();
    let mut members: Vec<(usize, f64)> = Vec::new();
    let mut ring: VecDeque<f64> = VecDeque::new();
    let mut latencies = Vec::new();
    let mut samples = Vec::new();
    let (mut events, mut pages, mut completed) = (0u64, 0u64, 0u64);
    let (mut in_flight, mut peak_in_flight) = (0usize, 0usize);
    let (mut windows, mut merged_queries, mut pages_saved) = (0u64, 0u64, 0u64);
    let mut makespan = 0.0f64;

    while let Some((t, ev)) = queue.pop() {
        while next_sample <= t {
            let mut tail: Vec<f64> = ring.iter().copied().collect();
            samples.push(ServeSample {
                at_ms: next_sample,
                in_flight,
                busy_disks: disks.free.iter().filter(|&&f| f > next_sample).count(),
                completed,
                tail_ms: Quantiles::of_unsorted(&mut tail),
            });
            next_sample += every;
        }
        events += 1;
        match ev {
            Ev::Arrival(i) => {
                in_flight += 1;
                peak_in_flight = peak_in_flight.max(in_flight);
                match share {
                    None => {
                        dir.io_plan_into(&queries[i % queries.len()], &mut plan);
                        let counts: Vec<u64> = plan.iter().map(|p| p.len() as u64).collect();
                        pages += counts.iter().sum::<u64>();
                        let completion = disks.issue(&counts, t, None, i);
                        latencies.push(completion - t);
                        makespan = makespan.max(completion);
                        queue.push(
                            completion,
                            Ev::Completion {
                                latency_ms: completion - t,
                            },
                        );
                    }
                    Some(s) => {
                        if members.is_empty() {
                            queue.push(t + s.window_ms, Ev::Flush);
                        }
                        members.push((i, t));
                    }
                }
            }
            Ev::Flush => {
                windows += 1;
                if members.len() > 1 {
                    merged_queries += members.len() as u64;
                }
                let mut distinct: BTreeSet<(usize, u64)> = BTreeSet::new();
                let mut own = 0u64;
                for &(i, _) in &members {
                    dir.io_plan_into(&queries[i % queries.len()], &mut plan);
                    for (d, group) in plan.iter().enumerate() {
                        own += group.len() as u64;
                        distinct.extend(group.iter().map(|&p| (d, p)));
                    }
                }
                let mut counts = vec![0u64; m];
                for &(d, _) in &distinct {
                    counts[d] += 1;
                }
                pages += distinct.len() as u64;
                pages_saved += own - distinct.len() as u64;
                let completion = disks.issue(&counts, t, share, members[0].0);
                makespan = makespan.max(completion);
                for &(_, arrived) in &members {
                    latencies.push(completion - arrived);
                    queue.push(
                        completion,
                        Ev::Completion {
                            latency_ms: completion - arrived,
                        },
                    );
                }
                members.clear();
            }
            Ev::Completion { latency_ms } => {
                in_flight -= 1;
                completed += 1;
                if ring.len() == window.max(1) {
                    ring.pop_front();
                }
                ring.push_back(latency_ms);
            }
        }
    }

    let n = arrivals.len();
    let busy_total: f64 = disks.busy.iter().sum();
    let report = MultiUserReport {
        queries: n,
        clients: 0,
        makespan_ms: makespan,
        throughput_qps: if makespan > 0.0 {
            n as f64 / (makespan / 1000.0)
        } else {
            0.0
        },
        latency: Summary::of(&latencies),
        tail: Quantiles::of_unsorted(&mut latencies.clone()),
        utilization: if makespan > 0.0 {
            busy_total / (makespan * m as f64)
        } else {
            0.0
        },
    };
    RefRun {
        report,
        events,
        pages,
        peak_in_flight,
        samples,
        windows,
        merged_queries,
        pages_saved,
        batches: disks.batches,
        queued_batches: disks.queued,
        busy_ms: disks.busy,
    }
}
