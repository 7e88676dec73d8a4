//! The open-loop serving pipeline: one serve run split across `S` disk
//! shards. Every healthy open-loop run takes this path — `S = 1` is one
//! shard owning every disk, not a separate loop.
//!
//! Serving a request interleaves three kinds of work: per-query page
//! counting (the kernel), FCFS fan-out against the disk queues, and
//! bookkeeping (event order, latencies, samples). The first two are
//! embarrassingly parallel *across disks* — the paper's own premise —
//! while the bookkeeping is inherently sequential. This module exploits
//! that split:
//!
//! 1. **Stage A (sequential, tiny).** The query stream is periodic
//!    (`queries[i % L]`), so per-disk counts — and their service times
//!    under the disk model — are computed once per distinct region into
//!    `L × M` tables. The `kernel.shape_cache_*` counters report what a
//!    per-request [`decluster_methods::PlanCache`] would see over the `n`
//!    requests; they are computed by replaying its LRU policy over the
//!    shape-id sequence (with steady-state cycle detection, so a
//!    million-request run costs a few periods).
//! 2. **Stage B (parallel).** Disk `d` belongs to shard
//!    `⌊d·S/M⌋`-ish (contiguous ranges). Each shard walks the arrival
//!    stream over *its* disks only, producing per-arrival partial
//!    completion times, per-disk busy/free state, and partial
//!    busy-disk counts on the sample grid. Per-disk FCFS state never
//!    crosses a shard boundary, so every floating-point operation
//!    sequence per disk is the same at any shard count.
//! 3. **Merge + sweep (sequential, heap-free).** Partial completions
//!    are folded in shard order with `f64::max` (associative and exact
//!    — each partial already folds from the issue time). The event order
//!    of the FCFS model — completions pop in
//!    `(total_cmp(completion), arrival index)` order, and win time ties
//!    against arrivals — is then rebuilt without a heap: an insertion
//!    sort over a `u32` index buffer computes the pop order in
//!    near-linear time (completions arrive nearly sorted). One linear
//!    pass yields latencies, pages and the makespan; a two-pointer pass
//!    over arrivals and pop order yields `peak_in_flight`; and each
//!    sample at boundary `T` reads `#{a < T}`, `#{c < T}` and the last
//!    `window` popped latencies — the state just before `T`.
//!
//! With `threads > 1` stage B and the merge are pipelined over
//! arrival-count epochs ([`EPOCH_ARRIVALS`]): shard workers walk epoch
//! `e+1` while the main thread merges epoch `e`. The pipeline only
//! changes *when* work happens, never its values, so the result is
//! byte-identical at any `--shards` and `--threads` combination.
//!
//! The shared-scan path parallelizes the same way with windows instead
//! of arrivals: window membership, merged plans, and replica routing are
//! precomputed sequentially (the [`decluster_methods::SharedScan`]
//! absorption fan-in), expanded into a flat per-disk target list that
//! preserves the `(disk asc, copy asc)` issue order, and walked per
//! shard. [`crate::faults::ReplicaPolicy::NearestFreeQueue`] with
//! replicas reads *cross-disk* queue depths at issue time, so it runs as
//! one shard: that shard owns every disk and routes each batch from its
//! own free times. The fault/degraded and closed-loop modes, whose
//! admission and retry feedback is global by construction, have their
//! own event loops.

use crate::events::{
    LoopScratch, ServeConfig, ServeEventKind, ServeReport, ServeSample, ServingEngine,
    SharedServeConfig, SharedServeReport,
};
use crate::faults::ReplicaPolicy;
use crate::multiuser::{assemble_report, LoopMeters};
use crate::stats::Quantiles;
use crate::DiskParams;
use decluster_grid::{BucketRegion, GridDirectory};
use decluster_obs::{Obs, TraceEvent};

/// Arrivals per pipeline epoch. Large enough that the per-epoch channel
/// hop is noise, small enough that the merge stays hot in cache and
/// the pipeline fills within a fraction of a million-request run.
pub(crate) const EPOCH_ARRIVALS: usize = 8192;

/// Folds one shard's partial completion times into the accumulator with
/// `f64::max`. Exact: every partial is a max-fold seeded from the same
/// issue time, and `max` over non-NaN values is associative, so folding
/// in shard order reproduces the single-pass fold over all disks
/// bit-for-bit.
pub fn merge_epoch_max(acc: &mut [f64], part: &[f64]) {
    assert_eq!(acc.len(), part.len(), "epoch partials must line up");
    for (a, &p) in acc.iter_mut().zip(part) {
        *a = a.max(p);
    }
}

fn epoch_bounds(e: usize, n: usize) -> (usize, usize) {
    let lo = e * EPOCH_ARRIVALS;
    (lo, ((e + 1) * EPOCH_ARRIVALS).min(n))
}

/// Reusable buffers for sharded runs, owned by [`LoopScratch`] so a
/// warmed scratch serves open-loop runs with zero heap allocations.
#[derive(Debug, Default)]
pub(crate) struct ShardScratch {
    /// `L × M` per-disk page counts, one row per distinct query region.
    table: Vec<u64>,
    /// `L × M` per-disk service times of those counts, ms.
    service: Vec<f64>,
    /// Total pages per distinct query region.
    pages_of: Vec<u64>,
    /// Dense shape id per distinct region (shape = per-dim extents, the
    /// plan cache's match key).
    shape_of: Vec<u32>,
    /// Flattened extent vectors backing the shape ids.
    shape_keys: Vec<u64>,
    /// Merged per-arrival completion times.
    completions: Vec<f64>,
    /// Arrival indices in completion pop order (see [`pop_order`]).
    order: Vec<u32>,
    /// Per-shard walk state; `states[..s]` are live for a run.
    states: Vec<ShardState>,
    /// LRU replay scratch for the shape-cache counters.
    lru: LruReplay,
    /// Shared path: precomputed windows.
    wins: Vec<WindowPlan>,
    /// Shared path: flat per-window replica-routed targets.
    win_targets: Vec<(u32, u64)>,
    /// Shared path: merged per-window completion times.
    win_completions: Vec<f64>,
}

/// One shard's private slice of the disk subsystem.
#[derive(Debug, Default)]
struct ShardState {
    /// Owned disk range `[lo, hi)`.
    lo: usize,
    hi: usize,
    /// Per-owned-disk FCFS free times (index `d - lo`).
    free: Vec<f64>,
    /// Per-owned-disk accumulated busy milliseconds.
    busy: Vec<f64>,
    /// Partial busy-disk counts on the sample grid, in grid order.
    busy_samples: Vec<u32>,
    /// Partial completion buffer for the inline (unpipelined) path.
    part: Vec<f64>,
    /// Shared path: per-window partial completions (full run length).
    win_part: Vec<f64>,
    /// Next sample-grid boundary this shard has not recorded yet.
    next_sample: f64,
    /// Metered batch counts, folded in shard order at the end.
    batches: u64,
    queued: u64,
}

fn setup_states(states: &mut Vec<ShardState>, s: usize, m: usize, sample_every: f64) {
    // Never truncate: keeping dead tails alive preserves their buffer
    // capacity across runs with varying shard counts (zero-alloc warm).
    while states.len() < s {
        states.push(ShardState::default());
    }
    for (i, st) in states[..s].iter_mut().enumerate() {
        st.lo = m * i / s;
        st.hi = m * (i + 1) / s;
        let width = st.hi - st.lo;
        st.free.clear();
        st.free.resize(width, 0.0);
        st.busy.clear();
        st.busy.resize(width, 0.0);
        st.busy_samples.clear();
        st.win_part.clear();
        st.next_sample = sample_every;
        st.batches = 0;
        st.queued = 0;
    }
}

/// Replays the [`decluster_methods::PlanCache`] LRU policy over a
/// periodic shape-id stream to compute the hit/miss counters a
/// per-request cache would see, without touching the real cache once
/// per request.
#[derive(Debug, Default)]
struct LruReplay {
    slots: Vec<(u32, u64)>,
    prefix: Vec<u64>,
    canon: Vec<(u32, u32)>,
    prev_canon: Vec<(u32, u32)>,
    seen: Vec<bool>,
}

/// One probe of the replayed cache; mirrors `PlanCache::ensure` exactly:
/// tick first, insertion-order probe, push while below capacity, else
/// replace the first-minimal `last_used` slot in place.
fn lru_touch(slots: &mut Vec<(u32, u64)>, id: u32, tick: u64, capacity: usize) -> bool {
    if let Some(i) = slots.iter().position(|&(sid, _)| sid == id) {
        slots[i].1 = tick;
        return true;
    }
    if slots.len() < capacity {
        slots.push((id, tick));
    } else {
        let mut evict = 0;
        for i in 1..slots.len() {
            if slots[i].1 < slots[evict].1 {
                evict = i;
            }
        }
        slots[evict] = (id, tick);
    }
    false
}

/// Canonical cache state: each slot's id with its recency rank. Two
/// periods that start in states with equal canon behave identically
/// (hits depend on membership, evictions on recency order alone — ticks
/// are unique, so slot order never breaks an eviction tie).
fn canonical(slots: &[(u32, u64)], out: &mut Vec<(u32, u32)>) {
    out.clear();
    for &(id, t) in slots {
        let rank = slots.iter().filter(|&&(_, u)| u < t).count() as u32;
        out.push((id, rank));
    }
}

impl LruReplay {
    /// `(hits, misses)` of a per-request cache over the stream
    /// `shape_of[i % L]` for `i in 0..n`, starting from a cleared cache.
    fn stats(&mut self, shape_of: &[u32], n: u64, capacity: usize) -> (u64, u64) {
        if n == 0 || shape_of.is_empty() {
            return (0, 0);
        }
        let l = shape_of.len() as u64;
        let distinct = u64::from(shape_of.iter().copied().max().unwrap_or(0)) + 1;
        if distinct <= capacity as u64 {
            // Nothing ever evicts: misses = distinct shapes among the
            // first min(n, L) requests, everything after hits.
            let lim = n.min(l) as usize;
            self.seen.clear();
            self.seen.resize(distinct as usize, false);
            let mut misses = 0u64;
            for &id in &shape_of[..lim] {
                if !self.seen[id as usize] {
                    self.seen[id as usize] = true;
                    misses += 1;
                }
            }
            return (n - misses, misses);
        }
        // Evicting regime: replay period by period. The stream is
        // periodic, so once two consecutive periods start in the same
        // canonical state the per-period hit profile repeats forever.
        self.slots.clear();
        self.prev_canon.clear();
        let mut have_prev = false;
        let mut tick = 0u64;
        let mut hits = 0u64;
        let mut done = 0u64;
        while done < n {
            let span = (n - done).min(l) as usize;
            self.prefix.clear();
            let mut h = 0u64;
            for &id in &shape_of[..span] {
                tick += 1;
                if lru_touch(&mut self.slots, id, tick, capacity) {
                    h += 1;
                }
                self.prefix.push(h);
            }
            hits += h;
            done += span as u64;
            if (span as u64) < l || done >= n {
                break;
            }
            canonical(&self.slots, &mut self.canon);
            if have_prev && self.canon == self.prev_canon {
                let rem = n - done;
                hits += (rem / l) * h;
                let part = (rem % l) as usize;
                if part > 0 {
                    hits += self.prefix[part - 1];
                }
                break;
            }
            std::mem::swap(&mut self.canon, &mut self.prev_canon);
            have_prev = true;
        }
        (hits, n - hits)
    }
}

/// Insertion-sort shifts per arrival that [`pop_order`] spends before it
/// falls back to a full sort. FCFS queues finish mostly in arrival
/// order, so a healthy run needs one or two; a run that needs more is
/// sorted in `O(n log n)` instead.
const SHIFTS_PER_ARRIVAL: usize = 32;

/// Fills `order` with the completion pop order: arrival indices sorted
/// by `(completion total_cmp, index)`, an event queue's `(time, seq)`
/// key (each arrival pushes exactly one completion, so `seq` is the
/// arrival index). Completions arrive nearly sorted, so this
/// runs an insertion sort; once it has spent [`SHIFTS_PER_ARRIVAL`]
/// shifts per arrival it sorts in place instead — the composite key is
/// unique, so an unstable sort gives the same order. Allocation-free
/// once `order` has grown to the run length. Returns whether the
/// fallback ran.
fn pop_order(completions: &[f64], order: &mut Vec<u32>) -> bool {
    let n = completions.len();
    assert!(
        u32::try_from(n).is_ok(),
        "a sharded run indexes its arrivals with u32"
    );
    order.clear();
    order.reserve(n);
    let mut budget = SHIFTS_PER_ARRIVAL * n;
    for (i, &c) in completions.iter().enumerate() {
        order.push(i as u32);
        let mut j = i;
        while j > 0 && completions[order[j - 1] as usize].total_cmp(&c).is_gt() {
            if budget == 0 {
                order.clear();
                order.extend(0..n as u32);
                order.sort_unstable_by(|&x, &y| {
                    completions[x as usize]
                        .total_cmp(&completions[y as usize])
                        .then(x.cmp(&y))
                });
                return true;
            }
            budget -= 1;
            order[j] = order[j - 1];
            j -= 1;
        }
        order[j] = i as u32;
    }
    false
}

/// Aggregates of the event order that the sweep rebuilds.
struct Sweep {
    makespan: f64,
    pages: u64,
    peak_in_flight: usize,
}

/// Rebuilds everything an event-queue simulation of the run produces
/// from the merged completions, without a heap. The run's events are the
/// arrivals in index order merged with the completions in pop order,
/// where completion `k` pops before arrival `i` iff it was pushed
/// (`k < i`) and `c_k <= a_i` (completions win time ties). Event times
/// never decrease along that merge, so a sample at boundary `T` — which
/// fires before the first event at or past `T` — sees exactly the events
/// before `T`: `#{a < T}` arrivals and `#{c < T}` completions, and a
/// ring holding the last `window` of those completions in pop order.
/// Samples fire up to the last event, the largest completion, which is
/// the makespan. `busy_disks` is left 0 and patched from the walks.
fn sweep(
    ls: &mut LoopScratch,
    order: &mut Vec<u32>,
    arrivals: &[f64],
    completions: &[f64],
    pages_of: &[u64],
    window: usize,
    sample_every: f64,
) -> Sweep {
    let n = arrivals.len();
    let l = pages_of.len();
    let mut makespan = 0.0f64;
    let mut pages = 0u64;
    let mut row = 0usize;
    for (&a, &c) in arrivals.iter().zip(completions) {
        ls.latencies.push(c - a);
        makespan = makespan.max(c);
        pages += pages_of[row];
        row += 1;
        if row == l {
            row = 0;
        }
    }

    pop_order(completions, order);
    let completion_at = |p: usize| completions[order[p] as usize];

    // The heap's size peaks right after an arrival's push.
    let mut popped = 0usize;
    let mut peak_in_flight = 0usize;
    for (i, &a) in arrivals.iter().enumerate() {
        while popped < n && (order[popped] as usize) < i && completion_at(popped) <= a {
            popped += 1;
        }
        peak_in_flight = peak_in_flight.max(i + 1 - popped);
    }

    let mut t = sample_every;
    let mut arrived = 0usize;
    let mut done = 0usize;
    while t <= makespan {
        while arrived < n && arrivals[arrived] < t {
            arrived += 1;
        }
        while done < n && completion_at(done) < t {
            done += 1;
        }
        ls.sorted.clear();
        ls.sorted.extend(
            order[done.saturating_sub(window)..done]
                .iter()
                .map(|&k| ls.latencies[k as usize]),
        );
        ls.samples.push(ServeSample {
            at_ms: t,
            in_flight: arrived - done,
            busy_disks: 0,
            completed: done as u64,
            tail_ms: Quantiles::of_unsorted(&mut ls.sorted),
        });
        t += sample_every;
    }
    Sweep {
        makespan,
        pages,
        peak_in_flight,
    }
}

/// One shard's walk over an epoch of arrivals: fires its slice of the
/// sample grid, applies each arrival's batches to its owned disks (the
/// exact FCFS math of `ServingEngine::fan_out`, restricted to
/// `[lo, hi)`, with the service times precomputed in stage A), and
/// emits the shard-partial completion per arrival.
#[allow(clippy::too_many_arguments)]
fn walk_epoch(
    arrivals: &[f64],
    i0: usize,
    i1: usize,
    counts: &[u64],
    service: &[f64],
    m: usize,
    sample_every: f64,
    record: bool,
    st: &mut ShardState,
    out: &mut Vec<f64>,
) {
    out.clear();
    let (lo, hi) = (st.lo, st.hi);
    let l = counts.len() / m;
    let mut row = (i0 % l) * m;
    for &a in &arrivals[i0..i1] {
        // A sample boundary at or before this arrival sees the free
        // state after every strictly earlier arrival (samples fire
        // before the event that crosses them, and completions never
        // change disk state).
        while st.next_sample <= a {
            let t = st.next_sample;
            st.busy_samples
                .push(st.free.iter().filter(|&&f| f > t).count() as u32);
            st.next_sample += sample_every;
        }
        let lanes = counts[row + lo..row + hi]
            .iter()
            .zip(&service[row + lo..row + hi]);
        let mut completion = a;
        for ((&count, &service), (free, busy)) in
            lanes.zip(st.free.iter_mut().zip(st.busy.iter_mut()))
        {
            if count == 0 {
                continue;
            }
            let start = a.max(*free);
            *free = start + service;
            *busy += service;
            completion = completion.max(start + service);
            if record {
                st.batches += 1;
                if start > a {
                    st.queued += 1;
                }
            }
        }
        out.push(completion);
        row += m;
        if row == counts.len() {
            row = 0;
        }
    }
}

impl ServingEngine {
    /// Streaming open-loop serve: one request per entry of `arrivals_ms`,
    /// each replaying the next query of `queries` round-robin, split over
    /// `shards` disk shards (clamped to `1..=M`). Arrivals and completions
    /// are ordered by time with completions first on ties; mid-run state
    /// is sampled every [`ServeConfig::sample_every_ms`], and the
    /// aggregate report carries exact p50/p95/p99 over all latencies.
    /// Byte-identical output at any `(shards, threads)` combination,
    /// including the shape-cache counters, mid-run samples, and trace
    /// payloads. Reach it through [`crate::ServeSpec::open`], which
    /// rejects an empty `queries` and unsorted or NaN arrival times.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_core(
        &self,
        params: &DiskParams,
        queries: &[BucketRegion],
        arrivals_ms: &[f64],
        cfg: &ServeConfig,
        shards: usize,
        threads: usize,
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> ServeReport {
        let m = self.loads.len();
        let s = shards.clamp(1, m.max(1));
        let record = obs.enabled();
        let meters = record.then(|| LoopMeters::new(obs, "serve", m));
        let n = arrivals_ms.len();
        ls.begin(m, n);
        ls.ring.reset(cfg.window);
        ls.sorted.clear();
        let sample_every = if cfg.sample_every_ms > 0.0 {
            cfg.sample_every_ms
        } else {
            f64::INFINITY
        };
        let mut sh = std::mem::take(&mut ls.shard);
        let l = queries.len();

        // Stage A: one kernel call per distinct region, its per-disk
        // service times, plus shape ids for the LRU counter replay.
        sh.table.clear();
        sh.table.resize(l * m, 0);
        sh.service.clear();
        sh.service.resize(l * m, 0.0);
        sh.pages_of.clear();
        sh.shape_of.clear();
        sh.shape_keys.clear();
        let dims = queries[0].dims();
        for (qi, region) in queries.iter().enumerate() {
            let pages = self.counts_into(region, &mut ls.plans, &mut ls.scratch, &mut ls.hist);
            sh.table[qi * m..(qi + 1) * m].copy_from_slice(&ls.hist);
            for (d, (service, &count)) in sh.service[qi * m..(qi + 1) * m]
                .iter_mut()
                .zip(&ls.hist)
                .enumerate()
            {
                *service = params.batch_ms_counts(count, self.load_of(d));
            }
            sh.pages_of.push(pages);
            let nshapes = sh.shape_keys.len() / dims;
            let mut id = nshapes as u32;
            'probe: for sid in 0..nshapes {
                for d in 0..dims {
                    if sh.shape_keys[sid * dims + d] != region.extent(d) {
                        continue 'probe;
                    }
                }
                id = sid as u32;
                break;
            }
            if id as usize == nshapes {
                for d in 0..dims {
                    sh.shape_keys.push(region.extent(d));
                }
            }
            sh.shape_of.push(id);
        }
        // Stage A probed the real cache L times; discard those counts
        // and report what a per-request cache sees over all n requests.
        let _ = ls.plans.drain_stats();
        let (shape_hits, shape_misses) = if self.kernel_backed() {
            sh.lru.stats(&sh.shape_of, n as u64, ls.plans.capacity())
        } else {
            // The bucket-walk fallback never touches the plan cache.
            (0, 0)
        };

        setup_states(&mut sh.states, s, m, sample_every);
        sh.completions.clear();
        sh.completions.resize(n, 0.0);
        let n_epochs = n.div_ceil(EPOCH_ARRIVALS);

        let (sw, batches, queued_batches) = {
            let ShardScratch {
                table,
                service,
                pages_of,
                completions,
                order,
                states,
                ..
            } = &mut sh;
            let table: &[u64] = table;
            let service: &[f64] = service;
            if threads > 1 && n_epochs > 1 {
                // Pipelined: workers walk epoch e+1 while the main
                // thread merges epoch e. Two primed buffers per worker
                // bound the run-ahead to one epoch.
                std::thread::scope(|scope| {
                    let (done_tx, done_rx) = std::sync::mpsc::channel::<(usize, usize, Vec<f64>)>();
                    let mut work = Vec::with_capacity(s);
                    for (si, st) in states[..s].iter_mut().enumerate() {
                        let (wtx, wrx) = std::sync::mpsc::channel::<Vec<f64>>();
                        let _ = wtx.send(Vec::with_capacity(EPOCH_ARRIVALS.min(n)));
                        let _ = wtx.send(Vec::with_capacity(EPOCH_ARRIVALS.min(n)));
                        work.push(wtx);
                        let dtx = done_tx.clone();
                        scope.spawn(move || {
                            for e in 0..n_epochs {
                                let Ok(mut buf) = wrx.recv() else { return };
                                let (i0, i1) = epoch_bounds(e, n);
                                walk_epoch(
                                    arrivals_ms,
                                    i0,
                                    i1,
                                    table,
                                    service,
                                    m,
                                    sample_every,
                                    record,
                                    st,
                                    &mut buf,
                                );
                                if dtx.send((si, e, buf)).is_err() {
                                    return;
                                }
                            }
                        });
                    }
                    drop(done_tx);
                    let mut ready: Vec<Option<Vec<f64>>> = (0..s).map(|_| None).collect();
                    let mut stash: Vec<Option<Vec<f64>>> = (0..s).map(|_| None).collect();
                    for e in 0..n_epochs {
                        let (i0, i1) = epoch_bounds(e, n);
                        let mut have = 0usize;
                        for si in 0..s {
                            if let Some(buf) = stash[si].take() {
                                ready[si] = Some(buf);
                                have += 1;
                            }
                        }
                        while have < s {
                            let (si, ep, buf) = done_rx.recv().expect("shard worker exited early");
                            if ep == e {
                                ready[si] = Some(buf);
                                have += 1;
                            } else {
                                debug_assert_eq!(ep, e + 1, "run-ahead bound");
                                stash[si] = Some(buf);
                            }
                        }
                        for (si, slot) in ready.iter_mut().enumerate() {
                            let buf = slot.take().expect("epoch buffer");
                            if si == 0 {
                                completions[i0..i1].copy_from_slice(&buf);
                            } else {
                                merge_epoch_max(&mut completions[i0..i1], &buf);
                            }
                            let _ = work[si].send(buf);
                        }
                    }
                });
            } else {
                for e in 0..n_epochs {
                    let (i0, i1) = epoch_bounds(e, n);
                    for (si, st) in states[..s].iter_mut().enumerate() {
                        let mut part = std::mem::take(&mut st.part);
                        walk_epoch(
                            arrivals_ms,
                            i0,
                            i1,
                            table,
                            service,
                            m,
                            sample_every,
                            record,
                            st,
                            &mut part,
                        );
                        if si == 0 {
                            completions[i0..i1].copy_from_slice(&part);
                        } else {
                            merge_epoch_max(&mut completions[i0..i1], &part);
                        }
                        st.part = part;
                    }
                }
            }
            let sw = sweep(
                ls,
                order,
                arrivals_ms,
                completions,
                pages_of,
                ls.ring.capacity(),
                sample_every,
            );

            // Fold shard state back into the scratch in shard (= disk)
            // order, and patch the sample busy counts: recorded partials
            // where the walk reached the boundary, final free state for
            // trailing samples past the last arrival.
            let mut batches = 0u64;
            let mut queued = 0u64;
            for st in &states[..s] {
                batches += st.batches;
                queued += st.queued;
                for (j, d) in (st.lo..st.hi).enumerate() {
                    ls.disk_free_at[d] = st.free[j];
                    ls.disk_busy_ms[d] = st.busy[j];
                }
            }
            for (j, smp) in ls.samples.iter_mut().enumerate() {
                let mut busy = 0usize;
                for st in &states[..s] {
                    busy += st.busy_samples.get(j).map_or_else(
                        || st.free.iter().filter(|&&f| f > smp.at_ms).count(),
                        |&c| c as usize,
                    );
                }
                smp.busy_disks = busy;
            }
            (sw, batches, queued)
        };
        ls.shard = sh;
        // Every arrival and every completion is one event.
        let events = 2 * n as u64;

        if let Some(meters) = &meters {
            meters.record(n, batches, queued_batches, &ls.disk_busy_ms, &ls.latencies);
            obs.gauge_max("serve.peak_in_flight", sw.peak_in_flight as u64);
            obs.counter_add("serve.events", events);
            obs.counter_add("serve.pages", sw.pages);
            obs.counter_add("serve.samples", ls.samples.len() as u64);
            obs.counter_add("kernel.shape_cache_hits", shape_hits);
            obs.counter_add("kernel.shape_cache_misses", shape_misses);
        }
        let report = assemble_report(n, 0, sw.makespan, m, &ls.disk_busy_ms, &mut ls.latencies);
        if obs.trace_enabled() {
            obs.emit(
                TraceEvent::new("serve_done")
                    .with("requests", n)
                    .with("events", events)
                    .with("peak_in_flight", sw.peak_in_flight)
                    .with("makespan_ms", report.makespan_ms),
            );
        }
        ServeReport {
            report,
            events,
            peak_in_flight: sw.peak_in_flight,
            pages: sw.pages,
            samples: ls.samples.len(),
        }
    }
}

/// One precomputed batch window of the shared-scan path: membership is
/// the maximal run of arrivals strictly inside `open + w`, identical to
/// the event-driven rule (an arrival exactly at the flush time starts
/// the next window, because the flush event pops first on a tie).
#[derive(Clone, Copy, Debug, Default)]
struct WindowPlan {
    flush_t: f64,
    /// Member arrival-index range `[m_lo, m_hi)`.
    m_lo: usize,
    m_hi: usize,
    /// Members' own pages before deduplication.
    own: u64,
    /// Deduplicated pages actually fetched.
    fresh: u64,
    /// Range into [`ShardScratch::win_targets`].
    t_lo: usize,
    t_hi: usize,
}

/// One shard's walk over the precomputed windows: serves the targets
/// landing on its owned disks in flat-list order (which preserves the
/// `(disk asc, copy asc)` issue order per disk) and emits the
/// shard-partial completion per window. With `nearest = r > 0` the
/// targets are primaries and the walk routes each batch to the
/// first-minimal free time among its `1 + r` chain copies; that needs
/// every disk's queue, so the caller runs it as one shard.
#[allow(clippy::too_many_arguments)]
fn walk_windows(
    engine: &ServingEngine,
    params: &DiskParams,
    wins: &[WindowPlan],
    targets: &[(u32, u64)],
    nearest: u32,
    sample_every: f64,
    record: bool,
    st: &mut ShardState,
) {
    st.win_part.clear();
    for win in wins {
        while st.next_sample <= win.flush_t {
            let t = st.next_sample;
            st.busy_samples
                .push(st.free.iter().filter(|&&f| f > t).count() as u32);
            st.next_sample += sample_every;
        }
        let issue_at = win.flush_t;
        let mut completion = issue_at;
        let batches = &targets[win.t_lo..win.t_hi];
        if nearest == 0 {
            for &(dt, count) in batches {
                let d = dt as usize;
                if d < st.lo || d >= st.hi {
                    continue;
                }
                let done = serve_batch(engine, params, st, d, count, issue_at, record);
                completion = completion.max(done);
            }
        } else {
            let m = engine.num_disks();
            debug_assert!(
                st.lo == 0 && st.hi == m,
                "queue-depth routing needs one shard"
            );
            for &(dt, count) in batches {
                // Ties go to the earliest chain position.
                let mut d = dt as usize;
                for k in 1..=nearest as usize {
                    let c = (dt as usize + k) % m;
                    if st.free[c] < st.free[d] {
                        d = c;
                    }
                }
                let done = serve_batch(engine, params, st, d, count, issue_at, record);
                completion = completion.max(done);
            }
        }
        st.win_part.push(completion);
    }
}

/// One FCFS batch of `count` pages on the shard's disk `d`, issued at
/// `issue_at`; returns the batch's completion time.
#[inline]
fn serve_batch(
    engine: &ServingEngine,
    params: &DiskParams,
    st: &mut ShardState,
    d: usize,
    count: u64,
    issue_at: f64,
    record: bool,
) -> f64 {
    let j = d - st.lo;
    let start = issue_at.max(st.free[j]);
    let service = params.batch_ms_counts(count, engine.load_of(d));
    st.free[j] = start + service;
    st.busy[j] += service;
    if record {
        st.batches += 1;
        if start > issue_at {
            st.queued += 1;
        }
    }
    start + service
}

/// Counters the shared replay accumulates; folded into the report by
/// the caller.
#[derive(Debug, Default)]
struct SharedTotals {
    makespan: f64,
    pages: u64,
    pages_saved: u64,
    windows: u64,
    merged_queries: u64,
    events: u64,
    in_flight_peak: usize,
}

/// Runs the shared-scan event order with the merge and fan-out replaced
/// by the precomputed windows: the typed event heap gets a flush pushed
/// on each window-opening arrival and one completion per member at
/// flush, so event order, sample `in_flight`/`completed`, the latency
/// ring, and latencies follow from it. `busy_disks` is patched after
/// the walks.
fn replay_shared(
    ls: &mut LoopScratch,
    arrivals: &[f64],
    w: f64,
    sample_every: f64,
    wins: &[WindowPlan],
    win_completions: &[f64],
) -> SharedTotals {
    let n = arrivals.len();
    let mut t = SharedTotals::default();
    let mut next_sample = sample_every;
    let mut completed = 0u64;
    let mut in_flight = 0usize;
    let mut next_arrival = 0usize;
    let mut wi = 0usize;
    while next_arrival < n || !ls.fault_events.is_empty() {
        let arrival_t = if next_arrival < n {
            arrivals[next_arrival]
        } else {
            f64::INFINITY
        };
        let take_event = ls
            .fault_events
            .peek_time()
            .is_some_and(|et| et <= arrival_t);
        let event_t = if take_event {
            ls.fault_events.peek_time().expect("non-empty heap")
        } else {
            arrival_t
        };
        while next_sample <= event_t {
            let tail_ms = {
                ls.sorted.clear();
                ls.sorted.extend_from_slice(ls.ring.as_slice());
                Quantiles::of_unsorted(&mut ls.sorted)
            };
            ls.samples.push(ServeSample {
                at_ms: next_sample,
                in_flight,
                busy_disks: 0,
                completed,
                tail_ms,
            });
            next_sample += sample_every;
        }
        if take_event {
            let ev = ls.fault_events.pop().expect("non-empty heap");
            match ev.payload {
                ServeEventKind::Completion { latency_ms } => {
                    ls.ring.push(latency_ms);
                    completed += 1;
                    in_flight -= 1;
                }
                ServeEventKind::Flush => {
                    let win = &wins[wi];
                    let members = ls.batch.len();
                    debug_assert_eq!(
                        members,
                        win.m_hi - win.m_lo,
                        "precomputed window membership must match the event loop"
                    );
                    t.windows += 1;
                    if members > 1 {
                        t.merged_queries += members as u64;
                    }
                    t.pages += win.fresh;
                    t.pages_saved += win.own - win.fresh;
                    let completion = win_completions[wi];
                    t.makespan = t.makespan.max(completion);
                    for i in 0..ls.batch.len() {
                        let (_, arrived) = ls.batch[i];
                        let latency = completion - arrived;
                        ls.latencies.push(latency);
                        ls.fault_events.push(
                            completion,
                            ServeEventKind::Completion {
                                latency_ms: latency,
                            },
                        );
                    }
                    ls.batch.clear();
                    wi += 1;
                }
                ServeEventKind::Transition { .. } | ServeEventKind::Retry { .. } => {
                    unreachable!("the shared-scan loop schedules no fault events")
                }
            }
        } else {
            if ls.batch.is_empty() {
                ls.fault_events.push(arrival_t + w, ServeEventKind::Flush);
            }
            ls.batch.push((next_arrival as u64, arrival_t));
            in_flight += 1;
            t.in_flight_peak = t.in_flight_peak.max(in_flight);
            next_arrival += 1;
        }
        t.events += 1;
    }
    t
}

impl ServingEngine {
    /// Streaming shared-scan serve: arrivals are grouped into batch
    /// windows of `cfg.batch_window_ms` of logical time. The first
    /// arrival of a window opens it and schedules a flush one window
    /// later; every arrival before the flush joins the window (an
    /// arrival exactly at the flush time opens the next one). At flush
    /// time the members' buckets are deduplicated into one per-disk
    /// distinct-page schedule (the [`decluster_methods::SharedScan`]
    /// absorption fan-in), issued once across the `1 + r` replica copies
    /// per `cfg.policy`, and the completion fans back to every member —
    /// each latency measured from its own arrival, so queueing inside
    /// the window shows up in the tail.
    ///
    /// Window membership, absorption and replica routing are precomputed
    /// sequentially; the per-disk FCFS service is walked per shard, so
    /// output is byte-identical at any `(shards, threads)`.
    /// [`ReplicaPolicy::NearestFreeQueue`] with replicas routes on
    /// cross-disk queue depths at issue time, so it runs as one shard.
    /// With `batch_window_ms == 0` the run is the unshared
    /// [`ServingEngine::serve_core`]. Healthy mode only; reach it
    /// through [`crate::ServeSpec::share`], which validates the window,
    /// the replica count, the queries and the arrival order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn serve_shared_core(
        &self,
        dir: &GridDirectory,
        params: &DiskParams,
        queries: &[BucketRegion],
        arrivals_ms: &[f64],
        cfg: &SharedServeConfig,
        shards: usize,
        threads: usize,
        obs: &Obs,
        ls: &mut LoopScratch,
    ) -> SharedServeReport {
        if cfg.batch_window_ms == 0.0 {
            let serve = self.serve_core(
                params,
                queries,
                arrivals_ms,
                &cfg.serve,
                shards,
                threads,
                obs,
                ls,
            );
            return SharedServeReport {
                serve,
                windows: 0,
                merged_queries: 0,
                pages_saved: 0,
            };
        }
        let m = self.loads.len();
        debug_assert_eq!(
            dir.num_disks() as usize,
            m,
            "directory disk count differs from the engine's"
        );
        let nearest = if cfg.policy == ReplicaPolicy::NearestFreeQueue {
            cfg.replicas
        } else {
            0
        };
        let s = if nearest > 0 {
            1
        } else {
            shards.clamp(1, m.max(1))
        };
        let record = obs.enabled();
        let meters = record.then(|| LoopMeters::new(obs, "serve", m));
        let n = arrivals_ms.len();
        ls.begin(m, n);
        ls.begin_shared(m);
        ls.ring.reset(cfg.serve.window);
        ls.sorted.clear();
        let w = cfg.batch_window_ms;
        let sample_every = if cfg.serve.sample_every_ms > 0.0 {
            cfg.serve.sample_every_ms
        } else {
            f64::INFINITY
        };
        let mut sh = std::mem::take(&mut ls.shard);
        let lq = queries.len();
        let copies = u64::from(cfg.replicas) + 1;

        // Window precompute: membership, absorption fan-in, and the
        // flat replica-routed target list in issue order.
        sh.wins.clear();
        sh.win_targets.clear();
        let mut i = 0usize;
        while i < n {
            let flush_t = arrivals_ms[i] + w;
            let m_lo = i;
            while i < n && arrivals_ms[i] < flush_t {
                i += 1;
            }
            ls.shared.begin(m);
            let mut own = 0u64;
            for qi in m_lo..i {
                own += ls.shared.absorb(dir, &queries[qi % lq]).own_pages;
            }
            let fresh = ls.shared.total_pages();
            let route_key = m_lo as u64;
            let t_lo = sh.win_targets.len();
            for d in 0..m {
                let count = ls.shared.disk_count(d);
                if count == 0 {
                    continue;
                }
                if cfg.replicas == 0 {
                    sh.win_targets.push((d as u32, count));
                    continue;
                }
                match cfg.policy {
                    ReplicaPolicy::Spread => {
                        for j in 0..=cfg.replicas {
                            let share = count / copies + u64::from(u64::from(j) < count % copies);
                            if share == 0 {
                                continue;
                            }
                            sh.win_targets.push((((d + j as usize) % m) as u32, share));
                        }
                    }
                    // Queue-depth routing happens in the walk.
                    ReplicaPolicy::PrimaryOnly
                    | ReplicaPolicy::FailoverOnly
                    | ReplicaPolicy::NearestFreeQueue => {
                        sh.win_targets.push((d as u32, count));
                    }
                    ReplicaPolicy::RoundRobin => {
                        sh.win_targets
                            .push((((d + (route_key % copies) as usize) % m) as u32, count));
                    }
                }
            }
            sh.wins.push(WindowPlan {
                flush_t,
                m_lo,
                m_hi: i,
                own,
                fresh,
                t_lo,
                t_hi: sh.win_targets.len(),
            });
        }

        setup_states(&mut sh.states, s, m, sample_every);
        let totals = {
            let ShardScratch {
                states,
                wins,
                win_targets,
                win_completions,
                ..
            } = &mut sh;
            let wins: &[WindowPlan] = wins;
            let targets: &[(u32, u64)] = win_targets;
            let engine = self;
            if threads > 1 && s > 1 && !wins.is_empty() {
                std::thread::scope(|scope| {
                    for st in states[..s].iter_mut() {
                        scope.spawn(move || {
                            walk_windows(
                                engine,
                                params,
                                wins,
                                targets,
                                nearest,
                                sample_every,
                                record,
                                st,
                            );
                        });
                    }
                });
            } else {
                for st in states[..s].iter_mut() {
                    walk_windows(
                        engine,
                        params,
                        wins,
                        targets,
                        nearest,
                        sample_every,
                        record,
                        st,
                    );
                }
            }
            win_completions.clear();
            win_completions.extend_from_slice(&states[0].win_part);
            for st in &states[1..s] {
                merge_epoch_max(win_completions, &st.win_part);
            }
            let totals = replay_shared(ls, arrivals_ms, w, sample_every, wins, win_completions);
            let mut batches = 0u64;
            let mut queued = 0u64;
            for st in &states[..s] {
                batches += st.batches;
                queued += st.queued;
                for (j, d) in (st.lo..st.hi).enumerate() {
                    ls.disk_free_at[d] = st.free[j];
                    ls.disk_busy_ms[d] = st.busy[j];
                }
            }
            for (j, smp) in ls.samples.iter_mut().enumerate() {
                let mut busy = 0usize;
                for st in &states[..s] {
                    busy += st.busy_samples.get(j).map_or_else(
                        || st.free.iter().filter(|&&f| f > smp.at_ms).count(),
                        |&c| c as usize,
                    );
                }
                smp.busy_disks = busy;
            }
            (totals, batches, queued)
        };
        let (totals, batches, queued_batches) = totals;
        ls.shard = sh;

        if let Some(meters) = &meters {
            meters.record(n, batches, queued_batches, &ls.disk_busy_ms, &ls.latencies);
            obs.gauge_max("serve.peak_in_flight", totals.in_flight_peak as u64);
            obs.counter_add("serve.events", totals.events);
            obs.counter_add("serve.pages", totals.pages);
            obs.counter_add("serve.samples", ls.samples.len() as u64);
            obs.counter_add("share.windows", totals.windows);
            obs.counter_add("share.merged_queries", totals.merged_queries);
            obs.counter_add("share.pages_saved", totals.pages_saved);
        }
        let report = assemble_report(
            n,
            0,
            totals.makespan,
            m,
            &ls.disk_busy_ms,
            &mut ls.latencies,
        );
        if obs.trace_enabled() {
            obs.emit(
                TraceEvent::new("shared_serve_done")
                    .with("requests", n)
                    .with("events", totals.events)
                    .with("windows", totals.windows)
                    .with("merged_queries", totals.merged_queries)
                    .with("pages_saved", totals.pages_saved)
                    .with("makespan_ms", report.makespan_ms),
            );
        }
        SharedServeReport {
            serve: ServeReport {
                report,
                events: totals.events,
                peak_in_flight: totals.in_flight_peak,
                pages: totals.pages,
                samples: ls.samples.len(),
            },
            windows: totals.windows,
            merged_queries: totals.merged_queries,
            pages_saved: totals.pages_saved,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::random_region;
    use decluster_grid::{BucketCoord, GridSpace};
    use decluster_methods::{DeclusteringMethod, Hcam};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Brute-force LRU replay: simulate every one of the n steps.
    fn lru_brute(shape_of: &[u32], n: u64, capacity: usize) -> (u64, u64) {
        let mut slots: Vec<(u32, u64)> = Vec::new();
        let mut tick = 0u64;
        let mut hits = 0u64;
        for i in 0..n {
            tick += 1;
            let id = shape_of[(i % shape_of.len() as u64) as usize];
            if lru_touch(&mut slots, id, tick, capacity) {
                hits += 1;
            }
        }
        (hits, n - hits)
    }

    #[test]
    fn lru_cycle_detection_matches_brute_force() {
        let mut rng = StdRng::seed_from_u64(7);
        for case in 0..200 {
            let l = rng.gen_range(1..40usize);
            let ids: Vec<u32> = (0..l).map(|_| rng.gen_range(0..12u32)).collect();
            // Densify so `distinct = max + 1` holds.
            let mut dense = ids.clone();
            let mut map = std::collections::BTreeMap::new();
            for id in &mut dense {
                let next = map.len() as u32;
                *id = *map.entry(*id).or_insert(next);
            }
            let n = rng.gen_range(0..5000u64);
            let capacity = rng.gen_range(1..10usize);
            let mut replay = LruReplay::default();
            let fast = replay.stats(&dense, n, capacity);
            let brute = if n == 0 {
                (0, 0)
            } else {
                lru_brute(&dense, n, capacity)
            };
            assert_eq!(fast, brute, "case {case}: L={l} n={n} cap={capacity}");
        }
    }

    /// The event heap's pop order, by the obviously correct route: a
    /// stable sort by `total_cmp` keeps equal completions in index order.
    fn stable_order(completions: &[f64]) -> Vec<u32> {
        let mut order: Vec<u32> = (0..completions.len() as u32).collect();
        order.sort_by(|&x, &y| completions[x as usize].total_cmp(&completions[y as usize]));
        order
    }

    #[test]
    fn pop_order_is_the_stable_time_index_order() {
        let n = 1000usize;
        let mut rng = StdRng::seed_from_u64(3);
        let reversed: Vec<f64> = (0..n).rev().map(|v| v as f64).collect();
        let cases: [(&str, Vec<f64>, Option<bool>); 5] = [
            ("reversed", reversed, Some(true)),
            (
                "alternating",
                (0..n).map(|i| (i % 2) as f64).collect(),
                None,
            ),
            ("all-equal", vec![4.5; n], Some(false)),
            (
                "random",
                (0..n).map(|_| f64::from(rng.gen_range(0..50u32))).collect(),
                None,
            ),
            (
                "nearly-sorted",
                (0..n)
                    .map(|i| i as f64 + f64::from(rng.gen_range(0..4u32)))
                    .collect(),
                Some(false),
            ),
        ];
        let mut order = Vec::new();
        for (tag, completions, fallback) in cases {
            let fell_back = pop_order(&completions, &mut order);
            assert_eq!(order, stable_order(&completions), "{tag}");
            if let Some(expected) = fallback {
                assert_eq!(fell_back, expected, "{tag}: fallback");
            }
        }
        assert!(!pop_order(&[], &mut order));
        assert!(order.is_empty());
    }

    #[test]
    fn epoch_bounds_tile_the_run() {
        let n = 3 * EPOCH_ARRIVALS + 17;
        let mut covered = 0;
        for e in 0..n.div_ceil(EPOCH_ARRIVALS) {
            let (lo, hi) = epoch_bounds(e, n);
            assert_eq!(lo, covered);
            assert!(hi > lo && hi <= n);
            covered = hi;
        }
        assert_eq!(covered, n);
    }

    fn serving_fixture() -> (GridDirectory, Vec<BucketRegion>, Vec<f64>) {
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 8).unwrap();
        let dir = GridDirectory::build(space.clone(), 8, |b| hcam.disk_of(b.as_slice()));
        let mut rng = StdRng::seed_from_u64(11);
        let mut queries = Vec::new();
        for _ in 0..23 {
            let r = rng.gen_range(0..12u32);
            let c = rng.gen_range(0..12u32);
            let h = rng.gen_range(1..5u32);
            let v = rng.gen_range(1..5u32);
            queries.push(
                BucketRegion::new(
                    &space,
                    BucketCoord::from([r, c]),
                    BucketCoord::from([r + h - 1, c + v - 1]),
                )
                .unwrap(),
            );
        }
        let arrivals = crate::multiuser::poisson_arrivals(&mut rng, 700, 80.0);
        (dir, queries, arrivals)
    }

    fn assert_reports_identical(a: &ServeReport, b: &ServeReport, tag: &str) {
        assert_eq!(
            a.report.makespan_ms.to_bits(),
            b.report.makespan_ms.to_bits(),
            "{tag}: makespan"
        );
        assert_eq!(
            a.report.latency.mean.to_bits(),
            b.report.latency.mean.to_bits(),
            "{tag}: mean latency"
        );
        assert_eq!(
            a.report.utilization.to_bits(),
            b.report.utilization.to_bits(),
            "{tag}: utilization"
        );
        assert_eq!(a.report.tail, b.report.tail, "{tag}: tails");
        assert_eq!(a.events, b.events, "{tag}: events");
        assert_eq!(a.peak_in_flight, b.peak_in_flight, "{tag}: peak");
        assert_eq!(a.pages, b.pages, "{tag}: pages");
        assert_eq!(a.samples, b.samples, "{tag}: sample count");
    }

    fn assert_samples_identical(a: &[ServeSample], b: &[ServeSample], tag: &str) {
        assert_eq!(a.len(), b.len(), "{tag}: sample count");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.at_ms.to_bits(), y.at_ms.to_bits(), "{tag}: at_ms");
            assert_eq!(x.in_flight, y.in_flight, "{tag}: in_flight");
            assert_eq!(x.busy_disks, y.busy_disks, "{tag}: busy_disks");
            assert_eq!(x.completed, y.completed, "{tag}: completed");
            assert_eq!(x.tail_ms, y.tail_ms, "{tag}: tail");
        }
    }

    /// S = 1 (one shard owning every disk) is the baseline: every other
    /// shard and thread count reproduces it bit for bit, on a cold and a
    /// warmed scratch.
    #[test]
    fn serve_is_bit_identical_at_any_shard_count() {
        let (dir, queries, arrivals) = serving_fixture();
        let engine = crate::MultiUserEngine::new(&dir);
        let params = DiskParams::default();
        let cfg = ServeConfig {
            sample_every_ms: 12.0,
            ..ServeConfig::default()
        };
        let obs = Obs::disabled();
        let mut ls = LoopScratch::new();
        let one = engine
            .serving()
            .serve_core(&params, &queries, &arrivals, &cfg, 1, 1, &obs, &mut ls);
        let one_samples = ls.samples().to_vec();
        assert!(!one_samples.is_empty());
        for shards in [1usize, 2, 3, 7, 8] {
            for threads in [1usize, 4] {
                let mut ls2 = LoopScratch::new();
                for round in 0..2 {
                    let tag = format!("S={shards} T={threads} round={round}");
                    let run = engine.serving().serve_core(
                        &params, &queries, &arrivals, &cfg, shards, threads, &obs, &mut ls2,
                    );
                    assert_reports_identical(&one, &run, &tag);
                    assert_samples_identical(&one_samples, ls2.samples(), &tag);
                }
            }
        }
    }

    /// Runs long enough to span several epochs, so `threads > 1` takes the
    /// pipelined walk — with one worker at S = 1.
    #[test]
    fn pipelined_walk_matches_inline_walk() {
        let (dir, queries, _) = serving_fixture();
        let engine = crate::MultiUserEngine::new(&dir);
        let params = DiskParams::default();
        let mut rng = StdRng::seed_from_u64(4);
        let arrivals = crate::multiuser::poisson_arrivals(&mut rng, 30_000, 80.0);
        assert!(arrivals.len() > 3 * EPOCH_ARRIVALS);
        let cfg = ServeConfig {
            sample_every_ms: 5_000.0,
            ..ServeConfig::default()
        };
        let obs = Obs::disabled();
        let mut ls = LoopScratch::new();
        let inline = engine
            .serving()
            .serve_core(&params, &queries, &arrivals, &cfg, 1, 1, &obs, &mut ls);
        let inline_samples = ls.samples().to_vec();
        for (shards, threads) in [(1usize, 3usize), (4, 3)] {
            let tag = format!("S={shards} T={threads}");
            let run = engine.serving().serve_core(
                &params, &queries, &arrivals, &cfg, shards, threads, &obs, &mut ls,
            );
            assert_reports_identical(&inline, &run, &tag);
            assert_samples_identical(&inline_samples, ls.samples(), &tag);
        }
    }

    /// The `kernel.shape_cache_*` counters mean what a real
    /// [`decluster_methods::PlanCache`] sees when probed once per request
    /// over `queries[i % L]`, for `n` requests from a cleared cache.
    fn per_request_cache(engine: &ServingEngine, queries: &[BucketRegion], n: usize) -> (u64, u64) {
        let mut plans = decluster_methods::PlanCache::new();
        let mut scratch = decluster_methods::Scratch::new();
        let mut hist = Vec::new();
        for i in 0..n {
            engine.counts().counts_into_cached(
                &queries[i % queries.len()],
                &mut plans,
                &mut scratch,
                &mut hist,
            );
        }
        plans.drain_stats()
    }

    #[test]
    fn shape_cache_counters_match_a_per_request_plan_cache() {
        use decluster_obs::{MetricsRecorder, Recorder};
        use std::sync::Arc;
        let space = GridSpace::new_2d(16, 16).unwrap();
        let hcam = Hcam::new(&space, 8).unwrap();
        let dir = GridDirectory::build(space.clone(), 8, |b| hcam.disk_of(b.as_slice()));
        let engine = crate::MultiUserEngine::new(&dir);
        let params = DiskParams::default();
        let mut rng = StdRng::seed_from_u64(5);
        // 12 distinct shapes fit the 32-slot cache.
        let few: Vec<BucketRegion> = (0..30u32)
            .map(|i| random_region(&mut rng, &space, &[1 + i % 3, 1 + i % 4]).unwrap())
            .collect();
        // 40 distinct shapes cycled round-robin thrash it.
        let thrash: Vec<BucketRegion> = (0..200u32)
            .map(|i| random_region(&mut rng, &space, &[1 + (i / 8) % 5, 1 + i % 8]).unwrap())
            .collect();
        for (tag, queries, n) in [
            ("no eviction", &few, 600usize),
            ("thrash", &thrash, 2_000),
            ("n < L", &few, 20),
            ("n < L, 40 shapes", &thrash, 50),
        ] {
            let (hits, misses) = per_request_cache(engine.serving(), queries, n);
            assert_eq!(hits + misses, n as u64, "{tag}");
            if tag == "no eviction" {
                assert_eq!(misses, 12, "{tag}: one miss per distinct shape");
            }
            if tag == "thrash" {
                assert!(misses > 40, "{tag}: the cache must evict");
            }
            let arrivals: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
            for shards in [1usize, 4] {
                let rec = Arc::new(MetricsRecorder::new());
                engine.serving().serve_core(
                    &params,
                    queries,
                    &arrivals,
                    &ServeConfig::default(),
                    shards,
                    1,
                    &Obs::new(rec.clone()),
                    &mut LoopScratch::new(),
                );
                let snap = rec.snapshot();
                assert_eq!(
                    (
                        snap.counter("kernel.shape_cache_hits"),
                        snap.counter("kernel.shape_cache_misses")
                    ),
                    (Some(hits), Some(misses)),
                    "{tag}: S={shards}"
                );
            }
        }
    }

    #[test]
    fn shared_serve_is_bit_identical_at_any_shard_count() {
        let (dir, queries, arrivals) = serving_fixture();
        let engine = crate::MultiUserEngine::new(&dir);
        let params = DiskParams::default();
        let obs = Obs::disabled();
        for (replicas, policy) in [
            (0u32, ReplicaPolicy::PrimaryOnly),
            (1, ReplicaPolicy::Spread),
            (2, ReplicaPolicy::RoundRobin),
            (1, ReplicaPolicy::NearestFreeQueue), // always one shard
        ] {
            let cfg = SharedServeConfig {
                serve: ServeConfig {
                    sample_every_ms: 9.0,
                    ..ServeConfig::default()
                },
                batch_window_ms: 6.0,
                replicas,
                policy,
            };
            let mut ls = LoopScratch::new();
            let one = engine.serving().serve_shared_core(
                &dir, &params, &queries, &arrivals, &cfg, 1, 1, &obs, &mut ls,
            );
            let one_samples = ls.samples().to_vec();
            for shards in [2usize, 5, 8] {
                for threads in [1usize, 3] {
                    let tag = format!("r={replicas} {policy} S={shards} T={threads}");
                    let mut ls2 = LoopScratch::new();
                    let run = engine.serving().serve_shared_core(
                        &dir, &params, &queries, &arrivals, &cfg, shards, threads, &obs, &mut ls2,
                    );
                    assert_reports_identical(&one.serve, &run.serve, &tag);
                    assert_eq!(one.windows, run.windows, "{tag}: windows");
                    assert_eq!(one.merged_queries, run.merged_queries, "{tag}: merged");
                    assert_eq!(one.pages_saved, run.pages_saved, "{tag}: saved");
                    assert_samples_identical(&one_samples, ls2.samples(), &tag);
                }
            }
        }
    }
}
