//! `sim_digest`: one hash over every simulated output of a pass.
//!
//! Floats enter by bit pattern, so two digests match only when the
//! simulated statistics are bit-identical. A later change that claims a
//! speed-up shows its digest unchanged to prove it left the simulated
//! results alone.

use decluster::methods::splitmix64;
use decluster::sim::ServeRun;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0x5EED_D16E_57C0_FFEE)
    }
}

impl Digest {
    pub fn u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }

    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn value(self) -> u64 {
        self.0
    }

    /// Every field of a serve run: report, event-loop counters,
    /// availability and sharing accounting.
    pub fn serve_run(&mut self, run: &ServeRun) {
        let r = &run.report;
        self.u64(r.queries as u64);
        self.u64(r.clients as u64);
        for x in [
            r.makespan_ms,
            r.throughput_qps,
            r.latency.mean,
            r.latency.stddev,
            r.latency.min,
            r.latency.max,
            r.tail.p50,
            r.tail.p95,
            r.tail.p99,
            r.utilization,
        ] {
            self.f64(x);
        }
        self.u64(r.latency.n as u64);
        self.u64(run.events);
        self.u64(run.peak_in_flight as u64);
        self.u64(run.pages);
        self.u64(run.samples as u64);
        let a = run.availability.unwrap_or_default();
        for x in [
            a.served,
            a.shed,
            a.lost,
            a.retries,
            a.timeouts,
            a.failovers,
            a.transitions,
        ] {
            self.u64(x);
        }
        let s = run.sharing.unwrap_or_default();
        for x in [s.windows, s.merged_queries, s.pages_saved] {
            self.u64(x);
        }
    }
}
