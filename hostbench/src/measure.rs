//! The closed-loop timed phase and the end-to-end metrics it yields.

use std::time::Instant;

use crate::stats::{median, percentile};
use crate::trace::{span, Tracer};
use crate::workload::{gate, Corpus, Digest, OpResult, Workload};

/// One pass over the workload's op list (`pool_mix`: one batch). Every
/// pass of a workload has the same composition, so per-pass rates are
/// comparable and their median shrugs off a noisy neighbour.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    pub ops: u64,
    pub instructions: u64,
    pub wall_ns: u64,
}

#[derive(Debug, Default)]
pub struct Measurement {
    pub passes: Vec<Pass>,
    pub latencies_ns: Vec<f64>,
    pub attempted: u64,
    /// `(op key, why)` of every op that failed the gate.
    pub failures: Vec<(String, String)>,
    pub pool_workers: usize,
}

impl Measurement {
    fn record(&mut self, corpus: &Corpus, r: &OpResult) {
        self.attempted += 1;
        self.latencies_ns.push(r.latency_ns as f64);
        if let Some(e) = &r.error {
            self.failures
                .push((corpus.specs[r.spec].key.clone(), e.clone()));
        }
    }

    pub fn ops_per_s(&self) -> f64 {
        median(&self.rates(|p| p.ops as f64))
    }

    pub fn minstr_per_s(&self) -> f64 {
        median(&self.rates(|p| p.instructions as f64)) / 1e6
    }

    fn rates(&self, f: impl Fn(&Pass) -> f64) -> Vec<f64> {
        self.passes
            .iter()
            .map(|p| f(p) * 1e9 / p.wall_ns.max(1) as f64)
            .collect()
    }

    /// Mean host ns per op over all passes.
    pub fn ns_per_op(&self) -> f64 {
        let wall: u64 = self.passes.iter().map(|p| p.wall_ns).sum();
        let ops: u64 = self.passes.iter().map(|p| p.ops).sum();
        wall as f64 / ops.max(1) as f64
    }

    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile(&self.latencies_ns, p) / 1e6
    }

    /// Folds `other`'s ops and failures into `self` (passes are not merged).
    pub fn absorb(&mut self, other: Measurement) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }
}

/// Runs every distinct op once through the correctness gate before any
/// timing counts; returns the results for the character guards.
pub fn check_all(corpus: &Corpus, expected: &[Option<Digest>]) -> (Vec<OpResult>, Measurement) {
    let mut m = Measurement::default();
    let specs = corpus.all_specs();
    let mut results = match corpus.workload {
        Workload::PoolMix => {
            let (results, run) = corpus.run_batch(&specs);
            m.pool_workers = run.workers;
            results
        }
        _ => specs.iter().map(|&s| corpus.run_op(s, &mut None)).collect(),
    };
    for r in &mut results {
        gate(r, expected);
        m.record(corpus, r);
    }
    (results, m)
}

/// Closed loop: passes back to back until `seconds` have elapsed (the
/// last pass is finished), every op gated. With a tracer, each op (each
/// batch for `pool_mix`) is an `"op"` span around its layer spans.
pub fn measure(
    corpus: &Corpus,
    expected: &[Option<Digest>],
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
) -> Measurement {
    let mut m = Measurement::default();
    let start = Instant::now();
    for b in 0.. {
        let t = Instant::now();
        let mut pass = Pass {
            ops: 0,
            instructions: 0,
            wall_ns: 0,
        };
        let mut finish = |m: &mut Measurement, r: &mut OpResult| {
            gate(r, expected);
            pass.ops += 1;
            pass.instructions += r.digest.map_or(0, |d| d.instructions);
            m.record(corpus, r);
        };
        match corpus.workload {
            Workload::PoolMix => {
                let specs = corpus.batch(b);
                enter(&mut tracer);
                let (mut results, run) =
                    span(&mut tracer, "uhm.pool.run", || corpus.run_batch(&specs));
                m.pool_workers = run.workers;
                for r in &mut results {
                    finish(&mut m, r);
                }
                exit(&mut tracer);
            }
            _ => {
                for &spec in &corpus.order {
                    enter(&mut tracer);
                    let mut r = corpus.run_op(spec, &mut tracer);
                    finish(&mut m, &mut r);
                    exit(&mut tracer);
                }
            }
        }
        pass.wall_ns = t.elapsed().as_nanos() as u64;
        m.passes.push(pass);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    m
}

fn enter(tracer: &mut Option<&mut Tracer>) {
    if let Some(t) = tracer {
        t.enter("op");
    }
}

fn exit(tracer: &mut Option<&mut Tracer>) {
    if let Some(t) = tracer {
        t.exit();
    }
}
