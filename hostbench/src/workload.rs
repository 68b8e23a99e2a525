//! The three workloads: their seeded inputs, the op each one times, and
//! the correctness gate every op passes through.
//!
//! * `hot_loop` — the paper's steady state: high-reuse kernels on a DTB
//!   that holds their working set, so dispatch, micro-ops and DTB hits do
//!   almost all the work.
//! * `cold_run` — `raul run --stats` on fresh, low-reuse generated
//!   programs: front end, encode, decode-on-miss, translate, DTB fills,
//!   the ring sink and report rendering carry the cost.
//! * `pool_mix` — many short tenants of every sample, scheme and machine
//!   mode through a `MachinePool` of `nproc` workers, in closed batches.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use dir::encode::SchemeKind;
use telemetry::{Json, RingSink};
use uhm::{DtbConfig, Machine, MachinePool, Metrics, Mode, TenantOutcome};

use crate::stats::Rng;
use crate::trace::{span, Tracer};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HotLoop,
    ColdRun,
    PoolMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotLoop, Workload::ColdRun, Workload::PoolMix];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotLoop => "hot_loop",
            Workload::ColdRun => "cold_run",
            Workload::PoolMix => "pool_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The DTB capacity the workload's DTB-mode ops use, and the one the
    /// layer replays model.
    pub fn dtb_entries(self) -> usize {
        match self {
            Workload::HotLoop => HOT_DTB,
            Workload::ColdRun | Workload::PoolMix => 64,
        }
    }
}

/// High-reuse samples whose working set a 256-entry DTB holds (hit ratio
/// at least 0.99 under every scheme).
const HOT_KERNELS: [&str; 7] = [
    "collatz", "queens", "perm", "primes", "hanoi", "fib_rec", "matmul",
];
const HOT_DTB: usize = 256;
/// Generated programs in a `cold_run` pass, in an order drawn from the
/// seed. Every seed runs the same set, so seeds differ in order (and in the
/// ops the replays and the cost model pick) but not in what a pass costs;
/// the committed digest reference covers every program.
const COLD_PROGRAMS: u64 = 512;
/// `raul run` defaults: Huffman image, 64-entry DTB, 4096-event ring.
const COLD_SCHEME: SchemeKind = SchemeKind::Huffman;
const RING_EVENTS: usize = 4096;
/// Layer replays and the cost model look at this many distinct ops.
const REPLAY_SPECS: usize = 48;

/// The four machine modes a `pool_mix` tenant may run in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModeKind {
    Interp,
    Dtb(usize),
    ICache,
}

impl ModeKind {
    pub const POOL: [ModeKind; 4] = [
        ModeKind::Interp,
        ModeKind::Dtb(64),
        ModeKind::Dtb(16),
        ModeKind::ICache,
    ];

    pub fn label(self) -> String {
        match self {
            ModeKind::Interp => "interp".into(),
            ModeKind::Dtb(n) => format!("dtb{n}"),
            ModeKind::ICache => "icache".into(),
        }
    }

    pub fn mode(self) -> Mode {
        match self {
            ModeKind::Interp => Mode::Interpreter,
            ModeKind::Dtb(n) => Mode::Dtb(DtbConfig::with_capacity(n)),
            // `raul`'s default i-cache: a quarter of the 64 DTB entries in
            // sets, 4 ways.
            ModeKind::ICache => Mode::ICache {
                geometry: memsim::Geometry::new(16, 4),
            },
        }
    }
}

/// The exact modeled numbers of one run. They are the paper's result and
/// never move, so every op's digest must equal the committed reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Digest {
    pub instructions: u64,
    pub cycles: u64,
    pub decoded: u64,
    pub short_words: u64,
    pub routine_words: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

impl Digest {
    pub fn of(m: &Metrics) -> Digest {
        let dtb = m.dtb.unwrap_or_default();
        Digest {
            instructions: m.instructions,
            cycles: m.cycles.total(),
            decoded: m.decoded,
            short_words: m.short_words,
            routine_words: m.routine_words,
            hits: dtb.hits,
            misses: dtb.misses,
            evictions: dtb.evictions,
        }
    }

    fn fields(&self) -> [u64; 8] {
        [
            self.instructions,
            self.cycles,
            self.decoded,
            self.short_words,
            self.routine_words,
            self.hits,
            self.misses,
            self.evictions,
        ]
    }

    pub fn line(&self, key: &str) -> String {
        let mut s = key.to_string();
        for f in self.fields() {
            s.push('\t');
            s.push_str(&f.to_string());
        }
        s
    }

    fn parse(line: &str) -> Option<(String, Digest)> {
        let mut parts = line.split('\t');
        let key = parts.next()?.to_string();
        let v: Vec<u64> = parts.map(str::parse).collect::<Result<_, _>>().ok()?;
        let [instructions, cycles, decoded, short_words, routine_words, hits, misses, evictions] =
            v[..]
        else {
            return None;
        };
        Some((
            key,
            Digest {
                instructions,
                cycles,
                decoded,
                short_words,
                routine_words,
                hits,
                misses,
                evictions,
            },
        ))
    }
}

/// The committed per-workload digest reference.
pub fn committed_reference(w: Workload) -> &'static str {
    match w {
        Workload::HotLoop => include_str!("../reference/hot_loop.tsv"),
        Workload::ColdRun => include_str!("../reference/cold_run.tsv"),
        Workload::PoolMix => include_str!("../reference/pool_mix.tsv"),
    }
}

pub fn parse_reference(text: &str) -> HashMap<String, Digest> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(Digest::parse)
        .collect()
}

/// One program of a corpus: source text and its independent reference
/// output from the `hlr::eval` tree-walking evaluator.
pub struct Prog {
    pub name: String,
    pub source: String,
    pub reference: Vec<i64>,
    pub eval_ns: u64,
}

/// One distinct op: which program, encoded how, run in which mode.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    pub key: String,
    pub prog: usize,
    pub scheme: SchemeKind,
    pub mode: ModeKind,
}

/// A workload's inputs for one seed, built by [`Corpus::build`] (the timed
/// set-up).
pub struct Corpus {
    pub workload: Workload,
    pub seed: u64,
    pub progs: Vec<Prog>,
    pub specs: Vec<Spec>,
    /// Spec indices of one pass, in seeded order (`hot_loop`, `cold_run`).
    pub order: Vec<usize>,
    /// Pre-built machines by spec (`hot_loop`) or by `prog * 6 + scheme`
    /// (`pool_mix`, frozen); empty for `cold_run`, whose op builds its own.
    machines: Vec<Arc<Machine>>,
    pub workers: usize,
}

/// How one op ended, as the correctness gate sees it.
#[derive(Debug, Clone)]
pub struct OpResult {
    pub spec: usize,
    pub latency_ns: u64,
    pub digest: Option<Digest>,
    /// `None` when the op passed the gate, else why it failed.
    pub error: Option<String>,
}

fn build_prog(name: String, source: String) -> Result<Prog, String> {
    let hir = hlr::compile(&source).map_err(|e| format!("{name}: {e}"))?;
    let t = Instant::now();
    let reference = hlr::eval::run(&hir).map_err(|e| format!("{name}: eval: {e}"))?;
    let eval_ns = t.elapsed().as_nanos() as u64;
    Ok(Prog {
        name,
        source,
        reference,
        eval_ns,
    })
}

fn sample_source(name: &str) -> String {
    hlr::programs::by_name(name)
        .expect("built-in sample")
        .source
        .to_string()
}

/// Source of generated `cold_run` program `index`: short trip counts keep
/// reuse low, so the DTB misses about seven lookups in ten.
fn cold_source(index: u64) -> String {
    let config = hlr::generate::Config {
        max_trip: 2,
        ..Default::default()
    };
    hlr::pretty::print(&hlr::generate::program(index, &config))
}

fn machine_for(prog: &Prog, scheme: SchemeKind) -> Result<Machine, String> {
    let hir = hlr::compile(&prog.source).map_err(|e| format!("{}: {e}", prog.name))?;
    let program = dir::compiler::compile(&hir);
    program
        .validate()
        .map_err(|e| format!("{}: {e}", prog.name))?;
    Ok(Machine::new(&program, scheme))
}

impl Corpus {
    /// Generates the workload's inputs from `seed` and evaluates every
    /// program with the reference evaluator. Pre-built machines are part
    /// of set-up, because users of those workloads pay them once.
    pub fn build(workload: Workload, seed: u64) -> Result<Corpus, String> {
        let mut rng = Rng::new(seed ^ 0x686F_7374_6265_6E63);
        let mut corpus = Corpus {
            workload,
            seed,
            progs: Vec::new(),
            specs: Vec::new(),
            order: Vec::new(),
            machines: Vec::new(),
            workers: std::thread::available_parallelism().map_or(1, usize::from),
        };
        match workload {
            Workload::HotLoop => {
                for name in HOT_KERNELS {
                    corpus
                        .progs
                        .push(build_prog(name.into(), sample_source(name))?);
                }
                for (p, prog) in corpus.progs.iter().enumerate() {
                    for scheme in SchemeKind::all() {
                        corpus.specs.push(Spec {
                            key: format!("{}/{}", prog.name, scheme.label()),
                            prog: p,
                            scheme,
                            mode: ModeKind::Dtb(HOT_DTB),
                        });
                        corpus.machines.push(Arc::new(machine_for(prog, scheme)?));
                    }
                }
                corpus.order = (0..corpus.specs.len()).collect();
                rng.shuffle(&mut corpus.order);
            }
            Workload::ColdRun => {
                let mut indices: Vec<u64> = (0..COLD_PROGRAMS).collect();
                rng.shuffle(&mut indices);
                for (p, &index) in indices.iter().enumerate() {
                    let name = format!("gen{index}");
                    corpus
                        .progs
                        .push(build_prog(name.clone(), cold_source(index))?);
                    corpus.specs.push(Spec {
                        key: name,
                        prog: p,
                        scheme: COLD_SCHEME,
                        mode: ModeKind::Dtb(64),
                    });
                }
                corpus.order = (0..corpus.specs.len()).collect();
            }
            Workload::PoolMix => {
                for sample in hlr::programs::ALL {
                    corpus
                        .progs
                        .push(build_prog(sample.name.into(), sample.source.into())?);
                }
                for (p, prog) in corpus.progs.iter().enumerate() {
                    for scheme in SchemeKind::all() {
                        let mut m = machine_for(prog, scheme)?;
                        m.freeze_translations();
                        corpus.machines.push(Arc::new(m));
                        for mode in ModeKind::POOL {
                            corpus.specs.push(Spec {
                                key: format!("{}/{}/{}", prog.name, scheme.label(), mode.label()),
                                prog: p,
                                scheme,
                                mode,
                            });
                        }
                    }
                }
            }
        }
        Ok(corpus)
    }

    /// The spec of `prog` under `scheme` in `mode` (`pool_mix` layout).
    fn pool_spec(&self, prog: usize, scheme: usize, mode: usize) -> usize {
        (prog * 6 + scheme) * 4 + mode
    }

    /// Batch `b` of `pool_mix`: every sample in every mode once, each with
    /// a seeded scheme, in seeded order.
    pub fn batch(&self, b: u64) -> Vec<usize> {
        let mut rng = Rng::new(self.seed.wrapping_mul(0x9E37_79B9).wrapping_add(b) ^ 0x706F_6F6C);
        let mut specs = Vec::with_capacity(self.progs.len() * 4);
        for p in 0..self.progs.len() {
            for m in 0..4 {
                specs.push(self.pool_spec(p, rng.below(6), m));
            }
        }
        rng.shuffle(&mut specs);
        specs
    }

    /// Every distinct spec the workload can run, in a fixed order: what
    /// the pre-timing check covers.
    pub fn all_specs(&self) -> Vec<usize> {
        match self.workload {
            Workload::HotLoop | Workload::ColdRun => self.order.clone(),
            Workload::PoolMix => (0..self.specs.len()).collect(),
        }
    }

    /// Up to [`REPLAY_SPECS`] distinct specs in the order the workload
    /// first runs them.
    pub fn replay_specs(&self) -> Vec<usize> {
        let first = match self.workload {
            Workload::HotLoop | Workload::ColdRun => self.order.clone(),
            Workload::PoolMix => self.batch(0),
        };
        first.into_iter().take(REPLAY_SPECS).collect()
    }

    pub fn machine(&self, spec: usize) -> Arc<Machine> {
        match self.workload {
            Workload::HotLoop => Arc::clone(&self.machines[spec]),
            _ => Arc::clone(&self.machines[spec / 4]),
        }
    }

    /// Runs one `hot_loop` or `cold_run` op, spans recorded into `tracer`.
    pub fn run_op(&self, spec: usize, tracer: &mut Option<&mut Tracer>) -> OpResult {
        let s = &self.specs[spec];
        let prog = &self.progs[s.prog];
        let start = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| match self.workload {
            Workload::ColdRun => cold_op(&prog.source, tracer),
            _ => {
                let machine = &self.machines[spec];
                let mode = s.mode.mode();
                span(tracer, "uhm.run", || machine.run(&mode))
                    .map(|r| (r.output, r.metrics))
                    .map_err(|t| format!("trap: {t}"))
            }
        }));
        let latency_ns = start.elapsed().as_nanos() as u64;
        let (digest, error) = match outcome {
            Ok(Ok((output, metrics))) => {
                let error =
                    (output != prog.reference).then(|| "output differs from hlr::eval".into());
                (Some(Digest::of(&metrics)), error)
            }
            Ok(Err(e)) => (None, Some(e)),
            Err(_) => (None, Some("panic".into())),
        };
        OpResult {
            spec,
            latency_ns,
            digest,
            error,
        }
    }

    /// Runs one closed `pool_mix` batch: submitted whole, returns when
    /// every tenant has completed. Also returns the pool's worker count,
    /// steals and wall time.
    pub fn run_batch(&self, specs: &[usize]) -> (Vec<OpResult>, uhm::PoolRun) {
        let mut pool = MachinePool::new(self.workers);
        for &spec in specs {
            let s = &self.specs[spec];
            pool.push(s.key.clone(), self.machine(spec), s.mode.mode());
        }
        let run = pool.run();
        let results = run
            .results
            .iter()
            .map(|r| {
                let spec = specs[r.tenant];
                let reference = &self.progs[self.specs[spec].prog].reference;
                let (digest, error) = match &r.outcome {
                    TenantOutcome::Completed(report) => (
                        Some(Digest::of(&report.metrics)),
                        (report.output != *reference)
                            .then(|| "output differs from hlr::eval".into()),
                    ),
                    other => (None, Some(format!("tenant {}", other.status()))),
                };
                OpResult {
                    spec,
                    latency_ns: r.latency_ns,
                    digest,
                    error,
                }
            })
            .collect();
        (results, run)
    }
}

/// One `cold_run` op: exactly what `raul run prog.raul --stats` does with
/// its defaults, from source text to a rendered report.
pub fn cold_op(
    source: &str,
    tracer: &mut Option<&mut Tracer>,
) -> Result<(Vec<i64>, Metrics), String> {
    let hir = span(tracer, "hlr.compile", || hlr::compile(source)).map_err(|e| e.render(source))?;
    let program = span(tracer, "dir.compile", || {
        let program = dir::compiler::compile(&hir);
        program.validate().map(|()| program)
    })
    .map_err(|e| e.to_string())?;
    let machine = span(tracer, "uhm.machine_new", || {
        Machine::new(&program, COLD_SCHEME)
    });
    let mut ring = RingSink::new(RING_EVENTS);
    let mode = ModeKind::Dtb(64).mode();
    let report = span(tracer, "uhm.run", || machine.run_with(&mode, &mut ring))
        .map_err(|t| format!("trap: {t}"))?;
    span(tracer, "telemetry.report", || {
        std::hint::black_box(render_report(&report, &ring).len())
    });
    Ok((report.output, report.metrics))
}

/// The `--json` RunReport `raul run` prints, with output and ring health.
pub fn render_report(report: &uhm::Report, ring: &RingSink) -> String {
    let config = Json::obj(vec![
        ("scheme", COLD_SCHEME.label().into()),
        ("mode", "dtb".into()),
        ("dtb_entries", 64i64.into()),
    ]);
    let mut rr = uhm::report::run_report("hostbench", config, &report.metrics);
    rr.output = Some(Json::Arr(
        report.output.iter().map(|&v| Json::Int(v)).collect(),
    ));
    rr.trace_health = Some(uhm::report::trace_health_json(
        Some((ring.len() as u64, ring.dropped())),
        None,
    ));
    rr.render()
}

/// Checks `r` against the committed digest for its spec, turning a
/// mismatch into the op's error.
pub fn gate(r: &mut OpResult, expected: &[Option<Digest>]) {
    if r.error.is_some() {
        return;
    }
    match (r.digest, expected[r.spec]) {
        (Some(got), Some(want)) if got == want => {}
        (Some(_), Some(_)) => {
            r.error = Some("modeled digest differs from the committed reference".into())
        }
        (_, None) => r.error = Some("no committed digest for this op".into()),
        (None, _) => r.error = Some("no digest".into()),
    }
}

/// The committed digests, indexed by spec.
pub fn expected_digests(
    corpus: &Corpus,
    reference: &HashMap<String, Digest>,
) -> Vec<Option<Digest>> {
    corpus
        .specs
        .iter()
        .map(|s| reference.get(&s.key).copied())
        .collect()
}

/// Workload-character guards over the pre-timing check, by exact counts.
/// They keep a seed or corpus change from quietly moving a workload off
/// the layer it exists to stress.
pub fn character_guards(corpus: &Corpus, results: &[OpResult], pool_workers: usize) -> Vec<String> {
    let mut broken = Vec::new();
    let digests: Vec<(usize, Digest)> = results
        .iter()
        .filter_map(|r| Some((r.spec, r.digest?)))
        .collect();
    let sum = |f: fn(&Digest) -> u64| digests.iter().map(|(_, d)| f(d)).sum::<u64>();
    match corpus.workload {
        Workload::HotLoop => {
            for (spec, d) in &digests {
                let key = &corpus.specs[*spec].key;
                if d.hits * 100 < (d.hits + d.misses) * 99 {
                    broken.push(format!("{key}: DTB hit ratio below 0.99"));
                }
                if d.decoded * 100 > d.instructions {
                    broken.push(format!("{key}: decoded above 1% of instructions"));
                }
            }
        }
        Workload::ColdRun => {
            let (hits, lookups) = (sum(|d| d.hits), sum(|d| d.hits + d.misses));
            if hits * 2 > lookups {
                broken.push(format!("DTB hit ratio {hits}/{lookups} above 0.5"));
            }
        }
        Workload::PoolMix => {
            for mode in ModeKind::POOL {
                if !digests.iter().any(|(s, _)| corpus.specs[*s].mode == mode) {
                    broken.push(format!("mode {} absent", mode.label()));
                }
            }
            if pool_workers != corpus.workers {
                broken.push(format!(
                    "pool ran {pool_workers} workers, nproc is {}",
                    corpus.workers
                ));
            }
        }
    }
    if digests.len() != results.len() {
        broken.push("some ops produced no digest".into());
    }
    broken
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_lines_round_trip() {
        let d = Digest {
            instructions: 1,
            cycles: 2,
            decoded: 3,
            short_words: 4,
            routine_words: 5,
            hits: 6,
            misses: 7,
            evictions: 8,
        };
        let line = d.line("k/x");
        assert_eq!(Digest::parse(&line), Some(("k/x".to_string(), d)));
        assert_eq!(Digest::parse("k\t1\t2"), None);
    }

    #[test]
    fn same_seed_gives_the_same_ops_and_digests() {
        for w in Workload::ALL {
            let a = Corpus::build(w, 5).unwrap();
            let b = Corpus::build(w, 5).unwrap();
            let keys = |c: &Corpus| {
                c.all_specs()
                    .iter()
                    .map(|&s| c.specs[s].key.clone())
                    .collect::<Vec<_>>()
            };
            assert_eq!(keys(&a), keys(&b), "{}", w.name());
            assert_eq!(a.replay_specs(), b.replay_specs());
            if w == Workload::PoolMix {
                assert_eq!(a.batch(3), b.batch(3));
                assert_ne!(a.batch(3), a.batch(4));
            }
            let other = Corpus::build(w, 6).unwrap();
            if w != Workload::PoolMix {
                assert_ne!(keys(&a), keys(&other), "{}", w.name());
            }
            // A few ops run twice give identical digests, equal to the
            // committed reference.
            let reference = parse_reference(committed_reference(w));
            let expected = expected_digests(&a, &reference);
            for &spec in a.replay_specs().iter().take(3) {
                let run = |c: &Corpus| match w {
                    Workload::PoolMix => c.run_batch(&[spec]).0.remove(0),
                    _ => c.run_op(spec, &mut None),
                };
                let (mut x, y) = (run(&a), run(&b));
                assert_eq!(x.digest, y.digest);
                gate(&mut x, &expected);
                assert_eq!(x.error, None, "{}", a.specs[spec].key);
            }
        }
    }

    #[test]
    fn pool_batches_cover_every_sample_in_every_mode() {
        let c = Corpus::build(Workload::PoolMix, 1).unwrap();
        let batch = c.batch(0);
        assert_eq!(batch.len(), hlr::programs::ALL.len() * 4);
        for p in 0..c.progs.len() {
            for mode in ModeKind::POOL {
                assert_eq!(
                    batch
                        .iter()
                        .filter(|&&s| c.specs[s].prog == p && c.specs[s].mode == mode)
                        .count(),
                    1
                );
            }
        }
    }
}
