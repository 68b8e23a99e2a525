//! Per-layer attribution for the traced run: each layer's public entry is
//! timed in isolation over the workload's own distinct ops, and each op's
//! DIR address trace is replayed through the decoder, the translator and
//! the DTB. Modeled counts from those replays must equal the machine's.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dir::encode::DecodeMode;
use uhm::{Dtb, DtbConfig, Machine, MachinePool, Mode};

use crate::model::Row;
use crate::stats::{median, ratio};
use crate::workload::{cold_op, render_report, Corpus, Digest, ModeKind, Workload};

/// Fastest of `n` timed calls of `f`, in ns, and the last result. Results
/// are dropped outside the timed region.
fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> (u64, R) {
    let mut best = u64::MAX;
    let mut last = None;
    for _ in 0..n {
        let t = Instant::now();
        let r = f();
        best = best.min(t.elapsed().as_nanos() as u64);
        last = Some(r);
    }
    (best, last.expect("n > 0"))
}

/// Sums over the replayed ops, in ns and exact counts.
#[derive(Debug, Default)]
struct Totals {
    source_bytes: f64,
    static_insts: f64,
    compile_ns: f64,
    dir_compile_ns: f64,
    encode_ns: f64,
    machine_new_ns: f64,
    image_bits: f64,
    exec_ns: f64,
    psder_interp_ns: f64,
    ref_instructions: f64,
    /// NullSink DTB (workload capacity), interpreter and i-cache runs.
    run_ns: [f64; 3],
    run_instructions: f64,
    ring_ns: f64,
    report_ns: f64,
    lookups: f64,
    lookup_ns: f64,
    fills: f64,
    fill_ns: f64,
    decodes: f64,
    decode_ns: f64,
    translate_ns: f64,
    /// The ops' own-mode counts.
    own: Digest,
    specs: f64,
    freeze_ns: f64,
}

/// Replays one op's layers; `Err` names a layer whose result disagrees
/// with the reference or with the machine's own counts.
fn replay(
    corpus: &Corpus,
    spec: usize,
    t: &mut Totals,
    frozen: &mut Vec<(Arc<Machine>, Mode)>,
) -> Result<(), String> {
    let s = &corpus.specs[spec];
    let prog = &corpus.progs[s.prog];
    let fail = |what: &str| format!("{}: {what}", s.key);
    let (ns, hir) = best_of(3, || hlr::compile(&prog.source));
    let hir = hir.map_err(|e| fail(&e.to_string()))?;
    t.compile_ns += ns as f64;
    t.source_bytes += prog.source.len() as f64;
    let (ns, program) = best_of(3, || dir::compiler::compile(&hir));
    t.dir_compile_ns += ns as f64;
    t.static_insts += program.code.len() as f64;
    let (ns, image) = best_of(3, || s.scheme.encode(&program));
    t.encode_ns += ns as f64;
    t.image_bits += image.bit_len as f64;
    let (ns, mut machine) = best_of(3, || Machine::new(&program, s.scheme));
    t.machine_new_ns += ns as f64;

    // Reference levels: the two other representations of the program.
    let (ns, out) = best_of(2, || dir::exec::run(&program));
    if out.as_ref() != Ok(&prog.reference) {
        return Err(fail("dir::exec output differs from hlr::eval"));
    }
    t.exec_ns += ns as f64;
    let (ns, out) = best_of(2, || psder::interp::run(&program));
    if out.as_ref() != Ok(&prog.reference) {
        return Err(fail("psder::interp output differs from hlr::eval"));
    }
    t.psder_interp_ns += ns as f64;

    let cap = corpus.workload.dtb_entries();
    let modes = [ModeKind::Dtb(cap), ModeKind::Interp, ModeKind::ICache];
    let mut dtb_report = None;
    for (i, mode) in modes.iter().enumerate() {
        let (ns, report) = best_of(2, || machine.run(&mode.mode()));
        let report = report.map_err(|e| fail(&format!("trap: {e}")))?;
        if report.output != prog.reference {
            return Err(fail("machine output differs from hlr::eval"));
        }
        t.run_ns[i] += ns as f64;
        if i == 0 {
            t.run_instructions += report.metrics.instructions as f64;
            dtb_report = Some(report);
        }
    }
    let dtb_report = dtb_report.expect("DTB mode ran first");
    t.ref_instructions += dtb_report.metrics.instructions as f64;
    let dtb_mode = modes[0].mode();
    let (ns, ring) = best_of(2, || {
        let mut ring = telemetry::RingSink::new(4096);
        machine.run_with(&dtb_mode, &mut ring).map(|r| (r, ring))
    });
    let (ring_report, ring) = ring.map_err(|e| fail(&format!("trap: {e}")))?;
    t.ring_ns += ns as f64;
    t.report_ns += best_of(3, || render_report(&ring_report, &ring)).0 as f64;

    let own = machine
        .run(&s.mode.mode())
        .map_err(|e| fail(&format!("trap: {e}")))?;
    let d = Digest::of(&own.metrics);
    let o = &mut t.own;
    o.instructions += d.instructions;
    o.cycles += d.cycles;
    o.decoded += d.decoded;
    o.short_words += d.short_words;
    o.routine_words += d.routine_words;
    o.hits += d.hits;
    o.misses += d.misses;
    o.evictions += d.evictions;

    // The DIR address trace is the same in every mode; replay it through a
    // DTB of the workload's capacity.
    machine.set_trace(true);
    let traced = machine
        .run(&dtb_mode)
        .map_err(|e| fail(&format!("trap: {e}")))?;
    machine.set_trace(false);
    let trace = traced.metrics.trace.unwrap_or_default();
    let cfg = DtbConfig::with_capacity(cap);
    let mut dtb = Dtb::new(cfg);
    let mut misses = Vec::new();
    for &pc in &trace {
        if dtb.lookup(pc).is_none() {
            let inst = image
                .decode_with(&image.bytes, pc, DecodeMode::Table)
                .map_err(|e| fail(&format!("decode: {e}")))?
                .inst;
            let sequence = psder::translate(inst, pc + 1);
            dtb.fill(pc, &sequence);
            misses.push((pc, inst, sequence));
        }
    }
    let machine_dtb = dtb_report.metrics.dtb.unwrap_or_default();
    let replayed = dtb.stats();
    if (replayed.hits, replayed.misses, replayed.evictions)
        != (machine_dtb.hits, machine_dtb.misses, machine_dtb.evictions)
    {
        return Err(fail("DTB replay counts differ from the machine's"));
    }
    let (full_ns, _) = best_of(3, || {
        let mut dtb = Dtb::new(cfg);
        let mut next = misses.iter();
        for &pc in &trace {
            if dtb.lookup(pc).is_none() {
                let (at, _, sequence) = next.next().expect("same miss sequence");
                dtb.fill(*at, sequence);
            }
        }
        black_box(dtb)
    });
    let (fill_ns, _) = best_of(3, || {
        let mut dtb = Dtb::new(cfg);
        for (pc, _, sequence) in &misses {
            dtb.fill(*pc, sequence);
        }
        black_box(dtb)
    });
    t.lookups += trace.len() as f64;
    t.lookup_ns += full_ns.saturating_sub(fill_ns) as f64;
    t.fills += misses.len() as f64;
    t.fill_ns += fill_ns as f64;
    let (ns, _) = best_of(3, || {
        for (pc, _, _) in &misses {
            black_box(image.decode_with(&image.bytes, *pc, DecodeMode::Table).ok());
        }
    });
    t.decode_ns += ns as f64;
    t.decodes += misses.len() as f64;
    let (ns, _) = best_of(3, || {
        for (pc, inst, _) in &misses {
            black_box(psder::translate(*inst, pc + 1).len());
        }
    });
    t.translate_ns += ns as f64;

    let (ns, _) = best_of(1, || {
        machine.freeze_translations();
    });
    t.freeze_ns += ns as f64;
    frozen.push((Arc::new(machine), s.mode.mode()));
    t.specs += 1.0;
    Ok(())
}

/// The per-layer metrics of `corpus`'s distinct ops: `(name, value, unit)`.
pub fn layer_metrics(corpus: &Corpus) -> Result<Vec<(String, f64, &'static str)>, String> {
    let mut t = Totals::default();
    let mut frozen = Vec::new();
    for spec in corpus.replay_specs() {
        replay(corpus, spec, &mut t, &mut frozen)?;
    }
    let eval_ns: f64 = corpus
        .replay_specs()
        .iter()
        .map(|&s| corpus.progs[corpus.specs[s].prog].eval_ns as f64)
        .sum();

    // The pool over the replayed ops' frozen machines, three closed runs.
    let mut pool = MachinePool::new(corpus.workers);
    for (i, (machine, mode)) in frozen.iter().enumerate() {
        pool.push(format!("t{i}"), Arc::clone(machine), mode.clone());
    }
    let runs: Vec<uhm::PoolRun> = (0..3).map(|_| pool.run()).collect();
    if runs.iter().any(|r| r.completed() != frozen.len()) {
        return Err("pool probe: a tenant did not complete".into());
    }
    let util = median(
        &runs
            .iter()
            .map(|r| r.worker_utilization().iter().sum::<f64>() / r.workers as f64)
            .collect::<Vec<_>>(),
    );
    let idle_ms = median(
        &runs
            .iter()
            .map(|r| {
                let busy: u64 = r.worker_busy_ns().iter().sum();
                (r.workers as f64 * r.wall_ns as f64 - busy as f64).max(0.0) / 1e6
            })
            .collect::<Vec<_>>(),
    );
    let steals = median(&runs.iter().map(|r| r.steals as f64).collect::<Vec<_>>());

    let dtb_ns = ratio(t.run_ns[0], t.run_instructions);
    let lookup_ns = ratio(t.lookup_ns, t.lookups);
    let fill_ns = ratio(t.fill_ns, t.fills);
    let decode_ns = ratio(t.decode_ns, t.decodes);
    let translate_ns = ratio(t.translate_ns, t.fills);
    // Replayed shares of DTB-mode run time; dispatch and semantic
    // micro-ops are what is left.
    let run = t.run_ns[0];
    let shares = [
        ratio(t.lookup_ns + t.fill_ns, run),
        ratio(t.decode_ns, run),
        ratio(t.translate_ns, run),
    ];
    let dispatch_share = 1.0 - shares.iter().sum::<f64>();
    let o = t.own;
    Ok(vec![
        (
            "hlr.compile.us".into(),
            ratio(t.compile_ns, t.specs) / 1e3,
            "us",
        ),
        (
            "hlr.compile.ns_per_byte".into(),
            ratio(t.compile_ns, t.source_bytes),
            "ns/byte",
        ),
        (
            "dir.compile.ns_per_inst".into(),
            ratio(t.dir_compile_ns, t.static_insts),
            "ns/inst",
        ),
        (
            "dir.encode.ns_per_inst".into(),
            ratio(t.encode_ns, t.static_insts),
            "ns/inst",
        ),
        (
            "uhm.machine_new.us".into(),
            ratio(t.machine_new_ns, t.specs) / 1e3,
            "us",
        ),
        ("dir.image_bits".into(), t.image_bits, "count"),
        ("dir.decode.ns_per_inst".into(), decode_ns, "ns/inst"),
        ("uhm.decoded".into(), o.decoded as f64, "count"),
        (
            "psder.translate.ns_per_miss".into(),
            translate_ns,
            "ns/miss",
        ),
        ("uhm.dtb.misses".into(), o.misses as f64, "count"),
        ("uhm.dtb.lookup_ns".into(), lookup_ns, "ns"),
        ("uhm.dtb.fill_ns".into(), fill_ns, "ns"),
        (
            "uhm.dtb.hit_ratio".into(),
            ratio(o.hits as f64, (o.hits + o.misses) as f64),
            "ratio",
        ),
        ("uhm.dtb.evictions".into(), o.evictions as f64, "count"),
        ("uhm.run.dtb.ns_per_instr".into(), dtb_ns, "ns/instr"),
        (
            "uhm.run.interp.ns_per_instr".into(),
            ratio(t.run_ns[1], t.run_instructions),
            "ns/instr",
        ),
        (
            "uhm.run.icache.ns_per_instr".into(),
            ratio(t.run_ns[2], t.run_instructions),
            "ns/instr",
        ),
        (
            "uhm.run.dtb.residual_ns_per_instr".into(),
            dtb_ns * dispatch_share,
            "ns/instr",
        ),
        ("uhm.run.dtb.share.dtb".into(), shares[0], "ratio"),
        ("uhm.run.dtb.share.decode".into(), shares[1], "ratio"),
        ("uhm.run.dtb.share.translate".into(), shares[2], "ratio"),
        ("uhm.run.dtb.share.dispatch".into(), dispatch_share, "ratio"),
        (
            "psder.interp.ns_per_instr".into(),
            ratio(t.psder_interp_ns, t.ref_instructions),
            "ns/instr",
        ),
        ("uhm.short_words".into(), o.short_words as f64, "count"),
        ("uhm.routine_words".into(), o.routine_words as f64, "count"),
        (
            "telemetry.sink.overhead".into(),
            ratio(t.ring_ns, t.run_ns[0]),
            "ratio",
        ),
        (
            "telemetry.report.us".into(),
            ratio(t.report_ns, t.specs) / 1e3,
            "us",
        ),
        ("uhm.pool.utilization".into(), util, "ratio"),
        ("uhm.pool.idle_ms".into(), idle_ms, "ms"),
        ("uhm.pool.steals".into(), steals, "count"),
        (
            "uhm.pool.freeze.us".into(),
            ratio(t.freeze_ns, t.specs) / 1e3,
            "us",
        ),
        (
            "hlr.eval.ns_per_instr".into(),
            ratio(eval_ns, t.ref_instructions),
            "ns/instr",
        ),
        (
            "dir.exec.ns_per_instr".into(),
            ratio(t.exec_ns, t.ref_instructions),
            "ns/instr",
        ),
    ])
}

/// Cost-model rows: up to `n` distinct ops of `workload` at `seed`, each
/// timed as the workload runs it (fastest of three) with its exact counts.
pub fn model_rows(workload: Workload, seed: u64, n: usize) -> Result<Vec<Row>, String> {
    let corpus = Corpus::build(workload, seed)?;
    let mut rows = Vec::new();
    for spec in corpus.replay_specs().into_iter().take(n) {
        let s = &corpus.specs[spec];
        let (ns, out) = match workload {
            Workload::ColdRun => {
                let source = &corpus.progs[s.prog].source;
                best_of(3, || cold_op(source, &mut None))
            }
            _ => {
                let machine = corpus.machine(spec);
                let mode = s.mode.mode();
                best_of(3, || {
                    machine
                        .run(&mode)
                        .map(|r| (r.output, r.metrics))
                        .map_err(|t| t.to_string())
                })
            }
        };
        let (output, metrics) = out.map_err(|e| format!("{}: {e}", s.key))?;
        if output != corpus.progs[s.prog].reference {
            return Err(format!("{}: output differs from hlr::eval", s.key));
        }
        let d = Digest::of(&metrics);
        let source_bytes = match workload {
            Workload::ColdRun => corpus.progs[s.prog].source.len(),
            _ => 0,
        };
        rows.push(Row {
            counts: [
                d.decoded as f64,
                d.short_words as f64,
                d.routine_words as f64,
                (d.hits + d.misses) as f64,
                d.misses as f64,
                d.instructions as f64,
                source_bytes as f64,
            ],
            ns: ns as f64,
        });
    }
    Ok(rows)
}
