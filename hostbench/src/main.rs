//! Host benchmark for the universal host machine.
//!
//! ```text
//! cargo run --release --manifest-path hostbench/Cargo.toml -- \
//!     --workload <hot_loop|cold_run|pool_mix> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path hostbench/Cargo.toml -- --bless
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` the per-layer
//! ones: half the seconds untraced, half with spans (their ratio is the
//! tracing overhead), then the isolated layer replays and the cost model.
//! Every op passes the correctness gate (output equal to `hlr::eval`,
//! modeled digest equal to the committed reference, workload-character
//! guards) before and while it is timed; `failed_ratio` is printed with
//! the metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! `--bless` rewrites the committed digest reference under `reference/`.
//! The benchmark's own tests: `cargo test --release --manifest-path
//! hostbench/Cargo.toml`.

mod layers;
mod measure;
mod model;
mod stats;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use measure::{check_all, measure};
use stats::{failed_ratio, median, ratio};
use trace::Tracer;
use workload::{
    character_guards, committed_reference, expected_digests, parse_reference, Corpus, Workload,
};

/// Set-up runs per invocation, at least the minimum and until a second
/// of set-up has passed; `setup_s` is their median.
const SETUP_REPEATS: (usize, usize) = (5, 25);
/// Distinct ops per workload in each cost-model row set.
const MODEL_ROWS: usize = 32;
/// The held-out cost-model seed is the run's seed with these bits flipped.
const HELD_OUT: u64 = 0x5EED_0FF5;
/// Where a traced run writes its spans, inside the benchmark's directory.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/traces");

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: hostbench --workload <hot_loop|cold_run|pool_mix> --seed <n> \
                     --seconds <s> --trace <0|1>\n       hostbench --bless";

fn parse_args(args: &[String]) -> Result<Option<Args>, String> {
    if args == ["--bless"] {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Peak resident set of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

type Metric = (String, f64, &'static str);

fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(Some(a)) => a,
        Ok(None) => return bless(),
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("hostbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one invocation; `Ok(false)` when the correctness gate failed.
fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let mut corpus = None;
    while setup_s.len() < SETUP_REPEATS.0
        || (setup_s.len() < SETUP_REPEATS.1 && setup_s.iter().sum::<f64>() < 1.0)
    {
        let t = Instant::now();
        let c = Corpus::build(w, args.seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
        corpus = Some(c);
    }
    let corpus = corpus.expect("at least one set-up");
    let expected = expected_digests(&corpus, &parse_reference(committed_reference(w)));

    let (checked, mut total) = check_all(&corpus, &expected);
    let mut problems = character_guards(&corpus, &checked, total.pool_workers);
    println!(
        "hostbench {} seed {}: {} distinct ops checked, {} workers",
        w.name(),
        args.seed,
        checked.len(),
        corpus.workers
    );

    let mut metrics: Vec<Metric> = Vec::new();
    let timed = if args.trace {
        let base = measure(&corpus, &expected, args.seconds / 2.0, None);
        let mut tracer = Tracer::default();
        let traced = measure(&corpus, &expected, args.seconds / 2.0, Some(&mut tracer));
        metrics.extend(layers::layer_metrics(&corpus).unwrap_or_else(|e| {
            problems.push(e);
            Vec::new()
        }));
        metrics.push((
            "trace.overhead".into(),
            ratio(traced.ns_per_op(), base.ns_per_op()),
            "ratio",
        ));
        metrics.extend(span_shares(&tracer));
        match cost_model(w, args.seed) {
            Ok(m) => metrics.extend(m),
            Err(e) => problems.push(e),
        }
        let path = format!("{TRACE_DIR}/{}-seed{}.json", w.name(), args.seed);
        let written = std::fs::create_dir_all(TRACE_DIR)
            .and_then(|()| std::fs::write(&path, tracer.chrome_json()));
        match written {
            Ok(()) => println!("trace: {} spans written to {path}", tracer.spans.len()),
            Err(e) => eprintln!("hostbench: warning: writing {path}: {e}"),
        }
        total.absorb(base);
        traced
    } else {
        let m = measure(&corpus, &expected, args.seconds, None);
        metrics.extend([
            ("setup_s".into(), median(&setup_s), "s"),
            ("ops_per_s".into(), m.ops_per_s(), "1/s"),
            ("minstr_per_s".into(), m.minstr_per_s(), "Minstr/s"),
            ("latency_ms_p50".into(), m.latency_ms(50.0), "ms"),
            ("latency_ms_p90".into(), m.latency_ms(90.0), "ms"),
        ]);
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MB"));
        println!("{} passes, {} timed ops", m.passes.len(), m.attempted);
        m
    };
    total.absorb(timed);

    for (name, value, unit) in &metrics {
        println!("{name} = {value} {unit}");
    }
    for (key, why) in total.failures.iter().take(20) {
        println!("FAILED op {key}: {why}");
    }
    for p in &problems {
        println!("FAILED check: {p}");
    }
    let failed = total.failures.len() as u64;
    println!(
        "failed_ratio = {} ratio ({failed} of {} ops)",
        failed_ratio(failed, total.attempted),
        total.attempted
    );
    let correct = failed == 0 && problems.is_empty();
    println!(
        "{}",
        result_json(correct, total.attempted, failed, &metrics)
    );
    Ok(correct)
}

/// Each span's self time as a share of the traced ops' total time.
fn span_shares(tracer: &Tracer) -> Vec<Metric> {
    let times = tracer.times();
    let op_ns = times.get("op").map_or(0, |t| t.0) as f64;
    let names = [
        ("hlr.compile", "share.hlr.compile"),
        ("dir.compile", "share.dir.compile"),
        ("uhm.machine_new", "share.uhm.machine_new"),
        ("uhm.run", "share.uhm.run"),
        ("uhm.pool.run", "share.uhm.pool.run"),
        ("telemetry.report", "share.telemetry.report"),
        ("op", "share.harness"),
    ];
    names
        .iter()
        .map(|(span, metric)| {
            let self_ns = times.get(span).map_or(0, |t| t.1) as f64;
            ((*metric).to_string(), ratio(self_ns, op_ns), "ratio")
        })
        .collect()
}

/// Fits host ns per op on exact counts over every workload's ops at the
/// run's seed, and reports the coefficients and this workload's residual
/// (|predicted - measured| / measured, signed on stdout) on a held-out seed.
fn cost_model(w: Workload, seed: u64) -> Result<Vec<Metric>, String> {
    let mut train = Vec::new();
    for wl in Workload::ALL {
        train.extend(layers::model_rows(wl, seed, MODEL_ROWS)?);
    }
    let fit = model::fit(&train);
    let held_out = layers::model_rows(w, seed ^ HELD_OUT, MODEL_ROWS)?;
    let mut out: Vec<Metric> = model::FEATURES
        .iter()
        .zip(fit.coef)
        .map(|(f, c)| (format!("model.ns_per_{f}"), c, "ns"))
        .collect();
    out.push(("model.ns_per_op".into(), fit.intercept, "ns"));
    let residual = fit.residual(&held_out);
    println!(
        "cost model: {} rows at seed {seed}, predicted - measured on held-out seed {} = {residual:+.4} of measured",
        train.len(),
        seed ^ HELD_OUT
    );
    out.push(("model.residual".into(), residual.abs(), "ratio"));
    Ok(out)
}

/// Rewrites the committed digest reference from the current machine,
/// after checking every op's output against `hlr::eval`.
fn bless() -> ExitCode {
    for w in Workload::ALL {
        let corpus = match Corpus::build(w, 0) {
            Ok(c) => c,
            Err(e) => {
                eprintln!("hostbench: {e}");
                return ExitCode::FAILURE;
            }
        };
        let none = vec![None; corpus.specs.len()];
        let (results, _) = check_all(&corpus, &none);
        let mut lines = vec![format!(
            "# {} modeled digests: key, instructions, cycles, decoded, short_words, \
             routine_words, dtb hits, dtb misses, dtb evictions",
            w.name()
        )];
        let mut entries: Vec<(String, String)> = Vec::new();
        for r in &results {
            let key = &corpus.specs[r.spec].key;
            match (r.digest, r.error.as_deref()) {
                (Some(d), None | Some("no committed digest for this op")) => {
                    entries.push((key.clone(), d.line(key)));
                }
                (_, e) => {
                    eprintln!("hostbench: cannot bless {key}: {e:?}");
                    return ExitCode::FAILURE;
                }
            }
        }
        entries.sort();
        lines.extend(entries.into_iter().map(|(_, l)| l));
        let path = format!("{}/reference/{}.tsv", env!("CARGO_MANIFEST_DIR"), w.name());
        if let Err(e) = std::fs::write(&path, lines.join("\n") + "\n") {
            eprintln!("hostbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{path}: {} digests", results.len());
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 3, 0, &[("ops_per_s".into(), 12.5, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn args_are_checked() {
        let a = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ok = parse_args(&a("--workload cold_run --seed 3 --seconds 2 --trace 1"))
            .unwrap()
            .unwrap();
        assert_eq!(
            (ok.workload, ok.seed, ok.trace),
            (Workload::ColdRun, 3, true)
        );
        assert!(parse_args(&a("--workload warm --seed 3 --seconds 2 --trace 1")).is_err());
        assert!(parse_args(&a("--workload cold_run --seed 3 --seconds 0 --trace 1")).is_err());
        assert!(parse_args(&a("--workload cold_run --seed 3 --trace 1")).is_err());
        assert!(parse_args(&a("--bless")).unwrap().is_none());
    }
}
