//! `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--commit C] [--rustc V] [--out DIR]`
//!
//! Untraced runs (`--trace 0`) print the end-to-end metrics; traced runs
//! (`--trace 1`) print the per-layer metrics. Both print a table, then
//! one JSON result line, and write a result record under `--out`.
//! Exits non-zero when any correctness check fails.

use std::time::Duration;

use perfbench::probe;
use perfbench::report::{self, Metric};
use perfbench::runner::{self, Limit, RunOptions, RunOutcome};
use perfbench::sys::nproc;
use perfbench::workload::Spec;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    rustc: String,
    out: String,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
        rustc: "unknown".into(),
        out: ".bench_results".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value()? == "1",
            "--commit" => args.commit = value()?,
            "--rustc" => args.rustc = value()?,
            "--out" => args.out = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn run(spec: &Spec, seed: u64, seconds: f64, trace: bool) -> Result<RunOutcome, String> {
    runner::run(
        spec,
        seed,
        RunOptions {
            limit: Limit::Time(Duration::from_secs_f64(seconds)),
            trace,
            driver_every_round: false,
        },
    )
}

fn main() {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(spec) = Spec::named(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (xnoise-dropout, wide-cohort, deep-model)",
            args.workload
        );
        std::process::exit(2);
    };

    // A traced run measures untraced quarters before and after the
    // traced half, so a drift of host speed cancels out of the tracing
    // overhead; then it runs the micro-probes.
    let (runs, metrics, shown): (Vec<RunOutcome>, Vec<Metric>, Vec<Metric>) = if args.trace {
        let quarter = args.seconds / 4.0;
        let result = run(&spec, args.seed, quarter, false).and_then(|before| {
            let traced = run(&spec, args.seed, 2.0 * quarter, true)?;
            Ok((before, traced, run(&spec, args.seed, quarter, false)?))
        });
        let (before, traced, after) = result.unwrap_or_else(|e| fail(&e));
        let probes = probe::run();
        let layers = report::per_layer(&[&before, &after], &traced, &probes);
        println!("{}", report::leading_layer_check(spec.name, &traced));
        (vec![before, traced, after], layers.clone(), layers)
    } else {
        let out = run(&spec, args.seed, args.seconds, false).unwrap_or_else(|e| fail(&e));
        let e2e = report::end_to_end(&out);
        (vec![out], report::gated(&e2e), e2e)
    };

    let attempted: usize = runs.iter().map(|r| r.attempted).sum();
    let failed: usize = runs.iter().map(|r| r.failed).sum();
    let threads_max = runs.iter().map(|r| r.threads_max).max().unwrap_or(0);
    let driver_matches: usize = runs.iter().map(|r| r.driver_matches).sum();
    let mut problems: Vec<String> = runs.iter().flat_map(|r| r.failures.clone()).collect();
    if driver_matches < runs.len() {
        problems.push("no round was checked against the in-memory driver".into());
    }
    // Coordinator + fleet: the load never needs more than two threads.
    if threads_max > 2 {
        problems.push(format!("{threads_max} threads ran, at most 2 expected"));
    }
    let correct = problems.is_empty();

    let stamps = [
        ("workload", spec.name.to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc().to_string()),
        ("commit", args.commit.clone()),
        ("rustc", args.rustc.clone()),
        ("threads_max", threads_max.to_string()),
    ];
    println!(
        "perfbench {} seed={} trace={} nproc={} threads_max={threads_max} commit={} rustc={:?}",
        spec.name,
        args.seed,
        u8::from(args.trace),
        nproc(),
        args.commit,
        args.rustc
    );
    print!("{}", report::table(&shown));
    println!(
        "checks: {attempted} rounds attempted, {failed} failed, {driver_matches} bit-equal to the in-memory driver{}",
        if correct { "" } else { " — FAILED" }
    );
    for p in &problems {
        println!("  check failed: {p}");
    }
    // The record keeps both spellings of the zero-when-healthy shares.
    let mut recorded = shown.clone();
    recorded.extend(
        metrics
            .iter()
            .filter(|m| !shown.iter().any(|s| s.name == m.name))
            .cloned(),
    );
    if std::fs::create_dir_all(&args.out).is_ok() {
        let base = format!(
            "{}/{}-seed{}-trace{}",
            args.out,
            spec.name,
            args.seed,
            u8::from(args.trace)
        );
        let _ = std::fs::write(
            format!("{base}.json"),
            report::record(&stamps, &recorded, &problems, correct),
        );
        if let Some(trace) = runs.iter().find_map(|r| r.chrome_trace.as_ref()) {
            let _ = std::fs::write(format!("{base}.trace.json"), trace);
        }
    }
    println!(
        "{}",
        report::result_line(correct, attempted, failed, &metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}

fn fail(e: &str) -> ! {
    eprintln!("perfbench: run failed: {e}");
    std::process::exit(1);
}
