//! `continuum-perfbench --workload <name|all> --seconds <n> [--seed <n>]
//! [--trace <0|1>] [--scale full|tiny] [--trace-out DIR] [--plant]`
//!
//! A traced run writes its Perfetto file to `--trace-out`, by default
//! `perfbench-traces` under `$CARGO_TARGET_DIR` (or `.bench_build`).
//! Prints a provenance line, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits 1 when a
//! correctness check failed and 2 on a usage error.

use continuum_perfbench::probe::perfetto_json;
use continuum_perfbench::run::{run, Config, Report};
use continuum_perfbench::workloads::{Kind, Scale, DEFAULT_SEED};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: continuum-perfbench --workload <plan_anneal|stream_chaos|stream_pinned|fabric_federation|all> \
--seconds N [--seed N] [--trace 0|1] [--scale full|tiny] [--trace-out DIR] [--plant]";

struct Args {
    kinds: Vec<Kind>,
    all: bool,
    cfg: Config,
    trace_out: PathBuf,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut kinds = None;
    let mut seconds = None;
    let mut cfg = Config {
        scale: Scale::Full,
        seed: DEFAULT_SEED,
        seconds: 0.0,
        trace: false,
        plant: false,
    };
    let mut trace_out = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from)
        .join("perfbench-traces");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--plant" {
            cfg.plant = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" if value == "all" => kinds = Some(Kind::ALL.to_vec()),
            "--workload" => kinds = Some(vec![Kind::parse(value).ok_or_else(bad)?]),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(0.0..=3600.0).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => cfg.scale = Scale::parse(value).ok_or_else(bad)?,
            "--trace-out" => trace_out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let kinds = kinds.ok_or("--workload is required")?;
    cfg.seconds = seconds.ok_or("--seconds is required")?;
    Ok(Args {
        all: kinds.len() > 1,
        kinds,
        cfg,
        trace_out,
    })
}

/// Render a float for JSON: every digit Rust's shortest round-trip form
/// has; non-finite values (never expected) become `null`.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut reports: Vec<(Kind, Report)> = Vec::new();
    for &kind in &args.kinds {
        eprintln!(
            "perfbench: {} (seed {}, trace {})",
            kind.name(),
            args.cfg.seed,
            args.cfg.trace
        );
        reports.push((kind, run(kind, &args.cfg)));
    }

    let mut metrics = Vec::new();
    let mut events = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (kind, rep) in &reports {
        attempted += rep.attempted;
        failed += rep.failed;
        for f in &rep.failures {
            eprintln!("perfbench: FAILED {}: {f}", kind.name());
        }
        let prov: Vec<String> = rep
            .provenance
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        println!("{{\"provenance\":{{{}}}}}", prov.join(","));
        for (name, value, unit) in &rep.metrics {
            let name = if args.all {
                format!("{}.{name}", kind.name())
            } else {
                name.clone()
            };
            metrics.push(format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            ));
        }
        events.extend(rep.trace_events.iter().cloned());
    }
    if args.cfg.trace && !events.is_empty() {
        let label = if args.all {
            "all"
        } else {
            args.kinds[0].name()
        };
        let path = args.trace_out.join(format!("{label}.perfetto.json"));
        let written = std::fs::create_dir_all(&args.trace_out)
            .and_then(|()| std::fs::write(&path, perfetto_json(&events)));
        match written {
            Ok(()) => eprintln!("perfbench: wall-clock spans in {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        metrics.join(",")
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
