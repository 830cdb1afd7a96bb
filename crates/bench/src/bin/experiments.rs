//! Regenerate every table and figure of the reproduction.
//!
//! ```sh
//! cargo run --release -p continuum-bench --bin experiments            # all
//! cargo run --release -p continuum-bench --bin experiments -- f1 f4  # some
//! cargo run --release -p continuum-bench --bin experiments -- --json f1
//! CONTINUUM_EXPERIMENT_THREADS=1 cargo run --release -p continuum-bench --bin experiments
//! ```
//!
//! Cells are independent — each seeds its own RNGs from fixed constants —
//! so the suite fans out across rayon workers and a cell's output is
//! bit-identical whether it ran alone, serially, or in parallel. Results
//! are collected and emitted in request order regardless of which cell
//! finished first. `CONTINUUM_EXPERIMENT_THREADS=1` runs the cells one at
//! a time; use it when timing an individual cell (under a wider pool,
//! cells that measure their own wall-clock — F5's thread-scaling sweep —
//! contend with sibling cells for cores).

use continuum_bench::experiments as exp;
use continuum_bench::Table;
use continuum_obs::{MetricsSnapshot, Telemetry, TraceEvent, Tracer};
use std::rc::Rc;
use std::time::Instant;

/// Every cell, in canonical emission order.
const ALL: [&str; 22] = [
    "t1",
    "t4",
    "t5",
    "f1",
    "f2",
    "f3",
    "f4",
    "f5",
    "f6",
    "t2",
    "f7",
    "t3",
    "f8",
    "f9",
    "f10",
    "f11",
    "f12",
    "f13",
    "f14",
    "f15",
    "f16",
    "ablations",
];

struct Args {
    json: bool,
    metrics: bool,
    trace: Option<String>,
    which: Vec<String>,
}

fn parse_args() -> Args {
    let mut json = false;
    let mut metrics = false;
    let mut trace = None;
    let mut which = Vec::new();
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => json = true,
            "--metrics" => metrics = true,
            // Shrink load-sweep cells (F15) so CI smoke runs stay fast.
            // Set before any cell runs; cells read it lazily per run.
            "--smoke" => std::env::set_var("CONTINUUM_SMOKE", "1"),
            "--trace" => {
                trace = Some(argv.next().unwrap_or_else(|| {
                    eprintln!("--trace needs a file path");
                    std::process::exit(2);
                }));
            }
            "--help" | "-h" => {
                eprintln!(
                    "usage: experiments [--json] [--metrics] [--smoke] [--trace FILE] [{}]",
                    ALL.join(" ")
                );
                std::process::exit(0);
            }
            other => which.push(other.to_string()),
        }
    }
    Args {
        json,
        metrics,
        trace,
        which,
    }
}

/// Run one named cell to completion, returning its rendered tables and
/// JSON row dump. Panics on unknown names — `main` validates them first.
fn run_one(name: &str) -> (Vec<Table>, serde_json::Value) {
    use serde_json::json;
    match name {
        "t1" => (vec![exp::t1::run()], json!({"id": "t1"})),
        "t4" => {
            let (t, rows) = exp::t4::run();
            (vec![t], json!({"id": "t4", "rows": rows}))
        }
        "t5" => {
            let (t, rows) = exp::t5::run();
            (vec![t], json!({"id": "t5", "rows": rows}))
        }
        "f1" => {
            let (t, rows) = exp::f1::run();
            (vec![t], json!({"id": "f1", "rows": rows}))
        }
        "f2" => {
            let (t, rows) = exp::f2::run();
            (vec![t], json!({"id": "f2", "rows": rows}))
        }
        "f3" => {
            let (t, rows) = exp::f3::run();
            (vec![t], json!({"id": "f3", "rows": rows}))
        }
        "f4" => {
            let (t, rows) = exp::f4::run();
            (vec![t], json!({"id": "f4", "rows": rows}))
        }
        "f5" => {
            let (ts, rows) = exp::f5::run();
            (ts, json!({"id": "f5", "rows": rows}))
        }
        "f6" => {
            let (t, rows) = exp::f6::run();
            (vec![t], json!({"id": "f6", "rows": rows}))
        }
        "t2" => {
            let (t, rows) = exp::t2::run();
            (vec![t], json!({"id": "t2", "rows": rows}))
        }
        "f7" => {
            let (t, rows) = exp::f7::run();
            (vec![t], json!({"id": "f7", "rows": rows}))
        }
        "t3" => {
            let (t, rows) = exp::t3::run();
            (vec![t], json!({"id": "t3", "rows": rows}))
        }
        "f8" => {
            let (t, rows) = exp::f8::run();
            (vec![t], json!({"id": "f8", "rows": rows}))
        }
        "f9" => {
            let (t, rows) = exp::f9::run();
            (vec![t], json!({"id": "f9", "rows": rows}))
        }
        "f10" => {
            let (t, rows) = exp::f10::run();
            (vec![t], json!({"id": "f10", "rows": rows}))
        }
        "f11" => {
            let (t, rows) = exp::f11::run();
            (vec![t], json!({"id": "f11", "rows": rows}))
        }
        "f12" => {
            let (t, rows) = exp::f12::run();
            (vec![t], json!({"id": "f12", "rows": rows}))
        }
        "f13" => {
            let (t, rows) = exp::f13::run();
            (vec![t], json!({"id": "f13", "rows": rows}))
        }
        "f14" => {
            let (t, rows) = exp::f14::run();
            (vec![t], json!({"id": "f14", "rows": rows}))
        }
        "f15" => {
            let (t, rows) = exp::f15::run();
            (vec![t], json!({"id": "f15", "rows": rows}))
        }
        "f16" => {
            let (t, rows) = exp::f16::run();
            (vec![t], json!({"id": "f16", "rows": rows}))
        }
        "ablations" => {
            let (ts, rows) = exp::ablations::run();
            (ts, json!({"id": "ablations", "rows": rows}))
        }
        other => unreachable!("cell '{other}' passed validation but has no runner"),
    }
}

/// Telemetry harvested from one cell after it returns. Both halves are
/// plain owned data (`Send`), so cells run under rayon and still carry
/// their telemetry back to the ordered emitter on the main thread.
struct CellTelemetry {
    metrics: MetricsSnapshot,
    events: Vec<TraceEvent>,
}

/// [`run_one`] with an optional ambient telemetry plane. Each cell gets
/// its own [`Telemetry`] (pid = cell index + 1, so merged traces keep the
/// cells apart) created *inside* the rayon closure; after the cell
/// returns, the sole `Rc` is unwrapped and the snapshot + trace events
/// travel back as plain data. With both flags off this is exactly
/// [`run_one`] — no registry, no ambient lookup in any hot loop.
fn run_cell(
    name: &str,
    pid: u32,
    metrics: bool,
    trace: bool,
) -> (Vec<Table>, serde_json::Value, Option<CellTelemetry>) {
    if !metrics && !trace {
        let (tables, rows) = run_one(name);
        return (tables, rows, None);
    }
    let tele = Rc::new(Telemetry::with_pid(trace, pid));
    let (tables, mut rows) = continuum_obs::with_ambient(&tele, || run_one(name));
    let Ok(tele) = Rc::try_unwrap(tele) else {
        unreachable!("ambient guard dropped; no other Rc clones remain")
    };
    let snap = tele.metrics.snapshot();
    if metrics {
        if let serde_json::Value::Object(pairs) = &mut rows {
            pairs.push(("metrics".to_string(), serde::Serialize::to_value(&snap)));
        }
    }
    let mut events = tele.tracer.into_events();
    if trace {
        let marker = Tracer::new();
        marker.process_name(pid, format!("cell {name}"));
        events.extend(marker.into_events());
    }
    (
        tables,
        rows,
        Some(CellTelemetry {
            metrics: snap,
            events,
        }),
    )
}

fn emit(args: &Args, tables: &[Table], json_rows: &serde_json::Value) {
    if args.json {
        println!("{json_rows}");
    } else {
        for t in tables {
            println!("{}", t.render());
        }
    }
}

fn main() {
    let args = parse_args();
    let which: Vec<&str> = if args.which.is_empty() {
        ALL.to_vec()
    } else {
        args.which.iter().map(String::as_str).collect()
    };
    // Validate every requested name before running anything: a typo at
    // position N shouldn't cost the wall-clock of cells 0..N first.
    for w in &which {
        if !ALL.contains(w) {
            eprintln!("unknown experiment '{w}' (try --help)");
            std::process::exit(2);
        }
    }

    // `CONTINUUM_EXPERIMENT_THREADS` overrides the worker count — handy
    // for forcing the fan-out on boxes where `available_parallelism` is
    // pinned to 1, or throttling it on shared CI runners.
    let pool = std::env::var("CONTINUUM_EXPERIMENT_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .map(|n| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(n.max(1))
                .build()
                .expect("rayon pool")
        });
    let threads = pool
        .as_ref()
        .map_or_else(rayon::current_num_threads, |p| p.current_num_threads());
    let (want_metrics, want_trace) = (args.metrics, args.trace.is_some());
    let t0 = Instant::now();
    let indexed: Vec<(usize, &str)> = which.iter().copied().enumerate().collect();
    let fan_out = || -> Vec<(Vec<Table>, serde_json::Value, Option<CellTelemetry>)> {
        use rayon::prelude::*;
        indexed
            .par_iter()
            .map(|&(i, w)| run_cell(w, i as u32 + 1, want_metrics, want_trace))
            .collect()
    };
    let results = match &pool {
        Some(pool) => pool.install(fan_out),
        None => fan_out(),
    };
    let n_cells = results.len();
    for (tables, rows, _) in &results {
        emit(&args, tables, rows);
    }
    if want_metrics || want_trace {
        let mut total = MetricsSnapshot::default();
        let merged = Tracer::new();
        for (_, _, tele) in results {
            if let Some(t) = tele {
                total.merge(&t.metrics);
                merged.absorb_events(t.events);
            }
        }
        if want_metrics && !args.json {
            println!(
                "{}",
                serde_json::to_string_pretty(&total).expect("metrics serialize")
            );
        }
        if let Some(path) = &args.trace {
            std::fs::write(path, merged.export_string())
                .unwrap_or_else(|e| panic!("writing {path}: {e}"));
            eprintln!("trace: {path} ({} events)", merged.len());
        }
    }
    eprintln!(
        "experiments: {} cell(s) in {:.1}s on {} thread(s)",
        n_cells,
        t0.elapsed().as_secs_f64(),
        threads.min(n_cells),
    );
}
