//! Self-tests of the benchmark: every workload at tiny size prints every
//! named metric with its unit, the golden digest check catches a planted
//! perturbation, and two counting runs agree exactly.

use continuum_perfbench::probe::Probe;
use continuum_perfbench::run::{golden, golden_problems, END_TO_END, PER_LAYER};
use continuum_perfbench::workloads::{Arm, Kind, Scale, World, DEFAULT_SEED};
use std::process::{Command, Output};

fn bench(extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_continuum-perfbench"))
        .args(["--workload", "all", "--scale", "tiny", "--seconds", "0"])
        .args(["--trace-out", env!("CARGO_TARGET_TMPDIR")])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 output")
}

fn last_line(out: &Output) -> String {
    stdout(out)
        .lines()
        .last()
        .expect("a result line")
        .to_string()
}

/// The value of metric `name` with unit `unit` in a result line.
fn metric(line: &str, name: &str, unit: &str) -> f64 {
    let key = format!("\"{name}\":{{\"value\":");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("metric {name} missing from {line}"));
    let rest = &line[at + key.len()..];
    let (value, rest) = rest.split_once(',').expect("value then unit");
    assert!(
        rest.starts_with(&format!("\"unit\":\"{unit}\"}}")),
        "metric {name} lacks unit {unit}"
    );
    value.parse().expect("numeric value")
}

#[test]
fn tiny_pass_prints_every_metric_with_its_unit() {
    let out = bench(&["--trace", "0"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_line(&out);
    assert!(
        line.starts_with("{\"correct\":true,\"attempted\":"),
        "{line}"
    );
    for kind in Kind::ALL {
        for &(name, unit) in END_TO_END {
            let v = metric(&line, &format!("{}.{name}", kind.name()), unit);
            assert!(v > 0.0, "{}.{name} = {v}", kind.name());
        }
    }
    // Each workload's peak RSS is its own, not the largest so far.
    let resets = stdout(&out).matches("\"peak_rss_reset\":true").count();
    assert_eq!(resets, Kind::ALL.len());

    let out = bench(&["--trace", "1"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = last_line(&out);
    assert!(line.starts_with("{\"correct\":true,"), "{line}");
    for kind in Kind::ALL {
        for &(name, unit, _) in PER_LAYER {
            metric(&line, &format!("{}.{name}", kind.name()), unit);
        }
    }
    // Each workload reaches its own layer.
    assert!(metric(&line, "plan_anneal.placement.anneal_s", "s") > 0.0);
    assert!(metric(&line, "stream_chaos.net.flow.recomputes", "count") > 0.0);
    assert!(metric(&line, "stream_pinned.shard.windows", "count") > 0.0);
    assert!(metric(&line, "fabric_federation.fabric.drains", "count") > 0.0);
}

#[test]
fn golden_digest_catches_a_planted_perturbation() {
    for kind in Kind::ALL {
        let probe = Probe::off();
        let mut world = World::build(kind, Scale::Tiny, DEFAULT_SEED, &probe);
        let clean = world.pass(Arm::Main, &probe);
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
        assert_eq!(
            Some(clean.digest),
            golden(Scale::Tiny, kind),
            "{}",
            kind.name()
        );
        assert!(golden_problems(Scale::Tiny, kind, DEFAULT_SEED, clean.digest).is_empty());

        world.perturb();
        let planted = world.pass(Arm::Main, &probe);
        assert_ne!(planted.digest, clean.digest, "{}", kind.name());
        assert!(!golden_problems(Scale::Tiny, kind, DEFAULT_SEED, planted.digest).is_empty());
        // Other seeds have no golden digest; the identity checks run alone.
        assert!(golden_problems(Scale::Tiny, kind, DEFAULT_SEED + 1, planted.digest).is_empty());
    }
}

#[test]
fn planted_divergence_fails_the_run() {
    let out = bench(&["--trace", "0", "--plant"]);
    assert_eq!(out.status.code(), Some(1));
    let line = last_line(&out);
    assert!(line.starts_with("{\"correct\":false,"), "{line}");
    assert!(!line.contains("\"failed\":0,"), "{line}");
}

#[test]
fn two_counting_runs_give_equal_counts() {
    let counts = |out: &Output| -> Vec<(String, f64)> {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let line = last_line(out);
        let mut v = Vec::new();
        for kind in Kind::ALL {
            for &(name, unit, timed) in PER_LAYER {
                if !timed {
                    let full = format!("{}.{name}", kind.name());
                    v.push((full.clone(), metric(&line, &full, unit)));
                }
            }
        }
        v
    };
    let a = bench(&["--trace", "1", "--seed", "7"]);
    let b = bench(&["--trace", "1", "--seed", "7"]);
    assert_eq!(counts(&a), counts(&b));
    let digests = |out: &Output| -> Vec<String> {
        stdout(out)
            .lines()
            .filter_map(|l| l.split("\"counts_digest\":").nth(1))
            .map(|d| d.split(',').next().unwrap_or_default().to_string())
            .collect()
    };
    assert_eq!(digests(&a).len(), Kind::ALL.len());
    assert_eq!(digests(&a), digests(&b));
}
