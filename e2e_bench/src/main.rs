//! End-to-end host-wall benchmark of the two-level-memory sorts, with
//! per-layer attribution. `BENCHMARK.json` at the repository root lists the
//! workloads and metrics and says why each was chosen.
//!
//! Run from the repository root:
//!
//! ```text
//! cargo run --release --offline --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload uniform_10m --seed 1 --seconds 30 --trace 0
//! ```
//!
//! * `--workload` is `uniform_10m`, `presorted_10m` or `service_mix`;
//! * `--seed` makes the inputs (`--heldout` swaps in the held-out seed);
//! * `--seconds` is how long the repetitions run;
//! * `--trace 0` prints the end-to-end metrics with the benchmark's own
//!   spans off; `--trace 1` prints the per-layer metrics of a traced run
//!   and writes its span aggregate to `e2e_bench/out/`;
//! * `--smoke` runs the small-n self-check of every workload instead.
//!
//! The last line of standard output is the JSON result
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0 only
//! when every output and invariant checked out.

mod bed;
mod engine;
mod host;
mod layers;
mod metrics;
mod service_mix;
mod verify;
mod workload;

use std::path::{Path, PathBuf};

use serde::Value;

use crate::metrics::{print_table, result_line, Metric};
use crate::verify::Checker;
use crate::workload::{end_to_end, traced, Kind, Opts, Outcome};

/// A seed kept out of tuning: a claimed gain must also hold on it.
const HELDOUT_SEED: u64 = 20_261_017;

const USAGE: &str = "usage: tlmm-e2e-bench --workload <uniform_10m|presorted_10m|service_mix> \
     --seed <n> --seconds <s> --trace <0|1> [--heldout]\n       tlmm-e2e-bench --smoke";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload = Some(Kind::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--heldout" => a.seed = HELDOUT_SEED,
            "--smoke" => a.smoke = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload.is_none() && !a.smoke {
        return Err("--workload is required".into());
    }
    Ok(a)
}

fn main() {
    let code = match parse_args() {
        Ok(a) if a.smoke => smoke(),
        Ok(a) => run(&a),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn print_outcome(o: &Outcome) {
    print_table("metrics", &o.metrics);
    if !o.extra.is_empty() {
        print_table("table-only metrics", &o.extra);
    }
    if let Some(spans) = &o.spans {
        spans.print();
    }
}

fn run(a: &Args) -> i32 {
    let kind = a.workload.expect("checked by parse_args");
    let ctx = host::context(kind.name(), a.seed, workload::largest_array_bytes(kind));
    for (k, v) in &ctx {
        println!("# {k}: {v}");
    }
    let o = Opts {
        seed: a.seed,
        seconds: a.seconds,
        smoke: false,
        corrupt: false,
    };
    let mut ck = Checker::default();
    let out = if a.trace {
        traced(kind, &o, &mut ck)
    } else {
        end_to_end(kind, &o, &mut ck)
    };
    println!("# loadavg_after: {}", host::loadavg());
    print_outcome(&out);
    if let Some(spans) = &out.spans {
        match write_artifact(kind, a.seed, &ctx, spans.to_value(), &out.metrics) {
            Ok(path) => println!("# trace artifact: {}", path.display()),
            Err(e) => ck.invariant(false, || format!("writing the trace artifact: {e}")),
        }
    }
    let finite = out.metrics.iter().all(|m| m.value.is_finite());
    ck.invariant(finite, || "a metric is not a finite number".into());
    let correct = ck.failed == 0;
    println!(
        "{}",
        result_line(correct, ck.attempted, ck.failed, &out.metrics)
    );
    if correct {
        0
    } else {
        1
    }
}

/// The traced run's span aggregate, host context and per-layer metrics.
fn write_artifact(
    kind: Kind,
    seed: u64,
    ctx: &[(String, String)],
    spans: Value,
    metrics: &[Metric],
) -> std::io::Result<PathBuf> {
    let dir = bench_dir().join("out");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("trace-{}-seed{seed}.json", kind.name()));
    let host = ctx
        .iter()
        .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
        .collect();
    let layers = metrics
        .iter()
        .map(|m| (m.name.clone(), Value::F64(m.value)))
        .collect();
    let doc = Value::Map(vec![
        ("host".into(), Value::Map(host)),
        ("spans".into(), spans),
        ("per_layer".into(), Value::Map(layers)),
    ]);
    let text = serde::json::to_string_pretty(&doc).map_err(std::io::Error::other)?;
    std::fs::write(&path, text)?;
    Ok(path)
}

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`.
fn declared(spec: &Value, list: &str) -> Vec<(String, String)> {
    let field = |v: &Value, k: &str| match v {
        Value::Map(m) => m.iter().find(|(key, _)| key == k).map(|(_, v)| v.clone()),
        _ => None,
    };
    let text = |v: Option<Value>| match v {
        Some(Value::Str(s)) => s,
        _ => String::new(),
    };
    match field(spec, list) {
        Some(Value::Seq(items)) => items
            .iter()
            .map(|i| (text(field(i, "name")), text(field(i, "unit"))))
            .collect(),
        _ => Vec::new(),
    }
}

/// Do `metrics` carry exactly the declared names, each with its unit and a
/// finite value?
fn matches_declared(what: &str, metrics: &[Metric], want: &[(String, String)]) -> bool {
    let got: Vec<(String, String)> = metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    let mut ok = !want.is_empty();
    for w in want {
        if !got.contains(w) {
            eprintln!(
                "SELF-CHECK {what}: {} [{}] not printed with that unit",
                w.0, w.1
            );
            ok = false;
        }
    }
    for g in &got {
        if !want.contains(g) {
            eprintln!("SELF-CHECK {what}: {} [{}] is not declared", g.0, g.1);
            ok = false;
        }
    }
    ok && metrics.iter().all(|m| m.value.is_finite())
}

/// The end-to-end metrics every workload prints in its table only.
const TABLE_ONLY: &[&str] = &[
    "nmsort_t1_s",
    "nmsort_tmax_s",
    "dma_t1_s",
    "baseline_t1_s",
    "ref.std_sort.s",
    "jobs_per_s",
    "failed_frac",
];

/// Small-n run of every workload: every declared metric is printed with
/// its unit, outputs check out, and a corrupted output is caught.
fn smoke() -> i32 {
    let spec = std::fs::read_to_string(bench_dir().join("../BENCHMARK.json"))
        .map_err(|e| e.to_string())
        .and_then(|s| serde::json::parse_value(&s).map_err(|e| format!("{e:?}")));
    let spec = match spec {
        Ok(s) => s,
        Err(e) => {
            eprintln!("SELF-CHECK cannot read BENCHMARK.json: {e}");
            return 1;
        }
    };
    let e2e = declared(&spec, "end_to_end");
    let layers = declared(&spec, "per_layer");
    let mut ok = true;
    for kind in Kind::ALL {
        let name = kind.name();
        let mut o = Opts {
            seed: 1,
            seconds: 0.0,
            smoke: true,
            corrupt: false,
        };
        for trace in [false, true] {
            let mut ck = Checker::default();
            let out = if trace {
                traced(kind, &o, &mut ck)
            } else {
                end_to_end(kind, &o, &mut ck)
            };
            print_outcome(&out);
            let what = format!("{name} trace={}", u8::from(trace));
            let want = if trace { &layers } else { &e2e };
            ok &= matches_declared(&what, &out.metrics, want);
            if ck.failed != 0 {
                eprintln!(
                    "SELF-CHECK {what}: {} of {} checks failed",
                    ck.failed, ck.attempted
                );
                ok = false;
            }
            let table_only = out
                .extra
                .iter()
                .map(|m| m.name.as_str())
                .collect::<Vec<_>>();
            let needed: &[&str] = match (trace, kind) {
                (true, _) => &[],
                (false, Kind::Service) => {
                    &[TABLE_ONLY, &["interactive_p99_units", "goodput_frac"]].concat()
                }
                (false, _) => TABLE_ONLY,
            };
            for n in needed {
                if !table_only.contains(n) {
                    eprintln!("SELF-CHECK {what}: {n} not printed");
                    ok = false;
                }
            }
        }
        o.corrupt = true;
        let mut ck = Checker::default();
        let out = end_to_end(kind, &o, &mut ck);
        let failed_frac = out
            .extra
            .iter()
            .find(|m| m.name == "failed_frac")
            .map_or(0.0, |m| m.value);
        let caught = ck.failed == 1 && failed_frac > 0.0;
        println!(
            "# {name}: corrupted output caught: {caught} (failed {})",
            ck.failed
        );
        ok &= caught;
    }
    println!("# self-check {}", if ok { "passed" } else { "FAILED" });
    i32::from(!ok)
}
