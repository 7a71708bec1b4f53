//! The repository benchmark: one command, one workload per run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <rbtree-remote|rbtree-readmostly|svc-bank> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off. `--trace 1` splits the time into an untraced
//! and a traced half and reports the per-layer metrics of the traced half
//! (the untraced half gives the tracing overhead). Every run checks the
//! program's outputs; a failed check prints no metrics and exits 1.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! The full report (host facts, provenance, sample counts) and, for
//! traced runs, a Chrome trace-event file go to `.bench_out/`.

mod drive;
mod hist;
mod host;
mod report;
mod trace;
mod workloads;

use drive::Phase;
use report::{Agg, Metric, QuantileNote};
use std::fmt::Write as _;
use std::process::ExitCode;
use workloads::{Outcome, Spec};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>";
const OUT_DIR: &str = ".bench_out";
/// Warm-up before the measured phases: caches fill and the service's
/// latency windows settle.
const WARMUP_S: f64 = 1.0;
/// Target length of one measurement window. End-to-end metrics are the
/// median over the windows of a run, so a burst of outside load that
/// spoils a window or two does not move them.
const WINDOW_S: f64 = 1.0;
/// Warm-up of each window's fresh client threads.
const WINDOW_WARMUP_S: f64 = 0.2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 120"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn phase(name: &'static str, secs: f64, traced: bool) -> Phase {
    Phase { name, secs, traced }
}

/// The builds of one run, the sessions on each build and the phases of
/// each session. Every build is one set-up sample. Each measurement
/// window runs in a session of its own, so its client threads are placed
/// afresh, and the windows are spread evenly over the builds, so a run
/// samples as many placements of the library's own threads as it has
/// builds. The traced run is one session on the last build.
fn plan(spec: &Spec, args: &Args) -> Vec<Vec<Vec<Phase>>> {
    if args.trace {
        let half = args.seconds / 2.0;
        let mut builds = vec![Vec::new(); spec.setup_reps - 1];
        builds.push(vec![vec![
            phase("warmup", WARMUP_S, false),
            phase("untraced", half, false),
            phase("traced", half, true),
        ]]);
        return builds;
    }
    let n = (args.seconds / WINDOW_S).round().max(1.0) as usize;
    let session = vec![
        phase("warmup", WINDOW_WARMUP_S, false),
        phase("window", args.seconds / n as f64, false),
    ];
    let n_builds = if spec.build_per_window {
        n.max(spec.setup_reps)
    } else {
        spec.setup_reps
    };
    let mut builds = vec![Vec::new(); n_builds];
    for i in 0..n {
        builds[i * n_builds / n].push(session.clone());
    }
    builds
}

/// Everything one run reports.
struct Run<'a> {
    spec: &'a Spec,
    args: &'a Args,
    facts: Vec<(&'static str, String)>,
    outcome: &'a Outcome,
    aggs: &'a [Agg<'a>],
    notes: Vec<QuantileNote>,
    metrics: Vec<Metric>,
    /// Printed and recorded, but not in the result line.
    ungated: Vec<Metric>,
    checks: Vec<(&'static str, Result<(), String>)>,
}

impl Run<'_> {
    fn correct(&self) -> bool {
        self.checks.iter().all(|(_, r)| r.is_ok())
    }

    fn print_summary(&self) {
        let (spec, args) = (self.spec, self.args);
        println!(
            "workload {} (engine {}, {} clients, seed {}): {}",
            spec.name, spec.engine, spec.clients, args.seed, spec.why
        );
        let facts: Vec<String> = self.facts.iter().map(|(k, v)| format!("{k}={v}")).collect();
        println!("host: {}", facts.join(" "));
        println!("setup_s per build: {:?}", self.outcome.setup_s);
        let us = |h: &hist::Hist, q| h.quantile(q).map_or(0.0, |x| x.ns / 1e3);
        for a in self.aggs {
            let groups: Vec<String> = a
                .groups
                .iter()
                .map(|(g, s)| format!("{g}={s:.2}"))
                .collect();
            println!(
                "phase {:8} {:6.3} s  ops {:8}  failed {:4}  {:9.1} ops/s  \
                 read p50/p99 {:.2}/{:.2} us  write p50/p99 {:.2}/{:.2} us  cpu {:5.2} s  {}",
                a.ph.phase.name,
                a.ph.wall.as_secs_f64(),
                a.ops,
                a.failed,
                a.ops_per_s(),
                us(&a.read, 0.5),
                us(&a.read, 0.99),
                us(&a.write, 0.5),
                us(&a.write, 0.99),
                a.cpu_s,
                groups.join(" "),
            );
        }
        for n in &self.notes {
            println!(
                "quantile {:22} pooled {:10.3} us  samples {:9}  beyond {:7}  fewest beyond in a window {}",
                n.name,
                n.q.ns / 1e3,
                n.q.samples,
                n.q.beyond,
                n.window_beyond_min
            );
        }
        for m in &self.metrics {
            println!("metric {:32} {:16.6} {}", m.name, m.value, m.unit);
        }
        for m in &self.ungated {
            println!(
                "metric {:32} {:16.6} {} (not gated)",
                m.name, m.value, m.unit
            );
        }
        for (name, r) in &self.checks {
            match r {
                Ok(()) => println!("check {name}: ok"),
                Err(e) => println!("check {name}: FAILED: {e}"),
            }
        }
    }

    /// The full report: host facts, provenance, every phase, every
    /// quantile with its sample counts, every check and the metrics.
    fn json(&self) -> String {
        let (spec, args) = (self.spec, self.args);
        let obj = |fields: Vec<String>| format!("{{{}}}", fields.join(", "));
        let kv = |k: &str, v: String| format!("{}: {v}", json_str(k));
        let phases: Vec<String> = self
            .aggs
            .iter()
            .map(|a| {
                let attempts = (a.ops + a.failed).max(1) as f64;
                let groups = a.groups.iter().map(|(g, s)| kv(g, s.to_string())).collect();
                obj(vec![
                    kv("name", json_str(a.ph.phase.name)),
                    kv("wall_s", a.ph.wall.as_secs_f64().to_string()),
                    kv("ops", a.ops.to_string()),
                    kv("failed", a.failed.to_string()),
                    kv("failed_ratio", (a.failed as f64 / attempts).to_string()),
                    kv("ops_per_s", a.ops_per_s().to_string()),
                    kv("cpu_s", a.cpu_s.to_string()),
                    kv("cpu_by_group_s", obj(groups)),
                ])
            })
            .collect();
        let quantiles = self
            .notes
            .iter()
            .map(|n| {
                let fields = vec![
                    kv("pooled_us", (n.q.ns / 1e3).to_string()),
                    kv("samples", n.q.samples.to_string()),
                    kv("beyond", n.q.beyond.to_string()),
                    kv("window_beyond_min", n.window_beyond_min.to_string()),
                    kv("rel_error", hist::REL_ERROR.to_string()),
                ];
                kv(&n.name, obj(fields))
            })
            .collect();
        let checks = self
            .checks
            .iter()
            .map(|(n, r)| kv(n, json_str(r.as_ref().err().map_or("ok", |e| e))))
            .collect();
        let host = self.facts.iter().map(|(k, v)| kv(k, json_str(v))).collect();
        obj(vec![
            kv("workload", json_str(spec.name)),
            kv("engine", json_str(spec.engine)),
            kv("clients", spec.clients.to_string()),
            kv("seed", args.seed.to_string()),
            kv("seconds", args.seconds.to_string()),
            kv("trace", args.trace.to_string()),
            kv("host", obj(host)),
            kv("setup_s", format!("{:?}", self.outcome.setup_s)),
            kv("phases", format!("[{}]", phases.join(", "))),
            kv("quantiles", obj(quantiles)),
            kv("checks", obj(checks)),
            kv("correct", self.correct().to_string()),
            kv("metrics", metrics_json(&self.metrics)),
            kv("ungated_metrics", metrics_json(&self.ungated)),
        ])
    }

    /// Writes the report and, for a traced run, the Chrome trace.
    fn write_files(&self, stem: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(OUT_DIR)?;
        std::fs::write(format!("{stem}.json"), self.json() + "\n")?;
        if self.args.trace {
            let tracers: Vec<_> = self
                .aggs
                .iter()
                .filter(|a| a.ph.phase.traced)
                .flat_map(|a| &a.ph.recs)
                .filter_map(|r| r.tracer.as_ref())
                .collect();
            std::fs::write(
                format!("{stem}.trace.json"),
                trace::chrome_json(self.spec.name, &tracers),
            )?;
        }
        Ok(())
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::find(&args.workload) else {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?}; one of {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let outcome = workloads::run(spec, args.seed, &plan(spec, &args));
    let aggs: Vec<Agg<'_>> = outcome.phases.iter().map(Agg::new).collect();
    let named = |n: &'static str| aggs.iter().filter(move |a| a.ph.phase.name == n);
    let mut notes: Vec<QuantileNote> = Vec::new();
    let (metrics, ungated, table) = if args.trace {
        let (u, t) = (named("untraced").next(), named("traced").next());
        let (u, t) = (u.expect("untraced phase"), t.expect("traced phase"));
        let m = report::per_layer(&outcome, u, t, &mut notes);
        (m, Vec::new(), report::PER_LAYER)
    } else {
        let windows: Vec<&Agg<'_>> = named("window").collect();
        let (m, ungated) = report::end_to_end(&outcome, &windows, &mut notes);
        (m, ungated, report::END_TO_END)
    };
    assert!(
        metrics
            .iter()
            .map(|m| m.name.as_str())
            .eq(table.iter().map(|t| t.0)),
        "every run reports exactly the metrics of its table"
    );
    let mut checks = outcome.checks.clone();
    if !args.trace {
        // A p99 needs ten samples beyond it to mean anything.
        let thin: Vec<String> = notes
            .iter()
            .filter(|n| n.name.ends_with("p99_us") && n.window_beyond_min < 10)
            .map(|n| {
                format!(
                    "{} has {} samples beyond it in a window",
                    n.name, n.window_beyond_min
                )
            })
            .collect();
        let support = if thin.is_empty() {
            Ok(())
        } else {
            Err(thin.join("; "))
        };
        checks.push(("latency.p99_support", support));
    }
    let measured = aggs.iter().filter(|a| a.ph.phase.name != "warmup");
    let (attempted, failed) =
        measured.fold((0, 0), |(n, f), a| (n + a.ops + a.failed, f + a.failed));
    let run = Run {
        spec,
        args: &args,
        facts: host::facts(),
        outcome: &outcome,
        aggs: &aggs,
        notes,
        metrics,
        ungated,
        checks,
    };
    run.print_summary();
    let stem = format!(
        "{OUT_DIR}/{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );
    if let Err(e) = run.write_files(&stem) {
        eprintln!("perfbench: writing {stem}.*: {e}");
        return ExitCode::FAILURE;
    }
    println!("report written to {stem}.json");
    let correct = run.correct();
    let shown: &[Metric] = if correct { &run.metrics } else { &[] };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(shown)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
