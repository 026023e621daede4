//! `pldbench`: one end-to-end benchmark of the PLD edit -> compile -> load
//! -> run loop, with a per-layer traced run. See `benchmark/README.md`.

mod apps;
mod edits;
mod host;
mod json;
mod layers;
mod metrics;
mod recorder;
mod report;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use json::Json;
use layers::Layers;
use metrics::{END_TO_END, PER_LAYER};
use recorder::Recorder;
use report::{Coverage, Values};
use workloads::{Size, Workload};

const USAGE: &str = "\
usage: pldbench [run] [--workload <name>] [--seed <u64>] [--seconds <s>] [--trace <0|1>] [--smoke]
       pldbench check [--seed <u64>]
       pldbench metrics

  run      run one workload in this process, or (without --workload) each of
           rosetta_cold, edit_loop, cosim_o0, fleet_serve in a process of its own
  check    run every workload twice untraced and twice traced at the smoke size
           and require the exact metrics to repeat bit for bit
  metrics  print the metric catalogue: name, unit, direction, exact or wall

  --seconds <s>  size of the timed region: the work that fills about <s> seconds
                 on the reference 2-core host (default 20)
  --trace 1      replay every layer under spans and report the per-layer metrics
                 (--trace 0, the default: the end-to-end metrics, untraced)
  --smoke        one pass at Scale::Tiny: finishes in seconds";

/// Set-ups per untraced run; `setup_s` is their median. One set-up takes
/// 0.3 to 2.7 s and a later change is rejected for making it slower by its
/// bound, so it has to be a steadier number than a single sample of that
/// length is on a shared host (the driver's contract asks for the same).
const SETUPS: usize = 3;

#[derive(Debug, Clone, PartialEq)]
enum Command {
    Run,
    Check,
    Metrics,
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: Command,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: Command::Run,
        workload: None,
        seed: 1,
        seconds: workloads::BASE_SECONDS,
        traced: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    if let Some(first) = it.peek() {
        if !first.starts_with("--") {
            args.command = match first.as_str() {
                "run" => Command::Run,
                "check" => Command::Check,
                "metrics" => Command::Metrics,
                other => return Err(format!("unknown command `{other}`")),
            };
            it.next();
        }
    }
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("`{flag}` needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !workloads::NAMES.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload `{w}` (one of {})",
                        workloads::NAMES.join(", ")
                    ));
                }
                args.workload = Some(w);
            }
            "--seed" => {
                args.seed = value("an unsigned integer")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value("a number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

/// Everything one in-process run of one workload produced.
struct RunOutput {
    workload: &'static str,
    values: Values,
    attempted: u64,
    failed: u64,
    failures: Vec<(String, u64)>,
    class_rows: Vec<(String, usize, f64)>,
    sizing: Vec<(&'static str, u64)>,
    setup_samples: Vec<f64>,
    region_seconds: f64,
    coverage: Option<Coverage>,
    trace_file: Option<String>,
    /// Counters the workload keeps about itself (see `Layers::observations`).
    observations: Vec<(&'static str, f64)>,
}

fn timed_setup<W: Workload>(seed: u64, size: &Size, traced: bool, samples: &mut Vec<f64>) -> W {
    let t0 = Instant::now();
    let w = W::setup(seed, size, traced);
    samples.push(t0.elapsed().as_secs_f64());
    w
}

fn run_untraced<W: Workload>(workload: &'static str, seed: u64, size: &Size) -> RunOutput {
    let mut setup_samples = Vec::new();
    let mut w: W = timed_setup(seed, size, false, &mut setup_samples);
    for _ in 1..if size.smoke { 1 } else { SETUPS } {
        drop(w);
        w = timed_setup(seed, size, false, &mut setup_samples);
    }
    let mut rec = Recorder::new();
    let mut ly = Layers::new(false);
    let t0 = Instant::now();
    w.run(size, &mut rec, &mut ly);
    let region_seconds = t0.elapsed().as_secs_f64();
    let sizing = w.sizing(size);
    w.finish(&mut rec, &mut ly);
    let setup_s = stats::median(&setup_samples).expect("at least one set-up");
    RunOutput {
        workload,
        values: report::end_to_end(&rec, setup_s, host::peak_rss_mb()),
        attempted: rec.attempted(),
        failed: rec.failed(),
        failures: rec
            .failures()
            .iter()
            .map(|(k, n)| (k.clone(), *n))
            .collect(),
        class_rows: rec.class_rows(),
        sizing,
        setup_samples,
        region_seconds,
        coverage: None,
        trace_file: None,
        observations: ly.observations(workload),
    }
}

fn run_traced<W: Workload>(workload: &'static str, seed: u64, size: &Size) -> RunOutput {
    let half = size.half();
    let mut setup_samples = Vec::new();

    let mut plain: W = timed_setup(seed, &half, false, &mut setup_samples);
    let mut rec_plain = Recorder::new();
    let mut ly_plain = Layers::new(false);
    let t0 = Instant::now();
    plain.run(&half, &mut rec_plain, &mut ly_plain);
    let mut region_seconds = t0.elapsed().as_secs_f64();
    plain.finish(&mut rec_plain, &mut ly_plain);

    let mut traced: W = timed_setup(seed, &half, true, &mut setup_samples);
    let mut rec = Recorder::new();
    let mut ly = Layers::new(true);
    let t0 = Instant::now();
    traced.run(&half, &mut rec, &mut ly);
    region_seconds += t0.elapsed().as_secs_f64();
    let sizing = traced.sizing(&half);
    traced.finish(&mut rec, &mut ly);

    // A replay that no longer does what the build did describes other
    // work than the timed compile.
    rec.final_check(if ly.count("replay.diverged") == 0.0 {
        Ok(())
    } else {
        Err(recorder::Failure::check("replay_diverged"))
    });
    let (values, coverage) = report::per_layer(&rec, &ly, &rec_plain);
    let trace_file = write_out(
        &format!("trace-{workload}-{seed}.json"),
        &ly.tr.to_chrome_json(),
    );
    let mut failures: std::collections::BTreeMap<String, u64> = rec_plain.failures().clone();
    for (k, n) in rec.failures() {
        *failures.entry(k.clone()).or_insert(0) += n;
    }
    RunOutput {
        workload,
        values,
        attempted: rec_plain.attempted() + rec.attempted(),
        failed: rec_plain.failed() + rec.failed(),
        failures: failures.into_iter().collect(),
        class_rows: rec.class_rows(),
        sizing,
        setup_samples,
        region_seconds,
        coverage: Some(coverage),
        trace_file,
        observations: ly.observations(workload),
    }
}

fn run_workload(name: &str, seed: u64, size: &Size, traced: bool) -> RunOutput {
    use workloads::{
        cosim_o0::CosimO0, edit_loop::EditLoop, fleet_serve::FleetServe, rosetta_cold::RosettaCold,
    };
    macro_rules! go {
        ($w:ty, $name:literal) => {
            if traced {
                run_traced::<$w>($name, seed, size)
            } else {
                run_untraced::<$w>($name, seed, size)
            }
        };
    }
    match name {
        "rosetta_cold" => go!(RosettaCold, "rosetta_cold"),
        "edit_loop" => go!(EditLoop, "edit_loop"),
        "cosim_o0" => go!(CosimO0, "cosim_o0"),
        "fleet_serve" => go!(FleetServe, "fleet_serve"),
        other => unreachable!("`{other}` was validated against workloads::NAMES"),
    }
}

/// Writes `text` under `benchmark/out/`; `None` (with a note on stderr) if
/// the directory cannot be written.
fn write_out(file: &str, text: &str) -> Option<String> {
    let dir = std::path::Path::new("benchmark").join("out");
    let path = dir.join(file);
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, text));
    match written {
        Ok(()) => Some(path.display().to_string()),
        Err(e) => {
            eprintln!("pldbench: cannot write {}: {e}", path.display());
            None
        }
    }
}

fn metric_json(values: &Values) -> Json {
    Json::Obj(
        values
            .iter()
            .map(|(name, value)| {
                let def = metrics::lookup(name).expect("values are keyed by catalogue names");
                (
                    name.to_string(),
                    Json::obj([
                        ("value", Json::from(*value)),
                        ("unit", Json::from(def.unit)),
                        ("kind", Json::from(def.kind.name())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The driver's result line: every metric of the run's list (`end_to_end`
/// untraced, `per_layer` traced), one the workload does not exercise as 0.
fn contract_line(out: &RunOutput, traced: bool) -> Json {
    let list: &[metrics::MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
    let metrics = Json::Obj(
        list.iter()
            .map(|m| {
                let value = out.values.get(m.name).copied().unwrap_or(0.0);
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::from(value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect(),
    );
    Json::obj([
        ("correct", Json::from(out.failed == 0)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", metrics),
    ])
}

fn print_report(out: &RunOutput, args: &Args, host: &Json) {
    println!("== pldbench {} ==", out.workload);
    println!("host: {host}");
    println!(
        "seed {}  size {}  mode {}",
        args.seed,
        if args.smoke {
            "smoke (Scale::Tiny)".to_string()
        } else {
            format!("--seconds {}", args.seconds)
        },
        if args.traced {
            "traced (untraced half, then the same turns traced)"
        } else {
            "untraced"
        }
    );
    let sizing: Vec<String> = out.sizing.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("sizing: {}", sizing.join(" "));
    println!(
        "set-up samples (s): {:?}; measured region {:.2} s wall; {} turns attempted, {} failed",
        out.setup_samples, out.region_seconds, out.attempted, out.failed
    );
    for (kind, n) in &out.failures {
        println!("  failed {n:>5}  {kind}");
    }
    println!("turn classes (median wall ms over samples):");
    for (class, n, ms) in &out.class_rows {
        println!("  {class:<40} {n:>5}  {ms:>12.4}");
    }
    println!("metrics:");
    for (name, value) in &out.values {
        let def = metrics::lookup(name).expect("catalogue name");
        println!(
            "  {name:<36} {value:>18.6} {:<11} {:<5} {} is better",
            def.unit,
            def.kind.name(),
            def.better.name()
        );
    }
    if let Some(cov) = &out.coverage {
        println!("trace coverage by turn kind (replayed layer seconds / top-level seconds):");
        for (kind, top, replayed) in &cov.by_kind {
            println!(
                "  {kind:<20} {:>8.4} / {:>8.4} = {:.3}",
                replayed,
                top,
                replayed / top
            );
        }
    }
    for (name, value) in &out.observations {
        println!("observed: {name} = {value}");
    }
    if let Some(path) = &out.trace_file {
        println!("spans: {path}");
    }
    println!("skipped: {}", host::skipped());
}

fn result_json(out: &RunOutput, args: &Args, host: Json) -> Json {
    let mut fields = vec![
        ("workload", Json::from(out.workload)),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("smoke", Json::from(args.smoke)),
        ("traced", Json::from(args.traced)),
        ("claim", Json::Null),
        ("host", host),
        (
            "sizing",
            Json::obj(out.sizing.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
        (
            "setup_samples_s",
            Json::Arr(out.setup_samples.iter().map(|s| Json::from(*s)).collect()),
        ),
        ("region_seconds", Json::from(out.region_seconds)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        (
            "failures",
            Json::obj(
                out.failures
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::from(*n))),
            ),
        ),
        (
            "turn_classes",
            Json::Arr(
                out.class_rows
                    .iter()
                    .map(|(class, n, ms)| {
                        Json::obj([
                            ("class", Json::from(class.clone())),
                            ("samples", Json::from(*n as u64)),
                            ("median_ms", Json::from(*ms)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", metric_json(&out.values)),
        (
            "observations",
            Json::obj(out.observations.iter().map(|(k, v)| (*k, Json::from(*v)))),
        ),
        ("skipped", host::skipped()),
    ];
    if let Some(cov) = &out.coverage {
        fields.push((
            "coverage_by_kind",
            Json::Arr(
                cov.by_kind
                    .iter()
                    .map(|(kind, top, replayed)| {
                        Json::obj([
                            ("kind", Json::from(kind.clone())),
                            ("top_level_s", Json::from(*top)),
                            ("replayed_s", Json::from(*replayed)),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    Json::obj(fields)
}

fn size_of(args: &Args) -> Size {
    if args.smoke {
        Size::smoke()
    } else {
        Size::measure(args.seconds)
    }
}

/// Runs one workload here and prints its report; the last line of standard
/// output is the driver's result object.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let out = run_workload(name, args.seed, &size_of(args), args.traced);
    let host = host::fingerprint();
    print_report(&out, args, &host);
    let mode = if args.traced { "traced" } else { "untraced" };
    if let Some(path) = write_out(
        &format!("result-{name}-{}-{mode}.json", args.seed),
        &format!("{}\n", result_json(&out, args, host)),
    ) {
        println!("result: {path}");
    }
    println!("{}", contract_line(&out, args.traced));
    ExitCode::SUCCESS
}

/// Runs every workload in a child process of its own, so that each one's
/// peak resident set is its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("pldbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in workloads::NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["run", "--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        // `status` waits for the child to end.
        match cmd.status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("pldbench: workload {name} ended with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("pldbench: cannot start workload {name}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload twice untraced and twice traced at the smoke size
/// and compares the exact metrics of each pair bit for bit.
fn check(args: &Args) -> ExitCode {
    let size = Size::smoke();
    let mut ok = true;
    let mut seen = std::collections::BTreeSet::new();
    for name in workloads::NAMES {
        for traced in [false, true] {
            let a = run_workload(name, args.seed, &size, traced);
            let b = run_workload(name, args.seed, &size, traced);
            if a.failed + b.failed > 0 {
                println!(
                    "check {name}: FAILED turns: {:?} {:?}",
                    a.failures, b.failures
                );
                ok = false;
            }
            for metric in metrics::CHECKED_EXACT {
                match (a.values.get(metric), b.values.get(metric)) {
                    (None, None) => {}
                    (Some(x), Some(y)) if x.to_bits() == y.to_bits() => {
                        println!("check {name}: {metric} = {x} repeats");
                        seen.insert(metric);
                    }
                    (x, y) => {
                        println!("check {name}: {metric} DIFFERS: {x:?} vs {y:?}");
                        ok = false;
                    }
                }
            }
        }
    }
    for metric in metrics::CHECKED_EXACT {
        if !seen.contains(metric) {
            println!("check: no workload reported {metric}");
            ok = false;
        }
    }
    if ok {
        println!("check: every exact metric repeated bit for bit");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_catalogue() {
    println!(
        "{:<36} {:<11} {:<7} {:<6} bound",
        "metric", "unit", "better", "kind"
    );
    for m in END_TO_END.iter().chain(PER_LAYER.iter()) {
        println!(
            "{:<36} {:<11} {:<7} {:<6} {}",
            m.name,
            m.unit,
            m.better.name(),
            m.kind.name(),
            m.bound.map_or("-".to_string(), |b| format!("{b}"))
        );
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pldbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.command {
        Command::Metrics => {
            print_catalogue();
            ExitCode::SUCCESS
        }
        Command::Check => check(&args),
        Command::Run => match &args.workload {
            Some(name) => run_one(name, &args),
            None => run_all(&args),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_drivers_command_line() {
        let a = parse_args(&argv(
            "--workload edit_loop --seed 42 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.command, Command::Run);
        assert_eq!(a.workload.as_deref(), Some("edit_loop"));
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.smoke),
            (42, 10.0, true, false)
        );
        let b = parse_args(&argv("run --seed 7 --workload cosim_o0 --trace 1 --smoke")).unwrap();
        assert_eq!((b.seed, b.traced, b.smoke), (7, true, true));
        assert_eq!(parse_args(&argv("check")).unwrap().command, Command::Check);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--trace 2")).is_err());
        assert!(parse_args(&argv("--traced")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
        assert!(parse_args(&argv("frobnicate")).is_err());
    }

    /// The numbers describe the shipped build only if this crate builds
    /// under the root's release profile.
    #[test]
    fn release_profile_equals_the_roots() {
        fn profile(manifest: &str) -> Vec<String> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(|l| l.trim().to_string())
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let root = profile(include_str!("../../Cargo.toml"));
        let own = profile(include_str!("../Cargo.toml"));
        assert!(!root.is_empty());
        assert_eq!(root, own);
    }

    #[test]
    fn contract_line_lists_every_metric_of_its_mode() {
        let out = RunOutput {
            workload: "rosetta_cold",
            values: Values::from([("setup_s", 0.5), ("turns_per_s", 20.0)]),
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            class_rows: Vec::new(),
            sizing: Vec::new(),
            setup_samples: vec![0.5],
            region_seconds: 1.0,
            coverage: None,
            trace_file: None,
            observations: Vec::new(),
        };
        let line = contract_line(&out, false).to_string();
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        for m in END_TO_END {
            assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
        }
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        let traced = contract_line(&out, true).to_string();
        for m in PER_LAYER {
            assert!(traced.contains(&format!("\"{}\": ", m.name)));
        }
    }
}
