//! Regenerates the paper's tables and figures.
//!
//! ```text
//! cargo run --release --bin reproduce -- all                 # rewrites results/
//! cargo run --release --bin reproduce -- table2 [tiny|small|medium]
//! ```
//!
//! `all` compiles the Rosetta suite once per scale and writes every
//! artifact to `results/<name>.txt` at the scale it is committed at (Fig. 10
//! at tiny, the others at small), and the host-measured lines of all of them
//! to `results/host.txt`. A single artifact prints to stdout, its
//! host-measured lines last.

use pld_repro::tables::{self, Rendered};
use pld_repro::{compile_suite, Suite};
use rosetta::Scale;
use std::process::ExitCode;

/// Renders one artifact from a compiled suite.
type Render = fn(&Suite) -> Rendered;

/// Every artifact, in the order `all` writes them: its name, the scale it
/// is committed at (`None`: it reads no suite), and its renderer.
const ARTIFACTS: [(&str, Option<Scale>, Render); 9] = [
    ("table1", None, |_| tables::table1()),
    ("table2", Some(Scale::Small), tables::table2),
    ("table3", Some(Scale::Small), tables::table3),
    ("table4", Some(Scale::Small), tables::table4),
    ("fig8", None, |_| tables::fig8()),
    ("fig9", Some(Scale::Small), tables::fig9),
    ("fig10", Some(Scale::Tiny), tables::fig10),
    ("fig11", Some(Scale::Small), tables::fig11),
    ("ablation", Some(Scale::Small), tables::ablation),
];

/// One line naming the machine, for the host-measured file.
fn host_line() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown cpu", str::trim);
    let threads = pld::farm::host_lanes();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let (os, arch) = (std::env::consts::OS, std::env::consts::ARCH);
    format!("host: {cpu}, {threads} hardware threads, {os}/{arch}, {profile} build")
}

fn write_all() -> std::io::Result<()> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let (small, tiny) = (compile_suite(Scale::Small), compile_suite(Scale::Tiny));
    let mut host = format!(
        "Host-measured values: wall-clock on the machine below. They change\n\
         from run to run, so CI regenerates this file without comparing it.\n{}\n",
        host_line()
    );
    for (name, scale, render) in ARTIFACTS {
        let at_tiny = scale == Some(Scale::Tiny);
        let out = render(if at_tiny { &tiny } else { &small });
        std::fs::write(dir.join(format!("{name}.txt")), out.text)?;
        if !out.host.is_empty() {
            host = format!("{host}\n{}", out.host);
        }
    }
    std::fs::write(dir.join("host.txt"), host)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let (name, scale) = match args.as_slice() {
        ["all"] => {
            return match write_all() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("reproduce: writing results/: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        [name] => (*name, None),
        [name, scale] => (*name, Some(*scale)),
        _ => return usage(),
    };
    let Some((_, committed, render)) = ARTIFACTS.into_iter().find(|a| a.0 == name) else {
        return usage();
    };
    let scale = match (scale, committed) {
        (None, committed) => committed,
        (Some(_), None) => return usage(),
        (Some("tiny"), _) => Some(Scale::Tiny),
        (Some("small"), _) => Some(Scale::Small),
        // The per-operator sweep recompiles the app once per operator:
        // keep it tractable.
        (Some("medium"), _) if name == "fig10" => Some(Scale::Small),
        (Some("medium"), _) => Some(Scale::Medium),
        _ => return usage(),
    };
    let out = render(&match scale {
        Some(scale) => compile_suite(scale),
        None => Suite {
            scale: Scale::Small,
            entries: Vec::new(),
        },
    });
    print!("{}", out.text);
    if !out.host.is_empty() {
        print!("\n{}", out.host);
    }
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    let names: Vec<&str> = ARTIFACTS.iter().map(|a| a.0).collect();
    eprintln!(
        "usage: reproduce all\n       reproduce <{}> [tiny|small|medium]",
        names.join("|")
    );
    ExitCode::from(2)
}
