//! Cross-process warm-rebuild acceptance, driven by CI.
//!
//! CI runs this test **twice as separate processes** against one shared
//! cache directory:
//!
//! ```sh
//! PLD_CACHE_DIR=/tmp/shared cargo test --test build_graph_persistent
//! PLD_CACHE_DIR=/tmp/shared PLD_CACHE_EXPECT=warm \
//!     cargo test --test build_graph_persistent
//! ```
//!
//! The first (cold) process compiles the Rosetta spam filter from scratch
//! and persists the store; the second process must rebuild it with **zero**
//! stage executions — every HLS, P&R and pack product served from the
//! segment files the first process wrote. Without `PLD_CACHE_DIR` the test
//! exercises the same protocol in a private temp directory, so it is still
//! meaningful in a plain `cargo test` run.

use dfg::{Graph, GraphBuilder, Target};
use kir::{Expr, KernelBuilder, Scalar, Stmt};
use pld::{BuildCache, CompileOptions, OptLevel};
use rosetta::Scale;

fn private_dir() -> std::path::PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    std::env::temp_dir().join(format!("pld-cold-warm-{}-{nanos}", std::process::id()))
}

#[test]
fn shared_cache_dir_serves_a_second_process_entirely_warm() {
    let (dir, private) = match std::env::var("PLD_CACHE_DIR") {
        Ok(d) => (std::path::PathBuf::from(d), false),
        Err(_) => (private_dir(), true),
    };
    std::fs::create_dir_all(&dir).unwrap();
    let expect_warm = std::env::var("PLD_CACHE_EXPECT").as_deref() == Ok("warm");
    let opts = CompileOptions::new(OptLevel::O1);
    let bench = rosetta::spam::bench(Scale::Tiny);

    let run_once = |dir: &std::path::Path| {
        let mut cache = BuildCache::open_dir(dir).unwrap();
        cache.compile(&bench.graph, &opts).unwrap();
        let executions = cache.last_report().unwrap().total_executions();
        cache.persist().unwrap();
        executions
    };

    let executions = run_once(&dir);
    if expect_warm {
        assert_eq!(
            executions, 0,
            "second process re-executed stages a shared cache should hold"
        );
    } else if executions == 0 {
        // A cold run against a genuinely empty directory must execute; a
        // reused PLD_CACHE_DIR is allowed to start warm.
        assert!(
            std::fs::read_dir(&dir).unwrap().next().is_some(),
            "cold build executed nothing against an empty cache"
        );
    }

    if private {
        // No driver process: play the second process ourselves.
        assert_eq!(run_once(&dir), 0, "warm reopen re-executed stages");
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A two-stage hw pipeline whose second operator is the edit knob: the
/// edit adds one operator to its body, so HLS and P&R re-run for it, and
/// the netlist grows by a cell — small enough for the warm start to hold.
fn hint_pipeline(edited: bool) -> Graph {
    let stage = |name: &str, value: Expr| {
        KernelBuilder::new(name)
            .input("in", Scalar::uint(32))
            .output("out", Scalar::uint(32))
            .local("x", Scalar::uint(32))
            .body([Stmt::for_pipelined(
                "i",
                0..64,
                [Stmt::read("x", "in"), Stmt::write("out", value)],
            )])
            .build()
            .unwrap()
    };
    let plus = |addend: i64| Expr::var("x").add(Expr::cint(addend));
    let mut b = GraphBuilder::new("hint_pipe");
    let a = b.add("a", stage("a", plus(1)), Target::hw(0));
    let c_value = if edited {
        plus(99).xor(Expr::cint(1))
    } else {
        plus(2)
    };
    let c = b.add("c", stage("c", c_value), Target::hw(1));
    b.ext_input("Input_1", a, "in");
    b.connect("l0", a, "out", c, "in");
    b.ext_output("Output_1", c, "out");
    b.build().unwrap()
}

/// The `PnrHints` artifacts a cold process files while compiling with
/// `incremental_pnr` on must survive the shared-cache disk round-trip: a
/// second process that edits one operator has to warm-start its P&R from
/// the first process's on-disk hints. Uses its own subdirectory of
/// `PLD_CACHE_DIR` so CI's two-invocation protocol gives this test the
/// same cold/warm semantics as the rosetta test above.
#[test]
fn pnr_hints_survive_the_shared_cache_round_trip() {
    let (dir, private) = match std::env::var("PLD_CACHE_DIR") {
        Ok(d) => (std::path::PathBuf::from(d).join("hints"), false),
        Err(_) => (private_dir(), true),
    };
    std::fs::create_dir_all(&dir).unwrap();
    let expect_warm = std::env::var("PLD_CACHE_EXPECT").as_deref() == Ok("warm");
    let opts = CompileOptions {
        incremental_pnr: true,
        ..CompileOptions::new(OptLevel::O1)
    };

    // Cold role: compile the base pipeline (filing hints as its cold P&R
    // runs execute) and persist the segments.
    let seed_the_cache = |dir: &std::path::Path| {
        let mut cache = BuildCache::open_dir(dir).unwrap();
        cache.compile(&hint_pipeline(false), &opts).unwrap();
        cache.persist().unwrap();
    };
    // Warm role: a fresh process rebuilds the base (entirely from disk),
    // then edits operator "c" — the rebuild must find the previous
    // version's hints through the seed-free lineage key and warm-start.
    let edit_against_the_cache = |dir: &std::path::Path| {
        let mut cache = BuildCache::open_dir(dir).unwrap();
        cache.compile(&hint_pipeline(false), &opts).unwrap();
        cache.compile(&hint_pipeline(true), &opts).unwrap();
        let report = cache.last_report().unwrap();
        assert!(
            report.hint_hits >= 1,
            "edited rebuild found no on-disk hints: {} fetches, {} hits",
            report.hint_fetches,
            report.hint_hits
        );
        assert!(
            report.warm_pnr_ops >= 1,
            "edited rebuild never took the warm P&R path"
        );
        assert_eq!(report.warm_fallbacks, 0, "a one-cell edit fell back");
    };

    if expect_warm {
        edit_against_the_cache(&dir);
    } else {
        seed_the_cache(&dir);
        if private {
            // No driver process: play the second process ourselves.
            edit_against_the_cache(&dir);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}
