//! Overhead gates for the engine's optional layers: one table of paired
//! comparisons on one workload, one estimator for every row.
//!
//! Each row names a `base` and a `variant` engine configuration, both
//! derived from the canonical one (16×16 torus, load 0.4, seed
//! `0xBE9C_0702`, 96 steps, natural lookahead, 2 PEs — one PE per hardware
//! thread on a 2-thread host, as in `twbench`). For every row:
//!
//! 1. base and variant each run once and must commit the sequential
//!    oracle's exact output and event count (a layer that perturbs the
//!    simulation is a bug, not overhead; this run is also the warm-up);
//! 2. base and variant then run back to back for [`ROUNDS`] rounds,
//!    alternating which goes first;
//! 3. the row reports the median per-round overhead `variant/base − 1`,
//!    its interquartile range and the round count. A gated row passes when
//!    that median is at most its budget — no noise allowance on top.
//!
//! The `aa_control` row times the base against itself; its median is the
//! harness's own bias and bounds how finely the other rows can be read.
//!
//! ```sh
//! cargo run --release -p bench --bin overhead -- --out=artifacts/overhead.json
//! ```
//!
//! The only flag is `--out=<path>` (default `artifacts/overhead.json`).
//! Exits 1 when a gated row is over budget. Whole-engine throughput against
//! the previous commit is `twbench`'s job, not this table's.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bench::{variant_first, Paired};
use hotpotato::{simulate_parallel, simulate_sequential, HotPotatoConfig, HotPotatoModel};
use pdes::{EngineConfig, JsonlSink, MemorySink, ObsConfig, TRACE_UNBOUNDED};

const N: u32 = 16;
const LOAD: f64 = 0.4;
const SEED: u64 = 0xBE9C_0702;
const STEPS: u64 = 96;
const PES: usize = 2;

/// Paired rounds per row. Per-round overheads spread 9–25% (IQR) on a
/// shared 2-thread host, which puts the median's standard error near 1% at
/// 101 rounds: there the A/A control read −0.5% to +1.8% across runs, and
/// at 31 rounds it wandered over ±2–3%. 201 rounds brings the error to
/// ~0.7% for about 5 minutes per table.
const ROUNDS: usize = 201;

/// Derives one side's engine config from the canonical config; the path is
/// a scratch directory for the rows that write files.
type Side = fn(EngineConfig, &Path) -> EngineConfig;

struct Row {
    name: &'static str,
    base: Side,
    variant: Side,
    /// Gate on the median overhead, percent; `None` is informational.
    budget_pct: Option<f64>,
}

const ROWS: [Row; 11] = [
    Row {
        name: "aa_control",
        base: |c, _| c,
        variant: |c, _| c,
        budget_pct: None,
    },
    // Always-on telemetry (GVT-round series, profiler, blame) against
    // everything dark.
    Row {
        name: "obs_default",
        base: |c, _| c.with_obs(ObsConfig::disabled()),
        variant: |c, _| c.with_obs(ObsConfig::default()),
        budget_pct: Some(3.0),
    },
    Row {
        name: "obs_verbose",
        base: |c, _| c.with_obs(ObsConfig::disabled()),
        variant: |c, _| c.with_obs(ObsConfig::verbose().with_sink(Arc::new(MemorySink::new(4096)))),
        budget_pct: None,
    },
    Row {
        name: "profiler",
        base: |c, _| c.with_obs(ObsConfig::disabled()),
        variant: |c, _| c.with_obs(ObsConfig::disabled().with_profiler(true)),
        budget_pct: Some(5.0),
    },
    Row {
        name: "packet_trace",
        base: |c, _| c.with_obs(ObsConfig::disabled()),
        variant: |c, _| {
            c.with_obs(
                ObsConfig::disabled()
                    .with_profiler(true)
                    .with_packet_trace(TRACE_UNBOUNDED),
            )
        },
        budget_pct: None,
    },
    // Registered run: manifest write, JSONL metrics stream, heartbeats.
    Row {
        name: "hub",
        base: |c, _| c.with_obs(ObsConfig::default()),
        variant: |c, dir| {
            c.with_obs(
                ObsConfig::default()
                    .with_metrics_path(dir.join("metrics.jsonl"))
                    .with_run_id("overhead")
                    .with_model_label(format!("hotpotato-{N}x{N}")),
            )
        },
        budget_pct: Some(5.0),
    },
    Row {
        name: "jsonl_sink",
        base: |c, _| c.with_obs(ObsConfig::default()),
        variant: |c, dir| {
            let sink = JsonlSink::create(dir.join("sink.jsonl")).expect("create JSONL sink");
            c.with_obs(
                ObsConfig::default()
                    .with_heartbeat_every(0)
                    .with_sink(Arc::new(sink)),
            )
        },
        budget_pct: None,
    },
    Row {
        name: "blame",
        base: |c, _| c.with_obs(ObsConfig::default().with_blame(false)),
        variant: |c, _| c.with_obs(ObsConfig::default()),
        budget_pct: Some(3.0),
    },
    Row {
        name: "audit_fast",
        base: |c, _| c.with_obs(ObsConfig::disabled()),
        variant: |c, _| {
            c.with_obs(ObsConfig::disabled())
                .with_audit(true)
                .with_audit_probe(false)
        },
        budget_pct: None,
    },
    Row {
        name: "audit_full",
        base: |c, _| c.with_obs(ObsConfig::disabled()),
        variant: |c, _| {
            c.with_obs(ObsConfig::disabled())
                .with_audit(true)
                .with_audit_probe(true)
        },
        budget_pct: None,
    },
    Row {
        name: "ckpt_every_round",
        base: |c, _| c.with_obs(ObsConfig::disabled()),
        variant: |c, dir| {
            c.with_obs(ObsConfig::disabled())
                .with_checkpoint_every(1)
                .with_checkpoint_dir(dir.join("ckpt"))
        },
        budget_pct: None,
    },
];

fn main() {
    let mut out_path = String::from("artifacts/overhead.json");
    for a in std::env::args().skip(1) {
        match a.strip_prefix("--out=") {
            Some(v) => out_path = v.to_string(),
            None => {
                eprintln!("usage: overhead [--out=<path>]");
                std::process::exit(2);
            }
        }
    }

    let dir = std::env::temp_dir().join(format!("pdes-overhead-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");

    let model = HotPotatoModel::torus(HotPotatoConfig::new(N, STEPS).with_injectors(LOAD));
    // Audit and checkpointing pinned off so `PDES_AUDIT` / `PDES_CKPT` in the
    // environment cannot leak into a base side.
    let canonical = EngineConfig::new(model.end_time())
        .with_seed(SEED)
        .with_pes(PES)
        .with_kps(64)
        .with_lookahead(model.natural_lookahead())
        .with_audit(false)
        .without_checkpoints();
    let oracle = bench::check(simulate_sequential(
        &model,
        &canonical.clone().with_obs(ObsConfig::disabled()),
    ));
    let run = |side: Side| {
        let cfg = side(canonical.clone(), &dir);
        let t0 = Instant::now();
        let r = bench::check(simulate_parallel(&model, &cfg));
        (t0.elapsed(), r, cfg)
    };

    println!(
        "{N}x{N} torus, load {LOAD}, {STEPS} steps, {PES} PEs, {} committed events, \
         {ROUNDS} paired rounds per row",
        oracle.stats.events_committed
    );
    println!(
        "{:<18} {:>8} {:>9} {:>8} {:>6}  verdict",
        "row", "budget%", "median%", "IQR%", "R"
    );
    let mut results = Vec::with_capacity(ROWS.len());
    for row in &ROWS {
        for (label, side) in [("base", row.base), ("variant", row.variant)] {
            let (_, r, cfg) = run(side);
            assert!(
                r.output == oracle.output
                    && r.stats.events_committed == oracle.stats.events_committed,
                "{} {label}: committed output diverged from the sequential oracle",
                row.name
            );
            if cfg.checkpoint_every.is_some() {
                assert!(
                    r.stats.checkpoints_written > 0,
                    "{} {label}: checkpointing on but no snapshot written",
                    row.name
                );
            }
        }

        let mut base = Vec::with_capacity(ROUNDS);
        let mut variant = Vec::with_capacity(ROUNDS);
        for round in 0..ROUNDS {
            if variant_first(round) {
                variant.push(run(row.variant).0);
                base.push(run(row.base).0);
            } else {
                base.push(run(row.base).0);
                variant.push(run(row.variant).0);
            }
        }
        let p = Paired::from_walls(&base, &variant).expect("ROUNDS > 0");
        let pass = row.budget_pct.map(|b| p.within(b));
        println!(
            "{:<18} {:>8} {:>+9.2} {:>8.2} {:>6}  {}",
            row.name,
            row.budget_pct.map_or("-".into(), |b| format!("{b:.1}")),
            p.median_pct,
            p.iqr_pct(),
            p.rounds,
            match pass {
                None => "informational",
                Some(true) => "pass",
                Some(false) => "OVER BUDGET",
            }
        );
        results.push((row, p, pass));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let all_pass = results.iter().all(|(_, _, pass)| *pass != Some(false));
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"bench\": \"overhead\",");
    let _ = writeln!(json, "  \"torus\": \"{N}x{N}\",");
    let _ = writeln!(json, "  \"load\": {LOAD},");
    let _ = writeln!(json, "  \"steps\": {STEPS},");
    let _ = writeln!(json, "  \"seed\": {SEED},");
    let _ = writeln!(json, "  \"pes\": {PES},");
    let _ = writeln!(
        json,
        "  \"hardware_threads\": {},",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let _ = writeln!(
        json,
        "  \"events_committed\": {},",
        oracle.stats.events_committed
    );
    json.push_str("  \"rows\": [\n");
    for (i, (row, p, pass)) in results.iter().enumerate() {
        let opt = |v: Option<String>| v.unwrap_or_else(|| "null".into());
        let _ = writeln!(
            json,
            "    {{ \"name\": \"{}\", \"budget_pct\": {}, \"median_pct\": {:.3}, \
             \"q1_pct\": {:.3}, \"q3_pct\": {:.3}, \"iqr_pct\": {:.3}, \"rounds\": {}, \
             \"pass\": {} }}{}",
            row.name,
            opt(row.budget_pct.map(|b| b.to_string())),
            p.median_pct,
            p.q1_pct,
            p.q3_pct,
            p.iqr_pct(),
            p.rounds,
            opt(pass.map(|b| b.to_string())),
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n");
    let _ = writeln!(json, "  \"pass\": {all_pass}");
    json.push_str("}\n");
    pdes::obs::json::validate(&json).expect("overhead JSON failed self-validation");
    if let Some(parent) = Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).expect("create output dir");
        }
    }
    std::fs::write(&out_path, &json).expect("write overhead JSON");
    println!("wrote {out_path}");

    if !all_pass {
        for (row, p, _) in results.iter().filter(|(_, _, pass)| *pass == Some(false)) {
            eprintln!(
                "{}: median overhead {:+.2}% over the {}% budget (IQR {:.2}%, {} rounds)",
                row.name,
                p.median_pct,
                row.budget_pct.unwrap_or_default(),
                p.iqr_pct(),
                p.rounds
            );
        }
        std::process::exit(1);
    }
}
