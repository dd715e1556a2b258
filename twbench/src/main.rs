//! `twbench`: the same-host benchmark of the hot-potato Time Warp engine.
//!
//! ```text
//! cargo run --release --manifest-path twbench/Cargo.toml -- \
//!     --workload <seq_n32|tw2_n32|tw2_n8> --seed <u64> --seconds <u64> --trace <0|1>
//! ```
//!
//! One process, at most two worker threads. Every workload is the paper's
//! default traffic (BHW policy, every router injecting, 4 initial packets)
//! on a torus, run on the default `EngineConfig` as a user gets it; the seed
//! is the only input that varies. This is a batch simulator with no arrival
//! process, so the timed unit is one full simulation of a fixed horizon and
//! the benchmark reports work completed per second at that size.
//!
//! * `--trace 0` sets up (model, sequential oracle, one warm-up run) three
//!   times, then repeats the workload for `--seconds` and reports the
//!   end-to-end metrics: median committed events per wall second, median
//!   process CPU per committed event, median peak RSS of a run (`VmHWM`,
//!   reset before each run) and the median set-up time.
//! * `--trace 1` sets up once and measures per-layer costs (see
//!   [`layers`]).
//!
//! Every run's committed output (`NetStats` totals and `events_committed`)
//! must equal the sequential oracle's for that model and seed; a run that
//! errs or differs counts as failed. The last line of standard output is a
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; the lines
//! before it are the human-readable report, starting with the host
//! fingerprint. Any `PDES_*` environment variable changes the engine's
//! default configuration, so the benchmark refuses to run when one is set.

mod layers;
mod sys;

use std::process::ExitCode;
use std::time::Instant;

use hotpotato::{HotPotatoConfig, HotPotatoModel, NetStats};
use pdes::{EngineConfig, RunError, RunResult};
use topo::Torus;

/// One benchmark input.
pub struct Workload {
    pub name: &'static str,
    /// Torus dimension (N×N routers, one LP each).
    pub n: u32,
    /// Simulated steps (the fixed horizon of one timed run).
    pub steps: u64,
    /// Processing elements: 1 runs the sequential kernel, 2 runs Time Warp
    /// with 64 KPs and the paper's block mapping. Never more PEs than the
    /// 2 hardware threads the benchmark targets: beyond that the result
    /// measures OS time-slicing rather than the engine.
    pub pes: usize,
}

/// Why these three: `seq_n32` exercises only the scheduler and the handler
/// (deep pending set, no comm, GVT, fossil collection or rollback) and is
/// the single-threaded baseline; `tw2_n32` is the same model and seed on 2
/// PEs, the speedup configuration where fossil collection and GVT show;
/// `tw2_n8` puts one LP per KP on a small network, so remote events,
/// rollbacks and anti-messages dominate while the pending set stays shallow.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "seq_n32",
        n: 32,
        steps: 400,
        pes: 1,
    },
    Workload {
        name: "tw2_n32",
        n: 32,
        steps: 400,
        pes: 2,
    },
    Workload {
        name: "tw2_n8",
        n: 8,
        steps: 6000,
        pes: 2,
    },
];

impl Workload {
    pub fn model(&self) -> HotPotatoModel<Torus> {
        HotPotatoModel::torus(HotPotatoConfig::new(self.n, self.steps))
    }

    /// The default engine configuration for this workload and seed.
    pub fn config(&self, model: &HotPotatoModel<Torus>, seed: u64) -> EngineConfig {
        EngineConfig::new(model.end_time())
            .with_seed(seed)
            .with_pes(self.pes)
    }

    pub fn run(
        &self,
        model: &HotPotatoModel<Torus>,
        cfg: &EngineConfig,
    ) -> Result<RunResult<NetStats>, RunError> {
        if self.pes == 1 {
            hotpotato::simulate_sequential(model, cfg)
        } else {
            hotpotato::simulate_parallel(model, cfg)
        }
    }
}

/// The sequential kernel's committed output for one model and seed.
#[derive(Clone, PartialEq)]
pub struct Oracle {
    pub output: NetStats,
    pub committed: u64,
}

impl Oracle {
    /// Run the sequential kernel; returns the oracle and its wall seconds.
    fn compute(model: &HotPotatoModel<Torus>, seed: u64) -> Result<(Oracle, f64), String> {
        let cfg = EngineConfig::new(model.end_time()).with_seed(seed);
        let t = Instant::now();
        let res = hotpotato::simulate_sequential(model, &cfg)
            .map_err(|e| format!("sequential oracle failed: {e}"))?;
        let wall = t.elapsed().as_secs_f64();
        let oracle = Oracle {
            output: res.output,
            committed: res.stats.events_committed,
        };
        if oracle.committed == 0 {
            return Err("sequential oracle committed no events".into());
        }
        Ok((oracle, wall))
    }

    /// A run is correct when it succeeded and committed exactly the
    /// oracle's events and statistics.
    pub fn check(&self, res: &Result<RunResult<NetStats>, RunError>) -> Result<(), String> {
        let r = res.as_ref().map_err(|e| format!("run failed: {e}"))?;
        if r.stats.events_committed != self.committed {
            return Err(format!(
                "committed {} events, oracle {}",
                r.stats.events_committed, self.committed
            ));
        }
        if r.output != self.output {
            return Err("committed NetStats differ from the sequential oracle".into());
        }
        Ok(())
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: twbench --workload <seq_n32|tw2_n32|tw2_n8> --seed <u64> --seconds <u64> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {val:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == val)
                        .ok_or_else(|| format!("unknown workload {val:?}"))?,
                )
            }
            "--seed" => seed = Some(val.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = val.parse::<u64>().map_err(|_| bad())?;
                if !(1..=600).contains(&s) {
                    return Err(bad());
                }
                seconds = Some(s as f64);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Set-up repetitions in an end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed runs at least, however short `--seconds` is.
const MIN_REPS: usize = 5;

/// What set-up leaves for the timed runs.
pub struct Setup {
    pub model: HotPotatoModel<Torus>,
    pub oracle: Oracle,
    /// Median set-up seconds: model build, oracle run and one warm-up run.
    /// The first repetition counts from process start.
    pub setup_s: f64,
    /// Median wall seconds of the sequential oracle runs.
    pub seq_wall_s: f64,
}

fn setup(w: &Workload, seed: u64, reps: usize, process_start: Instant) -> Result<Setup, String> {
    let (mut setup_walls, mut seq_walls) = (Vec::new(), Vec::new());
    let mut first: Option<(HotPotatoModel<Torus>, Oracle)> = None;
    for i in 0..reps {
        let t0 = if i == 0 {
            process_start
        } else {
            Instant::now()
        };
        let model = w.model();
        let (oracle, seq_wall) = Oracle::compute(&model, seed)?;
        if first.as_ref().is_some_and(|(_, o)| *o != oracle) {
            return Err("sequential oracle is not deterministic across set-ups".into());
        }
        oracle
            .check(&w.run(&model, &w.config(&model, seed)))
            .map_err(|e| format!("warm-up run: {e}"))?;
        setup_walls.push(t0.elapsed().as_secs_f64());
        seq_walls.push(seq_wall);
        first.get_or_insert((model, oracle));
    }
    let (model, oracle) = first.ok_or("no set-up repetitions")?;
    Ok(Setup {
        model,
        oracle,
        setup_s: sys::median(&setup_walls),
        seq_wall_s: sys::median(&seq_walls),
    })
}

/// Outcome of a measuring mode.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
}

fn end_to_end(w: &Workload, seed: u64, seconds: f64, s: &Setup) -> Result<Outcome, String> {
    let (mut evps, mut cpu_ns, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let committed = s.oracle.committed as f64;
    let start = Instant::now();
    while (attempted as usize) < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        attempted += 1;
        let cfg = w.config(&s.model, seed);
        sys::reset_peak_rss()?;
        let c0 = sys::cpu_seconds()?;
        let t = Instant::now();
        let res = w.run(&s.model, &cfg);
        let wall = t.elapsed().as_secs_f64();
        let c1 = sys::cpu_seconds()?;
        let peak = sys::peak_rss_mib()?;
        match s.oracle.check(&res) {
            Ok(()) => {
                evps.push(committed / wall);
                cpu_ns.push((c1 - c0) * 1e9 / committed);
                rss.push(peak);
                println!(
                    "run {attempted:>3}: wall {wall:.4} s  {:.0} ev/s  cpu {:.1} ns/ev  peak rss {:.2} MiB",
                    committed / wall,
                    (c1 - c0) * 1e9 / committed,
                    peak
                );
            }
            Err(e) => {
                failed += 1;
                println!("run {attempted:>3}: FAILED: {e}");
            }
        }
    }
    let ev_per_s = sys::median(&evps);
    println!(
        "peak rss per run: median {:.2} MiB, max {:.2} MiB",
        sys::median(&rss),
        sys::range(&rss).1
    );
    println!(
        "failed_frac = {} ({failed} of {attempted} runs)",
        failed as f64 / attempted as f64
    );
    if w.pes > 1 {
        println!(
            "speedup_vs_seq = {:.4} (reported, not gated: median ev/s over the \
             sequential oracle's {:.0} ev/s on this model)",
            ev_per_s * s.seq_wall_s / committed,
            committed / s.seq_wall_s
        );
    }
    Ok(Outcome {
        metrics: vec![
            Metric {
                name: "committed_ev_per_s",
                value: ev_per_s,
                unit: "ev/s",
            },
            Metric {
                name: "cpu_ns_per_ev",
                value: sys::median(&cpu_ns),
                unit: "ns/ev",
            },
            Metric {
                name: "peak_rss_mib",
                value: sys::median(&rss),
                unit: "MiB",
            },
            Metric {
                name: "setup_s",
                value: s.setup_s,
                unit: "s",
            },
        ],
        attempted,
        failed,
    })
}

fn result_json(o: &Outcome, correct: bool) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                // A non-finite value fails the run (see `main`); print 0 so
                // the line stays valid JSON.
                if m.value.is_finite() { m.value } else { 0.0 },
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let env = sys::pdes_env();
    if !env.is_empty() {
        eprintln!(
            "refusing to run: {} is set and changes the engine's default configuration",
            env.join(" ")
        );
        return ExitCode::from(2);
    }
    println!("{}", sys::fingerprint());
    let w = args.workload;
    println!(
        "workload {}: {}x{} torus, {} steps, {} PE(s), seed {}, {} s, trace {}",
        w.name, w.n, w.n, w.steps, w.pes, args.seed, args.seconds, args.trace as u8
    );
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let outcome = setup(w, args.seed, reps, process_start).and_then(|s| {
        println!(
            "setup: {:.4} s (median of {reps}), oracle {} committed events",
            s.setup_s, s.oracle.committed
        );
        if args.trace {
            layers::traced(w, args.seed, args.seconds, &s)
        } else {
            end_to_end(w, args.seed, args.seconds, &s)
        }
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in &outcome.metrics {
        println!("metric {:<32} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let correct = outcome.failed == 0 && outcome.metrics.iter().all(|m| m.value.is_finite());
    println!("{}", result_json(&outcome, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
