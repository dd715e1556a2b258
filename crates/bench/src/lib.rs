//! Shared plumbing for the figure-regeneration binaries.
//!
//! Each binary regenerates one figure of the paper's evaluation section
//! (see EXPERIMENTS.md for the index). They print both a human-readable
//! table and, with `--csv`, machine-readable rows. `--full` switches from
//! the laptop-scale default sweep to the paper-scale one (N up to 256 —
//! expect long runtimes).

use std::time::Duration;

use hotpotato::model::hops;
use hotpotato::{HotPotatoConfig, HotPotatoModel, NetStats};
use pdes::{
    EngineConfig, EngineStats, ObsConfig, RunError, RunResult, VirtualTime, TRACE_UNBOUNDED,
};

/// Command-line options shared by all figure binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Paper-scale sweep instead of the quick default.
    pub full: bool,
    /// Emit CSV instead of an aligned table.
    pub csv: bool,
    /// Global seed.
    pub seed: u64,
    /// Override the per-run step count.
    pub steps: Option<u64>,
}

impl Args {
    /// Parse from `std::env::args` (flags: `--full`, `--csv`,
    /// `--seed=<u64>`, `--steps=<u64>`).
    pub fn parse() -> Args {
        let mut args = Args {
            full: false,
            csv: false,
            seed: 0xF16_5EED,
            steps: None,
        };
        for a in std::env::args().skip(1) {
            if a == "--full" {
                args.full = true;
            } else if a == "--csv" {
                args.csv = true;
            } else if let Some(v) = a.strip_prefix("--seed=") {
                args.seed = v.parse().expect("--seed=<u64>");
            } else if let Some(v) = a.strip_prefix("--steps=") {
                args.steps = Some(v.parse().expect("--steps=<u64>"));
            } else if a == "--help" || a == "-h" {
                eprintln!("flags: --full --csv --seed=<u64> --steps=<u64>");
                std::process::exit(0);
            } else {
                eprintln!("unknown flag {a}; try --help");
                std::process::exit(2);
            }
        }
        args
    }

    /// Network sizes for the N-sweep figures.
    pub fn network_sizes(&self) -> Vec<u32> {
        if self.full {
            vec![8, 16, 24, 32, 48, 64, 96, 128, 192, 256]
        } else {
            vec![8, 16, 24, 32, 48]
        }
    }

    /// Steps to simulate for a network of dimension `n` (long enough for
    /// delivery statistics to stabilize: several traversals).
    pub fn steps_for(&self, n: u32) -> u64 {
        self.steps.unwrap_or_else(|| (6 * n as u64).max(100))
    }
}

/// A simple table/CSV printer.
pub struct Report {
    csv: bool,
    headers: Vec<String>,
    widths: Vec<usize>,
}

impl Report {
    /// Start a report with column headers (also printed).
    pub fn new(csv: bool, headers: &[&str]) -> Report {
        let headers: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
        let widths = headers.iter().map(|h| h.len().max(12)).collect();
        let r = Report {
            csv,
            headers,
            widths,
        };
        r.print_row_strings(&r.headers.clone());
        r
    }

    /// Print one data row.
    pub fn row(&self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "column count mismatch");
        self.print_row_strings(cells);
    }

    fn print_row_strings(&self, cells: &[String]) {
        if self.csv {
            println!("{}", cells.join(","));
        } else {
            let line: Vec<String> = cells
                .iter()
                .zip(&self.widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            println!("{}", line.join("  "));
        }
    }
}

/// Format a float cell.
pub fn f(v: f64) -> String {
    format!("{v:.2}")
}

/// Unwrap a kernel result. The figure binaries have no recovery path, so a
/// failed run prints the structured [`RunError`] (including any per-PE
/// diagnostics) and exits nonzero instead of unwinding.
pub fn check<O>(res: Result<RunResult<O>, RunError>) -> RunResult<O> {
    res.unwrap_or_else(|e| {
        eprintln!("simulation failed: {e}");
        if let Some(diag) = e.diagnostics() {
            eprintln!("{diag}");
        }
        std::process::exit(1);
    })
}

/// Build the standard torus model for a sweep point.
pub fn torus_model(n: u32, steps: u64, injectors: f64) -> HotPotatoModel<topo::Torus> {
    HotPotatoModel::torus(HotPotatoConfig::new(n, steps).with_injectors(injectors))
}

/// Run one sweep point: sequential kernel for `pes <= 1`, optimistic
/// kernel (block mapping) otherwise.
pub fn run_point(
    model: &HotPotatoModel<topo::Torus>,
    seed: u64,
    pes: usize,
    kps: u32,
) -> RunResult<NetStats> {
    let engine = EngineConfig::new(model.end_time())
        .with_seed(seed)
        .with_pes(pes)
        .with_kps(kps);
    check(if pes <= 1 {
        hotpotato::simulate_sequential(model, &engine)
    } else {
        hotpotato::simulate_parallel(model, &engine)
    })
}

/// Largest N for which the figure binaries derive their statistics from the
/// committed packet lineage instead of the model counters. A full lineage
/// keeps every ROUTE hop in memory (~56 B each), so the paper-scale sweep
/// sizes fall back to the (provably identical, see [`lineage_means`])
/// counter aggregation.
pub const TRACE_DERIVE_MAX_N: u32 = 48;

/// Like [`run_point`], with committed per-packet lineage tracing enabled
/// (unbounded capacity — see [`TRACE_DERIVE_MAX_N`]).
pub fn run_point_traced(
    model: &HotPotatoModel<topo::Torus>,
    seed: u64,
    pes: usize,
    kps: u32,
) -> RunResult<NetStats> {
    let engine = EngineConfig::new(model.end_time())
        .with_seed(seed)
        .with_pes(pes)
        .with_kps(kps)
        .with_obs(ObsConfig::default().with_packet_trace(TRACE_UNBOUNDED));
    check(if pes <= 1 {
        hotpotato::simulate_sequential(model, &engine)
    } else {
        hotpotato::simulate_parallel(model, &engine)
    })
}

/// `(avg delivery steps, avg inject wait steps)` recomputed from the
/// committed packet lineage — the Figure 3/4 quantities, derived from
/// per-packet ABSORB latencies and INJECT waits rather than the model's
/// aggregate counters. The two are independent bookkeeping of the same
/// committed history, so their integer sums are asserted equal before the
/// means are returned: a run whose lineage disagrees with its counters
/// aborts rather than plotting either.
pub fn lineage_means(res: &RunResult<NetStats>) -> (f64, f64) {
    let trace = &res.telemetry.trace;
    assert!(!trace.is_empty(), "lineage_means on an untraced run");
    assert_eq!(
        trace.dropped, 0,
        "capacity cap dropped hops; lineage incomplete"
    );
    let (mut delivered, mut transit, mut injected, mut wait) = (0u64, 0u64, 0u64, 0u64);
    for h in &trace.hops {
        match h.kind {
            hops::INJECT => {
                injected += 1;
                wait += h.arg;
            }
            hops::ABSORB => {
                delivered += 1;
                let (injected_step, _) = hops::unpack_absorb(h.arg);
                transit += VirtualTime(h.at).step() - injected_step;
            }
            _ => {}
        }
    }
    let t = &res.output.totals;
    assert_eq!(
        (delivered, transit),
        (t.delivered, t.transit_steps_sum),
        "lineage delivery sums disagree with model counters"
    );
    assert_eq!(
        (injected, wait),
        (t.injected, t.wait_steps_sum),
        "lineage inject sums disagree with model counters"
    );
    (
        if delivered == 0 {
            0.0
        } else {
            transit as f64 / delivered as f64
        },
        if injected == 0 {
            0.0
        } else {
            wait as f64 / injected as f64
        },
    )
}

/// Run one sweep point on the *optimistic* kernel even for one PE (for
/// engine-performance figures where Time Warp overhead must be included).
pub fn run_point_timewarp(
    model: &HotPotatoModel<topo::Torus>,
    seed: u64,
    pes: usize,
    kps: u32,
    gvt_interval: u64,
) -> RunResult<NetStats> {
    let engine = EngineConfig::new(model.end_time())
        .with_seed(seed)
        .with_pes(pes)
        .with_kps(kps)
        .with_gvt_interval(gvt_interval);
    check(hotpotato::simulate_parallel(model, &engine))
}

/// Minimal self-contained timing harness for the `benches/` binaries (which
/// are built with `harness = false` and depend on nothing external). Runs a
/// warm-up pass, then `samples` timed passes, and prints median/min/max.
pub fn bench_time<R>(name: &str, samples: usize, mut f: impl FnMut() -> R) -> Duration {
    std::hint::black_box(f()); // warm-up
    let mut times: Vec<Duration> = (0..samples.max(1))
        .map(|_| {
            let t0 = std::time::Instant::now();
            std::hint::black_box(f());
            t0.elapsed()
        })
        .collect();
    times.sort();
    let median = times[times.len() / 2];
    println!(
        "{name:<44} median {:>11.3?}  min {:>11.3?}  max {:>11.3?}  ({} samples)",
        median,
        times[0],
        times[times.len() - 1],
        times.len()
    );
    median
}

/// Median-of-three engine stats by wall time, re-running the closure.
pub fn median_wall<F: FnMut() -> EngineStats>(mut run: F) -> (EngineStats, Duration) {
    let mut results: Vec<EngineStats> = (0..3).map(|_| run()).collect();
    results.sort_by_key(|s| s.wall_time);
    let mid = results.swap_remove(1);
    let wall = mid.wall_time;
    (mid, wall)
}

// ---------------------------------------------------------------------------
// Paired-sample statistics for the `overhead` gate table.
// ---------------------------------------------------------------------------

/// Whether round `round` of a paired comparison runs the variant first.
/// Alternating the order cancels any first-run/second-run bias (cache and
/// allocator state left behind by the previous run) across the rounds.
pub fn variant_first(round: usize) -> bool {
    round % 2 == 1
}

/// The `q`-quantile of an ascending slice, interpolating linearly between
/// the two nearest ranks (so the median of an even count is the mean of
/// the middle pair). `None` for an empty slice.
fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Overhead of a variant configuration over its base, from paired rounds:
/// round `i` timed both sides back to back, and its overhead is
/// `variant[i] / base[i] - 1`. Pairing each round keeps machine-load drift
/// that spans a round out of the ratio; the median over rounds keeps a
/// single disturbed round out of the verdict.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Paired {
    /// Paired rounds measured.
    pub rounds: usize,
    /// Median per-round overhead, percent.
    pub median_pct: f64,
    /// First quartile of the per-round overheads, percent.
    pub q1_pct: f64,
    /// Third quartile of the per-round overheads, percent.
    pub q3_pct: f64,
}

impl Paired {
    /// Summarize paired walls (`base[i]` and `variant[i]` from the same
    /// round). `None` when there are no rounds.
    pub fn from_walls(base: &[Duration], variant: &[Duration]) -> Option<Paired> {
        assert_eq!(base.len(), variant.len(), "unpaired samples");
        let mut pct: Vec<f64> = base
            .iter()
            .zip(variant)
            .map(|(b, v)| (v.as_secs_f64() / b.as_secs_f64() - 1.0) * 100.0)
            .collect();
        pct.sort_by(f64::total_cmp);
        Some(Paired {
            rounds: pct.len(),
            median_pct: quantile(&pct, 0.5)?,
            q1_pct: quantile(&pct, 0.25)?,
            q3_pct: quantile(&pct, 0.75)?,
        })
    }

    /// Interquartile range of the per-round overheads, percent.
    pub fn iqr_pct(&self) -> f64 {
        self.q3_pct - self.q1_pct
    }

    /// A gated row passes when its median overhead is at most the budget.
    pub fn within(&self, budget_pct: f64) -> bool {
        self.median_pct <= budget_pct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: &[u64]) -> Vec<Duration> {
        v.iter().map(|&m| Duration::from_millis(m)).collect()
    }

    #[test]
    fn median_of_even_count_is_mean_of_middle_pair() {
        assert_eq!(quantile(&[1.0, 2.0, 4.0, 10.0], 0.5), Some(3.0));
        assert_eq!(quantile(&[1.0, 2.0, 4.0], 0.5), Some(2.0));
        // Base 100 ms each; variants +1%, +2%, +4%, +10%.
        let p = Paired::from_walls(&ms(&[100; 4]), &ms(&[101, 102, 104, 110])).unwrap();
        assert_eq!(p.rounds, 4);
        assert!((p.median_pct - 3.0).abs() < 1e-9, "{p:?}");
        assert!((p.q1_pct - 1.75).abs() < 1e-9, "{p:?}");
        assert!((p.q3_pct - 5.5).abs() < 1e-9, "{p:?}");
        assert!((p.iqr_pct() - 3.75).abs() < 1e-9);
    }

    #[test]
    fn rounds_alternate_which_side_goes_first() {
        let order: Vec<bool> = (0..5).map(variant_first).collect();
        assert_eq!(order, [false, true, false, true, false]);
    }

    #[test]
    fn ratios_pair_by_round_not_by_rank() {
        // Round walls drift 2x between rounds; each round's variant is 5%
        // slower than its own base, so the paired overhead is exactly 5%
        // even though the unpaired medians would mix rounds.
        let p = Paired::from_walls(&ms(&[100, 200, 100]), &ms(&[105, 210, 105])).unwrap();
        assert!((p.median_pct - 5.0).abs() < 1e-9, "{p:?}");
        assert!(p.iqr_pct().abs() < 1e-9);
    }

    #[test]
    fn empty_and_one_sample_rows() {
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(Paired::from_walls(&[], &[]), None);
        let p = Paired::from_walls(&ms(&[200]), &ms(&[190])).unwrap();
        assert_eq!(p.rounds, 1);
        assert!((p.median_pct + 5.0).abs() < 1e-9, "{p:?}");
        assert_eq!(p.q1_pct, p.median_pct);
        assert_eq!(p.q3_pct, p.median_pct);
        assert_eq!(p.iqr_pct(), 0.0);
    }

    #[test]
    fn verdict_is_median_against_budget_with_no_allowance() {
        let p = Paired::from_walls(&ms(&[100; 3]), &ms(&[103, 103, 150])).unwrap();
        assert!(p.within(3.0 + 1e-9));
        assert!(!p.within(2.9));
    }

    #[test]
    #[should_panic(expected = "unpaired")]
    fn unpaired_samples_are_rejected() {
        let _ = Paired::from_walls(&ms(&[100, 100]), &ms(&[100]));
    }
}
