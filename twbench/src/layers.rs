//! The traced run (`--trace 1`): per-layer costs of the engine, measured
//! from outside it.
//!
//! * **In situ.** Interleaved rounds of three configurations of the same
//!   workload and seed: `default` (the config users get), `dark` (phase
//!   profiler and rollback blame off) and `traced` (committed packet lineage
//!   on, every profiler scope timed). Counters come from the `default`
//!   runs' `EngineStats`, per-phase mean costs from the `traced` runs'
//!   `PhaseProfile`, and the pairs give the observability and tracing
//!   overheads.
//! * **Isolated.** Timed loops over each layer's public functions, sized at
//!   what the in-situ runs observed: a replay of the event keys recovered
//!   from the committed lineage through all three `EventQueue`s, `Kp`
//!   record + fossil collection, `EventArena` insert + free, BHW `decide`,
//!   and `Clcg4` draw and reverse.
//! * **Reconciliation.** Isolated ns/op × in-situ op counts against the
//!   profiler's per-phase estimates and against wall × PEs, with a flag
//!   wherever the two ranges do not overlap.

use std::hint::black_box;
use std::time::Instant;

use hotpotato::{Msg, NetStats, Packet, PacketId, PolicyKind, Priority, RouterState};
use pdes::event::{EventId, EventKey, QueueEntry};
use pdes::kp::{Kp, Processed};
use pdes::rng::{Clcg4, ReversibleRng, SplitMix64};
use pdes::{
    Bitfield, EngineConfig, EngineStats, EventArena, Phase, PhaseProfile, SchedulerKind, SlotRef,
    VirtualTime, TRACE_UNBOUNDED,
};
use topo::{DirSet, Direction, Topology, Torus};

use crate::sys::{median, range, ratio};
use crate::{Metric, Outcome, Setup, Workload};

/// Interleaved rounds at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;
/// Repetitions of each isolated loop; medians are reported and the
/// min..max range is the noise the reconciliation allows.
const ISO_REPS: usize = 5;

/// Which layer each group of per-layer metrics belongs to, and the
/// end-to-end metric and workload it is expected to move.
const EXPECTED: [(&str, &str, &str); 9] = [
    (
        "pdes::scheduler",
        "sched.*",
        "committed_ev_per_s on seq_n32",
    ),
    (
        "handler (hotpotato model/policy, pdes::rng)",
        "handler.*, policy.*, rng.*",
        "committed_ev_per_s on seq_n32",
    ),
    (
        "pdes::kp fossil collection",
        "fossil.*, kp.*",
        "committed_ev_per_s on tw2_n32 (no change on seq_n32)",
    ),
    ("pdes::arena", "arena.*", "peak_rss_mib on tw2_n8"),
    ("pdes::comm", "comm.*", "committed_ev_per_s on tw2_n8"),
    (
        "pdes::parallel rollback",
        "tw.*, reverse.*",
        "committed_ev_per_s and cpu_ns_per_ev on tw2_n8",
    ),
    ("pdes::gvt", "gvt.*", "committed_ev_per_s on tw2_n32"),
    (
        "pdes::obs",
        "obs.*, prof.*, pe.*",
        "committed_ev_per_s on all three workloads",
    ),
    (
        "tracing (packet lineage + full-rate profiling)",
        "trace.*",
        "nothing end to end (traced runs are not timed end to end)",
    ),
];

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Default,
    Dark,
    Traced,
}

/// One in-situ run: its external wall time and engine counters.
struct Sample {
    wall_s: f64,
    stats: EngineStats,
}

pub fn traced(w: &Workload, seed: u64, seconds: f64, s: &Setup) -> Result<Outcome, String> {
    let (mut default, mut dark, mut traced) = (Vec::new(), Vec::new(), Vec::new());
    let mut keys: Vec<EventKey> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let start = Instant::now();
    let mut round = 0;
    while round < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
        // Rotate the order so no mode always runs first in a round.
        let mut order = [Mode::Default, Mode::Dark, Mode::Traced];
        order.rotate_left(round % 3);
        for mode in order {
            let mut cfg = w.config(&s.model, seed);
            cfg.obs = match mode {
                Mode::Default => cfg.obs,
                Mode::Dark => cfg.obs.with_profiler(false).with_blame(false),
                Mode::Traced => cfg
                    .obs
                    .with_packet_trace(TRACE_UNBOUNDED)
                    .with_prof_sample_shift(0),
            };
            attempted += 1;
            let t = Instant::now();
            let res = w.run(&s.model, &cfg);
            let wall_s = t.elapsed().as_secs_f64();
            if let Err(e) = s.oracle.check(&res) {
                failed += 1;
                println!("run {attempted:>3}: FAILED: {e}");
                continue;
            }
            let mut r = res.map_err(|e| e.to_string())?;
            if mode == Mode::Traced && keys.is_empty() {
                keys = lineage_keys(&r.telemetry.trace.hops);
            }
            // The blame ledger is not read here and can be large.
            r.stats.blame = Default::default();
            let sample = Sample {
                wall_s,
                stats: r.stats,
            };
            match mode {
                Mode::Default => default.push(sample),
                Mode::Dark => dark.push(sample),
                Mode::Traced => traced.push(sample),
            }
        }
        round += 1;
    }
    if default.is_empty() || dark.is_empty() || traced.is_empty() {
        return Err("a mode of the traced run had no successful runs".into());
    }
    println!(
        "in situ: {} default, {} dark, {} traced runs over {:.1} s",
        default.len(),
        dark.len(),
        traced.len(),
        start.elapsed().as_secs_f64()
    );

    let ins = InSitu::new(w, &default, &dark, &traced, &s.oracle.output);
    let iso = Isolated::measure(w, seed, &ins, keys)?;
    print_phase_table(&default, &traced, w.pes);
    let flagged = reconcile(&ins, &iso, &default, w.pes);
    println!(
        "peak rss of this process (lineage included): {:.1} MiB",
        crate::sys::peak_rss_mib()?
    );
    println!("expected effects (layer: metrics -> end-to-end metric it should move):");
    for (layer, metrics, moves) in EXPECTED {
        println!("  {layer}: {metrics} -> {moves}");
    }

    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("sched.pop_ns", ins.mean_ns(Phase::SchedPop), "ns"),
        m("sched.push_ns", ins.mean_ns(Phase::SchedPush), "ns"),
        m("sched.replay_ns_per_op.heap", iso.replay[0], "ns/op"),
        m("sched.replay_ns_per_op.splay", iso.replay[1], "ns/op"),
        m("sched.replay_ns_per_op.calendar", iso.replay[2], "ns/op"),
        m("handler.execute_ns", ins.mean_ns(Phase::Execute), "ns"),
        m("policy.decide_ns", median(&iso.decide), "ns"),
        m("rng.clcg4_ns", median(&iso.draw), "ns"),
        m("rng.clcg4_reverse_ns", median(&iso.reverse), "ns"),
        m("fossil.ns_per_ev", ins.fossil_ns_per_ev, "ns/ev"),
        m("kp.fossil_ns_per_ev", median(&iso.fossil), "ns/ev"),
        m("arena.insert_free_ns", median(&iso.arena), "ns"),
        m("arena.peak_slots", ins.arena_peak, "count"),
        m("comm.remote_frac", ins.remote_frac, "frac"),
        m("comm.mean_batch", ins.mean_batch, "msgs"),
        m("comm.flush_ns", ins.mean_ns(Phase::CommFlush), "ns"),
        m("comm.drain_ns", ins.mean_ns(Phase::CommDrain), "ns"),
        m("comm.ring_full_stalls", ins.ring_full_stalls, "count"),
        m("tw.wasted_frac", ins.wasted_frac, "frac"),
        m("tw.rollbacks_per_mev", ins.rollbacks_per_mev, "1/Mev"),
        m("tw.mean_rollback_len", ins.mean_rollback_len, "ev"),
        m("reverse.ns_per_ev", ins.reverse_ns_per_ev, "ns/ev"),
        m("tw.anti_per_mev", ins.anti_per_mev, "1/Mev"),
        m("gvt.rounds_per_mev", ins.gvt_rounds_per_mev, "1/Mev"),
        m("gvt.reduce_ns", ins.mean_ns(Phase::GvtReduce), "ns"),
        m("gvt.wait_ns", ins.mean_ns(Phase::GvtWait), "ns"),
        m("obs.overhead_frac", ins.obs_overhead_frac, "frac"),
        m("prof.busy_over_wall", ins.busy_over_wall, "frac"),
        m("prof.clock_ns", median(&iso.clock), "ns"),
        m(
            "pe.unscoped_frac",
            (1.0 - ins.busy_over_wall).max(0.0),
            "frac",
        ),
        m("trace.overhead_frac", ins.trace_overhead_frac, "frac"),
        m("recon.flagged_layers", flagged as f64, "count"),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
    })
}

/// Distinct event keys of the committed events that emitted lineage hops
/// (`HopRecord` carries every `EventKey` field), in execution order.
fn lineage_keys(hops: &[pdes::HopRecord]) -> Vec<EventKey> {
    let mut keys: Vec<EventKey> = hops
        .iter()
        .map(|h| EventKey {
            recv_time: VirtualTime(h.at),
            dst: h.lp,
            tie: h.tie,
            src: h.src,
            send_time: VirtualTime(h.send),
        })
        .collect();
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Per-layer numbers read from the in-situ runs. Ratios are medians over
/// the `default` runs; per-phase means come from the `traced` runs, where
/// every scope is timed.
struct InSitu {
    phase_means: Vec<f64>,
    routes_executed: f64,
    priority_mix: [u64; 4],
    arena_peak: f64,
    kp_depth: usize,
    fossil_ns_per_ev: f64,
    remote_frac: f64,
    mean_batch: f64,
    ring_full_stalls: f64,
    wasted_frac: f64,
    rollbacks_per_mev: f64,
    mean_rollback_len: f64,
    reverse_ns_per_ev: f64,
    anti_per_mev: f64,
    gvt_rounds_per_mev: f64,
    obs_overhead_frac: f64,
    busy_over_wall: f64,
    trace_overhead_frac: f64,
}

impl InSitu {
    fn new(
        w: &Workload,
        default: &[Sample],
        dark: &[Sample],
        traced: &[Sample],
        output: &NetStats,
    ) -> InSitu {
        let med = |f: &dyn Fn(&EngineStats) -> f64| {
            median(&default.iter().map(|s| f(&s.stats)).collect::<Vec<_>>())
        };
        let per_mev = |n: u64, s: &EngineStats| ratio(n as f64 * 1e6, s.events_committed as f64);
        let walls = |v: &[Sample]| median(&v.iter().map(|s| s.wall_s).collect::<Vec<_>>());
        let defaults = EngineConfig::new(VirtualTime::ZERO);
        let (n_kps, gvt_interval) = (defaults.n_kps as f64, defaults.gvt_interval as f64);
        InSitu {
            phase_means: Phase::ALL
                .iter()
                .map(|&ph| {
                    median(
                        &traced
                            .iter()
                            .map(|s| mean_ns(&s.stats.prof, ph))
                            .collect::<Vec<_>>(),
                    )
                })
                .collect(),
            // Committed ROUTE decisions, scaled up by the re-executions
            // rollbacks caused.
            routes_executed: output.totals.routes as f64
                * med(&|s| ratio(s.events_processed as f64, s.events_committed as f64)),
            priority_mix: output.totals.routes_by_priority,
            arena_peak: med(&|s| s.arena_peak_slots as f64),
            // Events each KP commits per GVT round; without GVT (the
            // sequential kernel) the events one round would cover.
            kp_depth: med(&|s| {
                if s.gvt_rounds == 0 {
                    gvt_interval * w.pes as f64 / n_kps
                } else {
                    s.fossils_collected as f64 / (s.gvt_rounds as f64 * n_kps)
                }
            })
            .round()
            .max(1.0) as usize,
            fossil_ns_per_ev: med(&|s| {
                ratio(
                    s.prof.est_ns(Phase::Fossil) as f64,
                    s.events_committed as f64,
                )
            }),
            remote_frac: med(&|s| ratio(s.remote_events as f64, s.events_committed as f64)),
            mean_batch: med(&|s| s.mean_batch_size()),
            ring_full_stalls: med(&|s| s.ring_full_stalls as f64),
            wasted_frac: med(&|s| s.rollback_ratio()),
            rollbacks_per_mev: med(&|s| per_mev(s.total_rollbacks(), s)),
            mean_rollback_len: med(&|s| s.mean_rollback_length()),
            reverse_ns_per_ev: med(&|s| {
                ratio(
                    s.prof.est_ns(Phase::Reverse) as f64,
                    s.events_rolled_back as f64,
                )
            }),
            anti_per_mev: med(&|s| per_mev(s.anti_messages, s)),
            gvt_rounds_per_mev: med(&|s| per_mev(s.gvt_rounds, s)),
            obs_overhead_frac: ratio(walls(default), walls(dark)) - 1.0,
            busy_over_wall: median(
                &default
                    .iter()
                    .map(|s| busy_over_wall(s, w.pes))
                    .collect::<Vec<_>>(),
            ),
            trace_overhead_frac: ratio(walls(traced), walls(default)) - 1.0,
        }
    }

    fn mean_ns(&self, ph: Phase) -> f64 {
        self.phase_means[ph as usize]
    }
}

/// Mean timed duration of one phase, unrounded.
fn mean_ns(p: &PhaseProfile, ph: Phase) -> f64 {
    let st = p.phase(ph);
    ratio(st.sampled_ns as f64, st.sampled as f64)
}

/// Profiler-estimated busy time over the run's wall time × PEs.
fn busy_over_wall(s: &Sample, pes: usize) -> f64 {
    ratio(s.stats.prof.busy_ns() as f64, s.wall_s * 1e9 * pes as f64)
}

/// Isolated per-op costs (ns), one entry per repetition unless noted.
struct Isolated {
    /// Median ns/op of the lineage replay: heap, splay, calendar.
    replay: [f64; 3],
    /// min..max ns/op of the heap replay (the default scheduler).
    replay_heap_range: (f64, f64),
    decide: Vec<f64>,
    draw: Vec<f64>,
    reverse: Vec<f64>,
    arena: Vec<f64>,
    fossil: Vec<f64>,
    /// Cost of one `Instant::now()`, the profiler's timer.
    clock: Vec<f64>,
}

impl Isolated {
    fn measure(
        w: &Workload,
        seed: u64,
        ins: &InSitu,
        keys: Vec<EventKey>,
    ) -> Result<Isolated, String> {
        let replay = Replay::plan(keys);
        println!(
            "replay: {} lineage event keys, peak pending depth {}",
            replay.entries.len(),
            replay.peak_depth
        );
        let mut medians = [0.0; 3];
        let mut heap = Vec::new();
        for (i, kind) in [
            SchedulerKind::Heap,
            SchedulerKind::Splay,
            SchedulerKind::Calendar,
        ]
        .into_iter()
        .enumerate()
        {
            let runs = (0..3)
                .map(|_| replay.run(kind))
                .collect::<Result<Vec<f64>, String>>()?;
            medians[i] = median(&runs);
            if i == 0 {
                heap = runs;
            }
        }
        let iso = Isolated {
            replay: medians,
            replay_heap_range: range(&heap),
            decide: bench_decide(w, seed, ins.priority_mix),
            draw: bench_draw(seed),
            reverse: bench_reverse(seed),
            arena: bench_arena(ins.arena_peak.max(1.0) as usize)?,
            fossil: bench_fossil(ins.kp_depth),
            clock: bench_clock(),
        };
        println!(
            "isolated: decide {:.2} ns, clcg4 draw {:.2} ns / reverse {:.2} ns, \
             arena insert+free {:.2} ns at {} live slots, kp record+fossil {:.2} ns/ev \
             at {} ev per KP per round",
            median(&iso.decide),
            median(&iso.draw),
            median(&iso.reverse),
            median(&iso.arena),
            ins.arena_peak,
            median(&iso.fossil),
            ins.kp_depth
        );
        println!(
            "replay ns/op: heap {:.2}, splay {:.2}, calendar {:.2}",
            iso.replay[0], iso.replay[1], iso.replay[2]
        );
        Ok(iso)
    }
}

/// Times `ops` operations of `f` `ISO_REPS` times after one warm-up pass;
/// returns ns per op for each repetition.
fn time_per_op(ops: usize, mut f: impl FnMut()) -> Vec<f64> {
    f();
    (0..ISO_REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect()
}

/// A push/pop schedule rebuilt from committed event keys: each event is
/// pushed once simulated time reaches its send time and popped in key
/// order, so the pending set follows the run's own depth profile (over the
/// events that left lineage).
struct Replay {
    /// Queue entries in pop (key) order.
    entries: Vec<QueueEntry>,
    /// Indices into `entries` in push (send time) order.
    push_order: Vec<u32>,
    peak_depth: usize,
}

impl Replay {
    fn plan(keys: Vec<EventKey>) -> Replay {
        let entries: Vec<QueueEntry> = keys
            .into_iter()
            .enumerate()
            .map(|(i, key)| QueueEntry {
                key,
                id: EventId::new(0, i as u64),
                slot: SlotRef {
                    idx: i as u32,
                    gen: 0,
                },
            })
            .collect();
        let mut push_order: Vec<u32> = (0..entries.len() as u32).collect();
        push_order.sort_by_key(|&i| (entries[i as usize].key.send_time, i));
        // Peak pending depth: pushes due by each pop, less the pops so far.
        let (mut next, mut peak_depth) = (0, 0);
        for (i, e) in entries.iter().enumerate() {
            while next < push_order.len()
                && entries[push_order[next] as usize].key.send_time <= e.key.recv_time
            {
                next += 1;
            }
            peak_depth = peak_depth.max(next - i);
        }
        Replay {
            entries,
            push_order,
            peak_depth,
        }
    }

    /// One timed replay through a fresh queue of `kind`; ns per push or
    /// pop. Every pop must return the next event in key order.
    fn run(&self, kind: SchedulerKind) -> Result<f64, String> {
        let mut q = kind.build();
        let mut wrong = 0usize;
        let (mut next, n) = (0, self.entries.len());
        let t = Instant::now();
        for i in 0..n {
            let due = self.entries[i].key.recv_time;
            while next < n && self.entries[self.push_order[next] as usize].key.send_time <= due {
                q.push(self.entries[self.push_order[next] as usize]);
                next += 1;
            }
            if q.pop().map(|e| e.id) != Some(self.entries[i].id) {
                wrong += 1;
            }
        }
        let ns = t.elapsed().as_nanos() as f64;
        if wrong > 0 || !q.is_empty() {
            return Err(format!(
                "{kind:?} replay popped {wrong} events out of key order"
            ));
        }
        Ok(ratio(ns, 2.0 * n as f64))
    }
}

/// BHW `decide` on random packets with the run's committed priority mix,
/// random positions and random non-empty free-link sets.
fn bench_decide(w: &Workload, seed: u64, mix: [u64; 4]) -> Vec<f64> {
    let topo = Torus::new(w.n);
    let n_lps = topo.n_nodes();
    let mut sm = SplitMix64::new(seed ^ 0xDEC1DE);
    let total: u64 = mix.iter().sum::<u64>().max(1);
    let inputs: Vec<(u32, Packet, DirSet)> = (0..4096u32)
        .map(|i| {
            let lp = sm.next_below(n_lps as u64) as u32;
            let mut pick = sm.next_below(total);
            let rank = mix
                .iter()
                .position(|&c| {
                    let hit = pick < c;
                    pick = pick.saturating_sub(c);
                    hit
                })
                .unwrap_or(0);
            let free: DirSet = (0..4)
                .filter(|_| sm.next_below(2) == 1)
                .map(Direction::from_index)
                .collect();
            let free = if free.is_empty() {
                DirSet::single(Direction::from_index(sm.next_below(4) as usize))
            } else {
                free
            };
            let pkt = Packet {
                id: PacketId::new(lp, i),
                dst: sm.next_below(n_lps as u64) as u32,
                src: lp,
                priority: Priority::from_rank(rank as u8),
                injected_step: 0,
                jitter: 0,
                last_dir: Some(Direction::from_index(sm.next_below(4) as usize)),
                deflections: 0,
            };
            (lp, pkt, free)
        })
        .collect();
    let mut rng = Clcg4::new(seed);
    let passes = 64;
    time_per_op(passes * inputs.len(), || {
        for _ in 0..passes {
            for (lp, pkt, free) in &inputs {
                black_box(PolicyKind::Bhw.decide(&topo, *lp, pkt, *free, &mut rng));
            }
        }
    })
}

const RNG_OPS: usize = 1 << 20;

fn bench_draw(seed: u64) -> Vec<f64> {
    let mut rng = Clcg4::new(seed);
    time_per_op(RNG_OPS, || {
        let mut acc = 0.0;
        for _ in 0..RNG_OPS {
            acc += rng.next_unif();
        }
        black_box(acc);
    })
}

fn bench_reverse(seed: u64) -> Vec<f64> {
    let mut rng = Clcg4::new(seed);
    time_per_op(RNG_OPS, || {
        for _ in 0..RNG_OPS {
            rng.reverse_unif();
        }
        black_box(&rng);
    })
}

/// Steady-state insert + free at the run's peak live-slot count: the
/// oldest payload is freed and a new one inserted, as commits do.
fn bench_arena(live: usize) -> Result<Vec<f64>, String> {
    let msg = |i: usize| Msg::Arrive {
        packet: Packet {
            id: PacketId::new(i as u32, 0),
            dst: 0,
            src: 0,
            priority: Priority::Sleeping,
            injected_step: 0,
            jitter: 0,
            last_dir: None,
            deflections: 0,
        },
    };
    let mut arena = EventArena::<Msg>::new(EventArena::<Msg>::DEFAULT_SLOTS);
    let mut slots = (0..live)
        .map(|i| arena.insert(msg(i)))
        .collect::<Result<Vec<SlotRef>, _>>()
        .map_err(|e| format!("arena full at {} slots", e.capacity))?;
    let ops = (1 << 20).max(live);
    let mut k = 0usize;
    Ok(time_per_op(ops, || {
        for _ in 0..ops {
            let i = k % live;
            black_box(arena.free(slots[i]));
            slots[i] = arena.insert(msg(k)).expect("one slot was just freed");
            k += 1;
        }
    }))
}

/// `Kp::record` + `fossil_collect_into` with `depth` events committed per
/// round and one round's worth still uncommitted behind them.
fn bench_fossil(depth: usize) -> Vec<f64> {
    let mut kp: Kp<RouterState> = Kp::new();
    let mut out = Vec::with_capacity(depth);
    let mut t = 0u64;
    let record = |kp: &mut Kp<RouterState>, t: &mut u64| {
        *t += 1;
        kp.record(Processed {
            key: EventKey {
                recv_time: VirtualTime(*t),
                dst: 0,
                tie: *t,
                src: 0,
                send_time: VirtualTime(*t - 1),
            },
            id: EventId::new(0, *t),
            slot: SlotRef::DANGLING,
            bf: Bitfield::default(),
            rng_calls: 1,
            children: Vec::new(),
            snapshot: None,
            n_trace: 0,
            audit_hash: 0,
        });
    };
    for _ in 0..depth {
        record(&mut kp, &mut t);
    }
    let rounds = ((1 << 20) / depth).max(1);
    time_per_op(rounds * depth, || {
        for _ in 0..rounds {
            for _ in 0..depth {
                record(&mut kp, &mut t);
            }
            kp.fossil_collect_into(VirtualTime(t - depth as u64 + 1), &mut out);
            black_box(&out);
            out.clear();
        }
    })
}

/// The profiler's view: per-phase count, mean and share of wall × PEs, for
/// the default runs (stride-sampled) beside the traced runs' full-rate
/// means.
fn print_phase_table(default: &[Sample], traced: &[Sample], pes: usize) {
    let mid = median_run(default);
    let wall_pe_ns = mid.wall_s * 1e9 * pes as f64;
    println!(
        "phase profile (default run at median wall {:.4} s, x{pes} PEs; traced means every scope):",
        mid.wall_s
    );
    println!(
        "  {:<11} {:>10} {:>13} {:>13} {:>11} {:>9}",
        "phase", "count", "mean ns", "traced mean", "est ms", "of wall"
    );
    for ph in Phase::ALL {
        let st = mid.stats.prof.phase(ph);
        let traced_mean = median(
            &traced
                .iter()
                .map(|s| mean_ns(&s.stats.prof, ph))
                .collect::<Vec<_>>(),
        );
        println!(
            "  {:<11} {:>10} {:>13.1} {:>13.1} {:>11.2} {:>8.1}%",
            ph.name(),
            st.count,
            mean_ns(&mid.stats.prof, ph),
            traced_mean,
            st.est_total_ns() as f64 / 1e6,
            100.0 * ratio(st.est_total_ns() as f64, wall_pe_ns)
        );
    }
    println!(
        "  {:<11} {:>10} {:>13} {:>13} {:>11.2} {:>8.1}%",
        "busy",
        "",
        "",
        "",
        mid.stats.prof.busy_ns() as f64 / 1e6,
        100.0 * busy_over_wall(mid, pes)
    );
}

fn median_run(v: &[Sample]) -> &Sample {
    let mut idx: Vec<usize> = (0..v.len()).collect();
    idx.sort_by(|&a, &b| v[a].wall_s.total_cmp(&v[b].wall_s));
    &v[idx[idx.len() / 2]]
}

/// Isolated ns/op × in-situ op counts against the profiler's estimates
/// (ranges over the default runs), and profiler busy time against wall ×
/// PEs. Every timed scope also spans about one timer call, and the
/// estimate scales sampled time up to every scope entered, so the layer
/// rows compare against the estimate less one `Instant::now()` per scope.
/// Returns how many layers disagree beyond the measured ranges.
fn reconcile(ins: &InSitu, iso: &Isolated, default: &[Sample], pes: usize) -> usize {
    let clock = median(&iso.clock);
    let over = |f: &dyn Fn(&Sample) -> f64| range(&default.iter().map(f).collect::<Vec<_>>());
    let scale = |(lo, hi): (f64, f64), (a, b): (f64, f64)| (lo * a / 1e6, hi * b / 1e6);
    let count = |s: &Sample, ph: &[Phase]| {
        ph.iter()
            .map(|&p| s.stats.prof.phase(p).count as f64)
            .sum::<f64>()
    };
    // Profiler estimate in ms, less the timer's own cost.
    let est = |s: &Sample, ph: &[Phase]| {
        let ns: f64 = ph.iter().map(|&p| s.stats.prof.est_ns(p) as f64).sum();
        (ns - count(s, ph) * clock).max(0.0) / 1e6
    };
    let processed = over(&|s| s.stats.events_processed as f64);
    let fossils = over(&|s| s.stats.fossils_collected as f64);
    let sched = [Phase::SchedPop, Phase::SchedPush];
    let rows = [
        (
            "scheduler: heap replay x (pops + pushes) vs sched_pop + sched_push",
            scale(iso.replay_heap_range, over(&|s| count(s, &sched))),
            Some(over(&|s| est(s, &sched))),
            false,
        ),
        (
            "handler: decide x routes executed vs execute (partial)",
            scale(
                range(&iso.decide),
                (ins.routes_executed, ins.routes_executed),
            ),
            Some(over(&|s| est(s, &[Phase::Execute]))),
            true,
        ),
        (
            "fossil: kp record+collect x fossils vs fossil (partial)",
            scale(range(&iso.fossil), fossils),
            Some(over(&|s| est(s, &[Phase::Fossil]))),
            true,
        ),
        (
            "arena: insert+free x processed (inside push/execute, no phase)",
            scale(range(&iso.arena), processed),
            None,
            true,
        ),
    ];
    println!(
        "reconciliation (ms per run, min..max over repetitions; prof is the \
         profiler estimate less one {clock:.1} ns timer call per scope):"
    );
    let mut flagged = 0;
    for (what, (ilo, ihi), prof, partial) in rows {
        let verdict = match prof {
            None => "report only".to_string(),
            Some((_, phi)) if phi == 0.0 && ihi == 0.0 => "not exercised".to_string(),
            Some((plo, phi)) => {
                let disagree = if partial {
                    ilo > phi
                } else {
                    ihi < plo || ilo > phi
                };
                flagged += disagree as usize;
                let label = match (disagree, partial) {
                    (true, true) => "DISAGREE: the isolated part exceeds the whole phase",
                    (true, false) => "DISAGREE: the ranges do not overlap",
                    (false, true) => "consistent: the isolated part fits inside the phase",
                    (false, false) => "agree",
                };
                format!(
                    "prof {plo:.2}..{phi:.2}  iso/prof {:.2}  {label}",
                    ratio(ilo + ihi, plo + phi)
                )
            }
        };
        println!("  {what}\n      iso {ilo:.2}..{ihi:.2}  {verdict}");
    }
    let (blo, bhi) = over(&|s| busy_over_wall(s, pes));
    let busy_disagree = blo > 1.0;
    flagged += busy_disagree as usize;
    println!(
        "  profiler busy / (wall x {pes} PEs): {blo:.3}..{bhi:.3}  {}",
        if busy_disagree {
            "DISAGREE: the profiler counts more busy time than the wall holds"
        } else {
            "agree (the rest is unscoped: init, idle, loop overhead)"
        }
    );
    let (clo, chi) = over(&|s| ratio(est(s, &Phase::ALL) * 1e6, s.wall_s * 1e9 * pes as f64));
    println!("  the same, less one timer call per scope entered: {clo:.3}..{chi:.3}");
    flagged
}

fn bench_clock() -> Vec<f64> {
    let ops = 1 << 18;
    time_per_op(ops, || {
        for _ in 0..ops {
            black_box(Instant::now());
        }
    })
}
