//! End-to-end RnB benchmark on a fleet of real `rnb-stored` daemons.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One client thread drives one `RnbClient` (one connection per server,
//! at most one request in flight) and checks every value it gets back.
//! A run repeats {launch fleet, preload, run the workload's operation
//! sequence, shut down} until `--seconds` are spent, at least once (twice
//! with tracing), and sets up at least [`MIN_SETUPS`] times. With
//! `--trace 0` it prints the end-to-end metrics; with `--trace 1`
//! untraced and traced repetitions alternate and it prints the per-layer
//! metrics. The last stdout line is one JSON object.
//! `perfbench/run.py` builds the daemon and this binary and runs it.

mod check;
mod clock;
mod cpu;
mod fleet;
mod layers;
mod trace;
mod workload;

use check::{encode, Checker, Verdict};
use clock::{now_ns, wait_until};
use fleet::{Counters, Fleet};
use rnb_client::{ClientStats, RnbClient, RnbClientConfig};
use rnb_core::{PlacementStrategy, PlanScratch, RnbConfig, WriteBatchPlanner, WritePlanner};
use std::fmt::Write as _;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;
use workload::{Op, Spec, ITEMS};

/// Items per preload `multi_set`.
const PRELOAD_BATCH: usize = 1024;
/// Writes in the probe that times the write path of read-only workloads.
const WRITE_PROBE_OPS: usize = 200;
/// `setup_s` is the median of at least this many set-ups.
const MIN_SETUPS: usize = 5;
/// Operations per CPU-accounting window of an open loop. A closed-loop
/// pass is one window.
const CPU_WINDOW_OPS: usize = 50;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
            },
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

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workload::spec(&args.workload) else {
        let names: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (one of {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    match run(spec, &args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything one pass over an operation sequence measured.
#[derive(Default)]
struct Pass {
    reads: u64,
    writes: u64,
    items_read: u64,
    items_written: u64,
    missed: u64,
    /// Stale or corrupt values returned.
    wrong: u64,
    /// Operations that errored, returned a wrong value, or missed on a
    /// fleet where everything fits.
    failed: u64,
    wall_ns: u64,
    client_cpu_ns: u64,
    server_cpu_ns: u64,
    /// CPU per window of operations, for medians over windows.
    windows: Vec<Window>,
    get_ns: Vec<u64>,
    set_ns: Vec<u64>,
    late_ns: Vec<u64>,
    client: ClientStats,
    server: Counters,
    /// Round-1 transactions of the client's bundler, planned for every
    /// read before the pass.
    planned_txns: u64,
    /// Reconciliation failures, as messages.
    mismatches: Vec<String>,
}

/// CPU spent over a run of consecutive operations.
#[derive(Debug, Clone, Copy)]
struct Window {
    ops: u64,
    server_cpu_ns: u64,
    client_cpu_ns: u64,
}

impl Pass {
    fn ops(&self) -> u64 {
        self.reads + self.writes
    }

    fn req_per_s(&self) -> f64 {
        self.ops() as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// The counts the client and the fleet report must agree: every
    /// read transaction the client sent is one `get` the fleet served
    /// (write-back `set`s are not reads), and round 1 is exactly the
    /// benchmark's own plan.
    fn reconcile(&mut self) {
        let c = &self.client;
        let client_txns = c.round1_txns + c.round2_txns + c.round3_txns;
        if client_txns != self.server.get_txns {
            self.mismatches.push(format!(
                "client sent {client_txns} read transactions, fleet served {}",
                self.server.get_txns
            ));
        }
        if c.round1_txns != self.planned_txns {
            self.mismatches.push(format!(
                "client sent {} round-1 transactions, its bundler plans {}",
                c.round1_txns, self.planned_txns
            ));
        }
    }
}

/// One repetition: a fresh fleet, preloaded, then one pass.
struct Rep {
    setup_ns: u64,
    pass: Pass,
    /// Spans of the pass, if it was traced.
    tracer: Option<Tracer>,
    layers: Option<layers::Layers>,
    /// The write probe of a read-only workload.
    probe: Option<Pass>,
}

struct Bench<'a> {
    spec: &'a Spec,
    stored: PathBuf,
    ops: Vec<Op>,
    writer: WritePlanner<PlacementStrategy>,
}

fn run(spec: &Spec, args: &Args) -> io::Result<String> {
    let exe = std::env::current_exe()?;
    let bin_dir = exe.parent().unwrap_or(Path::new("."));
    let stored = bin_dir.join("rnb-stored");
    if !stored.is_file() {
        return Err(io::Error::other(format!(
            "no rnb-stored next to the perfbench binary ({}); run perfbench/run.py",
            stored.display()
        )));
    }
    let graph = rnb_graph::datasets::slashdot_like(workload::DATASET_SEED);
    let ops = workload::generate(spec, &graph, args.seed);
    drop(graph);
    let config = RnbConfig::new(spec.servers, spec.replication);
    let bench = Bench {
        spec,
        stored,
        ops,
        writer: WritePlanner::new(PlacementStrategy::from_config(&config), spec.policy),
    };

    let deadline = now_ns() + args.seconds * 1_000_000_000;
    let min_reps = if args.trace { 2 } else { 1 };
    let mut reps: Vec<Rep> = Vec::new();
    loop {
        let traced = args.trace && reps.len() % 2 == 1;
        let with_layers = traced && !reps.iter().any(|r| r.tracer.is_some());
        let t = now_ns();
        let (rep, layer_ns) = bench.rep(traced, with_layers)?;
        let took = now_ns() - t - layer_ns;
        reps.push(rep);
        if reps.len() >= min_reps && now_ns() + took > deadline {
            break;
        }
    }
    // A run whose passes are long adds set-ups without a pass.
    let mut setups: Vec<u64> = reps.iter().map(|r| r.setup_ns).collect();
    while setups.len() < MIN_SETUPS {
        let (fleet, client, setup_ns) = bench.setup()?;
        teardown(fleet, client)?;
        setups.push(setup_ns);
    }

    if let Some(tracer) = reps.iter().find_map(|r| r.tracer.as_ref()) {
        let dir = bin_dir.join("perfbench-trace");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{}-{}.tsv", spec.name, args.seed));
        std::fs::write(&path, tracer.to_tsv())?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    Ok(report(spec, args, &reps, &setups))
}

/// Drop the client first: that closes its connections, so the daemons'
/// shutdown drain has nothing to wait for.
fn teardown(fleet: Fleet, client: RnbClient) -> io::Result<()> {
    drop(client);
    fleet.shutdown()
}

impl Bench<'_> {
    /// Launch, preload, run one pass (and, if asked, the per-layer
    /// measurements), shut down. Returns the time the per-layer part
    /// took, so the caller can predict a plain repetition's length.
    fn rep(&self, traced: bool, with_layers: bool) -> io::Result<(Rep, u64)> {
        let spec = self.spec;
        let (fleet, mut client, setup_ns) = self.setup()?;

        let mut checker = Checker::new(ITEMS);
        let mut tracer = traced.then(Tracer::default);
        let mut pass = self.pass(
            &mut client,
            &fleet,
            &self.ops,
            spec.rate,
            &mut checker,
            tracer.as_mut(),
        )?;
        pass.reconcile();

        let (mut layers, mut probe, mut layer_ns) = (None, None, 0);
        if with_layers {
            let t = now_ns();
            if spec.write_every == 0 {
                let writes: Vec<Op> = self
                    .ops
                    .iter()
                    .take(WRITE_PROBE_OPS)
                    .map(|op| match op {
                        Op::Read(items) | Op::Write(items) => Op::Write(items.clone()),
                    })
                    .collect();
                let mut p = self.pass(
                    &mut client,
                    &fleet,
                    &writes,
                    None,
                    &mut checker,
                    tracer.as_mut(),
                )?;
                p.reconcile();
                probe = Some(p);
            }
            layers = Some(layers::measure(&fleet, &client, &self.ops)?);
            layer_ns = now_ns() - t;
        }
        teardown(fleet, client)?;
        let rep = Rep {
            setup_ns,
            pass,
            tracer,
            layers,
            probe,
        };
        Ok((rep, layer_ns))
    }

    /// Launch the fleet, connect, and preload every item at version 0.
    /// Returns the time all that took.
    fn setup(&self) -> io::Result<(Fleet, RnbClient, u64)> {
        let spec = self.spec;
        let t0 = now_ns();
        let fleet = Fleet::launch(&self.stored, spec.servers, spec.mem_mb)?;
        let config = RnbClientConfig::new(spec.replication).with_write_policy(spec.policy);
        let mut client = RnbClient::connect(&fleet.addrs(), config)?;
        for chunk in (0..ITEMS as u64).collect::<Vec<_>>().chunks(PRELOAD_BATCH) {
            let entries: Vec<(u64, Vec<u8>)> = chunk.iter().map(|&i| (i, encode(i, 0))).collect();
            client.multi_set(&entries)?;
        }
        Ok((fleet, client, now_ns() - t0))
    }

    /// Run `ops` once. `rate` paces an open loop: operation `i` is due
    /// at `i / rate`, its latency runs from when it was due, and the CPU
    /// the driving thread spends waiting for it is not counted.
    fn pass(
        &self,
        client: &mut RnbClient,
        fleet: &Fleet,
        ops: &[Op],
        rate: Option<u32>,
        checker: &mut Checker,
        mut tracer: Option<&mut Tracer>,
    ) -> io::Result<Pass> {
        let fits = self.spec.fits;
        let mut scratch = PlanScratch::new();
        let mut batcher = WriteBatchPlanner::new();
        let mut pass = Pass::default();
        for op in ops {
            if let Op::Read(items) = op {
                pass.planned_txns += client.bundler().plan_with(&mut scratch, items).tpr() as u64;
            }
        }
        let (server0, server_cpu0) = (fleet.counters()?, fleet.cpu_ns()?);
        let stats0 = client.stats();
        let client_cpu0 = cpu::thread_cpu_ns()?;
        let mut pacing_cpu = 0;
        // Window start: (operation index, fleet CPU, the thread's CPU
        // net of pacing).
        let mut mark = (0, server_cpu0, 0);
        let start = now_ns();
        let mut ready = start;
        for (i, op) in ops.iter().enumerate() {
            let due = match rate {
                Some(r) => {
                    let due = start + i as u64 * 1_000_000_000 / u64::from(r);
                    let before = cpu::thread_cpu_ns()?;
                    // Read while waiting, so the reads count as pacing.
                    if i > mark.0 && i % CPU_WINDOW_OPS == 0 {
                        let (own, server) = (before - client_cpu0 - pacing_cpu, fleet.cpu_ns()?);
                        pass.windows.push(Window {
                            ops: (i - mark.0) as u64,
                            server_cpu_ns: server - mark.1,
                            client_cpu_ns: own - mark.2,
                        });
                        mark = (i, server, own);
                    }
                    wait_until(due);
                    pacing_cpu += cpu::thread_cpu_ns()? - before;
                    due
                }
                None => ready,
            };
            let root = tracer.as_mut().map(|t| t.begin("op", None));
            let span = |tracer: &mut Option<&mut Tracer>, name| {
                tracer.as_mut().map(|t| t.begin(name, root))
            };
            let close = |tracer: &mut Option<&mut Tracer>, s: Option<usize>| {
                if let (Some(t), Some(s)) = (tracer.as_mut(), s) {
                    t.end(s);
                }
            };
            let mut bad = false;
            match op {
                Op::Read(items) => {
                    if tracer.is_some() {
                        let s = span(&mut tracer, "planner");
                        black_box(client.bundler().plan_with(&mut scratch, items));
                        close(&mut tracer, s);
                    }
                    let s = span(&mut tracer, "client.multi_get");
                    let t0 = now_ns();
                    let got = client.multi_get(items);
                    let t1 = now_ns();
                    close(&mut tracer, s);
                    pass.late_ns.push(t0 - due);
                    pass.get_ns.push(t1 - if rate.is_some() { due } else { t0 });

                    let s = span(&mut tracer, "check");
                    match got {
                        Ok(values) => {
                            for (&item, value) in items.iter().zip(&values) {
                                match checker.verdict(item, value.as_deref()) {
                                    Verdict::Ok => {}
                                    Verdict::Miss => {
                                        pass.missed += 1;
                                        bad |= fits;
                                    }
                                    Verdict::Stale | Verdict::Corrupt => {
                                        pass.wrong += 1;
                                        bad = true;
                                    }
                                }
                            }
                        }
                        Err(e) => {
                            eprintln!("perfbench: multi_get failed: {e}");
                            bad = true;
                        }
                    }
                    close(&mut tracer, s);
                    pass.reads += 1;
                    pass.items_read += items.len() as u64;
                }
                Op::Write(items) => {
                    let s = span(&mut tracer, "gen");
                    let entries: Vec<(u64, Vec<u8>)> = items
                        .iter()
                        .map(|&i| (i, encode(i, checker.latest(i) + 1)))
                        .collect();
                    close(&mut tracer, s);
                    if tracer.is_some() {
                        let s = span(&mut tracer, "writer");
                        black_box(
                            batcher
                                .plan_batch(&self.writer, items.iter().copied())
                                .total_ops(),
                        );
                        close(&mut tracer, s);
                    }
                    let s = span(&mut tracer, "client.multi_set");
                    let t0 = now_ns();
                    let result = client.multi_set(&entries);
                    let t1 = now_ns();
                    close(&mut tracer, s);
                    pass.late_ns.push(t0 - due);
                    pass.set_ns.push(t1 - if rate.is_some() { due } else { t0 });
                    if let Err(e) = result {
                        eprintln!("perfbench: multi_set failed: {e}");
                        bad = true;
                    }
                    // Recorded even after an error: a later read of the
                    // old version then counts as stale, never as fine.
                    for &item in items {
                        checker.written(item, checker.latest(item) + 1);
                    }
                    pass.writes += 1;
                    pass.items_written += items.len() as u64;
                }
            }
            pass.failed += u64::from(bad);
            if let (Some(t), Some(r)) = (tracer.as_mut(), root) {
                t.end(r);
            }
            ready = now_ns();
        }
        pass.wall_ns = now_ns() - start;
        let (own, server) = (
            cpu::thread_cpu_ns()? - client_cpu0 - pacing_cpu,
            fleet.cpu_ns()?,
        );
        pass.client_cpu_ns = own;
        pass.server_cpu_ns = server - server_cpu0;
        if ops.len() > mark.0 {
            pass.windows.push(Window {
                ops: (ops.len() - mark.0) as u64,
                server_cpu_ns: server - mark.1,
                client_cpu_ns: own - mark.2,
            });
        }
        pass.client = client.stats().since(&stats0);
        pass.server = fleet.counters()?.since(&server0);
        Ok(pass)
    }
}

/// Median; sorts `xs`. 0 for no samples.
fn median(xs: &mut [u64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `p` in [0, 1]; sorts `xs`. 0 for no samples.
fn percentile(xs: &mut [u64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = (p * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1] as f64
}

fn median_f(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Render the metrics of the run: a human-readable table, then the
/// JSON result line.
fn report(spec: &Spec, args: &Args, reps: &[Rep], setups: &[u64]) -> String {
    let passes: Vec<&Pass> = reps
        .iter()
        .flat_map(|r| std::iter::once(&r.pass).chain(&r.probe))
        .collect();
    let attempted: u64 = passes.iter().map(|p| p.ops()).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let wrong: u64 = passes.iter().map(|p| p.wrong).sum();
    let missed: u64 = passes.iter().map(|p| p.missed).sum();
    let mismatches: Vec<&String> = passes.iter().flat_map(|p| &p.mismatches).collect();
    for m in &mismatches {
        eprintln!("perfbench: reconciliation failed: {m}");
    }
    let correct = mismatches.is_empty() && wrong == 0 && (!spec.fits || missed == 0);

    let metrics = if args.trace {
        per_layer(spec, reps)
    } else {
        end_to_end(reps, setups)
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} seed={} reps={} attempted={attempted} failed={failed} correct={correct}",
        spec.name,
        args.seed,
        reps.len()
    );
    for (i, rep) in reps.iter().enumerate() {
        let p = &rep.pass;
        let mut get_ns = p.get_ns.clone();
        let _ = writeln!(
            out,
            "# rep {i}{}: setup {:.3} s, {:.1} op/s, get p50 {:.1} us p99 {:.1} us",
            if rep.tracer.is_some() {
                " (traced)"
            } else {
                ""
            },
            rep.setup_ns as f64 / 1e9,
            p.req_per_s(),
            percentile(&mut get_ns, 0.50) / 1e3,
            percentile(&mut get_ns, 0.99) / 1e3,
        );
    }
    for (name, value, unit) in &metrics {
        let _ = writeln!(out, "{name:<32} {value:>14.3} {unit}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let _ = writeln!(
        out,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    out
}

type Metric = (&'static str, f64, &'static str);

/// Median over the CPU windows of `passes` of `f` per operation.
fn window_median<'a>(passes: impl IntoIterator<Item = &'a Pass>, f: fn(&Window) -> u64) -> f64 {
    let windows = passes.into_iter().flat_map(|p| &p.windows);
    median_f(windows.map(|w| f(w) as f64 / w.ops as f64).collect())
}

/// Each metric is measured per pass (CPU: per window) and the median is
/// reported, so a slow spell of the machine moves it less.
fn end_to_end(reps: &[Rep], setups: &[u64]) -> Vec<Metric> {
    let per_rep = |f: &dyn Fn(&Pass) -> f64| median_f(reps.iter().map(|r| f(&r.pass)).collect());
    let get_pct = |q| move |p: &Pass| percentile(&mut p.get_ns.clone(), q);
    vec![
        (
            "setup_s",
            median_f(setups.iter().map(|&ns| ns as f64).collect()) / 1e9,
            "s",
        ),
        ("req_per_s", per_rep(&Pass::req_per_s), "1/s"),
        ("get_p50_us", per_rep(&get_pct(0.50)) / 1e3, "us"),
        ("get_p99_us", per_rep(&get_pct(0.99)) / 1e3, "us"),
        (
            "server_cpu_us_per_req",
            window_median(reps.iter().map(|r| &r.pass), |w| w.server_cpu_ns) / 1e3,
            "us",
        ),
    ]
}

fn per_layer(spec: &Spec, reps: &[Rep]) -> Vec<Metric> {
    let plain: Vec<&Pass> = reps
        .iter()
        .filter(|r| r.tracer.is_none())
        .map(|r| &r.pass)
        .collect();
    let traced: Vec<&Rep> = reps.iter().filter(|r| r.tracer.is_some()).collect();
    let sum = |f: &dyn Fn(&Pass) -> u64| -> u64 { plain.iter().map(|p| f(p)).sum() };
    let reads = sum(&|p| p.reads);
    let ops = sum(&|p| p.ops());
    let c = |f: &dyn Fn(&ClientStats) -> u64| sum(&|p| f(&p.client));
    let s = |f: &dyn Fn(&Counters) -> u64| sum(&|p| f(&p.server));
    let client_txns = c(&|c| c.round1_txns + c.round2_txns + c.round3_txns);
    let server_cpu = sum(&|p| p.server_cpu_ns);
    let all_txns = s(&|s| s.get_txns) + c(&|c| c.write_txns + c.writebacks);
    let pooled = |f: &dyn Fn(&Pass) -> &Vec<u64>| -> Vec<u64> {
        plain.iter().flat_map(|p| f(p).iter().copied()).collect()
    };
    let mut late_ns = pooled(&|p| &p.late_ns);

    // Writes: the workload's own, or the write probe of a read-only one.
    let probes: Vec<&Pass> = reps.iter().filter_map(|r| r.probe.as_ref()).collect();
    let write_passes: Vec<&Pass> = if spec.write_every == 0 {
        probes
    } else {
        plain.clone()
    };
    let mut set_ns: Vec<u64> = write_passes
        .iter()
        .flat_map(|p| p.set_ns.iter().copied())
        .collect();
    let write_ops: u64 = write_passes.iter().map(|p| p.writes).sum();
    let write_txns: u64 = write_passes.iter().map(|p| p.client.write_txns).sum();

    // Span totals of the traced passes (and the probe's writer spans).
    let span_ns = |name: &str| -> u64 {
        traced
            .iter()
            .filter_map(|r| r.tracer.as_ref())
            .map(|t| t.self_time_by_name().get(name).copied().unwrap_or(0))
            .sum()
    };
    let traced_reads: u64 = traced.iter().map(|r| r.pass.reads).sum();
    let planner_ns = ratio(span_ns("planner"), traced_reads);
    let multi_get_ns = ratio(span_ns("client.multi_get"), traced_reads);
    let mut l = reps
        .iter()
        .find_map(|r| r.layers.clone())
        .unwrap_or_default();
    let writer_items: u64 = traced
        .iter()
        .map(|r| r.pass.items_written + r.probe.as_ref().map_or(0, |p| p.items_written))
        .sum();
    let writer_ns_per_item = ratio(span_ns("writer"), writer_items);
    let planned_txns = sum(&|p| p.planned_txns);
    let untraced_rate = median_f(plain.iter().map(|p| p.req_per_s()).collect());
    let traced_rate = median_f(traced.iter().map(|r| r.pass.req_per_s()).collect());

    vec![
        ("poller.rtt_idle0_us", l.probe_rtt_ns[0] / 1e3, "us"),
        ("poller.rtt_idle5ms_us", l.probe_rtt_ns[1] / 1e3, "us"),
        ("poller.rtt_idle50ms_us", l.probe_rtt_ns[2] / 1e3, "us"),
        (
            "server.idle_cpu_ms_per_s",
            l.idle_cpu_ns_per_s / 1e6,
            "ms/s",
        ),
        ("planner.ns_per_req", planner_ns, "ns"),
        ("planner.txn_per_req", ratio(planned_txns, reads), "count"),
        (
            "planner.items_per_txn",
            ratio(sum(&|p| p.items_read), planned_txns),
            "count",
        ),
        ("client.txn_per_req", ratio(client_txns, reads), "count"),
        (
            "client.cpu_us_per_req",
            window_median(plain.iter().copied(), |w| w.client_cpu_ns) / 1e3,
            "us",
        ),
        (
            "client.self_us_per_req",
            (multi_get_ns - planner_ns - l.wire_ns_per_req) / 1e3,
            "us",
        ),
        ("client.reconnects", c(&|c| c.reconnects) as f64, "count"),
        ("client.failed_txns", c(&|c| c.failed_txns) as f64, "count"),
        (
            "wire.txn_rtt_p50_us",
            percentile(&mut l.txn_rtt_ns, 0.50) / 1e3,
            "us",
        ),
        (
            "wire.txn_rtt_p99_us",
            percentile(&mut l.txn_rtt_ns, 0.99) / 1e3,
            "us",
        ),
        ("store.get_multi_ns_per_key", l.store_get_ns_per_key, "ns"),
        ("store.set_multi_ns_per_key", l.store_set_ns_per_key, "ns"),
        ("writer.plan_batch_ns_per_item", writer_ns_per_item, "ns"),
        (
            "client.write_txn_per_write",
            ratio(write_txns, write_ops),
            "count",
        ),
        (
            "client.round2_txn_per_req",
            ratio(c(&|c| c.round2_txns), reads),
            "count",
        ),
        (
            "client.writebacks_per_req",
            ratio(c(&|c| c.writebacks), reads),
            "count",
        ),
        (
            "client.planned_miss_frac",
            ratio(c(&|c| c.planned_misses), sum(&|p| p.items_read)),
            "frac",
        ),
        (
            "client.hitchhiker_rescue_frac",
            ratio(c(&|c| c.rescued_by_hitchhikers), c(&|c| c.planned_misses)),
            "frac",
        ),
        (
            "server.evictions_per_req",
            ratio(s(&|s| s.evictions), ops),
            "count",
        ),
        (
            "server.hit_frac",
            ratio(s(&|s| s.hits), s(&|s| s.keys)),
            "frac",
        ),
        (
            "server.get_txn_per_req",
            ratio(s(&|s| s.get_txns), reads),
            "count",
        ),
        (
            "server.keys_per_get_txn",
            ratio(s(&|s| s.keys), s(&|s| s.get_txns)),
            "count",
        ),
        (
            "server.bytes_read_per_req",
            ratio(s(&|s| s.bytes_read), ops),
            "B",
        ),
        (
            "server.bytes_written_per_req",
            ratio(s(&|s| s.bytes_written), ops),
            "B",
        ),
        (
            "server.cpu_us_per_txn",
            ratio(server_cpu, all_txns) / 1e3,
            "us",
        ),
        ("set_p50_us", percentile(&mut set_ns, 0.50) / 1e3, "us"),
        ("set_p99_us", percentile(&mut set_ns, 0.99) / 1e3, "us"),
        (
            "miss_frac",
            ratio(sum(&|p| p.missed), sum(&|p| p.items_read)),
            "frac",
        ),
        ("failed_frac", ratio(sum(&|p| p.failed), ops), "frac"),
        (
            "gen.late_p99_us",
            percentile(&mut late_ns, 0.99) / 1e3,
            "us",
        ),
        (
            "gen.samples",
            sum(&|p| p.get_ns.len() as u64) as f64,
            "count",
        ),
        (
            "trace.overhead_frac",
            1.0 - ratio_f(traced_rate, untraced_rate),
            "frac",
        ),
    ]
}

fn ratio_f(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
