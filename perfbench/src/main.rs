//! The repository benchmark: times the verified promise runtime against its
//! unverified baseline on seeded workloads, and attributes the time to
//! layers in a separate traced run.
//!
//! ```text
//! perfbench --workload <sieve|churn|detect> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every line of standard output is one JSON record; the last one is the
//! result `{"correct", "attempted", "failed", "metrics"}`.  With `--trace 0`
//! the metrics are the end-to-end ones; with `--trace 1` the per-layer ones.
//! See `README.md` beside this crate for what each metric means.
//!
//! An untraced run measures in [`PARTS`] fresh processes of this binary,
//! started one after another with the extra flag `--part <i>`; each prints
//! its raw samples, and the run pools them.

mod drivers;
mod stats;
mod trace;

use std::collections::{BTreeMap, HashMap};
use std::io::Read;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use promise_core::{ArenaMemoryStats, VerificationMode};
use promise_model::harness::{program_seed, run_program, ProgramVerdict};
use promise_model::{generate, GenConfig, GeneratedProgram};
use promise_runtime::{RunMetrics, Runtime};
use promise_stats::{AllocStats, CountingAllocator, MemorySampler};
use promise_workloads::sieve;

use drivers::ChurnSpec;
use stats::{median, paired_delta_median, paired_ratio_median, percentile, samples_for};
use trace::{span, Layer};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// An untraced run measures in this many fresh processes of this binary,
/// one after another, each for an equal share of `--seconds`, and pools
/// their samples.  On a shared host a whole process can run fast or slow,
/// so pooling several processes averages such modes instead of drawing
/// one.  Each part also times its own cold set-up,
/// and `setup_s` is the median of those times.
const PARTS: u32 = 7;
/// A part that has not ended this long after its share of the run is
/// killed.
const PART_GRACE: Duration = Duration::from_secs(15);
/// Untimed warm-up at the start of each measured loop: its ops are checked
/// and counted but their times are dropped.
const WARMUP: Duration = Duration::from_millis(500);
/// A run stops measuring here even when it lacks samples, so that it ends
/// well within three minutes.
const HARD_CAP: Duration = Duration::from_secs(140);
/// Live-heap sampling interval.
const HEAP_SAMPLE: Duration = Duration::from_millis(1);
/// Of every this many pairs (pairs of blocks on `detect`), the first two,
/// one in each order, are heap-sampled and not timed; the rest are timed
/// and not sampled, so that the sampler thread never competes with a timed
/// op for the CPUs.
const HEAP_PERIOD: u64 = 8;

/// Whether pair `k` is heap-sampled (see [`HEAP_PERIOD`]).
fn heap_pair(k: u64) -> bool {
    k % HEAP_PERIOD < 2
}
/// Planted programs, and as many control programs, in each part's fixed
/// `detect` set.  The part runs the set over and over; each program's timed
/// sample is its fastest run.
const DETECT_PROGRAMS: u64 = 512;
/// Detect programs per block.
const DETECT_BLOCK: u64 = 16;
/// Fewest cycles a traced run measures.
const MIN_TRACE_CYCLES: usize = 11;

const SIEVE_LIMIT: u64 = 1_000;
const CHURN_BASE_TASKS: usize = 1_500;
const CHURN_WAVES: usize = 4;
const CHURN_FLOOR_TASKS: usize = 64;
const CHURN_WORK: usize = 32;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run only part `i` of an untraced run (see [`PARTS`]).
    part: Option<u64>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags: HashMap<String, String> = HashMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            flags.insert(flag, value);
        }
        let part = match flags.remove("--part") {
            Some(v) => Some(v.parse().map_err(|e| format!("--part: {e}"))?),
            None => None,
        };
        let take = |name: &str| flags.get(name).ok_or(format!("missing {name}"));
        let number = |name: &str| -> Result<u64, String> {
            take(name)?.parse().map_err(|e| format!("{name}: {e}"))
        };
        let workload = take("--workload")?.clone();
        if !["sieve", "churn", "detect"].contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        let trace = match take("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        };
        let seconds = number("--seconds")?;
        if !(1..=120).contains(&seconds) {
            return Err("--seconds must be within 1..=120".into());
        }
        if flags.len() != 4 {
            return Err("expected exactly --workload, --seed, --seconds and --trace".into());
        }
        Ok(Args {
            workload,
            seed: number("--seed")?,
            seconds,
            trace,
            part,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sieve|churn|detect> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if let Some(i) = args.part {
        let part = match args.workload.as_str() {
            "detect" => detect_part(&args, i),
            _ => compute_part(&args),
        };
        part.print();
        return ExitCode::SUCCESS;
    }
    let run = match (args.workload.as_str(), args.trace) {
        (_, false) => untraced(&args),
        ("detect", true) => detect_traced(&args),
        (_, true) => compute_traced(&args),
    };
    run.print(&args);
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// What a run prints: its op counts, metrics and the workload's parameters.
#[derive(Default)]
struct Run {
    params: String,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`; `None` when too few samples were measured.
    metrics: Vec<(&'static str, Option<f64>, &'static str)>,
    /// Extra records printed before the result.
    notes: Vec<String>,
}

impl Run {
    fn metric(&mut self, name: &'static str, value: Option<f64>, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn print(&self, args: &Args) {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        println!(
            "{{\"record\":\"provenance\",\"nproc\":{nproc},\"git_rev\":{},\"rustc\":{},\
             \"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"parts\":{},\
             \"params\":{},\"runtime_config\":{}}}",
            json_str(&env("PERFBENCH_GIT_REV")),
            json_str(&env("PERFBENCH_RUSTC")),
            json_str(&args.workload),
            args.seed,
            args.seconds,
            args.trace,
            if args.trace { 1 } else { PARTS },
            self.params,
            json_str(&format!("{:?}", Runtime::builder())),
        );
        println!(
            "{{\"record\":\"ops\",\"ops_attempted\":{},\"ops_failed\":{}}}",
            self.attempted, self.failed
        );
        for note in &self.notes {
            println!("{note}");
        }
        let complete = self
            .metrics
            .iter()
            .all(|(_, v, _)| v.is_some_and(f64::is_finite));
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = value.filter(|v| v.is_finite()).unwrap_or(0.0);
                format!(
                    "{}:{{\"value\":{value},\"unit\":{}}}",
                    json_str(name),
                    json_str(unit)
                )
            })
            .collect();
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            complete && self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(",")
        );
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn secs(args: &Args) -> Duration {
    Duration::from_secs(args.seconds)
}

/// A JSON number, or `null` for a missing or non-finite value.
fn json_num(v: Option<f64>) -> String {
    v.filter(|v| v.is_finite())
        .map_or_else(|| "null".into(), |v| v.to_string())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn mb(bytes: f64) -> f64 {
    bytes / (1024.0 * 1024.0)
}

/// Live heap bytes right now.
fn live_bytes() -> f64 {
    AllocStats::snapshot().live_bytes as f64
}

/// Keeps measuring until `seconds` have passed and `enough` holds, or the
/// hard cap is reached.
fn keep_going(start: Instant, seconds: Duration, enough: bool) -> bool {
    let elapsed = start.elapsed();
    (elapsed < seconds || !enough) && elapsed < HARD_CAP
}

// ---------------------------------------------------------------------------
// Set-up and parts
// ---------------------------------------------------------------------------

/// A set-up: its time in seconds and the ops it ran.
struct Setup {
    secs: f64,
    attempted: u64,
    failed: u64,
}

/// What one part of an untraced run measured (see [`PARTS`]).
#[derive(Default)]
struct Part {
    /// This process's cold set-up time, in seconds.
    setup_s: f64,
    attempted: u64,
    failed: u64,
    /// Timed samples, in ms, verified and baseline side by side.
    ver: Vec<f64>,
    base: Vec<f64>,
    /// Heap-sampled figures, in MB, side by side.
    ver_heap: Vec<f64>,
    base_heap: Vec<f64>,
    /// `detect` only: detection latencies in µs, misses and false alarms of
    /// every run, and the count and summed wall time (ms) of every timed run
    /// of a planted program.
    latencies_us: Vec<f64>,
    misses: u64,
    false_alarms: u64,
    planted_runs: u64,
    planted_ms: f64,
}

impl Part {
    /// Prints the part as lines of a name and its numbers.
    fn print(&self) {
        let line = |name: &str, v: &[f64]| {
            let v: Vec<String> = v.iter().map(f64::to_string).collect();
            println!("{name} {}", v.join(" "));
        };
        line(
            "counts",
            &[
                self.setup_s,
                self.attempted as f64,
                self.failed as f64,
                self.misses as f64,
                self.false_alarms as f64,
                self.planted_runs as f64,
                self.planted_ms,
            ],
        );
        line("ver", &self.ver);
        line("base", &self.base);
        line("ver_heap", &self.ver_heap);
        line("base_heap", &self.base_heap);
        line("latencies_us", &self.latencies_us);
    }

    /// Reads what [`Part::print`] printed.
    fn parse(out: &str) -> Option<Part> {
        let mut fields: HashMap<&str, Vec<f64>> = HashMap::new();
        for l in out.lines() {
            let mut words = l.split_whitespace();
            let name = words.next()?;
            let values = words.map(str::parse).collect::<Result<_, _>>().ok()?;
            if fields.insert(name, values).is_some() {
                return None;
            }
        }
        let mut take = |name| fields.remove(name);
        let c = take("counts").filter(|c| c.len() == 7)?;
        Some(Part {
            setup_s: c[0],
            attempted: c[1] as u64,
            failed: c[2] as u64,
            misses: c[3] as u64,
            false_alarms: c[4] as u64,
            planted_runs: c[5] as u64,
            planted_ms: c[6],
            ver: take("ver")?,
            base: take("base")?,
            ver_heap: take("ver_heap")?,
            base_heap: take("base_heap")?,
            latencies_us: take("latencies_us")?,
        })
    }
}

/// How long each part measures.
fn part_slice(args: &Args) -> Duration {
    secs(args) / PARTS
}

/// Runs part `i` in a fresh process of this binary, killing it after
/// its share of the run and [`PART_GRACE`]; `None` when it fails or reports
/// nothing.
fn run_part(args: &Args, i: u64) -> Option<Part> {
    let mut child = Command::new(std::env::current_exe().ok()?)
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", "0", "--part", &i.to_string()])
        .stdout(Stdio::piped())
        .spawn()
        .ok()?;
    let mut stdout = child.stdout.take().expect("stdout is piped");
    // The reader signals when the part closes its output, at exit; waiting
    // for that signal, rather than polling, keeps this process asleep while
    // the part measures.
    let (done, exited) = std::sync::mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        let read = stdout.read_to_string(&mut out).map(|_| out);
        let _ = done.send(());
        read
    });
    let finished = exited.recv_timeout(part_slice(args) + PART_GRACE).is_ok();
    if !finished {
        let _ = child.kill();
    }
    let status = child.wait();
    let out = reader.join().ok()?.ok()?;
    Part::parse(&out).filter(|_| finished && status.is_ok_and(|s| s.success()))
}

/// The untraced run: every part, pooled.  A part that fails or reports
/// nothing counts as one failed op.
fn untraced(args: &Args) -> Run {
    let detect = args.workload == "detect";
    let mut run = Run {
        params: if detect {
            detect_params(args.seed)
        } else {
            Compute::setup(&args.workload, args.seed).2
        },
        ..Run::default()
    };
    let mut all = Part::default();
    let mut setup_times = Vec::new();
    for i in 0..u64::from(PARTS) {
        let Some(p) = run_part(args, i) else {
            run.attempted += 1;
            run.failed += 1;
            continue;
        };
        setup_times.push(p.setup_s);
        run.attempted += p.attempted;
        run.failed += p.failed;
        all.ver.extend(p.ver);
        all.base.extend(p.base);
        all.ver_heap.extend(p.ver_heap);
        all.base_heap.extend(p.base_heap);
        all.latencies_us.extend(p.latencies_us);
        all.misses += p.misses;
        all.false_alarms += p.false_alarms;
        all.planted_runs += p.planted_runs;
        all.planted_ms += p.planted_ms;
    }
    if detect {
        run.notes.push(format!(
            "{{\"record\":\"detect\",\"detect_latency_p50_us\":{},\"detect_latency_p99_us\":{},\
             \"programs_per_s\":{},\"deadlocks_timed\":{},\"misses\":{},\"false_alarms\":{}}}",
            json_num(median(&all.latencies_us)),
            json_num(percentile(&all.latencies_us, 0.99)),
            json_num(
                (all.planted_ms > 0.0).then(|| all.planted_runs as f64 / (all.planted_ms / 1e3))
            ),
            all.latencies_us.len(),
            all.misses,
            all.false_alarms,
        ));
    }
    push_end_to_end(
        &mut run,
        &all.ver,
        &all.base,
        &all.ver_heap,
        &all.base_heap,
        median(&setup_times),
    );
    run
}

// ---------------------------------------------------------------------------
// Compute workloads: sieve, churn
// ---------------------------------------------------------------------------

enum Compute {
    Sieve { limit: u64 },
    Churn(ChurnSpec),
}

impl Compute {
    /// Generates the inputs from the seed and computes the expected
    /// checksum sequentially.
    fn setup(workload: &str, seed: u64) -> (Compute, u64, String) {
        match workload {
            // The input is the integer range, so the seed is not used.
            "sieve" => (
                Compute::Sieve { limit: SIEVE_LIMIT },
                sieve::run_sequential(&sieve::SieveParams { limit: SIEVE_LIMIT }),
                format!("{{\"limit\":{SIEVE_LIMIT}}}"),
            ),
            "churn" => {
                let spec = ChurnSpec {
                    base_tasks: CHURN_BASE_TASKS,
                    waves: CHURN_WAVES,
                    floor_tasks: CHURN_FLOOR_TASKS,
                    work: CHURN_WORK,
                    seed,
                };
                let params = format!(
                    "{{\"base_tasks\":{},\"waves\":{},\"floor_tasks\":{},\"work\":{},\"seed\":{}}}",
                    spec.base_tasks, spec.waves, spec.floor_tasks, spec.work, spec.seed
                );
                (Compute::Churn(spec), spec.expected(), params)
            }
            other => unreachable!("not a compute workload: {other}"),
        }
    }

    fn run(&self) -> u64 {
        match self {
            Compute::Sieve { limit } => drivers::sieve(*limit),
            Compute::Churn(spec) => drivers::churn(spec),
        }
    }
}

/// One iteration on a fresh runtime.
struct Op {
    ok: bool,
    wall_ms: f64,
    /// Mean live heap during the iteration, less the live heap before the
    /// runtime was built: what the runtime and the workload hold, not the
    /// benchmark's own samples and inputs.
    heap_mb: f64,
    build_ms: f64,
    shutdown_ms: f64,
    metrics: Option<RunMetrics>,
    memory: ArenaMemoryStats,
    allocs: u64,
    alloc_mb: f64,
}

/// Builds a runtime in `mode`, runs one timed iteration on it, checks the
/// checksum and alarms, and shuts the runtime down.  Only the iteration is
/// inside `wall_ms`.
fn compute_op(c: &Compute, expected: u64, mode: VerificationMode, sample_heap: bool) -> Op {
    let held = live_bytes();
    let t = Instant::now();
    let rt = Runtime::builder().verification(mode).build();
    let build_ms = ms(t.elapsed());
    let sampler = sample_heap.then(|| MemorySampler::start(HEAP_SAMPLE));
    let before = AllocStats::snapshot();
    let outcome = catch_unwind(AssertUnwindSafe(|| rt.measure(|| c.run())));
    let after = AllocStats::snapshot();
    let heap_mb = sampler.map_or(0.0, |s| mb(s.stop().average_bytes - held));
    let memory = rt.memory_stats();
    let (ok, wall_ms, metrics) = match outcome {
        Ok(Ok((sum, m))) => {
            let n = &m.counters;
            let clean =
                n.deadlocks_detected == 0 && n.omitted_sets_detected == 0 && n.tasks_panicked == 0;
            (sum == expected && clean, ms(m.wall), Some(m))
        }
        _ => (false, f64::NAN, None),
    };
    let t = Instant::now();
    if ok {
        rt.shutdown();
    } else {
        rt.shutdown_with_deadline(Duration::from_secs(5));
    }
    Op {
        ok,
        wall_ms,
        heap_mb,
        build_ms,
        shutdown_ms: ms(t.elapsed()),
        metrics,
        memory,
        allocs: after.total_allocations - before.total_allocations,
        alloc_mb: mb((after.total_allocated - before.total_allocated) as f64),
    }
}

/// Set-up: input generation, the sequential oracle, and the first runtime's
/// build, one warm-up iteration (an op, checked and counted) and shutdown.
fn compute_setup(args: &Args) -> (Compute, u64, String, Setup) {
    let t = Instant::now();
    let (c, expected, params) = Compute::setup(&args.workload, args.seed);
    let ok = compute_op(&c, expected, VerificationMode::Full, false).ok;
    let setup = Setup {
        secs: t.elapsed().as_secs_f64(),
        attempted: 1,
        failed: u64::from(!ok),
    };
    (c, expected, params, setup)
}

/// One part of an untraced compute run: its cold set-up, then interleaved
/// pairs for the part's share of the run.
fn compute_part(args: &Args) -> Part {
    let (c, expected, _, setup) = compute_setup(args);
    let mut part = Part {
        setup_s: setup.secs,
        attempted: setup.attempted,
        failed: setup.failed,
        ..Part::default()
    };
    let start = Instant::now();
    let mut k = 0u64;
    while keep_going(start, part_slice(args), true) {
        // ABAB pairs, alternating which mode runs first.
        let order = if k.is_multiple_of(2) {
            [VerificationMode::Unverified, VerificationMode::Full]
        } else {
            [VerificationMode::Full, VerificationMode::Unverified]
        };
        let sampled = heap_pair(k);
        k += 1;
        let [a, b] = order.map(|mode| (mode, compute_op(&c, expected, mode, sampled)));
        part.attempted += 2;
        part.failed += u64::from(!a.1.ok) + u64::from(!b.1.ok);
        if !(a.1.ok && b.1.ok) {
            continue;
        }
        if start.elapsed() < WARMUP {
            continue;
        }
        let (u, f) = if a.0 == VerificationMode::Full {
            (b.1, a.1)
        } else {
            (a.1, b.1)
        };
        if sampled {
            part.base_heap.push(u.heap_mb);
            part.ver_heap.push(f.heap_mb);
        } else {
            part.base.push(u.wall_ms);
            part.ver.push(f.wall_ms);
        }
    }
    part
}

/// The end-to-end metrics, common to every workload, and a `tails` record
/// with each side's p90 and sample count.
fn push_end_to_end(
    run: &mut Run,
    ver: &[f64],
    base: &[f64],
    ver_heap: &[f64],
    base_heap: &[f64],
    setup_s: Option<f64>,
) {
    run.notes.push(format!(
        "{{\"record\":\"tails\",\"verified_p90_ms\":{},\"baseline_p90_ms\":{},\"samples\":{}}}",
        json_num(percentile(ver, 0.90)),
        json_num(percentile(base, 0.90)),
        ver.len(),
    ));
    run.metric("verified_p50_ms", median(ver), "ms");
    run.metric("baseline_p50_ms", median(base), "ms");
    run.metric("overhead_x", paired_ratio_median(ver, base), "x");
    let vh = median(ver_heap);
    run.metric("verified_heap_mb", vh, "MB");
    run.metric(
        "heap_overhead_x",
        vh.zip(median(base_heap)).map(|(v, b)| v / b),
        "x",
    );
    run.metric("setup_s", setup_s, "s");
}

/// Per-layer span totals of the traced iterations.
#[derive(Default)]
struct SpanTotals {
    /// Summed self time and call count per layer.
    calls: HashMap<Layer, (f64, u64)>,
    /// Summed self time per layer, per traced iteration.
    per_iteration: BTreeMap<u32, HashMap<Layer, f64>>,
}

impl SpanTotals {
    /// Folds in the spans recorded since the last call.
    fn add_spans(&mut self) {
        let spans = trace::drain();
        let self_ns = trace::self_times(&spans);
        for s in &spans {
            let t = self_ns[&s.id] as f64;
            let e = self.calls.entry(s.layer).or_default();
            e.0 += t;
            e.1 += 1;
            let iteration = self.per_iteration.entry(s.iteration).or_default();
            *iteration.entry(s.layer).or_default() += t;
        }
    }

    /// Mean self time per call, in ns; 0 when the layer was never called.
    fn per_call_ns(&self, layer: Layer) -> Option<f64> {
        Some(self.calls.get(&layer).map_or(0.0, |(t, n)| t / *n as f64))
    }

    /// Median over iterations of the layer's summed self time, in ms.
    fn per_iteration_ms(&self, layer: Layer) -> Option<f64> {
        let v: Vec<f64> = self
            .per_iteration
            .values()
            .map(|m| m.get(&layer).copied().unwrap_or(0.0) / 1e6)
            .collect();
        median(&v)
    }
}

/// Runs `f` with tracing on, tagging spans with iteration `k`.
fn traced<R>(k: usize, f: impl FnOnce() -> R) -> R {
    trace::set_iteration(k as u32);
    trace::set_enabled(true);
    let out = f();
    trace::set_enabled(false);
    out
}

fn compute_traced(args: &Args) -> Run {
    use VerificationMode::{Full, OwnershipOnly, Unverified};
    let (c, expected, params, setup) = compute_setup(args);
    let mut run = Run {
        params,
        attempted: setup.attempted,
        failed: setup.failed,
        ..Run::default()
    };
    // Each cycle runs Unverified, OwnershipOnly and Full untraced plus Full
    // traced, each on a fresh runtime, starting at a rotating position.
    let mut walls: [Vec<f64>; 4] = Default::default();
    let mut helped: [Vec<f64>; 3] = Default::default();
    let mut full_ops: Vec<Op> = Vec::new();
    let (mut build, mut shutdown) = (vec![], vec![]);
    let mut spans = SpanTotals::default();
    let start = Instant::now();
    let mut k = 0usize;
    while keep_going(start, secs(args), k >= MIN_TRACE_CYCLES) {
        let mut ops: [Option<Op>; 4] = Default::default();
        for j in 0..4 {
            let slot = (k + j) % 4;
            let op = match slot {
                0 => compute_op(&c, expected, Unverified, false),
                1 => compute_op(&c, expected, OwnershipOnly, false),
                2 => compute_op(&c, expected, Full, false),
                _ => {
                    let op = traced(k, || compute_op(&c, expected, Full, false));
                    spans.add_spans();
                    op
                }
            };
            ops[slot] = Some(op);
        }
        k += 1;
        let ops = ops.map(|o| o.expect("every slot ran"));
        run.attempted += 4;
        let failures = ops.iter().filter(|o| !o.ok).count() as u64;
        run.failed += failures;
        if failures > 0 {
            continue;
        }
        for (i, op) in ops.iter().enumerate() {
            walls[i].push(op.wall_ms);
            build.push(op.build_ms);
            shutdown.push(op.shutdown_ms);
            if i < 3 {
                let pool = &op.metrics.as_ref().expect("ok ops carry metrics").pool;
                helped[i].push(pool.jobs_helped as f64);
            }
        }
        let [_, _, full, _] = ops;
        full_ops.push(full);
    }

    let full = |f: &dyn Fn(&Op) -> f64| median(&full_ops.iter().map(f).collect::<Vec<_>>());
    let counter = |f: &dyn Fn(&RunMetrics) -> u64| {
        full(&|op| f(op.metrics.as_ref().expect("ok ops carry metrics")) as f64)
    };
    let figures = vec![
        ("promise.new_ns", spans.per_call_ns(Layer::PromiseNew)),
        ("promise.set_ns", spans.per_call_ns(Layer::PromiseSet)),
        ("promise.get_self_ns", spans.per_call_ns(Layer::PromiseGet)),
        ("promise.gets", counter(&|m| m.counters.gets)),
        ("promise.sets", counter(&|m| m.counters.sets)),
        ("promise.created", counter(&|m| m.counters.promises_created)),
        ("ownership.transfers", counter(&|m| m.counters.transfers)),
        (
            "ownership.delta_ms",
            paired_delta_median(&walls[1], &walls[0]),
        ),
        ("detector.runs", counter(&|m| m.counters.detector_runs)),
        ("detector.steps", counter(&|m| m.counters.detector_steps)),
        (
            "detector.steps_per_run",
            full(&|op| {
                let n = &op.metrics.as_ref().expect("ok ops carry metrics").counters;
                n.detector_steps as f64 / n.detector_runs.max(1) as f64
            }),
        ),
        (
            "detector.delta_ms",
            paired_delta_median(&walls[2], &walls[1]),
        ),
        (
            "detector.deadlocks",
            counter(&|m| m.counters.deadlocks_detected),
        ),
        (
            "detector.omitted_sets",
            counter(&|m| m.counters.omitted_sets_detected),
        ),
        (
            "verified.delta_ms",
            paired_delta_median(&walls[2], &walls[0]),
        ),
        (
            "arena.resident_mb",
            full(&|op| mb(op.memory.resident_bytes as f64)),
        ),
        (
            "arena.peak_resident_mb",
            full(&|op| mb(op.memory.peak_resident_bytes as f64)),
        ),
        (
            "arena.freed_mb",
            full(&|op| mb(op.memory.bytes_freed as f64)),
        ),
        (
            "arena.chunks_reclaimed",
            full(&|op| op.memory.chunks_reclaimed as f64),
        ),
        ("arena.reclaim_ms", spans.per_iteration_ms(Layer::Reclaim)),
        ("alloc.count", full(&|op| op.allocs as f64)),
        ("alloc.mb", full(&|op| op.alloc_mb)),
        ("spawn.call_ns", spans.per_call_ns(Layer::Spawn)),
        ("spawn.tasks", counter(&|m| m.spawns())),
        ("join.wait_ms", spans.per_iteration_ms(Layer::Join)),
        ("finish.wait_ms", spans.per_iteration_ms(Layer::Finish)),
        (
            "pool.threads_started",
            counter(&|m| m.pool.threads_started as u64),
        ),
        (
            "pool.peak_workers",
            counter(&|m| m.pool.peak_workers as u64),
        ),
        (
            "pool.jobs_executed",
            counter(&|m| m.pool.jobs_executed as u64),
        ),
        ("pool.jobs_stolen", counter(&|m| m.pool.jobs_stolen as u64)),
        ("pool.jobs_helped", median(&helped[2])),
        ("pool.jobs_helped.baseline", median(&helped[0])),
        ("pool.jobs_helped.ownership_only", median(&helped[1])),
        (
            "pool.steal_share",
            full(&|op| {
                let p = &op.metrics.as_ref().expect("ok ops carry metrics").pool;
                p.jobs_stolen as f64 / p.jobs_executed.max(1) as f64
            }),
        ),
        ("runtime.build_ms", median(&build)),
        ("runtime.shutdown_ms", median(&shutdown)),
        ("channel.send_ns", spans.per_call_ns(Layer::ChannelSend)),
        (
            "channel.recv_self_ns",
            spans.per_call_ns(Layer::ChannelRecv),
        ),
        (
            "trace.overhead_x",
            paired_ratio_median(&walls[3], &walls[2]),
        ),
    ];
    push_per_layer(&mut run, figures);
    run
}

/// Every per-layer metric and its unit, in print order.
const PER_LAYER: [(&str, &str); 43] = [
    ("promise.new_ns", "ns"),
    ("promise.set_ns", "ns"),
    ("promise.get_self_ns", "ns"),
    ("promise.gets", "count"),
    ("promise.sets", "count"),
    ("promise.created", "count"),
    ("ownership.transfers", "count"),
    ("ownership.delta_ms", "ms"),
    ("detector.runs", "count"),
    ("detector.steps", "count"),
    ("detector.steps_per_run", "count"),
    ("detector.delta_ms", "ms"),
    ("detector.deadlocks", "count"),
    ("detector.omitted_sets", "count"),
    ("detector.latency_p50_us", "us"),
    ("detector.latency_p99_us", "us"),
    ("verified.delta_ms", "ms"),
    ("arena.resident_mb", "MB"),
    ("arena.peak_resident_mb", "MB"),
    ("arena.freed_mb", "MB"),
    ("arena.chunks_reclaimed", "count"),
    ("arena.reclaim_ms", "ms"),
    ("alloc.count", "count"),
    ("alloc.mb", "MB"),
    ("spawn.call_ns", "ns"),
    ("spawn.tasks", "count"),
    ("join.wait_ms", "ms"),
    ("finish.wait_ms", "ms"),
    ("pool.threads_started", "count"),
    ("pool.peak_workers", "count"),
    ("pool.jobs_executed", "count"),
    ("pool.jobs_stolen", "count"),
    ("pool.jobs_helped", "count"),
    ("pool.jobs_helped.baseline", "count"),
    ("pool.jobs_helped.ownership_only", "count"),
    ("pool.steal_share", "share"),
    ("runtime.build_ms", "ms"),
    ("runtime.shutdown_ms", "ms"),
    ("channel.send_ns", "ns"),
    ("channel.recv_self_ns", "ns"),
    ("model.generate_us", "us"),
    ("model.run_program_us", "us"),
    ("trace.overhead_x", "x"),
];

/// Adds every per-layer metric to `run`.  A metric missing from `figures`
/// reads 0: the workload never makes that call, or (on `detect`) the
/// runtime that `run_program` owns does not expose it.
fn push_per_layer(run: &mut Run, figures: Vec<(&'static str, Option<f64>)>) {
    let figures: HashMap<&str, Option<f64>> = figures.into_iter().collect();
    for name in figures.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "unlisted per-layer metric {name}"
        );
    }
    for (name, unit) in PER_LAYER {
        run.metric(name, figures.get(name).copied().unwrap_or(Some(0.0)), unit);
    }
}

// ---------------------------------------------------------------------------
// Detect: planted-bug programs graded against the model oracle
// ---------------------------------------------------------------------------

/// Program `i` of the run: planted from the generator's default envelope,
/// or the control program, the same envelope with nothing planted.
fn detect_program(seed: u64, i: u64, planted: bool) -> GeneratedProgram {
    let config = if planted {
        GenConfig::default()
    } else {
        GenConfig {
            deadlock_percent: 0,
            omitted_percent: 0,
            ..GenConfig::default()
        }
    };
    generate(program_seed(seed, i), &config)
}

/// Whether the runtime's verdict matches the oracle: every planted bug
/// detected, no alarm the oracle cannot justify.
fn graded_ok(gp: &GeneratedProgram, v: &ProgramVerdict) -> bool {
    v.false_alarms == 0
        && v.deadlock_detected == gp.has_deadlock()
        && v.omitted_detected == gp.has_omitted()
}

/// One program run through `run_program`: its grade and figures only, so
/// that the run's event logs are freed as soon as it returns.
struct Program {
    /// Graded correct against the oracle.
    ok: bool,
    wall_ms: f64,
    /// `None` when `run_program` panicked.
    verdict: Option<ProgramVerdict>,
    deadlock_latency_ns: Option<u64>,
}

/// Runs one program on a fresh verified runtime, timing the call.
fn detect_op(gp: &GeneratedProgram) -> Program {
    let t = Instant::now();
    let run = catch_unwind(AssertUnwindSafe(|| {
        span(Layer::RunProgram, || run_program(gp, None))
    }))
    .ok();
    let wall_ms = ms(t.elapsed());
    let verdict = run.as_ref().map(|r| r.verdict.clone());
    Program {
        ok: verdict.as_ref().is_some_and(|v| graded_ok(gp, v)),
        wall_ms,
        verdict,
        deadlock_latency_ns: run.and_then(|r| r.deadlock_latency_ns),
    }
}

/// Programs `first..first + DETECT_BLOCK`, planted or control.
fn detect_programs(seed: u64, first: u64, planted: bool) -> Vec<GeneratedProgram> {
    (first..first + DETECT_BLOCK)
        .map(|i| detect_program(seed, i, planted))
        .collect()
}

/// Runs a block of programs; returns each program's outcome and, when
/// `sample_heap`, the block's mean live heap in MB, less the live heap
/// before the block started (the generated programs and the benchmark's own
/// samples).
fn detect_block(programs: &[GeneratedProgram], sample_heap: bool) -> (Vec<Program>, Option<f64>) {
    let mut outcomes = Vec::with_capacity(programs.len());
    let held = live_bytes();
    let sampler = sample_heap.then(|| MemorySampler::start(HEAP_SAMPLE));
    outcomes.extend(programs.iter().map(detect_op));
    let heap_mb = sampler.map(|s| mb(s.stop().average_bytes - held));
    (outcomes, heap_mb)
}

/// Set-up: generate and run the first block of programs, planted and
/// control, as the warm-up; `run_program` builds the first runtimes.  Every
/// program is an op, checked and counted.
fn detect_setup(args: &Args, first: u64) -> Setup {
    let t = Instant::now();
    let mut setup = Setup {
        secs: 0.0,
        attempted: 0,
        failed: 0,
    };
    for planted in [true, false] {
        for p in detect_block(&detect_programs(args.seed, first, planted), false).0 {
            setup.attempted += 1;
            setup.failed += u64::from(!p.ok);
        }
    }
    setup.secs = t.elapsed().as_secs_f64();
    setup
}

fn detect_params(seed: u64) -> String {
    let p = GenConfig::default();
    format!(
        "{{\"seed\":{seed},\"min_tasks\":{},\"max_tasks\":{},\"max_extra_promises\":{},\
         \"deadlock_percent\":{},\"omitted_percent\":{},\"block\":{DETECT_BLOCK},\
         \"programs_per_part\":{DETECT_PROGRAMS}}}",
        p.min_tasks, p.max_tasks, p.max_extra_promises, p.deadlock_percent, p.omitted_percent
    )
}

/// One part of an untraced `detect` run: its cold set-up, then the part's
/// own fixed set of programs (part `i` has programs `i * DETECT_PROGRAMS..`)
/// run over and over, in blocks of control and planted programs with the
/// same indices, for the part's share of the run.  A program's timed sample
/// is its fastest run: a run that other processes on a shared host slowed
/// down is outvoted by one, up to seconds later, that they did not.
fn detect_part(args: &Args, i: u64) -> Part {
    let first = i * DETECT_PROGRAMS;
    let setup = detect_setup(args, first);
    let mut part = Part {
        setup_s: setup.secs,
        attempted: setup.attempted,
        failed: setup.failed,
        ..Part::default()
    };
    let n = DETECT_PROGRAMS as usize;
    let sides = [false, true].map(|planted| {
        (first..first + DETECT_PROGRAMS)
            .map(|i| detect_program(args.seed, i, planted))
            .collect::<Vec<_>>()
    });
    // Per side and program: whether every run was graded correct, and the
    // fastest timed run's wall time.
    let mut best = [(); 2].map(|()| vec![(true, f64::INFINITY); n]);
    let start = Instant::now();
    let (mut round, mut block) = (0u64, 0u64);
    'run: loop {
        for lo in (0..n).step_by(DETECT_BLOCK as usize) {
            if !keep_going(start, part_slice(args), true) {
                break 'run;
            }
            // A round holds a multiple of eight blocks, so shifting by the
            // round rotates which blocks are heap-sampled and which side
            // runs first.
            let turn = block + round;
            block += 1;
            let sampled = heap_pair(turn);
            let warm = start.elapsed() >= WARMUP;
            let range = lo..lo + DETECT_BLOCK as usize;
            let mut heap = [None, None];
            let mut block_ok = true;
            let planted_first = turn % 2 == 1;
            for planted in [planted_first, !planted_first] {
                let side = usize::from(planted);
                let (outcomes, h) = detect_block(&sides[side][range.clone()], sampled);
                heap[side] = h;
                for (b, p) in best[side][range.clone()].iter_mut().zip(outcomes) {
                    part.attempted += 1;
                    part.failed += u64::from(!p.ok);
                    block_ok &= p.ok;
                    b.0 &= p.ok;
                    if let Some(v) = &p.verdict {
                        part.misses += u64::from(v.deadlock_planted && !v.deadlock_detected)
                            + u64::from(v.omitted_planted && !v.omitted_detected);
                        part.false_alarms += v.false_alarms;
                    }
                    if !warm || sampled {
                        continue;
                    }
                    b.1 = b.1.min(p.wall_ms);
                    if p.ok && planted {
                        part.latencies_us
                            .extend(p.deadlock_latency_ns.map(|ns| ns as f64 / 1e3));
                        part.planted_runs += 1;
                        part.planted_ms += p.wall_ms;
                    }
                }
            }
            if let (Some(c), Some(p), true) = (heap[0], heap[1], block_ok && warm) {
                part.base_heap.push(c);
                part.ver_heap.push(p);
            }
        }
        round += 1;
    }
    let [control, planted] = best;
    for (c, p) in control.into_iter().zip(planted) {
        if c.0 && p.0 && c.1.is_finite() && p.1.is_finite() {
            part.base.push(c.1);
            part.ver.push(p.1);
        }
    }
    part
}

fn detect_traced(args: &Args) -> Run {
    let setup = detect_setup(args, 0);
    let mut run = Run {
        params: detect_params(args.seed),
        attempted: setup.attempted,
        failed: setup.failed,
        ..Run::default()
    };
    // Each cycle: the control program, the planted program untraced and
    // traced (rotating order), and a probe build and shutdown of a runtime
    // configured like the one `run_program` builds.
    let mut walls: [Vec<f64>; 3] = Default::default();
    let (mut build, mut shutdown, mut allocs, mut alloc_mb) = (vec![], vec![], vec![], vec![]);
    let (mut deadlocks, mut omitted, mut latencies_us) = (vec![], vec![], vec![]);
    let mut spans = SpanTotals::default();
    let start = Instant::now();
    let mut i = 0u64;
    while keep_going(
        start,
        secs(args),
        walls[0].len() >= MIN_TRACE_CYCLES && latencies_us.len() >= samples_for(0.99),
    ) {
        let control = detect_program(args.seed, i, false);
        let planted = detect_program(args.seed, i, true);
        let mut results: [Option<Program>; 3] = Default::default();
        for j in 0..3 {
            let slot = (i as usize + j) % 3;
            results[slot] = Some(match slot {
                0 => detect_op(&control),
                1 => {
                    let before = AllocStats::snapshot();
                    let p = detect_op(&planted);
                    let after = AllocStats::snapshot();
                    allocs.push((after.total_allocations - before.total_allocations) as f64);
                    alloc_mb.push(mb((after.total_allocated - before.total_allocated) as f64));
                    if let Some(v) = p.verdict.as_ref().filter(|_| p.ok) {
                        deadlocks.push(f64::from(u8::from(v.deadlock_detected)));
                        omitted.push(f64::from(u8::from(v.omitted_detected)));
                        latencies_us.extend(p.deadlock_latency_ns.map(|ns| ns as f64 / 1e3));
                    }
                    p
                }
                _ => {
                    let p = traced(i as usize, || {
                        let gp = span(Layer::Generate, || detect_program(args.seed, i, true));
                        detect_op(&gp)
                    });
                    spans.add_spans();
                    p
                }
            });
        }
        let t = Instant::now();
        let rt = Runtime::builder().event_log(true).build();
        build.push(ms(t.elapsed()));
        let t = Instant::now();
        rt.shutdown();
        shutdown.push(ms(t.elapsed()));
        i += 1;
        let results = results.map(|r| r.expect("every slot ran"));
        run.attempted += 3;
        let failures = results.iter().filter(|p| !p.ok).count() as u64;
        run.failed += failures;
        if failures == 0 {
            for (w, p) in walls.iter_mut().zip(results) {
                w.push(p.wall_ms);
            }
        }
    }
    let us = |layer| spans.per_call_ns(layer).map(|ns| ns / 1e3);
    let figures = vec![
        ("detector.deadlocks", mean(&deadlocks)),
        ("detector.omitted_sets", mean(&omitted)),
        ("detector.latency_p50_us", median(&latencies_us)),
        ("detector.latency_p99_us", percentile(&latencies_us, 0.99)),
        (
            "verified.delta_ms",
            paired_delta_median(&walls[1], &walls[0]),
        ),
        ("alloc.count", median(&allocs)),
        ("alloc.mb", median(&alloc_mb)),
        ("runtime.build_ms", median(&build)),
        ("runtime.shutdown_ms", median(&shutdown)),
        ("model.generate_us", us(Layer::Generate)),
        ("model.run_program_us", us(Layer::RunProgram)),
        (
            "trace.overhead_x",
            paired_ratio_median(&walls[2], &walls[1]),
        ),
    ];
    push_per_layer(&mut run, figures);
    run
}

fn mean(v: &[f64]) -> Option<f64> {
    (!v.is_empty()).then(|| v.iter().sum::<f64>() / v.len() as f64)
}
