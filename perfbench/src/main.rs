//! The repository benchmark. One command runs one workload:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload join|serve|routed --seed N --seconds S --trace 0|1
//! ```
//!
//! Every workload builds the census-blocks index (39,184 polygons) at
//! 15 m, drives it with taxi-like points from the seed, checks each
//! answer against an offline oracle before it keeps a time, and prints
//! every metric by name with its unit. The last stdout line is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//!
//! `--trace 0` reports the end-to-end metrics with tracing and server
//! observability off. `--trace 1` is the traced run: it times the calls
//! into each layer from this crate's code, keeps the spans in memory,
//! writes them and each layer's self time under `.perfbench_work/traces/`
//! when the run ends, and reports the per-layer metrics.
//!
//! The run itself (set-ups, oracle, measured phases, trace and report)
//! is shared; each workload supplies a [`Bench`].

mod host;
mod inputs;
mod join;
mod layers;
mod tcp;
mod trace;

use act_core::ActIndex;
use inputs::{guarantee_violations, Expected, Inputs, PRECISION_M};
use layers::{LayerMetrics, SetupDone};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{Trace, Tracer, ROOT};

/// Set-ups per end-to-end run; `setup_s` is their median, so one set-up
/// slowed by a burst of host noise does not move it.
pub const SETUPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Join,
    Serve,
    Routed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "join" => Workload::Join,
            "serve" => Workload::Serve,
            "routed" => Workload::Routed,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Join => "join",
            Workload::Serve => "serve",
            Workload::Routed => "routed",
        }
    }
}

/// What a workload supplies to the shared run: the set-up steps after
/// the index build, its closed loop, and the per-layer figures only it
/// can take.
pub trait Bench: Sized {
    /// The rest of one set-up once `index` is built: snapshot write or
    /// shard split, server spawn, warm-up.
    fn setup(
        workload: Workload,
        index: ActIndex,
        inputs: &Inputs,
        work: &WorkDir,
        tr: &mut Option<Tracer>,
    ) -> Result<Self, String>;

    fn index(&self) -> &ActIndex;

    /// The files the set-up wrote (synced outside its time) and the
    /// set-up layers the replay need not run again.
    fn written(&self) -> SetupDone;

    /// One line on the workload's shape.
    fn describe(&self, inputs: &Inputs) -> String;

    /// One closed-loop phase of `secs`, each answer checked against
    /// `expected`. With `origin`, the phase is traced: spans are kept
    /// against it and returned.
    fn measure(
        &mut self,
        inputs: &Inputs,
        expected: &Expected,
        secs: f64,
        origin: Option<Instant>,
    ) -> Result<(Measured, Vec<Tracer>), String>;

    /// Fills the per-layer figures taken during the traced phase;
    /// `trace` holds that phase's spans.
    fn fill_layers(&self, _lm: &mut LayerMetrics, _trace: &Trace) {}

    /// Stops the workload's servers and hands back the index.
    fn finish(self) -> ActIndex;
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: run one set-up, print its time and exit (see
    /// [`child_setups`]).
    setup_only: bool,
}

const USAGE: &str =
    "usage: perfbench --workload join|serve|routed --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut setup_only = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0)
                        .ok_or("--seconds expects a positive number")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            "--setup-only" => setup_only = value == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        setup_only,
    })
}

/// What one run reports.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Context printed above the metrics (counts, sample sizes).
    pub notes: Vec<String>,
}

/// Windows an end-to-end phase is cut into. The host's speed is taken
/// between windows, and each end-to-end figure is the median over the
/// windows, so a burst of host noise that covers fewer than half of
/// them does not move it.
pub const WINDOWS: usize = 10;

/// The host-speed measurement between two windows.
const REFERENCE_TIME: Duration = Duration::from_millis(200);
/// The host-speed measurement before and after each set-up.
const SETUP_REFERENCE_TIME: Duration = Duration::from_millis(400);

/// One measured phase: closed-loop requests (frames, or join calls) and
/// their client-observed latencies.
#[derive(Default)]
pub struct Measured {
    pub secs: f64,
    pub attempted: u64,
    /// Requests failed, shed, timed out or answered wrong.
    pub failed: u64,
    /// Per confirmed request: latency (ns) and points.
    pub done: Vec<(u64, u32)>,
}

/// A phase's figures.
pub struct Summary {
    pub points_per_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub requests: usize,
    /// Samples beyond the p99.
    pub beyond_p99: usize,
}

impl Measured {
    pub fn absorb(&mut self, other: Measured) {
        self.secs = self.secs.max(other.secs);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.done.extend(other.done);
    }

    /// Keeps a request the oracle confirmed.
    pub fn confirm(&mut self, points: usize, lat_ns: u64) {
        self.done.push((lat_ns, points as u32));
    }

    pub fn summary(&self) -> Summary {
        let mut lats: Vec<u64> = self.done.iter().map(|&(lat, _)| lat).collect();
        lats.sort_unstable();
        let points: u64 = self.done.iter().map(|&(_, p)| u64::from(p)).sum();
        Summary {
            points_per_s: points as f64 / self.secs,
            p50_us: quantile(&lats, 0.50) / 1e3,
            p99_us: quantile(&lats, 0.99) / 1e3,
            requests: lats.len(),
            beyond_p99: lats.len() - (lats.len() as f64 * 0.99).ceil() as usize,
        }
    }
}

/// Nearest-rank quantile of sorted samples.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx] as f64
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Hardware threads: build width, server workers and client connections.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// VmHWM of this process in MB (the servers run in-process).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Steal and total CPU ticks so far, from the first line of
/// `/proc/stat`: on a shared VM, the share of CPU time the host gave to
/// others explains a slow run.
fn cpu_steal() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// The set-up times of `SETUPS - 1` fresh processes, each running this
/// workload's set-up alone, one after another, at the reference speed.
/// The measuring process then sets up once more itself, so its peak RSS
/// covers exactly one set-up. The traced run sets up once and spawns
/// none.
fn child_setups(args: &Args) -> Result<Vec<f64>, String> {
    if args.trace {
        return Ok(Vec::new());
    }
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    (1..SETUPS)
        .map(|_| {
            let out = std::process::Command::new(&exe)
                .args([
                    "--workload",
                    args.workload.name(),
                    "--seed",
                    &args.seed.to_string(),
                ])
                .args(["--seconds", "1", "--trace", "0", "--setup-only", "1"])
                .stderr(std::process::Stdio::inherit())
                .output()
                .map_err(|e| format!("spawn set-up process: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            match text.trim().parse::<f64>() {
                Ok(secs) if out.status.success() => Ok(secs),
                _ => Err(format!("set-up process failed ({}): {text}", out.status)),
            }
        })
        .collect()
}

/// Times `f` as a root-level span when tracing, else just runs it.
pub fn timed<R>(
    tr: &mut Option<Tracer>,
    name: &'static str,
    work: u64,
    f: impl FnOnce() -> R,
) -> R {
    match tr {
        Some(t) => t.time(name, ROOT, 0, work, f),
        None => f(),
    }
}

/// Writes `index` as a snapshot at `path`.
pub fn write_snapshot(index: &ActIndex, path: &Path) -> Result<(), String> {
    let write = || -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        index.save_snapshot(&mut f).map_err(std::io::Error::other)?;
        f.into_inner().map_err(|e| e.into_error())?;
        Ok(())
    };
    write().map_err(|e| format!("snapshot write {}: {e}", path.display()))
}

/// [`act_core::write_shard_files`] at the level-10 split, one shard per
/// hardware thread.
pub fn write_shards(index: &ActIndex, dir: &Path) -> Result<Vec<PathBuf>, String> {
    act_core::write_shard_files(index, dir, layers::SPLIT_LEVEL, nproc())
        .map_err(|e| format!("shard split: {e}"))
}

/// Syncs the files a set-up wrote, after its time is taken, so their
/// write-back is paid neither in `setup_s` (it is the disk's speed, not
/// the program's) nor during a measured phase.
fn sync_files(paths: &[PathBuf]) -> Result<(), String> {
    for p in paths {
        std::fs::File::open(p)
            .and_then(|f| f.sync_all())
            .map_err(|e| format!("sync {}: {e}", p.display()))?;
    }
    Ok(())
}

/// When a phase of `secs` that began at `start` ends.
pub fn deadline(start: Instant, secs: f64) -> Instant {
    start + Duration::from_secs_f64(secs)
}

/// The run's scratch directory inside the checkout, removed on drop;
/// traces go to the shared `traces/` sibling and stay.
pub struct WorkDir {
    root: PathBuf,
    dir: PathBuf,
}

impl WorkDir {
    fn create(workload: Workload) -> std::io::Result<WorkDir> {
        let root = PathBuf::from(".perfbench_work");
        let dir = root.join(format!("{}-{}", workload.name(), std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir { root, dir })
    }

    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    fn trace_path(&self, name: &str) -> std::io::Result<PathBuf> {
        let dir = self.root.join("traces");
        std::fs::create_dir_all(&dir)?;
        Ok(dir.join(name))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One set-up: the index build (nproc threads), then the workload's
/// own steps. Returns the workload and the set-up's time; with a
/// reference, the time is at the reference speed, taken just before and
/// just after the set-up.
fn set_up<B: Bench>(
    args: &Args,
    inputs: &Inputs,
    work: &WorkDir,
    tr: &mut Option<Tracer>,
    reference: Option<&host::Reference>,
) -> Result<(B, f64), String> {
    let pool = jobs::JobPool::new(nproc());
    let before = reference.map(|r| r.measure(SETUP_REFERENCE_TIME));
    let t = Instant::now();
    let index = timed(tr, "core.build", inputs.ds.polygons.len() as u64, || {
        ActIndex::build_parallel(&inputs.ds.polygons, PRECISION_M, &pool)
    })
    .map_err(|e| format!("build: {e:?}"))?;
    let bench = B::setup(args.workload, index, inputs, work, tr)?;
    let mut secs = t.elapsed().as_secs_f64();
    if let (Some(r), Some(before)) = (reference, before) {
        secs *= host::factor(&[before, r.measure(SETUP_REFERENCE_TIME)]);
    }
    sync_files(&bench.written().files)?;
    Ok((bench, secs))
}

fn setup_only<B: Bench>(args: &Args, work: &WorkDir) -> Result<f64, String> {
    let reference = host::Reference::new(nproc());
    let inputs = Inputs::new(args.seed);
    let (bench, secs) = set_up::<B>(args, &inputs, work, &mut None, Some(&reference))?;
    bench.finish();
    Ok(secs)
}

/// One window's figures and the host's speed factor beside it.
struct Window {
    summary: Summary,
    factor: f64,
}

/// The end-to-end phase: [`WINDOWS`] closed-loop windows of equal
/// length, the host's speed taken before the first and after each.
/// Returns the whole phase and each window.
fn measure_windows<B: Bench>(
    bench: &mut B,
    inputs: &Inputs,
    expected: &Expected,
    secs: f64,
    reference: &host::Reference,
) -> Result<(Measured, Vec<Window>), String> {
    let mut phase = Measured::default();
    let mut windows = Vec::with_capacity(WINDOWS);
    let mut before = reference.measure(REFERENCE_TIME);
    for _ in 0..WINDOWS {
        let (m, _) = bench.measure(inputs, expected, secs / WINDOWS as f64, None)?;
        let after = reference.measure(REFERENCE_TIME);
        windows.push(Window {
            summary: m.summary(),
            factor: host::factor(&[before, after]),
        });
        phase.secs += m.secs;
        phase.attempted += m.attempted;
        phase.failed += m.failed;
        phase.done.extend(m.done);
        before = after;
    }
    Ok((phase, windows))
}

/// One run: set-ups, oracle, then either the end-to-end phase or the
/// traced run (an untraced half, a traced half, the layer replay). The
/// end-to-end run states its times and rates at the reference speed
/// (see [`host`]); the traced run reports them as measured.
fn run<B: Bench>(args: &Args, work: &WorkDir) -> Result<Report, String> {
    let mut setup_secs = child_setups(args)?;
    let reference = (!args.trace).then(|| host::Reference::new(nproc()));
    let inputs = Inputs::new(args.seed);
    let origin = Instant::now();
    let mut tr = args.trace.then(|| Tracer::new(origin));
    let (mut bench, secs) = set_up::<B>(args, &inputs, work, &mut tr, reference.as_ref())?;
    setup_secs.push(secs);
    let expected = Expected::from_coords(&bench.index().as_view(), &inputs.points);
    let violations = guarantee_violations(&inputs.ds, &inputs.points, &expected, args.seed);
    let mut notes = vec![bench.describe(&inputs)];

    if let Some(reference) = &reference {
        let steal = cpu_steal();
        let (m, windows) =
            measure_windows(&mut bench, &inputs, &expected, args.seconds, reference)?;
        let steal = steal
            .zip(cpu_steal())
            .map_or("unknown".into(), |((s0, t0), (s1, t1))| {
                format!(
                    "{:.1} %",
                    100.0 * (s1 - s0) as f64 / (t1 - t0).max(1) as f64
                )
            });
        let rss = peak_rss_mb();
        bench.finish();
        let across =
            |f: &dyn Fn(&Window) -> f64| median(&windows.iter().map(f).collect::<Vec<_>>());
        let points_per_s = across(&|w| w.summary.points_per_s / w.factor);
        let p50_us = across(&|w| w.summary.p50_us * w.factor);
        let s = m.summary();
        notes.push(format!(
            "{} requests confirmed over {:.2} s in {WINDOWS} windows; frame p99 {:.1} us with {} \
             beyond it; set-ups at the reference speed {setup_secs:?} s; host CPU steal during \
             the phase {steal}",
            s.requests, m.secs, s.p99_us, s.beyond_p99
        ));
        notes.push(format!(
            "host speed over the windows {:.4} (median; min {:.4}, max {:.4}) x the reference; as \
             measured: points_per_s {:.0}, frame_p50_us {:.3} (medians over the windows)",
            across(&|w| w.factor),
            windows
                .iter()
                .map(|w| w.factor)
                .fold(f64::INFINITY, f64::min),
            windows.iter().map(|w| w.factor).fold(0.0, f64::max),
            across(&|w| w.summary.points_per_s),
            across(&|w| w.summary.p50_us),
        ));
        notes.push(format!("guarantee sample violations {violations}"));
        return Ok(Report {
            correct: m.failed == 0 && violations == 0,
            attempted: m.attempted,
            failed: m.failed + violations,
            metrics: vec![
                ("points_per_s", points_per_s, "points/s"),
                ("frame_p50_us", p50_us, "us"),
                ("setup_s", median(&setup_secs), "s"),
                ("peak_rss_mb", rss, "MB"),
            ],
            notes,
        });
    }

    let mut tracer = tr.take().expect("traced run");
    let (untraced, _) = bench.measure(&inputs, &expected, args.seconds / 2.0, None)?;
    let (traced, phase_tracers) =
        bench.measure(&inputs, &expected, args.seconds / 2.0, Some(origin))?;
    let mut trace = Trace::default();
    phase_tracers.into_iter().for_each(|t| trace.merge(t));
    let mut lm = LayerMetrics::default();
    bench.fill_layers(&mut lm, &trace);
    let done = bench.written();
    let mut index = bench.finish();
    layers::replay(&mut tracer, &mut lm, &mut index, &inputs, &done, work)?;
    trace.merge(tracer);
    let baseline = untraced.summary();
    lm.frame_p99_us = baseline.p99_us;
    lm.overhead_frac = 1.0 - traced.summary().points_per_s / baseline.points_per_s;
    write_trace(work, args, &trace, &mut notes)?;
    notes.push(format!("guarantee sample violations {violations}"));
    let failed = untraced.failed + traced.failed + violations;
    Ok(Report {
        correct: failed == 0,
        attempted: untraced.attempted + traced.attempted,
        failed,
        metrics: lm.metrics(&trace.layers()),
        notes,
    })
}

/// Writes the merged spans and per-layer self times of a traced run.
fn write_trace(
    work: &WorkDir,
    args: &Args,
    trace: &Trace,
    notes: &mut Vec<String>,
) -> Result<(), String> {
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let spans = work
        .trace_path(&format!("{stem}.spans.tsv"))
        .map_err(|e| e.to_string())?;
    let layers = work
        .trace_path(&format!("{stem}.layers.json"))
        .map_err(|e| e.to_string())?;
    trace
        .write(&spans, &layers)
        .map_err(|e| format!("write trace: {e}"))?;
    notes.push(format!(
        "trace: {} spans -> {}, self times -> {}",
        trace.len(),
        spans.display(),
        layers.display()
    ));
    Ok(())
}

fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

fn print_report(args: &Args, r: &Report) -> Result<(), String> {
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        nproc()
    );
    for n in &r.notes {
        println!("# {n}");
    }
    println!(
        "# oracle: {} ({} attempted, {} failed)",
        if r.correct { "correct" } else { "WRONG" },
        r.attempted,
        r.failed
    );
    let mut fields = Vec::new();
    for &(name, value, unit) in &r.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not a finite number ({value})"));
        }
        println!("{name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct,
        r.attempted.max(1),
        r.failed,
        fields.join(", ")
    );
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Built from the checkout's sources: without them there is nothing
    // to measure.
    let result = if !Path::new("crates/core/src/lib.rs").exists() {
        Err("run from the repository root".to_string())
    } else {
        WorkDir::create(args.workload)
            .map_err(|e| format!("work dir: {e}"))
            .and_then(|work| {
                if args.setup_only {
                    let secs = match args.workload {
                        Workload::Join => setup_only::<join::Join>(&args, &work)?,
                        Workload::Serve | Workload::Routed => setup_only::<tcp::Tcp>(&args, &work)?,
                    };
                    println!("{secs}");
                    return Ok(());
                }
                let report = match args.workload {
                    Workload::Join => run::<join::Join>(&args, &work)?,
                    Workload::Serve | Workload::Routed => run::<tcp::Tcp>(&args, &work)?,
                };
                print_report(&args, &report)
            })
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
