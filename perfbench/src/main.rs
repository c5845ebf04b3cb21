//! The repository's benchmark: one workload per run, closed loop (one
//! client thread, one outstanding request), driving the program only
//! through its public entry points.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paris-batch --seed 1 --seconds 60 --trace 0
//! ```
//!
//! The last stdout line is the result: `{"correct", "attempted",
//! "failed", "metrics"}` with the end-to-end metrics (`--trace 0`) or
//! the per-layer metrics (`--trace 1`) named in `BENCHMARK.json`. The
//! line before it records the host and the sizes actually used. The
//! process exits nonzero when a correctness check fails. See
//! `perfbench/README.md` for the workloads and metrics.

mod layers;
mod pass;
mod stats;
mod world;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use serde_json::{json, Map, Value};
use socsense_core::{MetricsSnapshot, Obs, Parallelism};

use crate::pass::{Answer, StreamOut};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::world::{Size, Spec, Tier, World, WORKLOADS};

/// Set-up repetitions: at least `SETUP_MIN_REPS`, then more until
/// `SETUP_MIN_S` is spent (at most `SETUP_MAX_REPS`); `setup_s` is their
/// median.
const SETUP_MIN_REPS: usize = 7;
const SETUP_MAX_REPS: usize = 50;
const SETUP_MIN_S: f64 = 3.0;

/// Units of each phase every run makes at least (pairs of passes in a
/// traced run).
const MIN_UNITS: usize = 2;

/// Share of `--seconds` a traced run leaves for the per-layer timings.
const LAYER_SHARE: f64 = 0.15;

/// Router shards of the tier (the host this benchmark was sized on has
/// two cores; see README).
const SHARDS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 30.0,
        trace: false,
        size: Size::Full,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--size" => {
                args.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err(format!("--workload is required: one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// Timing samples of one world, from untraced or from traced passes
/// (answer worlds fill the answer and bound samples, stream worlds the
/// rest).
#[derive(Default)]
struct Samples {
    fit_s: Vec<f64>,
    bound_s: Vec<f64>,
    /// Per stream: ack-latency and read-latency quantiles.
    ingest_p50_s: Vec<f64>,
    ingest_p90_s: Vec<f64>,
    query_p50_s: Vec<f64>,
    query_p99_s: Vec<f64>,
    claims_per_s: Vec<f64>,
    recovery_s: Vec<f64>,
    stream_s: Vec<f64>,
}

/// One world of a run with its samples and determinism references.
struct WorldRun {
    world: World,
    untraced: Samples,
    traced: Samples,
    /// The latest answer (bit-identical to every earlier one).
    answer: Option<Answer>,
    /// The first answer's ranking and the first bound's bits; every
    /// later answer and bound on this world must match them.
    ranked: Option<Vec<(u32, u64)>>,
    bound: Option<[u64; 3]>,
}

/// One stream world of a run with its samples.
struct TierRun {
    tier: Tier,
    untraced: Samples,
    traced: Samples,
}

fn pick<'a>(
    untraced: &'a mut Samples,
    traced: &'a mut Samples,
    is_traced: bool,
) -> &'a mut Samples {
    if is_traced {
        traced
    } else {
        untraced
    }
}

/// The last traced pass, kept whole for the per-layer timings.
struct TracedPass {
    world: usize,
    tier: usize,
    fit_s: f64,
    batch_metrics: MetricsSnapshot,
    stream: StreamOut,
    bound_s: f64,
}

/// What a run measured, before it is turned into metrics.
struct Run {
    worlds: Vec<WorldRun>,
    tiers: Vec<TierRun>,
    setup_s: Vec<f64>,
    simulate_s: Vec<f64>,
    passes: usize,
    traced_passes: usize,
    last_traced: Option<TracedPass>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

/// Stores the first value seen in `reference`; reports whether a later
/// one differs from it.
fn differs<T: Clone + PartialEq>(reference: &mut Option<T>, value: &T) -> bool {
    match reference {
        None => {
            *reference = Some(value.clone());
            false
        }
        Some(r) => r != value,
    }
}

/// Set-up: generate every world of the run and spawn the tier over an
/// empty directory. Repeated for the `setup_s` samples; the last
/// repetition's worlds are kept.
fn set_up(spec: &Spec, seed: u64, dir: &Path) -> Result<Run, String> {
    let mut run = Run {
        worlds: Vec::new(),
        tiers: Vec::new(),
        setup_s: Vec::new(),
        simulate_s: Vec::new(),
        passes: 0,
        traced_passes: 0,
        last_traced: None,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
    };
    let started = Instant::now();
    while run.setup_s.len() < SETUP_MIN_REPS
        || (started.elapsed().as_secs_f64() < SETUP_MIN_S && run.setup_s.len() < SETUP_MAX_REPS)
    {
        let t = Instant::now();
        let worlds: Vec<World> = (0..spec.worlds)
            .map(|k| World::generate(spec, seed, k))
            .collect();
        run.simulate_s
            .push(t.elapsed().as_secs_f64() / spec.worlds as f64);
        let tiers: Vec<Tier> = (0..spec.tiers)
            .map(|k| Tier::generate(spec, seed, k))
            .collect();
        let svc = pass::spawn(&tiers[0], &dir.join("setup"), SHARDS, Obs::none())?;
        run.setup_s.push(t.elapsed().as_secs_f64());
        svc.shutdown().map_err(|e| format!("setup shutdown: {e}"))?;
        let _ = std::fs::remove_dir_all(dir.join("setup"));
        run.worlds = worlds
            .into_iter()
            .map(|world| WorldRun {
                world,
                untraced: Samples::default(),
                traced: Samples::default(),
                answer: None,
                ranked: None,
                bound: None,
            })
            .collect();
        run.tiers = tiers
            .into_iter()
            .map(|tier| TierRun {
                tier,
                untraced: Samples::default(),
                traced: Samples::default(),
            })
            .collect();
    }
    Ok(run)
}

/// The phases a run measures, in `Spec::shares` order.
const PHASES: usize = 3;
const FIT: usize = 0;
const BOUND: usize = 1;
const STREAM: usize = 2;

impl Run {
    /// Untraced or traced samples of every answer and stream world.
    fn samples(&self, traced: bool) -> impl Iterator<Item = &Samples> {
        let worlds = self
            .worlds
            .iter()
            .map(move |w| if traced { &w.traced } else { &w.untraced });
        let tiers = self
            .tiers
            .iter()
            .map(move |t| if traced { &t.traced } else { &t.untraced });
        worlds.chain(tiers)
    }

    /// Untraced samples of one kind over all worlds.
    fn count(&self, f: fn(&Samples) -> &Vec<f64>) -> usize {
        self.samples(false).map(|s| f(s).len()).sum()
    }

    /// One answer on world `j`: claim log to ranked top-100.
    fn fit(&mut self, j: usize, par: Parallelism, obs: &Obs, traced: bool) -> Result<(), String> {
        let w = &mut self.worlds[j];
        self.attempted += 1;
        let answer = pass::answer(&w.world, par, obs)?;
        pick(&mut w.untraced, &mut w.traced, traced)
            .fit_s
            .push(answer.fit_s);
        if differs(&mut w.ranked, &answer.ranked) {
            self.problems.push(format!(
                "world {j}: ranked top-{} differs between fits",
                pass::TOP
            ));
        }
        w.answer = Some(answer);
        Ok(())
    }

    /// One bound over world `j`'s top-K (the world has an answer).
    fn bound(
        &mut self,
        j: usize,
        spec: &Spec,
        par: Parallelism,
        obs: &Obs,
        traced: bool,
    ) -> Result<f64, String> {
        let w = &mut self.worlds[j];
        let answer = w.answer.as_ref().ok_or("bound before an answer")?;
        self.attempted += 1;
        let (secs, bits) = pass::bound(answer, spec.bound_k, par, obs)?;
        pick(&mut w.untraced, &mut w.traced, traced)
            .bound_s
            .push(secs);
        if differs(&mut w.bound, &bits) {
            self.problems
                .push(format!("world {j}: bound bits differ between evaluations"));
        }
        Ok(secs)
    }

    /// Stream world `j` replayed through a fresh tier and restarted; its
    /// statistics go to the world's samples.
    fn stream(
        &mut self,
        j: usize,
        spec: &Spec,
        dir: &Path,
        traced: bool,
    ) -> Result<StreamOut, String> {
        let t = &mut self.tiers[j];
        self.attempted += 1;
        let stream = pass::stream(&t.tier, spec, &dir.join("tier"), SHARDS, traced)?;
        self.attempted += stream.ops - 1;
        let s = pick(&mut t.untraced, &mut t.traced, traced);
        s.ingest_p50_s.push(quantile(&stream.ingest_s, 0.5));
        s.ingest_p90_s.push(quantile(&stream.ingest_s, 0.9));
        s.query_p50_s.push(quantile(&stream.query_s, 0.5));
        s.query_p99_s.push(quantile(&stream.query_s, 0.99));
        s.claims_per_s
            .push(stream.tail_claims as f64 / stream.tail_s);
        s.recovery_s.push(stream.recovery_s);
        s.stream_s.push(stream.wall_s);
        Ok(stream)
    }
}

/// An untraced run: one unit at a time (one answer, one bound or one
/// stream), always of the phase furthest below its share of the time
/// spent so far (`Spec::shares`), among those whose mean unit still fits
/// in the budget. Units of a phase cycle through the worlds, so every
/// phase samples the whole run and many worlds.
fn untraced(
    run: &mut Run,
    spec: &Spec,
    par: Parallelism,
    dir: &Path,
    budget: f64,
) -> Result<(), String> {
    let obs = Obs::none();
    let (worlds, tiers) = (run.worlds.len(), run.tiers.len());
    let mut spent = [0.0f64; PHASES];
    let mut units = [0usize; PHASES];
    let started = Instant::now();
    loop {
        let left = budget - started.elapsed().as_secs_f64();
        let warm = units.iter().all(|&u| u >= MIN_UNITS);
        let next = (0..PHASES)
            .filter(|&p| !warm || spent[p] / units[p] as f64 <= left)
            .min_by(|&a, &b| (spent[a] / spec.shares[a]).total_cmp(&(spent[b] / spec.shares[b])));
        let Some(p) = next else { break };
        let t = Instant::now();
        match p {
            FIT => run.fit(units[FIT] % worlds, par, &obs, false)?,
            // Bounds cycle through the worlds answered so far.
            BOUND => {
                run.bound(
                    units[BOUND] % units[FIT].min(worlds),
                    spec,
                    par,
                    &obs,
                    false,
                )?;
            }
            _ => {
                run.stream(units[STREAM] % tiers, spec, dir, false)?;
            }
        }
        spent[p] += t.elapsed().as_secs_f64();
        units[p] += 1;
    }
    Ok(())
}

/// One pass of a traced run: an answer and a bound on answer world
/// `k mod worlds`, a stream of stream world `k mod tiers`. Passes come in
/// pairs, untraced then traced, so the tracing overhead is measured on
/// the same inputs; the last traced pass is kept for the per-layer
/// timings.
fn one_pass(
    run: &mut Run,
    spec: &Spec,
    par: Parallelism,
    dir: &Path,
    k: usize,
    traced: bool,
) -> Result<(), String> {
    let (j, k) = (k % run.worlds.len(), k % run.tiers.len());
    let (obs, rec) = if traced {
        let (obs, rec) = Obs::recorder();
        (obs, Some(rec))
    } else {
        (Obs::none(), None)
    };
    run.fit(j, par, &obs, traced)?;
    let bound_s = run.bound(j, spec, par, &obs, traced)?;
    let batch_metrics = rec.map(|r| r.snapshot());
    let stream = run.stream(k, spec, dir, traced)?;
    if let Some(batch_metrics) = batch_metrics {
        run.traced_passes += 1;
        run.last_traced = Some(TracedPass {
            world: j,
            tier: k,
            fit_s: run.worlds[j]
                .traced
                .fit_s
                .last()
                .copied()
                .unwrap_or(f64::NAN),
            bound_s,
            batch_metrics,
            stream,
        });
    }
    run.passes += 1;
    Ok(())
}

fn traced(
    run: &mut Run,
    spec: &Spec,
    par: Parallelism,
    dir: &Path,
    budget: f64,
) -> Result<(), String> {
    let started = Instant::now();
    loop {
        let p = run.passes;
        one_pass(run, spec, par, dir, p / 2, p % 2 == 1)?;
        let elapsed = started.elapsed().as_secs_f64();
        let per_pair = 2.0 * elapsed / run.passes as f64;
        if run.passes.is_multiple_of(2)
            && run.passes >= 2 * MIN_UNITS
            && elapsed + per_pair > budget
        {
            return Ok(());
        }
    }
}

fn run_passes(args: &Args, spec: &Spec, par: Parallelism, dir: &Path) -> Result<Run, String> {
    let mut run = set_up(spec, args.seed, dir)?;
    let measured = if args.trace {
        traced(&mut run, spec, par, dir, args.seconds * (1.0 - LAYER_SHARE))
    } else {
        untraced(&mut run, spec, par, dir, args.seconds)
    };
    if let Err(e) = measured {
        run.failed += 1;
        run.problems.push(e);
    }
    Ok(run)
}

fn to_line(v: &Value) -> String {
    serde_json::to_string(v).expect("JSON values serialise")
}

fn metric(out: &mut Map, name: &str, value: f64, unit: &str) {
    out.insert(name.into(), json!({"value": value, "unit": unit}));
}

/// Median, over the worlds that have untraced samples, of a per-world
/// statistic.
fn across(run: &Run, stat: impl Fn(&Samples) -> f64) -> f64 {
    let values: Vec<f64> = run
        .samples(false)
        .map(stat)
        .filter(|v| v.is_finite())
        .collect();
    median(&values)
}

fn end_to_end(run: &Run) -> Map {
    let accuracy: Vec<f64> = run
        .worlds
        .iter()
        .filter_map(|w| w.answer.as_ref().map(|a| a.accuracy))
        .collect();
    let attempted = run.attempted as f64;
    let mut m = Map::new();
    metric(&mut m, "setup_s", median(&run.setup_s), "s");
    metric(&mut m, "fit_s", across(run, |s| median(&s.fit_s)), "s");
    metric(&mut m, "bound_s", across(run, |s| median(&s.bound_s)), "s");
    metric(
        &mut m,
        "top100_accuracy",
        accuracy.iter().sum::<f64>() / accuracy.len() as f64,
        "frac",
    );
    metric(
        &mut m,
        "ingest_p50_s",
        across(run, |s| median(&s.ingest_p50_s)),
        "s",
    );
    metric(
        &mut m,
        "ingest_p90_s",
        across(run, |s| median(&s.ingest_p90_s)),
        "s",
    );
    metric(
        &mut m,
        "claims_per_s",
        across(run, |s| median(&s.claims_per_s)),
        "1/s",
    );
    metric(
        &mut m,
        "query_p50_s",
        across(run, |s| median(&s.query_p50_s)),
        "s",
    );
    metric(
        &mut m,
        "recovery_s",
        across(run, |s| median(&s.recovery_s)),
        "s",
    );
    metric(
        &mut m,
        "success_rate",
        (attempted - run.failed as f64) / attempted,
        "frac",
    );
    metric(&mut m, "peak_rss_mb", peak_rss_mb(), "MB");
    m
}

fn per_layer(
    run: &Run,
    spec: &Spec,
    par: Parallelism,
    dir: &Path,
    budget_s: f64,
) -> Result<Map, String> {
    let last = run.last_traced.as_ref().ok_or("no traced pass completed")?;
    let answer = run.worlds[last.world]
        .answer
        .as_ref()
        .ok_or("traced world without an answer")?;
    // Tracing overhead: per phase, the traced minus the untraced median on
    // the same world, averaged over worlds and summed over phases.
    let phases: [fn(&Samples) -> &Vec<f64>; 3] = [|s| &s.fit_s, |s| &s.bound_s, |s| &s.stream_s];
    let overhead = phases
        .iter()
        .map(|f| {
            let both: Vec<f64> = run
                .samples(false)
                .zip(run.samples(true))
                .filter(|(u, t)| !f(u).is_empty() && !f(t).is_empty())
                .map(|(u, t)| median(f(t)) - median(f(u)))
                .collect();
            both.iter().sum::<f64>() / both.len().max(1) as f64
        })
        .sum();
    let traced = layers::Traced {
        world: &run.worlds[last.world].world,
        tier: &run.tiers[last.tier].tier,
        answer,
        batch_metrics: &last.batch_metrics,
        stream: &last.stream,
        pass_s: last.fit_s + last.bound_s + last.stream.wall_s,
        bound_s: last.bound_s,
        overhead_s: overhead,
        simulate_s: median(&run.simulate_s),
        bound_k: spec.bound_k,
    };
    let mut m = Map::new();
    for (name, value, unit) in layers::measure(&traced, par, &dir.join("wal"), budget_s)? {
        metric(&mut m, name, value, unit);
    }
    // The read tail, from the untraced streams of this run. It is not an
    // end-to-end metric: on a shared VM it is set by how long the
    // hypervisor makes a woken vCPU wait (README, "Host and noise").
    metric(
        &mut m,
        "serve.query_p99_s",
        across(run, |s| median(&s.query_p99_s)),
        "s",
    );
    Ok(m)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = Spec::get(&args.workload, args.size) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {WORKLOADS:?}",
            args.workload
        );
        return ExitCode::from(2);
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2);
    let par = Parallelism::Threads(threads);
    let dir = PathBuf::from(".bench_data").join(format!("{}-{}", spec.name, std::process::id()));

    let steal_at_start = stats::steal_s();
    let outcome = run_passes(&args, &spec, par, &dir).and_then(|run| {
        let metrics = if args.trace {
            per_layer(&run, &spec, par, &dir, args.seconds * LAYER_SHARE)?
        } else {
            end_to_end(&run)
        };
        Ok((run, metrics))
    });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir(".bench_data");
    let (run, metrics) = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for p in &run.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let (w, t) = (&run.worlds[0].world, &run.tiers[0].tier);
    let info = json!({
        "workload": spec.name,
        "seed": args.seed,
        "trace": args.trace,
        "size": if args.size == Size::Tiny { "tiny" } else { "full" },
        "scale": spec.scales().0,
        "stream_scale": spec.scales().1,
        "worlds": spec.worlds,
        "stream_worlds": spec.tiers,
        "sources": w.n,
        "assertions": w.m,
        "claims_world0": w.claims.len(),
        "streamed_claims_world0": t.stream.claims(),
        "tail_batches": t.stream.tail.len(),
        "reads_per_batch": spec.reads_per_batch + spec.reads_per_batch.div_ceil(pass::POSTERIORS_PER_TOP_SOURCES),
        "bound_k": spec.bound_k,
        "shards": SHARDS,
        "threads": threads,
        "fits": run.count(|s| &s.fit_s),
        "bounds": run.count(|s| &s.bound_s),
        "streams": run.count(|s| &s.stream_s),
        "traced_passes": run.traced_passes,
        "host": stats::host(),
        "steal_s": ((stats::steal_s() - steal_at_start) * 100.0).round() / 100.0,
    });
    println!("{}", to_line(&json!({ "run": info })));
    let correct = run.problems.is_empty();
    let result = json!({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", to_line(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
