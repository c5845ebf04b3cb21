//! Workload definitions and seeded input generation.
//!
//! A workload draws several *worlds* from its seed: answer worlds
//! (sources, assertions, follow graph, time-ordered claim log, ground
//! truth) and stream worlds, the tier's inputs (an id space and one
//! claim stream). The program under test only ever sees the generated
//! inputs; the seed stays here.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use socsense_graph::{FollowerGraph, TimedClaim};
use socsense_twitter::{ScenarioConfig, TwitterDataset};

/// Input size: `Full` is the measured configuration, `Tiny` a seconds-long
/// smoke configuration used by the benchmark's own test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Where the world comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    /// The Paris Attack preset of the Twitter cascade simulator: the
    /// answer fits the world at `scale`, the tier streams the world
    /// simulated at `stream_scale` from the same seed.
    Paris { scale: f64, stream_scale: f64 },
    /// Disjoint honest/liar topic camps; the tier streams the same world.
    Camps { camps: u32 },
}

/// One workload: its worlds and how they are streamed.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub source: Source,
    /// Worlds one run answers and bounds, each generated from the run's
    /// seed; the batch metrics are medians over these worlds of a
    /// per-world statistic, so one run's figure does not hinge on one
    /// random world.
    pub worlds: usize,
    /// Worlds whose streams one run replays, likewise; the stream
    /// metrics are medians over them.
    pub tiers: usize,
    /// Equal batches the stream tail is split into.
    pub tail_batches: usize,
    /// `posterior` reads after every tail batch, cycling through the
    /// batch's touched assertions (plus one `top_sources` read per 16 of
    /// them).
    pub reads_per_batch: usize,
    /// Top-ranked assertions the Bayes-risk bound covers.
    pub bound_k: usize,
    /// Shares of an untraced run's time given to answers, bounds and
    /// streams.
    pub shares: [f64; 3],
}

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["paris-batch", "camps-stream"];

impl Spec {
    pub fn get(name: &str, size: Size) -> Option<Spec> {
        let tiny = size == Size::Tiny;
        Some(match name {
            "paris-batch" => Spec {
                name: "paris-batch",
                source: Source::Paris {
                    scale: if tiny { 0.02 } else { 1.0 },
                    // Streaming the paper-scale log does not finish in a
                    // run (README, "Pathologies").
                    stream_scale: if tiny { 0.01 } else { 0.02 },
                },
                worlds: if tiny { 2 } else { 4 },
                tiers: if tiny { 2 } else { 16 },
                // Seven batches stay below the tier's first snapshot
                // (seq 8): a WAL-only restart takes half as long, so a
                // run covers more worlds.
                tail_batches: if tiny { 2 } else { 6 },
                reads_per_batch: 256,
                bound_k: if tiny { 1 } else { 2 },
                shares: [0.3, 0.25, 0.45],
            },
            "camps-stream" => Spec {
                name: "camps-stream",
                source: Source::Camps {
                    camps: if tiny { 4 } else { 64 },
                },
                worlds: if tiny { 2 } else { 96 },
                tiers: if tiny { 2 } else { 96 },
                tail_batches: if tiny { 4 } else { 50 },
                reads_per_batch: 64,
                bound_k: if tiny { 1 } else { 4 },
                shares: [0.15, 0.25, 0.6],
            },
            _ => return None,
        })
    }

    /// Scale of the answer's world and of the streamed world.
    pub fn scales(&self) -> (f64, f64) {
        match self.source {
            Source::Paris {
                scale,
                stream_scale,
            } => (scale, stream_scale),
            Source::Camps { .. } => (1.0, 1.0),
        }
    }
}

/// One claim stream for the tier: a prime batch, then the tail batches
/// in arrival order.
pub struct Stream {
    pub prime: Vec<TimedClaim>,
    pub tail: Vec<Vec<TimedClaim>>,
}

impl Stream {
    fn cut(claims: &[TimedClaim], prime_len: usize, batches: usize) -> Stream {
        let rest = &claims[prime_len..];
        let chunk = rest.len().div_ceil(batches).max(1);
        Stream {
            prime: claims[..prime_len].to_vec(),
            tail: rest.chunks(chunk).map(<[TimedClaim]>::to_vec).collect(),
        }
    }

    /// Claims the tier is fed in total.
    pub fn claims(&self) -> usize {
        self.prime.len() + self.tail.iter().map(Vec::len).sum::<usize>()
    }
}

/// What the tier is spawned over and fed.
pub struct Tier {
    pub n: u32,
    pub m: u32,
    pub graph: FollowerGraph,
    pub stream: Stream,
}

/// A generated world: the answer's input.
pub struct World {
    pub n: u32,
    pub m: u32,
    pub graph: FollowerGraph,
    /// The whole claim log, time-ordered.
    pub claims: Vec<TimedClaim>,
    /// Ground truth per assertion.
    pub truth: Vec<bool>,
    /// The Twitter dataset behind Paris worlds (`Apollo::run` input).
    pub dataset: Option<TwitterDataset>,
}

fn paris(scale: f64, seed: u64) -> TwitterDataset {
    let cfg = ScenarioConfig::paris_attack().scaled(scale);
    TwitterDataset::simulate(&cfg, seed).expect("paris preset is valid")
}

/// The seed of world `k` of a run with seed `seed` (world 0 uses the
/// seed itself).
fn world_seed(seed: u64, k: usize) -> u64 {
    seed ^ (k as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl World {
    /// Answer world `k` of a run with seed `seed`.
    pub fn generate(spec: &Spec, seed: u64, k: usize) -> World {
        let seed = world_seed(seed, k);
        match spec.source {
            Source::Paris { scale, .. } => {
                let ds = paris(scale, seed);
                World {
                    n: ds.source_count(),
                    m: ds.assertion_count(),
                    graph: ds.graph.clone(),
                    claims: ds.timed_claims(),
                    truth: (0..ds.assertion_count())
                        .map(|a| ds.truth_value(a).is_true())
                        .collect(),
                    dataset: Some(ds),
                }
            }
            Source::Camps { camps } => {
                let (graph, claims, truth, _) = camps_world(camps, spec.tail_batches, seed);
                World {
                    n: camps * CAMP_SOURCES,
                    m: camps * CAMP_ASSERTIONS,
                    graph,
                    claims,
                    truth,
                    dataset: None,
                }
            }
        }
    }
}

impl Tier {
    /// Stream world `k` of a run with seed `seed`: for camps the same
    /// world as answer world `k`; for Paris the preset simulated at
    /// `stream_scale`, half of it primed.
    pub fn generate(spec: &Spec, seed: u64, k: usize) -> Tier {
        let seed = world_seed(seed, k);
        match spec.source {
            Source::Paris { stream_scale, .. } => {
                let small = paris(stream_scale, seed);
                let log = small.timed_claims();
                Tier {
                    n: small.source_count(),
                    m: small.assertion_count(),
                    graph: small.graph.clone(),
                    stream: Stream::cut(&log, log.len() / 2, spec.tail_batches),
                }
            }
            Source::Camps { camps } => {
                let (graph, claims, _, bootstrap) = camps_world(camps, spec.tail_batches, seed);
                Tier {
                    n: camps * CAMP_SOURCES,
                    m: camps * CAMP_ASSERTIONS,
                    graph,
                    stream: Stream::cut(&claims, bootstrap, spec.tail_batches),
                }
            }
        }
    }
}

const CAMP_SOURCES: u32 = 16;
const CAMP_HONEST: u32 = 12;
const CAMP_ASSERTIONS: u32 = 24;
const CAMP_TRUE: u32 = 12;
const CLAIMS_PER_BATCH: usize = 32;

/// `camps` disjoint camps of 12 honest sources and 4 liars over 12 true
/// and 12 false assertions. Liars 2–4 follow liar 1, so their repeats
/// become dependent claims. A bootstrap batch (camp anchors claiming
/// every assertion of their side, one bridge claim, one claim per
/// source) pins each camp to one cluster; the tail is
/// `batches × 32` random claims — honest sources pick a true assertion
/// 90% of the time, liars a false one 80% of the time.
///
/// Returns the graph, the log, the truth column and the bootstrap length.
fn camps_world(
    camps: u32,
    batches: usize,
    seed: u64,
) -> (FollowerGraph, Vec<TimedClaim>, Vec<bool>, usize) {
    let mut graph = FollowerGraph::new(camps * CAMP_SOURCES);
    let mut truth = Vec::with_capacity((camps * CAMP_ASSERTIONS) as usize);
    for c in 0..camps {
        let leader = c * CAMP_SOURCES + CAMP_HONEST;
        for liar in leader + 1..(c + 1) * CAMP_SOURCES {
            graph.add_follow(liar, leader);
        }
        truth.extend((0..CAMP_ASSERTIONS).map(|j| j < CAMP_TRUE));
    }
    let mut t = 0u64;
    let mut claim = |s: u32, j: u32| {
        t += 1;
        TimedClaim::new(s, j, t)
    };
    let mut log = Vec::new();
    for c in 0..camps {
        let (s0, j0) = (c * CAMP_SOURCES, c * CAMP_ASSERTIONS);
        let leader = s0 + CAMP_HONEST;
        for j in 0..CAMP_TRUE {
            log.push(claim(s0, j0 + j));
        }
        for j in CAMP_TRUE..CAMP_ASSERTIONS {
            log.push(claim(leader, j0 + j));
        }
        log.push(claim(leader, j0));
        for s in 1..CAMP_SOURCES {
            let side = if s < CAMP_HONEST { 0 } else { CAMP_TRUE };
            log.push(claim(s0 + s, j0 + side + s % CAMP_TRUE));
        }
    }
    let bootstrap = log.len();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xCA3F_5EED);
    for _ in 0..batches * CLAIMS_PER_BATCH {
        let c = rng.gen_range(0..camps);
        let s = rng.gen_range(0..CAMP_SOURCES);
        let honest = s < CAMP_HONEST;
        let true_side = if honest {
            rng.gen_bool(0.9)
        } else {
            !rng.gen_bool(0.8)
        };
        let j = rng.gen_range(0..CAMP_TRUE) + if true_side { 0 } else { CAMP_TRUE };
        log.push(claim(c * CAMP_SOURCES + s, c * CAMP_ASSERTIONS + j));
    }
    (graph, log, truth, bootstrap)
}
