//! The benchmark's own closed-loop load generator.
//!
//! Each connection is one thread that draws a query, sends it, waits for
//! the reply and records the latency: a caller that waits for its answer
//! before asking again, which is a closed loop. Every draw comes from a
//! ChaCha stream seeded by `--seed`, so a seed fixes the query sequence of
//! each connection.
//!
//! Answers are kept and checked against the oracle after the sub-run, so
//! the check costs the loop nothing.

use crate::layers::{Answer, Client, NodeId};
use crate::workloads::Mix;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    pub src: NodeId,
    pub dst: NodeId,
    pub want_path: bool,
}

/// Inverse-CDF Zipf sampler: rank `r` has weight `1 / (r + 1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(ranks: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(ranks);
        let mut acc = 0.0;
        for r in 0..ranks {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A query stream over the table rows `sources` and destinations `0..n`.
pub struct QueryMix {
    sources: Vec<NodeId>,
    n: NodeId,
    kind: Kind,
}

enum Kind {
    Uniform {
        path_fraction: f64,
    },
    /// A fixed seeded population of queries, drawn by popularity rank.
    Zipf {
        zipf: Zipf,
        population: Vec<Query>,
    },
}

impl QueryMix {
    pub fn new(mix: Mix, sources: &[NodeId], n: usize, seed: u64) -> QueryMix {
        assert!(!sources.is_empty() && n > 0);
        let n = n as NodeId;
        let kind = match mix {
            Mix::Uniform { path_fraction } => Kind::Uniform { path_fraction },
            Mix::Zipf { s, pairs } => {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x5A1F_F00D);
                let population = (0..pairs)
                    .map(|_| Query {
                        src: sources[rng.gen_range(0..sources.len())],
                        dst: rng.gen_range(0..n),
                        want_path: rng.gen_bool(0.5),
                    })
                    .collect();
                Kind::Zipf {
                    zipf: Zipf::new(pairs, s),
                    population,
                }
            }
        };
        QueryMix {
            sources: sources.to_vec(),
            n,
            kind,
        }
    }

    pub fn draw(&self, rng: &mut ChaCha8Rng) -> Query {
        match &self.kind {
            Kind::Uniform { path_fraction } => Query {
                want_path: rng.gen_bool(*path_fraction),
                src: self.sources[rng.gen_range(0..self.sources.len())],
                dst: rng.gen_range(0..self.n),
            },
            Kind::Zipf { zipf, population } => population[zipf.sample(rng)],
        }
    }
}

/// The stream connection `conn` of sub-run `sub_run` draws from.
pub fn stream(seed: u64, sub_run: u32, conn: u32) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (u64::from(sub_run) << 32 | u64::from(conn)),
    )
}

/// What one sub-run saw.
#[derive(Default)]
pub struct SubRun {
    pub latencies_us: Vec<f64>,
    pub answers: Vec<(Query, Answer)>,
    /// Queries that got no answer (connect or socket error).
    pub errors: Vec<String>,
    pub wall_s: f64,
}

impl SubRun {
    pub fn qps(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.answers.len() as f64 / self.wall_s
        } else {
            0.0
        }
    }
}

/// Run `conns` closed loops against `gateway` for `duration`.
pub fn closed_loop(
    gateway: SocketAddr,
    mix: &Arc<QueryMix>,
    conns: u32,
    seed: u64,
    sub_run: u32,
    duration: Duration,
) -> SubRun {
    let started = Instant::now();
    let deadline = started + duration;
    let workers: Vec<_> = (0..conns)
        .map(|conn| {
            let mix = Arc::clone(mix);
            std::thread::spawn(move || {
                let mut out = SubRun::default();
                let mut client = match Client::connect(gateway) {
                    Ok(c) => c,
                    Err(e) => {
                        out.errors.push(format!("connect: {e}"));
                        return out;
                    }
                };
                let mut rng = stream(seed, sub_run, conn);
                while Instant::now() < deadline {
                    let q = mix.draw(&mut rng);
                    let t0 = Instant::now();
                    match client.query(q.src, q.dst, q.want_path) {
                        Ok(a) => {
                            out.latencies_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
                            out.answers.push((q, a));
                        }
                        Err(e) => {
                            // The stream is no longer framed after an
                            // error; stop this connection.
                            out.errors.push(format!("query: {e}"));
                            break;
                        }
                    }
                }
                out
            })
        })
        .collect();
    let mut total = SubRun::default();
    for w in workers {
        match w.join() {
            Ok(part) => {
                total.latencies_us.extend(part.latencies_us);
                total.answers.extend(part.answers);
                total.errors.extend(part.errors);
            }
            Err(_) => total.errors.push("load generator thread panicked".into()),
        }
    }
    total.wall_s = started.elapsed().as_secs_f64();
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(mix: &QueryMix, seed: u64, conn: u32, count: usize) -> Vec<Query> {
        let mut rng = stream(seed, 0, conn);
        (0..count).map(|_| mix.draw(&mut rng)).collect()
    }

    #[test]
    fn a_seed_fixes_the_stream_of_each_connection() {
        let sources = [3, 9, 27];
        for kind in [
            Mix::Uniform { path_fraction: 0.5 },
            Mix::Zipf { s: 1.1, pairs: 200 },
        ] {
            let a = QueryMix::new(kind, &sources, 100, 7);
            let b = QueryMix::new(kind, &sources, 100, 7);
            assert_eq!(draws(&a, 7, 0, 500), draws(&b, 7, 0, 500));
            assert_ne!(draws(&a, 7, 0, 500), draws(&a, 7, 1, 500));
            assert_ne!(draws(&a, 7, 0, 500), draws(&a, 8, 0, 500));
            for q in draws(&a, 7, 0, 500) {
                assert!(sources.contains(&q.src) && q.dst < 100);
            }
        }
    }

    #[test]
    fn the_zipf_population_depends_on_the_seed_and_is_skewed() {
        let sources = [0, 1, 2, 3];
        let kind = Mix::Zipf {
            s: 1.1,
            pairs: 1000,
        };
        let a = QueryMix::new(kind, &sources, 1000, 1);
        let b = QueryMix::new(kind, &sources, 1000, 2);
        assert_ne!(draws(&a, 1, 0, 200), draws(&b, 1, 0, 200));
        // With s = 1.1 a handful of pairs carry a large share of draws;
        // a uniform mix over 1000 pairs would repeat almost nothing.
        let d = draws(&a, 1, 0, 2000);
        let top = d.iter().filter(|q| **q == d[0] || **q == d[1]).count();
        let mut distinct = d.clone();
        distinct.sort_by_key(|q| (q.src, q.dst, q.want_path));
        distinct.dedup();
        assert!(distinct.len() < 900, "{} distinct of 2000", distinct.len());
        assert!(top >= 2);
    }

    #[test]
    fn path_fraction_bounds_are_respected() {
        let all = QueryMix::new(Mix::Uniform { path_fraction: 1.0 }, &[5], 50, 1);
        assert!(draws(&all, 1, 0, 200).iter().all(|q| q.want_path));
        let none = QueryMix::new(Mix::Uniform { path_fraction: 0.0 }, &[5], 50, 1);
        assert!(draws(&none, 1, 0, 200).iter().all(|q| !q.want_path));
    }
}
