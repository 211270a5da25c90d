//! Seeded request generation, the closed-loop load generator and the
//! latency summaries computed from what the clients observed.

use qkb_net::{NetAnswer, NetClient};
use qkb_serve::{QueryRequest, Served};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The generator of one named stream of one seed. The benchmark's
/// inputs are a pure function of `--seed` through it; clients, passes and
/// pools draw from independent streams.
pub fn stream_rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
}

/// Zipf(s) over ranks `0..n`: rank `k` has weight `1 / (k + 1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over an empty pool");
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|k| {
                acc += 1.0 / ((k + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One client operation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// A stateless query.
    Query(QueryRequest),
    /// Turn `turn` (1-based) of a session owned by the issuing client.
    Turn {
        session: String,
        turn: u64,
        request: QueryRequest,
    },
}

/// What the benchmark keeps of a reply: the fields the output check
/// compares, with the answers reduced to a fingerprint. Keeping every
/// answer string of a run would put the benchmark's own memory into the
/// program's peak RSS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reply {
    pub served: Served,
    pub n_docs: u64,
    pub n_facts: u64,
    /// [`answers_digest`] of the answers.
    pub answers: u64,
}

impl Reply {
    pub fn of(answer: &NetAnswer) -> Self {
        Reply {
            served: answer.served,
            n_docs: answer.n_docs,
            n_facts: answer.n_facts,
            answers: answers_digest(&answer.answers),
        }
    }
}

/// Order-sensitive fingerprint of an answer list.
pub fn answers_digest(answers: &[String]) -> u64 {
    qkb_util::fingerprint_seq(answers)
}

/// One completed operation as the client saw it.
pub struct Record {
    pub op: Op,
    pub latency_ms: f64,
    /// The reply, or why the operation failed (transport error, BUSY,
    /// error frame).
    pub reply: Result<Reply, String>,
}

/// A client's operation source: `None` ends the client's loop.
pub type OpSource = Box<dyn FnMut() -> Option<Op> + Send>;

/// What one closed-loop phase produced.
pub struct Phase {
    pub records: Vec<Record>,
    pub elapsed: Duration,
}

/// Runs a closed loop: one thread and one connection per source, each
/// sending its next operation only after the previous reply arrived,
/// until its source runs dry or `deadline` passes.
pub fn drive(addr: SocketAddr, sources: Vec<OpSource>, deadline: Instant) -> Result<Phase, String> {
    let start = Instant::now();
    let per_client: Vec<Result<Vec<Record>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sources
            .into_iter()
            .map(|mut next| {
                scope.spawn(move || {
                    let mut client =
                        NetClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    let mut records = Vec::new();
                    while Instant::now() < deadline {
                        let Some(op) = next() else { break };
                        let t = Instant::now();
                        let reply = match &op {
                            Op::Query(request) => client.query(request.clone()),
                            Op::Turn {
                                session, request, ..
                            } => client.query_in_session(session, request.clone()),
                        };
                        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
                        records.push(Record {
                            op,
                            latency_ms,
                            reply: reply.as_ref().map(Reply::of).map_err(|e| e.to_string()),
                        });
                    }
                    Ok(records)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut records = Vec::new();
    for client in per_client {
        records.extend(client?);
    }
    Ok(Phase { records, elapsed })
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Nearest-rank percentile of unsorted samples (0 for none).
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[nearest_rank(sorted.len(), (p * 100.0).round() as usize) - 1]
}

/// 1-based nearest rank of the percentile given in basis points
/// (hundredths of a percent), in integer arithmetic so that e.g. p99.5
/// of 2000 samples is exactly rank 1990.
fn nearest_rank(n: usize, basis_points: usize) -> usize {
    (basis_points * n).div_ceil(10_000).clamp(1, n)
}

/// Candidate tail percentiles in basis points, highest first: the nines
/// ladder (p99.99, p99.9, p99, p90, p50), then the minimum.
const TAIL_PERCENTILES: [usize; 6] = [9999, 9990, 9900, 9000, 5000, 0];

/// The samples a tail percentile must leave beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the highest candidate percentile that still has
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    /// Samples strictly after the percentile's rank.
    pub beyond: usize,
    pub samples: usize,
}

/// Picks the tail percentile of unsorted samples; `None` when there are
/// too few samples for any candidate to leave enough beyond it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    TAIL_PERCENTILES.iter().find_map(|&bp| {
        let rank = nearest_rank(n, bp);
        let beyond = n - rank;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: bp as f64 / 100.0,
            value: sorted[rank - 1],
            beyond,
            samples: n,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;

    #[test]
    fn zipf_favours_low_ranks_and_covers_the_pool() {
        let z = Zipf::new(8, 1.0);
        let mut rng = stream_rng(1, 0);
        let mut counts = [0usize; 8];
        for _ in 0..20_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[7]);
        assert!(counts.iter().all(|&c| c > 0));
    }

    #[test]
    fn tail_picks_the_highest_percentile_with_ten_beyond() {
        let samples: Vec<f64> = (1..=10_000).map(f64::from).collect();
        let t = tail(&samples).expect("enough samples");
        assert_eq!((t.percentile, t.beyond, t.value), (99.9, 10, 9990.0));
        assert_eq!(t.samples, 10_000);

        // One sample fewer and p99.9 leaves only 9 beyond: fall to p99.
        let t = tail(&samples[..9999]).expect("enough samples");
        assert_eq!((t.percentile, t.beyond, t.value), (99.0, 99, 9900.0));

        let t = tail(&samples[..1000]).expect("enough samples");
        assert_eq!((t.percentile, t.beyond, t.value), (99.0, 10, 990.0));
        let t = tail(&samples[..999]).expect("enough samples");
        assert_eq!((t.percentile, t.beyond), (90.0, 99));

        // Order of the input does not matter.
        let mut shuffled = samples.clone();
        shuffled.shuffle(&mut stream_rng(3, 3));
        assert_eq!(tail(&shuffled), tail(&samples));
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let samples: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&samples), None);
        assert_eq!(tail(&[]), None);
        let samples: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&samples).expect("eleven samples leave ten beyond the minimum");
        assert_eq!((t.percentile, t.beyond, t.value), (0.0, 10, 1.0));
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&samples).expect("twenty samples");
        assert_eq!((t.percentile, t.beyond), (50.0, 10));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&samples), 3.0);
        assert_eq!(percentile(&samples, 100.0), 5.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }
}
