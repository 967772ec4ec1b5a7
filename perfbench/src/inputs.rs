//! Seeded generation of every input the program under test receives.
//!
//! The networks are the fixed Table II replicas (zoo seed [`NET_SEED`]),
//! as the paper's networks are fixed; `--seed` draws the sampled datasets
//! and the inference queries. Equal seeds give equal inputs.

use fastbn_data::Dataset;
use fastbn_network::{zoo, BayesNet, Query};

/// Samples per dataset (the paper's Table III setting for diabetes).
pub const SAMPLES: usize = 5000;
/// Zoo seed of every replica network.
pub const NET_SEED: u64 = 1;
/// Queries per `Infer` request.
pub const QUERIES_PER_INFER: usize = 16;
/// Widest dataset a model is served for: the junction tree of a model
/// learned on all 413 diabetes variables needs about 1 TB, so serving
/// legs use at most this many leading columns (all of hepar2).
pub const SERVE_MAX_VARS: usize = 70;

/// Independent input streams under one run seed.
#[derive(Clone, Copy)]
pub enum Stream {
    /// Datasets learned by the PC workloads.
    Learn = 1,
    /// Datasets uploaded to the daemon.
    Serve = 2,
    /// Inference queries.
    Queries = 3,
}

/// SplitMix64: small, fast and good enough to draw benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for item `index` of `stream` under the run `seed`.
    pub fn new(seed: u64, stream: Stream, index: u64) -> Self {
        Rng(derive(seed, stream, index))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is immaterial here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of item `index` of `stream` under the run `seed`.
pub fn derive(seed: u64, stream: Stream, index: u64) -> u64 {
    mix(mix(seed ^ (stream as u64).rotate_left(32)).wrapping_add(index))
}

/// The named Table II replica.
pub fn network(name: &str) -> BayesNet {
    zoo::by_name(name, NET_SEED).expect("workload networks are Table II replicas")
}

/// Dataset `index` of `stream`: [`SAMPLES`] forward samples of `net`.
pub fn dataset(net: &BayesNet, seed: u64, stream: Stream, index: u64) -> Dataset {
    net.sample_dataset(SAMPLES, derive(seed, stream, index))
}

/// The first `k` columns of `data` (all of them when it has no more).
pub fn leading_columns(data: &Dataset, k: usize) -> Dataset {
    if data.n_vars() <= k {
        return data.clone();
    }
    Dataset::from_columns(
        data.names()[..k].to_vec(),
        data.arities()[..k].to_vec(),
        (0..k).map(|v| data.column(v).to_vec()).collect(),
    )
    .expect("a column subset of a valid dataset is valid")
}

/// One `Infer` request: [`QUERIES_PER_INFER`] queries, half marginals and
/// half single-evidence posteriors, over variables with `arities`.
pub fn infer_request(rng: &mut Rng, arities: &[u8]) -> Vec<Query> {
    let n = arities.len();
    (0..QUERIES_PER_INFER)
        .map(|_| {
            let target = rng.below(n);
            if rng.next_u64() & 1 == 0 {
                return Query::marginal(target);
            }
            let mut ev = rng.below(n - 1);
            if ev >= target {
                ev += 1;
            }
            let state = rng.below(usize::from(arities[ev])) as u8;
            Query::with_evidence(target, vec![(ev, state)])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_repeat_per_seed_and_differ_across_seeds() {
        let net = network("alarm");
        let a = dataset(&net, 7, Stream::Learn, 3);
        assert_eq!(a, dataset(&network("alarm"), 7, Stream::Learn, 3));
        assert_ne!(a, dataset(&net, 8, Stream::Learn, 3));
        assert_ne!(a, dataset(&net, 7, Stream::Learn, 4));
        assert_ne!(a, dataset(&net, 7, Stream::Serve, 3));
        assert_eq!((a.n_vars(), a.n_samples()), (37, SAMPLES));
    }

    #[test]
    fn queries_repeat_per_seed_and_stay_in_range() {
        let arities = [2u8, 3, 4, 2, 5];
        let draw = |seed| {
            let mut rng = Rng::new(seed, Stream::Queries, 0);
            (0..50)
                .map(|_| infer_request(&mut rng, &arities))
                .collect::<Vec<_>>()
        };
        let a = draw(11);
        assert_eq!(a, draw(11));
        assert_ne!(a, draw(12));
        let all: Vec<&Query> = a.iter().flatten().collect();
        assert_eq!(all.len(), 50 * QUERIES_PER_INFER);
        assert!(all.iter().any(|q| q.evidence.is_empty()));
        for q in all {
            assert!(q.target < arities.len());
            for &(v, s) in &q.evidence {
                assert_ne!(v, q.target);
                assert!(s < arities[v]);
            }
        }
    }

    #[test]
    fn leading_columns_keeps_a_prefix() {
        let data = dataset(&network("alarm"), 1, Stream::Serve, 0);
        let sub = leading_columns(&data, 10);
        assert_eq!(sub.n_vars(), 10);
        assert_eq!(sub.column(9), data.column(9));
        assert_eq!(leading_columns(&data, 100), data);
    }
}
