//! Posterior bits pinned across commits: a fixed mixed batch on the alarm
//! replica must hash to a golden digest of every probability's `to_bits()`.
//! The agreement suites compare engines and thread counts within one
//! build; this digest compares builds, so any change to the junction
//! tree's arithmetic — a reordered product, a base message reused where
//! the evidence changed it, a different reduction — moves it.

use fastbn_network::{zoo, InferenceError, JoinTree, Posterior, Query};

/// Digest of the answers to [`mixed_batch`]. It moves only with a
/// deliberate change to the inference arithmetic; re-pin it then.
const GOLDEN: u64 = 0xede7_5b30_6cd4_f02f;

/// Every variable as a marginal, under one evidence item and under two,
/// plus one contradictory query: 110 queries in 73 evidence groups, enough
/// for a 2-thread tree to fan the batch out.
fn mixed_batch(arities: &[usize]) -> Vec<Query> {
    let n = arities.len();
    let state = |v: usize, salt: usize| ((v + salt) % arities[v]) as u8;
    let mut queries = Vec::new();
    for t in 0..n {
        let a = (t * 7 + 3) % n;
        let b = (t * 11 + 5) % n;
        queries.push(Query::marginal(t));
        if a != t {
            queries.push(Query::with_evidence(t, vec![(a, state(a, t))]));
        }
        if a != t && b != t && b != a {
            queries.push(Query::with_evidence(
                t,
                vec![(b, state(b, 1)), (a, state(a, 0))],
            ));
        }
    }
    queries.push(Query::with_evidence(0, vec![(1, 0), (1, 1)]));
    queries
}

/// FNV-1a over each answer's target and probability bits; an error
/// contributes a fixed marker.
fn digest(answers: &[Result<Posterior, InferenceError>]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for byte in x.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for a in answers {
        match a {
            Ok(p) => {
                eat(p.target as u64);
                p.probs.iter().for_each(|x| eat(x.to_bits()));
            }
            Err(_) => eat(u64::MAX),
        }
    }
    h
}

#[test]
fn alarm_mixed_batch_digest_is_pinned() {
    let net = zoo::by_name("alarm", 3).expect("zoo network");
    let arities: Vec<usize> = (0..net.n()).map(|v| net.arity(v)).collect();
    let queries = mixed_batch(&arities);
    for threads in [1usize, 2] {
        let answers = JoinTree::build(&net, threads).posteriors(&queries);
        assert_eq!(answers.len(), queries.len());
        let d = digest(&answers);
        assert_eq!(d, GOLDEN, "threads={threads}: digest {d:#018x}");
    }
}
